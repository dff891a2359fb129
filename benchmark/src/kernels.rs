//! Kernel replays: the workload's own corpus pushed through each
//! layer's public functions alone, so a layer's cost is known apart
//! from everything around it.  Only the calls into the layer are
//! timed; preparing its input is not.

use std::time::Instant;

use p5_core::{DatapathWidth, P5};
use p5_crc::{CrcEngine, EngineKind, FcsEngine, FCS32};
use p5_hdlc::{DeframeEvent, Deframer, DeframerConfig, Framer, FramerConfig};
use p5_sonet::{
    frame::bip8, BitErrorChannel, ByteLink, FrameReceiver, FrameTransmitter, OcPath,
    PayloadScrambler, StmLevel,
};
use p5_stream::WireBuf;
use p5_xport::ByteRing;

use crate::corpus::Corpus;
use crate::links::LinkWorkload;
use crate::span::Tracer;
use crate::tcp::{Pair, Wire};
use crate::workload::{closed_loop, Checker, Until, Workload, IPV4};

/// Frames per timed batch: small enough that a batch is far below any
/// budget, large enough that two clock reads vanish in it.
const BATCH: usize = 128;
/// The address/control/protocol header every PPP frame body opens with.
const HEADER: [u8; 4] = [0xFF, 0x03, 0x00, 0x21];
/// The staged cycle model is measured on exactly this many frames, so
/// its cycle count repeats exactly for a given corpus.
const STAGED_FRAMES: usize = 240;
/// `hdlc.expansion_ratio` is counted over exactly this many frames.
const EXPANSION_FRAMES: usize = 16 * BATCH;

/// Time spent inside a layer and the work it did meanwhile.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rate {
    pub ns: u64,
    pub bytes: u64,
    pub frames: u64,
}

impl Rate {
    pub fn ns_per_byte(&self) -> f64 {
        self.ns as f64 / self.bytes.max(1) as f64
    }

    pub fn ns_per_frame(&self) -> f64 {
        self.ns as f64 / self.frames.max(1) as f64
    }

    pub fn gbps(&self) -> f64 {
        self.bytes as f64 * 8.0 / self.ns.max(1) as f64
    }
}

/// The timed batches of one replay.  Interference on a shared host only
/// ever slows a batch, so a layer's own cost is read from the faster
/// half of them: a replay that happened to share its 0.3 s with a noisy
/// neighbour reports the same unit cost as one that did not.
#[derive(Default)]
struct Batches {
    /// `(ns, bytes, frames)` per batch.
    all: Vec<(u64, u64, u64)>,
    ns: u64,
}

impl Batches {
    fn push(&mut self, ns: u64, bytes: u64, frames: u64) {
        self.all.push((ns, bytes, frames));
        self.ns += ns;
    }

    /// Totals over the faster half of the batches (by time per byte).
    fn rate(mut self) -> Rate {
        self.all
            .sort_by(|a, b| (a.0 * b.1.max(1)).cmp(&(b.0 * a.1.max(1))));
        let keep = self.all.len().div_ceil(2);
        let mut r = Rate::default();
        for &(ns, bytes, frames) in &self.all[..keep] {
            r.ns += ns;
            r.bytes += bytes;
            r.frames += frames;
        }
        r
    }
}

/// Run `batch(first_frame)` over successive corpus batches of `frames`
/// frames until the timed total reaches `budget_ns`.  The batch times
/// itself and returns `(ns, bytes)`.
fn replay_by(budget_ns: u64, frames: usize, mut batch: impl FnMut(usize) -> (u64, u64)) -> Rate {
    let mut b = Batches::default();
    let mut at = 0usize;
    // Wall guard: a batch whose untimed preparation dwarfs its timed
    // part must not run away with the whole pass.
    let wall = Instant::now();
    while b.ns < budget_ns && (wall.elapsed().as_nanos() as u64) < 4 * budget_ns {
        let (ns, bytes) = batch(at);
        b.push(ns, bytes, frames as u64);
        at += frames;
    }
    b.rate()
}

fn replay(budget_ns: u64, batch: impl FnMut(usize) -> (u64, u64)) -> Rate {
    replay_by(budget_ns, BATCH, batch)
}

fn timed<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_nanos() as u64, out)
}

/// `header ‖ payload` for `BATCH` frames starting at `at`.
fn bodies(corpus: &Corpus, at: usize) -> Vec<Vec<u8>> {
    (at..at + BATCH)
        .map(|i| {
            let f = corpus.frame(i);
            let mut b = Vec::with_capacity(HEADER.len() + f.len());
            b.extend_from_slice(&HEADER);
            b.extend_from_slice(f);
            b
        })
        .collect()
}

/// Everything the replays measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct Kernels {
    pub crc: Rate,
    pub stuff: Rate,
    pub destuff: Rate,
    /// Wire octets per body octet out of the golden framer (exact).
    pub expansion_ratio: f64,
    pub fused_tx: Rate,
    pub fused_rx: Rate,
    /// Fused transmit plus receive on 40-octet datagrams.
    pub fused_small: Rate,
    /// The staged cycle model: `bytes` are wire octets, `ns` host time.
    pub staged: Rate,
    pub staged_cycles: u64,
    /// The staged receiver fed the same wire octets.
    pub staged_rx: Rate,
    pub staged_rx_cycles: u64,
    pub wirebuf: Rate,
    pub scramble: Rate,
    pub bip8: Rate,
    /// `bytes` are SPE octets emitted.
    pub emit: Rate,
    /// `bytes` are SPE octets recovered.
    pub receive: Rate,
    /// `bytes` are payload octets carried end to end through `OcPath`.
    pub path: Rate,
    /// The path replay again, `bytes` counting line frames run: its
    /// `ns_per_byte` is the cost of one 125 µs frame.
    pub path_per_line_frame: Rate,
    pub ring: Rate,
}

pub fn layer_kernels(corpus: &Corpus, budget_ns: u64) -> Kernels {
    let mut k = Kernels::default();

    // crc: the persistent engine the datapath runs (`p5_crc::fcs32`
    // rebuilds its table on every call and is on no frame path).
    let mut engine = FcsEngine::new(EngineKind::default(), FCS32, 4);
    k.crc = replay(budget_ns, |at| {
        let mut bytes = 0u64;
        let (ns, ()) = timed(|| {
            for i in at..at + BATCH {
                let f = corpus.frame(i);
                engine.reset();
                engine.update(&HEADER);
                engine.update(f);
                std::hint::black_box(engine.value());
                bytes += (HEADER.len() + f.len()) as u64;
            }
        });
        (ns, bytes)
    });

    // hdlc: the golden codec, stuff then destuff the same frames.
    let mut framer = Framer::new(FramerConfig::default());
    let mut deframer = Deframer::new(DeframerConfig::default());
    let mut wire = Vec::new();
    let mut destuff = Batches::default();
    k.stuff = replay(budget_ns, |at| {
        let batch = bodies(corpus, at);
        wire.clear();
        let (ns, ()) = timed(|| {
            for b in &batch {
                framer.encode_into(b, &mut wire);
            }
        });
        let bytes: u64 = batch.iter().map(|b| b.len() as u64).sum();
        let (dns, events) = timed(|| deframer.push_bytes(&wire));
        let good = events
            .iter()
            .filter(|e| matches!(e, DeframeEvent::Frame(_)))
            .count();
        assert_eq!(good, BATCH, "golden codec lost frames");
        destuff.push(dns, bytes, BATCH as u64);
        (ns, bytes)
    });
    k.destuff = destuff.rate();
    // Counted over a fixed stretch of the corpus, not over however many
    // batches the budget bought: an exact count must not follow the
    // clock.
    let mut exact = Framer::new(FramerConfig::default());
    let (mut body_total, mut wire_total) = (0usize, 0usize);
    for at in (0..EXPANSION_FRAMES).step_by(BATCH) {
        wire.clear();
        for b in bodies(corpus, at) {
            exact.encode_into(&b, &mut wire);
            body_total += b.len();
        }
        wire_total += wire.len();
    }
    k.expansion_ratio = wire_total as f64 / body_total as f64;

    // core, fused: transmit device to wire bytes, wire bytes to a
    // receive device.
    let (tx, rx) = fused_pair(corpus, budget_ns, None);
    k.fused_tx = tx;
    k.fused_rx = rx;
    let (tx, rx) = fused_pair(corpus, budget_ns / 2, Some(40));
    k.fused_small = Rate {
        ns: tx.ns + rx.ns,
        bytes: tx.bytes,
        frames: tx.frames.min(rx.frames),
    };

    // core, staged: the cycle model with the fused paths off.  The same
    // frames every repetition, so cycles and wire octets repeat exactly
    // and only the host time varies.
    let (mut tx_reps, mut rx_reps) = (Batches::default(), Batches::default());
    let (mut tx_cycles_per_rep, mut rx_cycles_per_rep) = (0u64, 0u64);
    let wall = Instant::now();
    while tx_reps.ns < budget_ns
        && (tx_reps.all.is_empty() || wall.elapsed().as_nanos() as u64 <= 2 * budget_ns)
    {
        let mut tx = P5::new(DatapathWidth::W32);
        tx.fused_enabled = false;
        for i in 0..STAGED_FRAMES {
            tx.submit(IPV4, corpus.frame(i).to_vec())
                .expect("240 frames fit the transmit queue");
        }
        let (ns, cycles) = timed(|| tx.run_until_idle(u64::MAX));
        let wire = tx.take_wire_out();
        tx_cycles_per_rep = cycles;
        tx_reps.push(ns, wire.len() as u64, STAGED_FRAMES as u64);
        // The same wire through a staged receiver: a receive cycle does
        // other work than a transmit cycle and is costed on its own.
        let mut rx = P5::new(DatapathWidth::W32);
        rx.fused_enabled = false;
        rx.put_wire_in(&wire);
        let (ns, cycles) = timed(|| rx.run_until_idle(u64::MAX));
        assert_eq!(
            rx.take_received().len(),
            STAGED_FRAMES,
            "staged pair lost frames"
        );
        rx_cycles_per_rep = cycles;
        rx_reps.push(ns, wire.len() as u64, STAGED_FRAMES as u64);
    }
    k.staged = tx_reps.rate();
    k.staged_cycles = tx_cycles_per_rep * (k.staged.frames / STAGED_FRAMES as u64);
    k.staged_rx = rx_reps.rate();
    k.staged_rx_cycles = rx_cycles_per_rep * (k.staged_rx.frames / STAGED_FRAMES as u64);

    // stream: one frame through a `WireBuf`.
    let mut buf = WireBuf::new();
    let mut scratch = Vec::new();
    k.wirebuf = replay(budget_ns / 2, |at| {
        let mut bytes = 0u64;
        let (ns, ()) = timed(|| {
            for i in at..at + BATCH {
                let f = corpus.frame(i);
                buf.push_frame(f);
                buf.pop_frame_into(&mut scratch);
                bytes += f.len() as u64;
            }
            std::hint::black_box(&scratch);
        });
        (ns, bytes)
    });

    // sonet: the scramblers and parity on their own, then the framer,
    // the receiver, and the whole path.
    let level = StmLevel::Stm16;
    let spe = level.payload_per_frame();
    // Eight SPEs of octets per batch, so the last, partly filled line
    // frame of a batch is a small share of it.
    let line_batch = (8 * spe * corpus.len()).div_ceil(corpus.payload_bytes());
    let chunk = |at: usize, frames: usize| -> Vec<u8> {
        let mut v = Vec::new();
        for i in at..at + frames {
            v.extend_from_slice(corpus.frame(i));
        }
        v
    };
    let mut x43 = PayloadScrambler::new();
    k.scramble = replay(budget_ns / 2, |at| {
        let mut v = chunk(at, BATCH);
        let (ns, ()) = timed(|| x43.scramble(&mut v));
        std::hint::black_box(&v);
        (ns, v.len() as u64)
    });
    k.bip8 = replay(budget_ns / 2, |at| {
        let v = chunk(at, BATCH);
        let (ns, p) = timed(|| bip8(&v));
        std::hint::black_box(p);
        (ns, v.len() as u64)
    });
    let mut ftx = FrameTransmitter::new(level);
    let mut frx = FrameReceiver::new(level);
    let mut x43 = PayloadScrambler::new();
    let mut receive = Batches::default();
    let spe = spe as u64;
    k.emit = replay_by(budget_ns, line_batch, |at| {
        ftx.offer_payload(&chunk(at, line_batch));
        let (mut ns, mut rns) = (0u64, 0u64);
        let mut frames = 0u64;
        while ftx.backlog() > 0 {
            let (e, line) = timed(|| ftx.emit_frame_scrambled(Some(&mut x43)));
            let (r, payload) = timed(|| frx.push(&line));
            std::hint::black_box(payload);
            ns += e;
            rns += r;
            frames += 1;
        }
        receive.push(rns, frames * spe, line_batch as u64);
        (ns, frames * spe)
    });
    k.receive = receive.rate();
    let mut path = OcPath::new(level, BitErrorChannel::clean());
    // The same batches counted in line frames, for the cost of one
    // 125 µs frame through the whole path.
    let mut per_line_frame = Batches::default();
    k.path = replay_by(budget_ns, line_batch, |at| {
        let v = chunk(at, line_batch);
        let mut line_frames = 0;
        let (ns, out) = timed(|| {
            path.send(&v);
            line_frames = path.frames_to_drain();
            path.run_frames(line_frames);
            path.recv()
        });
        std::hint::black_box(out);
        per_line_frame.push(ns, line_frames as u64, line_batch as u64);
        (ns, v.len() as u64)
    });
    k.path_per_line_frame = per_line_frame.rate();

    // xport: the staging ring between device and socket.
    let mut ring = ByteRing::with_capacity(64 * 1024);
    k.ring = replay(budget_ns / 2, |at| {
        let mut bytes = 0u64;
        let (ns, ()) = timed(|| {
            for i in at..at + BATCH {
                let f = corpus.frame(i);
                let n = ring.push(f);
                std::hint::black_box(ring.as_slices());
                ring.consume(n);
                bytes += n as u64;
            }
        });
        (ns, bytes)
    });
    k
}

/// Fused transmit then fused receive over the corpus; `cut` truncates
/// every datagram (the 40-octet per-frame reading).
fn fused_pair(corpus: &Corpus, budget_ns: u64, cut: Option<usize>) -> (Rate, Rate) {
    let mut tx = P5::new(DatapathWidth::W32);
    let mut rx = P5::new(DatapathWidth::W32);
    let mut wire_in = WireBuf::new();
    let mut rx_batches = Batches::default();
    let tx_rate = replay(budget_ns, |at| {
        let mut bytes = 0u64;
        let mut ns = 0u64;
        let mut wire = Vec::new();
        let mut i = at;
        while i < at + BATCH {
            // Submit until 16 KiB is pending, then take the wire — as
            // the workloads' carriers do, well before the 64 KiB mark
            // where the fused path would refuse.
            let (t, v) = timed(|| {
                let mut pending = 0usize;
                while i < at + BATCH && pending < 16 * 1024 {
                    let f = corpus.frame(i);
                    let f = &f[..cut.unwrap_or(f.len()).min(f.len())];
                    assert!(tx.fused_submit_wire(IPV4, f, 0), "fused TX refused");
                    bytes += f.len() as u64;
                    pending += f.len();
                    i += 1;
                }
                tx.take_wire_out()
            });
            wire.extend_from_slice(&v);
            let (r, ()) = timed(|| tx.recycle_wire_vec(v));
            ns += t + r;
        }
        let mut got = 0usize;
        let mut rx_ns = 0u64;
        for piece in wire.chunks(32 * 1024) {
            wire_in.push_slice(piece);
            let (rns, n) = timed(|| {
                rx.fused_ingest_wire(&mut wire_in, usize::MAX)
                    .expect("fused RX refused");
                let frames = rx.take_received();
                let n = frames.len();
                for f in frames {
                    rx.recycle_rx_payload(f.payload);
                }
                n
            });
            rx_ns += rns;
            got += n;
        }
        assert_eq!(got, BATCH, "fused pair lost frames");
        rx_batches.push(rx_ns, bytes, BATCH as u64);
        (ns, bytes)
    });
    (tx_rate, rx_batches.rate())
}

/// Goodput of a closed loop of `window`-frame windows over a freshly
/// built engine pair.
pub fn pair_goodput(
    corpus: &Corpus,
    wire: Wire,
    session: bool,
    window: usize,
    budget_ns: u64,
) -> f64 {
    let mut pair = Pair::new(wire, session, window.max(64));
    let mut check = Checker::default();
    let mut lat = Vec::new();
    let mut t = Tracer::off();
    // Untimed first: socket buffers, pools and queues settle.
    closed_loop(Until::Elapsed(budget_ns / 4), &mut t, &mut lat, |t| {
        pair.closed_window(corpus, &mut check, window, t)
    });
    let seg = closed_loop(Until::Elapsed(budget_ns), &mut t, &mut lat, |t| {
        pair.closed_window(corpus, &mut check, window, t)
    });
    if seg.counts.failed > 0 {
        return 0.0;
    }
    seg.goodput_gbps()
}

/// Goodput of the in-memory reference link on this corpus — what the
/// ladder ratios of the other workloads divide by.  Windows of up to 64
/// frames but at most 32 KiB of payload, so the reference stays on the
/// fused path whatever the frame size (64 × 1500 B would cross the
/// device's 64 KiB mark and measure the staged fallback instead).
pub fn link_goodput(corpus: &Corpus, budget_ns: u64) -> f64 {
    let mean_frame = corpus.payload_bytes() / corpus.len();
    let window = (32 * 1024 / mean_frame).clamp(1, 64);
    let mut w = LinkWorkload::with_corpus(corpus.clone(), window, None);
    let mut lat = Vec::new();
    let mut t = Tracer::off();
    w.segment(Until::Windows(4), &mut t, &mut lat);
    let seg = w.segment(Until::Elapsed(budget_ns), &mut t, &mut lat);
    if seg.counts.failed > 0 {
        return 0.0;
    }
    seg.goodput_gbps()
}
