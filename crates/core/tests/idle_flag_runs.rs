//! Runs of idle flags through the fused receiver, which counts a run a
//! word at a time once it sees a second flag in a row, against the
//! staged Escape Detect, which counts them one octet per lane.  Every
//! run length from 0 (two frames sharing one flag) to 40 octets, at
//! every word phase, after a closed frame, after an abort (`7D 7E 7E…`)
//! and before any frame, ingested whole and cut by the ingest budget.

use p5_core::{DatapathWidth, ReceivedFrame, P5};
use p5_hdlc::{Framer, FramerConfig, ESCAPE, FLAG};
use p5_stream::WireBuf;

/// A frame body of `len` payload octets, none of them a flag or an
/// escape, so the wire length is known.
fn body(len: usize, seed: u8) -> Vec<u8> {
    let mut b = vec![0xFF, 0x03, 0x00, 0x21];
    b.extend((0..len).map(|i| 0x41 + (i as u8 ^ seed) % 0x30));
    b
}

/// One frame's wire image without its opening flag: body, FCS and the
/// closing flag.
fn frame_tail(len: usize, seed: u8) -> Vec<u8> {
    let wire = Framer::new(FramerConfig::default()).encode(&body(len, seed));
    assert_eq!(wire[0], FLAG);
    wire[1..].to_vec()
}

/// What precedes the run of idle flags.
#[derive(Debug, Clone, Copy)]
enum Before {
    /// A good frame, whose closing flag the run follows.
    Closed,
    /// A partial frame ended by `7D 7E`, which the run follows.
    Abort,
    /// Nothing: the wire opens with the run.
    Nothing,
}

/// The wire, and the offset at which its run of `run` idle flags
/// starts.  `phase` moves that offset through every word phase.
fn wire(before: Before, phase: usize, run: usize) -> (Vec<u8>, usize) {
    let mut w = Vec::new();
    match before {
        Before::Closed => {
            w.push(FLAG);
            w.extend(frame_tail(phase, 1));
        }
        Before::Abort => {
            w.push(FLAG);
            w.extend(body(phase, 2));
            w.extend([ESCAPE, FLAG]);
        }
        Before::Nothing => {}
    }
    let start = w.len();
    w.extend(std::iter::repeat_n(FLAG, run));
    if matches!(before, Before::Nothing) {
        // The frame after the run needs an opening flag of its own.
        w.push(FLAG);
    }
    w.extend(frame_tail(8 + phase, 3));
    (w, start)
}

fn payloads(frames: Vec<ReceivedFrame>) -> Vec<(u16, Vec<u8>)> {
    frames
        .into_iter()
        .map(|f| (f.protocol, f.payload))
        .collect()
}

/// Feed `wire` to a fused receiver in calls of at most `chunk` octets,
/// the first of them cut at `first` octets.
fn fused(width: DatapathWidth, wire: &[u8], first: usize, chunk: usize) -> P5 {
    let mut dev = P5::new(width);
    let mut buf = WireBuf::new();
    buf.push_slice(wire);
    let mut budget = first;
    while !buf.is_empty() {
        dev.fused_ingest_wire(&mut buf, budget)
            .expect("plain duty keeps the fused receiver engaged");
        budget = chunk;
    }
    dev
}

#[test]
fn idle_flag_runs_count_as_the_staged_receiver_counts_them() {
    for before in [Before::Closed, Before::Abort, Before::Nothing] {
        for phase in 0..8 {
            for run in 0..=40 {
                let (wire, start) = wire(before, phase, run);
                for width in [DatapathWidth::W8, DatapathWidth::W32] {
                    let mut staged = P5::new(width);
                    staged.fused_enabled = false;
                    staged.put_wire_in(&wire);
                    staged.run_until_idle(u64::MAX);
                    let want_frames = payloads(staged.take_received());
                    let want_idle = staged.rx.escape.idle_flags;
                    // The run, and the flag that opens the first frame.
                    assert_eq!(want_idle, run as u64 + 1, "{before:?} run {run}");

                    // Whole; cut in the middle of the run, and one octet
                    // into it; and in small budgets at every phase.
                    let cuts = [
                        (usize::MAX, usize::MAX),
                        (start + run / 2, usize::MAX),
                        (start + 1, 3),
                        (1, 1),
                        (5, 5),
                        (8, 8),
                        (13, 13),
                    ];
                    for (first, chunk) in cuts {
                        let mut dev = fused(width, &wire, first, chunk);
                        let ctx = format!(
                            "{before:?}, phase {phase}, run {run}, {width:?}, cut {first}/{chunk}"
                        );
                        assert_eq!(payloads(dev.take_received()), want_frames, "{ctx}");
                        assert_eq!(dev.rx_counters(), staged.rx_counters(), "{ctx}");
                        let (f, s) = (&dev.rx.escape, &staged.rx.escape);
                        assert_eq!(f.idle_flags, s.idle_flags, "{ctx}");
                        assert_eq!(f.frames_delineated, s.frames_delineated, "{ctx}");
                        assert_eq!(f.escapes_removed, s.escapes_removed, "{ctx}");
                    }
                }
            }
        }
    }
}
