//! The hardware pipeline as an actual parallel program: transmitter,
//! channel and receiver on separate threads connected by bounded
//! channels, with the OAM register file shared through a `std::sync` lock
//! exactly as the datapath/host split works on the SoPC.

use p5_core::oam::{regs, MmioBus, Oam, OamHandle};
use p5_core::{DatapathWidth, P5};
use p5_stream::WireBuf;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread;

#[test]
fn three_stage_threaded_pipeline_delivers_in_order() {
    let (wire_tx, wire_rx) = sync_channel::<Vec<u8>>(64);
    let (chan_tx, chan_rx) = sync_channel::<Vec<u8>>(64);
    let datagrams: Vec<Vec<u8>> = (0..200u16)
        .map(|i| {
            (0..(40 + (i % 60) as usize))
                .map(|j| (i as usize * 13 + j) as u8)
                .collect()
        })
        .collect();
    let expected = datagrams.clone();

    let rx_oam = OamHandle::new();
    let rx_oam_for_host = rx_oam.clone();

    // Transmitter thread: clock a P5, ship wire chunks off its PHY
    // end (zero-copy into a reusable WireBuf).
    let producer = thread::spawn(move || {
        let mut p5 = P5::new(DatapathWidth::W32);
        for d in datagrams {
            p5.submit(0x0021, d).unwrap();
        }
        let mut wire = WireBuf::new();
        while !p5.tx.idle() {
            p5.run(1024);
            p5.drain_wire_into(&mut wire);
            if !wire.is_empty() {
                wire_tx.send(wire.take_vec()).unwrap();
            }
        }
    });

    // Channel thread: a transparent section (could impair; here clean).
    let section = thread::spawn(move || {
        for chunk in wire_rx.iter() {
            chan_tx.send(chunk).unwrap();
        }
    });

    // Receiver thread: clock the receiving P5, deliver frames.
    let consumer = thread::spawn(move || {
        let mut p5 = P5::with_oam(DatapathWidth::W32, rx_oam);
        let mut out = Vec::new();
        let mut inbuf = WireBuf::new();
        for chunk in chan_rx.iter() {
            inbuf.push_slice(&chunk);
            p5.ingest_wire(&mut inbuf, usize::MAX);
            p5.run(chunk.len() as u64);
            out.extend(p5.take_received());
        }
        p5.run_until_idle(10_000_000);
        out.extend(p5.take_received());
        out
    });

    producer.join().unwrap();
    section.join().unwrap();
    let frames = consumer.join().unwrap();

    assert_eq!(frames.len(), expected.len());
    for (f, d) in frames.iter().zip(&expected) {
        assert_eq!(&f.payload, d);
    }
    // The host thread (this one) reads the shared OAM afterwards.
    let bus = Oam::new(rx_oam_for_host);
    assert_eq!(bus.read(regs::RX_FRAMES), expected.len() as u32);
    assert_eq!(bus.read(regs::FCS_ERRORS), 0);
}

#[test]
fn duplex_threads_cross_traffic() {
    // Two P5s, each on its own thread, full duplex over two channels.
    let (a2b_tx, a2b_rx) = sync_channel::<Vec<u8>>(16);
    let (b2a_tx, b2a_rx) = sync_channel::<Vec<u8>>(16);

    let station = |name: &'static str,
                   outbound: SyncSender<Vec<u8>>,
                   inbound: Receiver<Vec<u8>>,
                   count: u16| {
        thread::spawn(move || {
            let mut p5 = P5::new(DatapathWidth::W32);
            for i in 0..count {
                p5.submit(0x0021, format!("{name}-{i}").into_bytes())
                    .unwrap();
            }
            let mut got = Vec::new();
            let mut wire = WireBuf::new();
            let mut inbuf = WireBuf::new();
            let mut rounds = 0;
            // Done once our transmitter has drained and the peer's
            // `count` frames have all arrived.  The round cap turns a
            // genuine loss bug into an assertion failure rather than a
            // hang; an idle-count heuristic would race the peer thread's
            // scheduling.
            while !(p5.tx.idle() && got.len() >= count as usize) && rounds < 10_000 {
                p5.run(256);
                p5.drain_wire_into(&mut wire);
                if !wire.is_empty() {
                    // Peer may have finished; ignore send failures then.
                    let _ = outbound.send(wire.take_vec());
                }
                let mut progressed = false;
                while let Ok(chunk) = inbound.try_recv() {
                    inbuf.push_slice(&chunk);
                    progressed = true;
                }
                p5.ingest_wire(&mut inbuf, usize::MAX);
                p5.run(256);
                got.extend(p5.take_received());
                if !progressed {
                    thread::yield_now();
                }
                rounds += 1;
            }
            // Flush wire bytes produced on the final round: the peer may
            // still be waiting on them.
            p5.drain_wire_into(&mut wire);
            if !wire.is_empty() {
                let _ = outbound.send(wire.take_vec());
            }
            got
        })
    };

    let a = station("alpha", a2b_tx, b2a_rx, 40);
    let b = station("beta", b2a_tx, a2b_rx, 40);
    let got_a = a.join().unwrap();
    let got_b = b.join().unwrap();
    assert_eq!(got_a.len(), 40);
    assert_eq!(got_b.len(), 40);
    assert_eq!(got_a[0].payload, b"beta-0");
    assert_eq!(got_b[39].payload, b"alpha-39");
}
