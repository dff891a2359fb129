//! The OAM register file as a host sees it while the device runs: the
//! device-written registers (counters, INT_PENDING) read live and lock-free
//! from another thread, and the host-programmed configuration reaching
//! the datapath's cached copy at the next frame.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use p5_core::oam::{ctrl, rx_errors};
use p5_core::{regs, DatapathWidth, Interrupt, MmioBus, Oam, P5};
use p5_stream::{EventKind, SharedRecorder, WireBuf};

/// Payload octets that never need stuffing, so a flipped bit always
/// lands inside a frame and shows as an FCS error.
const PAYLOAD: [u8; 40] = [0x11; 40];

/// Send one fused frame and feed its wire back into the same device's
/// receiver, corrupting one payload octet when `corrupt`.
fn round_trip(dev: &mut P5, wire: &mut WireBuf, corrupt: bool) {
    assert!(dev.offer_frame(0x0021, &PAYLOAD, 0), "plain duty takes it");
    let mut bytes = dev.take_wire_out();
    if corrupt {
        let at = bytes.len() / 2;
        bytes[at] ^= 0x01;
    }
    wire.push_slice(&bytes);
    dev.recycle_wire_vec(bytes);
    dev.ingest_wire(wire, usize::MAX);
    while let Some(f) = dev.pop_received() {
        dev.recycle_rx_payload(f.payload);
    }
}

/// The registers a cause stands for, read as the host would.
fn count_for(bus: &Oam, cause: Interrupt) -> u64 {
    match cause {
        Interrupt::RxFrame => u64::from(bus.read(regs::RX_FRAMES)),
        Interrupt::RxError => rx_errors(bus),
        Interrupt::TxDone => u64::from(bus.read(regs::TX_FRAMES)),
    }
}

const CAUSES: [Interrupt; 3] = [Interrupt::RxFrame, Interrupt::RxError, Interrupt::TxDone];

#[test]
fn a_host_polling_from_another_thread_sees_monotone_registers_and_loses_no_cause() {
    const FRAMES: u64 = 100_000;
    let mut dev = P5::new(DatapathWidth::W32);
    let mut bus = Oam::new(dev.oam.clone());
    let done = Arc::new(AtomicBool::new(false));

    let device = {
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let mut wire = WireBuf::new();
            for i in 0..FRAMES {
                round_trip(&mut dev, &mut wire, i % 97 == 0);
            }
            done.store(true, Ordering::Release);
            dev
        })
    };

    // Per cause: the count read right after the host last acknowledged it.
    let mut after_ack = [0u64; 3];
    let mut last = [0u64; 4];
    let mut acks = 0u64;
    loop {
        let finished = done.load(Ordering::Acquire);
        let now = [
            u64::from(bus.read(regs::RX_FRAMES)),
            u64::from(bus.read(regs::TX_FRAMES)),
            rx_errors(&bus),
        ];
        for (i, (&n, l)) in now.iter().zip(&mut last).enumerate() {
            assert!(n >= *l, "register {i} went backwards: {l} -> {n}");
            *l = n;
        }
        let pending = bus.read(regs::INT_PENDING);
        if pending != 0 {
            bus.write(regs::INT_PENDING, pending);
            acks += 1;
            for (seen, cause) in after_ack.iter_mut().zip(CAUSES) {
                if pending & cause as u32 != 0 {
                    *seen = count_for(&bus, cause);
                }
            }
        }
        if finished {
            break;
        }
    }
    let dev = device.join().expect("device thread");
    assert!(acks > 0, "the host never saw a cause");

    let c = *dev.rx_counters();
    assert_eq!(u64::from(bus.read(regs::RX_FRAMES)), c.frames_ok);
    assert_eq!(rx_errors(&bus), c.errors());
    assert_eq!(
        u64::from(bus.read(regs::TX_FRAMES)),
        dev.tx.control.frames_sent
    );
    assert_eq!(dev.tx.control.frames_sent, FRAMES);
    assert_eq!(c.frames_ok + c.errors(), FRAMES);
    assert!(c.fcs_errors > 0, "{c:?}");

    // Anything counted after the last acknowledge of a cause left that
    // cause latched.
    let pending = bus.read(regs::INT_PENDING);
    for (seen, cause) in after_ack.into_iter().zip(CAUSES) {
        if count_for(&bus, cause) > seen {
            assert_ne!(pending & cause as u32, 0, "{cause:?} lost after {seen}");
        }
    }
}

#[test]
fn the_device_never_moves_the_configuration_version() {
    let mut dev = P5::new(DatapathWidth::W32);
    let bus = Oam::new(dev.oam.clone());
    let version = dev.oam.version();
    let mut wire = WireBuf::new();
    for i in 0..1000 {
        round_trip(&mut dev, &mut wire, i % 10 == 0);
    }
    assert_eq!(dev.oam.version(), version);
    assert_eq!(bus.read(regs::TX_FRAMES), 1000);
    assert_eq!(bus.read(regs::RX_FRAMES), 900);
    assert_eq!(bus.read(regs::FCS_ERRORS), 100);
    assert_eq!(
        bus.read(regs::INT_PENDING),
        Interrupt::RxFrame as u32 | Interrupt::RxError as u32 | Interrupt::TxDone as u32
    );
}

#[test]
fn host_configuration_writes_reach_the_next_fused_frame() {
    let mut tx = P5::new(DatapathWidth::W32);
    let mut rx = P5::new(DatapathWidth::W32);
    let (mut tx_bus, mut rx_bus) = (Oam::new(tx.oam.clone()), Oam::new(rx.oam.clone()));
    let mut wire = WireBuf::new();
    let mut send = |tx: &mut P5, rx: &mut P5| {
        assert!(tx.fused_submit_wire(0x0021, &PAYLOAD, 0));
        tx.drain_wire_into(&mut wire);
        rx.fused_ingest_wire(&mut wire, usize::MAX);
        rx.pop_received()
    };

    assert_eq!(send(&mut tx, &mut rx).map(|f| f.address), Some(0xFF));
    tx_bus.write(regs::ADDRESS, 0x05);
    rx_bus.write(regs::ADDRESS, 0x05);
    assert_eq!(send(&mut tx, &mut rx).map(|f| f.address), Some(0x05));

    // A body of 44 octets: over a 32-octet MAX_BODY it is a giant.
    rx_bus.write(regs::MAX_BODY, 32);
    assert!(send(&mut tx, &mut rx).is_none());
    assert_eq!(rx_bus.read(regs::GIANTS), 1);
    rx_bus.write(regs::MAX_BODY, 1504);
    assert!(send(&mut tx, &mut rx).is_some());

    // CTRL too: with the receiver disabled the fused path stands down.
    rx_bus.write(regs::CTRL, ctrl::TX_ENABLE);
    assert!(tx.fused_submit_wire(0x0021, &PAYLOAD, 0));
    tx.drain_wire_into(&mut wire);
    assert_eq!(rx.fused_ingest_wire(&mut wire, usize::MAX), None);
}

#[test]
fn traced_host_writes_arrive_as_oam_write_events_on_the_fused_path() {
    let mut dev = P5::new(DatapathWidth::W32);
    let rec = SharedRecorder::with_capacity(64);
    dev.set_trace(Box::new(rec.clone()));
    let mut bus = Oam::new(dev.oam.clone());
    let mut wire = WireBuf::new();
    round_trip(&mut dev, &mut wire, false);
    bus.write(regs::ADDRESS, 0x07);
    bus.write(regs::INT_PENDING, Interrupt::TxDone as u32);
    round_trip(&mut dev, &mut wire, false);
    let writes: Vec<(u32, u32)> = rec
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::OamWrite { addr, value } => Some((addr, value)),
            _ => None,
        })
        .collect();
    assert_eq!(
        writes,
        [
            (regs::ADDRESS, 0x07),
            (regs::INT_PENDING, Interrupt::TxDone as u32)
        ]
    );
}

/// Every device-written register as the host reads it: STATUS,
/// INT_PENDING, then `TX_FRAMES..=TX_REJECTS`.
fn bus_image(bus: &Oam) -> Vec<u32> {
    [regs::STATUS, regs::INT_PENDING]
        .into_iter()
        .chain((0..regs::COUNTERS as u32).map(|i| regs::TX_FRAMES + 4 * i))
        .map(|addr| bus.read(addr))
        .collect()
}

/// What the host has acknowledged: the counts at its last write to
/// INT_PENDING, and whether a frame has left the transmitter since.
#[derive(Default)]
struct Acked {
    frames_ok: u64,
    errors: u64,
    frames_sent: u64,
    tx_done: bool,
}

/// The same registers built from scratch out of the datapath's state.
fn fresh_image(dev: &P5, acked: &mut Acked) -> Vec<u32> {
    let c = *dev.rx_counters();
    let sent = dev.tx.control.frames_sent;
    acked.tx_done |= sent > acked.frames_sent && dev.tx.idle();
    let rx_busy = dev.rx.escape.occupancy() > 0 || !dev.rx.control.idle();
    let pending = [
        (c.frames_ok > acked.frames_ok, Interrupt::RxFrame),
        (c.errors() > acked.errors, Interrupt::RxError),
        (acked.tx_done, Interrupt::TxDone),
    ]
    .into_iter()
    .filter(|&(on, _)| on)
    .fold(0, |bits, (_, cause)| bits | cause as u32);
    [
        u64::from(!dev.tx.idle()) | u64::from(rx_busy) << 1,
        u64::from(pending),
        sent,
        c.frames_ok,
        c.fcs_errors,
        c.aborts,
        c.runts,
        c.giants,
        c.address_mismatches,
        c.header_errors,
        dev.tx.control.submit_rejects,
    ]
    .into_iter()
    .map(|v| v as u32)
    .collect()
}

#[test]
fn every_register_equals_a_fresh_image_after_every_step() {
    for width in [DatapathWidth::W8, DatapathWidth::W32] {
        let mut dev = P5::new(width);
        let mut bus = Oam::new(dev.oam.clone());
        let mut acked = Acked::default();
        let mut wire = WireBuf::new();
        let mut step = 0;
        let mut check = |dev: &P5, bus: &Oam, acked: &mut Acked, what: &str| {
            step += 1;
            let want = fresh_image(dev, acked);
            assert_eq!(bus_image(bus), want, "{width:?} step {step}: {what}");
        };
        check(&dev, &bus, &mut acked, "power-on");

        // Fused submits and ingests, the receive side fed in 7-octet
        // bites so ingests end mid-frame: good frames, a corrupted one,
        // a runt, an abort and another station's address.
        for i in 0..6 {
            assert!(dev.offer_frame(0x0021, &PAYLOAD[..8 * i], 0));
            check(&dev, &bus, &mut acked, "fused submit");
            let mut bytes = dev.take_wire_out();
            if i == 2 {
                bytes[6] ^= 0x01;
            }
            wire.push_slice(&bytes);
            dev.recycle_wire_vec(bytes);
        }
        wire.push_slice(&[0x7E, 0x01, 0x7E]);
        wire.push_slice(&[0xFF, 0x03, 0x00, 0x7D, 0x7E]);
        wire.push_slice(
            &p5_hdlc::Framer::default()
                .encode(&[0x05, 0x03, 0x00, 0x21, 0x11, 0x22, 0x33, 0x44, 0x55]),
        );
        while !wire.is_empty() {
            dev.ingest_wire(&mut wire, 7);
            check(&dev, &bus, &mut acked, "fused ingest");
        }
        let c = *dev.rx_counters();
        assert_eq!(
            (c.frames_ok, c.fcs_errors, c.runts, c.aborts),
            (5, 1, 1, 1),
            "{c:?}"
        );
        assert_eq!(c.address_mismatches, 1, "{c:?}");
        while let Some(f) = dev.pop_received() {
            dev.recycle_rx_payload(f.payload);
        }
        check(&dev, &bus, &mut acked, "drained deliveries");

        // The host acknowledges every cause; from here a cause latches
        // only for what moves after it.
        bus.write(regs::INT_PENDING, 0b111);
        let c = *dev.rx_counters();
        acked = Acked {
            frames_ok: c.frames_ok,
            errors: c.errors(),
            frames_sent: dev.tx.control.frames_sent,
            tx_done: false,
        };
        check(&dev, &bus, &mut acked, "acknowledged");

        // Cycle-model duty: fill the staged queue until a submit is
        // refused, clock it out, and clock the wire back in.
        dev.fused_enabled = false;
        let mut i = 0;
        while dev.submit(0x0057, PAYLOAD[..i % 40].to_vec()).is_ok() {
            check(&dev, &bus, &mut acked, "staged submit");
            i += 1;
        }
        check(&dev, &bus, &mut acked, "staged submit refused");
        assert_eq!(dev.tx.control.submit_rejects, 1);
        dev.run_until_idle(1_000_000);
        check(&dev, &bus, &mut acked, "staged transmit");
        let bytes = dev.take_wire_out();
        wire.push_slice(&bytes);
        dev.ingest_wire(&mut wire, usize::MAX);
        check(&dev, &bus, &mut acked, "staged ingest queued");
        for _ in 0..50 {
            dev.clock();
            check(&dev, &bus, &mut acked, "staged clock");
        }
        dev.run_until_idle(1_000_000);
        check(&dev, &bus, &mut acked, "staged receive");
        assert_eq!(dev.rx_counters().frames_ok, acked.frames_ok + i as u64);

        // Back to plain duty.
        dev.fused_enabled = true;
        let mut wire_back = WireBuf::new();
        for corrupt in [false, true, false] {
            round_trip(&mut dev, &mut wire_back, corrupt);
            check(&dev, &bus, &mut acked, "fused round trip");
        }
    }
}
