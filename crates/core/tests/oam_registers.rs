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
