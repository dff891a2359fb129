//! Link Quality Monitoring end to end: LQR monitors fed from the P⁵'s
//! OAM counters measure exactly the loss a noisy channel inflicts.

use p5_core::oam::{regs, MmioBus, Oam};
use p5_core::{DatapathWidth, P5};
use p5_ppp::lqr::{LqrMonitor, LqrPacket};
use rand::{rngs::StdRng, Rng, SeedableRng};

#[test]
fn lqr_measures_exactly_the_channel_loss() {
    let mut tx = P5::new(DatapathWidth::W32);
    let mut rx = P5::new(DatapathWidth::W32);
    let bus_rx = Oam::new(rx.oam.clone());

    let mut mon_a = LqrMonitor::new(0xA);
    let mut mon_b = LqrMonitor::new(0xB);
    let mut rng = StdRng::seed_from_u64(404);

    let exchange = |mon_a: &mut LqrMonitor, mon_b: &mut LqrMonitor| {
        let ra = mon_a.build_report();
        mon_b.receive_report(LqrPacket::parse(&ra.to_bytes()).unwrap());
        let rb = mon_b.build_report();
        mon_a.receive_report(LqrPacket::parse(&rb.to_bytes()).unwrap());
    };

    let mut prev_rx_frames = 0u32;
    let mut total_corrupted = 0u32;
    for interval in 0..4 {
        // Send 50 frames; corrupt a known subset on the wire.
        let mut corrupted = 0u32;
        for i in 0..50u32 {
            tx.submit(0x0021, vec![(interval * 50 + i) as u8; 60])
                .unwrap();
            tx.run_until_idle(100_000);
            let mut wire = tx.take_wire_out();
            if rng.gen_bool(0.2) {
                wire[10] ^= 0x40; // payload corruption -> FCS error
                corrupted += 1;
            }
            rx.put_wire_in(&wire);
            rx.run_until_idle(100_000);
        }
        total_corrupted += corrupted;
        rx.take_received();

        // Firmware feeds the monitors from the counters.
        mon_a.note_sent(50, 50 * 60);
        let rx_frames = bus_rx.read(regs::RX_FRAMES);
        let delivered = rx_frames - prev_rx_frames;
        prev_rx_frames = rx_frames;
        mon_b.note_received(delivered, delivered * 60, 0, bus_rx.read(regs::FCS_ERRORS));
        exchange(&mut mon_a, &mut mon_b);

        if interval > 0 {
            let q = mon_a.outbound_quality().expect("measured");
            assert_eq!(q.sent, 50, "interval {interval}");
            assert_eq!(q.lost(), corrupted, "interval {interval}");
        }
    }
    // Global accounting agrees with the OAM.
    assert_eq!(bus_rx.read(regs::FCS_ERRORS), total_corrupted);
    assert_eq!(bus_rx.read(regs::RX_FRAMES), 200 - total_corrupted);
}
