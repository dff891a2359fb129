//! The fleet never falls off the fused path: a link offered more wire
//! in one tick than the device's 64 KiB high-water mark holds the
//! surplus in its ingress queue instead of pushing it through the
//! cycle model.

use p5_runtime::{Fleet, FleetConfig, TrafficSpec};

#[test]
fn a_tick_past_the_wire_high_water_mark_is_held_not_staged() {
    const FRAMES: u64 = 4 * 64;
    let mut fleet = Fleet::new(FleetConfig {
        workers: 1,
        // Room for the whole backlog: this is about where held frames
        // wait, not about shedding.
        ingress_depth: FRAMES as usize,
        // 64 x 1500 B is ~96 KB of wire per tick.
        traffic: Some(TrafficSpec {
            frames_per_tick: 64,
            payload_len: 1500,
            ticks: 4,
            ..TrafficSpec::default()
        }),
        trace_links: vec![0],
        ..FleetConfig::default()
    })
    .expect("valid config");
    assert!(fleet.run_until_drained(10_000), "fleet failed to drain");

    let st = fleet.stats();
    assert_eq!((st.flow.offered, st.flow.accepted), (FRAMES, FRAMES));
    assert_eq!((st.flow.shed, st.flow.rejected), (0, 0));
    // The fleet recycles payloads, so byte-exactness is each device's
    // FCS verdict plus the exact octet count.
    assert_eq!((st.flow.delivered, st.rx.frames_ok), (FRAMES, FRAMES));
    assert_eq!(st.flow.delivered_bytes, FRAMES * 1500);
    assert_eq!(st.rx.errors(), 0);
    // Trace events carry the device cycle counter: both devices end the
    // run without one cycle-model clock.
    let (_, a, b) = &fleet.recorders()[0];
    for rec in [a, b] {
        assert_eq!(rec.events().last().map(|e| e.cycle), Some(0));
    }
}
