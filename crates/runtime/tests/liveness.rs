//! A faulted link whose last closing flag is hit must still read idle:
//! no input can arrive to finish a half-delineated frame, so counting it
//! as work wedges the drain loops.

use p5_runtime::{Fleet, FleetConfig, TrafficSpec};

#[test]
fn faulted_fleet_link_drains_when_its_last_flag_is_hit() {
    let wedged: Vec<u64> = (0..200)
        .filter(|&seed| {
            let mut fleet = Fleet::new(FleetConfig {
                workers: 1,
                seed,
                fault: Some(p5_fault::FaultSpec::clean().ber(5e-3)),
                traffic: Some(TrafficSpec {
                    frames_per_tick: 1,
                    ticks: 2,
                    duplex: false,
                    ..TrafficSpec::default()
                }),
                ..FleetConfig::default()
            })
            .unwrap();
            !fleet.run_until_drained(5_000)
        })
        .collect();
    assert!(wedged.is_empty(), "never drained at seeds {wedged:?}");
}
