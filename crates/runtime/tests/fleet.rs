//! Fleet integration: round trips over every carrier, replay
//! determinism across worker counts, and the
//! telemetry surface.

use p5_fault::FaultSpec;
use p5_runtime::{Carrier, Dir, Fleet, FleetConfig, Offer, RuntimeError, TrafficSpec};
use p5_sonet::StmLevel;

fn drained(mut fleet: Fleet) -> Fleet {
    assert!(fleet.run_until_drained(200_000), "fleet failed to drain");
    fleet
}

#[test]
fn raw_fleet_delivers_generated_load() {
    let fleet = drained(
        Fleet::new(FleetConfig {
            links: 24,
            workers: 4,
            traffic: Some(TrafficSpec {
                frames_per_tick: 2,
                ticks: 16,
                duplex: true,
                ..TrafficSpec::default()
            }),
            ..FleetConfig::default()
        })
        .unwrap(),
    );
    let st = fleet.stats();
    // 24 links x 2 frames x 16 ticks x 2 directions.
    assert_eq!(st.flow.offered, 24 * 2 * 16 * 2);
    assert_eq!(
        st.flow.accepted, st.flow.offered,
        "uncongested fleet sheds nothing"
    );
    assert_eq!(st.flow.delivered, st.flow.offered);
    assert_eq!(st.rx.frames_ok, st.flow.delivered);
    assert_eq!(st.rx.fcs_errors + st.rx.aborts + st.rx.header_errors, 0);
    assert_eq!(st.queued(), 0);
    assert!(st.p99_latency_ticks().is_some());
}

#[test]
fn external_offers_round_trip_both_directions() {
    let mut fleet = Fleet::new(FleetConfig {
        links: 3,
        workers: 1,
        ..FleetConfig::default()
    })
    .unwrap();
    for link in 0..3 {
        assert_eq!(fleet.offer(link, 0x0021, b"ping from a"), Offer::Accepted);
        assert_eq!(
            fleet.offer_dir(link, Dir::BtoA, 0x0021, b"pong from b"),
            Offer::Accepted
        );
    }
    let fleet = drained(fleet);
    let st = fleet.stats();
    assert_eq!(st.flow.offered, 6);
    assert_eq!(st.flow.delivered, 6);
    assert_eq!(st.rx.frames_ok, 6);
    assert_eq!(st.flow.delivered_bytes, 3 * (11 + 11));
}

#[test]
fn sonet_carrier_round_trips() {
    let fleet = drained(
        Fleet::new(FleetConfig {
            links: 4,
            workers: 2,
            carrier: Carrier::Sonet(StmLevel::Stm4),
            traffic: Some(TrafficSpec {
                ticks: 8,
                ..TrafficSpec::default()
            }),
            ..FleetConfig::default()
        })
        .unwrap(),
    );
    let st = fleet.stats();
    assert_eq!(st.flow.delivered, 4 * 8);
    assert_eq!(st.rx.frames_ok, st.flow.delivered);
    assert_eq!(st.rx.fcs_errors, 0);
}

#[test]
fn channelized_carrier_round_trips() {
    // 10 links on STM-4 envelopes: cohorts of 4, 4, 2 tributaries.
    let fleet = drained(
        Fleet::new(FleetConfig {
            links: 10,
            workers: 3,
            carrier: Carrier::Channelized(StmLevel::Stm4),
            traffic: Some(TrafficSpec {
                ticks: 6,
                duplex: true,
                ..TrafficSpec::default()
            }),
            ..FleetConfig::default()
        })
        .unwrap(),
    );
    let st = fleet.stats();
    assert_eq!(st.flow.delivered, 10 * 6 * 2);
    assert_eq!(st.rx.frames_ok, st.flow.delivered);
    assert_eq!(st.rx.fcs_errors, 0);
    for r in fleet.link_reports() {
        assert_eq!(r.flow.delivered, 12, "link {} short-changed", r.link);
    }
}

fn replay_config(workers: usize) -> FleetConfig {
    FleetConfig {
        links: 20,
        workers,
        carrier: Carrier::Raw,
        fault: Some(FaultSpec {
            ber: 2e-4,
            slip: 1e-3,
            transfer_loss: 5e-3,
            ..FaultSpec::default()
        }),
        seed: 0xC0FFEE,
        traffic: Some(TrafficSpec {
            frames_per_tick: 2,
            ticks: 24,
            duplex: true,
            ..TrafficSpec::default()
        }),
        ..FleetConfig::default()
    }
}

/// The acceptance-criterion replay test: same seeds and link count give
/// identical per-link delivery counts and fault statistics, no matter
/// how many workers drive the fleet: one worker, which walks the cohorts
/// in order, is the reference.
#[test]
fn replay_is_independent_of_worker_count() {
    let reference: Vec<_> = drained(Fleet::new(replay_config(1)).unwrap())
        .link_reports()
        .into_iter()
        .map(|r| (r.link, r.flow, r.fault))
        .collect();
    // Faults were injected and something was still delivered.
    assert!(reference.iter().any(|(_, f, _)| f.delivered > 0));
    assert!(reference.iter().any(|(_, _, s)| s.bit_errors > 0));
    for workers in [2, 5, 8, 3] {
        let got: Vec<_> = drained(Fleet::new(replay_config(workers)).unwrap())
            .link_reports()
            .into_iter()
            .map(|r| (r.link, r.flow, r.fault))
            .collect();
        assert_eq!(got, reference, "replay diverged at workers={workers}");
    }
}

#[test]
fn line_rate_cap_backpressures_without_losing_frames() {
    // A 64-octet/tick line under 8 frames/tick of 256-octet offered
    // load: the wire backlog crosses the fused high-water mark, the
    // bounded ingress queue fills behind it, and admission sheds.
    let fleet = drained(
        Fleet::new(FleetConfig {
            links: 6,
            workers: 2,
            ingress_depth: 8,
            wire_bytes_per_tick: Some(64),
            traffic: Some(TrafficSpec {
                frames_per_tick: 8,
                ticks: 128,
                ..TrafficSpec::default()
            }),
            ..FleetConfig::default()
        })
        .unwrap(),
    );
    let st = fleet.stats();
    assert!(st.flow.shed > 0, "over-subscribed line should shed");
    assert_eq!(
        st.flow.offered,
        st.flow.accepted + st.flow.shed + st.flow.rejected,
        "conservation after drain"
    );
    assert_eq!(
        st.flow.delivered, st.flow.accepted,
        "no accepted frame lost"
    );
    assert_eq!(st.device_tx_rejects, st.flow.rejected);
    assert_eq!(st.oam_tx_rejects, st.flow.rejected);
}

#[test]
fn construction_errors() {
    assert!(matches!(
        Fleet::new(FleetConfig {
            links: 0,
            ..FleetConfig::default()
        }),
        Err(RuntimeError::NoLinks)
    ));
    assert!(matches!(
        Fleet::new(FleetConfig {
            carrier: Carrier::Channelized(StmLevel::Stm1),
            ..FleetConfig::default()
        }),
        Err(RuntimeError::InvalidEnvelope(StmLevel::Stm1))
    ));
    assert!(matches!(
        Fleet::new(FleetConfig {
            fault: Some(FaultSpec {
                ber: 2.0, // not a probability
                ..FaultSpec::default()
            }),
            ..FleetConfig::default()
        }),
        Err(RuntimeError::Fault(_))
    ));
}

#[test]
fn prometheus_export_carries_fleet_scope() {
    let fleet = drained(
        Fleet::new(FleetConfig {
            links: 5,
            workers: 2,
            traffic: Some(TrafficSpec {
                ticks: 4,
                ..TrafficSpec::default()
            }),
            ..FleetConfig::default()
        })
        .unwrap(),
    );
    let text = fleet.prometheus();
    for needle in [
        "fleet_delivered",
        "fleet_offered",
        "fleet_frame_latency_ticks_bucket",
        "fleet_rx_frames_ok",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
    let snaps = fleet.snapshots();
    assert!(snaps.iter().any(|s| s.scope == "fleet"));
    assert!(snaps.iter().any(|s| s.scope == "fleet-rx"));
    assert!(snaps.iter().any(|s| s.scope == "fleet-fault"));
}

#[test]
fn idle_fleet_runs_for_free() {
    let mut fleet = Fleet::new(FleetConfig {
        links: 1000,
        workers: 4,
        ..FleetConfig::default()
    })
    .unwrap();
    assert!(fleet.is_idle());
    fleet.run_ticks(1000); // all cohorts skip; this must be near-instant
    assert!(fleet.is_idle());
    let st = fleet.stats();
    assert_eq!(st.flow.offered, 0);
    assert_eq!(st.ticks, 1000);
}

#[test]
fn run_sampled_invokes_callback_and_accounts_workers() {
    let mut fleet = Fleet::new(FleetConfig {
        links: 16,
        workers: 4,
        traffic: Some(TrafficSpec {
            ticks: 32,
            duplex: true,
            ..TrafficSpec::default()
        }),
        ..FleetConfig::default()
    })
    .unwrap();
    let mut samples = 0u32;
    let mut last_delivered = 0u64;
    let spent = fleet.run_sampled(10_000, 8, |f| {
        samples += 1;
        // Deliveries are monotone across samples (snapshots are
        // cumulative readings of a quiesced fleet).
        let d = f.stats().flow.delivered;
        assert!(d >= last_delivered);
        last_delivered = d;
    });
    assert!(samples >= 4, "expected >=4 samples, got {samples}");
    assert_eq!(spent % 8, 0);
    assert!(fleet.is_idle(), "run_sampled stops once drained");
    let st = fleet.stats();
    assert_eq!(st.flow.delivered, 16 * 32 * 2);
    // Worker accounting: every claim landed somewhere, busy time
    // matches the cohorts' executed ticks.
    let totals = st.worker_totals();
    assert!(totals.claims > 0);
    assert!(totals.busy_ticks > 0);
    assert_eq!(st.worker.len(), 4);
    assert!(st.load_skew_milli >= 1000, "skew is max/mean >= 1");
}

#[test]
fn fault_links_confines_the_burst_to_targets() {
    let cfg = FleetConfig {
        links: 12,
        workers: 3,
        fault: Some(FaultSpec {
            ber: 5e-3,
            ..FaultSpec::default()
        }),
        fault_links: Some(vec![7]),
        seed: 0xBEEF,
        traffic: Some(TrafficSpec {
            frames_per_tick: 2,
            ticks: 24,
            duplex: true,
            ..TrafficSpec::default()
        }),
        ..FleetConfig::default()
    };
    let fleet = drained(Fleet::new(cfg).unwrap());
    let reports = fleet.link_reports();
    let bad = &reports[7];
    assert!(
        bad.fault.bit_errors > 0,
        "targeted link saw no injected errors"
    );
    assert!(
        bad.rx.fcs_errors > 0,
        "corruption must surface as FCS errors"
    );
    for r in reports.iter().filter(|r| r.link != 7) {
        assert_eq!(r.fault.bit_errors, 0, "link {} was not targeted", r.link);
        assert_eq!(r.rx.fcs_errors, 0);
        // Untargeted links keep latency tracking.
        assert!(r.p99_latency_ticks.is_some());
    }
}

#[test]
fn trace_links_record_frame_lifecycles() {
    let mut fleet = Fleet::new(FleetConfig {
        links: 8,
        workers: 2,
        trace_links: vec![3, 3, 99],
        traffic: Some(TrafficSpec {
            ticks: 4,
            ..TrafficSpec::default()
        }),
        ..FleetConfig::default()
    })
    .unwrap();
    // Dup and out-of-range ids are dropped.
    assert_eq!(fleet.recorders().len(), 1);
    assert!(fleet.run_until_drained(100_000));
    let (id, ra, rb) = &fleet.recorders()[0];
    assert_eq!(*id, 3);
    // a transmits, b receives: both ends saw lifecycle events.
    assert!(!ra.is_empty(), "end-a recorded nothing");
    assert!(!rb.is_empty(), "end-b recorded nothing");
}

#[test]
fn sched_snapshot_rides_the_scrape() {
    let mut fleet = Fleet::new(FleetConfig {
        links: 4,
        workers: 2,
        traffic: Some(TrafficSpec {
            ticks: 4,
            ..TrafficSpec::default()
        }),
        ..FleetConfig::default()
    })
    .unwrap();
    assert!(fleet.run_until_drained(100_000));
    let snaps = fleet.snapshots();
    let sched = snaps.iter().find(|s| s.scope == "fleet-sched").unwrap();
    assert!(sched.get("claims").unwrap() > 0);
    assert!(sched.get("busy_ticks").unwrap() > 0);
    assert!(sched.get("load_skew_milli").unwrap() >= 1000);
    assert!(fleet.prometheus().contains("p5_fleet_sched_busy_ticks"));
}
