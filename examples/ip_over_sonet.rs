//! Gigabit IP over SDH/SONET — the paper's title scenario, end to end:
//!
//!   IP datagrams → 32-bit P⁵ transmitter
//!     → x⁴³+1 payload scrambler → STM-16 framing (A1/A2, B1/B2, POH)
//!     → bit-error channel → frame delineation + descrambling
//!     → 32-bit P⁵ receiver → shared memory,
//!
//! with the Protocol OAM counters read out over the register bus at the
//! end, exactly as a host microprocessor would.  The whole assembly —
//! devices, SONET path, the seeded error channel — comes from
//! [`LinkBuilder`] (DESIGN.md §19.4).
//!
//! ```sh
//! cargo run --release --example ip_over_sonet
//! ```

use p5::prelude::*;

fn main() {
    // An OC-48 path with a 1e-6 bit error rate (a poor-quality section).
    // Frames enter the path whole; it pads each SPE with flag octets
    // only between them.
    let plan = FaultSpec::clean()
        .ber(1e-6)
        .compile(42)
        .expect("valid fault spec");
    let mut link = LinkBuilder::new()
        .width(DatapathWidth::W32)
        .sonet(StmLevel::Stm16)
        .fault(plan)
        .build()
        .expect("link assembles");

    // Offer an IMIX of IP datagrams.
    let sizes = p5_bench::imix_sizes(300, 7);
    let mut sent = Vec::new();
    for (i, len) in sizes.iter().enumerate() {
        let d = p5_bench::ip_like_datagram(*len, i as u64);
        link.send(0x0021, &d);
        sent.push(d);
    }
    link.run(10_000).expect("link did not drain");

    // Compare deliveries (in order; corrupted frames never surface).
    let got: Vec<Vec<u8>> = link.deliveries().into_iter().map(|(_, p)| p).collect();
    let mut delivered = 0usize;
    let mut gi = 0usize;
    for d in &sent {
        if gi < got.len() && &got[gi] == d {
            delivered += 1;
            gi += 1;
        }
    }
    for (name, st) in link.stage_stats() {
        println!(
            "stage {name:>12}: cycles={} words_in={} bytes_out={} stalls={} rejects={}",
            st.cycles, st.words_in, st.bytes_out, st.stall_cycles, st.rejects
        );
    }

    // Where did frames wait?  The link's two boundaries — admission (a
    // send the transmitter answered *not now*) and the line (a pass
    // whose wire bytes a stall storm held) — ranked by blocked offers,
    // the reading `trace_report`'s stall table uses (DESIGN.md §13.3).
    let passes = link.stack();
    let mut boundaries: Vec<_> = passes.named_boundaries().collect();
    boundaries.sort_by_key(|(_, b)| std::cmp::Reverse(b.blocked));
    println!("\nstall attributions:");
    for (name, b) in boundaries {
        println!(
            "  {name:>9}: {:>5} blocked of {:>5} offered ({:.1}%)",
            b.blocked,
            b.offered,
            100.0 * b.blocked as f64 / b.offered.max(1) as f64
        );
    }

    // The link's health verdict, from the same OAM counters the live
    // collector scores (DESIGN.md §17) — here as a one-shot end-of-run
    // judgment over the whole run as a single window.
    let hc = link.health_counters();
    let verdict = HealthPolicy::default().snap_judgment(&p5::obs::HealthSample {
        delivered: hc.rx_frames,
        offered: sent.len() as u64,
        errors: hc.rx_errors,
        ..Default::default()
    });
    println!("\nlink health:");
    println!("  link  state     rx_frames  errors  tx_rejects");
    println!(
        "  {:>4}  {:<8}  {:>9}  {:>6}  {:>10}",
        0,
        verdict.name(),
        hc.rx_frames,
        hc.rx_errors,
        hc.tx_rejects
    );

    // Read the OAM over the bus, as firmware would.
    let bus = link.rx_oam();
    println!(
        "OAM: rx_frames={} fcs_errors={} aborts={} giants={} runts={}",
        bus.read(regs::RX_FRAMES),
        bus.read(regs::FCS_ERRORS),
        bus.read(regs::ABORTS),
        bus.read(regs::GIANTS),
        bus.read(regs::RUNTS),
    );
    println!(
        "datagrams: sent={} delivered-in-order={} corrupted-and-dropped={}",
        sent.len(),
        delivered,
        bus.read(regs::FCS_ERRORS),
    );
    // Every datagram is either delivered intact or shows up in an error
    // counter.  (A corrupted flag can merge two frames into one FCS
    // error, or split one frame into two — hence the ±few tolerance.)
    let accounted = delivered as i64 + link.rx_errors() as i64;
    assert!(
        (accounted - sent.len() as i64).abs() <= 4,
        "accounting hole: {accounted} vs {} sent",
        sent.len()
    );
    assert!(
        delivered > sent.len() * 8 / 10,
        "most frames survive 1e-6 BER"
    );
    println!("end-to-end integrity holds: no silent corruption.");
}
