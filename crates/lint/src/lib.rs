//! `p5-lint` — static analysis for the P⁵ structural netlists.
//!
//! The generated logic at the heart of the paper — the 32-bit
//! escape-generate/detect byte-sorting networks with their
//! resynchronisation buffers and backpressure (Figs. 5–6) — is exactly
//! where silent wiring bugs (unbound flip-flop inputs, combinational
//! loops through a stall path, undriven nets) survive until simulation
//! mysteriously diverges.  This crate analyses the [`p5_fpga::Netlist`]
//! IR and the mapped form *without simulating*, the way real FPGA
//! packet-pipeline flows pair generation with static checking.
//!
//! # Rule catalogue
//!
//! | id       | name                    | severity | what it catches |
//! |----------|-------------------------|----------|-----------------|
//! | `P5L001` | `comb-loop`             | error    | combinational cycles (incl. through stall logic) |
//! | `P5L002` | `unbound-dff`           | error    | flip-flops whose D input was never connected |
//! | `P5L003` | `invalid-sig`           | error    | out-of-range `Sig` refs, broken FF cross-links, orphan inputs |
//! | `P5L004` | `bus-alias`             | warning  | the same driver named twice inside one bus (info across buses) |
//! | `P5L005` | `dead-logic`            | info     | gates/FFs unreachable from every output |
//! | `P5L006` | `reset-coverage`        | warning  | partial `sr` domains, constant-false `sr`/`en` pins |
//! | `P5L007` | `fanout-hotspot`        | warning  | nets whose fanout delay term alone blows the clock budget |
//! | `P5L008` | `handshake-comb-loop`   | error    | combinational `in_valid` → `in_ready` paths |
//! | `P5L009` | `ungated-capture`       | warning  | input-capturing registers not gated by the valid/stall handshake |
//! | `P5L010` | `unstable-under-stall`  | warning  | `out_data` combinationally dependent on the stall input |
//! | `P5L011` | `self-gated-enable`     | warning  | a register's CE cone containing its own Q (stall deadlock) |
//! | `P5L012` | `x-leak`                | error    | stale (reset-uncovered) register state reaching `out_data`/`out_valid` before the first valid beat |
//! | `P5L013` | `const-logic`           | info     | registers/gates provably constant under every input sequence |
//! | `P5L014` | `timing-violation`      | error    | negative worst slack from whole-netlist static timing analysis |
//! | `P5L015` | `compose-hazard`        | error    | cross-module combinational ready/valid cycles and capacity-0 deadlock rings |
//!
//! A module is **clean** when it has no findings at warning or error
//! severity (`P5L005` dead gates are informational: discarded carry
//! chains from word-level operators are normal synthesis residue).
//!
//! ```
//! use p5_fpga::Builder;
//!
//! let mut b = Builder::new("demo");
//! let x = b.input("x");
//! let q = b.reg(x, false);
//! b.output("q", &[q]);
//! let report = p5_lint::lint_netlist(&b.finish());
//! assert!(report.is_clean(), "{}", report.render_human());
//! ```

pub mod absint;
pub mod baseline;
pub mod compose;
pub mod fanout;
pub mod graph;
pub mod handshake;
pub mod report;
pub mod structural;
pub mod timing;

use p5_fpga::{map, Device, MapMode, Netlist};

pub use baseline::{Baseline, BaselineEntry, BaselineError};
pub use compose::{LinkGraph, StageContract};
pub use report::{Finding, Report, Rule, Severity};
pub use timing::{static_timing, StaReport};

/// The line clock both datapath widths must meet (2.5 Gbps / 32 bit).
pub const LINE_CLOCK_MHZ: f64 = 78.125;

/// Run every structural and protocol rule over a netlist.
///
/// Never panics, even on deliberately corrupted netlists — that is the
/// point: every reference is bounds-checked before use.
pub fn lint_netlist(n: &Netlist) -> Report {
    let mut findings = Vec::new();
    structural::check_sig_validity(n, &mut findings);
    structural::check_unbound_dffs(n, &mut findings);
    // Deeper traversals only make sense on a netlist whose references
    // resolve; on reference errors we stop rather than chase wild sigs.
    if findings.iter().any(|f| f.severity == Severity::Error) {
        return Report::new(n.name.clone(), findings);
    }
    structural::check_comb_loops(n, &mut findings);
    let has_loop = findings.iter().any(|f| f.rule == Rule::CombLoop);
    structural::check_bus_aliases(n, &mut findings);
    if !has_loop {
        structural::check_dead_logic(n, &mut findings);
        structural::check_reset_coverage(n, &mut findings);
        handshake::check_handshake(n, &mut findings);
        absint::check_x_leak(n, &mut findings);
        absint::check_const_logic(n, &mut findings);
    }
    Report::new(n.name.clone(), findings)
}

/// Full lint: structural/protocol/dataflow rules plus the mapped
/// timing cross-checks on `device` at `clock_mhz` — the P5L007 fanout
/// heuristic and the P5L014 whole-netlist static timing analysis.
///
/// Mapping requires a well-formed netlist, so the mapped rules are
/// skipped (with the structural findings returned as-is) when any
/// error-severity finding is present.
pub fn lint_full(n: &Netlist, device: &Device, clock_mhz: f64) -> Report {
    let mut report = lint_netlist(n);
    if report.max_severity() >= Some(Severity::Error) {
        return report;
    }
    let mapped = map(n, MapMode::Area);
    fanout::check_fanout_hotspots(n, &mapped, device, clock_mhz, &mut report.findings);
    let sta = timing::static_timing(n, &mapped, device, clock_mhz, 1);
    timing::check_timing(&sta, &mut report.findings);
    report.sort_findings();
    report
}

/// The full STA report for one netlist (the `--report-timing` payload):
/// per-endpoint slack against `clock_mhz` with the `keep_paths` worst
/// paths traced gate by gate.  Returns `None` when the netlist has
/// error-severity findings (it cannot be mapped).
pub fn timing_report(
    n: &Netlist,
    device: &Device,
    clock_mhz: f64,
    keep_paths: usize,
) -> Option<StaReport> {
    if lint_netlist(n).max_severity() >= Some(Severity::Error) {
        return None;
    }
    let mapped = map(n, MapMode::Area);
    Some(timing::static_timing(
        n, &mapped, device, clock_mhz, keep_paths,
    ))
}

/// Every netlist the builders export (the same set as the
/// `export_netlists` binary), deduplicated by module name: the 8- and
/// 32-bit tx/rx pipelines, both escape sorter styles at width 4, the
/// FCS-16 CRC unit and the OAM register file.  This is the set `p5lint`
/// and the lint-clean integration tests run over.
pub fn shipped_netlists() -> Vec<Netlist> {
    use p5_rtl::{
        build_crc_unit, build_escape_detect, build_escape_gen, build_oam_regfile, system_modules,
        SorterStyle,
    };
    let mut modules = Vec::new();
    modules.extend(system_modules(1));
    modules.extend(system_modules(4));
    modules.push(build_escape_gen(4, SorterStyle::OneHot));
    modules.push(build_escape_detect(4, SorterStyle::OneHot));
    modules.push(build_crc_unit(p5_crc::FCS16, 2));
    modules.push(build_oam_regfile());
    let mut seen = std::collections::HashSet::new();
    modules.retain(|n| seen.insert(n.name.clone()));
    modules
}

/// The shipped pipeline compositions the P5L015 pass verifies: for each
/// datapath width, the transmit chain (control → CRC → escape-generate)
/// and the receive chain (escape-detect → CRC → control), with each
/// stage's handshake contract extracted from its netlist — plus the
/// *fused* fast paths, where each chain executes as one composed
/// operation and must therefore stand as a single contract
/// ([`StageContract::compose_chain`]).
pub fn shipped_link_graphs() -> Vec<LinkGraph> {
    let mut graphs = Vec::new();
    for width in [1usize, 4] {
        let modules = p5_rtl::system_modules(width);
        let contracts: Vec<StageContract> = modules.iter().map(StageContract::extract).collect();
        let bits = width * 8;
        let mut it = contracts.into_iter();
        let tx: Vec<StageContract> = it.by_ref().take(3).collect();
        let rx: Vec<StageContract> = it.collect();
        let fused_tx = StageContract::compose_chain(format!("fused {bits}-bit tx"), &tx);
        let fused_rx = StageContract::compose_chain(format!("fused {bits}-bit rx"), &rx);
        graphs.push(LinkGraph::chain(format!("P5 {bits}-bit tx chain"), tx));
        graphs.push(LinkGraph::chain(format!("P5 {bits}-bit rx chain"), rx));
        graphs.push(LinkGraph::chain(
            format!("P5 {bits}-bit fused tx path"),
            vec![fused_tx],
        ));
        graphs.push(LinkGraph::chain(
            format!("P5 {bits}-bit fused rx path"),
            vec![fused_rx],
        ));
    }
    graphs
}

#[cfg(test)]
mod tests {
    use super::*;
    use p5_fpga::{devices, Builder};

    #[test]
    fn trivial_register_pipeline_is_clean() {
        let mut b = Builder::new("ok");
        let x = b.input_bus("x", 4);
        let en = b.input("en");
        let q = b.reg_word_en(&x, en, 0);
        b.output("q", &q);
        let r = lint_full(&b.finish(), &devices::XC2V1000_6, LINE_CLOCK_MHZ);
        assert!(r.is_clean(), "{}", r.render_human());
    }

    #[test]
    fn reports_carry_the_module_name() {
        let b = Builder::new("named module");
        let r = lint_netlist(&b.finish());
        assert_eq!(r.module, "named module");
    }
}
