//! `P5L014` — true static timing analysis over the mapped netlist.
//!
//! Where `P5L007` flags single nets whose fanout delay alone blows the
//! budget, this pass prices whole paths: topological arrival-time
//! propagation ([`p5_fpga::timing::Arrivals`], the recurrence behind
//! [`p5_fpga::timing::analyze`]'s fMax), per-endpoint required
//! times and slack, and a critical-path report with the gate-by-gate
//! breakdown — what a designer reads off a real timing analyzer before
//! deciding whether to pipeline deeper or replicate a driver.
//!
//! Endpoints are every flip-flop data/CE/SR pin and every primary
//! output bit; the start of every path is a register Q (or a primary
//! input, assumed registered upstream) at `t_cq`.  A negative worst
//! slack is an **error**: the netlist cannot run at the requested clock
//! on the requested device.

use p5_fpga::timing::Arrivals;
use p5_fpga::{Device, MappedNetlist, Netlist, NodeKind, Sig};

use crate::report::{json_string, Finding, Rule, Severity};

/// One hop of a critical path: a mapped LUT (or the endpoint leaf),
/// with the delay added at this hop and the cumulative arrival.
#[derive(Debug, Clone)]
pub struct PathStep {
    /// The signal this hop produces.
    pub sig: Sig,
    /// Human label of the driver (`flip-flop 3 Q`, `input in_data[2]`…).
    pub through: String,
    /// Net + LUT delay added by this hop, ns.
    pub incr_ns: f64,
    /// Arrival time after this hop, ns.
    pub arrival_ns: f64,
}

/// Slack at one endpoint, with the worst path into it.
#[derive(Debug, Clone)]
pub struct TimingPath {
    /// What the path ends at (`flip-flop 7 D`, `output out_data[0]`).
    pub endpoint: String,
    /// The signal feeding that endpoint.
    pub endpoint_sig: Sig,
    pub arrival_ns: f64,
    pub required_ns: f64,
    pub slack_ns: f64,
    /// Source-to-endpoint hops (first entry is the launching leaf).
    pub steps: Vec<PathStep>,
}

/// Whole-netlist STA result at one clock on one device.
#[derive(Debug, Clone)]
pub struct StaReport {
    pub module: String,
    pub device: &'static str,
    pub clock_mhz: f64,
    pub period_ns: f64,
    /// Most negative endpoint slack, ns.
    pub worst_slack_ns: f64,
    /// The clock this netlist could actually sustain.
    pub fmax_mhz: f64,
    pub endpoints: usize,
    /// Endpoints with negative slack.
    pub violations: usize,
    /// The worst `N` paths, most critical first.
    pub paths: Vec<TimingPath>,
}

fn driver_label(n: &Netlist, sig: Sig) -> String {
    for bus in &n.inputs {
        if let Some(bit) = bus.sigs.iter().position(|&s| s == sig) {
            return format!("input {}[{bit}]", bus.name);
        }
    }
    match n.nodes.get(sig as usize) {
        Some(NodeKind::FfOutput(idx)) => format!("flip-flop {idx} Q"),
        Some(NodeKind::Const(v)) => format!("constant {v}"),
        Some(NodeKind::Input) => format!("input node {sig}"),
        _ => format!("LUT {sig}"),
    }
}

/// Run STA: arrival times over the mapped LUT network (post-layout net
/// model), slack per endpoint against `clock_mhz`, and the worst
/// `keep_paths` critical paths fully traced.
pub fn static_timing(
    n: &Netlist,
    m: &MappedNetlist,
    dev: &Device,
    clock_mhz: f64,
    keep_paths: usize,
) -> StaReport {
    let period_ns = 1000.0 / clock_mhz;

    let arrivals = Arrivals::compute(m, dev, true);

    // Endpoints: FF D/CE/SR pins and primary output bits.  The capture
    // cost (`t_su`) is charged at the endpoint, so required = T − t_su.
    let mut endpoints: Vec<(String, Sig)> = Vec::new();
    for (i, dff) in n.dffs.iter().enumerate() {
        for (pin, sig) in [("D", dff.d), ("CE", dff.en), ("SR", dff.sr)] {
            if let Some(s) = sig {
                endpoints.push((format!("flip-flop {i} {pin}"), s));
            }
        }
    }
    for bus in &n.outputs {
        for (bit, &s) in bus.sigs.iter().enumerate() {
            endpoints.push((format!("output {}[{bit}]", bus.name), s));
        }
    }

    let required_ns = period_ns - dev.t_su;
    let mut slacks: Vec<(f64, String, Sig)> = endpoints
        .iter()
        .map(|(name, sig)| (required_ns - arrivals.at(*sig), name.clone(), *sig))
        .collect();
    // Most critical first; name then sig breaks ties deterministically.
    slacks.sort_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then_with(|| a.1.cmp(&b.1))
            .then(a.2.cmp(&b.2))
    });

    let worst_slack_ns = slacks.first().map_or(required_ns - dev.t_cq, |s| s.0);
    let worst_arrival = slacks
        .first()
        .map_or(dev.t_cq, |&(_, _, sig)| arrivals.at(sig));
    let violations = slacks.iter().filter(|s| s.0 < 0.0).count();

    let paths = slacks
        .iter()
        .take(keep_paths)
        .map(|(slack, name, sig)| {
            // Walk the argmax chain back to the launching leaf, then
            // replay it forward to accumulate per-hop delays.
            let mut chain = vec![*sig];
            let mut cur = *sig;
            while let Some(prev) = arrivals.critical_leaf(cur) {
                chain.push(prev);
                cur = prev;
            }
            chain.reverse();
            let mut steps = Vec::with_capacity(chain.len());
            let mut t = dev.t_cq;
            for (i, &hop) in chain.iter().enumerate() {
                let incr = if i == 0 {
                    0.0 // launch point: t_cq already charged
                } else {
                    m.net_delay(dev, chain[i - 1], true) + dev.t_lut
                };
                t += incr;
                steps.push(PathStep {
                    sig: hop,
                    through: driver_label(n, hop),
                    incr_ns: incr,
                    arrival_ns: t,
                });
            }
            TimingPath {
                endpoint: name.clone(),
                endpoint_sig: *sig,
                arrival_ns: arrivals.at(*sig),
                required_ns,
                slack_ns: *slack,
                steps,
            }
        })
        .collect();

    StaReport {
        module: n.name.clone(),
        device: dev.name,
        clock_mhz,
        period_ns,
        worst_slack_ns,
        fmax_mhz: 1000.0 / (worst_arrival + dev.t_su),
        endpoints: slacks.len(),
        violations,
        paths,
    }
}

/// `P5L014` — one error per module whose worst slack is negative, with
/// the critical path spelled out hop by hop.
pub fn check_timing(sta: &StaReport, findings: &mut Vec<Finding>) {
    if sta.worst_slack_ns >= 0.0 {
        return;
    }
    let worst = sta.paths.first();
    let route = worst.map_or(String::new(), |p| {
        let hops: Vec<&str> = p.steps.iter().map(|s| s.through.as_str()).collect();
        format!(" via {}", hops.join(" → "))
    });
    let endpoint = worst.map_or("<none>".to_string(), |p| p.endpoint.clone());
    findings.push(
        Finding::new(
            Rule::TimingViolation,
            Severity::Error,
            format!(
                "worst slack {:.2} ns at {} MHz on {}: {} of {} endpoint(s) violate; \
                 critical path ends at {endpoint}{route}",
                sta.worst_slack_ns, sta.clock_mhz, sta.device, sta.violations, sta.endpoints,
            ),
        )
        .with_nodes(worst.map(|p| vec![p.endpoint_sig]).unwrap_or_default()),
    );
}

impl StaReport {
    /// The `results/TIMING_<netlist>.json` document: summary plus the
    /// worst paths with their gate-by-gate breakdown.  Fixed-precision
    /// floats keep the bytes stable across runs.
    pub fn to_json(&self) -> String {
        let ns = |x: f64| format!("{x:.4}");
        let mut out = String::from("{");
        out.push_str(&format!("\"module\":{},", json_string(&self.module)));
        out.push_str(&format!("\"device\":{},", json_string(self.device)));
        out.push_str(&format!("\"clock_mhz\":{},", ns(self.clock_mhz)));
        out.push_str(&format!("\"period_ns\":{},", ns(self.period_ns)));
        out.push_str(&format!("\"worst_slack_ns\":{},", ns(self.worst_slack_ns)));
        out.push_str(&format!("\"fmax_mhz\":{},", ns(self.fmax_mhz)));
        out.push_str(&format!("\"endpoints\":{},", self.endpoints));
        out.push_str(&format!("\"violations\":{},", self.violations));
        out.push_str("\"paths\":[");
        for (i, p) in self.paths.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"endpoint\":{},\"arrival_ns\":{},\"required_ns\":{},\"slack_ns\":{},\"steps\":[",
                json_string(&p.endpoint),
                ns(p.arrival_ns),
                ns(p.required_ns),
                ns(p.slack_ns),
            ));
            for (j, s) in p.steps.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"through\":{},\"incr_ns\":{},\"arrival_ns\":{}}}",
                    json_string(&s.through),
                    ns(s.incr_ns),
                    ns(s.arrival_ns),
                ));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}
