//! `P5L015` — link-level handshake composition.
//!
//! The per-module rules (P5L008–P5L011) check each stage against the
//! valid/ready convention in isolation; they provably cannot see
//! hazards that only exist once stages are *wired together*.  This pass
//! abstracts every stage to a [`StageContract`] — which boundary
//! signals it couples combinationally — composes the contracts over a
//! stage graph (a [`LinkGraph`]: the shipped tx/rx chains of
//! [`crate::shipped_link_graphs`], or the modules of a multi-module
//! `.p5n` file), and looks for two composition-only failures:
//!
//! * a **combinational ready/valid cycle** across module boundaries: a
//!   closed dependency loop through transparent ready paths and Mealy
//!   valid outputs, e.g. `A.out_valid ← A.out_ready` composed with
//!   `B.in_ready ← B.in_valid`;
//! * a **capacity-0 deadlock ring**: a directed cycle of stages in
//!   which every stage passes data combinationally (no register, no
//!   elastic buffer anywhere on the ring), so no transfer on the ring
//!   can ever complete.

use p5_fpga::Netlist;

use crate::graph;
use crate::report::{Finding, Report, Rule, Severity};

/// What one stage does, combinationally, at its handshake boundary —
/// the whole per-module story composition needs.
#[derive(Debug, Clone)]
pub struct StageContract {
    pub name: String,
    /// `in_ready` depends combinationally on `in_valid`.
    pub ready_on_valid: bool,
    /// `in_ready` depends combinationally on `out_ready` (transparent
    /// backpressure: a stall at the output is a stall at the input in
    /// the same cycle).
    pub ready_transparent: bool,
    /// `out_valid` depends combinationally on `out_ready` (Mealy valid).
    pub valid_on_ready: bool,
    /// `out_valid` depends combinationally on `in_valid` (transparent
    /// forwarding: a beat crosses the stage without a register).
    pub valid_transparent: bool,
    /// Some `out_data` bit depends combinationally on `in_data`: the
    /// stage holds no beat of its own — capacity 0.
    pub comb_through_data: bool,
}

impl StageContract {
    /// The contract of a fully registered (or software, elastic-buffer)
    /// stage: nothing crosses its boundary combinationally.
    pub fn buffered(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ready_on_valid: false,
            ready_transparent: false,
            valid_on_ready: false,
            valid_transparent: false,
            comb_through_data: false,
        }
    }

    /// Compose a linear `stages[0] → … → stages[n-1]` chain into the
    /// contract of the *fused* super-stage: the boundary couplings an
    /// outside observer sees when the whole chain executes as one
    /// operation (the software fast path does exactly this — one call
    /// carries a frame from payload to wire bytes).  Computed by
    /// reachability over the chain's boundary-signal dependency graph,
    /// so indirect couplings (e.g. `in_ready ← out_ready` only via a
    /// middle stage) are found, not just per-flag conjunctions.
    pub fn compose_chain(name: impl Into<String>, stages: &[StageContract]) -> Self {
        let n = stages.len();
        if n == 0 {
            return Self::buffered(name);
        }
        // Boundaries 0..=n; nodes per boundary b: V=3b, R=3b+1, D=3b+2.
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); 3 * (n + 1)];
        let (v, r, d) = (|b: usize| 3 * b, |b: usize| 3 * b + 1, |b: usize| 3 * b + 2);
        for (i, s) in stages.iter().enumerate() {
            if s.ready_on_valid {
                adj[v(i)].push(r(i));
            }
            if s.ready_transparent {
                adj[r(i + 1)].push(r(i));
            }
            if s.valid_on_ready {
                adj[r(i + 1)].push(v(i + 1));
            }
            if s.valid_transparent {
                adj[v(i)].push(v(i + 1));
            }
            if s.comb_through_data {
                adj[d(i)].push(d(i + 1));
            }
        }
        let reach = |from: usize, to: usize| -> bool {
            let mut seen = vec![false; adj.len()];
            let mut stack = vec![from];
            seen[from] = true;
            while let Some(x) = stack.pop() {
                if x == to {
                    return true;
                }
                for &y in &adj[x] {
                    if !seen[y] {
                        seen[y] = true;
                        stack.push(y);
                    }
                }
            }
            false
        };
        Self {
            name: name.into(),
            ready_on_valid: reach(v(0), r(0)),
            ready_transparent: reach(r(n), r(0)),
            valid_on_ready: reach(r(n), v(n)),
            valid_transparent: reach(v(0), v(n)),
            comb_through_data: reach(d(0), d(n)),
        }
    }

    /// Extract the contract of an RTL stage by cone analysis over its
    /// conventional buses (`in_data`/`in_valid`/`in_ready`,
    /// `out_data`/`out_valid`/`out_ready`).  Pins the module does not
    /// expose contribute no coupling.
    pub fn extract(n: &Netlist) -> Self {
        let single_in = |name: &str| {
            n.input_bus(name)
                .and_then(|b| (b.sigs.len() == 1).then(|| b.sigs[0]))
        };
        let single_out = |name: &str| {
            n.output_bus(name)
                .and_then(|b| (b.sigs.len() == 1).then(|| b.sigs[0]))
        };
        let bus_out = |name: &str| {
            n.output_bus(name)
                .map(|b| b.sigs.clone())
                .unwrap_or_default()
        };
        let bus_in = |name: &str| {
            n.input_bus(name)
                .map(|b| b.sigs.clone())
                .unwrap_or_default()
        };

        let in_valid = single_in("in_valid");
        let out_ready = single_in("out_ready");
        let in_ready = bus_out("in_ready");
        let out_valid = single_out("out_valid");
        let in_data = bus_in("in_data");
        let out_data = bus_out("out_data");

        let depends = |roots: &[u32], on: Option<u32>| -> bool {
            on.is_some_and(|target| {
                roots
                    .iter()
                    .any(|&root| graph::cone_contains(n, root, target))
            })
        };
        let out_valid_s = out_valid.map(|s| vec![s]).unwrap_or_default();
        Self {
            name: n.name.clone(),
            ready_on_valid: depends(&in_ready, in_valid),
            ready_transparent: depends(&in_ready, out_ready),
            valid_on_ready: depends(&out_valid_s, out_ready),
            valid_transparent: depends(&out_valid_s, in_valid),
            comb_through_data: out_data
                .iter()
                .any(|&bit| in_data.iter().any(|&src| graph::cone_contains(n, bit, src))),
        }
    }
}

/// A composed pipeline: stages plus directed `upstream → downstream`
/// edges between them.
#[derive(Debug, Clone)]
pub struct LinkGraph {
    pub name: String,
    pub stages: Vec<StageContract>,
    pub edges: Vec<(usize, usize)>,
}

impl LinkGraph {
    /// A linear source→sink chain.
    pub fn chain(name: impl Into<String>, stages: Vec<StageContract>) -> Self {
        let edges = (1..stages.len()).map(|i| (i - 1, i)).collect();
        Self {
            name: name.into(),
            stages,
            edges,
        }
    }

    /// Run the composition checks, as a [`Report`] named after the graph.
    pub fn check(&self) -> Report {
        let mut findings = Vec::new();
        self.check_ready_valid_cycle(&mut findings);
        self.check_capacity_deadlock(&mut findings);
        Report::new(self.name.clone(), findings)
    }

    /// The boundary-signal dependency graph: per inter-stage edge `e`,
    /// nodes `V_e` (valid) and `R_e` (ready); per stage, dependency arcs
    /// between its boundary signals as declared by the contract.  Any
    /// directed cycle is a combinational loop no per-module pass saw.
    fn check_ready_valid_cycle(&self, findings: &mut Vec<Finding>) {
        let ne = self.edges.len();
        // Node ids: valid of edge e = 2e, ready of edge e = 2e+1.
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); 2 * ne];
        for (si, stage) in self.stages.iter().enumerate() {
            let ins: Vec<usize> = (0..ne).filter(|&e| self.edges[e].1 == si).collect();
            let outs: Vec<usize> = (0..ne).filter(|&e| self.edges[e].0 == si).collect();
            for &i in &ins {
                if stage.ready_on_valid {
                    adj[2 * i].push(2 * i + 1); // V_i feeds R_i
                }
                for &o in &outs {
                    if stage.ready_transparent {
                        adj[2 * o + 1].push(2 * i + 1); // R_o feeds R_i
                    }
                    if stage.valid_transparent {
                        adj[2 * i].push(2 * o); // V_i feeds V_o
                    }
                }
            }
            for &o in &outs {
                if stage.valid_on_ready {
                    adj[2 * o + 1].push(2 * o); // R_o feeds V_o
                }
            }
        }
        if let Some(cyclic) = kahn_residue(&adj) {
            let mut names: Vec<String> = cyclic
                .iter()
                .map(|&node| {
                    let e = node / 2;
                    let sig = if node % 2 == 0 { "valid" } else { "ready" };
                    let (a, b) = self.edges[e];
                    format!("{sig}@{}→{}", self.stages[a].name, self.stages[b].name)
                })
                .collect();
            names.sort();
            names.dedup();
            findings.push(Finding::new(
                Rule::ComposeHazard,
                Severity::Error,
                format!(
                    "combinational ready/valid cycle across module boundaries \
                     through {}: per-module rules cannot see this loop",
                    names.join(", ")
                ),
            ));
        }
    }

    /// A directed stage cycle in which *every* stage forwards data
    /// combinationally has nowhere to hold a beat: capacity 0, so the
    /// ring deadlocks on the first transfer.
    fn check_capacity_deadlock(&self, findings: &mut Vec<Finding>) {
        let ns = self.stages.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); ns];
        for &(a, b) in &self.edges {
            if a < ns
                && b < ns
                && self.stages[a].comb_through_data
                && self.stages[b].comb_through_data
            {
                adj[a].push(b);
            }
        }
        if let Some(ring) = kahn_residue(&adj) {
            let mut names: Vec<&str> = ring.iter().map(|&s| self.stages[s].name.as_str()).collect();
            names.sort_unstable();
            findings.push(Finding::new(
                Rule::ComposeHazard,
                Severity::Error,
                format!(
                    "capacity-0 deadlock ring: every stage on the cycle [{}] passes \
                     data combinationally, so no transfer can ever complete",
                    names.join(", ")
                ),
            ));
        }
    }
}

/// Kahn's algorithm residue: `None` when the graph is acyclic, else the
/// (sorted) nodes left with unresolved in-degree — exactly the nodes on
/// directed cycles (plus their cyclic successors).
fn kahn_residue(adj: &[Vec<usize>]) -> Option<Vec<usize>> {
    let n = adj.len();
    let mut indeg = vec![0usize; n];
    for targets in adj {
        for &t in targets {
            indeg[t] += 1;
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut removed = 0usize;
    while let Some(v) = queue.pop() {
        removed += 1;
        for &t in &adj[v] {
            indeg[t] -= 1;
            if indeg[t] == 0 {
                queue.push(t);
            }
        }
    }
    if removed == n {
        return None;
    }
    Some((0..n).filter(|&i| indeg[i] > 0).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transparent(name: &str) -> StageContract {
        StageContract {
            name: name.into(),
            ready_on_valid: true,
            ready_transparent: true,
            valid_on_ready: false,
            valid_transparent: true,
            comb_through_data: true,
        }
    }

    #[test]
    fn buffered_chain_is_clean() {
        let g = LinkGraph::chain(
            "chain",
            vec![
                StageContract::buffered("a"),
                StageContract::buffered("b"),
                StageContract::buffered("c"),
            ],
        );
        assert!(g.check().is_clean());
    }

    #[test]
    fn transparent_chain_is_clean_but_transparent_ring_deadlocks() {
        // A linear chain of combinational stages is legal (slow, but
        // legal); close it into a ring and there is no storage anywhere.
        let stages = vec![transparent("a"), transparent("b")];
        let chain = LinkGraph::chain("open", stages.clone());
        assert!(chain.check().is_clean(), "{}", chain.check().render_human());
        let ring = LinkGraph {
            name: "ring".into(),
            stages,
            edges: vec![(0, 1), (1, 0)],
        };
        let r = ring.check();
        assert!(!r.is_clean());
        assert!(r.findings.iter().any(|f| f.message.contains("capacity-0")));
    }

    #[test]
    fn duplex_ring_deadlocks_only_when_no_stage_buffers() {
        // The duplex link's shape: both devices and both wires as a
        // ring (`a → wire → b → wire → a`).  Buffered stages (the
        // software carriages hold whole transfers) keep it clean; with
        // every stage combinationally transparent there is no storage
        // anywhere on the ring.
        let ring = |stage: fn(&str) -> StageContract| LinkGraph {
            name: "duplex link".into(),
            stages: ["device a", "wire a->b", "device b", "wire b->a"]
                .into_iter()
                .map(stage)
                .collect(),
            edges: vec![(0, 1), (1, 2), (2, 3), (3, 0)],
        };
        assert!(ring(|n| StageContract::buffered(n)).check().is_clean());
        let r = ring(|n| StageContract {
            comb_through_data: true,
            ..StageContract::buffered(n)
        })
        .check();
        assert!(
            r.findings.iter().any(|f| f.message.contains("capacity-0")),
            "{}",
            r.render_human()
        );
    }

    #[test]
    fn mealy_valid_meeting_ready_on_valid_closes_a_cycle() {
        // Stage a: out_valid ← out_ready (Mealy).  Stage b: in_ready ←
        // in_valid (P5L008 style) and transparent backpressure.  At the
        // a→b boundary: V ← R (a) and R ← V (b): a combinational loop.
        let mut a = StageContract::buffered("a");
        a.valid_on_ready = true;
        let mut b = StageContract::buffered("b");
        b.ready_on_valid = true;
        let g = LinkGraph::chain("x", vec![a, b]);
        let r = g.check();
        assert!(!r.is_clean());
        assert!(
            r.findings
                .iter()
                .any(|f| f.message.contains("ready/valid cycle")),
            "{}",
            r.render_human()
        );
    }

    #[test]
    fn composing_buffered_stages_stays_buffered() {
        let c = StageContract::compose_chain(
            "fused",
            &[StageContract::buffered("a"), StageContract::buffered("b")],
        );
        assert!(!c.ready_on_valid);
        assert!(!c.ready_transparent);
        assert!(!c.valid_on_ready);
        assert!(!c.valid_transparent);
        assert!(!c.comb_through_data);
    }

    #[test]
    fn composing_transparent_stages_stays_transparent() {
        let c = StageContract::compose_chain("fused", &[transparent("a"), transparent("b")]);
        assert!(c.ready_on_valid);
        assert!(c.ready_transparent);
        assert!(c.valid_transparent);
        assert!(c.comb_through_data);
    }

    #[test]
    fn one_buffered_stage_breaks_the_composed_coupling() {
        // a (transparent) → b (buffered): b's register hides every
        // combinational path, so the fused super-stage is buffered too.
        let c = StageContract::compose_chain(
            "fused",
            &[transparent("a"), StageContract::buffered("b")],
        );
        assert!(!c.ready_transparent);
        assert!(!c.valid_transparent);
        assert!(!c.comb_through_data);
        // …except the input-side Mealy coupling, which only involves
        // stage a's own boundary: V_in → R_in needs no path through b.
        assert!(c.ready_on_valid);
    }

    #[test]
    fn indirect_ready_on_valid_is_found_by_reachability() {
        // a forwards valid and backpressure transparently but has no
        // direct V→R arc; b couples in_ready to in_valid.  Composed:
        // V_0 → V_1 (a) → R_1 (b) → R_0 (a) — a three-arc path a naive
        // per-flag conjunction would miss.
        let mut a = StageContract::buffered("a");
        a.valid_transparent = true;
        a.ready_transparent = true;
        let mut b = StageContract::buffered("b");
        b.ready_on_valid = true;
        let c = StageContract::compose_chain("fused", &[a, b]);
        assert!(c.ready_on_valid);
        assert!(!c.valid_on_ready);
    }

    #[test]
    fn backpressure_transparency_alone_is_legal() {
        // Every stage forwards ready combinationally (wired-through
        // stall, as the paper's Figure 3 pipeline does) — fine, since
        // no valid path runs the other way.
        let mut s = StageContract::buffered("s");
        s.ready_transparent = true;
        let g = LinkGraph::chain("bp", vec![s.clone(), s.clone(), s]);
        assert!(g.check().is_clean());
    }
}
