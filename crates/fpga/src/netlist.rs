//! The structural netlist IR: 2-input boolean nodes plus D flip-flops,
//! the representation technology mapping and simulation operate on.

use std::collections::HashMap;

/// A signal: index of the node that drives it.
pub type Sig = u32;

/// Boolean network node kinds.  Everything is ≤ 2 inputs so the mapper's
/// cut enumeration stays simple; wider functions are built as trees by
/// the [`crate::builder::Builder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Primary input (bit of a named bus).
    Input,
    /// Constant.
    Const(bool),
    Not(Sig),
    And(Sig, Sig),
    Or(Sig, Sig),
    Xor(Sig, Sig),
    /// Output of flip-flop `dff_index`.
    FfOutput(u32),
}

/// A D flip-flop.  `d` is bound after creation so feedback loops
/// (counters, FSM state) can be described.
///
/// `en` and `sr` model the dedicated clock-enable and synchronous
/// set/reset pins of Virtex/Virtex-II slice registers: they cost no
/// LUTs.  `sr` (when asserted) loads `init`; it has priority over `en`.
#[derive(Debug, Clone, Copy)]
pub struct Dff {
    /// The node representing Q.
    pub q: Sig,
    /// The data input, bound via [`Netlist::connect_dff`].
    pub d: Option<Sig>,
    /// Power-on value (and the value loaded by `sr`).
    pub init: bool,
    /// Dedicated clock-enable pin.
    pub en: Option<Sig>,
    /// Dedicated synchronous set/reset pin (loads `init`).
    pub sr: Option<Sig>,
}

impl Dff {
    /// The value this register is *guaranteed* to hold right after a
    /// synchronous reset pulse: `Some(init)` when an SR pin exists,
    /// `None` when the register rides through reset with stale state.
    pub fn reset_value(&self) -> Option<bool> {
        self.sr.map(|_| self.init)
    }
}

/// A named bus of signals.
#[derive(Debug, Clone)]
pub struct Bus {
    pub name: String,
    pub sigs: Vec<Sig>,
}

/// The boolean network.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    pub nodes: Vec<NodeKind>,
    pub dffs: Vec<Dff>,
    pub inputs: Vec<Bus>,
    pub outputs: Vec<Bus>,
    /// Module name for reports.
    pub name: String,
}

impl Netlist {
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Default::default()
        }
    }

    pub(crate) fn add_node(&mut self, kind: NodeKind) -> Sig {
        let id = self.nodes.len() as Sig;
        self.nodes.push(kind);
        id
    }

    /// Create a flip-flop; returns its Q signal.  Bind D later.
    pub fn new_dff(&mut self, init: bool) -> Sig {
        self.new_dff_ctrl(init, None, None)
    }

    /// Create a flip-flop with dedicated clock-enable / sync-reset pins.
    pub fn new_dff_ctrl(&mut self, init: bool, en: Option<Sig>, sr: Option<Sig>) -> Sig {
        let dff_index = self.dffs.len() as u32;
        let q = self.add_node(NodeKind::FfOutput(dff_index));
        self.dffs.push(Dff {
            q,
            d: None,
            init,
            en,
            sr,
        });
        q
    }

    /// Bind the D input of the flip-flop whose Q is `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not an `FfOutput` node or the D input is already
    /// bound — both are builder bugs, not data-dependent conditions.  Use
    /// `p5-lint` (rules P5L002/P5L003) to diagnose a netlist without
    /// tripping these asserts.
    pub fn connect_dff(&mut self, q: Sig, d: Sig) {
        let NodeKind::FfOutput(idx) = self.nodes[q as usize] else {
            panic!("connect_dff: {q} is not a flip-flop output");
        };
        let dff = &mut self.dffs[idx as usize];
        assert!(dff.d.is_none(), "flip-flop D bound twice");
        dff.d = Some(d);
    }

    /// All flip-flops must have bound D inputs.
    ///
    /// # Panics
    ///
    /// Panics on an unbound D or a combinational cycle.  This is the
    /// hard gate before simulation/mapping; for a non-panicking
    /// diagnosis of the same conditions, run `p5-lint` instead.
    pub fn validate(&self) {
        for (i, dff) in self.dffs.iter().enumerate() {
            assert!(dff.d.is_some(), "flip-flop {i} has unbound D");
        }
        // No combinational cycles: topo_order panics otherwise.
        let _ = self.topo_order();
    }

    /// Fan-in signals of a combinational node.
    pub fn fanins(&self, sig: Sig) -> [Option<Sig>; 2] {
        match self.nodes[sig as usize] {
            NodeKind::Input | NodeKind::Const(_) | NodeKind::FfOutput(_) => [None, None],
            NodeKind::Not(a) => [Some(a), None],
            NodeKind::And(a, b) | NodeKind::Or(a, b) | NodeKind::Xor(a, b) => [Some(a), Some(b)],
        }
    }

    /// Is this node a leaf for mapping purposes (no LUT needed)?
    pub fn is_leaf(&self, sig: Sig) -> bool {
        matches!(
            self.nodes[sig as usize],
            NodeKind::Input | NodeKind::Const(_) | NodeKind::FfOutput(_)
        )
    }

    /// Combinational roots: every output bit and every flip-flop D,
    /// CE and SR input.
    pub fn roots(&self) -> Vec<Sig> {
        let mut roots: Vec<Sig> = self
            .outputs
            .iter()
            .flat_map(|b| b.sigs.iter().copied())
            .collect();
        roots.extend(self.dffs.iter().filter_map(|d| d.d));
        roots.extend(self.dffs.iter().filter_map(|d| d.en));
        roots.extend(self.dffs.iter().filter_map(|d| d.sr));
        roots.sort_unstable();
        roots.dedup();
        roots
    }

    /// Topological order of the combinational nodes (leaves first).
    ///
    /// # Panics
    ///
    /// Panics on combinational cycles (see `validate`); `p5-lint` rule
    /// P5L001 reports the offending SCC without panicking.
    pub fn topo_order(&self) -> Vec<Sig> {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let mut marks = vec![Mark::White; self.nodes.len()];
        let mut order = Vec::with_capacity(self.nodes.len());
        // Iterative DFS from every root.
        for root in self.roots() {
            if marks[root as usize] == Mark::Black {
                continue;
            }
            let mut stack = vec![(root, false)];
            while let Some((n, expanded)) = stack.pop() {
                match marks[n as usize] {
                    Mark::Black => continue,
                    Mark::Grey if !expanded => panic!("combinational cycle through node {n}"),
                    _ => {}
                }
                if expanded {
                    marks[n as usize] = Mark::Black;
                    order.push(n);
                    continue;
                }
                marks[n as usize] = Mark::Grey;
                stack.push((n, true));
                for f in self.fanins(n).into_iter().flatten() {
                    if marks[f as usize] == Mark::White {
                        stack.push((f, false));
                    } else if marks[f as usize] == Mark::Grey {
                        panic!("combinational cycle through node {f}");
                    }
                }
            }
        }
        order
    }

    /// Count of 2-input gate nodes (pre-mapping complexity measure).
    pub fn gate_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| {
                matches!(
                    n,
                    NodeKind::Not(_) | NodeKind::And(..) | NodeKind::Or(..) | NodeKind::Xor(..)
                )
            })
            .count()
    }

    pub fn ff_count(&self) -> usize {
        self.dffs.len()
    }

    /// Does any flip-flop expose a synchronous set/reset pin?  Modules
    /// with an SR domain are resettable at runtime; modules without one
    /// rely purely on FPGA configuration (power-on) init values.
    pub fn has_reset_domain(&self) -> bool {
        self.dffs.iter().any(|d| d.sr.is_some())
    }

    /// Look up an input bus by name.
    pub fn input_bus(&self, name: &str) -> Option<&Bus> {
        self.inputs.iter().find(|b| b.name == name)
    }

    pub fn output_bus(&self, name: &str) -> Option<&Bus> {
        self.outputs.iter().find(|b| b.name == name)
    }

    /// Map from signal to the number of combinational readers (for net
    /// fanout in timing).
    pub fn fanout_counts(&self) -> HashMap<Sig, usize> {
        let mut m: HashMap<Sig, usize> = HashMap::new();
        for n in 0..self.nodes.len() as Sig {
            for f in self.fanins(n).into_iter().flatten() {
                *m.entry(f).or_default() += 1;
            }
        }
        for d in &self.dffs {
            for s in [d.d, d.en, d.sr].into_iter().flatten() {
                *m.entry(s).or_default() += 1;
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;

    #[test]
    fn topo_order_is_consistent() {
        let mut b = Builder::new("t");
        let x = b.input_bus("x", 4);
        let y = b.xor_many(&x);
        b.output("y", &[y]);
        let n = b.finish();
        let order = n.topo_order();
        // Every node appears after its fanins.
        let pos: HashMap<Sig, usize> = order.iter().enumerate().map(|(i, &s)| (s, i)).collect();
        for &s in &order {
            for f in n.fanins(s).into_iter().flatten() {
                assert!(pos[&f] < pos[&s]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "combinational cycle")]
    fn cycles_are_detected() {
        let mut n = Netlist::new("loop");
        // a = and(a, b) — illegal.
        let b_in = n.add_node(NodeKind::Input);
        n.inputs.push(Bus {
            name: "b".into(),
            sigs: vec![b_in],
        });
        let placeholder = n.add_node(NodeKind::And(0, b_in));
        // Self-loop: rewrite to point at itself.
        n.nodes[placeholder as usize] = NodeKind::And(placeholder, b_in);
        n.outputs.push(Bus {
            name: "o".into(),
            sigs: vec![placeholder],
        });
        n.topo_order();
    }

    #[test]
    #[should_panic(expected = "unbound D")]
    fn unbound_dff_fails_validation() {
        let mut n = Netlist::new("ff");
        let _q = n.new_dff(false);
        n.validate();
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bound_dff_panics() {
        let mut n = Netlist::new("ff");
        let q = n.new_dff(false);
        let c = n.add_node(NodeKind::Const(true));
        n.connect_dff(q, c);
        n.connect_dff(q, c);
    }

    #[test]
    fn roots_include_ff_d_inputs() {
        let mut b = Builder::new("r");
        let x = b.input("x");
        let q = b.reg(x, false);
        b.output("q", &[q]);
        let n = b.finish();
        let roots = n.roots();
        assert!(roots.contains(&x)); // x drives the FF's D
        assert!(roots.contains(&q)); // q is an output
    }
}
