//! Truth tables of the technology mapper's LUTs.
//!
//! Mapping must be *functionally* conservative: every LUT's truth table
//! is computed from the boolean cone it covers.  The LUT network is
//! what the BLIF and Verilog exports write, and what
//! [`crate::CompiledSim::compile_mapped`] simulates against the
//! gate-level network — the equivalence check a real flow runs between
//! synthesis and the mapped netlist.

use crate::map::MappedNetlist;
use crate::netlist::{Netlist, NodeKind, Sig};
use std::collections::HashMap;

/// A mapped LUT with its computed truth table (bit `i` of `truth` is
/// the output for leaf assignment `i`, leaf 0 = LSB of the index).
#[derive(Debug, Clone)]
pub struct TruthLut {
    pub root: Sig,
    pub leaves: Vec<Sig>,
    pub truth: u16,
}

/// Evaluate the cone of `root` terminating at `leaves` under one leaf
/// assignment.
fn eval_cone(n: &Netlist, root: Sig, assign: &HashMap<Sig, bool>) -> bool {
    fn rec(
        n: &Netlist,
        s: Sig,
        assign: &HashMap<Sig, bool>,
        memo: &mut HashMap<Sig, bool>,
    ) -> bool {
        if let Some(&v) = assign.get(&s) {
            return v;
        }
        if let Some(&v) = memo.get(&s) {
            return v;
        }
        let v = match n.nodes[s as usize] {
            NodeKind::Const(c) => c,
            NodeKind::Input | NodeKind::FfOutput(_) => {
                panic!("cone of node {s} escapes its cut leaves")
            }
            NodeKind::Not(a) => !rec(n, a, assign, memo),
            NodeKind::And(a, b) => rec(n, a, assign, memo) && rec(n, b, assign, memo),
            NodeKind::Or(a, b) => rec(n, a, assign, memo) || rec(n, b, assign, memo),
            NodeKind::Xor(a, b) => rec(n, a, assign, memo) ^ rec(n, b, assign, memo),
        };
        memo.insert(s, v);
        v
    }
    let mut memo = HashMap::new();
    rec(n, root, assign, &mut memo)
}

/// Compute the truth table of one mapped LUT.
pub fn truth_table(n: &Netlist, root: Sig, leaves: &[Sig]) -> u16 {
    assert!(leaves.len() <= 4, "LUTs are 4-input");
    let mut truth = 0u16;
    for idx in 0..(1u16 << leaves.len()) {
        let assign: HashMap<Sig, bool> = leaves
            .iter()
            .enumerate()
            .map(|(i, &l)| (l, (idx >> i) & 1 == 1))
            .collect();
        if eval_cone(n, root, &assign) {
            truth |= 1 << idx;
        }
    }
    truth
}

/// The mapped network with truth tables, as the exporters write it.
pub struct LutNetwork<'a> {
    pub n: &'a Netlist,
    /// In topological order.
    pub luts: Vec<TruthLut>,
}

impl<'a> LutNetwork<'a> {
    /// Derive truth tables for every LUT of a mapping.
    pub fn new(n: &'a Netlist, m: &MappedNetlist) -> Self {
        let luts = m
            .luts
            .iter()
            .map(|l| TruthLut {
                root: l.root,
                leaves: l.leaves.clone(),
                truth: truth_table(n, l.root, &l.leaves),
            })
            .collect();
        Self { n, luts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;

    #[test]
    fn truth_tables_of_simple_gates() {
        let mut b = Builder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.and2(x, y);
        b.output("a", &[a]);
        let n = b.finish();
        assert_eq!(truth_table(&n, a, &[x, y]), 0b1000);
        // Leaf order matters: [y, x] permutes the table but AND is
        // symmetric.
        assert_eq!(truth_table(&n, a, &[y, x]), 0b1000);
    }
}
