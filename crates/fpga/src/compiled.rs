//! Compile-then-run bit-parallel netlist simulation.
//!
//! [`CompiledSim`] lowers a [`Netlist`] (or a mapped 4-LUT network)
//! once into a dense, levelized instruction tape over contiguous `u64`
//! node arrays and then evaluates **64 independent stimulus lanes per
//! pass**: lane `j` of the simulation lives in bit `j` of every node
//! word, so AND/OR/XOR/NOT over 64 test vectors each cost one machine
//! word operation.  4-LUT truth tables evaluate by minterm mask-select
//! over the packed leaf words.
//!
//! Construction resolves everything the scalar [`crate::sim::Sim`]
//! does per call — name lookups, `Vec<Sig>` bus clones, per-node
//! `enum` dispatch through a topo *index* array — into flat arrays
//! walked linearly, which is also why the ×1-lane configuration
//! already beats the scalar walker before lane parallelism kicks in.

use crate::lut::truth_table;
use crate::map::MappedNetlist;
use crate::netlist::{Netlist, NodeKind, Sig};
use crate::sim::{InPort, OutPort};

/// Number of independent stimulus lanes evaluated per pass (one per
/// bit of a `u64`).
pub const LANES: usize = 64;

/// One instruction of the levelized tape.  Destinations and operands
/// are node indices into the packed value array.
#[derive(Debug, Clone, Copy)]
enum Op {
    Not {
        dst: u32,
        a: u32,
    },
    And {
        dst: u32,
        a: u32,
        b: u32,
    },
    Or {
        dst: u32,
        a: u32,
        b: u32,
    },
    Xor {
        dst: u32,
        a: u32,
        b: u32,
    },
    /// A mapped 4-LUT: `truth` bit `i` is the output under leaf
    /// assignment `i` (leaf 0 = LSB).  Unused leaf slots are `0` and
    /// masked off by `nleaves`.
    Lut {
        dst: u32,
        leaves: [u32; 4],
        nleaves: u8,
        truth: u16,
    },
}

/// Flip-flop controls resolved to node indices; `init` is the
/// power-on/SR value broadcast across all lanes.
#[derive(Debug, Clone, Copy)]
struct CompiledDff {
    q: u32,
    d: u32,
    en: Option<u32>,
    sr: Option<u32>,
    init: u64,
}

/// An owned, vectorized simulator compiled from a netlist.
pub struct CompiledSim {
    /// Packed node values: bit `j` of `values[s]` is node `s` in lane `j`.
    values: Vec<u64>,
    tape: Vec<Op>,
    dffs: Vec<CompiledDff>,
    /// Packed FF state (indexed like the netlist's `dffs`).
    ff_state: Vec<u64>,
    ff_next: Vec<u64>,
    inputs: Vec<(String, Vec<Sig>)>,
    outputs: Vec<(String, Vec<Sig>)>,
    dirty: bool,
}

fn broadcast(v: bool) -> u64 {
    if v {
        !0
    } else {
        0
    }
}

impl CompiledSim {
    /// Compile the gate-level netlist: one tape instruction per 2-input
    /// node, in topological order.
    pub fn compile(n: &Netlist) -> Self {
        n.validate();
        let tape = n
            .topo_order()
            .into_iter()
            .filter_map(|s| match n.nodes[s as usize] {
                NodeKind::Input | NodeKind::Const(_) | NodeKind::FfOutput(_) => None,
                NodeKind::Not(a) => Some(Op::Not { dst: s, a }),
                NodeKind::And(a, b) => Some(Op::And { dst: s, a, b }),
                NodeKind::Or(a, b) => Some(Op::Or { dst: s, a, b }),
                NodeKind::Xor(a, b) => Some(Op::Xor { dst: s, a, b }),
            })
            .collect();
        Self::finish(n, tape)
    }

    /// Compile the 4-LUT mapping of `n`: one tape instruction per LUT,
    /// with truth tables derived from the covered cones (the mapper
    /// emits LUTs in topological order).
    pub fn compile_mapped(n: &Netlist, m: &MappedNetlist) -> Self {
        n.validate();
        let tape = m
            .luts
            .iter()
            .map(|l| {
                let mut leaves = [0u32; 4];
                leaves[..l.leaves.len()].copy_from_slice(&l.leaves);
                Op::Lut {
                    dst: l.root,
                    leaves,
                    nleaves: l.leaves.len() as u8,
                    truth: truth_table(n, l.root, &l.leaves),
                }
            })
            .collect();
        Self::finish(n, tape)
    }

    fn finish(n: &Netlist, tape: Vec<Op>) -> Self {
        let mut values = vec![0u64; n.nodes.len()];
        // Constants are written once here and never overwritten: no
        // tape instruction targets a Const or FfOutput slot.
        for (i, node) in n.nodes.iter().enumerate() {
            if let NodeKind::Const(v) = node {
                values[i] = broadcast(*v);
            }
        }
        let dffs: Vec<CompiledDff> = n
            .dffs
            .iter()
            .map(|d| CompiledDff {
                q: d.q,
                d: d.d.expect("validated"),
                en: d.en,
                sr: d.sr,
                init: broadcast(d.init),
            })
            .collect();
        let ff_state: Vec<u64> = dffs.iter().map(|d| d.init).collect();
        for (i, d) in dffs.iter().enumerate() {
            values[d.q as usize] = ff_state[i];
        }
        let mut sim = Self {
            values,
            tape,
            ff_next: ff_state.clone(),
            ff_state,
            dffs,
            inputs: n
                .inputs
                .iter()
                .map(|b| (b.name.clone(), b.sigs.clone()))
                .collect(),
            outputs: n
                .outputs
                .iter()
                .map(|b| (b.name.clone(), b.sigs.clone()))
                .collect(),
            dirty: true,
        };
        sim.eval();
        sim
    }

    /// Resolve a named input bus to a dense handle (do this once).
    /// Handles are interchangeable with the scalar [`crate::sim::Sim`]
    /// built from the same netlist.
    #[must_use]
    pub fn in_port(&self, name: &str) -> InPort {
        let idx = self
            .inputs
            .iter()
            .position(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("no input bus named {name}"));
        InPort(idx)
    }

    /// Resolve a named output bus to a dense handle.
    #[must_use]
    pub fn out_port(&self, name: &str) -> OutPort {
        let idx = self
            .outputs
            .iter()
            .position(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("no output bus named {name}"));
        OutPort(idx)
    }

    /// Broadcast one integer value (LSB-first) to an input bus across
    /// all 64 lanes.
    pub fn set(&mut self, port: InPort, value: u64) {
        let (_, sigs) = &self.inputs[port.0];
        assert!(sigs.len() <= 64);
        for (i, &s) in sigs.iter().enumerate() {
            self.values[s as usize] = broadcast((value >> i) & 1 == 1);
        }
        self.dirty = true;
    }

    /// Set an input bus in a single lane, leaving the other lanes'
    /// stimulus untouched.
    pub fn set_lane(&mut self, port: InPort, lane: usize, value: u64) {
        debug_assert!(lane < LANES);
        let (_, sigs) = &self.inputs[port.0];
        assert!(sigs.len() <= 64);
        let bit = 1u64 << lane;
        for (i, &s) in sigs.iter().enumerate() {
            let v = &mut self.values[s as usize];
            *v = (*v & !bit) | (broadcast((value >> i) & 1 == 1) & bit);
        }
        self.dirty = true;
    }

    /// Set a wide input bus from bytes (LSB-first) in a single lane.
    pub fn set_bytes_lane(&mut self, port: InPort, lane: usize, bytes: &[u8]) {
        debug_assert!(lane < LANES);
        let (name, sigs) = &self.inputs[port.0];
        assert_eq!(sigs.len(), bytes.len() * 8, "bus width mismatch for {name}");
        let bit = 1u64 << lane;
        for (i, &s) in sigs.iter().enumerate() {
            let v = &mut self.values[s as usize];
            *v = (*v & !bit) | (broadcast((bytes[i / 8] >> (i % 8)) & 1 == 1) & bit);
        }
        self.dirty = true;
    }

    /// Run the instruction tape (all 64 lanes at once).
    pub fn eval(&mut self) {
        let v = &mut self.values;
        for op in &self.tape {
            match *op {
                Op::Not { dst, a } => v[dst as usize] = !v[a as usize],
                Op::And { dst, a, b } => v[dst as usize] = v[a as usize] & v[b as usize],
                Op::Or { dst, a, b } => v[dst as usize] = v[a as usize] | v[b as usize],
                Op::Xor { dst, a, b } => v[dst as usize] = v[a as usize] ^ v[b as usize],
                Op::Lut {
                    dst,
                    leaves,
                    nleaves,
                    truth,
                } => {
                    // Minterm mask-select: for each set truth-table row,
                    // AND together the (possibly complemented) packed
                    // leaf words and OR the term into the output.
                    let l0 = v[leaves[0] as usize];
                    let l1 = v[leaves[1] as usize];
                    let l2 = v[leaves[2] as usize];
                    let l3 = v[leaves[3] as usize];
                    let ls = [l0, l1, l2, l3];
                    let n = nleaves as usize;
                    let mut out = 0u64;
                    for idx in 0..(1u16 << n) {
                        if (truth >> idx) & 1 == 1 {
                            let mut term = !0u64;
                            for (k, &lv) in ls.iter().enumerate().take(n) {
                                term &= if (idx >> k) & 1 == 1 { lv } else { !lv };
                            }
                            out |= term;
                        }
                    }
                    v[dst as usize] = out;
                }
            }
        }
        self.dirty = false;
    }

    /// Read an output bus as an integer from one lane.
    #[must_use]
    pub fn get_lane(&mut self, port: OutPort, lane: usize) -> u64 {
        debug_assert!(lane < LANES);
        if self.dirty {
            self.eval();
        }
        let (_, sigs) = &self.outputs[port.0];
        assert!(sigs.len() <= 64);
        sigs.iter().enumerate().fold(0u64, |acc, (i, &s)| {
            acc | ((self.values[s as usize] >> lane & 1) << i)
        })
    }

    /// Read a wide output bus from one lane into a caller-owned buffer.
    pub fn get_bytes_into_lane(&mut self, port: OutPort, lane: usize, out: &mut Vec<u8>) {
        debug_assert!(lane < LANES);
        if self.dirty {
            self.eval();
        }
        let (_, sigs) = &self.outputs[port.0];
        out.clear();
        out.resize(sigs.len().div_ceil(8), 0);
        for (i, &s) in sigs.iter().enumerate() {
            if (self.values[s as usize] >> lane) & 1 == 1 {
                out[i / 8] |= 1 << (i % 8);
            }
        }
    }

    /// Clock edge in every lane: evaluate, then latch each FF as word
    /// ops (SR has priority over CE, as on a Virtex slice register).
    pub fn step(&mut self) {
        if self.dirty {
            self.eval();
        }
        for (i, d) in self.dffs.iter().enumerate() {
            let data = self.values[d.d as usize];
            let state = self.ff_state[i];
            let en = d.en.map_or(!0, |e| self.values[e as usize]);
            let mut next = (state & !en) | (data & en);
            if let Some(sr) = d.sr {
                let sr = self.values[sr as usize];
                next = (next & !sr) | (d.init & sr);
            }
            self.ff_next[i] = next;
        }
        std::mem::swap(&mut self.ff_state, &mut self.ff_next);
        for (i, d) in self.dffs.iter().enumerate() {
            self.values[d.q as usize] = self.ff_state[i];
        }
        self.dirty = true;
    }

    /// Reset every lane's FFs to their init values.
    pub fn reset(&mut self) {
        for (i, d) in self.dffs.iter().enumerate() {
            self.ff_state[i] = d.init;
            self.values[d.q as usize] = d.init;
        }
        self.dirty = true;
    }

    /// Reset a single lane's FFs, leaving the other lanes running —
    /// models independent devices at arbitrary points in their reset
    /// schedules.
    pub fn reset_lane(&mut self, lane: usize) {
        debug_assert!(lane < LANES);
        let bit = 1u64 << lane;
        for (i, d) in self.dffs.iter().enumerate() {
            let s = (self.ff_state[i] & !bit) | (d.init & bit);
            self.ff_state[i] = s;
            self.values[d.q as usize] = s;
        }
        self.dirty = true;
    }

    /// Current value of one signal in one lane, re-evaluating the tape
    /// first if stimulus changed — the per-lane probe the VCD writer
    /// uses to dump arbitrary netlist nodes.
    #[must_use]
    pub fn peek_lane(&mut self, s: Sig, lane: usize) -> bool {
        debug_assert!(lane < LANES);
        if self.dirty {
            self.eval();
        }
        (self.values[s as usize] >> lane) & 1 == 1
    }

    /// Tape length (instructions per eval pass) — for reports.
    #[must_use]
    pub fn tape_len(&self) -> usize {
        self.tape.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::map::{map, MapMode};
    use crate::sim::Sim;

    fn adder_netlist() -> Netlist {
        let mut b = Builder::new("add8");
        let a = b.input_bus("a", 8);
        let c = b.input_bus("b", 8);
        let zero = b.lit(false);
        let (sum, cout) = b.add(&a, &c, zero);
        b.output("sum", &sum);
        b.output("cout", &[cout]);
        b.finish()
    }

    /// A 6-bit counter with enable.
    fn counter_netlist() -> Netlist {
        let mut b = Builder::new("ctr");
        let en = b.input("en");
        let q = b.state_word(6, 0);
        let one = b.const_word(1, 6);
        let zero = b.lit(false);
        let (inc, _) = b.add(&q, &one, zero);
        let next = b.mux_word(en, &inc, &q);
        b.bind_word(&q, &next);
        b.output("count", &q);
        b.finish()
    }

    #[test]
    fn combinational_broadcast_matches_scalar() {
        let n = adder_netlist();
        let mut cs = CompiledSim::compile(&n);
        let mut gs = Sim::new(&n);
        let (pa, pb, psum) = (cs.in_port("a"), cs.in_port("b"), cs.out_port("sum"));
        for (a, b) in [(3u64, 4u64), (200, 100), (255, 255)] {
            cs.set(pa, a);
            cs.set(pb, b);
            gs.set("a", a);
            gs.set("b", b);
            for lane in [0, 17, 63] {
                assert_eq!(cs.get_lane(psum, lane), gs.get("sum"));
            }
        }
    }

    #[test]
    fn lanes_are_independent() {
        let n = adder_netlist();
        let mut cs = CompiledSim::compile(&n);
        let (pa, pb) = (cs.in_port("a"), cs.in_port("b"));
        let (psum, pcout) = (cs.out_port("sum"), cs.out_port("cout"));
        for lane in 0..LANES {
            cs.set_lane(pa, lane, lane as u64);
            cs.set_lane(pb, lane, (lane as u64) * 3 + 1);
        }
        for lane in 0..LANES {
            let want = lane as u64 + (lane as u64) * 3 + 1;
            assert_eq!(cs.get_lane(psum, lane), want & 0xFF, "lane {lane}");
            assert_eq!(cs.get_lane(pcout, lane), (want >> 8) & 1);
        }
    }

    #[test]
    fn sequential_step_and_lane_reset() {
        // Count only in even lanes, then reset one lane and check the
        // others keep their state.
        let mut cs = CompiledSim::compile(&counter_netlist());
        let pen = cs.in_port("en");
        let pq = cs.out_port("count");
        for lane in 0..LANES {
            cs.set_lane(pen, lane, (lane % 2 == 0) as u64);
        }
        for _ in 0..5 {
            cs.step();
        }
        assert_eq!(cs.get_lane(pq, 0), 5);
        assert_eq!(cs.get_lane(pq, 1), 0);
        assert_eq!(cs.get_lane(pq, 62), 5);
        cs.reset_lane(0);
        assert_eq!(cs.get_lane(pq, 0), 0);
        assert_eq!(cs.get_lane(pq, 62), 5, "other lanes unaffected");
        cs.step();
        assert_eq!(cs.get_lane(pq, 0), 1);
        assert_eq!(cs.get_lane(pq, 62), 6);
        cs.reset();
        for lane in 0..LANES {
            assert_eq!(cs.get_lane(pq, lane), 0);
        }
    }

    #[test]
    fn mapped_tape_matches_gate_tape() {
        // Every pair of 8-bit addends, 64 per pass, in both map modes:
        // the mapped tape against the gate tape and the scalar `Sim`.
        let n = adder_netlist();
        let mut gs = Sim::new(&n);
        for mode in [MapMode::Depth, MapMode::Area] {
            let m = map(&n, mode);
            let mut cm = CompiledSim::compile_mapped(&n, &m);
            let mut cg = CompiledSim::compile(&n);
            let (pa, pb) = (cm.in_port("a"), cm.in_port("b"));
            let (psum, pcout) = (cm.out_port("sum"), cm.out_port("cout"));
            for a in 0..256u64 {
                for b0 in (0..256u64).step_by(LANES) {
                    cm.set(pa, a);
                    cg.set(pa, a);
                    for lane in 0..LANES {
                        cm.set_bytes_lane(pb, lane, &[(b0 + lane as u64) as u8]);
                        cg.set_lane(pb, lane, b0 + lane as u64);
                    }
                    for lane in 0..LANES {
                        let b = b0 + lane as u64;
                        gs.set("a", a);
                        gs.set("b", b);
                        let (sum, cout) = (gs.get("sum"), gs.get("cout"));
                        assert_eq!(cm.get_lane(psum, lane), sum, "{mode:?} {a}+{b}");
                        assert_eq!(cm.get_lane(pcout, lane), cout, "{mode:?} {a}+{b}");
                        assert_eq!(cg.get_lane(psum, lane), sum, "{mode:?} {a}+{b}");
                    }
                }
            }
        }

        // A 6-bit counter with enable, mapped: FF CE and feedback
        // through LUTs, stepped against the scalar `Sim`.
        let n = counter_netlist();
        let m = map(&n, MapMode::Depth);
        let mut cm = CompiledSim::compile_mapped(&n, &m);
        let mut gs = Sim::new(&n);
        let (pen, pq) = (cm.in_port("en"), cm.out_port("count"));
        for cyc in 0..100u64 {
            let en = (cyc % 3 != 0) as u64;
            cm.set(pen, en);
            gs.set("en", en);
            assert_eq!(cm.get_lane(pq, 0), gs.get("count"), "cycle {cyc}");
            cm.step();
            gs.step();
        }
    }

    #[test]
    fn bytes_round_trip() {
        let mut b = Builder::new("w");
        let a = b.input_bus("data", 32);
        let mut swapped = a[16..].to_vec();
        swapped.extend_from_slice(&a[..16]);
        b.output("out", &swapped);
        let n = b.finish();
        let mut cs = CompiledSim::compile(&n);
        let pin = cs.in_port("data");
        let pout = cs.out_port("out");
        cs.set_bytes_lane(pin, 9, &[0x11, 0x22, 0x33, 0x44]);
        let mut buf = Vec::new();
        cs.get_bytes_into_lane(pout, 9, &mut buf);
        assert_eq!(buf, vec![0x33, 0x44, 0x11, 0x22]);
        cs.get_bytes_into_lane(pout, 8, &mut buf);
        assert_eq!(buf, vec![0, 0, 0, 0], "neighbour lane untouched");
    }
}
