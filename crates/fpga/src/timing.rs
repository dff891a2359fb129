//! Device library and static timing analysis.
//!
//! Devices carry real LUT/FF capacities (from the Virtex/Virtex-II data
//! sheets) and per-speed-grade delay parameters calibrated so that the
//! paper's headline timing facts reproduce: a ~6-LUT critical path meets
//! the 78.125 MHz line clock on Virtex-II (-6) but not on Virtex (-4),
//! and the speed-up is technological, not topological (the same netlist
//! depth is analysed on both).

use std::collections::HashMap;

use crate::map::MappedNetlist;
use crate::netlist::Sig;

/// An FPGA device with capacity and timing parameters (delays in ns).
#[derive(Debug, Clone, Copy)]
pub struct Device {
    pub name: &'static str,
    pub family: &'static str,
    /// 4-input LUT capacity.
    pub luts: usize,
    /// Flip-flop capacity.
    pub ffs: usize,
    /// Clock-to-Q of a slice register.
    pub t_cq: f64,
    /// Register setup time.
    pub t_su: f64,
    /// LUT propagation delay.
    pub t_lut: f64,
    /// Pre-layout per-net routing estimate.
    pub t_net_pre: f64,
    /// Post-layout base net delay.
    pub t_net_base: f64,
    /// Post-layout incremental delay per log2(1+fanout).
    pub t_net_fanout: f64,
    /// Post-layout congestion term (× device utilisation).
    pub t_congestion: f64,
}

/// The four devices of Tables 1 and 2.
pub mod devices {
    use super::Device;

    /// Virtex XCV50, speed grade -4 (384 CLBs × 4 LUTs).
    pub const XCV50_4: Device = Device {
        name: "XCV50-4",
        family: "Virtex",
        luts: 1536,
        ffs: 1536,
        t_cq: 1.10,
        t_su: 0.80,
        t_lut: 0.70,
        t_net_pre: 0.75,
        t_net_base: 1.00,
        t_net_fanout: 0.30,
        t_congestion: 2.20,
    };

    /// Virtex XCV600, speed grade -4 (3456 CLBs × 4 LUTs).
    pub const XCV600_4: Device = Device {
        name: "XCV600-4",
        family: "Virtex",
        luts: 13824,
        ffs: 13824,
        t_cq: 1.10,
        t_su: 0.80,
        t_lut: 0.70,
        t_net_pre: 0.75,
        t_net_base: 1.00,
        t_net_fanout: 0.30,
        t_congestion: 2.20,
    };

    /// Virtex-II XC2V40, speed grade -6 (256 slices × 2 LUTs).
    pub const XC2V40_6: Device = Device {
        name: "XC2V40-6",
        family: "Virtex-II",
        luts: 512,
        ffs: 512,
        t_cq: 0.45,
        t_su: 0.40,
        t_lut: 0.33,
        t_net_pre: 0.40,
        t_net_base: 0.55,
        t_net_fanout: 0.18,
        t_congestion: 1.20,
    };

    /// Virtex-II XC2V1000, speed grade -6 (2560 slices × 2 LUTs).
    pub const XC2V1000_6: Device = Device {
        name: "XC2V1000-6",
        family: "Virtex-II",
        luts: 5120,
        ffs: 5120,
        t_cq: 0.45,
        t_su: 0.40,
        t_lut: 0.33,
        t_net_pre: 0.40,
        t_net_base: 0.55,
        t_net_fanout: 0.18,
        t_congestion: 1.20,
    };

    pub const ALL: [Device; 4] = [XCV50_4, XCV600_4, XC2V40_6, XC2V1000_6];
}

/// STA result.
#[derive(Debug, Clone, Copy)]
pub struct TimingReport {
    /// Register-to-register critical path, ns.
    pub critical_path_ns: f64,
    pub fmax_mhz: f64,
    /// LUT levels on the critical path.
    pub levels: usize,
    /// Was post-layout net modelling used?
    pub post_layout: bool,
}

/// Arrival times over a mapped netlist: per LUT root, when its output
/// settles (leaves start at `t_cq` — inputs are assumed registered
/// upstream) and which leaf's path set it.  The one recurrence behind
/// [`analyze`]'s fMax and p5-lint's per-endpoint slack, so the two
/// always agree.
#[derive(Debug, Clone)]
pub struct Arrivals {
    t_cq: f64,
    /// Per LUT root: its arrival, and the leaf whose path set it.
    luts: HashMap<Sig, (f64, Option<Sig>)>,
}

impl Arrivals {
    /// Propagate arrivals through the LUTs, which `map()` emits in
    /// topological order.
    pub fn compute(m: &MappedNetlist, dev: &Device, post_layout: bool) -> Self {
        let mut a = Self {
            t_cq: dev.t_cq,
            luts: HashMap::new(),
        };
        for lut in &m.luts {
            let mut t = dev.t_cq;
            let mut from = None;
            for &leaf in &lut.leaves {
                let cand = a.at(leaf) + m.net_delay(dev, leaf, post_layout);
                if cand > t {
                    t = cand;
                    from = Some(leaf);
                }
            }
            a.luts.insert(lut.root, (t + dev.t_lut, from));
        }
        a
    }

    /// When `sig` settles: its LUT's arrival, or `t_cq` for a signal no
    /// LUT drives (a register Q, a primary input, a constant).
    #[must_use]
    pub fn at(&self, sig: Sig) -> f64 {
        self.luts.get(&sig).map_or(self.t_cq, |&(t, _)| t)
    }

    /// The leaf on the latest path into `sig`'s LUT — the previous hop
    /// of the critical path — or `None` at a launch point.
    #[must_use]
    pub fn critical_leaf(&self, sig: Sig) -> Option<Sig> {
        self.luts.get(&sig).and_then(|&(_, from)| from)
    }
}

/// Run static timing analysis over a mapped netlist on a device.
pub fn analyze(m: &MappedNetlist, dev: &Device, post_layout: bool) -> TimingReport {
    let arrivals = Arrivals::compute(m, dev, post_layout);
    let mut worst = dev.t_cq; // a wire from FF straight to FF
    let mut worst_levels = 0usize;
    for lut in &m.luts {
        let t = arrivals.at(lut.root);
        if t > worst {
            worst = t;
            worst_levels = lut.level;
        }
    }
    let critical = worst + dev.t_su;
    TimingReport {
        critical_path_ns: critical,
        fmax_mhz: 1000.0 / critical,
        levels: worst_levels,
        post_layout,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::map::{map, MapMode};

    fn chain(stages: usize) -> crate::netlist::Netlist {
        // A chain of 4-input XOR blocks; the mapper may compress stages,
        // so callers pick `stages` by the resulting mapped depth.
        let mut b = Builder::new("chain");
        let mut x = b.input_bus("x", 4);
        for i in 0..stages {
            let y = b.xor_many(&x);
            let more = b.input_bus(&format!("pad{i}"), 3);
            x = vec![y, more[0], more[1], more[2]];
        }
        let out = b.xor_many(&x);
        b.output("o", &[out]);
        b.finish()
    }

    /// A netlist whose depth-oriented mapping has exactly `want` LUT
    /// levels.
    fn netlist_with_depth(want: usize) -> crate::netlist::Netlist {
        for stages in 1..3 * want {
            let n = chain(stages);
            if map(&n, MapMode::Depth).depth == want {
                return n;
            }
        }
        panic!("no chain length maps to depth {want}");
    }

    #[test]
    fn deeper_logic_is_slower() {
        let shallow = map(&chain(1), MapMode::Depth);
        let deep = map(&chain(6), MapMode::Depth);
        let d = devices::XC2V1000_6;
        let f_shallow = analyze(&shallow, &d, true).fmax_mhz;
        let f_deep = analyze(&deep, &d, true).fmax_mhz;
        assert!(f_shallow > f_deep);
    }

    #[test]
    fn virtex_ii_is_faster_than_virtex_on_same_netlist() {
        // The paper: "this speed-up is not achieved by a more efficient
        // placement and routing process but to the technological
        // advantage Virtex II offers over Virtex" — identical depth, only
        // the per-LUT/net delays differ.
        let m = map(&netlist_with_depth(6), MapMode::Depth);
        let v = analyze(&m, &devices::XCV600_4, true);
        let v2 = analyze(&m, &devices::XC2V1000_6, true);
        assert_eq!(v.levels, v2.levels, "same critical-path topology");
        assert!(v2.fmax_mhz > 1.5 * v.fmax_mhz);
    }

    #[test]
    fn six_level_path_meets_line_clock_only_on_virtex_ii() {
        let m = map(&netlist_with_depth(6), MapMode::Depth);
        assert_eq!(m.depth, 6);
        let v = analyze(&m, &devices::XCV600_4, true);
        let v2 = analyze(&m, &devices::XC2V1000_6, true);
        assert!(
            v.fmax_mhz < 78.125,
            "Virtex -4 must miss 78.125 MHz, got {:.1}",
            v.fmax_mhz
        );
        assert!(
            v2.fmax_mhz > 78.125,
            "Virtex-II -6 must make 78.125 MHz, got {:.1}",
            v2.fmax_mhz
        );
    }

    #[test]
    fn post_layout_is_slower_than_pre_layout() {
        let m = map(&chain(4), MapMode::Depth);
        let d = devices::XCV50_4;
        let pre = analyze(&m, &d, false);
        let post = analyze(&m, &d, true);
        assert!(post.fmax_mhz < pre.fmax_mhz);
    }

    #[test]
    fn device_capacities_match_datasheets() {
        assert_eq!(devices::XCV50_4.luts, 1536);
        assert_eq!(devices::XC2V40_6.luts, 512);
        assert_eq!(devices::XC2V1000_6.luts, 5120);
        assert_eq!(devices::XCV600_4.luts, 13824);
    }
}
