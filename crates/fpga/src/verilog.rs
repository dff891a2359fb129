//! Structural Verilog export of mapped netlists — the second
//! independent-verification path next to BLIF: each LUT becomes an
//! `assign` with its truth-table expression, each flip-flop an `always`
//! block with native CE/SR semantics.

use crate::lut::LutNetwork;
use crate::netlist::{NodeKind, Sig};
use std::fmt::Write;

fn ident(s: &str) -> String {
    let mut out: String = s
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

fn sig_name(net: &LutNetwork, s: Sig) -> String {
    for b in net.n.inputs.iter().chain(net.n.outputs.iter()) {
        if let Some(i) = b.sigs.iter().position(|&x| x == s) {
            return format!("{}_{}", ident(&b.name), i);
        }
    }
    match net.n.nodes[s as usize] {
        NodeKind::FfOutput(i) => format!("ff{i}_q"),
        NodeKind::Const(false) => "1'b0".into(),
        NodeKind::Const(true) => "1'b1".into(),
        _ => format!("n{s}"),
    }
}

/// Sum-of-products expression for a LUT truth table.
fn lut_expr(inputs: &[String], truth: u16) -> String {
    let k = inputs.len();
    if truth == 0 {
        return "1'b0".into();
    }
    if truth == ((1u32 << (1 << k)) - 1) as u16 {
        return "1'b1".into();
    }
    let mut terms = Vec::new();
    for idx in 0..(1u16 << k) {
        if (truth >> idx) & 1 == 1 {
            let product: Vec<String> = (0..k)
                .map(|b| {
                    if (idx >> b) & 1 == 1 {
                        inputs[b].clone()
                    } else {
                        format!("~{}", inputs[b])
                    }
                })
                .collect();
            terms.push(format!("({})", product.join(" & ")));
        }
    }
    terms.join(" | ")
}

/// Render a mapped netlist as a synthesizable Verilog module.
pub fn to_verilog(net: &LutNetwork) -> String {
    let mut out = String::new();
    let module = ident(&net.n.name);
    let in_ports: Vec<String> = net
        .n
        .inputs
        .iter()
        .flat_map(|b| b.sigs.iter().map(|&s| sig_name(net, s)))
        .collect();
    let out_ports: Vec<String> = net
        .n
        .outputs
        .iter()
        .flat_map(|b| b.sigs.iter().map(|&s| sig_name(net, s)))
        .collect();

    writeln!(out, "module {module} (").unwrap();
    writeln!(out, "    input  wire clk,").unwrap();
    for p in &in_ports {
        writeln!(out, "    input  wire {p},").unwrap();
    }
    for (i, p) in out_ports.iter().enumerate() {
        let comma = if i + 1 == out_ports.len() { "" } else { "," };
        writeln!(out, "    output wire {p}{comma}").unwrap();
    }
    writeln!(out, ");").unwrap();

    // FF state declarations.
    for i in 0..net.n.dffs.len() {
        writeln!(out, "  reg ff{i}_q;").unwrap();
    }

    // LUTs.
    for lut in &net.luts {
        let name = sig_name(net, lut.root);
        let declared = out_ports.contains(&name);
        let ins: Vec<String> = lut.leaves.iter().map(|&l| sig_name(net, l)).collect();
        let expr = lut_expr(&ins, lut.truth);
        if declared {
            writeln!(out, "  assign {name} = {expr};").unwrap();
        } else {
            writeln!(out, "  wire {name} = {expr};").unwrap();
        }
    }

    // Outputs fed directly by FFs or inputs.
    for b in &net.n.outputs {
        for &s in &b.sigs {
            let name = sig_name(net, s);
            let driven = net.luts.iter().any(|l| l.root == s);
            if !driven && !net.n.inputs.iter().any(|ib| ib.sigs.contains(&s)) {
                writeln!(
                    out,
                    "  assign {name} = {};",
                    match net.n.nodes[s as usize] {
                        NodeKind::FfOutput(i) => format!("ff{i}_q"),
                        NodeKind::Const(v) => format!("1'b{}", u8::from(v)),
                        _ => sig_name(net, s),
                    }
                )
                .unwrap();
            }
        }
    }

    // Flip-flops with CE/SR (SR priority, as on the Virtex slice).
    for (i, dff) in net.n.dffs.iter().enumerate() {
        let d = sig_name(net, dff.d.expect("validated"));
        writeln!(out, "  always @(posedge clk) begin").unwrap();
        let mut indent = "    ".to_string();
        if let Some(sr) = dff.sr {
            writeln!(
                out,
                "{indent}if ({}) ff{i}_q <= 1'b{};",
                sig_name(net, sr),
                u8::from(dff.init)
            )
            .unwrap();
            write!(out, "{indent}else ").unwrap();
            indent = String::new();
        }
        if let Some(en) = dff.en {
            writeln!(out, "{indent}if ({}) ff{i}_q <= {d};", sig_name(net, en)).unwrap();
        } else {
            writeln!(out, "{indent}ff{i}_q <= {d};").unwrap();
        }
        writeln!(out, "  end").unwrap();
    }

    writeln!(out, "endmodule").unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::map::{map, MapMode};

    fn sample() -> crate::netlist::Netlist {
        let mut b = Builder::new("verilog sample");
        let x = b.input_bus("x", 4);
        let en = b.input("en");
        let init = b.input("rst");
        let y = b.xor_many(&x);
        let q = b.reg_ctrl(y, Some(en), Some(init), false);
        b.output("q", &[q]);
        b.finish()
    }

    #[test]
    fn module_structure() {
        let n = sample();
        let m = map(&n, MapMode::Depth);
        let v = to_verilog(&LutNetwork::new(&n, &m));
        assert!(v.contains("module verilog_sample"));
        assert!(v.contains("input  wire clk,"));
        assert!(v.contains("output wire q_0"));
        assert!(v.contains("always @(posedge clk)"));
        assert!(v.contains("endmodule"));
        // SR has priority and drives the init value.
        assert!(v.contains("if (rst_0) ff0_q <= 1'b0;"));
        assert!(v.contains("if (en_0) ff0_q <="));
    }

    #[test]
    fn lut_expression_matches_truth_table() {
        // XOR of two inputs: truth 0110.
        let expr = lut_expr(&["a".into(), "b".into()], 0b0110);
        assert_eq!(expr, "(a & ~b) | (~a & b)");
        assert_eq!(lut_expr(&["a".into()], 0), "1'b0");
        assert_eq!(lut_expr(&["a".into()], 0b11), "1'b1");
    }

    #[test]
    fn identifier_sanitisation() {
        assert_eq!(
            ident("escape-gen 32-bit (barrel)"),
            "escape_gen_32_bit__barrel_"
        );
        assert_eq!(ident("3state"), "_3state");
    }
}
