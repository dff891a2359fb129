//! FPGA synthesis model — the substrate that regenerates the paper's
//! evaluation (Tables 1–3).
//!
//! The paper synthesises VHDL to Xilinx Virtex / Virtex-II devices with
//! Synplicity and Xilinx Foundation, then reports LUTs, flip-flops and
//! achievable clock pre- and post-layout.  No HDL toolchain exists in
//! this environment, so this crate implements the relevant slice of one:
//!
//! * [`netlist`] — a structural boolean-network IR (2-input gates +
//!   D flip-flops) with named input/output buses;
//! * [`builder`] — combinators to construct datapaths: words, adders,
//!   comparators, muxes, shifters, one-hot decoders, registers, FSMs;
//! * [`sim`] — a functional simulator (topological evaluation + FF
//!   stepping) used to verify every netlist against its behavioural
//!   Rust counterpart;
//! * [`compiled`] — the compile-then-run engine: the netlist lowered
//!   once to a dense instruction tape and evaluated bit-parallel, 64
//!   independent stimulus lanes per pass (one lane per bit of a `u64`);
//! * [`mod@map`] — cut-based technology mapping into 4-input LUTs (Virtex
//!   and Virtex-II are 4-LUT architectures), with a depth-oriented mode
//!   (synthesis estimate, "pre-layout") and an area-recovery mode
//!   ("post-layout");
//! * [`timing`] — the device library (XCV50-4, XCV600-4, XC2V40-6,
//!   XC2V1000-6: real LUT/FF capacities, per-speed-grade delay
//!   parameters) and static timing analysis with fanout- and
//!   congestion-aware net delays;
//! * [`report`] — the per-device utilisation/fMax reports printed by the
//!   table binaries.
//!
//! ```
//! use p5_fpga::{Builder, Sim, map, MapMode, synthesize, devices};
//!
//! // A registered 8-bit parity reducer.
//! let mut b = Builder::new("parity8");
//! let x = b.input_bus("x", 8);
//! let p = b.xor_many(&x);
//! let q = b.reg(p, false);
//! b.output("q", &[q]);
//! let netlist = b.finish();
//!
//! // Simulate it...
//! let mut sim = Sim::new(&netlist);
//! sim.set("x", 0b1011_0001);
//! sim.step();
//! assert_eq!(sim.get("q"), 0);       // even parity
//!
//! // ...map it to 4-LUTs and time it on the paper's device.
//! let mapped = map(&netlist, MapMode::Depth);
//! assert_eq!(mapped.depth, 2);       // 8-input XOR = two LUT levels
//! let report = synthesize(&netlist, &devices::XC2V40_6);
//! assert!(report.fits);
//! ```

pub mod builder;
pub mod compiled;
pub mod export;
pub mod lut;
pub mod map;
pub mod netlist;
pub mod report;
pub mod sim;
pub mod text;
pub mod timing;
pub mod verilog;

pub use builder::Builder;
pub use compiled::{CompiledSim, LANES};
pub use export::to_blif;
pub use export::vcd::VcdWriter;
pub use lut::LutNetwork;
pub use map::{map, MapMode, MappedNetlist};
pub use netlist::{Netlist, NodeKind, Sig};
pub use report::{synthesize, SynthReport};
pub use sim::{InPort, OutPort, Sim};
pub use text::{parse_modules, to_text, TextError};
pub use timing::{devices, Device, TimingReport};
pub use verilog::to_verilog;
