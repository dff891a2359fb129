//! Gate-level simulation speed: the scalar netlist walker (`Sim`)
//! versus the compiled bit-parallel engine (`CompiledSim`), which
//! evaluates 64 stimulus lanes per pass.
//!
//! Both engines are driven with the identical pseudorandom stimulus
//! schedule on every shipped netlist; the kernel cost of an eval/step
//! pass does not depend on the stimulus values, so broadcasting one
//! vector across the lanes measures the same work as 64 distinct
//! vectors (the equivalence tests cover lane independence).
//!
//! Writes `BENCH_gate_sim.json` (under `target/` with `--smoke`, under
//! `results/` without) and ends with the ledger's exact counts: each
//! netlist's node count and compiled tape length.  With `--min-x64
//! <factor>` the run fails (exit 1) when the 32-bit system aggregate
//! ×64 speedup drops below the floor — the regression gate
//! `scripts/check.sh` pins.

use std::fmt::Write as _;
use std::time::Instant;

use p5_bench::{arg_value, heading, slug, Ledger};
use p5_fpga::{CompiledSim, Netlist, Sim, LANES};
use p5_lint::shipped_netlists;

/// Cheap deterministic stimulus (xorshift64*): both engines replay the
/// same schedule.
struct Stim(u64);

impl Stim {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Wall time for `cycles` clocks of the scalar walker.
fn run_scalar(n: &Netlist, cycles: usize, seed: u64) -> f64 {
    let mut sim = Sim::new(n);
    let ports: Vec<_> = n.inputs.iter().map(|b| sim.in_port(&b.name)).collect();
    let mut stim = Stim(seed);
    let t = Instant::now();
    for _ in 0..cycles {
        for &p in &ports {
            sim.set_port(p, stim.next());
        }
        sim.step();
    }
    t.elapsed().as_secs_f64()
}

/// Wall time for `cycles` clocks of the compiled 64-lane engine.
fn run_compiled(cs: &mut CompiledSim, inputs: &[String], cycles: usize, seed: u64) -> f64 {
    let ports: Vec<_> = inputs.iter().map(|name| cs.in_port(name)).collect();
    let mut stim = Stim(seed);
    let t = Instant::now();
    for _ in 0..cycles {
        for &p in &ports {
            cs.set(p, stim.next());
        }
        cs.step();
    }
    t.elapsed().as_secs_f64()
}

/// Best-of-reps with short sleeps in between, riding out the throttle
/// windows of shared hosts (same scheme as `throughput_report`).
fn best_of<F: FnMut() -> f64>(mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for rep in 0..=3 {
        let wall = f();
        if rep > 0 {
            best = best.min(wall);
        }
        std::thread::sleep(std::time::Duration::from_millis(15));
    }
    best
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let min_x64 = arg_value(&args, "--min-x64");
    let cycles = if smoke { 512 } else { 4096 };
    print!(
        "{}",
        heading("Gate-level simulation - scalar walker vs compiled 64-lane engine")
    );
    println!(
        "{:<30} {:>7} {:>6} {:>12} {:>12} {:>9} {:>9}",
        "module", "nodes", "tape", "scalar us/c", "comp us/c", "x1", "x64"
    );

    // The 32-bit datapath's modules: their aggregate is the headline
    // number (how much faster the whole system simulates).
    let system32: Vec<String> = p5_rtl::system_modules(4)
        .iter()
        .map(|n| n.name.clone())
        .collect();
    let mut sys_scalar = 0.0f64;
    let mut sys_compiled = 0.0f64;

    let mut rows = String::new();
    let mut ledger = Ledger::new("gate_sim");
    for n in shipped_netlists() {
        let mut cs = CompiledSim::compile(&n);
        let input_names: Vec<String> = n.inputs.iter().map(|b| b.name.clone()).collect();
        let scalar = best_of(|| run_scalar(&n, cycles, 2003));
        let compiled = best_of(|| run_compiled(&mut cs, &input_names, cycles, 2003));
        let x1 = scalar / compiled;
        let x64 = x1 * LANES as f64;
        ledger.put(&format!("{}.nodes", slug(&n.name)), n.nodes.len());
        ledger.put(&format!("{}.tape_len", slug(&n.name)), cs.tape_len());
        if system32.iter().any(|m| m == &n.name) {
            sys_scalar += scalar;
            sys_compiled += compiled;
        }
        println!(
            "{:<30} {:>7} {:>6} {:>12.2} {:>12.2} {:>8.1}x {:>8.0}x",
            n.name,
            n.nodes.len(),
            cs.tape_len(),
            scalar / cycles as f64 * 1e6,
            compiled / cycles as f64 * 1e6,
            x1,
            x64,
        );
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        let _ = write!(
            rows,
            "    {{\"module\": \"{}\", \"nodes\": {}, \"tape_len\": {}, \
             \"scalar_us_per_cycle\": {:.3}, \"compiled_us_per_cycle\": {:.3}, \
             \"speedup_x1\": {:.2}, \"speedup_x64\": {:.1}}}",
            n.name,
            n.nodes.len(),
            cs.tape_len(),
            scalar / cycles as f64 * 1e6,
            compiled / cycles as f64 * 1e6,
            x1,
            x64,
        );
    }

    let sys_x64 = sys_scalar / sys_compiled * LANES as f64;
    println!(
        "\n32-bit system aggregate: scalar {:.1} ms vs compiled {:.1} ms \
         over {cycles} cycles => x64 speedup {:.0}x",
        sys_scalar * 1e3,
        sys_compiled * 1e3,
        sys_x64,
    );

    let json = format!(
        "{{\n  \"bench\": \"gate_sim\",\n  \"smoke\": {smoke},\n  \
         \"cycles\": {cycles},\n  \"lanes\": {LANES},\n  \
         \"system32_speedup_x64\": {sys_x64:.1},\n  \"rows\": [\n{rows}\n  ]\n}}\n"
    );
    let mut gate_failures = Vec::new();
    if let Some(floor) = min_x64 {
        if sys_x64 < floor {
            gate_failures.push(format!(
                "32-bit system x64 speedup {sys_x64:.1} below floor {floor}"
            ));
        }
    }
    ledger.finish(smoke, &json, &gate_failures);
}
