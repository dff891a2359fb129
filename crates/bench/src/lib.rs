//! Shared workload generators and report plumbing for the benchmark
//! harness: the `paper` report (every table and figure, DESIGN.md §4)
//! and the seven smoke-gated reports.

use std::collections::BTreeMap;
use std::fmt::Display;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generate a payload of `len` bytes where each byte is a flag/escape
/// character with probability `density` (the Figure 5/6 sweep axis).
pub fn payload_with_flag_density(len: usize, density: f64, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            if rng.gen_bool(density) {
                if rng.gen_bool(0.5) {
                    0x7E
                } else {
                    0x7D
                }
            } else {
                // Re-draw until we get a non-special byte so density is
                // exact, not approximate.
                loop {
                    let b: u8 = rng.gen();
                    if b != 0x7E && b != 0x7D {
                        break b;
                    }
                }
            }
        })
        .collect()
}

/// A plausible IPv4 datagram payload: header-ish bytes then body.
pub fn ip_like_datagram(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut d = Vec::with_capacity(len);
    d.push(0x45); // version/IHL
    d.push(0x00);
    d.extend_from_slice(&(len as u16).to_be_bytes());
    while d.len() < len {
        d.push(rng.gen());
    }
    d.truncate(len);
    d
}

/// Internet-mix frame sizes (the classic trimodal distribution).
pub fn imix_sizes(count: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| match rng.gen_range(0..12) {
            0..=6 => 40,   // ~58% small
            7..=10 => 576, // ~33% medium
            _ => 1500,     // ~9% full MTU
        })
        .collect()
}

/// Medians of an interleaved overhead measurement: `run(false)` times
/// the baseline, `run(true)` the variant, alternated rep by rep with the
/// baseline at both ends (`pairs` variant runs between `pairs + 1`
/// baseline ones, after one unrecorded baseline run that faults in the
/// process heap).  Each variant run is paired with the mean of the
/// baseline runs on either side of it, so host drift and any
/// first-or-second-of-a-pair effect land on both sides of every ratio.
/// Returns the medians `(baseline_s, variant_s, variant / baseline)`;
/// the last is the overhead a gate reads.
pub fn interleaved_overhead(pairs: usize, mut run: impl FnMut(bool) -> f64) -> (f64, f64, f64) {
    run(false);
    let mut base = vec![run(false)];
    let (mut variant, mut ratio) = (Vec::new(), Vec::new());
    for _ in 0..pairs {
        let v = run(true);
        let b = run(false);
        ratio.push(2.0 * v / (base[base.len() - 1] + b));
        variant.push(v);
        base.push(b);
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    (median(base), median(variant), median(ratio))
}

/// Render a separator + title like the paper's table captions.
pub fn heading(title: &str) -> String {
    format!("\n{}\n{}\n", title, "=".repeat(title.len()))
}

/// Parse `--flag <value>` from the argument list.
pub fn arg_value(args: &[String], flag: &str) -> Option<f64> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// A key segment from a free-form name: lowercase alphanumerics, runs
/// of anything else collapsed to one `-` (`"CRC-32 unit (8-bit)"` →
/// `crc-32-unit-8-bit`).
pub fn slug(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut dash = false;
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
            dash = false;
        } else if !dash && !out.is_empty() {
            out.push('-');
            dash = true;
        }
    }
    out.trim_end_matches('-').to_string()
}

/// A report's exact readings: counts and other values that repeat to
/// the last digit on every run and host.  Printed as sorted
/// `<report>.<key> <value>` lines, which `scripts/check.sh` compares
/// against the committed `results/ledger.txt` — so where a bound would
/// only catch a large move, any move of these fails by name.
pub struct Ledger {
    report: &'static str,
    rows: BTreeMap<String, String>,
}

impl Ledger {
    pub fn new(report: &'static str) -> Self {
        Ledger {
            report,
            rows: BTreeMap::new(),
        }
    }

    /// Record `value` under `<report>.<key>`; `key` must hold no
    /// whitespace.
    pub fn put(&mut self, key: &str, value: impl Display) {
        assert!(
            !key.contains(char::is_whitespace),
            "ledger key {key:?} holds whitespace"
        );
        self.rows
            .insert(format!("{}.{key}", self.report), value.to_string());
    }

    /// End a report: write its JSON as `BENCH_<report>.json` — under
    /// `results/` for a full run, under `target/` for a `--smoke` one,
    /// so a smoke run leaves the committed files alone — print the
    /// sorted `key value` lines, then print every gate failure and exit
    /// 1 if there was one.
    pub fn finish(&self, smoke: bool, json: &str, failures: &[String]) {
        let dir = if smoke { "target" } else { "results" };
        let path = format!("{dir}/BENCH_{}.json", self.report);
        std::fs::create_dir_all(dir).expect("create the report directory");
        std::fs::write(&path, json).expect("write the report JSON");
        println!("\nwrote {path}\n");
        for (key, value) in &self.rows {
            println!("{key} {value}");
        }
        if failures.is_empty() {
            return;
        }
        for f in failures {
            eprintln!("REGRESSION: {f}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_zero_has_no_specials() {
        let p = payload_with_flag_density(10_000, 0.0, 1);
        assert!(p.iter().all(|&b| b != 0x7E && b != 0x7D));
    }

    #[test]
    fn density_one_is_all_specials() {
        let p = payload_with_flag_density(1_000, 1.0, 2);
        assert!(p.iter().all(|&b| b == 0x7E || b == 0x7D));
    }

    #[test]
    fn density_half_is_roughly_half() {
        let p = payload_with_flag_density(100_000, 0.5, 3);
        let specials = p.iter().filter(|&&b| b == 0x7E || b == 0x7D).count();
        assert!((40_000..60_000).contains(&specials));
    }

    #[test]
    fn imix_is_trimodal() {
        let sizes = imix_sizes(1000, 4);
        assert!(sizes.iter().all(|s| [40, 576, 1500].contains(s)));
        assert!(sizes.iter().filter(|&&s| s == 40).count() > 300);
    }

    #[test]
    fn slug_collapses_punctuation() {
        assert_eq!(slug("CRC-32 unit (8-bit)"), "crc-32-unit-8-bit");
        assert_eq!(slug("rx-control"), "rx-control");
    }

    #[test]
    fn ip_like_has_requested_length() {
        assert_eq!(ip_like_datagram(100, 7).len(), 100);
        assert_eq!(ip_like_datagram(4, 7).len(), 4);
    }
}
