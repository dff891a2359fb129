//! The whole set: every workload in a fresh process of its own, the
//! results gathered into `latest.json` and `history.jsonl`; and the
//! comparison of two such sets against the benchmark's own bounds.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::process::Command;

use crate::json::{self, num, Value};
use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats::Better;

pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    /// Run only this workload (default: all eight).
    pub only: Option<String>,
    /// Commit the tree was built from, for the history line.
    pub commit: String,
}

/// Counters that are counts of the program's own work, not times: two
/// runs of the same code on the same seed must give them exactly —
/// where the workload is one thread with no kernel timing in its loop.
const EXACT: [&str; 3] = [
    "core.model_bytes_per_cycle",
    "hdlc.expansion_ratio",
    "alloc.allocs_per_frame",
];

/// Run this executable again for one workload and return its last two
/// output lines: the detail line and the result line.
fn child(
    workload: &str,
    a: &SuiteArgs,
    trace: bool,
    results: &Path,
) -> Result<(String, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--results")
        .arg(results);
    if a.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {}) failed: {}",
            u8::from(trace),
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines().rev();
    let result = lines.next().unwrap_or("").to_string();
    let detail = lines.next().unwrap_or("{}").to_string();
    Ok((detail, result))
}

/// One row of the printed table per metric of a result line.
fn print_metrics(result: &Value, indent: &str) {
    if let Some(Value::Obj(fields)) = result.get("metrics") {
        for (name, m) in fields {
            let v = m.get("value").and_then(Value::as_f64).unwrap_or(0.0);
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
            println!("{indent}{name:<34} {v:>16.6} {unit}");
        }
    }
}

/// `--all`: run the set, print every metric by name, write
/// `latest.json`, append to `history.jsonl`.
pub fn all(a: &SuiteArgs, results: &Path) -> Result<(), String> {
    std::fs::create_dir_all(results).map_err(|e| format!("{}: {e}", results.display()))?;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let host = crate::run::host_json();
    if a.quick {
        println!(
            "QUICK MODE: a fifth of the run, no traced pass — smoke use only, not a measurement"
        );
    }
    let mut entries = Vec::new();
    let mut history = format!(
        "{{\"commit\": \"{}\", {host}, \"seed\": {}, \
         \"seconds\": {}, \"quick\": {}, \"end_to_end\": {{",
        a.commit,
        a.seed,
        num(a.seconds),
        a.quick
    );
    let mut first = true;
    for w in WORKLOADS
        .iter()
        .filter(|w| a.only.as_deref().is_none_or(|o| o == w.name))
    {
        println!(
            "\n== {}{} — {}",
            w.name,
            if w.gated { "" } else { " (ungated)" },
            w.why
        );
        let (detail, result) = child(w.name, a, false, results)?;
        let parsed = json::parse(&result).map_err(|e| format!("{}: {e}", w.name))?;
        let d = json::parse(&detail).map_err(|e| format!("{}: {e}", w.name))?;
        let count = |k: &str| d.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        // Two workers on fewer than two cores measure the scheduler,
        // not the fleet: the numbers are printed but not vouched for.
        let verified = w.name != "fleet_4k" || nproc >= crate::fleet::WORKERS;
        println!(
            "  end to end ({} offered, {} failed, failed_ratio {}, {} latency samples){}",
            count("offered"),
            count("failed"),
            count("failed_ratio"),
            count("latency_samples"),
            if verified {
                ""
            } else {
                " — UNVERIFIED: needs 2 cores"
            }
        );
        print_metrics(&parsed, "    ");
        let mut entry = format!(
            "{{\"name\": \"{}\", \"verified\": {verified}, \"end_to_end\": {result}, \"detail\": {detail}",
            w.name
        );
        if !a.quick {
            let (tdetail, tresult) = child(w.name, a, true, results)?;
            let tparsed = json::parse(&tresult).map_err(|e| format!("{}: {e}", w.name))?;
            println!("  per layer (traced pass)");
            print_metrics(&tparsed, "    ");
            let _ = write!(
                entry,
                ", \"per_layer\": {tresult}, \"traced_detail\": {tdetail}"
            );
        }
        entry.push('}');
        entries.push(entry);
        let metrics = parsed.get("metrics").ok_or("result line without metrics")?;
        let sep = if first { "" } else { ", " };
        first = false;
        let _ = write!(history, "{sep}\"{}\": {{", w.name);
        for (i, m) in END_TO_END.iter().enumerate() {
            let v = metrics
                .get(m.name)
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{}: no {}", w.name, m.name))?;
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(history, "{sep}\"{}\": {}", m.name, num(v));
        }
        history.push('}');
    }
    history.push_str("}}\n");
    let latest = format!(
        "{{\"commit\": \"{}\", {host}, \"seed\": {}, \
         \"seconds\": {}, \"quick\": {}, \"workloads\": [\n{}\n]}}\n",
        a.commit,
        a.seed,
        num(a.seconds),
        a.quick,
        entries.join(",\n")
    );
    let path = results.join("latest.json");
    std::fs::write(&path, latest).map_err(|e| format!("{}: {e}", path.display()))?;
    let path = results.join("history.jsonl");
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(history.as_bytes()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "\nwrote {}/latest.json, appended to history.jsonl",
        results.display()
    );
    Ok(())
}

/// How far `second` is worse than `first`, as a share of `first`
/// (negative when it is better).
pub fn worsening(first: f64, second: f64, better: Better) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    match better {
        Better::Higher => (first - second) / first.abs(),
        Better::Lower => (second - first) / first.abs(),
    }
}

fn metric_value(set: &Value, workload: &str, section: &str, metric: &str) -> Option<f64> {
    set.get("workloads")?
        .as_array()
        .iter()
        .find(|w| w.get("name").and_then(Value::as_str) == Some(workload))?
        .get(section)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// `--agree A B`: per workload × end-to-end metric, both values, their
/// relative difference, and `ok` or `unresolved` against the metric's
/// bound (either direction: two runs of one tree have no "better").
/// Returns whether everything agreed.
pub fn agree(first: &str, second: &str) -> Result<bool, String> {
    let read = |p: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (read(first)?, read(second)?);
    let mut all_ok = true;
    println!(
        "{:<18} {:<30} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (
                metric_value(&a, w.name, "end_to_end", m.name),
                metric_value(&b, w.name, "end_to_end", m.name),
            ) else {
                continue;
            };
            let diff = worsening(x, y, m.better);
            let ok = diff.abs() <= m.bound;
            // An ungated workload is shown, never held against.
            all_ok &= ok || !w.gated;
            println!(
                "{:<18} {:<30} {x:>14.6} {y:>14.6} {:>8.2}% {:>6.0}%  {}",
                w.name,
                m.name,
                diff * 100.0,
                m.bound * 100.0,
                match (ok, w.gated) {
                    (true, _) => "ok",
                    (false, true) => "unresolved",
                    (false, false) => "unresolved (ungated)",
                }
            );
        }
        for name in EXACT {
            // The socket workloads' pass counts follow kernel timing and
            // the fleet has two threads: their allocation counts are
            // reported, not held to repeat.
            if name == "alloc.allocs_per_frame"
                && !w.name.starts_with("link_")
                && w.name != "sonet_stm16_imix"
            {
                continue;
            }
            let (Some(x), Some(y)) = (
                metric_value(&a, w.name, "per_layer", name),
                metric_value(&b, w.name, "per_layer", name),
            ) else {
                continue;
            };
            let ok = x == y;
            all_ok &= ok;
            println!(
                "{:<18} {:<30} {x:>14.6} {y:>14.6} {:>9} {:>7}  {}",
                w.name,
                name,
                "",
                "exact",
                if ok { "ok" } else { "unresolved" }
            );
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(2.0, 1.8, Better::Higher) - 0.1).abs() < 1e-12);
        assert!((worsening(2.0, 2.2, Better::Higher) + 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, Better::Lower), 0.0);
    }

    #[test]
    fn metric_values_are_found_by_workload_and_name() {
        let set = json::parse(
            r#"{"workloads": [{"name": "link_imix", "end_to_end":
                {"metrics": {"goodput_gbps": {"value": 2.5, "unit": "Gbit/s"}}}}]}"#,
        )
        .unwrap();
        assert_eq!(
            metric_value(&set, "link_imix", "end_to_end", "goodput_gbps"),
            Some(2.5)
        );
        assert_eq!(
            metric_value(&set, "tcp_bulk", "end_to_end", "goodput_gbps"),
            None
        );
        assert_eq!(
            metric_value(&set, "link_imix", "per_layer", "crc.share"),
            None
        );
    }
}
