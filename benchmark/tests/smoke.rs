//! The two passes end to end, briefly: every metric the contract names
//! is printed, deliveries check out, and the span file is written.

use std::path::PathBuf;

use p5_benchmark::json::{parse, Value};
use p5_benchmark::run::{traced, untraced, Args};
use p5_benchmark::spec::{END_TO_END, PER_LAYER};

fn args(workload: &str) -> Args {
    Args {
        workload: workload.into(),
        seed: 7,
        seconds: 0.3,
        quick: false,
        results: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("results"),
    }
}

fn metric_names(line: &str) -> Vec<String> {
    let v = parse(line).expect("result line is JSON");
    let Value::Obj(fields) = &v else {
        panic!("result line is not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
    let Some(Value::Obj(metrics)) = v.get("metrics") else {
        panic!("no metrics")
    };
    metrics.iter().map(|(k, _)| k.clone()).collect()
}

#[test]
fn untraced_pass_prints_every_end_to_end_metric() {
    let o = untraced(&args("link_min40")).expect("runs");
    assert!(o.correct());
    assert!(o.attempted > 0 && o.failed == 0);
    let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(metric_names(&o.result_line()), want);
    // Never 0: the driver divides by them.
    assert!(o.metrics.iter().all(|(_, v)| *v > 0.0));
    parse(&o.detail).expect("detail line is JSON");
}

#[test]
fn traced_pass_prints_every_per_layer_metric_and_writes_spans() {
    let a = args("link_imix");
    let o = traced(&a).expect("runs");
    assert!(o.correct());
    let want: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(metric_names(&o.result_line()), want);
    let spans = std::fs::read_to_string(a.results.join("trace-link_imix.json")).expect("span file");
    let spans = parse(&spans).expect("span file is JSON");
    assert!(!spans.get("spans").unwrap().as_array().is_empty());
    parse(&o.detail).expect("detail line is JSON");
}

#[test]
fn unknown_workload_is_an_error() {
    assert!(untraced(&args("no_such_workload")).is_err());
}
