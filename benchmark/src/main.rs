//! `p5-benchmark` — see `benchmark/README.md`.
//!
//! ```text
//! p5-benchmark --workload W --seed N --seconds S --trace 0|1   one workload (the driver's form)
//! p5-benchmark --all [--seed N] [--seconds S] [--workload W] [--quick] [--commit C]
//! p5-benchmark --agree FIRST.json SECOND.json
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use p5_benchmark::run::{self, Args};
use p5_benchmark::suite::{self, SuiteArgs};

const USAGE: &str = "usage: p5-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick] [--results DIR]
       p5-benchmark --all [--seed N] [--seconds S] [--workload W] [--quick] [--commit C] [--results DIR]
       p5-benchmark --agree FIRST.json SECOND.json";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    all: bool,
    agree: Option<(String, String)>,
    commit: String,
    results: PathBuf,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: false,
        quick: false,
        all: false,
        agree: None,
        commit: "unknown".into(),
        results: PathBuf::from("benchmark/results"),
    };
    let mut it = args.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => cli.workload = Some(value(&mut it, flag)?),
            "--seed" => {
                cli.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                cli.seconds = value(&mut it, flag)?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds takes a number of seconds in (0, 600]")?;
            }
            "--trace" => {
                cli.trace = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--quick" => cli.quick = true,
            "--all" => cli.all = true,
            "--agree" => cli.agree = Some((value(&mut it, flag)?, value(&mut it, flag)?)),
            "--commit" => cli.commit = value(&mut it, flag)?,
            "--results" => cli.results = PathBuf::from(value(&mut it, flag)?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some((first, second)) = &cli.agree {
        suite::agree(first, second).and_then(|ok| {
            if ok {
                Ok(())
            } else {
                Err("two runs of the same tree disagree beyond the benchmark's bounds".into())
            }
        })
    } else if cli.all {
        suite::all(
            &SuiteArgs {
                seed: cli.seed,
                seconds: cli.seconds,
                quick: cli.quick,
                only: cli.workload,
                commit: cli.commit,
            },
            &cli.results,
        )
    } else if let Some(workload) = cli.workload {
        let a = Args {
            workload,
            seed: cli.seed,
            seconds: cli.seconds,
            quick: cli.quick,
            results: cli.results,
        };
        let ran = if cli.trace {
            run::traced(&a)
        } else {
            run::untraced(&a)
        };
        ran.and_then(|o| {
            if !o.correct() {
                // A failed check prints no numbers.
                return Err(format!(
                    "{}: {} of {} frames failed the delivery check",
                    a.workload, o.failed, o.attempted
                ));
            }
            println!("{}", o.detail);
            println!("{}", o.result_line());
            Ok(())
        })
    } else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("p5-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
