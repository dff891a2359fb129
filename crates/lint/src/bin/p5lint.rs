//! `p5lint` — static analysis driver for the P⁵ netlists.
//!
//! With no file arguments it lints every builder-exported netlist plus
//! the shipped link compositions; with `.p5n` files (see
//! [`p5_fpga::text`]) it lints their modules, treating any multi-module
//! file as a source→sink chain for the composition pass.

use std::error::Error;
use std::fmt;
use std::process::ExitCode;

use p5_fpga::{devices, Device};
use p5_lint::{
    lint_full, shipped_link_graphs, shipped_netlists, timing_report, Baseline, LinkGraph, Report,
    Severity, StageContract, LINE_CLOCK_MHZ,
};

const USAGE: &str = "\
usage: p5lint [OPTIONS] [FILE...]

Lint the shipped P5 netlists (default) or the modules of .p5n netlist
files; a file holding several modules is also checked as a composed
source->sink chain.

options:
  --json                 machine-readable JSON array, one object per module
  --device NAME          timing device (default XC2V1000-6)
  --clock MHZ            clock budget in MHz (default 78.125)
  --strict               info findings count toward the exit code
  --deny-warnings        warning findings exit 2 instead of 1
  --baseline PATH        suppress baselined info/warning findings
  --write-baseline PATH  record current sub-error findings as a baseline
  --report-timing        write per-module results/TIMING_<module>.json
  --timing-out DIR       destination directory for --report-timing
  -h, --help             this text

exit codes:
  0  clean (nothing at warning severity or above)
  1  warning findings (info too, under --strict)
  2  error findings, warnings under --deny-warnings, or a usage error";

/// Why the command line was rejected (workspace error convention:
/// `<Noun>Error`, `#[non_exhaustive]`, structured fields — DESIGN.md §14).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
enum CliError {
    /// A flag that takes a value appeared last on the line.
    MissingValue {
        flag: &'static str,
        what: &'static str,
    },
    /// `--device` named no known part.
    UnknownDevice { name: String },
    /// `--clock` carried something that is not a positive frequency.
    BadClock { value: String },
    /// An argument no flag matches.
    UnknownArgument { arg: String },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::MissingValue { flag, what } => write!(f, "{flag} needs {what}"),
            CliError::UnknownDevice { name } => {
                let known: Vec<&str> = devices::ALL.iter().map(|d| d.name).collect();
                write!(f, "unknown device `{name}` (known: {})", known.join(", "))
            }
            CliError::BadClock { value } => write!(f, "bad clock frequency `{value}`"),
            CliError::UnknownArgument { arg } => {
                write!(f, "unknown argument `{arg}` (see --help)")
            }
        }
    }
}

impl Error for CliError {}

struct Options {
    json: bool,
    strict: bool,
    deny_warnings: bool,
    help: bool,
    report_timing: bool,
    timing_out: String,
    baseline: Option<String>,
    write_baseline: Option<String>,
    device: Device,
    clock_mhz: f64,
    files: Vec<String>,
}

fn parse_args() -> Result<Options, CliError> {
    let mut opts = Options {
        json: false,
        strict: false,
        deny_warnings: false,
        help: false,
        report_timing: false,
        timing_out: "results".to_string(),
        baseline: None,
        write_baseline: None,
        device: devices::XC2V1000_6,
        clock_mhz: LINE_CLOCK_MHZ,
        files: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &'static str, what: &'static str| {
            args.next().ok_or(CliError::MissingValue { flag, what })
        };
        match arg.as_str() {
            "--json" => opts.json = true,
            "--strict" => opts.strict = true,
            "--deny-warnings" => opts.deny_warnings = true,
            "--report-timing" => opts.report_timing = true,
            "--timing-out" => opts.timing_out = value("--timing-out", "a directory")?,
            "--baseline" => opts.baseline = Some(value("--baseline", "a baseline file")?),
            "--write-baseline" => {
                opts.write_baseline = Some(value("--write-baseline", "an output path")?)
            }
            "--device" => {
                let name = value("--device", "a device name")?;
                opts.device = *devices::ALL
                    .iter()
                    .find(|d| d.name.eq_ignore_ascii_case(&name))
                    .ok_or(CliError::UnknownDevice { name })?;
            }
            "--clock" => {
                let mhz = value("--clock", "a frequency in MHz")?;
                opts.clock_mhz = mhz
                    .parse::<f64>()
                    .ok()
                    .filter(|f| *f > 0.0)
                    .ok_or(CliError::BadClock { value: mhz })?;
            }
            "--help" | "-h" => opts.help = true,
            other if !other.starts_with('-') => opts.files.push(other.to_string()),
            other => {
                return Err(CliError::UnknownArgument {
                    arg: other.to_string(),
                })
            }
        }
    }
    Ok(opts)
}

/// `TIMING_<module>.json` slug: lowercase alphanumerics, runs of
/// anything else collapsed to one `-`.
fn slug(name: &str) -> String {
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

fn fail(msg: impl fmt::Display) -> ExitCode {
    eprintln!("p5lint: {msg}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("p5lint: {msg}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if opts.help {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }

    // The lint targets: shipped set + shipped compositions, or the
    // modules (and per-file chains) of the named .p5n files.
    let mut netlists = Vec::new();
    let mut graphs: Vec<LinkGraph> = Vec::new();
    if opts.files.is_empty() {
        netlists = shipped_netlists();
        graphs = shipped_link_graphs();
    } else {
        for path in &opts.files {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => return fail(format_args!("{path}: {e}")),
            };
            let modules = match p5_fpga::parse_modules(&text) {
                Ok(m) => m,
                Err(e) => return fail(format_args!("{path}: {e}")),
            };
            if modules.len() > 1 {
                graphs.push(LinkGraph::chain(
                    format!("{path}:chain"),
                    modules.iter().map(StageContract::extract).collect(),
                ));
            }
            netlists.extend(modules);
        }
    }

    let mut reports: Vec<Report> = netlists
        .iter()
        .map(|n| lint_full(n, &opts.device, opts.clock_mhz))
        .collect();
    reports.extend(graphs.iter().map(|g| g.check()));

    if let Some(path) = &opts.write_baseline {
        let b = Baseline::from_reports(&reports, "accepted by --write-baseline");
        if let Err(e) = std::fs::write(path, b.to_json()) {
            return fail(format_args!("{path}: {e}"));
        }
        eprintln!(
            "p5lint: wrote {} baseline entr(ies) to {path}",
            b.entries.len()
        );
    }

    let mut suppressed = 0usize;
    if let Some(path) = &opts.baseline {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => return fail(format_args!("{path}: {e}")),
        };
        let baseline = match Baseline::parse(&text) {
            Ok(b) => b,
            Err(e) => return fail(format_args!("{path}: {e}")),
        };
        for stale in baseline.stale(&reports) {
            eprintln!(
                "p5lint: stale baseline entry {}/{} ({}) — delete it",
                stale.module, stale.rule, stale.reason
            );
        }
        for r in &mut reports {
            suppressed += baseline.apply(r);
        }
    }

    if opts.report_timing {
        if let Err(e) = std::fs::create_dir_all(&opts.timing_out) {
            return fail(format_args!("{}: {e}", opts.timing_out));
        }
        for n in &netlists {
            let Some(sta) = timing_report(n, &opts.device, opts.clock_mhz, 5) else {
                continue; // unmappable: the lint report already says why
            };
            let path = format!("{}/TIMING_{}.json", opts.timing_out, slug(&n.name));
            if let Err(e) = std::fs::write(&path, sta.to_json()) {
                return fail(format_args!("{path}: {e}"));
            }
            if !opts.json {
                println!(
                    "timing {}: worst slack {:+.2} ns, fmax {:.1} MHz ({} endpoints) -> {path}",
                    n.name, sta.worst_slack_ns, sta.fmax_mhz, sta.endpoints
                );
            }
        }
    }

    let worst = reports.iter().filter_map(|r| r.max_severity()).max();
    if opts.json {
        let body: Vec<String> = reports.iter().map(|r| r.to_json()).collect();
        println!("[{}]", body.join(","));
    } else {
        for r in &reports {
            print!("{}", r.render_human());
        }
        let bar = if opts.strict {
            Severity::Info
        } else {
            Severity::Warning
        };
        let failing = reports
            .iter()
            .filter(|r| r.max_severity() >= Some(bar))
            .count();
        println!(
            "p5lint: {} module(s) on {} at {} MHz, {failing} failing, {suppressed} \
             baseline-suppressed finding(s)",
            reports.len(),
            opts.device.name,
            opts.clock_mhz
        );
    }

    match worst {
        Some(Severity::Error) => ExitCode::from(2),
        Some(Severity::Warning) if opts.deny_warnings => ExitCode::from(2),
        Some(Severity::Warning) => ExitCode::from(1),
        Some(Severity::Info) if opts.strict => ExitCode::from(1),
        _ => ExitCode::SUCCESS,
    }
}
