//! Finding/report types, the rule catalogue, and the two output
//! formats: a human-readable report and machine-readable JSON (written
//! by hand — the workspace resolves offline, so no serde).

use std::fmt;

/// Stable identifiers for every lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    CombLoop,
    UnboundDff,
    InvalidSig,
    BusAlias,
    DeadLogic,
    ResetCoverage,
    FanoutHotspot,
    HandshakeCombLoop,
    UngatedCapture,
    UnstableUnderStall,
    SelfGatedEnable,
    XLeak,
    ConstLogic,
    TimingViolation,
    ComposeHazard,
}

impl Rule {
    /// The stable machine-readable code.
    pub fn code(self) -> &'static str {
        match self {
            Rule::CombLoop => "P5L001",
            Rule::UnboundDff => "P5L002",
            Rule::InvalidSig => "P5L003",
            Rule::BusAlias => "P5L004",
            Rule::DeadLogic => "P5L005",
            Rule::ResetCoverage => "P5L006",
            Rule::FanoutHotspot => "P5L007",
            Rule::HandshakeCombLoop => "P5L008",
            Rule::UngatedCapture => "P5L009",
            Rule::UnstableUnderStall => "P5L010",
            Rule::SelfGatedEnable => "P5L011",
            Rule::XLeak => "P5L012",
            Rule::ConstLogic => "P5L013",
            Rule::TimingViolation => "P5L014",
            Rule::ComposeHazard => "P5L015",
        }
    }

    /// The short human-readable rule name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::CombLoop => "comb-loop",
            Rule::UnboundDff => "unbound-dff",
            Rule::InvalidSig => "invalid-sig",
            Rule::BusAlias => "bus-alias",
            Rule::DeadLogic => "dead-logic",
            Rule::ResetCoverage => "reset-coverage",
            Rule::FanoutHotspot => "fanout-hotspot",
            Rule::HandshakeCombLoop => "handshake-comb-loop",
            Rule::UngatedCapture => "ungated-capture",
            Rule::UnstableUnderStall => "unstable-under-stall",
            Rule::SelfGatedEnable => "self-gated-enable",
            Rule::XLeak => "x-leak",
            Rule::ConstLogic => "const-logic",
            Rule::TimingViolation => "timing-violation",
            Rule::ComposeHazard => "compose-hazard",
        }
    }

    /// Every rule, for catalogue listings and coverage tests.
    pub const ALL: [Rule; 15] = [
        Rule::CombLoop,
        Rule::UnboundDff,
        Rule::InvalidSig,
        Rule::BusAlias,
        Rule::DeadLogic,
        Rule::ResetCoverage,
        Rule::FanoutHotspot,
        Rule::HandshakeCombLoop,
        Rule::UngatedCapture,
        Rule::UnstableUnderStall,
        Rule::SelfGatedEnable,
        Rule::XLeak,
        Rule::ConstLogic,
        Rule::TimingViolation,
        Rule::ComposeHazard,
    ];
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Info,
    Warning,
    Error,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One diagnostic: a rule violation anchored to concrete netlist nodes.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: Rule,
    pub severity: Severity,
    pub message: String,
    /// Node indices (`Sig` values) the finding is anchored to, when any.
    pub nodes: Vec<u32>,
}

impl Finding {
    pub fn new(rule: Rule, severity: Severity, message: impl Into<String>) -> Self {
        Self {
            rule,
            severity,
            message: message.into(),
            nodes: Vec::new(),
        }
    }

    pub fn with_nodes(mut self, nodes: Vec<u32>) -> Self {
        self.nodes = nodes;
        self
    }
}

/// All findings for one module.
#[derive(Debug, Clone)]
pub struct Report {
    pub module: String,
    pub findings: Vec<Finding>,
}

impl Report {
    pub fn new(module: String, findings: Vec<Finding>) -> Self {
        let mut r = Self { module, findings };
        r.sort_findings();
        r
    }

    /// Highest severity present, `None` for an empty report.
    pub fn max_severity(&self) -> Option<Severity> {
        self.findings.iter().map(|f| f.severity).max()
    }

    /// Clean = nothing at warning severity or above.
    pub fn is_clean(&self) -> bool {
        self.max_severity() < Some(Severity::Warning)
    }

    /// Most severe first, then by rule code, message and anchor nodes — a
    /// *total* order, so reports (and the golden fixture JSON derived
    /// from them) are byte-stable regardless of pass execution order.
    pub fn sort_findings(&mut self) {
        self.findings.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then(a.rule.cmp(&b.rule))
                .then_with(|| a.message.cmp(&b.message))
                .then_with(|| a.nodes.cmp(&b.nodes))
        });
    }

    /// Human-readable block, one line per finding.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        let verdict = match self.max_severity() {
            Some(Severity::Error) => "FAIL",
            Some(Severity::Warning) => "WARN",
            _ => "clean",
        };
        out.push_str(&format!("{}: {verdict}\n", self.module));
        for f in &self.findings {
            out.push_str(&format!(
                "  [{} {}] {}: {}",
                f.rule.code(),
                f.severity,
                f.rule.name(),
                f.message
            ));
            if !f.nodes.is_empty() {
                let shown: Vec<String> = f.nodes.iter().take(8).map(|n| n.to_string()).collect();
                let ellipsis = if f.nodes.len() > 8 { ", …" } else { "" };
                out.push_str(&format!("  (nodes {}{ellipsis})", shown.join(", ")));
            }
            out.push('\n');
        }
        out
    }

    /// Machine-readable JSON object for this module.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"module\":{},", json_string(&self.module)));
        out.push_str("\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rule\":\"{}\",\"name\":\"{}\",\"severity\":\"{}\",\"message\":{},\"nodes\":[{}]}}",
                f.rule.code(),
                f.rule.name(),
                f.severity,
                json_string(&f.message),
                f.nodes
                    .iter()
                    .map(|n| n.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            ));
        }
        out.push_str("]}");
        out
    }
}

/// JSON-escape a string (quotes, backslashes, control characters).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_codes_are_unique_and_stable() {
        let codes: Vec<&str> = Rule::ALL.iter().map(|r| r.code()).collect();
        let mut dedup = codes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), Rule::ALL.len(), "duplicate rule code");
        assert!(codes.iter().all(|c| c.starts_with("P5L")));
    }

    #[test]
    fn severity_ordering_drives_cleanliness() {
        let mut r = Report::new("m".into(), vec![]);
        assert!(r.is_clean());
        r.findings
            .push(Finding::new(Rule::DeadLogic, Severity::Info, "x"));
        assert!(r.is_clean(), "info does not dirty a module");
        r.findings
            .push(Finding::new(Rule::BusAlias, Severity::Warning, "y"));
        assert!(!r.is_clean());
    }

    #[test]
    fn json_escapes_and_shape() {
        let mut r = Report::new("mod \"a\"\n".into(), vec![]);
        r.findings
            .push(Finding::new(Rule::CombLoop, Severity::Error, "cycle").with_nodes(vec![1, 2]));
        let j = r.to_json();
        assert!(j.contains("\"module\":\"mod \\\"a\\\"\\n\""), "{j}");
        assert!(j.contains("\"rule\":\"P5L001\""));
        assert!(j.contains("\"nodes\":[1,2]"));
    }
}
