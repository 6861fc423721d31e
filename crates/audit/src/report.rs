//! Audit findings and deterministic report rendering.
//!
//! Mirrors the conventions of `cnnre-lint`: a report is a flat, sorted
//! list of findings, rendered either as an aligned human table or as JSON
//! with a stable key order, and mapped to the same process exit codes
//! (0 clean, 1 findings, 2 operational error).

use cnnre_obs::json;

/// One invariant violation found in an artifact.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Stable diagnostic code (`T…` trace, `G…` geometry, `C…` chain,
    /// `D…` differential — see DESIGN.md §9).
    pub code: String,
    /// What the finding anchors to, e.g. `event 12`, `segment 3`,
    /// `chain 0 layer 1`, `stage conv1`.
    pub subject: String,
    /// Human explanation with the offending values.
    pub detail: String,
}

/// The outcome of one audit pass over one artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// Which audit ran: `trace`, `candidates`, or `differential`.
    pub audit: &'static str,
    /// Number of items examined (events, candidate layers, stages…).
    pub items_examined: u64,
    /// Findings, sorted by (code, subject, detail) for stable output.
    pub findings: Vec<Finding>,
    /// Notes about checks that could not run (e.g. segment-level checks
    /// skipped because the event stream itself was corrupt).
    pub skipped: Vec<String>,
}

impl AuditReport {
    /// Creates an empty report for the named audit.
    #[must_use]
    pub fn new(audit: &'static str) -> Self {
        Self {
            audit,
            items_examined: 0,
            findings: Vec::new(),
            skipped: Vec::new(),
        }
    }

    /// Adds a finding.
    pub fn push(
        &mut self,
        code: impl Into<String>,
        subject: impl Into<String>,
        detail: impl Into<String>,
    ) {
        self.findings.push(Finding {
            code: code.into(),
            subject: subject.into(),
            detail: detail.into(),
        });
    }

    /// Sorts findings into the canonical (code, subject, detail) order.
    /// Called by the audit entry points before returning.
    pub fn finalize(&mut self) {
        self.findings.sort();
        self.findings.dedup();
    }

    /// True when no findings were recorded.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The process exit code this report maps to: 0 clean, 1 findings.
    /// (2 is reserved for operational errors and produced by the binary.)
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.is_clean())
    }

    /// Renders the aligned human-readable report.
    #[must_use]
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "cnnre-audit: {} audit, {} item(s) examined, {} finding(s)\n",
            self.audit,
            self.items_examined,
            self.findings.len()
        ));
        for note in &self.skipped {
            out.push_str(&format!("  note: {note}\n"));
        }
        let code_w = self
            .findings
            .iter()
            .map(|f| f.code.len())
            .max()
            .unwrap_or(0);
        let subj_w = self
            .findings
            .iter()
            .map(|f| f.subject.len())
            .max()
            .unwrap_or(0);
        for f in &self.findings {
            out.push_str(&format!(
                "  {:code_w$}  {:subj_w$}  {}\n",
                f.code, f.subject, f.detail
            ));
        }
        out
    }

    /// Renders the report as deterministic JSON (stable key order, findings
    /// pre-sorted by [`AuditReport::finalize`]).
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"tool\": \"cnnre-audit\",\n");
        out.push_str(&format!(
            "  \"version\": \"{}\",\n",
            env!("CARGO_PKG_VERSION")
        ));
        out.push_str(&format!("  \"audit\": \"{}\",\n", self.audit));
        out.push_str(&format!("  \"items_examined\": {},\n", self.items_examined));
        out.push_str(&format!("  \"violations\": {},\n", self.findings.len()));
        out.push_str("  \"skipped\": [");
        for (i, note) in self.skipped.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::push_str(&mut out, note);
        }
        out.push_str("],\n");
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    {\"code\": ");
            json::push_str(&mut out, &f.code);
            out.push_str(", \"subject\": ");
            json::push_str(&mut out, &f.subject);
            out.push_str(", \"detail\": ");
            json::push_str(&mut out, &f.detail);
            out.push('}');
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_report_renders_and_exits_zero() {
        let mut r = AuditReport::new("trace");
        r.items_examined = 7;
        r.finalize();
        assert!(r.is_clean());
        assert_eq!(r.exit_code(), 0);
        assert!(r.render_human().contains("0 finding(s)"));
        assert!(r.render_json().contains("\"violations\": 0"));
    }

    #[test]
    fn findings_sort_and_render_deterministically() {
        let mut r = AuditReport::new("candidates");
        r.push("G004", "chain 1 layer 0", "b");
        r.push("C001", "chain 0 layer 1", "a");
        r.push("C001", "chain 0 layer 1", "a"); // duplicate collapses
        r.finalize();
        assert_eq!(r.exit_code(), 1);
        assert_eq!(r.findings.len(), 2);
        assert_eq!(r.findings[0].code, "C001");
        let json = r.render_json();
        let again = r.render_json();
        assert_eq!(json, again);
        assert!(json.find("C001").unwrap() < json.find("G004").unwrap());
    }

    #[test]
    fn json_escapes_special_characters() {
        let mut r = AuditReport::new("trace");
        r.push("T001", "event 0", "cycle \"a\"\nb\\c");
        r.finalize();
        let json = r.render_json();
        assert!(json.contains("cycle \\\"a\\\"\\nb\\\\c"));
    }
}
