//! Diagnostics: stable codes, severities, spans, and rendering.
//!
//! Every finding of the analyzer is a [`Diagnostic`] with a stable
//! `LDL`-prefixed code (`LDL0xx` = error, `LDL1xx`/`LDL2xx` = warning), a
//! human-readable message, the [`Span`] of the offending construct, and
//! optional notes. A [`Report`] collects the diagnostics of one analysis
//! run and renders them either as human-readable text with a source
//! excerpt or as line-delimited JSON (one object per line, hand-rolled —
//! the build is hermetic, no serde).

use ldl_core::Span;
use ldl_support::json;
use std::fmt;

/// Diagnostic severity. Errors make `Report::has_errors` true (and a
/// batch `ldl-shell --check` exit non-zero); warnings do not.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The program (or query form) cannot execute correctly.
    Error,
    /// Suspicious but executable.
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
        }
    }
}

/// One analyzer finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code, e.g. `"LDL001"`. `LDL0xx` are errors, `LDL1xx`
    /// warnings; the mapping never changes once released.
    pub code: &'static str,
    /// Severity (fixed per code).
    pub severity: Severity,
    /// Primary message; names the offending variable/literal/predicate.
    pub message: String,
    /// Source location of the offending construct ([`Span::NONE`] for
    /// programmatically built programs).
    pub span: Span,
    /// Secondary notes: witnesses, cross-references, suggestions.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// Builds an error diagnostic.
    pub fn error(code: &'static str, span: Span, message: impl Into<String>) -> Diagnostic {
        debug_assert!(
            code.starts_with("LDL0"),
            "error codes are LDL0xx, got {code}"
        );
        Diagnostic {
            code,
            severity: Severity::Error,
            message: message.into(),
            span,
            notes: Vec::new(),
        }
    }

    /// Builds a warning diagnostic.
    pub fn warning(code: &'static str, span: Span, message: impl Into<String>) -> Diagnostic {
        debug_assert!(
            code.starts_with("LDL1") || code.starts_with("LDL2"),
            "warning codes are LDL1xx/LDL2xx, got {code}"
        );
        Diagnostic {
            code,
            severity: Severity::Warning,
            message: message.into(),
            span,
            notes: Vec::new(),
        }
    }

    /// Appends a note (builder style).
    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }

    /// The diagnostic as a single-line JSON object.
    pub fn to_json(&self) -> String {
        let notes: Vec<String> = self.notes.iter().map(|n| json::string(n)).collect();
        format!(
            "{{\"code\":{},\"severity\":{},\"message\":{},\
             \"line\":{},\"col\":{},\"end_line\":{},\"end_col\":{},\"notes\":[{}]}}",
            json::string(self.code),
            json::string(&self.severity.to_string()),
            json::string(&self.message),
            self.span.line,
            self.span.col,
            self.span.end_line,
            self.span.end_col,
            notes.join(",")
        )
    }
}

/// The outcome of one analysis run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Report {
    /// Diagnostics in source order (line, column, code).
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Adds a diagnostic (re-sorted on render/merge).
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Appends every diagnostic of `other`.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Sorts diagnostics by source position, then code, then message, and
    /// drops exact duplicates — stable output for golden files.
    pub fn finish(mut self) -> Report {
        self.diagnostics.sort_by(|a, b| {
            (a.span.line, a.span.col, a.code, &a.message).cmp(&(
                b.span.line,
                b.span.col,
                b.code,
                &b.message,
            ))
        });
        self.diagnostics.dedup();
        self
    }

    /// True when any diagnostic is an error.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Only the error-severity diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// The error-severity findings on one line, `[code] message; ...` —
    /// the text an `LdlError::Unsafe` carries for a rejected query.
    pub fn error_summary(&self) -> String {
        self.errors()
            .map(|d| format!("[{}] {}", d.code, d.message))
            .collect::<Vec<_>>()
            .join("; ")
    }

    /// Renders every diagnostic as line-delimited JSON (one object per
    /// line, no trailing newline).
    pub fn render_json(&self) -> String {
        self.diagnostics
            .iter()
            .map(Diagnostic::to_json)
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Renders human-readable text. When `source` is given, each spanned
    /// diagnostic includes the offending source line with a caret
    /// underline; `origin` names the file (or `"<repl>"`).
    pub fn render_text(&self, source: Option<&str>, origin: &str) -> String {
        let lines: Vec<&str> = source.map(|s| s.lines().collect()).unwrap_or_default();
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!("{}[{}]: {}\n", d.severity, d.code, d.message));
            if !d.span.is_none() {
                out.push_str(&format!("  --> {origin}:{}\n", d.span));
                if let Some(text) = lines.get(d.span.line as usize - 1) {
                    let gutter = d.span.line.to_string();
                    out.push_str(&format!("{:>w$} | {text}\n", gutter, w = gutter.len()));
                    let width = if d.span.end_line == d.span.line && d.span.end_col > d.span.col {
                        (d.span.end_col - d.span.col) as usize
                    } else {
                        1
                    };
                    out.push_str(&format!(
                        "{:>w$} | {}{}\n",
                        "",
                        " ".repeat(d.span.col.saturating_sub(1) as usize),
                        "^".repeat(width.max(1)),
                        w = gutter.len()
                    ));
                }
            }
            for n in &d.notes {
                out.push_str(&format!("  = note: {n}\n"));
            }
        }
        let errors = self.errors().count();
        let warnings = self.diagnostics.len() - errors;
        out.push_str(&format!("{} error(s), {} warning(s)\n", errors, warnings));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_specials() {
        let d = Diagnostic::error("LDL001", Span::NONE, "say \"hi\"\nback\\slash");
        let j = d.to_json();
        assert!(j.contains(r#""message":"say \"hi\"\nback\\slash""#), "{j}");
        assert!(j.contains(r#""code":"LDL001""#));
        assert!(j.contains(r#""severity":"error""#));
    }

    #[test]
    fn report_sorts_and_dedups() {
        let mut r = Report::new();
        r.push(Diagnostic::warning("LDL104", Span::point(5, 1), "later"));
        r.push(Diagnostic::error("LDL001", Span::point(2, 3), "earlier"));
        r.push(Diagnostic::error("LDL001", Span::point(2, 3), "earlier"));
        let r = r.finish();
        assert_eq!(r.diagnostics.len(), 2);
        assert_eq!(r.diagnostics[0].code, "LDL001");
        assert!(r.has_errors());
    }

    #[test]
    fn text_render_has_excerpt_and_caret() {
        let src = "a(1).\nbig(X) <- n(X), X > Y.\n";
        let mut r = Report::new();
        r.push(Diagnostic::error(
            "LDL001",
            Span::range(2, 17, 2, 22),
            "Y is unbound",
        ));
        let t = r.finish().render_text(Some(src), "test.ldl");
        assert!(t.contains("error[LDL001]: Y is unbound"), "{t}");
        assert!(t.contains("--> test.ldl:2:17"), "{t}");
        assert!(t.contains("big(X) <- n(X), X > Y."), "{t}");
        assert!(t.contains("^^^^^"), "{t}");
        assert!(t.contains("1 error(s), 0 warning(s)"), "{t}");
    }
}
