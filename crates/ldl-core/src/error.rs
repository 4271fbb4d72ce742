//! Error types shared across the LDL system.

use std::fmt;

/// Any error raised by the language layer (and re-used by downstream
/// crates for validation failures).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LdlError {
    /// Concrete-syntax parse failure, with a line/column and message.
    Parse {
        /// 1-based line.
        line: usize,
        /// 1-based column.
        col: usize,
        /// What went wrong.
        msg: String,
    },
    /// A semantic validation failure (arity clash, unrestricted head
    /// variable, predicate both base and derived, ...).
    Validation(String),
    /// The optimizer proved the query unsafe: no ordering in the execution
    /// space has finite cost (§8.2 of the paper).
    Unsafe(String),
    /// Evaluation-time failure (type error in arithmetic, missing relation).
    Eval(String),
    /// A bottom-up fixpoint ran past its iteration bound. Kept apart
    /// from [`LdlError::Eval`] so callers that recover from divergence
    /// (a counting plan over cyclic data falls back to magic sets) do
    /// not also swallow type errors.
    Diverged(String),
}

impl fmt::Display for LdlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LdlError::Parse { line, col, msg } => {
                write!(f, "parse error at {line}:{col}: {msg}")
            }
            LdlError::Validation(m) => write!(f, "validation error: {m}"),
            LdlError::Unsafe(m) => write!(f, "unsafe query: {m}"),
            LdlError::Eval(m) | LdlError::Diverged(m) => write!(f, "evaluation error: {m}"),
        }
    }
}

impl std::error::Error for LdlError {}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, LdlError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let e = LdlError::Parse {
            line: 3,
            col: 7,
            msg: "expected ')'".into(),
        };
        assert_eq!(e.to_string(), "parse error at 3:7: expected ')'");
        assert!(LdlError::Unsafe("no safe ordering".into())
            .to_string()
            .contains("unsafe"));
    }
}
