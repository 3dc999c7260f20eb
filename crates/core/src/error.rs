//! Unified error type for the runtime.

use pg_partition::exec::ExecError;
use pg_query::parser::ParseError;
use std::fmt;

/// Anything that can go wrong between query text and an answer.
#[derive(Debug, Clone, PartialEq)]
pub enum PgError {
    /// The query text failed to parse.
    Parse(ParseError),
    /// The query referenced unknown sensors/regions or selected nothing.
    Exec(ExecError),
    /// No solution model satisfies the query's COST bounds — the runtime
    /// rejects rather than blowing the budget (experiment T10).
    CostBoundsUnsatisfiable,
}

impl fmt::Display for PgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PgError::Parse(e) => write!(f, "{e}"),
            PgError::Exec(e) => write!(f, "execution error: {e}"),
            PgError::CostBoundsUnsatisfiable => {
                write!(f, "no solution model satisfies the COST bounds")
            }
        }
    }
}

impl std::error::Error for PgError {}

impl From<ParseError> for PgError {
    fn from(e: ParseError) -> Self {
        PgError::Parse(e)
    }
}

impl From<ExecError> for PgError {
    fn from(e: ExecError) -> Self {
        PgError::Exec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e: PgError = pg_query::parse("nonsense").unwrap_err().into();
        assert!(e.to_string().contains("parse"));
        let e: PgError = ExecError::UnknownSensor(9).into();
        assert!(e.to_string().contains("sensor #9"));
        assert!(PgError::CostBoundsUnsatisfiable
            .to_string()
            .contains("COST"));
    }
}
