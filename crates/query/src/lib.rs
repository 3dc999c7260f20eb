//! `pg-query` — the paper's sensor query language.
//!
//! §4 defines the format:
//!
//! ```text
//! SELECT {func(), attrs} FROM sensors
//! WHERE  { selPreds }
//! COST   { cost limitation }
//! EPOCH DURATION i
//! ```
//!
//! "The query format is similar to the one used by Madden et al. in TAG.
//! However we allow for any arbitrary function to be specified in the
//! SELECT clause. We have also introduced the COST clause to specify the
//! cost within which the function is to be evaluated. Cost could be in
//! terms of sensor energy, response time or accuracy of the result. The
//! EPOCH clause specifies the interval between two consecutive results for
//! continuous queries."
//!
//! [`parse`] turns query text into an [`ast::Query`]; [`classify()`] sorts
//! queries into the paper's four classes (Simple / Aggregate / Complex /
//! Continuous).

//! # Example
//!
//! ```
//! use pg_query::{classify, parse, QueryKind};
//!
//! let q = parse(
//!     "SELECT AVG(temp) FROM sensors WHERE region(room210) \
//!      COST energy 0.5 EPOCH DURATION 10 s",
//! )
//! .unwrap();
//! assert_eq!(classify(&q), QueryKind::Continuous);
//! assert_eq!(q.region(), Some("room210"));
//! assert_eq!(q.energy_bound(), Some(0.5));
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod ast;
pub mod classify;
pub mod lexer;
pub mod parser;

pub use ast::{CostBound, Pred, Query, SelectItem};
pub use classify::{classify, QueryKind};
pub use parser::{parse, ParseError};
