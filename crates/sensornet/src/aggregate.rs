//! Decomposable aggregate functions with mergeable partial state.
//!
//! TAG's key insight (which §4 adopts for its Aggregate Queries class) is
//! that `MAX/MIN/AVG/SUM/COUNT`-style aggregates can be computed in-network
//! because their partial states merge associatively: each tree node combines
//! its children's partial states with its own reading and forwards one
//! fixed-size record instead of every raw value. [`Partial`] carries enough
//! state (`count`, `sum`, `sum_sq`, `min`, `max`) to finalize any [`AggFn`].

/// The aggregate functions supported in the `SELECT` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFn {
    /// Number of readings.
    Count,
    /// Sum of readings.
    Sum,
    /// Arithmetic mean.
    Avg,
    /// Smallest reading.
    Min,
    /// Largest reading.
    Max,
    /// Sample standard deviation.
    StdDev,
}

impl AggFn {
    /// Parse a function name as written in query text (case-insensitive).
    pub fn parse(s: &str) -> Option<AggFn> {
        match s.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggFn::Count),
            "SUM" => Some(AggFn::Sum),
            "AVG" | "MEAN" => Some(AggFn::Avg),
            "MIN" => Some(AggFn::Min),
            "MAX" => Some(AggFn::Max),
            "STDDEV" | "STD" => Some(AggFn::StdDev),
            _ => None,
        }
    }

    /// Canonical upper-case name.
    pub fn name(&self) -> &'static str {
        match self {
            AggFn::Count => "COUNT",
            AggFn::Sum => "SUM",
            AggFn::Avg => "AVG",
            AggFn::Min => "MIN",
            AggFn::Max => "MAX",
            AggFn::StdDev => "STDDEV",
        }
    }
}

/// A conjunction of value predicates pushed down to the sensing site —
/// TAG-style predicate evaluation at the source: a reading that fails the
/// filter is never transmitted, so selection saves radio energy instead of
/// merely post-filtering at the sink.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ValueFilter {
    clauses: Vec<(ValueOp, f64)>,
}

/// Comparison operators for [`ValueFilter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueOp {
    /// `=`
    Eq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl ValueFilter {
    /// The empty filter (matches everything).
    pub fn all() -> Self {
        Self::default()
    }

    /// Builder: add one clause (conjunctive).
    pub fn and(mut self, op: ValueOp, bound: f64) -> Self {
        self.clauses.push((op, bound));
        self
    }

    /// Does `x` satisfy every clause?
    pub fn matches(&self, x: f64) -> bool {
        self.clauses.iter().all(|&(op, b)| match op {
            ValueOp::Eq => x == b,
            ValueOp::Lt => x < b,
            ValueOp::Le => x <= b,
            ValueOp::Gt => x > b,
            ValueOp::Ge => x >= b,
        })
    }
}

/// Mergeable partial aggregate state (TAG's "partial state record").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Partial {
    /// Number of readings folded in.
    pub count: u64,
    /// Sum of readings.
    pub sum: f64,
    /// Sum of squared readings (for variance).
    pub sum_sq: f64,
    /// Minimum reading (`+inf` when empty).
    pub min: f64,
    /// Maximum reading (`-inf` when empty).
    pub max: f64,
}

/// Serialized size of a partial state record on the radio, bytes.
/// (count:8 + sum:8 + sum_sq:8 + min:8 + max:8 — the whole point of TAG is
/// that this is constant regardless of how many readings it summarizes.)
pub const PARTIAL_WIRE_BYTES: u64 = 40;

/// Serialized size of one raw reading on the radio, bytes
/// (sensor id:4 + value:8 — what direct collection ships per sensor).
pub const READING_WIRE_BYTES: u64 = 12;

impl Default for Partial {
    fn default() -> Self {
        Self::empty()
    }
}

impl Partial {
    /// The identity element for [`Partial::merge`].
    pub fn empty() -> Self {
        Partial {
            count: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Partial state of a single reading.
    pub fn of(x: f64) -> Self {
        Partial {
            count: 1,
            sum: x,
            sum_sq: x * x,
            min: x,
            max: x,
        }
    }

    /// Fold one more reading into this state.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        self.sum_sq += x * x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another partial state into this one (associative, commutative,
    /// with [`Partial::empty`] as identity).
    pub fn merge(&mut self, other: &Partial) {
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Compute a partial state over a slice of readings.
    pub fn from_readings(xs: &[f64]) -> Self {
        let mut p = Partial::empty();
        xs.iter().for_each(|&x| p.add(x));
        p
    }

    /// Finalize the requested aggregate. Returns `None` for aggregates that
    /// are undefined on an empty state (everything except `COUNT`).
    pub fn finalize(&self, f: AggFn) -> Option<f64> {
        if self.count == 0 && f != AggFn::Count {
            return None;
        }
        Some(match f {
            AggFn::Count => self.count as f64,
            AggFn::Sum => self.sum,
            AggFn::Avg => self.sum / self.count as f64,
            AggFn::Min => self.min,
            AggFn::Max => self.max,
            AggFn::StdDev => {
                if self.count < 2 {
                    0.0
                } else {
                    let n = self.count as f64;
                    let var = (self.sum_sq - self.sum * self.sum / n) / (n - 1.0);
                    var.max(0.0).sqrt()
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const XS: [f64; 6] = [3.0, -1.0, 4.0, 1.0, 5.0, 9.0];

    #[test]
    fn finalize_matches_direct_computation() {
        let p = Partial::from_readings(&XS);
        assert_eq!(p.finalize(AggFn::Count), Some(6.0));
        assert_eq!(p.finalize(AggFn::Sum), Some(21.0));
        assert_eq!(p.finalize(AggFn::Avg), Some(3.5));
        assert_eq!(p.finalize(AggFn::Min), Some(-1.0));
        assert_eq!(p.finalize(AggFn::Max), Some(9.0));
        let mean = 3.5;
        let var: f64 = XS.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / 5.0;
        assert!((p.finalize(AggFn::StdDev).unwrap() - var.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_flat_computation() {
        let mut a = Partial::from_readings(&XS[..2]);
        let b = Partial::from_readings(&XS[2..]);
        a.merge(&b);
        let flat = Partial::from_readings(&XS);
        assert_eq!(a, flat);
    }

    #[test]
    fn empty_is_merge_identity() {
        let mut p = Partial::from_readings(&XS);
        let before = p;
        p.merge(&Partial::empty());
        assert_eq!(p, before);
        let mut e = Partial::empty();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn empty_state_finalizes_only_count() {
        let e = Partial::empty();
        assert_eq!(e.finalize(AggFn::Count), Some(0.0));
        assert_eq!(e.finalize(AggFn::Avg), None);
        assert_eq!(e.finalize(AggFn::Min), None);
    }

    #[test]
    fn single_reading_stddev_is_zero() {
        assert_eq!(Partial::of(7.0).finalize(AggFn::StdDev), Some(0.0));
    }

    #[test]
    fn parse_names_case_insensitively() {
        assert_eq!(AggFn::parse("avg"), Some(AggFn::Avg));
        assert_eq!(AggFn::parse("MAX"), Some(AggFn::Max));
        assert_eq!(AggFn::parse("StdDev"), Some(AggFn::StdDev));
        assert_eq!(AggFn::parse("median"), None);
        assert_eq!(AggFn::parse(AggFn::Sum.name()), Some(AggFn::Sum));
    }

    #[test]
    fn wire_sizes_favor_aggregation_for_large_fanin() {
        // One partial record beats shipping >3 raw readings — the TAG
        // economics the experiments rely on. (Read as documentation: these
        // constants define the T2 crossover.)
        let (partial, reading) = (PARTIAL_WIRE_BYTES, READING_WIRE_BYTES);
        assert!(partial < 4 * reading);
        assert!(partial > reading);
    }
}
