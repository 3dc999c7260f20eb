//! The query AST.

use pg_sensornet::aggregate::AggFn;
use pg_sim::Duration;

/// One item in the SELECT clause.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// A plain attribute (`temp`).
    Attr(String),
    /// A decomposable aggregate (`AVG(temp)`).
    Agg(AggFn, String),
    /// An arbitrary function the paper explicitly allows
    /// (`temperature_distribution()`); these make a query Complex.
    Func(String, Option<String>),
}

/// Comparison operators in WHERE predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
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

/// A selection predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// `sensor_id = 10` — targets one sensor (the Simple-query shape).
    SensorId(u32),
    /// `region(room210)` — a named spatial region.
    Region(String),
    /// `attr op value` — a value predicate on the reading or metadata.
    Cmp(String, CmpOp, f64),
}

/// A COST clause bound: "Cost could be in terms of sensor energy, response
/// time or accuracy of the result."
#[derive(Debug, Clone, PartialEq)]
pub enum CostBound {
    /// Maximum total sensor energy, joules.
    EnergyJ(f64),
    /// Maximum response time, seconds.
    TimeS(f64),
    /// Maximum tolerated relative error (0.05 = 5 %).
    AccuracyRel(f64),
}

/// A parsed query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The SELECT items (at least one).
    pub select: Vec<SelectItem>,
    /// The FROM source (always `sensors` in this system, kept for fidelity).
    pub source: String,
    /// WHERE predicates, implicitly conjoined.
    pub wher: Vec<Pred>,
    /// COST bounds, all of which must hold.
    pub cost: Vec<CostBound>,
    /// EPOCH DURATION for continuous queries.
    pub epoch: Option<Duration>,
}

impl Query {
    /// The target sensor id when the query is of the Simple shape.
    pub fn target_sensor(&self) -> Option<u32> {
        self.wher.iter().find_map(|p| match p {
            Pred::SensorId(id) => Some(*id),
            _ => None,
        })
    }

    /// The named region, when one is selected.
    pub fn region(&self) -> Option<&str> {
        self.wher.iter().find_map(|p| match p {
            Pred::Region(r) => Some(r.as_str()),
            _ => None,
        })
    }

    /// Is any SELECT item a non-aggregate function (Complex marker)?
    pub fn has_complex_fn(&self) -> bool {
        self.select
            .iter()
            .any(|s| matches!(s, SelectItem::Func(_, _)))
    }

    /// Is any SELECT item a decomposable aggregate?
    pub fn has_aggregate(&self) -> bool {
        self.select
            .iter()
            .any(|s| matches!(s, SelectItem::Agg(_, _)))
    }

    /// First aggregate function, if any.
    pub fn first_agg(&self) -> Option<AggFn> {
        self.select.iter().find_map(|s| match s {
            SelectItem::Agg(f, _) => Some(*f),
            _ => None,
        })
    }

    /// The energy bound, if one was given.
    pub fn energy_bound(&self) -> Option<f64> {
        self.cost.iter().find_map(|c| match c {
            CostBound::EnergyJ(j) => Some(*j),
            _ => None,
        })
    }

    /// The response-time bound, if one was given.
    pub fn time_bound(&self) -> Option<f64> {
        self.cost.iter().find_map(|c| match c {
            CostBound::TimeS(s) => Some(*s),
            _ => None,
        })
    }

    /// The accuracy bound, if one was given.
    pub fn accuracy_bound(&self) -> Option<f64> {
        self.cost.iter().find_map(|c| match c {
            CostBound::AccuracyRel(a) => Some(*a),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_accessors() {
        let q = Query {
            select: vec![SelectItem::Agg(AggFn::Avg, "temp".into())],
            source: "sensors".into(),
            wher: vec![Pred::Region("room210".into()), Pred::SensorId(10)],
            cost: vec![CostBound::EnergyJ(0.5), CostBound::TimeS(2.0)],
            epoch: Some(Duration::from_secs(10)),
        };
        assert_eq!(q.target_sensor(), Some(10));
        assert_eq!(q.region(), Some("room210"));
        assert!(q.has_aggregate());
        assert!(!q.has_complex_fn());
        assert_eq!(q.first_agg(), Some(AggFn::Avg));
        assert_eq!(q.energy_bound(), Some(0.5));
        assert_eq!(q.time_bound(), Some(2.0));
        assert_eq!(q.accuracy_bound(), None);
    }
}
