//! The claims an experiment makes about its own numbers, kept as data.
//!
//! [`Experiment::claims`] returns a handle that states claims named
//! `<key>.<name>`, measured value first and bound second, with one helper
//! per comparison: [`Claims::at_least`] (`>=`), [`Claims::at_most`]
//! (`<=`), [`Claims::above`] (`>`), [`Claims::below`] (`<`) and
//! [`Claims::equal`] (`==`). A NaN fails every comparison. A claim stated
//! through [`Claims::seed`] is stated once per seed under one name: it holds
//! when it holds on every seed, and the seed with the smallest margin (the
//! first on ties) stands for it. [`Experiment::finish`] records each claim
//! as `claims.<key>.<name>.{measured, bound, held, worst_seed}` (a NaN is
//! left out), writes the report, names every failed claim on stderr and
//! exits 1, so no failed claim hides the ones after it.
//!
//! [`Experiment::claims`]: crate::Experiment::claims
//! [`Experiment::finish`]: crate::Experiment::finish

use pg_sim::report::Report;
use std::collections::BTreeMap;

/// A number a claim compares: a count or a measurement.
pub trait Quantity {
    /// The number as an `f64` (counts are exact up to 2⁵³).
    fn value(self) -> f64;
}

macro_rules! quantity {
    ($($t:ty),*) => {$(
        impl Quantity for $t {
            fn value(self) -> f64 {
                self as f64
            }
        }
    )*};
}

quantity!(f64, u64, u32, usize);

/// How far inside its bound `measured` sits under the comparison `op`: 0
/// on the bound, negative beyond it, and a NaN furthest beyond.
fn margin(op: &str, measured: f64, bound: f64) -> f64 {
    let m = match op {
        ">=" | ">" => measured - bound,
        "<=" | "<" => bound - measured,
        _ => -(measured - bound).abs(),
    };
    m.max(f64::NEG_INFINITY) // a NaN becomes -inf
}

struct Claim {
    op: &'static str,
    measured: f64,
    bound: f64,
    held: bool,
    worst_seed: Option<u64>,
}

/// Every claim of one run, by name.
#[derive(Default)]
pub(crate) struct Ledger(BTreeMap<String, Claim>);

impl Ledger {
    /// Record every claim into `report` under `claims.<name>.`.
    pub(crate) fn record(&self, report: &mut Report) {
        for (name, c) in &self.0 {
            let key = |leaf: &str| format!("claims.{name}.{leaf}");
            for (leaf, x) in [("measured", c.measured), ("bound", c.bound)] {
                if x.is_finite() {
                    report.set_scalar(key(leaf), x);
                }
            }
            report.set_counter(key("held"), u64::from(c.held));
            if let Some(seed) = c.worst_seed {
                report.set_counter(key("worst_seed"), seed);
            }
        }
    }

    /// One line per failed claim: what it compared, on which seed.
    pub(crate) fn failures(&self) -> Vec<String> {
        let failed = self.0.iter().filter(|(_, c)| !c.held);
        let line = |(name, c): (&String, &Claim)| {
            let seed = c
                .worst_seed
                .map_or(String::new(), |s| format!(" (seed {s})"));
            let (m, op, b) = (c.measured, c.op, c.bound);
            format!("claim {name} failed: {m} {op} {b} does not hold{seed}")
        };
        failed.map(line).collect()
    }
}

/// A handle that states claims named `<key>.<name>` (see the module docs).
pub struct Claims<'a> {
    ledger: &'a mut Ledger,
    key: String,
    seed: Option<u64>,
}

impl<'a> Claims<'a> {
    pub(crate) fn new(ledger: &'a mut Ledger, key: &str) -> Claims<'a> {
        let (key, seed) = (key.to_string(), None);
        Claims { ledger, key, seed }
    }

    /// Make the claims this handle states per-seed ones, stated for `seed`.
    pub fn seed(mut self, seed: u64) -> Claims<'a> {
        self.seed = Some(seed);
        self
    }

    /// Claim `measured >= bound`.
    pub fn at_least(&mut self, name: &str, measured: impl Quantity, bound: impl Quantity) {
        self.state(name, ">=", measured.value(), bound.value());
    }

    /// Claim `measured <= bound`.
    pub fn at_most(&mut self, name: &str, measured: impl Quantity, bound: impl Quantity) {
        self.state(name, "<=", measured.value(), bound.value());
    }

    /// Claim `measured > bound`.
    pub fn above(&mut self, name: &str, measured: impl Quantity, bound: impl Quantity) {
        self.state(name, ">", measured.value(), bound.value());
    }

    /// Claim `measured < bound`.
    pub fn below(&mut self, name: &str, measured: impl Quantity, bound: impl Quantity) {
        self.state(name, "<", measured.value(), bound.value());
    }

    /// Claim `measured == bound`.
    pub fn equal(&mut self, name: &str, measured: impl Quantity, bound: impl Quantity) {
        self.state(name, "==", measured.value(), bound.value());
    }

    /// Record one statement of the claim `name`.
    ///
    /// # Panics
    /// Panics when the name was stated before, unless both statements are
    /// per-seed ones of the same comparison.
    fn state(&mut self, name: &str, op: &'static str, measured: f64, bound: f64) {
        let name = match self.key.as_str() {
            "" => name.to_string(),
            key => format!("{key}.{name}"),
        };
        let held = match op {
            ">=" => measured >= bound,
            "<=" => measured <= bound,
            ">" => measured > bound,
            "<" => measured < bound,
            _ => measured == bound,
        };
        let inside = margin(op, measured, bound);
        let seed = self.seed;
        let claim = Claim {
            op,
            measured,
            bound,
            held,
            worst_seed: seed,
        };
        let Some(old) = self.ledger.0.get_mut(&name) else {
            self.ledger.0.insert(name, claim);
            return;
        };
        let per_seed = seed.is_some() && old.worst_seed.is_some() && old.op == op;
        assert!(per_seed, "claim {name:?} is stated twice");
        let held = old.held && held;
        if inside < margin(op, old.measured, old.bound) {
            *old = claim;
        }
        old.held = held;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Leaves = (String, Option<f64>, Option<f64>, u64, Option<u64>);

    /// `(name, measured, bound, held, worst_seed)` of each recorded claim.
    fn leaves(ledger: &Ledger) -> Vec<Leaves> {
        let mut r = Report::new("t");
        ledger.record(&mut r);
        let leaf = |name: &str, leaf: &str| format!("claims.{name}.{leaf}");
        (ledger.0.keys())
            .map(|n| {
                let measured = r.scalars.get(&leaf(n, "measured")).copied();
                let bound = r.scalars.get(&leaf(n, "bound")).copied();
                let seed = r.counters.get(&leaf(n, "worst_seed")).copied();
                (
                    n.clone(),
                    measured,
                    bound,
                    r.counters[&leaf(n, "held")],
                    seed,
                )
            })
            .collect()
    }

    #[test]
    fn each_comparison_at_its_boundary() {
        let mut ledger = Ledger::default();
        let mut c = Claims::new(&mut ledger, "edge");
        c.at_least("a_ge", 2u64, 2u64);
        c.above("b_gt", 2u64, 2u64);
        c.at_most("c_le", 0.5, 0.5);
        c.below("d_lt", 0.5, 0.5);
        c.equal("e_eq", 3u32, 3u32);
        c.equal("f_ne", 3.0, 3.000_000_1);
        c.above("g_gt", 2.0, 1.0);
        c.below("h_lt", 1usize, 2usize);
        let held: Vec<_> = leaves(&ledger).into_iter().map(|l| (l.0, l.3)).collect();
        let expect = [
            ("a_ge", 1),
            ("b_gt", 0),
            ("c_le", 1),
            ("d_lt", 0),
            ("e_eq", 1),
            ("f_ne", 0),
            ("g_gt", 1),
            ("h_lt", 1),
        ];
        let expect: Vec<_> = (expect.iter())
            .map(|(n, h)| (format!("edge.{n}"), *h))
            .collect();
        assert_eq!(held, expect);
        assert_eq!(ledger.failures().len(), 3);
    }

    #[test]
    fn a_nan_fails_every_comparison_and_stays_out_of_the_report() {
        let mut ledger = Ledger::default();
        let mut c = Claims::new(&mut ledger, "");
        c.at_least("ge", f64::NAN, 0.0);
        c.at_most("le", f64::NAN, 0.0);
        c.above("gt", f64::NAN, 0.0);
        c.below("lt", f64::NAN, 0.0);
        c.equal("eq", f64::NAN, f64::NAN);
        Claims::new(&mut ledger, "")
            .seed(4)
            .at_most("seeded", 1.0, 2.0);
        Claims::new(&mut ledger, "")
            .seed(5)
            .at_most("seeded", f64::NAN, 2.0);
        let leaves = leaves(&ledger);
        for (name, measured, _, held, _) in &leaves {
            assert_eq!((*held, *measured), (0, None), "{name}");
        }
        assert_eq!(leaves[5].4, Some(5), "the NaN seed is the worst");
        assert!(ledger.failures()[0].starts_with("claim eq failed: NaN == NaN"));
    }

    #[test]
    fn a_per_seed_claim_keeps_its_smallest_margin_and_the_first_on_ties() {
        let mut ledger = Ledger::default();
        for (seed, measured) in [(0, 9u64), (1, 7), (2, 8), (3, 7)] {
            let mut c = Claims::new(&mut ledger, "").seed(seed);
            c.above("gt", measured, 5u64);
            c.at_most("le", 10 - measured, 5u64);
        }
        for (seed, measured) in [(0, 2.0), (1, 2.5), (2, 1.5)] {
            Claims::new(&mut ledger, "")
                .seed(seed)
                .equal("eq", measured, 2.0);
        }
        let expect = vec![
            ("eq".to_string(), Some(2.5), Some(2.0), 0, Some(1)),
            ("gt".to_string(), Some(7.0), Some(5.0), 1, Some(1)),
            ("le".to_string(), Some(3.0), Some(5.0), 1, Some(1)),
        ];
        assert_eq!(leaves(&ledger), expect);
        // One failing seed fails the claim, whichever seed came last.
        Claims::new(&mut ledger, "").seed(4).above("gt", 5u64, 5u64);
        Claims::new(&mut ledger, "").seed(5).above("gt", 6u64, 5u64);
        let gt = ("gt".to_string(), Some(5.0), Some(5.0), 0, Some(4));
        assert_eq!(leaves(&ledger)[1], gt);
        assert_eq!(
            ledger.failures(),
            [
                "claim eq failed: 2.5 == 2 does not hold (seed 1)",
                "claim gt failed: 5 > 5 does not hold (seed 4)"
            ]
        );
    }

    #[test]
    #[should_panic(expected = "claim \"k.x\" is stated twice")]
    fn a_duplicate_claim_name_is_rejected() {
        let mut ledger = Ledger::default();
        Claims::new(&mut ledger, "k").at_least("x", 1u64, 0u64);
        Claims::new(&mut ledger, "k").at_least("x", 1u64, 0u64);
    }

    #[test]
    #[should_panic(expected = "claim \"x\" is stated twice")]
    fn a_per_seed_name_cannot_change_its_comparison() {
        let mut ledger = Ledger::default();
        Claims::new(&mut ledger, "")
            .seed(0)
            .at_least("x", 1u64, 0u64);
        Claims::new(&mut ledger, "").seed(1).above("x", 1u64, 0u64);
    }

    #[test]
    #[should_panic(expected = "claim \"x\" is stated twice")]
    fn a_name_is_either_per_seed_or_stated_once() {
        let mut ledger = Ledger::default();
        Claims::new(&mut ledger, "")
            .seed(0)
            .at_least("x", 1u64, 0u64);
        Claims::new(&mut ledger, "").at_least("x", 1u64, 0u64);
    }
}
