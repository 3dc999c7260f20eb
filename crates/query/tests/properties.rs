//! Property-based tests for the query language: total lexing, parser
//! robustness, and classification determinism.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_query::ast::{CostBound, Pred, SelectItem};
use pg_query::classify::{classify, inner_kind, QueryKind};
use pg_query::lexer::lex;
use pg_query::parse;
use pg_sensornet::aggregate::AggFn;
use propcheck::{check, Gen};
use std::ops::RangeInclusive;

/// Generate structurally valid query text along with the facts we expect
/// the parser to recover.
#[derive(Debug, Clone)]
struct GenQuery {
    text: String,
    agg: Option<AggFn>,
    complex: bool,
    sensor_id: Option<u32>,
    region: Option<String>,
    epoch_s: Option<u32>,
    energy: Option<f64>,
}

/// A length from `len`, then that many characters of `set`.
fn chars(g: &mut Gen, len: RangeInclusive<usize>, set: &[u8]) -> String {
    g.vec(len, |g| char::from(set[g.range(0..set.len())]))
        .into_iter()
        .collect()
}

/// A region name, `[a-z][a-z0-9]{0,8}`.
fn region_name(g: &mut Gen) -> String {
    const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    let mut name = chars(g, 1..=1, LOWER);
    name += &chars(g, 0..=8, b"abcdefghijklmnopqrstuvwxyz0123456789");
    name
}

/// Up to 200 printable characters: mostly ASCII, one in ten from a few
/// multibyte ones, to exercise lexers without drowning them in unicode.
fn printable(g: &mut Gen) -> String {
    const EXOTIC: [char; 6] = ['é', 'λ', '中', '∀', '†', '✓'];
    g.vec(0..=200, |g| {
        if g.range(0..10) == 0 {
            EXOTIC[g.range(0..6usize)]
        } else {
            char::from(g.range(0x20u8..=0x7e))
        }
    })
    .into_iter()
    .collect()
}

fn query(g: &mut Gen) -> GenQuery {
    let (agg, complex, select) = match g.range(0..3) {
        0 => (None, false, "temp".to_string()),
        1 => {
            let a = [
                AggFn::Avg,
                AggFn::Max,
                AggFn::Min,
                AggFn::Sum,
                AggFn::Count,
                AggFn::StdDev,
            ][g.range(0..6usize)];
            (Some(a), false, format!("{}(temp)", a.name()))
        }
        _ => (None, true, "temperature_distribution()".to_string()),
    };
    let (sensor_id, region, wher) = match g.range(0..3) {
        0 => (None, None, String::new()),
        1 => {
            let id = g.range(1u32..500);
            (Some(id), None, format!(" WHERE sensor_id = {id}"))
        }
        _ => {
            let r = region_name(g);
            let clause = format!(" WHERE region({r})");
            (None, Some(r), clause)
        }
    };
    let (energy, cost) = match g.range(0..2) {
        0 => (None, String::new()),
        _ => {
            let e = g.range(0.001..100.0);
            (Some(e), format!(" COST energy {e}"))
        }
    };
    let (epoch_s, epoch) = match g.range(0..2) {
        0 => (None, String::new()),
        _ => {
            let s = g.range(1u32..1_000);
            (Some(s), format!(" EPOCH DURATION {s} s"))
        }
    };
    GenQuery {
        text: format!("SELECT {select} FROM sensors{wher}{cost}{epoch}"),
        agg,
        complex,
        sensor_id,
        region,
        epoch_s,
        energy,
    }
}

/// Generated well-formed queries always parse, and the parser recovers
/// exactly the facts that were generated.
#[test]
fn parser_recovers_generated_facts() {
    check("parser_recovers_generated_facts", 64, |g| {
        let want = query(g);
        let q = parse(&want.text).unwrap_or_else(|e| panic!("{}: {e}", want.text));
        assert_eq!(q.first_agg(), want.agg);
        assert_eq!(q.has_complex_fn(), want.complex);
        assert_eq!(q.target_sensor(), want.sensor_id);
        assert_eq!(q.region(), want.region.as_deref());
        assert_eq!(
            q.epoch.map(|e| e.as_secs_f64().round() as u32),
            want.epoch_s
        );
        match (q.energy_bound(), want.energy) {
            (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9 * (1.0 + b.abs())),
            (None, None) => {}
            other => panic!("energy bound mismatch: {other:?}"),
        }
    });
}

/// Classification is a total function of the recovered structure.
#[test]
fn classification_matches_structure() {
    check("classification_matches_structure", 64, |g| {
        let want = query(g);
        let q = parse(&want.text).unwrap();
        let k = classify(&q);
        if want.epoch_s.is_some() {
            assert_eq!(k, QueryKind::Continuous);
            let inner = inner_kind(&q);
            assert_ne!(inner, QueryKind::Continuous);
        } else if want.complex {
            assert_eq!(k, QueryKind::Complex);
        } else if want.agg.is_some() {
            assert_eq!(k, QueryKind::Aggregate);
        } else {
            assert_eq!(k, QueryKind::Simple);
        }
    });
}

/// The lexer never panics on arbitrary input — it returns Ok or a
/// positioned error.
#[test]
fn lexer_is_total() {
    check("lexer_is_total", 64, |g| {
        let s = printable(g);
        match lex(&s) {
            Ok(_) => {}
            Err(e) => assert!(e.pos <= s.len()),
        }
    });
}

/// The parser never panics on arbitrary input.
#[test]
fn parser_is_total() {
    check("parser_is_total", 64, |g| {
        let _ = parse(&printable(g));
    });
}

/// Parsing is deterministic: the same text yields the same AST.
#[test]
fn parsing_is_deterministic() {
    check("parsing_is_deterministic", 64, |g| {
        let want = query(g);
        let a = parse(&want.text).unwrap();
        let b = parse(&want.text).unwrap();
        assert_eq!(a, b);
    });
}

/// AST accessors agree with the raw clause vectors.
#[test]
fn accessors_consistent() {
    check("accessors_consistent", 64, |g| {
        let q = parse(&query(g).text).unwrap();
        assert_eq!(
            q.has_aggregate(),
            q.select.iter().any(|s| matches!(s, SelectItem::Agg(_, _)))
        );
        assert_eq!(
            q.target_sensor().is_some(),
            q.wher.iter().any(|p| matches!(p, Pred::SensorId(_)))
        );
        assert_eq!(
            q.energy_bound().is_some(),
            q.cost.iter().any(|c| matches!(c, CostBound::EnergyJ(_)))
        );
    });
}
