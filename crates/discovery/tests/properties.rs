//! Property-based tests for semantic discovery invariants.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_discovery::corpus::mixed_corpus;
use pg_discovery::description::{Constraint, Preference, ServiceRequest};
use pg_discovery::matcher;
use pg_discovery::ontology::{ClassId, Ontology};
use propcheck::{check, Gen};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Build a random ontology: each class i > 0 gets 1-2 parents among 0..i.
fn ontology(g: &mut Gen) -> Ontology {
    let parents = g.vec(1..20, |g| g.vec(1..3, |g| g.range(0usize..20)));
    let mut o = Ontology::new();
    o.add_class("c0", &[]);
    for (i, ps) in parents.iter().enumerate() {
        let id = i + 1;
        let ps: Vec<ClassId> = ps
            .iter()
            .map(|&p| ClassId((p % id) as u32))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        o.add_class(&format!("c{id}"), &ps);
    }
    o
}

/// Subsumption is reflexive and transitive on arbitrary DAGs.
#[test]
fn subsumption_is_a_preorder() {
    check("subsumption_is_a_preorder", 64, |g| {
        let o = ontology(g);
        let a = g.range(0u32..20);
        let b = g.range(0u32..20);
        let c = g.range(0u32..20);
        let n = o.len() as u32;
        let (a, b, c) = (ClassId(a % n), ClassId(b % n), ClassId(c % n));
        assert!(o.subsumes(a, a));
        if o.subsumes(a, b) && o.subsumes(b, c) {
            assert!(o.subsumes(a, c), "transitivity violated");
        }
    });
}

/// up_distance obeys the triangle inequality through intermediates.
#[test]
fn distance_triangle() {
    check("distance_triangle", 64, |g| {
        let o = ontology(g);
        let a = g.range(0u32..20);
        let b = g.range(0u32..20);
        let c = g.range(0u32..20);
        let n = o.len() as u32;
        let (a, b, c) = (ClassId(a % n), ClassId(b % n), ClassId(c % n));
        if let (Some(ab), Some(bc)) = (o.up_distance(a, b), o.up_distance(b, c)) {
            let ac = o.up_distance(a, c).expect("path exists via b");
            assert!(ac <= ab + bc);
        }
    });
}

/// Matcher scores are always in (0, 1] and sorted descending; every
/// returned index is in range and unique.
#[test]
fn rank_output_well_formed() {
    check("rank_output_well_formed", 64, |g| {
        let n = g.range(1usize..120);
        let seed = g.u64();
        let onto = Ontology::pervasive_grid();
        let mut rng = StdRng::seed_from_u64(seed);
        let corpus = mixed_corpus(&onto, n, &mut rng);
        let req = ServiceRequest::for_class(onto.class("Service").unwrap())
            .with_preference(Preference::Minimize("cost".into()));
        let ms = matcher::rank(&onto, &req, &corpus);
        let mut seen = std::collections::BTreeSet::new();
        let mut last = f64::INFINITY;
        for m in &ms {
            assert!(m.score > 0.0 && m.score <= 1.0);
            assert!(m.index < corpus.len());
            assert!(seen.insert(m.index), "duplicate index");
            assert!(m.score <= last + 1e-12);
            last = m.score;
        }
    });
}

/// Adding a constraint never grows the survivor set, and the survivors
/// of the stricter request are a subset of the looser one's.
#[test]
fn constraints_are_monotone_filters() {
    check("constraints_are_monotone_filters", 64, |g| {
        let n = g.range(1usize..120);
        let cap = g.range(0.0f64..10.0);
        let seed = g.u64();
        let onto = Ontology::pervasive_grid();
        let mut rng = StdRng::seed_from_u64(seed);
        let corpus = mixed_corpus(&onto, n, &mut rng);
        let class = onto.class("Service").unwrap();
        let loose = ServiceRequest::for_class(class);
        let strict =
            ServiceRequest::for_class(class).with_constraint(Constraint::Le("cost".into(), cap));
        let loose_idx: std::collections::BTreeSet<usize> = matcher::rank(&onto, &loose, &corpus)
            .into_iter()
            .map(|m| m.index)
            .collect();
        let strict_idx: std::collections::BTreeSet<usize> = matcher::rank(&onto, &strict, &corpus)
            .into_iter()
            .map(|m| m.index)
            .collect();
        assert!(strict_idx.is_subset(&loose_idx));
    });
}

/// Requesting a subclass never returns *more* exact/subsumed hits than
/// requesting its ancestor.
#[test]
fn specialization_narrows() {
    check("specialization_narrows", 64, |g| {
        let n = g.range(1usize..120);
        let seed = g.u64();
        let onto = Ontology::pervasive_grid();
        let mut rng = StdRng::seed_from_u64(seed);
        let corpus = mixed_corpus(&onto, n, &mut rng);
        let broad = onto.class("SensorService").unwrap();
        let narrow = onto.class("TemperatureSensor").unwrap();
        let count_strong = |class| {
            matcher::rank(&onto, &ServiceRequest::for_class(class), &corpus)
                .into_iter()
                .filter(|m| m.grade != matcher::MatchGrade::PlugIn)
                .count()
        };
        assert!(count_strong(narrow) <= count_strong(broad));
    });
}
