//! **T4** — semantic vs. syntactic discovery: expressiveness
//! (precision/recall on the paper's printer queries), match cost vs.
//! registry size, and federation traffic vs. a central registry.
//!
//! ```sh
//! cargo run --release -p pg-bench --bin exp_t4_discovery
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_bench::{sweep, Cell, Experiment};
use pg_discovery::baselines::jini_match;
use pg_discovery::broker::BrokerFederation;
use pg_discovery::corpus::{mixed_corpus, precision_recall, printer_corpus};
use pg_discovery::description::{Constraint, Preference, ServiceRequest, Value};
use pg_discovery::matcher;
use pg_discovery::ontology::Ontology;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut exp = Experiment::from_args("exp_t4_discovery");
    let onto = Ontology::pervasive_grid();
    let printer_n: usize = 500;
    let corpora: u64 = 5;
    exp.set_meta("printer_corpus", printer_n.to_string());
    exp.set_meta("corpora", corpora.to_string());

    // --- Part 1: expressiveness on the paper's own printer queries. ---
    println!("T4a: precision/recall on 'color printing under a cost cap' ({printer_n} printers)");
    exp.table(&format!("mean of {corpora} corpora"));
    let [sem_p, jini_p] = sweep(corpora, |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let corpus = printer_corpus(&onto, printer_n, &mut rng);
        let printer = onto.class("PrinterService").unwrap();
        let req = ServiceRequest::for_class(printer)
            .with_constraint(Constraint::Eq("color".into(), Value::Bool(true)))
            .with_constraint(Constraint::Le("cost_per_page".into(), corpus.cost_cap));
        let hits: Vec<usize> = matcher::rank(&onto, &req, &corpus.services)
            .into_iter()
            .map(|m| m.index)
            .collect();
        let jini = jini_match(&corpus.services, "printIt");
        [
            precision_recall(&hits, &corpus.relevant).0,
            precision_recall(&jini, &corpus.relevant).0,
        ]
    });
    let mut claims = exp.claims("printer");
    claims.equal("semantic_precision_min", sem_p.min(), 1.0);
    claims.above("semantic_vs_jini_precision", sem_p.mean(), jini_p.mean());
    let precision = |v: pg_bench::Value| Cell::fixed("precision", 10, 2, v);
    for (system, precision, recall, ranked) in [
        (
            "semantic (this work)",
            precision(sem_p.into()).key("semantic_precision"),
            "1.00",
            "yes",
        ),
        (
            "Jini interface match",
            precision(jini_p.into()).key("jini_precision"),
            "1.00",
            "no",
        ),
        ("Bluetooth SDP (UUID)", precision("n/a".into()), "n/a", "no"),
    ] {
        exp.row(
            "printer",
            &[
                Cell::text("system", 24, system),
                precision,
                Cell::text("recall", 10, recall),
                Cell::text("ranked", 7, ranked),
            ],
        );
    }
    println!("(SDP cannot express the query at all: UUID equality only)");

    // --- Part 2: match cost vs registry size (each service scored once). ---
    println!("\nT4b: semantic match cost vs registry size");
    exp.table("single query, ranked result; every service scored once");
    let solver = onto.class("SolverService").unwrap();
    let registry_sizes: &[usize] = &[100, 1_000, 10_000, 50_000];
    let mut last_hits = 0;
    for &n in registry_sizes {
        let mut rng = StdRng::seed_from_u64(99);
        let corpus = mixed_corpus(&onto, n, &mut rng);
        let req =
            ServiceRequest::for_class(solver).with_preference(Preference::Minimize("cost".into()));
        let hits = matcher::rank(&onto, &req, &corpus).len();
        // At least the smaller registry's hits, at most one per service.
        let key = format!("latency_sweep.n{n}");
        let mut claims = exp.claims(&key);
        claims.at_least("hits_vs_smaller", hits, last_hits);
        claims.at_most("hits_vs_services", hits, n);
        last_hits = hits;
        exp.row(
            &key,
            &[
                Cell::int("services", 9, n),
                Cell::int("hits", 7, hits).key("hits"),
            ],
        );
    }

    // --- Part 3: federation vs central registry. ---
    let fed_n: usize = 240;
    println!("\nT4c: federated brokers vs one central registry ({fed_n} services)");
    exp.table("query entering at broker 0");
    let mut rng = StdRng::seed_from_u64(5);
    let corpus = mixed_corpus(&onto, fed_n, &mut rng);
    let req = ServiceRequest::for_class(solver);
    // Central.
    let mut central = pg_discovery::registry::Registry::new();
    for d in &corpus {
        central.register(d.clone());
    }
    let central_hits = central.query(&onto, &req).len();
    let cells = |deployment: &'static str, overlay: [pg_bench::Value; 4], hits: usize| {
        let [hops, brokers, msgs, latency_ms] = overlay;
        [
            Cell::text("deployment", 16, deployment),
            Cell::int("hops", 5, hops),
            Cell::int("brokers", 8, brokers).key("brokers_visited"),
            Cell::int("msgs", 6, msgs).key("messages"),
            Cell::eng("latency ms", 11, latency_ms).key("latency_ms"),
            Cell::int("hits", 5, hits).key("hits"),
        ]
    };
    // One registry, no overlay: only its hit count is a measurement.
    let no_overlay = ["-", "1", "0", "0"].map(Into::into);
    exp.row(
        "federation.central",
        &cells("central", no_overlay, central_hits),
    );
    // Federated ring of 8.
    let mut fed = BrokerFederation::new(8);
    for i in 0..8 {
        fed.link(i, (i + 1) % 8);
    }
    for (i, d) in corpus.iter().enumerate() {
        fed.register_at(i % 8, d.clone());
    }
    let mut last_hits = 0;
    for hops in [1u32, 2, 4] {
        let (hits, stats) = fed.query(&onto, 0, &req, hops);
        let key = format!("federation.hops{hops}");
        let mut claims = exp.claims(&key);
        claims.above("hits_vs_fewer_hops", hits.len(), last_hits);
        last_hits = hits.len();
        let overlay = [
            hops.into(),
            stats.brokers_visited.into(),
            stats.messages.into(),
            (stats.latency.as_secs_f64() * 1e3).into(),
        ];
        exp.row(&key, &cells("federated (ring)", overlay, hits.len()));
    }
    // The largest hop budget reaches the central registry's hits.
    let mut claims = exp.claims("federation.hops4");
    claims.equal("hits_vs_central", last_hits, central_hits);
    println!(
        "\nshape to check: semantic precision 1.0 vs Jini ~(base rate); match \
         cost linear in registry size; federation coverage grows with hop \
         budget, up to the central registry's, at the price of overlay \
         messages and latency."
    );
    exp.finish()
}
