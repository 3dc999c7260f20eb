//! **T11** — routing technique comparison (§4: "A particular network may
//! use flooding technique to route data, while another may use gossiping"):
//! coverage, transmissions, and network-wide energy per dissemination for
//! flooding / gossip / tree routing, across network sizes and loss rates.
//!
//! ```sh
//! cargo run --release -p pg-bench --bin exp_t11_routing
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_bench::{key_part, standard_world_with_loss, sweep, Cell, Experiment};
use pg_net::routing::Protocol;
use pg_sensornet::aggregate::READING_WIRE_BYTES;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut exp = Experiment::from_args("exp_t11_routing");
    let reps: u64 = 20;
    let losses: &[f64] = &[0.0, 0.1, 0.3];
    let sizes: &[usize] = &[50, 200];
    exp.set_meta("reps", reps.to_string());
    println!(
        "T11: one dissemination from the base station ({}-byte packets)",
        READING_WIRE_BYTES
    );
    for &loss in losses {
        exp.table(&format!(
            "link loss {:.0}%  (mean of {reps} seeds)",
            loss * 100.0
        ));
        for &n in sizes {
            for proto in [
                Protocol::Flooding,
                Protocol::Gossip { p: 0.7 },
                Protocol::Gossip { p: 0.4 },
                Protocol::Tree,
            ] {
                let [cov, tx, rx, en] = sweep(reps, |seed| {
                    let w = standard_world_with_loss(n, seed, loss);
                    let mut rng = StdRng::seed_from_u64(seed ^ 0x77);
                    let d =
                        proto.disseminate(w.net.topology(), w.net.base(), w.net.link(), &mut rng);
                    [
                        d.coverage(),
                        d.transmissions as f64,
                        d.receptions as f64,
                        d.energy(READING_WIRE_BYTES, w.net.radio(), w.net.topology().range()),
                    ]
                });
                exp.row(
                    &format!("loss{loss}.n{n}.{}", key_part(&proto.name())),
                    &[
                        Cell::int("n", 5, n),
                        Cell::text("protocol", 14, proto.name()),
                        Cell::fixed("coverage", 9, 3, cov).key("coverage"),
                        Cell::eng("tx", 8, tx).key("tx"),
                        Cell::eng("rx", 8, rx).key("rx"),
                        Cell::eng("energy J", 10, en).key("energy_j"),
                    ],
                );
            }
            println!();
        }
    }
    println!(
        "shape to check: flooding always covers but costs the most \
         transmissions; gossip trades coverage for energy as p falls (and \
         collapses at low p on sparse networks); tree routing is cheapest \
         per delivery on lossless links but loses whole subtrees as loss \
         rises."
    );
    exp.finish()
}
