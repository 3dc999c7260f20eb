//! **T12** — continuous queries and network lifetime: EPOCH duration vs.
//! how long the network keeps answering, per collection strategy (§4's
//! Continuous/Windowed class; the lifetime framing is TAG's).
//!
//! ```sh
//! cargo run --release -p pg-bench --bin exp_t12_lifetime [-- --smoke]
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_bench::{key_part, standard_world, sweep, Cell, Experiment};
use pg_net::energy::RadioModel;
use pg_net::link::LinkModel;
use pg_sensornet::aggregate::AggFn;
use pg_sensornet::epoch::{run_continuous, Strategy};
use pg_sensornet::network::SensorNetwork;
use pg_sim::Duration;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

const N: usize = 100;
/// Small batteries so lifetimes are reachable in simulation.
const BATTERY_J: f64 = 0.3;
const MAX_EPOCHS: usize = 5_000;

fn main() -> ExitCode {
    let mut exp = Experiment::from_args("exp_t12_lifetime");
    let reps: u64 = exp.scale(5, 2);
    let epochs: &[u64] = exp.scale(&[1, 5, 20, 60], &[5, 60]);
    exp.set_meta("reps", reps.to_string());
    println!(
        "T12: continuous AVG query, {N} sensors, {BATTERY_J} J batteries; \
         lifetime = epochs until first sensor death / until blackout"
    );
    exp.table(&format!("mean of {reps} seeds"));
    for &epoch_s in epochs {
        for strategy in [
            Strategy::Direct,
            Strategy::Cluster { heads: 5 },
            Strategy::Tree,
        ] {
            let [death, blackout, life_s, deliv] = sweep(reps, |seed| {
                let w = standard_world(N, seed);
                // Re-deploy with the small experiment battery.
                let mut net = SensorNetwork::new(
                    w.net.topology().clone(),
                    w.net.base(),
                    RadioModel::mote(),
                    LinkModel::new(250e3, Duration::from_millis(5), 0.02).unwrap(),
                    BATTERY_J,
                );
                net.noise_sd = 0.5;
                let members: Vec<_> = net
                    .topology()
                    .nodes()
                    .filter(|&x| x != net.base())
                    .collect();
                let mut rng = StdRng::seed_from_u64(seed ^ 0x12);
                let r = run_continuous(
                    &mut net,
                    &members,
                    &w.field,
                    AggFn::Avg,
                    strategy,
                    Duration::from_secs(epoch_s),
                    MAX_EPOCHS,
                    &mut rng,
                );
                [
                    r.first_death_epoch.unwrap_or(r.epochs_run) as f64,
                    r.blackout_epoch.unwrap_or(r.epochs_run) as f64,
                    r.epochs_run as f64 * epoch_s as f64,
                    r.mean_delivery,
                ]
            });
            exp.row(
                &format!("epoch{epoch_s}.{}", key_part(&strategy.name())),
                &[
                    Cell::int("epoch s", 8, epoch_s),
                    Cell::text("strategy", 14, strategy.name()),
                    Cell::eng("1st death", 10, death).key("first_death_epoch"),
                    Cell::eng("blackout", 10, blackout).key("blackout_epoch"),
                    Cell::eng("lifetime s", 11, life_s).key("lifetime_s"),
                    Cell::fixed("delivery", 9, 2, deliv).key("delivery"),
                ],
            );
        }
        println!();
    }
    println!(
        "shape to check: longer epochs extend wall-clock lifetime roughly \
         linearly (idle power dominates at long epochs, so strategies \
         converge); at short epochs radio traffic dominates and tree/cluster \
         outlive direct by a clear margin."
    );
    exp.finish()
}
