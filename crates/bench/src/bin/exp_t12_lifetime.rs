//! **T12** — continuous queries and network lifetime: EPOCH duration vs.
//! how long the network keeps answering, per collection strategy (§4's
//! Continuous/Windowed class; the lifetime framing is TAG's).
//!
//! ```sh
//! cargo run --release -p pg-bench --bin exp_t12_lifetime
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_bench::{key_part, standard_world, sweep, Cell, Experiment};
use pg_net::energy::RadioModel;
use pg_net::link::LinkModel;
use pg_partition::exec::{execute_once, resolve};
use pg_partition::model::SolutionModel;
use pg_sensornet::network::SensorNetwork;
use pg_sim::{Duration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

const N: usize = 100;
/// Small batteries so lifetimes are reachable in simulation.
const BATTERY_J: f64 = 0.3;
const MAX_EPOCHS: usize = 5_000;

fn main() -> ExitCode {
    let mut exp = Experiment::from_args("exp_t12_lifetime");
    let reps: u64 = 5;
    let epochs: &[u64] = &[1, 5, 20, 60];
    exp.set_meta("reps", reps.to_string());
    println!(
        "T12: continuous AVG query, {N} sensors, {BATTERY_J} J batteries; \
         lifetime = epochs until first sensor death / until blackout"
    );
    exp.table(&format!("mean of {reps} seeds"));
    let query = pg_query::parse("SELECT AVG(temp) FROM sensors").expect("parses");
    for &epoch_s in epochs {
        let epoch = Duration::from_secs(epoch_s);
        for (strategy, model) in [
            ("direct", SolutionModel::BaseStation),
            ("cluster(k=5)", SolutionModel::InNetworkCluster { heads: 5 }),
            ("tree", SolutionModel::InNetworkTree),
        ] {
            let [death, blackout, life_s, deliv] = sweep(reps, |seed| {
                let mut w = standard_world(N, seed);
                // Re-deploy with the small experiment battery.
                w.net = SensorNetwork::new(
                    w.net.topology().clone(),
                    w.net.base(),
                    RadioModel::mote(),
                    LinkModel::new(250e3, Duration::from_millis(5), 0.02).unwrap(),
                    BATTERY_J,
                );
                w.net.noise_sd = 0.5;
                let resolved = resolve(&w.net, &w.regions, &query).expect("selects every sensor");
                let mut rng = StdRng::seed_from_u64(seed ^ 0x12);
                // One answer per epoch until the first epoch nothing
                // arrives, idle-listening through the rest of each epoch.
                let (mut run, mut first_death, mut blackout, mut delivery) = (0, None, None, 0.0);
                w.now = SimTime::ZERO;
                for e in 0..MAX_EPOCHS {
                    let out = execute_once(&mut w.ctx(), &query, &resolved, model, &mut rng);
                    run += 1;
                    delivery += out.delivered_frac;
                    if first_death.is_none() && w.net.alive_sensors() < w.net.len() - 1 {
                        first_death = Some(e);
                    }
                    if out.value.is_none() {
                        blackout = Some(e);
                        break;
                    }
                    w.net.idle_listen(epoch.as_secs_f64());
                    w.now += epoch;
                }
                [
                    first_death.unwrap_or(run) as f64,
                    blackout.unwrap_or(run) as f64,
                    run as f64 * epoch_s as f64,
                    delivery / run.max(1) as f64,
                ]
            });
            exp.row(
                &format!("epoch{epoch_s}.{}", key_part(strategy)),
                &[
                    Cell::int("epoch s", 8, epoch_s),
                    Cell::text("strategy", 14, strategy),
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
        "shape to check: longer epochs extend simulated network lifetime roughly \
         linearly (idle power dominates at long epochs, so strategies \
         converge); at short epochs radio traffic dominates and tree/cluster \
         outlive direct by a clear margin."
    );
    exp.finish()
}
