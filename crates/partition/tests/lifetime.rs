//! Network lifetime under a continuous aggregate, driven through the one
//! collection dispatch the decision maker uses: `execute_once` with a
//! [`SolutionModel`], over a selection resolved once. Each epoch is one execution, then the death and
//! blackout checks, then the rest of the epoch idle-listening — until
//! nothing arrives or the epoch budget runs out.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_grid::sched::GridCluster;
use pg_net::energy::RadioModel;
use pg_net::link::LinkModel;
use pg_net::topology::{NodeId, Topology};
use pg_partition::exec::{execute_once, resolve, ExecContext};
use pg_partition::model::SolutionModel;
use pg_sensornet::field::TemperatureField;
use pg_sensornet::network::SensorNetwork;
use pg_sim::{Duration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// A lossless, noise-free `side × side` grid with the base at a corner.
fn grid_net(side: usize, battery_j: f64) -> SensorNetwork {
    let mut n = SensorNetwork::new(
        Topology::grid(side, side, 10.0, 11.0),
        NodeId(0),
        RadioModel::mote(),
        LinkModel::new(250e3, Duration::from_millis(5), 0.0).unwrap(),
        battery_j,
    );
    n.noise_sd = 0.0;
    n
}

/// What a lifetime run observed.
struct Lifetime {
    epochs_run: usize,
    first_death_epoch: Option<usize>,
    blackout_epoch: Option<usize>,
    total_energy_j: f64,
    mean_delivery: f64,
    values: Vec<Option<f64>>,
}

/// `SELECT AVG(temp) FROM sensors` once per `epoch` under `model`, for at
/// most `max_epochs` epochs or until the network blacks out.
fn lifetime(
    net: &mut SensorNetwork,
    model: SolutionModel,
    epoch: Duration,
    max_epochs: usize,
    seed: u64,
) -> Lifetime {
    let query = pg_query::parse("SELECT AVG(temp) FROM sensors").unwrap();
    let (grid, field, regions) = (
        GridCluster::campus(),
        TemperatureField::calm(22.0),
        BTreeMap::new(),
    );
    let resolved = resolve(net, &regions, &query).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut life = Lifetime {
        epochs_run: 0,
        first_death_epoch: None,
        blackout_epoch: None,
        total_energy_j: 0.0,
        mean_delivery: 0.0,
        values: Vec::new(),
    };
    let mut now = SimTime::ZERO;
    for e in 0..max_epochs {
        let mut ctx = ExecContext {
            net: &mut *net,
            grid: &grid,
            field: &field,
            regions: &regions,
            now,
        };
        let out = execute_once(&mut ctx, &query, &resolved, model, &mut rng);
        life.epochs_run += 1;
        life.total_energy_j += out.cost.energy_j;
        life.mean_delivery += out.delivered_frac;
        life.values.push(out.value);
        if life.first_death_epoch.is_none() && net.alive_sensors() < net.len() - 1 {
            life.first_death_epoch = Some(e);
        }
        if out.value.is_none() {
            life.blackout_epoch = Some(e);
            break;
        }
        net.idle_listen(epoch.as_secs_f64());
        now += epoch;
    }
    life.mean_delivery /= life.epochs_run.max(1) as f64;
    life
}

#[test]
fn healthy_network_answers_every_epoch() {
    let mut n = grid_net(4, 100.0);
    let r = lifetime(
        &mut n,
        SolutionModel::InNetworkTree,
        Duration::from_secs(10),
        20,
        1,
    );
    assert_eq!(r.epochs_run, 20);
    assert_eq!(r.first_death_epoch, None);
    assert_eq!(r.blackout_epoch, None);
    assert!(r.values.iter().all(|v| v == &Some(22.0)));
    assert_eq!(r.mean_delivery, 1.0);
}

#[test]
fn tiny_batteries_cause_death_and_blackout() {
    // 0.02 J at 1 mW idle = ~20 s of idle alone; epochs of 10 s kill
    // everything within a few epochs.
    let mut n = grid_net(4, 0.02);
    let r = lifetime(
        &mut n,
        SolutionModel::BaseStation,
        Duration::from_secs(10),
        100,
        2,
    );
    let death = r.first_death_epoch.expect("sensors must die");
    let blackout = r.blackout_epoch.expect("network must black out");
    assert!(death <= blackout);
    assert!(r.epochs_run < 100, "run should stop at blackout");
}

#[test]
fn tree_never_dies_earlier_than_direct() {
    let run = |model| {
        lifetime(
            &mut grid_net(4, 0.05),
            model,
            Duration::from_secs(1),
            500,
            3,
        )
    };
    let tree = run(SolutionModel::InNetworkTree);
    let direct = run(SolutionModel::BaseStation);
    assert!(
        tree.epochs_run >= direct.epochs_run,
        "tree {} epochs vs direct {}",
        tree.epochs_run,
        direct.epochs_run
    );
}

#[test]
fn tree_spends_less_energy_over_equal_epochs() {
    // Big batteries so nobody dies: idle cost is then identical across
    // strategies and the radio difference decides the comparison. A 7x7
    // grid is comfortably past the partial-vs-reading size crossover
    // (below ~25 nodes the 40-byte partial can lose to 12-byte readings
    // on short paths — the crossover experiment T2 shows exactly this).
    let run = |model| {
        lifetime(
            &mut grid_net(7, 100.0),
            model,
            Duration::from_secs(1),
            50,
            4,
        )
    };
    let tree = run(SolutionModel::InNetworkTree);
    let direct = run(SolutionModel::BaseStation);
    assert_eq!(tree.epochs_run, direct.epochs_run);
    assert!(tree.total_energy_j < direct.total_energy_j);
}
