//! Shared plumbing for the experiment harness binaries.
//!
//! Every `exp_*` binary in `src/bin/` regenerates one table or figure of
//! EXPERIMENTS.md. This library holds the world builders and the table
//! formatting they share, so each binary is just its sweep — plus the
//! [`experiment`] report plumbing (every binary also writes a
//! machine-readable `results/<exp>.json`) and the [`regress`] comparator
//! that diffs those reports against committed baselines in CI.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod experiment;
pub mod regress;

pub use experiment::{key_part, Experiment};

use pg_grid::sched::GridCluster;
use pg_net::energy::RadioModel;
use pg_net::geom::Point;
use pg_net::link::LinkModel;
use pg_net::topology::Topology;
use pg_sensornet::field::TemperatureField;
use pg_sensornet::network::SensorNetwork;
use pg_sensornet::region::Region;
use pg_sim::metrics::Summary;
use pg_sim::{Duration, SimTime};
use std::collections::BTreeMap;

/// A standard experiment world: an `n`-sensor random-geometric deployment
/// over a fire, lossless radios unless stated otherwise.
pub struct World {
    /// The sensor network.
    pub net: SensorNetwork,
    /// The campus grid.
    pub grid: GridCluster,
    /// The burning-building field.
    pub field: TemperatureField,
    /// Named regions (a quarter-area "room210").
    pub regions: BTreeMap<String, Region>,
    /// Query submission instant (10 min after ignition).
    pub now: SimTime,
}

/// Build the standard world: `n` sensors in a `side × side` metre arena
/// (side scales with sqrt(n) to keep density constant), 2 % link loss.
pub fn standard_world(n: usize, seed: u64) -> World {
    standard_world_with_loss(n, seed, 0.02)
}

/// [`standard_world`] with an explicit link-loss probability.
///
/// # Panics
/// Panics when `loss` is outside `[0, 1)`.
#[allow(clippy::unwrap_used)]
pub fn standard_world_with_loss(n: usize, seed: u64, loss: f64) -> World {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    // Constant density: ~1 sensor per 100 m², radio range 18 m.
    let side = ((n as f64) * 100.0).sqrt();
    let topo = loop {
        let t = Topology::random_geometric(n, side, side, 18.0, &mut rng);
        if t.is_connected() {
            break t;
        }
    };
    let base = topo.nearest_to(Point::flat(0.0, 0.0));
    let mut net = SensorNetwork::new(
        topo,
        base,
        RadioModel::mote(),
        LinkModel::new(250e3, Duration::from_millis(5), loss).unwrap(),
        50.0,
    );
    net.noise_sd = 0.5;
    let mut regions = BTreeMap::new();
    regions.insert(
        "room210".to_string(),
        Region::room(0.0, 0.0, side / 2.0, side / 2.0),
    );
    World {
        net,
        grid: GridCluster::campus(),
        field: TemperatureField::building_fire(
            Point::flat(side / 2.0, side / 2.0),
            SimTime::ZERO,
            400.0,
        ),
        regions,
        now: SimTime::from_secs(600),
    }
}

/// Mean over `reps` replications of `f(seed)`.
pub fn replicate(reps: u64, mut f: impl FnMut(u64) -> f64) -> Summary {
    let mut s = Summary::new();
    for seed in 0..reps {
        s.record(f(seed));
    }
    s
}

/// Print a table header: a title line, a rule, and column labels.
pub fn header(title: &str, cols: &[(&str, usize)]) {
    println!("\n{title}");
    let width: usize = cols.iter().map(|(_, w)| w + 2).sum();
    println!("{}", "-".repeat(width));
    let mut line = String::new();
    for (name, w) in cols {
        line.push_str(&format!("{name:>w$}  ", w = w));
    }
    println!("{line}");
    println!("{}", "-".repeat(width));
}

/// Format a float cell compactly (engineering-ish).
pub fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1000.0 || x.abs() < 0.001 {
        format!("{x:.2e}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_world_is_connected_and_deterministic() {
        let a = standard_world(100, 1);
        let b = standard_world(100, 1);
        assert!(a.net.topology().is_connected());
        assert_eq!(a.net.topology().edge_count(), b.net.topology().edge_count());
        assert_eq!(a.net.len(), 100);
    }

    #[test]
    fn replicate_accumulates() {
        let s = replicate(10, |seed| seed as f64);
        assert_eq!(s.count(), 10);
        assert!((s.mean() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn fmt_covers_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(12345.0), "1.23e4");
        assert_eq!(fmt(42.0), "42.0");
        assert_eq!(fmt(1.5), "1.5000");
        assert_eq!(fmt(0.0001), "1.00e-4");
    }
}
