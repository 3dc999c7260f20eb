//! The five workloads. Each module builds its world from the seed, runs
//! it once with set-up and run phases timed separately, checks its own
//! outputs, and returns the simulated ledger.

pub mod federation;
pub mod fire;
pub mod metro;
pub mod scale;

use crate::ledger::Ledger;
use crate::timed::SharedCapture;
use pg_core::FireScenario;
use pg_net::NodeId;

/// A workload's identity: what the driver names and why it exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    MetroDay,
    MetroBandit,
    FireResponse,
    ScaleChurn,
    FederationFaults,
}

/// What the run left behind for the layer probes.
#[derive(Default)]
pub struct Replay {
    /// `scale_churn`: the kill schedule, by epoch.
    pub deaths: Vec<Vec<NodeId>>,
    pub fire: Option<FireReplay>,
    pub fed: Option<FedReplay>,
}

/// `fire_response`: the scenarios as the run left them.
pub struct FireReplay {
    pub compositions: u64,
    pub incidents: Vec<FireScenario>,
}

/// `federation_faults`: the drained federation.
pub struct FedReplay {
    pub size: federation::Size,
    pub fed: pg_federation::Federation,
}

/// One set-up plus one run of a workload.
pub struct Once {
    /// Host time to build world + workload, before the first query.
    pub setup_s: f64,
    /// Host time of the run phase.
    pub wall_s: f64,
    pub ledger: Ledger,
    pub replay: Replay,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::MetroDay,
        Kind::MetroBandit,
        Kind::FireResponse,
        Kind::ScaleChurn,
        Kind::FederationFaults,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::MetroDay => "metro_day",
            Kind::MetroBandit => "metro_bandit",
            Kind::FireResponse => "fire_response",
            Kind::ScaleChurn => "scale_churn",
            Kind::FederationFaults => "federation_faults",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// How many of the sites one host-time repeat runs. One, except where
    /// a site's host time swings too much with its seed to carry a bound:
    /// a federation's grows with the square of its handoff records, whose
    /// count moves by ±15 % from seed to seed, so six smaller ones are
    /// timed as one unit.
    pub fn host_sites(self) -> u64 {
        match self {
            Kind::FederationFaults => 6,
            _ => 1,
        }
    }

    /// Open or closed loop, with its rate or client count.
    pub fn loop_kind(self, smoke: bool) -> String {
        let open = |hz: f64| format!("open loop in sim time, {hz:.2} q/s mean");
        match self {
            Kind::MetroDay => open(metro::Size::day(smoke).rate_hz()),
            Kind::MetroBandit => open(metro::Size::bandit(smoke).rate_hz()),
            Kind::FireResponse => "closed loop, 1 client".into(),
            Kind::ScaleChurn => open(scale::Size::new(smoke).rate_hz()),
            Kind::FederationFaults => open(federation::Size::new(smoke).rate_hz()),
        }
    }

    /// The frozen input sizes, as `(key, value)` pairs.
    pub fn sizes(self, smoke: bool) -> Vec<(&'static str, String)> {
        match self {
            Kind::MetroDay => metro::Size::day(smoke).describe(),
            Kind::MetroBandit => metro::Size::bandit(smoke).describe(),
            Kind::FireResponse => fire::Size::new(smoke).describe(),
            Kind::ScaleChurn => scale::Size::new(smoke).describe(),
            Kind::FederationFaults => federation::Size::new(smoke).describe(),
        }
    }

    /// Build the workload from `seed` and run it once. With a capture the
    /// run is traced: boundary spans are recorded and probe inputs kept.
    pub fn run_once(self, smoke: bool, seed: u64, cap: Option<&SharedCapture>) -> Once {
        match self {
            Kind::MetroDay => metro::run_once(&metro::Size::day(smoke), seed, cap),
            Kind::MetroBandit => metro::run_once(&metro::Size::bandit(smoke), seed, cap),
            Kind::FireResponse => fire::run_once(&fire::Size::new(smoke), seed, cap),
            Kind::ScaleChurn => scale::run_once(&scale::Size::new(smoke), seed, cap),
            Kind::FederationFaults => {
                federation::run_once(&federation::Size::new(smoke), seed, cap)
            }
        }
    }
}
