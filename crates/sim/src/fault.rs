//! Deterministic, seed-reproducible fault injection.
//!
//! §3 of the paper demands a pervasive grid that is "tolerant to failures,
//! available and efficient" and that "degrades gracefully as more and more
//! services become unavailable". To study that claim the way §4 proposes
//! ("simulations … for various approaches"), every layer of the stack must be
//! drivable by the *same* fault script: a [`FaultPlan`] describes node
//! crash/recovery windows, base-station outages, link blackout windows,
//! per-message drop/corrupt/delay probabilities and grid-worker death, and
//! the consuming crates (`pg-net`, `pg-sensornet`, `pg-grid`, `pg-agent`)
//! query it at simulated instants.
//!
//! Determinism contract: a plan is a pure value. Window queries are pure
//! functions of `(plan, t)`; stochastic per-message fates are derived by
//! hashing `(plan seed, message salt)` through the same SplitMix64 mixer as
//! [`crate::rng::RngStreams`], so two runs with the same seed see byte-wise
//! identical fault sequences regardless of thread scheduling.

use crate::rng::{mix, RngStreams};
use crate::time::{Duration, SimTime};
use rand::Rng;
use std::collections::BTreeMap;
use std::fmt;

/// Invalid fault-plan configuration (bad probability, inverted window, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultConfigError(pub String);

impl fmt::Display for FaultConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault plan: {}", self.0)
    }
}

impl std::error::Error for FaultConfigError {}

/// A half-open outage window `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// First instant inside the outage.
    pub start: SimTime,
    /// First instant after the outage.
    pub end: SimTime,
}

impl Window {
    /// True when `t` falls inside the window.
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }
}

fn in_windows(windows: &[Window], t: SimTime) -> bool {
    windows.iter().any(|w| w.contains(t))
}

/// The fate the harness assigns to one in-flight message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageFate {
    /// Delivered unharmed.
    Deliver,
    /// Silently lost in transit.
    Drop,
    /// Delivered, but the payload is garbage (a receiver with integrity
    /// checking treats this as a loss; one without mis-decodes it).
    Corrupt,
    /// Delivered after an extra delay on top of the normal transit time.
    Delay(Duration),
}

/// A deterministic script of failures for one simulated run.
///
/// Construct via [`FaultPlan::builder`]; the default ([`FaultPlan::none`])
/// injects nothing and changes no behavior anywhere it is installed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    node_down: BTreeMap<u64, Vec<Window>>,
    base_outages: Vec<Window>,
    link_blackouts: Vec<Window>,
    worker_down: BTreeMap<usize, Vec<Window>>,
    cell_partitions: Vec<(Window, Vec<u64>)>,
    one_way_cuts: Vec<(Window, u64, u64)>,
    cell_down: BTreeMap<u64, Vec<Window>>,
    msg_loss: f64,
    msg_corrupt: f64,
    msg_delay_prob: f64,
    msg_delay: Duration,
}

impl FaultPlan {
    /// The empty plan: no faults, identical behavior to having no plan.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Start building a plan whose stochastic choices derive from `seed`.
    pub fn builder(seed: u64) -> FaultPlanBuilder {
        FaultPlanBuilder {
            plan: FaultPlan {
                seed,
                ..FaultPlan::default()
            },
            error: None,
        }
    }

    /// True when the plan injects anything at all.
    pub fn is_active(&self) -> bool {
        *self != FaultPlan::none()
    }

    /// True when per-message stochastic faults are configured (drop,
    /// corrupt or delay). Consumers use this to skip RNG draws entirely
    /// under an empty plan, preserving existing random streams bit-for-bit.
    pub fn perturbs_messages(&self) -> bool {
        self.msg_loss > 0.0 || self.msg_corrupt > 0.0 || self.msg_delay_prob > 0.0
    }

    /// Is sensor/agent node `node` crashed at instant `t`?
    pub fn is_node_down(&self, node: u64, t: SimTime) -> bool {
        self.node_down
            .get(&node)
            .is_some_and(|ws| in_windows(ws, t))
    }

    /// Is the base station down at instant `t`?
    pub fn is_base_down(&self, t: SimTime) -> bool {
        in_windows(&self.base_outages, t)
    }

    /// Earliest instant `>= t` at which the base station is up again
    /// (`t` itself when it is currently up). Runtimes use this to *wait
    /// out* a base outage instead of failing the query — the paper's
    /// centralized manager pays the outage in latency, not in answers.
    pub fn base_up_at(&self, t: SimTime) -> SimTime {
        let mut at = t;
        // Windows are kept sorted; walk forward through overlaps.
        for w in &self.base_outages {
            if w.contains(at) {
                at = w.end;
            }
        }
        at
    }

    /// Is the shared link blacked out at instant `t`?
    pub fn is_link_blacked_out(&self, t: SimTime) -> bool {
        in_windows(&self.link_blackouts, t)
    }

    /// Earliest instant `>= t` at which grid worker `idx` is up again
    /// (`t` itself when the worker is currently up).
    pub fn worker_up_at(&self, idx: usize, t: SimTime) -> SimTime {
        let mut at = t;
        if let Some(ws) = self.worker_down.get(&idx) {
            // Windows are kept sorted; walk forward through overlaps.
            for w in ws {
                if w.contains(at) {
                    at = w.end;
                }
            }
        }
        at
    }

    /// Nodes with at least one crash window (crashed at any time).
    pub fn crashing_nodes(&self) -> impl Iterator<Item = u64> + '_ {
        self.node_down.keys().copied()
    }

    /// Can inter-cell traffic flow from cell `from` to cell `to` at `t`?
    ///
    /// A bipartition window severs the link when exactly one endpoint sits
    /// on the listed side (traffic *within* either side still flows); a
    /// one-way cut severs only the `from -> to` direction, modelling the
    /// asymmetric radio links the sensornet layer already suffers from.
    /// Intra-cell traffic (`from == to`) is never partitioned.
    pub fn cell_link_up(&self, from: u64, to: u64, t: SimTime) -> bool {
        if from == to {
            return true;
        }
        for (w, side) in &self.cell_partitions {
            if w.contains(t) && (side.contains(&from) != side.contains(&to)) {
                return false;
            }
        }
        for (w, f, tt) in &self.one_way_cuts {
            if w.contains(t) && *f == from && *tt == to {
                return false;
            }
        }
        true
    }

    /// Is the cell process itself (runtime + agent endpoint) crashed at
    /// instant `t`? Distinct from a base-station outage: a crashed cell
    /// loses volatile state and must recover, a base outage merely
    /// disconnects an otherwise-healthy runtime.
    pub fn is_cell_down(&self, cell: u64, t: SimTime) -> bool {
        self.cell_down
            .get(&cell)
            .is_some_and(|ws| in_windows(ws, t))
    }

    /// True when any cell-level fault (partition, one-way cut or cell
    /// crash) is scripted. Federation consumers use this to keep
    /// fault-free runs byte-identical to builds without the feature.
    pub fn has_cell_faults(&self) -> bool {
        !self.cell_partitions.is_empty()
            || !self.one_way_cuts.is_empty()
            || !self.cell_down.is_empty()
    }

    /// Stochastic per-message loss against a caller-supplied stream. Draws
    /// from `rng` **only** when a loss probability is configured, so empty
    /// plans never perturb existing random sequences.
    pub fn message_dropped<R: Rng>(&self, rng: &mut R) -> bool {
        self.msg_loss > 0.0 && rng.gen::<f64>() < self.msg_loss
    }

    /// The deterministic fate of the message identified by `salt`.
    ///
    /// The fate is a pure function of `(plan seed, salt)`: hand out salts
    /// from a counter (see [`FaultInjector`]) and the whole fault sequence
    /// replays identically across runs and thread schedules.
    pub fn message_fate(&self, salt: u64) -> MessageFate {
        if !self.perturbs_messages() {
            return MessageFate::Deliver;
        }
        // 53 explicitly-placed mantissa bits -> uniform in [0, 1).
        let u = (mix(self.seed ^ 0x6661_7465, salt) >> 11) as f64 / (1u64 << 53) as f64;
        if u < self.msg_loss {
            MessageFate::Drop
        } else if u < self.msg_loss + self.msg_corrupt {
            MessageFate::Corrupt
        } else if u < self.msg_loss + self.msg_corrupt + self.msg_delay_prob {
            MessageFate::Delay(self.msg_delay)
        } else {
            MessageFate::Deliver
        }
    }
}

/// Builder for [`FaultPlan`]; invalid inputs surface at [`build`][Self::build].
#[derive(Debug, Clone)]
pub struct FaultPlanBuilder {
    plan: FaultPlan,
    error: Option<FaultConfigError>,
}

impl FaultPlanBuilder {
    fn window(&mut self, what: &str, start: SimTime, end: SimTime) -> Option<Window> {
        if start >= end {
            self.error.get_or_insert_with(|| {
                FaultConfigError(format!("{what} window must have start < end"))
            });
            return None;
        }
        Some(Window { start, end })
    }

    fn prob(&mut self, what: &str, p: f64) -> f64 {
        if !(0.0..=1.0).contains(&p) {
            self.error.get_or_insert_with(|| {
                FaultConfigError(format!("{what} probability {p} outside [0, 1]"))
            });
            return 0.0;
        }
        p
    }

    /// Crash node `node` for `[start, end)`; it recovers at `end`.
    pub fn node_crash(mut self, node: u64, start: SimTime, end: SimTime) -> Self {
        if let Some(w) = self.window("node crash", start, end) {
            let ws = self.plan.node_down.entry(node).or_default();
            ws.push(w);
            ws.sort_by_key(|w| w.start);
        }
        self
    }

    /// Take the base station down for `[start, end)`.
    pub fn base_outage(mut self, start: SimTime, end: SimTime) -> Self {
        if let Some(w) = self.window("base outage", start, end) {
            self.plan.base_outages.push(w);
            self.plan.base_outages.sort_by_key(|w| w.start);
        }
        self
    }

    /// Black out the shared link for `[start, end)`: every transmission
    /// attempt inside the window fails (energy is still spent trying).
    pub fn link_blackout(mut self, start: SimTime, end: SimTime) -> Self {
        if let Some(w) = self.window("link blackout", start, end) {
            self.plan.link_blackouts.push(w);
            self.plan.link_blackouts.sort_by_key(|w| w.start);
        }
        self
    }

    /// Kill grid worker `idx` for `[start, end)`.
    pub fn worker_outage(mut self, idx: usize, start: SimTime, end: SimTime) -> Self {
        if let Some(w) = self.window("worker outage", start, end) {
            let ws = self.plan.worker_down.entry(idx).or_default();
            ws.push(w);
            ws.sort_by_key(|w| w.start);
        }
        self
    }

    /// Bipartition the federation for `[start, end)`: every inter-cell
    /// link with exactly one endpoint in `side` is severed both ways.
    /// Cells not listed form the other side implicitly.
    pub fn cell_partition(mut self, side: &[u64], start: SimTime, end: SimTime) -> Self {
        if side.is_empty() {
            self.error
                .get_or_insert_with(|| FaultConfigError("partition side must be non-empty".into()));
            return self;
        }
        if let Some(w) = self.window("cell partition", start, end) {
            let mut side = side.to_vec();
            side.sort_unstable();
            side.dedup();
            self.plan.cell_partitions.push((w, side));
            self.plan.cell_partitions.sort_by_key(|(w, _)| w.start);
        }
        self
    }

    /// Sever only the `from -> to` direction for `[start, end)`: `to` can
    /// still reach `from`, so `from` hears the peer while never being
    /// heard — the asymmetric-link case that makes naive gossip flap.
    pub fn one_way_link_cut(mut self, from: u64, to: u64, start: SimTime, end: SimTime) -> Self {
        if from == to {
            self.error.get_or_insert_with(|| {
                FaultConfigError("one-way cut endpoints must differ".into())
            });
            return self;
        }
        if let Some(w) = self.window("one-way cut", start, end) {
            self.plan.one_way_cuts.push((w, from, to));
            self.plan.one_way_cuts.sort_by_key(|(w, ..)| w.start);
        }
        self
    }

    /// Crash cell `cell`'s process for `[start, end)`; volatile runtime
    /// state is lost at `start` and the cell restarts at `end`.
    pub fn cell_crash(mut self, cell: u64, start: SimTime, end: SimTime) -> Self {
        if let Some(w) = self.window("cell crash", start, end) {
            let ws = self.plan.cell_down.entry(cell).or_default();
            ws.push(w);
            ws.sort_by_key(|w| w.start);
        }
        self
    }

    /// Drop each message independently with probability `p`.
    pub fn message_loss(mut self, p: f64) -> Self {
        self.plan.msg_loss = self.prob("message loss", p);
        self
    }

    /// Corrupt each (non-dropped) message with probability `p`.
    pub fn message_corruption(mut self, p: f64) -> Self {
        self.plan.msg_corrupt = self.prob("message corruption", p);
        self
    }

    /// Delay each (intact) message by `extra` with probability `p`.
    pub fn message_delay(mut self, p: f64, extra: Duration) -> Self {
        self.plan.msg_delay_prob = self.prob("message delay", p);
        self.plan.msg_delay = extra;
        self
    }

    /// Stochastically crash a fraction `frac` of nodes `0..n`: each chosen
    /// node goes down at a uniform instant in `[0, horizon)` and stays down
    /// for `mean_downtime` scaled by an exponential draw. Fully determined
    /// by the plan seed.
    pub fn random_node_crashes(
        mut self,
        n: u64,
        frac: f64,
        horizon: SimTime,
        mean_downtime: Duration,
    ) -> Self {
        let frac = self.prob("crash fraction", frac);
        let streams = RngStreams::new(self.plan.seed);
        let mut rng = streams.fork("fault.node_crash");
        for node in 0..n {
            if rng.gen::<f64>() >= frac {
                continue;
            }
            let start = SimTime::from_secs_f64(rng.gen::<f64>() * horizon.as_secs_f64());
            let down = -rng.gen::<f64>().max(1e-12).ln() * mean_downtime.as_secs_f64();
            let end = start + Duration::from_secs_f64(down.max(1e-9));
            let ws = self.plan.node_down.entry(node).or_default();
            ws.push(Window { start, end });
            ws.sort_by_key(|w| w.start);
        }
        self
    }

    /// Finish, surfacing the first configuration error if any.
    pub fn build(self) -> Result<FaultPlan, FaultConfigError> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.plan),
        }
    }
}

/// Stateful per-message fate dealer plus dead-simple accounting.
///
/// Wraps a [`FaultPlan`] with a salt counter so each message consumes the
/// next fate in the plan's deterministic sequence, and tallies what was done
/// to the traffic so consumers can report it.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    next_salt: u64,
    /// Messages dropped (stochastic drops plus blackout-window kills).
    pub dropped: u64,
    /// Messages corrupted in transit.
    pub corrupted: u64,
    /// Messages delayed beyond their normal transit time.
    pub delayed: u64,
}

impl FaultInjector {
    /// Wrap a plan with a fresh salt counter.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            plan,
            next_salt: 0,
            dropped: 0,
            corrupted: 0,
            delayed: 0,
        }
    }

    /// The wrapped plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Deal the fate for the next message, sent at instant `t`.
    pub fn next_fate(&mut self, t: SimTime) -> MessageFate {
        if self.plan.is_link_blacked_out(t) {
            self.dropped += 1;
            return MessageFate::Drop;
        }
        let fate = self.plan.message_fate(self.next_salt);
        self.next_salt = self.next_salt.wrapping_add(1);
        match fate {
            MessageFate::Drop => self.dropped += 1,
            MessageFate::Corrupt => self.corrupted += 1,
            MessageFate::Delay(_) => self.delayed += 1,
            MessageFate::Deliver => {}
        }
        fate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn empty_plan_is_inert() {
        let p = FaultPlan::none();
        assert!(!p.is_active());
        assert!(!p.perturbs_messages());
        assert!(!p.is_node_down(3, secs(10)));
        assert!(!p.is_base_down(secs(10)));
        assert!(!p.is_link_blacked_out(secs(10)));
        assert_eq!(p.message_fate(0), MessageFate::Deliver);
        // No RNG draw on the empty plan: the stream is untouched.
        use rand::SeedableRng;
        let mut a = rand::rngs::StdRng::seed_from_u64(9);
        let mut b = rand::rngs::StdRng::seed_from_u64(9);
        assert!(!p.message_dropped(&mut a));
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn windows_are_half_open() {
        let p = FaultPlan::builder(1)
            .node_crash(5, secs(10), secs(20))
            .base_outage(secs(30), secs(40))
            .build()
            .unwrap();
        assert!(p.is_active());
        assert!(!p.is_node_down(5, secs(9)));
        assert!(p.is_node_down(5, secs(10)));
        assert!(p.is_node_down(5, secs(19)));
        assert!(!p.is_node_down(5, secs(20)));
        assert!(!p.is_node_down(6, secs(15)));
        assert!(p.is_base_down(secs(30)));
        assert!(!p.is_base_down(secs(40)));
    }

    #[test]
    fn worker_recovery_walks_overlapping_windows() {
        let p = FaultPlan::builder(1)
            .worker_outage(2, secs(10), secs(20))
            .worker_outage(2, secs(15), secs(30))
            .build()
            .unwrap();
        assert_eq!(p.worker_up_at(2, secs(5)), secs(5));
        assert_eq!(p.worker_up_at(2, secs(12)), secs(30));
        assert_eq!(p.worker_up_at(1, secs(12)), secs(12));
    }

    #[test]
    fn bad_inputs_surface_at_build() {
        assert!(FaultPlan::builder(1).message_loss(1.5).build().is_err());
        assert!(FaultPlan::builder(1)
            .base_outage(secs(10), secs(10))
            .build()
            .is_err());
    }

    #[test]
    fn message_fates_are_deterministic_and_mixed() {
        let p = FaultPlan::builder(77)
            .message_loss(0.3)
            .message_corruption(0.1)
            .message_delay(0.1, Duration::from_millis(50))
            .build()
            .unwrap();
        let seq_a: Vec<_> = (0..2000).map(|s| p.message_fate(s)).collect();
        let seq_b: Vec<_> = (0..2000).map(|s| p.message_fate(s)).collect();
        assert_eq!(seq_a, seq_b);
        let drops = seq_a.iter().filter(|f| **f == MessageFate::Drop).count();
        let frac = drops as f64 / 2000.0;
        assert!((frac - 0.3).abs() < 0.05, "drop fraction {frac}");
        assert!(seq_a.contains(&MessageFate::Corrupt));
        assert!(seq_a.contains(&MessageFate::Delay(Duration::from_millis(50))));
    }

    #[test]
    fn injector_counts_and_blackouts() {
        let p = FaultPlan::builder(3)
            .message_loss(0.5)
            .link_blackout(secs(100), secs(200))
            .build()
            .unwrap();
        let mut inj = FaultInjector::new(p);
        // Inside the blackout everything drops, without consuming salts.
        for _ in 0..10 {
            assert_eq!(inj.next_fate(secs(150)), MessageFate::Drop);
        }
        assert_eq!(inj.dropped, 10);
        let mut delivered = 0;
        for _ in 0..100 {
            if inj.next_fate(secs(300)) == MessageFate::Deliver {
                delivered += 1;
            }
        }
        assert_eq!(delivered + (inj.dropped - 10) as usize, 100);
        assert!(delivered > 20 && delivered < 80);
    }

    #[test]
    fn bipartition_severs_only_cross_side_links() {
        let p = FaultPlan::builder(1)
            .cell_partition(&[0, 1], secs(100), secs(200))
            .build()
            .unwrap();
        assert!(p.has_cell_faults());
        // Before / after the window everything flows.
        assert!(p.cell_link_up(0, 3, secs(99)));
        assert!(p.cell_link_up(0, 3, secs(200)));
        // Inside: cross-side severed both ways, same-side untouched.
        assert!(!p.cell_link_up(0, 3, secs(150)));
        assert!(!p.cell_link_up(3, 0, secs(150)));
        assert!(p.cell_link_up(0, 1, secs(150)));
        assert!(p.cell_link_up(2, 3, secs(150)));
        // Intra-cell never partitioned.
        assert!(p.cell_link_up(0, 0, secs(150)));
    }

    #[test]
    fn one_way_cut_is_directional() {
        let p = FaultPlan::builder(1)
            .one_way_link_cut(2, 5, secs(10), secs(20))
            .build()
            .unwrap();
        assert!(!p.cell_link_up(2, 5, secs(15)));
        assert!(p.cell_link_up(5, 2, secs(15)));
        assert!(p.cell_link_up(2, 5, secs(20)));
        assert!(FaultPlan::builder(1)
            .one_way_link_cut(3, 3, secs(10), secs(20))
            .build()
            .is_err());
        assert!(FaultPlan::builder(1)
            .cell_partition(&[], secs(10), secs(20))
            .build()
            .is_err());
    }

    #[test]
    fn cell_crash_windows_and_recovery() {
        let p = FaultPlan::builder(1)
            .cell_crash(1, secs(100), secs(300))
            .cell_crash(1, secs(250), secs(400))
            .build()
            .unwrap();
        assert!(!p.is_cell_down(1, secs(99)));
        assert!(p.is_cell_down(1, secs(100)));
        assert!(!p.is_cell_down(0, secs(150)));
        assert!(p.is_cell_down(1, secs(399)));
        assert!(!p.is_cell_down(1, secs(400)));
    }

    #[test]
    fn random_crashes_are_seed_reproducible() {
        let mk = |seed| {
            FaultPlan::builder(seed)
                .random_node_crashes(100, 0.2, secs(1000), Duration::from_secs(60))
                .build()
                .unwrap()
        };
        assert_eq!(mk(5), mk(5));
        assert_ne!(mk(5), mk(6));
        let crashed = mk(5).crashing_nodes().count();
        assert!((5..=40).contains(&crashed), "{crashed} nodes crashed");
    }
}
