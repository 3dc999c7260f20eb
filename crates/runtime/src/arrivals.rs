//! Open-loop arrival processes for the streaming runtime.
//!
//! The paper's scenario (§2, Figure 1) is an open world: handheld users
//! walk up to the base station *continuously*, not as a batch handed over
//! at t=0. An [`ArrivalProcess`] is the source of that offered load — the
//! event-driven loop (`MultiQueryRuntime::step`) pulls timestamped
//! [`Arrival`]s from it and interleaves them with epoch scheduling, so the
//! runtime is measured under the open-loop response-time regime §4 asks
//! for (offered load does not slow down because the server is busy).
//!
//! Three implementations ship:
//!
//! * [`PoissonArrivals`] — deterministic seeded Poisson offered load:
//!   exponential inter-arrival gaps at rate λ, rotating through a fixed
//!   query mix. The same seed always produces the same arrival stream,
//!   independent of what the scheduler does with it.
//! * [`MetroWorkload`] — a metro-scale population model: 10^5+ simulated
//!   users on a diurnal rate curve with Markov-modulated flash crowds,
//!   heavy-tailed (Pareto) session lengths, per-device-class query mixes,
//!   and client-side exponential backoff honoring the runtime's
//!   [`Overloaded`](crate::RejectReason::Overloaded) backpressure hints.
//! * [`TraceArrivals`] — replay of an explicit timestamped trace, for
//!   regression pinning and for driving the runtime from recorded
//!   workloads.

use crate::admission::QueryOpts;
use crate::handle::QueryHandle;
use pg_sim::rng::{mix, RngStreams};
use pg_sim::{Duration, Scheduler, SimTime};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::VecDeque;

/// One query arriving at the base station.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Absolute arrival instant.
    pub at: SimTime,
    /// The query text.
    pub text: String,
    /// Submission options (deadline, priority).
    pub opts: QueryOpts,
}

/// A source of timestamped query arrivals, consumed in time order.
///
/// Implementations must be deterministic for a given construction (seed or
/// trace): `peek` must not advance the stream, and repeated `peek`s return
/// the same instant until `next` consumes it. Arrival times must be
/// non-decreasing.
pub trait ArrivalProcess {
    /// The instant of the next arrival, if any remain.
    fn peek(&mut self) -> Option<SimTime>;

    /// Consume and return the next arrival.
    fn next_arrival(&mut self) -> Option<Arrival>;

    /// True when the stream is exhausted.
    fn is_exhausted(&mut self) -> bool {
        self.peek().is_none()
    }

    /// Backpressure feedback: the runtime rejected the *most recently
    /// consumed* arrival as
    /// [`Overloaded`](crate::RejectReason::Overloaded), suggesting the
    /// client retry no sooner than `retry_after` past `now`. Processes
    /// modelling well-behaved clients (see [`MetroWorkload`]) re-enqueue
    /// the arrival with exponential backoff; the default drops it — an
    /// open-loop source that never retries.
    fn on_overload(&mut self, arrival: Arrival, retry_after: Duration, now: SimTime) {
        let _ = (arrival, retry_after, now);
    }

    /// The runtime admitted the *most recently consumed* arrival under
    /// `handle` — how a layer feeding the runtime learns the handle of a
    /// streamed query, e.g. to migrate it later. The default ignores it.
    fn on_admitted(&mut self, handle: QueryHandle) {
        let _ = handle;
    }
}

/// Deterministic seeded Poisson offered load.
///
/// Inter-arrival gaps are exponentially distributed with mean `1/λ`, drawn
/// from a labelled RNG stream forked off the seed (so two processes with
/// different seeds are independent, and the same seed replays exactly).
/// Query text and options rotate through the provided mix in order.
/// Generation stops at the horizon: the last arrival is the final one
/// strictly before `horizon`.
#[derive(Debug)]
pub struct PoissonArrivals {
    rng: StdRng,
    rate_hz: f64,
    horizon: SimTime,
    mix: Vec<(String, QueryOpts)>,
    next_at: Option<SimTime>,
    cursor: usize,
    emitted: u64,
}

impl PoissonArrivals {
    /// An open-loop Poisson stream at `rate_hz` arrivals per second until
    /// `horizon`, rotating through `mix`.
    ///
    /// # Panics
    /// Panics when the rate is not finite and positive, or the mix is
    /// empty — both are configuration errors, not runtime conditions.
    pub fn new(seed: u64, rate_hz: f64, horizon: SimTime, mix: Vec<(String, QueryOpts)>) -> Self {
        assert!(
            rate_hz.is_finite() && rate_hz > 0.0,
            "arrival rate must be positive: {rate_hz}"
        );
        assert!(!mix.is_empty(), "arrival mix must not be empty");
        let mut p = PoissonArrivals {
            rng: RngStreams::new(seed).fork("arrivals"),
            rate_hz,
            horizon,
            mix,
            next_at: None,
            cursor: 0,
            emitted: 0,
        };
        p.next_at = p.draw_from(SimTime::ZERO);
        p
    }

    /// Arrivals emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    fn draw_from(&mut self, prev: SimTime) -> Option<SimTime> {
        // Exponential gap: -ln(1-u)/λ with u in [0,1), so the argument of
        // ln stays in (0,1] and the gap is finite and non-negative.
        let u: f64 = self.rng.gen();
        let gap_s = -(1.0 - u).ln() / self.rate_hz;
        let at = prev + Duration::from_secs_f64(gap_s);
        (at < self.horizon).then_some(at)
    }
}

impl ArrivalProcess for PoissonArrivals {
    fn peek(&mut self) -> Option<SimTime> {
        self.next_at
    }

    fn next_arrival(&mut self) -> Option<Arrival> {
        let at = self.next_at?;
        let (text, opts) = self.mix[self.cursor % self.mix.len()].clone();
        self.cursor += 1;
        self.emitted += 1;
        self.next_at = self.draw_from(at);
        Some(Arrival { at, text, opts })
    }
}

/// One device population stratum of a [`MetroWorkload`]: a class of
/// handheld (or wall-panel, or feed) devices sharing a query mix.
///
/// Each simulated user is deterministically bound to one class (a hash of
/// the user id against the class weights), so a user's sessions always
/// speak the same dialect; within a session the class mix rotates in
/// order.
#[derive(Debug, Clone)]
pub struct DeviceClass {
    /// Class label (report keys, debugging).
    pub name: String,
    /// Relative share of the user population in this class.
    pub weight: f64,
    /// The queries this class issues, rotated in order within a session.
    pub mix: Vec<(String, QueryOpts)>,
}

/// Knobs of the [`MetroWorkload`] population model. All fields are public
/// so experiments can build one with struct-update syntax from
/// [`MetroConfig::default`].
#[derive(Debug, Clone)]
pub struct MetroConfig {
    /// Simulated user population size (user ids are drawn from this
    /// range; each user keeps a stable device class).
    pub users: u64,
    /// Mean sessions each user starts per diurnal period.
    pub sessions_per_user_day: f64,
    /// Diurnal period: the rate curve completes one trough-peak-trough
    /// cycle over this long. Shrinking it compresses a "day" into a short
    /// simulation horizon.
    pub day: Duration,
    /// No arrivals are generated at or past this instant.
    pub horizon: SimTime,
    /// Night-time rate as a fraction of the mid-day peak, in (0, 1].
    pub diurnal_floor: f64,
    /// Session-rate multiplier while a flash crowd is active (≥ 1).
    pub flash_rate_mult: f64,
    /// Mean calm time between flash crowds (exponential).
    pub flash_every: Duration,
    /// Mean flash-crowd duration (exponential).
    pub flash_len: Duration,
    /// Pareto tail index of the per-session query count (> 1 keeps the
    /// mean finite; smaller is heavier-tailed).
    pub pareto_alpha: f64,
    /// Pareto scale: the minimum queries per session (≥ 1).
    pub queries_min: f64,
    /// Hard cap on queries per session, so a heavy-tail draw cannot
    /// degenerate into one unbounded session.
    pub queries_cap: u64,
    /// Mean think time between a session's consecutive queries.
    pub think_mean: Duration,
    /// Backoff attempts before a rejected query's client gives up.
    pub retry_max: u32,
    /// The device-class strata (must be non-empty, weights positive).
    pub classes: Vec<DeviceClass>,
}

impl Default for MetroConfig {
    fn default() -> Self {
        MetroConfig {
            users: 100_000,
            sessions_per_user_day: 2.0,
            day: Duration::from_secs(86_400),
            horizon: SimTime::from_secs(86_400),
            diurnal_floor: 0.2,
            flash_rate_mult: 8.0,
            flash_every: Duration::from_secs(4 * 3600),
            flash_len: Duration::from_secs(600),
            pareto_alpha: 1.5,
            queries_min: 1.0,
            queries_cap: 200,
            think_mean: Duration::from_secs(15),
            retry_max: 5,
            classes: vec![DeviceClass {
                name: "handheld".to_string(),
                weight: 1.0,
                mix: vec![(
                    "SELECT AVG(temp) FROM sensors".to_string(),
                    QueryOpts::default(),
                )],
            }],
        }
    }
}

impl MetroConfig {
    /// Mean session-arrival rate over one diurnal cycle ignoring the
    /// curve and flash crowds: `users * sessions_per_user_day / day`.
    pub fn base_session_rate_hz(&self) -> f64 {
        self.users as f64 * self.sessions_per_user_day / self.day.as_secs_f64()
    }
}

/// Metro-scale offered load: a population of simulated users issuing
/// query *sessions* against the grid.
///
/// The generative model, every stage seeded and replayable:
///
/// * **Sessions** arrive as a non-homogeneous Poisson process, realized
///   by thinning against the envelope rate `base × flash_rate_mult`. The
///   instantaneous rate is `base_session_rate_hz × diurnal(t) ×
///   burst(t)`: a raised-cosine diurnal curve (trough at t = 0 and t =
///   `day`, peak mid-period, floor `diurnal_floor`) modulated by a
///   two-state Markov process whose flash state multiplies the rate by
///   `flash_rate_mult` — the fire-alarm moment when everyone's handheld
///   queries at once.
/// * **Each session** belongs to one user (uniform over `users`), whose
///   [`DeviceClass`] is a stable hash of the user id; the session issues
///   a Pareto(`pareto_alpha`, `queries_min`)-distributed number of
///   queries separated by exponential think times, rotating through the
///   class mix.
/// * **Backpressure**: when the runtime answers a submission with
///   [`Overloaded`](crate::RejectReason::Overloaded), the event loop
///   hands the arrival back through [`ArrivalProcess::on_overload`]; the
///   client retries with exponential backoff (`retry_after × 2^attempt`,
///   deterministically jittered) up to `retry_max` attempts, then gives
///   up — counted, never silent.
///
/// The offered stream (without backoff retries) can be captured once and
/// replayed through [`TraceArrivals`].
#[derive(Debug)]
pub struct MetroWorkload {
    cfg: MetroConfig,
    /// Candidate gaps + thinning acceptance.
    arrival_rng: StdRng,
    /// Session shape: user id, query count, think gaps.
    shape_rng: StdRng,
    /// Flash-crowd interval process.
    flash_rng: StdRng,
    /// Backoff jitter.
    backoff_rng: StdRng,
    /// Salt binding user ids to device classes.
    class_salt: u64,
    /// Envelope rate the thinning rejects against, Hz.
    envelope_hz: f64,
    total_weight: f64,
    /// Next un-thinned candidate session start.
    next_candidate: Option<SimTime>,
    /// Generated-but-unconsumed query events (sessions + retries): the
    /// attempt count, text and options of each, in `(time, insertion)`
    /// order.
    events: Scheduler<(u32, String, QueryOpts)>,
    /// Flash intervals generated so far reach up to this instant.
    flash_frontier: SimTime,
    /// Active/pending flash intervals (start, end), time-ordered.
    flash_windows: VecDeque<(SimTime, SimTime)>,
    /// Attempt count of the most recently consumed arrival.
    last_attempt: u32,
    emitted: u64,
    sessions: u64,
    retries: u64,
    gave_up: u64,
}

impl MetroWorkload {
    /// A seeded metro workload. Same seed + same config ⇒ bit-identical
    /// offered stream, independent of what the consumer does with it
    /// (backoff retries are the one exception: they exist only when the
    /// runtime pushes back).
    ///
    /// # Panics
    /// Panics on non-generative configs: no users, no classes, zero
    /// session rate, a flash multiplier below 1, a Pareto index ≤ 1, or a
    /// diurnal floor outside (0, 1] — configuration errors, not runtime
    /// conditions.
    pub fn new(seed: u64, cfg: MetroConfig) -> Self {
        assert!(cfg.users > 0, "metro workload needs users");
        assert!(
            !cfg.classes.is_empty(),
            "metro workload needs device classes"
        );
        assert!(
            cfg.classes
                .iter()
                .all(|c| c.weight > 0.0 && !c.mix.is_empty()),
            "every device class needs a positive weight and a non-empty mix"
        );
        assert!(
            cfg.base_session_rate_hz() > 0.0,
            "session rate must be positive"
        );
        assert!(cfg.flash_rate_mult >= 1.0, "flash multiplier must be >= 1");
        assert!(cfg.pareto_alpha > 1.0, "pareto index must be > 1");
        assert!(cfg.queries_min >= 1.0, "sessions have at least one query");
        assert!(
            cfg.diurnal_floor > 0.0 && cfg.diurnal_floor <= 1.0,
            "diurnal floor must be in (0, 1]"
        );
        let streams = RngStreams::new(seed);
        let envelope_hz = cfg.base_session_rate_hz() * cfg.flash_rate_mult;
        let total_weight = cfg.classes.iter().map(|c| c.weight).sum();
        let mut w = MetroWorkload {
            cfg,
            arrival_rng: streams.fork("metro-arrivals"),
            shape_rng: streams.fork("metro-shape"),
            flash_rng: streams.fork("metro-flash"),
            backoff_rng: streams.fork("metro-backoff"),
            class_salt: mix(seed, 0x6d65_7472_6f00_0001),
            envelope_hz,
            total_weight,
            next_candidate: None,
            events: Scheduler::new(),
            flash_frontier: SimTime::ZERO,
            flash_windows: VecDeque::new(),
            last_attempt: 0,
            emitted: 0,
            sessions: 0,
            retries: 0,
            gave_up: 0,
        };
        w.next_candidate = w.draw_candidate(SimTime::ZERO);
        w
    }

    /// Arrivals emitted so far (retries included).
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Backoff retries scheduled so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Clients that exhausted their backoff budget (or whose retry would
    /// land past the horizon) and abandoned the query.
    pub fn gave_up(&self) -> u64 {
        self.gave_up
    }

    fn exp_gap(rng: &mut StdRng, mean_s: f64) -> f64 {
        let u: f64 = rng.gen();
        -(1.0 - u).ln() * mean_s
    }

    fn draw_candidate(&mut self, prev: SimTime) -> Option<SimTime> {
        let gap_s = Self::exp_gap(&mut self.arrival_rng, 1.0 / self.envelope_hz);
        let at = prev + Duration::from_secs_f64(gap_s);
        (at < self.cfg.horizon).then_some(at)
    }

    /// Raised-cosine diurnal factor in [`diurnal_floor`, 1].
    fn diurnal(&self, t: SimTime) -> f64 {
        let phase = std::f64::consts::TAU * t.as_secs_f64() / self.cfg.day.as_secs_f64();
        let shape = 0.5 * (1.0 - phase.cos());
        self.cfg.diurnal_floor + (1.0 - self.cfg.diurnal_floor) * shape
    }

    /// Flash-crowd multiplier at `t`: `flash_rate_mult` inside a flash
    /// window, 1 outside. `t` calls must be non-decreasing (candidates
    /// are generated in time order), so windows are generated lazily and
    /// discarded once past.
    fn burst_mult_at(&mut self, t: SimTime) -> f64 {
        while self.flash_frontier <= t {
            let calm_s = Self::exp_gap(&mut self.flash_rng, self.cfg.flash_every.as_secs_f64());
            let flash_s = Self::exp_gap(&mut self.flash_rng, self.cfg.flash_len.as_secs_f64());
            let start = self.flash_frontier + Duration::from_secs_f64(calm_s);
            let end = start + Duration::from_secs_f64(flash_s);
            self.flash_windows.push_back((start, end));
            self.flash_frontier = end;
        }
        while let Some(&(_, end)) = self.flash_windows.front() {
            if end <= t {
                self.flash_windows.pop_front();
            } else {
                break;
            }
        }
        match self.flash_windows.front() {
            Some(&(start, _)) if start <= t => self.cfg.flash_rate_mult,
            _ => 1.0,
        }
    }

    /// The device class a user is bound to, by stable hash.
    fn class_of(&self, user: u64) -> &DeviceClass {
        let r = (mix(self.class_salt, user) >> 11) as f64 / (1u64 << 53) as f64;
        let mut mark = r * self.total_weight;
        for c in &self.cfg.classes {
            mark -= c.weight;
            if mark < 0.0 {
                return c;
            }
        }
        // Rounding can leave `mark` at exactly 0 after the last class.
        &self.cfg.classes[self.cfg.classes.len() - 1]
    }

    /// Materialize one session starting at `start` into pending events.
    fn start_session(&mut self, start: SimTime) {
        self.sessions += 1;
        let user = self.shape_rng.gen_range(0..self.cfg.users);
        // Pareto(alpha, xm): xm / u^(1/alpha) with u in (0, 1].
        let u: f64 = 1.0 - self.shape_rng.gen::<f64>();
        let raw = self.cfg.queries_min / u.powf(1.0 / self.cfg.pareto_alpha);
        let n_q = (raw.ceil() as u64).clamp(1, self.cfg.queries_cap);
        let think_mean_s = self.cfg.think_mean.as_secs_f64();
        let mut at = start;
        for i in 0..n_q {
            if i > 0 {
                let gap_s = Self::exp_gap(&mut self.shape_rng, think_mean_s);
                at += Duration::from_secs_f64(gap_s);
            }
            if at >= self.cfg.horizon {
                break;
            }
            let class = self.class_of(user);
            let (text, opts) = class.mix[(i as usize) % class.mix.len()].clone();
            self.events.schedule_at(at, (0, text, opts));
        }
    }

    /// Generate sessions until the earliest pending event (if any) is
    /// guaranteed to precede every not-yet-generated one. A session's
    /// queries never precede its start, so the earliest event is final once
    /// the next candidate start lies at or beyond it.
    fn pump(&mut self) {
        while let Some(cand) = self.next_candidate {
            if self.events.peek_time().is_some_and(|top| top <= cand) {
                break;
            }
            self.next_candidate = self.draw_candidate(cand);
            let accept_p = self.diurnal(cand) * self.burst_mult_at(cand) / self.cfg.flash_rate_mult;
            let u: f64 = self.arrival_rng.gen();
            if u < accept_p {
                self.start_session(cand);
            }
        }
    }
}

impl ArrivalProcess for MetroWorkload {
    fn peek(&mut self) -> Option<SimTime> {
        self.pump();
        self.events.peek_time()
    }

    fn next_arrival(&mut self) -> Option<Arrival> {
        self.pump();
        let (at, (attempt, text, opts)) = self.events.pop()?;
        self.last_attempt = attempt;
        self.emitted += 1;
        Some(Arrival { at, text, opts })
    }

    /// Exponential backoff: re-enqueue at `now + retry_after × 2^attempt`
    /// with deterministic multiplicative jitter; give up past `retry_max`
    /// attempts or the horizon.
    fn on_overload(&mut self, arrival: Arrival, retry_after: Duration, now: SimTime) {
        let attempt = self.last_attempt;
        if attempt >= self.cfg.retry_max {
            self.gave_up += 1;
            return;
        }
        let jitter: f64 = 1.0 + 0.25 * self.backoff_rng.gen::<f64>();
        // Powers of two multiply exactly, and a delay past the end of time
        // saturates: that retry lands beyond the horizon and gives up.
        let delay_s = retry_after.as_secs_f64().max(1e-3) * 2f64.powi(attempt as i32) * jitter;
        let at = now + Duration::from_secs_f64(delay_s);
        if at >= self.cfg.horizon {
            self.gave_up += 1;
            return;
        }
        self.retries += 1;
        self.events
            .schedule_at(at, (attempt + 1, arrival.text, arrival.opts));
    }
}

/// Replay of an explicit timestamped trace, sorted by arrival instant
/// (stable, so equal-time arrivals keep their trace order).
#[derive(Debug)]
pub struct TraceArrivals {
    queue: VecDeque<Arrival>,
}

impl TraceArrivals {
    /// Build from any iterable of arrivals; sorts by time, stably.
    pub fn new(arrivals: impl IntoIterator<Item = Arrival>) -> Self {
        let mut v: Vec<Arrival> = arrivals.into_iter().collect();
        v.sort_by_key(|a| a.at);
        TraceArrivals { queue: v.into() }
    }

    /// A batch trace: every query arrives at t=0 with its options — the
    /// closed-loop v1 workload expressed as a stream.
    pub fn batch_at_zero(queries: impl IntoIterator<Item = (String, QueryOpts)>) -> Self {
        TraceArrivals::new(queries.into_iter().map(|(text, opts)| Arrival {
            at: SimTime::ZERO,
            text,
            opts,
        }))
    }
}

impl ArrivalProcess for TraceArrivals {
    fn peek(&mut self) -> Option<SimTime> {
        self.queue.front().map(|a| a.at)
    }

    fn next_arrival(&mut self) -> Option<Arrival> {
        self.queue.pop_front()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn mix() -> Vec<(String, QueryOpts)> {
        vec![
            ("a".to_string(), QueryOpts::default()),
            ("b".to_string(), QueryOpts::default().priority(2)),
        ]
    }

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let drain = |seed| {
            let mut p = PoissonArrivals::new(seed, 0.1, SimTime::from_secs(600), mix());
            let mut out = Vec::new();
            while let Some(a) = p.next_arrival() {
                out.push((a.at, a.text));
            }
            out
        };
        assert_eq!(drain(7), drain(7));
        assert_ne!(drain(7), drain(8));
    }

    #[test]
    fn poisson_times_are_nondecreasing_and_bounded() {
        let mut p = PoissonArrivals::new(3, 0.5, SimTime::from_secs(300), mix());
        let mut prev = SimTime::ZERO;
        let mut n = 0;
        while let Some(a) = p.next_arrival() {
            assert!(a.at >= prev, "arrivals must be in time order");
            assert!(a.at < SimTime::from_secs(300), "horizon must bound");
            prev = a.at;
            n += 1;
        }
        // 0.5 Hz over 300 s: ~150 expected; at least *some* must arrive.
        assert!(n > 50, "0.5 Hz x 300 s produced only {n} arrivals");
        assert_eq!(p.emitted(), n);
    }

    #[test]
    fn poisson_peek_does_not_consume() {
        let mut p = PoissonArrivals::new(1, 1.0, SimTime::from_secs(60), mix());
        let t = p.peek().unwrap();
        assert_eq!(p.peek(), Some(t));
        assert_eq!(p.next_arrival().unwrap().at, t);
    }

    #[test]
    fn poisson_rate_scales_the_count() {
        let count = |rate| {
            let mut p = PoissonArrivals::new(5, rate, SimTime::from_secs(1000), mix());
            let mut n = 0u64;
            while p.next_arrival().is_some() {
                n += 1;
            }
            n
        };
        let slow = count(0.05);
        let fast = count(0.5);
        assert!(
            fast > 5 * slow,
            "10x the rate must yield far more arrivals: {slow} vs {fast}"
        );
    }

    #[test]
    fn poisson_mix_rotates_in_order() {
        let mut p = PoissonArrivals::new(2, 1.0, SimTime::from_secs(30), mix());
        let a = p.next_arrival().unwrap();
        let b = p.next_arrival().unwrap();
        let c = p.next_arrival().unwrap();
        assert_eq!(a.text, "a");
        assert_eq!(b.text, "b");
        assert_eq!(b.opts.priority, 2);
        assert_eq!(c.text, "a");
    }

    #[test]
    #[should_panic(expected = "arrival rate must be positive")]
    fn zero_rate_panics() {
        let _ = PoissonArrivals::new(0, 0.0, SimTime::from_secs(1), mix());
    }

    /// A metro config small and hot enough to drain in a test: one
    /// compressed day, two device classes, frequent flash crowds.
    fn metro_cfg() -> MetroConfig {
        MetroConfig {
            users: 120_000,
            sessions_per_user_day: 0.5,
            day: Duration::from_secs(3600),
            horizon: SimTime::from_secs(3600),
            diurnal_floor: 0.1,
            flash_rate_mult: 6.0,
            flash_every: Duration::from_secs(900),
            flash_len: Duration::from_secs(60),
            classes: vec![
                DeviceClass {
                    name: "handheld".to_string(),
                    weight: 3.0,
                    mix: vec![
                        (
                            "SELECT AVG(temp) FROM sensors".to_string(),
                            QueryOpts::default(),
                        ),
                        (
                            "SELECT MAX(temp) FROM sensors".to_string(),
                            QueryOpts::default(),
                        ),
                    ],
                },
                DeviceClass {
                    name: "feed".to_string(),
                    weight: 1.0,
                    mix: vec![(
                        "SELECT AVG(co2) FROM sensors".to_string(),
                        QueryOpts::default().priority(2),
                    )],
                },
            ],
            ..MetroConfig::default()
        }
    }

    fn drain_metro(seed: u64) -> Vec<Arrival> {
        let mut w = MetroWorkload::new(seed, metro_cfg());
        let mut out = Vec::new();
        while let Some(a) = w.next_arrival() {
            out.push(a);
        }
        out
    }

    #[test]
    fn metro_is_deterministic_per_seed_and_time_ordered() {
        let a = drain_metro(11);
        let b = drain_metro(11);
        assert_eq!(a, b, "same seed must replay bit-identically");
        assert_ne!(a, drain_metro(12));
        assert!(!a.is_empty());
        for w in a.windows(2) {
            assert!(w[0].at <= w[1].at, "arrivals must be time-ordered");
        }
        assert!(a.iter().all(|x| x.at < SimTime::from_secs(3600)));
    }

    #[test]
    fn metro_diurnal_curve_shapes_the_rate() {
        // Floor 0.1 at the edges vs 1.0 mid-day: the middle third of the
        // day must carry far more than the first third.
        let a = drain_metro(21);
        let third = 1200.0;
        let first = a.iter().filter(|x| x.at.as_secs_f64() < third).count();
        let middle = a
            .iter()
            .filter(|x| (third..2.0 * third).contains(&x.at.as_secs_f64()))
            .count();
        assert!(
            middle > 2 * first,
            "diurnal peak must dominate the trough: {first} vs {middle}"
        );
    }

    #[test]
    fn metro_sessions_are_heavy_tailed_bursts() {
        let mut w = MetroWorkload::new(31, metro_cfg());
        let mut n = 0u64;
        while w.next_arrival().is_some() {
            n += 1;
        }
        assert_eq!(w.emitted(), n);
        // Pareto(1.5, 1) sessions average ~3 queries: strictly more
        // arrivals than sessions, by a clear margin.
        assert!(w.sessions > 0);
        assert!(
            n as f64 > 1.5 * w.sessions as f64,
            "sessions must fan out into multiple queries: {n} arrivals / {} sessions",
            w.sessions
        );
    }

    #[test]
    fn metro_classes_mix_by_stable_user_hash() {
        let a = drain_metro(41);
        let feed = a.iter().filter(|x| x.text.contains("co2")).count();
        let handheld = a.len() - feed;
        // 3:1 weights — both classes must appear, handhelds dominating.
        assert!(feed > 0, "the minority class must appear");
        assert!(handheld > feed, "weights must bias the population");
        // Priority survives the pipeline: every feed query carries it.
        assert!(a
            .iter()
            .filter(|x| x.text.contains("co2"))
            .all(|x| x.opts.priority == 2));
    }

    #[test]
    fn metro_backoff_retries_then_gives_up() {
        // A fully saturated runtime: every emitted arrival is rejected
        // with `retry_after` backpressure. Each offered query must be
        // retried (with growing delay) until its backoff budget runs out,
        // then abandoned — and every emission must be accounted for.
        let mut cfg = metro_cfg();
        cfg.retry_max = 2;
        let mut w = MetroWorkload::new(61, cfg);
        let retry_after = Duration::from_secs(30);
        let mut delivered = 0u64;
        while let Some(a) = w.next_arrival() {
            delivered += 1;
            let at = a.at;
            w.on_overload(a, retry_after, at);
        }
        assert_eq!(w.emitted(), delivered);
        assert!(w.retries() > 0, "rejections must schedule retries");
        // Every emission either became a scheduled retry or a give-up:
        // nothing vanishes silently.
        assert_eq!(w.retries() + w.gave_up(), delivered);
        // Each retry chain ends in exactly one give-up, so give-ups count
        // the original queries and retries the extra backoff traffic.
        assert_eq!(delivered, w.gave_up() + w.retries());
        assert!(w.gave_up() > 0);
    }

    #[test]
    fn default_on_overload_drops_the_arrival() {
        // PoissonArrivals does not model retrying clients: the hook is a
        // no-op and the stream is unchanged.
        let mut p = PoissonArrivals::new(9, 0.5, SimTime::from_secs(120), mix());
        let a = p.next_arrival().unwrap();
        let before = p.peek();
        p.on_overload(a, Duration::from_secs(10), SimTime::from_secs(5));
        assert_eq!(p.peek(), before);
    }

    #[test]
    #[should_panic(expected = "metro workload needs device classes")]
    fn metro_empty_classes_panic() {
        let cfg = MetroConfig {
            classes: Vec::new(),
            ..MetroConfig::default()
        };
        let _ = MetroWorkload::new(0, cfg);
    }

    #[test]
    fn trace_replays_sorted() {
        let mut t = TraceArrivals::new(vec![
            Arrival {
                at: SimTime::from_secs(20),
                text: "late".into(),
                opts: QueryOpts::default(),
            },
            Arrival {
                at: SimTime::from_secs(5),
                text: "early".into(),
                opts: QueryOpts::default(),
            },
        ]);
        assert_eq!(t.peek(), Some(SimTime::from_secs(5)));
        assert_eq!(t.next_arrival().unwrap().text, "early");
        assert_eq!(t.next_arrival().unwrap().text, "late");
        assert!(t.is_exhausted());
    }

    #[test]
    fn batch_at_zero_lands_everything_at_t0() {
        let mut t = TraceArrivals::batch_at_zero(vec![
            ("x".to_string(), QueryOpts::default()),
            ("y".to_string(), QueryOpts::default()),
        ]);
        let a = t.next_arrival().unwrap();
        let b = t.next_arrival().unwrap();
        assert_eq!(a.at, SimTime::ZERO);
        assert_eq!(b.at, SimTime::ZERO);
        // Stable: trace order preserved at equal times.
        assert_eq!(a.text, "x");
        assert_eq!(b.text, "y");
    }
}
