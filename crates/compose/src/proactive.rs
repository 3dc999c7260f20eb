//! Proactive vs. reactive composition.
//!
//! §3: "There may be different ways to carry out service composition of
//! requests depending on the frequency of requests. We might want to
//! pro-actively compute some generic information about services required to
//! execute a query which is requested with a high frequency. The other
//! approach is to re-actively integrate and execute services to derive the
//! result of a query."
//!
//! A [`PlanCache`] holds decomposed plans (and their candidate bindings)
//! with a TTL. A cache hit skips planning and the initial discovery sweep;
//! a miss — or an expired entry — pays the full reactive path and refills
//! the cache. Experiment T6 sweeps request frequency to find the crossover
//! where proactive maintenance beats reactive recomputation.

use crate::htn::{DecomposeError, MethodLibrary};
use crate::plan::Plan;
use pg_sim::{Duration, SimTime};
use std::collections::BTreeMap;

/// Setup latency of the reactive path: decomposing the task into a plan
/// (120 ms) plus the initial discovery sweep over its roles (250 ms).
pub const REACTIVE_SETUP: Duration = Duration::from_millis(120 + 250);
/// Setup latency of a cache hit: validating the cached binding, cheaper
/// than a fresh sweep.
const REVALIDATE_TIME: Duration = Duration::from_millis(30);
/// Periodic cost of keeping one cached entry fresh, per refresh.
pub const REFRESH_COST: Duration = Duration::from_millis(250);

/// How a request was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheResult {
    /// Fresh entry reused.
    Hit,
    /// No entry (or expired): full reactive path taken, cache refilled.
    Miss,
}

/// A TTL plan cache.
#[derive(Debug)]
pub struct PlanCache {
    lib: MethodLibrary,
    ttl: Duration,
    entries: BTreeMap<String, (Plan, SimTime)>,
    /// Hits served so far.
    pub hits: u64,
    /// Misses served so far.
    pub misses: u64,
    /// Entries pre-warmed ahead of demand (see [`PlanCache::warm`]).
    pub prewarms: u64,
}

impl PlanCache {
    /// A cache over `lib` whose entries stay fresh for `ttl`.
    pub fn new(lib: MethodLibrary, ttl: Duration) -> Self {
        PlanCache {
            lib,
            ttl,
            entries: BTreeMap::new(),
            hits: 0,
            misses: 0,
            prewarms: 0,
        }
    }

    /// Pre-warm the cache for `task` at time `now`, ahead of any demand —
    /// the proactive half of §3 driven from outside (e.g. a mobility
    /// predictor warming the cell a roaming user is expected to enter
    /// next). The decomposition work happens off the request path, so it
    /// counts as neither a hit nor a miss; the next [`request`] within the
    /// TTL is a [`CacheResult::Hit`] paying only revalidation. Re-warming
    /// an existing entry refreshes its stamp and nothing else: `decompose`
    /// is a pure function of the library, which never changes, so the
    /// cached plan is the one it would return again.
    ///
    /// [`request`]: PlanCache::request
    pub fn warm(&mut self, task: &str, now: SimTime) -> Result<(), DecomposeError> {
        match self.entries.get_mut(task) {
            Some((_, stamp)) => *stamp = now,
            None => {
                let plan = self.lib.decompose(task)?;
                self.entries.insert(task.to_string(), (plan, now));
            }
        }
        self.prewarms += 1;
        Ok(())
    }

    /// Serve a composition request at time `now`: returns the plan, how it
    /// was served, and the setup latency incurred before execution can
    /// begin ([`REACTIVE_SETUP`] on a miss; revalidation on a hit). An
    /// entry is fresh up to and including its TTL; a zero-TTL cache never
    /// hits.
    pub fn request(
        &mut self,
        task: &str,
        now: SimTime,
    ) -> Result<(Plan, CacheResult, Duration), DecomposeError> {
        if let Some((plan, stamp)) = self.entries.get(task) {
            if self.ttl > Duration::ZERO && now.since(*stamp) <= self.ttl {
                self.hits += 1;
                return Ok((plan.clone(), CacheResult::Hit, REVALIDATE_TIME));
            }
        }
        self.misses += 1;
        let plan = self.lib.decompose(task)?;
        self.entries.insert(task.to_string(), (plan.clone(), now));
        Ok((plan, CacheResult::Miss, REACTIVE_SETUP))
    }
}

/// Analytic crossover model for T6: mean setup latency per request under
/// each policy, given a request period and cache TTL.
///
/// * Reactive: every request pays [`REACTIVE_SETUP`].
/// * Proactive: requests pay the 30 ms revalidation, plus the amortized
///   refresh the cache performs every TTL (`REFRESH_COST × period / ttl`).
pub fn mean_setup_latency(request_period: Duration, ttl: Duration, proactive: bool) -> Duration {
    if !proactive {
        return REACTIVE_SETUP;
    }
    let refresh_share =
        REFRESH_COST.as_secs_f64() * request_period.as_secs_f64() / ttl.as_secs_f64();
    REVALIDATE_TIME + Duration::from_secs_f64(refresh_share)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TASK: &str = "temperature-distribution";

    fn cache(ttl_s: u64) -> PlanCache {
        PlanCache::new(MethodLibrary::pervasive_grid(), Duration::from_secs(ttl_s))
    }

    #[test]
    fn first_request_misses_then_hits() {
        let mut c = cache(60);
        let (_, r1, l1) = c.request(TASK, SimTime::ZERO).unwrap();
        assert_eq!(r1, CacheResult::Miss);
        assert_eq!(l1, REACTIVE_SETUP);
        let (_, r2, l2) = c.request(TASK, SimTime::from_secs(5)).unwrap();
        assert_eq!(r2, CacheResult::Hit);
        assert_eq!(l2, REVALIDATE_TIME);
        assert!(l2 < l1);
        assert_eq!((c.hits, c.misses), (1, 1));
    }

    #[test]
    fn entries_expire_after_ttl() {
        let mut c = cache(10);
        c.request("stream-ensemble-analysis", SimTime::ZERO)
            .unwrap();
        // Fresh up to and including the TTL…
        let (_, r, _) = c
            .request("stream-ensemble-analysis", SimTime::from_secs(10))
            .unwrap();
        assert_eq!(r, CacheResult::Hit);
        // …and stale past it.
        let (_, r, _) = c
            .request("stream-ensemble-analysis", SimTime::from_secs(11))
            .unwrap();
        assert_eq!(r, CacheResult::Miss);
        assert_eq!(c.misses, 2);
    }

    /// Regression: an entry used to be fresh while its age was `<= ttl`,
    /// so a zero-TTL cache — the federation's purely reactive cells —
    /// served a second request at the same instant as a hit.
    #[test]
    fn a_zero_ttl_never_hits() {
        let mut c = cache(0);
        c.request(TASK, SimTime::ZERO).unwrap();
        let (_, r, l) = c.request(TASK, SimTime::ZERO).unwrap();
        assert_eq!((r, l), (CacheResult::Miss, REACTIVE_SETUP));
        c.warm(TASK, SimTime::from_secs(5)).unwrap();
        let (_, r, _) = c.request(TASK, SimTime::from_secs(5)).unwrap();
        assert_eq!(r, CacheResult::Miss);
        assert_eq!((c.hits, c.misses), (0, 3));
    }

    #[test]
    fn prewarmed_entry_serves_first_request_as_hit() {
        let mut c = cache(60);
        c.warm(TASK, SimTime::ZERO).unwrap();
        let (_, r, l) = c.request(TASK, SimTime::from_secs(5)).unwrap();
        assert_eq!(r, CacheResult::Hit);
        assert_eq!(l, REVALIDATE_TIME);
        assert_eq!((c.hits, c.misses, c.prewarms), (1, 0, 1));
        // Past the TTL the warmth has faded: full reactive path again.
        let (_, r2, _) = c.request(TASK, SimTime::from_secs(120)).unwrap();
        assert_eq!(r2, CacheResult::Miss);
    }

    /// Re-warming re-stamps the cached entry instead of decomposing again;
    /// what a request then serves is still exactly `decompose`'s plan.
    #[test]
    fn rewarming_restamps_and_serves_the_decomposed_plan() {
        let mut c = cache(60);
        c.warm(TASK, SimTime::ZERO).unwrap();
        c.warm(TASK, SimTime::from_secs(50)).unwrap();
        // Fresh from the second stamp, stale from the first.
        let (plan, r, _) = c.request(TASK, SimTime::from_secs(100)).unwrap();
        assert_eq!(r, CacheResult::Hit);
        let want = MethodLibrary::pervasive_grid().decompose(TASK).unwrap();
        assert_eq!(format!("{plan:?}"), format!("{want:?}"));
        assert_eq!((c.hits, c.misses, c.prewarms), (1, 0, 2));
    }

    #[test]
    fn warming_unknown_task_errors_and_stays_cold() {
        let mut c = cache(60);
        assert!(c.warm("bogus", SimTime::ZERO).is_err());
        assert_eq!(c.prewarms, 0);
    }

    #[test]
    fn unknown_tasks_propagate_errors() {
        let mut c = cache(60);
        assert!(c.request("bogus", SimTime::ZERO).is_err());
        assert_eq!((c.hits, c.prewarms), (0, 0));
    }

    #[test]
    fn crossover_favors_proactive_at_high_frequency() {
        let ttl = Duration::from_secs(30);
        // 1 request/second: proactive wins big.
        let fast_pro = mean_setup_latency(Duration::from_secs(1), ttl, true);
        let fast_re = mean_setup_latency(Duration::from_secs(1), ttl, false);
        assert!(fast_pro < fast_re);
        // 1 request/hour: refresh overhead swamps; reactive wins.
        let slow_pro = mean_setup_latency(Duration::from_secs(3_600), ttl, true);
        let slow_re = mean_setup_latency(Duration::from_secs(3_600), ttl, false);
        assert!(slow_pro > slow_re, "{slow_pro} !> {slow_re}");
    }

    #[test]
    fn reactive_latency_is_frequency_independent() {
        let ttl = Duration::from_secs(30);
        let a = mean_setup_latency(Duration::from_secs(1), ttl, false);
        let b = mean_setup_latency(Duration::from_secs(1_000), ttl, false);
        assert_eq!(a, b);
        assert_eq!(a, REACTIVE_SETUP);
    }
}
