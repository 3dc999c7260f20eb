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

/// Cost model for the planning pipeline stages.
#[derive(Debug, Clone, Copy)]
pub struct ComposeCosts {
    /// Time to decompose a task into a plan.
    pub plan_time: Duration,
    /// Time for the initial discovery sweep over the plan's roles.
    pub discovery_sweep: Duration,
    /// Time to validate a cached binding (cheaper than a fresh sweep).
    pub revalidate_time: Duration,
    /// Periodic cost of keeping one cached entry fresh, per refresh.
    pub refresh_cost: Duration,
}

impl Default for ComposeCosts {
    fn default() -> Self {
        ComposeCosts {
            plan_time: Duration::from_millis(120),
            discovery_sweep: Duration::from_millis(250),
            revalidate_time: Duration::from_millis(30),
            refresh_cost: Duration::from_millis(250),
        }
    }
}

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
    /// an existing entry refreshes its stamp.
    ///
    /// [`request`]: PlanCache::request
    pub fn warm(&mut self, task: &str, now: SimTime) -> Result<(), DecomposeError> {
        let plan = self.lib.decompose(task)?;
        self.entries.insert(task.to_string(), (plan, now));
        self.prewarms += 1;
        Ok(())
    }

    /// Serve a composition request at time `now`: returns the plan, how it
    /// was served, and the setup latency incurred before execution can
    /// begin (planning + discovery on a miss; revalidation on a hit).
    pub fn request(
        &mut self,
        task: &str,
        now: SimTime,
        costs: &ComposeCosts,
    ) -> Result<(Plan, CacheResult, Duration), DecomposeError> {
        if let Some((plan, stamp)) = self.entries.get(task) {
            if now.since(*stamp) <= self.ttl {
                self.hits += 1;
                return Ok((plan.clone(), CacheResult::Hit, costs.revalidate_time));
            }
        }
        self.misses += 1;
        let plan = self.lib.decompose(task)?;
        self.entries.insert(task.to_string(), (plan.clone(), now));
        Ok((
            plan,
            CacheResult::Miss,
            costs.plan_time + costs.discovery_sweep,
        ))
    }
}

/// Analytic crossover model for T6: mean setup latency per request under
/// each policy, given a request period and cache TTL.
///
/// * Reactive: every request pays `plan_time + discovery_sweep`.
/// * Proactive: requests pay `revalidate_time`, plus the amortized refresh
///   the cache performs every TTL (`refresh_cost × period / ttl`).
pub fn mean_setup_latency(
    costs: &ComposeCosts,
    request_period: Duration,
    ttl: Duration,
    proactive: bool,
) -> Duration {
    if !proactive {
        return costs.plan_time + costs.discovery_sweep;
    }
    let refresh_share =
        costs.refresh_cost.as_secs_f64() * request_period.as_secs_f64() / ttl.as_secs_f64();
    costs.revalidate_time + Duration::from_secs_f64(refresh_share)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(ttl_s: u64) -> PlanCache {
        PlanCache::new(MethodLibrary::pervasive_grid(), Duration::from_secs(ttl_s))
    }

    #[test]
    fn first_request_misses_then_hits() {
        let mut c = cache(60);
        let costs = ComposeCosts::default();
        let (_, r1, l1) = c
            .request("temperature-distribution", SimTime::ZERO, &costs)
            .unwrap();
        assert_eq!(r1, CacheResult::Miss);
        assert_eq!(l1, costs.plan_time + costs.discovery_sweep);
        let (_, r2, l2) = c
            .request("temperature-distribution", SimTime::from_secs(5), &costs)
            .unwrap();
        assert_eq!(r2, CacheResult::Hit);
        assert_eq!(l2, costs.revalidate_time);
        assert!(l2 < l1);
        assert_eq!((c.hits, c.misses), (1, 1));
    }

    #[test]
    fn entries_expire_after_ttl() {
        let mut c = cache(10);
        let costs = ComposeCosts::default();
        c.request("stream-ensemble-analysis", SimTime::ZERO, &costs)
            .unwrap();
        let (_, r, _) = c
            .request("stream-ensemble-analysis", SimTime::from_secs(11), &costs)
            .unwrap();
        assert_eq!(r, CacheResult::Miss);
        assert_eq!(c.misses, 2);
    }

    #[test]
    fn prewarmed_entry_serves_first_request_as_hit() {
        let mut c = cache(60);
        let costs = ComposeCosts::default();
        c.warm("temperature-distribution", SimTime::ZERO).unwrap();
        let (_, r, l) = c
            .request("temperature-distribution", SimTime::from_secs(5), &costs)
            .unwrap();
        assert_eq!(r, CacheResult::Hit);
        assert_eq!(l, costs.revalidate_time);
        assert_eq!((c.hits, c.misses, c.prewarms), (1, 0, 1));
        // Past the TTL the warmth has faded: full reactive path again.
        let (_, r2, _) = c
            .request("temperature-distribution", SimTime::from_secs(120), &costs)
            .unwrap();
        assert_eq!(r2, CacheResult::Miss);
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
        assert!(c
            .request("bogus", SimTime::ZERO, &ComposeCosts::default())
            .is_err());
        assert_eq!((c.hits, c.prewarms), (0, 0));
    }

    #[test]
    fn crossover_favors_proactive_at_high_frequency() {
        let costs = ComposeCosts::default();
        let ttl = Duration::from_secs(30);
        // 1 request/second: proactive wins big.
        let fast_pro = mean_setup_latency(&costs, Duration::from_secs(1), ttl, true);
        let fast_re = mean_setup_latency(&costs, Duration::from_secs(1), ttl, false);
        assert!(fast_pro < fast_re);
        // 1 request/hour: refresh overhead swamps; reactive wins.
        let slow_pro = mean_setup_latency(&costs, Duration::from_secs(3_600), ttl, true);
        let slow_re = mean_setup_latency(&costs, Duration::from_secs(3_600), ttl, false);
        assert!(slow_pro > slow_re, "{slow_pro} !> {slow_re}");
    }

    #[test]
    fn reactive_latency_is_frequency_independent() {
        let costs = ComposeCosts::default();
        let ttl = Duration::from_secs(30);
        let a = mean_setup_latency(&costs, Duration::from_secs(1), ttl, false);
        let b = mean_setup_latency(&costs, Duration::from_secs(1_000), ttl, false);
        assert_eq!(a, b);
    }
}
