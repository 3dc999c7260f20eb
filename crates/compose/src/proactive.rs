//! Proactive vs. reactive composition.
//!
//! §3: "There may be different ways to carry out service composition of
//! requests depending on the frequency of requests. We might want to
//! pro-actively compute some generic information about services required to
//! execute a query which is requested with a high frequency. The other
//! approach is to re-actively integrate and execute services to derive the
//! result of a query."
//!
//! A [`PlanCache`] stamps plans with a TTL. A cache hit skips planning and
//! the initial discovery sweep; a miss — or an expired entry — pays the
//! full reactive path and re-stamps the entry. Experiment T6 sweeps
//! request frequency to find the crossover where proactive maintenance
//! beats reactive recomputation.
//!
//! The plans themselves are generic information in exactly §3's sense: a
//! [`PlanBook`] decomposes every task of a method library once, and the
//! caches that share it (one per federation cell) hold only their own
//! freshness stamps and hand out the book's plan (`Rc<Plan>`) on every hit
//! and miss alike.

use crate::htn::{DecomposeError, MethodLibrary};
use crate::plan::Plan;
use pg_sim::{Duration, SimTime};
use std::rc::Rc;

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

/// Every task of a method library, decomposed once: the immutable book
/// any number of [`PlanCache`]s draw their plans from. `decompose` is a
/// pure function of the library, so the book's plan for a task is the one
/// a fresh decomposition would return, and its error the same error.
#[derive(Debug)]
pub struct PlanBook {
    /// One entry per library task, sorted by task name (the library's
    /// order).
    plans: Vec<(String, Result<Rc<Plan>, DecomposeError>)>,
}

impl PlanBook {
    /// Decompose each of `lib`'s tasks.
    pub fn new(lib: &MethodLibrary) -> Self {
        PlanBook {
            plans: lib
                .tasks()
                .map(|t| (t.to_string(), lib.decompose(t).map(Rc::new)))
                .collect(),
        }
    }

    /// The library's tasks in name order, dealt round-robin: task `i`
    /// modulo their number.
    ///
    /// # Panics
    /// Panics on a book over an empty library.
    pub fn task(&self, i: usize) -> &str {
        &self.plans[i % self.plans.len()].0
    }

    /// `task`'s position in the book and its plan, or the error a fresh
    /// decomposition gives (`UnknownTask` for a task the library lacks).
    fn plan(&self, task: &str) -> Result<(usize, &Rc<Plan>), DecomposeError> {
        let i = self
            .plans
            .binary_search_by(|(t, _)| t.as_str().cmp(task))
            .map_err(|_| DecomposeError::UnknownTask(task.to_string()))?;
        let plan = self.plans[i].1.as_ref().map_err(DecomposeError::clone)?;
        Ok((i, plan))
    }
}

/// A TTL plan cache over a shared [`PlanBook`].
#[derive(Debug)]
pub struct PlanCache {
    book: Rc<PlanBook>,
    ttl: Duration,
    /// When each of the book's tasks was last planned or warmed here, by
    /// its position in the book; `None` until the first.
    stamps: Vec<Option<SimTime>>,
    /// Hits served so far.
    pub hits: u64,
    /// Misses served so far.
    pub misses: u64,
    /// Entries pre-warmed ahead of demand (see [`PlanCache::warm`]).
    pub prewarms: u64,
}

impl PlanCache {
    /// A cache over a book of `lib`'s own whose entries stay fresh for
    /// `ttl`.
    pub fn new(lib: MethodLibrary, ttl: Duration) -> Self {
        PlanCache::shared(Rc::new(PlanBook::new(&lib)), ttl)
    }

    /// A cache over `book`, shared with other caches, whose entries stay
    /// fresh for `ttl`.
    pub fn shared(book: Rc<PlanBook>, ttl: Duration) -> Self {
        PlanCache {
            stamps: vec![None; book.plans.len()],
            book,
            ttl,
            hits: 0,
            misses: 0,
            prewarms: 0,
        }
    }

    /// Pre-warm the cache for `task` at time `now`, ahead of any demand —
    /// the proactive half of §3 driven from outside (e.g. a mobility
    /// predictor warming the cell a roaming user is expected to enter
    /// next). The work happens off the request path, so it counts as
    /// neither a hit nor a miss; the next [`request`] within the TTL is a
    /// [`CacheResult::Hit`] paying only revalidation. Warming only stamps
    /// the entry: its plan is the book's.
    ///
    /// [`request`]: PlanCache::request
    pub fn warm(&mut self, task: &str, now: SimTime) -> Result<(), DecomposeError> {
        let (i, _) = self.book.plan(task)?;
        self.stamps[i] = Some(now);
        self.prewarms += 1;
        Ok(())
    }

    /// Serve a composition request at time `now`: returns the book's plan,
    /// how it was served, and the setup latency incurred before execution
    /// can begin ([`REACTIVE_SETUP`] on a miss; revalidation on a hit). An
    /// entry is fresh up to and including its TTL; a zero-TTL cache never
    /// hits. A task the book cannot plan counts as a miss and returns its
    /// error.
    pub fn request(
        &mut self,
        task: &str,
        now: SimTime,
    ) -> Result<(Rc<Plan>, CacheResult, Duration), DecomposeError> {
        let (i, plan) = match self.book.plan(task) {
            Ok(found) => found,
            Err(e) => {
                self.misses += 1;
                return Err(e);
            }
        };
        let stamp = &mut self.stamps[i];
        if stamp.is_some_and(|at| self.ttl > Duration::ZERO && now.since(at) <= self.ttl) {
            self.hits += 1;
            return Ok((Rc::clone(plan), CacheResult::Hit, REVALIDATE_TIME));
        }
        self.misses += 1;
        *stamp = Some(now);
        Ok((Rc::clone(plan), CacheResult::Miss, REACTIVE_SETUP))
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

    /// Two caches sharing one book serve, for every library task, on a
    /// miss and on a warm hit alike, exactly what a fresh `decompose`
    /// returns; an unknown task is still `UnknownTask` on either path.
    #[test]
    fn a_shared_book_serves_what_decompose_returns() {
        let lib = MethodLibrary::pervasive_grid();
        let book = Rc::new(PlanBook::new(&lib));
        let mut cold = PlanCache::shared(Rc::clone(&book), Duration::from_secs(60));
        let mut warm = PlanCache::shared(book, Duration::from_secs(60));
        for task in lib.tasks() {
            let want = format!("{:?}", lib.decompose(task).unwrap());
            let (plan, r, _) = cold.request(task, SimTime::ZERO).unwrap();
            assert_eq!((format!("{plan:?}"), r), (want.clone(), CacheResult::Miss));
            warm.warm(task, SimTime::ZERO).unwrap();
            let (plan, r, _) = warm.request(task, SimTime::from_secs(1)).unwrap();
            assert_eq!((format!("{plan:?}"), r), (want, CacheResult::Hit));
        }
        let unknown = DecomposeError::UnknownTask("bogus".into());
        assert_eq!(cold.request("bogus", SimTime::ZERO).unwrap_err(), unknown);
        assert_eq!(warm.warm("bogus", SimTime::ZERO).unwrap_err(), unknown);
    }

    /// A scripted warm / hit / expiry / miss sequence, with unknown tasks
    /// interleaved, leaves the counts a per-cache decomposition left.
    #[test]
    fn scripted_requests_keep_their_counts() {
        let mut c = cache(10);
        let other = "toxin-correlation";
        c.warm(TASK, SimTime::ZERO).unwrap();
        c.warm(other, SimTime::from_secs(2)).unwrap();
        let served = [
            (TASK, 5, CacheResult::Hit),
            (other, 12, CacheResult::Hit),
            (TASK, 11, CacheResult::Miss),
            (TASK, 21, CacheResult::Hit),
            (other, 13, CacheResult::Miss),
            ("stream-ensemble-analysis", 13, CacheResult::Miss),
        ];
        for (task, at, want) in served {
            let (_, r, _) = c.request(task, SimTime::from_secs(at)).unwrap();
            assert_eq!(r, want, "{task} at {at} s");
        }
        assert!(c.request("bogus", SimTime::from_secs(14)).is_err());
        assert!(c.warm("bogus", SimTime::from_secs(14)).is_err());
        c.warm(TASK, SimTime::from_secs(30)).unwrap();
        let (_, r, _) = c.request(TASK, SimTime::from_secs(40)).unwrap();
        assert_eq!(r, CacheResult::Hit);
        assert_eq!((c.hits, c.misses, c.prewarms), (4, 4, 3));
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
