//! The simulated-cost ledger of one workload run, and its digest.
//!
//! Everything here is *simulated* cost — what the handheld user waits for
//! and what the sensors spend — and repeats bit-for-bit for a given seed.
//! Host time lives in [`crate::run`]; the two are never mixed.

use pg_core::{PgError, QueryResponse};
use pg_partition::{CostVector, SolutionModel};
use pg_runtime::QueryOutcome;
use std::collections::BTreeMap;

/// FNV-1a, 64 bit: the ledger digest. Not a cryptographic hash — it only
/// has to change when any outcome bit changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
}

/// One answered query, kept (on traced runs only) so the layer probes can
/// replay the decision maker call for call.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Which learner saw it: the cell, or the incident (0 when only one).
    pub group: u32,
    pub text: String,
    /// Rode a shared collection epoch: the learner only `observe`d it.
    pub shared: bool,
    pub model: SolutionModel,
    pub cost: CostVector,
    pub delivered_frac: f64,
    pub retries: u64,
    pub deadline_exceeded: bool,
}

/// What one run of a workload produced, in simulated terms.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Every query the generator emitted.
    pub offered: u64,
    /// `Ok` responses delivered to their user.
    pub answers: u64,
    /// `Err` responses: the engine failed on a query it had accepted.
    pub errors: u64,
    /// Answers not flagged `deadline_exceeded`.
    pub deadline_met: u64,
    /// Simulated response time of each answer, seconds.
    pub resp_s: Vec<f64>,
    /// Sensor energy spent during the run phase, joules.
    pub energy_j: f64,
    /// Radio bytes attributed to answers (data + tree control).
    pub wire_bytes: f64,
    /// Compute operations attributed to answers.
    pub ops: f64,
    /// Answers that rode a shared collection epoch.
    pub shared: u64,
    /// Answers that carried a value.
    pub valued: u64,
    /// Sum of `delivered_frac` over answers.
    pub delivered_sum: f64,
    digest: Fnv,
    /// Output checks that failed; empty on a valid run.
    pub failures: Vec<String>,
    /// Live counters read off public fields after the run, by per-layer
    /// metric name.
    pub layer: BTreeMap<&'static str, f64>,
    /// Answer log for the probes (traced runs only).
    pub log: Option<Vec<Answer>>,
}

impl Ledger {
    /// An empty ledger; `keep_log` retains per-answer records for probes.
    pub fn new(keep_log: bool) -> Self {
        Ledger {
            log: keep_log.then(Vec::new),
            ..Ledger::default()
        }
    }

    /// The digest over every outcome absorbed so far.
    pub fn digest(&self) -> u64 {
        self.digest.0
    }

    /// Record a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Pool another site's ledger into this one: counts and sums add,
    /// response-time samples concatenate, the digest chains. Per-layer
    /// counters and the answer log belong to the traced run, which follows
    /// one site only, and are not pooled.
    pub fn merge(&mut self, other: Ledger) {
        self.offered += other.offered;
        self.answers += other.answers;
        self.errors += other.errors;
        self.deadline_met += other.deadline_met;
        self.resp_s.extend(other.resp_s);
        self.energy_j += other.energy_j;
        self.wire_bytes += other.wire_bytes;
        self.ops += other.ops;
        self.shared += other.shared;
        self.valued += other.valued;
        self.delivered_sum += other.delivered_sum;
        self.digest.u64(other.digest.0);
        self.failures.extend(other.failures);
    }

    /// Set a live per-layer counter.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.layer.insert(name, value);
    }

    /// Absorb one response under workload-level id `id`. `queue_wait_s`
    /// and `deadline_exceeded` come from the scheduler when there is one;
    /// `bytes` is the scheduler's attribution (or the response's own cost
    /// on the single-shot path).
    #[allow(clippy::too_many_arguments)]
    pub fn absorb(
        &mut self,
        group: u32,
        id: u64,
        text: &str,
        response: &Result<QueryResponse, PgError>,
        queue_wait_s: f64,
        deadline_exceeded: bool,
        bytes: f64,
        shared: bool,
    ) {
        self.digest.u64(u64::from(group));
        self.digest.u64(id);
        let Ok(r) = response else {
            self.digest.u64(u64::MAX);
            self.errors += 1;
            return;
        };
        self.digest.u64(r.value.map_or(0, f64::to_bits));
        for x in [r.cost.energy_j, r.cost.time_s, r.cost.bytes, r.cost.ops] {
            self.digest.f64(x);
        }
        self.digest.f64(queue_wait_s);
        self.answers += 1;
        self.deadline_met += u64::from(!deadline_exceeded);
        self.resp_s.push(queue_wait_s + r.cost.time_s);
        self.wire_bytes += bytes;
        self.ops += r.cost.ops;
        self.shared += u64::from(shared);
        self.valued += u64::from(r.value.is_some());
        self.delivered_sum += r.delivered_frac;
        if let Some(log) = self.log.as_mut() {
            log.push(Answer {
                group,
                text: text.to_string(),
                shared,
                model: r.model,
                cost: r.cost,
                delivered_frac: r.delivered_frac,
                retries: r.degradation.retries,
                deadline_exceeded,
            });
        }
    }

    /// Absorb a scheduler outcome (the multi-query path) of cell `group`.
    pub fn absorb_outcome(&mut self, group: u32, o: &QueryOutcome<QueryResponse, PgError>) {
        self.absorb(
            group,
            o.id.0,
            &o.text,
            &o.response,
            o.queue_wait_s,
            o.deadline_exceeded(),
            o.attribution.bytes,
            o.attribution.shared,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_core::PervasiveGrid;

    #[test]
    fn digest_changes_when_one_outcome_bit_flips() {
        let mut pg = PervasiveGrid::building(1, 4, 3).build();
        let r = pg.submit("SELECT AVG(temp) FROM sensors");
        let digest_of = |r: &Result<QueryResponse, PgError>, id| {
            let mut l = Ledger::new(false);
            l.absorb(0, id, "q", r, 0.0, false, 0.0, false);
            l.digest()
        };
        let base = digest_of(&r, 1);
        assert_eq!(base, digest_of(&r, 1), "same outcome, same digest");
        assert_ne!(base, digest_of(&r, 2), "the id is part of the digest");
        let mut flipped = r.clone();
        let resp = flipped.as_mut().unwrap();
        resp.cost.energy_j = f64::from_bits(resp.cost.energy_j.to_bits() ^ 1);
        assert_ne!(base, digest_of(&flipped, 1), "one cost bit flipped");
        let mut flipped = r.clone();
        let resp = flipped.as_mut().unwrap();
        resp.value = resp.value.map(|v| f64::from_bits(v.to_bits() ^ 1));
        assert_ne!(base, digest_of(&flipped, 1), "one value bit flipped");
        assert_ne!(base, digest_of(&Err(PgError::CostBoundsUnsatisfiable), 1));
    }
}
