//! Agent Deputies: the `deliver` abstraction.
//!
//! "Each service consists of two parts: an Agent Deputy and an Agent. An
//! Agent Deputy acts as a front-end interface for the other agents in the
//! system … each Agent Deputy must implement a deliver method. This
//! delivery abstraction means that depending on their connectivity and
//! network QoS, agents can deploy deputies that will provide features of
//! transcoding or disconnection management." (§2)
//!
//! Three deputies are provided: [`DirectDeputy`] (always-connected, fixed
//! link), [`DisconnectionDeputy`] (queues envelopes while its agent is
//! offline per a churn schedule, flushing on reconnect), and
//! [`TranscodingDeputy`] (re-encodes bulky payloads before a thin link).

use crate::envelope::{Envelope, Payload};
use pg_net::churn::ChurnSchedule;
use pg_net::link::LinkModel;
use pg_sim::{Duration, SimTime};

/// What happened when an envelope was handed to a deputy.
#[derive(Debug, Clone, PartialEq)]
pub enum DeliveryOutcome {
    /// The envelope reaches the agent after this transport delay.
    Delivered(Duration),
    /// The agent is disconnected; the envelope is held by the deputy.
    Queued,
    /// The envelope was dropped (reason attached).
    Dropped(&'static str),
}

/// The deputy contract: every deputy must implement `deliver`.
pub trait Deputy: std::fmt::Debug {
    /// Attempt to move `env` from the infrastructure to the agent at `now`.
    fn deliver(&mut self, env: Envelope, now: SimTime) -> DeliveryOutcome;

    /// Drain any envelopes that became deliverable by `now` (for deputies
    /// that queue). Returns the released envelopes with their delays.
    fn flush(&mut self, _now: SimTime) -> Vec<(Envelope, Duration)> {
        Vec::new()
    }

    /// Envelopes currently held by the deputy.
    fn queued(&self) -> usize {
        0
    }
}

/// Always-connected deputy over a fixed link class.
#[derive(Debug)]
pub struct DirectDeputy {
    link: LinkModel,
}

impl DirectDeputy {
    /// Deputy over the given link.
    pub fn new(link: LinkModel) -> Self {
        DirectDeputy { link }
    }
}

impl Deputy for DirectDeputy {
    fn deliver(&mut self, env: Envelope, _now: SimTime) -> DeliveryOutcome {
        DeliveryOutcome::Delivered(self.link.expected_tx_time(env.wire_bytes()))
    }
}

/// Disconnection management: envelopes sent while the agent is offline are
/// queued and released when the schedule says the agent is back.
#[derive(Debug)]
pub struct DisconnectionDeputy {
    link: LinkModel,
    schedule: ChurnSchedule,
    queue: Vec<Envelope>,
    /// Envelopes dropped because the queue overflowed.
    pub dropped: u64,
    capacity: usize,
}

impl DisconnectionDeputy {
    /// Deputy whose agent follows `schedule`; at most `capacity` envelopes
    /// are held while offline.
    pub fn new(link: LinkModel, schedule: ChurnSchedule, capacity: usize) -> Self {
        DisconnectionDeputy {
            link,
            schedule,
            queue: Vec::new(),
            dropped: 0,
            capacity,
        }
    }

    /// Is the fronted agent connected at `t`?
    pub fn is_connected(&self, t: SimTime) -> bool {
        self.schedule.is_up(t)
    }
}

impl Deputy for DisconnectionDeputy {
    fn deliver(&mut self, env: Envelope, now: SimTime) -> DeliveryOutcome {
        if self.schedule.is_up(now) {
            DeliveryOutcome::Delivered(self.link.expected_tx_time(env.wire_bytes()))
        } else if self.queue.len() < self.capacity {
            self.queue.push(env);
            DeliveryOutcome::Queued
        } else {
            self.dropped += 1;
            DeliveryOutcome::Dropped("disconnection queue overflow")
        }
    }

    fn flush(&mut self, now: SimTime) -> Vec<(Envelope, Duration)> {
        if !self.schedule.is_up(now) || self.queue.is_empty() {
            return Vec::new();
        }
        let link = self.link;
        self.queue
            .drain(..)
            .map(|e| {
                let d = link.expected_tx_time(e.wire_bytes());
                (e, d)
            })
            .collect()
    }

    fn queued(&self) -> usize {
        self.queue.len()
    }
}

/// Transcoding: text payloads larger than a threshold are re-encoded to a
/// compact binary form (modelled as a size ratio) before crossing the thin
/// link — what Ronin deputies do for low-bandwidth devices.
#[derive(Debug)]
pub struct TranscodingDeputy {
    link: LinkModel,
    threshold_bytes: u64,
    ratio: f64,
    /// Number of payloads transcoded so far.
    pub transcoded: u64,
}

impl TranscodingDeputy {
    /// Transcode text payloads above `threshold_bytes` down to
    /// `ratio` × size (`0 < ratio <= 1`).
    ///
    /// # Panics
    /// Panics on a ratio outside `(0, 1]`.
    pub fn new(link: LinkModel, threshold_bytes: u64, ratio: f64) -> Self {
        assert!(ratio > 0.0 && ratio <= 1.0, "bad transcode ratio {ratio}");
        TranscodingDeputy {
            link,
            threshold_bytes,
            ratio,
            transcoded: 0,
        }
    }
}

impl Deputy for TranscodingDeputy {
    fn deliver(&mut self, mut env: Envelope, _now: SimTime) -> DeliveryOutcome {
        if let Payload::Text(s) = &env.payload {
            if s.len() as u64 > self.threshold_bytes {
                let compact = ((s.len() as f64) * self.ratio).ceil() as usize;
                env.payload = Payload::Binary(vec![0u8; compact].into());
                env.content_type = format!("{}+compact", env.content_type);
                self.transcoded += 1;
            }
        }
        DeliveryOutcome::Delivered(self.link.expected_tx_time(env.wire_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::AgentId;

    fn env(body: &str) -> Envelope {
        Envelope::text(AgentId(1), AgentId(2), "acl/request", body)
    }

    #[test]
    fn direct_deputy_always_delivers_with_link_delay() {
        let mut d = DirectDeputy::new(LinkModel::wifi());
        let e = env("hi");
        let want = LinkModel::wifi().expected_tx_time(e.wire_bytes());
        assert_eq!(
            d.deliver(e, SimTime::ZERO),
            DeliveryOutcome::Delivered(want)
        );
    }

    #[test]
    fn disconnection_deputy_queues_and_flushes() {
        let schedule = ChurnSchedule::always_up();
        let mut d = DisconnectionDeputy::new(LinkModel::wifi(), schedule, 4);
        assert!(matches!(
            d.deliver(env("a"), SimTime::ZERO),
            DeliveryOutcome::Delivered(_)
        ));

        // A schedule that is down between t=10 and t=20.
        let down_then_up = pg_net::churn::ChurnSchedule::from_toggles(
            true,
            vec![SimTime::from_secs(10), SimTime::from_secs(20)],
        )
        .unwrap();
        let mut d2 = DisconnectionDeputy::new(LinkModel::wifi(), down_then_up, 2);
        assert!(d2.is_connected(SimTime::from_secs(5)));
        assert!(!d2.is_connected(SimTime::from_secs(15)));
        assert_eq!(
            d2.deliver(env("x"), SimTime::from_secs(15)),
            DeliveryOutcome::Queued
        );
        assert_eq!(
            d2.deliver(env("y"), SimTime::from_secs(16)),
            DeliveryOutcome::Queued
        );
        assert!(matches!(
            d2.deliver(env("z"), SimTime::from_secs(17)),
            DeliveryOutcome::Dropped(_)
        ));
        assert_eq!(d2.queued(), 2);
        assert_eq!(d2.dropped, 1);
        // Nothing flushes while down.
        assert!(d2.flush(SimTime::from_secs(18)).is_empty());
        // Reconnect at t=20: both queued envelopes release.
        let released = d2.flush(SimTime::from_secs(21));
        assert_eq!(released.len(), 2);
        assert_eq!(d2.queued(), 0);
    }

    #[test]
    fn transcoder_shrinks_large_text_only() {
        let mut d = TranscodingDeputy::new(LinkModel::bluetooth(), 100, 0.25);
        let small = env("tiny");
        match d.deliver(small, SimTime::ZERO) {
            DeliveryOutcome::Delivered(_) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(d.transcoded, 0);

        let big = env(&"x".repeat(400));
        let before = LinkModel::bluetooth().expected_tx_time(64 + 400);
        match d.deliver(big, SimTime::ZERO) {
            DeliveryOutcome::Delivered(t) => {
                assert!(t < before, "transcoded delivery should be faster");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(d.transcoded, 1);
    }
}
