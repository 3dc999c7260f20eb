//! Flat structure-of-arrays state for large sensor deployments.
//!
//! At 10k–100k nodes the per-node bookkeeping is the hot path: every epoch
//! touches every battery, and fleet-level queries (`alive_sensors`) used to
//! scan an array of two-field `Battery` structs. [`NodeArena`] keeps the
//! mutable per-node state as one flat `f64` array (energy used) plus the
//! shared scalar capacity — half the bytes per node, one contiguous stream
//! for the sweeps, and an O(1) alive count maintained at the drain sites.
//!
//! The arithmetic replicates [`pg_net::energy::Battery`] exactly (same
//! expressions, same order), so swapping the arena in changes no committed
//! baseline: a node dies when `used_j >= capacity_j`, remaining energy
//! clamps at zero, and used energy caps at capacity.

/// Per-node battery state for a whole deployment, structure-of-arrays form.
#[derive(Debug, Clone)]
pub struct NodeArena {
    /// Shared battery capacity, joules (deployments are homogeneous).
    capacity_j: f64,
    /// Energy consumed per node, joules (uncapped running sum).
    used_j: Vec<f64>,
    /// Nodes with `used_j < capacity_j`, maintained incrementally.
    alive: usize,
}

impl NodeArena {
    /// An arena of `n` nodes each holding `capacity_j` joules.
    ///
    /// # Panics
    /// Panics on non-positive capacity (mirrors `Battery::new`).
    pub fn new(n: usize, capacity_j: f64) -> Self {
        assert!(capacity_j > 0.0, "battery capacity must be positive");
        NodeArena {
            capacity_j,
            used_j: vec![0.0; n],
            alive: n,
        }
    }

    /// Energy consumed by node `i`, joules (capped at capacity).
    pub fn used(&self, i: usize) -> f64 {
        self.used_j[i].min(self.capacity_j)
    }

    /// Energy remaining at node `i`, joules (never negative).
    pub fn remaining(&self, i: usize) -> f64 {
        (self.capacity_j - self.used_j[i]).max(0.0)
    }

    /// True once node `i` has been fully drained.
    pub fn is_dead(&self, i: usize) -> bool {
        self.used_j[i] >= self.capacity_j
    }

    /// Nodes still holding energy — O(1), no scan.
    pub fn alive_count(&self) -> usize {
        self.alive
    }

    /// Consume `joules` at node `i`. Returns `true` if the node is still
    /// alive after the draw (a draw crossing empty kills it).
    ///
    /// # Panics
    /// Panics on negative draw (mirrors `Battery::drain`).
    pub fn drain(&mut self, i: usize, joules: f64) -> bool {
        assert!(joules >= 0.0, "negative energy draw: {joules}");
        let was_alive = self.used_j[i] < self.capacity_j;
        self.used_j[i] += joules;
        let now_alive = self.used_j[i] < self.capacity_j;
        if was_alive && !now_alive {
            self.alive -= 1;
        }
        now_alive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_net::energy::Battery;

    #[test]
    fn arena_math_matches_battery_exactly() {
        let mut arena = NodeArena::new(1, 2.0);
        let mut battery = Battery::new(2.0);
        for draw in [0.25, 0.0, 1.0, 0.9, 0.1, 5.0] {
            assert_eq!(arena.drain(0, draw), battery.drain(draw));
            assert_eq!(arena.used(0).to_bits(), battery.used().to_bits());
            assert_eq!(arena.remaining(0).to_bits(), battery.remaining().to_bits());
            assert_eq!(arena.is_dead(0), battery.is_dead());
        }
    }

    #[test]
    fn alive_count_tracks_deaths_once() {
        let mut arena = NodeArena::new(3, 1.0);
        assert_eq!(arena.alive_count(), 3);
        arena.drain(1, 0.5);
        assert_eq!(arena.alive_count(), 3);
        arena.drain(1, 0.6); // crosses empty
        assert_eq!(arena.alive_count(), 2);
        arena.drain(1, 0.1); // already dead: no double-count
        assert_eq!(arena.alive_count(), 2);
        arena.drain(0, 2.0);
        assert_eq!(arena.alive_count(), 1);
    }

    #[test]
    #[should_panic(expected = "negative energy draw")]
    fn negative_draw_rejected() {
        NodeArena::new(1, 1.0).drain(0, -0.1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        NodeArena::new(1, 0.0);
    }
}
