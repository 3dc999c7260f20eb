//! First-order radio energy model and finite batteries.
//!
//! §4 of the paper: "preserving the energy of the sensors is of prime
//! importance. So estimates of energy consumption of sensors to evaluate a
//! query with each of the above approach are desirable." The model here is
//! the standard first-order radio model from the literature the paper builds
//! on (LEACH, TAG): transmitting `k` bits over distance `d` costs
//!
//! ```text
//! E_tx(k, d) = E_elec·k + ε_fs·k·d²   (d <  d₀, free-space amplifier)
//!            = E_elec·k + ε_mp·k·d⁴   (d ≥ d₀, multipath amplifier)
//! E_rx(k)    = E_elec·k
//! ```
//!
//! with `d₀ = sqrt(ε_fs / ε_mp)` the crossover distance. CPU work costs a
//! per-operation energy, and idle listening a constant power draw.

/// Radio + CPU energy parameters for one node class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadioModel {
    /// Electronics energy per bit, J/bit (both TX and RX paths).
    pub e_elec: f64,
    /// Free-space amplifier energy, J/bit/m².
    pub eps_fs: f64,
    /// Multipath amplifier energy, J/bit/m⁴.
    pub eps_mp: f64,
    /// CPU energy per elementary operation, J/op.
    pub e_cpu_per_op: f64,
    /// Idle listening power, W.
    pub idle_power: f64,
}

impl RadioModel {
    /// Canonical sensor-mote parameters (the values used across the
    /// LEACH/TAG literature): 50 nJ/bit electronics, 10 pJ/bit/m² free-space,
    /// 0.0013 pJ/bit/m⁴ multipath, 5 nJ/op CPU, 1 mW idle.
    pub fn mote() -> Self {
        RadioModel {
            e_elec: 50e-9,
            eps_fs: 10e-12,
            eps_mp: 0.0013e-12,
            e_cpu_per_op: 5e-9,
            idle_power: 1e-3,
        }
    }

    /// Amplifier crossover distance `d₀ = sqrt(ε_fs / ε_mp)`, metres.
    pub fn crossover_distance(&self) -> f64 {
        (self.eps_fs / self.eps_mp).sqrt()
    }

    /// Amplifier energy per bit over `distance` metres, J/bit: the
    /// distance-dependent factor of [`tx_energy`](Self::tx_energy), which a
    /// caller pricing many frames over one fixed edge keeps instead of
    /// re-deriving (a square root and a divide for `d₀` each time).
    ///
    /// # Panics
    /// Panics on negative distance.
    pub fn amp_per_bit(&self, distance: f64) -> f64 {
        assert!(distance >= 0.0, "negative distance");
        if distance < self.crossover_distance() {
            self.eps_fs * distance * distance
        } else {
            let d2 = distance * distance;
            self.eps_mp * d2 * d2
        }
    }

    /// Energy to transmit `bits` over `distance` metres, joules:
    /// `E_elec·k + amp_per_bit(d)·k`, in that order — whoever prices a kept
    /// [`amp_per_bit`](Self::amp_per_bit) must add the same two products.
    ///
    /// # Panics
    /// Panics on negative distance.
    pub fn tx_energy(&self, bits: u64, distance: f64) -> f64 {
        let k = bits as f64;
        self.e_elec * k + self.amp_per_bit(distance) * k
    }

    /// Energy to receive `bits`, joules.
    pub fn rx_energy(&self, bits: u64) -> f64 {
        self.e_elec * bits as f64
    }

    /// Energy for `ops` elementary CPU operations, joules.
    pub fn cpu_energy(&self, ops: u64) -> f64 {
        self.e_cpu_per_op * ops as f64
    }

    /// Energy to idle-listen for `secs` seconds, joules.
    pub fn idle_energy(&self, secs: f64) -> f64 {
        self.idle_power * secs
    }
}

/// A finite energy reserve. Draining past empty marks the node dead; energy
/// never goes negative and a dead node stays dead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Battery {
    capacity_j: f64,
    used_j: f64,
}

impl Battery {
    /// A battery holding `capacity_j` joules.
    ///
    /// # Panics
    /// Panics on non-positive capacity.
    pub fn new(capacity_j: f64) -> Self {
        assert!(capacity_j > 0.0, "battery capacity must be positive");
        Battery {
            capacity_j,
            used_j: 0.0,
        }
    }

    /// Total capacity, joules.
    pub fn capacity(&self) -> f64 {
        self.capacity_j
    }

    /// Energy consumed so far, joules (capped at capacity).
    pub fn used(&self) -> f64 {
        self.used_j.min(self.capacity_j)
    }

    /// Energy remaining, joules (never negative).
    pub fn remaining(&self) -> f64 {
        (self.capacity_j - self.used_j).max(0.0)
    }

    /// True once the battery has been fully drained.
    pub fn is_dead(&self) -> bool {
        self.used_j >= self.capacity_j
    }

    /// Consume `joules`. Returns `true` if the node is still alive after the
    /// draw. A draw that crosses empty kills the node (the partial work is
    /// assumed lost, as in the standard lifetime experiments).
    ///
    /// # Panics
    /// Panics on negative draw.
    pub fn drain(&mut self, joules: f64) -> bool {
        assert!(joules >= 0.0, "negative energy draw: {joules}");
        self.used_j += joules;
        !self.is_dead()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_scales_linearly_in_bits() {
        let m = RadioModel::mote();
        let e1 = m.tx_energy(1_000, 30.0);
        let e2 = m.tx_energy(2_000, 30.0);
        assert!((e2 - 2.0 * e1).abs() < 1e-18);
    }

    #[test]
    fn tx_monotone_in_distance() {
        let m = RadioModel::mote();
        let mut last = 0.0;
        for d in [0.0, 10.0, 50.0, 87.0, 88.0, 150.0, 400.0] {
            let e = m.tx_energy(8_000, d);
            assert!(e >= last, "energy decreased at d={d}");
            last = e;
        }
    }

    #[test]
    fn amplifier_regions_agree_at_crossover() {
        let m = RadioModel::mote();
        let d0 = m.crossover_distance();
        let k = 1e4;
        let fs = m.eps_fs * d0 * d0 * k;
        let mp = m.eps_mp * d0.powi(4) * k;
        assert!((fs - mp).abs() / fs < 1e-9);
    }

    #[test]
    fn rx_is_distance_free_and_cheaper_than_long_tx() {
        let m = RadioModel::mote();
        assert_eq!(m.rx_energy(8_000), m.e_elec * 8_000.0);
        assert!(m.rx_energy(8_000) < m.tx_energy(8_000, 100.0));
    }

    #[test]
    fn cpu_and_idle_energy() {
        let m = RadioModel::mote();
        assert!((m.cpu_energy(1_000_000) - 5e-3).abs() < 1e-12);
        assert!((m.idle_energy(2.0) - 2e-3).abs() < 1e-12);
    }

    #[test]
    fn battery_drains_and_dies() {
        let mut b = Battery::new(1.0);
        assert!(b.drain(0.4));
        assert!((b.remaining() - 0.6).abs() < 1e-12);
        assert!(!b.drain(0.7)); // crosses empty
        assert!(b.is_dead());
        assert_eq!(b.remaining(), 0.0);
        assert!(!b.drain(0.1)); // stays dead
        assert_eq!(b.remaining(), 0.0);
    }

    #[test]
    #[should_panic(expected = "negative energy draw")]
    fn negative_drain_panics() {
        Battery::new(1.0).drain(-0.1);
    }
}
