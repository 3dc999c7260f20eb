//! The sensed phenomenon: a building temperature field with spreading fires.
//!
//! The field is the ground truth the sensor network samples and the PDE
//! reconstruction (experiment T9) is judged against. It is deliberately
//! analytic — ambient temperature plus a sum of Gaussian heat plumes whose
//! amplitude and radius grow over time — so exact values are available at
//! any point and instant without solving anything.

use pg_net::geom::Point;
use pg_sim::SimTime;
use rand::Rng;

/// One heat source (a fire) that ignites, grows, and saturates.
#[derive(Debug, Clone, Copy)]
pub struct HeatSource {
    /// Plume centre.
    pub center: Point,
    /// Ignition instant.
    pub ignition: SimTime,
    /// Peak amplitude above ambient, °C.
    pub peak_amplitude: f64,
    /// Initial plume radius, metres.
    pub radius0: f64,
    /// Radius growth rate, m/s.
    pub growth: f64,
    /// Time constant to reach peak amplitude, seconds.
    pub ramp_tau: f64,
}

/// Degrees above ambient at `p` of a plume `(center, amplitude, radius)`.
fn heat(&(center, amp, radius): &(Point, f64, f64), p: &Point) -> f64 {
    amp * (-p.distance_sq(&center) / (2.0 * radius * radius)).exp()
}

impl HeatSource {
    /// The plume at `t` (`None` before ignition).
    fn plume_at(&self, t: SimTime) -> Option<(Point, f64, f64)> {
        if t < self.ignition {
            return None;
        }
        let dt = (t - self.ignition).as_secs_f64();
        let amp = self.peak_amplitude * (1.0 - (-dt / self.ramp_tau).exp());
        let radius = self.radius0 + self.growth * dt;
        Some((self.center, amp, radius))
    }

    /// Contribution of this source at point `p`, time `t`, °C.
    pub fn contribution(&self, p: &Point, t: SimTime) -> f64 {
        self.plume_at(t).map_or(0.0, |plume| heat(&plume, p))
    }
}

/// A [`TemperatureField`] at one instant, its plumes worked out once.
/// Two frozen fields are equal when every temperature they give is.
#[derive(Debug, Clone, PartialEq)]
pub struct FrozenField {
    ambient: f64,
    plumes: Vec<(Point, f64, f64)>,
}

impl FrozenField {
    /// Exact temperature at point `p`, °C.
    // Inline: out of line, a per-cell loop over this ran 2× slower (measured).
    #[inline]
    pub fn temperature(&self, p: &Point) -> f64 {
        self.ambient + self.plumes.iter().map(|s| heat(s, p)).sum::<f64>()
    }

    /// A noisy sensor observation: exact value plus zero-mean Gaussian noise
    /// with standard deviation `noise_sd` (Box–Muller; two uniforms).
    pub fn sample<R: Rng>(&self, p: &Point, noise_sd: f64, rng: &mut R) -> f64 {
        let exact = self.temperature(p);
        if noise_sd == 0.0 {
            return exact;
        }
        let u1: f64 = 1.0 - rng.gen::<f64>(); // avoid ln(0)
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        exact + noise_sd * z
    }
}

/// Ambient temperature plus a set of heat sources.
#[derive(Debug, Clone)]
pub struct TemperatureField {
    /// Background temperature, °C.
    pub ambient: f64,
    /// Active heat sources.
    pub sources: Vec<HeatSource>,
}

impl TemperatureField {
    /// A calm building at `ambient` °C with no fires.
    pub fn calm(ambient: f64) -> Self {
        TemperatureField {
            ambient,
            sources: Vec::new(),
        }
    }

    /// The paper's fire scenario: a 21 °C building with a fire igniting at
    /// `ignition` centred at `center`, peaking `peak` °C above ambient.
    pub fn building_fire(center: Point, ignition: SimTime, peak: f64) -> Self {
        TemperatureField {
            ambient: 21.0,
            sources: vec![HeatSource {
                center,
                ignition,
                peak_amplitude: peak,
                radius0: 2.0,
                growth: 0.05,
                ramp_tau: 120.0,
            }],
        }
    }

    /// The field at instant `t`.
    pub fn at(&self, t: SimTime) -> FrozenField {
        FrozenField {
            ambient: self.ambient,
            plumes: self.sources.iter().filter_map(|s| s.plume_at(t)).collect(),
        }
    }

    /// Exact temperature at point `p`, time `t`, °C.
    pub fn temperature(&self, p: &Point, t: SimTime) -> f64 {
        self.ambient
            + self
                .sources
                .iter()
                .map(|s| s.contribution(p, t))
                .sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fire() -> TemperatureField {
        TemperatureField::building_fire(Point::flat(10.0, 10.0), SimTime::from_secs(60), 400.0)
    }

    #[test]
    fn calm_field_is_ambient_everywhere() {
        let f = TemperatureField::calm(21.0);
        assert_eq!(
            f.temperature(&Point::flat(3.0, 7.0), SimTime::from_secs(99)),
            21.0
        );
    }

    #[test]
    fn before_ignition_no_contribution() {
        let f = fire();
        let at_center = f.temperature(&Point::flat(10.0, 10.0), SimTime::from_secs(59));
        assert_eq!(at_center, 21.0);
    }

    #[test]
    fn fire_heats_center_most() {
        let f = fire();
        let t = SimTime::from_secs(600);
        let center = f.temperature(&Point::flat(10.0, 10.0), t);
        let near = f.temperature(&Point::flat(15.0, 10.0), t);
        let far = f.temperature(&Point::flat(80.0, 80.0), t);
        assert!(center > near, "{center} vs {near}");
        assert!(near > far, "{near} vs {far}");
        assert!(center > 300.0, "fire should be hot after 9 min: {center}");
        assert!((far - 21.0).abs() < 5.0, "far corner near ambient: {far}");
    }

    #[test]
    fn amplitude_ramps_monotonically() {
        let f = fire();
        let p = Point::flat(10.0, 10.0);
        let mut last = 0.0;
        for s in [61, 120, 300, 900, 3_600] {
            let temp = f.temperature(&p, SimTime::from_secs(s));
            assert!(temp > last, "temperature should grow: {temp} at {s}s");
            last = temp;
        }
    }

    #[test]
    fn plume_spreads_over_time() {
        let f = fire();
        let p = Point::flat(40.0, 10.0); // 30 m from the fire
        let early = f.temperature(&p, SimTime::from_secs(120));
        let late = f.temperature(&p, SimTime::from_secs(3_600));
        assert!(
            late > early + 5.0,
            "plume should reach 30 m out: {early} -> {late}"
        );
    }

    #[test]
    fn noiseless_sample_is_exact() {
        let f = fire();
        let p = Point::flat(12.0, 9.0);
        let t = SimTime::from_secs(500);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(f.at(t).sample(&p, 0.0, &mut rng), f.temperature(&p, t));
    }

    /// The exact value plus Box–Muller noise, as a sensor reads it.
    fn noisy(exact: f64, noise_sd: f64, rng: &mut StdRng) -> f64 {
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        exact + noise_sd * z
    }

    /// Three fires lit at different instants, read before, at and after
    /// each ignition: the frozen view gives the per-source sum's bits, and
    /// a noisy sample drawn through it from an rng in the same state lands
    /// on the same bits and leaves the rng in the same state.
    #[test]
    fn frozen_view_agrees_with_temperature_bit_for_bit() {
        let mut f = fire();
        f.sources.push(HeatSource {
            center: Point::new(30.0, 5.0, 4.0),
            ignition: SimTime::from_secs(300),
            peak_amplitude: 150.0,
            radius0: 1.0,
            growth: 0.2,
            ramp_tau: 45.0,
        });
        f.sources.push(HeatSource {
            center: Point::flat(-5.0, 20.0),
            ignition: SimTime::from_secs(60),
            peak_amplitude: 90.0,
            radius0: 3.5,
            growth: 0.01,
            ramp_tau: 300.0,
        });
        let points = [
            Point::new(12.0, 9.0, 3.0),
            Point::flat(10.0, 10.0),
            Point::new(30.0, 5.0, 4.0),
            Point::flat(-40.0, 75.0),
        ];
        for s in [0, 59, 60, 61, 299, 300, 301, 500, 3_600] {
            let t = SimTime::from_secs(s);
            let frozen = f.at(t);
            for (i, p) in points.iter().enumerate() {
                let exact = f.temperature(p, t);
                assert_eq!(
                    frozen.temperature(p).to_bits(),
                    exact.to_bits(),
                    "t={s} p{i}"
                );
                let (mut a, mut b) = (StdRng::seed_from_u64(s), StdRng::seed_from_u64(s));
                let drawn = frozen.sample(p, 0.7, &mut a);
                let reference = noisy(exact, 0.7, &mut b);
                assert_eq!(drawn.to_bits(), reference.to_bits(), "t={s} p{i}");
                assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "t={s} p{i}");
            }
        }
    }

    #[test]
    fn noise_is_zero_mean_with_given_sd() {
        let f = TemperatureField::calm(20.0);
        let p = Point::flat(0.0, 0.0);
        let t = SimTime::ZERO;
        let mut rng = StdRng::seed_from_u64(2);
        let n = 20_000;
        let f = f.at(t);
        let samples: Vec<f64> = (0..n).map(|_| f.sample(&p, 2.0, &mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        assert!((mean - 20.0).abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "sd {}", var.sqrt());
    }
}
