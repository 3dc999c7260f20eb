//! Tier-1 guard on Figure 1's closed loop: a bit-exact digest of what
//! `FireScenario::respond()` answers over 40 rounds at the 2 s cadence
//! pgbench's `fire_response` workload uses — every archetype response's
//! value, cost, accuracy, delivery, degradation report and chosen placement,
//! plus the composition's rebinds.
//!
//! The constants were captured when the Complex query's CG solve began at
//! the wall value and stopped on the max-norm residual; `accuracy_err` is
//! the one output of that loop no other digest covers.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pervasive_grid::core::FireScenario;
use pervasive_grid::sim::Duration;

const ROUNDS: usize = 40;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fnv_f64(h: &mut u64, v: Option<f64>) {
    match v {
        Some(v) => fnv(h, &v.to_bits().to_le_bytes()),
        None => fnv(h, b"none"),
    }
}

fn digest(seed: u64) -> u64 {
    let mut s = FireScenario::new(2, 12, seed);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..ROUNDS {
        let report = s.respond();
        fnv(&mut h, &report.composition.rebinds.to_le_bytes());
        for (_, response) in &report.queries {
            let r = match response {
                Ok(r) => r,
                Err(e) => {
                    fnv(&mut h, e.to_string().as_bytes());
                    continue;
                }
            };
            fnv_f64(&mut h, r.value);
            for c in [r.cost.energy_j, r.cost.time_s, r.cost.bytes, r.cost.ops] {
                fnv_f64(&mut h, Some(c));
            }
            fnv_f64(&mut h, r.accuracy_err);
            fnv_f64(&mut h, Some(r.delivered_frac));
            fnv(&mut h, format!("{:?}", r.degradation).as_bytes());
            fnv(&mut h, format!("{:?}", r.model).as_bytes());
        }
        s.runtime.advance(Duration::from_secs(2));
    }
    h
}

#[test]
fn fire_responses_are_pinned_over_two_seeds() {
    let got: Vec<(u64, u64)> = [1u64, 2].iter().map(|&s| (s, digest(s))).collect();
    assert_eq!(
        got,
        vec![(1, 0x7bf9_329c_c308_aba6), (2, 0x20f7_c049_c701_3b40)],
        "got {got:#x?}"
    );
}
