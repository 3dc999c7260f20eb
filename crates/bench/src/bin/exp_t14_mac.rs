//! **T14** — packet-level MAC validation: the event-driven simulation
//! (GloMoSim-class substrate) against the analytic link model it replaces
//! at light load, and the contention behaviour only the packet level can
//! show. All timings here are *simulated* time, so they are deterministic
//! and belong in the report.
//!
//! ```sh
//! cargo run --release -p pg-bench --bin exp_t14_mac
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_bench::{key_part, Cell, Experiment};
use pg_net::energy::RadioModel;
use pg_net::geom::Point;
use pg_net::packetsim::{frame_time, PacketSim};
use pg_net::topology::{NodeId, Topology};
use pg_sim::fault::FaultPlan;
use pg_sim::SimTime;
use std::process::ExitCode;

fn line(n: usize) -> Topology {
    let pts = (0..n).map(|i| Point::flat(i as f64 * 10.0, 0.0)).collect();
    Topology::from_positions(pts, 15.0)
}

/// `senders` nodes on a 10 m circle around sink 0, all in mutual range
/// (everyone hears everyone, no hidden terminals), each with four
/// 100-byte packets for the sink queued within the first microseconds.
fn star(senders: usize, seed: u64) -> PacketSim {
    let mut pts = vec![Point::flat(0.0, 0.0)];
    for i in 0..senders {
        let a = i as f64 * std::f64::consts::TAU / senders as f64;
        pts.push(Point::flat(10.0 * a.cos(), 10.0 * a.sin()));
    }
    let topo = Topology::from_positions(pts, 25.0);
    let mut sim = PacketSim::new(topo, RadioModel::mote(), seed);
    let mut id = 0;
    for s in 1..=senders as u32 {
        for k in 0..4u64 {
            sim.inject(id, 100, vec![NodeId(s), NodeId(0)], SimTime::from_micros(k));
            id += 1;
        }
    }
    sim
}

fn main() -> ExitCode {
    let mut exp = Experiment::from_args("exp_t14_mac");

    // --- T14a: light-load agreement with the analytic model. ---
    println!("T14a: packet level vs analytic at light load (single flow, idle channel)");
    exp.table("one 100-byte packet over h hops");
    for hops in [1usize, 3, 6] {
        let topo = line(hops + 1);
        let mut sim = PacketSim::new(topo, RadioModel::mote(), 1);
        let route: Vec<NodeId> = (0..=hops as u32).map(NodeId).collect();
        sim.inject(1, 100, route, SimTime::ZERO);
        let r = sim.run();
        let analytic_ms = frame_time(100).as_secs_f64() * hops as f64 * 1e3;
        let measured_ms = r.delivered[0].at.as_secs_f64() * 1e3;
        exp.row(
            &format!("light.h{hops}"),
            &[
                Cell::int("hops", 5, hops),
                Cell::eng("analytic ms", 12, analytic_ms).key("analytic_ms"),
                Cell::eng("packet-level ms", 16, measured_ms).key("packet_ms"),
            ],
        );
    }

    // --- T14b: contention around one sink. ---
    println!("\nT14b: star of s senders, 4 packets each, to one sink");
    exp.table("channel efficiency = total airtime / completion time");
    let sender_sweep: &[usize] = &[2, 4, 8, 16];
    for &senders in sender_sweep {
        let r = star(senders, 2).run();
        let airtime = frame_time(100).as_secs_f64() * (senders * 4) as f64;
        exp.row(
            &format!("star.s{senders}"),
            &[
                Cell::int("senders", 8, senders),
                Cell::int("delivered", 10, r.delivered.len()).key("delivered"),
                Cell::int("collisions", 11, r.metrics.counter("mac.collisions")).key("collisions"),
                Cell::int("deferrals", 10, r.metrics.counter("mac.deferrals")).key("deferrals"),
                Cell::eng("complete ms", 12, r.finished_at.as_secs_f64() * 1e3).key("complete_ms"),
                Cell::fixed("efficiency", 11, 2, airtime / r.finished_at.as_secs_f64())
                    .key("efficiency"),
            ],
        );
    }

    // --- T14c: hidden terminals. ---
    println!("\nT14c: hidden terminals (A - sink - B line: A and B cannot hear each other)");
    exp.table("4 packets each from both ends, simultaneously");
    // Exposed: triangle, everyone in range (carrier sense works).
    let tri = Topology::from_positions(
        vec![
            Point::flat(0.0, 0.0),
            Point::flat(10.0, 0.0),
            Point::flat(5.0, 8.0),
        ],
        15.0,
    );
    // Hidden: line, senders out of range of each other.
    let hidden = line(3);
    for (name, topo, a, b, sink) in [
        ("mutual range", tri, NodeId(1), NodeId(2), NodeId(0)),
        ("hidden terminals", hidden, NodeId(0), NodeId(2), NodeId(1)),
    ] {
        let mut sim = PacketSim::new(topo, RadioModel::mote(), 3);
        for k in 0..4u64 {
            sim.inject(k, 150, vec![a, sink], SimTime::from_micros(k));
            sim.inject(100 + k, 150, vec![b, sink], SimTime::from_micros(k));
        }
        let r = sim.run();
        exp.row(
            &format!("hidden.{}", key_part(name)),
            &[
                Cell::text("scenario", 18, name),
                Cell::int("collisions", 11, r.metrics.counter("mac.collisions")).key("collisions"),
                Cell::eng("complete ms", 12, r.finished_at.as_secs_f64() * 1e3).key("complete_ms"),
            ],
        );
    }
    // --- T14d: the unified FaultPlan inside the CSMA MAC. ---
    println!("\nT14d: fault injection at the packet level (star of 8 senders, 4 packets each)");
    exp.table("the same FaultPlan that drives the runtime reaches individual frames");
    let mut faulted_kills = 0u64;
    for (name, plan) in [
        ("none", FaultPlan::none()),
        (
            "loss30",
            FaultPlan::builder(5)
                .message_loss(0.3)
                .build()
                .expect("valid loss plan"),
        ),
        (
            "blackout",
            FaultPlan::builder(5)
                .message_loss(0.2)
                .link_blackout(SimTime::ZERO, SimTime::from_millis(20))
                .build()
                .expect("valid blackout plan"),
        ),
    ] {
        let mut sim = star(8, 4);
        let faulted = name != "none";
        sim.set_fault_plan(plan);
        let r = sim.run();
        let killed = r.metrics.counter("mac.fault_killed");
        if faulted {
            faulted_kills += killed;
        }
        exp.row(
            &format!("faulted.{name}"),
            &[
                Cell::text("plan", 10, name),
                Cell::int("delivered", 10, r.delivered.len()).key("delivered"),
                Cell::int("fault killed", 13, killed).key("fault_killed"),
                Cell::eng("complete ms", 12, r.finished_at.as_secs_f64() * 1e3).key("complete_ms"),
            ],
        );
    }
    // Acceptance: the plan must actually kill frames inside the MAC — the
    // proof that fault injection reaches the packet level, not just the
    // expectation-based link model above it.
    exp.claims("faulted")
        .above("fault_killed", faulted_kills, 0u64);

    println!(
        "\nshape to check: light-load packet level matches the analytic hop \
         product exactly; efficiency stays high as mutually-audible senders \
         scale (carrier sense serializes them); hidden terminals collide \
         where mutual-range senders do not — the classic CSMA story, which \
         the expectation-based link model cannot express; the faulted star \
         loses frames to the plan (fault_killed > 0, asserted) while the \
         clean control delivers everything."
    );
    exp.finish()
}
