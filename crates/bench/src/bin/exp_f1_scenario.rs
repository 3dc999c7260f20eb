//! **F1** — Figure 1, the General Scenario, end to end: handheld → base
//! station → sensor network + grid, with the composition front half.
//!
//! ```sh
//! cargo run --release -p pg-bench --bin exp_f1_scenario
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_bench::{key_part, Cell, Experiment, Value};
use pg_core::FireScenario;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut exp = Experiment::from_args("exp_f1_scenario");
    let (floors, side) = (3, 8);
    exp.set_meta("floors", floors.to_string());
    exp.set_meta("side", side.to_string());
    println!(
        "F1: the Figure-1 fire-response scenario ({floors} floors x {side}x{side} sensors = {})",
        floors * side * side
    );
    let mut scenario = FireScenario::new(floors, side, 2003);
    println!(
        "composition plan '{}': {} steps, critical path {}",
        scenario.plan.task,
        scenario.plan.len(),
        scenario.plan.critical_path_len()
    );
    exp.set_counter("plan.steps", scenario.plan.len() as u64);
    exp.set_counter(
        "plan.critical_path",
        scenario.plan.critical_path_len() as u64,
    );
    let report = scenario.respond();
    println!(
        "composition phase: success={} utility={:.2} latency={} rebinds={}",
        report.composition.success,
        report.composition.utility,
        report.composition.latency,
        report.composition.rebinds
    );
    exp.set_counter("composition.success", report.composition.success as u64);
    exp.set_scalar("composition.utility", report.composition.utility);
    exp.set_scalar(
        "composition.latency_s",
        report.composition.latency.as_secs_f64(),
    );
    exp.set_counter("composition.rebinds", report.composition.rebinds as u64);
    exp.table("query phase (the four §4 archetypes)");
    for (_, resp) in &report.queries {
        let r = resp.as_ref().expect("scenario queries answered");
        exp.row(
            &key_part(r.kind.name()),
            &[
                Cell::text("query kind", 11, r.kind.name()),
                Cell::text("model chosen", 22, r.model.name()).key("model"),
                Cell::fixed("value", 9, 1, r.value.map_or("-".into(), Value::from)).key("value"),
                Cell::eng("energy J", 10, r.cost.energy_j).key("energy_j"),
                Cell::eng("time s", 9, r.cost.time_s).key("time_s"),
                Cell::fixed("delivery", 8, 2, r.delivered_frac).key("delivered_frac"),
            ],
        );
    }
    println!(
        "\nscenario totals: {:.4} J sensor energy, {} sensors alive",
        report.energy_j, report.alive
    );
    exp.set_scalar("totals.energy_j", report.energy_j);
    exp.set_counter("totals.alive", report.alive as u64);
    println!(
        "shape to check: every archetype answered; the complex query's value \
         (reconstructed peak) is in the fire regime (>150 C); composition \
         succeeds with utility 1.0 or degrades only on optional steps."
    );
    exp.finish()
}
