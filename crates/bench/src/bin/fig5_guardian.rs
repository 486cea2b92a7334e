//! **F5 — Guardian mitigation (extension)**: worst-case *true* cross-track
//! error of attacked runs with the plain stack vs the same stack wrapped in
//! the runtime [`adassure::guardian::Guardian`] (safe-stop on critical
//! violations).
//!
//! Regenerate with:
//! `cargo run --release -p adassure-bench --bin fig5_guardian`

use adassure::guardian::{GuardState, Guardian, GuardianConfig};
use adassure_control::pipeline::AdStack;
use adassure_control::ControllerKind;
use adassure_exp::agg::fmt_mean_std;
use adassure_exp::campaign::{execute, standard_catalog};
use adassure_exp::grid::AttackSet;
use adassure_exp::{Grid, RunRecord, Runtime};
use adassure_scenarios::{run, Scenario, ScenarioKind};

/// What one grid cell yields: the plain run's record plus the guarded
/// twin's damage and safe-stop delay.
struct GuardedCell {
    plain: RunRecord,
    guarded_worst: f64,
    engage_delay: Option<f64>,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for kind in ScenarioKind::GUARDIAN_SET {
        run_scenario(kind)?;
    }
    println!("\n(safe-stopping on the first critical violation bounds the physical");
    println!(" damage of every fast-detected attack; the stealthy drift class keeps");
    println!(" leaking error in proportion to its detection latency.)");
    Ok(())
}

fn run_scenario(kind: ScenarioKind) -> Result<(), Box<dyn std::error::Error>> {
    let scenario = Scenario::of_kind(kind)?;
    let controller = ControllerKind::PurePursuit;
    let seeds = [1u64, 2, 3];
    let cat = standard_catalog(&scenario);
    let grid = Grid::new()
        .scenarios([scenario.kind])
        .controllers([controller])
        .attacks(AttackSet::Standard)
        .seeds(seeds);

    let cells = grid.cells();
    let results = Runtime::global()
        .map(&cells, |spec| -> Result<GuardedCell, String> {
            // Plain stack, through the campaign executor.
            let (out, report) =
                execute(spec, &cat).map_err(|e| format!("cell {}: {e}", spec.index))?;
            let plain = RunRecord::from_run(spec, &out, &report);

            // Guarded twin: the same cell with the stack wrapped in the
            // Guardian (a driver the campaign executor cannot express).
            let attack = spec
                .attack
                .ok_or_else(|| format!("cell {}: guardian grid must be attacked", spec.index))?;
            let stack = AdStack::new(
                run::stack_config(&scenario, controller),
                scenario.track.clone(),
            );
            let mut guardian = Guardian::new(stack, cat.iter().cloned(), GuardianConfig::default());
            let mut injector = attack.injector(spec.seed);
            let out = run::engine_for(&scenario, spec.seed)
                .run_with_tap(&mut guardian, &mut injector)
                .map_err(|e| format!("guarded cell {}: {e}", spec.index))?;
            let engage_delay = match guardian.state() {
                GuardState::SafeStop { since, .. } => Some(since - attack.window.start),
                _ => None,
            };
            Ok(GuardedCell {
                plain,
                guarded_worst: adassure_exp::record::worst_xtrack_after(
                    &out.trace,
                    attack.window.start,
                ),
                engage_delay,
            })
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;

    println!(
        "\nF5: guardian mitigation (scenario `{}`, {} stack, seeds {seeds:?})",
        scenario.kind, controller
    );
    println!("cells: worst |true cross-track error| after attack onset, mean±std (m)\n");
    println!(
        "{:<20} {:>16} {:>16} {:>14}",
        "attack", "plain stack", "guarded stack", "stop engaged"
    );

    for attack in AttackSet::Standard.specs(0.0) {
        let rows: Vec<&GuardedCell> = results
            .iter()
            .filter(|c| c.plain.attack.as_deref() == Some(attack.name()))
            .collect();
        let plain: Vec<f64> = rows.iter().map(|c| c.plain.worst_xtrack_err).collect();
        let guarded: Vec<f64> = rows.iter().map(|c| c.guarded_worst).collect();
        let engage_delays: Vec<f64> = rows.iter().filter_map(|c| c.engage_delay).collect();
        println!(
            "{:<20} {:>16} {:>16} {:>14}",
            attack.name(),
            fmt_mean_std(&plain),
            fmt_mean_std(&guarded),
            if engage_delays.is_empty() {
                format!("0/{}", seeds.len())
            } else {
                format!(
                    "{}/{} @{}s",
                    engage_delays.len(),
                    seeds.len(),
                    fmt_mean_std(&engage_delays)
                )
            }
        );
    }
    Ok(())
}
