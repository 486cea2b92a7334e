//! **T5 — degraded-telemetry robustness (extension)**: detection and
//! false-alarm rates of the guarded stack when the *monitor's* telemetry
//! link is faulty, swept over fault kind × rate × controller and compared
//! against the clean-link baseline.
//!
//! Every run wraps the stack in the runtime
//! [`adassure::guardian::Guardian`]; the fault injector sits between the
//! stack and the guardian's checkers, so the vehicle itself is only ever
//! disturbed by the grid's *attack* axis. The table reports, per fault
//! configuration, how much detection degrades and how many false alarms
//! the link faults add.
//!
//! Regenerate with:
//! `cargo run --release -p adassure-bench --bin table5_robustness`
//!
//! `--smoke` runs a seconds-scale slice (one scenario, one controller, one
//! seed, three cells, dropout only) for CI.

use adassure::guardian::{GuardState, Guardian, GuardianConfig};
use adassure_attacks::{FaultKind, FaultSpec, Window};
use adassure_control::pipeline::AdStack;
use adassure_control::ControllerKind;
use adassure_exp::campaign::standard_catalog;
use adassure_exp::grid::AttackSet;
use adassure_exp::{CampaignReport, Grid, GroupSummary, RunRecord, RunSpec, Runtime};
use adassure_obs::MetricsSnapshot;
use adassure_scenarios::{run, Scenario, ScenarioKind};

/// One telemetry-link configuration of the sweep: `None` is the clean
/// baseline link.
type FaultConfig = Option<(FaultKind, f64)>;

fn config_label(config: FaultConfig) -> String {
    match config {
        None => "baseline".to_owned(),
        Some((kind, rate)) => format!("{}@{rate:.2}", kind.name()),
    }
}

/// Executes one grid cell with the guarded stack and an optionally faulty
/// telemetry link, returning the record plus the guardian's final metrics
/// (checker counters + mode-transition grid).
fn run_guarded(
    config: FaultConfig,
    spec: &RunSpec,
) -> Result<(RunRecord, MetricsSnapshot), String> {
    let scenario =
        Scenario::of_kind(spec.scenario).map_err(|e| format!("cell {}: {e}", spec.index))?;
    let stack_config = run::stack_config(&scenario, spec.controller).with_estimator(spec.estimator);
    let stack = AdStack::new(stack_config, scenario.track.clone());
    let mut guardian = Guardian::new(
        stack,
        standard_catalog(&scenario),
        GuardianConfig::default(),
    );
    if let Some((kind, rate)) = config {
        let fault = FaultSpec::new(kind, rate, Window::always());
        guardian = guardian.with_telemetry_fault(fault.injector(spec.seed));
    }
    let engine = run::engine_for(&scenario, spec.seed);
    let out = match spec.attack {
        Some(attack) => {
            let mut injector = attack.injector(spec.seed);
            engine.run_with_tap(&mut guardian, &mut injector)
        }
        None => engine.run(&mut guardian),
    }
    .map_err(|e| {
        format!(
            "guarded cell {} ({}): {e}",
            spec.index,
            config_label(config)
        )
    })?;
    let guard_state = match guardian.state() {
        GuardState::Nominal => "nominal",
        GuardState::Degraded { .. } => "degraded",
        GuardState::SafeStop { .. } => "safe_stop",
    };
    let end = out.trace.span().map_or(scenario.duration, |(_, end)| end);
    let (report, metrics) = guardian.into_report_observed(end);
    let mut record = RunRecord::from_run(spec, &out, &report);
    record.fault = config.map(|(kind, _)| kind.name().to_owned());
    record.fault_rate = config.map(|(_, rate)| rate);
    record.guard_state = Some(guard_state.to_owned());
    Ok((record, metrics))
}

/// Detection rate over attacked runs and false-alarm rate over clean runs.
fn rates(records: &[&RunRecord]) -> (f64, f64) {
    let frac = |hit: usize, total: usize| {
        if total == 0 {
            0.0
        } else {
            hit as f64 / total as f64
        }
    };
    let attacked: Vec<_> = records.iter().filter(|r| r.attack.is_some()).collect();
    let clean: Vec<_> = records.iter().filter(|r| r.attack.is_none()).collect();
    (
        frac(
            attacked.iter().filter(|r| r.detected).count(),
            attacked.len(),
        ),
        frac(clean.iter().filter(|r| r.detected).count(), clean.len()),
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = std::env::args().any(|arg| arg == "--smoke");

    let (scenarios, controllers, seeds): (Vec<_>, Vec<_>, Vec<u64>) = if smoke {
        (
            vec![ScenarioKind::Straight],
            vec![ControllerKind::PurePursuit],
            vec![1],
        )
    } else {
        (
            ScenarioKind::GUARDIAN_SET.to_vec(),
            vec![ControllerKind::PurePursuit, ControllerKind::Stanley],
            vec![1, 2],
        )
    };
    let mut configs: Vec<FaultConfig> = vec![None];
    if smoke {
        configs.push(Some((FaultKind::Dropout, 0.2)));
    } else {
        for kind in FaultKind::ALL {
            for rate in [0.05, 0.2] {
                configs.push(Some((kind, rate)));
            }
        }
    }

    let grid = Grid::new()
        .scenarios(scenarios)
        .controllers(controllers)
        .attacks(AttackSet::Standard)
        .include_clean(true)
        .seeds(seeds);
    let mut cells = grid.cells();
    if smoke {
        // The clean cell plus the first two attacked cells.
        cells.truncate(3);
    }

    let jobs: Vec<(FaultConfig, RunSpec)> = configs
        .iter()
        .flat_map(|config| cells.iter().map(|cell| (*config, *cell)))
        .collect();
    let outcomes = Runtime::global()
        .map(&jobs, |(config, spec)| run_guarded(*config, spec))
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    // Deterministic roll-up: merge per-run metrics in job order (the same
    // order whatever ADASSURE_THREADS says) and record each detection
    // latency.
    let mut merged = MetricsSnapshot::empty();
    let mut runs: Vec<RunRecord> = Vec::with_capacity(outcomes.len());
    for (record, metrics) in outcomes {
        merged.merge(&metrics);
        if let Some(latency) = record.detection_latency {
            merged.detection_latency_s.record(latency);
        }
        runs.push(record);
    }

    // Per-configuration aggregates, with deltas against the clean link.
    let records_of = |config: FaultConfig| -> Vec<&RunRecord> {
        let label = config.map(|(kind, _)| kind.name().to_owned());
        let rate = config.map(|(_, rate)| rate);
        runs.iter()
            .filter(|r| r.fault == label && r.fault_rate == rate)
            .collect()
    };
    let (base_detection, base_false_alarm) = rates(&records_of(None));
    let summaries: Vec<GroupSummary> = configs
        .iter()
        .map(|&config| {
            let records = records_of(config);
            let (detection_rate, false_alarm_rate) = rates(&records);
            GroupSummary {
                group: config_label(config),
                runs: records.len(),
                detection_rate,
                false_alarm_rate,
                detection_delta: detection_rate - base_detection,
                false_alarm_delta: false_alarm_rate - base_false_alarm,
            }
        })
        .collect();

    println!(
        "T5: degraded-telemetry robustness ({} cells x {} link configs{})",
        cells.len(),
        configs.len(),
        if smoke { ", smoke slice" } else { "" }
    );
    println!(
        "\n{:<22} {:>5} {:>10} {:>10} {:>8} {:>8}  final guard states",
        "link fault", "runs", "det", "false", "Δdet", "Δfalse"
    );
    for (summary, &config) in summaries.iter().zip(&configs) {
        let mut counts: Vec<(String, usize)> = Vec::new();
        for record in records_of(config) {
            let state = record.guard_state.clone().unwrap_or_default();
            match counts.iter_mut().find(|(s, _)| *s == state) {
                Some((_, n)) => *n += 1,
                None => counts.push((state, 1)),
            }
        }
        counts.sort();
        let states: Vec<String> = counts.iter().map(|(s, n)| format!("{s}:{n}")).collect();
        println!(
            "{:<22} {:>5} {:>9.0}% {:>9.0}% {:>+7.0}% {:>+7.0}%  {}",
            summary.group,
            summary.runs,
            summary.detection_rate * 100.0,
            summary.false_alarm_rate * 100.0,
            summary.detection_delta * 100.0,
            summary.false_alarm_delta * 100.0,
            states.join(" ")
        );
    }
    println!("\n(detection is measured on attacked runs, false alarms on clean runs;");
    println!(" deltas are against the clean-link baseline. Inconclusive monitors and");
    println!(" the guardian's limp-home mode absorb link faults instead of stopping");
    println!(" a healthy vehicle.)");

    let name = if smoke {
        "table5_robustness_smoke"
    } else {
        "table5_robustness"
    };
    let report = CampaignReport {
        name: name.to_owned(),
        runs,
        summaries,
        obs: merged.summary(),
    };
    let path = report
        .write_json("results")
        .map_err(|e| format!("write results json: {e}"))?;
    println!("\nwrote {}", path.display());
    Ok(())
}
