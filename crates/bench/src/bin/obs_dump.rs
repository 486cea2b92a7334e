//! Dumps the monitor's observability snapshot for a seeded campaign
//! slice: runs the cells through the observed checker, merges the
//! per-cell metrics deterministically (cell order) and prints the result
//! as Prometheus text exposition (default) or a pretty JSON snapshot
//! (`--json`).
//!
//! Unlike the campaign report's embedded [`adassure_obs::ObsSummary`],
//! this dump is the *full* [`adassure_obs::MetricsSnapshot`], including
//! the wall-clock `eval_cycle_ns` histogram — the dump is for operators,
//! not for byte-reproducible results files.
//!
//! Observability is configured from `ADASSURE_OBS` / `ADASSURE_OBS_PATH`
//! (set the latter to also write the structured JSONL event log); when
//! `ADASSURE_OBS` is unset the dump defaults to fully enabled, because
//! dumping with observability off would be pointless.
//!
//! Usage: `obs_dump [--smoke] [--json]`.

use adassure_control::ControllerKind;
use adassure_exp::campaign::{self, standard_catalog};
use adassure_exp::grid::AttackSet;
use adassure_exp::{Grid, Runtime};
use adassure_obs::{
    export, Event, EventSink, JsonlWriter, MetricsSnapshot, ObsConfig, VecSink, OBS_ENV,
};
use adassure_scenarios::{Scenario, ScenarioKind};

fn main() {
    let smoke = std::env::args().any(|arg| arg == "--smoke");
    let as_json = std::env::args().any(|arg| arg == "--json");

    let mut obs = ObsConfig::from_env();
    if !obs.events && std::env::var(OBS_ENV).is_err() {
        let path = obs.jsonl_path.take();
        obs = ObsConfig::enabled();
        obs.jsonl_path = path;
    }

    let (scenarios, seeds): (Vec<_>, Vec<u64>) = if smoke {
        (vec![ScenarioKind::Straight], vec![1])
    } else {
        (
            vec![ScenarioKind::Straight, ScenarioKind::SCurve],
            vec![1, 2],
        )
    };
    let grid = Grid::new()
        .scenarios(scenarios)
        .controllers([ControllerKind::PurePursuit])
        .attacks(AttackSet::Standard)
        .include_clean(true)
        .seeds(seeds);
    let cells = grid.cells();

    let mut catalogs: Vec<(ScenarioKind, Vec<adassure_core::Assertion>)> = Vec::new();
    for cell in &cells {
        if !catalogs.iter().any(|(kind, _)| *kind == cell.scenario) {
            let scenario = Scenario::of_kind(cell.scenario).expect("library scenario");
            catalogs.push((cell.scenario, standard_catalog(&scenario)));
        }
    }

    let collect_events = obs.events && obs.jsonl_path.is_some();
    let outcomes = Runtime::global().map(&cells, |spec| {
        let cat = &catalogs
            .iter()
            .find(|(kind, _)| *kind == spec.scenario)
            .expect("catalog resolved")
            .1;
        let sink: Box<dyn EventSink> = if collect_events {
            Box::new(VecSink::default())
        } else {
            Box::new(adassure_obs::NullSink)
        };
        let (output, report, metrics, sink) =
            campaign::execute_observed(spec, cat, &obs, sink).expect("library slice runs");
        let latency = report
            .first_detection_after(spec.alarm_start())
            .map(|v| v.detected - spec.alarm_start());
        std::hint::black_box(output.reached_goal);
        let events = sink.map(|mut s| s.take_events()).unwrap_or_default();
        (metrics, latency, events)
    });

    let mut merged = MetricsSnapshot::empty();
    let mut events: Vec<Event> = Vec::new();
    for (metrics, latency, cell_events) in outcomes {
        merged.merge(&metrics);
        if let Some(latency) = latency {
            merged.detection_latency_s.record(latency);
        }
        events.extend(cell_events);
    }

    if let Some(path) = &obs.jsonl_path {
        let file = std::fs::File::create(path).expect("create event log");
        let mut writer = JsonlWriter::new(std::io::BufWriter::new(file));
        for ev in &events {
            writer.emit(*ev);
        }
        writer.flush().expect("flush event log");
        eprintln!("wrote {} events to {}", writer.lines(), path.display());
    }

    if as_json {
        println!("{}", export::json(&merged));
    } else {
        print!("{}", export::prometheus(&merged));
    }

    if let (Some(p50), Some(p99)) = (merged.eval_cycle_ns.p50(), merged.eval_cycle_ns.p99()) {
        eprintln!(
            "eval cycle latency: p50 <= {p50:.0} ns, p99 <= {p99:.0} ns over {} cycles",
            merged.eval_cycle_ns.count
        );
    }
}
