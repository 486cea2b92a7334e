//! Campaign execution: the single entry point from a grid cell to a
//! structured record.
//!
//! Every harness — tables, figures and ablations alike — reaches the
//! simulator through [`execute`] (or through [`Campaign::run`], which maps
//! it over a whole grid in parallel), so scenario wiring, catalog choice,
//! checking and record construction are decided in exactly one place.

use adassure_control::pipeline::AdStack;
use adassure_core::catalog::{self, CatalogConfig};
use adassure_core::{checker, lane, Assertion, CheckReport, HealthConfig};
use adassure_obs::{
    Event as ObsEvent, EventSink, JsonlWriter, MetricsSnapshot, NullSink, ObsConfig, VecSink,
};
use adassure_scenarios::{run, Scenario};
use adassure_sim::engine::SimOutput;
use adassure_sim::SimError;
use adassure_trace::ColumnarTrace;

use crate::grid::{Grid, RunSpec};
use crate::record::{CampaignReport, RunRecord};
use crate::runtime::Runtime;

/// Picks an assertion catalog for a scenario. Campaigns default to
/// [`standard_catalog`]; the mining and ablation studies substitute their
/// own (mined, reduced or rescaled) catalogs through
/// [`Campaign::with_catalog`].
pub type CatalogSource<'a> = dyn Fn(&Scenario) -> Vec<Assertion> + Send + Sync + 'a;

/// The catalog configuration matched to a scenario: goal-distance for open
/// routes (enabling A12), defaults otherwise.
pub fn catalog_config_for(scenario: &Scenario) -> CatalogConfig {
    let config = CatalogConfig::default();
    if scenario.track.is_closed() {
        config
    } else {
        config.with_goal_distance(scenario.route_length())
    }
}

/// The standard catalog for a scenario.
pub fn standard_catalog(scenario: &Scenario) -> Vec<Assertion> {
    catalog::build(&catalog_config_for(scenario))
}

/// Executes one grid cell against a catalog: builds the scenario and stack,
/// runs the engine (injecting the cell's attack, if any) and checks the
/// trace.
///
/// # Errors
///
/// Propagates simulator errors ([`SimError`]); standard scenarios with
/// standard stacks never produce one.
pub fn execute(spec: &RunSpec, cat: &[Assertion]) -> Result<(SimOutput, CheckReport), SimError> {
    execute_observed(spec, cat, &ObsConfig::disabled(), Box::new(NullSink))
        .map(|(output, report, _, _)| (output, report))
}

/// One observed cell: simulation output, check report, the checker's
/// metrics, and the sink handed back (carrying any retained events).
pub type ObservedRun = (
    SimOutput,
    CheckReport,
    MetricsSnapshot,
    Option<Box<dyn EventSink>>,
);

/// [`execute`] with the observability layer attached: the cell is checked
/// through [`checker::check_observed`] with the cell index as the run id,
/// and the checker's metrics plus the (possibly event-laden) sink are
/// returned alongside the simulation output and report.
///
/// Observability never perturbs the verdicts: the `CheckReport` is
/// bit-identical to the one [`execute`] produces for the same cell.
///
/// # Errors
///
/// Propagates simulator errors ([`SimError`]); standard scenarios with
/// standard stacks never produce one.
pub fn execute_observed(
    spec: &RunSpec,
    cat: &[Assertion],
    obs: &ObsConfig,
    sink: Box<dyn EventSink>,
) -> Result<ObservedRun, SimError> {
    let output = simulate(spec)?;
    let (mut report, metrics, sink) = checker::check_observed(
        cat,
        HealthConfig::default(),
        &output.trace,
        spec.index as u64,
        obs,
        sink,
    );
    report.context = Some(spec.context());
    Ok((output, report, metrics, sink))
}

/// Runs one grid cell's simulation (scenario, stack, engine, injected
/// attack) without checking the trace. [`execute_observed`] couples it to
/// the scalar checker; a campaign run without events couples it to the
/// columnar engine ([`lane`]).
///
/// # Errors
///
/// Propagates simulator errors ([`SimError`]).
pub fn simulate(spec: &RunSpec) -> Result<SimOutput, SimError> {
    let scenario = Scenario::of_kind(spec.scenario)?;
    let config = run::stack_config(&scenario, spec.controller).with_estimator(spec.estimator);
    let mut stack = AdStack::new(config, scenario.track.clone());
    let engine = run::engine_for(&scenario, spec.seed);
    match spec.attack {
        Some(attack) => {
            let mut injector = attack.injector(spec.seed);
            engine.run_with_tap(&mut stack, &mut injector)
        }
        None => engine.run(&mut stack),
    }
}

/// A named grid plus a catalog source: one experiment campaign.
pub struct Campaign<'a> {
    name: String,
    grid: Grid,
    catalog: Box<CatalogSource<'a>>,
    runtime: Runtime,
}

impl std::fmt::Debug for Campaign<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Campaign")
            .field("name", &self.name)
            .field("grid", &self.grid)
            .finish_non_exhaustive()
    }
}

impl<'a> Campaign<'a> {
    /// A campaign over `grid` using the standard per-scenario catalog.
    pub fn new(name: impl Into<String>, grid: Grid) -> Self {
        Campaign {
            name: name.into(),
            grid,
            catalog: Box::new(standard_catalog),
            runtime: Runtime::global(),
        }
    }

    /// Replaces the catalog source (mined, reduced or rescaled catalogs).
    pub fn with_catalog(
        mut self,
        source: impl Fn(&Scenario) -> Vec<Assertion> + Send + Sync + 'a,
    ) -> Self {
        self.catalog = Box::new(source);
        self
    }

    /// Replaces the worker runtime (default: [`Runtime::global`], the
    /// `ADASSURE_THREADS`-steered process pool). The determinism tests use
    /// this to compare serial and parallel executions without mutating the
    /// process environment.
    pub fn with_runtime(mut self, runtime: Runtime) -> Self {
        self.runtime = runtime;
        self
    }

    /// The campaign's grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Executes every cell of the grid — in parallel, deterministically —
    /// and collects the records in cell order.
    ///
    /// Observability is configured from the environment
    /// ([`ObsConfig::from_env`], the `ADASSURE_OBS` / `ADASSURE_OBS_PATH`
    /// variables), mirroring how `ADASSURE_THREADS` steers the worker
    /// pool. With observability off this is exactly the pre-observability
    /// campaign path; either way the report is byte-identical because the
    /// embedded [`adassure_obs::ObsSummary`] never includes wall-clock
    /// measurements.
    ///
    /// # Errors
    ///
    /// Propagates the first simulator error in cell order.
    pub fn run(&self) -> Result<CampaignReport, SimError> {
        self.run_observed(&ObsConfig::from_env())
    }

    /// [`run`](Campaign::run) with an explicit observability configuration.
    ///
    /// Per-cell metrics are merged into one campaign-level
    /// [`MetricsSnapshot`] *in cell order*, so the roll-up is independent
    /// of worker count and scheduling. The campaign also records every
    /// cell's detection latency into the snapshot's
    /// `detection_latency_s` histogram. When `obs` carries a JSONL path,
    /// all per-cell events (run id = cell index) are written there in
    /// cell order; JSONL I/O failures are reported on stderr but never
    /// fail the campaign.
    ///
    /// # Errors
    ///
    /// Propagates the first simulator error in cell order.
    pub fn run_observed(&self, obs: &ObsConfig) -> Result<CampaignReport, SimError> {
        let cells = self.grid.cells();
        // Catalogs depend only on the scenario; resolve each kind once up
        // front instead of per cell.
        let mut catalogs: Vec<(adassure_scenarios::ScenarioKind, Vec<Assertion>)> = Vec::new();
        for cell in &cells {
            if !catalogs.iter().any(|(kind, _)| *kind == cell.scenario) {
                let scenario = Scenario::of_kind(cell.scenario)?;
                catalogs.push((cell.scenario, (self.catalog)(&scenario)));
            }
        }
        // Events are only retained when they have somewhere to go; with no
        // JSONL path a NullSink keeps the filter/counter semantics (and
        // therefore the report bytes) identical while dropping the payload.
        let collect_events = obs.events && obs.jsonl_path.is_some();
        let outcomes = self.runtime.map(&cells, |spec| {
            let cat = &catalogs
                .iter()
                .find(|(kind, _)| *kind == spec.scenario)
                .expect("catalog resolved for every scenario in the grid")
                .1;
            // With no event stream requested, checking is a pure function
            // of the trace, so it runs on the columnar engine. Verdicts and
            // metrics are bit-identical to the scalar path (the embedded
            // summary never includes wall-clock timing); only event
            // emission needs the scalar checker.
            if !obs.events {
                let output = simulate(spec)?;
                let columnar = [ColumnarTrace::from_trace(&output.trace)];
                let (mut report, metrics) =
                    lane::check_columnar_observed(cat, HealthConfig::default(), &columnar)
                        .remove(0);
                report.context = Some(spec.context());
                return Ok((
                    RunRecord::from_run(spec, &output, &report),
                    metrics,
                    Vec::new(),
                ));
            }
            let sink: Box<dyn EventSink> = if collect_events {
                Box::new(VecSink::default())
            } else {
                Box::new(NullSink)
            };
            execute_observed(spec, cat, obs, sink).map(|(output, report, metrics, sink)| {
                let record = RunRecord::from_run(spec, &output, &report);
                let events = sink.map(|mut s| s.take_events()).unwrap_or_default();
                (record, metrics, events)
            })
        });
        let mut merged = MetricsSnapshot::empty();
        let mut events: Vec<ObsEvent> = Vec::new();
        let mut runs: Vec<RunRecord> = Vec::with_capacity(cells.len());
        for outcome in outcomes {
            let (record, metrics, cell_events) = outcome?;
            merged.merge(&metrics);
            if let Some(latency) = record.detection_latency {
                merged.detection_latency_s.record(latency);
            }
            events.extend(cell_events);
            runs.push(record);
        }
        // Only an event run writes the log; the columnar path emits none.
        if let Some(path) = obs.jsonl_path.as_ref().filter(|_| obs.events) {
            if let Err(err) = write_jsonl(path, &events) {
                eprintln!(
                    "warning: campaign {}: failed to write event log {}: {err}",
                    self.name,
                    path.display()
                );
            }
        }
        Ok(CampaignReport {
            name: self.name.clone(),
            runs,
            summaries: Vec::new(),
            obs: merged.summary(),
        })
    }
}

/// Writes `events` (already in cell order) to a JSONL file at `path`,
/// creating parent directories as needed.
fn write_jsonl(path: &std::path::Path, events: &[ObsEvent]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let file = std::fs::File::create(path)?;
    let mut writer = JsonlWriter::new(std::io::BufWriter::new(file));
    for ev in events {
        writer.emit(*ev);
    }
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::AttackSet;
    use adassure_control::ControllerKind;
    use adassure_scenarios::ScenarioKind;

    #[test]
    fn catalog_config_matches_topology() {
        let open = Scenario::of_kind(ScenarioKind::Straight).unwrap();
        assert!(catalog_config_for(&open).goal_distance.is_some());
        let closed = Scenario::of_kind(ScenarioKind::Circle).unwrap();
        assert!(catalog_config_for(&closed).goal_distance.is_none());
    }

    #[test]
    fn execute_detects_a_standard_attack() {
        let grid = Grid::new()
            .attacks(AttackSet::Standard)
            .include_clean(true)
            .seeds([1]);
        let cells = grid.cells();
        let scenario = Scenario::of_kind(ScenarioKind::Straight).unwrap();
        let cat = standard_catalog(&scenario);

        let (clean_out, clean_report) = execute(&cells[0], &cat).unwrap();
        assert!(clean_out.reached_goal);
        assert!(clean_report.is_clean(), "clean run raised {clean_report:?}");

        // Cell 1 is the gnss_bias attack; the catalog must catch it.
        let (_, attacked) = execute(&cells[1], &cat).unwrap();
        assert!(attacked.detection_latency(cells[1].alarm_start()).is_some());
    }

    #[test]
    fn campaign_produces_records_in_cell_order() {
        let grid = Grid::new()
            .scenarios([ScenarioKind::Straight])
            .controllers([ControllerKind::PurePursuit])
            .attacks(AttackSet::None)
            .include_clean(true)
            .seeds([1, 2]);
        let report = Campaign::new("unit_clean", grid).run().unwrap();
        assert_eq!(report.name, "unit_clean");
        assert_eq!(report.runs.len(), 2);
        for (i, run) in report.runs.iter().enumerate() {
            assert_eq!(run.cell, i);
            assert!(run.attack.is_none());
            assert!(!run.detected, "clean false positive: {run:?}");
        }
        assert_eq!(report.runs[0].seed, 1);
        assert_eq!(report.runs[1].seed, 2);
    }

    #[test]
    fn observed_campaign_rolls_up_metrics_in_cell_order() {
        let grid = Grid::new()
            .scenarios([ScenarioKind::Straight])
            .controllers([ControllerKind::PurePursuit])
            .attacks(AttackSet::Standard)
            .include_clean(true)
            .seeds([1]);
        let campaign = Campaign::new("unit_obs", grid);

        let baseline = campaign.run_observed(&ObsConfig::disabled()).unwrap();
        let observed = campaign.run_observed(&ObsConfig::enabled()).unwrap();

        // Observability must not perturb a single verdict or record.
        assert_eq!(baseline.runs, observed.runs);

        // The roll-up actually aggregated: every cycle of every cell is
        // counted, per-assertion verdicts are present, and each detected
        // run contributed one detection-latency sample.
        assert!(observed.obs.cycles > 0);
        assert!(!observed.obs.assertions.is_empty());
        let detected = observed.runs.iter().filter(|r| r.detected).count() as u64;
        assert!(detected > 0, "standard attacks must be detected");
        assert_eq!(observed.obs.detection_latency_s.count, detected);
        assert!(observed.obs.events_emitted > 0);
        // The disabled path counts the same cycles but emits nothing.
        assert_eq!(baseline.obs.cycles, observed.obs.cycles);
        assert_eq!(baseline.obs.events_emitted, 0);
    }

    #[test]
    fn custom_catalogs_are_honoured() {
        let grid = Grid::new().attacks(AttackSet::None).include_clean(true);
        let report = Campaign::new("unit_empty_catalog", grid)
            .with_catalog(|_| Vec::new())
            .run()
            .unwrap();
        assert!(report.runs[0].violated.is_empty());
    }
}
