//! Machine-readable checker throughput numbers for the compiled
//! evaluation plan, written to `BENCH_checker.json` at the repo root.
//!
//! Two measurements, matching the criterion micro-benchmarks in
//! `benches/checker.rs` so the numbers are directly comparable:
//!
//! * **online** — the `online_checker/100_cycles_16_assertions` workload:
//!   99 steady-state cycles updating all 30 well-known signals against the
//!   standard catalog;
//! * **offline** — `checker::check` of a clean 75 s Straight-scenario
//!   trace against the standard catalog, plus the parallel many-trace
//!   batch throughput of [`adassure_exp::check_traces`] and the
//!   columnar path ([`adassure_exp::check_columnar_traces`] over
//!   pre-converted `.adt`-shaped traces).
//!
//! Baselines are the same workloads measured at the pre-compilation
//! checker (commit `1cc72db`, tree-walking `HashMap` environment).
//!
//! Regenerate with:
//! `cargo run --release -p adassure-bench --bin bench_throughput`

use std::time::Instant;

use adassure_bench::{catalog_for, run_clean};
use adassure_control::ControllerKind;
use adassure_core::catalog::{self, CatalogConfig};
use adassure_core::{checker, HealthConfig, OnlineChecker};
use adassure_exp::{check_columnar_traces, check_traces, par, Runtime};
use adassure_obs::{JsonlWriter, ObsConfig};
use adassure_scenarios::{Scenario, ScenarioKind};
use adassure_trace::{ColumnarTrace, SignalId, Trace};
use serde::Serialize;

/// `online_checker/100_cycles_16_assertions` on the pre-compilation
/// checker (commit 1cc72db), measured on this configuration.
const BASELINE_ONLINE_NS: f64 = 99_027.0;
/// `offline_check/75s_trace_16_assertions` at the same baseline.
const BASELINE_OFFLINE_NS: f64 = 19_271_433.0;

#[derive(Serialize)]
struct Report {
    benchmark: &'static str,
    baseline: &'static str,
    regenerate: &'static str,
    online: Comparison,
    offline: Comparison,
    offline_batch: Batch,
    offline_columnar: ColumnarBatch,
    obs_overhead: ObsOverhead,
}

#[derive(Serialize)]
struct ObsOverhead {
    id: &'static str,
    plain_ns: f64,
    observed_ns: f64,
    overhead_pct: f64,
}

#[derive(Serialize)]
struct Comparison {
    id: &'static str,
    baseline_ns: f64,
    current_ns: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct Batch {
    traces: usize,
    workers: usize,
    wall_ms: f64,
    traces_per_sec: f64,
}

#[derive(Serialize)]
struct ColumnarBatch {
    traces: usize,
    workers: usize,
    wall_ms: f64,
    traces_per_sec: f64,
    baseline_traces_per_sec: f64,
    speedup: f64,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let online_ns = measure_online()?;
    let observed_ns = measure_online_observed()?;
    let (offline_ns, batch, columnar) = measure_offline()?;
    let obs_overhead = ObsOverhead {
        id: "online_checker/100_cycles_16_assertions+jsonl",
        plain_ns: online_ns,
        observed_ns,
        overhead_pct: 100.0 * (observed_ns - online_ns) / online_ns,
    };

    let report = Report {
        benchmark: "checker_throughput",
        baseline: "pre-compilation checker (commit 1cc72db)",
        regenerate: "cargo run --release -p adassure-bench --bin bench_throughput",
        online: Comparison {
            id: "online_checker/100_cycles_16_assertions",
            baseline_ns: BASELINE_ONLINE_NS,
            current_ns: online_ns,
            speedup: BASELINE_ONLINE_NS / online_ns,
        },
        offline: Comparison {
            id: "offline_check/75s_trace_16_assertions",
            baseline_ns: BASELINE_OFFLINE_NS,
            current_ns: offline_ns,
            speedup: BASELINE_OFFLINE_NS / offline_ns,
        },
        offline_batch: batch,
        offline_columnar: columnar,
        obs_overhead,
    };

    println!(
        "online : {:>12.0} ns/iter  ({:.1}x over baseline {:.0} ns)",
        report.online.current_ns, report.online.speedup, BASELINE_ONLINE_NS
    );
    println!(
        "offline: {:>12.0} ns/check ({:.1}x over baseline {:.0} ns)",
        report.offline.current_ns, report.offline.speedup, BASELINE_OFFLINE_NS
    );
    println!(
        "batch  : {} traces on {} workers in {:.1} ms ({:.0} traces/sec)",
        report.offline_batch.traces,
        report.offline_batch.workers,
        report.offline_batch.wall_ms,
        report.offline_batch.traces_per_sec
    );
    println!(
        "columnar: {} traces on {} workers in {:.1} ms ({:.0} traces/sec, {:.1}x over {:.0}/sec)",
        report.offline_columnar.traces,
        report.offline_columnar.workers,
        report.offline_columnar.wall_ms,
        report.offline_columnar.traces_per_sec,
        report.offline_columnar.speedup,
        report.offline_columnar.baseline_traces_per_sec
    );
    println!(
        "obs    : {:>12.0} ns/iter with metrics+JSONL ({:+.1}% over plain)",
        report.obs_overhead.observed_ns, report.obs_overhead.overhead_pct
    );

    let json =
        serde_json::to_string_pretty(&report).map_err(|e| format!("serialize report: {e}"))?;
    std::fs::write("BENCH_checker.json", json + "\n")
        .map_err(|e| format!("write BENCH_checker.json: {e}"))?;
    println!("wrote BENCH_checker.json");
    Ok(())
}

/// The criterion online workload: warmed checker, then 99 cycles updating
/// all 30 well-known signals. Returns best mean ns per 99-cycle iteration.
fn measure_online() -> Result<f64, String> {
    measure_online_with(|cat| OnlineChecker::new(cat.iter().cloned()))
}

/// The same workload with the full observability layer attached: verdict
/// counters, transition grids, the default 1-in-64 timing sample and a
/// JSONL event sink (into `io::sink`, so the cost measured is
/// serialization, not disk).
fn measure_online_observed() -> Result<f64, String> {
    measure_online_with(|cat| {
        OnlineChecker::with_observability(
            cat.iter().cloned(),
            HealthConfig::default(),
            &ObsConfig::enabled(),
            Box::new(JsonlWriter::new(std::io::sink())),
        )
    })
}

fn measure_online_with(
    make: impl Fn(&[adassure_core::Assertion]) -> OnlineChecker,
) -> Result<f64, String> {
    let cat = catalog::build(&CatalogConfig::default().with_goal_distance(300.0));
    let signals: Vec<SignalId> = adassure_trace::well_known::ALL
        .iter()
        .map(SignalId::new)
        .collect();

    let run_iter = |checker: &mut OnlineChecker| -> Result<(), String> {
        for i in 1..100u32 {
            let t = f64::from(i) * 0.01;
            checker
                .begin_cycle(t)
                .map_err(|e| format!("begin cycle at t={t}: {e}"))?;
            for s in &signals {
                checker.update(s.clone(), 0.1 + f64::from(i) * 1e-4);
            }
            checker.end_cycle();
        }
        Ok(())
    };

    let mut best = f64::INFINITY;
    for _ in 0..7 {
        let iters = 200u32;
        let mut total = 0.0;
        for _ in 0..iters {
            let mut checker = make(&cat);
            checker
                .begin_cycle(0.0)
                .map_err(|e| format!("begin warm-up cycle: {e}"))?;
            for s in &signals {
                checker.update(s.clone(), 0.1);
            }
            checker.end_cycle();
            let start = Instant::now();
            run_iter(&mut checker)?;
            total += start.elapsed().as_secs_f64();
            std::hint::black_box(checker.violations().len());
        }
        best = best.min(total * 1e9 / f64::from(iters));
    }
    Ok(best)
}

/// `offline_batch` (16 traces of one 75 s Straight run each) measured at
/// the scalar per-trace batch path, before the columnar engine landed. The
/// columnar entry reports its speedup against this.
const BASELINE_BATCH_TRACES_PER_SEC: f64 = 222.39;

/// The criterion offline workload (single-trace `checker::check`) plus the
/// parallel batch throughput over campaign-generated traces — once through
/// the `Trace`-input path and once over pre-converted columnar documents
/// (the `.adt` corpus shape, conversion outside the timed region).
fn measure_offline() -> Result<(f64, Batch, ColumnarBatch), String> {
    let scenario =
        Scenario::of_kind(ScenarioKind::Straight).map_err(|e| format!("workload scenario: {e}"))?;
    let cat = catalog_for(&scenario);

    // Campaign-generated traces, one per seed, produced in parallel like
    // any other harness sweep.
    let seeds: Vec<u64> = (1..=16).collect();
    let traces: Vec<Trace> = par::map(&seeds, |&seed| {
        run_clean(&scenario, ControllerKind::PurePursuit, seed, &cat)
            .map(|(out, _)| out.trace)
            .map_err(|e| format!("clean run, seed {seed}: {e}"))
    })
    .into_iter()
    .collect::<Result<_, _>>()?;

    // Single-trace serial check: comparable to the criterion bench.
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        let report = checker::check(&cat, &traces[0]);
        let elapsed = start.elapsed().as_secs_f64();
        std::hint::black_box(report.violations.len());
        best = best.min(elapsed * 1e9);
    }

    // Parallel batch: all traces across the campaign thread pool, one
    // work item per trace.
    let mut batch_best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        let reports = check_traces(&cat, &traces);
        let elapsed = start.elapsed().as_secs_f64();
        std::hint::black_box(reports.len());
        batch_best = batch_best.min(elapsed);
    }
    let batch = Batch {
        traces: traces.len(),
        workers: Runtime::global().effective_workers(traces.len()),
        wall_ms: batch_best * 1e3,
        traces_per_sec: traces.len() as f64 / batch_best,
    };

    // Columnar batch: the `.adt` corpus fast path — documents already in
    // columnar form, so the timed region is pure columnar checking.
    let columnar_traces: Vec<ColumnarTrace> =
        traces.iter().map(ColumnarTrace::from_trace).collect();
    let mut columnar_best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        let reports = check_columnar_traces(&cat, &columnar_traces);
        let elapsed = start.elapsed().as_secs_f64();
        std::hint::black_box(reports.len());
        columnar_best = columnar_best.min(elapsed);
    }
    let columnar_tps = traces.len() as f64 / columnar_best;
    let columnar = ColumnarBatch {
        traces: traces.len(),
        workers: Runtime::global().effective_workers(traces.len()),
        wall_ms: columnar_best * 1e3,
        traces_per_sec: columnar_tps,
        baseline_traces_per_sec: BASELINE_BATCH_TRACES_PER_SEC,
        speedup: columnar_tps / BASELINE_BATCH_TRACES_PER_SEC,
    };
    Ok((best, batch, columnar))
}
