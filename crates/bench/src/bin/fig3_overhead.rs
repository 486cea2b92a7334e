//! **F3 — Online monitoring overhead**: wall-clock cost of the incremental
//! checker per control cycle as a function of catalog size, against the
//! 10 ms cycle budget of a 100 Hz loop.
//!
//! The trace is grouped into cycles once, by the offline checker's own
//! sweep (`checker::for_each_cycle`), so the timed loop is only the
//! checker's `begin_cycle` / `update` / `end_cycle`.
//!
//! (Criterion micro-benchmarks of the same path live in `benches/checker.rs`;
//! this binary prints the paper-style table.)
//!
//! Regenerate with:
//! `cargo run --release -p adassure-bench --bin fig3_overhead`

use std::time::Instant;

use adassure_control::pipeline::EstimatorKind;
use adassure_control::ControllerKind;
use adassure_core::{checker, OnlineChecker};
use adassure_exp::campaign::{execute, standard_catalog};
use adassure_exp::RunSpec;
use adassure_scenarios::{Scenario, ScenarioKind};

fn main() {
    let scenario = Scenario::of_kind(ScenarioKind::SCurve).expect("library scenario");
    let full_catalog = standard_catalog(&scenario);
    // The trace under replay comes from the campaign executor, like every
    // other harness's runs.
    let spec = RunSpec {
        index: 0,
        scenario: scenario.kind,
        controller: ControllerKind::PurePursuit,
        estimator: EstimatorKind::Complementary,
        attack: None,
        seed: 1,
    };
    let (out, _) = execute(&spec, &full_catalog).expect("clean run");

    // Pre-group samples into cycles so the measured loop is only the checker.
    let mut cycles: Vec<(f64, Vec<(adassure_trace::SignalId, f64)>)> = Vec::new();
    checker::for_each_cycle(&out.trace, |t, cycle| {
        cycles.push((t, cycle.iter().map(|&(id, v)| (id.clone(), v)).collect()));
    });

    println!(
        "F3: online checker cost per 100 Hz control cycle ({} cycles replayed)\n",
        cycles.len()
    );
    println!(
        "{:>12} {:>14} {:>16} {:>16}",
        "assertions", "ns/cycle", "us/cycle", "% of 10ms budget"
    );

    for n in [1usize, 4, 8, full_catalog.len()] {
        let catalog: Vec<_> = full_catalog.iter().take(n).cloned().collect();
        // Warm-up pass, then measure.
        for _ in 0..2 {
            run_once(&catalog, &cycles);
        }
        let repeats = 5;
        let mut best = f64::INFINITY;
        for _ in 0..repeats {
            let elapsed = run_once(&catalog, &cycles);
            best = best.min(elapsed);
        }
        let ns_per_cycle = best * 1e9 / cycles.len() as f64;
        println!(
            "{:>12} {:>14.0} {:>16.3} {:>15.4}%",
            n,
            ns_per_cycle,
            ns_per_cycle / 1000.0,
            ns_per_cycle / 10_000_000.0 * 100.0
        );
    }
    println!("\n(the full catalog costs well under 0.1 % of the cycle budget, so");
    println!(" running ADAssure online is effectively free for the control loop.)");
}

fn run_once(
    catalog: &[adassure_core::Assertion],
    cycles: &[(f64, Vec<(adassure_trace::SignalId, f64)>)],
) -> f64 {
    let mut checker = OnlineChecker::new(catalog.iter().cloned());
    let start = Instant::now();
    for (t, updates) in cycles {
        checker.begin_cycle(*t).unwrap();
        for (id, v) in updates {
            checker.update(id.clone(), *v);
        }
        checker.end_cycle();
    }
    let elapsed = start.elapsed().as_secs_f64();
    std::hint::black_box(checker.violations().len());
    elapsed
}
