//! **F3 — Online monitoring overhead**: wall-clock cost of the incremental
//! checker per control cycle as a function of catalog size, against the
//! 10 ms cycle budget of a 100 Hz loop, and the extra cost of the
//! observability layer on top of it.
//!
//! The trace is grouped into cycles once, by the offline checker's own
//! sweep (`checker::for_each_cycle`), so the timed loop is only the
//! checker's `begin_cycle` / `update` / `end_cycle`. Every figure is the
//! best of five timed passes after two warm-up passes.
//!
//! The observability rows replay the full catalog on two checkers in
//! alternation: the plain one, which already keeps verdict counters,
//! transition grids and the 1-in-64 timing sample, and one built with
//! `ObsConfig::enabled()` and a JSONL event sink writing into `io::sink`,
//! so the difference is event filtering and serialization, not disk.
//! They run on the clean drive and on a `gnss_bias` drive, whose alarms
//! put verdict-flip events through the sink. The binary fails unless both
//! checkers end with identical violations and the observed one emitted
//! events: observability must never change a result.
//!
//! Regenerate with:
//! `cargo run --release -p adassure-bench --bin fig3_overhead`

use std::io;
use std::time::Instant;

use adassure_attacks::campaign::{standard_attacks, AttackSpec};
use adassure_control::pipeline::EstimatorKind;
use adassure_control::ControllerKind;
use adassure_core::{checker, Assertion, HealthConfig, OnlineChecker};
use adassure_exp::campaign::{execute, standard_catalog};
use adassure_exp::RunSpec;
use adassure_obs::{JsonlWriter, ObsConfig};
use adassure_scenarios::{Scenario, ScenarioKind};
use adassure_trace::SignalId;

/// One replayed drive: each cycle's timestamp and its signal updates.
type Cycles = Vec<(f64, Vec<(SignalId, f64)>)>;

fn main() {
    let scenario = Scenario::of_kind(ScenarioKind::SCurve).expect("library scenario");
    let full_catalog = standard_catalog(&scenario);
    let gnss_bias = standard_attacks(scenario.attack_start)[0];
    let cycles = replay(&scenario, None, &full_catalog);

    println!(
        "F3: online checker cost per 100 Hz control cycle ({} cycles replayed)\n",
        cycles.len()
    );
    println!(
        "{:>12} {:>14} {:>16} {:>16}",
        "assertions", "ns/cycle", "us/cycle", "% of 10ms budget"
    );

    for n in [1usize, 4, 8, full_catalog.len()] {
        let catalog = &full_catalog[..n];
        let [(ns_per_cycle, _)] =
            best_of([&|| OnlineChecker::new(catalog.iter().cloned())], &cycles);
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

    println!(
        "\nobservability, {} assertions: JSONL events into io::sink against no sink\n",
        full_catalog.len()
    );
    println!(
        "{:>12} {:>11} {:>8} {:>15} {:>18} {:>10}",
        "drive", "violations", "events", "plain ns/cycle", "observed ns/cycle", "overhead"
    );
    let attacked = replay(&scenario, Some(gnss_bias), &full_catalog);
    for (drive, cycles) in [("clean", &cycles), (gnss_bias.name(), &attacked)] {
        let plain = || OnlineChecker::new(full_catalog.iter().cloned());
        let observed = || {
            OnlineChecker::with_observability(
                full_catalog.iter().cloned(),
                HealthConfig::default(),
                &ObsConfig::enabled(),
                Box::new(JsonlWriter::new(io::sink())),
            )
        };
        let [(plain_ns, plain), (observed_ns, observed)] = best_of([&plain, &observed], cycles);
        assert_eq!(
            plain.violations(),
            observed.violations(),
            "observability changed the violations of the {drive} drive"
        );
        let events = observed.metrics().events_emitted;
        assert!(events > 0, "the observed {drive} pass emitted no events");
        println!(
            "{:>12} {:>11} {:>8} {:>15.0} {:>18.0} {:>9.1}%",
            drive,
            plain.violations().len(),
            events,
            plain_ns,
            observed_ns,
            100.0 * (observed_ns - plain_ns) / plain_ns
        );
    }
}

/// Simulates one S-curve drive through the campaign executor, like every
/// other harness's runs, and groups its samples into cycles so the
/// measured loop is only the checker.
fn replay(scenario: &Scenario, attack: Option<AttackSpec>, catalog: &[Assertion]) -> Cycles {
    let spec = RunSpec {
        index: 0,
        scenario: scenario.kind,
        controller: ControllerKind::PurePursuit,
        estimator: EstimatorKind::Complementary,
        attack,
        seed: 1,
    };
    let (out, _) = execute(&spec, catalog).expect("simulated drive");
    let mut cycles = Cycles::new();
    checker::for_each_cycle(&out.trace, |t, cycle| {
        cycles.push((t, cycle.iter().map(|&(id, v)| (id.clone(), v)).collect()));
    });
    cycles
}

/// Replays `cycles` through a fresh checker from each of `makes` in turn,
/// for two warm-up rounds and five timed ones, and returns each maker's
/// best timed pass in ns per cycle with its last checker. Alternating the
/// makers within a round puts them through the same machine state, so
/// their ratio holds even when the machine's speed drifts between rounds.
fn best_of<const N: usize>(
    makes: [&dyn Fn() -> OnlineChecker; N],
    cycles: &Cycles,
) -> [(f64, OnlineChecker); N] {
    let mut best = [f64::INFINITY; N];
    let mut last: [Option<OnlineChecker>; N] = std::array::from_fn(|_| None);
    for round in 0..7 {
        for (i, make) in makes.iter().enumerate() {
            let mut checker = make();
            let start = Instant::now();
            for (t, updates) in cycles {
                checker.begin_cycle(*t).expect("replayed cycles advance");
                for (id, v) in updates {
                    checker.update(id.clone(), *v);
                }
                checker.end_cycle();
            }
            let elapsed = start.elapsed().as_secs_f64();
            if round >= 2 {
                best[i] = best[i].min(elapsed);
            }
            last[i] = Some(checker);
        }
    }
    std::array::from_fn(|i| {
        let checker = last[i].take().expect("seven rounds ran");
        (best[i] * 1e9 / cycles.len() as f64, checker)
    })
}
