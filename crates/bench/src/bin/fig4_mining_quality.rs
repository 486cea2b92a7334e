//! **F4 — Mined vs hand-tuned thresholds**: false positives on held-out
//! golden runs and detection rate/latency on the standard attack set, for
//! the hand catalog and catalogs mined from 1 / 3 / 5 golden runs.
//!
//! Regenerate with:
//! `cargo run --release -p adassure-bench --bin fig4_mining_quality`

use adassure_control::pipeline::EstimatorKind;
use adassure_control::ControllerKind;
use adassure_core::mining::{self, MiningConfig};
use adassure_core::{catalog, Assertion};
use adassure_exp::agg::{fmt_mean_std, latencies};
use adassure_exp::campaign::{catalog_config_for, execute};
use adassure_exp::{AttackSet, Campaign, Grid, RunSpec, Runtime};
use adassure_scenarios::{Scenario, ScenarioKind};

fn main() {
    let scenario = Scenario::of_kind(ScenarioKind::SCurve).expect("library scenario");
    let controller = ControllerKind::PurePursuit;
    let base = catalog_config_for(&scenario);

    // Golden training pool: clean cells through the campaign executor, with
    // an empty catalog (nothing to check — only the traces matter).
    let train_seeds: Vec<u64> = (100..105).collect();
    let train_cells: Vec<RunSpec> = train_seeds
        .iter()
        .enumerate()
        .map(|(index, &seed)| RunSpec {
            index,
            scenario: scenario.kind,
            controller,
            estimator: EstimatorKind::Complementary,
            attack: None,
            seed,
        })
        .collect();
    let golden: Vec<_> = Runtime::global().map(&train_cells, |spec| {
        execute(spec, &[]).expect("golden run").0.trace
    });

    let hand = catalog::build(&base);
    let variants: Vec<(String, Vec<Assertion>)> = {
        let mut v = vec![("hand-tuned".to_owned(), hand)];
        for n in [1usize, 3, 5] {
            let refs: Vec<_> = golden.iter().take(n).collect();
            v.push((
                format!("mined({n} runs)"),
                mining::mined_catalog(&base, &refs, &MiningConfig::default()),
            ));
        }
        v
    };

    let holdout_seeds: Vec<u64> = (200..210).collect();
    let attack_count = AttackSet::Standard.specs(0.0).len();
    println!(
        "F4: mined vs hand-tuned catalogs (scenario `{}`, {} stack)",
        scenario.kind, controller
    );
    println!(
        "false positives over {} held-out golden runs; detection over the {} standard attacks x 3 seeds\n",
        holdout_seeds.len(),
        attack_count
    );
    println!(
        "{:<16} {:>14} {:>12} {:>16}",
        "catalog", "false positives", "detected", "latency (s)"
    );

    for (name, cat) in &variants {
        // Held-out clean runs: any alarm at all is a false positive.
        let holdout_grid = Grid::new()
            .scenarios([scenario.kind])
            .controllers([controller])
            .attacks(AttackSet::None)
            .include_clean(true)
            .seeds(holdout_seeds.iter().copied());
        let holdout = Campaign::new("f4_holdout", holdout_grid)
            .with_catalog(|_| cat.clone())
            .run()
            .expect("clean");
        let false_positives = holdout.select(|r| r.detected).len();

        // The standard attack sweep under the same catalog.
        let attack_grid = Grid::new()
            .scenarios([scenario.kind])
            .controllers([controller])
            .attacks(AttackSet::Standard)
            .seeds([1, 2, 3]);
        let attacked = Campaign::new("f4_attacks", attack_grid)
            .with_catalog(|_| cat.clone())
            .run()
            .expect("attacked");
        let total = attacked.runs.len();
        let detected = attacked.select(|r| r.detected).len();
        let lat = latencies(attacked.runs.iter());
        println!(
            "{:<16} {:>11}/{:<2} {:>9}/{:<2} {:>16}",
            name,
            false_positives,
            holdout_seeds.len(),
            detected,
            total,
            fmt_mean_std(&lat)
        );
    }
    println!("\n(mining from >=3 golden runs matches hand-tuned detection while the");
    println!(" false-positive rate shrinks toward the hand-tuned catalog's as the");
    println!(" training pool grows — thresholds a user gets without any tuning.)");
}
