//! **F1 — Anatomy of an attack**: time series of a clean run vs a GNSS
//! drift attack on the same seed, with the assertion-alarm timeline.
//!
//! Prints a decimated table to stdout and writes the full series to
//! `results/fig1_attack_anatomy.csv` for plotting.
//!
//! Regenerate with:
//! `cargo run --release -p adassure-bench --bin fig1_attack_anatomy`

use std::fmt::Write as _;

use adassure_attacks::campaign::AttackSpec;
use adassure_attacks::{AttackKind, Window};
use adassure_control::pipeline::EstimatorKind;
use adassure_control::ControllerKind;
use adassure_exp::campaign::{execute, standard_catalog};
use adassure_exp::{RunSpec, Runtime};
use adassure_scenarios::{Scenario, ScenarioKind};
use adassure_sim::geometry::Vec2;
use adassure_trace::well_known as sig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = Scenario::of_kind(ScenarioKind::SCurve)?;
    let controller = ControllerKind::PurePursuit;
    let seed = 1;
    let cat = standard_catalog(&scenario);
    let attack = AttackSpec::new(
        AttackKind::GnssDrift {
            rate: Vec2::new(0.4, 0.3),
        },
        Window::from_start(scenario.attack_start),
    );

    // Two cells — the clean reference and the attacked twin — run through
    // the campaign executor.
    let cells: Vec<RunSpec> = [None, Some(attack)]
        .into_iter()
        .enumerate()
        .map(|(index, attack)| RunSpec {
            index,
            scenario: scenario.kind,
            controller,
            estimator: EstimatorKind::Complementary,
            attack,
            seed,
        })
        .collect();
    let mut outputs = Runtime::global()
        .map(&cells, |spec| execute(spec, &cat))
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("F1 cell: {e}"))?;
    let (attacked_out, report) = outputs.pop().ok_or("missing attacked cell")?;
    let (clean_out, _) = outputs.pop().ok_or("missing clean cell")?;

    println!(
        "F1: gnss_drift anatomy on `{}` ({} stack), attack from t = {:.0} s",
        scenario.kind, controller, scenario.attack_start
    );
    println!("\nalarms:");
    for v in &report.violations {
        println!("  {v}");
    }

    let clean_xt = clean_out
        .trace
        .require(sig::TRUE_XTRACK_ERR)
        .map_err(|e| format!("clean run: {e}"))?;
    let att_true_xt = attacked_out
        .trace
        .require(sig::TRUE_XTRACK_ERR)
        .map_err(|e| format!("attacked run: {e}"))?;
    let att_est_xt = attacked_out
        .trace
        .require(sig::XTRACK_ERR)
        .map_err(|e| format!("attacked run: {e}"))?;
    let att_innov = attacked_out
        .trace
        .require(sig::INNOVATION)
        .map_err(|e| format!("attacked run: {e}"))?;

    println!(
        "\n{:>6} {:>14} {:>14} {:>14} {:>12}",
        "t(s)", "clean |xt| (m)", "attacked true |xt|", "attacked est |xt|", "innovation"
    );
    let mut csv = String::from(
        "t,clean_true_xtrack,attacked_true_xtrack,attacked_est_xtrack,attacked_innovation\n",
    );
    let end = attacked_out.trace.span().map_or(0.0, |(_, b)| b);
    let mut t = 0.0;
    while t <= end {
        let c = clean_xt.value_at(t).unwrap_or(f64::NAN);
        let a_true = att_true_xt.value_at(t).unwrap_or(f64::NAN);
        let a_est = att_est_xt.value_at(t).unwrap_or(f64::NAN);
        let innov = att_innov.value_before(t).unwrap_or(f64::NAN);
        let _ = writeln!(csv, "{t},{c},{a_true},{a_est},{innov}");
        if (t * 10.0).round() as i64 % 40 == 0 {
            println!(
                "{t:>6.1} {:>14.3} {:>14.3} {:>14.3} {:>12.3}",
                c.abs(),
                a_true.abs(),
                a_est.abs(),
                innov
            );
        }
        t += 0.1;
    }

    std::fs::create_dir_all("results").map_err(|e| format!("create results dir: {e}"))?;
    std::fs::write("results/fig1_attack_anatomy.csv", csv)
        .map_err(|e| format!("write results/fig1_attack_anatomy.csv: {e}"))?;
    println!("\nfull series written to results/fig1_attack_anatomy.csv");
    println!("\n(the drift attack's signature: the *estimated* cross-track error stays");
    println!(" small — the stack happily follows the spoofed path — while the *true*");
    println!(" error grows without bound until behavioural assertions fire.)");
    Ok(())
}
