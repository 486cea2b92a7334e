//! **AB2 — Catalog leave-one-out ablation**: remove each assertion in turn
//! and measure which attacks become undetected or slower to detect —
//! i.e. which assertion carries which attack class.
//!
//! Regenerate with:
//! `cargo run --release -p adassure-bench --bin ablation_catalog`

use adassure_control::ControllerKind;
use adassure_exp::campaign::{execute, standard_catalog};
use adassure_exp::{AttackSet, Grid, Runtime};
use adassure_scenarios::{Scenario, ScenarioKind};

fn main() {
    let scenario = Scenario::of_kind(ScenarioKind::SCurve).expect("library scenario");
    let controller = ControllerKind::PurePursuit;
    let full = standard_catalog(&scenario);
    let seed = 1u64;

    // Cache per-attack traces once; re-checking different catalogs is cheap.
    println!(
        "AB2: leave-one-out catalog ablation (scenario `{}`, {} stack, seed {seed})",
        scenario.kind, controller
    );
    println!("cells: detection latency in seconds, `miss` when undetected\n");

    let cells = Grid::new()
        .scenarios([scenario.kind])
        .controllers([controller])
        .attacks(AttackSet::Standard)
        .seeds([seed])
        .cells();
    let traces: Vec<_> = Runtime::global().map(&cells, |spec| {
        let (out, _) = execute(spec, &full).expect("run");
        (spec.attack.expect("attacked grid"), out.trace)
    });

    print!("{:<14}", "removed");
    for (spec, _) in &traces {
        print!("{:>11}", shorten(spec.name()));
    }
    println!();

    let mut rows: Vec<(String, Vec<Option<f64>>)> = Vec::new();
    // Baseline row: full catalog.
    rows.push((
        "(none)".to_owned(),
        traces
            .iter()
            .map(|(spec, trace)| {
                adassure_core::checker::check(&full, trace).detection_latency(spec.window.start)
            })
            .collect(),
    ));
    for removed in &full {
        let reduced: Vec<_> = full
            .iter()
            .filter(|a| a.id != removed.id)
            .cloned()
            .collect();
        rows.push((
            removed.id.as_str().to_owned(),
            traces
                .iter()
                .map(|(spec, trace)| {
                    adassure_core::checker::check(&reduced, trace)
                        .detection_latency(spec.window.start)
                })
                .collect(),
        ));
    }

    let baseline = rows[0].1.clone();
    for (name, latencies) in &rows {
        print!("{name:<14}");
        for (latency, base) in latencies.iter().zip(&baseline) {
            let cell = match latency {
                None => "miss".to_owned(),
                Some(l) => {
                    let degraded = base.is_some_and(|b| *l > b + 0.05);
                    if degraded {
                        format!("{l:.2}*")
                    } else {
                        format!("{l:.2}")
                    }
                }
            };
            print!("{cell:>11}");
        }
        println!();
    }
    println!("\n(* = slower than the full catalog; `miss` = attack lost. The matrix");
    println!(" shows the redundancy structure: most attacks stay covered by several");
    println!(" assertions, while A8 and A14 are single points of failure for the");
    println!(" IMU-bias and compass classes respectively.)");
}

fn shorten(name: &str) -> String {
    name.replace("gnss_", "g_")
        .replace("wheel_speed_", "w_")
        .replace("compass_", "c_")
        .replace("imu_yaw_", "i_")
        .chars()
        .take(10)
        .collect()
}
