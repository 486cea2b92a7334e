//! Development probe: one run per attack on the straight scenario, printing
//! fired assertions, detection latency and diagnosis. Not one of the paper
//! tables — use it to sanity-check catalog thresholds quickly.

use adassure_control::ControllerKind;
use adassure_core::diagnosis;
use adassure_exp::campaign::{execute, standard_catalog};
use adassure_exp::{AttackSet, Grid, Runtime};
use adassure_scenarios::{Scenario, ScenarioKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for sk in [ScenarioKind::Straight, ScenarioKind::SCurve] {
        let scenario = Scenario::of_kind(sk)?;
        let cat = standard_catalog(&scenario);
        println!(
            "=== scenario {} (len {:.0} m) ===",
            sk,
            scenario.route_length()
        );

        // One clean cell plus the full extended attack set, all through the
        // campaign executor.
        let cells = Grid::new()
            .scenarios([sk])
            .controllers([ControllerKind::PurePursuit])
            .attacks(AttackSet::Extended)
            .include_clean(true)
            .seeds([1])
            .cells();
        let mut results = Runtime::global()
            .map(&cells, |spec| {
                execute(spec, &cat).map(|(out, report)| (*spec, out, report))
            })
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("probe cell on {sk}: {e}"))?;

        let (_, out, clean) = results.remove(0);
        println!(
            "clean: {} violations {:?}",
            clean.violations.len(),
            clean
                .violated_ids()
                .iter()
                .map(|i| i.as_str().to_owned())
                .collect::<Vec<_>>()
        );
        // Clean-envelope diagnostics for threshold calibration.
        let steer = out
            .trace
            .require(adassure_trace::well_known::STEER_CMD)
            .map_err(|e| format!("clean run on {sk}: {e}"))?;
        let d = steer.differentiate();
        let max_rate = d
            .samples()
            .iter()
            .filter(|s| s.time > 8.0)
            .map(|s| s.value.abs())
            .fold(0.0f64, f64::max);
        let gs = out
            .trace
            .series_by_name(adassure_trace::well_known::GNSS_SPEED);
        let ws = out
            .trace
            .require(adassure_trace::well_known::WHEEL_SPEED)
            .map_err(|e| format!("clean run on {sk}: {e}"))?;
        let max_gap = gs
            .map(|gs| {
                gs.samples()
                    .iter()
                    .filter(|s| s.time > 8.0)
                    .map(|s| (s.value - ws.value_at(s.time).unwrap_or(s.value)).abs())
                    .fold(0.0f64, f64::max)
            })
            .unwrap_or(0.0);
        println!("clean envelope: max|d steer/dt|={max_rate:.2} rad/s, max|gnss-wheel speed|={max_gap:.2} m/s");
        for (spec, _, report) in &results {
            let Some(attack) = spec.attack else {
                continue; // only the leading clean cell has no attack
            };
            let latency = report
                .detection_latency(attack.window.start)
                .map(|l| format!("{l:.2}s"))
                .unwrap_or_else(|| "MISS".to_owned());
            let ids: Vec<_> = report
                .violated_ids()
                .iter()
                .map(|i| i.as_str().to_owned())
                .collect();
            let diag = diagnosis::diagnose(report);
            let top = diag
                .top()
                .map(|c| c.name().to_owned())
                .unwrap_or_else(|| "-".to_owned());
            println!(
                "{:<20} latency {:<7} top-cause {:<12} fired {:?}",
                attack.name(),
                latency,
                top,
                ids
            );
        }
    }
    Ok(())
}
