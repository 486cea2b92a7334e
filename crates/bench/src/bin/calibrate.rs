//! Calibration probe: mines the clean-run envelope of every assertion
//! across all scenarios × controllers × seeds and compares it with the
//! hand-tuned defaults. Any default below the global envelope is a false-
//! positive risk. Development tool, not a paper table.

use std::collections::BTreeMap;

use adassure_control::ControllerKind;
use adassure_core::catalog::{self, CatalogConfig};
use adassure_core::mining::{mine_bounds, MiningConfig};
use adassure_exp::campaign::{catalog_config_for, execute};
use adassure_exp::{AttackSet, Grid, Runtime};
use adassure_scenarios::{Scenario, ScenarioKind};

fn main() {
    let mining = MiningConfig {
        margin: 1.0,
        floor: 0.0,
    };
    // Every clean cell of the full grid, each mined independently in
    // parallel; the envelopes merge below (max is order-independent).
    let cells = Grid::new()
        .scenarios(ScenarioKind::ALL)
        .controllers(ControllerKind::ALL)
        .attacks(AttackSet::None)
        .include_clean(true)
        .seeds([1, 2, 3])
        .cells();
    let mined: Vec<BTreeMap<String, f64>> = Runtime::global().map(&cells, |spec| {
        let scenario = Scenario::of_kind(spec.scenario).expect("library scenario");
        let (out, _) = execute(spec, &[]).expect("clean run");
        let bounds = mine_bounds(&catalog_config_for(&scenario), &[&out.trace], &mining);
        bounds
            .into_iter()
            // `observed` is the raw worst case in the assertion's binding
            // direction.
            .map(|(id, b)| (id, b.observed.abs()))
            .collect()
    });

    let mut global: BTreeMap<String, f64> = BTreeMap::new();
    for bounds in mined {
        for (id, magnitude) in bounds {
            let slot = global.entry(id).or_insert(f64::NEG_INFINITY);
            if magnitude > *slot {
                *slot = magnitude;
            }
        }
    }
    let defaults = catalog::build(&CatalogConfig::default().with_goal_distance(1.0));
    println!(
        "{:<5} {:>14} {:>14} {:>8}",
        "id", "clean envelope", "default", "ok?"
    );
    let mut ids: Vec<_> = global.keys().cloned().collect();
    ids.sort_by_key(|id| id[1..].parse::<u32>().unwrap_or(u32::MAX));
    for id in ids {
        let env = global[&id];
        let default = defaults
            .iter()
            .find(|a| a.id.as_str() == id)
            .map(|a| a.condition.threshold().abs());
        let ok = default.map(|d| d > env);
        println!(
            "{id:<5} {env:>14.3} {:>14} {:>8}",
            default.map(|d| format!("{d:.3}")).unwrap_or_default(),
            match ok {
                Some(true) => "ok",
                Some(false) => "TIGHT",
                None => "?",
            }
        );
    }
}
