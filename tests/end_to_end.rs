//! End-to-end integration: golden runs across the full workload matrix are
//! clean, and the recorded traces are well-formed.

use adassure::attacks::campaign::standard_attacks;
use adassure::control::ControllerKind;
use adassure::core::{catalog, checker, lane};
use adassure::scenarios::{run, Scenario, ScenarioKind};
use adassure::trace::{csv, well_known as sig, ColumnarTrace, Trace};

fn catalog_for(scenario: &Scenario) -> Vec<adassure::core::Assertion> {
    let mut cfg = catalog::CatalogConfig::default();
    if !scenario.track.is_closed() {
        cfg = cfg.with_goal_distance(scenario.route_length());
    }
    catalog::build(&cfg)
}

#[test]
fn golden_runs_are_clean_across_the_workload_matrix() {
    // Every scenario × every controller, one seed each: the headline
    // zero-false-positive property of the default catalog.
    for scenario in Scenario::all() {
        let cat = catalog_for(&scenario);
        for controller in ControllerKind::ALL {
            let out = run::clean(&scenario, controller, 11).expect("simulation");
            let report = checker::check(&cat, &out.trace);
            assert!(
                report.is_clean(),
                "{} / {} fired on a clean run:\n{}",
                scenario.kind,
                controller,
                report.summary()
            );
        }
    }
}

#[test]
fn open_scenarios_reach_their_goal() {
    for kind in [
        ScenarioKind::Straight,
        ScenarioKind::SCurve,
        ScenarioKind::LaneChange,
        ScenarioKind::Hairpin,
    ] {
        let scenario = Scenario::of_kind(kind).unwrap();
        for controller in ControllerKind::ALL {
            let out = run::clean(&scenario, controller, 5).expect("simulation");
            assert!(out.reached_goal, "{kind} / {controller} timed out");
        }
    }
}

#[test]
fn traces_carry_the_full_signal_set() {
    let scenario = Scenario::of_kind(ScenarioKind::SCurve).unwrap();
    let out = run::clean(&scenario, ControllerKind::Lqr, 3).expect("simulation");
    for name in [
        sig::TRUE_X,
        sig::TRUE_Y,
        sig::TRUE_HEADING,
        sig::TRUE_SPEED,
        sig::TRUE_XTRACK_ERR,
        sig::TRUE_PROGRESS,
        sig::GNSS_X,
        sig::GNSS_Y,
        sig::GNSS_SPEED,
        sig::GNSS_JUMP,
        sig::WHEEL_SPEED,
        sig::WHEEL_ACCEL,
        sig::WHEEL_JITTER,
        sig::IMU_YAW_RATE,
        sig::IMU_ACCEL,
        sig::COMPASS_HEADING,
        sig::EST_X,
        sig::EST_Y,
        sig::EST_HEADING,
        sig::EST_SPEED,
        sig::INNOVATION,
        sig::XTRACK_ERR,
        sig::HEADING_ERR,
        sig::TARGET_SPEED,
        sig::PROGRESS,
        sig::STEER_CMD,
        sig::ACCEL_CMD,
        sig::STEER_ACTUAL,
        sig::LAT_ACCEL,
    ] {
        assert!(
            out.trace
                .series_by_name(name)
                .is_some_and(|s| !s.is_empty()),
            "missing or empty signal {name}"
        );
    }
}

#[test]
fn dense_signals_export_to_csv_and_back() {
    let scenario = Scenario::of_kind(ScenarioKind::Straight).unwrap();
    let out = run::clean(&scenario, ControllerKind::PurePursuit, 9).expect("simulation");
    // GNSS signals are sparse; export the dense (per-cycle) subset, which
    // shares one time grid by construction.
    let dense: Trace = out
        .trace
        .iter()
        .filter(|s| {
            !matches!(
                s.id().as_str(),
                sig::GNSS_X
                    | sig::GNSS_Y
                    | sig::GNSS_SPEED
                    | sig::GNSS_JUMP
                    | sig::WHEEL_ACCEL
                    | sig::WHEEL_JITTER
            )
        })
        .cloned()
        .collect();
    assert!(dense.is_aligned(), "per-cycle signals share the time grid");
    let text = csv::to_csv(&dense).expect("aligned");
    let back = csv::from_csv(&text).expect("round trip");
    assert_eq!(back.signal_count(), dense.signal_count());
    assert_eq!(back.sample_count(), dense.sample_count());
}

#[test]
fn offline_report_matches_online_monitoring() {
    // Replay the trace cycle by cycle through an OnlineChecker fed by name
    // and compare with the offline convenience path.
    use adassure::core::OnlineChecker;

    let scenario = Scenario::of_kind(ScenarioKind::LaneChange).unwrap();
    let cat = catalog_for(&scenario);
    let out = run::clean(&scenario, ControllerKind::Stanley, 21).expect("simulation");

    let offline = checker::check(&cat, &out.trace);

    let mut online = OnlineChecker::new(cat.iter().cloned());
    checker::for_each_cycle(&out.trace, |t, cycle| {
        online.begin_cycle(t).unwrap();
        for &(id, value) in cycle {
            online.update(id.clone(), value);
        }
        online.end_cycle();
    });
    let online = online.finish(out.trace.span().unwrap().1);
    assert_eq!(offline, online);
}

/// The committed `.adt` image of `smoke.csv`. A deliberate change to the
/// format bumps its version byte and regenerates this file in the same
/// change (`trace-import crates/trace/testdata/smoke.csv`).
const GOLDEN_ADT: &[u8] = include_bytes!("../crates/trace/testdata/smoke.adt");

#[test]
fn csv_import_encodes_to_the_committed_adt_image() {
    // CSV parsing and encoding call no libm, so these bytes are the same
    // on every platform: any drift is a format change.
    let text = include_str!("../crates/trace/testdata/smoke.csv");
    let trace = csv::from_csv(text).expect("smoke.csv parses");
    let encoded = ColumnarTrace::from_trace(&trace).encode();
    assert!(
        encoded == GOLDEN_ADT,
        "smoke.csv no longer encodes to smoke.adt"
    );

    let decoded = ColumnarTrace::decode(GOLDEN_ADT).expect("the golden image decodes");
    assert_eq!(decoded.to_trace(), trace);
    assert!(
        decoded.encode() == GOLDEN_ADT,
        "smoke.adt does not re-encode to itself"
    );
}

#[test]
fn adt_files_load_and_lane_check_like_the_recorded_drive() {
    // The offline path: a recorded drive saved as `.adt`, loaded back and
    // checked on the lane engine. An attacked drive, so the reports
    // being compared carry violations.
    let scenario = Scenario::of_kind(ScenarioKind::SCurve).unwrap();
    let cat = catalog_for(&scenario);
    let attack = standard_attacks(scenario.attack_start)[0];
    let mut injector = attack.injector(4);
    let out = run::with_tap(&scenario, ControllerKind::PurePursuit, 4, &mut injector)
        .expect("simulation");

    let columnar = ColumnarTrace::from_trace(&out.trace);
    let decoded = ColumnarTrace::decode(&columnar.encode()).expect("own encoding decodes");
    assert_eq!(decoded, columnar);

    let scalar = checker::check(&cat, &out.trace);
    assert!(!scalar.is_clean(), "{} went undetected", attack.name());
    let lane = lane::check_columnar(&cat, std::slice::from_ref(&decoded));
    assert_eq!(lane, [scalar]);
}
