//! End-to-end pins for the time-travel debugger: the live session must be
//! indistinguishable from the campaign engine, and checkpoint travel must
//! be bit-identical to running straight through.

use adassure_debug::{DebugSession, DebugSpec, SimCheckpoint};
use adassure_exp::campaign::{execute, standard_catalog};
use adassure_exp::grid::{AttackSet, Grid};
use adassure_exp::RunSpec;
use adassure_scenarios::Scenario;

/// A known-violating campaign cell (gnss_bias on the straight, seed 1).
fn violating_cell() -> RunSpec {
    Grid::new().attacks(AttackSet::Standard).seeds([1]).cells()[0]
}

#[test]
fn debug_session_report_matches_campaign_execute() {
    let cell = violating_cell();
    let scenario = Scenario::of_kind(cell.scenario).expect("standard scenario");
    let (output, report) = execute(&cell, &standard_catalog(&scenario)).expect("campaign run");

    let spec = DebugSpec::from_run_spec(&cell);
    let mut session = DebugSession::new(&spec, 1000).expect("session");
    session.run_to_end().expect("run");
    let (debug_output, debug_report) = session.finish();

    assert_eq!(debug_output.trace, output.trace, "traces diverged");
    assert_eq!(debug_output.steps, output.steps);
    assert_eq!(
        debug_report, report,
        "live checker diverged from the campaign's offline check"
    );
}

#[test]
fn backward_time_travel_is_bit_identical() {
    let spec = DebugSpec::from_run_spec(&violating_cell());

    // Reference: straight run to the end.
    let mut reference = DebugSession::new(&spec, 500).expect("session");
    reference.run_to_end().expect("run");
    let (ref_output, ref_report) = reference.finish();

    // Traveller: forward past the probe point, rewind (forcing a
    // checkpoint restore + fast-forward), inspect, then run out.
    let mut traveller = DebugSession::new(&spec, 500).expect("session");
    traveller.run_to(3100).expect("forward");
    let first_visit = traveller.inspect();
    traveller.run_to(4200).expect("further");
    traveller.run_to(3100).expect("rewind");
    assert_eq!(traveller.cycle(), 3100);
    let second_visit = traveller.inspect();

    assert_eq!(second_visit.cycle, first_visit.cycle);
    assert_eq!(second_visit.time, first_visit.time);
    assert_eq!(second_visit.vehicle, first_visit.vehicle);
    assert_eq!(second_visit.signals, first_visit.signals);
    assert_eq!(second_visit.assertions, first_visit.assertions);
    assert_eq!(second_visit.violations, first_visit.violations);

    traveller.run_to_end().expect("run out");
    let (travel_output, travel_report) = traveller.finish();
    assert_eq!(travel_output.trace, ref_output.trace, "traces diverged");
    assert_eq!(travel_report, ref_report, "reports diverged");
}

#[test]
fn captures_of_one_state_encode_to_identical_bytes() {
    let spec = DebugSpec::from_run_spec(&violating_cell());
    let mut straight = DebugSession::new(&spec, 500).expect("session");
    straight.run_to(2500).expect("forward");
    // The second session reaches cycle 2500 through a checkpoint restore.
    let mut traveller = DebugSession::new(&spec, 500).expect("session");
    traveller.run_to(3100).expect("forward");
    traveller.run_to(2500).expect("rewind");
    assert_eq!(
        straight.capture().encode(),
        traveller.capture().encode(),
        "an ADSIM image must be a function of the captured state alone"
    );
}

#[test]
fn encoded_checkpoint_resumes_in_a_fresh_session() {
    let spec = DebugSpec::from_run_spec(&violating_cell());

    let mut original = DebugSession::new(&spec, 500).expect("session");
    original.run_to(2500).expect("forward");
    let bytes = original.capture().encode();
    original.run_to_end().expect("run out");
    let (ref_output, ref_report) = original.finish();

    let decoded = SimCheckpoint::decode(&bytes).expect("decode");
    assert_eq!(decoded.cycle, 2500);
    let mut resumed = DebugSession::new(&spec, 500).expect("fresh session");
    resumed.restore_checkpoint(&decoded).expect("restore");
    assert_eq!(resumed.cycle(), 2500);
    resumed.run_to_end().expect("run out");
    let (res_output, res_report) = resumed.finish();

    assert_eq!(res_output.trace, ref_output.trace, "traces diverged");
    assert_eq!(res_report, ref_report, "reports diverged");
}

#[test]
fn run_to_past_the_end_is_a_typed_error() {
    let spec = DebugSpec::from_run_spec(&violating_cell());
    let mut session = DebugSession::new(&spec, 1000).expect("session");
    let err = session.run_to(u64::MAX).expect_err("cannot reach");
    assert!(
        matches!(err, adassure_debug::DebugError::BadSpec(_)),
        "unexpected error: {err}"
    );
}
