//! The committed `testdata/session.adsim` pins the ADSIM format.
//!
//! [`golden_image`] writes it: a debug session on the circle under LQR
//! and the EKF, with a delayed GNSS and a frozen wheel-speed attack
//! active, captured at cycle 40. The test checks both directions: the
//! program encodes exactly the committed bytes, and the committed bytes
//! decode and re-encode to themselves, and restore into a fresh session
//! that captures them again.
//!
//! The simulator calls libm `sin` and `atan2`, so the bytes are those of
//! the target that wrote the file, `x86_64-unknown-linux-gnu` with glibc
//! 2.36; another libm may round differently and fail the program
//! direction only. A deliberate format change bumps
//! `adassure_debug::checkpoint::VERSION` and replaces the file in the
//! same change.

use adassure_attacks::campaign::AttackSpec;
use adassure_attacks::{AttackKind, AttackTimeline, Window};
use adassure_control::pipeline::EstimatorKind;
use adassure_control::ControllerKind;
use adassure_debug::{DebugSession, DebugSpec, SimCheckpoint};
use adassure_scenarios::ScenarioKind;

const GOLDEN: &[u8] = include_bytes!("../testdata/session.adsim");

/// The target that wrote the file, for the failure message.
const WRITTEN_ON: &str = "x86_64-unknown-linux-gnu (glibc 2.36 libm)";

fn spec() -> DebugSpec {
    DebugSpec {
        scenario: ScenarioKind::Circle,
        controller: ControllerKind::Lqr,
        estimator: EstimatorKind::Ekf,
        seed: 7,
        timeline: AttackTimeline::new([
            AttackSpec::new(
                AttackKind::GnssDelay { delay: 0.25 },
                Window::from_start(0.1),
            ),
            AttackSpec::new(AttackKind::WheelSpeedFreeze, Window::from_start(0.2)),
        ]),
    }
}

/// The image of `testdata/session.adsim`.
fn golden_image() -> Vec<u8> {
    let mut session = DebugSession::new(&spec(), 1000).expect("session");
    session.run_to(40).expect("forward");
    session.capture().encode()
}

/// Panics naming the first byte at which `got` differs from the golden
/// file.
fn assert_golden(got: &[u8], what: &str) {
    if let Some(at) = (0..got.len().max(GOLDEN.len())).find(|&i| got.get(i) != GOLDEN.get(i)) {
        panic!(
            "{what} differs from testdata/session.adsim at byte {at} \
             ({} bytes here, {} committed; the file was written on {WRITTEN_ON})",
            got.len(),
            GOLDEN.len()
        );
    }
}

#[test]
fn golden_adsim_is_what_the_program_encodes_and_re_encodes_to_itself() {
    assert_golden(&golden_image(), "the program's image");

    let decoded = SimCheckpoint::decode(GOLDEN).expect("golden decodes");
    assert_eq!(decoded.cycle, 40);
    assert_golden(&decoded.encode(), "re-encoding the decoded image");

    let mut session = DebugSession::new(&spec(), 1000).expect("fresh session");
    session
        .restore_checkpoint(&decoded)
        .expect("golden restores");
    assert_golden(&session.capture().encode(), "the restored session's image");
}
