//! `replay_scalar`: `checker::check` over drive segments held in memory,
//! one segment per op. This isolates `core::online`, the per-cycle path
//! campaigns, the debugger and every fleet stream run, with no decode and
//! no wire in the way.

use std::path::Path;

use adassure_core::{checker, lane, Assertion, OnlineChecker};
use adassure_trace::{ColumnarTrace, Trace};

use crate::spans::{Span, Spans};
use crate::{calib, corpus, json, Layer, Pass, Workload};

pub struct Replay {
    catalog: Vec<Assertion>,
    segments: Vec<Trace>,
    samples: Vec<u64>,
    /// Lane-engine report JSON per segment: the scalar path must match it.
    oracle: Vec<Vec<u8>>,
    cycles: u64,
    updates: u64,
    violations: u64,
}

impl Workload for Replay {
    const CLOCK: calib::Clock = calib::Clock::Thread;

    const REFERENCE: calib::Reference = calib::Reference::CHECKER;

    fn setup(seed: u64, _dir: &Path, spans: &mut Spans) -> Self {
        let catalog = corpus::drive_catalog();
        let segments = corpus::drive_segments(seed, spans);
        let columnar: Vec<ColumnarTrace> = segments.iter().map(ColumnarTrace::from_trace).collect();
        let oracle = lane::check_columnar(&catalog, &columnar)
            .iter()
            .map(json)
            .collect();
        Replay {
            catalog,
            samples: segments.iter().map(|s| s.sample_count() as u64).collect(),
            segments,
            oracle,
            cycles: 0,
            updates: 0,
            violations: 0,
        }
    }

    fn pass(&mut self, spans: &mut Spans, latencies: &mut Vec<f64>) -> Pass {
        let mut pass = Pass::default();
        for (i, segment) in self.segments.iter().enumerate() {
            let start = calib::thread_cpu_s();
            let report = if spans.enabled() {
                spans.enter();
                let (report, cycles, updates) = traced_check(&self.catalog, segment, spans);
                self.cycles += cycles;
                self.updates += updates;
                spans.exit(Span::Op);
                report
            } else {
                checker::check(&self.catalog, segment)
            };
            latencies.push((calib::thread_cpu_s() - start) * 1e6);
            pass.ops += 1;
            pass.samples += self.samples[i];
            if spans.enabled() {
                self.violations += report.violations.len() as u64;
            }
            if json(&report) != self.oracle[i] {
                eprintln!("replay_scalar: segment {i} differs from the lane engine");
                pass.failed += 1;
            }
        }
        pass
    }

    fn finish(self, _spans: &Spans, layer: &mut Layer) -> Result<(), String> {
        layer.insert("core.online.cycles", self.cycles as f64);
        layer.insert("core.online.updates", self.updates as f64);
        layer.insert("core.violations", self.violations as f64);
        Ok(())
    }
}

/// `checker::check` driven through the public `OnlineChecker` API, one
/// span per stage; the report must equal the untraced call's. Returns the
/// report and the cycles and updates it took.
fn traced_check(
    catalog: &[Assertion],
    segment: &Trace,
    spans: &mut Spans,
) -> (adassure_core::CheckReport, u64, u64) {
    let mut checker = spans.time(Span::OnlineBuild, || {
        OnlineChecker::new(catalog.iter().cloned())
    });
    let (mut cycles, mut updates) = (0u64, 0u64);
    spans.enter();
    checker::for_each_cycle(segment, |t, cycle| {
        spans
            .time(Span::BeginCycle, || checker.begin_cycle(t))
            .expect("segment cycles are strictly time-ordered");
        spans.enter();
        for &(id, value) in cycle {
            checker.update(id.clone(), value);
        }
        spans.exit_n(Span::Update, cycle.len() as u64);
        spans.time(Span::EndCycle, || checker.end_cycle());
        cycles += 1;
        updates += cycle.len() as u64;
    });
    spans.exit(Span::CheckerEvents);
    let end = segment.span().map_or(0.0, |(_, b)| b);
    let report = spans.time(Span::Finish, || checker.finish(end));
    (report, cycles, updates)
}
