//! `offline_adt`: the paper's offline loop. Recorded drive segments sit
//! on disk as `.adt` files; each op loads a lane group of eight, checks
//! them on the lane engine and diagnoses every report.

use std::path::{Path, PathBuf};

use adassure_core::diagnosis::diagnose;
use adassure_core::{checker, lane, Assertion};
use adassure_trace::ColumnarTrace;

use crate::spans::{Span, Spans};
use crate::stats::per_s;
use crate::{calib, corpus, json, Layer, Pass, Workload};

pub struct Offline {
    catalog: Vec<Assertion>,
    files: Vec<PathBuf>,
    /// Scalar `checker::check` report and diagnosis JSON per file.
    oracle: Vec<(Vec<u8>, Vec<u8>)>,
    bytes: u64,
    groups: u64,
    samples_checked: u64,
    violations: u64,
}

impl Workload for Offline {
    const CLOCK: calib::Clock = calib::Clock::Thread;

    /// Decode, about 90 % of an op, is a per-sample `format!`.
    const REFERENCE: calib::Reference = calib::Reference {
        format: 1.0,
        hash: 0.0,
        chain: 0.0,
    };

    fn setup(seed: u64, dir: &Path, spans: &mut Spans) -> Self {
        let catalog = corpus::drive_catalog();
        let segments = corpus::drive_segments(seed, spans);
        let mut files = Vec::with_capacity(segments.len());
        let mut oracle = Vec::with_capacity(segments.len());
        for (i, segment) in segments.iter().enumerate() {
            let path = dir.join(format!("segment-{i:02}.adt"));
            ColumnarTrace::from_trace(segment)
                .save(&path)
                .expect("write corpus file");
            files.push(path);
            let report = checker::check(&catalog, segment);
            oracle.push((json(&report), json(&diagnose(&report))));
        }
        Offline {
            catalog,
            files,
            oracle,
            bytes: 0,
            groups: 0,
            samples_checked: 0,
            violations: 0,
        }
    }

    fn pass(&mut self, spans: &mut Spans, latencies: &mut Vec<f64>) -> Pass {
        let mut pass = Pass::default();
        for (group, files) in self.files.chunks(lane::LANES).enumerate() {
            let start = calib::thread_cpu_s();
            spans.enter();
            let traces: Vec<ColumnarTrace> = files
                .iter()
                .map(|path| {
                    if spans.enabled() {
                        // `ColumnarTrace::load` is read + decode; time each.
                        let bytes = spans.time(Span::ColumnarRead, || std::fs::read(path));
                        let bytes = bytes.expect("read corpus file");
                        self.bytes += bytes.len() as u64;
                        spans.time(Span::ColumnarDecode, || ColumnarTrace::decode(&bytes))
                    } else {
                        ColumnarTrace::load(path)
                    }
                    .expect("corpus file decodes")
                })
                .collect();
            let reports = spans.time(Span::LaneCheck, || {
                lane::check_columnar(&self.catalog, &traces)
            });
            let diagnoses: Vec<_> = reports
                .iter()
                .map(|r| spans.time(Span::Diagnose, || diagnose(r)))
                .collect();
            spans.exit(Span::Op);
            latencies.push((calib::thread_cpu_s() - start) * 1e6);

            let samples: u64 = traces.iter().map(|t| t.sample_count() as u64).sum();
            pass.ops += 1;
            pass.samples += samples;
            if spans.enabled() {
                self.groups += 1;
                self.samples_checked += samples;
                self.violations += reports
                    .iter()
                    .map(|r| r.violations.len() as u64)
                    .sum::<u64>();
            }
            let expected = &self.oracle[group * lane::LANES..][..files.len()];
            let same = reports
                .iter()
                .zip(&diagnoses)
                .zip(expected)
                .all(|((r, d), (er, ed))| json(r) == *er && json(d) == *ed);
            if !same {
                eprintln!("offline_adt: group {group} differs from scalar checker::check");
                pass.failed += 1;
            }
        }
        pass
    }

    fn finish(self, spans: &Spans, layer: &mut Layer) -> Result<(), String> {
        let decode = spans.get(Span::ColumnarDecode);
        let lane = spans.get(Span::LaneCheck);
        layer.insert("trace.columnar.bytes", self.bytes as f64);
        layer.insert(
            "trace.columnar.decode_mib_per_s",
            per_s(self.bytes as f64 / (1024.0 * 1024.0), decode.total_ns),
        );
        layer.insert("core.lane.groups", self.groups as f64);
        layer.insert(
            "core.lane.samples_per_s",
            per_s(self.samples_checked as f64, lane.total_ns),
        );
        layer.insert("core.violations", self.violations as f64);
        Ok(())
    }
}
