//! The ADAssure benchmark: the offline and online checking paths, end to
//! end and layer by layer.
//!
//! ```text
//! adassure-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run sets its workload up several times (reporting the median set-up
//! time), runs one warm-up pass, then whole passes over the workload's
//! inputs until `--seconds` have elapsed. Every op's output is checked
//! against an independent oracle. Rates and latencies are reported at a
//! reference machine speed (see `calib`). With `--trace 0` the last line
//! of standard output is the end-to-end result; with `--trace 1` untraced
//! and traced passes alternate and the result carries the per-layer
//! metrics. See `README.md` beside this crate for the workloads and
//! metrics.

mod calib;
mod corpus;
mod host;
mod ingest;
mod offline;
mod replay;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use spans::{Span, Spans};

/// Compute workers: one, so the benchmark's own threads and the
/// program's do not oversubscribe a small machine.
pub const WORKERS: usize = 1;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Where runs keep their inputs and records, relative to the checkout.
const OUT_DIR: &str = ".bench_out";

/// The workloads, by name.
const WORKLOADS: [&str; 4] = [
    "offline_adt",
    "replay_scalar",
    "ingest_bulk",
    "ingest_trips",
];

/// End-to-end metrics: name and unit.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("samples_per_s", "1/s"),
    ("latency_us_p50", "us"),
    ("latency_us_p90", "us"),
];

/// Per-layer metrics: name and unit. Every workload reports all of them;
/// a layer a workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 46] = [
    ("exp.campaign.execute_ms", "ms"),
    ("trace.columnar.read_ms", "ms"),
    ("trace.columnar.decode_ms", "ms"),
    ("trace.columnar.decode_mib_per_s", "MiB/s"),
    ("trace.columnar.bytes", "bytes"),
    ("core.lane.check_ms", "ms"),
    ("core.lane.groups", "count"),
    ("core.lane.samples_per_s", "1/s"),
    ("core.diagnosis.diagnose_us", "us"),
    ("core.checker.events_ms", "ms"),
    ("core.online.build_us", "us"),
    ("core.online.begin_cycle_ns", "ns"),
    ("core.online.update_ns", "ns"),
    ("core.online.end_cycle_ns", "ns"),
    ("core.online.finish_us", "us"),
    ("core.online.cycles", "count"),
    ("core.online.updates", "count"),
    ("core.violations", "count"),
    ("fleet.wire.encode_ns_per_batch", "ns"),
    ("fleet.wire.decode_ns_per_batch", "ns"),
    ("fleet.wire.bytes_per_sample", "bytes"),
    ("fleet.ingest.server_decode_ns_p50", "ns"),
    ("fleet.ingest.server_decode_ns_p99", "ns"),
    ("fleet.ingest.submit_blocked_ms", "ms"),
    ("fleet.ingest.frames_sent", "count"),
    ("fleet.ingest.saturated_nacks", "count"),
    ("fleet.ingest.superseded_nacks", "count"),
    ("fleet.ingest.resent_frames", "count"),
    ("fleet.ingest.useful_frame_ratio", "ratio"),
    ("fleet.ingest.bytes_rx", "bytes"),
    ("fleet.ingest.open_stream_us", "us"),
    ("fleet.ingest.close_stream_us", "us"),
    ("fleet.report_bytes", "bytes"),
    ("fleet.shard.cycle_ns_p50", "ns"),
    ("fleet.shard.cycle_ns_p99", "ns"),
    ("fleet.shard.rejected_batches", "count"),
    ("fleet.drain_tail_ms", "ms"),
    ("fleet.checkpoint.ms", "ms"),
    ("fleet.checkpoint.bytes", "bytes"),
    ("fleet.checkpoint.count", "count"),
    ("process.cpu_s", "s"),
    ("host.steal_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
    ("latency_us_tail", "us"),
    ("latency.tail_percentile", "pct"),
];

/// Per-layer metric values a workload sets.
pub type Layer = BTreeMap<&'static str, f64>;

/// Serialized JSON bytes, the form outputs are compared in.
pub fn json<T: serde::Serialize>(value: &T) -> Vec<u8> {
    serde_json::to_vec(value).expect("report types serialize")
}

/// What one pass did.
#[derive(Debug, Default, Clone, Copy)]
pub struct Pass {
    /// Ops run (and checked).
    pub ops: u64,
    /// Ops whose output differed from the oracle.
    pub failed: u64,
    /// Samples the ops checked.
    pub samples: u64,
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// The clock the workload's passes are timed by; its ops time their
    /// latencies by the same clock.
    const CLOCK: calib::Clock;

    /// The kernels whose speed stands in for the workload's own code.
    const REFERENCE: calib::Reference;

    /// Builds the inputs and the oracle from `seed`, writing any files
    /// into `dir`.
    fn setup(seed: u64, dir: &Path, spans: &mut Spans) -> Self;

    /// One whole pass over the inputs, recording each op's latency (µs)
    /// and checking each op's output.
    fn pass(&mut self, spans: &mut Spans, latencies: &mut Vec<f64>) -> Pass;

    /// Stops what the workload started, runs end-of-run checks and adds
    /// the workload's own per-layer counters.
    ///
    /// # Errors
    ///
    /// A description of the first end-of-run check that failed.
    fn finish(self, spans: &Spans, layer: &mut Layer) -> Result<(), String>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Measurements of the untraced (or the traced) passes of a run.
#[derive(Default)]
struct Side {
    passes: u64,
    /// Each pass's samples per second as measured.
    raw_rates: Vec<f64>,
    /// Op latencies (µs) as measured.
    raw_latencies: Vec<f64>,
    /// The pass each op ran in.
    op_pass: Vec<usize>,
    /// Each pass's evidence of the machine's speed.
    evidence: Vec<calib::Evidence>,
    /// Each pass's speed relative to the reference (see `calib`).
    speeds: Vec<f64>,
    /// Each pass's samples per second, at the reference speed.
    rates: Vec<f64>,
    /// Op latencies (µs), at the reference speed.
    latencies: Vec<f64>,
}

impl Side {
    /// Brings every pass's rate and every op's latency to the reference
    /// speed, once all passes have run.
    fn scale(&mut self) {
        self.speeds = calib::speeds(&self.evidence);
        self.rates = self
            .raw_rates
            .iter()
            .zip(&self.speeds)
            .map(|(rate, speed)| rate / speed)
            .collect();
        self.latencies = self
            .raw_latencies
            .iter()
            .zip(&self.op_pass)
            .map(|(latency, &pass)| latency * self.speeds[pass])
            .collect();
    }

    /// The median pass throughput: the machine's speed drifts by tens of
    /// percent over seconds, and a median over many short passes is not
    /// pulled by the fast or slow stretches the way a run total is.
    fn samples_per_s(&self) -> f64 {
        stats::median(&self.rates).unwrap_or(0.0)
    }
}

/// Everything a run measured.
struct Measured {
    setup_s: Vec<f64>,
    campaign_ms: Vec<f64>,
    plain: Side,
    traced: Side,
    spans: Spans,
    attempted: u64,
    failed: u64,
    cpu_s: f64,
    steal_s: f64,
    layer: Layer,
    error: Option<String>,
}

fn measure<W: Workload>(args: &Args, dir: &Path) -> Measured {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut campaign_ms = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up first, so peak memory is one set-up's.
        drop(workload.take());
        let mut spans = Spans::new(args.trace);
        // Set-up runs on this thread alone (servers start in the warm-up
        // pass), so its CPU time leaves out only time the host took.
        let start = calib::process_cpu_s();
        workload = Some(W::setup(args.seed, dir, &mut spans));
        setup_s.push(calib::process_cpu_s() - start);
        campaign_ms.push(spans.get(Span::CampaignExecute).total_ms());
    }
    let mut workload = workload.expect("at least one set-up");

    let warm = workload.pass(&mut Spans::new(false), &mut Vec::new());
    let (mut attempted, mut failed) = (warm.ops, warm.failed);

    let budget = Duration::from_secs(args.seconds);
    let mut plain = Side::default();
    let mut traced = Side::default();
    let mut spans = Spans::new(args.trace);
    let kernels = calib::Kernels::new();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from) as f64;
    let usage = host::Usage::now();
    let start = Instant::now();
    let mut k = 0u64;
    // A traced run alternates untraced and traced passes, so drift in the
    // machine hits both sides alike; it needs at least one of each.
    while start.elapsed() < budget || (args.trace && traced.passes == 0) {
        let is_traced = args.trace && k % 2 == 1;
        let mut pass_spans = Spans::new(is_traced);
        let side = if is_traced { &mut traced } else { &mut plain };
        let steal_start = host::host_steal_s();
        let wall_start = Instant::now();
        let cpu_start = calib::thread_cpu_s();
        let pass = workload.pass(&mut pass_spans, &mut side.raw_latencies);
        let cpu = calib::thread_cpu_s() - cpu_start;
        let wall = wall_start.elapsed().as_secs_f64();
        let stolen = host::host_steal_s() - steal_start;
        let evidence = W::REFERENCE.evidence(kernels.sample(&W::REFERENCE));
        let (seconds, evidence) = match W::CLOCK {
            calib::Clock::Thread => (cpu, evidence),
            calib::Clock::Wall => (wall, evidence.with_steal(wall, nproc, stolen)),
        };
        side.raw_rates.push(pass.samples as f64 / seconds);
        side.evidence.push(evidence);
        side.op_pass
            .resize(side.raw_latencies.len(), side.raw_rates.len() - 1);
        side.passes += 1;
        spans.merge(&pass_spans);
        attempted += pass.ops;
        failed += pass.failed;
        k += 1;
    }
    let (cpu_s, steal_s) = usage.since();
    plain.scale();
    traced.scale();

    let mut layer = Layer::new();
    let error = workload.finish(&spans, &mut layer).err();
    Measured {
        setup_s,
        campaign_ms,
        plain,
        traced,
        spans,
        attempted,
        failed,
        cpu_s,
        steal_s,
        layer,
        error,
    }
}

/// The end-to-end metrics of a run, or why one cannot be reported.
fn end_to_end(m: &Measured) -> Result<Vec<f64>, String> {
    let lat = &m.plain.latencies;
    let p50 = stats::percentile(lat, 0.5).ok_or("too few ops for a median")?;
    let p90 = stats::percentile(lat, 0.9)
        .ok_or_else(|| format!("{} ops are too few for a p90", lat.len()))?;
    Ok(vec![
        stats::median(&m.setup_s).expect("set-ups ran"),
        host::peak_rss_mib(),
        m.plain.samples_per_s(),
        p50,
        p90,
    ])
}

/// The per-layer metrics of a traced run.
fn per_layer(m: &Measured) -> Vec<f64> {
    let s = &m.spans;
    let mut layer = m.layer.clone();
    let mut set = |name: &'static str, value: f64| {
        layer.entry(name).or_insert(value);
    };
    set(
        "exp.campaign.execute_ms",
        stats::median(&m.campaign_ms).unwrap_or(0.0),
    );
    set(
        "trace.columnar.read_ms",
        s.get(Span::ColumnarRead).total_ms(),
    );
    set(
        "trace.columnar.decode_ms",
        s.get(Span::ColumnarDecode).total_ms(),
    );
    set("core.lane.check_ms", s.get(Span::LaneCheck).total_ms());
    set(
        "core.diagnosis.diagnose_us",
        s.get(Span::Diagnose).mean(1e3),
    );
    set(
        "core.checker.events_ms",
        s.get(Span::CheckerEvents).self_ns as f64 / 1e6,
    );
    set("core.online.build_us", s.get(Span::OnlineBuild).mean(1e3));
    set(
        "core.online.begin_cycle_ns",
        s.get(Span::BeginCycle).mean(1.0),
    );
    set("core.online.update_ns", s.get(Span::Update).mean(1.0));
    set("core.online.end_cycle_ns", s.get(Span::EndCycle).mean(1.0));
    set("core.online.finish_us", s.get(Span::Finish).mean(1e3));
    set(
        "fleet.wire.encode_ns_per_batch",
        s.get(Span::WireEncode).mean(1.0),
    );
    set(
        "fleet.wire.decode_ns_per_batch",
        s.get(Span::WireDecode).mean(1.0),
    );
    set(
        "fleet.ingest.submit_blocked_ms",
        s.get(Span::Submit).total_ms(),
    );
    set(
        "fleet.ingest.open_stream_us",
        s.get(Span::OpenStream).mean(1e3),
    );
    set(
        "fleet.ingest.close_stream_us",
        s.get(Span::CloseStream).mean(1e3),
    );
    set("fleet.checkpoint.ms", s.get(Span::Checkpoint).mean(1e6));
    set("process.cpu_s", m.cpu_s);
    set("host.steal_s", m.steal_s);
    set(
        "trace.overhead_pct",
        (m.plain.samples_per_s() / m.traced.samples_per_s() - 1.0) * 100.0,
    );
    let op = s.get(Span::Op);
    set(
        "trace.unattributed_pct",
        if op.total_ns == 0 {
            0.0
        } else {
            op.self_ns as f64 / op.total_ns as f64 * 100.0
        },
    );
    // The highest of p99, p95 and p90 the untraced ops can support.
    let (pct, tail) = [99.0, 95.0, 90.0]
        .into_iter()
        .find_map(|p| stats::percentile(&m.plain.latencies, p / 100.0).map(|v| (p, v)))
        .unwrap_or((0.0, 0.0));
    set("latency_us_tail", tail);
    set("latency.tail_percentile", pct);
    PER_LAYER
        .iter()
        .map(|(name, _)| layer.get(name).copied().unwrap_or(0.0))
        .collect()
}

fn metrics_json(names: &[(&str, &str)], values: &[f64]) -> String {
    let fields: Vec<String> = names
        .iter()
        .zip(values)
        .map(|((name, unit), v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The run record kept beside the result: provenance, host usage, op
/// counts and every number the run produced, so a noisy set of runs can
/// be told apart from a slower program.
fn run_record(args: &Args, m: &Measured, metrics: &str, failed: u64) -> String {
    let p = host::Provenance::current();
    let mut r = String::new();
    let _ = write!(
        r,
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, ",
        args.workload, args.seed, args.seconds, args.trace
    );
    let _ = write!(
        r,
        "\"provenance\": {{\"commit\": \"{}\", \"rustc\": \"{}\", \"cpu\": \"{}\", \"nproc\": {}, \"workers\": {WORKERS}}}, ",
        p.commit,
        p.rustc,
        p.cpu.replace('"', "'"),
        p.nproc
    );
    let _ = write!(
        r,
        "\"host.steal_s\": {}, \"process.cpu_s\": {}, \"setup_s\": {:?}, ",
        m.steal_s, m.cpu_s, m.setup_s
    );
    let median = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    let _ = write!(
        r,
        "\"speed_median\": {}, \"speed_min\": {}, \"speed_max\": {}, \"raw_samples_per_s\": {}, ",
        median(&m.plain.speeds),
        m.plain.speeds.iter().copied().fold(f64::INFINITY, f64::min),
        m.plain.speeds.iter().copied().fold(0.0, f64::max),
        median(&m.plain.raw_rates)
    );
    let raw = &m.plain.raw_latencies;
    let _ = write!(
        r,
        "\"raw_latency_us_p50\": {}, \"raw_latency_us_p90\": {}, ",
        stats::percentile(raw, 0.5).unwrap_or(0.0),
        stats::percentile(raw, 0.9).unwrap_or(0.0)
    );
    let _ = write!(
        r,
        "\"ops\": {{\"attempted\": {}, \"failed\": {failed}, \"untraced\": {}, \"traced\": {}}}, ",
        m.attempted,
        m.plain.latencies.len(),
        m.traced.latencies.len()
    );
    let _ = write!(
        r,
        "\"passes\": {{\"untraced\": {}, \"traced\": {}}}, \"correct\": {}, \"metrics\": {metrics}}}",
        m.plain.passes,
        m.traced.passes,
        failed == 0
    );
    r
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("adassure-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(OUT_DIR).join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work).expect("create the run's work directory");
    let m = match args.workload.as_str() {
        "offline_adt" => measure::<offline::Offline>(&args, &work),
        "replay_scalar" => measure::<replay::Replay>(&args, &work),
        "ingest_bulk" => measure::<ingest::Bulk>(&args, &work),
        "ingest_trips" => measure::<ingest::Trips>(&args, &work),
        _ => unreachable!("workload names are validated"),
    };
    let _ = std::fs::remove_dir_all(&work);

    let mut failed = m.failed;
    if let Some(e) = &m.error {
        eprintln!("{}: end-of-run check failed: {e}", args.workload);
        failed += 1;
    }
    let metrics = if args.trace {
        Ok(metrics_json(&PER_LAYER, &per_layer(&m)))
    } else {
        end_to_end(&m).map(|values| metrics_json(&END_TO_END, &values))
    };
    let metrics = match metrics {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("{}: cannot report: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let correct = failed == 0;
    let runs = PathBuf::from(OUT_DIR).join("runs");
    let record = run_record(&args, &m, &metrics, failed);
    let path = runs.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&runs).and_then(|()| std::fs::write(&path, &record)) {
        eprintln!("warning: run record {}: {e}", path.display());
    }
    eprintln!(
        "{}: {} ops ({} failed) in {} + {} passes; cpu {:.2} s, steal {:.2} s; record {}",
        args.workload,
        m.attempted,
        failed,
        m.plain.passes,
        m.traced.passes,
        m.cpu_s,
        m.steal_s,
        path.display()
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        m.attempted
    );
    if !correct {
        std::process::exit(1);
    }
}
