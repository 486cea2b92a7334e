//! Layer spans, recorded from the benchmark around its calls into each
//! layer's public API.
//!
//! Spans nest: a span's self time is its duration minus the time its
//! child spans cover, so the self times of every span under an op add up
//! to the op's own duration. Spans are aggregated per layer (count, total,
//! self) in memory; nothing is written until the run ends. A disabled
//! recorder reads no clock.

use std::time::Instant;

/// The layer boundaries the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// One benchmark op; the root every other span in the op nests under.
    Op,
    /// `adassure_exp::campaign::simulate`, one campaign cell.
    CampaignExecute,
    /// Reading an `.adt` file's bytes (the I/O half of `ColumnarTrace::load`).
    ColumnarRead,
    /// `ColumnarTrace::decode` (the parsing half of `ColumnarTrace::load`).
    ColumnarDecode,
    /// `lane::check_columnar` over one lane group.
    LaneCheck,
    /// `diagnosis::diagnose` of one report.
    Diagnose,
    /// Building an `OnlineChecker` from the catalog.
    OnlineBuild,
    /// `checker::for_each_cycle`, the offline cycle sweep of one trace.
    CheckerEvents,
    /// `OnlineChecker::begin_cycle`.
    BeginCycle,
    /// The `OnlineChecker::update` calls of one cycle.
    Update,
    /// `OnlineChecker::end_cycle`.
    EndCycle,
    /// `OnlineChecker::finish`.
    Finish,
    /// `wire::encode_sample_batch` of one batch.
    WireEncode,
    /// `FrameDecoder::next_frame` of one encoded batch.
    WireDecode,
    /// `IngestProducer::open_stream`.
    OpenStream,
    /// `IngestProducer::submit`.
    Submit,
    /// `IngestProducer::close_stream`.
    CloseStream,
    /// `Checkpointer::checkpoint_to`.
    Checkpoint,
}

const SPANS: usize = Span::Checkpoint as usize + 1;

/// Aggregate of every recorded span of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Spans recorded (or items, where one span covers several calls).
    pub count: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed durations minus the time covered by child spans.
    pub self_ns: u64,
}

impl Agg {
    /// Total duration in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }

    /// Mean duration per counted item in `unit_ns` units (0 when no item
    /// was recorded).
    pub fn mean(&self, unit_ns: f64) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / unit_ns
        }
    }
}

struct Frame {
    start: Instant,
    child_ns: u64,
}

/// A per-thread span recorder.
pub struct Spans {
    enabled: bool,
    stack: Vec<Frame>,
    aggs: [Agg; SPANS],
}

impl Spans {
    /// A recorder; when `enabled` is false every call is a no-op.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            stack: Vec::with_capacity(8),
            aggs: [Agg::default(); SPANS],
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span; the matching [`Spans::exit`] names its layer.
    #[inline]
    pub fn enter(&mut self) {
        if self.enabled {
            self.stack.push(Frame {
                start: Instant::now(),
                child_ns: 0,
            });
        }
    }

    /// Closes the innermost open span as one call into `span`.
    #[inline]
    pub fn exit(&mut self, span: Span) {
        self.exit_n(span, 1);
    }

    /// Closes the innermost open span, counting it as `items` calls.
    #[inline]
    pub fn exit_n(&mut self, span: Span, items: u64) {
        if !self.enabled {
            return;
        }
        let frame = self.stack.pop().expect("exit without a matching enter");
        let ns = frame.start.elapsed().as_nanos() as u64;
        let agg = &mut self.aggs[span as usize];
        agg.count += items;
        agg.total_ns += ns;
        agg.self_ns += ns.saturating_sub(frame.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += ns;
        }
    }

    /// Runs `f` inside one span of `span`.
    #[inline]
    pub fn time<T>(&mut self, span: Span, f: impl FnOnce() -> T) -> T {
        self.enter();
        let out = f();
        self.exit(span);
        out
    }

    /// The aggregate of one layer.
    pub fn get(&self, span: Span) -> Agg {
        self.aggs[span as usize]
    }

    /// Adds another recorder's aggregates (another thread's spans).
    pub fn merge(&mut self, other: &Spans) {
        for (mine, theirs) in self.aggs.iter_mut().zip(&other.aggs) {
            mine.count += theirs.count;
            mine.total_ns += theirs.total_ns;
            mine.self_ns += theirs.self_ns;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut spans = Spans::new(true);
        spans.enter();
        spans.time(Span::Diagnose, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        spans.enter();
        spans.time(Span::BeginCycle, || ());
        spans.exit(Span::CheckerEvents);
        spans.exit(Span::Op);
        let op = spans.get(Span::Op);
        assert_eq!(op.count, 1);
        let self_sum: u64 = spans.aggs.iter().map(|a| a.self_ns).sum();
        assert_eq!(self_sum, op.total_ns);
        assert!(spans.get(Span::Diagnose).total_ns >= 2_000_000);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut spans = Spans::new(false);
        spans.time(Span::Op, || ());
        assert_eq!(spans.get(Span::Op).count, 0);
    }
}
