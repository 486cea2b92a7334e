//! Bounded-memory metrics: per-assertion verdict counters, state-transition
//! grids, and the serializable snapshot types.
//!
//! Live counters ([`VerdictCounts`], [`TransitionGrid`]) are plain fixed
//! arrays the checker/guardian bump in place — no allocation after
//! construction. At the end of a run they are assembled into a
//! [`MetricsSnapshot`]; the deterministic subset of that (everything except
//! wall-clock timing) is an [`ObsSummary`], which is what campaign reports
//! embed so they stay byte-reproducible across machines.

use crate::event::Verdict;
use crate::hist::Histogram;
use serde::{Deserialize, Serialize};

/// How many cycles an assertion spent in each verdict.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerdictCounts {
    /// Cycles with no evaluation yet.
    pub unknown: u64,
    /// Cycles evaluated and satisfied.
    pub pass: u64,
    /// Cycles with untrustworthy inputs.
    pub inconclusive: u64,
    /// Cycles evaluated and violated.
    pub violated: u64,
}

impl VerdictCounts {
    /// Bumps the counter for `v`.
    #[inline]
    pub fn record(&mut self, v: Verdict) {
        match v {
            Verdict::Unknown => self.unknown += 1,
            Verdict::Pass => self.pass += 1,
            Verdict::Inconclusive => self.inconclusive += 1,
            Verdict::Violated => self.violated += 1,
        }
    }

    /// Total cycles counted.
    pub fn total(&self) -> u64 {
        self.unknown + self.pass + self.inconclusive + self.violated
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &VerdictCounts) {
        self.unknown += other.unknown;
        self.pass += other.pass;
        self.inconclusive += other.inconclusive;
        self.violated += other.violated;
    }
}

/// Per-assertion counters, identified by assertion id.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AssertionStats {
    /// Assertion id (e.g. "A7").
    pub id: String,
    /// Cycles spent in each verdict.
    pub verdicts: VerdictCounts,
    /// Verdict changes between consecutive cycles.
    pub flips: u64,
    /// Distinct violation episodes (onset → clear).
    pub episodes: u64,
}

impl AssertionStats {
    /// Fresh zeroed stats for assertion `id` (the one allocation, at
    /// construction time).
    pub fn new(id: &str) -> Self {
        AssertionStats {
            id: id.to_string(),
            ..AssertionStats::default()
        }
    }

    /// Adds `other`'s counters into `self` (ids must already match).
    pub fn merge(&mut self, other: &AssertionStats) {
        self.verdicts.merge(&other.verdicts);
        self.flips += other.flips;
        self.episodes += other.episodes;
    }
}

/// A 3×3 from→to transition counter for three-state machines (telemetry
/// health, guardian mode). Fixed storage, bumped in place on the hot path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransitionGrid {
    counts: [[u64; 3]; 3],
}

impl TransitionGrid {
    /// A zeroed grid.
    pub fn new() -> Self {
        TransitionGrid::default()
    }

    /// Counts one `from → to` transition (state indices from
    /// `Health::index()` / `Guard::index()`).
    #[inline]
    pub fn record(&mut self, from: usize, to: usize) {
        self.counts[from][to] += 1;
    }

    /// Count for one cell.
    pub fn get(&self, from: usize, to: usize) -> u64 {
        self.counts[from][to]
    }

    /// Total transitions recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }

    /// The raw 3×3 count matrix, row-major `[from][to]` — the stable
    /// serialization surface used by checkpoint encoders.
    pub fn counts(&self) -> [[u64; 3]; 3] {
        self.counts
    }

    /// Rebuilds a grid from a count matrix previously obtained via
    /// [`TransitionGrid::counts`].
    pub fn from_counts(counts: [[u64; 3]; 3]) -> Self {
        TransitionGrid { counts }
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &TransitionGrid) {
        for (row, orow) in self.counts.iter_mut().zip(&other.counts) {
            for (cell, ocell) in row.iter_mut().zip(orow) {
                *cell += ocell;
            }
        }
    }

    /// Non-zero cells as named [`Transition`]s, in row-major (from, to)
    /// order, labelled by `labels[index]`.
    pub fn sparse(&self, labels: [&str; 3]) -> Vec<Transition> {
        let mut out = Vec::new();
        for (from, row) in self.counts.iter().enumerate() {
            for (to, &count) in row.iter().enumerate() {
                if count > 0 {
                    out.push(Transition {
                        from: labels[from].to_string(),
                        to: labels[to].to_string(),
                        count,
                    });
                }
            }
        }
        out
    }
}

/// One named state-machine transition with its count.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Transition {
    /// Source state name.
    pub from: String,
    /// Destination state name.
    pub to: String,
    /// Times the transition fired.
    pub count: u64,
}

/// Merges `src` transitions into `dst` by (from, to), appending unseen
/// pairs in encounter order (deterministic for a fixed merge order).
pub fn merge_transitions(dst: &mut Vec<Transition>, src: &[Transition]) {
    for t in src {
        match dst.iter_mut().find(|d| d.from == t.from && d.to == t.to) {
            Some(d) => d.count += t.count,
            None => dst.push(t.clone()),
        }
    }
}

/// Full end-of-run metrics, including wall-clock timing. Exported via
/// `obs_dump` / Prometheus; **not** embedded in campaign reports (see
/// [`ObsSummary`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Cycles evaluated.
    pub cycles: u64,
    /// Per-assertion counters, in catalog order.
    pub assertions: Vec<AssertionStats>,
    /// Telemetry-health transitions (active/degraded/suspended).
    pub health_transitions: Vec<Transition>,
    /// Guardian mode transitions (nominal/degraded/safe_stop).
    pub guard_transitions: Vec<Transition>,
    /// Events that passed the filter and reached the sink.
    pub events_emitted: u64,
    /// Wall-clock cycle-evaluation time, nanoseconds, sampled on one
    /// cycle in 64. Non-deterministic by nature, so no checkpoint image
    /// stores it.
    pub eval_cycle_ns: Histogram,
    /// Detection latency in simulation seconds (fault onset → first
    /// alarm). Sim-time, hence deterministic.
    pub detection_latency_s: Histogram,
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        MetricsSnapshot::empty()
    }
}

impl MetricsSnapshot {
    /// An empty snapshot with the standard histogram layouts.
    pub fn empty() -> Self {
        MetricsSnapshot {
            cycles: 0,
            assertions: Vec::new(),
            health_transitions: Vec::new(),
            guard_transitions: Vec::new(),
            events_emitted: 0,
            eval_cycle_ns: Histogram::nanos(),
            detection_latency_s: Histogram::seconds(),
        }
    }

    /// Adds `other` into `self`: assertions merge by id (unseen ids append
    /// in encounter order), transition lists merge by (from, to),
    /// histograms merge bucket-wise. Merging campaign cells in cell-index
    /// order yields the same snapshot regardless of worker scheduling.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.cycles += other.cycles;
        for stats in &other.assertions {
            match self.assertions.iter_mut().find(|s| s.id == stats.id) {
                Some(s) => s.merge(stats),
                None => self.assertions.push(stats.clone()),
            }
        }
        merge_transitions(&mut self.health_transitions, &other.health_transitions);
        merge_transitions(&mut self.guard_transitions, &other.guard_transitions);
        self.events_emitted += other.events_emitted;
        self.eval_cycle_ns.merge(&other.eval_cycle_ns);
        self.detection_latency_s.merge(&other.detection_latency_s);
    }

    /// The deterministic subset, safe to embed in a campaign report:
    /// everything except the wall-clock `eval_cycle_ns` histogram.
    pub fn summary(&self) -> ObsSummary {
        ObsSummary {
            cycles: self.cycles,
            assertions: self.assertions.clone(),
            health_transitions: self.health_transitions.clone(),
            guard_transitions: self.guard_transitions.clone(),
            events_emitted: self.events_emitted,
            detection_latency_s: self.detection_latency_s.clone(),
        }
    }
}

/// The deterministic slice of a [`MetricsSnapshot`] — no wall-clock data —
/// embedded in `CampaignReport` so reports stay byte-reproducible.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsSummary {
    /// Cycles evaluated.
    pub cycles: u64,
    /// Per-assertion counters.
    pub assertions: Vec<AssertionStats>,
    /// Telemetry-health transitions.
    pub health_transitions: Vec<Transition>,
    /// Guardian mode transitions.
    pub guard_transitions: Vec<Transition>,
    /// Events that passed the filter.
    pub events_emitted: u64,
    /// Detection latency, simulation seconds.
    pub detection_latency_s: Histogram,
}

impl Default for ObsSummary {
    fn default() -> Self {
        ObsSummary {
            cycles: 0,
            assertions: Vec::new(),
            health_transitions: Vec::new(),
            guard_transitions: Vec::new(),
            events_emitted: 0,
            detection_latency_s: Histogram::seconds(),
        }
    }
}

impl ObsSummary {
    /// An empty summary (what reports carry when observability is off).
    pub fn empty() -> Self {
        ObsSummary::default()
    }

    /// The summary as a full snapshot with an empty `eval_cycle_ns`: the
    /// inverse of [`MetricsSnapshot::summary`] up to its wall-clock data.
    pub fn into_snapshot(self) -> MetricsSnapshot {
        MetricsSnapshot {
            cycles: self.cycles,
            assertions: self.assertions,
            health_transitions: self.health_transitions,
            guard_transitions: self.guard_transitions,
            events_emitted: self.events_emitted,
            eval_cycle_ns: Histogram::nanos(),
            detection_latency_s: self.detection_latency_s,
        }
    }

    /// Adds `other` into `self` with the same semantics as
    /// [`MetricsSnapshot::merge`].
    pub fn merge(&mut self, other: &ObsSummary) {
        self.cycles += other.cycles;
        for stats in &other.assertions {
            match self.assertions.iter_mut().find(|s| s.id == stats.id) {
                Some(s) => s.merge(stats),
                None => self.assertions.push(stats.clone()),
            }
        }
        merge_transitions(&mut self.health_transitions, &other.health_transitions);
        merge_transitions(&mut self.guard_transitions, &other.guard_transitions);
        self.events_emitted += other.events_emitted;
        self.detection_latency_s.merge(&other.detection_latency_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Health;

    #[test]
    fn verdict_counts_record_and_merge() {
        let mut a = VerdictCounts::default();
        a.record(Verdict::Pass);
        a.record(Verdict::Pass);
        a.record(Verdict::Violated);
        let mut b = VerdictCounts::default();
        b.record(Verdict::Inconclusive);
        a.merge(&b);
        assert_eq!(a.pass, 2);
        assert_eq!(a.violated, 1);
        assert_eq!(a.inconclusive, 1);
        assert_eq!(a.total(), 4);
    }

    #[test]
    fn grid_records_and_sparsifies_in_row_major_order() {
        let mut g = TransitionGrid::new();
        g.record(Health::Active.index(), Health::Degraded.index());
        g.record(Health::Active.index(), Health::Degraded.index());
        g.record(Health::Degraded.index(), Health::Active.index());
        let sparse = g.sparse(["active", "degraded", "suspended"]);
        assert_eq!(
            sparse,
            vec![
                Transition {
                    from: "active".into(),
                    to: "degraded".into(),
                    count: 2
                },
                Transition {
                    from: "degraded".into(),
                    to: "active".into(),
                    count: 1
                },
            ]
        );
        assert_eq!(g.total(), 3);
    }

    #[test]
    fn snapshot_merge_is_by_id_and_order_stable() {
        let mut a = MetricsSnapshot::empty();
        a.cycles = 10;
        a.assertions.push(AssertionStats::new("A1"));
        a.assertions[0].verdicts.pass = 10;

        let mut b = MetricsSnapshot::empty();
        b.cycles = 5;
        b.assertions.push(AssertionStats::new("A1"));
        b.assertions[0].verdicts.pass = 3;
        b.assertions.push(AssertionStats::new("A2"));
        b.health_transitions.push(Transition {
            from: "active".into(),
            to: "degraded".into(),
            count: 1,
        });

        a.merge(&b);
        assert_eq!(a.cycles, 15);
        assert_eq!(a.assertions.len(), 2);
        assert_eq!(a.assertions[0].id, "A1");
        assert_eq!(a.assertions[0].verdicts.pass, 13);
        assert_eq!(a.assertions[1].id, "A2");
        assert_eq!(a.health_transitions.len(), 1);

        // Merging the same operands again doubles counts but keeps order.
        a.merge(&b);
        assert_eq!(a.assertions[0].verdicts.pass, 16);
        assert_eq!(a.health_transitions[0].count, 2);
    }

    #[test]
    fn summary_strips_wall_clock_only() {
        let mut snap = MetricsSnapshot::empty();
        snap.cycles = 4;
        snap.eval_cycle_ns.record(125.0);
        snap.detection_latency_s.record(0.42);
        let s = snap.summary();
        assert_eq!(s.cycles, 4);
        assert_eq!(s.detection_latency_s.count, 1);
        let json = serde_json::to_string(&s).unwrap();
        assert!(!json.contains("eval_cycle_ns"));
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut snap = MetricsSnapshot::empty();
        snap.assertions.push(AssertionStats::new("A9"));
        snap.guard_transitions.push(Transition {
            from: "nominal".into(),
            to: "degraded".into(),
            count: 2,
        });
        snap.eval_cycle_ns.record(99.0);
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
