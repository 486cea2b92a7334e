//! Offline assertion evaluation over columnar traces, 64 cycles at a time.
//!
//! The scalar offline path ([`crate::checker::check`]) replays one trace at
//! a time through [`crate::online::OnlineChecker`], paying per-sample id
//! routing and per-monitor dispatch for every cycle. This module checks a
//! trace monitor by monitor instead, over whole columns, and its lanes are
//! 64 consecutive cycles of that trace: one bit of a `u64` verdict word
//! per cycle. A trace is checked in three steps:
//!
//! 1. *Columns.* Each plan slot's sample-and-hold state is resolved once
//!    per trace. A dense slot (one sample per cycle, the controller-rate
//!    bulk of a drive) is read in place from the trace's own columns; a
//!    sparse one is forward-filled into held value and time columns. A
//!    slot some condition differentiates also gets a per-cycle derivative
//!    column (plain or angle-wrapped), built by one loop into which the
//!    wrap inlines. A slot's validity is one index: the
//!    first cycle holding a sample, or a step.
//! 2. *Kernel.* The monitor's compiled condition kernel
//!    ([`crate::compile`]) runs as a plain loop over contiguous column
//!    slices. A `Program` kernel runs its postfix ops in place on 64-cycle
//!    blocks of a stack allocated once per trace to the catalog's deepest
//!    program, so no block is copied by value. The values are compared
//!    with the limit eight cycles per step, the direction chosen once per
//!    monitor, and packed into 64-cycle `healthy` words. Together with the
//!    grace and validity start indices and, under a finite staleness
//!    horizon, the online checker's own health machine stepped per cycle,
//!    these give one word per verdict class.
//! 3. *Temporal scan.* Verdict counts are popcounts and flips are the
//!    class words XORed with themselves shifted by one cycle. Episodes are
//!    runs of violated bits, so the scan visits only the words that hold
//!    a violated cycle or continue a violated run.
//!
//! # Semantics: bit-identical to the scalar path
//!
//! The lane path produces, per trace, exactly the [`CheckReport`] (and
//! per-run metrics) the scalar replay produces — every violation's onset,
//! detection time, payload value and recovery stamp agrees down to the
//! `f64` bit pattern. The differential property test in
//! `tests/proptests.rs` pins this, including health/Inconclusive
//! transitions under a finite staleness horizon. Key correspondences:
//!
//! * cycle boundaries: a [`ColumnarTrace`]'s cycle grid is exactly the set
//!   of distinct timestamps [`crate::checker::for_each_cycle`] sweeps;
//! * expression evaluation: each kernel does, per cycle, the `f64`
//!   operations [`crate::compile::CompiledCondition::eval`] does, in the
//!   same order; a held derivative is the quotient the scalar path
//!   computes from the same held step;
//! * validity: offline traces carry no poisoned (non-finite) samples —
//!   [`adassure_trace::Trace`] rejects them at record time — so once a
//!   slot is seen (or stepped) it stays so, and `Unknown` is exactly the
//!   cycles before the kernel's inputs' latest start;
//! * the verdict cache: the scalar path replays a cached verdict when no
//!   input changed; all cached conditions are pure functions of stored
//!   state, so evaluating every cycle is bit-identical by construction;
//! * grace: cycle times strictly increase, so the cycles past an
//!   assertion's grace period are a suffix of the trace, from one index.

use std::borrow::Cow;

use adassure_obs::{
    AssertionStats, Health as ObsHealth, Histogram, MetricsSnapshot, TransitionGrid, VerdictCounts,
};
use adassure_trace::ColumnarTrace;

use crate::assertion::{Assertion, Temporal};
use crate::compile::{Kernel, Op};
use crate::expr::wrap_angle;
use crate::online::{CheckerPlan, HealthConfig, HealthMachine};
use crate::report::CheckReport;
use crate::violation::Violation;

/// The batch size of callers that check a corpus a fixed number of files
/// at a time (the benchmark's offline op loads this many). The engine
/// itself checks one trace at a time, so nothing here depends on it.
pub const LANES: usize = 8;

/// Cycles per verdict word.
const WORD: usize = 64;

/// A catalog lowered for columnar execution, reusable across traces: the
/// shared [`CheckerPlan`] (conditions, input slots, staleness exemptions,
/// signal table) plus the per-slot columns its kernels read.
struct Plan {
    core: CheckerPlan,
    /// Per slot: some condition takes its derivative / angular derivative.
    need_deriv: Vec<bool>,
    need_angular: Vec<bool>,
    /// Per slot: a `Fresh` condition ages it.
    need_time: Vec<bool>,
}

impl Plan {
    fn compile(catalog: &[Assertion]) -> Plan {
        let core = CheckerPlan::compile(catalog.iter().cloned());
        let mut need_deriv = vec![false; core.width];
        let mut need_angular = vec![false; core.width];
        let mut need_time = vec![false; core.width];
        for monitor in core.monitors() {
            match &monitor.condition.kernel {
                Kernel::Deriv { slot, .. } => need_deriv[*slot as usize] = true,
                Kernel::AngDerivSubAbs { d, .. } => need_angular[*d as usize] = true,
                Kernel::Fresh { slot } => need_time[*slot as usize] = true,
                Kernel::Program(expr) => {
                    for op in expr.ops() {
                        match *op {
                            Op::Derivative(s) => need_deriv[s as usize] = true,
                            Op::AngularDerivative(s) => need_angular[s as usize] = true,
                            _ => {}
                        }
                    }
                }
                Kernel::Sig { .. }
                | Kernel::SubAbs { .. }
                | Kernel::SubMulConst { .. }
                | Kernel::MulAbs { .. } => {}
            }
        }
        Plan {
            core,
            need_deriv,
            need_angular,
            need_time,
        }
    }
}

/// One slot's sample-and-hold state at every cycle of one trace. Column
/// entries before `seen` (or, for the derivatives, `stepped`) are
/// unspecified and never read; columns the plan does not need are empty.
struct Slot<'t> {
    /// First cycle holding a sample of the slot (the cycle count if none).
    seen: usize,
    /// First cycle holding a step, i.e. the slot's second sample.
    stepped: usize,
    /// Held value, and the held sample's timestamp.
    value: Cow<'t, [f64]>,
    time: Cow<'t, [f64]>,
    /// The last step's `delta / dt` and `wrap_angle(delta) / dt`.
    deriv: Vec<f64>,
    angular: Vec<f64>,
}

/// Forward-fills a per-sample column onto the cycle grid: cycle `k` holds
/// the newest sample at or before `k`. Each sample is pushed once per
/// cycle it holds, a one-cycle run (the common case in a nearly dense
/// series) as a single push.
fn hold(column: &[f64], cycles: &[u32], n: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    out.resize(cycles.first().map_or(n, |&c| c as usize), 0.0);
    for (run, &v) in cycles.windows(2).zip(column) {
        match (run[1] - run[0]) as usize {
            1 => out.push(v),
            held => out.extend(std::iter::repeat_n(v, held)),
        }
    }
    if let Some(&last) = column.last() {
        out.resize(n, last);
    }
    out
}

/// A slot's per-cycle step column: `wrap(delta) / dt` of each sample's
/// step from its predecessor, mirroring `Env::update_slot` (series
/// timestamps strictly increase), held onto the cycle grid unless the
/// series is `dense`. `wrap` is generic, not a `fn` pointer, so the plain
/// derivative is a divide loop and `wrap_angle` inlines.
fn steps(
    values: &[f64],
    times: &[f64],
    cycles: &[u32],
    n: usize,
    dense: bool,
    wrap: impl Fn(f64) -> f64,
) -> Vec<f64> {
    let mut per_sample = Vec::with_capacity(values.len());
    per_sample.push(0.0);
    per_sample.extend(
        values
            .windows(2)
            .zip(times.windows(2))
            .map(|(v, t)| wrap(v[1] - v[0]) / (t[1] - t[0])),
    );
    if dense {
        per_sample
    } else {
        hold(&per_sample, cycles, n)
    }
}

/// Resolves every plan slot's columns for `trace`. `health_on` adds the
/// timestamp columns the staleness scan reads.
fn slots<'t>(plan: &Plan, trace: &'t ColumnarTrace, health_on: bool) -> Vec<Slot<'t>> {
    let n = trace.cycle_count();
    let mut slots: Vec<Slot> = (0..plan.core.width)
        .map(|_| Slot {
            seen: n,
            stepped: n,
            value: Cow::Borrowed(&[]),
            time: Cow::Borrowed(&[]),
            deriv: Vec::new(),
            angular: Vec::new(),
        })
        .collect();
    for (i, id) in trace.signals().iter().enumerate() {
        // Signals outside the compiled table are skipped, as the scalar
        // path ignores samples of signals no assertion reads.
        let Some(s) = plan.core.env_proto.slot(id) else {
            continue;
        };
        let s = s as usize;
        let (times, values, cycles) = trace.series(i);
        let Some(&first) = cycles.first() else {
            continue;
        };
        // Cycle indices strictly increase, so a series with one sample
        // per cycle has the identity index and is its own held column.
        let dense = cycles.len() == n;
        let held = |column: &'t [f64]| {
            if dense {
                Cow::Borrowed(column)
            } else {
                Cow::Owned(hold(column, cycles, n))
            }
        };
        slots[s] = Slot {
            seen: first as usize,
            stepped: cycles.get(1).map_or(n, |&c| c as usize),
            value: held(values),
            time: if plan.need_time[s] || health_on {
                held(times)
            } else {
                Cow::Borrowed(&[])
            },
            deriv: if plan.need_deriv[s] {
                steps(values, times, cycles, n, dense, |d| d)
            } else {
                Vec::new()
            },
            angular: if plan.need_angular[s] {
                steps(values, times, cycles, n, dense, wrap_angle)
            } else {
                Vec::new()
            },
        };
    }
    slots
}

/// The first cycle at which every input of `kernel` is seen (or stepped,
/// for derivatives): the scalar evaluator returns `Unknown` exactly before
/// it.
fn valid_from(kernel: &Kernel, slots: &[Slot]) -> usize {
    let seen = |s: u32| slots[s as usize].seen;
    let stepped = |s: u32| slots[s as usize].stepped;
    match *kernel {
        Kernel::Sig { slot, .. } | Kernel::Fresh { slot } => seen(slot),
        Kernel::Deriv { slot, .. } => stepped(slot),
        Kernel::SubAbs { a, b } | Kernel::SubMulConst { a, b, .. } | Kernel::MulAbs { a, b } => {
            seen(a).max(seen(b))
        }
        Kernel::AngDerivSubAbs { d, b } => stepped(d).max(seen(b)),
        Kernel::Program(ref expr) => expr
            .ops()
            .iter()
            .map(|op| match *op {
                Op::Signal(s) => seen(s),
                Op::Derivative(s) | Op::AngularDerivative(s) => stepped(s),
                _ => 0,
            })
            .max()
            .unwrap_or(0),
    }
}

fn map1(out: &mut [f64], a: &[f64], f: impl Fn(f64) -> f64) {
    for (o, &a) in out.iter_mut().zip(a) {
        *o = f(a);
    }
}

fn map2(out: &mut [f64], a: &[f64], b: &[f64], f: impl Fn(f64, f64) -> f64) {
    for ((o, &a), &b) in out.iter_mut().zip(a).zip(b) {
        *o = f(a, b);
    }
}

/// Writes `kernel`'s value at cycles `lo..lo + out.len()` into `out`;
/// every input must be valid over that range. Each arm does, per cycle,
/// the `f64` operations [`crate::compile::CompiledCondition::eval`] does.
fn eval_kernel(
    kernel: &Kernel,
    slots: &[Slot],
    now: &[f64],
    lo: usize,
    out: &mut [f64],
    stack: &mut [[f64; WORD]],
) {
    let hi = lo + out.len();
    let value = |s: u32| &slots[s as usize].value[lo..hi];
    let deriv = |s: u32| &slots[s as usize].deriv[lo..hi];
    match *kernel {
        Kernel::Sig { slot, abs: false } => out.copy_from_slice(value(slot)),
        Kernel::Sig { slot, abs: true } => map1(out, value(slot), f64::abs),
        Kernel::Deriv { slot, abs: false } => out.copy_from_slice(deriv(slot)),
        Kernel::Deriv { slot, abs: true } => map1(out, deriv(slot), f64::abs),
        Kernel::SubAbs { a, b } => map2(out, value(a), value(b), |a, b| (a - b).abs()),
        Kernel::SubMulConst { a, b, c } => map2(out, value(a), value(b), |a, b| a - b * c),
        Kernel::MulAbs { a, b } => map2(out, value(a), value(b), |a, b| (a * b).abs()),
        Kernel::AngDerivSubAbs { d, b } => {
            map2(out, &slots[d as usize].angular[lo..hi], value(b), |d, b| {
                (d - b).abs()
            })
        }
        Kernel::Fresh { slot } => map2(
            out,
            &now[lo..hi],
            &slots[slot as usize].time[lo..hi],
            |t, s| t - s,
        ),
        // Postfix ops on up to 64-cycle blocks, evaluated in place: the
        // stack holds the program's `max_stack` blocks and `d` is its
        // depth, so no block is ever copied by value.
        Kernel::Program(ref expr) => {
            for (block, out) in out.chunks_mut(WORD).enumerate() {
                let at = lo + block * WORD;
                let len = out.len();
                let mut d = 0;
                for op in expr.ops() {
                    match *op {
                        Op::Signal(s) => push(stack, &mut d, len)
                            .copy_from_slice(&slots[s as usize].value[at..][..len]),
                        Op::Const(v) => push(stack, &mut d, len).fill(v),
                        Op::Derivative(s) => push(stack, &mut d, len)
                            .copy_from_slice(&slots[s as usize].deriv[at..][..len]),
                        Op::AngularDerivative(s) => push(stack, &mut d, len)
                            .copy_from_slice(&slots[s as usize].angular[at..][..len]),
                        Op::Abs => unary(&mut stack[d - 1][..len], f64::abs),
                        Op::Neg => unary(&mut stack[d - 1][..len], |v| -v),
                        Op::Tan => unary(&mut stack[d - 1][..len], f64::tan),
                        Op::Add => binary(stack, &mut d, len, |a, b| a + b),
                        Op::Sub => binary(stack, &mut d, len, |a, b| a - b),
                        Op::Mul => binary(stack, &mut d, len, |a, b| a * b),
                        Op::AngleDiff => binary(stack, &mut d, len, |a, b| wrap_angle(a - b)),
                    }
                }
                out.copy_from_slice(&stack[0][..len]);
            }
        }
    }
}

/// The first `len` cycles of the block above depth `d`, which becomes the
/// top of the stack.
fn push<'s>(stack: &'s mut [[f64; WORD]], d: &mut usize, len: usize) -> &'s mut [f64] {
    *d += 1;
    &mut stack[*d - 1][..len]
}

fn unary(top: &mut [f64], f: impl Fn(f64) -> f64) {
    for v in top {
        *v = f(*v);
    }
}

/// Combines the top two blocks into the lower one, which becomes the top.
fn binary(stack: &mut [[f64; WORD]], d: &mut usize, len: usize, f: impl Fn(f64, f64) -> f64) {
    *d -= 1;
    let (below, top) = stack.split_at_mut(*d);
    for (a, &b) in below[*d - 1][..len].iter_mut().zip(&top[0][..len]) {
        *a = f(*a, b);
    }
}

/// Sets bit `k % 64` of `words[k / 64]` where `ok(values[k])`, eight
/// cycles per step; `values` spans whole words.
fn pack(values: &[f64], words: &mut [u64], ok: impl Fn(f64) -> bool) {
    for (word, chunk) in words.iter_mut().zip(values.chunks_exact(WORD)) {
        let mut bits = 0;
        for (i, eight) in chunk.chunks_exact(8).enumerate() {
            let byte = eight
                .iter()
                .enumerate()
                .fold(0u64, |byte, (j, &v)| byte | u64::from(ok(v)) << j);
            bits |= byte << (8 * i);
        }
        *word = bits;
    }
}

/// The bits of word `w` whose cycles fall in `from..to`.
fn span(w: usize, from: usize, to: usize) -> u64 {
    let bits = |k: usize| match k.saturating_sub(w * WORD) {
        0 => 0,
        b if b >= WORD => u64::MAX,
        b => (1u64 << b) - 1,
    };
    bits(to) & !bits(from)
}

/// The first cycle at or after `from` whose bit in `words` is `set`.
fn next(words: &[u64], from: usize, set: bool) -> Option<usize> {
    let flip = if set { 0 } else { u64::MAX };
    let mut w = from / WORD;
    let mut word = (*words.get(w)? ^ flip) & (u64::MAX << (from % WORD));
    loop {
        if word != 0 {
            return Some(w * WORD + word.trailing_zeros() as usize);
        }
        w += 1;
        word = *words.get(w)? ^ flip;
    }
}

/// Checks one trace: its report and the metrics the scalar
/// [`crate::checker::check_observed`] produces with events disabled.
fn check_trace(
    plan: &Plan,
    health: &HealthConfig,
    trace: &ColumnarTrace,
) -> (CheckReport, MetricsSnapshot) {
    let n = trace.cycle_count();
    let now = trace.cycle_times();
    // Offline traces carry no non-finite samples, so with an infinite
    // staleness horizon no input can ever go missing: every monitor stays
    // Active and the health layer is skipped.
    let health_on = health.stale_after.is_finite();
    let slots = slots(plan, trace, health_on);
    let words = n.div_ceil(WORD);
    let mut values = vec![0.0; words * WORD];
    let (mut pass, mut viol, mut inc) = (vec![0u64; words], vec![0u64; words], vec![0u64; words]);
    let mut healthy = vec![0u64; words];
    let mut stack = vec![[0.0; WORD]; plan.core.max_stack];
    // Violations tagged with their detection cycle: monitors are checked
    // one after another, and the scalar replay reports in (cycle, monitor)
    // order, which a stable sort on the tag restores.
    let mut tagged: Vec<(usize, Violation)> = Vec::new();
    let mut inconclusive = 0;
    let mut grid = TransitionGrid::new();
    let mut stats = Vec::with_capacity(plan.core.monitors().len());

    for pm in plan.core.monitors() {
        let assertion = pm.assertion();
        let start = now.partition_point(|&t| t < assertion.grace);
        let cond = &pm.condition;
        let valid = valid_from(&cond.kernel, &slots).max(start);
        if valid < n {
            eval_kernel(
                &cond.kernel,
                &slots,
                now,
                valid,
                &mut values[valid..n],
                &mut stack,
            );
            // Words before `valid`'s are masked out below, so only the
            // rest are packed; the branch on the direction is taken once.
            let (from, limit) = (valid / WORD * WORD, cond.limit);
            let (values, healthy) = (&values[from..], &mut healthy[from / WORD..]);
            if cond.at_least {
                pack(values, healthy, |v| v >= limit);
            } else {
                pack(values, healthy, |v| v <= limit);
            }
        }

        // Health layer: the online checker's machine, stepped per cycle
        // (minus poisoning, impossible offline).
        let mut counts = VerdictCounts::default();
        inc.fill(0);
        if health_on {
            let mut machine = HealthMachine::default();
            for k in start..n {
                let stale = |&&s: &&u32| {
                    let slot = &slots[s as usize];
                    k >= slot.seen && now[k] - slot.time[k] > health.stale_after
                };
                let missing = if pm.staleness_exempt {
                    0
                } else {
                    pm.input_slots.iter().filter(stale).count() as u32
                };
                let prev = machine.obs();
                if machine.step(missing, health) {
                    inc[k / WORD] |= 1 << (k % WORD);
                    counts.inconclusive += 1;
                }
                let new = machine.obs();
                if new != prev {
                    grid.record(prev.index(), new.index());
                }
            }
        }

        // Class words, counts and flips. Cycles inside the grace period
        // have no class bit, which is also how an `Unknown` cycle looks,
        // so the first processed cycle compares against `Unknown` as the
        // scalar checker's initial last verdict. Words wholly inside the
        // grace period hold no processed cycle and are never read, so the
        // scan starts at `start`'s word.
        let mut flips = 0;
        let mut carry = [0u64; 3];
        for w in start / WORD..words {
            let processed = span(w, start, n);
            let is_valid = span(w, valid, n);
            let rest = processed & !inc[w];
            pass[w] = rest & is_valid & healthy[w];
            viol[w] = rest & is_valid & !healthy[w];
            counts.pass += u64::from(pass[w].count_ones());
            counts.violated += u64::from(viol[w].count_ones());
            let mut changed = 0;
            for (class, carry) in [pass[w], viol[w], inc[w]].into_iter().zip(&mut carry) {
                changed |= class ^ (class << 1 | *carry);
                *carry = class >> (WORD - 1);
            }
            flips += u64::from((processed & changed).count_ones());
        }
        // Each processed cycle is in exactly one class, unknown the rest.
        counts.unknown = (n - start) as u64 - counts.pass - counts.inconclusive - counts.violated;
        inconclusive += counts.inconclusive;

        // Temporal scan: each run of violated cycles is one episode, ended
        // by the first cycle that is not violated. A healthy end stamps
        // the alarm's recovery; an unknown or inconclusive one only
        // resets the episode.
        let mut episodes = 0;
        let mut k = start;
        while let Some(first) = next(&viol, k, true) {
            let end = next(&viol, first, false).map_or(n, |e| e.min(n));
            let onset = now[first];
            let alarm = match assertion.temporal {
                Temporal::Immediate => Some(first),
                Temporal::Sustained(d) => (first..end).find(|&k| now[k] - onset >= d),
                Temporal::Eventually => None, // judged at the end
            };
            if let Some(at) = alarm {
                episodes += 1;
                let healed = end < n && (pass[end / WORD] >> (end % WORD)) & 1 == 1;
                tagged.push((
                    at,
                    Violation {
                        assertion: assertion.id.clone(),
                        severity: assertion.severity,
                        onset,
                        detected: now[at],
                        value: values[at],
                        cycle: at as u64,
                        recovered: healed.then(|| now[end]),
                    },
                ));
            }
            k = end;
        }
        if assertion.temporal == Temporal::Eventually && counts.pass == 0 && counts.violated > 0 {
            // Tagged past every cycle, so the sort keeps these last and
            // in monitor order, as the scalar `finish` appends them.
            episodes += 1;
            tagged.push((
                n,
                Violation {
                    assertion: assertion.id.clone(),
                    severity: assertion.severity,
                    onset: assertion.grace,
                    detected: trace.end_time(),
                    value: f64::NAN,
                    cycle: n as u64,
                    recovered: None,
                },
            ));
        }
        stats.push(AssertionStats {
            id: assertion.id.as_str().to_owned(),
            verdicts: counts,
            flips,
            episodes,
        });
    }

    tagged.sort_by_key(|&(k, _)| k);
    let violations = tagged.into_iter().map(|(_, v)| v).collect();
    let mut report = CheckReport::new(violations, trace.end_time(), stats.len());
    report.inconclusive_cycles = inconclusive;
    let metrics = MetricsSnapshot {
        cycles: n as u64,
        assertions: stats,
        health_transitions: grid.sparse([
            ObsHealth::Active.name(),
            ObsHealth::Degraded.name(),
            ObsHealth::Suspended.name(),
        ]),
        guard_transitions: Vec::new(),
        events_emitted: 0,
        eval_cycle_ns: Histogram::nanos(),
        detection_latency_s: Histogram::seconds(),
    };
    (report, metrics)
}

/// Checks a batch of columnar traces against `catalog` with the default
/// [`HealthConfig`], one trace at a time against one compiled plan.
/// Reports are returned in input order and are bit-identical to
/// [`crate::checker::check`] run per trace.
///
/// # Example
///
/// ```
/// use adassure_core::catalog::{self, CatalogConfig};
/// use adassure_core::{checker, lane};
/// use adassure_trace::{ColumnarTrace, Trace};
///
/// let mut trace = Trace::new();
/// for i in 0..100 {
///     trace.record("xtrack_err", f64::from(i) * 0.01, 3.0);
/// }
/// let cat = catalog::build(&CatalogConfig::default());
/// let columnar = ColumnarTrace::from_trace(&trace);
/// let reports = lane::check_columnar(&cat, std::slice::from_ref(&columnar));
/// assert_eq!(reports[0], checker::check(&cat, &trace));
/// ```
pub fn check_columnar(catalog: &[Assertion], traces: &[ColumnarTrace]) -> Vec<CheckReport> {
    check_columnar_observed(catalog, HealthConfig::default(), traces)
        .into_iter()
        .map(|(report, _)| report)
        .collect()
}

/// Columnar checking under an explicit telemetry-health configuration:
/// per trace, the report *and* the final [`MetricsSnapshot`] (cycles,
/// per-assertion verdict counters, flips, episodes, health transitions) —
/// what the scalar [`crate::checker::check_observed`] produces with events
/// disabled.
pub fn check_columnar_observed(
    catalog: &[Assertion],
    health: HealthConfig,
    traces: &[ColumnarTrace],
) -> Vec<(CheckReport, MetricsSnapshot)> {
    let plan = Plan::compile(catalog);
    traces
        .iter()
        .map(|trace| check_trace(&plan, &health, trace))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assertion::{Condition, Severity};
    use crate::catalog::{self, CatalogConfig};
    use crate::checker;
    use crate::expr::SignalExpr;
    use adassure_trace::Trace;

    fn bound(limit: f64) -> Assertion {
        Assertion::new(
            "A1",
            "bounded x",
            Severity::Critical,
            Condition::AtMost {
                expr: SignalExpr::signal("x").abs(),
                limit,
            },
        )
    }

    /// Report equality down to the `f64` bit pattern — `Eventually`
    /// violations carry a `NaN` payload, which derived `PartialEq`
    /// (IEEE `==`) would spuriously report as unequal.
    fn assert_reports_bit_equal(lane: &CheckReport, scalar: &CheckReport) {
        assert_eq!(lane.end_time.to_bits(), scalar.end_time.to_bits());
        assert_eq!(lane.assertions_checked, scalar.assertions_checked);
        assert_eq!(lane.inconclusive_cycles, scalar.inconclusive_cycles);
        assert_eq!(lane.violations.len(), scalar.violations.len());
        for (a, b) in lane.violations.iter().zip(&scalar.violations) {
            assert_eq!(a.assertion, b.assertion);
            assert_eq!(a.severity, b.severity);
            assert_eq!(a.onset.to_bits(), b.onset.to_bits());
            assert_eq!(a.detected.to_bits(), b.detected.to_bits());
            assert_eq!(a.value.to_bits(), b.value.to_bits());
            assert_eq!(a.recovered.map(f64::to_bits), b.recovered.map(f64::to_bits));
        }
    }

    fn excursion_trace(phase: f64) -> Trace {
        let mut t = Trace::new();
        for i in 0..200 {
            let time = f64::from(i) * 0.01;
            let v = if (phase..phase + 0.4).contains(&time) {
                5.0
            } else {
                0.3
            };
            t.record("x", time, v);
        }
        t
    }

    /// Checks `trace` on the lane engine (both entry points) and on the
    /// scalar replay, asserts the reports and metrics agree, and returns
    /// the scalar report.
    fn check_both(catalog: &[Assertion], trace: &Trace) -> CheckReport {
        use adassure_obs::{NullSink, ObsConfig};

        let (scalar, scalar_metrics, _) = checker::check_observed(
            catalog,
            HealthConfig::default(),
            trace,
            0,
            &ObsConfig::disabled(),
            Box::new(NullSink),
        );
        let columnar = [ColumnarTrace::from_trace(trace)];
        let (report, metrics) =
            &check_columnar_observed(catalog, HealthConfig::default(), &columnar)[0];
        assert_reports_bit_equal(report, &scalar);
        assert_eq!(metrics.summary(), scalar_metrics.summary());
        assert_reports_bit_equal(&check_columnar(catalog, &columnar)[0], &scalar);
        scalar
    }

    /// `cycles` cycles of "x" every 10 ms: 5.0 on the `hot` cycles, 0.3
    /// elsewhere.
    fn window_trace(cycles: u32, hot: std::ops::Range<u32>) -> Trace {
        let mut t = Trace::new();
        for i in 0..cycles {
            t.record("x", cycle_time(i), if hot.contains(&i) { 5.0 } else { 0.3 });
        }
        t
    }

    fn cycle_time(i: u32) -> f64 {
        f64::from(i) * 0.01
    }

    #[test]
    fn sustained_episode_straddles_a_word_edge() {
        // Violated from cycle 60; 40 ms later is cycle 64, the first cycle
        // of the second 64-cycle word. A zero duration alarms at onset.
        let catalog = [
            bound(1.0).with_temporal(Temporal::Sustained(0.04)),
            bound(1.0).with_temporal(Temporal::Sustained(0.0)),
        ];
        let report = check_both(&catalog, &window_trace(200, 60..90));
        let [at_onset, straddling] = report.violations.as_slice() else {
            panic!("two alarms: {:?}", report.violations);
        };
        assert_eq!(at_onset.cycle, 60);
        assert_eq!(straddling.cycle, 64);
        for v in [at_onset, straddling] {
            assert_eq!(v.onset.to_bits(), cycle_time(60).to_bits());
            assert_eq!(v.recovered, Some(cycle_time(90)));
        }
    }

    #[test]
    fn alarm_recovers_in_the_next_word() {
        let catalog = [bound(1.0)];
        let report = check_both(&catalog, &window_trace(100, 61..64));
        let [v] = report.violations.as_slice() else {
            panic!("one alarm: {:?}", report.violations);
        };
        assert_eq!(v.cycle, 61);
        assert_eq!(v.recovered, Some(cycle_time(64)));
    }

    #[test]
    fn grace_ends_mid_word() {
        // Cycle 101 (1.01 s) is the first past the 1.005 s grace period;
        // the episode that began at cycle 95 is not seen before it.
        let catalog = [
            bound(1.0).with_grace(1.005),
            bound(1.0)
                .with_grace(1.005)
                .with_temporal(Temporal::Sustained(0.05)),
        ];
        let report = check_both(&catalog, &window_trace(200, 95..110));
        assert_eq!(report.violations.len(), 2, "{:?}", report.violations);
        for v in &report.violations {
            assert_eq!(v.onset.to_bits(), cycle_time(101).to_bits());
            assert_eq!(v.recovered, Some(cycle_time(110)));
        }
        assert_eq!(report.violations[0].cycle, 101);
    }

    #[test]
    fn eventually_is_judged_at_a_one_word_trace_end() {
        let catalog = [Assertion::new(
            "A3",
            "reaches 4 eventually",
            Severity::Warning,
            Condition::AtLeast {
                expr: SignalExpr::signal("x"),
                limit: 4.0,
            },
        )
        .with_temporal(Temporal::Eventually)];
        let never = check_both(&catalog, &window_trace(64, 0..0));
        let [v] = never.violations.as_slice() else {
            panic!("one judgement: {:?}", never.violations);
        };
        assert_eq!(v.cycle, 64);
        assert_eq!(v.detected.to_bits(), cycle_time(63).to_bits());
        // Healthy only at the last cycle of the word still counts.
        assert!(check_both(&catalog, &window_trace(64, 63..64)).is_clean());
    }

    #[test]
    fn exact_limits_at_byte_and_word_edges_match_scalar() {
        // Verdict words are packed eight cycles per step with inclusive
        // comparisons: a value equal to the limit is healthy in both
        // directions. Exact hits sit on the first and last cycle of every
        // byte (so of every word) and on every fifth cycle; the others
        // step half a unit above and below the limit.
        let limit = 0.75;
        let value = |i: u32| match i {
            i if i % 8 == 0 || i % 8 == 7 || i % 5 == 0 => limit,
            i if i % 2 == 0 => limit + 0.5,
            _ => limit - 0.5,
        };
        // A bare signal runs the `Sig` kernel; adding 0.0 keeps every
        // value exact but runs the `Program` kernel.
        let exprs = [
            SignalExpr::signal("x"),
            SignalExpr::signal("x").add(SignalExpr::constant(0.0)),
        ];
        let mut catalog = Vec::new();
        for (i, expr) in exprs.into_iter().enumerate() {
            let at_most = Condition::AtMost {
                expr: expr.clone(),
                limit,
            };
            let at_least = Condition::AtLeast { expr, limit };
            catalog.push(Assertion::new(
                format!("M{i}"),
                "at most",
                Severity::Critical,
                at_most,
            ));
            catalog.push(Assertion::new(
                format!("L{i}"),
                "at least",
                Severity::Critical,
                at_least,
            ));
        }
        for cycles in [1, 7, 8, 9, 63, 64, 65, 129] {
            let mut trace = Trace::new();
            for i in 0..cycles {
                trace.record("x", cycle_time(i), value(i));
            }
            let report = check_both(&catalog, &trace);
            assert!(
                report.violations.iter().all(|v| v.value != limit),
                "{cycles} cycles: an exact hit fired: {:?}",
                report.violations
            );
            if cycles > 2 {
                assert!(
                    !report.is_clean(),
                    "{cycles} cycles: the off-limit steps fire"
                );
            }
        }
    }

    #[test]
    fn lane_batch_matches_scalar_reports() {
        let catalog = [
            bound(1.0),
            bound(1.0).with_temporal(Temporal::Sustained(0.15)),
            Assertion::new(
                "A3",
                "progress eventually",
                Severity::Warning,
                Condition::AtLeast {
                    expr: SignalExpr::signal("x"),
                    limit: 100.0,
                },
            )
            .with_temporal(Temporal::Eventually),
        ];
        let traces: Vec<Trace> = (0..11)
            .map(|i| excursion_trace(f64::from(i) * 0.1))
            .collect();
        let columnar: Vec<ColumnarTrace> = traces.iter().map(ColumnarTrace::from_trace).collect();
        let lane_reports = check_columnar(&catalog, &columnar);
        assert_eq!(lane_reports.len(), traces.len());
        for (trace, lane_report) in traces.iter().zip(&lane_reports) {
            assert_reports_bit_equal(lane_report, &checker::check(&catalog, trace));
        }
    }

    #[test]
    fn empty_batch_and_empty_trace() {
        let catalog = [bound(1.0)];
        assert!(check_columnar(&catalog, &[]).is_empty());
        let empty = ColumnarTrace::from_trace(&Trace::new());
        let reports = check_columnar(&catalog, &[empty]);
        assert!(reports[0].is_clean());
        assert_eq!(reports[0].end_time, 0.0);
    }

    #[test]
    fn standard_catalog_group_matches_scalar() {
        // Mixed-rate signals exercise the forward-filled columns: the GNSS
        // pair updates every third cycle, so its held values, steps and
        // validity starts differ from the dense signals'.
        let cat = catalog::build(&CatalogConfig::default());
        let mut traces = Vec::new();
        for seed in 0..5u32 {
            let mut t = Trace::new();
            for i in 0..300 {
                let time = f64::from(i) * 0.02;
                let wob = f64::from((i * (seed + 3)) % 17) * 0.01;
                t.record("xtrack_err", time, 0.1 + wob);
                t.record("wheel_speed", time, 5.0 + wob);
                if i % 3 == 0 {
                    t.record("gnss_x", time, f64::from(i) * 0.1);
                    t.record("gnss_y", time, wob);
                }
            }
            traces.push(t);
        }
        let columnar: Vec<ColumnarTrace> = traces.iter().map(ColumnarTrace::from_trace).collect();
        for (trace, lane_report) in traces.iter().zip(check_columnar(&cat, &columnar)) {
            assert_reports_bit_equal(&lane_report, &checker::check(&cat, trace));
        }
    }

    #[test]
    fn metrics_match_scalar_observed() {
        use adassure_obs::{NullSink, ObsConfig};

        let catalog = [
            bound(1.0),
            bound(0.2).with_temporal(Temporal::Sustained(0.1)),
        ];
        let traces: Vec<Trace> = (0..3)
            .map(|i| excursion_trace(f64::from(i) * 0.3))
            .collect();
        let columnar: Vec<ColumnarTrace> = traces.iter().map(ColumnarTrace::from_trace).collect();
        let lane = check_columnar_observed(&catalog, HealthConfig::default(), &columnar);
        for (trace, (lane_report, lane_metrics)) in traces.iter().zip(lane) {
            let (report, metrics, _) = checker::check_observed(
                &catalog,
                HealthConfig::default(),
                trace,
                0,
                &ObsConfig::disabled(),
                Box::new(NullSink),
            );
            assert_reports_bit_equal(&lane_report, &report);
            // The deterministic slice must agree; wall-clock timing differs.
            assert_eq!(lane_metrics.summary(), metrics.summary());
        }
    }

    #[test]
    fn staleness_health_matches_scalar() {
        use adassure_obs::{NullSink, ObsConfig};

        // "x" goes dark while "clock" keeps cycles coming: the monitor
        // degrades, suspends, then recovers — all through the lane path.
        let cfg = HealthConfig {
            stale_after: 0.05,
            quarantine_after: 3,
            recover_after: 2,
        };
        let mut trace = Trace::new();
        for i in 0..100 {
            let time = f64::from(i) * 0.02;
            trace.record("clock", time, 0.0);
            if !(20..60).contains(&i) {
                trace.record("x", time, if i > 80 { 9.0 } else { 0.0 });
            }
        }
        let catalog = [bound(1.0)];
        let (scalar, scalar_metrics, _) = checker::check_observed(
            &catalog,
            cfg,
            &trace,
            0,
            &ObsConfig::disabled(),
            Box::new(NullSink),
        );
        let columnar = ColumnarTrace::from_trace(&trace);
        let lane = check_columnar_observed(&catalog, cfg, std::slice::from_ref(&columnar));
        let (lane_report, lane_metrics) = &lane[0];
        assert_reports_bit_equal(lane_report, &scalar);
        assert_eq!(lane_metrics.summary(), scalar_metrics.summary());
        assert!(
            lane_report.inconclusive_cycles > 0,
            "went dark at some point"
        );
        assert!(
            !lane_metrics.health_transitions.is_empty(),
            "the health machine moved"
        );
    }
}
