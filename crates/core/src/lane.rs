//! Lane-batched offline assertion evaluation over columnar traces.
//!
//! The scalar offline path ([`crate::checker::check`]) replays one trace at
//! a time through [`crate::online::OnlineChecker`], paying per-sample id
//! routing and per-monitor dispatch for every cycle of every trace. This
//! module amortises that overhead across a *lane group*: up to [`LANES`]
//! traces are checked together in two phases. First the group's
//! sample-and-hold state is resolved slot by slot: dense
//! controller-rate signals are read in place from the trace columns and
//! only sparse remainders are materialised as per-cycle struct-of-arrays
//! rows. Then each monitor sweeps the whole cycle range in one pass
//! (monitor-major, so a pass streams only that monitor's slots). Each op
//! touches a `[f64; LANES]` column — a shape the compiler
//! auto-vectorises — and per-lane validity is a bitmask, so "some signal
//! unseen in lane 3" costs an AND instead of a branch.
//!
//! The catalog is lowered once, by [`CheckerPlan::compile`], exactly as
//! for the scalar checker; the lane engine only derives its shape-matched
//! kernel table and per-slot history needs from that plan. Telemetry
//! health runs through the online checker's own per-monitor health
//! machine, one per lane.
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
//! * expression evaluation: the same [`Op`] sequence runs per lane with
//!   the same operand order, and the validity mask AND mirrors the scalar
//!   evaluator's `Option` short-circuit;
//! * the verdict cache: the scalar path replays a cached verdict when no
//!   input changed; all cached conditions are pure functions of stored
//!   state, so the lane path's unconditional re-evaluation is
//!   bit-identical by construction;
//! * health: offline traces cannot carry poisoned (non-finite) samples —
//!   [`adassure_trace::Trace`] rejects them at record time — so with the
//!   default infinite staleness horizon every monitor stays Active and the
//!   health layer is skipped wholesale; with a finite horizon each lane
//!   steps the online checker's health machine itself.

// Lockstep per-lane index loops (`for l in 0..LANES`) mirror the
// struct-of-arrays layout and keep every lane's op visibly identical;
// iterator rewrites obscure that without changing codegen.
#![allow(clippy::needless_range_loop)]

use adassure_obs::{
    AssertionStats, Health as ObsHealth, Histogram, MetricsSnapshot, TransitionGrid, VerdictCounts,
};
use adassure_trace::ColumnarTrace;

use crate::assertion::{Assertion, Temporal};
use crate::compile::{CompiledCondition, Op};
use crate::expr::wrap_angle;
use crate::online::{CheckerPlan, HealthConfig, HealthMachine};
use crate::report::CheckReport;
use crate::violation::Violation;

/// Traces evaluated together per lane group. A `u8` mask covers it; the
/// column width auto-vectorises on both SSE2 and NEON.
pub const LANES: usize = 8;

/// One validity/selection bit per lane.
type Mask = u8;

/// One signal's sample columns for one lane, consumed front-to-back
/// during history materialisation. Empty slices mean "no such series in
/// this lane" and simply never match a cycle.
#[derive(Clone, Copy, Default)]
struct LaneSeries<'t> {
    times: &'t [f64],
    values: &'t [f64],
    cycles: &'t [u32],
}

/// One slot's per-cycle state: a *dense prefix* read straight from the
/// trace's sample columns, plus materialised sample-and-hold rows for the
/// remaining cycles.
///
/// Controller-rate signals — the bulk of a trace — have exactly one
/// sample per cycle in every lane (an identity cycle index), so cycles
/// `0..dense` need no materialisation at all: the held value at `(k, l)`
/// *is* `values[l][k]`, the last step is `values[l][k] - values[l][k-1]`,
/// and the validity masks are constants. Only the cycles past the dense
/// prefix (sparse GNSS-rate series, or lanes of unequal length) get
/// explicit rows, which keeps the materialisation traffic proportional to
/// the sparse minority instead of the whole trace.
struct SlotHistory<'t> {
    /// Cycles `0..dense` are covered by the sample columns directly.
    dense: usize,
    /// Lanes carrying this signal (all of them whenever `dense > 0`).
    present: Mask,
    /// Per lane: the full sample columns (empty for absent lanes).
    values: [&'t [f64]; LANES],
    times: [&'t [f64]; LANES],
    /// Materialised rows for cycles `dense..max_cycles`, indexed by
    /// `k - dense`: held value / lanes seen, and (only when a condition
    /// needs them) the last step's delta / dt / lanes stepped and the
    /// held sample's timestamp.
    v_col: Vec<[f64; LANES]>,
    s_col: Vec<Mask>,
    d_col: Vec<[f64; LANES]>,
    dt_col: Vec<[f64; LANES]>,
    st_col: Vec<Mask>,
    t_col: Vec<[f64; LANES]>,
}

/// The whole group's sample-and-hold state, resolved per cycle before the
/// monitor sweep runs.
///
/// Interleaving ingest with evaluation — a cursor check per (slot, lane)
/// inside the cycle loop — measured ~13 ns per sample and dominated the
/// whole pass; fully materialising every slot's per-cycle rows just moved
/// the cost into ~10 MB of row stores per group. This layout does
/// neither: dense slots are read in place and only sparse remainders are
/// materialised (see [`SlotHistory`]).
struct History<'t> {
    /// Traces in the group (lanes beyond this index are idle).
    lanes: usize,
    /// Longest lane's cycle count.
    max_cycles: usize,
    /// Per cycle: each lane's clock (its own timestamp for that cycle).
    now: Vec<[f64; LANES]>,
    /// Per cycle: lanes still inside their own trace.
    active: Vec<Mask>,
    slots: Vec<SlotHistory<'t>>,
}

impl History<'_> {
    /// Held value row and seen mask for `slot` at cycle `k`.
    #[inline]
    fn value(&self, slot: usize, k: usize) -> ([f64; LANES], Mask) {
        let sh = &self.slots[slot];
        if k < sh.dense {
            let mut vals = [0.0; LANES];
            for l in 0..self.lanes {
                vals[l] = sh.values[l][k];
            }
            (vals, sh.present)
        } else {
            (sh.v_col[k - sh.dense], sh.s_col[k - sh.dense])
        }
    }

    /// Last step's `(delta, dt, stepped)` for `slot` at cycle `k`.
    #[inline]
    fn deriv(&self, slot: usize, k: usize) -> ([f64; LANES], [f64; LANES], Mask) {
        let sh = &self.slots[slot];
        if k < sh.dense {
            if k == 0 {
                // First sample: seeds value/time only, no step yet.
                return ([0.0; LANES], [1.0; LANES], 0);
            }
            let mut delta = [0.0; LANES];
            let mut dt = [1.0; LANES];
            for l in 0..self.lanes {
                delta[l] = sh.values[l][k] - sh.values[l][k - 1];
                dt[l] = sh.times[l][k] - sh.times[l][k - 1];
            }
            (delta, dt, sh.present)
        } else {
            let i = k - sh.dense;
            (sh.d_col[i], sh.dt_col[i], sh.st_col[i])
        }
    }

    /// Held sample timestamp row and seen mask for `slot` at cycle `k`.
    #[inline]
    fn time(&self, slot: usize, k: usize) -> ([f64; LANES], Mask) {
        let sh = &self.slots[slot];
        if k < sh.dense {
            let mut ts = [0.0; LANES];
            for l in 0..self.lanes {
                ts[l] = sh.times[l][k];
            }
            (ts, sh.present)
        } else {
            (sh.t_col[k - sh.dense], sh.s_col[k - sh.dense])
        }
    }
}

/// Resolves the group's per-cycle state. `health_on` forces update
/// timestamps for every monitored input (the staleness scan reads them);
/// like the derivative columns, that only affects the materialised
/// remainder — the dense prefix always has timestamps in place.
fn build_history<'t>(plan: &Plan, group: &'t [ColumnarTrace], health_on: bool) -> History<'t> {
    let width = plan.core.width;
    // Route each lane's series to the plan slot it feeds. Signals outside
    // the compiled table are skipped, as the scalar path ignores samples
    // of signals no assertion reads.
    let mut series: Vec<[LaneSeries<'t>; LANES]> = vec![Default::default(); width];
    for (l, trace) in group.iter().enumerate() {
        for (i, id) in trace.signals().iter().enumerate() {
            if let Some(slot) = plan.core.env_proto.slot(id) {
                let (times, values, cycles) = trace.series(i);
                series[slot as usize][l] = LaneSeries {
                    times,
                    values,
                    cycles,
                };
            }
        }
    }

    let cycle_counts: Vec<usize> = group.iter().map(ColumnarTrace::cycle_count).collect();
    let cycle_times: Vec<&[f64]> = group.iter().map(ColumnarTrace::cycle_times).collect();
    let max_cycles = cycle_counts.iter().copied().max().unwrap_or(0);

    let mut now = Vec::with_capacity(max_cycles);
    let mut active = Vec::with_capacity(max_cycles);
    let mut now_row = [0.0f64; LANES];
    for k in 0..max_cycles {
        let mut mask: Mask = 0;
        for l in 0..group.len() {
            if k < cycle_counts[l] {
                mask |= 1 << l;
                now_row[l] = cycle_times[l][k];
            }
        }
        now.push(now_row);
        active.push(mask);
    }

    let all_lanes = ((1u16 << group.len()) - 1) as Mask;
    let mut slots = Vec::with_capacity(width);
    for s in 0..width {
        let mut curs = series[s];
        let want_deriv = plan.need_deriv[s];
        let want_time = plan.need_time[s] || (health_on && plan.is_input[s]);

        // Lanes carrying this signal, and the length of the identity
        // prefix they share: `dense` cycles where every lane has exactly
        // one sample per cycle (a strictly increasing cycle index starting
        // at 0 and reaching n-1 at position n-1 *is* 0..n). The prefix is
        // only usable in place when every lane of the group carries it —
        // otherwise the constant-mask shortcut in the accessors would lie.
        let mut present: Mask = 0;
        let mut dense = max_cycles;
        for (l, cur) in curs.iter().enumerate() {
            if cur.cycles.is_empty() {
                continue;
            }
            present |= 1 << l;
            dense = dense.min(cur.cycles.len());
        }
        if present != all_lanes {
            dense = 0;
        }
        for (l, cur) in curs.iter().enumerate() {
            if dense > 0
                && present & (1 << l) != 0
                && (cur.cycles[0] != 0 || cur.cycles[dense - 1] != (dense - 1) as u32)
            {
                dense = 0;
            }
        }

        let mut sh = SlotHistory {
            dense,
            present,
            values: [[].as_slice(); LANES],
            times: [[].as_slice(); LANES],
            v_col: Vec::new(),
            s_col: Vec::new(),
            d_col: Vec::new(),
            dt_col: Vec::new(),
            st_col: Vec::new(),
            t_col: Vec::new(),
        };
        for (l, cur) in curs.iter().enumerate() {
            sh.values[l] = cur.values;
            sh.times[l] = cur.times;
        }

        // Seed the held state the sequential sample-and-hold would have
        // reached at the end of the dense prefix, then run the remaining
        // cycles event-driven: jump to the next cycle holding any sample
        // and run-length fill the held rows in between (sparse series —
        // GNSS-rate signals — touch a few hundred of several thousand
        // cycles).
        let mut held_v = [0.0f64; LANES];
        let mut held_t = [0.0f64; LANES];
        let mut held_delta = [0.0f64; LANES];
        // 1.0 so a masked-out derivative lane divides by a harmless
        // non-zero rather than producing 0/0 garbage.
        let mut held_dt = [1.0f64; LANES];
        let (mut seen_m, mut stepped_m): (Mask, Mask) = (0, 0);
        if dense > 0 {
            for l in 0..group.len() {
                held_v[l] = curs[l].values[dense - 1];
                held_t[l] = curs[l].times[dense - 1];
            }
            seen_m = present;
        }
        if dense > 1 {
            for l in 0..group.len() {
                held_delta[l] = curs[l].values[dense - 1] - curs[l].values[dense - 2];
                held_dt[l] = curs[l].times[dense - 1] - curs[l].times[dense - 2];
            }
            stepped_m = present;
        }
        if dense > 0 {
            for cur in curs.iter_mut().take(group.len()) {
                cur.times = &cur.times[dense..];
                cur.values = &cur.values[dense..];
                cur.cycles = &cur.cycles[dense..];
            }
        }

        let tail = max_cycles - dense;
        sh.v_col.reserve_exact(tail);
        sh.s_col.reserve_exact(tail);
        if want_deriv {
            sh.d_col.reserve_exact(tail);
            sh.dt_col.reserve_exact(tail);
            sh.st_col.reserve_exact(tail);
        }
        if want_time {
            sh.t_col.reserve_exact(tail);
        }
        let mut k = dense;
        while k < max_cycles {
            let mut next = max_cycles as u32;
            for cur in &curs {
                if let Some(&c) = cur.cycles.first() {
                    next = next.min(c);
                }
            }
            let nk = (next as usize).min(max_cycles);
            let filled = nk - dense;
            sh.v_col.resize(filled, held_v);
            sh.s_col.resize(filled, seen_m);
            if want_deriv {
                sh.d_col.resize(filled, held_delta);
                sh.dt_col.resize(filled, held_dt);
                sh.st_col.resize(filled, stepped_m);
            }
            if want_time {
                sh.t_col.resize(filled, held_t);
            }
            if nk >= max_cycles {
                break;
            }
            for l in 0..LANES {
                let cur = &mut curs[l];
                if let [c, cycles_rest @ ..] = cur.cycles {
                    if *c as usize == nk {
                        let (t, v) = (cur.times[0], cur.values[0]);
                        cur.times = &cur.times[1..];
                        cur.values = &cur.values[1..];
                        cur.cycles = cycles_rest;
                        // Mirrors `Env::update_slot`: the first sample only
                        // seeds value/time; every later one records a step
                        // (series timestamps strictly increase).
                        let bit = 1u8 << l;
                        if stepped_m & bit == 0 {
                            if seen_m & bit == 0 {
                                seen_m |= bit;
                                held_t[l] = t;
                                held_v[l] = v;
                                continue;
                            }
                            stepped_m |= bit;
                        }
                        held_delta[l] = v - held_v[l];
                        held_dt[l] = t - held_t[l];
                        held_t[l] = t;
                        held_v[l] = v;
                    }
                }
            }
            sh.v_col.push(held_v);
            sh.s_col.push(seen_m);
            if want_deriv {
                sh.d_col.push(held_delta);
                sh.dt_col.push(held_dt);
                sh.st_col.push(stepped_m);
            }
            if want_time {
                sh.t_col.push(held_t);
            }
            k = nk + 1;
        }
        slots.push(sh);
    }

    History {
        lanes: group.len(),
        max_cycles,
        now,
        active,
        slots,
    }
}

/// One postfix stack cell: a value column plus its per-lane validity.
type LaneCell = ([f64; LANES], Mask);

/// Runs a compiled postfix program over all lanes at once. The returned
/// mask has a bit set exactly for the lanes where the scalar evaluator
/// would return `Some` (every referenced signal seen / stepped); values in
/// invalid lanes are unspecified.
#[inline]
fn eval_expr_lanes(ops: &[Op], hist: &History, k: usize, stack: &mut Vec<LaneCell>) -> LaneCell {
    stack.clear();
    for op in ops {
        match *op {
            Op::Signal(slot) => {
                stack.push(hist.value(slot as usize, k));
            }
            Op::Const(v) => stack.push(([v; LANES], Mask::MAX)),
            Op::Derivative(slot) => {
                let (delta, dt, stepped) = hist.deriv(slot as usize, k);
                let mut vals = [0.0; LANES];
                for l in 0..LANES {
                    vals[l] = delta[l] / dt[l];
                }
                stack.push((vals, stepped));
            }
            Op::AngularDerivative(slot) => {
                let (delta, dt, stepped) = hist.deriv(slot as usize, k);
                let mut vals = [0.0; LANES];
                for l in 0..LANES {
                    vals[l] = wrap_angle(delta[l]) / dt[l];
                }
                stack.push((vals, stepped));
            }
            Op::Abs => {
                let top = stack.last_mut().expect("well-formed postfix program");
                for v in &mut top.0 {
                    *v = v.abs();
                }
            }
            Op::Neg => {
                let top = stack.last_mut().expect("well-formed postfix program");
                for v in &mut top.0 {
                    *v = -*v;
                }
            }
            Op::Tan => {
                let top = stack.last_mut().expect("well-formed postfix program");
                for v in &mut top.0 {
                    *v = v.tan();
                }
            }
            Op::Add => {
                let (b, mb) = stack.pop().expect("well-formed postfix program");
                let a = stack.last_mut().expect("well-formed postfix program");
                for l in 0..LANES {
                    a.0[l] += b[l];
                }
                a.1 &= mb;
            }
            Op::Sub => {
                let (b, mb) = stack.pop().expect("well-formed postfix program");
                let a = stack.last_mut().expect("well-formed postfix program");
                for l in 0..LANES {
                    a.0[l] -= b[l];
                }
                a.1 &= mb;
            }
            Op::Mul => {
                let (b, mb) = stack.pop().expect("well-formed postfix program");
                let a = stack.last_mut().expect("well-formed postfix program");
                for l in 0..LANES {
                    a.0[l] *= b[l];
                }
                a.1 &= mb;
            }
            Op::AngleDiff => {
                let (b, mb) = stack.pop().expect("well-formed postfix program");
                let a = stack.last_mut().expect("well-formed postfix program");
                for l in 0..LANES {
                    a.0[l] = wrap_angle(a.0[l] - b[l]);
                }
                a.1 &= mb;
            }
        }
    }
    stack.pop().expect("postfix program leaves one value")
}

/// Evaluates a compiled condition over all lanes: `(payloads, valid,
/// healthy)`. For lane `l`: `valid` bit clear ⇔ scalar `Eval::Unknown`;
/// otherwise `healthy` bit set ⇔ `Eval::Healthy`, clear ⇔
/// `Eval::Violated(payloads[l])`.
#[inline]
fn eval_condition_lanes(
    cond: &CompiledCondition,
    hist: &History,
    k: usize,
    now: &[f64; LANES],
    stack: &mut Vec<LaneCell>,
) -> ([f64; LANES], Mask, Mask) {
    match cond {
        CompiledCondition::AtMost { expr, limit } => {
            let (vals, valid) = eval_expr_lanes(expr.ops(), hist, k, stack);
            let mut healthy: Mask = 0;
            for l in 0..LANES {
                healthy |= Mask::from(vals[l] <= *limit) << l;
            }
            (vals, valid, healthy)
        }
        CompiledCondition::AtLeast { expr, limit } => {
            let (vals, valid) = eval_expr_lanes(expr.ops(), hist, k, stack);
            let mut healthy: Mask = 0;
            for l in 0..LANES {
                healthy |= Mask::from(vals[l] >= *limit) << l;
            }
            (vals, valid, healthy)
        }
        CompiledCondition::Fresh { slot, max_age } => {
            let (time, seen) = hist.time(*slot as usize, k);
            let mut ages = [0.0; LANES];
            let mut healthy: Mask = 0;
            for l in 0..LANES {
                ages[l] = now[l] - time[l];
                healthy |= Mask::from(ages[l] <= *max_age) << l;
            }
            (ages, seen, healthy)
        }
    }
}

/// Evaluates a monitor's kernel over all lanes: `(payloads, valid,
/// healthy)`, exactly what [`eval_condition_lanes`] returns. `cond` is
/// only dereferenced on the [`Kernel::Generic`] fallback.
#[inline]
fn eval_kernel(
    ke: &KernelEntry,
    cond: &CompiledCondition,
    hist: &History,
    k: usize,
    now: &[f64; LANES],
    stack: &mut Vec<LaneCell>,
) -> ([f64; LANES], Mask, Mask) {
    let (vals, valid) = match ke.kernel {
        Kernel::Sig { slot, abs } => {
            let (mut vals, seen) = hist.value(slot as usize, k);
            if abs {
                for v in &mut vals {
                    *v = v.abs();
                }
            }
            (vals, seen)
        }
        Kernel::Deriv { slot, abs } => {
            let (delta, dt, stepped) = hist.deriv(slot as usize, k);
            let mut vals = [0.0; LANES];
            for l in 0..LANES {
                vals[l] = delta[l] / dt[l];
            }
            if abs {
                for v in &mut vals {
                    *v = v.abs();
                }
            }
            (vals, stepped)
        }
        Kernel::SubAbs { a, b } => {
            let (va, seen_a) = hist.value(a as usize, k);
            let (vb, seen_b) = hist.value(b as usize, k);
            let mut vals = [0.0; LANES];
            for l in 0..LANES {
                vals[l] = (va[l] - vb[l]).abs();
            }
            (vals, seen_a & seen_b)
        }
        Kernel::SubMulConst { a, b, c } => {
            let (va, seen_a) = hist.value(a as usize, k);
            let (vb, seen_b) = hist.value(b as usize, k);
            let mut vals = [0.0; LANES];
            for l in 0..LANES {
                vals[l] = va[l] - vb[l] * c;
            }
            (vals, seen_a & seen_b)
        }
        Kernel::MulAbs { a, b } => {
            let (va, seen_a) = hist.value(a as usize, k);
            let (vb, seen_b) = hist.value(b as usize, k);
            let mut vals = [0.0; LANES];
            for l in 0..LANES {
                vals[l] = (va[l] * vb[l]).abs();
            }
            (vals, seen_a & seen_b)
        }
        Kernel::AngDerivSubAbs { d, b } => {
            let (delta, dt, stepped) = hist.deriv(d as usize, k);
            let (vb, seen_b) = hist.value(b as usize, k);
            let mut vals = [0.0; LANES];
            for l in 0..LANES {
                vals[l] = (wrap_angle(delta[l]) / dt[l] - vb[l]).abs();
            }
            (vals, stepped & seen_b)
        }
        Kernel::Fresh { slot } => {
            let (time, seen) = hist.time(slot as usize, k);
            let mut ages = [0.0; LANES];
            for l in 0..LANES {
                ages[l] = now[l] - time[l];
            }
            (ages, seen)
        }
        Kernel::Generic => return eval_condition_lanes(cond, hist, k, now, stack),
    };
    let mut healthy: Mask = 0;
    if ke.at_least {
        for l in 0..LANES {
            healthy |= Mask::from(vals[l] >= ke.limit) << l;
        }
    } else {
        for l in 0..LANES {
            healthy |= Mask::from(vals[l] <= ke.limit) << l;
        }
    }
    (vals, valid, healthy)
}

/// Calls `f(l)` for each set bit of `mask`, in ascending lane order.
#[inline]
fn for_each_lane(mask: Mask, mut f: impl FnMut(usize)) {
    let mut m = mask;
    while m != 0 {
        let l = m.trailing_zeros() as usize;
        m &= m - 1;
        f(l);
    }
}

/// A flattened fast path for the condition shapes the standard catalog
/// uses. Sixteen heterogeneous postfix programs make the evaluator's
/// per-op dispatch branch effectively random, and the misprediction cost
/// dwarfs the arithmetic (measured ~6x over a homogeneous catalog).
/// Recognising a monitor's whole shape up front reduces evaluation to one
/// well-predicted branch per monitor per cycle. Every kernel performs the
/// identical `f64` operations in the identical order as the stack
/// machine, so results stay bit-identical; [`Kernel::Generic`] falls back
/// to the stack machine for shapes not listed here.
enum Kernel {
    /// `signal(s)`, optionally `.abs()`.
    Sig { slot: u32, abs: bool },
    /// `derivative(s)`, optionally `.abs()`.
    Deriv { slot: u32, abs: bool },
    /// `(a - b).abs()`.
    SubAbs { a: u32, b: u32 },
    /// `a - b * c` (the A7-shaped consistency residual).
    SubMulConst { a: u32, b: u32, c: f64 },
    /// `(a * b).abs()`.
    MulAbs { a: u32, b: u32 },
    /// `(angular_derivative(d) - b).abs()` (the A14 compass check).
    AngDerivSubAbs { d: u32, b: u32 },
    /// `Fresh`: the payload is the signal's age.
    Fresh { slot: u32 },
    /// Anything else: run the compiled postfix program.
    Generic,
}

impl Kernel {
    /// Recognises the condition's shape, defaulting to [`Kernel::Generic`].
    fn recognise(condition: &CompiledCondition) -> Kernel {
        let ops = match condition {
            CompiledCondition::AtMost { expr, .. } | CompiledCondition::AtLeast { expr, .. } => {
                expr.ops()
            }
            CompiledCondition::Fresh { slot, .. } => return Kernel::Fresh { slot: *slot },
        };
        match *ops {
            [Op::Signal(slot)] => Kernel::Sig { slot, abs: false },
            [Op::Signal(slot), Op::Abs] => Kernel::Sig { slot, abs: true },
            [Op::Derivative(slot)] => Kernel::Deriv { slot, abs: false },
            [Op::Derivative(slot), Op::Abs] => Kernel::Deriv { slot, abs: true },
            [Op::Signal(a), Op::Signal(b), Op::Sub, Op::Abs] => Kernel::SubAbs { a, b },
            [Op::Signal(a), Op::Signal(b), Op::Const(c), Op::Mul, Op::Sub] => {
                Kernel::SubMulConst { a, b, c }
            }
            [Op::Signal(a), Op::Signal(b), Op::Mul, Op::Abs] => Kernel::MulAbs { a, b },
            [Op::AngularDerivative(d), Op::Signal(b), Op::Sub, Op::Abs] => {
                Kernel::AngDerivSubAbs { d, b }
            }
            _ => Kernel::Generic,
        }
    }
}

/// The per-cycle evaluation parameters of one monitor, packed dense so
/// the hot loop streams a small contiguous table instead of pulling each
/// monitor's full [`Assertion`] (strings and all) through the cache every
/// cycle.
struct KernelEntry {
    /// Shape-specialised evaluator for this condition.
    kernel: Kernel,
    /// `true` for `AtLeast` (healthy ⇔ value ≥ limit), `false` for
    /// `AtMost` / `Fresh` (healthy ⇔ value ≤ limit).
    at_least: bool,
    /// The comparison bound (`Fresh`'s `max_age` counts).
    limit: f64,
}

/// A catalog lowered for lane execution, reusable across lane groups: the
/// shared [`CheckerPlan`] (conditions, input slots, staleness exemptions,
/// signal table) plus what only the lane engine derives from it.
struct Plan {
    core: CheckerPlan,
    /// Dense evaluation table, parallel to `core.monitors()`.
    kernels: Vec<KernelEntry>,
    /// Per slot: some condition takes its (angular) derivative, so the
    /// history must materialise delta/dt/stepped columns for it.
    need_deriv: Vec<bool>,
    /// Per slot: a `Fresh` condition ages it, so the history must
    /// materialise its update-timestamp column.
    need_time: Vec<bool>,
    /// Per slot: some monitor reads it (the health layer's staleness scan
    /// needs its timestamps when a finite horizon is configured).
    is_input: Vec<bool>,
}

impl Plan {
    fn compile(catalog: &[Assertion]) -> Plan {
        let core = CheckerPlan::compile(catalog.iter().cloned());
        let mut need_deriv = vec![false; core.width];
        let mut need_time = vec![false; core.width];
        let mut is_input = vec![false; core.width];
        let kernels = core
            .monitors()
            .iter()
            .map(|monitor| {
                for &slot in monitor.input_slots.iter() {
                    is_input[slot as usize] = true;
                }
                match &monitor.condition {
                    CompiledCondition::AtMost { expr, .. }
                    | CompiledCondition::AtLeast { expr, .. } => {
                        for op in expr.ops() {
                            if let Op::Derivative(s) | Op::AngularDerivative(s) = op {
                                need_deriv[*s as usize] = true;
                            }
                        }
                    }
                    CompiledCondition::Fresh { slot, .. } => need_time[*slot as usize] = true,
                }
                let (at_least, limit) = match &monitor.condition {
                    CompiledCondition::AtMost { limit, .. } => (false, *limit),
                    CompiledCondition::AtLeast { limit, .. } => (true, *limit),
                    CompiledCondition::Fresh { max_age, .. } => (false, *max_age),
                };
                KernelEntry {
                    kernel: Kernel::recognise(&monitor.condition),
                    at_least,
                    limit,
                }
            })
            .collect();
        Plan {
            core,
            kernels,
            need_deriv,
            need_time,
            is_input,
        }
    }
}

/// The per-monitor state the steady-state loop actually touches every
/// cycle: nine bitmasks. At 16 monitors the whole array spans three cache
/// lines, so the per-cycle monitor sweep stays L1-resident regardless of
/// catalog width (the split was worth ~4x on the standard catalog — the
/// old one-struct-per-monitor layout pulled ~300 bytes per monitor per
/// cycle through the cache).
#[derive(Clone, Copy, Default)]
struct HotLanes {
    /// Lanes whose clock has passed the assertion's grace period. Cycle
    /// timestamps strictly increase, so this set only ever grows.
    grace_passed: Mask,
    /// Lanes with an open violating episode (`episode_start` valid).
    episode: Mask,
    /// Lanes whose current episode has already alarmed.
    alarmed: Mask,
    /// Lanes with an un-recovered pushed violation (`open_idx` valid).
    open: Mask,
    ever_healthy: Mask,
    saw_first_sample: Mask,
    /// Last observed verdict per lane as class masks (all clear =
    /// `Unknown`, the pre-first-evaluation state).
    lv_pass: Mask,
    lv_viol: Mask,
    lv_inc: Mask,
}

/// Per-monitor, per-lane state touched only off the steady-state path:
/// episode bookkeeping, health machines and observability counters.
struct ColdLanes {
    episode_start: [f64; LANES],
    /// Per lane: index into that lane's violation list of the open alarm.
    open_idx: [u32; LANES],
    health: [HealthMachine; LANES],
    /// Per-lane observability counters.
    c_unknown: [u64; LANES],
    c_pass: [u64; LANES],
    c_inc: [u64; LANES],
    c_viol: [u64; LANES],
    flips: [u64; LANES],
    episodes: [u64; LANES],
    /// Byte-packed [`SPREAD`] accumulators feeding the counters above.
    acc_unknown: u64,
    acc_pass: u64,
    acc_inc: u64,
    acc_viol: u64,
    acc_flips: u64,
}

impl ColdLanes {
    fn new() -> Self {
        ColdLanes {
            episode_start: [0.0; LANES],
            open_idx: [0; LANES],
            health: [HealthMachine::default(); LANES],
            c_unknown: [0; LANES],
            c_pass: [0; LANES],
            c_inc: [0; LANES],
            c_viol: [0; LANES],
            flips: [0; LANES],
            episodes: [0; LANES],
            acc_unknown: 0,
            acc_pass: 0,
            acc_inc: 0,
            acc_viol: 0,
            acc_flips: 0,
        }
    }

    /// Drains the packed SWAR accumulators into the 64-bit counters.
    fn flush_counters(&mut self) {
        for l in 0..LANES {
            let sh = 8 * l as u32;
            self.c_unknown[l] += (self.acc_unknown >> sh) & 0xff;
            self.c_pass[l] += (self.acc_pass >> sh) & 0xff;
            self.c_inc[l] += (self.acc_inc >> sh) & 0xff;
            self.c_viol[l] += (self.acc_viol >> sh) & 0xff;
            self.flips[l] += (self.acc_flips >> sh) & 0xff;
        }
        self.acc_unknown = 0;
        self.acc_pass = 0;
        self.acc_inc = 0;
        self.acc_viol = 0;
        self.acc_flips = 0;
    }
}

/// Byte-spread table for SWAR verdict counting: `SPREAD[m]` has a 1 in
/// byte `l` exactly when bit `l` of mask `m` is set, so adding
/// `SPREAD[mask]` into a `u64` accumulator bumps eight per-lane counters
/// at once. Each accumulator grows by at most 1 per byte per cycle and is
/// drained every [`FLUSH_PERIOD`] cycles, so bytes never carry into their
/// neighbours.
const SPREAD: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut m = 0;
    while m < 256 {
        let mut v = 0u64;
        let mut l = 0;
        while l < 8 {
            if m & (1 << l) != 0 {
                v |= 1 << (8 * l);
            }
            l += 1;
        }
        table[m] = v;
        m += 1;
    }
    table
};

/// Cycles between SWAR accumulator drains — the per-byte maximum.
const FLUSH_PERIOD: u32 = 255;

/// Checks up to [`LANES`] columnar traces together, returning per-trace
/// `(report, metrics)` in input order. `group.len()` must be in
/// `1..=LANES`.
/// `METRICS` monomorphises the loop: the report-only path (`false`) skips
/// verdict counters and flip detection entirely — they feed only the
/// [`MetricsSnapshot`], never the [`CheckReport`] — while the observed
/// path (`true`) keeps them, SWAR byte-packed.
fn run_group<const METRICS: bool>(
    plan: &Plan,
    health_cfg: &HealthConfig,
    group: &[ColumnarTrace],
) -> Vec<(CheckReport, Option<MetricsSnapshot>)> {
    let lanes = group.len();
    debug_assert!((1..=LANES).contains(&lanes));
    let monitors = plan.core.monitors();
    let mut hots: Vec<HotLanes> = vec![HotLanes::default(); monitors.len()];
    let mut colds: Vec<ColdLanes> = monitors.iter().map(|_| ColdLanes::new()).collect();
    // Violations tagged with their detection cycle: the monitor-major
    // sweep discovers them grouped by monitor, and the scalar replay
    // reports them in (cycle, monitor) order — a stable sort on the cycle
    // tag restores exactly that order before the report is assembled.
    let mut violations: Vec<Vec<(u32, Violation)>> = vec![Vec::new(); lanes];
    let mut inconclusive = [0u64; LANES];
    let mut grids: Vec<TransitionGrid> = vec![TransitionGrid::new(); lanes];
    let mut stack: Vec<LaneCell> = Vec::with_capacity(plan.core.max_stack);

    let cycle_counts: Vec<usize> = group.iter().map(ColumnarTrace::cycle_count).collect();
    // Offline traces carry no non-finite samples, so with an infinite
    // staleness horizon no input can ever go missing: every monitor stays
    // Active and the whole health layer short-circuits.
    let health_on = health_cfg.stale_after.is_finite();
    let hist = build_history(plan, group, health_on);

    // Monitor-major sweep: each monitor makes one full pass over the
    // cycle range before the next starts. The alternative — cycle-major,
    // every monitor per cycle — reads every plan slot's sample columns
    // concurrently, and on the standard catalog that is hundreds of
    // interleaved (slot, lane) read streams, far past what the hardware
    // prefetcher tracks. A per-monitor pass streams only that monitor's
    // one-to-three slots. Monitors never read each other's state within a
    // cycle, so every verdict is identical; only the violation discovery
    // order changes, and the cycle-tag sort at finalisation restores it.
    for m in 0..plan.kernels.len() {
        let ke = &plan.kernels[m];
        let pm = &monitors[m];
        let hot = &mut hots[m];
        let cold = &mut colds[m];
        let mut flush_in = FLUSH_PERIOD;
        for k in 0..hist.max_cycles {
            let active = hist.active[k];
            let now = &hist.now[k];
            if METRICS {
                // Drain the SWAR accumulators before any byte can wrap:
                // at most one add per byte per cycle.
                flush_in -= 1;
                if flush_in == 0 {
                    cold.flush_counters();
                    flush_in = FLUSH_PERIOD;
                }
            }

            // Lanes past the assertion's grace period this cycle. Grace is
            // monotone per lane, so only un-passed lanes need the compare.
            let pending = active & !hot.grace_passed;
            if pending != 0 {
                let grace = pm.assertion().grace;
                for_each_lane(pending, |l| {
                    hot.grace_passed |= Mask::from(now[l] >= grace) << l;
                });
            }
            let processed = active & hot.grace_passed;
            if processed == 0 {
                continue;
            }

            // Health layer: the online checker's machine, one per lane
            // (minus poisoning, impossible offline).
            let mut inc: Mask = 0;
            if health_on {
                for_each_lane(processed, |l| {
                    let bit = 1u8 << l;
                    let mut missing = 0u32;
                    if !pm.staleness_exempt {
                        for &slot in pm.input_slots.iter() {
                            let (time, seen) = hist.time(slot as usize, k);
                            if seen & bit != 0 && now[l] - time[l] > health_cfg.stale_after {
                                missing += 1;
                            }
                        }
                    }
                    let machine = &mut cold.health[l];
                    let prev = machine.obs();
                    if machine.step(missing, health_cfg) {
                        inc |= bit;
                    }
                    let new = machine.obs();
                    if new != prev {
                        grids[l].record(prev.index(), new.index());
                    }
                });
            }

            // Evaluate the condition for every lane at once. Inconclusive
            // lanes ignore the result (evaluation has no side effects), so
            // no masking is needed before the class split.
            let (vals, valid, healthy) = eval_kernel(ke, &pm.condition, &hist, k, now, &mut stack);
            let inc_lanes = processed & inc;
            let rest = processed & !inc;
            let unk = rest & !valid;
            let pass = rest & valid & healthy;
            let viol = rest & valid & !healthy;

            if METRICS {
                // Verdict counters: one table lookup and 64-bit add per
                // class bumps all eight lane counters at once.
                cold.acc_unknown += SPREAD[unk as usize];
                cold.acc_pass += SPREAD[pass as usize];
                cold.acc_inc += SPREAD[inc_lanes as usize];
                cold.acc_viol += SPREAD[viol as usize];

                // Flip detection against the stored last-verdict masks.
                let lv_unknown = !(hot.lv_pass | hot.lv_viol | hot.lv_inc);
                let same = (pass & hot.lv_pass)
                    | (viol & hot.lv_viol)
                    | (inc_lanes & hot.lv_inc)
                    | (unk & lv_unknown);
                let changed = processed & !same;
                if changed != 0 {
                    cold.acc_flips += SPREAD[changed as usize];
                    hot.lv_pass = (hot.lv_pass & !changed) | (pass & changed);
                    hot.lv_viol = (hot.lv_viol & !changed) | (viol & changed);
                    hot.lv_inc = (hot.lv_inc & !changed) | (inc_lanes & changed);
                }
            }

            // Steady state — every processed lane passing and no episode,
            // alarm or open violation anywhere: the full machinery below
            // reduces to two mask ORs.
            if (unk | inc_lanes | viol | hot.episode | hot.alarmed | hot.open) == 0 {
                hot.ever_healthy |= pass;
                hot.saw_first_sample |= pass;
                continue;
            }

            // Temporal state machine, mask-level where possible.
            // Unknown / Inconclusive: neutral — reset the episode.
            let reset = unk | inc_lanes;
            hot.episode &= !reset;
            hot.alarmed &= !reset;
            hot.open &= !reset;
            for_each_lane(inc_lanes, |l| inconclusive[l] += 1);

            // Healthy: stamp recoveries on open alarms, close the episode.
            let heal = pass & hot.open;
            for_each_lane(heal, |l| {
                violations[l][cold.open_idx[l] as usize].1.recovered = Some(now[l]);
            });
            hot.open &= !pass;
            hot.episode &= !pass;
            hot.alarmed &= !pass;
            hot.ever_healthy |= pass;
            hot.saw_first_sample |= pass;

            // Violated: open episodes, fire alarms per the temporal op.
            if viol != 0 {
                let assertion = pm.assertion();
                hot.saw_first_sample |= viol;
                for_each_lane(viol & !hot.episode, |l| cold.episode_start[l] = now[l]);
                hot.episode |= viol;
                let candidates = viol & !hot.alarmed;
                let alarm = match assertion.temporal {
                    Temporal::Immediate => candidates,
                    Temporal::Sustained(d) => {
                        let mut a: Mask = 0;
                        for_each_lane(candidates, |l| {
                            a |= Mask::from(now[l] - cold.episode_start[l] >= d) << l;
                        });
                        a
                    }
                    Temporal::Eventually => 0, // judged at finish
                };
                for_each_lane(alarm, |l| {
                    hot.alarmed |= 1u8 << l;
                    hot.open |= 1u8 << l;
                    cold.open_idx[l] = u32::try_from(violations[l].len())
                        .expect("fewer than u32::MAX violations per trace");
                    cold.episodes[l] += 1;
                    violations[l].push((
                        k as u32,
                        Violation {
                            assertion: assertion.id.clone(),
                            severity: assertion.severity,
                            onset: cold.episode_start[l],
                            detected: now[l],
                            value: vals[l],
                            cycle: k as u64,
                            recovered: None,
                        },
                    ));
                });
            }
        }
    }
    if METRICS {
        for cold in colds.iter_mut() {
            cold.flush_counters();
        }
    }

    // Finalisation, per lane: judge `Eventually` in monitor order, then
    // assemble the report and metrics.
    let health_labels = [
        ObsHealth::Active.name(),
        ObsHealth::Degraded.name(),
        ObsHealth::Suspended.name(),
    ];
    let mut out = Vec::with_capacity(lanes);
    for (l, tagged) in violations.into_iter().enumerate() {
        let bit = 1u8 << l;
        let end_time = group[l].end_time();
        // Monitor-major discovery order is (monitor, cycle); the scalar
        // replay reports (cycle, monitor). The sort is stable, and within
        // one monitor entries are already cycle-ordered, so sorting on the
        // cycle tag alone lands every tie in monitor order.
        let mut tagged = tagged;
        tagged.sort_by_key(|&(k, _)| k);
        let mut lane_violations: Vec<Violation> = tagged.into_iter().map(|(_, v)| v).collect();
        let mut assertions = Vec::new();
        if METRICS {
            assertions.reserve_exact(monitors.len());
        }
        for (m, pm) in monitors.iter().enumerate() {
            let (hot, cold) = (&hots[m], &mut colds[m]);
            let assertion = pm.assertion();
            if assertion.temporal == Temporal::Eventually
                && hot.saw_first_sample & bit != 0
                && hot.ever_healthy & bit == 0
            {
                cold.episodes[l] += 1;
                lane_violations.push(Violation {
                    assertion: assertion.id.clone(),
                    severity: assertion.severity,
                    onset: assertion.grace,
                    detected: end_time,
                    value: f64::NAN,
                    cycle: group[l].cycle_count() as u64,
                    recovered: None,
                });
            }
            if METRICS {
                assertions.push(AssertionStats {
                    id: assertion.id.as_str().to_owned(),
                    verdicts: VerdictCounts {
                        unknown: cold.c_unknown[l],
                        pass: cold.c_pass[l],
                        inconclusive: cold.c_inc[l],
                        violated: cold.c_viol[l],
                    },
                    flips: cold.flips[l],
                    episodes: cold.episodes[l],
                });
            }
        }
        let mut report = CheckReport::new(lane_violations, end_time, monitors.len());
        report.inconclusive_cycles = inconclusive[l];
        let metrics = METRICS.then(|| MetricsSnapshot {
            cycles: cycle_counts[l] as u64,
            assertions,
            health_transitions: grids[l].sparse(health_labels),
            guard_transitions: Vec::new(),
            events_emitted: 0,
            eval_cycle_ns: Histogram::nanos(),
            detection_latency_s: Histogram::seconds(),
        });
        out.push((report, metrics));
    }
    out
}

/// Checks a batch of columnar traces against `catalog` with the default
/// [`HealthConfig`], lane-batching up to [`LANES`] traces per pass.
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
    let plan = Plan::compile(catalog);
    let mut out = Vec::with_capacity(traces.len());
    for group in traces.chunks(LANES) {
        out.extend(
            run_group::<false>(&plan, &HealthConfig::default(), group)
                .into_iter()
                .map(|(report, _)| report),
        );
    }
    out
}

/// Full-fat lane checking under an explicit telemetry-health
/// configuration: per trace, the report *and* the final
/// [`MetricsSnapshot`] (cycles, per-assertion verdict counters, flips,
/// episodes, health transitions) — what the scalar
/// [`crate::checker::check_observed`] produces with events disabled.
pub fn check_columnar_observed(
    catalog: &[Assertion],
    health: HealthConfig,
    traces: &[ColumnarTrace],
) -> Vec<(CheckReport, MetricsSnapshot)> {
    let plan = Plan::compile(catalog);
    let mut out = Vec::with_capacity(traces.len());
    for group in traces.chunks(LANES) {
        out.extend(
            run_group::<true>(&plan, &health, group)
                .into_iter()
                .map(|(report, metrics)| (report, metrics.expect("observed mode builds metrics"))),
        );
    }
    out
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
        // Mixed-rate signals exercise the validity masks: "slow" updates
        // every third cycle, so derivative/unknown states differ per lane.
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
