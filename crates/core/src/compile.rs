//! Compilation of assertions into an interned, allocation-free evaluation
//! plan.
//!
//! The tree-walking evaluator in [`crate::expr`] is the semantic reference:
//! easy to read, easy to test, and exactly what the paper describes. This
//! module lowers the same catalog, once, into the form both checking
//! engines execute:
//!
//! * [`SignalTable`] interns every [`SignalId`] into a dense `u32` slot, so
//!   the environment stores signal state in a flat `Vec` instead of a
//!   `HashMap` keyed by reference-counted strings;
//! * [`CompiledExpr`] flattens a [`SignalExpr`] tree into a postfix op
//!   array with pre-resolved slots, evaluated by a small non-recursive
//!   stack loop against a caller-provided scratch buffer;
//! * [`CompiledCondition`] recognises each condition's shape (a bounded
//!   signal, a residual, a staleness check, ...) and keeps the postfix
//!   program only for expressions that match no shape, so the online
//!   checker and the lane engine ([`crate::lane`]) evaluate the same
//!   kernels;
//! * [`SlotMask`] bitmasks record which slots each assertion reads, so
//!   `end_cycle` can skip assertions none of whose inputs changed.
//!
//! Compiled evaluation is bit-identical to tree-walking evaluation — the
//! differential property test in `tests/proptests.rs` pins this.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use adassure_trace::{well_known, SignalId};

use crate::assertion::{Condition, Eval};
use crate::expr::{wrap_angle, Env, SignalExpr};

/// Number of canonical signal names (the direct-indexed fast path of
/// [`SignalTable`]).
const WELL_KNOWN_COUNT: usize = well_known::ALL.len();

/// Sentinel for "this well-known name has no slot yet".
const NO_SLOT: u32 = u32::MAX;

/// A minimal Fx-style hasher (the FNV-like multiply–xor scheme used by
/// rustc's `FxHashMap`) for the dynamic-name fallback map. Vendoring-free
/// and a good fit for short signal-name keys; the hot path never reaches a
/// hash at all because canonical names resolve through a direct index.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

/// Seed constant from the Firefox/rustc Fx hash.
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash = (self.hash.rotate_left(5) ^ u64::from(b)).wrapping_mul(FX_SEED);
        }
    }

    fn write_u8(&mut self, b: u8) {
        self.write(&[b]);
    }
}

/// `BuildHasher` for [`FxHasher`]-keyed maps.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Interns [`SignalId`]s into dense `u32` slots.
///
/// Canonical ([`well_known`]) names resolve through a direct array lookup
/// on their table index; dynamic names fall back to an [`FxHasher`] map.
/// Slots are assigned in first-sight order and never reused, so a slot is
/// a stable identity for the lifetime of the table.
#[derive(Debug, Clone)]
pub struct SignalTable {
    ids: Vec<SignalId>,
    wk_slots: [u32; WELL_KNOWN_COUNT],
    by_name: HashMap<SignalId, u32, FxBuildHasher>,
}

impl Default for SignalTable {
    fn default() -> Self {
        SignalTable {
            ids: Vec::new(),
            wk_slots: [NO_SLOT; WELL_KNOWN_COUNT],
            by_name: HashMap::default(),
        }
    }
}

impl SignalTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        SignalTable::default()
    }

    /// Interns `signal`, assigning a fresh slot on first sight.
    #[inline]
    pub fn intern(&mut self, signal: &SignalId) -> u32 {
        if let Some(i) = signal.well_known_index() {
            let slot = self.wk_slots[i];
            if slot != NO_SLOT {
                return slot;
            }
        }
        self.intern_slow(signal)
    }

    #[cold]
    fn intern_slow(&mut self, signal: &SignalId) -> u32 {
        if let Some(&slot) = self.by_name.get(signal) {
            return slot;
        }
        let slot = u32::try_from(self.ids.len()).expect("more than u32::MAX distinct signals");
        self.ids.push(signal.clone());
        self.by_name.insert(signal.clone(), slot);
        if let Some(i) = signal.well_known_index() {
            self.wk_slots[i] = slot;
        }
        slot
    }

    /// The slot of `signal`, if already interned.
    #[inline]
    pub fn slot(&self, signal: &SignalId) -> Option<u32> {
        match signal.well_known_index() {
            Some(i) => {
                let slot = self.wk_slots[i];
                (slot != NO_SLOT).then_some(slot)
            }
            None => self.slot_by_name(signal),
        }
    }

    /// The dynamic-name half of [`SignalTable::slot`], kept out of line so
    /// the inlined well-known path stays small.
    #[cold]
    fn slot_by_name(&self, signal: &SignalId) -> Option<u32> {
        self.by_name.get(signal).copied()
    }

    /// The id interned at `slot`.
    pub fn id(&self, slot: u32) -> Option<&SignalId> {
        self.ids.get(slot as usize)
    }

    /// Number of interned signals.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no signal has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// A bitmask over signal slots.
///
/// Used both per-assertion ("which slots does this condition read") and
/// per-cycle ("which slots were updated this cycle"); their intersection
/// decides whether an assertion needs re-evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotMask {
    words: Box<[u64]>,
}

impl SlotMask {
    /// An empty mask covering at least `slots` slots.
    pub fn with_capacity(slots: usize) -> Self {
        SlotMask {
            words: vec![0; slots.div_ceil(64).max(1)].into_boxed_slice(),
        }
    }

    /// Sets the bit for `slot`. Slots beyond the mask's capacity are
    /// ignored (callers size masks from the table at compile time; signals
    /// first seen later cannot be catalog inputs).
    #[inline]
    pub fn set(&mut self, slot: u32) {
        let word = (slot / 64) as usize;
        if let Some(w) = self.words.get_mut(word) {
            *w |= 1u64 << (slot % 64);
        }
    }

    /// Whether the bit for `slot` is set.
    pub fn contains(&self, slot: u32) -> bool {
        let word = (slot / 64) as usize;
        self.words
            .get(word)
            .is_some_and(|w| w & (1u64 << (slot % 64)) != 0)
    }

    /// Whether any bit is set in both masks.
    #[inline]
    pub fn intersects(&self, other: &SlotMask) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .any(|(a, b)| a & b != 0)
    }

    /// Clears every bit.
    #[inline]
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Whether no bit is set.
    pub fn is_clear(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Iterates the set slot indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            (0..64u32)
                .filter(move |bit| word & (1u64 << bit) != 0)
                .map(move |bit| u32::try_from(i * 64).expect("slot fits u32") + bit)
        })
    }
}

/// One postfix instruction of a [`CompiledExpr`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Push the newest value of the signal in this slot.
    Signal(u32),
    /// Push a constant.
    Const(f64),
    /// Push the finite-difference derivative of the signal in this slot.
    Derivative(u32),
    /// Push the angle-aware derivative of the signal in this slot.
    AngularDerivative(u32),
    /// Replace the top of stack with its absolute value.
    Abs,
    /// Negate the top of stack.
    Neg,
    /// Replace the top of stack with its tangent.
    Tan,
    /// Pop two, push their sum.
    Add,
    /// Pop two, push their difference.
    Sub,
    /// Pop two, push their product.
    Mul,
    /// Pop two, push their wrapped angular difference.
    AngleDiff,
}

/// A [`SignalExpr`] flattened into postfix form with pre-resolved slots.
///
/// Evaluation is a non-recursive loop over the op array against a
/// caller-provided scratch stack; once the stack has been grown to
/// [`CompiledExpr::max_stack`] it never reallocates.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledExpr {
    ops: Box<[Op]>,
    max_stack: usize,
}

impl CompiledExpr {
    /// Compiles `expr`, interning its signals into `env`'s table.
    pub fn compile(expr: &SignalExpr, env: &mut Env) -> Self {
        let mut ops = Vec::new();
        flatten(expr, env, &mut ops);
        let mut depth = 0usize;
        let mut max_stack = 0usize;
        for op in &ops {
            match op {
                Op::Signal(_) | Op::Const(_) | Op::Derivative(_) | Op::AngularDerivative(_) => {
                    depth += 1;
                    max_stack = max_stack.max(depth);
                }
                Op::Abs | Op::Neg | Op::Tan => {}
                Op::Add | Op::Sub | Op::Mul | Op::AngleDiff => depth -= 1,
            }
        }
        debug_assert_eq!(depth, 1, "postfix program must leave one value");
        CompiledExpr {
            ops: ops.into_boxed_slice(),
            max_stack,
        }
    }

    /// Deepest the evaluation stack can get; size the scratch buffer to
    /// this to make [`CompiledExpr::eval`] allocation-free.
    pub fn max_stack(&self) -> usize {
        self.max_stack
    }

    /// The compiled program.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Evaluates against `env` using `stack` as scratch space.
    ///
    /// Returns `None` exactly when the tree-walking
    /// [`SignalExpr::eval`] would: some referenced signal is unseen (or,
    /// for derivatives, updated fewer than twice).
    #[inline]
    pub fn eval(&self, env: &Env, stack: &mut Vec<f64>) -> Option<f64> {
        stack.clear();
        stack.reserve(self.max_stack);
        for op in self.ops.iter() {
            match *op {
                Op::Signal(slot) => stack.push(env.value_at(slot)?),
                Op::Const(v) => stack.push(v),
                Op::Derivative(slot) => stack.push(env.derivative_at(slot)?),
                Op::AngularDerivative(slot) => stack.push(env.angular_derivative_at(slot)?),
                Op::Abs => {
                    let top = stack.last_mut()?;
                    *top = top.abs();
                }
                Op::Neg => {
                    let top = stack.last_mut()?;
                    *top = -*top;
                }
                Op::Tan => {
                    let top = stack.last_mut()?;
                    *top = top.tan();
                }
                Op::Add => {
                    let b = stack.pop()?;
                    let a = stack.last_mut()?;
                    *a += b;
                }
                Op::Sub => {
                    let b = stack.pop()?;
                    let a = stack.last_mut()?;
                    *a -= b;
                }
                Op::Mul => {
                    let b = stack.pop()?;
                    let a = stack.last_mut()?;
                    *a *= b;
                }
                Op::AngleDiff => {
                    let b = stack.pop()?;
                    let a = stack.last_mut()?;
                    *a = wrap_angle(*a - b);
                }
            }
        }
        stack.pop()
    }

    /// Marks every slot the program reads in `mask`.
    pub fn mark_inputs(&self, mask: &mut SlotMask) {
        for op in self.ops.iter() {
            match *op {
                Op::Signal(slot) | Op::Derivative(slot) | Op::AngularDerivative(slot) => {
                    mask.set(slot);
                }
                _ => {}
            }
        }
    }
}

fn flatten(expr: &SignalExpr, env: &mut Env, ops: &mut Vec<Op>) {
    match expr {
        SignalExpr::Signal(id) => ops.push(Op::Signal(env.resolve(id))),
        SignalExpr::Const(v) => ops.push(Op::Const(*v)),
        SignalExpr::Derivative(id) => ops.push(Op::Derivative(env.resolve(id))),
        SignalExpr::AngularDerivative(id) => ops.push(Op::AngularDerivative(env.resolve(id))),
        SignalExpr::Abs(e) => {
            flatten(e, env, ops);
            ops.push(Op::Abs);
        }
        SignalExpr::Neg(e) => {
            flatten(e, env, ops);
            ops.push(Op::Neg);
        }
        SignalExpr::Tan(e) => {
            flatten(e, env, ops);
            ops.push(Op::Tan);
        }
        SignalExpr::Add(a, b) => {
            flatten(a, env, ops);
            flatten(b, env, ops);
            ops.push(Op::Add);
        }
        SignalExpr::Sub(a, b) => {
            flatten(a, env, ops);
            flatten(b, env, ops);
            ops.push(Op::Sub);
        }
        SignalExpr::Mul(a, b) => {
            flatten(a, env, ops);
            flatten(b, env, ops);
            ops.push(Op::Mul);
        }
        SignalExpr::AngleDiff(a, b) => {
            flatten(a, env, ops);
            flatten(b, env, ops);
            ops.push(Op::AngleDiff);
        }
    }
}

/// What a [`CompiledCondition`] computes, recognised once at compile time.
///
/// Sixteen heterogeneous postfix programs make a stack machine's per-op
/// dispatch branch effectively random, and the misprediction cost dwarfs
/// the arithmetic (measured ~6x over a homogeneous catalog in the lane
/// engine). The standard catalog's expressions fall into a handful of
/// shapes, so each condition is lowered to one of them up front and
/// evaluation is one well-predicted branch per condition. Every shape
/// performs the identical `f64` operations in the identical order as the
/// postfix program it replaces, so results stay bit-identical;
/// [`Kernel::Program`] keeps the stack machine for everything else. Both
/// checking engines evaluate these kernels: the online checker through
/// [`Env`]'s slot accessors, the lane engine ([`crate::lane`]) over a
/// trace's columns.
#[derive(Debug, Clone)]
pub(crate) enum Kernel {
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
    /// `Fresh`: the value is the signal's age.
    Fresh { slot: u32 },
    /// Any other expression: the postfix program.
    Program(CompiledExpr),
}

impl Kernel {
    /// Recognises `expr`'s shape, keeping the program when none matches.
    fn recognise(expr: CompiledExpr) -> Kernel {
        match *expr.ops() {
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
            _ => Kernel::Program(expr),
        }
    }

    /// The kernel's value against `env`, `None` exactly when the postfix
    /// program (or, for `Fresh`, [`Env::age_at`]) would give `None`.
    #[inline]
    fn value(&self, env: &Env, stack: &mut Vec<f64>) -> Option<f64> {
        let abs_if = |v: f64, abs: bool| if abs { v.abs() } else { v };
        match *self {
            Kernel::Sig { slot, abs } => Some(abs_if(env.value_at(slot)?, abs)),
            Kernel::Deriv { slot, abs } => Some(abs_if(env.derivative_at(slot)?, abs)),
            Kernel::SubAbs { a, b } => Some((env.value_at(a)? - env.value_at(b)?).abs()),
            Kernel::SubMulConst { a, b, c } => Some(env.value_at(a)? - env.value_at(b)? * c),
            Kernel::MulAbs { a, b } => Some((env.value_at(a)? * env.value_at(b)?).abs()),
            Kernel::AngDerivSubAbs { d, b } => {
                Some((env.angular_derivative_at(d)? - env.value_at(b)?).abs())
            }
            Kernel::Fresh { slot } => env.age_at(slot),
            Kernel::Program(ref expr) => expr.eval(env, stack),
        }
    }
}

/// A [`Condition`] lowered against an environment's signal table: a shape
/// kernel and the bound its value is compared against.
#[derive(Debug, Clone)]
pub struct CompiledCondition {
    /// What the condition computes.
    pub(crate) kernel: Kernel,
    /// `true` for `AtLeast` (healthy ⇔ value ≥ limit), `false` for
    /// `AtMost` and `Fresh` (healthy ⇔ value ≤ limit).
    pub(crate) at_least: bool,
    /// The comparison bound (`Fresh`'s `max_age` counts).
    pub(crate) limit: f64,
}

impl CompiledCondition {
    /// Compiles `condition`, interning its signals into `env`'s table.
    pub fn compile(condition: &Condition, env: &mut Env) -> Self {
        let (kernel, at_least, limit) = match condition {
            Condition::AtMost { expr, limit } => (
                Kernel::recognise(CompiledExpr::compile(expr, env)),
                false,
                *limit,
            ),
            Condition::AtLeast { expr, limit } => (
                Kernel::recognise(CompiledExpr::compile(expr, env)),
                true,
                *limit,
            ),
            Condition::Fresh { signal, max_age } => (
                Kernel::Fresh {
                    slot: env.resolve(signal),
                },
                false,
                *max_age,
            ),
        };
        CompiledCondition {
            kernel,
            at_least,
            limit,
        }
    }

    /// Evaluates against `env`; semantics match [`Condition::eval`] exactly.
    #[inline]
    pub fn eval(&self, env: &Env, stack: &mut Vec<f64>) -> Eval {
        match self.kernel.value(env, stack) {
            Some(v) if self.healthy(v) => Eval::Healthy,
            Some(v) => Eval::Violated(v),
            None => Eval::Unknown,
        }
    }

    /// Whether `value` satisfies the bound.
    #[inline]
    fn healthy(&self, value: f64) -> bool {
        if self.at_least {
            value >= self.limit
        } else {
            value <= self.limit
        }
    }

    /// Whether the verdict can change with the clock alone (no input
    /// update). `Fresh` ages as time passes; everything else is a pure
    /// function of stored signal state.
    pub fn time_dependent(&self) -> bool {
        matches!(self.kernel, Kernel::Fresh { .. })
    }

    /// Marks every slot the condition reads in `mask`.
    pub fn mark_inputs(&self, mask: &mut SlotMask) {
        match self.kernel {
            Kernel::Sig { slot, .. } | Kernel::Deriv { slot, .. } | Kernel::Fresh { slot } => {
                mask.set(slot);
            }
            Kernel::SubAbs { a, b }
            | Kernel::SubMulConst { a, b, .. }
            | Kernel::MulAbs { a, b }
            | Kernel::AngDerivSubAbs { d: a, b } => {
                mask.set(a);
                mask.set(b);
            }
            Kernel::Program(ref expr) => expr.mark_inputs(mask),
        }
    }

    /// Deepest evaluation stack the condition needs (only conditions that
    /// match no shape kernel run the stack machine).
    pub fn max_stack(&self) -> usize {
        match &self.kernel {
            Kernel::Program(expr) => expr.max_stack(),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn env_with(pairs: &[(&str, f64)]) -> Env {
        let mut env = Env::new();
        env.set_time(0.0);
        for (name, v) in pairs {
            env.update(&SignalId::new(name), *v);
        }
        env
    }

    fn eval_both(expr: &SignalExpr, env: &mut Env) -> (Option<f64>, Option<f64>) {
        let tree = expr.eval(env);
        let compiled = CompiledExpr::compile(expr, env);
        let mut stack = Vec::new();
        (tree, compiled.eval(env, &mut stack))
    }

    #[test]
    fn interning_assigns_dense_slots_in_first_sight_order() {
        let mut table = SignalTable::new();
        let a = SignalId::new("gnss_x");
        let b = SignalId::new("custom_signal");
        assert_eq!(table.intern(&a), 0);
        assert_eq!(table.intern(&b), 1);
        assert_eq!(table.intern(&a), 0, "stable on re-intern");
        assert_eq!(table.slot(&b), Some(1));
        assert_eq!(table.slot(&SignalId::new("unseen")), None);
        assert_eq!(table.id(0), Some(&a));
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn well_known_and_dynamic_paths_agree() {
        let mut table = SignalTable::new();
        for name in well_known::ALL {
            table.intern(&SignalId::new(name));
        }
        table.intern(&SignalId::new("extra"));
        assert_eq!(table.len(), well_known::ALL.len() + 1);
        for (i, name) in well_known::ALL.iter().enumerate() {
            let slot = table.slot(&SignalId::new(name)).unwrap();
            assert_eq!(slot as usize, i, "{name}");
        }
    }

    #[test]
    fn slot_mask_set_intersect_clear() {
        let mut inputs = SlotMask::with_capacity(100);
        inputs.set(3);
        inputs.set(70);
        let mut dirty = SlotMask::with_capacity(100);
        assert!(!inputs.intersects(&dirty));
        dirty.set(70);
        assert!(inputs.intersects(&dirty));
        assert!(inputs.contains(3) && inputs.contains(70) && !inputs.contains(4));
        dirty.clear();
        assert!(dirty.is_clear());
        // Out-of-capacity sets are ignored, not panics.
        dirty.set(100_000);
        assert!(dirty.is_clear());
    }

    #[test]
    fn slot_mask_iter_yields_set_slots_in_order() {
        let mut mask = SlotMask::with_capacity(130);
        for slot in [5, 0, 64, 129] {
            mask.set(slot);
        }
        assert_eq!(mask.iter().collect::<Vec<_>>(), vec![0, 5, 64, 129]);
        assert_eq!(SlotMask::with_capacity(10).iter().count(), 0);
    }

    #[test]
    fn compiled_matches_tree_walk_on_arithmetic() {
        let mut env = env_with(&[("a", 3.0), ("b", -2.0)]);
        for expr in [
            SignalExpr::signal("a").add(SignalExpr::signal("b")),
            SignalExpr::signal("a").mul(SignalExpr::constant(2.0)),
            SignalExpr::signal("b").abs(),
            SignalExpr::signal("a").neg(),
            SignalExpr::signal("a").sub(SignalExpr::signal("b")).tan(),
            SignalExpr::signal("a").angle_diff(SignalExpr::signal("b")),
        ] {
            let (tree, compiled) = eval_both(&expr, &mut env);
            assert_eq!(tree, compiled, "{expr}");
        }
    }

    #[test]
    fn compiled_matches_tree_walk_on_missing_signals() {
        let mut env = env_with(&[("a", 1.0)]);
        let expr = SignalExpr::signal("a").sub(SignalExpr::signal("zzz"));
        let (tree, compiled) = eval_both(&expr, &mut env);
        assert_eq!(tree, None);
        assert_eq!(compiled, None);
    }

    #[test]
    fn compiled_matches_tree_walk_on_derivatives() {
        let id = SignalId::new("x");
        let mut env = Env::new();
        env.set_time(0.0);
        env.update(&id, 1.0);
        let expr = SignalExpr::derivative("x");
        let (tree, compiled) = eval_both(&expr, &mut env);
        assert_eq!(tree, None, "one update: no derivative");
        assert_eq!(compiled, None);
        env.set_time(0.1);
        env.update(&id, 2.0);
        let (tree, compiled) = eval_both(&expr, &mut env);
        assert_eq!(tree, compiled);
        assert!((compiled.unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn max_stack_bounds_evaluation_depth() {
        // ((a + b) * (a - b)) needs two live values twice: depth 2... but
        // the right operand evaluates while the left result is parked, so 3.
        let expr = SignalExpr::signal("a")
            .add(SignalExpr::signal("b"))
            .mul(SignalExpr::signal("a").sub(SignalExpr::signal("b")));
        let mut env = env_with(&[("a", 3.0), ("b", 2.0)]);
        let compiled = CompiledExpr::compile(&expr, &mut env);
        assert_eq!(compiled.max_stack(), 3);
        let mut stack = Vec::with_capacity(compiled.max_stack());
        assert_eq!(compiled.eval(&env, &mut stack), Some(5.0));
        assert!(stack.capacity() >= 3 && stack.is_empty());
    }

    /// A short name for a kernel's shape, abs flags included.
    fn shape(kernel: &Kernel) -> &'static str {
        match kernel {
            Kernel::Sig { abs: false, .. } => "Sig",
            Kernel::Sig { abs: true, .. } => "SigAbs",
            Kernel::Deriv { abs: false, .. } => "Deriv",
            Kernel::Deriv { abs: true, .. } => "DerivAbs",
            Kernel::SubAbs { .. } => "SubAbs",
            Kernel::SubMulConst { .. } => "SubMulConst",
            Kernel::MulAbs { .. } => "MulAbs",
            Kernel::AngDerivSubAbs { .. } => "AngDerivSubAbs",
            Kernel::Fresh { .. } => "Fresh",
            Kernel::Program(_) => "Program",
        }
    }

    #[test]
    fn standard_catalog_lowers_to_pinned_kernels() {
        // A catalog edit that changes an assertion's shape (and so moves it
        // on or off a kernel) must update this table on purpose.
        let config = crate::catalog::CatalogConfig::default().with_goal_distance(100.0);
        let catalog = crate::catalog::build(&config);
        let mut env = Env::new();
        let lowered: Vec<(&str, &str)> = catalog
            .iter()
            .map(|a| {
                let compiled = CompiledCondition::compile(&a.condition, &mut env);
                (a.id.as_str(), shape(&compiled.kernel))
            })
            .collect();
        assert_eq!(
            lowered,
            [
                ("A1", "SigAbs"),
                ("A2", "SigAbs"),
                ("A3", "SubAbs"),
                ("A4", "SigAbs"),
                ("A5", "DerivAbs"),
                ("A6", "SubAbs"),
                ("A7", "SubMulConst"),
                // imu_yaw_rate - wheel_speed * tan(steer_actual) / wheelbase
                ("A8", "Program"),
                ("A9", "Deriv"),
                ("A10", "MulAbs"),
                ("A11", "Sig"),
                ("A12", "Sig"),
                ("A13", "Fresh"),
                ("A14", "AngDerivSubAbs"),
                ("A15", "SubAbs"),
                ("A16", "Sig"),
            ]
        );
    }

    #[test]
    fn compiled_condition_matches_condition_eval() {
        let mut env = env_with(&[("x", 3.0)]);
        let cond = Condition::AtMost {
            expr: SignalExpr::signal("x").abs(),
            limit: 2.0,
        };
        let compiled = CompiledCondition::compile(&cond, &mut env);
        let mut stack = Vec::new();
        assert_eq!(compiled.eval(&env, &mut stack), cond.eval(&env));
        assert_eq!(compiled.eval(&env, &mut stack), Eval::Violated(3.0));
        assert!(!compiled.time_dependent());

        let fresh = Condition::Fresh {
            signal: SignalId::new("x"),
            max_age: 0.5,
        };
        let compiled = CompiledCondition::compile(&fresh, &mut env);
        assert!(compiled.time_dependent());
        assert_eq!(compiled.eval(&env, &mut stack), fresh.eval(&env));
    }

    #[test]
    fn input_masks_cover_expression_slots() {
        let mut env = Env::new();
        let cond = Condition::AtMost {
            expr: SignalExpr::signal("a").sub(SignalExpr::derivative("b")),
            limit: 1.0,
        };
        let compiled = CompiledCondition::compile(&cond, &mut env);
        let mut mask = SlotMask::with_capacity(env.table().len());
        compiled.mark_inputs(&mut mask);
        let a = env.table().slot(&SignalId::new("a")).unwrap();
        let b = env.table().slot(&SignalId::new("b")).unwrap();
        assert!(mask.contains(a) && mask.contains(b));
    }

    #[test]
    fn fx_hasher_is_deterministic_and_spreads() {
        let build = FxBuildHasher::default();
        let h1 = build.hash_one("gnss_x");
        let h2 = build.hash_one("gnss_x");
        let h3 = build.hash_one("gnss_y");
        assert_eq!(h1, h2);
        assert_ne!(h1, h3);
    }
}
