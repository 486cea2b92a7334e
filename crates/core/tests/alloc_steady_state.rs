//! Pins the compiled evaluation plan's zero-allocation guarantee: once
//! every catalog signal has been seen (all slots interned), the
//! steady-state `begin_cycle` / `update` / `end_cycle` path must not
//! touch the allocator at all.
//!
//! Lives in its own integration-test binary because it installs a
//! process-wide counting `#[global_allocator]`. The count is kept per
//! thread, so tests running in parallel (and the test harness's own
//! reporting) never charge their allocations to each other's counted
//! phase; each checker runs entirely on its test's thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use adassure_core::catalog::{self, CatalogConfig};
use adassure_core::compile::CompiledExpr;
use adassure_core::expr::Env;
use adassure_core::{OnlineChecker, SignalExpr};
use adassure_obs::{JsonlWriter, ObsConfig};
use adassure_trace::SignalId;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations made so far on the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_cycles_do_not_allocate() {
    let config = CatalogConfig::default();
    let cat = catalog::build(&config);
    let signals: Vec<SignalId> = catalog::signals(&cat);
    assert!(!signals.is_empty());

    let mut checker = OnlineChecker::new(cat.iter().cloned());

    // Warm-up past the behavioural grace period so every assertion is
    // actually evaluated, with every catalog signal updated each cycle so
    // all slots are interned. Value 0.0 keeps the whole catalog healthy
    // (a non-zero hold value would trip residual-style assertions and the
    // resulting violation push would — legitimately — allocate).
    for i in 0..50u32 {
        let t = 12.0 + f64::from(i) * 0.01;
        checker.begin_cycle(t).unwrap();
        for id in &signals {
            checker.update(id.clone(), 0.0);
        }
        checker.end_cycle();
    }
    assert_eq!(
        checker.violations().len(),
        0,
        "warm-up must stay violation-free or the steady state is not representative"
    );

    // Steady state: same traffic, counted.
    let before = allocations();
    for i in 50..1050u32 {
        let t = 12.0 + f64::from(i) * 0.01;
        checker.begin_cycle(t).unwrap();
        for id in &signals {
            checker.update(id.clone(), 0.0);
        }
        checker.end_cycle();
    }
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "steady-state begin_cycle/update/end_cycle allocated"
    );
    assert!(checker.violations().is_empty());
}

#[test]
fn compiled_expr_reserves_its_whole_depth_before_evaluating() {
    // A depth-6 program against a caller's stack that already holds two
    // values in a capacity-2 buffer: `eval` must grow it once, up front,
    // never again mid-program, and not at all on the next call.
    let mut expr = SignalExpr::signal("a");
    for _ in 0..5 {
        expr = SignalExpr::signal("a").add(expr);
    }
    let mut env = Env::new();
    env.set_time(0.0);
    env.update(&SignalId::new("a"), 1.0);
    let compiled = CompiledExpr::compile(&expr, &mut env);
    assert_eq!(compiled.max_stack(), 6);
    let mut stack = vec![9.0, 9.0];
    stack.shrink_to_fit();
    assert_eq!(stack.capacity(), 2);

    let before = allocations();
    assert_eq!(compiled.eval(&env, &mut stack), Some(6.0));
    assert_eq!(allocations() - before, 1, "one up-front reservation");
    assert!(stack.capacity() >= compiled.max_stack());

    let before = allocations();
    assert_eq!(compiled.eval(&env, &mut stack), Some(6.0));
    assert_eq!(allocations() - before, 0, "a grown stack is reused");
}

#[test]
fn fault_path_does_not_allocate() {
    // The telemetry-health layer (poison flags, staleness scan, streak
    // counters, Inconclusive verdicts) must preserve the zero-allocation
    // guarantee: degraded cycles are exactly when the monitor must not
    // misbehave.
    let config = CatalogConfig::default();
    let cat = catalog::build(&config);
    let signals: Vec<SignalId> = catalog::signals(&cat);

    let health = adassure_core::HealthConfig {
        stale_after: 0.05,
        quarantine_after: 10,
        recover_after: 5,
    };
    let mut checker = OnlineChecker::with_health(cat.iter().cloned(), health);

    for i in 0..50u32 {
        let t = 12.0 + f64::from(i) * 0.01;
        checker.begin_cycle(t).unwrap();
        for id in &signals {
            checker.update(id.clone(), 0.0);
        }
        checker.end_cycle();
    }
    assert_eq!(checker.violations().len(), 0);

    // Counted phase: ten-cycle full dropouts (0.1 s ≫ the 0.05 s horizon,
    // exercising staleness degradation and the hysteretic recovery in the
    // twenty live cycles that follow) interleaved with NaN poisoning of
    // half the catalog every third live cycle.
    let before = allocations();
    for i in 50..1050u32 {
        let t = 12.0 + f64::from(i) * 0.01;
        checker.begin_cycle(t).unwrap();
        if (i / 10) % 3 != 2 {
            for (k, id) in signals.iter().enumerate() {
                let value = if i % 3 == 0 && k % 2 == 0 {
                    f64::NAN
                } else {
                    0.0
                };
                checker.update(id.clone(), value);
            }
        }
        checker.end_cycle();
    }
    let after = allocations();

    assert_eq!(after - before, 0, "fault-path cycles allocated");
    assert_eq!(
        checker.violations().len(),
        0,
        "faults must yield Inconclusive verdicts, not violations"
    );
    assert!(checker.inconclusive_cycles() > 0, "faults were exercised");
}

#[test]
fn observed_cycles_do_not_allocate() {
    // The observability layer — verdict counters, transition grids, the
    // per-cycle timing sample, event construction, filtering, and JSONL
    // serialization into the writer's reusable buffer — must preserve the
    // zero-allocation steady state with every event kind enabled. Faults are injected so flips and health
    // transitions (the allocation-prone paths) actually fire while
    // counting.
    let config = CatalogConfig::default();
    let cat = catalog::build(&config);
    let signals: Vec<SignalId> = catalog::signals(&cat);

    let health = adassure_core::HealthConfig {
        stale_after: 0.05,
        quarantine_after: 10,
        recover_after: 5,
    };
    let mut checker = OnlineChecker::with_observability(
        cat.iter().cloned(),
        health,
        &ObsConfig::enabled(),
        Box::new(JsonlWriter::new(std::io::sink())),
    );

    for i in 0..50u32 {
        let t = 12.0 + f64::from(i) * 0.01;
        checker.begin_cycle(t).unwrap();
        for id in &signals {
            checker.update(id.clone(), 0.0);
        }
        checker.end_cycle();
    }
    assert_eq!(checker.violations().len(), 0);

    // Counted phase: the same fault schedule as `fault_path_does_not_
    // allocate`, so verdict flips and health transitions stream through
    // the sink while the allocator is watched.
    let timed_before = checker.metrics().eval_cycle_ns.count;
    let before = allocations();
    for i in 50..1050u32 {
        let t = 12.0 + f64::from(i) * 0.01;
        checker.begin_cycle(t).unwrap();
        if (i / 10) % 3 != 2 {
            for (k, id) in signals.iter().enumerate() {
                let value = if i % 3 == 0 && k % 2 == 0 {
                    f64::NAN
                } else {
                    0.0
                };
                checker.update(id.clone(), value);
            }
        }
        checker.end_cycle();
    }
    let after = allocations();

    assert_eq!(after - before, 0, "observed cycles allocated");
    assert!(
        checker.events_emitted() > 0,
        "the emission path was not exercised"
    );
    let metrics = checker.metrics();
    assert!(
        metrics.eval_cycle_ns.count - timed_before >= 1000 / 64,
        "the 1-in-64 timing sample was taken while counting"
    );
    assert!(
        !metrics.health_transitions.is_empty(),
        "health transitions were exercised"
    );
}

/// Drives a warmed-up checker for 1000 cycles in which every cycle also
/// carries channel names the checker has never seen and no assertion
/// reads, and returns the allocations made while doing so. Those samples
/// must be dropped on arrival: a checker that kept them would grow with
/// every new name a producer sends.
fn allocations_with_unseen_unread_names(health: adassure_core::HealthConfig) -> u64 {
    const NEW_NAMES_PER_CYCLE: usize = 4;
    let cat = catalog::build(&CatalogConfig::default());
    let signals: Vec<SignalId> = catalog::signals(&cat);
    let mut checker = OnlineChecker::with_health(cat.iter().cloned(), health);

    for i in 0..50u32 {
        let t = 12.0 + f64::from(i) * 0.01;
        checker.begin_cycle(t).unwrap();
        for id in &signals {
            checker.update(id.clone(), 0.0);
        }
        checker.end_cycle();
    }
    assert_eq!(checker.violations().len(), 0);

    // The names are built before counting; cloning one is a refcount bump.
    let unread: Vec<SignalId> = (0..1000 * NEW_NAMES_PER_CYCLE)
        .map(|i| SignalId::new(format!("junk_{i}")))
        .collect();
    let before = allocations();
    for (i, names) in (50..1050u32).zip(unread.chunks(NEW_NAMES_PER_CYCLE)) {
        let t = 12.0 + f64::from(i) * 0.01;
        checker.begin_cycle(t).unwrap();
        for id in &signals {
            checker.update(id.clone(), 0.0);
        }
        for id in names {
            checker.update(id.clone(), 1.0e9);
        }
        checker.end_cycle();
    }
    let after = allocations();
    assert!(checker.violations().is_empty());
    after - before
}

#[test]
fn unseen_unread_names_do_not_allocate() {
    let health = adassure_core::HealthConfig {
        stale_after: 0.05,
        quarantine_after: 10,
        recover_after: 5,
    };
    assert_eq!(
        allocations_with_unseen_unread_names(health),
        0,
        "unread channel names grew the checker"
    );
}

#[test]
fn unseen_unread_names_do_not_allocate_without_horizon() {
    // The default infinite horizon, where `end_cycle` skips the health
    // scan entirely while no slot is poisoned.
    assert_eq!(
        allocations_with_unseen_unread_names(adassure_core::HealthConfig::default()),
        0,
        "unread channel names grew the checker"
    );
}
