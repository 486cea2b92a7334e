//! How passes are timed, and how a pass's numbers are brought to one
//! reference machine speed instead of whatever speed the host gave it.
//!
//! On a shared 2-vCPU VM two things move the same code's wall time by
//! tens of percent, in windows of seconds to minutes that a median over
//! passes does not remove:
//!
//! - **Steal.** The hypervisor runs another guest on the vCPU; from 0 to
//!   over a third of the VM's CPU time in a 20 s run.
//! - **Host load.** With the host quiet the same code runs up to 1.9×
//!   faster, and how much depends on the kind of code: a dependent
//!   floating-point chain gains about 1.2×, code that formats, allocates
//!   and hashes up to 1.9×.
//!
//! Against steal, a workload whose ops run on the benchmark thread alone
//! is timed by that thread's CPU clock ([`Clock::Thread`]), which leaves
//! stolen time out. One whose ops span threads that wait on each other
//! is timed by the wall clock and scaled by the share of the VM's CPU
//! time that was not stolen ([`Clock::Wall`]).
//!
//! Against host load, every workload names the mix of short `std`-only
//! kernels that behaves like its own code ([`Reference`]). The kernels
//! are timed after each pass, and the pass's rate is divided by (its op
//! latencies multiplied by) the speed they saw relative to their nominal
//! times. A change to the program does not move the kernels.
//!
//! Both speeds are taken over a window of [`WINDOW`] neighbouring passes,
//! which evens out a single kernel timing's noise and the 10 ms
//! granularity of the steal counter.
//!
//! The nominal kernel times are their medians on the VM the benchmark was
//! written on (Intel Xeon, KVM, 2 vCPUs) in its usual, busy-host state,
//! so scaled numbers read close to that machine's wall-clock ones.

use std::collections::HashMap;
use std::hint::black_box;

/// Iterations of the formatting kernel.
const FORMAT_ITERS: usize = 6_000;
/// Lookups of the hashing kernel.
const HASH_ITERS: usize = 12_000;
/// Steps of the dependent floating-point chain.
const CHAIN_ITERS: usize = 40_000;

/// Nominal kernel times, ns.
const FORMAT_NS: f64 = 425_000.0;
const HASH_NS: f64 = 425_000.0;
const CHAIN_NS: f64 = 460_000.0;

/// Passes a speed is taken over, centred on the pass it scales.
pub const WINDOW: usize = 9;

/// Timings per kernel per sample; the fastest counts, since an interrupt
/// or a page fault only ever adds time.
const REPEATS: usize = 3;

/// The clock a workload's passes are timed by.
#[derive(Debug, Clone, Copy)]
pub enum Clock {
    /// The benchmark thread's CPU clock.
    Thread,
    /// The wall clock, scaled by the share of CPU time not stolen.
    Wall,
}

/// The calling thread's CPU time in seconds: running time only, without
/// time the hypervisor or another task held the CPU (Linux accounts
/// paravirtual steal time out of it).
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(3) // CLOCK_THREAD_CPUTIME_ID
}

/// The CPU time of every thread of this process in seconds, counted like
/// [`thread_cpu_s`].
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(2) // CLOCK_PROCESS_CPUTIME_ID
}

fn cpu_clock_s(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "CPU clock {clock} is readable");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Which kernels stand in for a workload's code: the share of its time
/// that behaves like each. Shares add up to 1.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    /// Per-item `format!` into a fresh `String`: allocation, integer
    /// formatting and copying, the shape of `.adt` decode.
    pub format: f64,
    /// `HashMap<String, _>` lookups by signal-like names, the shape of
    /// per-sample checker updates.
    pub hash: f64,
    /// A dependent chain of `sqrt`, multiply and add: latency-bound
    /// arithmetic, which host load hardly moves.
    pub chain: f64,
}

/// One timing of every kernel, each relative to its nominal time
/// (above 1 when the machine is slower than nominal).
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    format: f64,
    hash: f64,
    chain: f64,
}

/// The kernels' own inputs, built once per run.
pub struct Kernels {
    keys: Vec<String>,
    table: HashMap<String, u64>,
}

impl Kernels {
    pub fn new() -> Self {
        let keys: Vec<String> = (0..48).map(|i| format!("signal_{i:02}")).collect();
        let table = keys.iter().cloned().zip(0u64..).collect();
        Kernels { keys, table }
    }

    /// Times each kernel `reference` uses.
    pub fn sample(&self, reference: &Reference) -> Sample {
        let format = time_ns(reference.format, || {
            let mut total = 0usize;
            for i in 0..FORMAT_ITERS {
                total += black_box(format!("cycle index of sample {i}")).len();
            }
            total as u64
        });
        let hash = time_ns(reference.hash, || {
            let mut total = 0u64;
            for i in 0..HASH_ITERS {
                total = total.wrapping_add(self.table[&self.keys[i % self.keys.len()]]);
            }
            total
        });
        let chain = time_ns(reference.chain, || {
            let mut x = black_box(1.0001f64);
            let mut total = 0.0;
            for i in 0..CHAIN_ITERS {
                x = (x * 1.000_000_1 + 1e-9).sqrt() + i as f64 * 1e-12;
                total += x.abs().min(3.0);
            }
            total.to_bits()
        });
        Sample {
            format: format / FORMAT_NS,
            hash: hash / HASH_NS,
            chain: chain / CHAIN_NS,
        }
    }
}

/// The fastest of [`REPEATS`] timings of `work`, keeping its result
/// alive; 0 when the kernel's `share` is 0, so unused kernels cost nothing.
fn time_ns(share: f64, work: impl Fn() -> u64) -> f64 {
    if share == 0.0 {
        return 0.0;
    }
    (0..REPEATS)
        .map(|_| {
            let start = thread_cpu_s();
            black_box(work());
            (thread_cpu_s() - start) * 1e9
        })
        .fold(f64::INFINITY, f64::min)
}

impl Reference {
    /// The mix for code dominated by the online checker: per-sample
    /// updates look signals up by name, and assertion evaluation is
    /// floating-point arithmetic. These shares tracked `checker::check`'s
    /// speed best as the host's load changed, and they tracked both ingest
    /// workloads' too.
    pub const CHECKER: Reference = Reference {
        format: 0.0,
        hash: 0.6,
        chain: 0.4,
    };

    /// What one kernel sample says of the machine's speed: the reference
    /// mix, nominally 1 s of work, took `took` seconds.
    pub fn evidence(&self, sample: Sample) -> Evidence {
        Evidence {
            work: 1.0,
            took: self.format * sample.format + self.hash * sample.hash + self.chain * sample.chain,
            unstolen: 0.0,
            capacity: 0.0,
        }
    }
}

/// One pass's evidence of the machine's speed: `work` seconds of work at
/// the reference speed took `took` seconds, and of `capacity` CPU-seconds
/// the hypervisor left `unstolen` to the VM (both 0 for a pass timed by
/// [`Clock::Thread`], whose clock leaves stolen time out).
#[derive(Debug, Clone, Copy)]
pub struct Evidence {
    work: f64,
    took: f64,
    unstolen: f64,
    capacity: f64,
}

impl Evidence {
    /// Adds what the host stole from a wall-timed pass of `wall` seconds
    /// on `nproc` CPUs: `stolen` CPU-seconds.
    pub fn with_steal(self, wall: f64, nproc: f64, stolen: f64) -> Self {
        let capacity = wall * nproc;
        Evidence {
            unstolen: (capacity - stolen).max(0.1 * capacity),
            capacity,
            ..self
        }
    }
}

/// Each pass's speed relative to the reference: the evidence summed over
/// the [`WINDOW`] passes centred on it (fewer at either end of the run).
pub fn speeds(evidence: &[Evidence]) -> Vec<f64> {
    let half = WINDOW / 2;
    (0..evidence.len())
        .map(|i| {
            let window = &evidence[i.saturating_sub(half)..(i + half + 1).min(evidence.len())];
            let sum = |f: fn(&Evidence) -> f64| window.iter().map(f).sum::<f64>();
            let capacity = sum(|e| e.capacity);
            let unstolen = if capacity > 0.0 {
                sum(|e| e.unstolen) / capacity
            } else {
                1.0
            };
            sum(|e| e.work) / sum(|e| e.took) * unstolen
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_work_over_time_across_the_window() {
        let reference = Reference {
            format: 0.0,
            hash: 0.5,
            chain: 0.5,
        };
        let slow = Sample {
            format: 0.0,
            hash: 3.0,
            chain: 1.0,
        };
        let fast = Sample {
            format: 0.0,
            hash: 1.0,
            chain: 1.0,
        };
        // Ten passes at half speed, then ten at full speed.
        let mut evidence = vec![reference.evidence(slow); 10];
        evidence.extend([reference.evidence(fast); 10]);
        let s = speeds(&evidence);
        assert_eq!(s[0], 0.5);
        assert_eq!(s[19], 1.0);
        // Pass 10's window holds passes 6 to 14: four slow, five fast.
        assert!((s[10] - 9.0 / 13.0).abs() < 1e-12);
        // Stolen CPU time counts against a wall-timed pass as well.
        let stolen = reference.evidence(slow).with_steal(0.1, 2.0, 0.05);
        assert!((speeds(&[stolen])[0] - 0.375).abs() < 1e-12);
    }
}
