//! What the run ran on, and what the host did to it: provenance,
//! hypervisor steal time and peak resident memory, read from Linux
//! `/proc`.

/// Clock ticks per second of `/proc` CPU counters (`USER_HZ`, 100 on
/// every mainstream Linux architecture).
const USER_HZ: f64 = 100.0;

/// Build and machine identity recorded with every run.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Commit of the measured tree, or `unknown` outside a git checkout.
    pub commit: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: String,
    /// CPU model name.
    pub cpu: String,
    /// Logical CPUs available to the process.
    pub nproc: usize,
}

impl Provenance {
    /// Reads the current build and machine.
    pub fn current() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".into());
        Provenance {
            commit: env!("PERFBENCH_COMMIT").to_owned(),
            rustc: env!("PERFBENCH_RUSTC").to_owned(),
            cpu,
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
        }
    }
}

/// Host-wide steal seconds so far, summed over all CPUs: time the
/// hypervisor ran something else while a vCPU wanted to run.
pub fn host_steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let line = stat.lines().find(|l| l.starts_with("cpu "))?;
            line.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / USER_HZ)
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU and steal time over one region of the run.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    cpu_s: f64,
    steal_s: f64,
}

impl Usage {
    /// The counters now.
    pub fn now() -> Self {
        Usage {
            cpu_s: crate::calib::process_cpu_s(),
            steal_s: host_steal_s(),
        }
    }

    /// `(process cpu s, host steal s)` since `self`.
    pub fn since(self) -> (f64, f64) {
        let now = Usage::now();
        (now.cpu_s - self.cpu_s, now.steal_s - self.steal_s)
    }
}
