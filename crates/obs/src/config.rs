//! Observability configuration and the `ADASSURE_OBS` environment toggles.
//!
//! Mirrors the `ADASSURE_THREADS` convention from the campaign engine: an
//! env var for ad-hoc control from the shell, plus an explicit [`ObsConfig`]
//! for programmatic use (tests, bench bins).

use crate::event::EventFilter;
use std::path::PathBuf;

/// Env var toggling event emission: unset, `0` or `off` disables; `1`,
/// `on` or `sampled` enables (`sampled` applies the production filter that
/// samples informational verdict flips 1-in-32).
pub const OBS_ENV: &str = "ADASSURE_OBS";

/// Env var naming the JSONL output file used when [`OBS_ENV`] is enabled.
pub const OBS_PATH_ENV: &str = "ADASSURE_OBS_PATH";

/// Observability switches for a checker, guardian or campaign run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsConfig {
    /// Whether events are emitted at all.
    pub events: bool,
    /// Filter applied before an event reaches the sink.
    pub filter: EventFilter,
    /// Where the campaign engine writes merged JSONL (`None` keeps events
    /// in memory / discards them).
    pub jsonl_path: Option<PathBuf>,
}

impl ObsConfig {
    /// Everything off: no events. Metrics counters still run
    /// (they are a few adds per cycle and keep reports comparable).
    pub fn disabled() -> Self {
        ObsConfig {
            events: false,
            filter: EventFilter::none(),
            jsonl_path: None,
        }
    }

    /// Events on with the accept-everything filter.
    pub fn enabled() -> Self {
        ObsConfig {
            events: true,
            filter: EventFilter::all(),
            jsonl_path: None,
        }
    }

    /// Reads [`OBS_ENV`] / [`OBS_PATH_ENV`]. Unrecognized values of
    /// [`OBS_ENV`] count as enabled (so `ADASSURE_OBS=yes` works), and the
    /// path is only honoured when events are on.
    pub fn from_env() -> Self {
        let mut cfg = match std::env::var(OBS_ENV) {
            Err(_) => return ObsConfig::disabled(),
            Ok(v) => match v.trim() {
                "" | "0" | "off" => return ObsConfig::disabled(),
                "sampled" => {
                    let mut cfg = ObsConfig::enabled();
                    cfg.filter = EventFilter::default_sampled();
                    cfg
                }
                _ => ObsConfig::enabled(),
            },
        };
        cfg.jsonl_path = std::env::var(OBS_PATH_ENV).ok().map(PathBuf::from);
        cfg
    }

    /// Builder-style: set the JSONL output path.
    pub fn with_jsonl_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.jsonl_path = Some(path.into());
        self
    }
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_emits_nothing() {
        let cfg = ObsConfig::disabled();
        assert!(!cfg.events);
        assert_eq!(cfg.filter, EventFilter::none());
    }

    // `from_env` is covered by the campaign integration tests; mutating
    // process-global env vars inside the parallel unit-test runner would
    // race with other tests.
}
