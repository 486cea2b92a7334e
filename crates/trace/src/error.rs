use std::fmt;

/// Errors produced by trace recording and querying.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TraceError {
    /// A sample was pushed with a timestamp not strictly greater than the
    /// previous sample of the same series.
    NonMonotonicTime {
        /// Signal whose series rejected the sample.
        signal: String,
        /// Timestamp of the last accepted sample.
        last: f64,
        /// Timestamp of the rejected sample.
        attempted: f64,
    },
    /// A non-finite (NaN or infinite) timestamp or value was pushed.
    NonFiniteSample {
        /// Signal whose series rejected the sample.
        signal: String,
        /// Timestamp of the rejected sample.
        time: f64,
        /// Value of the rejected sample.
        value: f64,
    },
    /// A query referenced a signal that the trace does not contain.
    UnknownSignal(String),
    /// A query time fell outside the recorded span of a series.
    OutOfRange {
        /// Signal that was queried.
        signal: String,
        /// Query timestamp.
        time: f64,
    },
    /// The series of a trace have mismatched lengths or time grids where an
    /// aligned view was required (e.g. CSV export).
    Misaligned {
        /// First signal of the mismatched pair.
        left: String,
        /// Second signal of the mismatched pair.
        right: String,
    },
    /// A CSV document could not be parsed.
    ParseCsv {
        /// 1-based line number of the offending row.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// A CSV row parsed structurally but its content violated a series
    /// invariant (backwards timestamp, infinite value), so the document
    /// cannot be ingested as a trace.
    Malformed {
        /// 1-based line number of the offending row.
        line: usize,
        /// The underlying invariant violation, rendered.
        message: String,
    },
    /// An `.adt` binary document was corrupt, truncated or violated a
    /// format invariant. Decoding never panics on bad input.
    BadBinary {
        /// Byte offset where the problem was detected.
        offset: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// A filesystem operation on a trace file failed.
    Io(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::NonMonotonicTime {
                signal,
                last,
                attempted,
            } => write!(
                f,
                "non-monotonic timestamp {attempted} after {last} on signal `{signal}`"
            ),
            TraceError::NonFiniteSample {
                signal,
                time,
                value,
            } => write!(
                f,
                "non-finite sample (t={time}, v={value}) on signal `{signal}`"
            ),
            TraceError::UnknownSignal(name) => write!(f, "unknown signal `{name}`"),
            TraceError::OutOfRange { signal, time } => {
                write!(f, "time {time} outside recorded span of signal `{signal}`")
            }
            TraceError::Misaligned { left, right } => {
                write!(f, "series `{left}` and `{right}` are not time-aligned")
            }
            TraceError::ParseCsv { line, message } => {
                write!(f, "csv parse error at line {line}: {message}")
            }
            TraceError::Malformed { line, message } => {
                write!(f, "malformed csv row at line {line}: {message}")
            }
            TraceError::BadBinary { offset, message } => {
                write!(f, "bad .adt binary at byte {offset}: {message}")
            }
            TraceError::Io(message) => write!(f, "trace io error: {message}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<crate::binary::DecodeError> for TraceError {
    fn from(e: crate::binary::DecodeError) -> Self {
        TraceError::BadBinary {
            offset: e.offset,
            message: e.message,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let err = TraceError::UnknownSignal("speed".into());
        assert_eq!(err.to_string(), "unknown signal `speed`");
        let err = TraceError::NonMonotonicTime {
            signal: "x".into(),
            last: 1.0,
            attempted: 0.5,
        };
        assert!(err.to_string().contains("non-monotonic"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TraceError>();
    }
}
