//! Errors of the counter-collection subsystem.

use std::fmt;

/// Why a collection backend, campaign or trace operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CollectError {
    /// The backend cannot acquire counters on this host (e.g. the Linux perf
    /// backend compiled on a machine without a usable PMU). The payload is
    /// structured so callers can report *which* backend refused and *why*
    /// instead of pattern-matching an opaque message.
    Unsupported {
        /// Name of the refusing backend.
        backend: String,
        /// Host-specific explanation (target OS, missing perf interface, ...).
        reason: String,
    },
    /// A replay backend was constructed from a trace with no records.
    EmptyTrace,
    /// A campaign cell produced no memory accesses (zero access budget or a
    /// degenerate workload), so there is nothing to measure.
    EmptyWorkload {
        /// The offending cell's label.
        label: String,
    },
    /// The trace has no record for the requested workload label.
    MissingRecord {
        /// The label that was looked up.
        label: String,
    },
    /// A trace record exists but was captured under a different configuration
    /// (page size, interval count or event schedule) than the replay requests.
    TraceMismatch {
        /// The label whose record mismatched.
        label: String,
        /// Which field disagreed, and how.
        reason: String,
    },
    /// Reading or writing a trace file failed.
    Io {
        /// The path involved.
        path: String,
        /// The underlying I/O error, rendered.
        reason: String,
    },
    /// A trace file could not be parsed, or its format version is unknown.
    Format(String),
    /// The counter space names a counter the backend cannot measure.  (A
    /// silently zero column would refute every model that predicts counts for
    /// it.)
    UnknownCounter {
        /// Name of the backend.
        backend: String,
        /// The counter name it does not have.
        counter: String,
    },
}

impl fmt::Display for CollectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectError::Unsupported { backend, reason } => {
                write!(
                    f,
                    "backend `{backend}` is unsupported on this host: {reason}"
                )
            }
            CollectError::EmptyTrace => write!(f, "trace contains no records"),
            CollectError::EmptyWorkload { label } => {
                write!(f, "campaign cell `{label}` generated no memory accesses")
            }
            CollectError::MissingRecord { label } => {
                write!(f, "trace has no record for workload `{label}`")
            }
            CollectError::TraceMismatch { label, reason } => {
                write!(
                    f,
                    "trace record for `{label}` does not match the replay: {reason}"
                )
            }
            CollectError::Io { path, reason } => {
                write!(f, "trace I/O on `{path}` failed: {reason}")
            }
            CollectError::Format(msg) => write!(f, "trace format error: {msg}"),
            CollectError::UnknownCounter { backend, counter } => {
                write!(f, "backend `{backend}` has no counter named `{counter}`")
            }
        }
    }
}

impl std::error::Error for CollectError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_their_context() {
        let e = CollectError::Unsupported {
            backend: "linux-perf".to_string(),
            reason: "no PMU".to_string(),
        };
        assert!(e.to_string().contains("linux-perf"));
        assert!(e.to_string().contains("no PMU"));
        assert!(CollectError::MissingRecord {
            label: "kv@4k".to_string()
        }
        .to_string()
        .contains("kv@4k"));
        assert!(CollectError::EmptyTrace.to_string().contains("no records"));
        assert!(CollectError::TraceMismatch {
            label: "x".to_string(),
            reason: "page size".to_string()
        }
        .to_string()
        .contains("page size"));
        assert!(CollectError::Io {
            path: "/tmp/t.json".to_string(),
            reason: "denied".to_string()
        }
        .to_string()
        .contains("/tmp/t.json"));
        assert!(CollectError::Format("bad version".to_string())
            .to_string()
            .contains("bad version"));
        assert!(CollectError::UnknownCounter {
            backend: "sim".to_string(),
            counter: "load.rett".to_string()
        }
        .to_string()
        .contains("`load.rett`"));
    }
}
