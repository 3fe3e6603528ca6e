//! Span accounting over a telemetry snapshot, so the traced run can turn the
//! benchmark's own layer spans into per-layer seconds.  (`run.py` prints the
//! self-time table from the span file the run writes.)

use counterpoint_telemetry::{TelemetryReport, TraceEvent};
use std::collections::BTreeMap;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Closed {
    /// Span name (the instrumentation site).
    pub name: &'static str,
    /// Site-specific key (cell label, model name, group signature, ...).
    pub key: String,
    /// Name of the enclosing span on the same thread, if any.
    pub parent: Option<&'static str>,
    /// Wall seconds between the span's begin and end events.
    pub seconds: f64,
}

/// Pairs the begin/end events of a snapshot into closed spans (per logical
/// thread, innermost first).  Spans still open at the snapshot are dropped.
pub fn closed_spans(report: &TelemetryReport) -> Vec<Closed> {
    let mut stacks: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
    let mut closed = Vec::new();
    for event in &report.events {
        let stack = stacks.entry(event.tid).or_default();
        if event.phase == 'B' {
            stack.push(event);
            continue;
        }
        let Some(open) = stack.pop() else {
            continue;
        };
        closed.push(Closed {
            name: open.name,
            key: open.key.clone(),
            parent: stack.last().map(|p| p.name),
            seconds: event.ts_us.saturating_sub(open.ts_us) as f64 * 1e-6,
        });
    }
    closed
}

/// Total seconds of every span named `name`.
pub fn total(spans: &[Closed], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.seconds)
        .sum()
}

/// The longest span named `name` (0 when there is none).
pub fn longest(spans: &[Closed], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.seconds)
        .fold(0.0, f64::max)
}

/// Number of spans named `name`.
pub fn count(spans: &[Closed], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}
