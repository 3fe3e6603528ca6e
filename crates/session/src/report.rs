//! Serializable inquiry reports: the verdict matrix and its companions as a
//! stable JSON artifact.
//!
//! A [`Report`] is everything an [`Inquiry`](crate::Inquiry) run produced: the
//! observation summaries, one [`ModelVerdicts`] row per model (the verdict
//! matrix), the essential-feature intersection, the deduced constraint
//! renderings and the refinement [`SearchGraph`].  Serialization is
//! deterministic — two runs of the same inquiry, at any thread count, render
//! byte-identical JSON — so reports diff cleanly as CI artifacts.  Wall-clock
//! [`StageTimings`] and the optional [`TelemetryReport`] snapshot are carried
//! in memory but `#[serde(skip)]`ped to keep that property.

use crate::error::SessionError;
use crate::verdict::Verdict;
use counterpoint_core::SearchGraph;
use counterpoint_telemetry::TelemetryReport;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// The report file format version this crate writes and accepts.
pub const REPORT_FORMAT_VERSION: u32 = 1;

/// Summary of one observation the inquiry tested models against.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ObservationSummary {
    /// The observation's name (workload / configuration label).
    pub name: String,
    /// Sample-mean counter values.
    pub mean: Vec<f64>,
    /// Number of samples behind the confidence region.
    pub samples: usize,
    /// Confidence level of the region.
    pub confidence: f64,
}

/// One row of the verdict matrix: a model and its verdict per observation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ModelVerdicts {
    /// Model name.
    pub model: String,
    /// Microarchitectural features the model includes.
    pub features: Vec<String>,
    /// Number of observations that refute the model (the per-model quantity
    /// of the paper's Tables 3, 5 and 7).  Inconclusive verdicts are counted
    /// separately, so `feasible == (infeasible_count == 0 &&
    /// inconclusive_count == 0)`.
    pub infeasible_count: usize,
    /// Number of observations the engine could not decide (LP
    /// non-convergence on every path; normally zero).
    pub inconclusive_count: usize,
    /// `true` when every observation is feasible for the model.
    pub feasible: bool,
    /// One verdict per observation, in observation order.
    pub verdicts: Vec<Verdict>,
}

/// The deduced constraint renderings of one model.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ModelConstraints {
    /// Model name.
    pub model: String,
    /// Human-readable constraint renderings (the paper's Table 1 form),
    /// equalities first.
    pub constraints: Vec<String>,
}

/// One assumption group's search results in a grammar-enumerated family run:
/// the models sharing a trigger condition and abort-point set, swept as one
/// feature sub-lattice.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EnumeratedGroup {
    /// The group's assumption signature (trigger + abort points).
    pub signature: String,
    /// Canonical member names enumerated under this assumption.
    pub members: Vec<String>,
    /// The group's search universe (feature names).
    pub universe: Vec<String>,
    /// The group's discovery/elimination search graph.
    pub graph: SearchGraph,
}

/// Accounting and per-group search graphs of the grammar-enumerated
/// model-family stage (see `counterpoint_models::enumo`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EnumerationSummary {
    /// Closed terms the grammar produced before canonicalization.
    pub raw_candidates: usize,
    /// Distinct canonical specs after dedup (before the member cap).
    pub canonical_candidates: usize,
    /// Canonical members that survived the cap and the structural pass.
    pub members: usize,
    /// Candidates skipped because their μDDs exceeded the path budget.
    pub skipped_path_limit: usize,
    /// Candidates dropped as structural duplicates of earlier members.
    pub structural_duplicates: usize,
    /// Per-assumption-group search results, in signature order.
    pub groups: Vec<EnumeratedGroup>,
    /// Certificates harvested in one group that pruned observations in
    /// another.  Timing-dependent (pool contents vary with worker
    /// scheduling), so in-memory only — never serialized.
    #[serde(skip)]
    pub cross_family_certificate_hits: usize,
    /// Witness rays reused across groups; in-memory only, like the
    /// certificate hits.
    #[serde(skip)]
    pub cross_family_witness_hits: usize,
}

/// Per-stage wall-clock timings of an inquiry run, measured by the telemetry
/// layer's stage spans (`counterpoint_telemetry::stage_span`), which tick even
/// when no recording is active.  In-memory only: serialization skips the
/// timings so report JSON stays deterministic across runs and thread counts.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageTimings {
    /// Milliseconds spent collecting (or replaying) observations.
    pub collect_ms: f64,
    /// Milliseconds spent on the verdict matrix and constraint deduction.
    pub evaluate_ms: f64,
    /// Milliseconds spent in the refinement search (zero when the inquiry
    /// configured none).
    pub refine_ms: f64,
    /// Milliseconds spent enumerating and searching grammar-enumerated model
    /// families (zero when the inquiry configured none).
    pub enumerate_ms: f64,
    /// Total wall-clock milliseconds of the run.
    pub total_ms: f64,
}

/// The full result of an inquiry run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Report {
    /// Format version (see [`REPORT_FORMAT_VERSION`]).
    pub version: u32,
    /// The counter space the inquiry ranged over, in column order.
    pub counters: Vec<String>,
    /// The observations tested, in campaign order.
    pub observations: Vec<ObservationSummary>,
    /// The verdict matrix, one row per model in registration order.
    pub models: Vec<ModelVerdicts>,
    /// Features present in every feasible model, or `None` when no model is
    /// feasible (the paper's essential-feature argument, Figure 7).
    pub essential_features: Option<Vec<String>>,
    /// Deduced constraint renderings (populated only when the inquiry asked
    /// for constraint deduction).
    pub constraints: Vec<ModelConstraints>,
    /// The discovery/elimination search graph (populated only when the
    /// inquiry configured a refinement search).
    pub refinement: Option<SearchGraph>,
    /// Results of the grammar-enumerated model-family stage (populated only
    /// when the inquiry configured one with
    /// [`Inquiry::model_grammar`](crate::Inquiry::model_grammar); absent from
    /// the JSON otherwise, so pre-existing reports parse unchanged).
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub enumeration: Option<EnumerationSummary>,
    /// Per-stage wall-clock timings of the run (not serialized).
    #[serde(skip)]
    pub stages: StageTimings,
    /// The telemetry snapshot of the run, present when the inquiry enabled
    /// telemetry with [`Inquiry::telemetry`](crate::Inquiry::telemetry) and
    /// owned the process-wide sink (not serialized; export it with
    /// [`TelemetryReport::write_files`]).
    #[serde(skip)]
    pub telemetry: Option<TelemetryReport>,
}

impl Report {
    /// Renders the report as pretty-printed JSON — the CI artifact format.
    /// Deterministic: identical inquiries produce identical bytes.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report values are finite")
    }

    /// Parses a report from JSON text, rejecting unknown format versions.
    pub fn from_json(text: &str) -> Result<Report, SessionError> {
        let report: Report =
            serde_json::from_str(text).map_err(|e| SessionError::Format(e.to_string()))?;
        if report.version != REPORT_FORMAT_VERSION {
            return Err(SessionError::Format(format!(
                "unknown report format version {} (this build reads version {})",
                report.version, REPORT_FORMAT_VERSION
            )));
        }
        Ok(report)
    }

    /// Writes the report as JSON to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SessionError> {
        let path = path.as_ref();
        std::fs::write(path, self.to_json()).map_err(|e| SessionError::Io {
            path: path.display().to_string(),
            reason: e.to_string(),
        })
    }

    /// Reads a JSON report from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Report, SessionError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| SessionError::Io {
            path: path.display().to_string(),
            reason: e.to_string(),
        })?;
        Report::from_json(&text)
    }

    /// The verdict row for a model, if the model was part of the inquiry.
    pub fn model(&self, name: &str) -> Option<&ModelVerdicts> {
        self.models.iter().find(|m| m.model == name)
    }

    /// The verdict for one (model, observation) pair.
    pub fn verdict(&self, model: &str, observation: &str) -> Option<&Verdict> {
        let row = self.model(model)?;
        let idx = self
            .observations
            .iter()
            .position(|o| o.name == observation)?;
        row.verdicts.get(idx)
    }

    /// Names of the models every observation is feasible for.
    pub fn feasible_models(&self) -> Vec<&str> {
        self.models
            .iter()
            .filter(|m| m.feasible)
            .map(|m| m.model.as_str())
            .collect()
    }

    /// The deduced constraint renderings for a model, if the inquiry deduced
    /// them.
    pub fn constraints_of(&self, model: &str) -> Option<&[String]> {
        self.constraints
            .iter()
            .find(|c| c.model == model)
            .map(|c| c.constraints.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        Report {
            version: REPORT_FORMAT_VERSION,
            counters: vec!["load.causes_walk".to_string(), "load.pde$_miss".to_string()],
            observations: vec![ObservationSummary {
                name: "microbenchmark".to_string(),
                mean: vec![1_000.0, 1_400.0],
                samples: 1,
                confidence: 0.99,
            }],
            models: vec![ModelVerdicts {
                model: "initial".to_string(),
                features: vec![],
                infeasible_count: 1,
                inconclusive_count: 0,
                feasible: false,
                verdicts: vec![Verdict::Refuted {
                    farkas_certificate: vec![1.0, -1.0],
                    violated_constraints: vec!["load.pde$_miss <= load.causes_walk".to_string()],
                }],
            }],
            essential_features: None,
            constraints: vec![ModelConstraints {
                model: "initial".to_string(),
                constraints: vec!["load.pde$_miss <= load.causes_walk".to_string()],
            }],
            refinement: None,
            enumeration: None,
            stages: StageTimings {
                collect_ms: 12.5,
                evaluate_ms: 3.25,
                refine_ms: 1.0,
                enumerate_ms: 0.0,
                total_ms: 16.75,
            },
            telemetry: None,
        }
    }

    #[test]
    fn json_round_trip_is_byte_exact_and_drops_timing() {
        let report = sample_report();
        let json = report.to_json();
        let back = Report::from_json(&json).unwrap();
        // Timings and telemetry are process-local and must not survive
        // serialization.
        assert_eq!(back.stages, StageTimings::default());
        assert_eq!(back.telemetry, None);
        assert_eq!(back.to_json(), json, "re-serialization must be byte-exact");
        assert!(!json.contains("timing"), "timings must not leak into JSON");
        assert!(!json.contains("stages"), "timings must not leak into JSON");
        assert!(
            !json.contains("telemetry"),
            "telemetry must not leak into JSON"
        );
    }

    #[test]
    fn lookups_resolve_models_and_verdicts() {
        let report = sample_report();
        assert!(report.model("initial").is_some());
        assert!(report.model("missing").is_none());
        let verdict = report.verdict("initial", "microbenchmark").unwrap();
        assert!(verdict.is_refuted());
        assert!(report.verdict("initial", "missing").is_none());
        assert!(report.feasible_models().is_empty());
        assert_eq!(
            report.constraints_of("initial").unwrap(),
            &["load.pde$_miss <= load.causes_walk".to_string()]
        );
        assert!(report.constraints_of("missing").is_none());
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut report = sample_report();
        report.version = 99;
        let err = Report::from_json(&report.to_json()).unwrap_err();
        assert!(matches!(err, SessionError::Format(_)));
        assert!(err.to_string().contains("99"));
    }

    #[test]
    fn save_and_load() {
        let report = sample_report();
        let path = std::env::temp_dir().join("counterpoint_session_report_test.json");
        report.save(&path).unwrap();
        let back = Report::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.to_json(), report.to_json());
        let missing = std::env::temp_dir().join("counterpoint_no_such_report.json");
        assert!(matches!(
            Report::load(&missing),
            Err(SessionError::Io { .. })
        ));
    }
}
