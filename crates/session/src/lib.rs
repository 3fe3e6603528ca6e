//! The CounterPoint session layer: the refute→refine workflow behind one
//! typed API.
//!
//! The paper's core loop — collect counter observations, test model cones for
//! feasibility, extract refuting evidence, deduce constraints, and guide
//! refinement — historically ran as a relay of free functions passing bare
//! `bool`s and `Vec`s, discarding the Farkas certificates and witness rays the
//! batched feasibility engine computes internally.  This crate redesigns that
//! surface around three types:
//!
//! * [`Inquiry`] — a builder wiring a counter source (any
//!   [`CounterBackend`](counterpoint_collect::CounterBackend), a recorded
//!   [`Trace`](counterpoint_collect::Trace), the case-study harness, or
//!   pre-built observations) together with model families, a thread budget, a
//!   seed, and the optional constraint-deduction and refinement stages;
//! * [`Verdict`] — the per-(model, observation) outcome, carrying the witness
//!   cone point of a feasible test or the Farkas certificate (and violated
//!   constraints) of a refutation;
//! * [`Report`] — the serializable result: verdict matrix, essential
//!   features, constraint renderings, refinement search graph and timing,
//!   with deterministic JSON output suitable as a CI artifact.
//!
//! # Example
//!
//! The paper's running PDE-cache example (Figures 2 and 6) as one session:
//!
//! ```
//! use counterpoint_core::{ModelCone, Observation};
//! use counterpoint_mudd::{dsl::compile_uop, CounterSpace};
//! use counterpoint_session::Inquiry;
//!
//! let counters = CounterSpace::new(&["load.causes_walk", "load.pde$_miss"]);
//! let initial = compile_uop("initial", r#"
//!     incr load.causes_walk;
//!     do LookupPde$;
//!     switch Pde$Status { Hit => pass; Miss => incr load.pde$_miss };
//!     done;
//! "#, &counters).unwrap();
//! let refined = compile_uop("refined", r#"
//!     do LookupPde$;
//!     switch Pde$Status { Hit => pass; Miss => incr load.pde$_miss };
//!     switch Abort { Yes => done; No => incr load.causes_walk };
//!     done;
//! "#, &counters).unwrap();
//!
//! let report = Inquiry::new()
//!     .observations(vec![Observation::exact("microbenchmark", &[1_000.0, 1_400.0])])
//!     .model("initial", ModelCone::from_mudd(&initial).unwrap())
//!     .model("refined", ModelCone::from_mudd(&refined).unwrap())
//!     .deduce_constraints(true)
//!     .run()
//!     .unwrap();
//!
//! // The initial model is refuted — with a checkable Farkas certificate and
//! // the violated constraint named — while the refinement explains the data.
//! let verdict = report.verdict("initial", "microbenchmark").unwrap();
//! assert!(verdict.is_refuted());
//! assert!(verdict.farkas_certificate().is_some());
//! assert!(!verdict.violated_constraints().is_empty());
//! assert_eq!(report.feasible_models(), vec!["refined"]);
//!
//! // The whole session serializes as a deterministic JSON artifact.
//! let json = report.to_json();
//! assert_eq!(
//!     counterpoint_session::Report::from_json(&json).unwrap().to_json(),
//!     json,
//! );
//! ```

pub mod error;
pub mod inquiry;
pub mod report;
pub mod verdict;

pub use error::SessionError;
pub use inquiry::Inquiry;
pub use report::{
    EnumeratedGroup, EnumerationSummary, ModelConstraints, ModelVerdicts, ObservationSummary,
    Report, StageTimings, REPORT_FORMAT_VERSION,
};
pub use verdict::Verdict;
