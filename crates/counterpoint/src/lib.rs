//! CounterPoint — using hardware event counters to refute and refine
//! microarchitectural assumptions.
//!
//! This facade crate re-exports the whole CounterPoint workspace behind a single
//! dependency:
//!
//! * [`session`] — **the primary entry point**: typed [`Inquiry`] sessions
//!   running the whole refute→refine workflow, certificate-carrying
//!   [`Verdict`]s and serializable [`Report`]s,
//! * [`mudd`] — μpath Decision Diagrams (the model formalism) and their DSL,
//! * [`core`] — model cones, feasibility testing, constraint deduction and guided
//!   model exploration,
//! * [`stats`] — counter confidence regions and the statistics beneath them,
//! * [`geometry`], [`lp`], [`numeric`] — the exact-geometry and optimisation
//!   substrates,
//! * [`haswell`] — the functional Haswell MMU simulator and PMU multiplexing model
//!   used as the hardware stand-in,
//! * [`workloads`] — synthetic workload generators,
//! * [`collect`] — the counter-collection subsystem: pluggable acquisition
//!   backends, event-group scheduling, threaded measurement campaigns and trace
//!   record/replay (`--features perf` also compiles the Linux perf backend stub),
//! * [`models`] — the Haswell case-study model families (Tables 3, 5 and 7).
//!
//! The most common entry points are re-exported at the crate root.
//!
//! # Example
//!
//! Test an expert's model of the PDE cache against counter data and discover
//! that it must be refined (the running example of the paper's Figures 2
//! and 6), as one [`Inquiry`] session:
//!
//! ```
//! use counterpoint::{compile_uop, CounterSpace, Inquiry, ModelCone, Observation};
//!
//! let counters = CounterSpace::new(&["load.causes_walk", "load.pde$_miss"]);
//! let model = compile_uop("initial", r#"
//!     incr load.causes_walk;
//!     do LookupPde$;
//!     switch Pde$Status { Hit => pass; Miss => incr load.pde$_miss };
//!     done;
//! "#, &counters).unwrap();
//!
//! // Hardware reports more PDE-cache misses than walks: the model is refuted,
//! // and the verdict carries the Farkas certificate proving it.
//! let report = Inquiry::new()
//!     .observations(vec![Observation::exact("microbenchmark", &[1_000.0, 1_400.0])])
//!     .model("initial", ModelCone::from_mudd(&model).unwrap())
//!     .run()
//!     .unwrap();
//! let verdict = report.verdict("initial", "microbenchmark").unwrap();
//! assert!(verdict.is_refuted());
//! assert!(verdict.farkas_certificate().is_some());
//! ```

pub use counterpoint_collect as collect;
pub use counterpoint_core as core;
pub use counterpoint_geometry as geometry;
pub use counterpoint_haswell as haswell;
pub use counterpoint_lp as lp;
pub use counterpoint_models as models;
pub use counterpoint_mudd as mudd;
pub use counterpoint_numeric as numeric;
pub use counterpoint_session as session;
pub use counterpoint_stats as stats;
pub use counterpoint_telemetry as telemetry;
pub use counterpoint_workloads as workloads;

#[cfg(feature = "perf")]
pub use counterpoint_collect::LinuxPerfBackend;
pub use counterpoint_collect::{
    Campaign, CampaignCell, CollectError, CounterBackend, EventSchedule, IntervalSamples,
    ReplayBackend, SimBackend, Trace, TraceRecord, WorkloadRun,
};
pub use counterpoint_core::{
    check_models, check_models_verdicts, deduce_constraints, essential_feature_intersection,
    feature_set, reference_search, BatchFeasibility, ConstraintSet, ExplorationModel,
    FeasibilityVerdict, FeatureSet, LatticeSearch, LatticeStats, ModelCone, Observation,
    SearchGraph,
};
pub use counterpoint_mudd::dsl::compile_uop;
pub use counterpoint_mudd::{CounterSignature, CounterSpace, MuDd, MuDdBuilder};
pub use counterpoint_session::{Inquiry, Report, SessionError, Verdict};
pub use counterpoint_stats::{ConfidenceRegion, NoiseModel};

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_usable() {
        let space = crate::CounterSpace::new(&["a", "b"]);
        assert_eq!(space.len(), 2);
        let region = crate::ConfidenceRegion::exact(&[1.0, 2.0]);
        assert_eq!(region.dimension(), 2);
    }
}
