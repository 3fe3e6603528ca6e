//! CounterPoint: reconciling hardware event counter data with microarchitectural
//! models.
//!
//! This crate is the paper's primary contribution, assembled from the substrate
//! crates:
//!
//! 1. A μDD (from [`counterpoint_mudd`]) is turned into a [`ModelCone`] — the set of
//!    all HEC value combinations producible by non-negative flows of μops over the
//!    diagram's μpaths (the *counter flow equation*).
//! 2. Noisy HEC measurements become [`Observation`]s carrying counter confidence
//!    regions (from [`counterpoint_stats`]).
//! 3. [`feasibility`] decides with a linear program whether an observation's
//!    confidence region intersects the model cone; if not, the expert's model is
//!    inconsistent with the hardware at the chosen confidence level.
//! 4. [`constraints`] deduces the explicit model constraints (facets of the cone)
//!    and identifies which ones an infeasible observation violates — the feedback
//!    the expert uses to refine the model.
//! 5. [`explore`] defines the discovery/elimination search semantics over a
//!    lattice of candidate microarchitectural features (paper, Section 5 and
//!    Appendix C), and [`lattice`] provides [`LatticeSearch`], the parallel
//!    certificate-pruned engine that executes them.
//!
//! # Quick start
//!
//! ```
//! use counterpoint_core::{FeasibilityChecker, ModelCone, Observation};
//! use counterpoint_mudd::{dsl::compile_uop, CounterSpace};
//!
//! let counters = CounterSpace::new(&["load.causes_walk", "load.pde$_miss"]);
//! // Figure 6a: the walker is initialised before the PDE cache is looked up, so
//! // pde$_miss can never exceed causes_walk.
//! let model = compile_uop("fig6a", r#"
//!     incr load.causes_walk;
//!     do LookupPde$;
//!     switch Pde$Status { Hit => pass; Miss => incr load.pde$_miss };
//!     done;
//! "#, &counters).unwrap();
//!
//! let cone = ModelCone::from_mudd(&model).unwrap();
//! let checker = FeasibilityChecker::new(&cone);
//!
//! // An observation with more PDE-cache misses than walks refutes the model.
//! let infeasible = Observation::exact("microbench", &[100.0, 140.0]);
//! assert!(!checker.is_feasible(&infeasible));
//!
//! let feasible = Observation::exact("microbench", &[140.0, 100.0]);
//! assert!(checker.is_feasible(&feasible));
//! ```

pub mod batch;
pub mod cone;
pub mod constraints;
pub mod explore;
pub mod feasibility;
pub mod lattice;
pub mod observation;

pub use batch::{check_models, check_models_verdicts, BatchFeasibility, FeasibilityVerdict};
pub use cone::ModelCone;
pub use constraints::{deduce_constraints, ConstraintSet, NamedConstraint};
pub use explore::{
    essential_feature_intersection, feature_set, reference_search, ExplorationModel, FeatureSet,
    SearchEdge, SearchGraph, SearchStep,
};
pub use feasibility::{FeasibilityChecker, FeasibilityReport};
pub use lattice::{CertificatePool, LatticeSearch, LatticeStats, PrunedModel};
pub use observation::Observation;
