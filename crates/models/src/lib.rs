//! The Haswell MMU case-study model family.
//!
//! The paper's Appendix C explores the Haswell MMU with three families of μDD
//! models, all expressed over the 26-counter space of Table 2:
//!
//! * **Initial search (`m0`–`m11`, Table 3)** — models identified by which of five
//!   microarchitectural features they include: TLB prefetching, early
//!   paging-structure-cache lookup, walk merging, a PML4E (root-level) MMU cache,
//!   and walk bypassing.
//! * **Prefetch trigger conditions (`t0`–`t17`, Table 5)** — refinements of the
//!   feature-complete model that replace the abstract prefetch request with
//!   concrete trigger conditions (speculative vs. retiring μops, load vs. store
//!   triggers, and whether a DTLB or STLB miss is required).
//! * **Abort points (`a0`–`a3`, Table 7)** — variants that replace walk bypassing
//!   with translation-request aborts at different MMU pipeline stages.
//!
//! [`family`] builds the model cones for all three families; [`demand`],
//! [`prefetch`] and [`aborts`] construct the underlying μDDs programmatically with
//! the `counterpoint-mudd` builder; and [`harness`] runs the synthetic workload
//! suite on the simulated Haswell MMU to produce the observations the models are
//! tested against.
//!
//! # Example
//!
//! ```
//! use counterpoint_core::FeasibilityChecker;
//! use counterpoint_models::family::{build_feature_model, feature_sets_table3};
//!
//! // The feature-complete model m4 and the featureless model m0.
//! let specs = feature_sets_table3();
//! let m4 = build_feature_model("m4", &specs.iter().find(|(n, _)| n == "m4").unwrap().1);
//! assert!(m4.num_paths() > 50);
//! let checker = FeasibilityChecker::new(&m4);
//! assert_eq!(checker.cone().dimension(), 26);
//! ```

pub mod aborts;
pub mod demand;
pub mod enumo;
pub mod family;
pub mod features;
pub mod harness;
pub mod prefetch;

pub use enumo::{enumerate, EnumOptions, ModelFamily, ModelGrammar, ModelSpec};
pub use family::{
    abort_specs_table7, build_abort_model, build_feature_model, build_trigger_model,
    feature_sets_table3, trigger_specs_table5,
};
pub use features::Feature;
pub use harness::HarnessConfig;
pub use prefetch::TriggerSpec;
