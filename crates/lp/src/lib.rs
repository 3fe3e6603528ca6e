//! Dual-simplex feasibility engines for CounterPoint's band linear programs.
//!
//! The paper's CounterPoint implementation relies on an off-the-shelf LP toolkit
//! (`pulp`/CBC) for two tasks:
//!
//! * **feasibility testing** — deciding whether the counter confidence region
//!   intersects the model cone (Appendix A's linear program over μpath flows), and
//! * **redundancy elimination** — detecting μpath counter signatures that lie in
//!   the model cone of the others during constraint deduction.
//!
//! Both are *band* systems `lo ≤ A·x ≤ hi` over non-negative flows `x`, with
//! tens of bands and up to a few thousand flow variables, so this crate
//! implements two self-contained dual-simplex engines rather than binding to an
//! external solver: the cold [`Tableau`], whose verdicts carry basic flows or
//! Farkas multipliers as evidence, and the warm-started, LU-factorized
//! [`FactorTableau`] used for tier-1 decisions.
//!
//! # Example
//!
//! ```
//! use counterpoint_lp::Tableau;
//!
//! // Is (5, 2) a non-negative combination of (1, 0) and (1, 1)?  One band per
//! // coordinate, with lo = hi = the target point.
//! let mut tableau = Tableau::band(2, &[vec![1.0, 1.0], vec![0.0, 1.0]]);
//! assert!(tableau.resolve(&[5.0, 2.0], &[5.0, 2.0]).unwrap());
//! // Yes: 3·(1, 0) + 2·(1, 1).
//! let mut flows = [0.0; 2];
//! for (j, v) in tableau.basic_flows() {
//!     flows[j] = v;
//! }
//! assert!((flows[0] - 3.0).abs() < 1e-9 && (flows[1] - 2.0).abs() < 1e-9);
//!
//! // (1, 2) is not: the verdict comes with Farkas multipliers instead.
//! assert!(!tableau.resolve(&[1.0, 2.0], &[1.0, 2.0]).unwrap());
//! assert!(tableau.farkas_multipliers().is_some());
//! ```

pub mod factor;
pub mod simplex;

pub use factor::{FactorTableau, FastOutcome};
pub use simplex::{LpError, Tableau};
