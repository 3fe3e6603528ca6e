//! Feasibility testing: does an observation's confidence region intersect the model
//! cone?

use crate::batch::{not_refuted, ColdSolve};
use crate::cone::ModelCone;
use crate::constraints::{ConstraintSet, NamedConstraint};
use crate::observation::Observation;
use serde::Serialize;

/// The result of testing one observation against one model.
#[derive(Clone, Debug, Serialize)]
pub struct FeasibilityReport {
    /// The model's name.
    pub model: String,
    /// The observation's name.
    pub observation: String,
    /// `true` if the confidence region intersects the model cone.
    pub feasible: bool,
    /// The model constraints the observation violates (populated only when a
    /// constraint set was supplied and the observation is infeasible).
    pub violated: Vec<NamedConstraint>,
}

/// Tests observations against a model cone with the linear program of the paper's
/// Appendix A.
///
/// The LP has one non-negative flow variable per distinct μpath counter signature
/// and, for every principal axis of the observation's confidence region, a pair of
/// constraints bounding the projection of the counter-flow combination onto that
/// axis by the region's extent.  The observation is feasible iff the LP is.
///
/// Every call is one cold dual-simplex solve, the same one the batched engine
/// falls back to, so the two agree verdict for verdict.  Use
/// [`BatchFeasibility`](crate::batch::BatchFeasibility) to test many
/// observations against one cone.
#[derive(Clone, Debug)]
pub struct FeasibilityChecker<'a> {
    cone: &'a ModelCone,
    /// Non-zero generator entries in index order (column `p` of the
    /// counter-flow matrix), borrowed from the cone's memoized conversion.
    sparse: &'a [Vec<(usize, f64)>],
}

/// Coefficient magnitudes beyond this guard trigger rescaling of the LP rows.
///
/// The guard keeps the fast path bit-identical to the historical formulation
/// (no division touches the floats at all for ordinarily scaled models) while
/// protecting pathological cones — generators with entries in the billions —
/// from having genuine violations crushed below the simplex tolerance.
const MAGNITUDE_GUARD: f64 = 1e6;

/// The observation-independent half of the feasibility LP: the `axis ·
/// generator` coefficient matrix for one (cone, axes) pair, equilibrated so
/// every stored row is O(1) even when the generators carry huge entries.
///
/// Row `k` of the LP is `lo_k ≤ rows[k] · f ≤ hi_k` where the bounds are the
/// observation's extent along axis `k` divided by `scale · bound_divs[k]`
/// (`scale` being the per-observation magnitude normaliser).  [`BatchFeasibility`]
/// computes this matrix once per (cone, axes) pair and reuses it across every
/// observation sharing those axes; [`FeasibilityChecker::is_feasible`] builds
/// it per call with the same builder, which keeps both paths on byte-identical
/// arithmetic.
///
/// [`BatchFeasibility`]: crate::batch::BatchFeasibility
#[derive(Clone, Debug)]
pub(crate) struct ConeMatrix {
    /// One scaled coefficient row per confidence-region axis.
    pub(crate) rows: Vec<Vec<f64>>,
    /// Per-row divisor already applied to the coefficients; the observation
    /// bounds must be divided by the same factor (times the global scale).
    pub(crate) bound_divs: Vec<f64>,
}

impl ConeMatrix {
    /// An empty matrix, to be populated by
    /// [`build_sparse_into`](ConeMatrix::build_sparse_into).
    pub(crate) fn empty() -> ConeMatrix {
        ConeMatrix {
            rows: Vec::new(),
            bound_divs: Vec::new(),
        }
    }

    /// Computes the coefficient matrix `A[k][p] = axis_k · generator_p` from
    /// the sparse generator form (only the non-zero entries of each
    /// generator, in index order), reusing `self`'s allocations, then
    /// equilibrates: a global coefficient scale `c` (largest magnitude,
    /// applied only beyond [`MAGNITUDE_GUARD`]) followed by per-row
    /// normalisation for rows whose magnitude still deviates from O(1) by
    /// more than the guard.
    pub(crate) fn build_sparse_into(&mut self, axes: &[Vec<f64>], sparse: &[Vec<(usize, f64)>]) {
        self.rows.resize_with(axes.len(), Vec::new);
        for (row, axis) in self.rows.iter_mut().zip(axes) {
            row.clear();
            row.extend(
                sparse
                    .iter()
                    .map(|g| g.iter().map(|&(i, c)| axis[i] * c).sum::<f64>()),
            );
        }
        self.equilibrate();
    }

    /// The magnitude-guard pass of
    /// [`build_sparse_into`](ConeMatrix::build_sparse_into).
    fn equilibrate(&mut self) {
        let cmax = self
            .rows
            .iter()
            .flatten()
            .fold(0.0f64, |acc, v| acc.max(v.abs()));
        let cscale = if cmax > MAGNITUDE_GUARD { cmax } else { 1.0 };
        self.bound_divs.clear();
        for row in &mut self.rows {
            let rmax = row.iter().fold(0.0f64, |acc, v| acc.max(v.abs())) / cscale;
            let row_scale =
                if rmax > MAGNITUDE_GUARD || (rmax > 0.0 && rmax < 1.0 / MAGNITUDE_GUARD) {
                    rmax
                } else {
                    1.0
                };
            let div = cscale * row_scale;
            if div != 1.0 {
                for v in row.iter_mut() {
                    *v /= div;
                }
            }
            self.bound_divs.push(row_scale);
        }
    }
}

/// The sparse form of a generator set: per generator, its non-zero entries as
/// `(index, value)` pairs in index order.  μpath counter signatures touch only
/// a few of the campaign's counters, so this cuts the per-observation
/// coefficient matmul from `O(d²·p)` to `O(d·nnz)`.
pub(crate) fn sparsify_generators(generators: &[Vec<f64>]) -> Vec<Vec<(usize, f64)>> {
    generators
        .iter()
        .map(|g| {
            g.iter()
                .enumerate()
                .filter(|(_, &v)| v != 0.0)
                .map(|(i, &v)| (i, v))
                .collect()
        })
        .collect()
}

/// The per-observation magnitude normaliser: the LP works with rescaled flows
/// `f' = f / scale` so the right-hand sides stay O(1) regardless of the raw
/// counter magnitudes (which can be in the billions).
pub(crate) fn observation_scale(region: &counterpoint_stats::ConfidenceRegion) -> f64 {
    region
        .center()
        .iter()
        .fold(1.0f64, |acc, v| acc.max(v.abs()))
}

/// The `(lo, hi)` bounds of LP row `k` for the given observation: the region's
/// extent along axis `k`, normalised by the global scale and the row's
/// equilibration divisor.
pub(crate) fn row_bounds(
    region: &counterpoint_stats::ConfidenceRegion,
    matrix: &ConeMatrix,
    k: usize,
    scale: f64,
) -> (f64, f64) {
    let width = region.half_widths()[k];
    // Axis-aligned regions (exact observations, independent noise) project the
    // centre onto component k directly — bit-identical to the dense dot, one
    // read instead of O(d) multiplies.
    let centre_proj = if region.standard_axes() {
        region.center()[k]
    } else {
        dot(&region.axes()[k], region.center())
    };
    let div = scale * matrix.bound_divs[k];
    ((centre_proj - width) / div, (centre_proj + width) / div)
}

impl<'a> FeasibilityChecker<'a> {
    /// Prepares a checker for the given model cone.
    pub fn new(cone: &'a ModelCone) -> FeasibilityChecker<'a> {
        FeasibilityChecker {
            cone,
            sparse: &cone.generators_f64().sparse,
        }
    }

    /// The model cone under test.
    pub fn cone(&self) -> &ModelCone {
        self.cone
    }

    /// Returns `true` if the observation's confidence region intersects the model
    /// cone.
    ///
    /// LP non-convergence does not panic: the observation counts as not
    /// refuted (`true`), exactly as in
    /// [`BatchFeasibility::is_feasible`](crate::batch::BatchFeasibility::is_feasible).
    ///
    /// # Panics
    ///
    /// Panics if the observation's dimension differs from the cone's.
    pub fn is_feasible(&self, observation: &Observation) -> bool {
        assert_eq!(
            observation.dimension(),
            self.cone.dimension(),
            "observation and model must share a counter space"
        );
        let region = observation.region();

        // Degenerate cone: only the origin is producible.
        if self.sparse.is_empty() {
            return region.contains(&vec![0.0; self.cone.dimension()]);
        }

        let verdict = ColdSolve::new(self.sparse, region, observation_scale(region)).solve();
        not_refuted(&verdict)
    }

    /// Tests the observation and, when it is infeasible and a constraint set is
    /// supplied, identifies which model constraints it violates at the confidence
    /// level.
    ///
    /// A constraint `a·v ≥ 0` is violated when even the most favourable point of
    /// the confidence region's bounding box has `a·v < 0`; an equality `a·v = 0` is
    /// violated when the box's projection onto `a` excludes zero.
    pub fn check(
        &self,
        observation: &Observation,
        constraints: Option<&ConstraintSet>,
    ) -> FeasibilityReport {
        let feasible = self.is_feasible(observation);
        let mut violated = Vec::new();
        if !feasible {
            if let Some(set) = constraints {
                violated = set
                    .violated_by(observation.region())
                    .into_iter()
                    .cloned()
                    .collect();
            }
        }
        FeasibilityReport {
            model: self.cone.name().to_string(),
            observation: observation.name().to_string(),
            feasible,
            violated,
        }
    }

    /// Convenience: counts how many of the observations are infeasible for this
    /// model (the quantity reported per model in the paper's Tables 3, 5 and 7).
    ///
    /// Routes through the warm-started [`BatchFeasibility`] engine — the
    /// verdicts are the ones [`is_feasible`] would return, reached with the
    /// coefficient matrix and LP basis shared across the batch.
    ///
    /// [`BatchFeasibility`]: crate::batch::BatchFeasibility
    /// [`is_feasible`]: FeasibilityChecker::is_feasible
    pub fn count_infeasible(&self, observations: &[Observation]) -> usize {
        crate::batch::BatchFeasibility::new(self.cone).count_infeasible(observations)
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::deduce_constraints;
    use counterpoint_mudd::{dsl::compile_uop, CounterSpace};

    fn space() -> CounterSpace {
        CounterSpace::new(&["load.causes_walk", "load.pde$_miss"])
    }

    fn fig6a_cone() -> ModelCone {
        let mudd = compile_uop(
            "fig6a",
            r#"
            incr load.causes_walk;
            do LookupPde$;
            switch Pde$Status { Hit => pass; Miss => incr load.pde$_miss };
            done;
            "#,
            &space(),
        )
        .unwrap();
        ModelCone::from_mudd(&mudd).unwrap()
    }

    fn fig6c_cone() -> ModelCone {
        // Refined model: PDE cache looked up before the walk; requests may abort.
        let mudd = compile_uop(
            "fig6c",
            r#"
            do LookupPde$;
            switch Pde$Status { Hit => pass; Miss => incr load.pde$_miss };
            switch Abort { Yes => done; No => incr load.causes_walk };
            done;
            "#,
            &space(),
        )
        .unwrap();
        ModelCone::from_mudd(&mudd).unwrap()
    }

    #[test]
    fn exact_observations_inside_and_outside() {
        let cone = fig6a_cone();
        let checker = FeasibilityChecker::new(&cone);
        assert!(checker.is_feasible(&Observation::exact("ok", &[10.0, 4.0])));
        assert!(checker.is_feasible(&Observation::exact("edge", &[10.0, 10.0])));
        assert!(!checker.is_feasible(&Observation::exact("bad", &[4.0, 10.0])));
    }

    #[test]
    fn refined_model_accepts_the_violating_observation() {
        // The observation that refutes Figure 6a is feasible for Figure 6c — the
        // whole point of the refinement loop.
        let obs = Observation::exact("microbench", &[4.0, 10.0]);
        assert!(!FeasibilityChecker::new(&fig6a_cone()).is_feasible(&obs));
        assert!(FeasibilityChecker::new(&fig6c_cone()).is_feasible(&obs));
    }

    #[test]
    fn large_counts_do_not_break_feasibility() {
        let cone = fig6a_cone();
        let checker = FeasibilityChecker::new(&cone);
        assert!(checker.is_feasible(&Observation::exact("big", &[2.0e9, 1.5e9])));
        assert!(!checker.is_feasible(&Observation::exact("big-bad", &[1.5e9, 2.0e9])));
    }

    #[test]
    fn noisy_observation_near_the_boundary_is_feasible() {
        let cone = fig6a_cone();
        let checker = FeasibilityChecker::new(&cone);
        // Samples whose mean slightly violates the constraint (pde$_miss exceeds
        // causes_walk by 0.3 on average) but whose confidence region, widened by
        // the sample noise, still overlaps the cone.
        let samples: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let base = 1000.0 + (i % 5) as f64;
                let wiggle = (i % 7) as f64 - 3.0;
                vec![base, base + 0.3 + wiggle]
            })
            .collect();
        let obs = Observation::from_samples("noisy", &samples, 0.99);
        assert!(checker.is_feasible(&obs));
    }

    #[test]
    fn far_off_noisy_observation_is_infeasible() {
        let cone = fig6a_cone();
        let checker = FeasibilityChecker::new(&cone);
        let samples: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let jitter = (i % 5) as f64;
                vec![100.0 + jitter, 500.0 + jitter]
            })
            .collect();
        let obs = Observation::from_samples("noisy-bad", &samples, 0.99);
        assert!(!checker.is_feasible(&obs));
    }

    #[test]
    fn report_identifies_the_violated_constraint() {
        let cone = fig6a_cone();
        let checker = FeasibilityChecker::new(&cone);
        let constraints = deduce_constraints(&cone);
        let report = checker.check(&Observation::exact("bad", &[4.0, 10.0]), Some(&constraints));
        assert!(!report.feasible);
        assert_eq!(report.model, "fig6a");
        assert_eq!(report.observation, "bad");
        assert_eq!(report.violated.len(), 1);
        assert!(report.violated[0]
            .text()
            .contains("load.pde$_miss <= load.causes_walk"));
    }

    #[test]
    fn report_for_feasible_observation_has_no_violations() {
        let cone = fig6a_cone();
        let checker = FeasibilityChecker::new(&cone);
        let constraints = deduce_constraints(&cone);
        let report = checker.check(&Observation::exact("ok", &[10.0, 4.0]), Some(&constraints));
        assert!(report.feasible);
        assert!(report.violated.is_empty());
    }

    #[test]
    fn count_infeasible_matches_individual_checks() {
        let cone = fig6a_cone();
        let checker = FeasibilityChecker::new(&cone);
        let observations = vec![
            Observation::exact("a", &[10.0, 4.0]),
            Observation::exact("b", &[4.0, 10.0]),
            Observation::exact("c", &[1.0, 2.0]),
        ];
        assert_eq!(checker.count_infeasible(&observations), 2);
    }

    #[test]
    fn zero_cone_only_accepts_zero() {
        let cone = ModelCone::from_signatures(
            "zero",
            &space(),
            vec![counterpoint_mudd::CounterSignature::zero(2)],
            1,
        );
        let checker = FeasibilityChecker::new(&cone);
        assert!(checker.is_feasible(&Observation::exact("origin", &[0.0, 0.0])));
        assert!(!checker.is_feasible(&Observation::exact("nonzero", &[1.0, 0.0])));
    }

    #[test]
    #[should_panic(expected = "share a counter space")]
    fn dimension_mismatch_panics() {
        let cone = fig6a_cone();
        let checker = FeasibilityChecker::new(&cone);
        let _ = checker.is_feasible(&Observation::exact("bad", &[1.0]));
    }

    /// A cone whose single generator mixes magnitudes across nine orders:
    /// (10⁹, 1).  Before the coefficient-aware rescaling, the global scale was
    /// derived from the observation center alone, so the y-axis violation of
    /// the off-ray observation below was crushed to ~1e-9 in LP units — under
    /// the simplex feasibility tolerance — and misreported as feasible.
    fn huge_coefficient_cone() -> ModelCone {
        ModelCone::from_signatures(
            "huge",
            &CounterSpace::new(&["x", "y"]),
            vec![counterpoint_mudd::CounterSignature::from_counts(vec![
                1_000_000_000,
                1,
            ])],
            1,
        )
    }

    #[test]
    fn huge_coefficients_do_not_hide_violations() {
        let cone = huge_coefficient_cone();
        let checker = FeasibilityChecker::new(&cone);
        // On the generator ray: feasible.
        assert!(checker.is_feasible(&Observation::exact("on", &[1.0e9, 1.0])));
        // A full counter off the ray in y: must be infeasible even though the
        // violation is one part in 10⁹ of the x magnitude.
        assert!(!checker.is_feasible(&Observation::exact("off", &[1.0e9, 0.0])));
        // And well clear of the ray in the other direction.
        assert!(!checker.is_feasible(&Observation::exact("far", &[1.0e9, 3.0])));
    }

    #[test]
    fn zero_center_with_huge_coefficients_is_feasible() {
        // A center of all zeros yields the neutral global scale (1.0); the
        // coefficient-derived row scaling must keep the LP well-conditioned on
        // its own.  The origin is in every cone, so this must stay feasible.
        let cone = huge_coefficient_cone();
        let checker = FeasibilityChecker::new(&cone);
        assert!(checker.is_feasible(&Observation::exact("origin", &[0.0, 0.0])));
        // Noisy all-zero-mean observation with huge half-widths: still contains
        // the origin, still feasible.
        let samples: Vec<Vec<f64>> = (0..16)
            .map(|i| {
                let swing = if i % 2 == 0 { 1.0e9 } else { -1.0e9 };
                vec![swing, swing * 1.0e-9]
            })
            .collect();
        let obs = Observation::from_samples("swing", &samples, 0.99);
        assert!(checker.is_feasible(&obs));
    }

    #[test]
    fn relatively_tiny_coefficients_do_not_hide_violations() {
        // The mirrored pathology: after the global coefficient scale divides by
        // the largest magnitude (10⁹), the x row's coefficients sit at 1e-9 and
        // the per-row equilibration must scale them back up so a violation in x
        // stays visible.
        let cone = ModelCone::from_signatures(
            "mirror",
            &CounterSpace::new(&["x", "y"]),
            vec![counterpoint_mudd::CounterSignature::from_counts(vec![
                1,
                1_000_000_000,
            ])],
            1,
        );
        let checker = FeasibilityChecker::new(&cone);
        assert!(checker.is_feasible(&Observation::exact("on", &[1.0, 1.0e9])));
        // y pins the flow to 1e-9·…, which forces x ≈ 1, not 0.
        assert!(!checker.is_feasible(&Observation::exact("off", &[0.0, 1.0e9])));
    }
}
