//! The feasibility LP of the paper's Appendix A: does an observation's
//! confidence region intersect the model cone?
//!
//! The LP has one non-negative flow variable per distinct μpath counter
//! signature and, for every principal axis of the observation's confidence
//! region, a band bounding the projection of the counter-flow combination onto
//! that axis by the region's extent.  The observation is feasible iff the LP
//! is.  This module builds that LP; [`BatchFeasibility`] solves it.
//!
//! [`BatchFeasibility`]: crate::batch::BatchFeasibility

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
/// observation sharing those axes.
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
    /// The matrix for `axes` (see
    /// [`build_sparse_into`](ConeMatrix::build_sparse_into)).
    pub(crate) fn build(axes: &[Vec<f64>], sparse: &[Vec<(usize, f64)>]) -> ConeMatrix {
        let mut matrix = ConeMatrix {
            rows: Vec::new(),
            bound_divs: Vec::new(),
        };
        matrix.build_sparse_into(axes, sparse);
        matrix
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

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    //! The LP formulation, exercised through fresh engines: a fresh
    //! [`BatchFeasibility`] has empty evidence pools, so its `verdict` is one
    //! cold solve of exactly the LP this module builds.

    use crate::batch::{BatchFeasibility, FeasibilityVerdict};
    use crate::cone::ModelCone;
    use crate::constraints::deduce_constraints;
    use crate::observation::Observation;
    use counterpoint_mudd::{dsl::compile_uop, CounterSignature, CounterSpace};

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

    /// One cold solve: a fresh engine's verdict.
    fn verdict(cone: &ModelCone, observation: &Observation) -> FeasibilityVerdict {
        BatchFeasibility::new(cone).verdict(observation)
    }

    fn feasible(cone: &ModelCone, observation: &Observation) -> bool {
        verdict(cone, observation).is_feasible()
    }

    fn refuted(cone: &ModelCone, observation: &Observation) -> bool {
        verdict(cone, observation).is_refuted()
    }

    #[test]
    fn exact_observations_inside_and_outside() {
        let cone = fig6a_cone();
        assert!(feasible(&cone, &Observation::exact("ok", &[10.0, 4.0])));
        assert!(feasible(&cone, &Observation::exact("edge", &[10.0, 10.0])));
        assert!(refuted(&cone, &Observation::exact("bad", &[4.0, 10.0])));
    }

    #[test]
    fn refined_model_accepts_the_violating_observation() {
        // The observation that refutes Figure 6a is feasible for Figure 6c — the
        // whole point of the refinement loop.
        let obs = Observation::exact("microbench", &[4.0, 10.0]);
        assert!(refuted(&fig6a_cone(), &obs));
        assert!(feasible(&fig6c_cone(), &obs));
    }

    #[test]
    fn large_counts_do_not_break_feasibility() {
        let cone = fig6a_cone();
        assert!(feasible(&cone, &Observation::exact("big", &[2.0e9, 1.5e9])));
        assert!(refuted(
            &cone,
            &Observation::exact("big-bad", &[1.5e9, 2.0e9])
        ));
    }

    #[test]
    fn noisy_observation_near_the_boundary_is_feasible() {
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
        assert!(feasible(&fig6a_cone(), &obs));
    }

    #[test]
    fn far_off_noisy_observation_is_infeasible() {
        let samples: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let jitter = (i % 5) as f64;
                vec![100.0 + jitter, 500.0 + jitter]
            })
            .collect();
        let obs = Observation::from_samples("noisy-bad", &samples, 0.99);
        assert!(refuted(&fig6a_cone(), &obs));
    }

    #[test]
    fn report_identifies_the_violated_constraint() {
        // A refutation plus the constraints its region violates: the feedback
        // of the paper's Figure 2 loop.
        let cone = fig6a_cone();
        let obs = Observation::exact("bad", &[4.0, 10.0]);
        assert!(refuted(&cone, &obs));
        let constraints = deduce_constraints(&cone);
        let violated = constraints.violated_by(obs.region());
        assert_eq!(violated.len(), 1);
        assert!(violated[0]
            .text()
            .contains("load.pde$_miss <= load.causes_walk"));
    }

    #[test]
    fn report_for_feasible_observation_has_no_violations() {
        let cone = fig6a_cone();
        let obs = Observation::exact("ok", &[10.0, 4.0]);
        assert!(feasible(&cone, &obs));
        assert!(deduce_constraints(&cone)
            .violated_by(obs.region())
            .is_empty());
    }

    #[test]
    fn count_infeasible_matches_individual_checks() {
        let cone = fig6a_cone();
        let observations = vec![
            Observation::exact("a", &[10.0, 4.0]),
            Observation::exact("b", &[4.0, 10.0]),
            Observation::exact("c", &[1.0, 2.0]),
        ];
        let individually = observations.iter().filter(|o| refuted(&cone, o)).count();
        assert_eq!(individually, 2);
        assert_eq!(
            BatchFeasibility::new(&cone).count_infeasible(&observations),
            individually
        );
    }

    #[test]
    fn zero_cone_only_accepts_zero() {
        let cone = ModelCone::from_signatures("zero", &space(), vec![CounterSignature::zero(2)], 1);
        assert!(feasible(&cone, &Observation::exact("origin", &[0.0, 0.0])));
        assert!(refuted(&cone, &Observation::exact("nonzero", &[1.0, 0.0])));
    }

    #[test]
    #[should_panic(expected = "share a counter space")]
    fn dimension_mismatch_panics() {
        let _ = verdict(&fig6a_cone(), &Observation::exact("bad", &[1.0]));
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
            vec![CounterSignature::from_counts(vec![1_000_000_000, 1])],
            1,
        )
    }

    #[test]
    fn huge_coefficients_do_not_hide_violations() {
        let cone = huge_coefficient_cone();
        // On the generator ray: feasible.
        assert!(feasible(&cone, &Observation::exact("on", &[1.0e9, 1.0])));
        // A full counter off the ray in y: must be infeasible even though the
        // violation is one part in 10⁹ of the x magnitude.
        assert!(refuted(&cone, &Observation::exact("off", &[1.0e9, 0.0])));
        // And well clear of the ray in the other direction.
        assert!(refuted(&cone, &Observation::exact("far", &[1.0e9, 3.0])));
    }

    #[test]
    fn zero_center_with_huge_coefficients_is_feasible() {
        // A center of all zeros yields the neutral global scale (1.0); the
        // coefficient-derived row scaling must keep the LP well-conditioned on
        // its own.  The origin is in every cone, so this must stay feasible.
        let cone = huge_coefficient_cone();
        assert!(feasible(&cone, &Observation::exact("origin", &[0.0, 0.0])));
        // Noisy all-zero-mean observation with huge half-widths: still contains
        // the origin, still feasible.
        let samples: Vec<Vec<f64>> = (0..16)
            .map(|i| {
                let swing = if i % 2 == 0 { 1.0e9 } else { -1.0e9 };
                vec![swing, swing * 1.0e-9]
            })
            .collect();
        let obs = Observation::from_samples("swing", &samples, 0.99);
        assert!(feasible(&cone, &obs));
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
            vec![CounterSignature::from_counts(vec![1, 1_000_000_000])],
            1,
        );
        assert!(feasible(&cone, &Observation::exact("on", &[1.0, 1.0e9])));
        // y pins the flow to 1e-9·…, which forces x ≈ 1, not 0.
        assert!(refuted(&cone, &Observation::exact("off", &[0.0, 1.0e9])));
    }
}
