//! The cold band-feasibility engine: a revised dual simplex over
//! `lo ≤ A·x ≤ hi`, `x ≥ 0`, restarted from the all-slack basis on every
//! solve.

use counterpoint_telemetry as telemetry;
use std::fmt;

/// Errors raised while solving a linear program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LpError {
    /// The simplex iteration limit was exceeded (numerical cycling).
    IterationLimit,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
        }
    }
}

impl std::error::Error for LpError {}

/// A revised dual-simplex engine for *band feasibility* systems
/// `lo ≤ A·x ≤ hi` over `x ≥ 0`, solved cold.
///
/// This is the shape of CounterPoint's feasibility question: one band per
/// confidence-region axis, whose coefficient row `A_k` (`axis · generator` per
/// flow variable) is a function of the model cone and the counter-space axes
/// only, while the bounds `lo`/`hi` come from the observation.  Every
/// [`resolve`](Tableau::resolve) starts from the all-slack basis, so its
/// verdict, basic flows and Farkas multipliers depend on the band matrix and
/// the bounds alone — never on an earlier solve.  The warm-started decision
/// engine is [`FactorTableau`](crate::FactorTableau).
///
/// Constraint deduction asks the same question with `lo = hi`: a generator is
/// redundant when it is a non-negative combination of the others, i.e. when
/// the band system whose columns are the other generators pins every counter
/// coordinate to the generator's own.
///
/// Conceptually each band `k` contributes two rows:
///
/// * row `2k`:   `−A_k·x + s = −lo_k` (the `≥` side, pre-negated so every slack
///   coefficient is `+1` and the all-slack basis matrix is the identity), and
/// * row `2k+1`: `A_k·x + s = hi_k` (the `≤` side).
///
/// The implementation is *revised*: it never materialises the full
/// `B⁻¹·[A | S]` tableau.  Only `B⁻¹` (`2d × 2d`) and the raw band matrix
/// (`d × p`) are stored; the leaving row's coefficients and the entering column
/// are reconstructed on demand, so a pivot costs `O(d·p + d²)` instead of the
/// classical `O(d·(p + d))` row sweep over a matrix twice that size.
///
/// Because the objective is identically zero, every basis is dual-feasible and
/// the dual simplex reduces to feasibility restoration: pick a row whose basic
/// value is negative, pivot on a negative entry, and stop when either no row is
/// violated (feasible) or a violated row has no negative entry (infeasible —
/// the row reads "a non-negative combination equals a negative number").
#[derive(Clone, Debug)]
pub struct Tableau {
    num_vars: usize,
    num_bands: usize,
    /// The band matrix `A`, stored flat and transposed
    /// (`num_vars × num_bands`, row-major) so the per-iteration coefficient
    /// reconstruction walks contiguous memory.
    bands_t: Vec<f64>,
    /// `B⁻¹` (`2·num_bands` square, flat row-major), maintained across pivots.
    binv: Vec<f64>,
    /// `B⁻¹·b` for the most recent bounds.
    rhs: Vec<f64>,
    /// Basic column per row (`j < num_vars`: flow `j`; otherwise slack
    /// `j − num_vars`).  Empty until the first resolve.
    basis: Vec<usize>,
    /// `in_basis[j]` mirrors `basis` for O(1) membership tests.
    in_basis: Vec<bool>,
    /// Row that certified infeasibility on the most recent resolve, if any.
    infeasible_row: Option<usize>,
    /// Scratch: per-band multiplier differences of the leaving row.
    delta: Vec<f64>,
    /// Scratch: the bands whose entry of `delta` is non-zero.
    active: Vec<usize>,
    /// Scratch: the leaving row's structural coefficients.
    rowbuf: Vec<f64>,
    /// Scratch: the entering column in basis coordinates (`B⁻¹·a`).
    colbuf: Vec<f64>,
    /// Scratch: the non-zero entries of the scaled pivot row of `B⁻¹`.
    pivot_row: Vec<(usize, f64)>,
    epsilon: f64,
    max_iterations: usize,
}

impl Tableau {
    /// Builds a tableau for the band system `lo ≤ A·x ≤ hi` over `x ≥ 0`.
    /// `bands` holds the rows of `A`.
    ///
    /// # Panics
    ///
    /// Panics if any band row's length differs from `num_vars`.
    pub fn band(num_vars: usize, bands: &[Vec<f64>]) -> Tableau {
        let d = bands.len();
        let m = 2 * d;
        let mut bands_t = vec![0.0; num_vars * d];
        for (k, src) in bands.iter().enumerate() {
            assert_eq!(
                src.len(),
                num_vars,
                "band {k} has {} coefficients, expected {num_vars}",
                src.len()
            );
            for (j, &a) in src.iter().enumerate() {
                bands_t[j * d + k] = a;
            }
        }
        Tableau {
            num_vars,
            num_bands: d,
            bands_t,
            binv: vec![0.0; m * m],
            rhs: vec![0.0; m],
            basis: Vec::with_capacity(m),
            in_basis: vec![false; num_vars + m],
            infeasible_row: None,
            delta: vec![0.0; d],
            active: Vec::with_capacity(d),
            rowbuf: vec![0.0; num_vars],
            colbuf: vec![0.0; m],
            pivot_row: Vec::with_capacity(m),
            epsilon: 1e-9,
            max_iterations: 50_000,
        }
    }

    /// Number of structural variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of bands (the system has `2 · num_bands` rows).
    pub fn num_bands(&self) -> usize {
        self.num_bands
    }

    /// Overrides the numerical tolerance (default `1e-9`).
    pub fn set_epsilon(&mut self, epsilon: f64) {
        self.epsilon = epsilon;
    }

    /// Overrides the dual-simplex iteration limit (default 50 000).
    pub fn set_max_iterations(&mut self, limit: usize) {
        self.max_iterations = limit;
    }

    /// The structural (flow) variables that are basic in the current basis,
    /// with their values after the most recent resolve — the support of the
    /// feasible point when that resolve returned `true`.  Values can be
    /// marginally negative (within the feasibility tolerance); callers should
    /// clamp.
    pub fn basic_flows(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.basis
            .iter()
            .zip(self.rhs.iter())
            .filter_map(|(&j, &v)| (j < self.num_vars).then_some((j, v)))
    }

    /// The Farkas certificate of the most recent infeasible
    /// [`resolve`](Tableau::resolve): the multipliers `π` (one per row, all
    /// non-negative up to tolerance) of the stuck row, i.e. the corresponding
    /// row of `B⁻¹`.  `π · [A|S] ≥ 0` componentwise while `π · b < 0`, so any
    /// bounds with `π · b < 0` are infeasible regardless of the flows.
    /// `None` if the last resolve was feasible (or none has run).
    pub fn farkas_multipliers(&self) -> Option<&[f64]> {
        let m = 2 * self.num_bands;
        self.infeasible_row.map(|r| &self.binv[r * m..(r + 1) * m])
    }

    /// Decides feasibility of the band system under the bounds `lo`/`hi`,
    /// running the dual simplex from the all-slack basis.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::IterationLimit`] if the dual simplex fails to
    /// converge.  The solve is already cold, so no verdict exists and the
    /// caller should report the instance as undecided rather than guess.
    ///
    /// # Panics
    ///
    /// Panics if `lo` or `hi` do not have one entry per band.
    pub fn resolve(&mut self, lo: &[f64], hi: &[f64]) -> Result<bool, LpError> {
        assert_eq!(lo.len(), self.num_bands, "lo has the wrong length");
        assert_eq!(hi.len(), self.num_bands, "hi has the wrong length");
        self.reset_to_slack_basis();
        // With `B⁻¹ = I`, `B⁻¹·b` is `b` itself (the ≥ side is pre-negated).
        for k in 0..self.num_bands {
            self.rhs[2 * k] = -lo[k];
            self.rhs[2 * k + 1] = hi[k];
        }
        self.restore_feasibility()
    }

    /// Resets `B⁻¹` to the identity and the basis to all-slack.
    fn reset_to_slack_basis(&mut self) {
        let n = self.num_vars;
        let m = 2 * self.num_bands;
        self.binv.fill(0.0);
        for i in 0..m {
            self.binv[i * m + i] = 1.0;
        }
        self.in_basis.fill(false);
        for slot in self.in_basis.iter_mut().skip(n) {
            *slot = true;
        }
        self.basis.clear();
        self.basis.extend(n..n + m);
        self.infeasible_row = None;
    }

    /// Dual-simplex feasibility restoration from the current (dual-feasible,
    /// since the objective is zero) basis.  Pivot counts are reported to the
    /// telemetry sink in one flush per solve so the disabled-telemetry cost
    /// stays off the pivot loop.
    fn restore_feasibility(&mut self) -> Result<bool, LpError> {
        let mut pivots = 0u64;
        let result = self.restore_feasibility_counted(&mut pivots);
        if telemetry::enabled() {
            telemetry::add(telemetry::Metric::LpPivots, pivots);
            if result.is_ok() {
                telemetry::add(telemetry::Metric::LpSolves, 1);
                telemetry::observe(telemetry::Histogram::LpPivotsPerSolve, pivots);
            }
        }
        result
    }

    fn restore_feasibility_counted(&mut self, pivots: &mut u64) -> Result<bool, LpError> {
        self.infeasible_row = None;
        let m = 2 * self.num_bands;
        // Accept residual per-row violations up to 1e-7 even under a tighter
        // `epsilon`: pivoting leaves round-off of about that size in `B⁻¹·b`,
        // and a system whose bounds lie exactly on the cone's boundary (a
        // cone-membership test has `lo = hi`) must not read as infeasible
        // because of it.
        let tol = self.epsilon.max(1e-7);
        let mut iterations = 0usize;
        loop {
            iterations += 1;
            if iterations > self.max_iterations {
                return Err(LpError::IterationLimit);
            }
            let use_bland = iterations > self.max_iterations / 2;

            // Leaving row: most negative basic value (Bland: smallest basic
            // index among the violated rows, which guarantees termination).
            let mut leave: Option<usize> = None;
            let mut worst = -tol;
            for i in 0..m {
                if self.rhs[i] < worst {
                    if use_bland {
                        if leave.is_none_or(|l| self.basis[i] < self.basis[l]) {
                            leave = Some(i);
                        }
                        worst = -tol;
                    } else {
                        worst = self.rhs[i];
                        leave = Some(i);
                    }
                }
            }
            let Some(row) = leave else {
                return Ok(true);
            };

            // Reconstruct the leaving row's coefficients from π = B⁻¹[row]:
            // flow column j carries Σ_k (π_{2k+1} − π_{2k})·A_kj, slack column
            // i carries π_i.  Any non-basic column with a negative entry keeps
            // dual feasibility (all reduced costs are zero); prefer the
            // largest magnitude for numerical stability.
            //
            // `B⁻¹` rows stay sparse over a cold solve's few pivots, so only
            // the non-zero multiplier differences are summed, and basic
            // columns (which cannot enter) are not priced.  A skipped term is
            // an exact zero: it could only flip the sign of a zero sum, which
            // no comparison below can see.
            {
                let pi = &self.binv[row * m..(row + 1) * m];
                self.active.clear();
                for (k, d) in self.delta.iter_mut().enumerate() {
                    *d = pi[2 * k + 1] - pi[2 * k];
                    if *d != 0.0 {
                        self.active.push(k);
                    }
                }
            }
            let d = self.num_bands;
            for (j, buf) in self.rowbuf.iter_mut().enumerate() {
                if self.in_basis[j] {
                    continue;
                }
                let col = &self.bands_t[j * d..(j + 1) * d];
                *buf = self.active.iter().map(|&k| self.delta[k] * col[k]).sum();
            }
            let mut enter: Option<usize> = None;
            let mut best = self.epsilon;
            'scan: {
                for (j, &a) in self.rowbuf.iter().enumerate() {
                    if self.in_basis[j] {
                        continue;
                    }
                    if a < -self.epsilon {
                        if use_bland {
                            enter = Some(j);
                            break 'scan;
                        }
                        if -a > best {
                            best = -a;
                            enter = Some(j);
                        }
                    }
                }
                for i in 0..m {
                    let j = self.num_vars + i;
                    if self.in_basis[j] {
                        continue;
                    }
                    let a = self.binv[row * m + i];
                    if a < -self.epsilon {
                        if use_bland {
                            enter = Some(j);
                            break 'scan;
                        }
                        if -a > best {
                            best = -a;
                            enter = Some(j);
                        }
                    }
                }
            }
            let Some(col) = enter else {
                // The row asserts a non-negative combination equals a negative
                // number: the system is infeasible.
                self.infeasible_row = Some(row);
                return Ok(false);
            };
            self.load_column(col);
            self.pivot(row, col);
            *pivots += 1;
        }
    }

    /// Fills `colbuf` with the entering column in basis coordinates,
    /// `B⁻¹·a_col`.
    fn load_column(&mut self, col: usize) {
        let m = 2 * self.num_bands;
        let d = self.num_bands;
        if col < self.num_vars {
            // Flow column: original entries alternate (−A_kj, +A_kj).
            let band_col = &self.bands_t[col * d..(col + 1) * d];
            for i in 0..m {
                let row = &self.binv[i * m..(i + 1) * m];
                let mut acc = 0.0;
                for (k, &a) in band_col.iter().enumerate() {
                    acc += (row[2 * k + 1] - row[2 * k]) * a;
                }
                self.colbuf[i] = acc;
            }
        } else {
            // Slack column: `a = e_i`, so `B⁻¹·a` is a column of B⁻¹.
            let slack = col - self.num_vars;
            for i in 0..m {
                self.colbuf[i] = self.binv[i * m + slack];
            }
        }
    }

    /// Product-form basis update: pivots `col` (whose basis-coordinate column
    /// is already in `colbuf`) into `row`.  Only the pivot row's non-zero
    /// entries are eliminated: subtracting an exact zero changes no non-zero
    /// entry of `B⁻¹`.
    fn pivot(&mut self, row: usize, col: usize) {
        let m = 2 * self.num_bands;
        let pivot = self.colbuf[row];
        debug_assert!(pivot.abs() > 0.0, "zero pivot");
        let inv = 1.0 / pivot;
        self.pivot_row.clear();
        for (k, v) in self.binv[row * m..(row + 1) * m].iter_mut().enumerate() {
            *v *= inv;
            if *v != 0.0 {
                self.pivot_row.push((k, *v));
            }
        }
        self.rhs[row] *= inv;
        for i in 0..m {
            if i == row {
                continue;
            }
            let factor = self.colbuf[i];
            if factor == 0.0 {
                continue;
            }
            let target_row = &mut self.binv[i * m..(i + 1) * m];
            for &(k, p) in &self.pivot_row {
                target_row[k] -= factor * p;
            }
            self.rhs[i] -= factor * self.rhs[row];
        }
        self.in_basis[self.basis[row]] = false;
        self.in_basis[col] = true;
        self.basis[row] = col;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Resolves `lo ≤ A·x ≤ hi` on `tableau`, asserts the verdict, and checks
    /// the evidence behind it: a feasible verdict's clamped basic flows satisfy
    /// every band, and an infeasible verdict's Farkas multipliers `π` are
    /// non-negative, price every flow column non-negatively and give
    /// `π·b < 0`.  A checked certificate proves the verdict on its own.
    fn check_on(tableau: &mut Tableau, bands: &[Vec<f64>], lo: &[f64], hi: &[f64], feasible: bool) {
        const TOL: f64 = 1e-7;
        let verdict = tableau.resolve(lo, hi).unwrap();
        assert_eq!(verdict, feasible, "verdict for lo={lo:?} hi={hi:?}");
        if verdict {
            assert!(tableau.farkas_multipliers().is_none());
            let mut x = vec![0.0; tableau.num_vars()];
            for (j, v) in tableau.basic_flows() {
                x[j] = v.max(0.0);
            }
            for (k, band) in bands.iter().enumerate() {
                let ax: f64 = band.iter().zip(&x).map(|(a, x)| a * x).sum();
                assert!(
                    lo[k] - TOL <= ax && ax <= hi[k] + TOL,
                    "band {k}: {ax} outside [{}, {}] at x={x:?}",
                    lo[k],
                    hi[k]
                );
            }
        } else {
            // Row 2k is `−A_k·x + s = −lo_k`, row 2k+1 is `A_k·x + s = hi_k`.
            let pi = tableau.farkas_multipliers().expect("a certificate");
            assert!(pi.iter().all(|&p| p >= -TOL), "negative multiplier {pi:?}");
            for j in 0..tableau.num_vars() {
                let price: f64 = bands
                    .iter()
                    .enumerate()
                    .map(|(k, band)| (pi[2 * k + 1] - pi[2 * k]) * band[j])
                    .sum();
                assert!(price >= -TOL, "column {j} priced {price}");
            }
            let pi_b: f64 = (0..bands.len())
                .map(|k| pi[2 * k + 1] * hi[k] - pi[2 * k] * lo[k])
                .sum();
            assert!(pi_b < 0.0, "π·b = {pi_b} does not separate");
        }
    }

    /// [`check_on`] on a fresh tableau.
    fn check(bands: &[Vec<f64>], lo: &[f64], hi: &[f64], feasible: bool) {
        let mut tableau = Tableau::band(bands[0].len(), bands);
        check_on(&mut tableau, bands, lo, hi, feasible);
    }

    #[test]
    fn tableau_band_verdicts_carry_checked_evidence() {
        // Cone generated by (1, 0) and (1, 1): y ≤ x over the non-negative
        // quadrant, probed through a batch of boxes.
        let bands = vec![vec![1.0, 1.0], vec![0.0, 1.0]];
        let cases: &[([f64; 2], [f64; 2], bool)] = &[
            ([9.0, 3.0], [11.0, 5.0], true),    // strictly inside
            ([9.0, 9.5], [10.0, 10.5], true),   // straddles the y = x facet
            ([4.0, 9.0], [5.0, 10.0], false),   // y > x everywhere
            ([0.0, 0.0], [0.0, 0.0], true),     // the origin
            ([-2.0, -1.0], [-1.0, 1.0], false), // x forced negative
        ];
        let mut tableau = Tableau::band(2, &bands);
        assert_eq!(tableau.num_vars(), 2);
        assert_eq!(tableau.num_bands(), 2);
        for (lo, hi, feasible) in cases {
            check_on(&mut tableau, &bands, lo, hi, *feasible);
        }
    }

    #[test]
    fn tableau_resolve_does_not_depend_on_earlier_solves() {
        // A drifting sequence of boxes on one tableau: every resolve starts
        // from the all-slack basis, so its verdict, flows and multipliers are
        // bit-identical to a fresh tableau's, and carry checked evidence.
        let bands = vec![
            vec![2.0, 1.0, 0.0],
            vec![0.0, 1.0, 3.0],
            vec![1.0, 1.0, 1.0],
        ];
        let mut shared = Tableau::band(3, &bands);
        let mut verdicts = [0usize; 2];
        for step in 0..40 {
            let t = step as f64;
            let lo = [5.0 + t, 2.0 + 0.5 * t, 3.0 + t];
            let hi = [7.0 + t, 4.0 + 0.5 * t, 4.0 + t];
            let mut fresh = Tableau::band(3, &bands);
            let verdict = fresh.resolve(&lo, &hi).unwrap();
            verdicts[usize::from(verdict)] += 1;
            check_on(&mut shared, &bands, &lo, &hi, verdict);
            let flows = |t: &Tableau| {
                t.basic_flows()
                    .map(|(j, v)| (j, v.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(flows(&shared), flows(&fresh), "step {step}");
            assert_eq!(shared.farkas_multipliers(), fresh.farkas_multipliers());
        }
        // The drift crosses from feasible boxes into infeasible ones, so both
        // kinds of evidence are checked.
        assert!(verdicts[0] > 0 && verdicts[1] > 0, "{verdicts:?}");
    }

    #[test]
    fn tableau_detects_infeasibility_with_no_structural_variables() {
        // Zero structural variables: feasible iff every band contains zero.
        let mut tableau = Tableau::band(0, &[vec![], vec![]]);
        assert!(tableau.resolve(&[-1.0, 0.0], &[1.0, 0.0]).unwrap());
        assert!(!tableau.resolve(&[1.0, 0.0], &[2.0, 0.0]).unwrap());
    }

    #[test]
    fn tableau_handles_degenerate_equal_bounds() {
        // lo == hi pins the band exactly: x + y = 10 with y ∈ [0, 4].
        let bands = vec![vec![1.0, 1.0], vec![0.0, 1.0]];
        check(&bands, &[10.0, 0.0], &[10.0, 4.0], true);
        // x + y = 10 with y ≥ 12 is impossible.
        check(&bands, &[10.0, 12.0], &[10.0, 14.0], false);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn tableau_bounds_length_mismatch_panics() {
        let mut tableau = Tableau::band(1, &[vec![1.0]]);
        let _ = tableau.resolve(&[0.0, 0.0], &[1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "expected 2")]
    fn tableau_band_length_mismatch_panics() {
        let _ = Tableau::band(2, &[vec![1.0]]);
    }

    #[test]
    #[should_panic(expected = "band 1 has 3 coefficients, expected 2")]
    fn wrong_dimension_panics() {
        // A later band row that is too long is caught too, not just a short
        // first row.
        let _ = Tableau::band(2, &[vec![1.0, 1.0], vec![1.0, 0.0, 1.0]]);
    }

    #[test]
    fn cone_membership_as_lp() {
        // Is (5, 2) a non-negative combination of (1, 0) and (1, 1)?  Yes:
        // 3·(1, 0) + 2·(1, 1).  Each counter coordinate is one band, lo = hi.
        let bands = vec![vec![1.0, 1.0], vec![0.0, 1.0]];
        check(&bands, &[5.0, 2.0], &[5.0, 2.0], true);
        // Is (1, 2)?  No: it would need negative flow on (1, 0).
        check(&bands, &[1.0, 2.0], &[1.0, 2.0], false);
    }

    #[test]
    fn simple_maximisation() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 has optimum 36 at
        // (2, 6): the objective band [36, 36] is feasible, [36.01, ∞) is not.
        let bands = vec![
            vec![1.0, 0.0],
            vec![0.0, 2.0],
            vec![3.0, 2.0],
            vec![3.0, 5.0],
        ];
        check(
            &bands,
            &[0.0, 0.0, 0.0, 36.0],
            &[4.0, 12.0, 18.0, 36.0],
            true,
        );
        check(
            &bands,
            &[0.0, 0.0, 0.0, 36.01],
            &[4.0, 12.0, 18.0, 1e6],
            false,
        );
    }

    #[test]
    fn simple_minimisation_with_ge() {
        // min 2x + 3y s.t. x + y ≥ 4, x ≥ 1 has optimum 8 at (4, 0).
        let bands = vec![vec![1.0, 1.0], vec![1.0, 0.0], vec![2.0, 3.0]];
        check(&bands, &[4.0, 1.0, 0.0], &[1e6, 1e6, 8.0], true);
        check(&bands, &[4.0, 1.0, 0.0], &[1e6, 1e6, 7.99], false);
    }

    #[test]
    fn equality_constraints() {
        // x + 2y = 4, x − y = 1 pins the single solution (2, 1).
        check(
            &[vec![1.0, 2.0], vec![1.0, -1.0]],
            &[4.0, 1.0],
            &[4.0, 1.0],
            true,
        );
    }

    #[test]
    fn infeasible_program() {
        // x ≤ 1 and x ≥ 2 cannot both hold.
        check(&[vec![1.0], vec![1.0]], &[0.0, 2.0], &[1.0, 3.0], false);
    }

    #[test]
    fn infeasible_due_to_nonnegativity() {
        // x + y ≤ −1 with x, y ≥ 0 is infeasible.
        check(&[vec![1.0, 1.0]], &[-2.0], &[-1.0], false);
    }

    #[test]
    fn pure_feasibility_problem() {
        // x + y + z = 10, x ≥ 2, y ≤ 5.
        let bands = vec![
            vec![1.0, 1.0, 1.0],
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
        ];
        check(&bands, &[10.0, 2.0, 0.0], &[10.0, 10.0, 5.0], true);
    }

    #[test]
    fn negative_rhs_is_normalised() {
        // −x ≤ −3 is x ≥ 3: negative coefficients and bounds on both sides.
        check(&[vec![-1.0]], &[-10.0], &[-3.0], true);
        // −x ≥ 1 would need x ≤ −1.
        check(&[vec![-1.0]], &[1.0], &[2.0], false);
    }

    #[test]
    fn degenerate_vertex_is_handled() {
        // x ≤ 1, y ≤ 1, x + y = 2 and x − y ≤ 0 all meet at (1, 1).
        let bands = vec![
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![1.0, -1.0],
        ];
        check(&bands, &[0.0, 0.0, 2.0, -1.0], &[1.0, 1.0, 2.0, 0.0], true);
        check(&bands, &[0.0, 0.0, 2.5, -1.0], &[1.0, 1.0, 3.0, 0.0], false);
    }

    #[test]
    fn many_variables_feasibility() {
        // A wide system in the shape of μpath-flow feasibility: 300 flow
        // variables, 10 bands.
        let n = 300;
        let bands: Vec<Vec<f64>> = (0..10)
            .map(|c| (0..n).map(|j| ((j + c) % 5) as f64).collect())
            .collect();
        check(&bands, &[500.0; 10], &[1000.0; 10], true);
        // Bands c and c + 5 have the same coefficients, so band 0 cannot rise
        // above band 5's ceiling.
        let mut lo = [0.0; 10];
        let mut hi = [1000.0; 10];
        lo[0] = 5000.0;
        hi[0] = 6000.0;
        check(&bands, &lo, &hi, false);
    }

    #[test]
    fn error_display() {
        assert!(LpError::IterationLimit.to_string().contains("iteration"));
    }
}
