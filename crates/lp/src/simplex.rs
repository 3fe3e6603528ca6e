//! Two-phase dense primal simplex.

use counterpoint_telemetry as telemetry;
use std::fmt;

/// Relation of a linear constraint to its right-hand side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Relation {
    /// `coeffs · x ≤ rhs`
    Le,
    /// `coeffs · x ≥ rhs`
    Ge,
    /// `coeffs · x = rhs`
    Eq,
}

/// Outcome of solving a linear program.
#[derive(Clone, Debug, PartialEq)]
pub enum LpOutcome {
    /// An optimal solution was found.
    Optimal {
        /// Objective value at the optimum (in the user's orientation: the maximum
        /// for maximisation problems, the minimum for minimisation problems).
        objective: f64,
        /// Values of the structural variables.
        solution: Vec<f64>,
    },
    /// No point satisfies all constraints (with `x ≥ 0`).
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
}

impl LpOutcome {
    /// Returns `true` if the program has at least one feasible point.
    pub fn is_feasible(&self) -> bool {
        !matches!(self, LpOutcome::Infeasible)
    }

    /// Returns the solution vector if an optimum was found.
    pub fn solution(&self) -> Option<&[f64]> {
        match self {
            LpOutcome::Optimal { solution, .. } => Some(solution),
            _ => None,
        }
    }
}

/// Errors raised while building or solving a linear program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LpError {
    /// A coefficient vector did not match the declared number of variables.
    DimensionMismatch {
        /// Declared number of structural variables.
        expected: usize,
        /// Length of the offending coefficient vector.
        found: usize,
    },
    /// The simplex iteration limit was exceeded (numerical cycling).
    IterationLimit,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::DimensionMismatch { expected, found } => {
                write!(
                    f,
                    "coefficient vector has length {found}, expected {expected}"
                )
            }
            LpError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
        }
    }
}

impl std::error::Error for LpError {}

#[derive(Clone, Debug)]
struct RowConstraint {
    coeffs: Vec<f64>,
    relation: Relation,
    rhs: f64,
}

/// A linear program over non-negative structural variables.
///
/// All variables are implicitly constrained to `x ≥ 0`, which matches the
/// CounterPoint formulation exactly: μpath flows and counter values are
/// non-negative by definition (negative flows of μops are impossible).
#[derive(Clone, Debug)]
pub struct LinearProgram {
    num_vars: usize,
    constraints: Vec<RowConstraint>,
    /// Minimisation objective over the structural variables.
    objective: Vec<f64>,
    /// `true` if the user asked to maximise (the sign of the reported optimum is
    /// flipped back on return).
    maximise: bool,
    epsilon: f64,
    max_iterations: usize,
}

impl LinearProgram {
    /// Creates an empty program with `num_vars` non-negative structural variables
    /// and a zero objective (a pure feasibility problem).
    pub fn new(num_vars: usize) -> LinearProgram {
        LinearProgram {
            num_vars,
            constraints: Vec::new(),
            objective: vec![0.0; num_vars],
            maximise: false,
            epsilon: 1e-9,
            max_iterations: 50_000,
        }
    }

    /// Number of structural variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of constraints added so far.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Overrides the numerical tolerance (default `1e-9`).
    pub fn set_epsilon(&mut self, epsilon: f64) {
        self.epsilon = epsilon;
    }

    /// Overrides the simplex iteration limit (default 50 000).
    pub fn set_max_iterations(&mut self, limit: usize) {
        self.max_iterations = limit;
    }

    /// Adds the constraint `coeffs · x (relation) rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != num_vars`.
    pub fn add_constraint(&mut self, coeffs: &[f64], relation: Relation, rhs: f64) {
        assert_eq!(
            coeffs.len(),
            self.num_vars,
            "constraint has {} coefficients, expected {}",
            coeffs.len(),
            self.num_vars
        );
        self.constraints.push(RowConstraint {
            coeffs: coeffs.to_vec(),
            relation,
            rhs,
        });
    }

    /// Sets a minimisation objective `min coeffs · x`.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != num_vars`.
    pub fn set_objective_minimize(&mut self, coeffs: &[f64]) {
        assert_eq!(coeffs.len(), self.num_vars, "objective dimension mismatch");
        self.objective = coeffs.to_vec();
        self.maximise = false;
    }

    /// Sets a maximisation objective `max coeffs · x`.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != num_vars`.
    pub fn set_objective_maximize(&mut self, coeffs: &[f64]) {
        assert_eq!(coeffs.len(), self.num_vars, "objective dimension mismatch");
        self.objective = coeffs.iter().map(|c| -c).collect();
        self.maximise = true;
    }

    /// Solves the program with the two-phase simplex method.
    ///
    /// # Panics
    ///
    /// Panics if the iteration limit is exceeded (which indicates pathological
    /// cycling; the limit is far above anything CounterPoint's problem sizes need).
    /// Use [`LinearProgram::try_solve`] for a non-panicking variant.
    pub fn solve(&self) -> LpOutcome {
        self.try_solve().expect("simplex iteration limit exceeded")
    }

    /// Solves the program, returning an error instead of panicking if the iteration
    /// limit is exceeded.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::IterationLimit`] if the solver fails to converge.
    pub fn try_solve(&self) -> Result<LpOutcome, LpError> {
        DenseTableau::build_and_solve(self)
    }

    /// Convenience: returns `true` if the constraint system admits any solution
    /// with `x ≥ 0` (the objective is ignored).
    pub fn is_feasible(&self) -> bool {
        let mut copy = self.clone();
        copy.objective = vec![0.0; copy.num_vars];
        copy.maximise = false;
        copy.solve().is_feasible()
    }
}

/// A warm-startable revised dual-simplex engine for *band feasibility*
/// systems `lo ≤ A·x ≤ hi` over `x ≥ 0`.
///
/// This is the shape of CounterPoint's hot path: one band per confidence-region
/// axis, whose coefficient row `A_k` (`axis · generator` per flow variable) is a
/// function of the model cone and the counter-space axes only, while the bounds
/// `lo`/`hi` move from observation to observation.  A `Tableau` therefore keeps
/// the factorised state — the basis and its inverse `B⁻¹` — alive across
/// solves: [`resolve`](Tableau::resolve) after a bounds-only change starts from
/// the previous solve's basis and usually needs only a handful of dual-simplex
/// pivots instead of a full two-phase solve, [`rebind`](Tableau::rebind) swaps
/// in a new coefficient matrix of the same shape without reallocating, and
/// [`resolve_with_basis`](Tableau::resolve_with_basis) seeds the tableau with a
/// basis carried over from a structurally similar system.
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
/// classical `O(d·(p + d))` row sweep over a matrix twice that size, and a
/// bounds-only restart costs `O(d²)`.
///
/// Because the objective is identically zero, every basis is dual-feasible and
/// the dual simplex reduces to feasibility restoration: pick a row whose basic
/// value is negative, pivot on a negative entry, and stop when either no row is
/// violated (feasible) or a violated row has no negative entry (infeasible —
/// the row reads "a non-negative combination equals a negative number").
///
/// The one-shot [`LinearProgram::solve`] path is untouched; this type exists
/// for callers that answer the same feasibility question many times.
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
    /// `true` while `B⁻¹` is still the identity (all-slack basis, no pivots
    /// since the last rebind): lets `resolve` skip the `B⁻¹·b` product.
    binv_is_identity: bool,
    /// `B⁻¹·b` for the most recent bounds.
    rhs: Vec<f64>,
    /// Basic column per row (`j < num_vars`: flow `j`; otherwise slack
    /// `j − num_vars`).
    basis: Vec<usize>,
    /// `in_basis[j]` mirrors `basis` for O(1) membership tests.
    in_basis: Vec<bool>,
    /// Row that certified infeasibility on the most recent resolve, if any.
    infeasible_row: Option<usize>,
    /// Scratch: per-band multiplier differences of the leaving row.
    delta: Vec<f64>,
    /// Scratch: the leaving row's structural coefficients.
    rowbuf: Vec<f64>,
    /// Scratch: the entering column in basis coordinates (`B⁻¹·a`).
    colbuf: Vec<f64>,
    epsilon: f64,
    max_iterations: usize,
}

// PROFILING TEMP — remove before commit.
#[allow(missing_docs)]
impl Tableau {
    /// Builds a tableau for the band system `lo ≤ A·x ≤ hi` over `x ≥ 0`,
    /// starting from the all-slack basis.  `bands` holds the rows of `A`.
    ///
    /// # Panics
    ///
    /// Panics if any band row's length differs from `num_vars`.
    pub fn band(num_vars: usize, bands: &[Vec<f64>]) -> Tableau {
        let m = 2 * bands.len();
        let mut tableau = Tableau {
            num_vars,
            num_bands: bands.len(),
            bands_t: vec![0.0; num_vars * bands.len()],
            binv: vec![0.0; m * m],
            binv_is_identity: true,
            rhs: vec![0.0; m],
            basis: Vec::new(),
            in_basis: vec![false; num_vars + m],
            infeasible_row: None,
            delta: vec![0.0; bands.len()],
            rowbuf: vec![0.0; num_vars],
            colbuf: vec![0.0; m],
            epsilon: 1e-9,
            max_iterations: 50_000,
        };
        tableau.rebind(bands);
        tableau
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

    /// The current basis (one column index per row), e.g. to seed another
    /// tableau via [`resolve_with_basis`](Tableau::resolve_with_basis).
    pub fn basis(&self) -> &[usize] {
        &self.basis
    }

    /// Replaces the band matrix with one of the same shape and resets the
    /// tableau to the all-slack basis, reusing every allocation.  The batched
    /// feasibility engine calls this when the confidence-region axes change
    /// (new coefficient matrix, same dimensions).
    ///
    /// # Panics
    ///
    /// Panics if the number of bands or a row length differs from the shape the
    /// tableau was built with.
    pub fn rebind(&mut self, bands: &[Vec<f64>]) {
        assert_eq!(bands.len(), self.num_bands, "band count changed in rebind");
        let n = self.num_vars;
        let d = self.num_bands;
        for (k, src) in bands.iter().enumerate() {
            assert_eq!(
                src.len(),
                n,
                "band {k} has {} coefficients, expected {n}",
                src.len()
            );
            for (j, &a) in src.iter().enumerate() {
                self.bands_t[j * d + k] = a;
            }
        }
        self.binv.fill(0.0);
        let m = 2 * d;
        for i in 0..m {
            self.binv[i * m + i] = 1.0;
        }
        self.binv_is_identity = true;
        self.in_basis.fill(false);
        for slot in self.in_basis.iter_mut().skip(n) {
            *slot = true;
        }
        self.basis.clear();
        self.basis.extend(n..n + 2 * self.num_bands);
        self.infeasible_row = None;
        telemetry::add(telemetry::Metric::LpRefactorizations, 1);
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

    /// Decides feasibility of the band system under new bounds, warm-starting
    /// the dual simplex from the basis the previous call ended in.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::IterationLimit`] if the dual simplex fails to
    /// converge.  A warm-started caller can retry once on a fresh tableau
    /// (all-slack basis); past that, no verdict exists and the caller should
    /// report the instance as undecided rather than guess.
    ///
    /// # Panics
    ///
    /// Panics if `lo` or `hi` do not have one entry per band.
    pub fn resolve(&mut self, lo: &[f64], hi: &[f64]) -> Result<bool, LpError> {
        assert_eq!(lo.len(), self.num_bands, "lo has the wrong length");
        assert_eq!(hi.len(), self.num_bands, "hi has the wrong length");
        let m = 2 * self.num_bands;
        // rhs = B⁻¹·b for the current basis, with b in original row
        // coordinates (the ≥ side is pre-negated).
        if self.binv_is_identity {
            for k in 0..self.num_bands {
                self.rhs[2 * k] = -lo[k];
                self.rhs[2 * k + 1] = hi[k];
            }
        } else {
            for i in 0..m {
                let row = &self.binv[i * m..(i + 1) * m];
                let mut acc = 0.0;
                for k in 0..self.num_bands {
                    acc += row[2 * k] * -lo[k] + row[2 * k + 1] * hi[k];
                }
                self.rhs[i] = acc;
            }
        }
        self.restore_feasibility()
    }

    /// Like [`resolve`](Tableau::resolve), but first installs `basis` — e.g.
    /// the final basis of a structurally similar tableau — by replaying pivots.
    /// Basis columns that would make the basis singular (pivot too small) are
    /// skipped, leaving the incumbent basic column in that row.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::IterationLimit`] if the dual simplex fails to
    /// converge after the basis is installed.
    ///
    /// # Panics
    ///
    /// Panics if `basis` does not have one entry per row, or `lo`/`hi` do not
    /// have one entry per band.
    pub fn resolve_with_basis(
        &mut self,
        lo: &[f64],
        hi: &[f64],
        basis: &[usize],
    ) -> Result<bool, LpError> {
        let m = 2 * self.num_bands;
        assert_eq!(basis.len(), m, "basis has the wrong length");
        let total = self.num_vars + m;
        // Replaying a pivot with a tiny pivot element would poison B⁻¹; such
        // columns are simply not installed (the row keeps its current basic
        // variable, typically its slack).
        let pivot_tol = self.epsilon.max(1e-7);
        let mut replayed = 0u64;
        for (row, &col) in basis.iter().enumerate() {
            if col >= total || self.basis[row] == col || self.in_basis[col] {
                continue;
            }
            self.load_column(col);
            if self.colbuf[row].abs() > pivot_tol {
                self.pivot(row, col);
                replayed += 1;
            }
        }
        telemetry::add(telemetry::Metric::LpBasisReplayPivots, replayed);
        self.resolve(lo, hi)
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
        // Accept residual per-row violations up to the same threshold the
        // two-phase solver applies to its phase-1 optimum, so both paths agree
        // on borderline systems.
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
            {
                let pi = &self.binv[row * m..(row + 1) * m];
                for (k, d) in self.delta.iter_mut().enumerate() {
                    *d = pi[2 * k + 1] - pi[2 * k];
                }
            }
            let d = self.num_bands;
            for (buf, col) in self
                .rowbuf
                .iter_mut()
                .zip(self.bands_t.chunks_exact(d.max(1)))
            {
                *buf = self
                    .delta
                    .iter()
                    .zip(col.iter())
                    .map(|(dk, a)| dk * a)
                    .sum();
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
    /// is already in `colbuf`) into `row`.
    fn pivot(&mut self, row: usize, col: usize) {
        let m = 2 * self.num_bands;
        let pivot = self.colbuf[row];
        debug_assert!(pivot.abs() > 0.0, "zero pivot");
        let inv = 1.0 / pivot;
        for v in &mut self.binv[row * m..(row + 1) * m] {
            *v *= inv;
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
            // Split-borrow the pivot row from the row being updated.
            let (pivot_row, target_row) = if i < row {
                let (head, tail) = self.binv.split_at_mut(row * m);
                (&tail[..m], &mut head[i * m..(i + 1) * m])
            } else {
                let (head, tail) = self.binv.split_at_mut(i * m);
                (&head[row * m..(row + 1) * m], &mut tail[..m])
            };
            for (t, p) in target_row.iter_mut().zip(pivot_row.iter()) {
                *t -= factor * p;
            }
            self.rhs[i] -= factor * self.rhs[row];
        }
        self.binv_is_identity = false;
        self.in_basis[self.basis[row]] = false;
        self.in_basis[col] = true;
        self.basis[row] = col;
    }
}

/// Dense simplex tableau.
struct DenseTableau {
    /// rows x cols coefficient matrix (structural + slack + artificial columns).
    rows: Vec<Vec<f64>>,
    rhs: Vec<f64>,
    /// Index of the basic variable for each row.
    basis: Vec<usize>,
    num_structural: usize,
    num_total: usize,
    artificial_start: usize,
    epsilon: f64,
    max_iterations: usize,
}

impl DenseTableau {
    fn build_and_solve(lp: &LinearProgram) -> Result<LpOutcome, LpError> {
        let m = lp.constraints.len();
        let n = lp.num_vars;

        // Count extra columns: one slack/surplus per inequality, one artificial per
        // Ge/Eq row (after rhs normalisation).
        let mut norm: Vec<RowConstraint> = Vec::with_capacity(m);
        for c in &lp.constraints {
            let mut c = c.clone();
            if c.rhs < 0.0 {
                c.rhs = -c.rhs;
                for v in &mut c.coeffs {
                    *v = -*v;
                }
                c.relation = match c.relation {
                    Relation::Le => Relation::Ge,
                    Relation::Ge => Relation::Le,
                    Relation::Eq => Relation::Eq,
                };
            }
            norm.push(c);
        }

        let num_slack = norm.iter().filter(|c| c.relation != Relation::Eq).count();
        let num_artificial = norm.iter().filter(|c| c.relation != Relation::Le).count();
        let num_total = n + num_slack + num_artificial;
        let artificial_start = n + num_slack;

        let mut rows = vec![vec![0.0; num_total]; m];
        let mut rhs = vec![0.0; m];
        let mut basis = vec![0usize; m];

        let mut slack_idx = n;
        let mut art_idx = artificial_start;
        for (i, c) in norm.iter().enumerate() {
            rows[i][..n].copy_from_slice(&c.coeffs);
            rhs[i] = c.rhs;
            match c.relation {
                Relation::Le => {
                    rows[i][slack_idx] = 1.0;
                    basis[i] = slack_idx;
                    slack_idx += 1;
                }
                Relation::Ge => {
                    rows[i][slack_idx] = -1.0;
                    slack_idx += 1;
                    rows[i][art_idx] = 1.0;
                    basis[i] = art_idx;
                    art_idx += 1;
                }
                Relation::Eq => {
                    rows[i][art_idx] = 1.0;
                    basis[i] = art_idx;
                    art_idx += 1;
                }
            }
        }

        let mut tableau = DenseTableau {
            rows,
            rhs,
            basis,
            num_structural: n,
            num_total,
            artificial_start,
            epsilon: lp.epsilon,
            max_iterations: lp.max_iterations,
        };

        // Phase 1: minimise the sum of artificial variables.
        if num_artificial > 0 {
            let mut phase1_cost = vec![0.0; num_total];
            for slot in phase1_cost.iter_mut().skip(artificial_start) {
                *slot = 1.0;
            }
            let value = tableau.optimize(&phase1_cost, true)?;
            if value > lp.epsilon.max(1e-7) {
                return Ok(LpOutcome::Infeasible);
            }
            tableau.drive_out_artificials();
        }

        // Phase 2: minimise the user objective (artificials barred from entering).
        let mut cost = vec![0.0; num_total];
        cost[..n].copy_from_slice(&lp.objective);
        let value = match tableau.optimize(&cost, false)? {
            v if v.is_finite() => v,
            _ => return Ok(LpOutcome::Unbounded),
        };
        if value.is_nan() {
            return Ok(LpOutcome::Unbounded);
        }
        // Unbounded is signalled by optimize returning f64::NEG_INFINITY.
        if value == f64::NEG_INFINITY {
            return Ok(LpOutcome::Unbounded);
        }

        let mut solution = vec![0.0; n];
        for (row, &b) in tableau.basis.iter().enumerate() {
            if b < n {
                solution[b] = tableau.rhs[row];
            }
        }
        let objective = if lp.maximise { -value } else { value };
        Ok(LpOutcome::Optimal {
            objective,
            solution,
        })
    }

    /// Runs primal simplex minimising `cost`; returns the optimal objective value,
    /// `f64::NEG_INFINITY` if unbounded.
    fn optimize(&mut self, cost: &[f64], phase_one: bool) -> Result<f64, LpError> {
        // Reduced costs are computed on demand from the basis: z_j - c_j.
        let mut iterations = 0usize;
        loop {
            iterations += 1;
            if iterations > self.max_iterations {
                return Err(LpError::IterationLimit);
            }
            let use_bland = iterations > self.max_iterations / 2;

            // Compute simplex multipliers implicitly: reduced cost of column j is
            // c_j - sum_i c_B[i] * rows[i][j].
            let cb: Vec<f64> = self.basis.iter().map(|&b| cost[b]).collect();

            let mut entering: Option<usize> = None;
            let mut best = -self.epsilon;
            #[allow(clippy::needless_range_loop)]
            for j in 0..self.num_total {
                // In phase 2, artificial variables may never re-enter the basis.
                if !phase_one && j >= self.artificial_start {
                    continue;
                }
                if self.basis.contains(&j) {
                    continue;
                }
                let zj: f64 = (0..self.rows.len()).map(|i| cb[i] * self.rows[i][j]).sum();
                let reduced = cost[j] - zj;
                if use_bland {
                    if reduced < -self.epsilon {
                        entering = Some(j);
                        break;
                    }
                } else if reduced < best {
                    best = reduced;
                    entering = Some(j);
                }
            }

            let Some(enter) = entering else {
                // Optimal: compute objective value.
                let value: f64 = (0..self.rows.len()).map(|i| cb[i] * self.rhs[i]).sum();
                return Ok(value);
            };

            // Ratio test.
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for i in 0..self.rows.len() {
                let a = self.rows[i][enter];
                if a > self.epsilon {
                    let ratio = self.rhs[i] / a;
                    if ratio < best_ratio - self.epsilon
                        || (use_bland
                            && (ratio - best_ratio).abs() <= self.epsilon
                            && leave.is_some_and(|l| self.basis[i] < self.basis[l]))
                    {
                        best_ratio = ratio;
                        leave = Some(i);
                    }
                }
            }

            let Some(leave) = leave else {
                return Ok(f64::NEG_INFINITY);
            };

            self.pivot(leave, enter);
        }
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let pivot = self.rows[row][col];
        debug_assert!(pivot.abs() > 0.0, "zero pivot");
        for j in 0..self.num_total {
            self.rows[row][j] /= pivot;
        }
        self.rhs[row] /= pivot;
        for i in 0..self.rows.len() {
            if i == row {
                continue;
            }
            let factor = self.rows[i][col];
            if factor == 0.0 {
                continue;
            }
            for j in 0..self.num_total {
                self.rows[i][j] -= factor * self.rows[row][j];
            }
            self.rhs[i] -= factor * self.rhs[row];
        }
        self.basis[row] = col;
    }

    /// After phase 1, pivots any artificial variable still sitting in the basis (at
    /// value zero) out, if a non-artificial column with a non-zero coefficient
    /// exists in its row; otherwise the row is redundant and left alone.
    fn drive_out_artificials(&mut self) {
        for row in 0..self.rows.len() {
            if self.basis[row] < self.artificial_start {
                continue;
            }
            let replacement = (0..self.artificial_start)
                .find(|&j| self.rows[row][j].abs() > self.epsilon && !self.basis.contains(&j));
            if let Some(col) = replacement {
                self.pivot(row, col);
            }
        }
        let _ = self.num_structural;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    /// Decides `lo ≤ A·x ≤ hi`, `x ≥ 0` through the one-shot two-phase path,
    /// the reference the warm-started tableau must agree with.
    fn band_feasible_cold(bands: &[Vec<f64>], lo: &[f64], hi: &[f64]) -> bool {
        let mut lp = LinearProgram::new(bands[0].len());
        for (k, band) in bands.iter().enumerate() {
            lp.add_constraint(band, Relation::Ge, lo[k]);
            lp.add_constraint(band, Relation::Le, hi[k]);
        }
        lp.is_feasible()
    }

    #[test]
    fn tableau_band_matches_cold_solver() {
        // Cone generated by (1, 0) and (1, 1): y ≤ x over the non-negative
        // quadrant, probed through a batch of boxes.
        let bands = vec![vec![1.0, 1.0], vec![0.0, 1.0]];
        let cases: &[(&[f64; 2], &[f64; 2])] = &[
            (&[9.0, 3.0], &[11.0, 5.0]),   // strictly inside
            (&[9.0, 9.5], &[10.0, 10.5]),  // straddles the y = x facet
            (&[4.0, 9.0], &[5.0, 10.0]),   // y > x everywhere: infeasible
            (&[0.0, 0.0], &[0.0, 0.0]),    // the origin
            (&[-2.0, -1.0], &[-1.0, 1.0]), // x forced negative: infeasible
        ];
        let mut tableau = Tableau::band(2, &bands);
        assert_eq!(tableau.num_vars(), 2);
        assert_eq!(tableau.num_bands(), 2);
        for (lo, hi) in cases {
            let warm = tableau.resolve(*lo, *hi).unwrap();
            assert_eq!(
                warm,
                band_feasible_cold(&bands, *lo, *hi),
                "verdict mismatch for lo={lo:?} hi={hi:?}"
            );
        }
    }

    #[test]
    fn tableau_warm_restart_reuses_basis() {
        // A drifting sequence of boxes: after the first solve, later solves
        // should start from the previous basis and still be correct.
        let bands = vec![
            vec![2.0, 1.0, 0.0],
            vec![0.0, 1.0, 3.0],
            vec![1.0, 1.0, 1.0],
        ];
        let mut tableau = Tableau::band(3, &bands);
        for step in 0..40 {
            let t = step as f64;
            let lo = [5.0 + t, 2.0 + 0.5 * t, 3.0 + t];
            let hi = [7.0 + t, 4.0 + 0.5 * t, 4.0 + t];
            assert_eq!(
                tableau.resolve(&lo, &hi).unwrap(),
                band_feasible_cold(&bands, &lo, &hi),
                "step {step}"
            );
        }
    }

    #[test]
    fn tableau_resolve_with_basis_seeds_a_fresh_tableau() {
        let bands = vec![vec![1.0, 1.0], vec![0.0, 1.0]];
        let mut first = Tableau::band(2, &bands);
        assert!(first.resolve(&[9.0, 3.0], &[11.0, 5.0]).unwrap());
        let basis: Vec<usize> = first.basis().to_vec();

        let mut second = Tableau::band(2, &bands);
        assert!(second
            .resolve_with_basis(&[9.5, 3.5], &[10.5, 4.5], &basis)
            .unwrap());
        assert!(!second
            .resolve_with_basis(&[4.0, 9.0], &[5.0, 10.0], &basis)
            .unwrap());
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
        let mut tableau = Tableau::band(2, &bands);
        assert!(tableau.resolve(&[10.0, 0.0], &[10.0, 4.0]).unwrap());
        // x + y = 10 with y ≥ 12 is impossible.
        assert!(!tableau.resolve(&[10.0, 12.0], &[10.0, 14.0]).unwrap());
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
    fn simple_maximisation() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> optimum 36 at (2, 6).
        let mut lp = LinearProgram::new(2);
        lp.add_constraint(&[1.0, 0.0], Relation::Le, 4.0);
        lp.add_constraint(&[0.0, 2.0], Relation::Le, 12.0);
        lp.add_constraint(&[3.0, 2.0], Relation::Le, 18.0);
        lp.set_objective_maximize(&[3.0, 5.0]);
        match lp.solve() {
            LpOutcome::Optimal {
                objective,
                solution,
            } => {
                assert_close(objective, 36.0);
                assert_close(solution[0], 2.0);
                assert_close(solution[1], 6.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn simple_minimisation_with_ge() {
        // min 2x + 3y s.t. x + y >= 4, x >= 1 -> optimum at (4, 0) value 8.
        let mut lp = LinearProgram::new(2);
        lp.add_constraint(&[1.0, 1.0], Relation::Ge, 4.0);
        lp.add_constraint(&[1.0, 0.0], Relation::Ge, 1.0);
        lp.set_objective_minimize(&[2.0, 3.0]);
        match lp.solve() {
            LpOutcome::Optimal {
                objective,
                solution,
            } => {
                assert_close(objective, 8.0);
                assert_close(solution[0], 4.0);
                assert_close(solution[1], 0.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y = 4, x - y = 1 -> x = 2, y = 1, value 3.
        let mut lp = LinearProgram::new(2);
        lp.add_constraint(&[1.0, 2.0], Relation::Eq, 4.0);
        lp.add_constraint(&[1.0, -1.0], Relation::Eq, 1.0);
        lp.set_objective_minimize(&[1.0, 1.0]);
        match lp.solve() {
            LpOutcome::Optimal {
                objective,
                solution,
            } => {
                assert_close(objective, 3.0);
                assert_close(solution[0], 2.0);
                assert_close(solution[1], 1.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn infeasible_program() {
        // x <= 1 and x >= 2 cannot both hold.
        let mut lp = LinearProgram::new(1);
        lp.add_constraint(&[1.0], Relation::Le, 1.0);
        lp.add_constraint(&[1.0], Relation::Ge, 2.0);
        assert_eq!(lp.solve(), LpOutcome::Infeasible);
        assert!(!lp.is_feasible());
    }

    #[test]
    fn infeasible_due_to_nonnegativity() {
        // x + y <= -1 with x, y >= 0 is infeasible.
        let mut lp = LinearProgram::new(2);
        lp.add_constraint(&[1.0, 1.0], Relation::Le, -1.0);
        assert_eq!(lp.solve(), LpOutcome::Infeasible);
    }

    #[test]
    fn unbounded_program() {
        // max x with only x >= 1 is unbounded.
        let mut lp = LinearProgram::new(1);
        lp.add_constraint(&[1.0], Relation::Ge, 1.0);
        lp.set_objective_maximize(&[1.0]);
        assert_eq!(lp.solve(), LpOutcome::Unbounded);
    }

    #[test]
    fn pure_feasibility_problem() {
        let mut lp = LinearProgram::new(3);
        lp.add_constraint(&[1.0, 1.0, 1.0], Relation::Eq, 10.0);
        lp.add_constraint(&[1.0, 0.0, 0.0], Relation::Ge, 2.0);
        lp.add_constraint(&[0.0, 1.0, 0.0], Relation::Le, 5.0);
        assert!(lp.is_feasible());
        match lp.solve() {
            LpOutcome::Optimal { solution, .. } => {
                let sum: f64 = solution.iter().sum();
                assert_close(sum, 10.0);
                assert!(solution[0] >= 2.0 - 1e-7);
                assert!(solution[1] <= 5.0 + 1e-7);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn negative_rhs_is_normalised() {
        // -x <= -3  <=>  x >= 3.
        let mut lp = LinearProgram::new(1);
        lp.add_constraint(&[-1.0], Relation::Le, -3.0);
        lp.set_objective_minimize(&[1.0]);
        match lp.solve() {
            LpOutcome::Optimal { objective, .. } => assert_close(objective, 3.0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn degenerate_vertex_is_handled() {
        // Multiple constraints meeting at the same vertex.
        let mut lp = LinearProgram::new(2);
        lp.add_constraint(&[1.0, 0.0], Relation::Le, 1.0);
        lp.add_constraint(&[0.0, 1.0], Relation::Le, 1.0);
        lp.add_constraint(&[1.0, 1.0], Relation::Le, 2.0);
        lp.add_constraint(&[1.0, -1.0], Relation::Le, 0.0);
        lp.set_objective_maximize(&[1.0, 1.0]);
        match lp.solve() {
            LpOutcome::Optimal { objective, .. } => assert_close(objective, 2.0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn solution_accessor() {
        let mut lp = LinearProgram::new(1);
        lp.add_constraint(&[1.0], Relation::Le, 5.0);
        lp.set_objective_maximize(&[1.0]);
        let out = lp.solve();
        assert!(out.is_feasible());
        assert_close(out.solution().unwrap()[0], 5.0);
        assert_eq!(LpOutcome::Infeasible.solution(), None);
    }

    #[test]
    fn cone_membership_as_lp() {
        // Is (5, 2) a non-negative combination of (1, 0) and (1, 1)?  (yes: 3, 2)
        let mut lp = LinearProgram::new(2);
        lp.add_constraint(&[1.0, 1.0], Relation::Eq, 5.0);
        lp.add_constraint(&[0.0, 1.0], Relation::Eq, 2.0);
        assert!(lp.is_feasible());

        // Is (1, 2)?  (no: would need negative flow on the first generator)
        let mut lp2 = LinearProgram::new(2);
        lp2.add_constraint(&[1.0, 1.0], Relation::Eq, 1.0);
        lp2.add_constraint(&[0.0, 1.0], Relation::Eq, 2.0);
        assert!(!lp2.is_feasible());
    }

    #[test]
    fn many_variables_feasibility() {
        // A wide problem similar in shape to μpath-flow feasibility: 300 flow
        // variables, 10 equality constraints.
        let n = 300;
        let mut lp = LinearProgram::new(n);
        for c in 0..10 {
            let coeffs: Vec<f64> = (0..n).map(|j| ((j + c) % 5) as f64).collect();
            lp.add_constraint(&coeffs, Relation::Le, 1000.0);
        }
        let obj: Vec<f64> = (0..n).map(|j| (j % 7) as f64).collect();
        lp.set_objective_maximize(&obj);
        match lp.solve() {
            LpOutcome::Optimal { objective, .. } => assert!(objective > 0.0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "expected 2")]
    fn wrong_dimension_panics() {
        let mut lp = LinearProgram::new(2);
        lp.add_constraint(&[1.0], Relation::Le, 1.0);
    }

    #[test]
    fn error_display() {
        let e = LpError::DimensionMismatch {
            expected: 3,
            found: 2,
        };
        assert!(e.to_string().contains("expected 3"));
        assert!(LpError::IterationLimit.to_string().contains("iteration"));
    }
}
