//! Batched feasibility testing: the warm-started engine behind CounterPoint's
//! hot loop.
//!
//! A refutation campaign asks the same structural question thousands of times:
//! for each model cone and each observation, does the observation's confidence
//! region intersect the cone?  [`FeasibilityChecker::is_feasible`] answers one
//! instance from scratch — it recomputes the `axis · generator` coefficient
//! matrix (a function of the cone and the counter-space axes only) and runs a
//! cold dual simplex from the all-slack basis.  [`BatchFeasibility`] amortises
//! both across a campaign:
//!
//! * the coefficient matrix is computed **once per (cone, axes) pair** and
//!   reused for every observation sharing those axes (all exact observations
//!   share the coordinate axes; repeated measurements of one workload share
//!   their region's principal axes), and
//! * the LP is kept alive as a warm [`Tableau`]: when only the bounds move the
//!   dual simplex restarts from the previous observation's basis
//!   ([`Tableau::resolve`]; [`Tableau::resolve_with_basis`] also lets a caller
//!   seed a fresh tableau with a recorded basis), and a handful of pivots
//!   replace a full cold solve, and
//! * verdicts of past solves are recycled: Farkas separating directions and
//!   scaled cone-point witness rays settle many observations in `O(d²)`
//!   without touching the LP at all.
//!
//! Verdicts are identical to the per-observation checker: the two paths share
//! the row-construction arithmetic bit for bit, and every verdict the warm
//! tableau does not settle — the checker's own, a thin-margin tier-1 verdict,
//! a warm solve that fails to converge — comes from one cold solve built only
//! from the cone and the observation.  If that cold solve fails to converge
//! too, the verdict is [`FeasibilityVerdict::Inconclusive`].  Only the work to
//! reach a verdict changes.  [`check_models`] fans a model family ×
//! observation matrix across `std::thread` workers with the same deterministic
//! pattern the `counterpoint-collect` campaign runner uses: results land in
//! model order no matter how many workers run or which finishes first.
//!
//! [`FeasibilityChecker::is_feasible`]: crate::FeasibilityChecker::is_feasible

use crate::cone::ModelCone;
use crate::feasibility::{observation_scale, row_bounds, ConeMatrix};
use crate::observation::Observation;
use counterpoint_lp::{FactorTableau, Tableau};
use counterpoint_numeric::Rational;
use counterpoint_stats::ConfidenceRegion;
use counterpoint_telemetry as telemetry;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The evidence-carrying outcome of testing one observation against one model
/// cone: the refute-or-accept decision plus the artifact that proves it.
///
/// [`BatchFeasibility::is_feasible`] answers the same question as a bare
/// `bool`; [`BatchFeasibility::verdict`] returns this type instead, surfacing
/// the Farkas certificates and witness points the engine already computes
/// internally.  The `counterpoint-session` crate builds its `Verdict` matrix
/// from these.
#[derive(Clone, Debug, PartialEq)]
pub enum FeasibilityVerdict {
    /// The confidence region intersects the model cone.
    Feasible {
        /// A counter-space cone point inside the observation's confidence
        /// region (up to the LP's feasibility tolerance): the non-negative
        /// μpath-flow combination `Σ fⱼ·gⱼ` the solver found.
        witness: Vec<f64>,
    },
    /// The confidence region does not intersect the model cone.
    Refuted {
        /// A counter-space separating direction `c` (unit ∞-norm) with
        /// `c · g ≥ 0` for every cone generator — re-verified against the
        /// generators before being returned — while the whole confidence
        /// region lies on the negative side: a Farkas certificate of the
        /// refutation, checkable without re-running the LP.  Empty only if
        /// certificate extraction failed numerically (the verdict itself is
        /// still sound).
        certificate: Vec<f64>,
    },
    /// No verdict could be reached: the dual simplex failed to converge, and
    /// so did its one cold restart from the all-slack basis.  The bool-returning
    /// [`BatchFeasibility::is_feasible`] resolves this as not-refuted (no
    /// certificate exists); the verdict path reports it explicitly so a
    /// session can record the gap and move on.  Each occurrence increments
    /// the `lp_inconclusive_verdicts` telemetry counter.
    Inconclusive {
        /// Why the decision could not be made.
        reason: String,
    },
}

impl FeasibilityVerdict {
    /// `true` for [`FeasibilityVerdict::Feasible`].
    pub fn is_feasible(&self) -> bool {
        matches!(self, FeasibilityVerdict::Feasible { .. })
    }

    /// `true` for [`FeasibilityVerdict::Refuted`].
    pub fn is_refuted(&self) -> bool {
        matches!(self, FeasibilityVerdict::Refuted { .. })
    }

    /// The Farkas certificate of a refuted verdict, if any was extracted.
    pub fn certificate(&self) -> Option<&[f64]> {
        match self {
            FeasibilityVerdict::Refuted { certificate } if !certificate.is_empty() => {
                Some(certificate)
            }
            _ => None,
        }
    }

    /// The witness cone point of a feasible verdict, if any was extracted.
    pub fn witness(&self) -> Option<&[f64]> {
        match self {
            FeasibilityVerdict::Feasible { witness } if !witness.is_empty() => Some(witness),
            _ => None,
        }
    }
}

/// Upper bound on cached Farkas certificates per engine (MRU order).
const MAX_CERTIFICATES: usize = 8;

/// Upper bound on cached feasibility witness rays per engine (MRU order).
const MAX_WITNESS_RAYS: usize = 8;

/// An infeasible observation must sit at least this many multiples of the
/// observation scale outside the cone (along a cached certificate direction)
/// for the certificate to short-circuit the LP.  The margin is ~10× the LP's
/// own feasibility slop, so a certificate hit is always a verdict the LP would
/// have reached too.  The lattice-search engine applies the same margin when
/// it prunes models with certificates cached from other models.
pub(crate) const CERTIFICATE_MARGIN: f64 = 1e-6;

/// The observation-independent state cached for the most recent confidence
///-region axes: the equilibrated coefficient matrix and the warm solvers.
///
/// `tableau` is the exact tier-2 engine — the historical dense-`B⁻¹` dual
/// simplex every piece of returned evidence flows through, byte-identical to
/// the pre-two-tier engine.  `fast` is the tier-1 factorized solver the
/// no-evidence decision path runs on; it is built lazily on the first
/// decision solve so pure evidence engines never pay for it.
#[derive(Clone, Debug)]
struct AxesCache {
    axes: Vec<Vec<f64>>,
    /// Whether `axes` is the identity basis — lets the per-observation cache
    /// check skip the `O(d²)` axes comparison for exact observations, which
    /// all share the standard axes.
    standard: bool,
    matrix: ConeMatrix,
    tableau: Tableau,
    fast: Option<FactorTableau>,
}

/// Warm-started feasibility testing of many observations against one model
/// cone.
///
/// Construction mirrors [`FeasibilityChecker::new`]; the difference is that
/// [`is_feasible`](BatchFeasibility::is_feasible) takes `&mut self` so the
/// engine can keep the factorised LP state alive between calls.  Use it
/// whenever more than a handful of observations are tested against the same
/// cone — [`FeasibilityChecker::count_infeasible`], [`check_models`] and the
/// session layer already route through it.
///
/// [`FeasibilityChecker::new`]: crate::FeasibilityChecker::new
/// [`FeasibilityChecker::count_infeasible`]: crate::FeasibilityChecker::count_infeasible
///
/// # Example
///
/// ```
/// use counterpoint_core::{BatchFeasibility, ModelCone, Observation};
/// use counterpoint_mudd::{CounterSignature, CounterSpace};
///
/// let space = CounterSpace::new(&["x", "y"]);
/// let cone = ModelCone::from_signatures(
///     "demo",
///     &space,
///     vec![
///         CounterSignature::from_counts(vec![1, 0]),
///         CounterSignature::from_counts(vec![1, 1]),
///     ],
///     2,
/// );
/// let mut batch = BatchFeasibility::new(&cone);
/// let observations = vec![
///     Observation::exact("inside", &[10.0, 4.0]),
///     Observation::exact("outside", &[4.0, 10.0]),
/// ];
/// assert_eq!(batch.check_all(&observations), vec![true, false]);
/// assert_eq!(batch.count_infeasible(&observations), 1);
/// ```
#[derive(Clone, Debug)]
pub struct BatchFeasibility<'a> {
    cone: &'a ModelCone,
    /// The generators as dense `f64` vectors, in LP column order.  Borrowed
    /// from the cone's memoized conversion, like `sparse`.
    generators: &'a [Vec<f64>],
    /// Non-zero generator entries in index order — μpath signatures are
    /// sparse, so the per-observation coefficient matmul iterates only these.
    sparse: &'a [Vec<(usize, f64)>],
    cache: Option<AxesCache>,
    /// Counter-space separating directions harvested from past infeasible
    /// solves (unit ∞-norm, `c · g ≥ 0` for every generator), most recently
    /// useful first.  An observation whose region lies strictly on the
    /// negative side of any of them is infeasible without touching the LP.
    certificates: Vec<Vec<f64>>,
    /// Cone points harvested from past feasible solves, as unit ∞-norm ray
    /// directions, most recently useful first.  The cone is closed under
    /// positive scaling, so if a scaled ray pierces the new observation's
    /// bounding box the observation is feasible without touching the LP.
    witness_rays: Vec<Vec<f64>>,
    /// The support of each cached witness ray (indices of the generators its
    /// flow combination used), kept in lockstep with `witness_rays`.  A ray is
    /// provably inside any *other* cone that contains every support
    /// generator, which is how the lattice search reuses rays across models.
    witness_supports: Vec<Vec<usize>>,
    /// Scratch bounds, reused across observations.
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// A basis handed down from a parent engine (see
    /// [`set_warm_basis`](BatchFeasibility::set_warm_basis)): applied to the
    /// first tableau built for exactly these axes, then discarded.
    warm_basis: Option<(Vec<Vec<f64>>, Vec<usize>)>,
    /// The armed half of `warm_basis`: consumed by the next resolve.
    pending_basis: Option<Vec<usize>>,
}

impl<'a> BatchFeasibility<'a> {
    /// Prepares a batched engine for the given model cone.
    pub fn new(cone: &'a ModelCone) -> BatchFeasibility<'a> {
        let generators = cone.generators_f64();
        BatchFeasibility {
            cone,
            generators: &generators.dense,
            sparse: &generators.sparse,
            cache: None,
            certificates: Vec::new(),
            witness_rays: Vec::new(),
            witness_supports: Vec::new(),
            lo: Vec::new(),
            hi: Vec::new(),
            warm_basis: None,
            pending_basis: None,
        }
    }

    /// The model cone under test.
    pub fn cone(&self) -> &ModelCone {
        self.cone
    }

    /// The cone generators as dense `f64` vectors, in LP column order — the
    /// ordering [`basis_handoff`](BatchFeasibility::basis_handoff) bases refer
    /// to.
    pub(crate) fn generator_vectors(&self) -> &[Vec<f64>] {
        self.generators
    }

    /// Verifies that a Farkas separating direction — typically harvested from
    /// *another* model's refutation — also applies to this cone: every
    /// generator must lie on the non-negative side of the direction (within
    /// the engine's strict tolerance).  This is the `O(d · nnz)`
    /// cone-containment check the lattice search runs before reusing a
    /// certificate to prune a submodel without touching the LP: if it holds,
    /// any observation the direction separates is infeasible for this model
    /// too.
    pub fn certificate_applies(&self, direction: &[f64]) -> bool {
        direction.len() == self.cone.dimension() && certificate_is_sound(self.sparse, direction)
    }

    /// The current warm tableau state — the cached confidence-region axes and
    /// the dual-simplex basis the last solve ended in — for handing to a
    /// structurally related engine via
    /// [`set_warm_basis`](BatchFeasibility::set_warm_basis).  `None` before
    /// the first LP touch.  Basis entries index this engine's columns:
    /// structural flows first (one per generator, in
    /// generator order), then the band slacks.
    pub fn basis_handoff(&self) -> Option<(Vec<Vec<f64>>, Vec<usize>)> {
        self.cache.as_ref().map(|cache| {
            // Decision engines solve on the tier-1 factorization; its basis
            // uses the same column numbering, so the handoff survives the
            // representation change.  Evidence engines never build `fast` and
            // keep handing off the exact tableau's basis.
            let basis = match cache.fast.as_ref() {
                Some(fast) => fast.basis().to_vec(),
                None => cache.tableau.basis().to_vec(),
            };
            (cache.axes.clone(), basis)
        })
    }

    /// Seeds the first tableau built for exactly `axes` with `basis` — e.g. a
    /// parent model's final basis from
    /// [`basis_handoff`](BatchFeasibility::basis_handoff), with structural
    /// columns re-indexed into this engine's generator order (unmappable
    /// columns may be marked `usize::MAX`; they are skipped during
    /// installation and the affected rows keep their slack).  Only the pivot
    /// count changes: the dual simplex restores feasibility from whatever
    /// basis is installed, and the engine still restarts cold on
    /// non-convergence.
    ///
    /// # Panics
    ///
    /// Panics if `basis` does not have `2 · axes.len()` entries.
    pub fn set_warm_basis(&mut self, axes: Vec<Vec<f64>>, basis: Vec<usize>) {
        assert_eq!(
            basis.len(),
            2 * axes.len(),
            "a band system over {} axes has {} rows",
            axes.len(),
            2 * axes.len()
        );
        self.warm_basis = Some((axes, basis));
        self.pending_basis = None;
    }

    /// Returns `true` if the observation's confidence region intersects the
    /// model cone.  Agrees with [`FeasibilityChecker::is_feasible`] on every
    /// input; reuses the cached coefficient matrix and warm LP basis where the
    /// per-observation checker starts from scratch.
    ///
    /// # Panics
    ///
    /// Panics if the observation's dimension differs from the cone's.
    ///
    /// LP non-convergence (pathological cycling, on the warm solve and its
    /// cold restart) does *not* panic: a refutation needs a Farkas
    /// certificate and none exists, so the observation deterministically
    /// counts as not refuted (`true`), mirrored by
    /// [`FeasibilityChecker::is_feasible`].  Callers that need to distinguish
    /// this case use [`verdict`](BatchFeasibility::verdict) or
    /// [`decide_lenient`](BatchFeasibility::decide_lenient), which surface it
    /// as [`FeasibilityVerdict::Inconclusive`].
    ///
    /// [`FeasibilityChecker::is_feasible`]: crate::FeasibilityChecker::is_feasible
    pub fn is_feasible(&mut self, observation: &Observation) -> bool {
        not_refuted(&self.decide(observation, false))
    }

    /// The cheapest verdict-level decision: the same no-evidence work as
    /// [`is_feasible`](BatchFeasibility::is_feasible) (no witness or
    /// certificate reconstruction, no allocation on the hot path), but LP
    /// non-convergence surfaces as [`FeasibilityVerdict::Inconclusive`]
    /// instead of being folded into the bool.  The lattice-search sweeps run
    /// on this and drain the engine's internally harvested certificates once
    /// per model.
    pub fn decide_lenient(&mut self, observation: &Observation) -> FeasibilityVerdict {
        self.decide(observation, false)
    }

    /// Like [`is_feasible`](BatchFeasibility::is_feasible), but returns the
    /// evidence-carrying [`FeasibilityVerdict`]: the witness cone point of a
    /// feasible test, or the Farkas separating direction of a refutation.
    /// The decision agrees with `is_feasible` on every input (the two share
    /// one code path); only the extracted evidence differs.
    ///
    /// # Panics
    ///
    /// Panics if the observation's dimension differs from the cone's.
    pub fn verdict(&mut self, observation: &Observation) -> FeasibilityVerdict {
        self.decide(observation, true)
    }

    /// The shared decision procedure behind [`is_feasible`] and [`verdict`]:
    /// with `want_evidence = false` the returned verdict carries empty
    /// evidence vectors (no allocation) and the hot path does exactly the
    /// historical work; with `true` it additionally reconstructs the witness
    /// point or folds the Farkas multipliers into a counter-space certificate.
    ///
    /// [`is_feasible`]: BatchFeasibility::is_feasible
    /// [`verdict`]: BatchFeasibility::verdict
    fn decide(&mut self, observation: &Observation, want_evidence: bool) -> FeasibilityVerdict {
        assert_eq!(
            observation.dimension(),
            self.cone.dimension(),
            "observation and model must share a counter space"
        );
        let dim = self.cone.dimension();
        let region = observation.region();

        // Degenerate cone: only the origin is producible.
        if self.sparse.is_empty() {
            return if region.contains(&vec![0.0; dim]) {
                let witness = if want_evidence {
                    vec![0.0; dim]
                } else {
                    Vec::new()
                };
                FeasibilityVerdict::Feasible { witness }
            } else {
                let certificate = if want_evidence {
                    origin_separator(region)
                } else {
                    Vec::new()
                };
                FeasibilityVerdict::Refuted { certificate }
            };
        }

        let scale = observation_scale(region);

        // Certificate short-circuit: if the whole confidence region sits
        // strictly on the negative side of a cached separating direction, no
        // non-negative flow can reach it — infeasible without building the LP.
        let margin = CERTIFICATE_MARGIN * scale;
        if let Some(hit) = self
            .certificates
            .iter()
            .position(|c| region.interval_along(c).1 < -margin)
        {
            telemetry::add(telemetry::Metric::CertificatePrunes, 1);
            // Most recently useful certificate first.
            self.certificates[..=hit].rotate_right(1);
            let certificate = if want_evidence {
                self.certificates[0].clone()
            } else {
                Vec::new()
            };
            return FeasibilityVerdict::Refuted { certificate };
        }

        // Witness short-circuit: the cone is closed under positive scaling, so
        // if some `t ≥ 0` puts `t · ray` inside the region's bounding box for
        // a previously harvested cone ray, the observation is feasible.
        if let Some(hit) = self
            .witness_rays
            .iter()
            .position(|ray| ray_pierces_box(ray, region, margin))
        {
            telemetry::add(telemetry::Metric::WitnessRaySettlements, 1);
            self.witness_rays[..=hit].rotate_right(1);
            self.witness_supports[..=hit].rotate_right(1);
            let witness = if want_evidence {
                witness_on_ray(&self.witness_rays[0], region, margin).unwrap_or_default()
            } else {
                Vec::new()
            };
            return FeasibilityVerdict::Feasible { witness };
        }

        let num_flows = self.sparse.len();
        let axes_match = self.cache.as_ref().is_some_and(|cache| {
            (cache.standard && region.standard_axes()) || cache.axes.as_slice() == region.axes()
        });
        telemetry::add(
            if axes_match {
                telemetry::Metric::CoefficientCacheHits
            } else {
                telemetry::Metric::CoefficientCacheMisses
            },
            1,
        );
        if !axes_match {
            match self.cache.as_mut() {
                // Same shape: rebuild the coefficient matrix and refill the
                // tableau in place — no allocation on the steady-state path.
                //
                // The previous basis is deliberately *not* carried across an
                // axes change (via `resolve_with_basis`): installing each
                // structural column into the fresh factorisation costs one
                // pivot, which measures as a net loss against simply running
                // the handful of dual pivots from the all-slack basis — and
                // cold-starting keeps this path's arithmetic bit-identical to
                // `FeasibilityChecker::is_feasible`.  Warm starts pay off on
                // the bounds-only path below, where the factorisation itself
                // survives.
                Some(cache) if cache.tableau.num_bands() == region.axes().len() => {
                    cache.matrix.build_sparse_into(region.axes(), self.sparse);
                    cache.tableau.rebind(&cache.matrix.rows);
                    if let Some(fast) = cache.fast.as_mut() {
                        fast.rebind(&cache.matrix.rows);
                    }
                    clone_axes_into(&mut cache.axes, region.axes());
                    cache.standard = region.standard_axes();
                }
                _ => {
                    let mut matrix = ConeMatrix::empty();
                    matrix.build_sparse_into(region.axes(), self.sparse);
                    let tableau = Tableau::band(num_flows, &matrix.rows);
                    self.cache = Some(AxesCache {
                        axes: region.axes().to_vec(),
                        standard: region.standard_axes(),
                        matrix,
                        tableau,
                        fast: None,
                    });
                }
            }
            // A handed-down parent basis applies once, to the first tableau
            // whose axes match it exactly (the fresh tableau starts all-slack
            // either way, so arming it here is sound on both branches above).
            if self
                .warm_basis
                .as_ref()
                .is_some_and(|(axes, _)| axes.as_slice() == region.axes())
            {
                let (_, basis) = self.warm_basis.take().expect("warm basis just matched");
                self.pending_basis = Some(basis);
            }
        }

        let cache = self.cache.as_mut().expect("cache was just populated");
        let bands = cache.matrix.rows.len();
        self.lo.clear();
        self.hi.clear();
        for k in 0..bands {
            let (lo, hi) = row_bounds(region, &cache.matrix, k, scale);
            self.lo.push(lo);
            self.hi.push(hi);
        }

        // On matching axes the factorisation is still valid and only the
        // bounds moved: `resolve` warm-starts the dual simplex from the basis
        // the previous observation ended in.  After an axes change the rebind
        // above reset to the all-slack basis and this is a cold start — unless
        // a parent engine handed its final basis down for these axes, in which
        // case that basis is replayed first.

        if !want_evidence {
            // Tier 1: the factorized f64 solver decides, and only verdicts
            // whose terminal margin is comfortably wide are trusted.  Thin
            // margins escalate to the cold tier-2 solve
            // `FeasibilityChecker::is_feasible` runs, so the agreement
            // contract holds exactly where fast arithmetic is shakiest.
            // Evidence solves never come through here — the warm tier-2
            // tableau below stays the engine of record for Report bytes.
            if cache.fast.is_none() {
                cache.fast = Some(FactorTableau::band(num_flows, &cache.matrix.rows));
            }
            let fast = cache.fast.as_mut().expect("tier-1 solver just built");
            let outcome = match self.pending_basis.take() {
                Some(basis) => fast.resolve_with_basis(&self.lo, &self.hi, &basis),
                None => fast.resolve(&self.lo, &self.hi),
            };
            let verdict = match outcome {
                Ok(out) if out.confident => {
                    if out.feasible {
                        self.harvest_feasible_fast();
                        FeasibilityVerdict::Feasible {
                            witness: Vec::new(),
                        }
                    } else {
                        self.harvest_refuted_fast(region);
                        FeasibilityVerdict::Refuted {
                            certificate: Vec::new(),
                        }
                    }
                }
                Ok(_) => {
                    telemetry::add(telemetry::Metric::LpTier2Escalations, 1);
                    self.escalate_exact(region, scale)
                }
                Err(_) => self.cold_fallback(observation, region, scale, false),
            };
            return verdict;
        }

        let outcome = match self.pending_basis.take() {
            Some(basis) => cache.tableau.resolve_with_basis(&self.lo, &self.hi, &basis),
            None => cache.tableau.resolve(&self.lo, &self.hi),
        };

        match outcome {
            Ok(true) => {
                let witness = self.conclude_feasible(scale, want_evidence);
                FeasibilityVerdict::Feasible { witness }
            }
            Ok(false) => {
                let certificate = self.conclude_refuted(region, want_evidence);
                FeasibilityVerdict::Refuted { certificate }
            }
            Err(_) => self.cold_fallback(observation, region, scale, want_evidence),
        }
    }

    /// The one cold restart after a warm solve cycled out of its iteration
    /// budget, shared by both tiers: drop the poisoned warm state and answer
    /// exactly like the per-observation checker does, from a fresh
    /// [`ColdSolve`].  If that solve fails to converge too, the verdict is
    /// [`FeasibilityVerdict::Inconclusive`].
    fn cold_fallback(
        &mut self,
        observation: &Observation,
        region: &ConfidenceRegion,
        scale: f64,
        want_evidence: bool,
    ) -> FeasibilityVerdict {
        telemetry::add(telemetry::Metric::ColdSolverFallbacks, 1);
        let _span = telemetry::span("lp_cold_solve", observation.name());
        self.cache = None;
        let dim = self.cone.dimension();
        let mut cold = ColdSolve::new(self.sparse, region, scale);
        match cold.solve() {
            FeasibilityVerdict::Feasible { .. } if want_evidence => {
                let (raw, _) = flow_combination(self.sparse, cold.tableau.basic_flows(), dim);
                FeasibilityVerdict::Feasible {
                    witness: raw.iter().map(|v| v * scale).collect(),
                }
            }
            FeasibilityVerdict::Refuted { .. } if want_evidence => FeasibilityVerdict::Refuted {
                certificate: sound_certificate(self.sparse, region, &cold.matrix, &cold.tableau)
                    .unwrap_or_default(),
            },
            verdict => verdict,
        }
    }

    /// Wraps up a feasible warm solve: reconstructs the counter-space cone
    /// point of the solution the tableau just found (`y* = Σ f_j · g_j` over
    /// the basic flows) and caches its unit-norm ray for future feasible
    /// short-circuits.  The flow values are only positively scaled relative to
    /// the raw problem, so the cached ray's direction — all that matters — is
    /// unchanged; the returned witness carries the real magnitudes.
    fn conclude_feasible(&mut self, scale: f64, want_evidence: bool) -> Vec<f64> {
        if !want_evidence && self.witness_rays.len() >= MAX_WITNESS_RAYS {
            return Vec::new();
        }
        let Some(cache) = self.cache.as_ref() else {
            return Vec::new();
        };
        // Accumulate the *unscaled* flow combination first: the cached ray is
        // normalised from it, and the returned witness re-applies the
        // observation scale afterwards.
        let (raw, support) = flow_combination(
            self.sparse,
            cache.tableau.basic_flows(),
            self.cone.dimension(),
        );
        let witness = if want_evidence {
            raw.iter().map(|v| v * scale).collect()
        } else {
            Vec::new()
        };
        self.push_witness_ray(&raw, support);
        witness
    }

    /// Wraps up an infeasible warm solve: folds the tableau's Farkas
    /// multipliers into a counter-space separating direction, caches it for
    /// future short-circuits and (on the verdict path) returns it.
    ///
    /// The stuck dual row gives `π ≥ 0` with `π · [A|S] ≥ 0` and `π · b < 0`.
    /// Folding the per-band multiplier difference back through the axes yields
    /// `c = Σ_k (π_{2k+1} − π_{2k}) / bound_div_k · axis_k` with `c · g ≥ 0`
    /// for every generator `g` — a property of the cone alone, so the
    /// certificate stays valid for every future observation.  The direction is
    /// re-verified against the generators before caching or returning (the
    /// multipliers are only non-negative up to the solver tolerance).
    fn conclude_refuted(&mut self, region: &ConfidenceRegion, want_evidence: bool) -> Vec<f64> {
        if !want_evidence && self.certificates.len() >= MAX_CERTIFICATES {
            return Vec::new();
        }
        let Some(cache) = self.cache.as_ref() else {
            return Vec::new();
        };
        let Some(direction) = sound_certificate(self.sparse, region, &cache.matrix, &cache.tableau)
        else {
            return Vec::new();
        };
        let certificate = if want_evidence {
            direction.clone()
        } else {
            Vec::new()
        };
        self.push_certificate(direction);
        certificate
    }

    /// Escalates a near-degenerate tier-1 verdict to the cold tier-2 solve —
    /// the arithmetic `FeasibilityChecker::is_feasible` runs, bit for bit —
    /// and harvests its evidence into the short-circuit pools so the
    /// escalation still pays forward.  This solve already starts cold, so
    /// non-convergence ends the chain as [`FeasibilityVerdict::Inconclusive`].
    fn escalate_exact(&mut self, region: &ConfidenceRegion, scale: f64) -> FeasibilityVerdict {
        let dim = self.cone.dimension();
        let mut cold = ColdSolve::new(self.sparse, region, scale);
        let verdict = cold.solve();
        match verdict {
            FeasibilityVerdict::Feasible { .. } => {
                let (raw, support) = flow_combination(self.sparse, cold.tableau.basic_flows(), dim);
                self.push_witness_ray(&raw, support);
            }
            FeasibilityVerdict::Refuted { .. } => {
                if let Some(direction) =
                    sound_certificate(self.sparse, region, &cold.matrix, &cold.tableau)
                {
                    self.push_certificate(direction);
                }
            }
            FeasibilityVerdict::Inconclusive { .. } => {}
        }
        verdict
    }

    /// Wraps up a confidently feasible tier-1 solve: harvests the factorized
    /// tableau's flow combination into the witness-ray pool (the same
    /// `f > 1e-9` support filter as the exact harvest).  When the smallest
    /// included flow sits near that inclusion threshold, the combination is
    /// recomputed in exact rational arithmetic before the ray is trusted —
    /// the margin-triggered recertification of the witness machinery.  On
    /// overflow or disagreement the ray is simply not cached; the verdict is
    /// unaffected.
    fn harvest_feasible_fast(&mut self) {
        if self.witness_rays.len() >= MAX_WITNESS_RAYS {
            return;
        }
        let Some(fast) = self.cache.as_ref().and_then(|c| c.fast.as_ref()) else {
            return;
        };
        let (raw, support) =
            flow_combination(self.sparse, fast.basic_flows(), self.cone.dimension());
        // A degenerate ray is never cached, so it is never recertified.
        if ray_norm(&raw).is_none() {
            return;
        }
        let min_flow = fast
            .basic_flows()
            .filter(|&(_, f)| f > 1e-9)
            .fold(f64::INFINITY, |acc, (_, f)| acc.min(f));
        if min_flow < FLOW_RECERT_MARGIN {
            telemetry::add(telemetry::Metric::LpExactRecertifications, 1);
            let flows: Vec<(usize, f64)> = fast.basic_flows().filter(|&(_, f)| f > 1e-9).collect();
            if !exact_combination_matches(self.sparse, &flows, &raw).unwrap_or(false) {
                return;
            }
        }
        self.push_witness_ray(&raw, support);
    }

    /// Wraps up a confidently infeasible tier-1 solve: folds the factorized
    /// tableau's Farkas multipliers into a counter-space separating direction
    /// and caches it for future short-circuits.  The soundness re-check runs
    /// the historical float criterion, escalating any generator whose margin
    /// is near the threshold to exact rational arithmetic (the
    /// margin-triggered recertification of the certificate machinery); exact
    /// overflow degrades to not caching the direction.
    fn harvest_refuted_fast(&mut self, region: &ConfidenceRegion) {
        if self.certificates.len() >= MAX_CERTIFICATES {
            return;
        }
        let Some(cache) = self.cache.as_ref() else {
            return;
        };
        let Some(pi) = cache
            .fast
            .as_ref()
            .and_then(FactorTableau::farkas_multipliers)
        else {
            return;
        };
        let Some(direction) = fold_certificate_from(region, &cache.matrix, pi) else {
            return;
        };
        if certificate_is_sound_recertified(self.sparse, &direction) {
            self.push_certificate(direction);
        }
    }

    /// Caches the unit ray of an unscaled flow combination, with the support
    /// of the flows that built it, for future feasible short-circuits — when
    /// the pool has room and the combination is not degenerate.
    fn push_witness_ray(&mut self, raw: &[f64], support: Vec<usize>) {
        if self.witness_rays.len() >= MAX_WITNESS_RAYS {
            return;
        }
        let Some(norm) = ray_norm(raw) else {
            return;
        };
        self.witness_rays
            .push(raw.iter().map(|v| v / norm).collect());
        self.witness_supports.push(support);
    }

    /// Caches a verified separating direction for future refutation
    /// short-circuits, when the pool has room.
    fn push_certificate(&mut self, direction: Vec<f64>) {
        if self.certificates.len() < MAX_CERTIFICATES {
            self.certificates.push(direction);
        }
    }

    /// The Farkas separating directions harvested from past refutations, most
    /// recently useful first.  Each direction `c` satisfies `c · g ≥ 0` for
    /// every cone generator while some previously tested confidence region lay
    /// strictly on its negative side — the refutation evidence the paper
    /// reports, exposed for session reports and certificate checking.
    pub fn farkas_certificates(&self) -> &[Vec<f64>] {
        &self.certificates
    }

    /// The unit-∞-norm cone rays harvested from past feasible solves, most
    /// recently useful first.  Scaling any of them positively yields a cone
    /// point; the engine uses them to settle feasible observations without
    /// touching the LP.
    pub fn witness_rays(&self) -> &[Vec<f64>] {
        &self.witness_rays
    }

    /// [`witness_rays`](BatchFeasibility::witness_rays) together with each
    /// ray's support — the indices (into
    /// [`generator_vectors`](BatchFeasibility::generator_vectors) order) of
    /// the generators its flow combination used.  A ray is a point of any
    /// cone containing all of its support generators, which lets the lattice
    /// search reuse rays across models after an exact set-membership check.
    pub(crate) fn witness_rays_with_supports(
        &self,
    ) -> impl Iterator<Item = (&Vec<f64>, &Vec<usize>)> {
        self.witness_rays.iter().zip(&self.witness_supports)
    }

    /// The positive-flow combination the warm tableau currently holds, as a
    /// unit ∞-norm ray plus its support, regardless of how the last decision
    /// was reached.  Only flows strictly above the solver tolerance
    /// contribute, so the combination is a cone point even when the tableau
    /// sits in an intermediate or infeasible state — any non-negative
    /// combination of generators is.  `None` before the first solve or when
    /// every flow is (near) zero.
    pub(crate) fn current_ray_with_support(&self) -> Option<(Vec<f64>, Vec<usize>)> {
        let cache = self.cache.as_ref()?;
        let dim = self.cone.dimension();
        // Read whichever solver actually ran last: the tier-1 factorization
        // on decision engines, the exact tableau everywhere else.
        let (mut raw, support) = match cache.fast.as_ref() {
            Some(fast) => flow_combination(self.sparse, fast.basic_flows(), dim),
            None => flow_combination(self.sparse, cache.tableau.basic_flows(), dim),
        };
        let norm = ray_norm(&raw)?;
        for v in &mut raw {
            *v /= norm;
        }
        Some((raw, support))
    }

    /// Tests every observation, returning one verdict per observation in input
    /// order.
    pub fn check_all(&mut self, observations: &[Observation]) -> Vec<bool> {
        observations.iter().map(|o| self.is_feasible(o)).collect()
    }

    /// Counts how many of the observations are infeasible for this model (the
    /// quantity reported per model in the paper's Tables 3, 5 and 7).
    pub fn count_infeasible(&mut self, observations: &[Observation]) -> usize {
        observations.iter().filter(|o| !self.is_feasible(o)).count()
    }

    /// Tests every observation, returning one evidence-carrying verdict per
    /// observation in input order.
    pub fn check_all_verdicts(&mut self, observations: &[Observation]) -> Vec<FeasibilityVerdict> {
        observations.iter().map(|o| self.verdict(o)).collect()
    }
}

/// The one cold solve behind every verdict a warm tableau does not settle:
/// [`FeasibilityChecker::is_feasible`], the tier-2 escalation of a thin-margin
/// tier-1 verdict, and the restart after a warm solve fails to converge.  It
/// is built only from the cone and the observation — a fresh coefficient
/// matrix, fresh bounds and an all-slack band tableau — so its verdict never
/// depends on what an engine solved before.
///
/// [`FeasibilityChecker::is_feasible`]: crate::FeasibilityChecker::is_feasible
pub(crate) struct ColdSolve {
    matrix: ConeMatrix,
    tableau: Tableau,
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl ColdSolve {
    /// Builds the LP for `region` against the sparse generators, with flows
    /// rescaled by the observation's `scale`.
    pub(crate) fn new(
        sparse: &[Vec<(usize, f64)>],
        region: &ConfidenceRegion,
        scale: f64,
    ) -> ColdSolve {
        let mut matrix = ConeMatrix::empty();
        matrix.build_sparse_into(region.axes(), sparse);
        let (lo, hi) = (0..matrix.rows.len())
            .map(|k| row_bounds(region, &matrix, k, scale))
            .unzip();
        let tableau = Tableau::band(sparse.len(), &matrix.rows);
        ColdSolve {
            matrix,
            tableau,
            lo,
            hi,
        }
    }

    /// Runs the dual simplex to an evidence-free verdict (the tableau keeps
    /// the basic flows or Farkas multipliers for the caller to extract).
    /// Non-convergence is [`FeasibilityVerdict::Inconclusive`], counted by
    /// the `lp_inconclusive_verdicts` telemetry counter.
    pub(crate) fn solve(&mut self) -> FeasibilityVerdict {
        match self.tableau.resolve(&self.lo, &self.hi) {
            Ok(true) => FeasibilityVerdict::Feasible {
                witness: Vec::new(),
            },
            Ok(false) => FeasibilityVerdict::Refuted {
                certificate: Vec::new(),
            },
            Err(e) => {
                telemetry::add(telemetry::Metric::LpInconclusiveVerdicts, 1);
                FeasibilityVerdict::Inconclusive {
                    reason: format!("the cold dual simplex failed to converge: {e}"),
                }
            }
        }
    }
}

/// The bool both `is_feasible` entry points return for a verdict: a
/// refutation needs a certificate, so an inconclusive verdict counts as not
/// refuted.
pub(crate) fn not_refuted(verdict: &FeasibilityVerdict) -> bool {
    !verdict.is_refuted()
}

/// The unscaled flow combination `Σ fⱼ·gⱼ` over the sparse generators, with
/// its support (the indices of the contributing flows).  Flow values within
/// the solver tolerance of zero contribute noise only and are skipped.
fn flow_combination(
    sparse: &[Vec<(usize, f64)>],
    flows: impl Iterator<Item = (usize, f64)>,
    dim: usize,
) -> (Vec<f64>, Vec<usize>) {
    let mut point = vec![0.0; dim];
    let mut support = Vec::new();
    for (j, f) in flows {
        if f > 1e-9 {
            for &(i, c) in &sparse[j] {
                point[i] += f * c;
            }
            support.push(j);
        }
    }
    (point, support)
}

/// The ∞-norm of a ray, or `None` when it is zero or not finite (a
/// degenerate ray that cannot be normalised).
fn ray_norm(ray: &[f64]) -> Option<f64> {
    let norm = ray.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
    (norm.is_finite() && norm > 0.0).then_some(norm)
}

/// How close (relative to the generator's coefficient mass) a float soundness
/// margin may come to its threshold before the comparison is re-run in exact
/// rational arithmetic — the trigger of the certificate recertification path.
const CERT_RECERT_MARGIN: f64 = 1e-7;

/// A confidently feasible tier-1 solve whose smallest included flow is below
/// this recomputes the flow combination exactly before caching the witness
/// ray: a flow just above the `1e-9` inclusion threshold is where float error
/// could smuggle a non-positive weight into the support.
const FLOW_RECERT_MARGIN: f64 = 1e-8;

/// Folds a tableau's Farkas multipliers back through the confidence-region
/// axes into a unit-∞-norm counter-space direction,
/// `c = Σ_k (π_{2k+1} − π_{2k}) / bound_div_k · axis_k`, and re-verifies it
/// against the generators.  `None` if the tableau's last resolve was
/// feasible, or the folded direction degenerates or is not a sound separator.
fn sound_certificate(
    sparse: &[Vec<(usize, f64)>],
    region: &ConfidenceRegion,
    matrix: &ConeMatrix,
    tableau: &Tableau,
) -> Option<Vec<f64>> {
    fold_certificate_from(region, matrix, tableau.farkas_multipliers()?)
        .filter(|c| certificate_is_sound(sparse, c))
}

/// The folding arithmetic of [`sound_certificate`], from bare multipliers in interleaved row order — the
/// shared folding arithmetic behind both the tier-2 tableau and the tier-1
/// factorized solver.
fn fold_certificate_from(
    region: &ConfidenceRegion,
    matrix: &ConeMatrix,
    pi: &[f64],
) -> Option<Vec<f64>> {
    let mut direction = vec![0.0; region.dimension()];
    for (k, axis) in region.axes().iter().enumerate() {
        let weight = (pi[2 * k + 1] - pi[2 * k]) / matrix.bound_divs[k];
        if weight != 0.0 {
            for (d, a) in direction.iter_mut().zip(axis) {
                *d += weight * a;
            }
        }
    }
    let norm = ray_norm(&direction)?;
    for v in &mut direction {
        *v /= norm;
    }
    Some(direction)
}

/// Re-verifies a float-derived separating direction in exact terms: every
/// generator must be on the non-negative side (within a strict tolerance),
/// otherwise the direction is not a sound separator.
fn certificate_is_sound(sparse: &[Vec<(usize, f64)>], direction: &[f64]) -> bool {
    sparse.iter().all(|g| {
        let (proj, mass) = g.iter().fold((0.0f64, 0.0f64), |(p, m), &(i, c)| {
            (p + direction[i] * c, m + c.abs())
        });
        proj >= -1e-9 * (1.0 + mass)
    })
}

/// [`certificate_is_sound`] with margin-triggered exact recertification: each
/// generator's projection is first judged in floats, and any projection within
/// [`CERT_RECERT_MARGIN`] (mass-relative) of the soundness threshold is
/// re-evaluated in exact rational arithmetic — every finite f64 converts
/// exactly, so the exact comparison is authoritative.  A rational overflow
/// (far outside the counter regime) conservatively rejects the direction:
/// the evidence is dropped, never a verdict.
fn certificate_is_sound_recertified(sparse: &[Vec<(usize, f64)>], direction: &[f64]) -> bool {
    sparse.iter().all(|g| {
        let (proj, mass) = g.iter().fold((0.0f64, 0.0f64), |(p, m), &(i, c)| {
            (p + direction[i] * c, m + c.abs())
        });
        let threshold = -1e-9 * (1.0 + mass);
        if (proj - threshold).abs() <= CERT_RECERT_MARGIN * (1.0 + mass) {
            telemetry::add(telemetry::Metric::LpExactRecertifications, 1);
            exact_projection_is_sound(g, direction).unwrap_or(false)
        } else {
            proj >= threshold
        }
    })
}

/// The exact-arithmetic verdict of the soundness criterion for one generator:
/// `Σᵢ direction[i]·gᵢ + 1e-9·(1 + Σᵢ|gᵢ|) ≥ 0` evaluated over [`Rational`]s
/// (all inputs are finite f64s, hence exact dyadic rationals).  `None` when an
/// intermediate overflows `i128`.
fn exact_projection_is_sound(g: &[(usize, f64)], direction: &[f64]) -> Option<bool> {
    let mut proj = Rational::ZERO;
    let mut mass = Rational::ZERO;
    for &(i, c) in g {
        let c = Rational::try_from_f64(c)?;
        let d = Rational::try_from_f64(direction[i])?;
        proj = proj.checked_add(d.checked_mul(c)?)?;
        let abs_c = if c.is_negative() {
            Rational::ZERO.checked_sub(c)?
        } else {
            c
        };
        mass = mass.checked_add(abs_c)?;
    }
    let eps = Rational::try_from_f64(1e-9)?;
    let slack = eps.checked_mul(Rational::ONE.checked_add(mass)?)?;
    Some(!proj.checked_add(slack)?.is_negative())
}

/// Exactly recomputes the flow combination `Σ fⱼ·gⱼ` over [`Rational`]s and
/// checks the float accumulation against it componentwise (within `1e-9` of
/// the combination's magnitude): the margin-triggered recertification of a
/// near-threshold witness harvest.  `None` on rational overflow — the caller
/// drops the ray rather than trusting an unverifiable one.
fn exact_combination_matches(
    sparse: &[Vec<(usize, f64)>],
    flows: &[(usize, f64)],
    raw: &[f64],
) -> Option<bool> {
    let mut exact = vec![Rational::ZERO; raw.len()];
    for &(j, f) in flows {
        if f.is_sign_negative() {
            // A "positive" flow that is actually negative would make the
            // combination leave the cone outright.
            return Some(false);
        }
        let f = Rational::try_from_f64(f)?;
        for &(i, c) in &sparse[j] {
            let c = Rational::try_from_f64(c)?;
            exact[i] = exact[i].checked_add(f.checked_mul(c)?)?;
        }
    }
    let tolerance = 1e-9 * raw.iter().fold(1.0f64, |acc, v| acc.max(v.abs()));
    for (value, expected) in raw.iter().zip(&exact) {
        if (value - expected.to_f64()).abs() > tolerance {
            return Some(false);
        }
    }
    Some(true)
}

/// A separating certificate for the degenerate origin-only cone: some region
/// axis has a projection interval excluding zero; the (sign-flipped) axis puts
/// the whole region on the negative side while `c · 0 ≥ 0` holds trivially.
fn origin_separator(region: &ConfidenceRegion) -> Vec<f64> {
    for (axis, &width) in region.axes().iter().zip(region.half_widths()) {
        let proj: f64 = axis.iter().zip(region.center()).map(|(a, c)| a * c).sum();
        if proj - width > 0.0 {
            return axis.iter().map(|a| -a).collect();
        }
        if proj + width < 0.0 {
            return axis.clone();
        }
    }
    Vec::new()
}

/// Does the ray `{t · ray : t ≥ 0}` pierce the region's bounding box with a
/// safety margin?  Intersects the per-axis intervals `t · (axis_k · ray) ∈
/// [lo_k + m_k, hi_k − m_k]`; a non-empty intersection is a certificate of
/// feasibility (the scaled cone point lies inside the region).  The per-axis
/// margin is capped at half the axis width so exact (zero-width) observations
/// can still match, and is otherwise `margin` — well above the LP's own
/// feasibility slop, so a hit is always a verdict the LP would reach too.
pub(crate) fn ray_pierces_box(ray: &[f64], region: &ConfidenceRegion, margin: f64) -> bool {
    ray_box_interval(ray, region, margin).is_some()
}

/// The `[t_lo, t_hi]` interval of scalings that put `t · ray` inside the
/// region's (margin-shrunk) bounding box, or `None` when the ray misses it —
/// the computation behind [`ray_pierces_box`], exposed so the verdict path can
/// turn a ray hit into a concrete witness point.
fn ray_box_interval(ray: &[f64], region: &ConfidenceRegion, margin: f64) -> Option<(f64, f64)> {
    let mut t_lo = 0.0f64;
    let mut t_hi = f64::INFINITY;
    // Clips `[t_lo, t_hi]` against one axis of the box; false means empty.
    let mut clip = |proj_center: f64, width: f64, c: f64| -> bool {
        let m = margin.min(0.5 * width);
        let lo = proj_center - width + m;
        let hi = proj_center + width - m;
        if c == 0.0 {
            if lo > 0.0 || hi < 0.0 {
                return false;
            }
        } else if c > 0.0 {
            t_lo = t_lo.max(lo / c);
            t_hi = t_hi.min(hi / c);
        } else {
            t_lo = t_lo.max(hi / c);
            t_hi = t_hi.min(lo / c);
        }
        t_lo <= t_hi
    };
    if region.standard_axes() {
        // Axis k projects onto component k directly (bit-identical to the
        // dense dots below) — the common exact-observation case.
        for (k, &width) in region.half_widths().iter().enumerate() {
            if !clip(region.center()[k], width, ray[k]) {
                return None;
            }
        }
    } else {
        for (axis, &width) in region.axes().iter().zip(region.half_widths()) {
            let proj_center: f64 = axis.iter().zip(region.center()).map(|(a, c)| a * c).sum();
            let c: f64 = axis.iter().zip(ray).map(|(a, r)| a * r).sum();
            if !clip(proj_center, width, c) {
                return None;
            }
        }
    }
    Some((t_lo, t_hi))
}

/// The witness cone point behind a ray short-circuit: the smallest admissible
/// scaling of the cached ray (the cone is closed under positive scaling, so
/// any `t` in the interval works; the smallest keeps magnitudes tame).
fn witness_on_ray(ray: &[f64], region: &ConfidenceRegion, margin: f64) -> Option<Vec<f64>> {
    let (t_lo, _) = ray_box_interval(ray, region, margin)?;
    Some(ray.iter().map(|r| r * t_lo).collect())
}

/// Refreshes the cached axes without reallocating the inner vectors.
fn clone_axes_into(cached: &mut Vec<Vec<f64>>, source: &[Vec<f64>]) {
    cached.resize_with(source.len(), Vec::new);
    for (dst, src) in cached.iter_mut().zip(source) {
        dst.clear();
        dst.extend_from_slice(src);
    }
}

/// Tests every model cone against every observation, fanning the model family
/// across worker threads.
///
/// This is the batched analogue of running [`BatchFeasibility::check_all`] per
/// model: each worker owns one model at a time and sweeps the full observation
/// list with a warm engine, so per-model results are independent of the thread
/// count and land in model order — the same deterministic worker pattern the
/// `counterpoint-collect` campaign runner uses.  `threads = 0` means "use the
/// host's available parallelism"; `threads = 1` (or a single model) runs
/// inline.
///
/// Returns one `Vec<bool>` per model, each with one verdict per observation.
pub fn check_models(
    cones: &[&ModelCone],
    observations: &[Observation],
    threads: usize,
) -> Vec<Vec<bool>> {
    fan_out_models(cones, threads, |cone| {
        let _span = telemetry::span("model_sweep", cone.name());
        BatchFeasibility::new(cone).check_all(observations)
    })
}

/// The evidence-carrying analogue of [`check_models`]: one
/// [`FeasibilityVerdict`] per (model, observation) pair, fanned across worker
/// threads with the same deterministic pattern.  Each model's observation
/// sweep runs on a single worker with its own warm engine, so the verdicts —
/// witnesses and certificates included — are identical for every thread count.
pub fn check_models_verdicts(
    cones: &[&ModelCone],
    observations: &[Observation],
    threads: usize,
) -> Vec<Vec<FeasibilityVerdict>> {
    fan_out_models(cones, threads, |cone| {
        let _span = telemetry::span("model_sweep", cone.name());
        BatchFeasibility::new(cone).check_all_verdicts(observations)
    })
}

/// The deterministic model fan-out shared by [`check_models`] and
/// [`check_models_verdicts`]: each worker owns one model at a time, results
/// land in model order no matter how many workers run or which finishes
/// first.  `threads = 0` means "use the host's available parallelism".
fn fan_out_models<T, F>(cones: &[&ModelCone], threads: usize, run_one: F) -> Vec<T>
where
    T: Send,
    F: Fn(&ModelCone) -> T + Sync,
{
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        threads
    };
    let workers = threads.min(cones.len()).max(1);

    if workers <= 1 {
        return cones.iter().map(|cone| run_one(cone)).collect();
    }

    let slots: Vec<Mutex<Option<T>>> = cones.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let Some(cone) = cones.get(idx) else {
                    break;
                };
                let result = run_one(cone);
                *slots[idx].lock().expect("feasibility worker panicked") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("feasibility worker panicked")
                .expect("every model was scheduled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::FeasibilityChecker;
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

    fn noisy_observation(name: &str, base: f64, offset: f64) -> Observation {
        let samples: Vec<Vec<f64>> = (0..24)
            .map(|i| {
                let wiggle = (i % 7) as f64 - 3.0;
                vec![base + (i % 5) as f64, base + offset + wiggle]
            })
            .collect();
        Observation::from_samples(name, &samples, 0.99)
    }

    #[test]
    fn batch_agrees_with_checker_on_exact_observations() {
        let cone = fig6a_cone();
        let checker = FeasibilityChecker::new(&cone);
        let mut batch = BatchFeasibility::new(&cone);
        let observations = vec![
            Observation::exact("a", &[10.0, 4.0]),
            Observation::exact("b", &[4.0, 10.0]),
            Observation::exact("edge", &[10.0, 10.0]),
            Observation::exact("origin", &[0.0, 0.0]),
            Observation::exact("big", &[2.0e9, 1.5e9]),
            Observation::exact("big-bad", &[1.5e9, 2.0e9]),
        ];
        for obs in &observations {
            assert_eq!(
                batch.is_feasible(obs),
                checker.is_feasible(obs),
                "verdict mismatch on {}",
                obs.name()
            );
        }
    }

    #[test]
    fn batch_agrees_with_checker_on_noisy_observations() {
        // Distinct principal axes per observation: exercises the in-place
        // rebind path.
        let cone = fig6a_cone();
        let checker = FeasibilityChecker::new(&cone);
        let mut batch = BatchFeasibility::new(&cone);
        for i in 0..12 {
            let offset = -2.0 + i as f64 * 0.7; // from clearly inside to clearly out
            let obs = noisy_observation(&format!("noisy-{i}"), 900.0 + 37.0 * i as f64, offset);
            assert_eq!(
                batch.is_feasible(&obs),
                checker.is_feasible(&obs),
                "verdict mismatch on {}",
                obs.name()
            );
        }
    }

    #[test]
    fn batch_count_matches_checker_count() {
        let cone = fig6a_cone();
        let observations: Vec<Observation> = (0..10)
            .map(|i| noisy_observation(&format!("n{i}"), 500.0, -3.0 + i as f64))
            .collect();
        let expected = observations
            .iter()
            .filter(|o| !FeasibilityChecker::new(&cone).is_feasible(o))
            .count();
        assert_eq!(
            BatchFeasibility::new(&cone).count_infeasible(&observations),
            expected
        );
        assert_eq!(
            FeasibilityChecker::new(&cone).count_infeasible(&observations),
            expected
        );
    }

    #[test]
    fn non_convergence_fallback_leaves_reachable_verdicts_unchanged() {
        // The LP non-convergence path resolves as not-refuted instead of
        // aborting the process.  Differential guard for that change: on
        // well-conditioned instances the verdict classification still matches
        // the cold reference checker exactly, and none of them take the
        // Inconclusive escape hatch.
        let cone = fig6a_cone();
        let checker = FeasibilityChecker::new(&cone);
        let mut batch = BatchFeasibility::new(&cone);
        let mut observations = vec![
            Observation::exact("a", &[10.0, 4.0]),
            Observation::exact("b", &[4.0, 10.0]),
            Observation::exact("edge", &[10.0, 10.0]),
            Observation::exact("origin", &[0.0, 0.0]),
        ];
        for i in 0..16 {
            observations.push(noisy_observation(
                &format!("sweep-{i}"),
                250.0 + 40.0 * i as f64,
                -3.5 + 0.5 * i as f64,
            ));
        }
        for obs in &observations {
            let verdict = batch.verdict(obs);
            assert!(
                !matches!(verdict, FeasibilityVerdict::Inconclusive { .. }),
                "{} must not be inconclusive on a well-conditioned instance",
                obs.name()
            );
            assert_eq!(
                matches!(verdict, FeasibilityVerdict::Feasible { .. }),
                checker.is_feasible(obs),
                "verdict mismatch on {}",
                obs.name()
            );
        }
    }

    #[test]
    fn cold_solve_non_convergence_is_inconclusive() {
        // The terminal path of every solve chain: a cold solve that runs out
        // of iterations yields no certificate, so it is Inconclusive (never
        // Refuted) and the bool entry points count it as not refuted.  Capping
        // the tableau at zero iterations forces it on an instance that needs
        // at least one pivot.
        let cone = fig6a_cone();
        let obs = Observation::exact("b", &[4.0, 10.0]);
        let region = obs.region();
        let mut cold = ColdSolve::new(
            &cone.generators_f64().sparse,
            region,
            observation_scale(region),
        );
        cold.tableau.set_max_iterations(0);
        let recording = telemetry::Recording::start();
        let verdict = cold.solve();
        let report = recording.finish();
        let FeasibilityVerdict::Inconclusive { reason } = &verdict else {
            panic!("a capped cold solve must be inconclusive, got {verdict:?}");
        };
        assert!(!reason.is_empty(), "an inconclusive verdict says why");
        assert!(report.counter(telemetry::Metric::LpInconclusiveVerdicts) >= 1);
        assert!(
            not_refuted(&verdict),
            "is_feasible maps inconclusive to true"
        );
        // Uncapped, the same solve refutes the observation.
        let mut cold = ColdSolve::new(
            &cone.generators_f64().sparse,
            region,
            observation_scale(region),
        );
        assert!(cold.solve().is_refuted());
    }

    #[test]
    fn degenerate_cone_only_accepts_the_origin() {
        let cone = ModelCone::from_signatures("zero", &space(), vec![CounterSignature::zero(2)], 1);
        let mut batch = BatchFeasibility::new(&cone);
        assert!(batch.is_feasible(&Observation::exact("origin", &[0.0, 0.0])));
        assert!(!batch.is_feasible(&Observation::exact("off", &[1.0, 0.0])));
    }

    #[test]
    fn check_models_is_deterministic_across_thread_counts() {
        let cones = [fig6a_cone(), fig6a_cone()];
        let refs: Vec<&ModelCone> = cones.iter().collect();
        let observations: Vec<Observation> = (0..8)
            .map(|i| noisy_observation(&format!("n{i}"), 700.0, -2.0 + i as f64))
            .collect();
        let sequential = check_models(&refs, &observations, 1);
        for threads in [0, 2, 4] {
            assert_eq!(check_models(&refs, &observations, threads), sequential);
        }
        assert_eq!(sequential.len(), 2);
        assert_eq!(sequential[0].len(), observations.len());
    }

    #[test]
    #[should_panic(expected = "share a counter space")]
    fn dimension_mismatch_panics() {
        let cone = fig6a_cone();
        let _ = BatchFeasibility::new(&cone).is_feasible(&Observation::exact("bad", &[1.0]));
    }

    #[test]
    fn refuted_pde_cache_observation_yields_a_separating_certificate() {
        // The paper's running example: the hardware reports more PDE-cache
        // misses than walks, refuting the initial model.  The verdict must
        // carry a Farkas certificate that *actually* separates the cone from
        // the observation — checkable, not decorative.
        let cone = fig6a_cone();
        let mut batch = BatchFeasibility::new(&cone);
        let obs = Observation::exact("microbenchmark", &[1_000.0, 1_400.0]);
        let FeasibilityVerdict::Refuted { certificate } = batch.verdict(&obs) else {
            panic!("the microbenchmark must refute the initial PDE-cache model");
        };
        assert!(!certificate.is_empty(), "certificate must be extracted");
        // Every cone generator lies on the non-negative side ...
        for g in cone.generator_cone().generators() {
            let gv = g.to_f64_vec();
            let proj: f64 = certificate.iter().zip(&gv).map(|(c, v)| c * v).sum();
            assert!(
                proj >= -1e-9,
                "certificate must not cut off generator {gv:?}"
            );
        }
        // ... while the whole observation region sits strictly on the
        // negative side (its center in particular).
        let center_proj: f64 = certificate.iter().zip(obs.mean()).map(|(c, v)| c * v).sum();
        assert!(
            center_proj < 0.0,
            "certificate must separate the observation"
        );
        let (_, hi) = obs.region().interval_along(&certificate);
        assert!(hi < 0.0, "the entire confidence region must be separated");
        // The harvested certificate is visible through the public accessor.
        assert_eq!(batch.farkas_certificates(), &[certificate]);
    }

    #[test]
    fn feasible_verdict_carries_a_witness_in_the_region() {
        let cone = fig6a_cone();
        let mut batch = BatchFeasibility::new(&cone);
        let obs = Observation::exact("ok", &[10.0, 4.0]);
        let FeasibilityVerdict::Feasible { witness } = batch.verdict(&obs) else {
            panic!("the observation is inside the cone");
        };
        // Zero-width region: the witness must coincide with the observation
        // up to the LP tolerance.
        for (w, c) in witness.iter().zip(obs.mean()) {
            assert!(
                (w - c).abs() <= 1e-6 * (1.0 + c.abs()),
                "witness {witness:?}"
            );
        }
        assert_eq!(batch.witness_rays().len(), 1);
        // A second feasible observation may settle via the cached ray; its
        // witness must still live inside its own region's bounding box.
        let obs2 = noisy_observation("near", 900.0, -1.0);
        if let FeasibilityVerdict::Feasible { witness } = batch.verdict(&obs2) {
            let region = obs2.region();
            for (axis, &width) in region.axes().iter().zip(region.half_widths()) {
                let proj: f64 = axis.iter().zip(&witness).map(|(a, w)| a * w).sum();
                let center: f64 = axis.iter().zip(region.center()).map(|(a, c)| a * c).sum();
                assert!(
                    (proj - center).abs() <= width + 1e-6 * (1.0 + center.abs()),
                    "witness must project inside the region box"
                );
            }
        }
    }

    #[test]
    fn verdicts_agree_with_the_bool_path() {
        let cone = fig6a_cone();
        let mut bools = BatchFeasibility::new(&cone);
        let mut verdicts = BatchFeasibility::new(&cone);
        for i in 0..12 {
            let offset = -2.0 + i as f64 * 0.7;
            let obs = noisy_observation(&format!("noisy-{i}"), 900.0 + 37.0 * i as f64, offset);
            assert_eq!(
                verdicts.verdict(&obs).is_feasible(),
                bools.is_feasible(&obs),
                "verdict/bool mismatch on {}",
                obs.name()
            );
        }
    }

    #[test]
    fn degenerate_cone_verdicts_carry_evidence() {
        let cone = ModelCone::from_signatures("zero", &space(), vec![CounterSignature::zero(2)], 1);
        let mut batch = BatchFeasibility::new(&cone);
        assert_eq!(
            batch.verdict(&Observation::exact("origin", &[0.0, 0.0])),
            FeasibilityVerdict::Feasible {
                witness: vec![0.0, 0.0]
            }
        );
        let refuted = batch.verdict(&Observation::exact("off", &[1.0, 0.0]));
        let FeasibilityVerdict::Refuted { certificate } = refuted else {
            panic!("a non-origin observation refutes the origin-only cone");
        };
        let proj: f64 = certificate
            .iter()
            .zip(&[1.0, 0.0])
            .map(|(c, v)| c * v)
            .sum();
        assert!(
            proj < 0.0,
            "origin separator must point away from the observation"
        );
    }

    #[test]
    fn check_models_verdicts_is_deterministic_across_thread_counts() {
        let cones = [fig6a_cone(), fig6a_cone()];
        let refs: Vec<&ModelCone> = cones.iter().collect();
        let observations: Vec<Observation> = (0..8)
            .map(|i| noisy_observation(&format!("n{i}"), 700.0, -2.0 + i as f64))
            .collect();
        let sequential = check_models_verdicts(&refs, &observations, 1);
        for threads in [0, 2, 4] {
            assert_eq!(
                check_models_verdicts(&refs, &observations, threads),
                sequential
            );
        }
        // The verdict matrix agrees with the bool matrix decision for decision.
        let bools = check_models(&refs, &observations, 1);
        for (vrow, brow) in sequential.iter().zip(&bools) {
            for (v, b) in vrow.iter().zip(brow) {
                assert_eq!(v.is_feasible(), *b);
            }
        }
    }
}
