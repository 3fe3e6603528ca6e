//! `LatticeSearch`: the parallel, certificate-pruned refinement engine behind
//! the paper's expert-guided search (Sections 5–6, Figures 8 and 10).
//!
//! The sequential reference
//! ([`reference_search`](crate::explore::reference_search)) walks the feature
//! lattice with one cold [`FeasibilityChecker`](crate::FeasibilityChecker)
//! solve per (candidate model, observation) pair.  This engine keeps the
//! *search semantics* identical — the [`SearchGraph`] it emits is equal, node
//! for node and edge for edge, to the reference's — while changing how every
//! infeasible-observation count is obtained:
//!
//! * **Batched, warm-started solves.**  Each candidate model sweeps the
//!   observation set through one [`BatchFeasibility`] engine, so the
//!   `axis · generator` coefficient matrix is built once per (cone, axes)
//!   pair and the dual simplex warm-starts from the previous observation's
//!   basis instead of from scratch.
//! * **Cross-model certificate pruning.**  A Farkas certificate `c` that
//!   refuted some model satisfies `c · g ≥ 0` for that model's generators
//!   while the observation's whole confidence region sits strictly on the
//!   negative side.  The same direction refutes *any* model whose cone it
//!   contains — in particular every submodel reached by removing features —
//!   and containment is just `c · g ≥ 0` for the new model's generators, an
//!   `O(d · nnz)` check ([`BatchFeasibility::certificate_applies`]).  The
//!   engine keeps a bounded pool of harvested certificates; a pool hit settles
//!   an observation without ever touching the LP, which routinely eliminates
//!   whole sublattices' worth of solves during elimination.  Each pooled
//!   direction's *separated-observation bitmask* is model-independent, so it
//!   is precomputed once and pruning a model costs one containment check per
//!   direction plus a bit test per observation.
//! * **Cross-model witness reuse.**  The feasible side has its own sound
//!   shortcut: a witness cone point `Σ fⱼ·gⱼ` harvested from one model is a
//!   point of *any* model whose generator set contains the combination's
//!   support — an exact set-membership check — and the observations a scaled
//!   ray pierces are precomputed as a bitmask the same way.  Feasible
//!   observations, which certificates can never settle, then skip the LP too.
//! * **Parent→child basis handoff.**  The dual-simplex basis a parent model's
//!   sweep ended in is re-indexed onto the child model's generator columns
//!   (unmappable columns fall back to their slack) and seeds the child's first
//!   solve on matching axes ([`BatchFeasibility::set_warm_basis`]).
//! * **Deterministic parallel evaluation.**  The driver runs the exact
//!   sequential discovery/elimination recursion, but obtains the counts of
//!   each frontier — all single-feature additions of a discovery step, all
//!   single-feature removals of an elimination node — from a batch evaluator
//!   that fans the candidates across `std::thread` workers with the same
//!   index-slot merge discipline as `Campaign` and
//!   [`check_models_verdicts`](crate::batch::check_models_verdicts).  An
//!   infeasible-observation count is a pure function of the feature set
//!   (pruning is *sound*: a certificate hit is always a verdict the LP would
//!   reach too, with the same margin the batch engine applies internally), so
//!   the resulting graph — and any `Report` JSON embedding it — is
//!   byte-identical for every thread count and across repeated runs.
//!
//! What is *not* deterministic is the incidental work accounting: which
//! models happened to be settled from the pool depends on evaluation timing,
//! so [`LatticeStats`] is diagnostic output, not part of the result contract.

use crate::batch::{BatchFeasibility, FeasibilityVerdict, CERTIFICATE_MARGIN};
use crate::cone::ModelCone;
use crate::explore::{FeatureSet, SearchEdge, SearchGraph, SearchPhase, SearchStep};
use crate::feasibility::observation_scale;
use crate::observation::Observation;
use counterpoint_telemetry as telemetry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Upper bound on the shared certificate pool (most recently harvested
/// first).  Generously above the per-engine cache: the pool serves every
/// model of the search, not one cone.
const POOL_CAP: usize = 32;

/// Floor of the witness-ray pool cap.  The effective cap is
/// [`ray_pool_cap`]: wider than the certificate cap because one ray settles
/// only the observations its scaled direction actually pierces, and scaled
/// with the campaign because the dominant harvest is one self-witness ray per
/// observation.
const RAY_POOL_CAP: usize = 96;

/// The witness-ray pool cap for a campaign of `observations` observations:
/// roughly two rays per observation (its own self-witness plus room for
/// cross-observation rays), never below [`RAY_POOL_CAP`].
fn ray_pool_cap(observations: usize) -> usize {
    RAY_POOL_CAP.max(2 * observations)
}

/// Work accounting of one [`LatticeSearch`] run.
///
/// Diagnostic only: the counts of *what was computed how* depend on worker
/// timing (a model evaluated before a certificate lands in the pool pays for
/// its LPs; evaluated after, it may be pruned), so two runs of the same search
/// can differ here even though their [`SearchGraph`]s are byte-identical.
#[derive(Clone, Debug, Default)]
pub struct LatticeStats {
    /// Distinct models whose observation sweep was actually computed.
    pub models_evaluated: usize,
    /// Evaluation requests answered from the memo without any solving (the
    /// legacy search re-solved these from scratch).
    pub memoized_hits: usize,
    /// Total (model, observation) pairs decided, pruned or solved.
    pub observations_swept: usize,
    /// Observations settled by a pooled cross-model Farkas certificate —
    /// `O(d · nnz)` containment plus a bit test, no LP.
    pub certificate_pruned: usize,
    /// Observations settled feasible by a pooled cross-model witness ray —
    /// an exact support-containment check plus a bit test, no LP.
    pub witness_settled: usize,
    /// Observations that reached the batched LP engine.
    pub lp_tested: usize,
    /// Observations no solve could decide (the warm solve and its cold
    /// restart both failed to converge), counted as not refuted (normally
    /// zero).
    pub inconclusive: usize,
    /// Child models whose first solve was seeded with a parent basis.
    pub warm_basis_handoffs: usize,
    /// Pooled Farkas certificates harvested under a *different* family key
    /// (see [`CertificatePool`]) that applied to a model of this search.
    pub cross_family_certificate_hits: usize,
    /// Pooled witness rays harvested under a different family key whose
    /// support this search's models contained.
    pub cross_family_witness_hits: usize,
    /// Certificates in the shared pool when the search finished.
    pub pool_certificates: usize,
    /// Witness rays in the shared pool when the search finished.
    pub pool_rays: usize,
    /// Per-model record of certificate prunes and witness settlements, in
    /// evaluation-request order — the soundness test suite re-checks these
    /// against the cold solver.
    pub pruned_models: Vec<PrunedModel>,
}

/// One model that had observations settled by the cross-model pool.
#[derive(Clone, Debug)]
pub struct PrunedModel {
    /// The model's feature set (sorted).
    pub features: Vec<String>,
    /// Indices (into the search's observation list) of the observations a
    /// pooled certificate refuted without an LP solve.
    pub pruned_observations: Vec<usize>,
    /// Indices of the observations a pooled witness ray settled feasible
    /// without an LP solve.
    pub witness_observations: Vec<usize>,
}

/// The warm state a parent model hands to its children: the parent's
/// generators (to re-index basis columns), the axes its tableau was bound to,
/// and the basis its sweep ended in.
#[derive(Clone, Debug)]
struct Handoff {
    generators: Vec<Vec<f64>>,
    axes: Vec<Vec<f64>>,
    basis: Vec<usize>,
}

/// A pooled Farkas certificate: the separating direction plus the bitmask of
/// observations whose whole confidence region it separates (with the engine's
/// margin).  The mask depends on the *observations* only — not on any model —
/// so it is computed once when the certificate enters the pool; pruning a
/// model then costs one `O(d · nnz)` containment check per pooled direction
/// plus a bit test per observation.
#[derive(Clone, Debug)]
struct PoolCertificate {
    direction: Vec<f64>,
    separated: Vec<u64>,
    /// Canonical key of the model family whose sweep harvested the entry
    /// (empty for a search without a shared pool).  Applying an entry whose
    /// origin differs from the current search's key is a *cross-family* hit.
    origin: Arc<str>,
}

/// A pooled witness ray: a cone point (as a unit ∞-norm ray) harvested from a
/// feasible solve, its support (the bit-patterns of the generators its flow
/// combination used), and the bitmask of observations whose bounding box a
/// positive scaling of the ray pierces (with the engine's margin).  The ray
/// is provably a point of any model containing every support generator —
/// an exact set-membership check — and then every masked observation is
/// feasible for that model without touching the LP.  Like certificate masks,
/// the pierce mask is observation-only and computed once.
#[derive(Clone, Debug)]
struct PoolRay {
    ray: Vec<f64>,
    support: Vec<Vec<u64>>,
    pierced: Vec<u64>,
    /// See [`PoolCertificate::origin`].
    origin: Arc<str>,
}

/// The cross-model reuse pool: refutation certificates and feasibility
/// witness rays, each capped MRU, shared by every worker of one search.
/// Entries are `Arc`ed so readers snapshot the pool with a pointer-copy clone
/// and run the `O(d · nnz)` containment scans *outside* the lock — workers
/// never serialize on each other's pruning phase.
#[derive(Debug, Default)]
struct SharedPool {
    certificates: Mutex<Vec<Arc<PoolCertificate>>>,
    rays: Mutex<Vec<Arc<PoolRay>>>,
}

/// A certificate/witness pool that outlives one search, shared *across* the
/// lattice searches of an enumerated model-family sweep.
///
/// Pooled entries carry per-observation bitmasks, so reuse is only sound when
/// every attached search runs over a byte-identical observation list; the
/// pool records a fingerprint of the first list it sees and a search over a
/// different list silently falls back to a private pool (soundness never
/// depends on a pool hit — a miss just costs the LP solve the hit would have
/// skipped).  Each entry is tagged with the canonical signature of the family
/// that harvested it; when an entry prunes or settles observations for a
/// search attached under a *different* family key, the engine counts a
/// cross-family hit ([`LatticeStats::cross_family_certificate_hits`] and the
/// `cross_family_certificate_hits` / `cross_family_witness_hits` telemetry
/// counters).
///
/// Cloning is cheap and shares the same underlying pool.  Attach with
/// [`LatticeSearch::set_shared_pool`].
#[derive(Clone, Debug, Default)]
pub struct CertificatePool {
    fingerprint: Arc<Mutex<Option<u64>>>,
    pool: Arc<SharedPool>,
}

impl CertificatePool {
    /// An empty pool.
    pub fn new() -> CertificatePool {
        CertificatePool::default()
    }

    /// Number of pooled Farkas certificates.
    pub fn num_certificates(&self) -> usize {
        self.pool
            .certificates
            .lock()
            .expect("certificate pool poisoned")
            .len()
    }

    /// Number of pooled witness rays.
    pub fn num_rays(&self) -> usize {
        self.pool.rays.lock().expect("ray pool poisoned").len()
    }

    /// Binds the pool to an observation list: the first caller installs its
    /// fingerprint, later callers get the shared pool only on an exact match.
    fn attach(&self, observations: &[Observation]) -> Option<Arc<SharedPool>> {
        let fp = observations_fingerprint(observations);
        let mut slot = self.fingerprint.lock().expect("pool fingerprint poisoned");
        match *slot {
            None => {
                *slot = Some(fp);
                Some(Arc::clone(&self.pool))
            }
            Some(bound) if bound == fp => Some(Arc::clone(&self.pool)),
            Some(_) => None,
        }
    }
}

/// An exact (bit-level) FNV-1a fingerprint of an observation list: names,
/// dimensions, region centers, axes and half-widths.  Pooled observation
/// masks are valid precisely for lists with equal fingerprints.
fn observations_fingerprint(observations: &[Observation]) -> u64 {
    fn eat(hash: &mut u64, bytes: &[u8]) {
        for &byte in bytes {
            *hash ^= u64::from(byte);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for observation in observations {
        eat(&mut hash, observation.name().as_bytes());
        eat(&mut hash, &[0x1f]);
        let region = observation.region();
        for v in region.center() {
            eat(&mut hash, &v.to_bits().to_le_bytes());
        }
        for axis in region.axes() {
            for v in axis {
                eat(&mut hash, &v.to_bits().to_le_bytes());
            }
        }
        for v in region.half_widths() {
            eat(&mut hash, &v.to_bits().to_le_bytes());
        }
    }
    hash
}

/// Computes the separated-observation bitmask of a direction: bit `i` is set
/// when observation `i`'s region lies strictly below the direction by at
/// least its margin.
fn separation_mask(direction: &[f64], observations: &[Observation], margins: &[f64]) -> Vec<u64> {
    let mut mask = vec![0u64; observations.len().div_ceil(64)];
    for (i, observation) in observations.iter().enumerate() {
        if observation.region().interval_along(direction).1 < -margins[i] {
            mask[i / 64] |= 1 << (i % 64);
        }
    }
    mask
}

/// Computes the pierced-observation bitmask of a ray: bit `i` is set when
/// some positive scaling of the ray lies inside observation `i`'s bounding
/// box with the engine's margin.
fn pierce_mask(ray: &[f64], observations: &[Observation], margins: &[f64]) -> Vec<u64> {
    let mut mask = vec![0u64; observations.len().div_ceil(64)];
    for (i, observation) in observations.iter().enumerate() {
        if crate::batch::ray_pierces_box(ray, observation.region(), margins[i]) {
            mask[i / 64] |= 1 << (i % 64);
        }
    }
    mask
}

/// Reads bit `i` of an observation mask.
fn mask_bit(mask: &[u64], i: usize) -> bool {
    mask[i / 64] & (1 << (i % 64)) != 0
}

/// The count provider the driver pulls from: a batch of candidate feature
/// sets plus the batch's parent model (for warm-state handoff), returning one
/// infeasible-observation count per candidate.
type BatchEval<'a> = dyn FnMut(&[FeatureSet], Option<&FeatureSet>) -> Vec<usize> + 'a;

/// The outcome of sweeping one candidate model over the observation set.
struct ModelOutcome {
    infeasible: usize,
    pruned: Vec<usize>,
    witnessed: Vec<usize>,
    inconclusive: usize,
    /// Applied pool certificates harvested under a different family key.
    cross_certificates: usize,
    /// Applied pool rays harvested under a different family key.
    cross_rays: usize,
    handoff: Option<Handoff>,
    got_warm_basis: bool,
}

/// Parallel certificate-pruned discovery/elimination search over a feature
/// lattice.
///
/// `G` maps a feature set to its model cone (in the Haswell case study, the
/// model-family generator from `counterpoint-models`).  The search semantics
/// are exactly those of the sequential reference — see the module docs for
/// what changes under the hood and why the output cannot.
///
/// # Example
///
/// ```
/// use counterpoint_core::{feature_set, FeatureSet, LatticeSearch, ModelCone, Observation};
/// use counterpoint_mudd::{CounterSignature, CounterSpace};
///
/// // A toy lattice: the base model emits x only; feature "Fy" adds a path
/// // incrementing y alongside x.
/// let generator = |features: &FeatureSet| {
///     let space = CounterSpace::new(&["x", "y"]);
///     let mut sigs = vec![CounterSignature::from_counts(vec![1, 0])];
///     if features.contains("Fy") {
///         sigs.push(CounterSignature::from_counts(vec![1, 1]));
///     }
///     let n = sigs.len();
///     ModelCone::from_signatures("toy", &space, sigs, n)
/// };
/// let observations = vec![Observation::exact("balanced", &[10.0, 6.0])];
/// let search = LatticeSearch::new(generator, &["Fy"]);
/// let graph = search.run(&FeatureSet::new(), &observations);
/// assert!(!graph.steps[0].feasible, "the base model cannot produce y counts");
/// assert_eq!(graph.essential_features(), vec!["Fy".to_string()]);
/// ```
pub struct LatticeSearch<G>
where
    G: Fn(&FeatureSet) -> ModelCone,
{
    generator: G,
    all_features: Vec<String>,
    max_models: usize,
    threads: usize,
    shared: Option<(CertificatePool, Arc<str>)>,
}

impl<G> LatticeSearch<G>
where
    G: Fn(&FeatureSet) -> ModelCone,
{
    /// Creates a search over the given feature universe (1 worker thread,
    /// 256-model budget).
    pub fn new<S: AsRef<str>>(generator: G, all_features: &[S]) -> LatticeSearch<G> {
        LatticeSearch {
            generator,
            all_features: all_features
                .iter()
                .map(|f| f.as_ref().to_string())
                .collect(),
            max_models: 256,
            threads: 1,
            shared: None,
        }
    }

    /// Caps the number of models the search may record (default 256).
    pub fn set_max_models(&mut self, limit: usize) {
        self.max_models = limit;
    }

    /// Attaches a cross-search [`CertificatePool`], tagging every entry this
    /// search harvests with `family` (the canonical signature of the model
    /// family being searched).  Entries harvested under a different family
    /// key that prune or settle observations here are counted as cross-family
    /// hits.  The search graph is unaffected — pool pruning is sound, so the
    /// counts are pure functions of the feature set with or without the pool.
    pub fn set_shared_pool(&mut self, pool: &CertificatePool, family: &str) {
        self.shared = Some((pool.clone(), Arc::from(family)));
    }

    /// Sets the worker-thread budget for frontier evaluation (`0` = the
    /// host's available parallelism; default 1).  The search graph is
    /// byte-identical for every value.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// The shared driver: the exact sequential discovery/elimination
    /// recursion, with every infeasible count obtained through `eval` (which
    /// memoises and may batch candidates across workers).
    fn drive(&self, initial: &FeatureSet, eval: &mut BatchEval<'_>) -> SearchGraph {
        let mut steps: Vec<SearchStep> = Vec::new();
        let mut edges: Vec<SearchEdge> = Vec::new();
        let mut evaluated: BTreeSet<Vec<String>> = BTreeSet::new();

        let record = |features: &FeatureSet,
                      infeasible: usize,
                      phase: SearchPhase,
                      steps: &mut Vec<SearchStep>| {
            steps.push(SearchStep {
                features: features.iter().cloned().collect(),
                infeasible_count: infeasible,
                feasible: infeasible == 0,
                phase,
            });
            steps.len() - 1
        };

        // Discovery: greedily add the feature that most reduces the number of
        // infeasible observations.  All of a step's candidates are independent,
        // so they are evaluated as one batch; the winner is chosen by the same
        // first-strict-minimum rule as the sequential reference.
        let mut current = initial.clone();
        let mut current_count = eval(std::slice::from_ref(&current), None)[0];
        evaluated.insert(current.iter().cloned().collect());
        let mut current_idx = record(&current, current_count, SearchPhase::Discovery, &mut steps);

        while current_count > 0 && steps.len() < self.max_models {
            let mut tried: Vec<String> = Vec::new();
            let mut candidates: Vec<FeatureSet> = Vec::new();
            for feature in &self.all_features {
                if current.contains(feature) {
                    continue;
                }
                let mut candidate = current.clone();
                candidate.insert(feature.clone());
                tried.push(feature.clone());
                candidates.push(candidate);
            }
            let counts = eval(&candidates, Some(&current));
            let mut best: Option<(usize, usize)> = None;
            for (i, &count) in counts.iter().enumerate() {
                if best.is_none_or(|(_, c)| count < c) {
                    best = Some((i, count));
                }
            }
            let Some((chosen, count)) = best else { break };
            if count >= current_count {
                // No single feature helps; stop discovery.
                break;
            }
            let feature = tried.swap_remove(chosen);
            current = candidates.swap_remove(chosen);
            current_count = count;
            evaluated.insert(current.iter().cloned().collect());
            let new_idx = record(&current, count, SearchPhase::Discovery, &mut steps);
            edges.push(SearchEdge {
                from: current_idx,
                to: new_idx,
                feature,
                phase: SearchPhase::Discovery,
            });
            current_idx = new_idx;
        }

        // Elimination (only if discovery reached a feasible model).
        let mut minimal: Vec<Vec<String>> = Vec::new();
        if current_count == 0 {
            self.eliminate(
                &current,
                current_idx,
                eval,
                &mut steps,
                &mut edges,
                &mut evaluated,
                &mut minimal,
            );
        }

        SearchGraph {
            steps,
            edges,
            minimal_feasible: minimal,
        }
    }

    /// The elimination recursion.  Identical bookkeeping to the sequential
    /// reference; the only addition is the speculative prefetch, which batches
    /// the node's children through `eval` before the sequential replay.  A
    /// count is a pure function of the feature set, so prefetching can waste
    /// work (on children a deeper recursion's budget exhaustion would have
    /// skipped) but can never change the graph.
    #[allow(clippy::too_many_arguments)]
    fn eliminate(
        &self,
        features: &FeatureSet,
        from_idx: usize,
        eval: &mut BatchEval<'_>,
        steps: &mut Vec<SearchStep>,
        edges: &mut Vec<SearchEdge>,
        evaluated: &mut BTreeSet<Vec<String>>,
        minimal: &mut Vec<Vec<String>>,
    ) {
        if steps.len() < self.max_models {
            let mut prefetch: Vec<FeatureSet> = Vec::new();
            for feature in features {
                let mut candidate = features.clone();
                candidate.remove(feature);
                if !evaluated.contains(&candidate.iter().cloned().collect::<Vec<_>>()) {
                    prefetch.push(candidate);
                }
            }
            // Sibling subtrees only ever record strict subsets of their own
            // root, so no sibling can be marked evaluated mid-loop: the
            // prefetch set is exactly what the loop below will request, capped
            // by the remaining budget to bound speculation.
            prefetch.truncate(self.max_models - steps.len());
            let _ = eval(&prefetch, Some(features));
        }
        let mut any_feasible_child = false;
        for feature in features.iter().cloned().collect::<Vec<_>>() {
            if steps.len() >= self.max_models {
                break;
            }
            let mut candidate = features.clone();
            candidate.remove(&feature);
            let key: Vec<String> = candidate.iter().cloned().collect();
            if evaluated.contains(&key) {
                continue;
            }
            evaluated.insert(key);
            let count = eval(std::slice::from_ref(&candidate), Some(features))[0];
            steps.push(SearchStep {
                features: candidate.iter().cloned().collect(),
                infeasible_count: count,
                feasible: count == 0,
                phase: SearchPhase::Elimination,
            });
            let new_idx = steps.len() - 1;
            edges.push(SearchEdge {
                from: from_idx,
                to: new_idx,
                feature: feature.clone(),
                phase: SearchPhase::Elimination,
            });
            if count == 0 {
                any_feasible_child = true;
                self.eliminate(&candidate, new_idx, eval, steps, edges, evaluated, minimal);
            }
        }
        if !any_feasible_child {
            let set: Vec<String> = features.iter().cloned().collect();
            if !minimal.contains(&set) {
                minimal.push(set);
            }
        }
    }
}

impl<G> LatticeSearch<G>
where
    G: Fn(&FeatureSet) -> ModelCone + Sync,
{
    /// Runs the two-phase search from an initial feature set.
    ///
    /// *Discovery* greedily adds the feature that most reduces the number of
    /// infeasible observations until a feasible model is found (or no feature
    /// helps).  *Elimination* then recursively removes features from the
    /// feasible candidate, keeping every removal that preserves feasibility
    /// and recording minimal feasible sets; subtrees under infeasible prunings
    /// are not explored further (the paper's empirical observation).
    pub fn run(&self, initial: &FeatureSet, observations: &[Observation]) -> SearchGraph {
        self.run_with_stats(initial, observations).0
    }

    /// Like [`run`](LatticeSearch::run), but also returns the engine's work
    /// accounting — how many models were memoised, certificate-pruned or
    /// LP-solved.  The graph is deterministic; the stats are diagnostic (see
    /// [`LatticeStats`]).
    pub fn run_with_stats(
        &self,
        initial: &FeatureSet,
        observations: &[Observation],
    ) -> (SearchGraph, LatticeStats) {
        let threads = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            self.threads
        };
        let mut evaluator = Evaluator::new(&self.generator, observations, self.shared.as_ref());
        let graph = self.drive(initial, &mut |sets, parent| {
            evaluator.counts(sets, parent, threads)
        });
        (graph, evaluator.finish())
    }
}

/// The memoising batch evaluator behind
/// [`run_with_stats`](LatticeSearch::run_with_stats): one infeasible count per
/// feature set, computed at most once.
struct Evaluator<'a, G> {
    generator: &'a G,
    observations: &'a [Observation],
    /// Per-observation certificate margin, `CERTIFICATE_MARGIN · scale` — the
    /// same criterion [`BatchFeasibility`] applies to its internal cache, so a
    /// pool hit is always a verdict the LP would reach too.
    margins: Vec<f64>,
    memo: BTreeMap<Vec<String>, usize>,
    handoffs: BTreeMap<Vec<String>, Handoff>,
    pool: Arc<SharedPool>,
    /// The family key this search tags harvested pool entries with (empty
    /// without a shared pool, so every entry's origin matches and no
    /// cross-family hit is ever counted).
    family: Arc<str>,
    stats: LatticeStats,
}

impl<'a, G> Evaluator<'a, G>
where
    G: Fn(&FeatureSet) -> ModelCone,
{
    fn new(
        generator: &'a G,
        observations: &'a [Observation],
        shared: Option<&(CertificatePool, Arc<str>)>,
    ) -> Evaluator<'a, G> {
        // A shared pool over a different observation list is silently
        // replaced by a private one: its masks would be unsound here.
        let (pool, family) = match shared {
            Some((pool, family)) => match pool.attach(observations) {
                Some(attached) => (attached, Arc::clone(family)),
                None => (Arc::new(SharedPool::default()), Arc::from("")),
            },
            None => (Arc::new(SharedPool::default()), Arc::from("")),
        };
        Evaluator {
            generator,
            observations,
            margins: observations
                .iter()
                .map(|o| CERTIFICATE_MARGIN * observation_scale(o.region()))
                .collect(),
            memo: BTreeMap::new(),
            handoffs: BTreeMap::new(),
            pool,
            family,
            stats: LatticeStats::default(),
        }
    }

    /// Evaluates a batch inline, without spawning workers.
    fn counts_seq(&mut self, sets: &[FeatureSet], parent: Option<&FeatureSet>) -> Vec<usize> {
        let parent_handoff = self.parent_handoff(parent);
        let mut counts = Vec::with_capacity(sets.len());
        let mut evaluated = 0u64;
        let _span = telemetry::span("frontier_batch", &sets.len().to_string());
        for set in sets {
            let key: Vec<String> = set.iter().cloned().collect();
            if let Some(&count) = self.memo.get(&key) {
                self.stats.memoized_hits += 1;
                counts.push(count);
                continue;
            }
            let outcome = evaluate_model(
                self.generator,
                set,
                self.observations,
                &self.margins,
                &self.pool,
                &self.family,
                parent_handoff.as_ref(),
            );
            evaluated += 1;
            counts.push(outcome.infeasible);
            self.record(key, outcome);
        }
        telemetry::add(telemetry::Metric::FrontierBatches, 1);
        telemetry::observe(telemetry::Histogram::FrontierBatchSize, evaluated);
        counts
    }

    /// Looks up the warm state recorded for the batch's parent model.
    fn parent_handoff(&self, parent: Option<&FeatureSet>) -> Option<Handoff> {
        parent
            .and_then(|p| self.handoffs.get(&p.iter().cloned().collect::<Vec<_>>()))
            .cloned()
    }

    /// Folds one model's outcome into the memo and the stats.  The driver
    /// thread is the only caller, so the telemetry mirror of the pool-level
    /// work accounting lands in a single, stable order.
    fn record(&mut self, key: Vec<String>, outcome: ModelOutcome) {
        self.stats.models_evaluated += 1;
        self.stats.observations_swept += self.observations.len();
        self.stats.certificate_pruned += outcome.pruned.len();
        self.stats.witness_settled += outcome.witnessed.len();
        self.stats.lp_tested +=
            self.observations.len() - outcome.pruned.len() - outcome.witnessed.len();
        self.stats.inconclusive += outcome.inconclusive;
        self.stats.cross_family_certificate_hits += outcome.cross_certificates;
        self.stats.cross_family_witness_hits += outcome.cross_rays;
        if outcome.got_warm_basis {
            self.stats.warm_basis_handoffs += 1;
        }
        if telemetry::enabled() {
            telemetry::add(telemetry::Metric::FrontierModelsEvaluated, 1);
            telemetry::add(
                telemetry::Metric::CrossFamilyCertificateHits,
                outcome.cross_certificates as u64,
            );
            telemetry::add(
                telemetry::Metric::CrossFamilyWitnessHits,
                outcome.cross_rays as u64,
            );
            telemetry::add(
                telemetry::Metric::CertificatePrunes,
                outcome.pruned.len() as u64,
            );
            telemetry::add(
                telemetry::Metric::WitnessRaySettlements,
                outcome.witnessed.len() as u64,
            );
            telemetry::add(
                if outcome.got_warm_basis {
                    telemetry::Metric::WarmBasisHandoffHits
                } else {
                    telemetry::Metric::WarmBasisHandoffMisses
                },
                1,
            );
        }
        if !outcome.pruned.is_empty() || !outcome.witnessed.is_empty() {
            self.stats.pruned_models.push(PrunedModel {
                features: key.clone(),
                pruned_observations: outcome.pruned,
                witness_observations: outcome.witnessed,
            });
        }
        if let Some(handoff) = outcome.handoff {
            self.handoffs.insert(key.clone(), handoff);
        }
        self.memo.insert(key, outcome.infeasible);
    }

    fn finish(mut self) -> LatticeStats {
        self.stats.pool_certificates = self
            .pool
            .certificates
            .lock()
            .expect("certificate pool poisoned")
            .len();
        self.stats.pool_rays = self.pool.rays.lock().expect("ray pool poisoned").len();
        self.stats
    }
}

impl<G> Evaluator<'_, G>
where
    G: Fn(&FeatureSet) -> ModelCone + Sync,
{
    /// Evaluates a batch, fanning memo misses across up to `threads` workers.
    /// Results merge by candidate index, so the memo contents — and therefore
    /// every count the driver sees — are independent of worker timing.
    fn counts(
        &mut self,
        sets: &[FeatureSet],
        parent: Option<&FeatureSet>,
        threads: usize,
    ) -> Vec<usize> {
        let todo: Vec<&FeatureSet> = sets
            .iter()
            .filter(|s| {
                !self
                    .memo
                    .contains_key(&s.iter().cloned().collect::<Vec<_>>())
            })
            .collect();
        let workers = threads.min(todo.len());
        if workers <= 1 {
            return self.counts_seq(sets, parent);
        }
        let _span = telemetry::span("frontier_batch", &todo.len().to_string());
        telemetry::add(telemetry::Metric::FrontierBatches, 1);
        telemetry::observe(telemetry::Histogram::FrontierBatchSize, todo.len() as u64);
        self.stats.memoized_hits += sets.len() - todo.len();
        let parent_handoff = self.parent_handoff(parent);
        let slots: Vec<Mutex<Option<ModelOutcome>>> =
            todo.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        // Per-worker work accounting, read back in worker-index order after
        // the scope joins so the telemetry gauge layout is stable.
        let processed: Vec<AtomicUsize> = (0..workers).map(|_| AtomicUsize::new(0)).collect();
        let generator = self.generator;
        let observations = self.observations;
        let margins = &self.margins;
        let pool = &self.pool;
        let family = &self.family;
        let handoff = parent_handoff.as_ref();
        std::thread::scope(|scope| {
            for worker in 0..workers {
                let processed = &processed[worker];
                let (next, todo, slots) = (&next, &todo, &slots);
                scope.spawn(move || loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let Some(set) = todo.get(idx) else {
                        break;
                    };
                    let outcome = evaluate_model(
                        generator,
                        set,
                        observations,
                        margins,
                        pool,
                        family,
                        handoff,
                    );
                    *slots[idx].lock().expect("search worker panicked") = Some(outcome);
                    processed.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        if telemetry::enabled() {
            for (worker, count) in processed.iter().enumerate() {
                telemetry::add_worker_frontier_models(worker, count.load(Ordering::Relaxed) as u64);
            }
        }
        for (set, slot) in todo.iter().zip(slots) {
            let outcome = slot
                .into_inner()
                .expect("search worker panicked")
                .expect("every candidate was scheduled");
            self.record(set.iter().cloned().collect(), outcome);
        }
        sets.iter()
            .map(|s| self.memo[&s.iter().cloned().collect::<Vec<_>>()])
            .collect()
    }
}

/// Sweeps one candidate model over the observation set: pool-certificate
/// prunes first, warm batched LP solves for the rest, fresh certificates back
/// into the pool.
fn evaluate_model<G>(
    generator: &G,
    features: &FeatureSet,
    observations: &[Observation],
    margins: &[f64],
    pool: &SharedPool,
    family: &Arc<str>,
    parent: Option<&Handoff>,
) -> ModelOutcome
where
    G: Fn(&FeatureSet) -> ModelCone,
{
    let cone = generator(features);
    let mut engine = BatchFeasibility::new(&cone);
    let generator_keys: BTreeSet<Vec<u64>> = engine
        .generator_vectors()
        .iter()
        .map(|g| generator_bits(g))
        .collect();

    // Certificate containment: of all pooled separating directions, keep the
    // ones every generator of *this* cone lies on the non-negative side of
    // (one O(d · nnz) pass per direction), and fold their precomputed
    // separated-observation masks together.  A set bit refutes its
    // observation with the engine's own margin criterion, so a prune is
    // always the verdict the LP would return.
    // Snapshots are pointer-copy clones of the `Arc`ed entries; the scans run
    // on them outside the locks so concurrent workers never queue behind each
    // other's containment checks.
    let certificate_snapshot: Vec<Arc<PoolCertificate>> = pool
        .certificates
        .lock()
        .expect("certificate pool poisoned")
        .clone();
    let ray_snapshot: Vec<Arc<PoolRay>> = pool.rays.lock().expect("ray pool poisoned").clone();
    let mut refuted_mask = vec![0u64; observations.len().div_ceil(64)];
    let mut cross_certificates = 0usize;
    for certificate in &certificate_snapshot {
        if engine.certificate_applies(&certificate.direction) {
            if certificate.origin.as_ref() != family.as_ref() {
                cross_certificates += 1;
            }
            for (acc, word) in refuted_mask.iter_mut().zip(&certificate.separated) {
                *acc |= word;
            }
        }
    }
    // Witness-ray containment: a pooled ray whose support generators are all
    // present in this cone (exact bit-level membership) is a point of this
    // cone, so every observation its pierce mask covers is feasible here too.
    let mut feasible_mask = vec![0u64; observations.len().div_ceil(64)];
    let mut cross_rays = 0usize;
    for ray in &ray_snapshot {
        if ray.support.iter().all(|g| generator_keys.contains(g)) {
            if ray.origin.as_ref() != family.as_ref() {
                cross_rays += 1;
            }
            for (acc, word) in feasible_mask.iter_mut().zip(&ray.pierced) {
                *acc |= word;
            }
        }
    }

    let mut got_warm_basis = false;
    if let Some(parent) = parent {
        if let Some(mapped) = map_basis(parent, engine.generator_vectors()) {
            engine.set_warm_basis(parent.axes.clone(), mapped);
            got_warm_basis = true;
        }
    }

    let mut infeasible = 0usize;
    let mut pruned: Vec<usize> = Vec::new();
    let mut witnessed: Vec<usize> = Vec::new();
    let mut inconclusive = 0usize;
    // Self-witness harvest: after each feasible decision, the tableau's
    // positive-flow combination is a cone point; when a scaled copy pierces
    // *this* observation's box (the engine's own margin criterion), the pair
    // (ray, {observation}) goes to the pool with a single-bit mask — O(1) to
    // build, and it settles the same observation for every later model that
    // contains the ray's support.
    let mut self_rays: Vec<(Vec<f64>, Vec<usize>, usize)> = Vec::new();
    for (i, observation) in observations.iter().enumerate() {
        if mask_bit(&refuted_mask, i) {
            infeasible += 1;
            pruned.push(i);
            continue;
        }
        if mask_bit(&feasible_mask, i) {
            witnessed.push(i);
            continue;
        }
        // The bool path: no per-observation evidence extraction (the engine
        // still harvests separating directions and witness rays into its
        // internal caches, which are drained into the pool once per model
        // below).
        match engine.decide_lenient(observation) {
            FeasibilityVerdict::Feasible { .. } => {
                if let Some((ray, support)) = engine.current_ray_with_support() {
                    if crate::batch::ray_pierces_box(&ray, observation.region(), margins[i]) {
                        self_rays.push((ray, support, i));
                    }
                }
            }
            FeasibilityVerdict::Refuted { .. } => infeasible += 1,
            // The warm solve and its cold restart both ran out of iterations.
            // The restart is built only from the cone and the observation, so
            // this outcome does not depend on the timing-sensitive pool
            // contents that decide whether an observation ever reaches the
            // LP, and counting it as not refuted (no certificate exists)
            // keeps the count a pure function of the feature set.
            FeasibilityVerdict::Inconclusive { .. } => inconclusive += 1,
        }
    }

    // Drain the engine's harvested evidence into the shared pool, most
    // recently useful first.  The observation masks are computed here, once
    // per new entry and outside the locks (a concurrent worker inserting the
    // same direction first merely wins the dedup race — the masks are
    // deterministic, so either copy is correct), and amortised over every
    // later model.
    let pooled_directions: BTreeSet<Vec<u64>> = certificate_snapshot
        .iter()
        .map(|p| generator_bits(&p.direction))
        .collect();
    let new_directions: Vec<Vec<f64>> = engine
        .farkas_certificates()
        .iter()
        .rev()
        .filter(|c| !pooled_directions.contains(&generator_bits(c)))
        .cloned()
        .collect();
    if !new_directions.is_empty() {
        let fresh: Vec<PoolCertificate> = new_directions
            .into_iter()
            .map(|direction| PoolCertificate {
                separated: separation_mask(&direction, observations, margins),
                direction,
                origin: Arc::clone(family),
            })
            .collect();
        let mut certificates = pool.certificates.lock().expect("certificate pool poisoned");
        for certificate in fresh {
            if !certificates
                .iter()
                .any(|p| p.direction == certificate.direction)
            {
                certificates.insert(0, Arc::new(certificate));
            }
        }
        certificates.truncate(POOL_CAP);
    }
    // Rays come from two harvests: the engine's internal MRU cache (few, but
    // worth a full cross-observation pierce mask each) and the per-solve self
    // rays collected above (many, each carrying its single known bit).
    // Identical rays merge by OR-ing masks, keyed by their exact bit patterns
    // so every merge is a hash lookup instead of an O(pool) vector scan.
    let snapshot_index: BTreeMap<Vec<u64>, usize> = ray_snapshot
        .iter()
        .enumerate()
        .rev() // first occurrence wins on (impossible) duplicate keys
        .map(|(i, p)| (generator_bits(&p.ray), i))
        .collect();
    let new_cached_rays: Vec<(Vec<f64>, Vec<usize>)> = engine
        .witness_rays_with_supports()
        .filter(|(ray, _)| !snapshot_index.contains_key(&generator_bits(ray)))
        .map(|(ray, support)| (ray.clone(), support.clone()))
        .collect();
    if !new_cached_rays.is_empty() || !self_rays.is_empty() {
        let generators = engine.generator_vectors();
        let key_of = |support: &[usize]| -> Vec<Vec<u64>> {
            support
                .iter()
                .map(|&j| generator_bits(&generators[j]))
                .collect()
        };
        let words = observations.len().div_ceil(64);
        let mut fresh: Vec<PoolRay> = Vec::new();
        let mut fresh_index: BTreeMap<Vec<u64>, usize> = BTreeMap::new();
        for (ray, support) in new_cached_rays {
            let key = generator_bits(&ray);
            if fresh_index.contains_key(&key) {
                continue;
            }
            fresh_index.insert(key, fresh.len());
            fresh.push(PoolRay {
                pierced: pierce_mask(&ray, observations, margins),
                support: key_of(&support),
                ray,
                origin: Arc::clone(family),
            });
        }
        for (ray, support, obs) in self_rays {
            let key = generator_bits(&ray);
            if let Some(&at) = fresh_index.get(&key) {
                fresh[at].pierced[obs / 64] |= 1 << (obs % 64);
                continue;
            }
            // Already pooled with this observation's bit set: nothing to add.
            if let Some(&at) = snapshot_index.get(&key) {
                if mask_bit(&ray_snapshot[at].pierced, obs) {
                    continue;
                }
            }
            let mut pierced = vec![0u64; words];
            pierced[obs / 64] |= 1 << (obs % 64);
            fresh_index.insert(key, fresh.len());
            fresh.push(PoolRay {
                pierced,
                support: key_of(&support),
                ray,
                origin: Arc::clone(family),
            });
        }
        let cap = ray_pool_cap(observations.len());
        let mut rays = pool.rays.lock().expect("ray pool poisoned");
        let mut pool_index: BTreeMap<Vec<u64>, usize> = BTreeMap::new();
        for (i, p) in rays.iter().enumerate() {
            pool_index.entry(generator_bits(&p.ray)).or_insert(i);
        }
        let mut newly: Vec<Arc<PoolRay>> = Vec::new();
        for ray in fresh {
            if let Some(&at) = pool_index.get(&generator_bits(&ray.ray)) {
                // `make_mut` clones only if a reader still holds the old
                // snapshot; the bits it saw remain valid either way.
                for (acc, word) in Arc::make_mut(&mut rays[at])
                    .pierced
                    .iter_mut()
                    .zip(&ray.pierced)
                {
                    *acc |= word;
                }
                continue;
            }
            newly.push(Arc::new(ray));
        }
        // Most recently harvested first, matching the historical insert-at-0
        // order (each successive insert landed in front of the previous one).
        newly.reverse();
        rays.splice(0..0, newly);
        rays.truncate(cap);
    }

    let handoff = engine.basis_handoff().map(|(axes, basis)| Handoff {
        generators: engine.generator_vectors().to_vec(),
        axes,
        basis,
    });
    ModelOutcome {
        infeasible,
        pruned,
        witnessed,
        inconclusive,
        cross_certificates,
        cross_rays,
        handoff,
        got_warm_basis,
    }
}

/// Re-indexes a parent basis onto a child engine's columns: structural
/// columns map through exact generator identity (bit-level), slacks map by
/// row; columns with no counterpart become `usize::MAX`, which the tableau
/// skips during installation.  `None` when the child has no generators (the
/// degenerate cone never builds a tableau).
fn map_basis(parent: &Handoff, child_generators: &[Vec<f64>]) -> Option<Vec<usize>> {
    let child_n = child_generators.len();
    if child_n == 0 || parent.basis.len() != 2 * parent.axes.len() {
        return None;
    }
    let index: BTreeMap<Vec<u64>, usize> = child_generators
        .iter()
        .enumerate()
        .map(|(j, g)| (generator_bits(g), j))
        .collect();
    let parent_n = parent.generators.len();
    Some(
        parent
            .basis
            .iter()
            .map(|&col| {
                if col < parent_n {
                    index
                        .get(&generator_bits(&parent.generators[col]))
                        .copied()
                        .unwrap_or(usize::MAX)
                } else {
                    child_n + (col - parent_n)
                }
            })
            .collect(),
    )
}

/// A generator as an exact bit-pattern key (generators are deduplicated per
/// cone, so the key is injective within one model).
fn generator_bits(generator: &[f64]) -> Vec<u64> {
    generator.iter().map(|v| v.to_bits()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::reference_search;
    use crate::feature_set;
    use counterpoint_mudd::{CounterSignature, CounterSpace};

    /// The toy feature lattice of the explore tests: base allows x only,
    /// `Fy` adds [1, 1], `Fboth` adds [0, 1].
    fn toy_cone(features: &FeatureSet) -> ModelCone {
        let space = CounterSpace::new(&["x", "y"]);
        let mut sigs = vec![CounterSignature::from_counts(vec![1, 0])];
        if features.contains("Fy") {
            sigs.push(CounterSignature::from_counts(vec![1, 1]));
        }
        if features.contains("Fboth") {
            sigs.push(CounterSignature::from_counts(vec![0, 1]));
        }
        let n = sigs.len();
        ModelCone::from_signatures("toy", &space, sigs, n)
    }

    fn observations() -> Vec<Observation> {
        vec![
            Observation::exact("x-only", &[10.0, 0.0]),
            Observation::exact("balanced", &[10.0, 6.0]),
            Observation::exact("y-heavy", &[2.0, 10.0]),
        ]
    }

    #[test]
    fn matches_the_sequential_reference_on_the_toy_lattice() {
        let universe = ["Fy", "Fboth"];
        let observations = observations();
        for initial in [
            feature_set::<&str>(&[]),
            feature_set(&["Fy"]),
            feature_set(&["Fy", "Fboth"]),
        ] {
            let expected = reference_search(&toy_cone, &universe, 256, &initial, &observations);
            let search = LatticeSearch::new(toy_cone, &universe);
            assert_eq!(search.run(&initial, &observations), expected);
        }
    }

    #[test]
    fn thread_counts_do_not_change_the_graph() {
        let universe = ["Fy", "Fboth"];
        let observations = observations();
        let mut search = LatticeSearch::new(toy_cone, &universe);
        let baseline = search.run(&FeatureSet::new(), &observations);
        for threads in [0, 2, 8] {
            search.set_threads(threads);
            assert_eq!(
                search.run(&FeatureSet::new(), &observations),
                baseline,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn budget_is_respected() {
        let mut search = LatticeSearch::new(toy_cone, &["Fy", "Fboth"]);
        search.set_max_models(1);
        let graph = search.run(&FeatureSet::new(), &observations());
        assert_eq!(graph.steps.len(), 1);
        let expected = reference_search(
            &toy_cone,
            &["Fy", "Fboth"],
            1,
            &FeatureSet::new(),
            &observations(),
        );
        assert_eq!(graph, expected);
    }

    #[test]
    fn stats_account_for_every_observation() {
        // Start from the full feature set: elimination then descends through
        // {Fy} (refuted by the y-heavy observation) down to {}, and the
        // certificate harvested from {Fy}'s refutation must prune the same
        // observation for the submodel {}.
        let search = LatticeSearch::new(toy_cone, &["Fy", "Fboth"]);
        let (graph, stats) = search.run_with_stats(&feature_set(&["Fy", "Fboth"]), &observations());
        assert!(stats.models_evaluated >= graph.steps.len());
        assert_eq!(
            stats.observations_swept,
            stats.models_evaluated * observations().len()
        );
        assert_eq!(
            stats.observations_swept,
            stats.certificate_pruned + stats.witness_settled + stats.lp_tested
        );
        assert_eq!(stats.inconclusive, 0);
        // Elimination revisits the base model's children: the infeasible
        // refutations harvested on the way up must prune on the way down.
        assert!(
            stats.certificate_pruned > 0,
            "the toy search must reuse at least one certificate: {stats:?}"
        );
        for pruned in &stats.pruned_models {
            assert_eq!(
                pruned.pruned_observations.len(),
                pruned
                    .pruned_observations
                    .iter()
                    .collect::<BTreeSet<_>>()
                    .len()
            );
        }
    }

    #[test]
    fn shared_pool_prunes_across_families_without_changing_graphs() {
        let universe = ["Fy", "Fboth"];
        let observations = observations();
        let start = feature_set(&["Fy", "Fboth"]);

        // Private baseline: what each search produces without any sharing.
        let baseline = LatticeSearch::new(toy_cone, &universe).run(&start, &observations);

        let pool = CertificatePool::new();
        let mut first = LatticeSearch::new(toy_cone, &universe);
        first.set_shared_pool(&pool, "family-a");
        let (graph_a, stats_a) = first.run_with_stats(&start, &observations);
        assert_eq!(graph_a, baseline);
        assert_eq!(
            stats_a.cross_family_certificate_hits, 0,
            "the first family has no siblings to inherit from"
        );
        assert!(
            pool.num_certificates() > 0,
            "the first sweep must seed the shared pool"
        );

        let mut second = LatticeSearch::new(toy_cone, &universe);
        second.set_shared_pool(&pool, "family-b");
        let (graph_b, stats_b) = second.run_with_stats(&start, &observations);
        assert_eq!(graph_b, baseline, "pool sharing must not change the graph");
        assert!(
            stats_b.cross_family_certificate_hits > 0,
            "the second family must reuse certificates harvested by the first: {stats_b:?}"
        );
    }

    #[test]
    fn shared_pool_rejects_mismatched_observations() {
        let pool = CertificatePool::new();
        let mut first = LatticeSearch::new(toy_cone, &["Fy", "Fboth"]);
        first.set_shared_pool(&pool, "family-a");
        first.run(&feature_set(&["Fy", "Fboth"]), &observations());
        assert!(pool.num_certificates() > 0);

        // A search over a *different* observation set must fall back to a
        // private pool: the pooled bit masks are indexed by the observation
        // list the pool was first attached to.
        let other = vec![Observation::exact("different", &[1.0, 1.0])];
        let mut second = LatticeSearch::new(toy_cone, &["Fy", "Fboth"]);
        second.set_shared_pool(&pool, "family-b");
        let (graph, stats) = second.run_with_stats(&FeatureSet::new(), &other);
        let expected =
            LatticeSearch::new(toy_cone, &["Fy", "Fboth"]).run(&FeatureSet::new(), &other);
        assert_eq!(graph, expected);
        assert_eq!(stats.cross_family_certificate_hits, 0);
        assert_eq!(stats.cross_family_witness_hits, 0);
    }

    #[test]
    fn empty_universe_and_empty_observations_are_handled() {
        let empty_universe: [&str; 0] = [];
        let search = LatticeSearch::new(toy_cone, &empty_universe);
        let graph = search.run(&FeatureSet::new(), &observations());
        assert_eq!(graph.steps.len(), 1);
        assert!(graph.edges.is_empty());

        let search = LatticeSearch::new(toy_cone, &["Fy"]);
        let graph = search.run(&FeatureSet::new(), &[]);
        // Zero observations: everything is feasible, elimination runs.
        assert!(graph.steps[0].feasible);
        assert_eq!(graph.minimal_feasible, vec![Vec::<String>::new()]);
    }
}
