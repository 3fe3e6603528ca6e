//! The named model families of the case study (Tables 3, 5 and 7) and their cone
//! builders.

use crate::aborts::{abort_request_mudd, AbortPoint};
use crate::demand::{demand_mudd, DemandOptions, PrefetchAttachPoint};
use crate::features::{has, to_feature_set, Feature};
use crate::prefetch::{standalone_prefetch_mudd, TriggerSpec};
use counterpoint_core::{FeatureSet, ModelCone};
use counterpoint_haswell::full_counter_space;
use counterpoint_haswell::hec::AccessType;
use counterpoint_mudd::{CounterSignature, MuDd, MuDdError};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, OnceLock};

/// The inputs one model μDD is built from, over the full Haswell counter
/// space.  The μpath cache ([`mudd_paths`]) is keyed by these: equal inputs
/// mean an equal diagram, and a model's input list determines its cone.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum MuddInput {
    /// A demand load or store diagram ([`demand_mudd`]).
    Demand(DemandOptions),
    /// The stand-alone prefetch diagram ([`standalone_prefetch_mudd`]).
    Prefetch { early_psc: bool, pml4e: bool },
    /// The aborted-request diagram ([`abort_request_mudd`]) of a non-empty
    /// abort-point list, in the order given.
    Aborts(Vec<AbortPoint>),
}

impl MuddInput {
    /// Builds the diagram (uncached).
    pub(crate) fn build(&self) -> MuDd {
        let space = full_counter_space();
        match self {
            MuddInput::Demand(opts) => demand_mudd(&space, opts),
            MuddInput::Prefetch { early_psc, pml4e } => {
                standalone_prefetch_mudd(&space, *early_psc, *pml4e)
            }
            MuddInput::Aborts(points) => {
                abort_request_mudd(&space, points).expect("abort inputs list an abort point")
            }
        }
    }
}

/// The μDD inputs of a model: load and store demand diagrams, the stand-alone
/// prefetch diagram when the model prefetches abstractly or on speculative
/// μops, and the aborted-request diagram when it has abort points.  Every
/// family builder and the grammar expansion resolve their models here, so
/// the cones they build and the structures expansion compares cannot
/// disagree.
pub(crate) fn mudd_inputs(
    features: &FeatureSet,
    trigger: Option<&TriggerSpec>,
    aborts: &[AbortPoint],
) -> Vec<MuddInput> {
    let mut load = DemandOptions::new(AccessType::Load, features);
    let mut store = DemandOptions::new(AccessType::Store, features);
    let mut standalone_prefetch = false;
    if has(features, Feature::TlbPrefetch) {
        match trigger {
            // Abstract prefetching (the initial-search form) and speculative
            // triggers both use the stand-alone prefetch μop.
            None => standalone_prefetch = true,
            Some(t) if t.speculative => standalone_prefetch = true,
            Some(t) => {
                let attach = if t.stlb_miss {
                    PrefetchAttachPoint::AfterStlbMiss
                } else if t.dtlb_miss {
                    PrefetchAttachPoint::AfterDtlbMiss
                } else {
                    PrefetchAttachPoint::Always
                };
                if t.load {
                    load.inline_prefetch = Some(attach);
                }
                if t.store {
                    store.inline_prefetch = Some(attach);
                }
            }
        }
    }
    let mut inputs = vec![MuddInput::Demand(load), MuddInput::Demand(store)];
    if standalone_prefetch {
        inputs.push(MuddInput::Prefetch {
            early_psc: has(features, Feature::EarlyPsc),
            pml4e: has(features, Feature::Pml4eCache),
        });
    }
    if !aborts.is_empty() {
        inputs.push(MuddInput::Aborts(aborts.to_vec()));
    }
    inputs
}

/// One μDD's μpaths as a model cone consumes them.
pub(crate) struct MuddPaths {
    /// The μpaths' counter signatures, first occurrence of each kept, in
    /// enumeration order.
    pub(crate) signatures: Vec<CounterSignature>,
    /// μpaths enumerated, duplicates included.
    pub(crate) num_paths: usize,
}

impl MuddPaths {
    fn enumerate(mudd: &MuDd) -> Result<MuddPaths, MuDdError> {
        let all = mudd.path_signatures()?;
        let num_paths = all.len();
        let mut seen = BTreeSet::new();
        let signatures = all
            .into_iter()
            .filter(|sig| seen.insert(sig.counts().to_vec()))
            .collect();
        Ok(MuddPaths {
            signatures,
            num_paths,
        })
    }
}

/// A μDD's μpaths under `max_paths`, enumerated once per process and cached
/// by the diagram's inputs — never by the address of a built diagram, since
/// a freed diagram's address can be reused.  The diagram itself is dropped
/// once its paths are taken.
///
/// μDDs are pure functions of their inputs, and the grammar expansion and
/// the lattice searches ask for the same few dozen diagrams thousands of
/// times per run.
///
/// # Errors
///
/// [`MuDdError::PathExplosion`] when the diagram has more than `max_paths`
/// μpaths, or more than its builder's own limit (`max_paths` lowers that
/// limit, never raises it).
pub(crate) fn mudd_paths(
    input: &MuddInput,
    max_paths: Option<usize>,
) -> Result<Arc<MuddPaths>, MuDdError> {
    type Cache = BTreeMap<MuddInput, Result<Arc<MuddPaths>, MuDdError>>;
    static CACHE: OnceLock<Mutex<Cache>> = OnceLock::new();
    let cache = CACHE.get_or_init(Default::default);
    let cached = cache.lock().unwrap().get(input).cloned();
    let paths = cached.unwrap_or_else(|| {
        let paths = MuddPaths::enumerate(&input.build()).map(Arc::new);
        let mut cache = cache.lock().unwrap();
        cache.entry(input.clone()).or_insert(paths).clone()
    })?;
    match max_paths {
        Some(limit) if paths.num_paths > limit => Err(MuDdError::PathExplosion { limit }),
        _ => Ok(paths),
    }
}

/// Assembles a model's cone from its μDDs' cached μpaths, optionally
/// re-bounding every diagram's path limit (the enumeration layer's
/// `max_paths` metric).  All the family builders funnel through here.
///
/// Equal to [`ModelCone::from_mudds`] over the same diagrams in signatures,
/// path count and generator order: deduplicating a concatenation keeps the
/// same first occurrences whether or not each part was deduplicated first.
///
/// # Errors
///
/// Returns [`MuDdError::PathExplosion`] for the first diagram over the limit.
pub(crate) fn assemble_cone(
    name: &str,
    inputs: &[MuddInput],
    max_paths: Option<usize>,
) -> Result<ModelCone, MuDdError> {
    let mut signatures = Vec::new();
    let mut num_paths = 0usize;
    for input in inputs {
        let paths = mudd_paths(input, max_paths)?;
        num_paths += paths.num_paths;
        signatures.extend_from_slice(&paths.signatures);
    }
    Ok(ModelCone::from_signatures(
        name,
        &full_counter_space(),
        signatures,
        num_paths,
    ))
}

/// Entry cap for the feature-model cone cache: generous for the 2⁵ subsets of
/// [`Feature::ALL`] the searches explore, while bounding memory if a caller
/// sweeps arbitrary feature names.
const MODEL_CACHE_CAP: usize = 64;

/// Builds the model cone of an initial-search model identified by its feature set
/// (the `m`-family of Table 3, and the generator used by the guided search).
///
/// Cone assembly is a pure function of `(name, features)`, and the guided
/// search re-derives the same feature subsets on every trajectory, so the
/// finished cones are memoised alongside the μDD cache (bounded to
/// `MODEL_CACHE_CAP` first-come entries).
pub fn build_feature_model(name: &str, features: &FeatureSet) -> ModelCone {
    static CACHE: OnceLock<Mutex<BTreeMap<String, ModelCone>>> = OnceLock::new();
    let mut key = name.to_string();
    for feature in features {
        key.push('\x1f');
        key.push_str(feature);
    }
    let cache = CACHE.get_or_init(|| Mutex::new(BTreeMap::new()));
    if let Some(cone) = cache.lock().unwrap().get(&key) {
        return cone.clone();
    }
    let cone = build_feature_model_uncached(name, features);
    let mut cache = cache.lock().unwrap();
    if cache.len() < MODEL_CACHE_CAP {
        cache.entry(key).or_insert_with(|| cone.clone());
    }
    cone
}

fn build_feature_model_uncached(name: &str, features: &FeatureSet) -> ModelCone {
    try_build_feature_model(name, features).expect("case-study models stay within the path limit")
}

/// Fallible variant of [`build_feature_model`]: a μDD whose enumeration
/// exceeds the path limit surfaces as [`MuDdError::PathExplosion`] instead of
/// aborting the process.  Enumerated model generators use this (optionally
/// via a tighter bound, see [`crate::enumo`]) to *skip* oversized candidates.
///
/// # Errors
///
/// Returns the first [`MuDdError`] hit while enumerating the model's μpaths.
pub fn try_build_feature_model(name: &str, features: &FeatureSet) -> Result<ModelCone, MuDdError> {
    assemble_cone(name, &mudd_inputs(features, None, &[]), None)
}

/// The twelve feature sets of the initial model search (paper, Table 3).
pub fn feature_sets_table3() -> Vec<(String, FeatureSet)> {
    use Feature::*;
    let rows: Vec<(&str, Vec<Feature>)> = vec![
        ("m0", vec![]),
        ("m1", vec![TlbPrefetch]),
        ("m2", vec![TlbPrefetch, EarlyPsc, Merging]),
        ("m3", vec![TlbPrefetch, EarlyPsc, Merging, Pml4eCache]),
        (
            "m4",
            vec![TlbPrefetch, EarlyPsc, Merging, Pml4eCache, WalkBypass],
        ),
        ("m5", vec![EarlyPsc, Merging, Pml4eCache, WalkBypass]),
        ("m6", vec![TlbPrefetch, Merging, Pml4eCache, WalkBypass]),
        ("m7", vec![TlbPrefetch, EarlyPsc, Pml4eCache, WalkBypass]),
        ("m8", vec![TlbPrefetch, EarlyPsc, Merging, WalkBypass]),
        ("m9", vec![EarlyPsc, Merging, WalkBypass]),
        ("m10", vec![TlbPrefetch, Merging, WalkBypass]),
        ("m11", vec![TlbPrefetch, EarlyPsc, WalkBypass]),
    ];
    rows.into_iter()
        .map(|(name, features)| (name.to_string(), to_feature_set(&features)))
        .collect()
}

/// Builds the model cone of a prefetch-trigger model (the `t`-family of Table 5).
///
/// Every trigger model is a derivative of the feature-complete model `m4`; only the
/// prefetcher's trigger conditions vary.  `Spec ✓` models keep the stand-alone
/// prefetch μop; `Spec ✗` models fold the prefetch request into the retiring load
/// and/or store μop paths at the point dictated by the miss requirement.
pub fn build_trigger_model(name: &str, spec: &TriggerSpec) -> ModelCone {
    try_build_trigger_model(name, spec).expect("trigger models stay within the path limit")
}

/// Fallible variant of [`build_trigger_model`] (see
/// [`try_build_feature_model`] for the error contract).
///
/// # Errors
///
/// Returns the first [`MuDdError`] hit while enumerating the model's μpaths.
pub fn try_build_trigger_model(name: &str, spec: &TriggerSpec) -> Result<ModelCone, MuDdError> {
    assemble_cone(name, &trigger_model_inputs(spec), None)
}

/// The μDD inputs of a trigger model: the feature-complete model with the
/// trigger's prefetch placement.
pub(crate) fn trigger_model_inputs(spec: &TriggerSpec) -> Vec<MuddInput> {
    mudd_inputs(&to_feature_set(&Feature::ALL), Some(spec), &[])
}

/// The eighteen trigger-condition models of Table 5.
pub fn trigger_specs_table5() -> Vec<(String, TriggerSpec)> {
    let rows: Vec<(bool, bool, bool, bool, bool)> = vec![
        (true, true, false, false, false),  // t0
        (true, true, false, true, false),   // t1
        (true, true, false, false, true),   // t2
        (true, false, true, false, false),  // t3
        (true, false, true, true, false),   // t4
        (true, false, true, false, true),   // t5
        (true, true, true, false, false),   // t6
        (true, true, true, true, false),    // t7
        (true, true, true, false, true),    // t8
        (false, true, false, false, false), // t9
        (false, true, false, true, false),  // t10
        (false, true, false, false, true),  // t11
        (false, false, true, false, false), // t12
        (false, false, true, true, false),  // t13
        (false, false, true, false, true),  // t14
        (false, true, true, false, false),  // t15
        (false, true, true, true, false),   // t16
        (false, true, true, false, true),   // t17
    ];
    rows.into_iter()
        .enumerate()
        .map(|(i, (speculative, load, store, dtlb_miss, stlb_miss))| {
            (
                format!("t{i}"),
                TriggerSpec {
                    speculative,
                    load,
                    store,
                    dtlb_miss,
                    stlb_miss,
                },
            )
        })
        .collect()
}

/// Builds the model cone of an abort-point model (the `a`-family of Table 7):
/// the feature-complete trigger model `t0` with walk bypassing removed and
/// translation-request aborts added at the given pipeline points.
pub fn build_abort_model(name: &str, points: &[AbortPoint]) -> ModelCone {
    try_build_abort_model(name, points).expect("abort models stay within the path limit")
}

/// Fallible variant of [`build_abort_model`] (see
/// [`try_build_feature_model`] for the error contract).
///
/// # Errors
///
/// Returns the first [`MuDdError`] hit while enumerating the model's μpaths.
pub fn try_build_abort_model(name: &str, points: &[AbortPoint]) -> Result<ModelCone, MuDdError> {
    assemble_cone(name, &abort_model_inputs(points), None)
}

/// The μDD inputs of an abort model: `t0`'s features without walk bypassing,
/// plus the aborted-request diagram.
pub(crate) fn abort_model_inputs(points: &[AbortPoint]) -> Vec<MuddInput> {
    let features = to_feature_set(&[
        Feature::TlbPrefetch,
        Feature::EarlyPsc,
        Feature::Merging,
        Feature::Pml4eCache,
    ]);
    mudd_inputs(&features, None, points)
}

/// The four abort-point models of Table 7 (cumulatively enabling later abort
/// points).
pub fn abort_specs_table7() -> Vec<(String, Vec<AbortPoint>)> {
    vec![
        ("a0".to_string(), vec![AbortPoint::DuringWalk]),
        (
            "a1".to_string(),
            vec![AbortPoint::DuringWalk, AbortPoint::AfterPsc],
        ),
        (
            "a2".to_string(),
            vec![
                AbortPoint::DuringWalk,
                AbortPoint::AfterPsc,
                AbortPoint::AfterL2Tlb,
            ],
        ),
        (
            "a3".to_string(),
            vec![
                AbortPoint::DuringWalk,
                AbortPoint::AfterPsc,
                AbortPoint::AfterL2Tlb,
                AbortPoint::AfterL1Tlb,
            ],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use counterpoint_core::{BatchFeasibility, Observation};

    #[test]
    fn table3_has_twelve_models_with_expected_features() {
        let specs = feature_sets_table3();
        assert_eq!(specs.len(), 12);
        assert_eq!(specs[0].0, "m0");
        assert!(specs[0].1.is_empty());
        assert_eq!(specs[4].1.len(), 5);
        // m4 and m8 differ exactly by the PML4E cache.
        let m4: &FeatureSet = &specs[4].1;
        let m8: &FeatureSet = &specs[8].1;
        assert!(m4.contains("Pml4eCache"));
        assert!(!m8.contains("Pml4eCache"));
        assert_eq!(m4.len(), m8.len() + 1);
    }

    #[test]
    fn table5_has_eighteen_models_matching_the_paper() {
        let specs = trigger_specs_table5();
        assert_eq!(specs.len(), 18);
        assert!(specs[..9].iter().all(|(_, s)| s.speculative));
        assert!(specs[9..].iter().all(|(_, s)| !s.speculative));
        assert!(specs[12].1.store && !specs[12].1.load); // t12 is store-only
        assert!(specs[10].1.dtlb_miss); // t10 requires a DTLB miss
    }

    #[test]
    fn table7_abort_points_are_cumulative() {
        let specs = abort_specs_table7();
        assert_eq!(specs.len(), 4);
        for window in specs.windows(2) {
            assert_eq!(window[0].1.len() + 1, window[1].1.len());
        }
    }

    #[test]
    fn try_builders_report_path_explosion_instead_of_aborting() {
        use counterpoint_mudd::MuDdError;
        let specs = feature_sets_table3();
        // The hand-written models all fit the default limit.
        assert!(try_build_feature_model("m4", &specs[4].1).is_ok());
        assert!(try_build_trigger_model("t0", &TriggerSpec::t0()).is_ok());
        assert!(try_build_abort_model("a0", &[AbortPoint::DuringWalk]).is_ok());
        // A starvation-level bound turns the same model into a typed error.
        let starved = [
            mudd_inputs(&specs[4].1, None, &[]),
            trigger_model_inputs(&TriggerSpec::t0()),
            abort_model_inputs(&[AbortPoint::DuringWalk]),
        ];
        for inputs in &starved {
            let err = assemble_cone("starved", inputs, Some(1)).unwrap_err();
            assert!(matches!(err, MuDdError::PathExplosion { limit: 1 }));
        }
    }

    #[test]
    fn m0_and_m4_cones_build_over_the_full_counter_space() {
        let specs = feature_sets_table3();
        let m0 = build_feature_model("m0", &specs[0].1);
        let m4 = build_feature_model("m4", &specs[4].1);
        assert_eq!(m0.dimension(), 26);
        assert_eq!(m4.dimension(), 26);
        assert!(m4.num_generators() > m0.num_generators());
    }

    #[test]
    fn m4_explains_observations_that_refute_m0() {
        let specs = feature_sets_table3();
        let m0 = build_feature_model("m0", &specs[0].1);
        let m4 = build_feature_model("m4", &specs[4].1);
        let space = full_counter_space();

        // A merged-walk + early-PSC observation: more retired STLB misses and PDE
        // misses than completed walks (loads only).
        let mut values = vec![0.0; space.len()];
        values[space.index_of("load.ret").unwrap()] = 1000.0;
        values[space.index_of("load.ret_stlb_miss").unwrap()] = 300.0;
        values[space.index_of("load.pde$_miss").unwrap()] = 250.0;
        values[space.index_of("load.causes_walk").unwrap()] = 150.0;
        values[space.index_of("load.walk_done").unwrap()] = 150.0;
        values[space.index_of("load.walk_done_4k").unwrap()] = 150.0;
        values[space.index_of("walk_ref.l2").unwrap()] = 200.0;
        let obs = Observation::exact("merged-and-early-psc", &values);

        assert!(BatchFeasibility::new(&m0).verdict(&obs).is_refuted());
        assert!(BatchFeasibility::new(&m4).verdict(&obs).is_feasible());
    }

    #[test]
    fn walk_bypass_distinguishes_m3_from_m4() {
        let specs = feature_sets_table3();
        let m3 = build_feature_model("m3", &specs[3].1);
        let m4 = build_feature_model("m4", &specs[4].1);
        let space = full_counter_space();

        // Walks that complete with fewer references than walks (replays).
        let mut values = vec![0.0; space.len()];
        values[space.index_of("load.ret").unwrap()] = 1000.0;
        values[space.index_of("load.ret_stlb_miss").unwrap()] = 200.0;
        values[space.index_of("load.causes_walk").unwrap()] = 200.0;
        values[space.index_of("load.walk_done").unwrap()] = 200.0;
        values[space.index_of("load.walk_done_4k").unwrap()] = 200.0;
        values[space.index_of("load.pde$_miss").unwrap()] = 120.0;
        values[space.index_of("walk_ref.mem").unwrap()] = 60.0;
        let obs = Observation::exact("replayed-walks", &values);

        assert!(BatchFeasibility::new(&m3).verdict(&obs).is_refuted());
        assert!(BatchFeasibility::new(&m4).verdict(&obs).is_feasible());
    }

    #[test]
    fn prefetching_distinguishes_m5_from_m4() {
        let specs = feature_sets_table3();
        let m4 = build_feature_model("m4", &specs[4].1);
        let m5 = build_feature_model("m5", &specs[5].1);
        let space = full_counter_space();

        // The linear-microbenchmark steady state: far more walks than retired STLB
        // misses because the prefetcher resolves translations ahead of demand.
        let mut values = vec![0.0; space.len()];
        values[space.index_of("load.ret").unwrap()] = 100_000.0;
        values[space.index_of("load.ret_stlb_miss").unwrap()] = 50.0;
        values[space.index_of("load.causes_walk").unwrap()] = 1500.0;
        values[space.index_of("load.walk_done").unwrap()] = 1500.0;
        values[space.index_of("load.walk_done_4k").unwrap()] = 1500.0;
        values[space.index_of("walk_ref.l1").unwrap()] = 1500.0;
        values[space.index_of("load.pde$_miss").unwrap()] = 10.0;
        let obs = Observation::exact("linear-prefetch-steady-state", &values);

        assert!(BatchFeasibility::new(&m4).verdict(&obs).is_feasible());
        assert!(BatchFeasibility::new(&m5).verdict(&obs).is_refuted());
    }

    #[test]
    fn speculative_trigger_models_accept_prefetch_heavy_observations() {
        let t0 = build_trigger_model("t0", &TriggerSpec::t0());
        let t10 = build_trigger_model(
            "t10",
            &TriggerSpec {
                speculative: false,
                load: true,
                store: false,
                dtlb_miss: true,
                stlb_miss: false,
            },
        );
        let space = full_counter_space();
        // Prefetch-dominated linear microbenchmark: demand loads hit the L1 TLB.
        let mut values = vec![0.0; space.len()];
        values[space.index_of("load.ret").unwrap()] = 100_000.0;
        values[space.index_of("load.ret_stlb_miss").unwrap()] = 10.0;
        values[space.index_of("load.causes_walk").unwrap()] = 1500.0;
        values[space.index_of("load.walk_done").unwrap()] = 1500.0;
        values[space.index_of("load.walk_done_4k").unwrap()] = 1500.0;
        values[space.index_of("walk_ref.l2").unwrap()] = 1500.0;
        let obs = Observation::exact("linear-prefetch", &values);

        assert!(BatchFeasibility::new(&t0).verdict(&obs).is_feasible());
        // Requiring a demand DTLB miss per prefetch cannot explain 1500 walks from
        // only 10 misses.
        assert!(BatchFeasibility::new(&t10).verdict(&obs).is_refuted());
    }

    #[test]
    fn abort_models_cannot_explain_reference_free_walks() {
        let specs = abort_specs_table7();
        let space = full_counter_space();
        let mut values = vec![0.0; space.len()];
        values[space.index_of("load.ret").unwrap()] = 10_000.0;
        values[space.index_of("load.ret_stlb_miss").unwrap()] = 500.0;
        values[space.index_of("load.causes_walk").unwrap()] = 500.0;
        values[space.index_of("load.walk_done").unwrap()] = 500.0;
        values[space.index_of("load.walk_done_4k").unwrap()] = 500.0;
        values[space.index_of("load.pde$_miss").unwrap()] = 300.0;
        values[space.index_of("walk_ref.l3").unwrap()] = 100.0;
        let obs = Observation::exact("reference-free-walks", &values);
        for (name, points) in &specs {
            let cone = build_abort_model(name, points);
            assert!(
                BatchFeasibility::new(&cone).verdict(&obs).is_refuted(),
                "{name} should not explain walks that complete without references"
            );
        }
        // The bypass-capable t0 model explains the same observation.
        let t0 = build_trigger_model("t0", &TriggerSpec::t0());
        assert!(BatchFeasibility::new(&t0).verdict(&obs).is_feasible());
    }
}
