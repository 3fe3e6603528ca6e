//! The named model families of the case study (Tables 3, 5 and 7) and their cone
//! builders.

use crate::aborts::{abort_request_mudd, AbortPoint};
use crate::demand::{demand_mudd, DemandOptions, PrefetchAttachPoint};
use crate::features::{has, to_feature_set, Feature};
use crate::prefetch::{standalone_prefetch_mudd, TriggerSpec};
use counterpoint_core::{FeatureSet, ModelCone};
use counterpoint_haswell::full_counter_space;
use counterpoint_haswell::hec::AccessType;
use counterpoint_mudd::{CounterSpace, MuDd, MuDdError};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Assembles a cone from μDDs, optionally re-bounding every diagram's path
/// limit first (the enumeration layer's `max_paths` metric).  All the family
/// builders funnel through here so the fallible and infallible entry points
/// share one code path.
pub(crate) fn assemble_cone(
    name: &str,
    mudds: &[Arc<MuDd>],
    max_paths: Option<usize>,
) -> Result<ModelCone, MuDdError> {
    match max_paths {
        Some(limit) => {
            let bounded: Vec<MuDd> = mudds.iter().map(|m| m.with_max_paths(limit)).collect();
            let refs: Vec<&MuDd> = bounded.iter().collect();
            ModelCone::from_mudds(name, &refs)
        }
        None => {
            let refs: Vec<&MuDd> = mudds.iter().map(Arc::as_ref).collect();
            ModelCone::from_mudds(name, &refs)
        }
    }
}

/// Memoised demand μDD construction over the full Haswell counter space.
///
/// μDDs are immutable and `demand_mudd` is a pure function of its options, but
/// the guided lattice search re-derives the same handful of diagram variants
/// hundreds of times per run, and diagram construction (builder validation,
/// node naming) dominates model-cone assembly.  The cache key captures every
/// input `demand_mudd` sees except the counter space, which is always
/// [`full_counter_space`] for the builders in this module (checked in debug
/// builds).
pub(crate) fn cached_demand_mudd(space: &CounterSpace, opts: &DemandOptions) -> Arc<MuDd> {
    static CACHE: OnceLock<Mutex<BTreeMap<String, Arc<MuDd>>>> = OnceLock::new();
    let mut key = format!("{:?}|{:?}", opts.access, opts.inline_prefetch);
    for feature in &opts.features {
        key.push('\x1f');
        key.push_str(feature);
    }
    let cache = CACHE.get_or_init(|| Mutex::new(BTreeMap::new()));
    if let Some(mudd) = cache.lock().unwrap().get(&key) {
        debug_assert_eq!(mudd.counters(), space, "cache is per-counter-space");
        return Arc::clone(mudd);
    }
    let mudd = Arc::new(demand_mudd(space, opts));
    Arc::clone(cache.lock().unwrap().entry(key).or_insert(mudd))
}

/// Cache storage of [`cached_prefetch_mudd`], keyed by its two flags.
type PrefetchMuddCache = OnceLock<Mutex<BTreeMap<(bool, bool), Arc<MuDd>>>>;

/// Memoised stand-alone prefetch μDD (see [`cached_demand_mudd`]).
pub(crate) fn cached_prefetch_mudd(
    space: &CounterSpace,
    early_psc: bool,
    pml4e: bool,
) -> Arc<MuDd> {
    static CACHE: PrefetchMuddCache = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(BTreeMap::new()));
    if let Some(mudd) = cache.lock().unwrap().get(&(early_psc, pml4e)) {
        debug_assert_eq!(mudd.counters(), space, "cache is per-counter-space");
        return Arc::clone(mudd);
    }
    let mudd = Arc::new(standalone_prefetch_mudd(space, early_psc, pml4e));
    Arc::clone(
        cache
            .lock()
            .unwrap()
            .entry((early_psc, pml4e))
            .or_insert(mudd),
    )
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
    try_build_feature_model_bounded(name, features, None)
}

pub(crate) fn try_build_feature_model_bounded(
    name: &str,
    features: &FeatureSet,
    max_paths: Option<usize>,
) -> Result<ModelCone, MuDdError> {
    let space = full_counter_space();
    let load = cached_demand_mudd(&space, &DemandOptions::new(AccessType::Load, features));
    let store = cached_demand_mudd(&space, &DemandOptions::new(AccessType::Store, features));
    let mut mudds: Vec<Arc<MuDd>> = vec![load, store];
    if has(features, Feature::TlbPrefetch) {
        mudds.push(cached_prefetch_mudd(
            &space,
            has(features, Feature::EarlyPsc),
            has(features, Feature::Pml4eCache),
        ));
    }
    assemble_cone(name, &mudds, max_paths)
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
    try_build_trigger_model_bounded(name, spec, None)
}

pub(crate) fn try_build_trigger_model_bounded(
    name: &str,
    spec: &TriggerSpec,
    max_paths: Option<usize>,
) -> Result<ModelCone, MuDdError> {
    let space = full_counter_space();
    let features = to_feature_set(&Feature::ALL);
    let attach_point = if spec.stlb_miss {
        PrefetchAttachPoint::AfterStlbMiss
    } else if spec.dtlb_miss {
        PrefetchAttachPoint::AfterDtlbMiss
    } else {
        PrefetchAttachPoint::Always
    };

    let mut load_opts = DemandOptions::new(AccessType::Load, &features);
    let mut store_opts = DemandOptions::new(AccessType::Store, &features);
    if !spec.speculative {
        if spec.load {
            load_opts.inline_prefetch = Some(attach_point);
        }
        if spec.store {
            store_opts.inline_prefetch = Some(attach_point);
        }
    }

    let load = cached_demand_mudd(&space, &load_opts);
    let store = cached_demand_mudd(&space, &store_opts);
    let mut mudds: Vec<Arc<MuDd>> = vec![load, store];
    if spec.speculative {
        mudds.push(cached_prefetch_mudd(&space, true, true));
    }
    assemble_cone(name, &mudds, max_paths)
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
    try_build_abort_model_bounded(name, points, None)
}

pub(crate) fn try_build_abort_model_bounded(
    name: &str,
    points: &[AbortPoint],
    max_paths: Option<usize>,
) -> Result<ModelCone, MuDdError> {
    let space = full_counter_space();
    let features = to_feature_set(&[
        Feature::TlbPrefetch,
        Feature::EarlyPsc,
        Feature::Merging,
        Feature::Pml4eCache,
    ]);
    let load = cached_demand_mudd(&space, &DemandOptions::new(AccessType::Load, &features));
    let store = cached_demand_mudd(&space, &DemandOptions::new(AccessType::Store, &features));
    let prefetch = cached_prefetch_mudd(&space, true, true);
    let mut mudds: Vec<Arc<MuDd>> = vec![load, store, prefetch];
    if let Some(aborts) = abort_request_mudd(&space, points) {
        mudds.push(Arc::new(aborts));
    }
    assemble_cone(name, &mudds, max_paths)
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
        let err = try_build_feature_model_bounded("m4", &specs[4].1, Some(1)).unwrap_err();
        assert!(matches!(err, MuDdError::PathExplosion { limit: 1 }));
        let err = try_build_trigger_model_bounded("t0", &TriggerSpec::t0(), Some(1)).unwrap_err();
        assert!(matches!(err, MuDdError::PathExplosion { limit: 1 }));
        let err =
            try_build_abort_model_bounded("a0", &[AbortPoint::DuringWalk], Some(1)).unwrap_err();
        assert!(matches!(err, MuDdError::PathExplosion { limit: 1 }));
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
