//! End-to-end record/replay round trip through the counter-collection
//! subsystem: a campaign recorded on the simulator, serialised to JSON,
//! parsed back (exercising the vendored serde/serde_json stack on nested
//! structs), and replayed through [`ReplayBackend`] must reproduce the original
//! observations bit-for-bit — and match the pre-rewire harness output exactly.

use counterpoint::models::family::{build_feature_model, feature_sets_table3};
#[allow(deprecated)] // the deprecated harness shim must stay in lockstep until removed
use counterpoint::models::harness::collect_case_study_observations;
use counterpoint::models::harness::{case_study_campaign, HarnessConfig};
use counterpoint::{
    CollectError, CounterSpace, ExplorationModel, Inquiry, Observation, ReplayBackend,
    SessionError, SimBackend, Trace,
};
use counterpoint_haswell::full_counter_space;
use counterpoint_haswell::mem::PageSize;

fn assert_observations_identical(a: &[Observation], b: &[Observation]) {
    assert_eq!(a.len(), b.len(), "observation counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.name(), y.name());
        assert_eq!(x.mean(), y.mean(), "means differ for {}", x.name());
        assert_eq!(x.region().axes(), y.region().axes());
        assert_eq!(x.region().half_widths(), y.region().half_widths());
        assert_eq!(x.region().confidence(), y.region().confidence());
        assert_eq!(x.region().num_samples(), y.region().num_samples());
    }
}

fn small_config() -> HarnessConfig {
    HarnessConfig {
        accesses_per_workload: 2_000,
        page_sizes: vec![PageSize::Size4K, PageSize::Size2M],
        intervals: 8,
        ..HarnessConfig::default()
    }
}

#[test]
#[allow(deprecated)] // the deprecated harness shim must stay in lockstep until removed
fn recorded_campaign_replays_bit_identically() {
    let config = small_config();
    let campaign = case_study_campaign(&config);

    // Record the campaign (the noisy, multiplexed default PMU).
    let (live, trace) = campaign.run_sim_recorded(&config.mmu, &config.pmu);
    assert_eq!(trace.records.len(), campaign.cells().len());

    // The default campaign path and the harness entry point agree exactly.
    let harness = collect_case_study_observations(&config);
    assert_observations_identical(&live, &harness);

    // JSON round trip: serialise, parse, replay. Floats round-trip bit-exactly,
    // so the replayed observations are indistinguishable from the live ones.
    let json = trace.to_json();
    let parsed = Trace::from_json(&json).expect("recorded trace must parse");
    assert_eq!(parsed, trace, "trace JSON round trip must be lossless");

    let replayed = campaign.replay(&parsed).expect("replay must succeed");
    assert_observations_identical(&live, &replayed);

    // Replay is also stable under thread fan-out.
    let replayed_threaded = campaign
        .clone()
        .with_threads(4)
        .replay(&parsed)
        .expect("threaded replay must succeed");
    assert_observations_identical(&live, &replayed_threaded);
}

#[test]
fn replay_backend_refuses_a_reseeded_campaign_record_lookup_miss() {
    let config = small_config();
    let campaign = case_study_campaign(&config);
    let (_, trace) = campaign.run_sim_recorded(&config.mmu, &config.pmu);

    // A campaign over a page size that was never recorded must fail loudly,
    // not silently return the wrong cells.
    let other = HarnessConfig {
        page_sizes: vec![PageSize::Size1G],
        ..small_config()
    };
    let missing = case_study_campaign(&other).replay(&trace);
    assert!(missing.is_err(), "replaying unrecorded cells must fail");
}

#[test]
fn trace_survives_a_disk_round_trip() {
    let config = HarnessConfig {
        accesses_per_workload: 1_000,
        page_sizes: vec![PageSize::Size4K],
        intervals: 6,
        ..HarnessConfig::default()
    };
    let campaign = case_study_campaign(&config);
    let (live, trace) = campaign.run_sim_recorded(&config.mmu, &config.pmu);

    let path = std::env::temp_dir().join("counterpoint_roundtrip_campaign.json");
    trace.save(&path).expect("trace must save");
    let loaded = Trace::load(&path).expect("trace must load");
    std::fs::remove_file(&path).ok();

    let replayed = campaign.replay(&loaded).expect("replay from disk");
    assert_observations_identical(&live, &replayed);

    // The replay backend itself exposes the loaded trace.
    let backend = ReplayBackend::new(loaded);
    assert_eq!(backend.trace().records.len(), campaign.cells().len());
}

#[test]
fn misspelt_counter_fails_the_inquiry_instead_of_measuring_zeros() {
    // A counter the simulator does not have used to be measured as an all-zero
    // column, which refutes every model predicting counts for it.
    let config = HarnessConfig {
        accesses_per_workload: 1_000,
        page_sizes: vec![PageSize::Size4K],
        intervals: 4,
        ..HarnessConfig::default()
    };
    let mut names = full_counter_space().names().to_vec();
    names[0] = "load.rett".to_string();
    let space = CounterSpace::new(&names);
    let (mmu, pmu) = (config.mmu.clone(), config.pmu.clone());
    let (name, features) = feature_sets_table3().swap_remove(0);
    let err = Inquiry::new()
        .backend(case_study_campaign(&config), move |cell| {
            SimBackend::new(mmu.clone(), pmu.clone())
                .with_space(space.clone())
                .with_seed(cell.seed)
        })
        .models([ExplorationModel::new(
            &name,
            features.clone(),
            build_feature_model(&name, &features),
        )])
        .run()
        .expect_err("an unknown counter must fail the collection");
    assert_eq!(
        err,
        SessionError::Collect(CollectError::UnknownCounter {
            backend: "sim".to_string(),
            counter: "load.rett".to_string(),
        })
    );
}
