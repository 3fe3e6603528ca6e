//! End-to-end integration tests spanning the whole stack: workloads → simulated
//! Haswell MMU → PMU sampling → confidence regions → model cones → feasibility.

use counterpoint::haswell::full_counter_space;
use counterpoint::haswell::mem::PageSize;
use counterpoint::haswell::mmu::{HaswellMmu, MmuConfig};
use counterpoint::haswell::pmu::{MultiplexingPmu, PmuConfig};
use counterpoint::models::family::{
    build_feature_model, build_trigger_model, feature_sets_table3, trigger_specs_table5,
};
use counterpoint::models::harness::{case_study_campaign, HarnessConfig};
use counterpoint::workloads::{LinearAccess, RandomAccess, Workload};
use counterpoint::{BatchFeasibility, NoiseModel, Observation};

/// The case-study observation set for a config.
fn collect(config: &HarnessConfig) -> Vec<Observation> {
    case_study_campaign(config).run_sim(&config.mmu, &config.pmu)
}

fn model(name: &str) -> counterpoint::ModelCone {
    let specs = feature_sets_table3();
    let (_, features) = specs.into_iter().find(|(n, _)| n == name).unwrap();
    build_feature_model(name, &features)
}

#[test]
fn feature_complete_model_explains_noiseless_ground_truth() {
    let mut config = HarnessConfig::quick();
    config.accesses_per_workload = 15_000;
    let observations = collect(&config);
    let m4 = model("m4");
    assert_eq!(
        BatchFeasibility::new(&m4).count_infeasible(&observations),
        0
    );
}

#[test]
fn conventional_model_is_refuted_by_ground_truth() {
    let mut config = HarnessConfig::quick();
    config.accesses_per_workload = 15_000;
    let observations = collect(&config);
    let m0 = model("m0");
    assert!(BatchFeasibility::new(&m0).count_infeasible(&observations) > 0);
}

#[test]
fn merging_specific_observation_separates_m7_from_m4() {
    // A 256-byte-stride linear scan produces bursts of same-page misses that merge
    // into a single walk.
    let workload = LinearAccess {
        footprint: 16 << 20,
        stride: 256,
        store_ratio: 0.0,
    };
    let accesses = workload.generate(120_000);
    let space = full_counter_space();
    let mut mmu = HaswellMmu::new(MmuConfig::haswell());
    mmu.run(accesses.iter().copied(), PageSize::Size4K);
    let obs = Observation::exact("linear-256", &mmu.counts().to_vector(&space));

    assert!(BatchFeasibility::new(&model("m4"))
        .verdict(&obs)
        .is_feasible());
    assert!(
        BatchFeasibility::new(&model("m7"))
            .verdict(&obs)
            .is_refuted(),
        "a model without walk merging must be refuted by the merged-walk observation"
    );
}

#[test]
fn prefetcher_specific_observation_separates_m5_from_m4() {
    // Steady-state 64-byte-stride linear scan: the prefetcher resolves most
    // translations, so walks dwarf retired STLB misses.
    let workload = LinearAccess {
        footprint: 8 << 20,
        stride: 64,
        store_ratio: 0.0,
    };
    let accesses = workload.generate(1_500_000);
    let space = full_counter_space();
    let mut mmu = HaswellMmu::new(MmuConfig::haswell());
    mmu.run(accesses.iter().copied(), PageSize::Size4K);
    let obs = Observation::exact("linear-64-steady", &mmu.counts().to_vector(&space));

    assert!(BatchFeasibility::new(&model("m4"))
        .verdict(&obs)
        .is_feasible());
    assert!(
        BatchFeasibility::new(&model("m5"))
            .verdict(&obs)
            .is_refuted(),
        "a model without TLB prefetching must be refuted by the prefetch-dominated observation"
    );
}

#[test]
fn bypass_specific_observation_separates_m3_from_m4() {
    // First-touch-heavy random access: most walks are replayed and complete
    // without visible walker references.
    let workload = RandomAccess {
        footprint: 2 << 30,
        store_ratio: 0.0,
        seed: 5,
    };
    let accesses = workload.generate(80_000);
    let space = full_counter_space();
    let mut mmu = HaswellMmu::new(MmuConfig::haswell());
    mmu.run(accesses.iter().copied(), PageSize::Size4K);
    let obs = Observation::exact("random-first-touch", &mmu.counts().to_vector(&space));

    assert!(BatchFeasibility::new(&model("m4"))
        .verdict(&obs)
        .is_feasible());
    assert!(
        BatchFeasibility::new(&model("m3"))
            .verdict(&obs)
            .is_refuted(),
        "a model without walk bypassing must be refuted by reference-free walks"
    );
}

#[test]
fn m8_without_pml4e_cache_still_explains_ground_truth() {
    // The paper finds both m4 and m8 feasible: once walk bypassing is modelled, the
    // PML4E cache is not required to explain the data.
    let mut config = HarnessConfig::quick();
    config.accesses_per_workload = 15_000;
    config.page_sizes = vec![PageSize::Size4K, PageSize::Size1G];
    let observations = collect(&config);
    let m8 = model("m8");
    assert_eq!(
        BatchFeasibility::new(&m8).count_infeasible(&observations),
        0
    );
}

#[test]
fn noisy_multiplexed_observations_still_accept_the_true_model() {
    // With 4 physical counters multiplexing all 26 events, the samples are noisy;
    // the correlated confidence region must keep the feature-complete model
    // feasible.
    let space = full_counter_space();
    let workload = RandomAccess {
        footprint: 256 << 20,
        store_ratio: 0.2,
        seed: 11,
    };
    let accesses = workload.generate(200_000);
    let pmu = MultiplexingPmu::new(PmuConfig::default());
    let mut mmu = HaswellMmu::new(MmuConfig::haswell());
    let samples = pmu.collect(&mut mmu, &accesses, PageSize::Size4K, &space, 30);
    let obs = Observation::from_samples_with_model(
        "random-noisy",
        &samples,
        0.99,
        NoiseModel::Correlated,
    );
    assert!(BatchFeasibility::new(&model("m4"))
        .verdict(&obs)
        .is_feasible());
}

#[test]
fn speculative_trigger_models_accept_everything_the_abstract_model_accepts() {
    let mut config = HarnessConfig::quick();
    config.accesses_per_workload = 10_000;
    let observations = collect(&config);
    let specs = trigger_specs_table5();
    let (name, spec) = &specs[0]; // t0
    let t0 = build_trigger_model(name, spec);
    assert_eq!(
        BatchFeasibility::new(&t0).count_infeasible(&observations),
        0
    );
}
