//! Sequential cold-start search vs. the certificate-pruned lattice engine on
//! the m0–m11-scale Haswell feature lattice.
//!
//! This is the benchmark behind the CI perf-regression gate for the search
//! layer (`ci/bench_gate.sh`): the `guided_reference*` entries run the
//! sequential reference baseline (`reference_search` — the original inner
//! loop, one cold `FeasibilityChecker` solve per candidate model and
//! observation, no state carried between solves), and the `lattice_engine*`
//! entries run [`LatticeSearch`] on the same inputs, which must produce the
//! identical `SearchGraph` while settling most of the work from the
//! per-(cone, axes) coefficient caches, the warm dual-simplex bases and the
//! cross-model certificate/witness pool.
//!
//! The `_exact` pair is the headline: a full discovery + elimination
//! trajectory over exact steady-state means collected at six access budgets
//! and three page sizes (324 observations, 17 candidate models) — the
//! acceptance target is a ≥5× median speedup for `lattice_engine_exact` over
//! `guided_reference_exact`.  The plain pair sweeps the noisy single-campaign
//! observations (one correlated confidence region per observation, distinct
//! principal axes), where the engine's win is structurally smaller: tight
//! noisy regions force per-observation tableau rebinds on both sides.

use counterpoint::haswell::mem::PageSize;
use counterpoint::models::family::build_feature_model;
use counterpoint::models::harness::{case_study_campaign, HarnessConfig};
use counterpoint::models::Feature;
use counterpoint::{reference_search, FeatureSet, LatticeSearch, Observation};
use counterpoint_bench::experiment_observations;
use criterion::{criterion_group, criterion_main, Criterion};

fn generator(features: &FeatureSet) -> counterpoint::ModelCone {
    build_feature_model("candidate", features)
}

/// Exact steady-state means at several access budgets (distinct operating
/// points of the simulated machine), noiseless PMU, all three page sizes —
/// the repeated-measurement shape a production refinement campaign sweeps.
fn exact_observations() -> Vec<Observation> {
    let mut observations = Vec::new();
    for budget in [10_000usize, 15_000, 20_000, 25_000, 30_000, 40_000] {
        let mut config = HarnessConfig::quick();
        config.accesses_per_workload = budget;
        config.page_sizes = vec![PageSize::Size4K, PageSize::Size2M, PageSize::Size1G];
        for o in case_study_campaign(&config).run_sim(&config.mmu, &config.pmu) {
            observations.push(Observation::exact(
                &format!("{budget}-{}", o.name()),
                o.mean(),
            ));
        }
    }
    observations
}

fn bench_lattice_search(c: &mut Criterion) {
    let noisy = experiment_observations(6_000);
    let exact = exact_observations();
    let feature_names: Vec<&str> = Feature::ALL.iter().map(|f| f.name()).collect();
    let initial = FeatureSet::new();

    // Sanity: the engine must walk the identical graph before we time it —
    // and the exact trajectory must be the full discovery + elimination walk
    // the headline number is about.
    let search = LatticeSearch::new(generator, &feature_names);
    for obs in [&noisy, &exact] {
        assert_eq!(
            search.run(&initial, obs),
            reference_search(&generator, &feature_names, 256, &initial, obs),
            "lattice engine diverged from the sequential reference"
        );
    }
    let exact_graph = search.run(&initial, &exact);
    assert!(
        exact_graph.steps.iter().any(|s| s.feasible),
        "the exact trajectory must reach a feasible model"
    );
    assert!(
        !exact_graph.minimal_feasible.is_empty(),
        "the exact trajectory must run elimination"
    );

    let mut group = c.benchmark_group("lattice_search");
    group.sample_size(10);
    group.bench_function("guided_reference", |b| {
        b.iter(|| reference_search(&generator, &feature_names, 256, &initial, &noisy))
    });
    group.bench_function("lattice_engine", |b| {
        b.iter(|| LatticeSearch::new(generator, &feature_names).run(&initial, &noisy))
    });
    group.bench_function("guided_reference_exact", |b| {
        b.iter(|| reference_search(&generator, &feature_names, 256, &initial, &exact))
    });
    group.bench_function("lattice_engine_exact", |b| {
        b.iter(|| LatticeSearch::new(generator, &feature_names).run(&initial, &exact))
    });
    group.finish();
}

criterion_group!(benches, bench_lattice_search);
criterion_main!(benches);
