//! Soundness of cross-model pruning: whenever the lattice search settles an
//! observation for a model from the shared pool instead of solving the LP —
//! refuted by a Farkas certificate cached from *another* model, or settled
//! feasible by a witness ray harvested from another model — re-checking that
//! (model, observation) pair with a fresh engine's cold solve must agree.
//! The containment checks (`c · g ≥ 0` for every generator on the certificate
//! side, support ⊆ generators on the witness side) plus the region-side
//! margins are supposed to make every pool hit *exactly* the verdict the LP
//! would return — this suite holds both directions to that.

use counterpoint::mudd::{CounterSignature, CounterSpace};
use counterpoint::{BatchFeasibility, FeatureSet, LatticeSearch, ModelCone, Observation};
use proptest::prelude::*;

const DIM: usize = 3;

/// An additive lattice: base signatures plus one extra signature per feature.
/// Removing features yields genuine sub-cones, the shape certificate pruning
/// thrives on during elimination.
fn cone(base: &[Vec<u32>], per_feature: &[Vec<u32>], set: &FeatureSet) -> ModelCone {
    let space = CounterSpace::new(&["c0", "c1", "c2"]);
    let mut sigs: Vec<Vec<u32>> = base.to_vec();
    for (i, sig) in per_feature.iter().enumerate() {
        if set.contains(&format!("f{i}")) {
            sigs.push(sig.clone());
        }
    }
    let counter_sigs: Vec<CounterSignature> = sigs
        .into_iter()
        .map(CounterSignature::from_counts)
        .collect();
    let n = counter_sigs.len();
    ModelCone::from_signatures("lattice", &space, counter_sigs, n)
}

/// Deterministic pseudo-random f64 in `[0, range)` from a seed and index.
fn pseudo(seed: u64, i: u64, range: f64) -> f64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z ^= z >> 29;
    z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 32;
    (z % 1_000_000) as f64 / 1_000_000.0 * range
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every certificate-pruned (model, observation) pair the stats report is
    /// re-derived with the cold solver and must be infeasible.
    #[test]
    fn pruned_verdicts_agree_with_the_cold_solver(
        base in proptest::collection::vec(proptest::collection::vec(0u32..4, DIM), 1..4),
        per_feature in proptest::collection::vec(proptest::collection::vec(0u32..4, DIM), 1..4),
        seed in 0u64..10_000,
        threads in 1usize..5,
    ) {
        let observations: Vec<Observation> = (0..6u64)
            .map(|i| {
                let values: Vec<f64> = (0..DIM as u64)
                    .map(|d| pseudo(seed, i * 16 + d, 25.0).floor())
                    .collect();
                Observation::exact(&format!("p{i}"), &values)
            })
            .collect();
        let universe: Vec<String> = (0..per_feature.len()).map(|i| format!("f{i}")).collect();
        let generator = |set: &FeatureSet| cone(&base, &per_feature, set);

        // Start from the full set so elimination descends through submodels —
        // the direction certificates propagate.
        let initial: FeatureSet = universe.iter().cloned().collect();
        let mut search = LatticeSearch::new(generator, &universe);
        search.set_threads(threads);
        let (_, stats) = search.run_with_stats(&initial, &observations);

        let mut rechecked_refuted = 0usize;
        let mut rechecked_feasible = 0usize;
        for pruned in &stats.pruned_models {
            let features: FeatureSet = pruned.features.iter().cloned().collect();
            let model = generator(&features);
            for &obs in &pruned.pruned_observations {
                prop_assert!(
                    BatchFeasibility::new(&model).verdict(&observations[obs]).is_refuted(),
                    "certificate pruned a feasible pair: model {:?}, observation {:?}",
                    pruned.features,
                    observations[obs].mean()
                );
                rechecked_refuted += 1;
            }
            for &obs in &pruned.witness_observations {
                prop_assert!(
                    BatchFeasibility::new(&model).verdict(&observations[obs]).is_feasible(),
                    "witness ray settled an infeasible pair: model {:?}, observation {:?}",
                    pruned.features,
                    observations[obs].mean()
                );
                rechecked_feasible += 1;
            }
        }
        prop_assert_eq!(rechecked_refuted, stats.certificate_pruned);
        prop_assert_eq!(rechecked_feasible, stats.witness_settled);
    }
}

/// A deterministic lattice where pruning is guaranteed to fire, so the
/// property above can never pass vacuously: the observation demands more `c1`
/// than `c0`, which only the full model allows, and elimination walks every
/// submodel below the refuted ones.
#[test]
fn pruning_fires_and_is_sound_on_the_guaranteed_lattice() {
    let base = vec![vec![1, 0, 0]];
    let per_feature = vec![vec![1, 1, 0], vec![0, 1, 1], vec![2, 1, 0]];
    let universe = ["f0", "f1", "f2"];
    let generator = |set: &FeatureSet| cone(&base, &per_feature, set);
    let observations = vec![
        Observation::exact("x-only", &[9.0, 0.0, 0.0]),
        Observation::exact("needs-f1", &[4.0, 9.0, 6.0]),
        Observation::exact("balanced", &[8.0, 5.0, 2.0]),
    ];
    let initial: FeatureSet = universe.iter().map(|f| f.to_string()).collect();
    let search = LatticeSearch::new(generator, &universe);
    let (graph, stats) = search.run_with_stats(&initial, &observations);

    assert!(
        graph.steps[0].feasible,
        "the full model explains everything"
    );
    assert!(
        stats.certificate_pruned > 0,
        "the descent below the f1-free submodels must reuse a certificate: {stats:?}"
    );
    for pruned in &stats.pruned_models {
        let features: FeatureSet = pruned.features.iter().cloned().collect();
        let model = generator(&features);
        for &obs in &pruned.pruned_observations {
            assert!(
                BatchFeasibility::new(&model)
                    .verdict(&observations[obs])
                    .is_refuted(),
                "pruned pair must be cold-infeasible: {:?} / {:?}",
                pruned.features,
                observations[obs].name()
            );
        }
        for &obs in &pruned.witness_observations {
            assert!(
                BatchFeasibility::new(&model)
                    .verdict(&observations[obs])
                    .is_feasible(),
                "witness-settled pair must be cold-feasible: {:?} / {:?}",
                pruned.features,
                observations[obs].name()
            );
        }
    }
    // The prunes never changed the graph: the cold reference agrees.
    let expected =
        counterpoint::reference_search(&generator, &universe, 256, &initial, &observations);
    assert_eq!(graph, expected);
}
