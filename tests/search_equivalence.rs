//! Differential test suite for the lattice-search engine: on random feature
//! lattices and observation sets, [`LatticeSearch`] must produce a
//! [`SearchGraph`] *equal* to the sequential cold-start reference
//! ([`reference_search`]) — same nodes in the same order, same edges, same
//! phases, same minimal feasible sets — at every thread count, including the
//! degenerate corners: empty feature universe, already-feasible initial
//! model, budget exhaustion mid-phase, degenerate (origin-only) cones and
//! non-monotone generators whose submodels are not cone-contained.

use counterpoint::mudd::{CounterSignature, CounterSpace};
use counterpoint::{
    feature_set, reference_search, FeatureSet, LatticeSearch, ModelCone, Observation, SearchGraph,
};
use proptest::prelude::*;

const DIM: usize = 3;

fn space() -> CounterSpace {
    CounterSpace::new(&["c0", "c1", "c2"])
}

/// A randomly generated feature lattice: base signatures plus per-feature
/// contributions.  When a feature's `drops_base` flag is set, including the
/// feature *removes* the corresponding base signature, which makes the
/// generator non-monotone: submodels are then not necessarily sub-cones, so
/// the engine's certificate-containment verification (rather than lattice
/// position) must carry the pruning soundness.
#[derive(Clone, Debug)]
struct RandomLattice {
    base: Vec<Vec<u32>>,
    /// One entry per feature: (signatures added, drop the base signature at
    /// index `i % base.len()` when present).
    features: Vec<(Vec<Vec<u32>>, bool)>,
}

impl RandomLattice {
    fn universe(&self) -> Vec<String> {
        (0..self.features.len()).map(|i| format!("f{i}")).collect()
    }

    fn cone(&self, set: &FeatureSet) -> ModelCone {
        let mut sigs: Vec<Vec<u32>> = self.base.clone();
        for (i, (added, drops_base)) in self.features.iter().enumerate() {
            if !set.contains(&format!("f{i}")) {
                continue;
            }
            if *drops_base && !self.base.is_empty() {
                let victim = &self.base[i % self.base.len()];
                sigs.retain(|s| s != victim);
            }
            sigs.extend(added.iter().cloned());
        }
        if sigs.is_empty() {
            sigs.push(vec![0; DIM]);
        }
        let counter_sigs: Vec<CounterSignature> = sigs
            .into_iter()
            .map(CounterSignature::from_counts)
            .collect();
        let n = counter_sigs.len();
        ModelCone::from_signatures("random", &space(), counter_sigs, n)
    }
}

fn signatures(max: usize) -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(0u32..4, DIM), 1..max)
}

fn lattices() -> impl Strategy<Value = RandomLattice> {
    (
        signatures(4),
        proptest::collection::vec((signatures(3), 0u32..2), 1..4),
    )
        .prop_map(|(base, features)| RandomLattice {
            base,
            features: features
                .into_iter()
                .map(|(added, drops)| (added, drops == 1))
                .collect(),
        })
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

/// A mixed observation set: exact points (shared coordinate axes — the warm
/// cache's best case) and noisy sampled regions (distinct principal axes).
fn observation_set(seed: u64, exact: usize, noisy: usize) -> Vec<Observation> {
    let mut observations = Vec::new();
    for i in 0..exact as u64 {
        let values: Vec<f64> = (0..DIM as u64)
            .map(|d| pseudo(seed, i * 16 + d, 24.0).floor())
            .collect();
        observations.push(Observation::exact(&format!("p{i}"), &values));
    }
    for i in 0..noisy as u64 {
        let base: Vec<f64> = (0..DIM as u64)
            .map(|d| pseudo(seed, 4096 + i * 64 + d, 40.0))
            .collect();
        let samples: Vec<Vec<f64>> = (0..10u64)
            .map(|s| {
                base.iter()
                    .enumerate()
                    .map(|(d, b)| b + pseudo(seed, i * 64 + 8 + s * 4 + d as u64, 3.0) - 1.5)
                    .collect()
            })
            .collect();
        observations.push(Observation::from_samples(&format!("n{i}"), &samples, 0.99));
    }
    observations
}

/// Runs the reference and the engine (at several thread counts) on one input
/// and asserts graph equality.
fn assert_equivalent(
    lattice: &RandomLattice,
    max_models: usize,
    initial: &FeatureSet,
    observations: &[Observation],
) -> SearchGraph {
    let universe = lattice.universe();
    let generator = |set: &FeatureSet| lattice.cone(set);
    let expected = reference_search(&generator, &universe, max_models, initial, observations);
    let mut search = LatticeSearch::new(generator, &universe);
    search.set_max_models(max_models);
    for threads in [1usize, 2, 4] {
        search.set_threads(threads);
        let graph = search.run(initial, observations);
        assert_eq!(
            graph, expected,
            "graph diverged from the sequential reference at {threads} threads"
        );
    }
    expected
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The headline differential property: random lattice, random
    /// observations, empty initial model.
    #[test]
    fn lattice_search_equals_reference_from_empty(
        lattice in lattices(),
        seed in 0u64..10_000,
    ) {
        let observations = observation_set(seed, 5, 2);
        assert_equivalent(&lattice, 256, &FeatureSet::new(), &observations);
    }

    /// Starting from the full feature set exercises the elimination recursion
    /// (and its certificate-pruned descent) hardest.
    #[test]
    fn lattice_search_equals_reference_from_full_set(
        lattice in lattices(),
        seed in 0u64..10_000,
    ) {
        let observations = observation_set(seed, 4, 2);
        let initial: FeatureSet = lattice.universe().into_iter().collect();
        assert_equivalent(&lattice, 256, &initial, &observations);
    }

    /// Tiny model budgets cut both phases mid-flight; the engine must stop at
    /// exactly the same step as the reference.
    #[test]
    fn budget_exhaustion_matches_mid_phase(
        lattice in lattices(),
        seed in 0u64..10_000,
        budget in 1usize..6,
    ) {
        let observations = observation_set(seed, 4, 1);
        let graph = assert_equivalent(&lattice, budget, &FeatureSet::new(), &observations);
        prop_assert!(graph.steps.len() <= budget);
        let initial: FeatureSet = lattice.universe().into_iter().collect();
        assert_equivalent(&lattice, budget, &initial, &observations);
    }
}

#[test]
fn empty_feature_universe_records_only_the_initial_model() {
    let lattice = RandomLattice {
        base: vec![vec![1, 0, 0], vec![1, 1, 0]],
        features: Vec::new(),
    };
    let observations = observation_set(7, 4, 1);
    let graph = assert_equivalent(&lattice, 256, &FeatureSet::new(), &observations);
    assert!(graph.edges.is_empty());
    // Elimination of the empty set has no children: if the initial model is
    // feasible it is itself minimal.
    if graph.steps[0].feasible {
        assert_eq!(graph.minimal_feasible, vec![Vec::<String>::new()]);
    } else {
        assert!(graph.minimal_feasible.is_empty());
    }
}

#[test]
fn already_feasible_initial_model_goes_straight_to_elimination() {
    // A base model rich enough to explain everything (the unit vectors span
    // the whole octant): discovery is a no-op and the whole graph is the
    // elimination tree.
    let lattice = RandomLattice {
        base: vec![vec![1, 0, 0], vec![0, 1, 0], vec![0, 0, 1]],
        features: vec![(vec![vec![1, 1, 0]], false), (vec![vec![0, 1, 1]], false)],
    };
    let observations = observation_set(3, 5, 1);
    let initial = feature_set(&["f0", "f1"]);
    let graph = assert_equivalent(&lattice, 256, &initial, &observations);
    assert!(graph.steps[0].feasible);
    assert!(graph
        .edges
        .iter()
        .all(|e| e.phase == counterpoint::core::explore::SearchPhase::Elimination));
}

#[test]
fn degenerate_origin_only_cones_are_handled() {
    // Every signature zero: the cone accepts only the origin, so any non-zero
    // observation refutes every model.  (The lattice still has features; they
    // all map to the same degenerate cone.)
    let lattice = RandomLattice {
        base: vec![vec![0, 0, 0]],
        features: vec![(vec![vec![0, 0, 0]], false)],
    };
    let observations = vec![
        Observation::exact("origin", &[0.0, 0.0, 0.0]),
        Observation::exact("off", &[1.0, 0.0, 2.0]),
    ];
    let graph = assert_equivalent(&lattice, 256, &FeatureSet::new(), &observations);
    assert!(!graph.steps[0].feasible);
}

#[test]
fn empty_observation_set_makes_everything_feasible() {
    let lattice = RandomLattice {
        base: vec![vec![1, 0, 0]],
        features: vec![(vec![vec![1, 1, 0]], false), (vec![vec![0, 1, 1]], false)],
    };
    let graph = assert_equivalent(&lattice, 256, &feature_set(&["f0", "f1"]), &[]);
    assert!(graph.steps.iter().all(|s| s.feasible));
    // With no refuting data the elimination reaches the empty feature set and
    // reports it minimal (the legacy traversal may report already-visited
    // subtrees as minimal too; equality with the reference covers those).
    assert!(graph.minimal_feasible.contains(&Vec::<String>::new()));
}
