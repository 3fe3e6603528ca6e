//! Property tests for the batched feasibility engine: on random cones and
//! observation batches — exact and noisy, including degenerate cones — the
//! warm-started [`BatchFeasibility`] must agree verdict for verdict with a
//! fresh engine per observation (one cold solve, no pooled evidence), and the
//! threaded model-family fan-out must be deterministic.

use counterpoint::mudd::{CounterSignature, CounterSpace};
use counterpoint::{check_models, BatchFeasibility, ModelCone, Observation};
use proptest::prelude::*;

fn space(dim: usize) -> CounterSpace {
    let names: Vec<String> = (0..dim).map(|i| format!("c{i}")).collect();
    CounterSpace::new(&names)
}

/// Strategy: a set of counter signatures over `dim` counters.  `0u32..4`
/// includes all-zero signatures, so some generated cones are degenerate
/// (every signature zero ⇒ no generators, only the origin producible).
fn signatures(dim: usize, max_sigs: usize) -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(0u32..4, dim), 1..max_sigs)
}

fn cone_from(sigs: &[Vec<u32>], dim: usize) -> ModelCone {
    let counter_sigs: Vec<CounterSignature> = sigs
        .iter()
        .map(|s| CounterSignature::from_counts(s.clone()))
        .collect();
    let n = counter_sigs.len();
    ModelCone::from_signatures("prop", &space(dim), counter_sigs, n)
}

/// The reference decision: a fresh engine's verdict, one cold solve that
/// depends on the cone and the observation alone.  A refutation needs a
/// certificate, so only `Refuted` counts as infeasible.
fn fresh_is_feasible(cone: &ModelCone, observation: &Observation) -> bool {
    !BatchFeasibility::new(cone)
        .verdict(observation)
        .is_refuted()
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Warm and fresh-engine verdicts agree on exact observations —
    /// shared coordinate axes, so the batch path exercises the (cone, axes)
    /// cache and bounds-only warm restarts.
    #[test]
    fn batched_agrees_on_exact_observations(
        sigs in signatures(4, 6),
        seed in 0u64..10_000,
    ) {
        let dim = 4;
        let cone = cone_from(&sigs, dim);
        let mut batch = BatchFeasibility::new(&cone);
        for i in 0..12u64 {
            let values: Vec<f64> = (0..dim as u64)
                .map(|d| pseudo(seed, i * 16 + d, 30.0).floor())
                .collect();
            let obs = Observation::exact(&format!("p{i}"), &values);
            prop_assert_eq!(
                batch.is_feasible(&obs),
                fresh_is_feasible(&cone, &obs),
                "exact verdict mismatch on {:?}",
                obs.mean()
            );
        }
    }

    /// Warm and fresh-engine verdicts agree on noisy observations —
    /// every observation carries its own correlated confidence region
    /// (distinct principal axes), so the batch path exercises the tableau
    /// rebind and certificate/witness harvesting.
    #[test]
    fn batched_agrees_on_noisy_observations(
        sigs in signatures(3, 5),
        seed in 0u64..10_000,
    ) {
        let dim = 3;
        let cone = cone_from(&sigs, dim);
        let mut batch = BatchFeasibility::new(&cone);
        for i in 0..8u64 {
            let base: Vec<f64> = (0..dim as u64)
                .map(|d| pseudo(seed, i * 64 + d, 50.0))
                .collect();
            let samples: Vec<Vec<f64>> = (0..12u64)
                .map(|s| {
                    base.iter()
                        .enumerate()
                        .map(|(d, b)| b + pseudo(seed, i * 64 + 8 + s * 4 + d as u64, 4.0) - 2.0)
                        .collect()
                })
                .collect();
            let obs = Observation::from_samples(&format!("n{i}"), &samples, 0.99);
            prop_assert_eq!(
                batch.is_feasible(&obs),
                fresh_is_feasible(&cone, &obs),
                "noisy verdict mismatch on observation {}",
                i
            );
        }
    }

    /// A mixed batch (noisy and exact interleaved) keeps agreeing while the
    /// engine's axes cache flips between shared and per-observation axes.
    #[test]
    fn batched_agrees_on_interleaved_batches(
        sigs in signatures(3, 5),
        seed in 0u64..10_000,
    ) {
        let dim = 3;
        let cone = cone_from(&sigs, dim);
        let mut batch = BatchFeasibility::new(&cone);
        for i in 0..6u64 {
            let base: Vec<f64> = (0..dim as u64)
                .map(|d| pseudo(seed, i * 32 + d, 40.0))
                .collect();
            let obs = if i % 2 == 0 {
                Observation::exact(&format!("e{i}"), &base)
            } else {
                let samples: Vec<Vec<f64>> = (0..10u64)
                    .map(|s| {
                        base.iter()
                            .enumerate()
                            .map(|(d, b)| b + pseudo(seed, i * 32 + 4 + s * 3 + d as u64, 2.0))
                            .collect()
                    })
                    .collect();
                Observation::from_samples(&format!("s{i}"), &samples, 0.99)
            };
            prop_assert_eq!(batch.is_feasible(&obs), fresh_is_feasible(&cone, &obs));
        }
    }

    /// The degenerate cone (all signatures zero ⇒ no generators) agrees too:
    /// only regions containing the origin are feasible.
    #[test]
    fn batched_agrees_on_degenerate_cones(seed in 0u64..10_000) {
        let dim = 3;
        let cone = cone_from(&[vec![0, 0, 0]], dim);
        let mut batch = BatchFeasibility::new(&cone);
        prop_assert_eq!(cone.num_generators(), 0);
        for i in 0..6u64 {
            let values: Vec<f64> = (0..dim as u64)
                .map(|d| pseudo(seed, i * 8 + d, 3.0).floor())
                .collect();
            let obs = Observation::exact(&format!("z{i}"), &values);
            prop_assert_eq!(batch.is_feasible(&obs), fresh_is_feasible(&cone, &obs));
        }
        let origin = Observation::exact("origin", &[0.0, 0.0, 0.0]);
        prop_assert!(batch.is_feasible(&origin));
    }

    /// The model-family fan-out returns identical verdict matrices for every
    /// worker count, in model order, matching the per-model engines.
    #[test]
    fn check_models_is_thread_invariant(
        sigs_a in signatures(3, 4),
        sigs_b in signatures(3, 4),
        seed in 0u64..10_000,
    ) {
        let dim = 3;
        let cones = [cone_from(&sigs_a, dim), cone_from(&sigs_b, dim)];
        let refs: Vec<&ModelCone> = cones.iter().collect();
        let observations: Vec<Observation> = (0..6u64)
            .map(|i| {
                let values: Vec<f64> = (0..dim as u64)
                    .map(|d| pseudo(seed, i * 8 + d, 25.0).floor())
                    .collect();
                Observation::exact(&format!("o{i}"), &values)
            })
            .collect();
        let sequential = check_models(&refs, &observations, 1);
        for threads in [2usize, 4] {
            prop_assert_eq!(&check_models(&refs, &observations, threads), &sequential);
        }
        for (cone, row) in cones.iter().zip(&sequential) {
            let expected: Vec<bool> = BatchFeasibility::new(cone).check_all(&observations);
            prop_assert_eq!(row, &expected);
        }
    }
}
