//! Property-based integration tests over the analysis stack: the counter-flow
//! equation, model-cone membership, constraint deduction and confidence regions
//! must agree with each other on randomly generated inputs.

use counterpoint::haswell::full_counter_space;
use counterpoint::haswell::mem::PageSize;
use counterpoint::haswell::mmu::{HaswellMmu, MmuConfig};
use counterpoint::haswell::pmu::{ground_truth_intervals, MultiplexingPmu, PmuConfig};
use counterpoint::mudd::{CounterSignature, CounterSpace};
use counterpoint::stats::{ConfidenceRegion, NoiseModel};
use counterpoint::workloads::{RandomAccess, Workload};
use counterpoint::{
    deduce_constraints, BatchFeasibility, CounterBackend, EventSchedule, ModelCone, Observation,
    SimBackend, WorkloadRun,
};
use counterpoint_numeric::RatVector;
use proptest::prelude::*;

/// A fresh engine's decision: one cold solve that depends on the cone and the
/// observation alone.
fn fresh_is_feasible(cone: &ModelCone, observation: &Observation) -> bool {
    !BatchFeasibility::new(cone)
        .verdict(observation)
        .is_refuted()
}

/// Strategy: a small set of counter signatures over `dim` counters.
fn signatures(dim: usize, max_sigs: usize) -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(0u32..4, dim), 1..max_sigs)
}

/// Strategy: a non-negative integer flow per signature.
fn flows(len: usize) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..50, len..=len)
}

fn space(dim: usize) -> CounterSpace {
    let names: Vec<String> = (0..dim).map(|i| format!("c{i}")).collect();
    CounterSpace::new(&names)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any non-negative combination of μpath signatures (the counter flow equation)
    /// must be feasible for the cone generated by those signatures.
    #[test]
    fn counter_flow_combinations_are_feasible(sigs in signatures(4, 6), seed in 0u64..1000) {
        let dim = 4;
        let space = space(dim);
        let counter_sigs: Vec<CounterSignature> = sigs.iter().map(|s| CounterSignature::from_counts(s.clone())).collect();
        let n = counter_sigs.len();
        let cone = ModelCone::from_signatures("prop", &space, counter_sigs, n);

        // Deterministic pseudo-random flows from the seed.
        let flow: Vec<u64> = (0..sigs.len()).map(|i| (seed.wrapping_mul(31).wrapping_add(i as u64 * 17)) % 40).collect();
        let mut totals = vec![0.0f64; dim];
        for (f, sig) in flow.iter().zip(sigs.iter()) {
            for (t, &c) in totals.iter_mut().zip(sig.iter()) {
                *t += (*f as f64) * c as f64;
            }
        }
        let obs = Observation::exact("combo", &totals);
        prop_assert!(BatchFeasibility::new(&cone).verdict(&obs).is_feasible());
    }

    /// Exact cone membership (via deduced facets) and LP feasibility must agree.
    #[test]
    fn facets_and_lp_agree_on_membership(sigs in signatures(3, 5), point in proptest::collection::vec(0u32..30, 3)) {
        let dim = 3;
        let space = space(dim);
        let counter_sigs: Vec<CounterSignature> = sigs.iter().map(|s| CounterSignature::from_counts(s.clone())).collect();
        let n = counter_sigs.len();
        let cone = ModelCone::from_signatures("prop", &space, counter_sigs, n);
        let constraints = deduce_constraints(&cone);

        let rat_point = RatVector::from_i64(&point.iter().map(|&x| x as i64).collect::<Vec<_>>());
        let by_facets = constraints
            .all_named()
            .all(|c| c.constraint().is_satisfied_by(&rat_point));

        let obs = Observation::exact("point", &point.iter().map(|&x| x as f64).collect::<Vec<_>>());
        let by_lp = fresh_is_feasible(&cone, &obs);
        prop_assert_eq!(by_facets, by_lp, "facet membership and LP feasibility disagree");
    }

    /// Every generator satisfies every constraint deduced from its own cone.
    #[test]
    fn generators_satisfy_their_own_facets(sigs in signatures(4, 6)) {
        let space = space(4);
        let counter_sigs: Vec<CounterSignature> = sigs.iter().map(|s| CounterSignature::from_counts(s.clone())).collect();
        let n = counter_sigs.len();
        let cone = ModelCone::from_signatures("prop", &space, counter_sigs, n);
        let constraints = deduce_constraints(&cone);
        for sig in cone.signatures() {
            let v = sig.to_rat_vector();
            for c in constraints.all_named() {
                prop_assert!(c.constraint().is_satisfied_by(&v));
            }
        }
    }

    /// Scaling an observation by a positive factor never changes cone membership
    /// (the model cone is a cone), and one warm engine deciding both agrees
    /// with fresh engines.
    #[test]
    fn feasibility_is_scale_invariant(sigs in signatures(3, 5), flow_seed in flows(5), scale in 2u64..20) {
        let dim = 3;
        let space = space(dim);
        let counter_sigs: Vec<CounterSignature> = sigs.iter().map(|s| CounterSignature::from_counts(s.clone())).collect();
        let n = counter_sigs.len();
        let cone = ModelCone::from_signatures("prop", &space, counter_sigs, n);
        let mut warm = BatchFeasibility::new(&cone);

        let mut totals = vec![0.0f64; dim];
        for (f, sig) in flow_seed.iter().zip(sigs.iter()) {
            for (t, &c) in totals.iter_mut().zip(sig.iter()) {
                *t += (*f as f64) * c as f64;
            }
        }
        let scaled: Vec<f64> = totals.iter().map(|t| t * scale as f64).collect();
        let base = Observation::exact("base", &totals);
        let scaled = Observation::exact("scaled", &scaled);
        let a = warm.is_feasible(&base);
        let b = warm.is_feasible(&scaled);
        prop_assert_eq!(a, b);
        prop_assert_eq!(a, fresh_is_feasible(&cone, &base));
        prop_assert_eq!(b, fresh_is_feasible(&cone, &scaled));
    }

    /// Confidence regions always contain their own sample mean, and the correlated
    /// construction is never larger than the independent one (by total extent).
    #[test]
    fn confidence_regions_are_sound(rows in proptest::collection::vec(proptest::collection::vec(0.0f64..1000.0, 3), 5..40)) {
        let correlated = ConfidenceRegion::from_samples(&rows, 0.99, NoiseModel::Correlated);
        let independent = ConfidenceRegion::from_samples(&rows, 0.99, NoiseModel::Independent);
        prop_assert!(correlated.contains(correlated.center()));
        prop_assert!(independent.contains(independent.center()));
        prop_assert!(correlated.total_extent() <= independent.total_extent() * 1.75 + 1e-9);
    }

    /// A widened confidence region can only make more observations feasible, never
    /// fewer (monotonicity of the feasibility test in the region size), and
    /// one warm engine deciding both agrees with fresh engines.
    #[test]
    fn wider_regions_are_monotonically_more_feasible(sigs in signatures(3, 5), center in proptest::collection::vec(1.0f64..200.0, 3)) {
        let space = space(3);
        let counter_sigs: Vec<CounterSignature> = sigs.iter().map(|s| CounterSignature::from_counts(s.clone())).collect();
        let n = counter_sigs.len();
        let cone = ModelCone::from_signatures("prop", &space, counter_sigs, n);
        let mut warm = BatchFeasibility::new(&cone);

        // Narrow region: the exact point.  Wide region: synthetic samples spread
        // around the same mean.
        let narrow = Observation::exact("narrow", &center);
        let samples: Vec<Vec<f64>> = (0..30)
            .map(|i| center.iter().map(|c| c + ((i % 7) as f64 - 3.0) * 20.0).collect())
            .collect();
        let wide = Observation::from_samples("wide", &samples, 0.999);
        let narrow_feasible = warm.is_feasible(&narrow);
        let wide_feasible = warm.is_feasible(&wide);
        prop_assert_eq!(narrow_feasible, fresh_is_feasible(&cone, &narrow));
        prop_assert_eq!(wide_feasible, fresh_is_feasible(&cone, &wide));
        if narrow_feasible {
            prop_assert!(wide_feasible);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A noiseless PMU (enough physical counters, uniform phases) must reproduce
    /// the simulator's ground-truth interval counts exactly, for any workload.
    #[test]
    fn noiseless_pmu_reproduces_ground_truth(
        footprint_mib in 1u64..32,
        store_pct in 0u32..=100,
        seed in 0u64..1000,
        intervals in 1usize..10,
    ) {
        let workload = RandomAccess {
            footprint: footprint_mib << 20,
            store_ratio: store_pct as f64 / 100.0,
            seed,
        };
        let accesses = workload.generate(4_000);
        let space = full_counter_space();
        let pmu = MultiplexingPmu::new(PmuConfig::noiseless());

        let mut mmu = HaswellMmu::new(MmuConfig::haswell());
        let sampled = pmu.collect(&mut mmu, &accesses, PageSize::Size4K, &space, intervals);
        let mut mmu = HaswellMmu::new(MmuConfig::haswell());
        let truth = ground_truth_intervals(&mut mmu, &accesses, PageSize::Size4K, &space, intervals);
        prop_assert_eq!(&sampled, &truth);

        // The same holds through the collect backend seam.
        let mut backend = SimBackend::new(MmuConfig::haswell(), PmuConfig::noiseless());
        let run = WorkloadRun {
            label: "prop",
            accesses: &accesses,
            page_size: PageSize::Size4K,
            intervals,
        };
        let schedule = backend.schedule().expect("sim backend always has a schedule");
        let samples = backend.run(&run, &schedule).expect("sim backend is infallible");
        prop_assert_eq!(samples.rows(), &truth[..]);
    }

    /// When the logical events fit the physical counters, the schedule planner
    /// must degenerate to a single round with inflation factor exactly 1.
    #[test]
    fn fitting_schedules_degenerate_to_one_round(
        events in 1usize..=12,
        headroom in 0usize..8,
    ) {
        let names: Vec<String> = (0..events).map(|i| format!("ev{i}")).collect();
        let schedule = EventSchedule::plan(names, events + headroom);
        prop_assert_eq!(schedule.num_rounds(), 1);
        prop_assert_eq!(schedule.inflation_factor(), 1.0);
        prop_assert_eq!(schedule.duty_cycle(), 1.0);
        prop_assert!(!schedule.is_multiplexed());
        // The single round schedules every event exactly once, in order.
        let expected: Vec<usize> = (0..events).collect();
        prop_assert_eq!(schedule.rounds()[0].clone(), expected);
    }

    /// Oversubscribed schedules stay within the physical budget, cover every
    /// event exactly once, and report a super-unit inflation factor.
    #[test]
    fn oversubscribed_schedules_respect_the_budget(
        events in 2usize..40,
        physical in 1usize..8,
    ) {
        prop_assume!(events > physical);
        let names: Vec<String> = (0..events).map(|i| format!("ev{i}")).collect();
        let schedule = EventSchedule::plan(names, physical);
        prop_assert!(schedule.is_multiplexed());
        prop_assert!(schedule.inflation_factor() > 1.0);
        let mut seen = vec![0usize; events];
        for round in schedule.rounds() {
            prop_assert!(round.len() <= physical);
            for &e in round {
                seen[e] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1));
    }
}
