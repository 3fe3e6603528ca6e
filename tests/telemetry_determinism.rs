//! Telemetry must be a pure observer: report JSON is byte-identical with the
//! sink on or off at any thread count, metrics snapshots of deterministic
//! workloads are byte-identical across runs and thread counts, and the
//! schedule-oversubscription counters are pinned to exact values.
//!
//! The telemetry sink is process-global and cargo runs the tests of one
//! binary on concurrent threads, so every test here claims [`SINK_OWNER`]
//! first: no other test's instrumentation can leak into a recording, which is
//! what makes exact counter assertions sound.

use counterpoint::collect::NOISE_INFLATION_WARN_THRESHOLD;
use counterpoint::mudd::{CounterSignature, CounterSpace};
use counterpoint::telemetry::{Metric, Recording};
use counterpoint::{BatchFeasibility, EventSchedule, FeatureSet, Inquiry, ModelCone, Observation};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

static SINK_OWNER: Mutex<()> = Mutex::new(());

fn claim_sink() -> MutexGuard<'static, ()> {
    SINK_OWNER.lock().unwrap_or_else(|e| e.into_inner())
}

fn space(dim: usize) -> CounterSpace {
    let names: Vec<String> = (0..dim).map(|i| format!("c{i}")).collect();
    CounterSpace::new(&names)
}

/// A model family + observation set from raw signature/point data, so the
/// proptest below can sweep arbitrary small inquiries.
fn build_inquiry(model_sigs: &[Vec<Vec<u32>>], points: &[Vec<u32>]) -> Inquiry {
    let dim = points[0].len();
    let space = space(dim);
    let mut inquiry = Inquiry::new().observations(
        points
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let values: Vec<f64> = p.iter().map(|&x| x as f64).collect();
                Observation::exact(&format!("obs{i}"), &values)
            })
            .collect::<Vec<_>>(),
    );
    for (m, sigs) in model_sigs.iter().enumerate() {
        let counter_sigs: Vec<CounterSignature> = sigs
            .iter()
            .map(|s| CounterSignature::from_counts(s.clone()))
            .collect();
        let n = counter_sigs.len();
        let name = format!("m{m}");
        inquiry = inquiry.model(
            &name,
            ModelCone::from_signatures(&name, &space, counter_sigs, n),
        );
    }
    inquiry
}

/// The toy feature lattice of the session tests, for refinement coverage.
fn toy_cone(features: &FeatureSet) -> ModelCone {
    let space = space(2);
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

fn refinement_inquiry() -> Inquiry {
    Inquiry::new()
        .observations(vec![
            Observation::exact("x-only", &[10.0, 0.0]),
            Observation::exact("balanced", &[10.0, 6.0]),
        ])
        .model("base", toy_cone(&FeatureSet::new()))
        .refine(toy_cone, &["Fy", "Fboth"], FeatureSet::new())
}

/// A fixed multi-model inquiry whose sweep exercises certificate prunes,
/// witness-ray settlements and the coefficient cache.
fn fixed_inquiry() -> Inquiry {
    let models = vec![
        vec![vec![1, 0, 0], vec![1, 1, 0], vec![1, 1, 1]],
        vec![vec![2, 1, 0], vec![0, 1, 1]],
        vec![vec![1, 0, 1]],
    ];
    let points = vec![
        vec![4, 2, 3],
        vec![10, 0, 0],
        vec![3, 3, 3],
        vec![0, 5, 1],
        vec![7, 7, 0],
        vec![1, 1, 1],
    ];
    build_inquiry(&models, &points)
}

#[test]
fn oversubscribed_schedule_pins_the_telemetry_counters() {
    let _own = claim_sink();
    let recording = Recording::start();
    let events: Vec<String> = (0..26).map(|i| format!("ev{i}")).collect();
    let schedule = EventSchedule::plan(events, 4);
    let snapshot = recording.finish();
    // 26 events on 4 counters: 7 rounds, 22 events beyond the simultaneous
    // budget, and √7 ≈ 2.65 crosses the noise-inflation warning threshold.
    assert!(schedule.inflation_factor() > NOISE_INFLATION_WARN_THRESHOLD);
    assert_eq!(snapshot.counter(Metric::ScheduleRounds), 7);
    assert_eq!(snapshot.counter(Metric::ScheduleOversubscribedEvents), 22);
    assert_eq!(snapshot.counter(Metric::ScheduleInflationWarnings), 1);
    let kinds: Vec<&str> = snapshot.warnings.iter().map(|w| w.kind).collect();
    assert_eq!(
        kinds,
        vec!["schedule_noise_inflation", "schedule_oversubscribed"],
        "both structured warnings must be recorded (sorted by kind)"
    );
    assert!(snapshot.warnings.iter().all(|w| w.count == 1));
    assert!(snapshot.warnings[1].message.contains("22"));
}

#[test]
fn fitting_schedule_records_no_warnings() {
    let _own = claim_sink();
    let recording = Recording::start();
    let _ = EventSchedule::plan((0..4).map(|i| format!("ev{i}")).collect(), 4);
    let snapshot = recording.finish();
    assert_eq!(snapshot.counter(Metric::ScheduleRounds), 1);
    assert_eq!(snapshot.counter(Metric::ScheduleOversubscribedEvents), 0);
    assert_eq!(snapshot.counter(Metric::ScheduleInflationWarnings), 0);
    assert!(snapshot.warnings.is_empty());
}

#[test]
fn each_axes_miss_rebinds_one_tableau() {
    let _own = claim_sink();
    // Noisy observations each carry their own principal axes, so every one
    // that reaches the LP misses the coefficient cache.  A decision engine
    // keeps one warm solver per axes, so each miss costs exactly one
    // refactorization; evidence solves are cold and never count one.
    let cone = ModelCone::from_signatures(
        "y<=x",
        &space(2),
        vec![
            CounterSignature::from_counts(vec![1, 0]),
            CounterSignature::from_counts(vec![1, 1]),
        ],
        2,
    );
    let observations: Vec<Observation> = (0..12)
        .map(|i| {
            let base = 900.0 + 37.0 * i as f64;
            let offset = -2.0 + 0.7 * i as f64;
            let samples: Vec<Vec<f64>> = (0..24)
                .map(|s| {
                    let wiggle = (s % 7) as f64 - 3.0;
                    vec![base + (s % 5) as f64, base + offset + wiggle]
                })
                .collect();
            Observation::from_samples(&format!("noisy-{i}"), &samples, 0.99)
        })
        .collect();
    let recording = Recording::start();
    let _ = BatchFeasibility::new(&cone).check_all(&observations);
    let snapshot = recording.finish();
    let misses = snapshot.counter(Metric::CoefficientCacheMisses);
    assert!(
        misses >= 2,
        "the sweep must rebind more than once: {misses}"
    );
    assert_eq!(snapshot.counter(Metric::LpRefactorizations), misses);
}

#[test]
fn metrics_snapshots_are_identical_across_runs_and_thread_counts() {
    let _own = claim_sink();
    // The verdict-matrix sweep processes each model on exactly one worker and
    // all metrics are commutative atomic sums, so the snapshot of this
    // refinement-free inquiry is byte-identical at every thread count.
    let snapshot = |threads: usize| {
        let report = fixed_inquiry()
            .threads(threads)
            .telemetry(true)
            .run()
            .unwrap();
        report
            .telemetry
            .expect("this run owns the sink")
            .metrics_json()
    };
    let baseline = snapshot(1);
    assert!(baseline.contains("\"lp_solves\""));
    for threads in [1, 2, 8] {
        assert_eq!(snapshot(threads), baseline, "threads = {threads}");
    }
}

#[test]
fn refinement_reports_are_byte_identical_with_and_without_telemetry() {
    let _own = claim_sink();
    let baseline = refinement_inquiry().run().unwrap().to_json();
    for threads in [1, 2, 8] {
        for telemetry_on in [false, true] {
            let report = refinement_inquiry()
                .threads(threads)
                .search_threads(threads)
                .telemetry(telemetry_on)
                .run()
                .unwrap();
            assert_eq!(
                report.to_json(),
                baseline,
                "threads = {threads}, telemetry = {telemetry_on}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Report JSON is byte-identical with telemetry on or off, at 1, 2 and 8
    /// worker threads, for arbitrary small model families and observations.
    #[test]
    fn reports_are_byte_identical_across_telemetry_and_threads(
        model_sigs in proptest::collection::vec(
            proptest::collection::vec(proptest::collection::vec(0u32..4, 3), 1..4),
            1..4,
        ),
        points in proptest::collection::vec(proptest::collection::vec(0u32..40, 3), 1..4),
    ) {
        let _own = claim_sink();
        let baseline = build_inquiry(&model_sigs, &points).run().unwrap().to_json();
        for threads in [1usize, 2, 8] {
            for telemetry_on in [false, true] {
                let report = build_inquiry(&model_sigs, &points)
                    .threads(threads)
                    .telemetry(telemetry_on)
                    .run()
                    .unwrap();
                prop_assert_eq!(
                    report.to_json(),
                    baseline.clone(),
                    "threads = {}, telemetry = {}",
                    threads,
                    telemetry_on
                );
            }
        }
    }

    /// Metrics snapshots of the same seeded inquiry are byte-identical run to
    /// run (refinement-free sweep; see the fixed test for thread counts).
    #[test]
    fn metrics_snapshots_are_reproducible(
        points in proptest::collection::vec(proptest::collection::vec(0u32..40, 3), 1..4),
    ) {
        let _own = claim_sink();
        let model_sigs = vec![vec![vec![1, 0, 0], vec![1, 1, 0], vec![1, 1, 1]]];
        let run = || {
            let report = build_inquiry(&model_sigs, &points).telemetry(true).run().unwrap();
            report.telemetry.expect("this run owns the sink").metrics_json()
        };
        prop_assert_eq!(run(), run());
    }
}
