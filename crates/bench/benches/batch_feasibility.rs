//! Batched vs. per-observation feasibility on the Table 3 campaign.
//!
//! This is the benchmark behind the CI perf-regression gate
//! (`ci/bench_gate.sh`): the `per_observation_*` entries re-run the historical
//! one-LP-per-observation path, the `batched_*` entries run the
//! [`BatchFeasibility`] decision path on the same data, and the `_exact`
//! variants use point observations (shared coordinate axes), where the
//! (cone, axes) coefficient cache and the tier-1 solver's bounds-only warm
//! restarts pay off most.

use counterpoint::lp::{LinearProgram, Relation};
use counterpoint::{check_models, BatchFeasibility, FeasibilityChecker, ModelCone, Observation};
use counterpoint_bench::{experiment_observations, table3_model};
use criterion::{criterion_group, criterion_main, Criterion};

/// The per-observation reference: one cold LP per observation through the
/// current checker (which itself shares the revised dual-simplex core).
fn count_infeasible_per_observation(
    checker: &FeasibilityChecker<'_>,
    observations: &[Observation],
) -> usize {
    observations
        .iter()
        .filter(|o| !checker.is_feasible(o))
        .count()
}

/// The historical per-observation baseline: the exact formulation
/// `FeasibilityChecker::is_feasible` shipped before the batched engine — a
/// dense `axis · generator` matmul per observation feeding a cold two-phase
/// primal simplex through `LinearProgram`.
fn count_infeasible_historical(cone: &ModelCone, observations: &[Observation]) -> usize {
    let generators: Vec<Vec<f64>> = cone
        .generator_cone()
        .generators()
        .iter()
        .map(|g| g.to_f64_vec())
        .collect();
    let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
    observations
        .iter()
        .filter(|o| {
            let region = o.region();
            let scale = region
                .center()
                .iter()
                .fold(1.0f64, |acc, v| acc.max(v.abs()));
            let mut lp = LinearProgram::new(generators.len());
            for (axis, width) in region.axes().iter().zip(region.half_widths()) {
                let coeffs: Vec<f64> = generators.iter().map(|g| dot(axis, g)).collect();
                let centre_proj = dot(axis, region.center());
                lp.add_constraint(&coeffs, Relation::Ge, (centre_proj - width) / scale);
                lp.add_constraint(&coeffs, Relation::Le, (centre_proj + width) / scale);
            }
            !lp.is_feasible()
        })
        .count()
}

fn bench_batch_feasibility(c: &mut Criterion) {
    // A scaled-down Table 3 campaign: the full workload suite over all three
    // page sizes with the default noisy PMU, so every observation carries its
    // own correlated confidence region (distinct principal axes), exactly like
    // the experiment binary's table3 run.
    let observations = experiment_observations(6_000);
    // Point observations at the campaign means: all share the coordinate axes.
    let exact: Vec<Observation> = observations
        .iter()
        .map(|o| Observation::exact(o.name(), o.mean()))
        .collect();

    let mut group = c.benchmark_group("batch_feasibility");
    for name in ["m0", "m4"] {
        let cone = table3_model(name);
        let checker = FeasibilityChecker::new(&cone);
        // Sanity: both paths must agree before we time them.
        let mut batch = BatchFeasibility::new(&cone);
        assert_eq!(
            batch.count_infeasible(&observations),
            count_infeasible_per_observation(&checker, &observations),
            "batched and per-observation verdicts diverged on {name}"
        );

        group.bench_function(format!("per_observation_{name}"), |b| {
            b.iter(|| count_infeasible_historical(&cone, &observations))
        });
        group.bench_function(format!("checker_{name}"), |b| {
            b.iter(|| count_infeasible_per_observation(&checker, &observations))
        });
        group.bench_function(format!("batched_{name}"), |b| {
            b.iter(|| BatchFeasibility::new(&cone).count_infeasible(&observations))
        });
        group.bench_function(format!("per_observation_{name}_exact"), |b| {
            b.iter(|| count_infeasible_per_observation(&checker, &exact))
        });
        group.bench_function(format!("batched_{name}_exact"), |b| {
            b.iter(|| BatchFeasibility::new(&cone).count_infeasible(&exact))
        });
    }

    // The full Table 3 campaign: the whole m0–m11 model family against the
    // observation set, exactly what the experiments binary's `table3` run
    // evaluates.  The baseline is the historical sequential per-observation
    // sweep; the batched run uses the campaign fan-out (`check_models`) at one
    // worker so the number is comparable across hosts with any core count
    // (extra workers only help further).
    let family: Vec<ModelCone> = (0..12).map(|i| table3_model(&format!("m{i}"))).collect();
    let family_refs: Vec<&ModelCone> = family.iter().collect();
    group.bench_function("table3_family_per_observation", |b| {
        b.iter(|| {
            family
                .iter()
                .map(|cone| count_infeasible_historical(cone, &observations))
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("table3_family_batched", |b| {
        b.iter(|| check_models(&family_refs, &observations, 1))
    });
    // The family sweep on point observations — the workload shape of the
    // exact-observation lattice search, decided one observation at a time
    // with no cross-observation state: a fresh engine per observation, so
    // every verdict is one cold two-tier solve (tier-1 factorized f64 first,
    // exact recertification only on thin margins).  This is the entry the
    // bench gate watches for the fast-path solver core.
    group.bench_function("table3_family_per_observation_exact", |b| {
        b.iter(|| {
            family
                .iter()
                .map(|cone| {
                    exact
                        .iter()
                        .filter(|o| !BatchFeasibility::new(cone).is_feasible(o))
                        .count()
                })
                .collect::<Vec<_>>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_batch_feasibility);
criterion_main!(benches);
