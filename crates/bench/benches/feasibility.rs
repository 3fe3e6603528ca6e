//! Figure 9a: feasibility-testing time as a function of the counter groups in the
//! model (and of the model's μpath count).  Each iteration is one fresh
//! engine's verdict: one cold solve with witness or certificate extraction.

use counterpoint::{BatchFeasibility, Observation};
use counterpoint_bench::projected_model;
use counterpoint_haswell::hec::cumulative_group_space;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn synthetic_observation(dim: usize) -> Observation {
    // A plausible per-interval profile: retirement counters dominate, walk counters
    // are a few percent, references a little above walks.
    let values: Vec<f64> = (0..dim)
        .map(|i| match i % 5 {
            0 => 100_000.0,
            1 => 2_000.0,
            2 => 1_500.0,
            3 => 900.0,
            _ => 400.0,
        })
        .collect();
    Observation::exact("synthetic", &values)
}

fn bench_feasibility(c: &mut Criterion) {
    let mut group = c.benchmark_group("feasibility_by_counter_group");
    for groups in 1..=4usize {
        let cone = projected_model("m4", groups);
        let dim = cumulative_group_space(groups).len();
        let obs = synthetic_observation(dim);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{groups}groups_{dim}counters")),
            &groups,
            |b, _| {
                b.iter(|| BatchFeasibility::new(&cone).verdict(&obs));
            },
        );
    }
    group.finish();

    let mut models = c.benchmark_group("feasibility_by_model");
    for name in ["m0", "m2", "m4"] {
        let cone = counterpoint_bench::table3_model(name);
        let obs = synthetic_observation(26);
        models.bench_with_input(BenchmarkId::from_parameter(name), &name, |b, _| {
            b.iter(|| BatchFeasibility::new(&cone).verdict(&obs));
        });
    }
    models.finish();
}

criterion_group!(benches, bench_feasibility);
criterion_main!(benches);
