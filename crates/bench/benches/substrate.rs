//! Substrate benchmarks: μpath enumeration, MMU simulation throughput and PMU
//! sampling — the building blocks whose costs determine the end-to-end numbers
//! of Figure 9.

use counterpoint::models::family::{build_feature_model, feature_sets_table3};
use counterpoint::workloads::{LinearAccess, RandomAccess, Workload};
use counterpoint_haswell::mem::PageSize;
use counterpoint_haswell::mmu::{HaswellMmu, MmuConfig};
use counterpoint_haswell::pmu::{MultiplexingPmu, PmuConfig};
use counterpoint_haswell::{full_counter_space, AccessType, EventId};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_mudd_enumeration(c: &mut Criterion) {
    let specs = feature_sets_table3();
    let mut group = c.benchmark_group("model_cone_construction");
    group.sample_size(20);
    for name in ["m0", "m4"] {
        let (_, features) = specs.iter().find(|(n, _)| n == name).unwrap().clone();
        group.bench_with_input(BenchmarkId::from_parameter(name), &features, |b, f| {
            b.iter(|| build_feature_model(name, f));
        });
    }
    group.finish();
}

fn bench_mmu_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("mmu_simulation");
    let n = 50_000usize;
    group.throughput(Throughput::Elements(n as u64));
    let linear = LinearAccess {
        footprint: 16 << 20,
        stride: 64,
        store_ratio: 0.1,
    }
    .generate(n);
    let random = RandomAccess {
        footprint: 1 << 30,
        store_ratio: 0.2,
        seed: 1,
    }
    .generate(n);
    group.bench_function("linear_64B_stride", |b| {
        b.iter(|| {
            let mut mmu = HaswellMmu::new(MmuConfig::haswell());
            mmu.run(linear.iter().copied(), PageSize::Size4K);
            mmu.counts().get(EventId::ret(AccessType::Load))
        });
    });
    group.bench_function("random_1GiB_footprint", |b| {
        b.iter(|| {
            let mut mmu = HaswellMmu::new(MmuConfig::haswell());
            mmu.run(random.iter().copied(), PageSize::Size4K);
            mmu.counts().get(EventId::ret(AccessType::Load))
        });
    });
    group.finish();
}

fn bench_pmu_sampling(c: &mut Criterion) {
    let space = full_counter_space();
    let truth: Vec<Vec<f64>> = (0..100)
        .map(|i| vec![1000.0 + i as f64; space.len()])
        .collect();
    let pmu = MultiplexingPmu::new(PmuConfig::default());
    c.bench_function("pmu_multiplexing_100_intervals_26_events", |b| {
        b.iter(|| pmu.sample_intervals(&truth, space.len()));
    });
}

criterion_group!(
    benches,
    bench_mudd_enumeration,
    bench_mmu_simulation,
    bench_pmu_sampling
);
criterion_main!(benches);
