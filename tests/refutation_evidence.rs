//! A refutation never outruns its evidence.
//!
//! The fixture `tests/golden/phased3_steady_samples.txt` holds the 18 steady
//! multiplexed samples of the `stats` experiment's `phased-3` trace at full
//! size (a 64-byte linear phase followed by a 4 GiB random phase, 60k accesses
//! per unit), as the Haswell simulator and the default PMU produce them.  Its
//! correlated confidence region once drove the cold solve for Table 3's m10
//! into a refutation whose folded Farkas direction failed the generator-side
//! soundness check, and the engine returned `Refuted` with an empty
//! certificate.  Such a verdict is now `Inconclusive`.
//!
//! Regenerate the fixture (only for an intentional simulator change) with
//! `GOLDEN_REGEN=1 cargo test --release --test refutation_evidence`.

use counterpoint::haswell::full_counter_space;
use counterpoint::haswell::mem::PageSize;
use counterpoint::haswell::mmu::{HaswellMmu, MmuConfig};
use counterpoint::haswell::pmu::{MultiplexingPmu, PmuConfig};
use counterpoint::models::family::{build_feature_model, feature_sets_table3};
use counterpoint::workloads::{LinearAccess, RandomAccess, Workload};
use counterpoint::{BatchFeasibility, FeasibilityVerdict, NoiseModel, Observation};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/phased3_steady_samples.txt"
);
const SAMPLES: &str = include_str!("golden/phased3_steady_samples.txt");

/// The `stats` experiment's full-size access unit.
const ACCESSES: usize = 60_000;

/// Simulates the `phased-3` trace and renders its steady samples, one
/// interval per line, each value in its shortest round-trip form.
fn render() -> String {
    let mut trace = LinearAccess {
        footprint: 8 << 20,
        stride: 64,
        store_ratio: 0.0,
    }
    .generate(ACCESSES * 4);
    trace.extend(
        RandomAccess {
            footprint: 4 << 30,
            store_ratio: 0.2,
            seed: 3,
        }
        .generate(ACCESSES * 4),
    );
    let mut mmu = HaswellMmu::new(MmuConfig::haswell());
    let samples = MultiplexingPmu::new(PmuConfig::default()).collect(
        &mut mmu,
        &trace,
        PageSize::Size4K,
        &full_counter_space(),
        20,
    );
    samples[2..]
        .iter()
        .map(|row| {
            let values: Vec<String> = row.iter().map(|v| format!("{v:?}")).collect();
            values.join(" ") + "\n"
        })
        .collect()
}

fn steady_samples() -> Vec<Vec<f64>> {
    SAMPLES
        .lines()
        .map(|line| {
            line.split_whitespace()
                .map(|v| v.parse().expect("fixture values are f64"))
                .collect()
        })
        .collect()
}

#[test]
fn refutations_of_the_phased_trace_carry_certificates() {
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(GOLDEN_PATH, render()).expect("fixture is writable");
        return;
    }
    let samples = steady_samples();
    assert_eq!(samples.len(), 18);
    assert!(samples
        .iter()
        .all(|row| row.len() == full_counter_space().len()));
    let correlated =
        Observation::from_samples_with_model("phased-3", &samples, 0.99, NoiseModel::Correlated);
    for (name, features) in feature_sets_table3() {
        let cone = build_feature_model(&name, &features);
        let verdict = BatchFeasibility::new(&cone).verdict(&correlated);
        if let FeasibilityVerdict::Refuted { certificate } = &verdict {
            assert!(
                !certificate.is_empty(),
                "{name} refuted phased-3 without a certificate"
            );
        }
    }
}
