//! Golden pin of the Haswell simulator's ground truth: the exact per-interval
//! counter increments `ground_truth_intervals` reports for a handful of suite
//! workloads, at every page size, under the full-featured, conventional and
//! tiny-TLB MMU configurations.
//!
//! Every model verdict downstream is a function of these integers, so any
//! change to the simulator's bookkeeping (counter storage, snapshotting,
//! projection) must leave this file byte-identical.  Regenerate it only for an
//! intentional behaviour change, by running this test with `GOLDEN_REGEN=1`
//! (which rewrites `tests/golden/sim_ground_truth.txt`).

use counterpoint::haswell::full_counter_space;
use counterpoint::haswell::mem::PageSize;
use counterpoint::haswell::mmu::{HaswellMmu, MmuConfig};
use counterpoint::haswell::pmu::ground_truth_intervals;
use counterpoint::workloads::standard_suite;
use std::fmt::Write as _;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/sim_ground_truth.txt"
);
const EXPECTED: &str = include_str!("golden/sim_ground_truth.txt");

/// Suite workloads covering the prefetcher (64-byte linear loop), stores,
/// uniform random pages, a graph traversal and a store-heavy key-value mix.
const WORKLOADS: [&str; 5] = [
    "linear(footprint=8MiB,stride=64,stores=0%)",
    "linear(footprint=64MiB,stride=64,stores=100%)",
    "random(footprint=4096MiB,stores=20%)",
    "graph(v=200000,deg=8)",
    "kv(records=2000000,update=50%,theta=0.99)",
];

/// Per-workload access budget, scaled by the suite's `access_scale` so the
/// prefetching linear loop makes more than one pass over its buffer.
const BASE_ACCESSES: usize = 6_000;
const INTERVALS: usize = 6;

fn configs() -> [(&'static str, MmuConfig); 3] {
    [
        ("haswell", MmuConfig::haswell()),
        ("conventional", MmuConfig::conventional()),
        ("haswell_tiny", MmuConfig::haswell_tiny()),
    ]
}

fn render() -> String {
    let space = full_counter_space();
    let suite = standard_suite();
    let mut out = String::new();
    writeln!(out, "# counters: {}", space.names().join(" ")).unwrap();
    for label in WORKLOADS {
        let named = suite
            .iter()
            .find(|w| w.label == label)
            .unwrap_or_else(|| panic!("workload {label} left the standard suite"));
        let accesses = named.workload.generate(BASE_ACCESSES * named.access_scale);
        for size in PageSize::ALL {
            for (config_name, config) in configs() {
                let mut mmu = HaswellMmu::new(config);
                let rows = ground_truth_intervals(&mut mmu, &accesses, size, &space, INTERVALS);
                writeln!(out, "{label} {size} {config_name}").unwrap();
                for row in rows {
                    let counts: Vec<String> = row
                        .iter()
                        .map(|&v| {
                            assert!(v >= 0.0 && v.fract() == 0.0, "non-integral count {v}");
                            (v as u64).to_string()
                        })
                        .collect();
                    writeln!(out, "  {}", counts.join(" ")).unwrap();
                }
            }
        }
    }
    out
}

#[test]
fn ground_truth_intervals_match_the_golden_counts() {
    let rendered = render();
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(GOLDEN_PATH, &rendered).expect("golden file is writable");
        return;
    }
    assert!(
        rendered == EXPECTED,
        "simulator ground truth moved; diff against tests/golden/sim_ground_truth.txt \
         (regenerate with GOLDEN_REGEN=1 only for an intentional behaviour change)"
    );
}
