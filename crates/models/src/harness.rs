//! Data-collection harness: runs the synthetic workload suite on the simulated
//! Haswell MMU and produces the observations the model families are tested
//! against.
//!
//! This is the reproduction's stand-in for the paper's measurement campaign
//! (GAPBS / SPEC2006 / PARSEC / YCSB plus the two microbenchmarks, swept over page
//! sizes and footprints, ~20 million HEC samples).  The scale is reduced so the
//! full table/figure suite regenerates in minutes on a laptop, but the behavioural
//! axes — locality, footprint, load/store mix, page size — are the same.
//!
//! Acquisition goes through the `counterpoint-collect` subsystem: this module
//! just maps a [`HarnessConfig`] onto a [`Campaign`] over the simulator backend,
//! so the same suite can be fanned across threads, recorded to a trace and
//! replayed, or pointed at a different [`CounterBackend`] entirely.
//!
//! [`CounterBackend`]: counterpoint_collect::CounterBackend

use counterpoint_collect::{Campaign, CampaignCell, CounterBackend, SimBackend, WorkloadRun};
use counterpoint_core::Observation;
use counterpoint_haswell::mem::PageSize;
use counterpoint_haswell::mmu::MmuConfig;
use counterpoint_haswell::pmu::PmuConfig;
use counterpoint_telemetry as telemetry;
use counterpoint_workloads::standard_suite;
use std::sync::Arc;

/// Configuration of the data-collection harness.
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// Memory accesses simulated per workload/page-size combination.
    pub accesses_per_workload: usize,
    /// Number of measurement intervals per observation (the samples the confidence
    /// region is estimated from).
    pub intervals: usize,
    /// Confidence level of the constructed counter confidence regions.
    pub confidence: f64,
    /// PMU (multiplexing) model.
    pub pmu: PmuConfig,
    /// Ground-truth MMU configuration.
    pub mmu: MmuConfig,
    /// Page sizes the suite is swept over.
    pub page_sizes: Vec<PageSize>,
    /// Number of leading measurement intervals discarded as warm-up before the
    /// confidence region is estimated.  The paper's measurement runs are long
    /// enough that warm-up is negligible; at this reproduction's reduced scale the
    /// cold-start transient would otherwise dominate the sample variance.
    pub warmup_intervals: usize,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            accesses_per_workload: 100_000,
            intervals: 20,
            confidence: 0.99,
            pmu: PmuConfig::default(),
            mmu: MmuConfig::haswell(),
            page_sizes: vec![PageSize::Size4K, PageSize::Size2M, PageSize::Size1G],
            warmup_intervals: 2,
        }
    }
}

impl HarnessConfig {
    /// A scaled-down configuration for unit/integration tests: fewer accesses, 4 KiB
    /// pages only, no multiplexing noise.
    pub fn quick() -> HarnessConfig {
        HarnessConfig {
            accesses_per_workload: 40_000,
            intervals: 10,
            confidence: 0.99,
            pmu: PmuConfig::noiseless(),
            mmu: MmuConfig::haswell(),
            page_sizes: vec![PageSize::Size4K],
            warmup_intervals: 2,
        }
    }
}

/// The simulator backend a [`HarnessConfig`] describes (full Haswell counter
/// space, the config's MMU and PMU models).
pub fn sim_backend(config: &HarnessConfig) -> SimBackend {
    SimBackend::new(config.mmu.clone(), config.pmu.clone())
}

/// Builds the standard case-study [`Campaign`] — the workload suite swept over
/// the configured page sizes, one cell per (workload, page size) pair, every
/// cell seeded with the config's PMU seed.
///
/// The campaign runs on one thread by default; callers can fan it out with
/// [`Campaign::with_threads`] or reseed it with [`Campaign::with_seed`] without
/// touching this module (per-cell results are independent, so neither changes
/// the default output).
pub fn case_study_campaign(config: &HarnessConfig) -> Campaign {
    let mut campaign = Campaign::new(config.intervals, config.warmup_intervals, config.confidence);
    for page_size in &config.page_sizes {
        for entry in standard_suite() {
            campaign.push(CampaignCell {
                label: format!("{}@{}", entry.label, page_size),
                workload: Arc::from(entry.workload),
                accesses: config.accesses_per_workload * entry.access_scale.max(1),
                page_size: *page_size,
                seed: config.pmu.seed,
            });
        }
    }
    campaign
}

/// Runs a single access trace and returns its observation (used by the figure
/// binaries that need specific microbenchmark instances rather than the whole
/// suite).
pub fn observe_trace(
    name: &str,
    accesses: &[counterpoint_haswell::mem::MemoryAccess],
    page_size: PageSize,
    config: &HarnessConfig,
) -> Observation {
    let _span = telemetry::span("observe_trace", name);
    let mut backend = sim_backend(config);
    let schedule = backend
        .schedule()
        .expect("the simulated backend always has a schedule");
    let run = WorkloadRun {
        label: name,
        accesses,
        page_size,
        intervals: config.intervals,
    };
    let samples = backend
        .run(&run, &schedule)
        .expect("the simulated backend is infallible");
    samples.observation(name, config.warmup_intervals, config.confidence)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::{build_feature_model, feature_sets_table3};
    use counterpoint_core::BatchFeasibility;
    use counterpoint_haswell::full_counter_space;
    use counterpoint_haswell::mmu::HaswellMmu;
    use counterpoint_haswell::pmu::MultiplexingPmu;
    use counterpoint_workloads::{LinearAccess, Workload};

    #[test]
    fn rewired_harness_is_bit_identical_to_direct_pmu_collection() {
        // The pre-rewire harness called MultiplexingPmu::collect directly; the
        // campaign path must reproduce it bit-for-bit (same seeds, same order).
        let config = HarnessConfig {
            accesses_per_workload: 3_000,
            page_sizes: vec![PageSize::Size4K],
            intervals: 8,
            ..HarnessConfig::default()
        };
        let rewired = case_study_campaign(&config).run_sim(&config.mmu, &config.pmu);

        let space = full_counter_space();
        let pmu = MultiplexingPmu::new(config.pmu.clone());
        let mut legacy = Vec::new();
        for page_size in &config.page_sizes {
            for entry in standard_suite() {
                let accesses = entry
                    .workload
                    .generate(config.accesses_per_workload * entry.access_scale.max(1));
                let mut mmu = HaswellMmu::new(config.mmu.clone());
                let samples =
                    pmu.collect(&mut mmu, &accesses, *page_size, &space, config.intervals);
                let steady = &samples[config.warmup_intervals.min(samples.len() - 1)..];
                let label = format!("{}@{}", entry.label, page_size);
                legacy.push(Observation::from_samples(&label, steady, config.confidence));
            }
        }

        assert_eq!(rewired.len(), legacy.len());
        for (new, old) in rewired.iter().zip(&legacy) {
            assert_eq!(new.name(), old.name());
            assert_eq!(new.mean(), old.mean());
            assert_eq!(new.region().axes(), old.region().axes());
            assert_eq!(new.region().half_widths(), old.region().half_widths());
        }

        // Fan-out across threads must not change anything either.
        let threaded = case_study_campaign(&config)
            .with_threads(4)
            .run_sim(&config.mmu, &config.pmu);
        for (a, b) in threaded.iter().zip(&rewired) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.mean(), b.mean());
            assert_eq!(a.region().half_widths(), b.region().half_widths());
        }
    }

    #[test]
    fn quick_harness_produces_labelled_observations() {
        let mut config = HarnessConfig::quick();
        config.accesses_per_workload = 5_000;
        let observations = case_study_campaign(&config).run_sim(&config.mmu, &config.pmu);
        assert!(observations.len() >= 15);
        assert_eq!(observations[0].dimension(), 26);
        assert!(observations[0].name().contains("@4k"));
        // Counter means are non-trivial.
        assert!(observations
            .iter()
            .any(|o| o.mean().iter().sum::<f64>() > 1000.0));
    }

    #[test]
    fn observe_trace_runs_a_single_workload() {
        let config = HarnessConfig::quick();
        let workload = LinearAccess {
            footprint: 4 << 20,
            stride: 64,
            store_ratio: 0.0,
        };
        let obs = observe_trace(
            "linear",
            &workload.generate(20_000),
            PageSize::Size4K,
            &config,
        );
        assert_eq!(obs.name(), "linear");
        assert_eq!(obs.dimension(), 26);
    }

    #[test]
    fn feature_complete_model_explains_the_quick_suite() {
        // The end-to-end consistency check behind the whole case study: the
        // feature-complete model m4 must be feasible for every simulated
        // observation, while the featureless model m0 must be refuted by many.
        let mut config = HarnessConfig::quick();
        config.accesses_per_workload = 20_000;
        let observations = case_study_campaign(&config).run_sim(&config.mmu, &config.pmu);

        let specs = feature_sets_table3();
        let m4 = build_feature_model("m4", &specs.iter().find(|(n, _)| n == "m4").unwrap().1);
        let m0 = build_feature_model("m0", &specs.iter().find(|(n, _)| n == "m0").unwrap().1);

        let m4_infeasible = BatchFeasibility::new(&m4).count_infeasible(&observations);
        let m0_infeasible = BatchFeasibility::new(&m0).count_infeasible(&observations);
        assert_eq!(
            m4_infeasible, 0,
            "the feature-complete model must explain every simulated observation"
        );
        assert!(
            m0_infeasible > 0,
            "the featureless model must be refuted by at least one observation"
        );
        // The warm-started batch verdicts must match fresh engines' cold
        // solves on the real (noisy, distinct-axes) campaign data.
        let per_obs_m0 = observations
            .iter()
            .filter(|o| BatchFeasibility::new(&m0).verdict(o).is_refuted())
            .count();
        assert_eq!(m0_infeasible, per_obs_m0);
    }
}
