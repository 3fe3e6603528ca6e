//! The simulated-hardware backend: Haswell MMU ground truth through the
//! multiplexing PMU model.

use crate::backend::{CounterBackend, IntervalSamples, WorkloadRun};
use crate::error::CollectError;
use crate::schedule::EventSchedule;
use counterpoint_haswell::mmu::{HaswellMmu, MmuConfig};
use counterpoint_haswell::pmu::{ground_truth_events, MultiplexingPmu, PmuConfig};
use counterpoint_haswell::{full_counter_space, EventId};
use counterpoint_mudd::CounterSpace;

/// A backend that "measures" the functional Haswell simulator.
///
/// Each [`run`](CounterBackend::run) starts from a cold MMU (fresh TLBs and
/// paging caches) so results depend only on the configuration, the workload and
/// the PMU seed — the property campaign fan-out relies on for reproducibility
/// across thread counts.
#[derive(Clone, Debug)]
pub struct SimBackend {
    mmu: MmuConfig,
    pmu: PmuConfig,
    space: CounterSpace,
}

impl SimBackend {
    /// A simulator backend over the full 26-counter Haswell space.
    pub fn new(mmu: MmuConfig, pmu: PmuConfig) -> SimBackend {
        SimBackend {
            mmu,
            pmu,
            space: full_counter_space(),
        }
    }

    /// Restricts the backend to a custom counter space (projections, ablation
    /// studies).  Every counter must be a Table 2 event;
    /// [`run`](CounterBackend::run) fails with
    /// [`CollectError::UnknownCounter`] otherwise.
    pub fn with_space(mut self, space: CounterSpace) -> SimBackend {
        self.space = space;
        self
    }

    /// Overrides the PMU scheduling seed (campaigns use this for per-cell
    /// seeding).
    pub fn with_seed(mut self, seed: u64) -> SimBackend {
        self.pmu.seed = seed;
        self
    }

    /// The counter space this backend measures.
    pub fn space(&self) -> &CounterSpace {
        &self.space
    }

    /// The PMU model configuration in use.
    pub fn pmu_config(&self) -> &PmuConfig {
        &self.pmu
    }
}

impl CounterBackend for SimBackend {
    fn name(&self) -> &str {
        "sim"
    }

    fn schedule(&self) -> Result<EventSchedule, CollectError> {
        Ok(EventSchedule::for_space(
            &self.space,
            self.pmu.physical_counters,
        ))
    }

    fn run(
        &mut self,
        workload: &WorkloadRun<'_>,
        schedule: &EventSchedule,
    ) -> Result<IntervalSamples, CollectError> {
        let events = EventId::resolve(&self.space).map_err(|e| CollectError::UnknownCounter {
            backend: self.name().to_string(),
            counter: e.name,
        })?;
        let mut mmu = HaswellMmu::new(self.mmu.clone());
        let truth = ground_truth_events(
            &mut mmu,
            workload.accesses,
            workload.page_size,
            &events,
            workload.intervals,
        );
        let pmu = MultiplexingPmu::new(self.pmu.clone());
        let rows =
            pmu.sample_intervals_assigned(&truth, schedule.num_rounds(), |e| schedule.round_of(e));
        Ok(IntervalSamples::new(self.space.names().to_vec(), rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use counterpoint_haswell::mem::{MemoryAccess, PageSize};

    fn linear_accesses(n: u64) -> Vec<MemoryAccess> {
        (0..n).map(|i| MemoryAccess::load(i * 64)).collect()
    }

    #[test]
    fn sim_backend_matches_the_legacy_pmu_collect_path() {
        // The rewired pipeline must be bit-identical to the direct
        // `MultiplexingPmu::collect` call it replaced.
        let accesses = linear_accesses(20_000);
        let mut backend = SimBackend::new(MmuConfig::haswell(), PmuConfig::default());
        let schedule = backend.schedule().unwrap();
        let run = WorkloadRun {
            label: "linear",
            accesses: &accesses,
            page_size: PageSize::Size4K,
            intervals: 10,
        };
        let samples = backend.run(&run, &schedule).unwrap();

        let space = full_counter_space();
        let pmu = MultiplexingPmu::new(PmuConfig::default());
        let mut mmu = HaswellMmu::new(MmuConfig::haswell());
        let legacy = pmu.collect(&mut mmu, &accesses, PageSize::Size4K, &space, 10);
        assert_eq!(samples.rows(), &legacy[..]);
        assert_eq!(samples.counters(), space.names());
    }

    #[test]
    fn runs_are_independent_and_deterministic() {
        let accesses = linear_accesses(10_000);
        let mut backend = SimBackend::new(MmuConfig::haswell(), PmuConfig::default());
        let schedule = backend.schedule().unwrap();
        let run = WorkloadRun {
            label: "linear",
            accesses: &accesses,
            page_size: PageSize::Size4K,
            intervals: 5,
        };
        let a = backend.run(&run, &schedule).unwrap();
        // A second run on the same backend starts cold again: same result.
        let b = backend.run(&run, &schedule).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn seed_override_changes_multiplexed_samples() {
        let accesses = linear_accesses(30_000);
        let run = WorkloadRun {
            label: "linear",
            accesses: &accesses,
            page_size: PageSize::Size4K,
            intervals: 8,
        };
        let mut a = SimBackend::new(MmuConfig::haswell(), PmuConfig::default());
        let mut b = SimBackend::new(MmuConfig::haswell(), PmuConfig::default()).with_seed(1234);
        let schedule = a.schedule().unwrap();
        assert!(schedule.is_multiplexed());
        assert_ne!(
            a.run(&run, &schedule).unwrap(),
            b.run(&run, &schedule).unwrap()
        );
        assert_eq!(b.pmu_config().seed, 1234);
        assert_eq!(a.name(), "sim");
    }

    #[test]
    fn custom_space_projects_the_measurement() {
        let accesses = linear_accesses(5_000);
        let space = CounterSpace::new(&["load.ret", "load.causes_walk"]);
        let mut backend =
            SimBackend::new(MmuConfig::haswell(), PmuConfig::noiseless()).with_space(space);
        let schedule = backend.schedule().unwrap();
        assert_eq!(schedule.num_rounds(), 1);
        let run = WorkloadRun {
            label: "linear",
            accesses: &accesses,
            page_size: PageSize::Size4K,
            intervals: 4,
        };
        let samples = backend.run(&run, &schedule).unwrap();
        assert_eq!(samples.dimension(), 2);
        let total_ret: f64 = samples.rows().iter().map(|r| r[0]).sum();
        assert_eq!(total_ret, 5_000.0);
        assert_eq!(backend.space().len(), 2);
    }

    #[test]
    fn misspelt_counter_is_a_typed_error_not_a_zero_column() {
        let accesses = linear_accesses(1_000);
        let space = CounterSpace::new(&["load.ret", "load.rett"]);
        let mut backend =
            SimBackend::new(MmuConfig::haswell(), PmuConfig::noiseless()).with_space(space);
        let schedule = backend.schedule().unwrap();
        let run = WorkloadRun {
            label: "linear",
            accesses: &accesses,
            page_size: PageSize::Size4K,
            intervals: 2,
        };
        assert_eq!(
            backend.run(&run, &schedule),
            Err(CollectError::UnknownCounter {
                backend: "sim".to_string(),
                counter: "load.rett".to_string(),
            })
        );
    }
}
