//! The in-process workloads: their set-up, the timed session (one
//! `Inquiry::run`), and the layer-by-layer replica of that session which the
//! traced run measures.
//!
//! The replica calls each crate's public functions in the order
//! `Inquiry::run` does, with a benchmark span around every call, and must
//! render the same report bytes; that check is what makes its per-layer
//! times describe the session's own work.

use counterpoint_bench::experiment_config;
use counterpoint_collect::{Campaign, CampaignCell, CounterBackend, SimBackend, WorkloadRun};
use counterpoint_core::constraints::remove_redundant_generators;
use counterpoint_core::{
    check_models_verdicts, essential_feature_intersection, CertificatePool, ExplorationModel,
    FeasibilityVerdict, LatticeSearch, ModelCone, Observation,
};
use counterpoint_geometry::{ConeConstraint, ConstraintSense, GeneratorCone};
use counterpoint_models::enumo::{self, build_enumerated_model, EnumOptions, ModelGrammar};
use counterpoint_models::family::{build_feature_model, feature_sets_table3};
use counterpoint_models::harness::{case_study_campaign, HarnessConfig};
use counterpoint_session::{
    EnumeratedGroup, EnumerationSummary, Inquiry, ModelConstraints, ModelVerdicts,
    ObservationSummary, Report, SessionError, StageTimings, Verdict, REPORT_FORMAT_VERSION,
};
use counterpoint_telemetry as telemetry;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Accesses per workload in the `table3` campaign (the experiments binary's
/// full, non-`--quick` size).
const TABLE3_ACCESSES: usize = 60_000;
/// Accesses per workload of the observations the `enumerate_depth2` and
/// `deduce_sample` sessions test (the experiments binary's full `enumerate`
/// size: half the Table 3 budget).
const SETUP_ACCESSES: usize = TABLE3_ACCESSES / 2;
/// The deduce sample takes every `DEDUCE_STRIDE`-th depth-2 member ...
const DEDUCE_STRIDE: usize = 16;
/// ... plus this member, the one with the most generators.
const DEDUCE_EXTRA: &str = "e68";

/// The workloads this binary runs in process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One Table 3 Inquiry: the 54-cell campaign against m0–m11.
    Table3,
    /// The depth-2 grammar Inquiry on observations collected in set-up.
    EnumerateDepth2,
    /// Constraint deduction over m0–m11 plus a sample of depth-2 members.
    DeduceSample,
}

impl Kind {
    /// Every in-process workload.
    pub const ALL: [Kind; 3] = [Kind::Table3, Kind::EnumerateDepth2, Kind::DeduceSample];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Table3 => "table3",
            Kind::EnumerateDepth2 => "enumerate_depth2",
            Kind::DeduceSample => "deduce_sample",
        }
    }

    /// Parses a command-line workload name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// A workload after set-up: everything a session needs besides its own work.
pub enum Prepared {
    /// `table3`: the campaign configuration and the twelve Table 3 models.
    Table3 {
        /// Harness configuration (PMU seed = the workload seed).
        config: HarnessConfig,
        /// m0–m11.
        models: Vec<ExplorationModel>,
    },
    /// `enumerate_depth2`: observations and the grammar stage.
    EnumerateDepth2 {
        /// The case-study observations, collected once.
        observations: Vec<Observation>,
        /// The case-study grammar.
        grammar: ModelGrammar,
        /// Depth 2, cap 512.
        options: EnumOptions,
    },
    /// `deduce_sample`: observations and the sampled model cones.
    DeduceSample {
        /// The case-study observations, collected once.
        observations: Vec<Observation>,
        /// m0–m11, every 16th depth-2 member, and e68.
        models: Vec<ExplorationModel>,
    },
}

/// Work counts the replica saw that the report does not carry.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplicaCounts {
    /// Generators handed to redundant-generator removal.
    pub generators_in: usize,
    /// Generators it kept.
    pub generators_kept: usize,
}

/// Sets a workload up for `seed`: the seed reaches the program only as the
/// PMU scheduling seed of the campaigns it collects.
pub fn setup(kind: Kind, seed: u64) -> Prepared {
    match kind {
        Kind::Table3 => Prepared::Table3 {
            config: seeded_config(TABLE3_ACCESSES, seed),
            models: table3_models(),
        },
        Kind::EnumerateDepth2 => Prepared::EnumerateDepth2 {
            observations: collect(seed),
            grammar: ModelGrammar::case_study(),
            options: depth2_options(),
        },
        Kind::DeduceSample => {
            let observations = collect(seed);
            let family = enumo::enumerate(&ModelGrammar::case_study(), &depth2_options());
            let mut models = table3_models();
            models.extend(
                family
                    .members
                    .iter()
                    .enumerate()
                    .filter(|(i, m)| i % DEDUCE_STRIDE == 0 || m.name == DEDUCE_EXTRA)
                    .map(|(_, m)| {
                        let cone = build_enumerated_model(&m.name, &m.spec);
                        ExplorationModel::new(&m.name, m.spec.feature_set(), cone)
                    }),
            );
            Prepared::DeduceSample {
                observations,
                models,
            }
        }
    }
}

fn seeded_config(accesses: usize, seed: u64) -> HarnessConfig {
    let mut config = experiment_config(accesses);
    config.pmu.seed = seed;
    config
}

/// Collects the set-up observations on one thread: with two, the process's
/// memory peak would depend on whether two of the large prefetch-linear
/// cells happened to run at once.
fn collect(seed: u64) -> Vec<Observation> {
    let config = seeded_config(SETUP_ACCESSES, seed);
    case_study_campaign(&config).run_sim(&config.mmu, &config.pmu)
}

fn table3_models() -> Vec<ExplorationModel> {
    feature_sets_table3()
        .into_iter()
        .map(|(name, features)| {
            let cone = build_feature_model(&name, &features);
            ExplorationModel::new(&name, features, cone)
        })
        .collect()
}

fn depth2_options() -> EnumOptions {
    EnumOptions {
        max_depth: 2,
        max_models: 512,
        ..EnumOptions::default()
    }
}

impl Prepared {
    /// The models whose verdicts the report carries (empty for the grammar
    /// workload, whose lattice models live in search graphs).
    pub fn models(&self) -> &[ExplorationModel] {
        match self {
            Prepared::Table3 { models, .. } | Prepared::DeduceSample { models, .. } => models,
            Prepared::EnumerateDepth2 { .. } => &[],
        }
    }

    /// The campaign one session collects (`table3` only).
    pub fn campaign(&self) -> Option<Campaign> {
        match self {
            Prepared::Table3 { config, .. } => Some(case_study_campaign(config)),
            _ => None,
        }
    }

    /// Simulated memory accesses in one session (exact, from the cells).
    pub fn session_accesses(&self) -> usize {
        self.campaign()
            .map_or(0, |c| c.cells().iter().map(|cell| cell.accesses).sum())
    }

    /// One timed session: the `Inquiry` a user would run.
    pub fn session(&self, threads: usize) -> Result<Report, SessionError> {
        match self {
            Prepared::Table3 { config, models } => Inquiry::new()
                .sim_campaign(
                    case_study_campaign(config),
                    config.mmu.clone(),
                    config.pmu.clone(),
                )
                .models(models.clone())
                .threads(threads)
                .run(),
            Prepared::EnumerateDepth2 {
                observations,
                grammar,
                options,
            } => Inquiry::new()
                .observations(observations.clone())
                .model_grammar(grammar.clone(), *options)
                .threads(threads)
                .run(),
            Prepared::DeduceSample {
                observations,
                models,
            } => Inquiry::new()
                .observations(observations.clone())
                .models(models.clone())
                .deduce_constraints(true)
                .threads(threads)
                .run(),
        }
    }

    /// The session re-driven layer by layer, with a benchmark span around
    /// each call into a crate.  Renders the same report bytes as
    /// [`session`](Prepared::session).
    pub fn replica(&self, threads: usize) -> (Report, ReplicaCounts) {
        let mut counts = ReplicaCounts::default();
        let report = match self {
            Prepared::Table3 { config, models } => {
                let campaign = case_study_campaign(config);
                let observations = {
                    let _span = telemetry::span("collect.campaign", "");
                    collect_cells(&campaign, config, threads)
                };
                evaluate(models, &observations, threads, false, &mut counts)
            }
            Prepared::EnumerateDepth2 {
                observations,
                grammar,
                options,
            } => search_family(observations, grammar, options, threads),
            Prepared::DeduceSample {
                observations,
                models,
            } => evaluate(models, observations, threads, true, &mut counts),
        };
        (report, counts)
    }
}

/// The campaign runner's deterministic work-stealing loop over the cells,
/// with each cell's layers called one by one.
fn collect_cells(campaign: &Campaign, config: &HarnessConfig, threads: usize) -> Vec<Observation> {
    let cells = campaign.cells();
    let slots: Vec<Mutex<Option<Observation>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(cells.len()).max(1) {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(idx) else {
                    break;
                };
                let observation = collect_cell(cell, campaign, config);
                *slots[idx].lock().expect("a collect worker panicked") = Some(observation);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("a collect worker panicked")
                .expect("every cell was collected")
        })
        .collect()
}

fn collect_cell(cell: &CampaignCell, campaign: &Campaign, config: &HarnessConfig) -> Observation {
    let _cell = telemetry::span("collect.cell", &cell.label);
    let mut backend = SimBackend::new(config.mmu.clone(), config.pmu.clone()).with_seed(cell.seed);
    let schedule = {
        let _span = telemetry::span("collect.schedule", &cell.label);
        backend
            .schedule()
            .expect("the simulated backend always has a schedule")
    };
    let accesses = {
        let _span = telemetry::span("workloads.generate", &cell.label);
        cell.workload.generate(cell.accesses)
    };
    let samples = {
        let _span = telemetry::span("haswell.run", &cell.label);
        let run = WorkloadRun {
            label: &cell.label,
            accesses: &accesses,
            page_size: cell.page_size,
            intervals: campaign.intervals(),
        };
        backend
            .run(&run, &schedule)
            .expect("the simulated backend is infallible")
    };
    let _span = telemetry::span("stats.observation", &cell.label);
    samples.observation(
        &cell.label,
        campaign.warmup_intervals(),
        campaign.confidence(),
    )
}

/// The evaluate stage: the verdict matrix, optional constraint deduction, and
/// the report rows built from them.
fn evaluate(
    models: &[ExplorationModel],
    observations: &[Observation],
    threads: usize,
    with_constraints: bool,
    counts: &mut ReplicaCounts,
) -> Report {
    let cones: Vec<&ModelCone> = models.iter().map(|m| &m.cone).collect();
    let matrix = {
        let _span = telemetry::span("core.check_models", "");
        check_models_verdicts(&cones, observations, threads)
    };
    let deduced: Vec<Option<Vec<(ConeConstraint, String)>>> = models
        .iter()
        .map(|m| with_constraints.then(|| deduce(&m.cone, counts)))
        .collect();

    let _span = telemetry::span("session.assemble", "");
    let rows: Vec<ModelVerdicts> = models
        .iter()
        .zip(matrix)
        .zip(&deduced)
        .map(|((model, row), constraints)| {
            let verdicts: Vec<Verdict> = row
                .into_iter()
                .zip(observations)
                .map(|(verdict, observation)| {
                    let violated = match (&verdict, constraints) {
                        (FeasibilityVerdict::Refuted { .. }, Some(set)) => {
                            violated_by(set, observation)
                        }
                        _ => Vec::new(),
                    };
                    Verdict::from_engine(verdict, violated)
                })
                .collect();
            ModelVerdicts {
                model: model.name.clone(),
                features: model.features.iter().cloned().collect(),
                infeasible_count: verdicts.iter().filter(|v| v.is_refuted()).count(),
                inconclusive_count: verdicts
                    .iter()
                    .filter(|v| matches!(v, Verdict::Inconclusive { .. }))
                    .count(),
                feasible: verdicts.iter().all(Verdict::is_feasible),
                verdicts,
            }
        })
        .collect();
    let essential_features = essential_feature_intersection(
        models
            .iter()
            .zip(&rows)
            .filter(|(_, row)| row.feasible)
            .map(|(model, _)| &model.features),
    );
    let constraints = models
        .iter()
        .zip(&deduced)
        .filter_map(|(model, set)| {
            set.as_ref().map(|set| ModelConstraints {
                model: model.name.clone(),
                constraints: set.iter().map(|(_, text)| text.clone()).collect(),
            })
        })
        .collect();
    report(
        models
            .first()
            .map(|m| m.cone.counters().names().to_vec())
            .unwrap_or_default(),
        observations,
        rows,
        essential_features,
        constraints,
        None,
    )
}

/// Constraint deduction for one cone: redundant-generator removal, then the
/// double-description facets, rendered equalities first.
fn deduce(cone: &ModelCone, counts: &mut ReplicaCounts) -> Vec<(ConeConstraint, String)> {
    let _span = telemetry::span("core.deduce", cone.name());
    let generators = cone.generator_cone().generators().to_vec();
    let reduced = if generators.len() > 2 {
        let _span = telemetry::span("core.redundancy", cone.name());
        counts.generators_in += generators.len();
        let reduced = remove_redundant_generators(&generators);
        counts.generators_kept += reduced.len();
        reduced
    } else {
        generators
    };
    let geometric = if reduced.is_empty() {
        GeneratorCone::zero(cone.dimension())
    } else {
        GeneratorCone::new(reduced)
    };
    let facets = {
        let _span = telemetry::span("geometry.facets", cone.name());
        geometric.facets()
    };
    let names = cone.counters().name_refs();
    facets
        .equalities
        .into_iter()
        .chain(facets.inequalities)
        .map(|c| {
            let text = c.render(&names);
            (c, text)
        })
        .collect()
}

/// The constraints an observation's confidence region violates, by the rule
/// of `ConstraintSet::violated_by`.
fn violated_by(constraints: &[(ConeConstraint, String)], observation: &Observation) -> Vec<String> {
    let region = observation.region();
    let scale = region
        .center()
        .iter()
        .fold(1.0f64, |acc, v| acc.max(v.abs()));
    let tol = 1e-9 * scale;
    constraints
        .iter()
        .filter(|(constraint, _)| {
            let coeffs: Vec<f64> = constraint.coeffs().iter().map(|c| c.to_f64()).collect();
            let (lo, hi) = region.interval_along(&coeffs);
            match constraint.sense() {
                ConstraintSense::GreaterEqualZero => hi < -tol,
                ConstraintSense::Equality => lo > tol || hi < -tol,
            }
        })
        .map(|(_, text)| text.clone())
        .collect()
}

/// The grammar stage: enumerate the family, then one certificate-sharing
/// lattice search per assumption group, in signature order.
fn search_family(
    observations: &[Observation],
    grammar: &ModelGrammar,
    options: &EnumOptions,
    threads: usize,
) -> Report {
    let family = {
        let _span = telemetry::span("models.enumerate", "");
        enumo::enumerate(grammar, options)
    };
    let counters = {
        let _span = telemetry::span("models.initial_cone", "");
        family
            .groups
            .first()
            .map(|group| {
                group.generator()(&group.initial())
                    .counters()
                    .names()
                    .to_vec()
            })
            .unwrap_or_default()
    };
    let pool = CertificatePool::new();
    let mut groups = Vec::with_capacity(family.groups.len());
    let mut cross_certificates = 0usize;
    let mut cross_witnesses = 0usize;
    for group in &family.groups {
        let _span = telemetry::span("core.lattice_search", &group.signature);
        let mut search = LatticeSearch::new(group.generator(), &group.universe_names());
        search.set_threads(threads);
        search.set_shared_pool(&pool, &group.signature);
        let (graph, stats) = search.run_with_stats(&group.initial(), observations);
        cross_certificates += stats.cross_family_certificate_hits;
        cross_witnesses += stats.cross_family_witness_hits;
        groups.push(EnumeratedGroup {
            signature: group.signature.clone(),
            members: group.members.clone(),
            universe: group.universe_names(),
            graph,
        });
    }
    let summary = EnumerationSummary {
        raw_candidates: family.raw_candidates,
        canonical_candidates: family.canonical_candidates,
        members: family.len(),
        skipped_path_limit: family.skipped_path_limit,
        structural_duplicates: family.structural_duplicates,
        groups,
        cross_family_certificate_hits: cross_certificates,
        cross_family_witness_hits: cross_witnesses,
    };
    // No registered models: no verdict rows, and no feasible model to
    // intersect features over.
    report(
        counters,
        observations,
        Vec::new(),
        None,
        Vec::new(),
        Some(summary),
    )
}

fn report(
    counters: Vec<String>,
    observations: &[Observation],
    models: Vec<ModelVerdicts>,
    essential_features: Option<Vec<String>>,
    constraints: Vec<ModelConstraints>,
    enumeration: Option<EnumerationSummary>,
) -> Report {
    Report {
        version: REPORT_FORMAT_VERSION,
        counters,
        observations: observations
            .iter()
            .map(|o| ObservationSummary {
                name: o.name().to_string(),
                mean: o.mean().to_vec(),
                samples: o.region().num_samples(),
                confidence: o.region().confidence(),
            })
            .collect(),
        models,
        essential_features,
        constraints,
        refinement: None,
        enumeration,
        stages: StageTimings::default(),
        telemetry: None,
    }
}
