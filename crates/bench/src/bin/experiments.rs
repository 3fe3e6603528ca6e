//! Regenerates the tables and figures of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p counterpoint-bench --bin experiments -- \
//!     <which> [--quick] [--seed <u64>] [--threads <n>] [--search-threads <n>] [--json <path>] \
//!     [--enumerate <depth>] [--max-models <n>] [--telemetry <prefix>]
//! ```
//!
//! where `<which>` is one of `fig1a`, `fig1b`, `fig1c`, `fig3`, `fig5`, `fig6`,
//! `fig9`, `fig10`, `table1`, `table3`, `table5`, `table7`, `stats`,
//! `enumerate`, or `all`.
//! Unknown experiment names and flags are rejected with a usage message.
//! Every valued flag also accepts the `--flag=value` spelling.
//! `--quick` reduces the simulated access counts (for smoke testing).
//! The case-study campaign is collected once per access budget and shared by
//! every experiment at that budget (`table3` and `table7`; `fig9`, `fig10` and
//! `enumerate`).
//! `--seed` overrides the PMU multiplexing-scheduler seed of that campaign, so
//! it reseeds `table3`, `table7`, `fig9`, `fig10` and `enumerate` (default
//! unchanged, so output stays reproducible); `table5` runs on a noiseless PMU
//! that no seed changes, and `stats` keeps the default PMU seed, so its
//! printed violation counts stay pinned.
//! `--threads` fans the observation campaign and the model family across worker
//! threads through the `counterpoint-collect` runner and the session layer
//! (`0` = available parallelism; output is identical for every thread count),
//! and `--search-threads` gives the Figure 10 refinement search its own worker
//! budget through the certificate-pruned `LatticeSearch` engine (default: the
//! `--threads` budget; the search graph is byte-identical for every value).
//! `--enumerate <depth>` sets the grammar iteration depth of the `enumerate`
//! experiment (default 2) and `--max-models <n>` caps how many canonical
//! specs the enumerated family keeps (default 512); both only affect that
//! experiment.
//! `--json` additionally writes a machine-readable report of the experiments
//! that ran — full `counterpoint-session` [`Report`]s for the model-search
//! tables and Figure 10, structured values for Figures 1c and 5 — as one JSON
//! object keyed by experiment name.  The JSON is deterministic across runs and
//! thread counts (session reports exclude wall-clock timing by construction),
//! so it diffs cleanly as a CI artifact.
//! `--telemetry <prefix>` records the whole run through the
//! `counterpoint-telemetry` sink and writes `<prefix>.metrics.json` (counter /
//! histogram / warning snapshot) and `<prefix>.trace.json` (a Chrome Trace
//! Event dump — load it at <https://ui.perfetto.dev>).  The printed tables and
//! any `--json` report are byte-identical with and without the flag.
//!
//! The mapping from experiment to paper table/figure, and the measured-vs-paper
//! comparison, is recorded in `EXPERIMENTS.md`.

use counterpoint::models::family::{
    abort_specs_table7, build_abort_model, build_feature_model, build_trigger_model,
    feature_sets_table3, trigger_specs_table5,
};
use counterpoint::models::harness::{observe_trace, HarnessConfig};
use counterpoint::models::Feature;
use counterpoint::telemetry::span;
use counterpoint::workloads::{GraphTraversal, LinearAccess, Workload};
use counterpoint::{
    compile_uop, deduce_constraints, BatchFeasibility, CounterSpace, ExplorationModel,
    FeasibilityVerdict, FeatureSet, Inquiry, ModelCone, NoiseModel, Observation, Report,
};
use counterpoint_bench::{experiment_observations_opts, projected_model, table3_model};
use counterpoint_haswell::eventdb::{event_database, growth_factor};
use counterpoint_haswell::full_counter_space;
use counterpoint_haswell::hec::cumulative_group_space;
use counterpoint_haswell::mem::PageSize;
use counterpoint_haswell::mmu::{HaswellMmu, MmuConfig};
use counterpoint_haswell::pmu::{MultiplexingPmu, PmuConfig};
use counterpoint_mudd::CounterSignature;
use counterpoint_stats::{pearson, ConfidenceRegion};
use serde::Serialize;
use serde_json::JsonValue;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// The valid `<which>` selectors, in run order.
const EXPERIMENTS: [&str; 14] = [
    "fig1a",
    "fig1b",
    "fig1c",
    "fig3",
    "fig5",
    "fig6",
    "table1",
    "table3",
    "table5",
    "table7",
    "stats",
    "fig9",
    "fig10",
    "enumerate",
];

/// The case-study observation sets collected so far in this process, keyed by
/// access budget: `--seed` and `--threads` are fixed for a process, and the
/// observations are identical at every thread count, so the budget alone
/// names a collection.
type Collections = RefCell<BTreeMap<usize, Vec<Observation>>>;

/// Run-wide options parsed from the command line.
#[derive(Clone, Copy)]
struct Opts<'a> {
    /// Per-workload access budget.
    accesses: usize,
    /// PMU multiplexing-scheduler seed override (`--seed`).
    seed: Option<u64>,
    /// Campaign worker threads (`--threads`; 0 = available parallelism).
    threads: usize,
    /// Refinement-search worker threads (`--search-threads`; defaults to the
    /// `--threads` budget).
    search_threads: Option<usize>,
    /// Grammar iteration depth for the `enumerate` experiment (`--enumerate`).
    enumerate_depth: usize,
    /// Canonical-model cap for the `enumerate` experiment (`--max-models`).
    max_models: usize,
    /// Every experiment's case-study collections, shared for the whole run.
    collections: &'a Collections,
}

impl Opts<'_> {
    /// The case-study observation set at the given access budget, honouring
    /// `--seed`/`--threads`.  The campaign is simulated on the first request
    /// for a budget (under a top-level `case_study_collect` span); later
    /// requests reuse that collection.
    fn observations(&self, accesses: usize) -> Vec<Observation> {
        self.collections
            .borrow_mut()
            .entry(accesses)
            .or_insert_with(|| {
                let _span = span("case_study_collect", &accesses.to_string());
                experiment_observations_opts(accesses, self.seed, self.threads)
            })
            .clone()
    }

    /// An [`Inquiry`] over the case-study observations at the given access
    /// budget (see [`observations`](Opts::observations)).
    fn inquiry(&self, accesses: usize) -> Inquiry {
        Inquiry::new()
            .observations(self.observations(accesses))
            .threads(self.threads)
    }
}

/// Command line of the experiments binary.
#[derive(Debug, PartialEq)]
struct Cli {
    which: String,
    quick: bool,
    seed: Option<u64>,
    threads: usize,
    search_threads: Option<usize>,
    enumerate_depth: usize,
    max_models: usize,
    json: Option<String>,
    telemetry: Option<String>,
}

/// Parses the arguments after the program name.  Every valued flag takes its
/// value either as the next argument or after `=` (`--seed 7`, `--seed=7`).
/// The error is the message the usage text follows.
fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        which: String::new(),
        quick: false,
        seed: None,
        threads: 1,
        search_threads: None,
        enumerate_depth: 2,
        max_models: 512,
        json: None,
        telemetry: None,
    };
    let mut which: Option<&str> = None;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            if let Some(previous) = which {
                return Err(format!(
                    "unexpected argument `{arg}` (experiment `{previous}` already selected)"
                ));
            }
            if arg != "all" && !EXPERIMENTS.contains(&arg.as_str()) {
                return Err(format!("unknown experiment `{arg}`"));
            }
            which = Some(arg);
            continue;
        }
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) => (flag, Some(value)),
            None => (arg.as_str(), None),
        };
        let mut value = || match inline {
            Some(value) => Ok(value.to_string()),
            None => rest
                .next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value")),
        };
        let number = |value: String| -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("invalid {flag} value `{value}`"))
        };
        match flag {
            "--quick" if inline.is_none() => cli.quick = true,
            "--seed" => cli.seed = Some(number(value()?)?),
            "--threads" => cli.threads = number(value()?)? as usize,
            "--search-threads" => cli.search_threads = Some(number(value()?)? as usize),
            "--enumerate" => cli.enumerate_depth = number(value()?)? as usize,
            "--max-models" => cli.max_models = number(value()?)? as usize,
            "--json" => cli.json = Some(value()?),
            "--telemetry" => cli.telemetry = Some(value()?),
            _ => return Err(format!("unknown flag `{arg}`")),
        }
    }
    cli.which = which.unwrap_or("all").to_string();
    Ok(cli)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_args(&args).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        eprintln!(
            "usage: experiments <which> [--quick] [--seed <u64>] [--threads <n>] \
             [--search-threads <n>] [--enumerate <depth>] [--max-models <n>] \
             [--json <path>] [--telemetry <prefix>]"
        );
        eprintln!(
            "where <which> is `all` or one of: {}",
            EXPERIMENTS.join(", ")
        );
        std::process::exit(2);
    });
    // Claim the telemetry sink for the whole run: every Inquiry the selected
    // experiments build contributes to this one recording (their own
    // `telemetry(...)` hook yields to an active outer recording).
    let recording = cli
        .telemetry
        .as_ref()
        .map(|_| counterpoint::telemetry::Recording::start());
    let collections = Collections::default();
    let opts = Opts {
        accesses: if cli.quick { 20_000 } else { 60_000 },
        seed: cli.seed,
        threads: cli.threads,
        search_threads: cli.search_threads,
        enumerate_depth: cli.enumerate_depth,
        max_models: cli.max_models,
        collections: &collections,
    };

    // Session reports are converted to the JSON value model only when
    // `--json` asked for them (fig1c/fig5 build their few small rows
    // alongside printing either way); nothing is retained on default runs.
    let want_json = cli.json.is_some();
    let mut sink: Vec<(String, JsonValue)> = Vec::new();
    let mut run = |name: &str, f: &dyn Fn(Opts) -> Option<JsonValue>| {
        if cli.which == "all" || cli.which == name {
            println!("\n================ {name} ================");
            if let Some(value) = f(opts) {
                if want_json {
                    sink.push((name.to_string(), value));
                }
            }
        }
    };

    run("fig1a", &|_| {
        fig1a();
        None
    });
    run("fig1b", &|_| {
        fig1b();
        None
    });
    run("fig1c", &|o| Some(fig1c(o.accesses)));
    run("fig3", &|_| {
        fig3();
        None
    });
    run("fig5", &|o| Some(fig5(o.accesses)));
    run("fig6", &|_| {
        fig6();
        None
    });
    run("table1", &|_| {
        table1();
        None
    });
    run("table3", &|o| json_if(table3(&o), want_json));
    run("table5", &|o| json_if(table5(&o), want_json));
    run("table7", &|o| json_if(table7(&o), want_json));
    run("stats", &|o| {
        stats_correlations(o.accesses);
        None
    });
    run("fig9", &|o| {
        fig9(&o);
        None
    });
    run("fig10", &|o| json_if(fig10(&o), want_json));
    run("enumerate", &|o| json_if(enumerate_families(&o), want_json));

    if let Some(path) = &cli.json {
        let text = serde_json::to_string_pretty(&JsonValue::Object(sink))
            .expect("experiment values are finite");
        std::fs::write(path, text + "\n")
            .unwrap_or_else(|e| panic!("cannot write --json file `{path}`: {e}"));
        eprintln!("wrote JSON report to {path}");
    }

    if let (Some(prefix), Some(recording)) = (&cli.telemetry, recording) {
        let snapshot = recording.finish();
        let (metrics, trace) = snapshot
            .write_files(prefix)
            .unwrap_or_else(|e| panic!("cannot write --telemetry files at `{prefix}`: {e}"));
        eprintln!("wrote telemetry metrics to {metrics}");
        eprintln!("wrote Chrome trace (load at https://ui.perfetto.dev) to {trace}");
    }
}

/// Renders a session report into the `--json` sink's value model — only when
/// `--json` was requested; default runs drop the report without converting
/// its verdict matrix.
fn json_if(report: Report, want_json: bool) -> Option<JsonValue> {
    want_json.then(|| report.to_value())
}

/// Figure 1a: growth of HEC counts across microarchitecture generations.
fn fig1a() {
    let _span = span("fig1a", "");
    println!(
        "{:<8} {:>6} {:>14} {:>8} {:>20}",
        "uarch", "year", "named events", "cores", "addressable events"
    );
    for m in event_database() {
        println!(
            "{:<8} {:>6} {:>14} {:>8} {:>20}",
            m.name,
            m.year,
            m.named_events,
            m.typical_cores,
            m.addressable_events()
        );
    }
    println!(
        "growth factor (addressable, oldest -> newest): {:.1}x (paper: >10x)",
        growth_factor()
    );
}

/// Figure 1b: number of model constraints vs. cumulative counter groups.
fn fig1b() {
    let _span = span("fig1b", "");
    println!("{:<22} {:>12} {:>12}", "counter groups", "m0", "m4");
    let labels = ["Ret|4", "+L2TLB|10", "+Walk|22", "+Refs|26"];
    for groups in 1..=4usize {
        let count = |name: &str| deduce_constraints(&projected_model(name, groups)).len();
        // The Refs group makes the exact hull expensive for the richest model; the
        // paper reports the same exponential blow-up (Figure 9b).
        let m4 = if groups <= 3 {
            count("m4").to_string()
        } else {
            "(see fig9)".to_string()
        };
        println!("{:<22} {:>12} {:>12}", labels[groups - 1], count("m0"), m4);
    }
}

/// Figure 1c: multiplexing noise vs. number of active HECs, and whether the
/// constraint-(1) violation remains detectable at 99% confidence.  Returns the
/// per-row data for the `--json` report.
fn fig1c(accesses: usize) -> JsonValue {
    let _span = span("fig1c", "");
    let space = full_counter_space();
    // A 2 KiB stride gives two accesses per page: the merged-walk violation
    // (ret_stlb_miss = 2x walk_done) is real but has a slim margin, so it is
    // exactly the kind of violation multiplexing noise can hide.
    let workload = LinearAccess {
        footprint: 32 << 20,
        stride: 2048,
        store_ratio: 0.0,
    };
    let trace = workload.generate(accesses * 2);
    // The constraint under test: load.ret_stlb_miss <= load.walk_done (violated by
    // walk merging on this workload).  Checked against the m0-style cone projected
    // onto the Ret+Walk counters.
    let m0 = table3_model("m0");
    let mut m0_engine = BatchFeasibility::new(&m0);
    println!(
        "{:>10} {:>22} {:>28}",
        "counters", "relative noise (CV)", "violation detected (m0)"
    );
    // Ground-truth per-interval increments (no multiplexing), multiplexed below as
    // if `active` logical events were programmed on 4 physical counters with a
    // bursty phase profile.  Several PMU scheduling seeds are averaged, mirroring
    // repeated measurement runs.
    let pmu_truth = MultiplexingPmu::new(PmuConfig::noiseless());
    let mut mmu = HaswellMmu::new(MmuConfig::haswell());
    let truth = pmu_truth.collect(&mut mmu, &trace, PageSize::Size4K, &space, 12);
    let idx = space.index_of("load.ret_stlb_miss").unwrap();
    let seeds = [11u64, 23, 37, 51, 77];
    let mut rows: Vec<JsonValue> = Vec::new();
    for &active in &[4usize, 8, 12, 16, 19, 22, 26] {
        let mut cv_sum = 0.0;
        let mut detected_runs = 0usize;
        for &seed in &seeds {
            let samples = MultiplexingPmu::new(PmuConfig {
                physical_counters: 4,
                slices_per_interval: 16,
                phase_variation: 0.9,
                seed,
            })
            .sample_intervals(&truth, active);
            let steady = &samples[2..];
            let obs = Observation::from_samples("fig1c", steady, 0.99);
            let series: Vec<f64> = steady.iter().map(|r| r[idx]).collect();
            let mean = counterpoint_stats::mean(&series).max(1.0);
            cv_sum += counterpoint_stats::variance(&series).sqrt() / mean;
            if m0_engine.verdict(&obs).is_refuted() {
                detected_runs += 1;
            }
        }
        println!(
            "{:>10} {:>22.3} {:>21} of {} runs",
            active,
            cv_sum / seeds.len() as f64,
            detected_runs,
            seeds.len()
        );
        rows.push(JsonValue::Object(vec![
            ("active_counters".to_string(), active.to_value()),
            (
                "mean_relative_noise".to_string(),
                (cv_sum / seeds.len() as f64).to_value(),
            ),
            ("detected_runs".to_string(), detected_runs.to_value()),
            ("total_runs".to_string(), seeds.len().to_value()),
        ]));
    }
    JsonValue::Array(rows)
}

/// Figure 3: whether a violation is detectable depends on which counters are used.
fn fig3() {
    let _span = span("fig3", "");
    // Figure 3a's three-counter cone and the infeasible observation.
    let space3 = CounterSpace::new(&["load.causes_walk", "load.walk_done", "load.ret_stlb_miss"]);
    let sigs = vec![
        CounterSignature::from_counts(vec![1, 0, 0]),
        CounterSignature::from_counts(vec![1, 1, 0]),
        CounterSignature::from_counts(vec![1, 1, 1]),
    ];
    let cone3 = ModelCone::from_signatures("fig3a", &space3, sigs.clone(), 3);
    let obs3 = Observation::exact("obs", &[4.0, 2.0, 3.0]);
    println!(
        "3 counters (causes_walk, walk_done, ret_stlb_miss): violation detected = {}",
        BatchFeasibility::new(&cone3).verdict(&obs3).is_refuted()
    );

    // Figure 3b: dropping walk_done hides the violation.
    let cone2 = cone3.project(&["load.causes_walk", "load.ret_stlb_miss"]);
    let obs2 = Observation::exact("obs", &[4.0, 3.0]);
    println!(
        "2 counters (drop walk_done):                         violation detected = {}",
        BatchFeasibility::new(&cone2).verdict(&obs2).is_refuted()
    );

    // Figure 3c: substituting pde$_miss for walk_done also hides it.
    let space_sub =
        CounterSpace::new(&["load.causes_walk", "load.pde$_miss", "load.ret_stlb_miss"]);
    let sub_sigs = vec![
        CounterSignature::from_counts(vec![1, 0, 0]),
        CounterSignature::from_counts(vec![1, 1, 0]),
        CounterSignature::from_counts(vec![1, 0, 1]),
        CounterSignature::from_counts(vec![1, 1, 1]),
    ];
    let cone_sub = ModelCone::from_signatures("fig3c", &space_sub, sub_sigs, 4);
    let obs_sub = Observation::exact("obs", &[4.0, 1.0, 3.0]);
    println!(
        "3 counters (substitute pde$_miss):                   violation detected = {}",
        BatchFeasibility::new(&cone_sub)
            .verdict(&obs_sub)
            .is_refuted()
    );
    println!("constraints of the 3-counter cone:");
    for c in deduce_constraints(&cone3).all_named() {
        println!("  {}", c.text());
    }
}

/// Figures 3d / 5: correlated vs. independent counter confidence regions.
/// Returns the extents and refutation outcomes for the `--json` report.
fn fig5(accesses: usize) -> JsonValue {
    let _span = span("fig5", "");
    let space = full_counter_space();
    let workload = GraphTraversal {
        vertices: 300_000,
        avg_degree: 8,
        seed: 3,
    };
    let trace = workload.generate(accesses * 4);
    let pmu = MultiplexingPmu::new(PmuConfig::default());
    let mut mmu = HaswellMmu::new(MmuConfig::haswell());
    let samples = pmu.collect(&mut mmu, &trace, PageSize::Size4K, &space, 40);
    let steady = &samples[2..];
    let correlated = ConfidenceRegion::from_samples(steady, 0.99, NoiseModel::Correlated);
    let independent = ConfidenceRegion::from_samples(steady, 0.99, NoiseModel::Independent);
    println!("confidence-region total extent (sum of half-widths), 99% level:");
    println!("  independent : {:>14.1}", independent.total_extent());
    println!("  correlated  : {:>14.1}", correlated.total_extent());
    println!(
        "  tightening  : {:>14.2}x",
        independent.total_extent() / correlated.total_extent().max(1e-9)
    );
    let m0 = table3_model("m0");
    let independent_extent = independent.total_extent();
    let correlated_extent = correlated.total_extent();
    let obs_corr = Observation::from_region("graph", correlated);
    let obs_ind = Observation::from_region("graph", independent);
    let mut m0_engine = BatchFeasibility::new(&m0);
    let refuted_corr = m0_engine.verdict(&obs_corr).is_refuted();
    let refuted_ind = m0_engine.verdict(&obs_ind).is_refuted();
    println!("m0 refuted with correlated region: {refuted_corr}");
    println!("m0 refuted with independent region: {refuted_ind}");
    JsonValue::Object(vec![
        (
            "independent_extent".to_string(),
            independent_extent.to_value(),
        ),
        (
            "correlated_extent".to_string(),
            correlated_extent.to_value(),
        ),
        (
            "tightening".to_string(),
            (independent_extent / correlated_extent.max(1e-9)).to_value(),
        ),
        ("m0_refuted_correlated".to_string(), refuted_corr.to_value()),
        ("m0_refuted_independent".to_string(), refuted_ind.to_value()),
    ])
}

/// Figure 6: refining the PDE-cache model removes the violated constraint.
fn fig6() {
    let _span = span("fig6", "");
    let counters = CounterSpace::new(&["load.causes_walk", "load.pde$_miss"]);
    let initial = compile_uop(
        "fig6a",
        "incr load.causes_walk; do LookupPde$; switch Pde$Status { Hit => pass; Miss => incr load.pde$_miss }; done;",
        &counters,
    )
    .unwrap();
    let refined = compile_uop(
        "fig6c",
        "do LookupPde$; switch Pde$Status { Hit => pass; Miss => incr load.pde$_miss }; switch Abort { Yes => done; No => incr load.causes_walk }; done;",
        &counters,
    )
    .unwrap();
    let obs = Observation::exact("microbench", &[1_000.0, 1_300.0]);
    for (label, mudd) in [("initial (6a)", &initial), ("refined (6c)", &refined)] {
        let cone = ModelCone::from_mudd(mudd).unwrap();
        let verdict = BatchFeasibility::new(&cone).verdict(&obs);
        println!("{label}: feasible = {}", verdict.is_feasible());
        if verdict.is_refuted() {
            for v in deduce_constraints(&cone).violated_by(obs.region()) {
                println!("    violated: {}", v.text());
            }
        }
    }
}

/// Table 1: representative Haswell MMU model constraints.
fn table1() {
    let _span = span("table1", "");
    // Constraint 1 comes from the merge-free, prefetch-capable model projected onto
    // Ret+Walk counters; constraints 2/3-style bounds appear once the Refs group is
    // included.
    let m1 = projected_model("m1", 3);
    let constraints = deduce_constraints(&m1);
    println!(
        "model m1 projected onto Ret+L2TLB+Walk ({} counters): {} constraints",
        m1.dimension(),
        constraints.len()
    );
    let mut shown = 0;
    for c in constraints.all_named() {
        if c.involved_counters() >= 2 && shown < 12 {
            println!("  [{} HECs] {}", c.involved_counters(), c.text());
            shown += 1;
        }
    }
    // The walk_ref lower bound (constraint 3 of Table 1) on the small projection of
    // m0 with the Refs group included.
    let m0_refs = table3_model("m0").project(&[
        "load.causes_walk",
        "load.walk_done_1g",
        "store.causes_walk",
        "store.walk_done_1g",
        "walk_ref.l1",
        "walk_ref.l2",
        "walk_ref.l3",
        "walk_ref.mem",
    ]);
    println!("\nwalk_ref bounds implied by m0 (no bypass):");
    for c in deduce_constraints(&m0_refs).all_named() {
        if c.involved_counters() >= 4 {
            println!("  [{} HECs] {}", c.involved_counters(), c.text());
        }
    }
}

/// Table 3: the initial model search.
fn table3(opts: &Opts) -> Report {
    let models: Vec<ExplorationModel> = feature_sets_table3()
        .into_iter()
        .map(|(name, features)| {
            let cone = build_feature_model(&name, &features);
            ExplorationModel::new(&name, features, cone)
        })
        .collect();
    // One session: the campaign and the model family both fan across the
    // worker threads through the session layer; output is identical for every
    // thread count.
    let report = opts
        .inquiry(opts.accesses)
        .models(models.clone())
        .run()
        .expect("the simulated campaign cannot fail");
    println!("{} observations collected\n", report.observations.len());
    println!(
        "{:<5} {:>8} {:>9} {:>8} {:>11} {:>11} {:>12}",
        "model", "TlbPf", "EarlyPsc", "Merging", "Pml4eCache", "WalkBypass", "#infeasible"
    );
    for (model, eval) in models.iter().zip(report.models.iter()) {
        let tick = |f: Feature| {
            if model.features.contains(f.name()) {
                "yes"
            } else {
                "-"
            }
        };
        println!(
            "{:<5} {:>8} {:>9} {:>8} {:>11} {:>11} {:>12}{}",
            model.name,
            tick(Feature::TlbPrefetch),
            tick(Feature::EarlyPsc),
            tick(Feature::Merging),
            tick(Feature::Pml4eCache),
            tick(Feature::WalkBypass),
            eval.infeasible_count,
            if eval.feasible { "   <- feasible" } else { "" }
        );
    }
    report
}

/// Table 5: TLB prefetch trigger conditions.
fn table5(opts: &Opts) -> Report {
    // The trigger analysis focuses on the linear microbenchmark instances (paper,
    // Appendix C.2), run to steady state.
    let accesses = opts.accesses;
    let config = HarnessConfig::quick();
    let setup_span = span("table5_setup", "");
    let mut observations = Vec::new();
    for (label, store_ratio) in [("loads", 0.0f64), ("stores", 1.0)] {
        let workload = LinearAccess {
            footprint: 8 << 20,
            stride: 64,
            store_ratio,
        };
        let trace = workload.generate((accesses * 60).max(3_000_000));
        observations.push(observe_trace(
            &format!("linear-{label}"),
            &trace,
            PageSize::Size4K,
            &config,
        ));
    }
    let specs = trigger_specs_table5();
    let models: Vec<ExplorationModel> = specs
        .iter()
        .map(|(name, spec)| {
            ExplorationModel::new(name, FeatureSet::new(), build_trigger_model(name, spec))
        })
        .collect();
    drop(setup_span);
    let report = Inquiry::new()
        .observations(observations)
        .threads(opts.threads)
        .models(models)
        .run()
        .expect("pre-built observations cannot fail to collect");
    println!(
        "{:<5} {:>5} {:>5} {:>6} {:>10} {:>10} {:>12}",
        "model", "spec", "load", "store", "dtlb-miss", "stlb-miss", "#infeasible"
    );
    for ((name, spec), row) in specs.iter().zip(report.models.iter()) {
        let infeasible = row.infeasible_count;
        let tick = |b: bool| if b { "yes" } else { "-" };
        println!(
            "{:<5} {:>5} {:>5} {:>6} {:>10} {:>10} {:>12}{}",
            name,
            tick(spec.speculative),
            tick(spec.load),
            tick(spec.store),
            tick(spec.dtlb_miss),
            tick(spec.stlb_miss),
            infeasible,
            if infeasible == 0 {
                "   <- feasible"
            } else {
                ""
            }
        );
    }
    report
}

/// Table 7: translation-request abort points as an alternative to walk bypassing.
fn table7(opts: &Opts) -> Report {
    let specs = abort_specs_table7();
    let mut models: Vec<ExplorationModel> = specs
        .iter()
        .map(|(name, points)| {
            ExplorationModel::new(name, FeatureSet::new(), build_abort_model(name, points))
        })
        .collect();
    // The walk-bypassing alternative rides along as the final family member.
    models.push(ExplorationModel::new(
        "t0 (walk bypassing)",
        FeatureSet::new(),
        build_trigger_model(
            "t0 (walk bypassing)",
            &counterpoint::models::TriggerSpec::t0(),
        ),
    ));
    let report = opts
        .inquiry(opts.accesses)
        .models(models)
        .run()
        .expect("the simulated campaign cannot fail");
    println!("{} observations collected\n", report.observations.len());
    println!(
        "{:<5} {:<55} {:>12}",
        "model", "abort points", "#infeasible"
    );
    for ((name, points), row) in specs.iter().zip(report.models.iter()) {
        let labels: Vec<&str> = points.iter().map(|p| p.label()).collect();
        println!(
            "{:<5} {:<55} {:>12}",
            name,
            labels.join(", "),
            row.infeasible_count
        );
    }
    println!(
        "{:<5} {:<55} {:>12}",
        "t0",
        "walk bypassing instead of aborts",
        report
            .models
            .last()
            .expect("t0 was registered")
            .infeasible_count
    );
    report
}

/// Section 7.1 statistics: correlated vs. independent violation detection, and the
/// fraction of strongly correlated counter pairs.
fn stats_correlations(accesses: usize) {
    let space = full_counter_space();
    let pmu = MultiplexingPmu::new(PmuConfig::default());
    let traces_span = span("stats_traces", "");
    let mut traces: Vec<(String, Vec<counterpoint_haswell::mem::MemoryAccess>)> =
        counterpoint::workloads::standard_suite()
            .iter()
            .map(|entry| {
                (
                    entry.label.clone(),
                    entry
                        .workload
                        .generate(accesses * entry.access_scale.max(1)),
                )
            })
            .collect();
    // Phase-varying traces (a prefetch-friendly linear phase followed by a
    // TLB-hostile random phase): program phases make the per-interval counter
    // values co-vary, which is what the correlated confidence regions exploit.
    traces.extend((0..4u64).map(|i| {
        let mut trace = LinearAccess {
            footprint: 8 << 20,
            stride: 64,
            store_ratio: 0.0,
        }
        .generate(accesses * 4);
        trace.extend(
            counterpoint::workloads::RandomAccess {
                footprint: (1 + i) << 30,
                store_ratio: 0.2,
                seed: i,
            }
            .generate(accesses * 4),
        );
        (format!("phased-{i}"), trace)
    }));
    drop(traces_span);
    let models: Vec<ModelCone> = ["m0", "m1", "m2", "m3", "m9", "m10", "m11"]
        .iter()
        .map(|n| table3_model(n))
        .collect();
    // One engine per model for the whole trace loop: every counted violation
    // is a refutation carrying its Farkas certificate.
    let mut engines: Vec<BatchFeasibility> = models.iter().map(BatchFeasibility::new).collect();

    let mut correlated_violations = 0usize;
    let mut independent_violations = 0usize;
    let mut inconclusive = 0usize;
    let mut strong_pairs = 0usize;
    let mut total_pairs = 0usize;

    let pmu_span = counterpoint::telemetry::span("stats_pmu", "");
    for (label, trace) in traces {
        let mut mmu = HaswellMmu::new(MmuConfig::haswell());
        let samples = pmu.collect(&mut mmu, &trace, PageSize::Size4K, &space, 20);
        let steady: Vec<Vec<f64>> = samples[2..].to_vec();

        // Pearson correlations across counter pairs (counting only pairs where both
        // counters are active).
        for i in 0..space.len() {
            for j in (i + 1)..space.len() {
                let xi: Vec<f64> = steady.iter().map(|r| r[i]).collect();
                let xj: Vec<f64> = steady.iter().map(|r| r[j]).collect();
                if xi.iter().sum::<f64>() > 0.0 && xj.iter().sum::<f64>() > 0.0 {
                    total_pairs += 1;
                    if pearson(&xi, &xj).abs() > 0.9 {
                        strong_pairs += 1;
                    }
                }
            }
        }

        let corr =
            Observation::from_samples_with_model(&label, &steady, 0.99, NoiseModel::Correlated);
        let ind =
            Observation::from_samples_with_model(&label, &steady, 0.99, NoiseModel::Independent);
        for engine in &mut engines {
            for (observation, violations) in [
                (&corr, &mut correlated_violations),
                (&ind, &mut independent_violations),
            ] {
                match engine.verdict(observation) {
                    FeasibilityVerdict::Refuted { .. } => *violations += 1,
                    FeasibilityVerdict::Inconclusive { .. } => inconclusive += 1,
                    FeasibilityVerdict::Feasible { .. } => {}
                }
            }
        }
    }
    drop(pmu_span);

    println!("model-constraint violations detected across incomplete models:");
    println!("  with correlated confidence regions : {correlated_violations}");
    println!("  with independent confidence regions: {independent_violations}");
    if inconclusive > 0 {
        println!("  inconclusive (no sound certificate) : {inconclusive}");
    }
    if independent_violations > 0 {
        println!(
            "  additional violations from correlations: {:.1}% (paper: >24%)",
            100.0 * (correlated_violations as f64 - independent_violations as f64)
                / independent_violations as f64
        );
    }
    println!(
        "counter pairs with |Pearson| > 0.9: {:.1}% ({} of {}) (paper: >25%)",
        100.0 * strong_pairs as f64 / total_pairs.max(1) as f64,
        strong_pairs,
        total_pairs
    );
}

/// Figure 9: CounterPoint performance characterisation.
fn fig9(opts: &Opts) {
    let observations = opts.observations(opts.accesses / 2);
    println!("(a) feasibility-testing time per observation vs counter groups (model m4):");
    let timing_span = span("fig9_feasibility_timing", "");
    for groups in 1..=4usize {
        let cone = projected_model("m4", groups);
        let space = cumulative_group_space(groups);
        let idx: Vec<usize> = full_counter_space().indices_of(space.names());
        let projected: Vec<Observation> = observations
            .iter()
            .take(20)
            .map(|o| {
                let mean: Vec<f64> = idx.iter().map(|&i| o.mean()[i]).collect();
                Observation::exact(o.name(), &mean)
            })
            .collect();
        // The warm-started batch engine is what a campaign actually runs.
        let mut batch = BatchFeasibility::new(&cone);
        let start = Instant::now();
        for o in &projected {
            let _ = batch.is_feasible(o);
        }
        let per_obs = start.elapsed().as_secs_f64() * 1000.0 / projected.len() as f64;
        println!(
            "  {:>2} group(s), {:>2} counters: {:>8.3} ms / observation",
            groups,
            space.len(),
            per_obs
        );
    }

    drop(timing_span);

    println!("(b) constraint-deduction time vs counter groups (model m0):");
    let _span = span("fig9_deduction_timing", "");
    for groups in 1..=4usize {
        let start = Instant::now();
        let constraints = deduce_constraints(&projected_model("m0", groups));
        let elapsed = start.elapsed().as_secs_f64();
        println!(
            "  {:>2} group(s): {:>9.3} s  ({} constraints)",
            groups,
            elapsed,
            constraints.len()
        );
    }
}

/// Figure 10: the guided discovery/elimination search graph.
fn fig10(opts: &Opts) -> Report {
    let feature_names: Vec<&str> = Feature::ALL.iter().map(|f| f.name()).collect();
    let mut inquiry = opts.inquiry(opts.accesses / 2).refine(
        |features: &FeatureSet| build_feature_model("candidate", features),
        &feature_names,
        FeatureSet::new(),
    );
    if let Some(search_threads) = opts.search_threads {
        inquiry = inquiry.search_threads(search_threads);
    }
    let report = inquiry.run().expect("the simulated campaign cannot fail");
    let graph = report
        .refinement
        .as_ref()
        .expect("refinement was configured");
    println!(
        "explored {} models, {} edges",
        graph.steps.len(),
        graph.edges.len()
    );
    for (i, step) in graph.steps.iter().enumerate() {
        println!(
            "  [{i:>2}] ({:?}) {{{}}}: {} infeasible{}",
            step.phase,
            step.features.join(", "),
            step.infeasible_count,
            if step.feasible { "  <- feasible" } else { "" }
        );
    }
    println!("minimal feasible feature sets:");
    for set in &graph.minimal_feasible {
        println!("  {{{}}}", set.join(", "));
    }
    println!(
        "essential features: {{{}}}",
        graph.essential_features().join(", ")
    );
    println!(
        "JSON search graph:\n{}",
        serde_json::to_string_pretty(graph).unwrap()
    );
    report
}

/// The grammar-enumerated model families: iterate the case-study term
/// grammar to `--enumerate` depth, canonicalize and cap at `--max-models`
/// specs, then run one certificate-pool-sharing
/// [`LatticeSearch`](counterpoint::LatticeSearch) per assumption group over
/// the case-study observations.
fn enumerate_families(opts: &Opts) -> Report {
    use counterpoint::models::enumo::{EnumOptions, ModelGrammar};

    let grammar = ModelGrammar::case_study();
    let options = EnumOptions {
        max_depth: opts.enumerate_depth,
        max_models: opts.max_models,
        ..EnumOptions::default()
    };
    let mut inquiry = opts
        .inquiry(opts.accesses / 2)
        .model_grammar(grammar, options);
    if let Some(search_threads) = opts.search_threads {
        inquiry = inquiry.search_threads(search_threads);
    }
    let report = inquiry.run().expect("the simulated campaign cannot fail");
    let summary = report
        .enumeration
        .as_ref()
        .expect("enumeration was configured");
    println!("{} observations collected\n", report.observations.len());
    println!(
        "grammar candidates: {} raw -> {} canonical (depth {}, cap {})",
        summary.raw_candidates, summary.canonical_candidates, opts.enumerate_depth, opts.max_models
    );
    println!(
        "family members built: {} ({} path-limit skips, {} structural duplicates)",
        summary.members, summary.skipped_path_limit, summary.structural_duplicates
    );
    println!("\nassumption groups ({}):", summary.groups.len());
    println!(
        "{:<42} {:>8} {:>9} {:>10}",
        "group signature", "members", "searched", "feasible"
    );
    let mut searched_total = 0usize;
    for group in &summary.groups {
        let feasible = group.graph.steps.iter().filter(|s| s.feasible).count();
        searched_total += group.graph.steps.len();
        println!(
            "{:<42} {:>8} {:>9} {:>10}",
            group.signature,
            group.members.len(),
            group.graph.steps.len(),
            feasible
        );
    }
    println!("\nlattice models searched across all groups: {searched_total}");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_args(&args)
    }

    #[test]
    fn both_flag_spellings_give_the_same_cli() {
        let spaced = parse(&[
            "table3",
            "--quick",
            "--seed",
            "7",
            "--threads",
            "2",
            "--search-threads",
            "3",
            "--enumerate",
            "1",
            "--max-models",
            "9",
            "--json",
            "report.json",
            "--telemetry",
            "trace",
        ])
        .unwrap();
        let inline = parse(&[
            "--quick",
            "--seed=7",
            "--threads=2",
            "--search-threads=3",
            "--enumerate=1",
            "--max-models=9",
            "--json=report.json",
            "--telemetry=trace",
            "table3",
        ])
        .unwrap();
        assert_eq!(spaced, inline);
        assert_eq!(
            spaced,
            Cli {
                which: "table3".to_string(),
                quick: true,
                seed: Some(7),
                threads: 2,
                search_threads: Some(3),
                enumerate_depth: 1,
                max_models: 9,
                json: Some("report.json".to_string()),
                telemetry: Some("trace".to_string()),
            }
        );
        assert_eq!(parse(&[]).unwrap().which, "all");
    }

    #[test]
    fn bad_arguments_are_rejected_with_their_message() {
        for (args, message) in [
            (&["--quick=1"][..], "unknown flag `--quick=1`"),
            (&["--bogus=3"], "unknown flag `--bogus=3`"),
            (&["--seed"], "--seed requires a value"),
            (&["--seed=x"], "invalid --seed value `x`"),
            (&["--threads", "many"], "invalid --threads value `many`"),
            (&["--max-models="], "invalid --max-models value ``"),
            (&["bogus"], "unknown experiment `bogus`"),
            (
                &["fig3", "fig5"],
                "unexpected argument `fig5` (experiment `fig3` already selected)",
            ),
        ] {
            assert_eq!(parse(args).unwrap_err(), message, "{args:?}");
        }
    }

    #[test]
    fn case_study_collections_are_memoized_per_budget() {
        use counterpoint::models::harness::case_study_campaign;
        use counterpoint::telemetry::{Metric, Recording};
        use counterpoint_bench::experiment_config;

        let collections = Collections::default();
        let opts = Opts {
            accesses: 1_000,
            seed: None,
            threads: 1,
            search_threads: None,
            enumerate_depth: 2,
            max_models: 512,
            collections: &collections,
        };
        let budgets = [1_000usize, 2_000];
        let cells = case_study_campaign(&experiment_config(budgets[0]))
            .cells()
            .len();
        let lookup = || {
            let recording = Recording::start();
            let sets = budgets.map(|n| format!("{:?}", opts.observations(n)));
            (sets, recording.finish().counter(Metric::CampaignCells))
        };
        let (first, collected) = lookup();
        assert_eq!(collected, 2 * cells as u64, "one collection per budget");
        assert_ne!(first[0], first[1], "the two budgets share a collection");
        let (again, recollected) = lookup();
        assert_eq!(recollected, 0, "a second lookup ran another collection");
        assert_eq!(again, first);

        for n in budgets {
            let table3_style = |inquiry: Inquiry| {
                inquiry
                    .model("m0", table3_model("m0"))
                    .model("m4", table3_model("m4"))
                    .run()
                    .unwrap()
                    .to_json()
            };
            let config = experiment_config(n);
            let simulated = Inquiry::new().sim_campaign(
                case_study_campaign(&config),
                config.mmu.clone(),
                config.pmu.clone(),
            );
            assert_eq!(
                table3_style(opts.inquiry(n)),
                table3_style(simulated),
                "budget {n}"
            );
        }
    }
}
