//! `perfbench`: times whole CounterPoint sessions the way a user runs them,
//! checks every output, and (with `--trace 1`) breaks one session down by
//! layer.
//!
//! ```text
//! perfbench --workload <table3|enumerate_depth2|deduce_sample> --seed <u64>
//!           --seconds <n> --trace <0|1> [--out <dir>]
//! ```
//!
//! The load is a closed loop in one process: one caller runs a session, waits
//! for it, checks it, and starts the next until `--seconds` have passed.
//! Human-readable lines come first; the last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.  The exit
//! code is 0 only when every check passed.  `perfbench/run.py` builds this
//! binary and is the benchmark's entry point; see `perfbench/README.md`.

mod checks;
mod sessions;
mod spans;

use counterpoint_session::{Report, StageTimings};
use counterpoint_telemetry::{self as telemetry, Metric, TelemetryReport};
use sessions::{Kind, Prepared, ReplicaCounts};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Worker threads of every in-process session: one, like the `experiments`
/// binary's default that `all_quick` runs.  On a shared 2-vCPU host, two
/// threads made each session wait on both vCPUs, and the median session of
/// 5-run probes spread 11–27% on the in-process workloads.
const THREADS: usize = 1;
/// Set-up is timed cold, each time in a fresh process (the models crate
/// memoises cones process-wide, so only a process's first set-up does the
/// work a user waits for): at least `SETUP_MIN_COUNT` times and until
/// `SETUP_MIN_SECONDS` have been timed, at most `SETUP_MAX_COUNT` times.
const SETUP_MIN_COUNT: usize = 3;
const SETUP_MIN_SECONDS: f64 = 0.25;
const SETUP_MAX_COUNT: usize = 50;

const USAGE: &str = "usage: perfbench --workload <table3|enumerate_depth2|deduce_sample> \
                     --seed <u64> --seconds <n> --trace <0|1> [--out <dir>] [--setup-only 1]";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    /// Set up once, print the set-up seconds and exit.
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kind = None;
    let mut seed = checks::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut out = PathBuf::from(".bench_out");
    let mut setup_only = false;
    let mut pairs = argv.chunks(2);
    for pair in &mut pairs {
        let [flag, value] = pair else {
            return Err(format!("`{}` needs a value", pair[0]));
        };
        let number = |v: &str| v.parse::<u64>().map_err(|_| format!("bad {flag} `{v}`"));
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::from_name(value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = number(value)?,
            "--seconds" => seconds = number(value)? as f64,
            "--trace" => trace = number(value)? != 0,
            "--out" => out = PathBuf::from(value),
            "--setup-only" => setup_only = number(value)? != 0,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out,
        setup_only,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let threads = THREADS;
    let start = Instant::now();
    let prepared = sessions::setup(args.kind, args.seed);
    let first_setup_s = start.elapsed().as_secs_f64();
    if args.setup_only {
        println!("{first_setup_s}");
        return ExitCode::SUCCESS;
    }
    println!(
        "perfbench {} seed={} threads={threads} (available parallelism {cores}) seconds={} trace={}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let mut tally = Tally::default();
    let mut setup_times = vec![first_setup_s];
    while setup_times.len() < SETUP_MIN_COUNT
        || (setup_times.iter().sum::<f64>() < SETUP_MIN_SECONDS
            && setup_times.len() < SETUP_MAX_COUNT)
    {
        match setup_in_child(&args) {
            Ok(seconds) => setup_times.push(seconds),
            Err(problem) => {
                tally.fail(vec![problem]);
                break;
            }
        }
    }
    let setup_s = fastest(&setup_times);

    let metrics = if args.trace {
        traced_run(&args, &prepared, threads, &mut tally)
    } else {
        untraced_run(
            &args,
            &prepared,
            threads,
            &mut tally,
            (setup_s, setup_times.len()),
        )
    };
    for problem in &tally.problems {
        println!("FAILED CHECK: {problem}");
    }
    let correct = tally.problems.is_empty() && tally.attempted > 0;
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // `+ 0.0` turns the -0.0 of an empty float sum into 0.
            let value = if value.is_finite() { value + 0.0 } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Times one cold set-up in a fresh process running this binary.
fn setup_in_child(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let output = std::process::Command::new(exe)
        .args([
            "--workload",
            args.kind.name(),
            "--seed",
            &args.seed.to_string(),
        ])
        .args(["--setup-only", "1"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run a set-up process: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    match text.lines().last().map(|line| line.trim().parse::<f64>()) {
        Some(Ok(seconds)) if output.status.success() => Ok(seconds),
        _ => Err(format!("set-up process failed ({})", output.status)),
    }
}

/// A metric as printed: name, value, unit.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Sessions run so far, their times and checks.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    session_times: Vec<f64>,
    stages: Vec<StageTimings>,
    /// Report JSON of the run's first session; later sessions must match it.
    reference: Option<String>,
    /// (model, observation) verdicts one session decides.
    verdicts: usize,
}

impl Tally {
    /// Runs, times and checks one session; returns its report JSON unless
    /// the session errored.
    fn session(&mut self, args: &Args, prepared: &Prepared, threads: usize) -> Option<String> {
        self.attempted += 1;
        let start = Instant::now();
        let result = prepared.session(threads);
        let seconds = start.elapsed().as_secs_f64();
        let report = match result {
            Ok(report) => report,
            Err(error) => {
                self.fail(vec![format!("session error: {error}")]);
                return None;
            }
        };
        self.session_times.push(seconds);
        self.stages.push(report.stages);
        let json = report.to_json();
        let problems = match &self.reference {
            None => {
                self.verdicts = verdicts(&report);
                let problems =
                    checks::check_first_report(args.kind, prepared, &report, &json, args.seed);
                self.reference = Some(json.clone());
                problems
            }
            Some(reference) if *reference != json => {
                vec!["a session's report differs from the run's first report".to_string()]
            }
            Some(_) => Vec::new(),
        };
        self.fail(problems);
        Some(json)
    }

    /// Counts one failed operation when `problems` is not empty.
    fn fail(&mut self, problems: Vec<String>) {
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems);
        }
    }
}

/// Verdicts a session decides: the verdict matrix, plus one per observation
/// for every lattice model the grammar stage searched.
fn verdicts(report: &Report) -> usize {
    let matrix: usize = report.models.iter().map(|m| m.verdicts.len()).sum();
    let searched: usize = report
        .enumeration
        .iter()
        .flat_map(|e| &e.groups)
        .map(|g| g.graph.steps.len())
        .sum();
    matrix + searched * report.observations.len()
}

/// The end-to-end run: sessions back to back for `--seconds`.
fn untraced_run(
    args: &Args,
    prepared: &Prepared,
    threads: usize,
    tally: &mut Tally,
    (setup_s, setup_repeats): (f64, usize),
) -> Metrics {
    let start = Instant::now();
    while tally.attempted == 0 || fits(start, args.seconds, &tally.session_times) {
        tally.session(args, prepared, threads);
    }
    let times = &tally.session_times;
    let session_s = fastest(times);
    let verdicts_per_s = tally.verdicts as f64 / session_s;
    let peak_rss_mb = peak_rss_mb();
    println!("setup_s             {setup_s:.6} s (fastest of {setup_repeats} set-ups)");
    let tail = match tail(times) {
        Some((percentile, value)) => format!("p{percentile:.0} {value:.6} s"),
        None => "no tail percentile (needs 11 sessions)".to_string(),
    };
    println!(
        "session_s           {session_s:.6} s fastest; median {:.6} s, quartiles {:.6} .. {:.6} s, \
         {tail}, n={}",
        median(times),
        quantile(times, 0.25),
        quantile(times, 0.75),
        times.len()
    );
    println!(
        "verdicts_per_s      {verdicts_per_s:.1} 1/s ({} per session)",
        tally.verdicts
    );
    if args.kind == Kind::Table3 {
        let accesses = prepared.session_accesses();
        println!(
            "sim_accesses_per_s  {:.0} 1/s ({accesses} accesses per session)",
            accesses as f64 / session_s
        );
    }
    println!("peak_rss_mb         {peak_rss_mb:.1} MB");
    println!(
        "failed_ratio        {} ({} of {} failed)",
        tally.failed as f64 / tally.attempted as f64,
        tally.failed,
        tally.attempted
    );
    vec![
        ("session_s", session_s, "s"),
        ("setup_s", setup_s, "s"),
        ("verdicts_per_s", verdicts_per_s, "1/s"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

/// The traced run: each untraced session is followed by its replica under a
/// telemetry recording; the last recording gives the per-layer numbers.
fn traced_run(args: &Args, prepared: &Prepared, threads: usize, tally: &mut Tally) -> Metrics {
    let start = Instant::now();
    let mut traced_times = Vec::new();
    let mut last: Option<(TelemetryReport, ReplicaCounts, Report)> = None;
    let mut iterations = Vec::new();
    while last.is_none() && start.elapsed().as_secs_f64() < args.seconds
        || fits(start, args.seconds, &iterations)
    {
        let iteration = Instant::now();
        let Some(json) = tally.session(args, prepared, threads) else {
            iterations.push(iteration.elapsed().as_secs_f64());
            continue;
        };
        tally.attempted += 1;
        let recording = telemetry::Recording::start();
        let replica_start = Instant::now();
        let (replica, counts) = {
            let _span = telemetry::span("bench.session", args.kind.name());
            prepared.replica(threads)
        };
        traced_times.push(replica_start.elapsed().as_secs_f64());
        let snapshot = recording.finish();
        if replica.to_json() != json {
            tally.fail(vec![
                "the layer-by-layer replica's report differs from Inquiry::run's".to_string(),
            ]);
        }
        last = Some((snapshot, counts, replica));
        iterations.push(iteration.elapsed().as_secs_f64());
    }
    let Some((snapshot, counts, replica)) = last else {
        return Vec::new();
    };
    let spans = spans::closed_spans(&snapshot);
    let session_s = fastest(&tally.session_times);
    let prefix = args
        .out
        .join(format!("{}-seed{}", args.kind.name(), args.seed));
    match std::fs::create_dir_all(&args.out)
        .and_then(|()| snapshot.write_files(&prefix.to_string_lossy()))
    {
        Ok((metrics, trace)) => println!("wrote {metrics} and {trace}"),
        Err(error) => tally.fail(vec![format!("cannot write the span files: {error}")]),
    }
    let metrics = layer_metrics(
        prepared,
        &LayerInputs {
            spans: &spans,
            snapshot: &snapshot,
            counts,
            replica: &replica,
            stages: &tally.stages,
            session_s,
            traced_s: fastest(&traced_times),
        },
    );
    for (name, value, unit) in &metrics {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    metrics
}

struct LayerInputs<'a> {
    spans: &'a [spans::Closed],
    snapshot: &'a TelemetryReport,
    counts: ReplicaCounts,
    replica: &'a Report,
    stages: &'a [StageTimings],
    /// Fastest untraced session seconds.
    session_s: f64,
    /// Fastest traced replica seconds.
    traced_s: f64,
}

/// Every per-layer metric, from the last traced replica.
fn layer_metrics(prepared: &Prepared, inputs: &LayerInputs<'_>) -> Metrics {
    let spans = inputs.spans;
    let counter = |metric: Metric| inputs.snapshot.counter(metric) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let stage =
        |f: fn(&StageTimings) -> f64| median(&inputs.stages.iter().map(f).collect::<Vec<_>>());

    // Per-cell simulator time by generator kind (label prefix).
    let cell_accesses: BTreeMap<String, usize> = prepared
        .campaign()
        .map(|c| {
            c.cells()
                .iter()
                .map(|cell| (cell.label.clone(), cell.accesses))
                .collect()
        })
        .unwrap_or_default();
    let accesses_of = |label: &str| cell_accesses.get(label).copied().unwrap_or(0);
    let ns_per_access = |prefix: &str| {
        let (seconds, accesses) = spans
            .iter()
            .filter(|s| s.name == "haswell.run" && s.key.starts_with(prefix))
            .fold((0.0, 0usize), |(t, n), s| {
                (t + s.seconds, n + accesses_of(&s.key))
            });
        ratio(seconds * 1e9, accesses as f64)
    };
    let collected: usize = spans
        .iter()
        .filter(|s| s.name == "collect.cell")
        .map(|s| accesses_of(&s.key))
        .sum();

    let enumeration = inputs.replica.enumeration.as_ref();
    let family = |f: fn(&counterpoint_session::EnumerationSummary) -> usize| {
        enumeration.map_or(0.0, |e| f(e) as f64)
    };
    let searched: usize = enumeration
        .iter()
        .flat_map(|e| &e.groups)
        .map(|g| g.graph.steps.len())
        .sum();
    let constraints: usize = inputs
        .replica
        .constraints
        .iter()
        .map(|c| c.constraints.len())
        .sum();

    let session_span = spans::total(spans, "bench.session");
    let covered: f64 = spans
        .iter()
        .filter(|s| s.parent == Some("bench.session"))
        .map(|s| s.seconds)
        .sum();
    let (collect_ms, evaluate_ms, refine_ms, enumerate_ms, total_ms) = (
        stage(|s| s.collect_ms),
        stage(|s| s.evaluate_ms),
        stage(|s| s.refine_ms),
        stage(|s| s.enumerate_ms),
        stage(|s| s.total_ms),
    );
    let lp_solves = counter(Metric::LpSolves);
    let cache_hits = counter(Metric::CoefficientCacheHits);
    vec![
        (
            "workloads.generate_s",
            spans::total(spans, "workloads.generate"),
            "s",
        ),
        ("haswell.sim_s", spans::total(spans, "haswell.run"), "s"),
        (
            "haswell.ns_per_access.linear",
            ns_per_access("linear("),
            "ns",
        ),
        (
            "haswell.ns_per_access.random",
            ns_per_access("random("),
            "ns",
        ),
        (
            "sim_accesses_per_s",
            ratio(prepared.session_accesses() as f64, inputs.session_s),
            "1/s",
        ),
        (
            "collect.cells",
            spans::count(spans, "collect.cell") as f64,
            "count",
        ),
        ("collect.accesses", collected as f64, "count"),
        (
            "collect.schedule_s",
            spans::total(spans, "collect.campaign"),
            "s",
        ),
        (
            "collect.longest_cell_s",
            spans::longest(spans, "collect.cell"),
            "s",
        ),
        (
            "stats.region_s",
            spans::total(spans, "stats.observation"),
            "s",
        ),
        ("session.collect_ms", collect_ms, "ms"),
        ("session.evaluate_ms", evaluate_ms, "ms"),
        ("session.refine_ms", refine_ms, "ms"),
        ("session.enumerate_ms", enumerate_ms, "ms"),
        (
            "session.unstaged_ms",
            (total_ms - collect_ms - evaluate_ms - refine_ms - enumerate_ms).max(0.0),
            "ms",
        ),
        (
            "models.enumerate_s",
            spans::total(spans, "models.enumerate"),
            "s",
        ),
        (
            "models.raw_candidates",
            family(|e| e.raw_candidates),
            "count",
        ),
        (
            "models.canonical_candidates",
            family(|e| e.canonical_candidates),
            "count",
        ),
        ("models.members", family(|e| e.members), "count"),
        (
            "models.structural_duplicates",
            family(|e| e.structural_duplicates),
            "count",
        ),
        (
            "models.member_yield",
            ratio(
                family(|e| e.members),
                family(|e| e.members + e.structural_duplicates + e.skipped_path_limit),
            ),
            "ratio",
        ),
        (
            "core.check_models_s",
            spans::total(spans, "core.check_models"),
            "s",
        ),
        (
            "core.lattice_search_s",
            spans::total(spans, "core.lattice_search"),
            "s",
        ),
        ("core.models_searched", searched as f64, "count"),
        (
            "core.short_circuits_per_solve",
            ratio(
                counter(Metric::CertificatePrunes) + counter(Metric::WitnessRaySettlements),
                lp_solves,
            ),
            "ratio",
        ),
        (
            "core.redundancy_s",
            spans::total(spans, "core.redundancy"),
            "s",
        ),
        (
            "core.redundancy_kept_ratio",
            ratio(
                inputs.counts.generators_kept as f64,
                inputs.counts.generators_in as f64,
            ),
            "ratio",
        ),
        ("lp.solves", lp_solves, "count"),
        (
            "lp.refactorizations_per_solve",
            ratio(counter(Metric::LpRefactorizations), lp_solves),
            "ratio",
        ),
        (
            "lp.coefficient_cache_hit_rate",
            ratio(
                cache_hits,
                cache_hits + counter(Metric::CoefficientCacheMisses),
            ),
            "ratio",
        ),
        (
            "lp.tier2_escalations",
            counter(Metric::LpTier2Escalations),
            "count",
        ),
        ("geometry.dd_s", spans::total(spans, "geometry.facets"), "s"),
        ("geometry.constraints", constraints as f64, "count"),
        (
            "geometry.deduce_max_model_s",
            spans::longest(spans, "core.deduce"),
            "s",
        ),
        // The experiments binary is a layer of the all_quick workload only.
        ("experiments.collect_runs", 0.0, "count"),
        ("experiments.unspanned_s", 0.0, "s"),
        (
            "trace.overhead_ratio",
            ratio(inputs.traced_s, inputs.session_s),
            "ratio",
        ),
        ("trace.coverage", ratio(covered, session_span), "ratio"),
        ("trace.unspanned_s", (session_span - covered).max(0.0), "s"),
    ]
}

/// Whether one more iteration, as long as the median of `iterations`, ends
/// within `seconds` of `start`.
fn fits(start: Instant, seconds: f64, iterations: &[f64]) -> bool {
    start.elapsed().as_secs_f64() + median(iterations) <= seconds
}

/// The smallest of `values` (0 when empty): the reported statistic of every
/// timing.  On a shared host, other tenants only ever add time to a session,
/// and over two sets of ten 25 s `table3` runs the fastest session spread 11%
/// and 6% where the median spread 13% and 29%.
fn fastest(values: &[f64]) -> f64 {
    quantile(values, 0.0)
}

/// The median of `values` (0 when empty).
fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values`, interpolating between the nearest ranks
/// (0 when empty).
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let rank = q * last as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The highest percentile with at least ten samples above it, as
/// `(percentile, value)`; `None` with fewer than eleven samples.
fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let index = sorted.len().checked_sub(11)?;
    Some((
        100.0 * (index + 1) as f64 / sorted.len() as f64,
        sorted[index],
    ))
}

/// Peak resident memory of this process (`VmHWM`), in MB; 0 where
/// `/proc/self/status` cannot be read.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
