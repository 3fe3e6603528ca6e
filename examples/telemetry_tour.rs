//! A tour of the telemetry layer: run a reduced Table 3 model search with a
//! live recording and read the engine's internals off the metrics snapshot —
//! certificate-pool hit rates, tier-2 escalations, LP pivot effort and the
//! multiplexing-schedule warnings.
//!
//! Run with: `cargo run --release --example telemetry_tour`

use counterpoint::models::family::{build_feature_model, feature_sets_table3};
use counterpoint::models::harness::{case_study_campaign, HarnessConfig};
use counterpoint::telemetry::{Histogram, Metric};
use counterpoint::{ExplorationModel, Inquiry};

fn main() {
    // Reduced-scale Table 3: the full feature-model family over the quick
    // case-study campaign, so the example finishes in CI time.
    let mut config = HarnessConfig::quick();
    config.accesses_per_workload = 20_000;
    let campaign = case_study_campaign(&config);
    let models: Vec<ExplorationModel> = feature_sets_table3()
        .into_iter()
        .map(|(name, features)| {
            let cone = build_feature_model(&name, &features);
            ExplorationModel::new(&name, features, cone)
        })
        .collect();

    println!("running the Table 3 model search with telemetry enabled ...");
    let report = Inquiry::new()
        .sim_campaign(campaign, config.mmu.clone(), config.pmu.clone())
        .models(models)
        .telemetry(true)
        .run()
        .expect("the simulated campaign cannot fail");
    println!(
        "  {} observations, {} models, feasible: {:?}",
        report.observations.len(),
        report.models.len(),
        report.feasible_models()
    );

    let snapshot = report
        .telemetry
        .as_ref()
        .expect("this process owns the telemetry sink");
    let counter = |m: Metric| snapshot.counter(m);
    let rate = |hits: u64, total: u64| {
        if total == 0 {
            0.0
        } else {
            100.0 * hits as f64 / total as f64
        }
    };

    // The certificate pool (the paper's Table 3 engine): how many feasibility
    // decisions short-circuited on a reusable Farkas certificate or witness
    // ray instead of solving an LP.
    let prunes = counter(Metric::CertificatePrunes);
    let witnessed = counter(Metric::WitnessRaySettlements);
    let solves = counter(Metric::LpSolves);
    let decisions = prunes + witnessed + solves;
    println!("\ncertificate pool:");
    println!(
        "  {:>8} decisions   {:>8} certificate prunes ({:.1}%)",
        decisions,
        prunes,
        rate(prunes, decisions)
    );
    println!(
        "  {:>8} witness-ray settlements ({:.1}%)   {:>8} LP solves ({:.1}%)",
        witnessed,
        rate(witnessed, decisions),
        solves,
        rate(solves, decisions)
    );

    let cache_hits = counter(Metric::CoefficientCacheHits);
    let cache_misses = counter(Metric::CoefficientCacheMisses);
    println!(
        "  coefficient cache: {} hits / {} misses ({:.1}% hit rate)",
        cache_hits,
        cache_misses,
        rate(cache_hits, cache_hits + cache_misses)
    );
    println!(
        "  tier-2 escalations: {}, cold-solver fallbacks: {}",
        counter(Metric::LpTier2Escalations),
        counter(Metric::ColdSolverFallbacks)
    );

    let pivots = snapshot.histogram(Histogram::LpPivotsPerSolve);
    println!("\nLP effort:");
    println!(
        "  {} pivots across {} solves (mean {:.1}), {} refactorizations",
        pivots.sum,
        pivots.count,
        pivots.sum as f64 / pivots.count.max(1) as f64,
        counter(Metric::LpRefactorizations)
    );
    println!("  pivots-per-solve histogram (log2 buckets):");
    for (bits, n) in &pivots.buckets {
        let lo = if *bits == 0 { 0 } else { 1u64 << (bits - 1) };
        let hi = (1u64 << bits) - 1;
        println!("    [{lo:>4} .. {hi:>4}]: {n}");
    }

    println!("\ncollection campaign:");
    println!(
        "  {} cells, {} multiplexing rounds, {} oversubscribed events",
        counter(Metric::CampaignCells),
        counter(Metric::ScheduleRounds),
        counter(Metric::ScheduleOversubscribedEvents)
    );
    for warning in &snapshot.warnings {
        println!(
            "  warning [{}] x{}: {}",
            warning.kind, warning.count, warning.message
        );
    }

    println!(
        "\n(Full dumps: rerun any experiment with `--telemetry <prefix>` — \
         `cargo run --release -p counterpoint-bench --bin experiments -- table3 --quick \
         --telemetry t3` — and load `t3.trace.json` at https://ui.perfetto.dev.)"
    );
}
