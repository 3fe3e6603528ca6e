//! Integration tests for guided model exploration over the Haswell feature
//! lattice (the paper's Section 5 / Appendix C.1 search, at reduced scale).

use counterpoint::models::family::{build_feature_model, feature_sets_table3};
use counterpoint::models::harness::{case_study_campaign, HarnessConfig};
use counterpoint::models::Feature;
use counterpoint::{ExplorationModel, FeatureSet, Inquiry, LatticeSearch, Report};

fn observations() -> Vec<counterpoint::Observation> {
    let mut config = HarnessConfig::quick();
    config.accesses_per_workload = 30_000;
    case_study_campaign(&config).run_sim(&config.mmu, &config.pmu)
}

/// Runs the Table 3 model family against the reduced case-study observations
/// through the session layer.
fn table3_report() -> Report {
    let models: Vec<ExplorationModel> = feature_sets_table3()
        .into_iter()
        .map(|(name, features)| {
            let cone = build_feature_model(&name, &features);
            ExplorationModel::new(&name, features, cone)
        })
        .collect();
    Inquiry::new()
        .observations(observations())
        .models(models)
        .run()
        .expect("the inquiry is fully wired")
}

#[test]
fn table3_evaluation_reproduces_the_qualitative_ranking() {
    let report = table3_report();
    let count = |name: &str| report.model(name).map(|m| m.infeasible_count).unwrap();

    // The feature-complete model and its PML4E-free sibling explain everything.
    assert_eq!(count("m4"), 0);
    assert_eq!(count("m8"), 0);
    // The conventional-wisdom model is the worst or tied-worst.
    let worst = report
        .models
        .iter()
        .map(|m| m.infeasible_count)
        .max()
        .unwrap();
    assert_eq!(count("m0"), worst);
    assert!(worst > 0);
    // Dropping merging or early PSC lookup from the full model reintroduces
    // violations.
    assert!(count("m6") > 0, "m6 (no early PSC) should be refuted");
    assert!(count("m7") > 0, "m7 (no merging) should be refuted");
    // Dropping walk bypassing reintroduces violations.
    assert!(count("m3") > 0, "m3 (no walk bypass) should be refuted");
}

#[test]
fn essential_features_match_the_papers_conclusions() {
    let report = table3_report();
    let essential = report
        .essential_features
        .clone()
        .expect("at least one feasible model");
    // Every feasible Table 3 model includes early PSC lookup, merging, prefetching
    // and walk bypassing; the PML4E cache is not essential (m8 lacks it).
    for feature in [
        Feature::EarlyPsc,
        Feature::Merging,
        Feature::TlbPrefetch,
        Feature::WalkBypass,
    ] {
        assert!(
            essential.contains(&feature.name().to_string()),
            "{feature} should be essential, got {essential:?}"
        );
    }
    assert!(!essential.contains(&Feature::Pml4eCache.name().to_string()));
}

#[test]
fn guided_search_discovers_a_feasible_model_from_scratch() {
    let observations = observations();
    let feature_names: Vec<&str> = Feature::ALL.iter().map(|f| f.name()).collect();
    let search = LatticeSearch::new(
        |features: &FeatureSet| build_feature_model("candidate", features),
        &feature_names,
    );
    let graph = search.run(&FeatureSet::new(), &observations);

    assert!(
        !graph.steps[0].feasible,
        "the empty model must start infeasible"
    );
    assert!(
        graph.steps.iter().any(|s| s.feasible),
        "discovery must reach a feasible model"
    );
    assert!(!graph.minimal_feasible.is_empty());
    // The discovery chain is connected: every non-initial discovery step has an
    // incoming edge.
    for (idx, step) in graph.steps.iter().enumerate().skip(1) {
        if matches!(
            step.phase,
            counterpoint::core::explore::SearchPhase::Discovery
        ) {
            assert!(graph.edges.iter().any(|e| e.to == idx));
        }
    }
    // Whatever minimal feasible sets the search finds must themselves be feasible
    // when rebuilt and re-evaluated.
    for set in &graph.minimal_feasible {
        let features: FeatureSet = set.iter().cloned().collect();
        let cone = build_feature_model("minimal", &features);
        let infeasible =
            counterpoint::FeasibilityChecker::new(&cone).count_infeasible(&observations);
        assert_eq!(infeasible, 0, "minimal set {set:?} must be feasible");
    }
}
