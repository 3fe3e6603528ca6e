//! Golden end-to-end reproduction of the paper's running example (Figures 2
//! and 6): the expert's PDE-cache model is refuted by the microbenchmark
//! observation, and the refined model (early PDE-cache lookup + aborts) is
//! feasible for the same data.

use counterpoint::{
    compile_uop, deduce_constraints, BatchFeasibility, CounterSpace, Inquiry, ModelCone,
    Observation,
};

/// The expert's initial mental model: the walker is initialised before the PDE
/// cache is consulted, so every PDE-cache miss implies a walk.
const INITIAL_MODEL: &str = r#"
    incr load.causes_walk;
    do LookupPde$;
    switch Pde$Status { Hit => pass; Miss => incr load.pde$_miss };
    done;
"#;

/// The refinement of the paper's Figure 6c: the PDE cache is looked up before
/// the walk starts, and translation requests may abort in between.
const REFINED_MODEL: &str = r#"
    do LookupPde$;
    switch Pde$Status { Hit => pass; Miss => incr load.pde$_miss };
    switch Abort { Yes => done; No => incr load.causes_walk };
    done;
"#;

fn counters() -> CounterSpace {
    CounterSpace::new(&["load.causes_walk", "load.pde$_miss"])
}

fn cone(name: &str, source: &str) -> ModelCone {
    let space = counters();
    let model = compile_uop(name, source, &space).expect("model source compiles");
    ModelCone::from_mudd(&model).expect("μpath enumeration succeeds")
}

/// The observation of the paper's running example: the hardware reports more
/// PDE-cache misses than walks (1000 walks, 1400 misses).
fn microbenchmark() -> Observation {
    Observation::exact("microbenchmark", &[1_000.0, 1_400.0])
}

#[test]
fn initial_pde_cache_model_is_refuted_by_the_microbenchmark() {
    let cone = cone("initial", INITIAL_MODEL);
    let verdict = BatchFeasibility::new(&cone).verdict(&microbenchmark());
    assert!(verdict.is_refuted());
    assert!(verdict.certificate().is_some());
}

#[test]
fn initial_model_implies_misses_bounded_by_walks() {
    // The Table 1 style constraint behind the refutation: under the initial
    // model, `load.pde$_miss <= load.causes_walk` must be among the deduced
    // facets, and it is exactly the constraint the microbenchmark violates.
    let cone = cone("initial", INITIAL_MODEL);
    let constraints = deduce_constraints(&cone);
    let rendered: Vec<String> = constraints
        .all_named()
        .map(|c| c.text().to_string())
        .collect();
    assert!(
        rendered
            .iter()
            .any(|t| t.contains("load.pde$_miss") && t.contains("load.causes_walk")),
        "expected a pde$_miss / causes_walk facet, got: {rendered:?}"
    );

    let observation = microbenchmark();
    assert!(BatchFeasibility::new(&cone)
        .verdict(&observation)
        .is_refuted());
    assert!(
        !constraints.violated_by(observation.region()).is_empty(),
        "the refutation must name at least one violated constraint"
    );
}

#[test]
fn refined_model_is_feasible_for_the_same_observation() {
    let cone = cone("refined", REFINED_MODEL);
    assert!(BatchFeasibility::new(&cone)
        .verdict(&microbenchmark())
        .is_feasible());
}

#[test]
fn session_verdicts_carry_checkable_certificates() {
    // The whole running example as one `Inquiry` session.  Acceptance bar:
    // every `Refuted` verdict carries a non-empty Farkas certificate whose
    // inner product with the observation center is negative — checkable
    // evidence, not decoration.
    let report = Inquiry::new()
        .observations(vec![microbenchmark()])
        .model("initial", cone("initial", INITIAL_MODEL))
        .model("refined", cone("refined", REFINED_MODEL))
        .deduce_constraints(true)
        .run()
        .expect("the inquiry is fully wired");

    assert_eq!(report.feasible_models(), vec!["refined"]);
    let initial = report.model("initial").expect("initial was tested");
    assert_eq!(initial.infeasible_count, 1);
    for (verdict, observation) in initial.verdicts.iter().zip(&report.observations) {
        assert!(verdict.is_refuted());
        let certificate = verdict
            .farkas_certificate()
            .expect("every golden refutation must carry a certificate");
        assert!(!certificate.is_empty());
        let center_proj: f64 = certificate
            .iter()
            .zip(&observation.mean)
            .map(|(c, v)| c * v)
            .sum();
        assert!(
            center_proj < 0.0,
            "certificate must separate the observation center (got {center_proj})"
        );
        // And the refutation names the Table 1 constraint behind it.
        assert!(verdict
            .violated_constraints()
            .iter()
            .any(|t| t.contains("load.pde$_miss") && t.contains("load.causes_walk")));
    }
    // The feasible refined model carries a witness cone point instead.
    let refined = report.model("refined").expect("refined was tested");
    assert!(refined.verdicts[0].witness().is_some());

    // The golden session serializes deterministically and round-trips.
    let json = report.to_json();
    let parsed = counterpoint::Report::from_json(&json).expect("report must parse");
    assert_eq!(parsed.to_json(), json);
}

#[test]
fn refinement_strictly_relaxes_the_initial_model() {
    // Every observation feasible under the initial model stays feasible under
    // the refined one (the refinement only adds behaviours): spot-check the
    // lattice of small integer observations.  One warm engine per model
    // sweeps the grid, and each decision must match a fresh engine's.
    let initial = cone("initial", INITIAL_MODEL);
    let refined = cone("refined", REFINED_MODEL);
    let mut initial_engine = BatchFeasibility::new(&initial);
    let mut refined_engine = BatchFeasibility::new(&refined);
    let mut initial_feasible = 0usize;
    for walks in 0..8u32 {
        for misses in 0..8u32 {
            let obs = Observation::exact("grid", &[f64::from(walks), f64::from(misses)]);
            let in_initial = initial_engine.is_feasible(&obs);
            let in_refined = refined_engine.is_feasible(&obs);
            assert_eq!(
                in_initial,
                BatchFeasibility::new(&initial).verdict(&obs).is_feasible()
            );
            assert_eq!(
                in_refined,
                BatchFeasibility::new(&refined).verdict(&obs).is_feasible()
            );
            if in_initial {
                initial_feasible += 1;
                assert!(in_refined, "refinement must not refute ({walks}, {misses})");
            }
        }
    }
    assert!(
        initial_feasible > 0,
        "the grid must exercise the initial cone"
    );
}
