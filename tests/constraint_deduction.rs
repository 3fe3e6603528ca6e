//! Integration tests for constraint deduction on the case-study models: the
//! deduced constraints must include the paper's Table 1 relationships and must
//! agree with LP feasibility on which observations they reject.

use counterpoint::core::constraints::remove_redundant_generators;
use counterpoint::haswell::full_counter_space;
use counterpoint::haswell::hec::cumulative_group_space;
use counterpoint::models::family::{build_feature_model, feature_sets_table3};
use counterpoint::numeric::{RatMatrix, RatVector};
use counterpoint::{deduce_constraints, BatchFeasibility, Observation};
use counterpoint_geometry::{ConeFacets, ConstraintSense, GeneratorCone};

fn model(name: &str) -> counterpoint::ModelCone {
    let specs = feature_sets_table3();
    let (_, features) = specs.into_iter().find(|(n, _)| n == name).unwrap();
    build_feature_model(name, &features)
}

#[test]
fn projected_m0_implies_table1_constraint_1() {
    // Constraint (1): load.ret_stlb_miss <= load.walk_done must be implied by every
    // model without walk merging.  Rather than matching the rendered facet text
    // (the deduction is free to express the same polyhedron with different facet
    // bases), check the semantic content: a point violating the constraint must be
    // rejected and a point satisfying it (and the rest of the model) accepted.
    let counters = [
        "load.ret",
        "load.ret_stlb_miss",
        "load.causes_walk",
        "load.walk_done",
        "load.walk_done_4k",
        "load.walk_done_2m",
        "load.walk_done_1g",
        "load.pde$_miss",
    ];
    // m1 includes prefetching (extra walks allowed) but no merging, so constraint
    // (1) is a proper inequality rather than an equality.
    let m1 = model("m1").project(&counters);
    let constraints = deduce_constraints(&m1);
    assert!(!constraints.is_empty());

    // ret=1000, miss=120, causes=100, done=100 (4k), pde=40: violates (1).
    let violating =
        counterpoint_numeric::RatVector::from_i64(&[1000, 120, 100, 100, 100, 0, 0, 40]);
    assert!(constraints
        .all_named()
        .any(|c| !c.constraint().is_satisfied_by(&violating)));

    // Same profile with miss=80 <= done=100 satisfies the model.
    let satisfying =
        counterpoint_numeric::RatVector::from_i64(&[1000, 80, 100, 100, 100, 0, 0, 40]);
    assert!(constraints
        .all_named()
        .all(|c| c.constraint().is_satisfied_by(&satisfying)));

    // The introduction's PDE-cache sanity check: pde$_miss <= causes_walk is also
    // implied (violating point rejected).
    let pde_violation =
        counterpoint_numeric::RatVector::from_i64(&[1000, 80, 100, 100, 100, 0, 0, 140]);
    assert!(constraints
        .all_named()
        .any(|c| !c.constraint().is_satisfied_by(&pde_violation)));
}

#[test]
fn feature_complete_model_drops_the_violated_constraints() {
    // With merging and early PSC lookup, neither introduction constraint is implied
    // any more.
    let m4 = model("m4").project(&[
        "load.ret",
        "load.ret_stlb_miss",
        "load.causes_walk",
        "load.walk_done",
        "load.walk_done_4k",
        "load.walk_done_2m",
        "load.walk_done_1g",
        "load.pde$_miss",
    ]);
    let constraints = deduce_constraints(&m4);
    let texts: Vec<String> = constraints
        .all_named()
        .map(|c| c.text().to_string())
        .collect();
    assert!(!texts
        .iter()
        .any(|t| t == "load.ret_stlb_miss <= load.walk_done"));
    assert!(!texts
        .iter()
        .any(|t| t == "load.pde$_miss <= load.causes_walk"));
}

#[test]
fn constraint_count_grows_with_counter_groups() {
    // Figure 1b: the number of model constraints grows as counter groups are added.
    let m0_full = model("m0");
    let mut previous = 0usize;
    for groups in 1..=3usize {
        let space = cumulative_group_space(groups);
        let projected = m0_full.project(space.names());
        let count = deduce_constraints(&projected).len();
        assert!(
            count >= previous,
            "constraint count should not shrink when counters are added ({previous} -> {count})"
        );
        previous = count;
    }
    assert!(
        previous >= 10,
        "three groups should imply a double-digit constraint count"
    );
}

#[test]
fn violated_constraints_explain_lp_infeasibility() {
    // For an infeasible observation, at least one deduced constraint must be
    // violated, and for a feasible one, none may be.
    let space_names = [
        "load.ret",
        "load.ret_stlb_miss",
        "load.causes_walk",
        "load.walk_done",
        "load.walk_done_4k",
        "load.walk_done_2m",
        "load.walk_done_1g",
        "load.pde$_miss",
    ];
    let m0 = model("m0").project(&space_names);
    let constraints = deduce_constraints(&m0);
    let mut engine = BatchFeasibility::new(&m0);

    // Infeasible: more PDE misses than walks.
    let bad = Observation::exact("bad", &[1000.0, 100.0, 50.0, 50.0, 50.0, 0.0, 0.0, 80.0]);
    assert!(engine.verdict(&bad).is_refuted());
    let violated = constraints.violated_by(bad.region());
    assert!(!violated.is_empty());
    // The reported violations must point at the counters responsible for the
    // inconsistency (PDE misses exceeding walks / misses not matching walks).
    assert!(violated
        .iter()
        .any(|c| c.text().contains("load.pde$_miss") || c.text().contains("load.ret_stlb_miss")));

    // Feasible: a conventional profile.
    let good = Observation::exact(
        "good",
        &[1000.0, 100.0, 100.0, 100.0, 100.0, 0.0, 0.0, 40.0],
    );
    assert!(engine.verdict(&good).is_feasible());
    assert!(constraints.violated_by(good.region()).is_empty());
}

#[test]
fn equalities_capture_counter_identities() {
    // stlb_hit = stlb_hit_4k + stlb_hit_2m must appear as an equality once the STLB
    // group is included.
    let m4 = model("m4").project(&[
        "load.stlb_hit",
        "load.stlb_hit_4k",
        "load.stlb_hit_2m",
        "load.ret",
    ]);
    let constraints = deduce_constraints(&m4);
    assert!(constraints
        .all_named()
        .any(|c| c.is_equality() && c.involved_counters() == 3));
}

#[test]
fn full_model_constraint_deduction_is_consistent_with_generators() {
    // Every generator of the cone satisfies every deduced constraint (on a
    // projected space to keep the hull computation fast).
    let projected = model("m4").project(cumulative_group_space(2).names());
    let constraints = deduce_constraints(&projected);
    assert!(!constraints.is_empty());
    for sig in projected.signatures() {
        let v = sig.to_rat_vector();
        for c in constraints.all_named() {
            assert!(
                c.constraint().is_satisfied_by(&v),
                "generator {:?} violates {}",
                sig,
                c.text()
            );
        }
    }
    // Count inequality vs equality split is sensible.
    let eqs = constraints.all_named().filter(|c| c.is_equality()).count();
    let ineqs = constraints
        .all_named()
        .filter(|c| matches!(c.constraint().sense(), ConstraintSense::GreaterEqualZero))
        .count();
    assert_eq!(eqs + ineqs, constraints.len());
}

#[test]
fn full_26_counter_space_has_the_documented_structure() {
    let space = full_counter_space();
    assert_eq!(space.len(), 26);
    let m4 = model("m4");
    assert_eq!(m4.dimension(), 26);
    assert!(m4.num_paths() > 100);
}

/// m0–m11 projected onto the first 2 and 3 cumulative counter groups (10 and
/// 22 counters), the cones the redundancy oracle and the golden cover.
fn projected_family() -> Vec<(String, counterpoint::ModelCone)> {
    let mut cones = Vec::new();
    for groups in [2usize, 3] {
        let space = cumulative_group_space(groups);
        for i in 0..12 {
            let name = format!("m{i}");
            let cone = model(&name).project(space.names());
            cones.push((format!("{name} @ {} counters", space.len()), cone));
        }
    }
    cones
}

/// `true` iff `g` spans an extreme ray of the cone `{x : E·x = 0, F·x ≥ 0}`:
/// the equalities and the facet normals tight on `g` have rank `d − 1`.
fn is_extreme(g: &RatVector, facets: &ConeFacets, dim: usize) -> bool {
    if g.is_zero() {
        return false;
    }
    let tight: Vec<RatVector> = facets
        .equalities
        .iter()
        .map(|c| c.coeffs().clone())
        .chain(
            facets
                .inequalities
                .iter()
                .filter(|c| c.evaluate(g).is_zero())
                .map(|c| c.coeffs().clone()),
        )
        .collect();
    let rank = if tight.is_empty() {
        0
    } else {
        RatMatrix::from_rows(&tight).rank()
    };
    rank + 1 == dim
}

#[test]
fn redundancy_removal_keeps_exactly_the_extreme_rays() {
    // The float membership LPs must drop exactly the generators that an exact
    // rank test on the cone's own facets calls non-extreme.
    for (label, cone) in projected_family() {
        let generators = cone.generator_cone().generators().to_vec();
        let facets = GeneratorCone::new(generators.clone()).facets();
        let extreme: Vec<RatVector> = generators
            .iter()
            .filter(|g| is_extreme(g, &facets, cone.dimension()))
            .cloned()
            .collect();
        assert_eq!(
            remove_redundant_generators(&generators),
            extreme,
            "{label}: kept generators differ from the extreme rays"
        );
    }
}

#[test]
fn redundancy_removal_drops_zero_and_keeps_the_last_parallel_copy() {
    let gens: Vec<RatVector> = [[0, 0], [1, 0], [1, 1], [2, 0], [0, 1], [2, 2]]
        .iter()
        .map(|g| RatVector::from_i64(g))
        .collect();
    let kept = remove_redundant_generators(&gens);
    assert_eq!(
        kept,
        vec![RatVector::from_i64(&[2, 0]), RatVector::from_i64(&[0, 1])]
    );
    let facets = GeneratorCone::new(gens).facets();
    assert!(kept.iter().all(|g| is_extreme(g, &facets, 2)));
}

/// The checked-in rendering of every deduced constraint, in engine order.
const DEDUCED_GOLDEN: &str = include_str!("golden/deduced_constraints.txt");

#[test]
fn deduced_constraints_match_the_golden() {
    // Regenerate with `GOLDEN_REGEN=1 cargo test --test constraint_deduction
    // deduced_constraints_match_the_golden -- --nocapture`.
    let mut rendered = String::new();
    for (label, cone) in projected_family() {
        rendered.push_str(&format!(
            "# {label}\n{}\n",
            deduce_constraints(&cone).render()
        ));
    }
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        print!("{rendered}");
    }
    assert_eq!(
        rendered, DEDUCED_GOLDEN,
        "deduced constraints moved; if intentional, regenerate \
         tests/golden/deduced_constraints.txt"
    );
}
