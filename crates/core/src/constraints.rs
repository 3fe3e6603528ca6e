//! Model-constraint deduction.
//!
//! The paper's Section 6 procedure: normalise and deduplicate μpath counter
//! signatures, find the equality constraints with Gaussian elimination, drop
//! signatures that lie in the cone's interior (they are redundant generators), and
//! compute the conic hull — the facet inequalities — with an exact geometric
//! algorithm.  The resulting equalities and inequalities are the *model
//! constraints* reported to the expert.

use crate::cone::ModelCone;
use counterpoint_geometry::{ConeConstraint, GeneratorCone};
use counterpoint_lp::Tableau;
use counterpoint_mudd::CounterSpace;
use counterpoint_numeric::RatVector;
use serde::Serialize;

/// A model constraint with its human-readable rendering over the model's counter
/// names (the form shown in the paper's Table 1).
#[derive(Clone, Debug, Serialize)]
pub struct NamedConstraint {
    #[serde(skip)]
    constraint: ConeConstraint,
    /// Rendered text, e.g. `load.ret_stlb_miss <= load.walk_done`.
    text: String,
    /// Number of HECs with a non-zero coefficient.
    involved_counters: usize,
    /// `true` for equality constraints.
    is_equality: bool,
}

impl NamedConstraint {
    fn new(constraint: ConeConstraint, counters: &CounterSpace) -> NamedConstraint {
        let names = counters.name_refs();
        let text = constraint.render(&names);
        NamedConstraint {
            involved_counters: constraint.involved_counters(),
            is_equality: matches!(
                constraint.sense(),
                counterpoint_geometry::ConstraintSense::Equality
            ),
            text,
            constraint,
        }
    }

    /// The underlying geometric constraint.
    pub fn constraint(&self) -> &ConeConstraint {
        &self.constraint
    }

    /// Human-readable rendering.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Number of HECs participating in the constraint.
    pub fn involved_counters(&self) -> usize {
        self.involved_counters
    }

    /// `true` if this is an equality constraint.
    pub fn is_equality(&self) -> bool {
        self.is_equality
    }
}

/// The full set of model constraints deduced from a model cone.
#[derive(Clone, Debug)]
pub struct ConstraintSet {
    model: String,
    counters: CounterSpace,
    equalities: Vec<NamedConstraint>,
    inequalities: Vec<NamedConstraint>,
}

impl ConstraintSet {
    /// The model the constraints were deduced from.
    pub fn model(&self) -> &str {
        &self.model
    }

    /// The counter space the constraints range over.
    pub fn counters(&self) -> &CounterSpace {
        &self.counters
    }

    /// The equality constraints.
    pub fn equalities(&self) -> &[NamedConstraint] {
        &self.equalities
    }

    /// The inequality (facet) constraints.
    pub fn inequalities(&self) -> &[NamedConstraint] {
        &self.inequalities
    }

    /// All constraints, equalities first.
    pub fn all_named(&self) -> impl Iterator<Item = &NamedConstraint> {
        self.equalities.iter().chain(self.inequalities.iter())
    }

    /// Total number of constraints (the quantity plotted in the paper's Figure 1b).
    pub fn len(&self) -> usize {
        self.equalities.len() + self.inequalities.len()
    }

    /// Returns `true` if there are no constraints.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders every constraint, one per line.
    pub fn render(&self) -> String {
        self.all_named()
            .map(NamedConstraint::text)
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// The constraints violated by a confidence region at its confidence
    /// level: a constraint `a·v ≥ 0` is violated when even the most favourable
    /// point of the region's bounding box has `a·v < 0`; an equality `a·v = 0`
    /// is violated when the box's projection onto `a` excludes zero.
    ///
    /// This is the refutation feedback of the paper's Figure 2 loop: the
    /// session layer attaches it to its `Refuted` verdicts, and a caller of
    /// [`BatchFeasibility::verdict`] applies it to a refuted observation's
    /// region.
    ///
    /// [`BatchFeasibility::verdict`]: crate::batch::BatchFeasibility::verdict
    pub fn violated_by(
        &self,
        region: &counterpoint_stats::ConfidenceRegion,
    ) -> Vec<&NamedConstraint> {
        let scale = region
            .center()
            .iter()
            .fold(1.0f64, |acc, v| acc.max(v.abs()));
        let tol = 1e-9 * scale;
        self.all_named()
            .filter(|named| {
                let coeffs: Vec<f64> = named
                    .constraint()
                    .coeffs()
                    .iter()
                    .map(|c| c.to_f64())
                    .collect();
                let (lo, hi) = region.interval_along(&coeffs);
                match named.constraint().sense() {
                    counterpoint_geometry::ConstraintSense::GreaterEqualZero => hi < -tol,
                    counterpoint_geometry::ConstraintSense::Equality => lo > tol || hi < -tol,
                }
            })
            .collect()
    }
}

/// Deduces the model constraints of a cone.
///
/// Generators expressible as non-negative combinations of the others are
/// dropped before the conic-hull computation — the paper's step 3, which keeps
/// the double-description method fast for models with many μpaths.
pub fn deduce_constraints(cone: &ModelCone) -> ConstraintSet {
    let generators = cone.generator_cone().generators().to_vec();
    let reduced = if generators.len() > 2 {
        remove_redundant_generators(&generators)
    } else {
        generators
    };
    let geometric = if reduced.is_empty() {
        GeneratorCone::zero(cone.dimension())
    } else {
        GeneratorCone::new(reduced)
    };
    let facets = geometric.facets();
    ConstraintSet {
        model: cone.name().to_string(),
        counters: cone.counters().clone(),
        equalities: facets
            .equalities
            .into_iter()
            .map(|c| NamedConstraint::new(c, cone.counters()))
            .collect(),
        inequalities: facets
            .inequalities
            .into_iter()
            .map(|c| NamedConstraint::new(c, cone.counters()))
            .collect(),
    }
}

/// Removes generators that are non-negative combinations of the remaining ones.
///
/// Uses an LP feasibility test per generator (the paper identifies interior
/// signatures with linear programming).  The surviving set generates the same
/// cone: a generator whose test does not converge is kept, and keeping a
/// redundant generator changes neither the cone nor its constraints.
pub fn remove_redundant_generators(generators: &[RatVector]) -> Vec<RatVector> {
    let mut keep: Vec<bool> = vec![true; generators.len()];
    for i in 0..generators.len() {
        let others: Vec<&RatVector> = generators
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i && keep[*j])
            .map(|(_, g)| g)
            .collect();
        if others.is_empty() {
            continue;
        }
        if in_cone_of(&generators[i], &others) {
            keep[i] = false;
        }
    }
    generators
        .iter()
        .zip(keep.iter())
        .filter(|(_, &k)| k)
        .map(|(g, _)| g.clone())
        .collect()
}

/// Is `target` a non-negative combination of `generators`?  Decided on the
/// cold band tableau as the system `target ≤ G·x ≤ target`, one band per
/// counter coordinate; a solve that does not converge answers `false`.
fn in_cone_of(target: &RatVector, generators: &[&RatVector]) -> bool {
    let bands: Vec<Vec<f64>> = (0..target.len())
        .map(|d| generators.iter().map(|g| g[d].to_f64()).collect())
        .collect();
    let point = target.to_f64_vec();
    Tableau::band(generators.len(), &bands)
        .resolve(&point, &point)
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use counterpoint_mudd::{dsl::compile_uop, CounterSignature};

    fn space3() -> CounterSpace {
        CounterSpace::new(&["load.causes_walk", "load.walk_done", "load.ret_stlb_miss"])
    }

    fn figure3a_cone() -> ModelCone {
        // μpaths: walk aborted / walk done but squashed / walk done and retired.
        let sigs = vec![
            CounterSignature::from_counts(vec![1, 0, 0]),
            CounterSignature::from_counts(vec![1, 1, 0]),
            CounterSignature::from_counts(vec![1, 1, 1]),
        ];
        ModelCone::from_signatures("fig3a", &space3(), sigs, 3)
    }

    #[test]
    fn figure3a_constraints_match_the_paper() {
        let set = deduce_constraints(&figure3a_cone());
        assert_eq!(set.model(), "fig3a");
        assert_eq!(set.equalities().len(), 0);
        assert_eq!(set.inequalities().len(), 3);
        let texts: Vec<&str> = set.all_named().map(NamedConstraint::text).collect();
        assert!(texts.contains(&"load.ret_stlb_miss <= load.walk_done"));
        assert!(texts.contains(&"load.walk_done <= load.causes_walk"));
        assert!(texts.contains(&"0 <= load.ret_stlb_miss"));
    }

    #[test]
    fn equality_constraints_surface_counter_identities() {
        // stlb_hit = stlb_hit_4k + stlb_hit_2m (footnote 8 of the paper).
        let space = CounterSpace::new(&["load.stlb_hit", "load.stlb_hit_4k", "load.stlb_hit_2m"]);
        let sigs = vec![
            CounterSignature::from_counts(vec![1, 1, 0]),
            CounterSignature::from_counts(vec![1, 0, 1]),
        ];
        let cone = ModelCone::from_signatures("stlb", &space, sigs, 2);
        let set = deduce_constraints(&cone);
        assert_eq!(set.equalities().len(), 1);
        // Either orientation of the identity is acceptable.
        let text = set.equalities()[0].text();
        assert!(
            text == "load.stlb_hit_4k + load.stlb_hit_2m = load.stlb_hit"
                || text == "load.stlb_hit = load.stlb_hit_4k + load.stlb_hit_2m",
            "unexpected rendering: {text}"
        );
        assert!(set.equalities()[0].is_equality());
        assert_eq!(set.equalities()[0].involved_counters(), 3);
    }

    #[test]
    fn redundant_generator_removal_preserves_the_cone() {
        let gens = vec![
            RatVector::from_i64(&[1, 0]),
            RatVector::from_i64(&[0, 1]),
            RatVector::from_i64(&[1, 1]), // interior direction: redundant
            RatVector::from_i64(&[2, 3]), // interior direction: redundant
        ];
        let reduced = remove_redundant_generators(&gens);
        assert_eq!(reduced.len(), 2);
        assert!(reduced.contains(&RatVector::from_i64(&[1, 0])));
        assert!(reduced.contains(&RatVector::from_i64(&[0, 1])));
    }

    #[test]
    fn redundancy_removal_keeps_extreme_rays() {
        let gens = vec![
            RatVector::from_i64(&[1, 0, 0]),
            RatVector::from_i64(&[1, 1, 0]),
            RatVector::from_i64(&[1, 1, 1]),
        ];
        let reduced = remove_redundant_generators(&gens);
        assert_eq!(reduced.len(), 3);
    }

    #[test]
    fn constraint_deduction_with_and_without_reduction_agree() {
        let cone = figure3a_cone();
        let reduced = deduce_constraints(&cone);
        let all = GeneratorCone::new(cone.generator_cone().generators().to_vec()).facets();
        let names = cone.counters().name_refs();
        let mut ta: Vec<String> = reduced.all_named().map(|c| c.text().to_string()).collect();
        let mut tb: Vec<String> = all.all().iter().map(|c| c.render(&names)).collect();
        ta.sort();
        tb.sort();
        assert_eq!(ta, tb);
    }

    #[test]
    fn dsl_model_constraints() {
        let space = CounterSpace::new(&["load.causes_walk", "load.pde$_miss"]);
        let mudd = compile_uop(
            "fig6a",
            r#"
            incr load.causes_walk;
            switch Pde$Status { Hit => pass; Miss => incr load.pde$_miss };
            done;
            "#,
            &space,
        )
        .unwrap();
        let cone = ModelCone::from_mudd(&mudd).unwrap();
        let set = deduce_constraints(&cone);
        let texts: Vec<&str> = set.all_named().map(NamedConstraint::text).collect();
        // Constraint C of Figure 6b.
        assert!(texts.contains(&"load.pde$_miss <= load.causes_walk"));
        assert!(!set.is_empty());
        assert!(set.render().contains("load.pde$_miss"));
    }

    #[test]
    fn zero_cone_constraints_pin_every_counter() {
        let space = CounterSpace::new(&["a", "b"]);
        let cone = ModelCone::from_signatures("zero", &space, vec![CounterSignature::zero(2)], 1);
        let set = deduce_constraints(&cone);
        assert_eq!(set.equalities().len(), 2);
        assert!(set.inequalities().is_empty());
    }
}
