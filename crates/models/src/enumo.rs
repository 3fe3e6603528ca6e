//! Grammar-driven enumeration of candidate model families.
//!
//! The hand-written families (`m0`–`m11`, `t0`–`t17`, `a0`–`a3`) cover the
//! paper's tables, but they are twelve-plus-some fixed points in a much larger
//! structural space: any feature subset may be combined with any prefetch
//! trigger condition and any set of abort points.  This module enumerates that
//! space with the [`counterpoint_mudd::grammar`] term grammar — a recursive
//! feature-list production, a trigger-choice production and an abort-list
//! production, expanded by metric-bounded `plug` iteration — and collapses the
//! raw candidates to a canonical [`ModelFamily`]:
//!
//! 1. **Interpretation**: a raw candidate is one closed term of each
//!    production, read as a [`ModelSpec`] (feature subset, optional trigger
//!    condition, abort-point set).  A spec reads its lists only as sets, so
//!    the raw cross product is counted, not built: each list production's
//!    distinct sets are crossed instead.
//! 2. **Canonicalization**: features and abort points are sorted and deduped;
//!    a trigger condition is dropped unless the spec prefetches at all; abort
//!    points are dropped when walk bypassing subsumes them.  Symmetric terms
//!    (`(a b)` vs `(b a)`, duplicated atoms) therefore collapse to one spec,
//!    and the surviving specs are ordered by their canonical signature — the
//!    result is a pure function of the grammar's *language*, not of the order
//!    its productions were written in.
//! 3. **Structural dedup**: no cone is built.  Each spec resolves to its μDD
//!    inputs, and its structure is the sorted union of those μDDs' cached,
//!    deduplicated path signatures — the signature set its cone would have.
//!    Specs with equal structures are collapsed, and specs with equal inputs
//!    are decided once.  A spec with a μDD over the path budget is skipped
//!    and counted, never a panic.  Members' cones are built later, on
//!    demand, from the same cached signatures.
//!
//! The canonical members are grouped by *assumption signature* (trigger +
//! abort points); each [`FamilyGroup`] spans a feature sub-lattice and plugs
//! directly into a [`LatticeSearch`](counterpoint_core::LatticeSearch) via
//! [`FamilyGroup::generator`], with cross-group certificate sharing keyed by
//! the group signature (see `counterpoint_core::CertificatePool`).

use crate::aborts::AbortPoint;
use crate::family::{
    assemble_cone, mudd_inputs, mudd_paths, trigger_specs_table5, MuddInput, MuddPaths,
};
use crate::features::{to_feature_set, Feature};
use crate::prefetch::TriggerSpec;
use counterpoint_core::{FeatureSet, ModelCone};
use counterpoint_mudd::grammar::{Term, Workload};
use counterpoint_mudd::MuDdError;
use counterpoint_telemetry as telemetry;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The atom spelled by the trigger production when a model has no concrete
/// trigger condition (abstract prefetching, or no prefetching at all).
const NO_TRIGGER: &str = "none";

/// The term grammar a model family is enumerated from: which features the
/// feature-list production ranges over, which trigger conditions the trigger
/// production offers, and which abort points the abort-list production draws
/// from.  The *order* of each list only affects raw-candidate order — the
/// canonicalization pass makes the enumerated family order-independent.
#[derive(Clone, Debug)]
pub struct ModelGrammar {
    features: Vec<Feature>,
    triggers: Vec<(String, TriggerSpec)>,
    abort_points: Vec<AbortPoint>,
}

impl ModelGrammar {
    /// The full case-study grammar: all five Table-4 features, the eighteen
    /// Table-5 trigger conditions (plus "no trigger"), and all four Table-7
    /// abort points.
    pub fn case_study() -> ModelGrammar {
        ModelGrammar {
            features: Feature::ALL.to_vec(),
            triggers: trigger_specs_table5(),
            abort_points: AbortPoint::ALL.to_vec(),
        }
    }

    /// Replaces the feature production's alternatives (duplicates are kept —
    /// canonicalization absorbs them).
    pub fn with_features(mut self, features: Vec<Feature>) -> ModelGrammar {
        self.features = features;
        self
    }

    /// Replaces the trigger production's alternatives.
    pub fn with_triggers(mut self, triggers: Vec<(String, TriggerSpec)>) -> ModelGrammar {
        self.triggers = triggers;
        self
    }

    /// Replaces the abort-list production's alternatives.
    pub fn with_abort_points(mut self, points: Vec<AbortPoint>) -> ModelGrammar {
        self.abort_points = points;
        self
    }
}

/// Metric bounds on the enumeration.
#[derive(Clone, Copy, Debug)]
pub struct EnumOptions {
    /// Rounds of the recursive list productions — bounds feature-list and
    /// abort-list length.
    pub max_depth: usize,
    /// Cap on canonical family members (applied in canonical signature
    /// order, before the structural pass).
    pub max_models: usize,
    /// Specs with more features are dropped during interpretation.
    pub max_features: usize,
    /// μpath budget per candidate μDD; a candidate exceeding it is skipped
    /// and counted in [`ModelFamily::skipped_path_limit`].  `None` keeps the
    /// diagrams' default limit.
    pub max_paths: Option<usize>,
}

impl Default for EnumOptions {
    fn default() -> EnumOptions {
        EnumOptions {
            max_depth: 2,
            max_models: 256,
            max_features: Feature::ALL.len(),
            max_paths: None,
        }
    }
}

/// A canonical model specification: the interpretation of one closed grammar
/// term, after canonicalization.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct ModelSpec {
    /// Features, sorted in Table-3 column order, deduplicated.
    pub features: Vec<Feature>,
    /// The concrete prefetch trigger condition (name and spec), or `None`
    /// for abstract prefetching.  Always `None` when the spec does not
    /// include [`Feature::TlbPrefetch`].
    pub trigger: Option<(String, TriggerSpec)>,
    /// Abort points, sorted in Table-7 column order, deduplicated.  Always
    /// empty when the spec includes [`Feature::WalkBypass`] (bypassing
    /// subsumes aborting as an explanation for reference-free walks).
    pub aborts: Vec<AbortPoint>,
}

impl ModelSpec {
    /// Canonicalizes raw parts into a spec: sorts and dedups the features
    /// and abort points, drops a trigger without prefetching, drops aborts
    /// under walk bypassing.
    pub fn new(
        features: &[Feature],
        trigger: Option<(String, TriggerSpec)>,
        aborts: &[AbortPoint],
    ) -> ModelSpec {
        let features: Vec<Feature> = features
            .iter()
            .copied()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let prefetches = features.contains(&Feature::TlbPrefetch);
        let bypasses = features.contains(&Feature::WalkBypass);
        ModelSpec {
            trigger: if prefetches { trigger } else { None },
            aborts: if bypasses {
                Vec::new()
            } else {
                aborts
                    .iter()
                    .copied()
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect()
            },
            features,
        }
    }

    /// The canonical signature: equal specs — and only equal specs — render
    /// equally, and the rendering is stable across grammar input orderings.
    pub fn signature(&self) -> String {
        format!(
            "f:{}|{}",
            self.feature_signature(),
            self.assumption_signature()
        )
    }

    /// The feature half of the signature (sorted feature names).
    pub fn feature_signature(&self) -> String {
        self.features
            .iter()
            .map(|f| f.name())
            .collect::<Vec<_>>()
            .join("+")
    }

    /// The non-feature half of the signature: trigger and abort assumptions.
    /// Specs sharing it differ only in their feature sets, and form one
    /// [`FamilyGroup`].
    pub fn assumption_signature(&self) -> String {
        let trigger = self
            .trigger
            .as_ref()
            .map_or(NO_TRIGGER, |(name, _)| name.as_str());
        let aborts = self
            .aborts
            .iter()
            .map(|a| a.label())
            .collect::<Vec<_>>()
            .join("+");
        format!("t:{trigger}|a:{aborts}")
    }

    /// The spec's features as a [`FeatureSet`].
    pub fn feature_set(&self) -> FeatureSet {
        to_feature_set(&self.features)
    }
}

/// One canonical member of an enumerated family.
#[derive(Clone, Debug, Serialize)]
pub struct EnumeratedModel {
    /// Stable name in canonical order: `e0`, `e1`, ...
    pub name: String,
    /// The member's canonical specification.
    pub spec: ModelSpec,
}

/// The members of one assumption group: specs sharing a trigger condition and
/// abort-point set, differing only in their feature subsets.  A group spans a
/// feature sub-lattice, so it plugs directly into a lattice search.
#[derive(Clone, Debug, Serialize)]
pub struct FamilyGroup {
    /// The shared [`ModelSpec::assumption_signature`].
    pub signature: String,
    /// The shared trigger condition.
    pub trigger: Option<(String, TriggerSpec)>,
    /// The shared abort points.
    pub aborts: Vec<AbortPoint>,
    /// Member names, in canonical order.
    pub members: Vec<String>,
    /// Union of the members' features, sorted — the group's search universe.
    pub universe: Vec<Feature>,
}

impl FamilyGroup {
    /// The group's search universe as feature-name strings.
    pub fn universe_names(&self) -> Vec<String> {
        self.universe.iter().map(|f| f.name().to_string()).collect()
    }

    /// The group's maximal feature set (the search's starting point).
    pub fn initial(&self) -> FeatureSet {
        to_feature_set(&self.universe)
    }

    /// A lattice-search generator under this group's assumptions: maps a
    /// feature set to the corresponding model cone.  Pure in the feature set
    /// (the trigger is dropped without prefetching, aborts under bypassing —
    /// the same canonicalization the enumeration applied), so search graphs
    /// built from it are deterministic.
    pub fn generator(&self) -> impl Fn(&FeatureSet) -> ModelCone + Sync + 'static {
        let trigger = self.trigger.clone();
        let aborts = self.aborts.clone();
        let signature = self.signature.clone();
        move |features: &FeatureSet| {
            let features: Vec<Feature> = features
                .iter()
                .filter_map(|name| Feature::from_name(name))
                .collect();
            let spec = ModelSpec::new(&features, trigger.clone(), &aborts);
            let name = format!("{}|f:{}", signature, spec.feature_signature());
            build_enumerated_model(&name, &spec)
        }
    }
}

/// A canonical, deterministically ordered family of enumerated models, with
/// the enumeration's accounting.
#[derive(Clone, Debug, Serialize)]
pub struct ModelFamily {
    /// Canonical members, ordered by [`ModelSpec::signature`].
    pub members: Vec<EnumeratedModel>,
    /// Members grouped by assumption signature, groups in signature order.
    pub groups: Vec<FamilyGroup>,
    /// Closed terms the grammar produced before canonicalization.
    pub raw_candidates: usize,
    /// Distinct canonical specs (before the member cap and structural dedup).
    pub canonical_candidates: usize,
    /// Candidates skipped because their μDDs exceeded the path budget.
    pub skipped_path_limit: usize,
    /// Candidates dropped because an earlier member's cone has the same
    /// signature set (compared without building either cone).
    pub structural_duplicates: usize,
}

impl ModelFamily {
    /// Number of canonical members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` when no candidate survived.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// Builds the model cone of an enumerated spec, or reports the first μDD
/// error (path explosion under `max_paths`) instead of aborting.
///
/// # Errors
///
/// Returns the first [`MuDdError`] hit while enumerating the model's μpaths.
pub fn try_build_enumerated_model(
    name: &str,
    spec: &ModelSpec,
    max_paths: Option<usize>,
) -> Result<ModelCone, MuDdError> {
    assemble_cone(name, &spec_mudd_inputs(spec), max_paths)
}

/// The μDD inputs of an enumerated spec (see [`mudd_inputs`]).
fn spec_mudd_inputs(spec: &ModelSpec) -> Vec<MuddInput> {
    let trigger = spec.trigger.as_ref().map(|(_, t)| t);
    mudd_inputs(&spec.feature_set(), trigger, &spec.aborts)
}

/// The structure expansion compares specs by: the sorted union of their
/// μDDs' distinct path signatures, which is the sorted signature set of
/// their cone.  `None` when a diagram has more than `max_paths` μpaths.
fn cone_structure(inputs: &[MuddInput], max_paths: Option<usize>) -> Option<Vec<Vec<u32>>> {
    let parts: Vec<Arc<MuddPaths>> = inputs
        .iter()
        .map(|input| mudd_paths(input, max_paths))
        .collect::<Result<_, _>>()
        .ok()?;
    let union: BTreeSet<&[u32]> = parts
        .iter()
        .flat_map(|paths| paths.signatures.iter().map(|s| s.counts()))
        .collect();
    Some(union.into_iter().map(<[u32]>::to_vec).collect())
}

/// Infallible wrapper over [`try_build_enumerated_model`] for specs already
/// vetted by [`enumerate`] (which skips over-budget candidates).
pub fn build_enumerated_model(name: &str, spec: &ModelSpec) -> ModelCone {
    try_build_enumerated_model(name, spec, None)
        .expect("enumerated models were vetted against the path limit")
}

/// The recursive list production `xs ::= () | (x) | (x xs)` over the given
/// atoms, closed by `rounds` of plug iteration: every list of up to `rounds`
/// atoms (with repetition — canonicalization dedups), plus the empty list.
fn list_language<S: AsRef<str>>(atoms: &[S], rounds: usize) -> Workload {
    let seed = Workload::new(vec![Term::list(Vec::new()), Term::hole("xs")]);
    let mut step = Vec::with_capacity(atoms.len() * 2);
    for atom in atoms {
        step.push(Term::list(vec![Term::atom(atom.as_ref())]));
    }
    for atom in atoms {
        step.push(Term::list(vec![
            Term::atom(atom.as_ref()),
            Term::hole("xs"),
        ]));
    }
    seed.plug_iterate("xs", &Workload::new(step), rounds)
}

/// Expands the grammar's productions under the bounds and canonicalizes the
/// closed terms: the raw-candidate count, and the distinct canonical specs
/// keyed (and so ordered) by their signatures.
fn canonical_specs(
    grammar: &ModelGrammar,
    options: &EnumOptions,
) -> (usize, BTreeMap<String, ModelSpec>) {
    // Productions, closed by bounded plug iteration.
    let feature_names: Vec<&str> = grammar.features.iter().map(|f| f.name()).collect();
    let feature_lists = list_language(&feature_names, options.max_depth);
    let abort_labels: Vec<&str> = grammar.abort_points.iter().map(|p| p.label()).collect();
    let abort_lists = list_language(&abort_labels, options.max_depth);
    // The trigger production: the "no trigger" atom, then one atom per
    // alternative (a name listed twice keeps its last spec).
    let trigger_table: BTreeMap<&str, TriggerSpec> = grammar
        .triggers
        .iter()
        .map(|(name, spec)| (name.as_str(), *spec))
        .collect();
    let triggers: Vec<Option<(String, TriggerSpec)>> = std::iter::once(None)
        .chain(grammar.triggers.iter().map(|(name, _)| {
            (name != NO_TRIGGER).then(|| (name.clone(), trigger_table[name.as_str()]))
        }))
        .collect();

    // The raw candidate space is features × trigger × aborts.  A spec reads
    // its feature and abort lists only as sets, so crossing each list
    // production's distinct sets gives exactly the specs the raw terms would.
    let raw_candidates = feature_lists.len() * triggers.len() * abort_lists.len();
    let feature_sets: BTreeSet<Vec<Feature>> = feature_lists
        .terms()
        .iter()
        .map(|term| {
            let set: BTreeSet<Feature> = term
                .atoms()
                .into_iter()
                .filter_map(Feature::from_name)
                .collect();
            set.into_iter().collect()
        })
        .collect();
    let abort_sets: BTreeSet<Vec<AbortPoint>> = abort_lists
        .terms()
        .iter()
        .map(|term| {
            let set: BTreeSet<AbortPoint> = term
                .atoms()
                .into_iter()
                .filter_map(|label| AbortPoint::ALL.into_iter().find(|p| p.label() == label))
                .collect();
            set.into_iter().collect()
        })
        .collect();

    // Interpretation + canonicalization: specs collapse into a
    // signature-keyed map, so the surviving specs and their order are a pure
    // function of the grammar's language.
    let mut canonical: BTreeMap<String, ModelSpec> = BTreeMap::new();
    for features in feature_sets
        .iter()
        .filter(|fs| fs.len() <= options.max_features)
    {
        for trigger in &triggers {
            for aborts in &abort_sets {
                let spec = ModelSpec::new(features, trigger.clone(), aborts);
                canonical.entry(spec.signature()).or_insert(spec);
            }
        }
    }
    (raw_candidates, canonical)
}

/// Enumerates the grammar's closed terms under the given bounds and collapses
/// them to a canonical [`ModelFamily`] (see the module docs for the
/// pipeline).  Deterministic, and independent of the order the grammar's
/// productions list their alternatives.
pub fn enumerate(grammar: &ModelGrammar, options: &EnumOptions) -> ModelFamily {
    let (raw_candidates, canonical) = canonical_specs(grammar, options);
    let canonical_candidates = canonical.len();

    // Member cap, then the structural pass: compare each spec's cone
    // structure (path-bounded, never a panic) without building the cone, and
    // drop duplicates.  Specs with equal μDD inputs have equal structures,
    // so each input list is decided once: a repeat is a duplicate of the
    // first spec with those inputs, or skipped like it.
    let mut members: Vec<EnumeratedModel> = Vec::new();
    let mut skipped_path_limit = 0usize;
    let mut structural_duplicates = 0usize;
    let mut seen_structures: BTreeSet<Vec<Vec<u32>>> = BTreeSet::new();
    let mut within_budget: BTreeMap<Vec<MuddInput>, bool> = BTreeMap::new();
    for spec in canonical.into_values().take(options.max_models) {
        let inputs = spec_mudd_inputs(&spec);
        let fits = match within_budget.get(&inputs) {
            Some(&fits) => {
                structural_duplicates += usize::from(fits);
                fits
            }
            None => {
                let structure = cone_structure(&inputs, options.max_paths);
                let fits = structure.is_some();
                within_budget.insert(inputs, fits);
                if let Some(structure) = structure {
                    if seen_structures.insert(structure) {
                        let name = format!("e{}", members.len());
                        members.push(EnumeratedModel { name, spec });
                    } else {
                        structural_duplicates += 1;
                    }
                }
                fits
            }
        };
        if !fits {
            skipped_path_limit += 1;
            telemetry::add(telemetry::Metric::PathLimitModelSkips, 1);
        }
    }

    ModelFamily {
        groups: group_by_assumptions(&members),
        members,
        raw_candidates,
        canonical_candidates,
        skipped_path_limit,
        structural_duplicates,
    }
}

/// Groups members by assumption signature: groups in signature order,
/// members in canonical order.
fn group_by_assumptions(members: &[EnumeratedModel]) -> Vec<FamilyGroup> {
    let mut grouped: BTreeMap<String, FamilyGroup> = BTreeMap::new();
    for member in members {
        let group = grouped
            .entry(member.spec.assumption_signature())
            .or_insert_with(|| FamilyGroup {
                signature: member.spec.assumption_signature(),
                trigger: member.spec.trigger.clone(),
                aborts: member.spec.aborts.clone(),
                members: Vec::new(),
                universe: Vec::new(),
            });
        group.members.push(member.name.clone());
        let mut universe: BTreeSet<Feature> = group.universe.iter().copied().collect();
        universe.extend(member.spec.features.iter().copied());
        group.universe = universe.into_iter().collect();
    }

    grouped.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::{
        abort_model_inputs, abort_specs_table7, build_abort_model, build_feature_model,
        build_trigger_model, feature_sets_table3, trigger_model_inputs,
    };
    use counterpoint_haswell::full_counter_space;
    use counterpoint_mudd::MuDd;

    /// The depth-2, 512-member bounds of the case-study enumeration.
    fn depth2(max_paths: Option<usize>) -> EnumOptions {
        EnumOptions {
            max_depth: 2,
            max_models: 512,
            max_paths,
            ..EnumOptions::default()
        }
    }

    /// Canonicalization term by term over the raw cross product — the
    /// reference [`canonical_specs`] must reproduce from each production's
    /// distinct sets.
    fn reference_canonical_specs(
        grammar: &ModelGrammar,
        options: &EnumOptions,
    ) -> (usize, BTreeMap<String, ModelSpec>) {
        let feature_names: Vec<&str> = grammar.features.iter().map(|f| f.name()).collect();
        let mut trigger_atoms = vec![NO_TRIGGER.to_string()];
        trigger_atoms.extend(grammar.triggers.iter().map(|(name, _)| name.clone()));
        let abort_labels: Vec<&str> = grammar.abort_points.iter().map(|p| p.label()).collect();
        let raw = list_language(&feature_names, options.max_depth)
            .cross(&Workload::from_atoms(&trigger_atoms))
            .cross(&list_language(&abort_labels, options.max_depth));
        let table: BTreeMap<&str, &TriggerSpec> = grammar
            .triggers
            .iter()
            .map(|(name, spec)| (name.as_str(), spec))
            .collect();
        let mut canonical = BTreeMap::new();
        for term in raw.terms() {
            let Term::List(parts) = term else {
                panic!("raw terms are pairs")
            };
            let Term::List(pair) = &parts[0] else {
                panic!("the first half pairs features and trigger")
            };
            let features: Vec<Feature> = pair[0]
                .atoms()
                .into_iter()
                .filter_map(Feature::from_name)
                .collect();
            let trigger = match &pair[1] {
                Term::Atom(name) if name != NO_TRIGGER => {
                    table.get(name.as_str()).map(|spec| (name.clone(), **spec))
                }
                _ => None,
            };
            let aborts: Vec<AbortPoint> = parts[1]
                .atoms()
                .into_iter()
                .filter_map(|label| AbortPoint::ALL.into_iter().find(|p| p.label() == label))
                .collect();
            let spec = ModelSpec::new(&features, trigger, &aborts);
            if spec.features.len() <= options.max_features {
                canonical.entry(spec.signature()).or_insert(spec);
            }
        }
        (raw.len(), canonical)
    }

    #[test]
    fn canonical_specs_match_interpreting_every_raw_term() {
        let t1 = TriggerSpec {
            speculative: false,
            ..TriggerSpec::t0()
        };
        let grammars = [
            ModelGrammar::case_study(),
            small_grammar()
                .with_features(vec![
                    Feature::WalkBypass,
                    Feature::TlbPrefetch,
                    Feature::TlbPrefetch,
                ])
                .with_triggers(vec![
                    ("t0".to_string(), TriggerSpec::t0()),
                    (NO_TRIGGER.to_string(), TriggerSpec::t0()),
                    ("t0".to_string(), t1),
                ])
                .with_abort_points(vec![AbortPoint::AfterPsc, AbortPoint::DuringWalk]),
        ];
        for grammar in &grammars {
            for (max_depth, max_features) in [(0, 5), (1, 5), (2, 5), (2, 1), (3, 2)] {
                let options = EnumOptions {
                    max_depth,
                    max_features,
                    ..EnumOptions::default()
                };
                let (raw, specs) = canonical_specs(grammar, &options);
                let (reference_raw, reference) = reference_canonical_specs(grammar, &options);
                assert_eq!(raw, reference_raw, "depth {max_depth}");
                assert_eq!(
                    specs, reference,
                    "depth {max_depth}, {max_features} features"
                );
            }
        }
    }

    /// The structural pass by building every capped spec's cone and
    /// deduplicating generator multisets — the reference [`enumerate`] must
    /// reproduce without building cones.
    fn reference_family(grammar: &ModelGrammar, options: &EnumOptions) -> ModelFamily {
        let (raw_candidates, canonical) = canonical_specs(grammar, options);
        let canonical_candidates = canonical.len();
        let mut members: Vec<EnumeratedModel> = Vec::new();
        let mut skipped_path_limit = 0;
        let mut structural_duplicates = 0;
        let mut seen: BTreeSet<Vec<Vec<u32>>> = BTreeSet::new();
        for spec in canonical.into_values().take(options.max_models) {
            let name = format!("e{}", members.len());
            let Ok(cone) = try_build_enumerated_model(&name, &spec, options.max_paths) else {
                skipped_path_limit += 1;
                continue;
            };
            let multiset: BTreeSet<Vec<u32>> = cone
                .signatures()
                .iter()
                .map(|s| s.counts().to_vec())
                .collect();
            if seen.insert(multiset.into_iter().collect()) {
                members.push(EnumeratedModel { name, spec });
            } else {
                structural_duplicates += 1;
            }
        }
        ModelFamily {
            groups: group_by_assumptions(&members),
            members,
            raw_candidates,
            canonical_candidates,
            skipped_path_limit,
            structural_duplicates,
        }
    }

    #[test]
    fn expansion_matches_building_every_cone() {
        let grammar = ModelGrammar::case_study();
        let unbounded = enumerate(&grammar, &depth2(None));
        assert_eq!(
            format!("{unbounded:?}"),
            format!("{:?}", reference_family(&grammar, &depth2(None)))
        );
        assert_eq!(unbounded.len(), 153);
        assert_eq!(unbounded.structural_duplicates, 359);

        // A budget strictly between the smallest and largest per-spec path
        // counts (a spec's count is its largest diagram's) skips some specs
        // and keeps others.  It equals some spec's count, so the boundary is
        // decided too: a diagram with exactly `budget` paths fits.
        let (_, canonical) = canonical_specs(&grammar, &depth2(None));
        let capped: Vec<Vec<MuddInput>> =
            canonical.values().take(512).map(spec_mudd_inputs).collect();
        let paths = |input: &MuddInput| mudd_paths(input, None).unwrap().num_paths;
        let mut counts: Vec<usize> = capped
            .iter()
            .map(|inputs| inputs.iter().map(paths).max().unwrap())
            .collect();
        counts.sort_unstable();
        let (least, budget, most) = (counts[0], counts[counts.len() / 2], counts[511]);
        assert!(
            least < budget && budget < most,
            "{least} < {budget} < {most}"
        );
        // Each diagram fits the budget exactly when enumerating it under that
        // limit succeeds.
        let diagrams: BTreeSet<&MuddInput> = capped.iter().flatten().collect();
        for input in diagrams {
            assert_eq!(
                mudd_paths(input, Some(budget)).is_ok(),
                input
                    .build()
                    .with_max_paths(budget)
                    .path_signatures()
                    .is_ok(),
                "{input:?}"
            );
        }
        let bounded = enumerate(&grammar, &depth2(Some(budget)));
        assert!(
            0 < bounded.skipped_path_limit && bounded.skipped_path_limit < 512,
            "skipped {}",
            bounded.skipped_path_limit
        );
        assert_eq!(
            format!("{bounded:?}"),
            format!("{:?}", reference_family(&grammar, &depth2(Some(budget))))
        );
    }

    /// `cone` (assembled from cached path signatures) equals the cone
    /// [`ModelCone::from_mudds`] builds by enumerating freshly built μDDs
    /// with the same inputs.
    fn assert_assembles_like_from_mudds(cone: &ModelCone, inputs: &[MuddInput]) {
        let mudds: Vec<MuDd> = inputs.iter().map(MuddInput::build).collect();
        let refs: Vec<&MuDd> = mudds.iter().collect();
        let reference = ModelCone::from_mudds(cone.name(), &refs).unwrap();
        assert_eq!(cone.name(), reference.name());
        assert_eq!(cone.signatures(), reference.signatures(), "{}", cone.name());
        assert_eq!(cone.num_paths(), reference.num_paths(), "{}", cone.name());
        assert_eq!(
            cone.generator_cone().generators(),
            reference.generator_cone().generators(),
            "{}",
            cone.name()
        );
    }

    #[test]
    fn assembled_cones_match_from_mudds() {
        for (name, features) in feature_sets_table3() {
            let cone = build_feature_model(&name, &features);
            assert_assembles_like_from_mudds(&cone, &mudd_inputs(&features, None, &[]));
        }
        for (name, trigger) in trigger_specs_table5() {
            let cone = build_trigger_model(&name, &trigger);
            assert_assembles_like_from_mudds(&cone, &trigger_model_inputs(&trigger));
        }
        for (name, points) in abort_specs_table7() {
            let cone = build_abort_model(&name, &points);
            assert_assembles_like_from_mudds(&cone, &abort_model_inputs(&points));
        }
        let family = enumerate(&ModelGrammar::case_study(), &depth2(None));
        for member in &family.members {
            let cone = build_enumerated_model(&member.name, &member.spec);
            assert_assembles_like_from_mudds(&cone, &spec_mudd_inputs(&member.spec));
        }
    }

    /// A small grammar (two features, one trigger, one abort point) keeps the
    /// structural pass cheap in tests.
    fn small_grammar() -> ModelGrammar {
        ModelGrammar::case_study()
            .with_features(vec![Feature::TlbPrefetch, Feature::WalkBypass])
            .with_triggers(vec![("t0".to_string(), TriggerSpec::t0())])
            .with_abort_points(vec![AbortPoint::DuringWalk])
    }

    #[test]
    fn case_study_grammar_scales_past_the_hand_written_tables() {
        let family = enumerate(
            &ModelGrammar::case_study(),
            &EnumOptions {
                max_models: 0, // accounting only: skip the structural pass
                ..EnumOptions::default()
            },
        );
        assert!(
            family.raw_candidates >= 1000,
            "depth-2 enumeration must produce >= 1000 raw candidates, got {}",
            family.raw_candidates
        );
        assert!(
            family.canonical_candidates >= 4 * 12,
            "canonical specs must scale at least 4x past m0-m11, got {}",
            family.canonical_candidates
        );
        assert!(family.canonical_candidates < family.raw_candidates);
    }

    #[test]
    fn canonicalization_is_order_independent() {
        let options = EnumOptions {
            max_models: 64,
            ..EnumOptions::default()
        };
        let forward = enumerate(&small_grammar(), &options);
        let reversed = enumerate(
            &small_grammar().with_features(vec![Feature::WalkBypass, Feature::TlbPrefetch]),
            &options,
        );
        assert_eq!(forward.canonical_candidates, reversed.canonical_candidates);
        let sigs = |family: &ModelFamily| -> Vec<String> {
            family.members.iter().map(|m| m.spec.signature()).collect()
        };
        assert_eq!(sigs(&forward), sigs(&reversed));
        // Duplicated production alternatives collapse too.
        let doubled = enumerate(
            &small_grammar().with_features(vec![
                Feature::TlbPrefetch,
                Feature::TlbPrefetch,
                Feature::WalkBypass,
            ]),
            &options,
        );
        assert_eq!(sigs(&forward), sigs(&doubled));
    }

    #[test]
    fn canonicalization_normalizes_triggers_and_aborts() {
        // A trigger without prefetching is dropped; aborts under bypassing
        // are dropped.
        let spec = ModelSpec::new(
            &[Feature::Merging],
            Some(("t0".to_string(), TriggerSpec::t0())),
            &[AbortPoint::DuringWalk],
        );
        assert!(spec.trigger.is_none());
        assert_eq!(spec.aborts, vec![AbortPoint::DuringWalk]);
        let spec = ModelSpec::new(
            &[Feature::TlbPrefetch, Feature::WalkBypass],
            Some(("t0".to_string(), TriggerSpec::t0())),
            &[
                AbortPoint::AfterPsc,
                AbortPoint::DuringWalk,
                AbortPoint::AfterPsc,
            ],
        );
        assert!(spec.trigger.is_some());
        assert!(spec.aborts.is_empty());
        // Sorting and dedup inside each dimension.
        let spec = ModelSpec::new(
            &[Feature::WalkBypass, Feature::EarlyPsc, Feature::EarlyPsc],
            None,
            &[],
        );
        assert_eq!(spec.features, vec![Feature::EarlyPsc, Feature::WalkBypass]);
    }

    #[test]
    fn path_budget_skips_are_counted_not_fatal() {
        let family = enumerate(
            &small_grammar(),
            &EnumOptions {
                max_paths: Some(1),
                ..EnumOptions::default()
            },
        );
        assert!(family.is_empty(), "a 1-path budget defeats every candidate");
        assert!(family.skipped_path_limit > 0);
        assert_eq!(family.len(), 0);
    }

    #[test]
    fn members_build_and_group_by_assumptions() {
        let family = enumerate(&small_grammar(), &EnumOptions::default());
        assert!(!family.is_empty());
        assert!(!family.groups.is_empty());
        // Every member belongs to exactly one group, and the group's
        // universe covers its members' features.
        let mut seen = 0usize;
        for group in &family.groups {
            seen += group.members.len();
            for name in &group.members {
                let member = family
                    .members
                    .iter()
                    .find(|m| &m.name == name)
                    .expect("group members name family members");
                assert_eq!(member.spec.assumption_signature(), group.signature);
                assert!(member
                    .spec
                    .features
                    .iter()
                    .all(|f| group.universe.contains(f)));
            }
            // The generator builds a cone for the maximal member.
            let cone = group.generator()(&group.initial());
            assert_eq!(cone.dimension(), full_counter_space().len());
        }
        assert_eq!(seen, family.len());
    }

    #[test]
    fn enumerated_specs_match_hand_written_builders() {
        // The spec with m4's features, no trigger, no aborts must produce the
        // same generator multiset as the hand-written m4.
        let specs = feature_sets_table3();
        let m4_features: Vec<Feature> = specs[4]
            .1
            .iter()
            .filter_map(|n| Feature::from_name(n))
            .collect();
        let spec = ModelSpec::new(&m4_features, None, &[]);
        let enumerated = build_enumerated_model("e-m4", &spec);
        let hand_written = build_feature_model("m4", &specs[4].1);
        let multiset = |cone: &ModelCone| -> BTreeSet<Vec<u32>> {
            cone.signatures()
                .iter()
                .map(|s| s.counts().to_vec())
                .collect()
        };
        assert_eq!(multiset(&enumerated), multiset(&hand_written));
    }
}
