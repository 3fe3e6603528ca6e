//! Guided model exploration: discovery and elimination over a feature lattice.
//!
//! CounterPoint classifies candidate μDDs — identified by the set of
//! microarchitectural features they include — as consistent or inconsistent with a
//! dataset of HEC observations (paper, Section 5).  The expert-in-the-loop search
//! has two phases: *discovery* adds features until a feasible model is found, and
//! *elimination* prunes features from a feasible candidate to find minimal feasible
//! feature sets.  Features present in every feasible model are reported as
//! (very likely) present in the real hardware.

use crate::cone::ModelCone;
use crate::feasibility::FeasibilityChecker;
use crate::observation::Observation;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A set of microarchitectural feature names (e.g. `TlbPrefetch`, `Merging`).
pub type FeatureSet = BTreeSet<String>;

/// Builds a [`FeatureSet`] from string slices.
pub fn feature_set<S: AsRef<str>>(features: &[S]) -> FeatureSet {
    features.iter().map(|f| f.as_ref().to_string()).collect()
}

/// A candidate model in an exploration: its name, the features it includes, and its
/// model cone.
#[derive(Clone, Debug)]
pub struct ExplorationModel {
    /// Model name (e.g. `m4` or `t0`).
    pub name: String,
    /// Features included in the model.
    pub features: FeatureSet,
    /// The model cone.
    pub cone: ModelCone,
}

impl ExplorationModel {
    /// Creates an exploration model.
    pub fn new(name: &str, features: FeatureSet, cone: ModelCone) -> ExplorationModel {
        ExplorationModel {
            name: name.to_string(),
            features,
            cone,
        }
    }
}

/// Intersects a sequence of feasible models' feature sets: the features present
/// in *every* one of them, sorted, or `None` when the sequence is empty.
///
/// If the workload suite exercises the hardware broadly enough, these features
/// must be present in the real microarchitecture (paper, Figure 7's argument
/// for feature `F_Y`).  This is the one implementation behind
/// [`SearchGraph::essential_features`] and the session layer's report field —
/// they must never drift apart.
pub fn essential_feature_intersection<'a, I, J>(feasible: I) -> Option<Vec<String>>
where
    I: IntoIterator<Item = J>,
    J: IntoIterator<Item = &'a String>,
{
    let mut sets = feasible.into_iter();
    let mut essential: BTreeSet<String> = sets.next()?.into_iter().cloned().collect();
    for set in sets {
        let current: BTreeSet<&String> = set.into_iter().collect();
        essential.retain(|f| current.contains(f));
    }
    Some(essential.into_iter().collect())
}

/// Which phase of the guided search produced a step.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SearchPhase {
    /// Feature added to relax violated constraints.
    Discovery,
    /// Feature removed to test minimality.
    Elimination,
}

/// One explored model in the guided search.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SearchStep {
    /// Features of the explored model.
    pub features: Vec<String>,
    /// Number of infeasible observations.
    pub infeasible_count: usize,
    /// `true` when no observation is infeasible.
    pub feasible: bool,
    /// The phase that generated this model.
    pub phase: SearchPhase,
}

/// An edge of the search graph (cf. the paper's Figures 8 and 10).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SearchEdge {
    /// Index of the originating step.
    pub from: usize,
    /// Index of the resulting step.
    pub to: usize,
    /// The feature added (discovery) or removed (elimination).
    pub feature: String,
    /// The phase of the transition.
    pub phase: SearchPhase,
}

/// The output of a guided search: every explored model, the transitions between
/// them, and the minimal feasible feature sets found.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SearchGraph {
    /// Explored models in visit order (index 0 is the initial model).
    pub steps: Vec<SearchStep>,
    /// Transitions between explored models.
    pub edges: Vec<SearchEdge>,
    /// Feature sets of feasible models that could not be pruned further without
    /// becoming infeasible.
    pub minimal_feasible: Vec<Vec<String>>,
}

impl SearchGraph {
    /// Feature sets of every feasible model explored.
    pub fn feasible_feature_sets(&self) -> Vec<Vec<String>> {
        self.steps
            .iter()
            .filter(|s| s.feasible)
            .map(|s| s.features.clone())
            .collect()
    }

    /// Features present in every feasible explored model (empty when no
    /// explored model is feasible).
    pub fn essential_features(&self) -> Vec<String> {
        essential_feature_intersection(
            self.steps
                .iter()
                .filter(|s| s.feasible)
                .map(|s| &s.features),
        )
        .unwrap_or_default()
    }
}

/// The original cold-start sequential search, kept verbatim as the
/// executable specification of the search semantics: every candidate model is
/// re-solved from scratch through [`FeasibilityChecker`], with no caches, no
/// certificate reuse and no parallelism.
///
/// [`LatticeSearch`](crate::lattice::LatticeSearch) must produce a
/// [`SearchGraph`] equal to this function's output on every input — the
/// differential test suite (`tests/search_equivalence.rs`) and the
/// `lattice_search` benchmark baseline both call it.  It is the oracle, not a
/// production path.
pub fn reference_search<G, S>(
    generator: &G,
    all_features: &[S],
    max_models: usize,
    initial: &FeatureSet,
    observations: &[Observation],
) -> SearchGraph
where
    G: Fn(&FeatureSet) -> ModelCone,
    S: AsRef<str>,
{
    let all_features: Vec<String> = all_features
        .iter()
        .map(|f| f.as_ref().to_string())
        .collect();
    // One cold solve per (candidate model, observation) pair — the literal
    // inner loop of the original search, with no state carried anywhere.
    // `FeasibilityChecker::is_feasible` and the batched engine agree verdict
    // for verdict on every input, so this is the semantics oracle.
    let count_infeasible = |features: &FeatureSet| {
        let cone = generator(features);
        let checker = FeasibilityChecker::new(&cone);
        observations
            .iter()
            .filter(|o| !checker.is_feasible(o))
            .count()
    };

    let mut steps: Vec<SearchStep> = Vec::new();
    let mut edges: Vec<SearchEdge> = Vec::new();
    let mut evaluated: BTreeSet<Vec<String>> = BTreeSet::new();

    let record = |features: &FeatureSet,
                  infeasible: usize,
                  phase: SearchPhase,
                  steps: &mut Vec<SearchStep>| {
        steps.push(SearchStep {
            features: features.iter().cloned().collect(),
            infeasible_count: infeasible,
            feasible: infeasible == 0,
            phase,
        });
        steps.len() - 1
    };

    // Discovery phase.
    let mut current = initial.clone();
    let mut current_count = count_infeasible(&current);
    evaluated.insert(current.iter().cloned().collect());
    let mut current_idx = record(&current, current_count, SearchPhase::Discovery, &mut steps);

    while current_count > 0 && steps.len() < max_models {
        let mut best: Option<(String, usize)> = None;
        for feature in &all_features {
            if current.contains(feature) {
                continue;
            }
            let mut candidate = current.clone();
            candidate.insert(feature.clone());
            let count = count_infeasible(&candidate);
            if best.as_ref().is_none_or(|(_, c)| count < *c) {
                best = Some((feature.clone(), count));
            }
        }
        let Some((feature, count)) = best else { break };
        if count >= current_count {
            // No single feature helps; stop discovery.
            break;
        }
        current.insert(feature.clone());
        current_count = count;
        evaluated.insert(current.iter().cloned().collect());
        let new_idx = record(&current, count, SearchPhase::Discovery, &mut steps);
        edges.push(SearchEdge {
            from: current_idx,
            to: new_idx,
            feature,
            phase: SearchPhase::Discovery,
        });
        current_idx = new_idx;
    }

    // Elimination phase (only if discovery reached a feasible model).
    let mut minimal: Vec<Vec<String>> = Vec::new();
    if current_count == 0 {
        reference_eliminate(
            &count_infeasible,
            max_models,
            &current,
            current_idx,
            &mut steps,
            &mut edges,
            &mut evaluated,
            &mut minimal,
        );
    }

    SearchGraph {
        steps,
        edges,
        minimal_feasible: minimal,
    }
}

/// The elimination recursion of [`reference_search`] (the original search's,
/// verbatim).
#[allow(clippy::too_many_arguments)]
fn reference_eliminate<C>(
    count_infeasible: &C,
    max_models: usize,
    features: &FeatureSet,
    from_idx: usize,
    steps: &mut Vec<SearchStep>,
    edges: &mut Vec<SearchEdge>,
    evaluated: &mut BTreeSet<Vec<String>>,
    minimal: &mut Vec<Vec<String>>,
) where
    C: Fn(&FeatureSet) -> usize,
{
    let mut any_feasible_child = false;
    for feature in features.iter().cloned().collect::<Vec<_>>() {
        if steps.len() >= max_models {
            break;
        }
        let mut candidate = features.clone();
        candidate.remove(&feature);
        let key: Vec<String> = candidate.iter().cloned().collect();
        if evaluated.contains(&key) {
            continue;
        }
        evaluated.insert(key);
        let count = count_infeasible(&candidate);
        steps.push(SearchStep {
            features: candidate.iter().cloned().collect(),
            infeasible_count: count,
            feasible: count == 0,
            phase: SearchPhase::Elimination,
        });
        let new_idx = steps.len() - 1;
        edges.push(SearchEdge {
            from: from_idx,
            to: new_idx,
            feature: feature.clone(),
            phase: SearchPhase::Elimination,
        });
        if count == 0 {
            any_feasible_child = true;
            reference_eliminate(
                count_infeasible,
                max_models,
                &candidate,
                new_idx,
                steps,
                edges,
                evaluated,
                minimal,
            );
        }
    }
    if !any_feasible_child {
        let set: Vec<String> = features.iter().cloned().collect();
        if !minimal.contains(&set) {
            minimal.push(set);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::check_models;
    use crate::lattice::LatticeSearch;
    use counterpoint_mudd::{CounterSignature, CounterSpace};

    /// A toy feature lattice over two counters (x, y):
    /// - the base model only allows x (signature [1, 0]);
    /// - feature "Fy" adds a path incrementing y once per x ([1, 1]);
    /// - feature "Fboth" adds an independent y-only path ([0, 1]).
    fn toy_cone(features: &FeatureSet) -> ModelCone {
        let space = CounterSpace::new(&["x", "y"]);
        let mut sigs = vec![CounterSignature::from_counts(vec![1, 0])];
        if features.contains("Fy") {
            sigs.push(CounterSignature::from_counts(vec![1, 1]));
        }
        if features.contains("Fboth") {
            sigs.push(CounterSignature::from_counts(vec![0, 1]));
        }
        let n = sigs.len();
        ModelCone::from_signatures("toy", &space, sigs, n)
    }

    fn observations() -> Vec<Observation> {
        vec![
            Observation::exact("x-only", &[10.0, 0.0]),
            Observation::exact("balanced", &[10.0, 6.0]),
        ]
    }

    /// The essential features of the toy models (by feature set) that every
    /// observation is feasible for.
    fn essential_of(sets: &[FeatureSet], observations: &[Observation]) -> Option<Vec<String>> {
        let cones: Vec<ModelCone> = sets.iter().map(toy_cone).collect();
        let refs: Vec<&ModelCone> = cones.iter().collect();
        let verdicts = check_models(&refs, observations, 1);
        essential_feature_intersection(
            sets.iter()
                .zip(&verdicts)
                .filter(|(_, row)| row.iter().all(|&feasible| feasible))
                .map(|(set, _)| set),
        )
    }

    #[test]
    fn essential_features_intersects_feasible_models() {
        let sets = [
            feature_set(&["Fy"]),
            feature_set(&["Fy", "Fboth"]),
            feature_set::<&str>(&[]),
        ];
        let essential = essential_of(&sets, &observations()).unwrap();
        assert_eq!(essential, vec!["Fy".to_string()]);
    }

    #[test]
    fn essential_features_none_when_nothing_is_feasible() {
        let sets = [feature_set::<&str>(&[])];
        let observations = [Observation::exact("bad", &[1.0, 5.0])];
        assert!(essential_of(&sets, &observations).is_none());
    }

    #[test]
    fn guided_search_discovers_and_minimises() {
        let search = LatticeSearch::new(toy_cone, &["Fy", "Fboth"]);
        let graph = search.run(&feature_set::<&str>(&[]), &observations());

        // The initial (empty) model is infeasible; discovery must add a feature.
        assert!(!graph.steps[0].feasible);
        assert!(graph.steps.iter().any(|s| s.feasible));
        // Both Fy and Fboth individually explain the data, so the minimal feasible
        // sets are singletons.
        assert!(!graph.minimal_feasible.is_empty());
        for set in &graph.minimal_feasible {
            assert_eq!(set.len(), 1);
        }
        // Edges connect consecutive discovery steps.
        assert!(graph
            .edges
            .iter()
            .any(|e| e.phase == SearchPhase::Discovery));
    }

    #[test]
    fn guided_search_on_already_feasible_model_goes_straight_to_elimination() {
        let search = LatticeSearch::new(toy_cone, &["Fy", "Fboth"]);
        let graph = search.run(&feature_set(&["Fy", "Fboth"]), &observations());
        assert!(graph.steps[0].feasible);
        assert!(graph
            .edges
            .iter()
            .all(|e| e.phase == SearchPhase::Elimination));
        // {} is infeasible, so minimal sets are {Fy} and/or {Fboth}.
        assert!(!graph.minimal_feasible.is_empty());
        for set in &graph.minimal_feasible {
            assert!(!set.is_empty());
        }
    }

    #[test]
    fn search_graph_essential_features() {
        let search = LatticeSearch::new(toy_cone, &["Fy", "Fboth"]);
        let graph = search.run(&feature_set::<&str>(&[]), &observations());
        // Both Fy-only and Fboth-only models are feasible, so no feature is
        // essential across all feasible models.
        let essential = graph.essential_features();
        assert!(essential.is_empty() || essential.len() == 1);
        assert!(!graph.feasible_feature_sets().is_empty());
    }

    #[test]
    fn search_respects_model_budget() {
        let mut search = LatticeSearch::new(toy_cone, &["Fy", "Fboth"]);
        search.set_max_models(1);
        let graph = search.run(&feature_set::<&str>(&[]), &observations());
        assert_eq!(graph.steps.len(), 1);
    }

    #[test]
    fn feature_set_helper_builds_sorted_sets() {
        let set = feature_set(&["b", "a", "b"]);
        assert_eq!(set.len(), 2);
        assert!(set.contains("a"));
    }
}
