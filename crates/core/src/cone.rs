//! Model cones: from μpath counter signatures to convex geometry.

use counterpoint_geometry::GeneratorCone;
use counterpoint_mudd::{CounterSignature, CounterSpace, MuDd, MuDdError};
use counterpoint_numeric::RatVector;
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

/// Greatest common divisor on machine words (non-negative; `gcd(0, 0) == 0`).
fn gcd_u32(mut a: u32, mut b: u32) -> u32 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// The model cone of one or more μDDs: every HEC value vector producible by some
/// non-negative flow of μops across the diagrams' μpaths (paper, Section 3).
///
/// A model is often described by several μDDs — one per μop type (the Haswell case
/// study uses separate load and store diagrams over a shared counter space).  The
/// cone generated by the union of their μpath counter signatures is the model cone
/// of the combined model, because flows on different μop types are independent and
/// additive.
///
/// The heavy members (counter space, signature list, generator cone) are
/// immutable once built and shared behind [`Arc`]s, so `Clone` is a handful of
/// reference-count bumps — cheap enough for model caches to hand out clones on
/// every hit.
#[derive(Clone, Debug)]
pub struct ModelCone {
    name: String,
    counters: Arc<CounterSpace>,
    /// Deduplicated μpath counter signatures (the cone's generators before
    /// primitive normalisation).
    signatures: Arc<Vec<CounterSignature>>,
    /// Total number of μpaths enumerated (before deduplication) — reported because
    /// the paper quotes path counts as a complexity measure.
    num_paths: usize,
    cone: Arc<GeneratorCone>,
    /// Float forms of the generators, derived lazily on first solver use and
    /// shared by every clone (the derivation is a pure function of the cone,
    /// so memoizing it is bit-identical to recomputing).
    f64_forms: Arc<OnceLock<GeneratorsF64>>,
}

/// The generators converted to `f64`, in LP column order: dense vectors (one
/// per generator) plus the sparse `(index, value)` form the batched engine's
/// containment scans and flow combinations read.
#[derive(Debug)]
pub(crate) struct GeneratorsF64 {
    pub(crate) dense: Vec<Vec<f64>>,
    pub(crate) sparse: Vec<Vec<(usize, f64)>>,
}

impl ModelCone {
    /// Builds the model cone of a single μDD.
    ///
    /// # Errors
    ///
    /// Propagates [`MuDdError`] from μpath enumeration (e.g. path explosion).
    pub fn from_mudd(mudd: &MuDd) -> Result<ModelCone, MuDdError> {
        ModelCone::from_mudds(mudd.name(), &[mudd])
    }

    /// Builds the model cone of a model made of several μDDs (e.g. one per μop
    /// type) sharing one counter space.
    ///
    /// # Errors
    ///
    /// Propagates [`MuDdError`] from μpath enumeration.
    ///
    /// # Panics
    ///
    /// Panics if the μDD list is empty or the μDDs use different counter spaces.
    pub fn from_mudds(name: &str, mudds: &[&MuDd]) -> Result<ModelCone, MuDdError> {
        assert!(!mudds.is_empty(), "a model needs at least one μDD");
        let counters = mudds[0].counters().clone();
        for m in mudds {
            assert_eq!(
                m.counters(),
                &counters,
                "all μDDs of a model must share one counter space"
            );
        }
        let mut signatures = Vec::new();
        let mut num_paths = 0usize;
        for m in mudds {
            let sigs = m.path_signatures()?;
            num_paths += sigs.len();
            signatures.extend(sigs);
        }
        Ok(ModelCone::from_signatures(
            name, &counters, signatures, num_paths,
        ))
    }

    /// Builds a model cone directly from counter signatures (useful for tests and
    /// for synthetic cones such as the paper's Figure 3 examples).
    pub fn from_signatures(
        name: &str,
        counters: &CounterSpace,
        signatures: Vec<CounterSignature>,
        num_paths: usize,
    ) -> ModelCone {
        // Deduplicate exact signatures first (the signature -> generator mapping is
        // many-to-one even before primitive normalisation).
        let mut seen: BTreeSet<Vec<u32>> = BTreeSet::new();
        let mut unique: Vec<CounterSignature> = Vec::new();
        for sig in signatures {
            assert_eq!(
                sig.dimension(),
                counters.len(),
                "signature dimension must match the counter space"
            );
            if seen.insert(sig.counts().to_vec()) {
                unique.push(sig);
            }
        }
        // Primitive-normalise and deduplicate in `u32` space — the same
        // reduction `GeneratorCone::new` performs, but with machine-word gcds
        // instead of `i128` rational arithmetic.  First-occurrence order is
        // preserved, matching the generic constructor exactly.
        let mut directions: BTreeSet<Vec<u32>> = BTreeSet::new();
        let mut rays: Vec<RatVector> = Vec::new();
        for sig in unique.iter().filter(|s| !s.is_zero()) {
            let g = sig.counts().iter().fold(0u32, |acc, &c| gcd_u32(acc, c));
            let primitive: Vec<u32> = sig.counts().iter().map(|&c| c / g).collect();
            if directions.insert(primitive.clone()) {
                rays.push(
                    primitive
                        .into_iter()
                        .map(counterpoint_numeric::Rational::from)
                        .collect(),
                );
            }
        }
        let cone = if rays.is_empty() {
            GeneratorCone::zero(counters.len())
        } else {
            GeneratorCone::from_primitive(counters.len(), rays)
        };
        ModelCone {
            name: name.to_string(),
            counters: Arc::new(counters.clone()),
            signatures: Arc::new(unique),
            num_paths,
            cone: Arc::new(cone),
            f64_forms: Arc::new(OnceLock::new()),
        }
    }

    /// The model's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The counter space the cone lives in.
    pub fn counters(&self) -> &CounterSpace {
        &self.counters
    }

    /// The deduplicated μpath counter signatures.
    pub fn signatures(&self) -> &[CounterSignature] {
        &self.signatures
    }

    /// Number of μpaths enumerated across all μDDs (before deduplication).
    pub fn num_paths(&self) -> usize {
        self.num_paths
    }

    /// Number of distinct counter signatures (the cone generators).
    pub fn num_generators(&self) -> usize {
        self.cone.generators().len()
    }

    /// Ambient dimension (number of counters).
    pub fn dimension(&self) -> usize {
        self.counters.len()
    }

    /// The underlying generator cone.
    pub fn generator_cone(&self) -> &GeneratorCone {
        &self.cone
    }

    /// The generators in `f64` form (dense and sparse), computed once per
    /// unique cone and shared across clones.
    pub(crate) fn generators_f64(&self) -> &GeneratorsF64 {
        self.f64_forms.get_or_init(|| {
            let dense: Vec<Vec<f64>> = self
                .cone
                .generators()
                .iter()
                .map(RatVector::to_f64_vec)
                .collect();
            let sparse = crate::feasibility::sparsify_generators(&dense);
            GeneratorsF64 { dense, sparse }
        })
    }

    /// Projects the model cone onto a subset of counters (by name), producing a new
    /// cone over the reduced counter space.  This is how the paper's counter-group
    /// sweeps (Figures 1b, 9) restrict a full model to e.g. only the `Ret` group.
    ///
    /// # Panics
    ///
    /// Panics if a requested counter is not part of this cone's space.
    pub fn project<S: AsRef<str>>(&self, counter_names: &[S]) -> ModelCone {
        let indices = self.counters.indices_of(counter_names);
        let sub_space = self.counters.subset(counter_names);
        let projected: Vec<CounterSignature> = self
            .signatures
            .iter()
            .map(|s| s.project(&indices))
            .collect();
        ModelCone::from_signatures(
            &format!("{}[{} counters]", self.name, sub_space.len()),
            &sub_space,
            projected,
            self.num_paths,
        )
    }

    /// Exact membership test for an integer counter vector (mainly for tests; the
    /// production path is [`crate::BatchFeasibility`], which also handles
    /// confidence regions).
    pub fn contains_exact(&self, point: &RatVector) -> bool {
        if self.cone.generators().is_empty() {
            return point.is_zero();
        }
        self.cone.contains(point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use counterpoint_mudd::dsl::compile_uop;

    fn space() -> CounterSpace {
        CounterSpace::new(&["load.causes_walk", "load.pde$_miss"])
    }

    fn fig6a() -> MuDd {
        compile_uop(
            "fig6a",
            r#"
            incr load.causes_walk;
            do LookupPde$;
            switch Pde$Status { Hit => pass; Miss => incr load.pde$_miss };
            done;
            "#,
            &space(),
        )
        .unwrap()
    }

    #[test]
    fn cone_from_single_mudd() {
        let cone = ModelCone::from_mudd(&fig6a()).unwrap();
        assert_eq!(cone.name(), "fig6a");
        assert_eq!(cone.dimension(), 2);
        assert_eq!(cone.num_paths(), 2);
        assert_eq!(cone.num_generators(), 2);
        assert!(cone.contains_exact(&RatVector::from_i64(&[5, 3])));
        assert!(!cone.contains_exact(&RatVector::from_i64(&[3, 5])));
    }

    #[test]
    fn cone_from_multiple_mudds_unions_signatures() {
        let load = fig6a();
        // A second μop type that only increments pde$_miss (e.g. a prefetch probe).
        let probe = compile_uop("probe", "incr load.pde$_miss; done;", &space()).unwrap();
        let cone = ModelCone::from_mudds("combined", &[&load, &probe]).unwrap();
        assert_eq!(cone.num_paths(), 3);
        assert_eq!(cone.num_generators(), 3);
        // Now pde$_miss may exceed causes_walk.
        assert!(cone.contains_exact(&RatVector::from_i64(&[3, 5])));
    }

    #[test]
    fn duplicate_signatures_are_removed() {
        let sigs = vec![
            CounterSignature::from_counts(vec![1, 0]),
            CounterSignature::from_counts(vec![1, 0]),
            CounterSignature::from_counts(vec![1, 1]),
            CounterSignature::from_counts(vec![0, 0]),
        ];
        let cone = ModelCone::from_signatures("dups", &space(), sigs, 4);
        assert_eq!(cone.signatures().len(), 3); // zero signature kept in the list
        assert_eq!(cone.num_generators(), 2); // but not as a generator
        assert_eq!(cone.num_paths(), 4);
    }

    #[test]
    fn zero_cone_contains_only_origin() {
        let cone =
            ModelCone::from_signatures("empty", &space(), vec![CounterSignature::zero(2)], 1);
        assert!(cone.contains_exact(&RatVector::from_i64(&[0, 0])));
        assert!(!cone.contains_exact(&RatVector::from_i64(&[1, 0])));
    }

    #[test]
    fn projection_restricts_counters() {
        let cone = ModelCone::from_mudd(&fig6a()).unwrap();
        let projected = cone.project(&["load.pde$_miss"]);
        assert_eq!(projected.dimension(), 1);
        assert_eq!(projected.counters().name(0), "load.pde$_miss");
        // After dropping causes_walk both signatures project to {0} and {1}.
        assert!(projected.contains_exact(&RatVector::from_i64(&[7])));
    }

    #[test]
    #[should_panic(expected = "share one counter space")]
    fn mismatched_counter_spaces_panic() {
        let a = fig6a();
        let other_space = CounterSpace::new(&["x"]);
        let b = compile_uop("other", "incr x; done;", &other_space).unwrap();
        let _ = ModelCone::from_mudds("bad", &[&a, &b]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_model_panics() {
        let _ = ModelCone::from_mudds("empty", &[]);
    }
}
