//! The versioned model registry with atomic hot swap:
//! [`ShardedRegistry`], serving one model per [`ModelId`].
//!
//! Retraining (or privacy recalibration) produces a new [`HdModel`];
//! publishing it must not pause inference. The registry keeps live
//! models behind an `RwLock<…Arc<…>>` — the Arc-swap pattern: readers
//! take the lock only long enough to clone an [`Arc`] (no contention
//! with inference itself, which runs entirely on the clone), and
//! `publish` swaps the pointer in one assignment. Batches that grabbed
//! the previous snapshot keep serving it to completion, so a swap never
//! drops or corrupts in-flight requests.
//!
//! Models — one per tenant, encoder basis, or privacy budget — live in
//! one `HashMap<ModelId, …>` behind one lock. A lookup holds the read
//! lock only to clone an [`Arc`], once per batch, and a publish holds
//! the write lock for one map insert (validation runs before it takes
//! the lock). Single-model deployments simply publish under
//! [`ModelId::default()`] (see [`ShardedRegistry::with_model`]). The
//! historical single-slot `ModelRegistry` facade served its one
//! deprecation release and is gone.
//!
//! Publishing is also where the pipeline gets *compiled*: `publish`
//! forces the model's cached [`ModelPlan`], so the class snapshots
//! (dense rows, and packed sign rows when every row is `scale × sign`)
//! are built at most once per publish and request workers score against
//! them without building anything. The AVX2-vs-scalar choice is not
//! part of the plan: each kernel call makes it from a memoized CPUID
//! check.
//!
//! ## Publish validation policy
//!
//! A zero-norm (never-trained) class scores [`f64::NEG_INFINITY`]
//! instead of failing the whole prediction, which means a *partially*
//! trained model serves quietly — its untrained classes simply can
//! never win. Publishing validates the plan's class norms directly (no
//! probe prediction):
//!
//! * a model with a non-finite class norm is always rejected with
//!   [`HdError::NonFinite`] — training on a NaN feature yields NaN
//!   class rows, whose scores no query can rank;
//! * a model whose classes are **all** zero-norm is always rejected
//!   with [`HdError::ZeroNorm`] — it cannot answer a single query;
//! * `publish` also rejects a **partially** trained model (some
//!   zero-norm classes) with [`ServeError::UntrainedClasses`], because
//!   silently unreachable classes are almost always a training bug;
//! * `publish_partial` opts in to serving a partially trained model —
//!   for incremental deployments that grow the label set online — and
//!   returns the indices of the classes that cannot yet be predicted.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use privehd_core::{HdError, HdModel, ModelPlan};

use crate::error::ServeError;

/// Identifies one served model (one tenant) within a
/// [`ShardedRegistry`] and routes its submissions through the engine.
///
/// Cheap to clone (`Arc<str>` underneath) — every request carries one.
/// The [`Default`] id (`"default"`) is what the single-model
/// [`crate::ServeEngine::submit_default`] API routes to.
///
/// # Examples
///
/// ```
/// use privehd_serve::ModelId;
///
/// let tenant = ModelId::new("tenant-a");
/// assert_eq!(tenant.as_str(), "tenant-a");
/// assert_eq!(ModelId::default().as_str(), "default");
/// assert_eq!(ModelId::from("tenant-a"), tenant);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModelId(Arc<str>);

impl ModelId {
    /// Name of the [`Default`] id the single-model API routes to.
    pub const DEFAULT_NAME: &'static str = "default";

    /// Creates an id from any string-like name.
    pub fn new(name: impl AsRef<str>) -> Self {
        Self(Arc::from(name.as_ref()))
    }

    /// The id as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Default for ModelId {
    /// Clones a process-wide cached id: the single-model submission
    /// path calls this per request, so it must not allocate.
    fn default() -> Self {
        static DEFAULT: std::sync::OnceLock<ModelId> = std::sync::OnceLock::new();
        DEFAULT
            .get_or_init(|| ModelId::new(ModelId::DEFAULT_NAME))
            .clone()
    }
}

impl std::fmt::Display for ModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ModelId {
    fn from(name: &str) -> Self {
        Self::new(name)
    }
}

impl From<String> for ModelId {
    fn from(name: String) -> Self {
        Self::new(name)
    }
}

/// One published model: the weights plus the registry metadata the
/// serving layer reports back with every prediction.
#[derive(Debug)]
pub struct ServedModel {
    /// Monotonically increasing version, 1 for the first publish.
    pub version: u64,
    /// Human label supplied at publish time (e.g. `"isolet-retrain-3"`).
    pub label: String,
    model: HdModel,
}

impl ServedModel {
    /// The model weights.
    pub fn model(&self) -> &HdModel {
        &self.model
    }

    /// The model's scoring plan, compiled by the time `publish`
    /// returns. Request workers dispatch through it instead of
    /// re-probing per batch, and a hot-swap republish replaces it
    /// atomically with the snapshot (both live in the same [`Arc`]).
    pub fn plan(&self) -> &ModelPlan {
        self.model.plan()
    }
}

/// Validates `model` for publishing against its plan's class norms (no
/// probe prediction): non-finite and all-zero models are always
/// rejected; partially trained models are rejected unless
/// `allow_partial`. Returns the zero-norm class indices (empty for a
/// fully trained model).
fn validate_norms(model: &HdModel, allow_partial: bool) -> Result<Vec<usize>, ServeError> {
    let norms = model.plan().norms();
    if !norms.iter().all(|n| n.is_finite()) {
        return Err(ServeError::Model(HdError::NonFinite("class norms")));
    }
    let untrained: Vec<usize> = norms
        .iter()
        .enumerate()
        .filter_map(|(class, &n)| (n == 0.0).then_some(class))
        .collect();
    if untrained.len() == norms.len() {
        // Not a single class can win: the model cannot serve any query.
        return Err(ServeError::Model(HdError::ZeroNorm));
    }
    if !untrained.is_empty() && !allow_partial {
        return Err(ServeError::UntrainedClasses(untrained));
    }
    Ok(untrained)
}

/// One tenant's slot in the registry: the live snapshot plus its private
/// version counter (which survives a withdraw, so a re-publish keeps
/// the tenant's version history monotonic).
#[derive(Debug, Default)]
struct TenantSlot {
    live: Option<Arc<ServedModel>>,
    next_version: u64,
}

/// Multi-tenant registry: many independently versioned models behind
/// one lock, each model addressed by [`ModelId`]. (The name predates
/// the single lock and is kept for existing callers.)
///
/// Each tenant has its own monotonic version sequence starting at 1.
///
/// # Examples
///
/// ```
/// use privehd_core::{HdModel, Hypervector};
/// use privehd_serve::{ModelId, ShardedRegistry};
///
/// # fn main() -> Result<(), privehd_serve::ServeError> {
/// let registry = ShardedRegistry::new();
/// let mut model = HdModel::new(2, 64)?;
/// model.bundle(0, &Hypervector::from_vec(vec![1.0; 64]))?;
/// model.bundle(1, &Hypervector::from_vec(vec![-1.0; 64]))?;
///
/// let a = ModelId::new("tenant-a");
/// let b = ModelId::new("tenant-b");
/// registry.publish(&a, model.clone(), "a-v1")?;
/// registry.publish(&b, model.clone(), "b-v1")?;
/// assert_eq!(registry.publish(&b, model, "b-v2")?, 2);
/// assert_eq!(registry.version(&a), 1);
/// assert_eq!(registry.len(), 2);
///
/// registry.withdraw(&a);
/// assert!(registry.get(&a).is_none());
/// assert!(registry.get(&b).is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShardedRegistry {
    tenants: RwLock<HashMap<ModelId, TenantSlot>>,
}

impl Default for ShardedRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self {
            tenants: RwLock::new(HashMap::new()),
        }
    }

    /// Creates a registry with `model` already published as version 1
    /// under [`ModelId::default()`] — the one-liner for single-model
    /// deployments:
    ///
    /// ```
    /// use std::sync::Arc;
    /// use privehd_core::{HdModel, Hypervector};
    /// use privehd_serve::{ModelId, ShardedRegistry};
    ///
    /// # fn main() -> Result<(), privehd_serve::ServeError> {
    /// let mut model = HdModel::new(2, 64)?;
    /// model.bundle(0, &Hypervector::from_vec(vec![1.0; 64]))?;
    /// model.bundle(1, &Hypervector::from_vec(vec![-1.0; 64]))?;
    /// let registry = Arc::new(ShardedRegistry::with_model(model, "v1")?);
    /// assert_eq!(registry.version(&ModelId::default()), 1);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates [`ShardedRegistry::publish`] validation errors.
    pub fn with_model(model: HdModel, label: &str) -> Result<Self, ServeError> {
        let registry = Self::new();
        registry.publish(&ModelId::default(), model, label)?;
        Ok(registry)
    }

    /// Publishes `model` as `id`'s new live version and returns the
    /// tenant-local version number (1 for the tenant's first publish).
    ///
    /// # Errors
    ///
    /// Rejects untrained and (without `publish_partial`) partially
    /// trained models — see the [module-level policy](self).
    pub fn publish(&self, id: &ModelId, model: HdModel, label: &str) -> Result<u64, ServeError> {
        self.publish_inner(id, model, label, false).map(|(v, _)| v)
    }

    /// Like [`ShardedRegistry::publish`] but allows a partially trained
    /// model; returns `(version, zero-norm class indices)`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Model`] wrapping [`HdError::ZeroNorm`] when *every*
    /// class is untrained.
    pub fn publish_partial(
        &self,
        id: &ModelId,
        model: HdModel,
        label: &str,
    ) -> Result<(u64, Vec<usize>), ServeError> {
        self.publish_inner(id, model, label, true)
    }

    fn publish_inner(
        &self,
        id: &ModelId,
        model: HdModel,
        label: &str,
        allow_partial: bool,
    ) -> Result<(u64, Vec<usize>), ServeError> {
        // Validation forces the plan outside the lock (a no-op when the
        // model arrives with its plan cached).
        let untrained = validate_norms(&model, allow_partial)?;
        let mut tenants = self.tenants.write().expect("registry lock poisoned");
        let slot = tenants.entry(id.clone()).or_default();
        slot.next_version += 1;
        let version = slot.next_version;
        slot.live = Some(Arc::new(ServedModel {
            version,
            label: label.to_owned(),
            model,
        }));
        Ok((version, untrained))
    }

    /// The live snapshot for `id`, or `None` when that tenant has never
    /// published (or has withdrawn). The [`Arc`] stays valid across
    /// later publishes.
    pub fn get(&self, id: &ModelId) -> Option<Arc<ServedModel>> {
        self.tenants
            .read()
            .expect("registry lock poisoned")
            .get(id)
            .and_then(|slot| slot.live.clone())
    }

    /// `id`'s live version number, or 0 when nothing is live.
    pub fn version(&self, id: &ModelId) -> u64 {
        self.get(id).map_or(0, |m| m.version)
    }

    /// Withdraws `id`'s live model, returning the snapshot that was
    /// live, if any. Other tenants are untouched; `id`'s version counter
    /// survives, so a later publish continues the sequence.
    pub fn withdraw(&self, id: &ModelId) -> Option<Arc<ServedModel>> {
        self.tenants
            .write()
            .expect("registry lock poisoned")
            .get_mut(id)
            .and_then(|slot| slot.live.take())
    }

    /// Number of tenants with a live model.
    pub fn len(&self) -> usize {
        self.tenants
            .read()
            .expect("registry lock poisoned")
            .values()
            .filter(|slot| slot.live.is_some())
            .count()
    }

    /// True when no tenant has a live model.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ids of every tenant with a live model, sorted for determinism.
    pub fn model_ids(&self) -> Vec<ModelId> {
        let mut ids: Vec<ModelId> = self
            .tenants
            .read()
            .expect("registry lock poisoned")
            .iter()
            .filter(|(_, slot)| slot.live.is_some())
            .map(|(id, _)| id.clone())
            .collect();
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privehd_core::Hypervector;

    fn trained(dim: usize, fill: f64) -> HdModel {
        let mut m = HdModel::new(2, dim).unwrap();
        m.bundle(0, &Hypervector::from_vec(vec![fill; dim]))
            .unwrap();
        m.bundle(1, &Hypervector::from_vec(vec![-fill; dim]))
            .unwrap();
        m
    }

    /// 3 classes, only class 0 trained.
    fn partially_trained(dim: usize) -> HdModel {
        let mut m = HdModel::new(3, dim).unwrap();
        m.bundle(0, &Hypervector::from_vec(vec![1.0; dim])).unwrap();
        m
    }

    /// The default id every single-model test publishes under.
    fn default_id() -> ModelId {
        ModelId::default()
    }

    #[test]
    fn versions_are_monotonic() {
        let r = ShardedRegistry::new();
        let id = default_id();
        assert_eq!(r.version(&id), 0);
        assert_eq!(r.publish(&id, trained(32, 1.0), "a").unwrap(), 1);
        assert_eq!(r.publish(&id, trained(32, 2.0), "b").unwrap(), 2);
        assert_eq!(r.version(&id), 2);
        assert_eq!(r.get(&id).unwrap().label, "b");
    }

    #[test]
    fn publish_builds_both_scoring_matrices_eagerly() {
        let r = ShardedRegistry::new();
        let id = default_id();
        // A ±1 (sign-only) model packs exactly; publishing must leave
        // both snapshots cached, with the packed one far smaller.
        r.publish(&id, trained(512, 1.0), "signed").unwrap();
        let served = r.get(&id).unwrap();
        let dense = served.plan().dense_memory_bytes();
        let packed = served
            .plan()
            .packed_memory_bytes()
            .expect("±1 rows pack exactly");
        assert!(dense > 0 && packed > 0);
        assert!(
            packed * 8 < dense,
            "packed snapshot ({packed} B) not substantially below dense ({dense} B)"
        );
        // A model whose rows mix magnitudes has no exact packed form.
        let mut mixed = HdModel::new(2, 512).unwrap();
        let row: Vec<f64> = (0..512).map(|j| 1.0 + (j % 3) as f64).collect();
        mixed
            .bundle(0, &Hypervector::from_vec(row.clone()))
            .unwrap();
        mixed
            .bundle(1, &Hypervector::from_vec(row.iter().map(|v| -v).collect()))
            .unwrap();
        r.publish(&id, mixed, "mixed").unwrap();
        assert!(r.get(&id).unwrap().plan().packed_memory_bytes().is_none());
    }

    #[test]
    fn non_finite_class_norms_are_rejected() {
        // A NaN feature encodes to an all-NaN hypervector whatever the
        // scheme, so training on one poisons its class row.
        let r = ShardedRegistry::new();
        let id = default_id();
        let mut poisoned = trained(16, 1.0);
        poisoned
            .bundle(1, &Hypervector::from_vec(vec![f64::NAN; 16]))
            .unwrap();
        for (model, allow_partial) in [(poisoned.clone(), false), (poisoned, true)] {
            let err = r
                .publish_inner(&id, model, "nan", allow_partial)
                .unwrap_err();
            assert_eq!(err, ServeError::Model(HdError::NonFinite("class norms")));
        }
        assert!(r.get(&id).is_none());
    }

    #[test]
    fn untrained_models_are_rejected() {
        let r = ShardedRegistry::new();
        let id = default_id();
        let err = r
            .publish(&id, HdModel::new(2, 32).unwrap(), "zero")
            .unwrap_err();
        assert_eq!(err, ServeError::Model(HdError::ZeroNorm));
        assert!(r.get(&id).is_none());
    }

    #[test]
    fn partially_trained_models_are_rejected_by_default() {
        // Regression (PR 2 validation gap): some-zero-norm models used to
        // pass the probe-predict check and then serve NEG_INFINITY rows.
        let r = ShardedRegistry::new();
        let id = default_id();
        let err = r
            .publish(&id, partially_trained(32), "partial")
            .unwrap_err();
        assert_eq!(err, ServeError::UntrainedClasses(vec![1, 2]));
        assert!(r.get(&id).is_none());
    }

    #[test]
    fn publish_partial_allows_and_reports_untrained_classes() {
        let r = ShardedRegistry::new();
        let id = default_id();
        let (version, untrained) = r
            .publish_partial(&id, partially_trained(32), "partial")
            .unwrap();
        assert_eq!((version, untrained), (1, vec![1, 2]));
        // The published model serves; untrained classes can never win.
        let q = Hypervector::from_vec(vec![1.0; 32]);
        let p = r.get(&id).unwrap().model().predict(&q).unwrap();
        assert_eq!(p.class, 0);
        assert_eq!(p.scores[1], f64::NEG_INFINITY);
        // All-zero still refuses even via the partial path.
        let err = r
            .publish_partial(&id, HdModel::new(2, 32).unwrap(), "zero")
            .unwrap_err();
        assert_eq!(err, ServeError::Model(HdError::ZeroNorm));
    }

    #[test]
    fn old_snapshots_survive_a_swap() {
        let r = ShardedRegistry::with_model(trained(16, 1.0), "v1").unwrap();
        let id = default_id();
        let old = r.get(&id).unwrap();
        r.publish(&id, trained(16, 3.0), "v2").unwrap();
        // The old Arc is still fully usable.
        assert_eq!(old.version, 1);
        let q = Hypervector::from_vec(vec![1.0; 16]);
        assert_eq!(old.model().predict(&q).unwrap().class, 0);
        assert_eq!(r.get(&id).unwrap().version, 2);
    }

    #[test]
    fn withdraw_empties_the_registry() {
        let r = ShardedRegistry::with_model(trained(16, 1.0), "v1").unwrap();
        let id = default_id();
        let taken = r.withdraw(&id).unwrap();
        assert_eq!(taken.version, 1);
        assert!(r.get(&id).is_none());
        // A later publish still advances the version counter.
        assert_eq!(r.publish(&id, trained(16, 1.0), "v2").unwrap(), 2);
    }

    #[test]
    fn publish_compiles_a_plan_matching_the_snapshot() {
        let r = ShardedRegistry::new();
        let id = default_id();
        // ±1 rows pack exactly → the compiled kernel is the popcount one.
        r.publish(&id, trained(512, 1.0), "signed").unwrap();
        let served = r.get(&id).unwrap();
        assert_eq!(served.plan().dim(), 512);
        assert!(served.plan().packed_memory_bytes().is_some());
        // Rows that do not factor into sign×scale compile to the dense
        // tiled kernel.
        let mut mixed = HdModel::new(2, 512).unwrap();
        let row: Vec<f64> = (0..512).map(|j| 1.0 + (j % 3) as f64).collect();
        mixed
            .bundle(0, &Hypervector::from_vec(row.clone()))
            .unwrap();
        mixed
            .bundle(1, &Hypervector::from_vec(row.iter().map(|v| -v).collect()))
            .unwrap();
        r.publish(&id, mixed, "mixed").unwrap();
        assert!(r.get(&id).unwrap().plan().packed_memory_bytes().is_none());
    }

    #[test]
    fn republish_swaps_plan_atomically_with_the_snapshot() {
        // Plan and snapshot live in the same Arc: a hot swap can never
        // pair the new model with the old plan or vice versa.
        let r = ShardedRegistry::with_model(trained(512, 1.0), "v1").unwrap();
        let id = default_id();
        let old = r.get(&id).unwrap();
        assert!(old.plan().packed_memory_bytes().is_some());
        let mut mixed = HdModel::new(2, 512).unwrap();
        let row: Vec<f64> = (0..512).map(|j| 1.0 + (j % 3) as f64).collect();
        mixed
            .bundle(0, &Hypervector::from_vec(row.clone()))
            .unwrap();
        mixed
            .bundle(1, &Hypervector::from_vec(row.iter().map(|v| -v).collect()))
            .unwrap();
        r.publish(&id, mixed, "v2").unwrap();
        let new = r.get(&id).unwrap();
        // The retained old Arc still pairs its own model with its own
        // plan and keeps serving.
        assert!(old.plan().packed_memory_bytes().is_some());
        let q = Hypervector::from_vec(vec![1.0; 512]);
        assert_eq!(
            old.plan().predict_dense(&q).unwrap(),
            old.model().predict(&q).unwrap()
        );
        // The new snapshot carries the freshly compiled plan.
        assert!(new.plan().packed_memory_bytes().is_none());
        assert_eq!(
            new.plan().predict_dense(&q).unwrap(),
            new.model().predict(&q).unwrap()
        );
    }

    #[test]
    fn sharded_tenants_version_independently() {
        let r = ShardedRegistry::new();
        let (a, b) = (ModelId::new("a"), ModelId::new("b"));
        assert!(r.is_empty());
        assert_eq!(r.publish(&a, trained(16, 1.0), "a1").unwrap(), 1);
        assert_eq!(r.publish(&a, trained(16, 2.0), "a2").unwrap(), 2);
        assert_eq!(r.publish(&b, trained(16, 1.0), "b1").unwrap(), 1);
        assert_eq!(r.version(&a), 2);
        assert_eq!(r.version(&b), 1);
        assert_eq!(r.len(), 2);
        assert_eq!(r.model_ids(), vec![a.clone(), b.clone()]);
        assert!(r.get(&ModelId::new("missing")).is_none());
        assert_eq!(r.get(&a).unwrap().label, "a2");
    }

    #[test]
    fn sharded_withdraw_is_per_tenant_and_versions_survive() {
        let r = ShardedRegistry::new();
        let (a, b) = (ModelId::new("a"), ModelId::new("b"));
        r.publish(&a, trained(16, 1.0), "a1").unwrap();
        r.publish(&b, trained(16, 1.0), "b1").unwrap();
        let taken = r.withdraw(&a).unwrap();
        assert_eq!(taken.version, 1);
        assert!(r.get(&a).is_none());
        assert!(r.get(&b).is_some());
        assert_eq!(r.len(), 1);
        assert_eq!(r.model_ids(), vec![b]);
        // Withdrawing again is a no-op; the version counter continues.
        assert!(r.withdraw(&a).is_none());
        assert_eq!(r.publish(&a, trained(16, 1.0), "a2").unwrap(), 2);
    }

    #[test]
    fn sharded_validation_matches_single_registry() {
        let r = ShardedRegistry::new();
        let id = ModelId::new("t");
        assert_eq!(
            r.publish(&id, HdModel::new(2, 8).unwrap(), "zero")
                .unwrap_err(),
            ServeError::Model(HdError::ZeroNorm)
        );
        assert_eq!(
            r.publish(&id, partially_trained(8), "partial").unwrap_err(),
            ServeError::UntrainedClasses(vec![1, 2])
        );
        let (v, untrained) = r
            .publish_partial(&id, partially_trained(8), "partial")
            .unwrap();
        assert_eq!((v, untrained), (1, vec![1, 2]));
    }

    #[test]
    fn old_sharded_snapshots_survive_a_swap() {
        let r = ShardedRegistry::new();
        let id = ModelId::new("t");
        r.publish(&id, trained(16, 1.0), "v1").unwrap();
        let old = r.get(&id).unwrap();
        r.publish(&id, trained(16, 3.0), "v2").unwrap();
        assert_eq!(old.version, 1);
        let q = Hypervector::from_vec(vec![1.0; 16]);
        assert_eq!(old.model().predict(&q).unwrap().class, 0);
        assert_eq!(r.get(&id).unwrap().version, 2);
    }
}
