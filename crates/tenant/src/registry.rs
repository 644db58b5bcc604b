//! The durable tenant catalog with a bounded resident-model budget.
//!
//! On disk, each tenant owns one directory under the registry root:
//!
//! ```text
//! <root>/tenant-<id as 016x>/
//!   profile.json    # name + preprocessing state + detector configuration
//!   checkpoints/    # content-addressed model versions (ucad-life store)
//! ```
//!
//! In memory, only the `budget` most-recently-activated tenants keep their
//! [`Ucad`] system resident; activating a colder tenant reloads its model
//! from the checkpoint store (a *cold load*) and evicts the
//! least-recently-used resident. Per-tenant score caches are deliberately
//! **not** evicted with the model: the checkpoint round-trip is bit-exact
//! (`tests/checkpoint_props.rs`), so every memoized score stays valid
//! across an evict/reload cycle — the cache is the one thing worth keeping
//! warm for a tenant that is about to come back. A cold load decodes the
//! binary checkpoint payload, whose weights are their raw `f32` bits, so
//! that round trip is bit-exact by construction rather than by the JSON
//! printer's float formatting.
//!
//! Profile and checkpoint I/O both go through the `ucad-fault` fs shim and
//! [`retry_io`], so a transient read, write or rename failure is retried
//! the same way for either file.
//!
//! All failures are typed [`UcadError`]s: a corrupt `profile.json` or
//! checkpoint surfaces as [`UcadError::Corrupt`] from [`TenantRegistry::activate`],
//! never a panic, and leaves every other tenant serving.

use crate::TenantId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use ucad::Ucad;
use ucad_life::CheckpointStore;
use ucad_model::{DetectorConfig, ScoreCache, UcadError};
use ucad_obs::{Counter, Gauge, Registry};
use ucad_preprocess::Preprocessor;
use ucad_wal::{retry_io, write_atomic};

/// Checkpoint versions retained per tenant (current + one fallback).
const CHECKPOINT_RETENTION: usize = 2;

/// The durable half of a tenant: everything except the model weights,
/// which live in the tenant's checkpoint store.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TenantProfile {
    /// Human-readable tenant name — used as the `tenant` metric label and
    /// flight-recorder tag.
    pub name: String,
    /// Fitted preprocessing state (vocabulary + access policies).
    pub preprocessor: Preprocessor,
    /// Detector configuration.
    pub detector: DetectorConfig,
}

/// A resolved, activation-time view of one tenant: the handles a queued
/// record carries to its shard worker. Holding the `Arc`s (not the tenant
/// id) is what makes eviction safe under in-flight work — the registry can
/// drop its resident reference while a queue still scores with this one.
#[derive(Clone)]
pub struct TenantHandle {
    /// The tenant's trained system.
    pub system: Arc<Ucad>,
    /// The tenant's score memo (`None` when caching is disabled).
    pub cache: Option<Arc<ScoreCache>>,
    /// Human-readable tenant name from the profile.
    pub name: Arc<str>,
}

impl std::fmt::Debug for TenantHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantHandle")
            .field("name", &self.name)
            .field("cached", &self.cache.is_some())
            .finish_non_exhaustive()
    }
}

struct Resident {
    system: Arc<Ucad>,
    last_used: u64,
}

/// The tenant catalog: durable profiles + checkpoints below, an LRU-bounded
/// set of resident models above.
pub struct TenantRegistry {
    dir: PathBuf,
    budget: usize,
    cache_capacity: usize,
    resident: HashMap<TenantId, Resident>,
    /// Score caches survive model eviction (see module docs).
    caches: HashMap<TenantId, Arc<ScoreCache>>,
    names: HashMap<TenantId, Arc<str>>,
    known: BTreeSet<TenantId>,
    tick: u64,
    activations: Counter,
    evictions: Counter,
    cold_loads: Counter,
    resident_gauge: Gauge,
}

impl std::fmt::Debug for TenantRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantRegistry")
            .field("dir", &self.dir)
            .field("budget", &self.budget)
            .field("known", &self.known.len())
            .field("resident", &self.resident.len())
            .finish_non_exhaustive()
    }
}

fn tenant_dirname(tenant: TenantId) -> String {
    format!("tenant-{tenant:016x}")
}

fn parse_tenant_dirname(name: &str) -> Option<TenantId> {
    let hex = name.strip_prefix("tenant-")?;
    if hex.len() != 16 {
        return None;
    }
    TenantId::from_str_radix(hex, 16).ok()
}

impl TenantRegistry {
    /// Opens (or initializes) a registry rooted at `dir`, holding at most
    /// `budget` resident models and giving each tenant a score cache of
    /// `cache_capacity` windows (0 disables caching). Reopening an existing
    /// root rediscovers every registered tenant; nothing becomes resident
    /// until activated.
    pub fn open(
        dir: impl Into<PathBuf>,
        budget: usize,
        cache_capacity: usize,
    ) -> Result<Self, UcadError> {
        if budget == 0 {
            return Err(UcadError::invalid(
                "budget",
                "the resident-model budget must admit at least one tenant",
            ));
        }
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| UcadError::io(dir.display().to_string(), &e))?;
        let mut known = BTreeSet::new();
        let listing =
            std::fs::read_dir(&dir).map_err(|e| UcadError::io(dir.display().to_string(), &e))?;
        for entry in listing {
            let entry = entry.map_err(|e| UcadError::io(dir.display().to_string(), &e))?;
            if let Some(id) = entry.file_name().to_str().and_then(parse_tenant_dirname) {
                known.insert(id);
            }
        }
        Ok(TenantRegistry {
            dir,
            budget,
            cache_capacity,
            resident: HashMap::new(),
            caches: HashMap::new(),
            names: HashMap::new(),
            known,
            tick: 0,
            activations: Counter::new(),
            evictions: Counter::new(),
            cold_loads: Counter::new(),
            resident_gauge: Gauge::new(),
        })
    }

    /// Registry root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Resident-model budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Every registered tenant id, in ascending order.
    pub fn known_tenants(&self) -> Vec<TenantId> {
        self.known.iter().copied().collect()
    }

    /// Number of currently resident models.
    pub fn resident(&self) -> usize {
        self.resident.len()
    }

    /// Whether `tenant`'s model is currently resident.
    pub fn is_resident(&self, tenant: TenantId) -> bool {
        self.resident.contains_key(&tenant)
    }

    /// Total activations (resident hits + cold loads).
    pub fn activations(&self) -> u64 {
        self.activations.get()
    }

    /// Models evicted by the resident budget.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Activations that had to reload the model from its checkpoint.
    pub fn cold_loads(&self) -> u64 {
        self.cold_loads.get()
    }

    /// Exposes the registry's counters and the resident gauge on
    /// `registry` as `ucad_tenant_activations_total`,
    /// `ucad_tenant_evictions_total`, `ucad_tenant_cold_loads_total` and
    /// `ucad_tenant_resident`.
    pub fn register_metrics(&self, registry: &Registry) {
        registry.register_counter("ucad_tenant_activations_total", &[], &self.activations);
        registry.register_counter("ucad_tenant_evictions_total", &[], &self.evictions);
        registry.register_counter("ucad_tenant_cold_loads_total", &[], &self.cold_loads);
        registry.register_gauge("ucad_tenant_resident", &[], &self.resident_gauge);
    }

    fn tenant_dir(&self, tenant: TenantId) -> PathBuf {
        self.dir.join(tenant_dirname(tenant))
    }

    fn profile_path(&self, tenant: TenantId) -> PathBuf {
        self.tenant_dir(tenant).join("profile.json")
    }

    fn checkpoints_dir(&self, tenant: TenantId) -> PathBuf {
        self.tenant_dir(tenant).join("checkpoints")
    }

    fn persist(&mut self, tenant: TenantId, name: &str, system: &Ucad) -> Result<(), UcadError> {
        let tdir = self.tenant_dir(tenant);
        std::fs::create_dir_all(&tdir)
            .map_err(|e| UcadError::io(tdir.display().to_string(), &e))?;
        let profile = TenantProfile {
            name: name.to_string(),
            preprocessor: system.preprocessor.clone(),
            detector: system.detector,
        };
        let text = serde_json::to_string(&profile)
            .map_err(|e| UcadError::protocol(format!("profile encode: {e:?}")))?;
        // tmp + rename so a crash mid-write never leaves a torn profile.
        let path = self.profile_path(tenant);
        let tmp = tdir.join("profile.json.tmp");
        write_atomic(&tmp, &path, text.as_bytes())?;
        let mut store = CheckpointStore::open(self.checkpoints_dir(tenant), CHECKPOINT_RETENTION)?;
        store.save(&system.model)?;
        Ok(())
    }

    fn load_profile(&self, tenant: TenantId) -> Result<TenantProfile, UcadError> {
        let path = self.profile_path(tenant);
        let bytes = retry_io(|| ucad_fault::fs_read(&path))
            .map_err(|e| UcadError::io(path.display().to_string(), &e))?;
        std::str::from_utf8(&bytes)
            .map_err(|e| format!("{e:?}"))
            .and_then(|text| serde_json::from_str(text).map_err(|e| format!("{e:?}")))
            .map_err(|e| {
                UcadError::corrupt(
                    path.display().to_string(),
                    format!("profile decode failed: {e}"),
                )
            })
    }

    fn touch(&mut self, tenant: TenantId) {
        self.tick += 1;
        if let Some(r) = self.resident.get_mut(&tenant) {
            r.last_used = self.tick;
        }
    }

    /// Makes `system` resident, evicting the least-recently-used tenant
    /// when over budget. Caches and durable state are untouched by
    /// eviction — only the model leaves memory.
    fn install(&mut self, tenant: TenantId, system: Arc<Ucad>) {
        self.tick += 1;
        self.resident.insert(
            tenant,
            Resident {
                system,
                last_used: self.tick,
            },
        );
        while self.resident.len() > self.budget {
            let coldest = self
                .resident
                .iter()
                .filter(|(id, _)| **id != tenant)
                .min_by_key(|(_, r)| r.last_used)
                .map(|(id, _)| *id)
                .expect("over budget implies a second resident");
            self.resident.remove(&coldest);
            self.evictions.inc();
        }
        self.resident_gauge.set(self.resident.len() as f64);
    }

    fn cache_for(&mut self, tenant: TenantId) -> Option<Arc<ScoreCache>> {
        if self.cache_capacity == 0 {
            return None;
        }
        Some(Arc::clone(self.caches.entry(tenant).or_insert_with(|| {
            Arc::new(ScoreCache::new(self.cache_capacity))
        })))
    }

    /// Registers (or re-registers) a tenant: persists its profile and model
    /// checkpoint, and makes it resident. Idempotent for an unchanged
    /// system — the checkpoint store is content-addressed.
    pub fn register(
        &mut self,
        tenant: TenantId,
        name: &str,
        system: &Ucad,
    ) -> Result<(), UcadError> {
        self.persist(tenant, name, system)?;
        self.known.insert(tenant);
        self.names.insert(tenant, Arc::from(name));
        self.install(tenant, Arc::new(system.clone()));
        Ok(())
    }

    /// Resolves a tenant for serving: returns its resident handle, cold
    /// loading profile + model from disk when the budget evicted it (or it
    /// was never activated since open). Counts one activation either way.
    pub fn activate(&mut self, tenant: TenantId) -> Result<TenantHandle, UcadError> {
        if !self.known.contains(&tenant) {
            return Err(UcadError::invalid(
                "tenant",
                format!("tenant {tenant:#x} is not registered"),
            ));
        }
        if !self.resident.contains_key(&tenant) {
            let profile = self.load_profile(tenant)?;
            let store = CheckpointStore::open(self.checkpoints_dir(tenant), CHECKPOINT_RETENTION)?;
            let model = store.load_latest()?.ok_or_else(|| {
                UcadError::corrupt(
                    self.checkpoints_dir(tenant).display().to_string(),
                    "tenant has a profile but no model checkpoint",
                )
            })?;
            let system = Ucad {
                preprocessor: profile.preprocessor,
                model,
                detector: profile.detector,
            };
            self.names.insert(tenant, Arc::from(profile.name.as_str()));
            self.install(tenant, Arc::new(system));
            self.cold_loads.inc();
        } else {
            self.touch(tenant);
        }
        self.activations.inc();
        let system = Arc::clone(&self.resident[&tenant].system);
        let name = Arc::clone(self.names.get(&tenant).expect("installed above"));
        let cache = self.cache_for(tenant);
        Ok(TenantHandle {
            system,
            cache,
            name,
        })
    }

    /// Hot-swaps one tenant's system: persists the new profile + model,
    /// replaces the resident handle, and bumps the tenant's score-cache
    /// epoch so only *this* tenant's memoized scores expire. The new
    /// model must index the same statement-key space as the serving one
    /// (the same contract as the single-tenant engine's model swap).
    pub fn swap(&mut self, tenant: TenantId, system: &Ucad) -> Result<(), UcadError> {
        let current = self.activate(tenant)?;
        let serving = current.system.model.cfg.vocab_size;
        if system.model.cfg.vocab_size != serving {
            return Err(UcadError::invalid(
                "vocab_size",
                format!(
                    "candidate model indexes {} statement keys, tenant {tenant:#x} \
                     serves {serving}",
                    system.model.cfg.vocab_size
                ),
            ));
        }
        let name = current.name.to_string();
        self.persist(tenant, &name, system)?;
        self.install(tenant, Arc::new(system.clone()));
        if let Some(cache) = self.caches.get(&tenant) {
            cache.advance_epoch();
        }
        Ok(())
    }

    /// The tenant's registered name (known after registration or first
    /// activation this process).
    pub fn name_of(&self, tenant: TenantId) -> Option<&str> {
        self.names.get(&tenant).map(|n| n.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucad::UcadConfig;
    use ucad_dbsim::{training_records, TenantArchetype};
    use ucad_trace::Session;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ucad-tenant-reg-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_system(archetype: TenantArchetype, seed: u64) -> Ucad {
        let records = training_records(archetype, 30, seed);
        let sessions = Session::from_log_records(&records);
        let (system, _) = Ucad::train(&sessions, UcadConfig::scenario1());
        system
    }

    #[test]
    fn budget_zero_is_rejected() {
        match TenantRegistry::open(temp_dir("b0"), 0, 0) {
            Err(UcadError::InvalidConfig { field, .. }) => assert_eq!(field, "budget"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn lru_evicts_coldest_and_reloads_bit_exact() {
        let dir = temp_dir("lru");
        let mut reg = TenantRegistry::open(&dir, 2, 0).unwrap();
        let sys1 = tiny_system(TenantArchetype::Commenting, 1);
        let sys2 = tiny_system(TenantArchetype::Syslog, 2);
        let sys3 = tiny_system(TenantArchetype::LocationService, 3);
        reg.register(1, "one", &sys1).unwrap();
        reg.register(2, "two", &sys2).unwrap();
        assert_eq!(reg.resident(), 2);
        assert_eq!(reg.evictions(), 0);

        // Touch tenant 1 so tenant 2 is the LRU victim.
        reg.activate(1).unwrap();
        reg.register(3, "three", &sys3).unwrap();
        assert_eq!(reg.resident(), 2);
        assert_eq!(reg.evictions(), 1);
        assert!(reg.is_resident(1) && reg.is_resident(3) && !reg.is_resident(2));

        // Reactivating the evicted tenant cold loads a bit-exact model:
        // re-saving it produces the same content-addressed checkpoint id.
        let store =
            CheckpointStore::open(dir.join(tenant_dirname(2)).join("checkpoints"), 2).unwrap();
        let id_before = store.latest().unwrap();
        let handle = reg.activate(2).unwrap();
        assert_eq!(reg.cold_loads(), 1);
        assert_eq!(handle.name.as_ref(), "two");
        let mut store = CheckpointStore::open(temp_dir("lru-probe"), 2).unwrap();
        assert_eq!(store.save(&handle.system.model).unwrap(), id_before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn activation_of_unknown_tenant_is_typed() {
        let mut reg = TenantRegistry::open(temp_dir("unk"), 1, 0).unwrap();
        match reg.activate(99) {
            Err(UcadError::InvalidConfig { field, .. }) => assert_eq!(field, "tenant"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn caches_survive_eviction_and_swap_bumps_only_one_epoch() {
        let dir = temp_dir("cache");
        let mut reg = TenantRegistry::open(&dir, 1, 8).unwrap();
        let sys1 = tiny_system(TenantArchetype::Commenting, 4);
        let sys2 = tiny_system(TenantArchetype::Syslog, 5);
        reg.register(1, "one", &sys1).unwrap();
        let c1 = reg.activate(1).unwrap().cache.unwrap();
        reg.register(2, "two", &sys2).unwrap();
        assert!(!reg.is_resident(1), "budget 1 must evict tenant 1");
        let c2 = reg.activate(2).unwrap().cache.unwrap();

        // Reactivation returns the *same* cache instance it had pre-evict.
        let c1_again = reg.activate(1).unwrap().cache.unwrap();
        assert!(Arc::ptr_eq(&c1, &c1_again), "cache must survive eviction");
        assert_eq!(c1.epoch(), 0);

        // Swapping tenant 1 bumps its epoch; tenant 2's is untouched.
        reg.swap(1, &sys1).unwrap();
        assert_eq!(c1.epoch(), 1);
        assert_eq!(c2.epoch(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_profile_surfaces_as_typed_error() {
        let dir = temp_dir("corrupt");
        let mut reg = TenantRegistry::open(&dir, 2, 0).unwrap();
        let sys = tiny_system(TenantArchetype::Commenting, 6);
        reg.register(7, "seven", &sys).unwrap();
        drop(reg);
        std::fs::write(dir.join(tenant_dirname(7)).join("profile.json"), "{broken").unwrap();
        let mut reg = TenantRegistry::open(&dir, 2, 0).unwrap();
        match reg.activate(7) {
            Err(UcadError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Profile writes, renames and reads go through the fault shim and its
    /// retry budget, as checkpoint I/O does: three transient failures
    /// scoped to the profile files are absorbed.
    #[test]
    fn profile_io_retries_transient_failures() {
        let dir = temp_dir("flaky-profile");
        let mut reg = TenantRegistry::open(&dir, 1, 0).unwrap();
        let sys = tiny_system(TenantArchetype::Commenting, 9);
        let tmp = dir.join(tenant_dirname(1)).join("profile.json.tmp");
        let guard = ucad_fault::FaultPlan::new()
            .fs_fail_ops(3)
            .fs_scope(&tmp)
            .arm();
        reg.register(1, "one", &sys).unwrap();
        assert_eq!(guard.stats().fs_injected_io, 3, "profile write retried");
        drop(guard);

        reg.register(2, "two", &sys).unwrap();
        assert!(!reg.is_resident(1), "budget 1 must evict tenant 1");
        let profile = dir.join(tenant_dirname(1)).join("profile.json");
        let guard = ucad_fault::FaultPlan::new()
            .fs_fail_ops(3)
            .fs_scope(&profile)
            .arm();
        let handle = reg.activate(1).unwrap();
        assert_eq!(guard.stats().fs_injected_io, 3, "profile read retried");
        assert_eq!(handle.name.as_ref(), "one");
        drop(guard);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_rediscovers_registered_tenants() {
        let dir = temp_dir("reopen");
        let mut reg = TenantRegistry::open(&dir, 2, 0).unwrap();
        let sys = tiny_system(TenantArchetype::LocationService, 8);
        reg.register(11, "acme", &sys).unwrap();
        reg.register(12, "globex", &sys).unwrap();
        drop(reg);
        let mut reg = TenantRegistry::open(&dir, 2, 0).unwrap();
        assert_eq!(reg.known_tenants(), vec![11, 12]);
        assert_eq!(reg.resident(), 0, "nothing resident before activation");
        let handle = reg.activate(11).unwrap();
        assert_eq!(handle.name.as_ref(), "acme");
        assert_eq!(reg.cold_loads(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
