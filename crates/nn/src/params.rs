//! Trainable parameter storage shared across forward passes.
//!
//! A [`Tape`](crate::tape::Tape) is rebuilt for every forward pass, but the
//! parameters persist here. `Tape::param` snapshots a parameter's value into
//! the graph; `Tape::backward` accumulates the resulting gradient back into
//! the [`ParamStore`], where an optimizer then applies the update.

use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Handle to a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamId(pub usize);

/// One trainable tensor plus its accumulated gradient.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Param {
    /// Human-readable name, used in diagnostics.
    pub name: String,
    /// Current value.
    pub value: Tensor,
    /// Gradient accumulated since the last [`ParamStore::zero_grad`].
    pub grad: Tensor,
}

/// A process-wide unique [`ParamStore::generation`] stamp. `Relaxed` is
/// enough: the read-modify-write alone makes every stamp unique, and the
/// stamp publishes no other data (a store's values reach other threads
/// through whatever hands them the store).
fn fresh_generation() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Container owning every trainable parameter of a model.
#[derive(Debug, Clone)]
pub struct ParamStore {
    params: Vec<Param>,
    /// Stamp of the current parameter values: every `&mut` path to a value
    /// takes a new process-wide unique stamp, and a clone keeps its
    /// source's stamp together with its values.
    generation: u64,
}

impl Default for ParamStore {
    fn default() -> Self {
        ParamStore {
            params: Vec::new(),
            generation: fresh_generation(),
        }
    }
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Version stamp of the parameter values. Two stores with equal stamps
    /// hold equal values: [`ParamStore::add`], [`ParamStore::get_mut`],
    /// [`ParamStore::iter_mut`] and [`ParamStore::import_values`] each move
    /// the stamp to a value no store has held, and only a clone shares one.
    /// Values derived from the parameters (packed evaluation weights, say)
    /// stay valid for as long as the stamp they were built under.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Registers a new parameter and returns its handle.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        self.generation = fresh_generation();
        let grad = Tensor::zeros(value.rows(), value.cols());
        self.params.push(Param {
            name: name.into(),
            value,
            grad,
        });
        ParamId(self.params.len() - 1)
    }

    /// Immutable access to a parameter.
    pub fn get(&self, id: ParamId) -> &Param {
        &self.params[id.0]
    }

    /// Mutable access to a parameter (moves the
    /// [`ParamStore::generation`] stamp).
    pub fn get_mut(&mut self, id: ParamId) -> &mut Param {
        self.generation = fresh_generation();
        &mut self.params[id.0]
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].value
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar weights across all parameters.
    pub fn num_weights(&self) -> usize {
        self.params.iter().map(|p| p.value.len()).sum()
    }

    /// Clears every accumulated gradient.
    pub fn zero_grad(&mut self) {
        for p in &mut self.params {
            p.grad.fill_zero();
        }
    }

    /// Iterates over `(ParamId, &Param)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Param)> {
        self.params.iter().enumerate().map(|(i, p)| (ParamId(i), p))
    }

    /// Iterates mutably over all parameters (moves the
    /// [`ParamStore::generation`] stamp).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Param> {
        self.generation = fresh_generation();
        self.params.iter_mut()
    }

    /// Snapshots every parameter value in registration order — the
    /// serialization half of the persistence contract: registration order is
    /// deterministic given a configuration, so the flat list plus the
    /// configuration reconstructs the model.
    pub fn export_values(&self) -> Vec<Tensor> {
        self.params.iter().map(|p| p.value.clone()).collect()
    }

    /// Overwrites every parameter value from an [`ParamStore::export_values`]
    /// snapshot, checking count and per-parameter shape before any write (so
    /// a rejected import leaves the store untouched).
    pub fn import_values(&mut self, values: Vec<Tensor>) -> Result<(), ImportError> {
        if values.len() != self.params.len() {
            return Err(ImportError::Count {
                expected: self.params.len(),
                got: values.len(),
            });
        }
        for (p, v) in self.params.iter().zip(&values) {
            if p.value.shape() != v.shape() {
                return Err(ImportError::Shape {
                    name: p.name.clone(),
                    expected: p.value.shape(),
                    got: v.shape(),
                });
            }
        }
        for (p, v) in self.iter_mut().zip(values) {
            p.value = v;
        }
        Ok(())
    }

    /// Sum of squared weights, the `||theta||_2^2` term reported in training
    /// diagnostics (the optimizer applies the matching decoupled decay).
    pub fn l2_norm_sq(&self) -> f32 {
        self.params
            .iter()
            .map(|p| p.value.data().iter().map(|v| v * v).sum::<f32>())
            .sum()
    }
}

/// Parameter-gradient contributions of one backward pass, recorded by
/// [`Tape::backward_deferred`](crate::Tape::backward_deferred) in the order
/// the pass produced them. [`GradLog::apply`] adds them to a store in that
/// order — the f32 operation sequence of
/// [`Tape::backward`](crate::Tape::backward) — so backward passes that run
/// concurrently still accumulate bit-identically to a sequential loop when
/// their logs are applied in the loop's order.
///
/// Only rows holding a nonzero element are kept: an embedding lookup
/// touches a few rows of a `vocab x h` table. Dropping a zero row changes no
/// bit, because a store gradient starts at `+0.0` after
/// [`ParamStore::zero_grad`], an f32 sum is `-0.0` only when both terms
/// are, and so the gradient is never `-0.0` and adding `±0.0` to it is the
/// identity.
#[derive(Debug, Default)]
pub struct GradLog {
    entries: Vec<GradEntry>,
}

#[derive(Debug)]
struct GradEntry {
    id: ParamId,
    /// The parameter rows `values` holds, ascending; `None` when it holds
    /// every row.
    rows: Option<Vec<usize>>,
    values: Tensor,
}

impl GradLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `grad` as the next gradient contribution to parameter `id`.
    pub fn push(&mut self, id: ParamId, grad: Tensor) {
        let rows: Vec<usize> = (0..grad.rows())
            .filter(|&r| grad.row(r).iter().any(|&v| v != 0.0))
            .collect();
        let entry = if rows.len() == grad.rows() {
            GradEntry {
                id,
                rows: None,
                values: grad,
            }
        } else {
            let packed = rows.iter().flat_map(|&r| grad.row(r)).copied().collect();
            GradEntry {
                id,
                values: Tensor::from_vec(rows.len(), grad.cols(), packed),
                rows: Some(rows),
            }
        };
        self.entries.push(entry);
    }

    /// Adds every recorded contribution into `store`'s gradients, in
    /// recording order.
    ///
    /// # Panics
    /// Panics if a contribution does not match its parameter's shape.
    pub fn apply(&self, store: &mut ParamStore) {
        for e in &self.entries {
            let grad = &mut store.params[e.id.0].grad;
            let Some(rows) = &e.rows else {
                grad.add_assign(&e.values);
                continue;
            };
            assert_eq!(grad.cols(), e.values.cols(), "gradient row width mismatch");
            for (i, &r) in rows.iter().enumerate() {
                for (g, &v) in grad.row_mut(r).iter_mut().zip(e.values.row(i)) {
                    *g += v;
                }
            }
        }
    }
}

/// Why an [`ParamStore::import_values`] snapshot was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImportError {
    /// The snapshot holds the wrong number of parameters.
    Count {
        /// Parameters the architecture registers.
        expected: usize,
        /// Parameters the snapshot holds.
        got: usize,
    },
    /// A parameter's shape does not match the architecture.
    Shape {
        /// Name of the offending parameter.
        name: String,
        /// Shape the architecture registers.
        expected: (usize, usize),
        /// Shape the snapshot holds.
        got: (usize, usize),
    },
}

impl std::fmt::Display for ImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImportError::Count { expected, got } => {
                write!(
                    f,
                    "snapshot holds {got} parameters, architecture expects {expected}"
                )
            }
            ImportError::Shape {
                name,
                expected,
                got,
            } => write!(
                f,
                "parameter {name} has shape {expected:?}, snapshot has {got:?}"
            ),
        }
    }
}

impl std::error::Error for ImportError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_zero_grad() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::full(2, 2, 1.0));
        assert_eq!(store.len(), 1);
        assert_eq!(store.num_weights(), 4);
        let mut log = GradLog::new();
        log.push(id, Tensor::full(2, 2, 3.0));
        log.apply(&mut store);
        assert_eq!(store.get(id).grad.data()[0], 3.0);
        let mut log = GradLog::new();
        log.push(id, Tensor::full(2, 2, 1.0));
        log.apply(&mut store);
        assert_eq!(store.get(id).grad.data()[0], 4.0);
        store.zero_grad();
        assert_eq!(store.get(id).grad.data()[0], 0.0);
    }

    #[test]
    fn grad_log_keeps_nonzero_rows_in_order() {
        let mut store = ParamStore::new();
        let id = store.add("emb", Tensor::zeros(4, 2));
        let mut log = GradLog::new();
        log.push(
            id,
            Tensor::from_vec(4, 2, vec![0.0, 0.0, 1.5, -0.0, 0.0, 0.0, 0.0, 2.0]),
        );
        log.push(
            id,
            Tensor::from_vec(4, 2, vec![0.0, -0.0, 0.5, 1.0, 0.0, 0.0, 0.0, 0.0]),
        );
        assert_eq!(log.entries[0].rows, Some(vec![1, 3]));
        assert_eq!(log.entries[0].values.shape(), (2, 2));
        log.apply(&mut store);
        let bits: Vec<u32> = store
            .get(id)
            .grad
            .data()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let want: Vec<u32> = [0.0f32, 0.0, 2.0, 1.0, 0.0, 0.0, 0.0, 2.0]
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(bits, want, "zero rows are skipped and no -0.0 appears");
    }

    #[test]
    fn export_import_roundtrips_and_rejects_mismatches() {
        let mut store = ParamStore::new();
        store.add("a", Tensor::full(2, 2, 1.0));
        store.add("b", Tensor::full(1, 3, 2.0));
        let mut values = store.export_values();
        values[0] = Tensor::full(2, 2, 9.0);
        let mut restored = store.clone();
        restored.import_values(values).expect("compatible snapshot");
        assert_eq!(restored.value(ParamId(0)).data()[0], 9.0);
        assert_eq!(restored.value(ParamId(1)).data()[0], 2.0);

        assert_eq!(
            store.import_values(vec![Tensor::full(2, 2, 0.0)]),
            Err(ImportError::Count {
                expected: 2,
                got: 1
            })
        );
        let bad = vec![Tensor::full(2, 2, 0.0), Tensor::full(3, 1, 0.0)];
        let before = store.export_values();
        assert!(matches!(
            store.import_values(bad),
            Err(ImportError::Shape { .. })
        ));
        // A rejected import must leave the store untouched.
        assert_eq!(store.export_values(), before);
    }

    #[test]
    fn every_value_write_path_moves_the_generation() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::full(2, 2, 1.0));
        let mut seen = vec![store.generation()];
        let mut moved = |store: &ParamStore, path: &str| {
            assert!(
                !seen.contains(&store.generation()),
                "{path} reused a generation"
            );
            seen.push(store.generation());
        };
        store.get_mut(id).value.data_mut()[0] = 2.0;
        moved(&store, "get_mut");
        store.iter_mut().for_each(|p| p.value.data_mut()[1] = 3.0);
        moved(&store, "iter_mut");
        store.import_values(store.export_values()).unwrap();
        moved(&store, "import_values");
        store.add("b", Tensor::zeros(1, 1));
        moved(&store, "add");
        // Reads and gradient-only writes keep it; a clone shares it, and a
        // fresh store never does.
        let g = store.generation();
        store.zero_grad();
        let _ = (store.value(id), store.export_values());
        let copy = store.clone();
        assert_eq!((store.generation(), copy.generation()), (g, g));
        assert_ne!(ParamStore::new().generation(), g);
        let mut log = GradLog::new();
        log.push(id, Tensor::full(2, 2, 1.0));
        log.apply(&mut store);
        assert_eq!(store.generation(), g);
    }

    #[test]
    fn l2_norm_counts_all_params() {
        let mut store = ParamStore::new();
        store.add("a", Tensor::full(1, 2, 2.0));
        store.add("b", Tensor::full(1, 1, 3.0));
        assert!((store.l2_norm_sq() - (4.0 + 4.0 + 9.0)).abs() < 1e-6);
    }
}
