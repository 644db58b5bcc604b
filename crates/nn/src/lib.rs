//! # ucad-nn
//!
//! A small, dependency-free CPU neural-network substrate: a dense 2-D `f32`
//! [`Tensor`], a reverse-mode autograd [`Tape`], a [`ParamStore`] for
//! trainable state, standard [`optim`] optimizers and the [`layers`] needed
//! by the UCAD reproduction (linear, layer norm, LSTM).
//!
//! The design goal is auditability over raw speed: every op's backward pass
//! is hand-written and covered by finite-difference gradient checks, which is
//! what makes the Trans-DAS training results trustworthy without an external
//! ML framework.
//!
//! ```
//! use ucad_nn::{ParamStore, Tape, Tensor};
//! use ucad_nn::optim::{Optimizer, Sgd};
//!
//! // Fit x to minimize (x - 3)^2 with plain SGD.
//! let mut store = ParamStore::new();
//! let x = store.add("x", Tensor::scalar(0.0));
//! let mut opt = Sgd::new(0.1, 0.0, 0.0);
//! for _ in 0..100 {
//!     store.zero_grad();
//!     let mut tape = Tape::new();
//!     let xv = tape.param(&store, x);
//!     let t = tape.constant(Tensor::scalar(3.0));
//!     let d = tape.sub(xv, t);
//!     let sq = tape.hadamard(d, d);
//!     let loss = tape.sum_all(sq);
//!     tape.backward(loss, &mut store);
//!     opt.step(&mut store);
//! }
//! assert!((store.value(x).item() - 3.0).abs() < 1e-3);
//! ```

#![warn(missing_docs)]

pub mod init;
pub mod layers;
pub mod optim;
pub mod params;
pub mod tape;
pub mod tensor;

pub use params::{GradLog, ImportError, Param, ParamId, ParamStore};
pub use tape::{Tape, Var};
pub use tensor::{AttentionScratch, Rows, RowsMut, Tensor};
