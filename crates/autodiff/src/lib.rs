#![warn(missing_docs)]

//! A small reverse-mode automatic-differentiation engine.
//!
//! The DGR paper implements its differentiable solver in PyTorch and runs
//! it on a GPU. Mature GPU autodiff does not exist in the offline Rust
//! ecosystem, so this crate is the **substitution substrate**: it provides
//! exactly the tensor operations DGR's expected-cost computation needs —
//! on dense `f32` buffers, with a tape of statically-shaped ops, and
//! multi-threaded CPU kernels standing in for CUDA streams:
//!
//! * [`Graph`] — the op tape; build once, then [`Graph::forward`] /
//!   [`Graph::backward`] every iteration,
//! * segmented [(Gumbel-)softmax](Graph::segmented_softmax) over CSR
//!   groups (one group per net / per sub-net),
//! * [`gather`](Graph::gather) / [`scatter_add`](Graph::scatter_add) —
//!   the sparse demand-accumulation kernels,
//! * [`Activation`] — ReLU / sigmoid / LeakyReLU / exp / CELU, the Fig. 6
//!   overflow-cost family,
//! * [`Adam`] — the optimizer used by the paper,
//! * [`gumbel::fill_gumbel`] — Gumbel(0, 1) noise for the stochastic
//!   softmax.
//!
//! # Examples
//!
//! ```
//! use dgr_autodiff::{Adam, Graph, Segments};
//! use std::sync::Arc;
//!
//! // minimize ‖softmax(w) − [0, 1]‖ via a toy quadratic-free objective:
//! // loss = Σ softmax(w) · c with c = [1, 0] pushes mass onto index 1.
//! let mut g = Graph::new();
//! let w = g.param(vec![0.0, 0.0]);
//! let seg = Arc::new(Segments::from_offsets(vec![0, 2])?);
//! let p = g.segmented_softmax(w, seg);
//! let loss = g.dot_const(p, Arc::new(vec![1.0, 0.0]));
//! let mut adam = Adam::new(&g, 0.1);
//! for _ in 0..100 {
//!     g.forward();
//!     g.backward(loss);
//!     adam.step(&mut g);
//! }
//! g.forward();
//! assert!(g.value(p)[1] > 0.9);
//! # Ok::<(), dgr_autodiff::AutodiffError>(())
//! ```

pub mod activation;
pub mod adam;
pub mod graph;
pub mod gumbel;
pub mod kernels;
pub mod ops;
pub mod parallel;
pub mod segments;

pub use activation::Activation;
pub use adam::Adam;
pub use graph::{Graph, VarId};
pub use segments::Segments;

/// Errors produced while assembling or executing a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AutodiffError {
    /// CSR segment offsets were empty, non-monotone, or did not start at 0.
    BadSegments(String),
    /// Two operands had incompatible lengths.
    ShapeMismatch {
        /// Length of the left operand.
        left: usize,
        /// Length of the right operand.
        right: usize,
    },
    /// An index table referenced an element outside its target.
    IndexOutOfRange {
        /// The offending index value.
        index: u32,
        /// Length of the indexed buffer.
        len: usize,
    },
}

impl std::fmt::Display for AutodiffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AutodiffError::BadSegments(why) => write!(f, "invalid segment offsets: {why}"),
            AutodiffError::ShapeMismatch { left, right } => {
                write!(f, "shape mismatch: {left} vs {right}")
            }
            AutodiffError::IndexOutOfRange { index, len } => {
                write!(f, "index {index} out of range for length {len}")
            }
        }
    }
}

impl std::error::Error for AutodiffError {}
