//! Op definitions and their forward slice kernels.
//!
//! Each op reads input value slices and writes one output slice (forward),
//! or reads the output cotangent and accumulates into input cotangents
//! (backward, in [`crate::graph`]). The element loops live in
//! [`crate::kernels`] as chunked 8-lane passes; kernels above the parallel
//! threshold shard across worker threads via [`crate::parallel`].

use std::sync::Arc;

use crate::activation::Activation;
use crate::graph::VarId;
use crate::kernels;
use crate::parallel::{self, SendPtr};
use crate::segments::Segments;

/// A node in the tape. Inputs always precede the node itself, so a single
/// in-order sweep computes the forward pass and a reverse sweep the
/// backward pass.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// An input buffer; `trainable` leaves receive Adam updates.
    Leaf { trainable: bool },
    /// `out = a + b` (elementwise, equal lengths).
    Add { a: VarId, b: VarId },
    /// `out = a * b` (elementwise, equal lengths).
    Mul { a: VarId, b: VarId },
    /// `out = k · x`.
    Scale { x: VarId, k: f32 },
    /// `out = x + c` for a constant vector `c`.
    AddConst { x: VarId, c: Arc<Vec<f32>> },
    /// `out = x ⊙ c` for a constant vector `c`.
    MulConst { x: VarId, c: Arc<Vec<f32>> },
    /// `out = x / s` where `s` is a length-1 variable (no gradient is
    /// propagated to `s`; it is the annealing temperature).
    DivByScalarVar { x: VarId, s: VarId },
    /// Softmax within each CSR segment.
    SegSoftmax { x: VarId, seg: Arc<Segments> },
    /// `out[i] = x[idx[i]]`.
    Gather { x: VarId, idx: Arc<Vec<u32>> },
    /// `out[j] = Σ_{i: idx[i]=j} x[i]` (output length fixed at creation).
    ScatterAdd { x: VarId, idx: Arc<Vec<u32>> },
    /// Elementwise activation.
    Activate { x: VarId, kind: Activation },
    /// Scalar `Σ_i x[i]`.
    SumAll { x: VarId },
    /// Scalar `Σ_i x[i]·w[i]` for a constant weight vector.
    DotConst { x: VarId, w: Arc<Vec<f32>> },
    /// Scalar `Σ_j k_j · x_j` over scalar inputs.
    Combine { terms: Vec<(VarId, f32)> },
}

/// Shards `out` into parallel ranges and hands each range's mutable
/// window plus its global range to `f` — the slice-kernel analogue of
/// `par_map_mut`.
fn par_out<F>(out: &mut [f32], f: F)
where
    F: Fn(std::ops::Range<usize>, &mut [f32]) + Sync,
{
    let outp = SendPtr(out.as_mut_ptr());
    parallel::par_apply(out.len(), move |r| {
        // SAFETY: par_apply ranges are disjoint and `out` outlives the
        // dispatch.
        let o = unsafe { std::slice::from_raw_parts_mut(outp.get().add(r.start), r.len()) };
        f(r, o);
    });
}

impl Op {
    /// Forward kernel: reads `get(v)` for inputs, fills `out`.
    pub(crate) fn forward<'a>(&self, get: &dyn Fn(VarId) -> &'a [f32], out: &mut [f32]) {
        match self {
            Op::Leaf { .. } => {}
            Op::Add { a, b } => {
                let (xa, xb) = (get(*a), get(*b));
                par_out(out, |r, o| kernels::add2(o, &xa[r.clone()], &xb[r]));
            }
            Op::Mul { a, b } => {
                let (xa, xb) = (get(*a), get(*b));
                par_out(out, |r, o| kernels::mul2(o, &xa[r.clone()], &xb[r]));
            }
            Op::Scale { x, k } => {
                let x = get(*x);
                let k = *k;
                par_out(out, |r, o| kernels::scale_into(o, &x[r], k));
            }
            Op::AddConst { x, c } => {
                let x = get(*x);
                par_out(out, |r, o| kernels::add2(o, &x[r.clone()], &c[r]));
            }
            Op::MulConst { x, c } => {
                let x = get(*x);
                par_out(out, |r, o| kernels::mul2(o, &x[r.clone()], &c[r]));
            }
            Op::DivByScalarVar { x, s } => {
                let x = get(*x);
                let inv = 1.0 / get(*s)[0];
                par_out(out, |r, o| kernels::scale_into(o, &x[r], inv));
            }
            Op::SegSoftmax { x, seg } => {
                // Segments partition the buffer, so every segment owns a
                // disjoint output slice and is computed by exactly one
                // worker: the result is bit-stable at any thread count.
                let x = get(*x);
                let seg = &**seg;
                let outp = SendPtr(out.as_mut_ptr());
                parallel::par_blocks(seg.num_segments(), seg.len(), move |block| {
                    for s in block {
                        let r = seg.segment(s);
                        // SAFETY: segment windows are disjoint.
                        let o = unsafe {
                            std::slice::from_raw_parts_mut(outp.get().add(r.start), r.len())
                        };
                        kernels::softmax_into(&x[r], o);
                    }
                });
            }
            Op::Gather { x, idx } => {
                let x = get(*x);
                par_out(out, |r, o| kernels::gather_fwd(o, x, &idx[r]));
            }
            Op::ScatterAdd { x, idx, .. } => {
                out.fill(0.0);
                parallel::par_scatter_add(out, idx, get(*x));
            }
            Op::Activate { x, kind } => {
                let x = get(*x);
                let kind = *kind;
                par_out(out, |r, o| kernels::activate_fwd(kind, &x[r], o));
            }
            Op::SumAll { x } => out[0] = parallel::par_sum(get(*x)),
            Op::DotConst { x, w } => out[0] = parallel::par_dot(get(*x), w),
            Op::Combine { terms } => {
                out[0] = terms.iter().map(|(v, k)| k * get(*v)[0]).sum();
            }
        }
    }

    /// Visits every input that receives gradient from this op — the edge
    /// set the loss-reachability analysis walks. Note this is *not* the
    /// full input set: `DivByScalarVar` reads its scalar but propagates no
    /// gradient into it.
    pub(crate) fn for_each_grad_input(&self, mut f: impl FnMut(VarId)) {
        match self {
            Op::Leaf { .. } => {}
            Op::Add { a, b } | Op::Mul { a, b } => {
                f(*a);
                f(*b);
            }
            Op::Scale { x, .. }
            | Op::AddConst { x, .. }
            | Op::MulConst { x, .. }
            | Op::DivByScalarVar { x, .. }
            | Op::SegSoftmax { x, .. }
            | Op::Gather { x, .. }
            | Op::ScatterAdd { x, .. }
            | Op::Activate { x, .. }
            | Op::SumAll { x }
            | Op::DotConst { x, .. } => f(*x),
            Op::Combine { terms } => {
                for (v, _) in terms {
                    f(*v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::kernels::softmax_into;

    #[test]
    fn softmax_sums_to_one() {
        let mut out = vec![0.0; 4];
        softmax_into(&[1.0, 2.0, 3.0, 4.0], &mut out);
        let sum: f32 = out.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(out.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let mut a = vec![0.0; 3];
        let mut b = vec![0.0; 3];
        softmax_into(&[1.0, 2.0, 3.0], &mut a);
        softmax_into(&[101.0, 102.0, 103.0], &mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_handles_large_logits() {
        let mut out = vec![0.0; 2];
        softmax_into(&[1000.0, 0.0], &mut out);
        assert!((out[0] - 1.0).abs() < 1e-6);
        assert!(out.iter().all(|v| v.is_finite()));
    }
}
