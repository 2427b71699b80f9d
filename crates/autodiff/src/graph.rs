//! The op tape: build once, re-execute every training iteration.

use std::sync::Arc;

use crate::activation::Activation;
use crate::kernels;
use crate::ops::Op;
use crate::parallel::{self, par_axpy, par_scatter_add, SendPtr};
use crate::segments::Segments;
use crate::AutodiffError;

/// Handle to a tape variable (a dense `f32` buffer plus its gradient).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// Dense index into the tape.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// A statically-shaped computation graph over dense `f32` buffers.
///
/// Nodes are appended in topological order by construction — every op's
/// inputs must already exist. [`Graph::forward`] recomputes all values in
/// one sweep, [`Graph::backward`] accumulates gradients in a reverse
/// sweep. The graph is built **once** per routing problem and re-executed
/// every iteration (leaf buffers like Gumbel noise and the temperature are
/// updated in place via [`Graph::set_data`]), mirroring how DGR reuses its
/// PyTorch graph across iterations.
///
/// # Memory layout
///
/// All node values live in one contiguous `f32` arena, all gradients in a
/// second one, with a shared offset table (node `i` owns
/// `offsets[i]..offsets[i] + lens[i]` of both). The forward sweep
/// walks the value arena strictly left-to-right and the backward sweep
/// right-to-left, so consecutive ops touch adjacent cache lines instead
/// of chasing per-node heap allocations.
///
/// # Examples
///
/// ```
/// use dgr_autodiff::Graph;
/// use std::sync::Arc;
///
/// let mut g = Graph::new();
/// let x = g.param(vec![1.0, 2.0, 3.0]);
/// let y = g.scale(x, 2.0);
/// let loss = g.sum_all(y);
/// g.forward();
/// assert_eq!(g.value(loss)[0], 12.0);
/// g.backward(loss);
/// assert_eq!(g.grad(x), &[2.0, 2.0, 2.0]);
/// ```
#[derive(Debug, Default)]
pub struct Graph {
    nodes: Vec<Op>,
    /// Length of node `i`.
    lens: Vec<usize>,
    /// Start of node `i`'s buffer in both arenas.
    offsets: Vec<usize>,
    /// Value arena: all node values, concatenated in node order.
    vals: Vec<f32>,
    /// Gradient arena, same layout as `vals`.
    grads: Vec<f32>,
    params: Vec<VarId>,
    plan: Option<BackwardPlan>,
}

/// The cached loss-reachability analysis: which nodes can influence the
/// loss (via differentiable edges), and the merged gradient-arena runs
/// that must be zeroed before a backward sweep.
#[derive(Debug)]
struct BackwardPlan {
    loss: VarId,
    num_nodes: usize,
    reachable: Vec<bool>,
    /// Merged `(offset, len)` runs covering exactly the reachable
    /// gradient buffers.
    zero_runs: Vec<(usize, usize)>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    fn push(&mut self, op: Op, len: usize) -> VarId {
        let id = VarId(self.nodes.len() as u32);
        let offset = self.vals.len();
        self.nodes.push(op);
        self.lens.push(len);
        self.offsets.push(offset);
        self.vals.resize(offset + len, 0.0);
        self.grads.resize(offset + len, 0.0);
        self.plan = None; // the tape grew: any cached reachability is stale
        id
    }

    /// Range of `v` in both arenas.
    fn range_of(&self, v: VarId) -> std::ops::Range<usize> {
        let i = v.index();
        self.offsets[i]..self.offsets[i] + self.lens[i]
    }

    /// Adds a leaf holding `data`.
    fn leaf(&mut self, data: Vec<f32>, trainable: bool) -> VarId {
        let id = self.push(Op::Leaf { trainable }, data.len());
        let r = self.range_of(id);
        self.vals[r].copy_from_slice(&data);
        id
    }

    /// Adds a **trainable** leaf holding `data`. Trainable leaves are what
    /// [`crate::Adam`] updates.
    pub fn param(&mut self, data: Vec<f32>) -> VarId {
        let id = self.leaf(data, true);
        self.params.push(id);
        id
    }

    /// Adds a non-trainable leaf (noise buffers, the temperature scalar).
    pub fn input(&mut self, data: Vec<f32>) -> VarId {
        self.leaf(data, false)
    }

    /// Elementwise sum. # Errors — [`AutodiffError::ShapeMismatch`] if
    /// lengths differ.
    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        self.check_same_len(a, b);
        let len = self.lens[a.index()];
        self.push(Op::Add { a, b }, len)
    }

    /// Elementwise product.
    ///
    /// # Panics
    ///
    /// Panics if the operand lengths differ.
    pub fn mul(&mut self, a: VarId, b: VarId) -> VarId {
        self.check_same_len(a, b);
        let len = self.lens[a.index()];
        self.push(Op::Mul { a, b }, len)
    }

    /// Multiplies by a compile-time constant scalar.
    pub fn scale(&mut self, x: VarId, k: f32) -> VarId {
        let len = self.lens[x.index()];
        self.push(Op::Scale { x, k }, len)
    }

    /// Adds a constant vector (e.g. `−capacity` to turn demand into
    /// overflow input).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn add_const(&mut self, x: VarId, c: Arc<Vec<f32>>) -> VarId {
        assert_eq!(self.lens[x.index()], c.len(), "add_const length mismatch");
        let len = c.len();
        self.push(Op::AddConst { x, c }, len)
    }

    /// Multiplies elementwise by a constant vector (e.g. per-edge β
    /// weights).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn mul_const(&mut self, x: VarId, c: Arc<Vec<f32>>) -> VarId {
        assert_eq!(self.lens[x.index()], c.len(), "mul_const length mismatch");
        let len = c.len();
        self.push(Op::MulConst { x, c }, len)
    }

    /// Divides by a length-1 variable (the annealing temperature). No
    /// gradient flows into the scalar.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not length 1.
    pub fn div_by_scalar(&mut self, x: VarId, s: VarId) -> VarId {
        assert_eq!(self.lens[s.index()], 1, "temperature must be a scalar");
        let len = self.lens[x.index()];
        self.push(Op::DivByScalarVar { x, s }, len)
    }

    /// Softmax normalized within each CSR segment.
    ///
    /// # Panics
    ///
    /// Panics if the segment table does not cover exactly `x`'s length.
    pub fn segmented_softmax(&mut self, x: VarId, seg: Arc<Segments>) -> VarId {
        assert_eq!(
            self.lens[x.index()],
            seg.len(),
            "segment table does not cover input"
        );
        let len = seg.len();
        self.push(Op::SegSoftmax { x, seg }, len)
    }

    /// `out[i] = x[idx[i]]`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range for `x`.
    pub fn gather(&mut self, x: VarId, idx: Arc<Vec<u32>>) -> VarId {
        let xlen = self.lens[x.index()];
        assert!(
            idx.iter().all(|&i| (i as usize) < xlen),
            "gather index out of range"
        );
        let len = idx.len();
        self.push(Op::Gather { x, idx }, len)
    }

    /// `out[j] = Σ x[i]` over entries with `idx[i] == j`; output length
    /// `len`.
    ///
    /// # Panics
    ///
    /// Panics if `idx.len() != x.len()` or any index `≥ len`.
    pub fn scatter_add(&mut self, x: VarId, idx: Arc<Vec<u32>>, len: usize) -> VarId {
        assert_eq!(self.lens[x.index()], idx.len(), "scatter length mismatch");
        assert!(
            idx.iter().all(|&i| (i as usize) < len),
            "scatter index out of range"
        );
        self.push(Op::ScatterAdd { x, idx }, len)
    }

    /// Applies an elementwise [`Activation`].
    pub fn activate(&mut self, x: VarId, kind: Activation) -> VarId {
        let len = self.lens[x.index()];
        self.push(Op::Activate { x, kind }, len)
    }

    /// Scalar sum of all elements.
    pub fn sum_all(&mut self, x: VarId) -> VarId {
        self.push(Op::SumAll { x }, 1)
    }

    /// Scalar dot product with a constant weight vector.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dot_const(&mut self, x: VarId, w: Arc<Vec<f32>>) -> VarId {
        assert_eq!(self.lens[x.index()], w.len(), "dot_const length mismatch");
        self.push(Op::DotConst { x, w }, 1)
    }

    /// Scalar linear combination `Σ k_j · x_j` of scalar variables — the
    /// final `a1·WL + a2·via + a3·overflow` node.
    ///
    /// # Panics
    ///
    /// Panics if any term is not a scalar.
    pub fn combine(&mut self, terms: Vec<(VarId, f32)>) -> VarId {
        for (v, _) in &terms {
            assert_eq!(self.lens[v.index()], 1, "combine needs scalar terms");
        }
        self.push(Op::Combine { terms }, 1)
    }

    fn check_same_len(&self, a: VarId, b: VarId) {
        assert_eq!(
            self.lens[a.index()],
            self.lens[b.index()],
            "operand length mismatch"
        );
    }

    /// Current value buffer of `v` (valid after [`Graph::forward`]).
    pub fn value(&self, v: VarId) -> &[f32] {
        &self.vals[self.range_of(v)]
    }

    /// Current gradient buffer of `v` (valid after [`Graph::backward`];
    /// buffers that cannot influence the most recent loss read as zero).
    pub fn grad(&self, v: VarId) -> &[f32] {
        &self.grads[self.range_of(v)]
    }

    /// Mutable access to a **leaf** buffer (noise, temperature,
    /// warm-started logits).
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a leaf — interior node values are derived.
    pub fn data_mut(&mut self, v: VarId) -> &mut [f32] {
        assert!(
            matches!(self.nodes[v.index()], Op::Leaf { .. }),
            "data_mut on non-leaf"
        );
        let r = self.range_of(v);
        &mut self.vals[r]
    }

    /// Simultaneous mutable value / shared gradient access for one
    /// variable — the optimizer's update view (no gradient clone).
    pub(crate) fn val_grad_mut(&mut self, v: VarId) -> (&mut [f32], &[f32]) {
        let r = self.range_of(v);
        (&mut self.vals[r.clone()], &self.grads[r])
    }

    /// Replaces a leaf's contents.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a leaf or `data` has the wrong length.
    pub fn set_data(&mut self, v: VarId, data: &[f32]) {
        let dst = self.data_mut(v);
        assert_eq!(dst.len(), data.len(), "set_data length mismatch");
        dst.copy_from_slice(data);
    }

    /// The trainable leaves, in creation order.
    pub fn params(&self) -> &[VarId] {
        &self.params
    }

    /// Whether `v` is a trainable leaf (i.e. receives optimizer updates).
    pub fn is_trainable(&self, v: VarId) -> bool {
        matches!(self.nodes[v.index()], Op::Leaf { trainable: true })
    }

    /// Length of variable `v`.
    pub fn len_of(&self, v: VarId) -> usize {
        self.lens[v.index()]
    }

    /// Number of tape nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Total bytes held in value + gradient buffers — the "device memory"
    /// figure reported in the scalability study (Fig. 5b analogue).
    pub fn bytes(&self) -> usize {
        self.vals.len() * 8
    }

    /// Recomputes every node value in topological order.
    pub fn forward(&mut self) {
        for i in 0..self.nodes.len() {
            if matches!(self.nodes[i], Op::Leaf { .. }) {
                continue;
            }
            // Inputs strictly precede node i, so splitting the value arena
            // at the node's offset makes every input readable while the
            // node's own buffer is written.
            let (head, tail) = self.vals.split_at_mut(self.offsets[i]);
            let out = &mut tail[..self.lens[i]];
            let (offsets, lens) = (&self.offsets, &self.lens);
            let get = |v: VarId| -> &[f32] {
                let j = v.index();
                &head[offsets[j]..offsets[j] + lens[j]]
            };
            self.nodes[i].forward(&get, out);
        }
    }

    /// Computes (and caches) the loss-reachability plan: the set of nodes
    /// with a differentiable path to `loss`, plus the merged gradient
    /// ranges a backward sweep must zero. Called automatically by
    /// [`Graph::backward`]; model builders call it eagerly so the
    /// analysis cost sits at build time, not in the first iteration.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a scalar.
    pub fn prepare_backward(&mut self, loss: VarId) {
        assert_eq!(self.lens[loss.index()], 1, "loss must be scalar");
        if let Some(p) = &self.plan {
            if p.loss == loss && p.num_nodes == self.nodes.len() {
                return;
            }
        }
        // The plan changed (new loss or new nodes): clear the whole arena
        // once so gradients accumulated under a previous plan cannot leak
        // through buffers the new plan never touches.
        self.grads.fill(0.0);
        let n = self.nodes.len();
        let mut reachable = vec![false; n];
        reachable[loss.index()] = true;
        // Reverse sweep: nodes after the loss cannot influence it (the
        // tape is topologically ordered), so start at the loss itself.
        for i in (0..=loss.index()).rev() {
            if reachable[i] {
                self.nodes[i].for_each_grad_input(|v| reachable[v.index()] = true);
            }
        }
        let mut zero_runs: Vec<(usize, usize)> = Vec::new();
        for (i, &live) in reachable.iter().enumerate() {
            if !live || self.lens[i] == 0 {
                continue;
            }
            let (off, len) = (self.offsets[i], self.lens[i]);
            match zero_runs.last_mut() {
                Some((ro, rl)) if *ro + *rl == off => *rl += len,
                _ => zero_runs.push((off, len)),
            }
        }
        self.plan = Some(BackwardPlan {
            loss,
            num_nodes: n,
            reachable,
            zero_runs,
        });
    }

    /// Accumulates `∂loss/∂v` into every gradient buffer.
    ///
    /// Only nodes on a differentiable path to `loss` (per the cached
    /// [`Graph::prepare_backward`] plan) are visited or re-zeroed; all
    /// other gradient buffers stay zero. Derivative computation and
    /// gradient accumulation are fused into a single pass per op (one
    /// read of the values, one write of the gradients — see
    /// [`crate::kernels`]); elementwise accumulations above
    /// [`crate::parallel::PAR_THRESHOLD`] run on the worker pool.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a scalar.
    pub fn backward(&mut self, loss: VarId) {
        self.prepare_backward(loss);
        let plan = self.plan.take().expect("plan just prepared");
        for &(off, len) in &plan.zero_runs {
            self.grads[off..off + len].fill(0.0);
        }
        self.grads[self.offsets[loss.index()]] = 1.0;
        for i in (0..=loss.index()).rev() {
            if !plan.reachable[i] {
                continue;
            }
            // Split so that input gradients (offsets < offsets[i]) are
            // mutable while the output gradient is readable.
            let (gin, gtail) = self.grads.split_at_mut(self.offsets[i]);
            let gout: &[f32] = &gtail[..self.lens[i]];
            // Statically reachable but numerically dead (e.g. an overflow
            // activation that never saturated): every kernel accumulates
            // `+= gout·…`, so an all-zero output gradient contributes
            // nothing. The scan short-circuits on the first live element,
            // so live nodes pay one read.
            if gout.iter().all(|&g| g == 0.0) {
                continue;
            }
            let (offsets, lens) = (&self.offsets, &self.lens);
            let vals = &self.vals;
            let val = |v: VarId| -> &[f32] {
                let j = v.index();
                &vals[offsets[j]..offsets[j] + lens[j]]
            };
            match &self.nodes[i] {
                Op::Leaf { .. } => {}
                Op::Add { a, b } => {
                    if a == b {
                        // g + g == 2g exactly in IEEE f32.
                        par_axpy(slice_mut(gin, offsets, lens, *a), gout, 2.0);
                    } else {
                        // Fused: both operand gradients in one gout read.
                        let (ga, gb) = slice_mut2(gin, offsets, lens, *a, *b);
                        let (pa, pb) = (SendPtr(ga.as_mut_ptr()), SendPtr(gb.as_mut_ptr()));
                        parallel::par_apply(gout.len(), move |r| {
                            // SAFETY: par_apply ranges are disjoint.
                            let (a, b) = unsafe { (sub_mut(pa, &r), sub_mut(pb, &r)) };
                            kernels::add_bwd(a, b, &gout[r]);
                        });
                    }
                }
                Op::Mul { a, b } => {
                    let (xa, xb) = (val(*a), val(*b));
                    if a == b {
                        let ga = slice_mut(gin, offsets, lens, *a);
                        let pa = SendPtr(ga.as_mut_ptr());
                        parallel::par_apply(gout.len(), move |r| {
                            // SAFETY: par_apply ranges are disjoint.
                            let g = unsafe { sub_mut(pa, &r) };
                            kernels::mul_bwd_same(g, &gout[r.clone()], &xa[r]);
                        });
                    } else {
                        // Fused: one gout read feeds both operand grads.
                        let (ga, gb) = slice_mut2(gin, offsets, lens, *a, *b);
                        let (pa, pb) = (SendPtr(ga.as_mut_ptr()), SendPtr(gb.as_mut_ptr()));
                        parallel::par_apply(gout.len(), move |r| {
                            // SAFETY: par_apply ranges are disjoint.
                            let (a, b) = unsafe { (sub_mut(pa, &r), sub_mut(pb, &r)) };
                            kernels::mul_bwd(a, b, &gout[r.clone()], &xa[r.clone()], &xb[r]);
                        });
                    }
                }
                Op::Scale { x, k } => par_axpy(slice_mut(gin, offsets, lens, *x), gout, *k),
                Op::AddConst { x, .. } => par_axpy(slice_mut(gin, offsets, lens, *x), gout, 1.0),
                Op::MulConst { x, c } => {
                    let p = SendPtr(slice_mut(gin, offsets, lens, *x).as_mut_ptr());
                    parallel::par_apply(gout.len(), move |r| {
                        // SAFETY: par_apply ranges are disjoint.
                        let g = unsafe { sub_mut(p, &r) };
                        kernels::fma_accum(g, &gout[r.clone()], &c[r]);
                    });
                }
                Op::DivByScalarVar { x, s } => {
                    let inv = 1.0 / val(*s)[0];
                    par_axpy(slice_mut(gin, offsets, lens, *x), gout, inv);
                }
                Op::SegSoftmax { x, seg } => {
                    // p is this node's own (already computed) output. Each
                    // segment window is disjoint and solved by exactly one
                    // worker, so the result is bit-stable at any thread
                    // count.
                    let p = &vals[self.offsets[i]..self.offsets[i] + self.lens[i]];
                    let gxp = SendPtr(slice_mut(gin, offsets, lens, *x).as_mut_ptr());
                    let seg = &**seg;
                    parallel::par_blocks(seg.num_segments(), seg.len(), move |block| {
                        for s in block {
                            let r = seg.segment(s);
                            // SAFETY: segment windows partition gx.
                            let g = unsafe { sub_mut(gxp, &r) };
                            kernels::seg_softmax_bwd(&p[r.clone()], &gout[r], g);
                        }
                    });
                }
                Op::Gather { x, idx } => {
                    par_scatter_add(slice_mut(gin, offsets, lens, *x), idx, gout);
                }
                Op::ScatterAdd { x, idx, .. } => {
                    let gx = slice_mut(gin, offsets, lens, *x);
                    let p = SendPtr(gx.as_mut_ptr());
                    parallel::par_apply(gx.len(), move |r| {
                        // SAFETY: par_apply ranges are disjoint.
                        let g = unsafe { sub_mut(p, &r) };
                        kernels::scatter_bwd(g, gout, &idx[r]);
                    });
                }
                Op::Activate { x, kind } => {
                    let xv = val(*x);
                    let kind = *kind;
                    let p = SendPtr(slice_mut(gin, offsets, lens, *x).as_mut_ptr());
                    parallel::par_apply(gout.len(), move |r| {
                        // SAFETY: par_apply ranges are disjoint.
                        let g = unsafe { sub_mut(p, &r) };
                        kernels::activate_bwd(kind, &xv[r.clone()], &gout[r], g);
                    });
                }
                Op::SumAll { x } => {
                    let gx = slice_mut(gin, offsets, lens, *x);
                    let p = SendPtr(gx.as_mut_ptr());
                    let g = gout[0];
                    parallel::par_apply(gx.len(), move |r| {
                        // SAFETY: par_apply ranges are disjoint.
                        kernels::add_scalar(unsafe { sub_mut(p, &r) }, g);
                    });
                }
                Op::DotConst { x, w } => par_axpy(slice_mut(gin, offsets, lens, *x), w, gout[0]),
                Op::Combine { terms } => {
                    for (v, k) in terms {
                        gin[offsets[v.index()]] += gout[0] * k;
                    }
                }
            }
        }
        self.plan = Some(plan);
    }
}

/// Mutable view of `v`'s gradient inside the lower half of a split arena.
fn slice_mut<'a>(gin: &'a mut [f32], offsets: &[usize], lens: &[usize], v: VarId) -> &'a mut [f32] {
    let j = v.index();
    &mut gin[offsets[j]..offsets[j] + lens[j]]
}

/// Two simultaneous mutable gradient views for the fused two-operand
/// backward kernels.
///
/// # Panics
///
/// Panics if `a == b` (their arena ranges would alias).
fn slice_mut2<'a>(
    gin: &'a mut [f32],
    offsets: &[usize],
    lens: &[usize],
    a: VarId,
    b: VarId,
) -> (&'a mut [f32], &'a mut [f32]) {
    assert_ne!(a, b, "fused backward needs distinct operands");
    let (ia, ib) = (a.index(), b.index());
    let (oa, la) = (offsets[ia], lens[ia]);
    let (ob, lb) = (offsets[ib], lens[ib]);
    let base = gin.as_mut_ptr();
    debug_assert!(oa + la <= gin.len() && ob + lb <= gin.len());
    debug_assert!(oa + la <= ob || ob + lb <= oa, "node ranges overlap");
    // SAFETY: distinct nodes own disjoint arena ranges (checked above).
    unsafe {
        (
            std::slice::from_raw_parts_mut(base.add(oa), la),
            std::slice::from_raw_parts_mut(base.add(ob), lb),
        )
    }
}

/// Mutable subslice `r` of the buffer behind `p` — the per-range window
/// the fused parallel kernels write.
///
/// # Safety
///
/// `p` must point at a live buffer covering `r`, and concurrent callers
/// must use disjoint ranges.
unsafe fn sub_mut<'a>(p: SendPtr<f32>, r: &std::ops::Range<usize>) -> &'a mut [f32] {
    std::slice::from_raw_parts_mut(p.get().add(r.start), r.len())
}

/// Validates index tables against a target length — the fallible precursor
/// to [`Graph::gather`] / [`Graph::scatter_add`] for untrusted input.
///
/// # Errors
///
/// Returns [`AutodiffError::IndexOutOfRange`] on the first bad index.
pub fn check_indices(idx: &[u32], len: usize) -> Result<(), AutodiffError> {
    for &i in idx {
        if i as usize >= len {
            return Err(AutodiffError::IndexOutOfRange { index: i, len });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff_loss<F>(g: &mut Graph, w: VarId, loss: VarId, build_eval: F) -> Vec<f32>
    where
        F: Fn(&mut Graph) -> f32,
    {
        let h = 1e-3;
        let n = g.len_of(w);
        let mut grads = Vec::with_capacity(n);
        for i in 0..n {
            let orig = g.value(w)[i];
            g.data_mut(w)[i] = orig + h;
            let up = build_eval(g);
            g.data_mut(w)[i] = orig - h;
            let dn = build_eval(g);
            g.data_mut(w)[i] = orig;
            grads.push((up - dn) / (2.0 * h));
        }
        let _ = loss;
        grads
    }

    #[test]
    fn add_mul_scale_forward() {
        let mut g = Graph::new();
        let a = g.param(vec![1.0, 2.0]);
        let b = g.input(vec![3.0, 4.0]);
        let s = g.add(a, b);
        let m = g.mul(s, s);
        let y = g.scale(m, 0.5);
        g.forward();
        assert_eq!(g.value(y), &[8.0, 18.0]);
    }

    #[test]
    fn gradient_of_quadratic() {
        // loss = Σ (w + c)² → dw = 2(w + c)
        let mut g = Graph::new();
        let w = g.param(vec![1.0, -2.0, 0.5]);
        let c = Arc::new(vec![0.5, 1.0, -1.0]);
        let shifted = g.add_const(w, c.clone());
        let sq = g.mul(shifted, shifted);
        let loss = g.sum_all(sq);
        g.forward();
        g.backward(loss);
        for i in 0..3 {
            let want = 2.0 * (g.value(w)[i] + c[i]);
            assert!((g.grad(w)[i] - want).abs() < 1e-5);
        }
    }

    #[test]
    fn gather_scatter_roundtrip_gradients() {
        // demand[e] = Σ paths through e; loss = Σ demand² — classic DGR shape
        let mut g = Graph::new();
        let w = g.param(vec![0.3, 0.7, 0.1, 0.9]);
        let idx = Arc::new(vec![0u32, 1, 1, 2]);
        let d = g.scatter_add(w, idx.clone(), 3);
        let sq = g.mul(d, d);
        let loss = g.sum_all(sq);
        g.forward();
        g.backward(loss);
        // d = [0.3, 0.8, 0.9]; dw_i = 2·d[idx[i]]
        let d_vals = [0.3f32, 0.8, 0.9];
        for i in 0..4 {
            let want = 2.0 * d_vals[idx[i] as usize];
            assert!((g.grad(w)[i] - want).abs() < 1e-5);
        }
    }

    #[test]
    fn gather_forward_and_grad() {
        let mut g = Graph::new();
        let w = g.param(vec![1.0, 2.0]);
        let idx = Arc::new(vec![0u32, 0, 1]);
        let y = g.gather(w, idx);
        let loss = g.sum_all(y);
        g.forward();
        assert_eq!(g.value(y), &[1.0, 1.0, 2.0]);
        g.backward(loss);
        assert_eq!(g.grad(w), &[2.0, 1.0]); // index 0 gathered twice
    }

    #[test]
    fn segmented_softmax_normalizes_per_group() {
        let mut g = Graph::new();
        let w = g.param(vec![1.0, 2.0, 0.0, 0.0, 5.0]);
        let seg = Arc::new(Segments::from_offsets(vec![0, 2, 5]).unwrap());
        let p = g.segmented_softmax(w, seg);
        g.forward();
        let v = g.value(p);
        assert!((v[0] + v[1] - 1.0).abs() < 1e-6);
        assert!((v[2] + v[3] + v[4] - 1.0).abs() < 1e-6);
        assert!(v[4] > 0.9); // logit 5 dominates its group
    }

    #[test]
    fn softmax_gradient_matches_finite_difference() {
        let build = || {
            let mut g = Graph::new();
            let w = g.param(vec![0.2, -0.4, 0.9, 0.1]);
            let seg = Arc::new(Segments::from_offsets(vec![0, 2, 4]).unwrap());
            let p = g.segmented_softmax(w, seg);
            let cost = Arc::new(vec![1.0, 3.0, -2.0, 0.5]);
            let loss = g.dot_const(p, cost);
            (g, w, loss)
        };
        let (mut g, w, loss) = build();
        g.forward();
        g.backward(loss);
        let analytic: Vec<f32> = g.grad(w).to_vec();
        let numeric = finite_diff_loss(&mut g, w, loss, |g| {
            g.forward();
            g.value(loss)[0]
        });
        for (a, n) in analytic.iter().zip(&numeric) {
            assert!((a - n).abs() < 1e-3, "analytic {a} vs numeric {n}");
        }
    }

    #[test]
    fn activation_gradients_flow() {
        for kind in Activation::ALL {
            let mut g = Graph::new();
            let w = g.param(vec![-1.5, -0.2, 0.4, 2.0]);
            let y = g.activate(w, kind);
            let loss = g.sum_all(y);
            g.forward();
            g.backward(loss);
            let analytic = g.grad(w).to_vec();
            let numeric = finite_diff_loss(&mut g, w, loss, |g| {
                g.forward();
                g.value(loss)[0]
            });
            for (i, (a, n)) in analytic.iter().zip(&numeric).enumerate() {
                assert!(
                    (a - n).abs() < 2e-2,
                    "{kind}: grad[{i}] analytic {a} vs numeric {n}"
                );
            }
        }
    }

    #[test]
    fn div_by_scalar_temperature() {
        let mut g = Graph::new();
        let w = g.param(vec![2.0, 4.0]);
        let t = g.input(vec![2.0]);
        let y = g.div_by_scalar(w, t);
        let loss = g.sum_all(y);
        g.forward();
        assert_eq!(g.value(y), &[1.0, 2.0]);
        g.backward(loss);
        assert_eq!(g.grad(w), &[0.5, 0.5]);
        // temperature receives no gradient
        assert_eq!(g.grad(t), &[0.0]);
        // updating the leaf changes the next forward
        g.set_data(t, &[4.0]);
        g.forward();
        assert_eq!(g.value(y), &[0.5, 1.0]);
    }

    #[test]
    fn combine_weights_scalars() {
        let mut g = Graph::new();
        let a = g.param(vec![1.0]);
        let b = g.param(vec![2.0]);
        let sa = g.sum_all(a);
        let sb = g.sum_all(b);
        let loss = g.combine(vec![(sa, 0.5), (sb, 4.0)]);
        g.forward();
        assert_eq!(g.value(loss)[0], 0.5 + 8.0);
        g.backward(loss);
        assert_eq!(g.grad(a), &[0.5]);
        assert_eq!(g.grad(b), &[4.0]);
    }

    #[test]
    #[should_panic(expected = "data_mut on non-leaf")]
    fn data_mut_rejects_interior_nodes() {
        let mut g = Graph::new();
        let a = g.param(vec![1.0]);
        let y = g.scale(a, 2.0);
        let _ = g.data_mut(y);
    }

    #[test]
    fn check_indices_reports_offender() {
        assert!(check_indices(&[0, 1, 2], 3).is_ok());
        assert_eq!(
            check_indices(&[0, 5], 3),
            Err(AutodiffError::IndexOutOfRange { index: 5, len: 3 })
        );
    }

    #[test]
    fn bytes_accounts_values_and_grads() {
        let mut g = Graph::new();
        let a = g.param(vec![0.0; 100]);
        let _ = g.scale(a, 1.0);
        assert_eq!(g.bytes(), 200 * 8);
    }

    #[test]
    fn dead_branches_are_skipped_but_stay_zero() {
        let mut g = Graph::new();
        let w = g.param(vec![1.0, 2.0]);
        let dead_in = g.param(vec![3.0, 5.0]);
        let dead = g.mul(dead_in, dead_in); // never feeds the loss
        let y = g.mul(w, w);
        let loss = g.sum_all(y);
        g.forward();
        g.backward(loss);
        assert_eq!(g.grad(w), &[2.0, 4.0]);
        assert_eq!(g.grad(dead), &[0.0, 0.0]);
        assert_eq!(g.grad(dead_in), &[0.0, 0.0]);
    }

    #[test]
    fn switching_losses_rebuilds_the_plan_and_clears_stale_grads() {
        let mut g = Graph::new();
        let a = g.param(vec![1.0]);
        let b = g.param(vec![2.0]);
        let la = g.sum_all(a);
        let lb = g.sum_all(b);
        g.forward();
        g.backward(la);
        assert_eq!(g.grad(a), &[1.0]);
        assert_eq!(g.grad(b), &[0.0]);
        g.backward(lb);
        // a is unreachable from lb: its old gradient must not linger
        assert_eq!(g.grad(a), &[0.0]);
        assert_eq!(g.grad(b), &[1.0]);
    }

    #[test]
    fn temperature_scalar_does_not_keep_its_producers_alive() {
        // reachability must not cross the non-differentiable temperature
        // edge of DivByScalarVar
        let mut g = Graph::new();
        let w = g.param(vec![1.0, 2.0]);
        let t_src = g.param(vec![3.0]);
        let t = g.scale(t_src, 1.0);
        let y = g.div_by_scalar(w, t);
        let loss = g.sum_all(y);
        g.forward();
        g.backward(loss);
        assert_eq!(g.grad(t_src), &[0.0]);
        assert_eq!(g.grad(t), &[0.0]);
        assert!((g.grad(w)[0] - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn backward_is_repeatable_on_the_arena() {
        // gradients must not accumulate across backward() calls
        let mut g = Graph::new();
        let w = g.param(vec![1.0, -1.0]);
        let sq = g.mul(w, w);
        let loss = g.sum_all(sq);
        g.forward();
        g.backward(loss);
        let first = g.grad(w).to_vec();
        g.backward(loss);
        assert_eq!(g.grad(w), &first[..]);
    }
}
