//! Multi-threaded CPU kernels — the GPU-substitution layer.
//!
//! The paper runs its tensor ops as CUDA kernels. Here, dense ops are
//! sharded across a **persistent worker pool**: threads are spawned once
//! (on first parallel dispatch), then park on a condvar between jobs. A
//! job is an index range of chunks; workers race to claim chunk indices,
//! so a dispatch costs two mutex/condvar handshakes instead of a round of
//! `thread::spawn`/`join` per op per iteration.
//!
//! # Determinism contract
//!
//! Work is partitioned into [`num_threads`] chunks **by index**, not by
//! worker: which OS thread executes a chunk never affects where its
//! results land. Pure elementwise maps are therefore bit-reproducible
//! across *any* thread count. Reductions (scatter-add, sums, dots) use
//! per-chunk partial buffers merged in chunk order, so they are
//! **bit-reproducible for a fixed thread count** — no atomics, no
//! scheduling-dependent float ordering (CUDA atomics give neither).
//! Across *different* thread counts the summation order changes, so
//! reductions agree only up to float associativity.
//!
//! Below [`PAR_THRESHOLD`] elements the sequential path is used; dispatch
//! overhead dominates for small tensors.
//!
//! # Observability
//!
//! When `dgr_obs::enabled()` is on, the pool records `pool.jobs_dispatched`,
//! `pool.chunks_claimed` (counted at the claim site, so worker and
//! dispatcher claims both show), `pool.busy_ns`, `pool.seq_fallbacks` and
//! a `pool.dispatch_ns` histogram. When off, every recording site reduces
//! to one relaxed atomic load and a predictable branch, keeping the
//! uninstrumented dispatch path bench-neutral.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Cached handles to the pool's observability metrics. Registration takes
/// the `dgr-obs` registry mutex once; after that every recording is a
/// relaxed atomic op gated on `dgr_obs::enabled()` (one load + a
/// predictable branch when observability is off, so the uninstrumented
/// dispatch path stays bench-neutral).
struct PoolMetrics {
    /// Jobs fanned out through the pool (one per `run_chunks` dispatch).
    jobs_dispatched: &'static dgr_obs::Counter,
    /// Chunks claimed by workers and the dispatcher, counted at the claim
    /// site.
    chunks_claimed: &'static dgr_obs::Counter,
    /// Summed wall-clock nanoseconds between job publication and the last
    /// chunk completing (the pool's busy time).
    busy_ns: &'static dgr_obs::Counter,
    /// Kernel calls that took the sequential fallback (below
    /// [`PAR_THRESHOLD`] or single-threaded).
    seq_fallbacks: &'static dgr_obs::Counter,
    /// Distribution of per-dispatch wall times, in nanoseconds.
    dispatch_ns: &'static dgr_obs::Histogram,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| PoolMetrics {
        jobs_dispatched: dgr_obs::counter("pool.jobs_dispatched"),
        chunks_claimed: dgr_obs::counter("pool.chunks_claimed"),
        busy_ns: dgr_obs::counter("pool.busy_ns"),
        seq_fallbacks: dgr_obs::counter("pool.seq_fallbacks"),
        dispatch_ns: dgr_obs::histogram("pool.dispatch_ns"),
    })
}

/// Minimum number of elements before an op fans out to worker threads.
pub const PAR_THRESHOLD: usize = 1 << 15;

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// The machine's parallelism, probed once. `available_parallelism()` is a
/// syscall (`sched_getaffinity`) costing microseconds on some kernels —
/// uncached it dominated small sequential-fallback kernels, which call
/// [`num_threads`] on every dispatch.
fn host_parallelism() -> usize {
    static HOST: AtomicUsize = AtomicUsize::new(0);
    match HOST.load(Ordering::Relaxed) {
        0 => {
            let n = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            HOST.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

/// Number of chunks dense kernels partition their work into.
///
/// Defaults to the machine's available parallelism; override (e.g. in
/// determinism tests) with [`set_num_threads`]. The override controls the
/// *partitioning* — and hence the bit-exact result of reductions — even
/// when fewer physical workers execute the chunks.
pub fn num_threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if o != 0 {
        return o;
    }
    host_parallelism()
}

/// Overrides the worker-thread count (0 restores the default).
pub fn set_num_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

// --- the persistent pool ---------------------------------------------------

/// Lifetime-erased handle to the in-flight job closure. The `'static` is
/// a fiction established by `transmute` in [`run_chunks`]; it is sound
/// because the dispatcher keeps the closure alive until every chunk has
/// completed, so workers never dereference a dangling job.
#[derive(Clone, Copy)]
struct JobPtr(&'static (dyn Fn(usize) + Sync));

struct PoolState {
    job: Option<JobPtr>,
    epoch: u64,
    next_chunk: usize,
    total_chunks: usize,
    completed: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    /// Wakes workers when a new job (epoch) is published.
    work_cv: Condvar,
    /// Wakes the dispatcher when the last chunk of the job completes.
    done_cv: Condvar,
    /// Serializes dispatches (ops are issued one at a time, but tests may
    /// drive several graphs from different threads).
    dispatch_lock: Mutex<()>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            job: None,
            epoch: 0,
            next_chunk: 0,
            total_chunks: 0,
            completed: 0,
        }),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
        dispatch_lock: Mutex::new(()),
    })
}

/// Lazily spawns the parked worker threads (once per process). The
/// dispatcher itself also executes chunks, so `available_parallelism - 1`
/// workers saturate the machine.
fn ensure_workers() {
    static STARTED: OnceLock<()> = OnceLock::new();
    STARTED.get_or_init(|| {
        let workers = host_parallelism().saturating_sub(1).min(63);
        for w in 0..workers {
            std::thread::Builder::new()
                .name(format!("dgr-pool-{w}"))
                .spawn(|| worker_loop(pool()))
                .expect("spawn pool worker");
        }
    });
}

fn worker_loop(pool: &'static Pool) {
    let mut seen_epoch = 0u64;
    loop {
        // Park until a job with an unseen epoch is published.
        let (job, epoch) = {
            let mut st = pool.state.lock().expect("pool poisoned");
            loop {
                if st.epoch != seen_epoch {
                    if let Some(job) = st.job {
                        break (job, st.epoch);
                    }
                }
                st = pool.work_cv.wait(st).expect("pool poisoned");
            }
        };
        seen_epoch = epoch;
        run_job_chunks(pool, job, epoch);
    }
}

/// Claims and executes chunks of the job published at `epoch` until none
/// remain (or a newer epoch supersedes it).
fn run_job_chunks(pool: &Pool, job: JobPtr, epoch: u64) {
    loop {
        let chunk = {
            let mut st = pool.state.lock().expect("pool poisoned");
            if st.epoch != epoch || st.next_chunk >= st.total_chunks {
                return;
            }
            let c = st.next_chunk;
            st.next_chunk += 1;
            c
        };
        pool_metrics().chunks_claimed.add(1);
        // The dispatcher keeps the closure alive until every claimed
        // chunk reports completion (`completed == total_chunks`).
        (job.0)(chunk);
        let mut st = pool.state.lock().expect("pool poisoned");
        st.completed += 1;
        if st.completed == st.total_chunks {
            pool.done_cv.notify_all();
        }
    }
}

/// Executes `job(chunk)` for every chunk in `0..chunks` on the pool,
/// participating from the calling thread. Returns after all chunks
/// complete. Chunk assignment is work-stealing; result placement must
/// depend only on the chunk index (see the module docs).
pub(crate) fn run_chunks(chunks: usize, job: &(dyn Fn(usize) + Sync)) {
    if chunks == 0 {
        return;
    }
    if chunks == 1 {
        job(0);
        return;
    }
    ensure_workers();
    // `then` with a closure defers the `Instant::now()` syscall to the
    // instrumented path only.
    let dispatch_start = dgr_obs::enabled().then(Instant::now);
    let pool = pool();
    let _guard = pool.dispatch_lock.lock().expect("pool poisoned");
    // SAFETY: erases the job's lifetime. Sound because this function does
    // not return until `completed == total_chunks` and then clears
    // `st.job`, so no worker touches the closure after it dies.
    let job_ptr = JobPtr(unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(job)
    });
    let epoch = {
        let mut st = pool.state.lock().expect("pool poisoned");
        st.epoch = st.epoch.wrapping_add(1);
        st.job = Some(job_ptr);
        st.next_chunk = 0;
        st.total_chunks = chunks;
        st.completed = 0;
        pool.work_cv.notify_all();
        st.epoch
    };
    if dispatch_start.is_some() {
        dgr_obs::status_queue_depth(chunks as u64);
    }
    run_job_chunks(pool, job_ptr, epoch);
    let mut st = pool.state.lock().expect("pool poisoned");
    while st.completed < st.total_chunks {
        st = pool.done_cv.wait(st).expect("pool poisoned");
    }
    st.job = None;
    drop(st);
    if let Some(start) = dispatch_start {
        let ns = start.elapsed().as_nanos() as u64;
        let m = pool_metrics();
        m.jobs_dispatched.add(1);
        m.busy_ns.add(ns);
        m.dispatch_ns.record(ns);
        dgr_obs::status_queue_depth(0);
    }
}

/// A raw pointer that may cross thread boundaries. Used to hand each
/// chunk a disjoint mutable window of a shared buffer.
pub(crate) struct SendPtr<T>(pub(crate) *mut T);

// Manual impls: the derive would require `T: Copy`, but copying the
// *pointer* never copies the pointee.
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

// SAFETY: every use partitions the pointee into per-chunk disjoint ranges.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// The wrapped pointer. Kernels must go through this method rather
    /// than the field: edition-2021 closures capture used fields
    /// individually, and a captured bare `*mut T` strips the wrapper's
    /// `Send`/`Sync`.
    pub(crate) fn get(self) -> *mut T {
        self.0
    }
}

/// Splits `0..num_items` into [`num_threads`] contiguous chunks and runs
/// `f(range)` for each on the pool. Falls back to one sequential
/// `f(0..num_items)` call when `total_elems` is below [`PAR_THRESHOLD`]
/// or a single thread is configured.
///
/// `f` must write only to locations owned by its item range, so results
/// are independent of which worker runs which chunk.
pub(crate) fn par_blocks<F>(num_items: usize, total_elems: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    let threads = num_threads();
    if num_items == 0 {
        return;
    }
    if total_elems < PAR_THRESHOLD || threads <= 1 {
        pool_metrics().seq_fallbacks.add(1);
        f(0..num_items);
        return;
    }
    let chunk = num_items.div_ceil(threads);
    let chunks = num_items.div_ceil(chunk);
    run_chunks(chunks, &|c| {
        let lo = c * chunk;
        let hi = (lo + chunk).min(num_items);
        f(lo..hi);
    });
}

/// Runs `f(range)` over contiguous subranges of `0..len` — the dispatch
/// skeleton behind the chunked slice kernels in [`crate::kernels`].
///
/// Below [`PAR_THRESHOLD`] elements (or with one thread) the whole range
/// is processed sequentially; otherwise chunks run on the worker pool.
/// `f` must write only to locations owned by its range, so placement is
/// independent of which worker executes a chunk (bit-stable across
/// thread counts for elementwise kernels).
pub(crate) fn par_apply<F>(len: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    let threads = num_threads();
    if len < PAR_THRESHOLD || threads <= 1 {
        pool_metrics().seq_fallbacks.add(1);
        f(0..len);
        return;
    }
    let chunk = len.div_ceil(threads);
    let chunks = len.div_ceil(chunk);
    run_chunks(chunks, &|c| {
        let lo = c * chunk;
        let hi = (lo + chunk).min(len);
        f(lo..hi);
    });
}

/// Applies `f(global_index, &mut out[i])` over `out` in parallel chunks.
///
/// `f` must be pure per element — the index-to-value mapping cannot depend
/// on other output elements. Bit-reproducible across all thread counts
/// (no reduction is involved).
pub fn par_map_mut<F>(out: &mut [f32], f: F)
where
    F: Fn(usize, &mut f32) + Sync,
{
    let threads = num_threads();
    if out.len() < PAR_THRESHOLD || threads <= 1 {
        pool_metrics().seq_fallbacks.add(1);
        for (i, v) in out.iter_mut().enumerate() {
            f(i, v);
        }
        return;
    }
    let len = out.len();
    let chunk = len.div_ceil(threads);
    let chunks = len.div_ceil(chunk);
    let base = SendPtr(out.as_mut_ptr());
    run_chunks(chunks, &move |c| {
        let lo = c * chunk;
        let hi = (lo + chunk).min(len);
        // SAFETY: chunks index disjoint ranges of `out`, which outlives
        // the dispatch.
        let slice = unsafe { std::slice::from_raw_parts_mut(base.get().add(lo), hi - lo) };
        for (i, v) in slice.iter_mut().enumerate() {
            f(lo + i, v);
        }
    });
}

/// Runs `f(i)` for every `i in 0..n` on the pool and collects the results
/// **in index order** — the task fan-out primitive behind the route
/// pipeline's front end (candidate generation, forest build, extraction
/// scans).
///
/// Unlike the dense kernels, items here are heterogeneous tasks (a 2-pin
/// net next to a 9-pin Steiner problem), so the index space is split into
/// roughly four chunks per thread and claimed by work stealing. Every
/// result lands in its own output slot, so — like the pure maps — the
/// returned vector is **bit-identical for any thread count**; no
/// reduction is involved. Falls back to a sequential map below `min_par`
/// items or when one thread is configured.
pub fn par_indexed<T, F>(n: usize, min_par: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = num_threads();
    if n < min_par || threads <= 1 {
        pool_metrics().seq_fallbacks.add(1);
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(threads * 4).max(1);
    let chunks = n.div_ceil(chunk);
    let mut out: Vec<Option<T>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let base = SendPtr(out.as_mut_ptr());
    run_chunks(chunks, &move |c| {
        let lo = c * chunk;
        let hi = (lo + chunk).min(n);
        for i in lo..hi {
            // SAFETY: chunks cover disjoint index ranges of `out`, which
            // outlives the dispatch; slot i is written exactly once.
            unsafe { *base.get().add(i) = Some(f(i)) };
        }
    });
    out.into_iter()
        .map(|v| v.expect("every chunk completed"))
        .collect()
}

/// Reusable per-chunk partial buffers for scatter-add reductions, kept
/// across dispatches so the hot training loop stops allocating
/// `threads × out.len()` floats every iteration.
static PARTIALS_CACHE: Mutex<Vec<Vec<f32>>> = Mutex::new(Vec::new());

fn take_partials(chunks: usize, len: usize) -> Vec<Vec<f32>> {
    let mut cache = PARTIALS_CACHE.lock().expect("scratch poisoned");
    let mut bufs: Vec<Vec<f32>> = Vec::with_capacity(chunks);
    while bufs.len() < chunks {
        bufs.push(cache.pop().unwrap_or_default());
    }
    drop(cache);
    for b in &mut bufs {
        b.clear();
        b.resize(len, 0.0);
    }
    bufs
}

fn return_partials(bufs: Vec<Vec<f32>>) {
    const LIMIT: usize = 256;
    let mut cache = PARTIALS_CACHE.lock().expect("scratch poisoned");
    for b in bufs {
        if cache.len() < LIMIT {
            cache.push(b);
        }
    }
}

/// Borrows a zeroed `len`-element f32 scratch buffer from the executor's
/// cache (the same pool [`par_scatter_add`] reuses for its reduction
/// partials). Return it with [`return_scratch`] when done so hot loops —
/// the backward pass, the extraction phases — stop paying a heap
/// allocation per iteration.
pub fn take_scratch(len: usize) -> Vec<f32> {
    let mut b = {
        let mut cache = PARTIALS_CACHE.lock().expect("scratch poisoned");
        cache.pop().unwrap_or_default()
    };
    b.clear();
    b.resize(len, 0.0);
    b
}

/// Returns a buffer borrowed via [`take_scratch`] to the executor cache.
pub fn return_scratch(buf: Vec<f32>) {
    return_partials(vec![buf]);
}

/// Parallel scatter-add: `out[idx[i]] += vals[i]` for all `i`.
///
/// Parallelized with per-chunk partial output buffers merged in chunk
/// order, so the result is bit-reproducible for a fixed thread count.
/// Falls back to the sequential loop for small inputs (or when partial
/// buffers would cost more than they save).
///
/// # Panics
///
/// Panics if `idx.len() != vals.len()` or any index is out of range
/// (callers validate indices at graph-construction time).
pub fn par_scatter_add(out: &mut [f32], idx: &[u32], vals: &[f32]) {
    assert_eq!(idx.len(), vals.len(), "scatter operands disagree");
    let threads = num_threads();
    // Partial buffers cost threads × out.len() writes; only profitable for
    // large entry counts relative to the output size.
    if idx.len() < PAR_THRESHOLD || threads <= 1 || out.len() * threads > idx.len() * 4 {
        pool_metrics().seq_fallbacks.add(1);
        crate::kernels::scatter_add(out, idx, vals);
        return;
    }
    let chunk = idx.len().div_ceil(threads);
    let chunks = idx.len().div_ceil(chunk);
    let mut partials = take_partials(chunks, out.len());
    let parts = SendPtr(partials.as_mut_ptr());
    run_chunks(chunks, &move |c| {
        // SAFETY: chunk c exclusively owns partials[c].
        let part: &mut Vec<f32> = unsafe { &mut *parts.get().add(c) };
        let lo = c * chunk;
        let hi = (lo + chunk).min(idx.len());
        crate::kernels::scatter_add(part, &idx[lo..hi], &vals[lo..hi]);
    });
    for part in &partials {
        crate::kernels::axpy(out, part, 1.0);
    }
    return_partials(partials);
}

/// Parallel `dst[i] += k * src[i]` — the backward kernel of the linear
/// ops. Bit-reproducible across all thread counts.
///
/// # Panics
///
/// Panics if the slices' lengths differ.
pub fn par_axpy(dst: &mut [f32], src: &[f32], k: f32) {
    assert_eq!(dst.len(), src.len(), "axpy operands disagree");
    let base = SendPtr(dst.as_mut_ptr());
    par_apply(src.len(), move |r| {
        // SAFETY: par_apply ranges are disjoint and dst outlives it.
        let d = unsafe { std::slice::from_raw_parts_mut(base.get().add(r.start), r.len()) };
        crate::kernels::axpy(d, &src[r], k);
    });
}

/// Parallel sum with per-chunk partials merged in chunk order
/// (bit-reproducible for a fixed thread count). Per-chunk bodies use the
/// lane-striped [`crate::kernels::sum`].
pub fn par_sum(x: &[f32]) -> f32 {
    par_reduce(x.len(), |lo, hi| crate::kernels::sum(&x[lo..hi]))
}

/// Parallel dot product against a constant weight vector, chunk partials
/// merged in chunk order (bit-reproducible for a fixed thread count).
/// Per-chunk bodies use the lane-striped [`crate::kernels::dot`].
///
/// # Panics
///
/// Panics if the slices' lengths differ.
pub fn par_dot(x: &[f32], w: &[f32]) -> f32 {
    assert_eq!(x.len(), w.len(), "dot operands disagree");
    par_reduce(x.len(), |lo, hi| {
        crate::kernels::dot(&x[lo..hi], &w[lo..hi])
    })
}

/// Chunked reduction skeleton: `partial(lo, hi)` per chunk, partials
/// summed in chunk order.
fn par_reduce<F>(len: usize, partial: F) -> f32
where
    F: Fn(usize, usize) -> f32 + Sync,
{
    let threads = num_threads();
    if len < PAR_THRESHOLD || threads <= 1 {
        pool_metrics().seq_fallbacks.add(1);
        return partial(0, len);
    }
    let chunk = len.div_ceil(threads);
    let chunks = len.div_ceil(chunk);
    let mut partials = vec![0.0f32; chunks];
    let parts = SendPtr(partials.as_mut_ptr());
    run_chunks(chunks, &move |c| {
        let lo = c * chunk;
        let hi = (lo + chunk).min(len);
        // SAFETY: chunk c exclusively owns partials[c].
        unsafe { *parts.get().add(c) = partial(lo, hi) };
    });
    partials.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential() {
        let mut a = vec![0.0f32; 100_000];
        let mut b = vec![0.0f32; 100_000];
        par_map_mut(&mut a, |i, v| *v = (i as f32).sin());
        for (i, v) in b.iter_mut().enumerate() {
            *v = (i as f32).sin();
        }
        assert_eq!(a, b);
    }

    #[test]
    fn scatter_add_matches_sequential() {
        let n = 200_000;
        let idx: Vec<u32> = (0..n).map(|i| ((i * 7919) % 1000) as u32).collect();
        let vals: Vec<f32> = (0..n).map(|i| (i % 13) as f32 * 0.5).collect();
        set_num_threads(3); // force the partial-buffer path
        let mut par = vec![0.0f32; 1000];
        par_scatter_add(&mut par, &idx, &vals);
        set_num_threads(0);
        let mut seq = vec![0.0f32; 1000];
        for (&i, &v) in idx.iter().zip(&vals) {
            seq[i as usize] += v;
        }
        // summation order differs → equality up to float associativity
        for (p, s) in par.iter().zip(&seq) {
            assert!((p - s).abs() <= 1e-3 * s.abs().max(1.0), "{p} vs {s}");
        }
    }

    #[test]
    fn scatter_add_empty_is_noop() {
        let mut out = vec![1.0f32; 4];
        par_scatter_add(&mut out, &[], &[]);
        assert_eq!(out, vec![1.0; 4]);
    }

    #[test]
    fn thread_override_roundtrip() {
        set_num_threads(2);
        assert_eq!(num_threads(), 2);
        set_num_threads(0);
        assert!(num_threads() >= 1);
    }

    /// Forces the multi-threaded code path (the host may have one core):
    /// repeated runs at a fixed thread count are bit-identical, and
    /// different counts agree up to float associativity. Pure maps carry
    /// no reduction, so they are bit-identical across counts too.
    #[test]
    fn determinism_across_runs_and_thread_counts() {
        let n = 300_000;
        let idx: Vec<u32> = (0..n).map(|i| ((i * 31 + 7) % 5000) as u32).collect();
        let vals: Vec<f32> = (0..n).map(|i| ((i % 97) as f32) * 0.37).collect();
        let run = |threads: usize| {
            set_num_threads(threads);
            let mut out = vec![0.0f32; 5000];
            par_scatter_add(&mut out, &idx, &vals);
            let mut mapped = vec![0.0f32; n];
            par_map_mut(&mut mapped, |i, v| *v = vals[i] * 2.0 + 1.0);
            set_num_threads(0);
            (out, mapped)
        };
        let (scatter4a, map4a) = run(4);
        let (scatter4b, map4b) = run(4);
        assert_eq!(scatter4a, scatter4b, "same thread count must be bit-stable");
        assert_eq!(map4a, map4b);
        let (scatter1, map1) = run(1);
        assert_eq!(map1, map4a, "maps have no reduction: bit-identical");
        for (a, b) in scatter1.iter().zip(&scatter4a) {
            assert!((a - b).abs() <= 0.01 * a.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn pool_survives_many_small_dispatches() {
        // thousands of dispatches through the persistent pool: it must
        // not leak threads or deadlock.
        set_num_threads(4);
        let mut out = vec![0.0f32; PAR_THRESHOLD + 1];
        for round in 0..2000 {
            let k = round as f32;
            par_map_mut(&mut out, |i, v| *v = k + i as f32);
            assert_eq!(out[0], k);
            assert_eq!(out[PAR_THRESHOLD], k + PAR_THRESHOLD as f32);
        }
        set_num_threads(0);
    }

    #[test]
    fn reductions_are_chunk_stable() {
        let x: Vec<f32> = (0..200_000).map(|i| ((i % 31) as f32) * 0.125).collect();
        let w: Vec<f32> = (0..200_000).map(|i| ((i % 17) as f32) * 0.25).collect();
        set_num_threads(4);
        let s4a = par_sum(&x);
        let s4b = par_sum(&x);
        let d4a = par_dot(&x, &w);
        let d4b = par_dot(&x, &w);
        set_num_threads(1);
        let s1 = par_sum(&x);
        let d1 = par_dot(&x, &w);
        set_num_threads(0);
        assert_eq!(s4a, s4b, "fixed thread count must be bit-stable");
        assert_eq!(d4a, d4b);
        assert!((s4a - s1).abs() <= 1e-3 * s1.abs().max(1.0));
        assert!((d4a - d1).abs() <= 1e-3 * d1.abs().max(1.0));
    }

    #[test]
    fn axpy_accumulates() {
        let src: Vec<f32> = (0..40_000).map(|i| i as f32).collect();
        let mut dst = vec![1.0f32; 40_000];
        set_num_threads(3);
        par_axpy(&mut dst, &src, 0.5);
        set_num_threads(0);
        for (i, d) in dst.iter().enumerate() {
            assert_eq!(*d, 1.0 + 0.5 * i as f32);
        }
    }

    #[test]
    fn par_indexed_is_index_ordered_and_thread_count_invariant() {
        let n = 10_000;
        let expect: Vec<Vec<u64>> = (0..n).map(|i| vec![i as u64, (i * i) as u64]).collect();
        for threads in [1, 2, 8] {
            set_num_threads(threads);
            let got = par_indexed(n, 1, |i| vec![i as u64, (i * i) as u64]);
            assert_eq!(got, expect, "threads={threads}");
        }
        set_num_threads(0);
    }

    #[test]
    fn par_indexed_respects_min_par_and_empty() {
        assert!(par_indexed(0, 1, |i| i).is_empty());
        assert_eq!(par_indexed(5, 100, |i| i * 3), vec![0, 3, 6, 9, 12]);
    }
}
