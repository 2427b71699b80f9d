//! Micro-benchmark of the chunked 8-lane kernels: SegSoftmax (forward +
//! backward), Gather (forward + scatter backward), and ScatterAdd, at
//! several segment-size distributions, reported as ns/element. Writes
//! `BENCH_kernels.json`.
//!
//! Usage: `bench_kernels [--fast]`. Environment overrides:
//! `DGR_BENCH_ELEMS` (elements per layout, default 262144),
//! `DGR_BENCH_REPS` (timed repetitions, default 50), `DGR_BENCH_OUT`
//! (default `BENCH_kernels.json`).

use std::fmt::Write as _;
use std::time::Instant;

use dgr_autodiff::Segments;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A segment layout: CSR offsets over `total` elements. The
/// distributions mirror what the router's forests produce — many small
/// groups, mixed sizes, a few huge groups — plus the adversarial
/// singleton/empty mix the proptests exercise.
struct Layout {
    name: &'static str,
    offsets: Vec<u32>,
}

fn layouts(total: usize, rng: &mut StdRng) -> Vec<Layout> {
    let mut make = |name: &'static str, mut next: Box<dyn FnMut(&mut StdRng) -> usize>| {
        let mut offsets = vec![0u32];
        let mut at = 0usize;
        while at < total {
            let len = next(rng).min(total - at);
            at += len;
            offsets.push(at as u32);
        }
        Layout { name, offsets }
    };
    vec![
        make("uniform_small", Box::new(|r| r.gen_range(2..8))),
        make("mixed", Box::new(|r| r.gen_range(1..64))),
        make("huge", Box::new(|_| 16_384)),
        make(
            "singleton_empty",
            Box::new(|r| if r.gen_bool(0.3) { 0 } else { 1 }),
        ),
    ]
}

/// Times `f` over `reps` repetitions and returns ns/element.
fn time_ns_per_elem(total: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() * 1e9 / (reps * total) as f64
}

struct KernelRow {
    kernel: &'static str,
    layout: &'static str,
    ns_per_elem: f64,
}

fn bench_layout(layout: &Layout, reps: usize, rng: &mut StdRng) -> Vec<KernelRow> {
    let seg = Segments::from_offsets(layout.offsets.clone()).expect("valid CSR");
    let total = seg.len();
    let x: Vec<f32> = (0..total).map(|_| rng.gen_range(-4.0..4.0)).collect();
    let gout: Vec<f32> = (0..total).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let idx: Vec<u32> = (0..total)
        .map(|_| rng.gen_range(0..total.max(1)) as u32)
        .collect();
    let mut out = vec![0.0f32; total];
    let mut gx = vec![0.0f32; total];

    let mut rows = Vec::new();
    let mut row = |kernel: &'static str, f: &mut dyn FnMut()| {
        rows.push(KernelRow {
            kernel,
            layout: layout.name,
            ns_per_elem: time_ns_per_elem(total, reps, f),
        });
    };

    // SegSoftmax forward: per-segment softmax into `out`.
    row("seg_softmax_fwd", &mut || {
        for s in 0..seg.num_segments() {
            let r = seg.segment(s);
            dgr_autodiff::kernels::softmax_into(&x[r.clone()], &mut out[r]);
        }
    });
    // SegSoftmax backward: fused dot + weighted accumulate per segment.
    row("seg_softmax_bwd", &mut || {
        gx.fill(0.0);
        for s in 0..seg.num_segments() {
            let r = seg.segment(s);
            dgr_autodiff::kernels::seg_softmax_bwd(&out[r.clone()], &gout[r.clone()], &mut gx[r]);
        }
    });
    // Gather forward + its scatter backward.
    row("gather_fwd", &mut || {
        dgr_autodiff::kernels::gather_fwd(&mut out, &x, &idx);
    });
    row("gather_bwd", &mut || {
        gx.fill(0.0);
        dgr_autodiff::kernels::scatter_bwd(&mut gx, &gout, &idx);
    });
    // ScatterAdd forward.
    row("scatter_add", &mut || {
        out.fill(0.0);
        dgr_autodiff::kernels::scatter_add(&mut out, &idx, &x);
    });

    rows
}

fn main() {
    let fast = dgr_bench::fast_flag();
    let total = env_usize("DGR_BENCH_ELEMS", if fast { 65_536 } else { 262_144 });
    let reps = env_usize("DGR_BENCH_REPS", if fast { 20 } else { 50 });
    let out_path =
        std::env::var("DGR_BENCH_OUT").unwrap_or_else(|_| "BENCH_kernels.json".to_string());
    let mut rng = StdRng::seed_from_u64(7);

    println!("bench_kernels: {total} elements/layout, {reps} reps");
    let mut rows = Vec::new();
    for layout in layouts(total, &mut rng) {
        println!(
            "  layout {:<16} ({} segments)",
            layout.name,
            layout.offsets.len() - 1
        );
        for row in bench_layout(&layout, reps, &mut rng) {
            println!("    {:<16} {:7.3} ns/elem", row.kernel, row.ns_per_elem);
            rows.push(row);
        }
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"elements\": {total},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"kernels\": [");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{ \"kernel\": \"{}\", \"layout\": \"{}\", \"ns_per_elem\": {:.4} }}{comma}",
            row.kernel, row.layout, row.ns_per_elem
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    std::fs::write(&out_path, json).expect("write benchmark report");
    println!("wrote {out_path}");
}
