//! Training-throughput benchmark: measures iterations/second of the
//! tape executor on one cost model, with a span-sourced per-phase
//! breakdown, and writes `BENCH_train.json`.
//!
//! Usage: `bench_train [--fast]`. Environment overrides:
//! `DGR_BENCH_NETS` (default 4000), `DGR_BENCH_ITERS` (default 100),
//! `DGR_BENCH_THREADS` (default: machine parallelism), `DGR_BENCH_OUT`
//! (default `BENCH_train.json`).

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use dgr_autodiff::parallel;
use dgr_autodiff::Adam;
use dgr_core::{build_cost_model, extract_solution, DgrConfig};
use dgr_io::{IspdLikeConfig, IspdLikeGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Measurement {
    iters_per_sec: f64,
    forward_ms: f64,
    backward_ms: f64,
    graph_bytes: usize,
}

/// Per-phase mean milliseconds sourced from the `dgr-obs` span registry
/// (the run records `forward`/`backward`/`adam` spans per iteration plus
/// one `extract` span).
struct Phases {
    forward_ms: f64,
    backward_ms: f64,
    adam_ms: f64,
    extract_ms: f64,
}

fn phases_from_spans() -> Phases {
    let mean_ms = |name: &str| {
        dgr_obs::span_totals()
            .iter()
            .find(|t| t.name == name)
            .map(|t| t.mean().as_secs_f64() * 1e3)
            .unwrap_or(0.0)
    };
    Phases {
        forward_ms: mean_ms("forward"),
        backward_ms: mean_ms("backward"),
        adam_ms: mean_ms("adam"),
        extract_ms: mean_ms("extract"),
    }
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn measure(design: &dgr_grid::Design, cfg: &DgrConfig, iters: usize) -> Measurement {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let pools: Vec<_> = design
        .nets
        .iter()
        .map(|n| dgr_rsmt::tree_candidates(&n.pins, &cfg.candidates).expect("pins"))
        .collect();
    let forest = dgr_dag::build_forest(&design.grid, &pools, cfg.patterns).expect("in grid");
    let mut model = build_cost_model(design, &forest, cfg, &mut rng);
    let mut adam = Adam::new(&model.graph, cfg.learning_rate);
    // Warm up: first dispatch spawns the pool's worker threads.
    model.graph.forward();
    model.graph.backward(model.loss);
    let mut forward = Duration::ZERO;
    let mut backward = Duration::ZERO;
    let start = Instant::now();
    for _ in 0..iters {
        let t = Instant::now();
        {
            let _s = dgr_obs::span("train", "forward");
            model.graph.forward();
        }
        forward += t.elapsed();
        let t = Instant::now();
        {
            let _s = dgr_obs::span("train", "backward");
            model.graph.backward(model.loss);
        }
        backward += t.elapsed();
        let _s = dgr_obs::span("train", "adam");
        adam.step(&mut model.graph);
    }
    let total = start.elapsed();
    // One extraction so the phase table covers the full route pipeline
    // (extract_solution records its own `extract` span).
    extract_solution(design, &forest, &mut model, cfg).expect("extract");
    Measurement {
        iters_per_sec: iters as f64 / total.as_secs_f64(),
        forward_ms: forward.as_secs_f64() * 1e3 / iters as f64,
        backward_ms: backward.as_secs_f64() * 1e3 / iters as f64,
        graph_bytes: model.graph.bytes(),
    }
}

fn main() {
    let fast = dgr_bench::fast_flag();
    let nets = env_usize("DGR_BENCH_NETS", if fast { 1000 } else { 4000 });
    let iters = env_usize("DGR_BENCH_ITERS", if fast { 30 } else { 100 });
    let out_path =
        std::env::var("DGR_BENCH_OUT").unwrap_or_else(|_| "BENCH_train.json".to_string());
    let side = ((nets as f64).sqrt() * 1.5).round() as u32;
    let design = IspdLikeGenerator::new(IspdLikeConfig {
        width: side.max(32),
        height: side.max(32),
        num_nets: nets,
        ..IspdLikeConfig::default()
    })
    .generate()
    .expect("valid config");
    let cfg = DgrConfig::default();
    if let Some(t) = std::env::var("DGR_BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        parallel::set_num_threads(t);
    }
    let threads = parallel::num_threads();
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let oversubscribed = threads > host_cpus;
    if oversubscribed {
        eprintln!(
            "bench_train: WARNING: {threads} worker threads on {host_cpus} host cpu(s) — \
             oversubscribed, timings measure scheduling overhead as well as work"
        );
    }

    println!("bench_train: {nets} nets, {iters} iters, {threads} threads ({host_cpus} host cpus)");
    dgr_obs::reset();
    dgr_obs::set_enabled(true);
    let run = measure(&design, &cfg, iters);
    dgr_obs::set_enabled(false);
    let phases = phases_from_spans();
    println!(
        "  executor: {:8.2} iters/s  (fwd {:.3} ms, bwd {:.3} ms)  graph: {} bytes",
        run.iters_per_sec, run.forward_ms, run.backward_ms, run.graph_bytes
    );
    println!(
        "  phase means: fwd {:.3} ms, bwd {:.3} ms, adam {:.3} ms, extract {:.3} ms",
        phases.forward_ms, phases.backward_ms, phases.adam_ms, phases.extract_ms
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"iters_per_sec\": {:.3},", run.iters_per_sec);
    let _ = writeln!(json, "  \"forward_ms\": {:.4},", run.forward_ms);
    let _ = writeln!(json, "  \"backward_ms\": {:.4},", run.backward_ms);
    let _ = writeln!(json, "  \"graph_bytes\": {},", run.graph_bytes);
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(json, "  \"oversubscribed\": {oversubscribed},");
    let _ = writeln!(json, "  \"nets\": {nets},");
    let _ = writeln!(json, "  \"iterations\": {iters},");
    let _ = writeln!(
        json,
        "  \"phases\": {{ \"forward_ms\": {:.4}, \"backward_ms\": {:.4}, \"adam_ms\": {:.4}, \"extract_ms\": {:.4} }}",
        phases.forward_ms, phases.backward_ms, phases.adam_ms, phases.extract_ms
    );
    let _ = writeln!(json, "}}");
    std::fs::write(&out_path, json).expect("write benchmark report");
    println!("wrote {out_path}");
}
