//! The training loop: Adam over the expected cost with temperature
//! annealing and per-iteration Gumbel noise resampling.
//!
//! The loop is instrumented through `dgr-obs` (see [`TrainHooks`]):
//! per-iteration `forward`/`backward`/`adam` spans when the global
//! observability switch is on, per-iteration JSONL telemetry rows when a
//! [`TelemetrySink`] is attached, and a throttled stderr progress line
//! when a [`ProgressConfig`] is attached. With no hooks and observability
//! off, the loop is byte-for-byte the uninstrumented hot path plus one
//! relaxed atomic load per iteration phase.

use std::time::{Duration, Instant};

use dgr_autodiff::{gumbel, Adam};
use dgr_grid::Design;
use dgr_obs::{IterationRow, SnapshotSink, TelemetrySink};
use rand::rngs::StdRng;

use crate::config::DgrConfig;
use crate::memory::rss_bytes;
use crate::relax::CostModel;

/// Maximum number of [`CurvePoint`]s retained in a [`TrainReport`].
pub const CURVE_POINTS: usize = 256;

/// How often the training loop re-reads the process RSS for telemetry
/// (`/proc` reads are microseconds — cheap, but not per-iteration cheap).
const RSS_SAMPLE_INTERVAL: usize = 16;

/// One retained sample of the training trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Iteration index (offset by [`TrainHooks::iter_offset`]).
    pub iter: usize,
    /// Total weighted loss at this iteration.
    pub loss: f32,
    /// Unweighted expected-overflow term at this iteration.
    pub overflow: f32,
}

/// What happened during training — loss trajectory, timings, memory.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Iterations executed.
    pub iterations: usize,
    /// `(iteration, loss)` samples at `loss_record_interval`.
    pub loss_history: Vec<(usize, f32)>,
    /// Downsampled loss/overflow trajectory (≤ [`CURVE_POINTS`] samples,
    /// final iteration always included) retained so comparison tooling
    /// (`dgr compare`, fig5/fig6) does not re-derive it ad hoc.
    pub curve: Vec<CurvePoint>,
    /// Loss of the final iteration.
    pub final_loss: f32,
    /// Final annealed temperature.
    pub final_temperature: f32,
    /// Wall-clock training time.
    pub duration: Duration,
    /// Time spent in forward sweeps across all iterations.
    pub forward_time: Duration,
    /// Time spent in backward sweeps across all iterations.
    pub backward_time: Duration,
    /// Bytes held by the op tape (values + gradients) — the "GPU memory"
    /// analogue reported in the Fig. 5b reproduction.
    pub graph_bytes: usize,
}

/// Throttled stderr progress reporting for long `dgr route` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressConfig {
    /// Print every `every` iterations (the final iteration always
    /// prints).
    pub every: usize,
    /// Minimum wall-clock gap between lines, so tiny fast runs do not
    /// flood stderr.
    pub min_gap: Duration,
}

impl Default for ProgressConfig {
    fn default() -> Self {
        ProgressConfig {
            every: 100,
            min_gap: Duration::from_millis(200),
        }
    }
}

/// Periodic spatial-congestion capture during training: every `every`
/// iterations (plus the final one) the dense Eq. 10 expected demand is
/// frozen into a [`SnapshotRecord`](dgr_obs::SnapshotRecord) on `sink`.
#[derive(Debug)]
pub struct SnapshotProbe<'a> {
    /// Destination snapshot stream.
    pub sink: &'a mut SnapshotSink,
    /// Grid and capacities the demand is measured against.
    pub design: &'a Design,
    /// Capture stride in iterations; `0` disables captures.
    pub every: usize,
}

/// Optional instrumentation threaded through [`train_with_hooks`].
///
/// The default hooks are inert: [`train`] forwards to them, so the
/// uninstrumented call sites behave exactly as before.
#[derive(Debug, Default)]
pub struct TrainHooks<'a> {
    /// Per-iteration JSONL telemetry destination.
    pub telemetry: Option<&'a mut TelemetrySink>,
    /// Periodic spatial congestion snapshots.
    pub snap: Option<SnapshotProbe<'a>>,
    /// Throttled stderr progress line.
    pub progress: Option<ProgressConfig>,
    /// Added to every reported iteration index, so adaptive rounds
    /// continue numbering instead of restarting at zero.
    pub iter_offset: usize,
    /// Skip RSS sampling in telemetry rows (`mem_rss` stays `null`). RSS
    /// is inherently nondeterministic; the determinism tests disable it.
    pub skip_rss: bool,
    /// Cooperative cancellation flag, checked once per iteration (one
    /// relaxed load). When raised, the loop stops before the next
    /// forward pass; the report covers the iterations that ran.
    pub cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    /// Lane tag stamped on telemetry rows, snapshots and progress lines
    /// when several seeds train one after another (`dgr train --batch N`).
    pub lane: Option<u64>,
}

impl TrainHooks<'_> {
    fn is_cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(std::sync::atomic::Ordering::Relaxed))
    }
}

/// Trains `model` in place per `cfg` and returns the report.
///
/// Every iteration: update the temperature leaf from the annealing
/// schedule, resample Gumbel noise (if enabled), forward, backward, Adam
/// step. The graph is never rebuilt.
pub fn train(model: &mut CostModel, cfg: &DgrConfig, rng: &mut StdRng) -> TrainReport {
    train_with_hooks(model, cfg, rng, &mut TrainHooks::default())
}

/// [`train`] with observability hooks: telemetry rows, progress lines,
/// and per-iteration phase spans (`forward` / `backward` / `adam` under
/// the `train` category) recorded when `dgr_obs::enabled()`.
pub fn train_with_hooks(
    model: &mut CostModel,
    cfg: &DgrConfig,
    rng: &mut StdRng,
    hooks: &mut TrainHooks<'_>,
) -> TrainReport {
    let _train_span = dgr_obs::span("train", "train");
    dgr_obs::status_phase("train");
    let start = Instant::now();
    let mut adam = Adam::new(&model.graph, cfg.learning_rate);
    let mut loss_history = Vec::new();
    let mut curve = Vec::new();
    let mut final_loss = f32::NAN;
    let mut forward_time = Duration::ZERO;
    let mut backward_time = Duration::ZERO;
    let mut noise_buf_tree = vec![0.0f32; model.graph.len_of(model.noise_tree)];
    let mut noise_buf_path = vec![0.0f32; model.graph.len_of(model.noise_path)];
    let curve_stride = cfg.iterations.div_ceil(CURVE_POINTS).max(1);
    let mut last_progress: Option<Instant> = None;
    let mut rss_cache: Option<u64> = None;

    for it in 0..cfg.iterations {
        if hooks.is_cancelled() {
            break;
        }
        let temp = cfg.temperature_at(it);
        model.graph.set_data(model.temperature, &[temp]);
        if cfg.gumbel_noise {
            gumbel::fill_gumbel(rng, &mut noise_buf_tree);
            gumbel::fill_gumbel(rng, &mut noise_buf_path);
            model.graph.set_data(model.noise_tree, &noise_buf_tree);
            model.graph.set_data(model.noise_path, &noise_buf_path);
        }
        let fwd_start = Instant::now();
        {
            let _s = dgr_obs::span("train", "forward");
            model.graph.forward();
        }
        forward_time += fwd_start.elapsed();
        let loss = model.graph.value(model.loss)[0];
        final_loss = loss;
        if cfg.loss_record_interval > 0 && it % cfg.loss_record_interval == 0 {
            loss_history.push((it, loss));
        }
        let last_iter = it + 1 == cfg.iterations;
        if it % curve_stride == 0 || last_iter {
            curve.push(CurvePoint {
                iter: hooks.iter_offset + it,
                loss,
                overflow: model.graph.value(model.overflow_cost)[0],
            });
        }
        let bwd_start = Instant::now();
        {
            let _s = dgr_obs::span("train", "backward");
            model.graph.backward(model.loss);
        }
        backward_time += bwd_start.elapsed();
        if let Some(probe) = hooks.snap.as_mut() {
            if probe.every > 0 && (it % probe.every == 0 || last_iter) {
                crate::snapshot::write_dense_snapshot_lane(
                    probe.sink,
                    probe.design,
                    model.graph.value(model.demand),
                    (hooks.iter_offset + it) as u64,
                    "train",
                    hooks.lane,
                );
            }
        }
        // a row is materialized when a sink wants it OR the global obs
        // switch is on (the live /status endpoint feeds off status_tick)
        if hooks.telemetry.is_some() || dgr_obs::enabled() {
            if !hooks.skip_rss && (it % RSS_SAMPLE_INTERVAL == 0 || last_iter) {
                rss_cache = rss_bytes();
            }
            let grad_sq: f32 = model
                .graph
                .grad(model.w_tree)
                .iter()
                .chain(model.graph.grad(model.w_path))
                .map(|g| g * g)
                .sum();
            let row = IterationRow {
                iter: hooks.iter_offset + it,
                loss,
                wl: model.graph.value(model.wl_cost)[0],
                vias: model.graph.value(model.via_cost)[0],
                overflow: model.graph.value(model.overflow_cost)[0],
                temperature: temp,
                grad_norm: grad_sq.sqrt(),
                mem_rss: rss_cache,
                lane: hooks.lane,
            };
            if let Some(sink) = hooks.telemetry.as_deref_mut() {
                sink.record(&row);
            }
            dgr_obs::status_tick(&row);
            dgr_obs::sentinel_tick(&row);
        }
        {
            let _s = dgr_obs::span("train", "adam");
            adam.step(&mut model.graph);
        }
        if let Some(progress) = hooks.progress {
            let due = progress.every > 0 && (it % progress.every == 0 || last_iter);
            let spaced = last_progress.is_none_or(|t| t.elapsed() >= progress.min_gap);
            if due && (spaced || last_iter) {
                last_progress = Some(Instant::now());
                eprintln!(
                    "[dgr] iter {:>6}/{}  loss {:>12.4}  overflow {:>10.4}  elapsed {:.1}s{}",
                    hooks.iter_offset + it,
                    hooks.iter_offset + cfg.iterations,
                    loss,
                    model.graph.value(model.overflow_cost)[0],
                    start.elapsed().as_secs_f64(),
                    hooks
                        .lane
                        .map_or(String::new(), |l| format!("  (lane {l})")),
                );
            }
        }
    }

    if let Some(sink) = hooks.telemetry.as_deref_mut() {
        sink.flush();
    }
    if let Some(probe) = hooks.snap.as_mut() {
        probe.sink.flush();
    }

    TrainReport {
        iterations: cfg.iterations,
        loss_history,
        curve,
        final_loss,
        final_temperature: cfg.temperature_at(cfg.iterations.saturating_sub(1)),
        duration: start.elapsed(),
        forward_time,
        backward_time,
        graph_bytes: model.graph.bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relax::build_cost_model;
    use dgr_dag::{build_forest, PatternConfig};
    use dgr_grid::{CapacityBuilder, Design, GcellGrid, Net, Point};
    use dgr_rsmt::{tree_candidates, CandidateConfig};
    use rand::SeedableRng;

    fn contended_design() -> Design {
        // two nets forced through a 1-track corridor: training must split
        // them across the two L corridors.
        let grid = GcellGrid::new(6, 6).unwrap();
        let cap = CapacityBuilder::uniform(&grid, 1.0).build(&grid).unwrap();
        Design::new(
            grid,
            cap,
            vec![
                Net::new("a", vec![Point::new(0, 0), Point::new(5, 5)]),
                Net::new("b", vec![Point::new(0, 0), Point::new(5, 5)]),
            ],
            5,
        )
        .unwrap()
    }

    #[test]
    fn training_reduces_loss_and_separates_nets() {
        let design = contended_design();
        let pools: Vec<_> = design
            .nets
            .iter()
            .map(|n| tree_candidates(&n.pins, &CandidateConfig::single()).unwrap())
            .collect();
        let forest = build_forest(&design.grid, &pools, PatternConfig::l_only()).unwrap();
        // ReLU gives a crisp separation signal on this symmetric toy; a pure
        // sigmoid is exchange-invariant around the capacity midpoint
        // (σ(1) + σ(−1) = 2σ(0)), so it cannot split two identical nets.
        let cfg = DgrConfig {
            iterations: 200,
            loss_record_interval: 50,
            activation: dgr_autodiff::Activation::Relu,
            ..DgrConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(7);
        let mut model = build_cost_model(&design, &forest, &cfg, &mut rng);
        let report = train(&mut model, &cfg, &mut rng);

        assert_eq!(report.iterations, 200);
        assert_eq!(report.loss_history.len(), 4);
        let first = report.loss_history[0].1;
        assert!(report.final_loss < first, "{first} → {}", report.final_loss);

        // with noise off at readout, the two nets should prefer opposite Ls
        model.graph.set_data(model.noise_path, &[0.0; 4]);
        model.graph.set_data(model.noise_tree, &[0.0; 2]);
        model.graph.forward();
        let p = model.graph.value(model.p);
        let a_choice = p[0] > p[1];
        let b_choice = p[2] > p[3];
        assert_ne!(a_choice, b_choice, "nets did not separate: p = {p:?}");
    }

    #[test]
    fn report_has_finite_numbers_and_memory() {
        let design = contended_design();
        let pools: Vec<_> = design
            .nets
            .iter()
            .map(|n| tree_candidates(&n.pins, &CandidateConfig::single()).unwrap())
            .collect();
        let forest = build_forest(&design.grid, &pools, PatternConfig::l_only()).unwrap();
        let cfg = DgrConfig {
            iterations: 5,
            ..DgrConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = build_cost_model(&design, &forest, &cfg, &mut rng);
        let report = train(&mut model, &cfg, &mut rng);
        assert!(report.final_loss.is_finite());
        assert!(report.graph_bytes > 0);
        assert!((report.final_temperature - 1.0).abs() < 1e-6); // < 100 iters
    }

    #[test]
    fn deterministic_given_seed() {
        let design = contended_design();
        let run = |seed| {
            let pools: Vec<_> = design
                .nets
                .iter()
                .map(|n| tree_candidates(&n.pins, &CandidateConfig::single()).unwrap())
                .collect();
            let forest = build_forest(&design.grid, &pools, PatternConfig::l_only()).unwrap();
            let cfg = DgrConfig {
                iterations: 30,
                ..DgrConfig::default()
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let mut model = build_cost_model(&design, &forest, &cfg, &mut rng);
            train(&mut model, &cfg, &mut rng).final_loss
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6)); // different seeds explore differently
    }
}
