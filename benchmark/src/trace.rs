//! The traced run: one chain run with `dgr_obs` recording on, split into
//! per-layer numbers. Public calls are timed from outside (see
//! [`crate::chain`]); inside `DgrRouter::route` the split comes from the
//! router's own span totals and the worker pool's counters. Whatever a
//! parent's children do not cover is reported as the parent's `*_other_s`,
//! so children plus gap always sum to the parent.

use std::collections::BTreeMap;

use dgr_core::DgrConfig;
use dgr_obs::MetricValue;

use crate::chain::{self, ChainOutput};
use crate::workload::splitmix64;
use crate::Metrics;

/// Spans of `DgrRouter::route` the split reads.
const ROUTE_SPANS: [&str; 8] = [
    "candidates",
    "forest",
    "relax",
    "train",
    "forward",
    "backward",
    "adam",
    "extract",
];

/// Worker-pool counters the split reads.
const POOL_COUNTERS: [&str; 3] = ["pool.jobs_dispatched", "pool.busy_ns", "pool.seq_fallbacks"];

/// Layer numbers of one traced chain run (or the sum of several).
#[derive(Debug, Clone, Default)]
pub struct Traced {
    /// Externally timed calls: parse, refine, assign, guide, wall.
    pub times: chain::CallTimes,
    /// Span totals in seconds, by span name, for the names that exist.
    pub spans: BTreeMap<&'static str, f64>,
    /// Pool counter readings, by name, for the names that exist.
    pub pool: BTreeMap<&'static str, f64>,
    /// Training iterations executed.
    pub iterations: usize,
    /// Nets refine rerouted.
    pub rerouted: usize,
    /// Overflowed edges refine cleared.
    pub cleared: i64,
    /// Pattern paths in the routing DAG forest.
    pub paths: usize,
}

impl Traced {
    /// Adds `other` into `self` (a multi-design run reports the sum).
    pub fn add(&mut self, other: &Traced) {
        let t = &mut self.times;
        let o = &other.times;
        t.parse += o.parse;
        t.route += o.route;
        t.refine += o.refine;
        t.assign += o.assign;
        t.guide += o.guide;
        t.wall += o.wall;
        for (k, v) in &other.spans {
            *self.spans.entry(k).or_default() += v;
        }
        for (k, v) in &other.pool {
            *self.pool.entry(k).or_default() += v;
        }
        self.iterations += other.iterations;
        self.rerouted += other.rerouted;
        self.cleared += other.cleared;
        self.paths += other.paths;
    }
}

/// Runs the chain once with recording on and collects its layer numbers.
pub fn run(text: &str, cfg: &DgrConfig) -> Result<(ChainOutput, Traced), String> {
    dgr_obs::reset();
    dgr_obs::set_enabled(true);
    let out = chain::run(text, cfg);
    dgr_obs::set_enabled(false);
    let out = out?;
    let spans = dgr_obs::span_totals()
        .into_iter()
        .filter(|t| ROUTE_SPANS.contains(&t.name))
        .map(|t| (t.name, t.total.as_secs_f64()))
        .collect();
    let traced = Traced {
        times: out.times,
        spans,
        pool: pool_counters(),
        iterations: out.iterations,
        rerouted: out.refine.nets_rerouted,
        cleared: out.refine.overflowed_before as i64 - out.refine.overflowed_after as i64,
        paths: forest_paths(text, cfg)?,
    };
    Ok((out, traced))
}

/// Current readings of the pool counters that are registered.
pub fn pool_counters() -> BTreeMap<&'static str, f64> {
    dgr_obs::metrics_snapshot()
        .into_iter()
        .filter(|m| POOL_COUNTERS.contains(&m.name))
        .filter_map(|m| match m.value {
            MetricValue::Counter(c) => Some((m.name, c as f64)),
            _ => None,
        })
        .collect()
}

/// Pattern paths of the forest `DgrRouter::route` builds for `text`,
/// rebuilt from the public candidate and forest calls with the router's
/// candidate configuration and per-net seed derivation (pools are
/// independent of `DgrConfig::seed`).
fn forest_paths(text: &str, cfg: &DgrConfig) -> Result<usize, String> {
    let design = dgr_io::parse_design(text).map_err(|e| format!("parse: {e}"))?;
    let mut base = cfg.candidates.clone();
    base.clamp = Some(design.grid.bounds());
    let pools = design
        .nets
        .iter()
        .enumerate()
        .map(|(i, net)| {
            // the router's per-net seed: splitmix64 of base and index
            let cfg_i = dgr_rsmt::CandidateConfig {
                seed: splitmix64(base.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                ..base.clone()
            };
            dgr_rsmt::tree_candidates(&net.pins, &cfg_i)
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("candidates: {e}"))?;
    let forest = dgr_dag::build_forest(&design.grid, &pools, cfg.patterns)
        .map_err(|e| format!("forest: {e}"))?;
    Ok(forest.num_paths())
}

/// Writes the per-layer split of `t` into `m`. A metric that needs a span
/// or counter the program no longer records is named in `missing` and
/// left out, never reported as 0.
pub fn layer_metrics(t: &Traced, m: &mut Metrics, missing: &mut Vec<String>) {
    for name in ROUTE_SPANS {
        if !t.spans.contains_key(name) {
            missing.push(format!("span `{name}`"));
        }
    }
    for name in POOL_COUNTERS {
        if !t.pool.contains_key(name) {
            missing.push(format!("counter `{name}`"));
        }
    }
    let span =
        |names: &[&str]| -> Option<f64> { names.iter().map(|n| t.spans.get(n).copied()).sum() };
    let times = &t.times;
    m.push("trace.route_s", times.wall, "s");
    let top_other =
        times.wall - (times.parse + times.route + times.refine + times.assign + times.guide);
    m.push("trace.other_s", top_other, "s");
    m.push("io.parse_s", times.parse, "s");
    m.push("core.route_s", times.route, "s");
    m.push("post.refine_s", times.refine, "s");
    m.push("post.assign_s", times.assign, "s");
    m.push("post.guide_s", times.guide, "s");
    m.push("post.refine_nets_rerouted", t.rerouted as f64, "count");
    let yield_ = if t.rerouted == 0 {
        0.0
    } else {
        t.cleared as f64 / t.rerouted as f64
    };
    m.push("post.refine_yield", yield_, "edges/net");
    m.push("dag.paths", t.paths as f64, "count");
    m.opt("rsmt.candidates_s", span(&["candidates"]), "s");
    m.opt("dag.forest_s", span(&["forest"]), "s");
    m.opt("core.relax_s", span(&["relax"]), "s");
    m.opt("core.train_s", span(&["train"]), "s");
    m.opt("core.forward_s", span(&["forward"]), "s");
    m.opt("core.backward_s", span(&["backward"]), "s");
    m.opt("core.adam_s", span(&["adam"]), "s");
    m.opt("core.extract_s", span(&["extract"]), "s");
    let train_other = span(&["train"])
        .zip(span(&["forward", "backward", "adam"]))
        .map(|(train, kids)| train - kids);
    m.opt("core.train_other_s", train_other, "s");
    m.opt(
        "core.iters_per_s",
        span(&["train"]).map(|s| t.iterations as f64 / s),
        "1/s",
    );
    let route_other =
        span(&["candidates", "forest", "relax", "train", "extract"]).map(|kids| times.route - kids);
    m.opt("route.other_s", route_other, "s");
    m.opt(
        "trace.attributed_frac",
        route_other.map(|other| 1.0 - (other + top_other) / times.wall),
        "ratio",
    );
}

/// Writes the worker-pool utilisation over `wall` seconds into `m`.
pub fn pool_metrics(pool: &BTreeMap<&'static str, f64>, wall: f64, m: &mut Metrics) {
    let jobs = pool.get("pool.jobs_dispatched").copied();
    let seq = pool.get("pool.seq_fallbacks").copied();
    m.opt("autodiff.pool_jobs", jobs, "count");
    m.opt(
        "autodiff.pool_busy_frac",
        pool.get("pool.busy_ns").map(|ns| ns / 1e9 / wall),
        "ratio",
    );
    m.opt(
        "autodiff.seq_fallback_frac",
        jobs.zip(seq).map(|(j, s)| s / (j + s).max(1.0)),
        "ratio",
    );
}
