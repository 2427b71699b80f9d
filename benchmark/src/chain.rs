//! The public design-text → guide-text chain `dgr route --guide` runs:
//! `parse_design` → `DgrRouter::route` → `refine` → `assign_layers` →
//! `RouteGuide::from_assignment(..).to_text()`, each call timed from
//! outside, plus the output checks every routed design must pass.

use std::time::Instant;

use dgr_core::{DgrConfig, DgrRouter};
use dgr_post::{assign_layers, refine, AssignConfig, RefineConfig, RefineReport};

/// Seconds spent in each public call of one chain run.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallTimes {
    /// `dgr_io::parse_design`.
    pub parse: f64,
    /// `DgrRouter::route`.
    pub route: f64,
    /// `dgr_post::refine`.
    pub refine: f64,
    /// `dgr_post::assign_layers`.
    pub assign: f64,
    /// `RouteGuide::from_assignment(..).to_text()`.
    pub guide: f64,
    /// The whole chain, design text in to guide text out.
    pub wall: f64,
}

/// What one chain run produced.
pub struct ChainOutput {
    /// The route guide text.
    pub guide: String,
    /// `0.5·WL + 4·vias(3D) + 500·total_overflow` after refine.
    pub quality: f64,
    /// Training iterations executed.
    pub iterations: usize,
    /// Refinement summary.
    pub refine: RefineReport,
    /// Per-call timings.
    pub times: CallTimes,
    /// Output-check violations; empty when the result is correct.
    pub violations: Vec<String>,
}

/// The ICCAD'19 cost the paper reports, from its three ingredients.
pub fn quality_score(wirelength: u64, vias: u64, total_overflow: f64) -> f64 {
    0.5 * wirelength as f64 + 4.0 * vias as f64 + 500.0 * total_overflow
}

/// `DgrConfig::default()` with only the iteration count and seed set.
pub fn config(iterations: usize, seed: u64) -> DgrConfig {
    DgrConfig {
        iterations,
        seed,
        ..DgrConfig::default()
    }
}

/// Runs the chain once on `text`. `Err` means a call failed outright;
/// a result that fails a check comes back with `violations` filled.
pub fn run(text: &str, cfg: &DgrConfig) -> Result<ChainOutput, String> {
    let t0 = Instant::now();
    let design = dgr_io::parse_design(text).map_err(|e| format!("parse: {e}"))?;
    let t_parse = Instant::now();
    let mut solution = DgrRouter::new(cfg.clone())
        .route(&design)
        .map_err(|e| format!("route: {e}"))?;
    let t_route = Instant::now();
    let refine_report = refine(&design, &mut solution, RefineConfig::default())
        .map_err(|e| format!("refine: {e}"))?;
    let t_refine = Instant::now();
    let assigned = assign_layers(&design, &solution, AssignConfig::default())
        .map_err(|e| format!("assign_layers: {e}"))?;
    let t_assign = Instant::now();
    let guide_boxes = dgr_post::RouteGuide::from_assignment(&design, &assigned);
    let guide = guide_boxes.to_text();
    let t_guide = Instant::now();

    let mut violations = Vec::new();
    if solution.routes.len() != design.nets.len() {
        violations.push(format!(
            "{} routes for {} nets",
            solution.routes.len(),
            design.nets.len()
        ));
    }
    for (i, (route, net)) in solution.routes.iter().zip(&design.nets).enumerate() {
        let mut pins = net.pins.clone();
        pins.sort_by_key(|p| (p.x, p.y));
        pins.dedup();
        if route.net != i || (pins.len() > 1 && route.paths.is_empty()) {
            violations.push(format!("net {i} ({}) is not routed", net.name));
            break;
        }
    }
    let (final_loss, iterations) = solution
        .train_report
        .as_ref()
        .map_or((f32::NAN, 0), |r| (r.final_loss, r.iterations));
    if !final_loss.is_finite() {
        violations.push(format!("final loss {final_loss} is not finite"));
    }
    if guide_boxes.num_boxes() == 0 || guide.is_empty() {
        violations.push("empty route guide".to_string());
    }
    let m = &solution.metrics;
    let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
    Ok(ChainOutput {
        quality: quality_score(
            m.total_wirelength,
            assigned.total_vias,
            m.overflow.total_overflow,
        ),
        guide,
        iterations,
        refine: refine_report,
        times: CallTimes {
            parse: secs(t0, t_parse),
            route: secs(t_parse, t_route),
            refine: secs(t_route, t_refine),
            assign: secs(t_refine, t_assign),
            guide: secs(t_assign, t_guide),
            wall: secs(t0, t_guide),
        },
        violations,
    })
}
