//! Discrete read-out of the optimized probabilities (Section 4.5).
//!
//! * **Trees**: the highest-probability candidate per net — after
//!   temperature annealing these probabilities are close to one-hot.
//! * **Paths**: top-p candidate sets (rank by probability, take until the
//!   cumulative mass passes the threshold), then a greedy congestion-aware
//!   pick inside each set against the demand committed so far. With
//!   [`ExtractionMode::Argmax`] the set degenerates to the single most
//!   probable path (the Table-1 read-out).
//!
//! The greedy/rip-up phases run against [`FastDemand`], a flat-array
//! mirror of [`DemandMap`] with the per-edge endpoint cells, `½β`
//! coefficients, capacities, and per-cell incident-edge lists resolved
//! once up front: every `total(e)` in the hot loops is three loads and
//! two multiply-adds instead of an endpoint → cell-id walk, and commits
//! traverse the forest's precomputed per-path edge/via lists instead of
//! re-deriving edges from corner polylines. All expressions keep the
//! [`DemandMap`] evaluation order, so picks are bit-identical to the
//! map-backed read-out.

use dgr_autodiff::parallel::{par_indexed, par_map_mut, return_scratch, take_scratch};
use dgr_dag::DagForest;
use dgr_grid::{DemandMap, Design, EdgeId, GcellId};

use crate::config::{DgrConfig, ExtractionMode};
use crate::relax::CostModel;
use crate::solution::{NetRoute, RoutePath, RoutingSolution, SolutionMetrics};
use crate::{DgrError, NET_PAR_MIN};

/// Below this many g-cell edges the overflow raster is computed on the
/// calling thread.
const EDGE_PAR_MIN: usize = 4096;

/// A net's extraction plan — everything about its read-out that does not
/// depend on the demand committed by earlier nets, computed in parallel:
/// the argmax tree and, per subnet of that tree, the ranked candidate set
/// the serial greedy pass chooses from.
struct NetPlan {
    tree: usize,
    sets: Vec<Vec<usize>>,
}

/// Flat-array demand state for the extraction hot loops.
///
/// Geometry (`end_*`, `coeff_*`, `cap_e`, the incident-edge CSR) is
/// resolved once per extraction; `wire`/`vp` are borrowed from the
/// executor scratch pool so repeated extractions (adaptive rounds, batch
/// read-outs) reuse the same allocations.
struct FastDemand {
    /// Per-edge wire demand (mirror of [`DemandMap`]'s wire array).
    wire: Vec<f32>,
    /// Per-cell via pressure.
    vp: Vec<f32>,
    /// Endpoint cell ids of each edge.
    end_a: Vec<u32>,
    end_b: Vec<u32>,
    /// `½β` of the respective endpoint cell.
    coeff_a: Vec<f32>,
    coeff_b: Vec<f32>,
    /// Per-edge capacity.
    cap_e: Vec<f32>,
    /// Per-cell `½β` (the via-pressure share a turn adds to each
    /// incident edge).
    share: Vec<f32>,
    /// Per-cell incident-edge CSR, in [`dgr_grid::GcellGrid::incident_edges`]
    /// order so greedy cost accumulation keeps the legacy float order.
    inc_off: Vec<u32>,
    inc_edges: Vec<u32>,
}

impl FastDemand {
    fn new(design: &Design) -> Self {
        let grid = &design.grid;
        let cap = &design.capacity;
        let num_edges = grid.num_edges();
        let num_cells = grid.num_cells();
        let mut end_a = Vec::with_capacity(num_edges);
        let mut end_b = Vec::with_capacity(num_edges);
        let mut coeff_a = Vec::with_capacity(num_edges);
        let mut coeff_b = Vec::with_capacity(num_edges);
        let mut cap_e = Vec::with_capacity(num_edges);
        for e in grid.edge_ids() {
            let (pa, pb) = grid.edge_endpoints(e);
            let ia = grid.cell_id(pa).expect("endpoint in grid");
            let ib = grid.cell_id(pb).expect("endpoint in grid");
            end_a.push(ia.0);
            end_b.push(ib.0);
            coeff_a.push(0.5 * cap.beta(ia));
            coeff_b.push(0.5 * cap.beta(ib));
            cap_e.push(cap.capacity(e));
        }
        let mut share = Vec::with_capacity(num_cells);
        let mut inc_off = Vec::with_capacity(num_cells + 1);
        let mut inc_edges = Vec::new();
        inc_off.push(0u32);
        for c in 0..num_cells {
            let cell = GcellId(c as u32);
            share.push(0.5 * cap.beta(cell));
            let p = grid.cell_point(cell);
            inc_edges.extend(grid.incident_edges(p).map(|e| e.0));
            inc_off.push(inc_edges.len() as u32);
        }
        FastDemand {
            wire: take_scratch(num_edges),
            vp: take_scratch(num_cells),
            end_a,
            end_b,
            coeff_a,
            coeff_b,
            cap_e,
            share,
            inc_off,
            inc_edges,
        }
    }

    /// Eq. (2) total demand of edge `e` — bit-identical to
    /// [`DemandMap::total`] (`½β` is pre-folded; `0.5 * β * vp` parses as
    /// `(0.5·β)·vp`, so folding preserves every rounding).
    #[inline]
    fn total(&self, e: usize) -> f32 {
        self.wire[e]
            + self.coeff_a[e] * self.vp[self.end_a[e] as usize]
            + self.coeff_b[e] * self.vp[self.end_b[e] as usize]
    }

    /// Commits path `i` (unit wire demand per edge, one turn per via
    /// cell). `+1.0` on integer-valued f32 is exact, so commit order
    /// cannot perturb later reads.
    fn commit(&mut self, forest: &DagForest, i: usize) {
        for &e in forest.path_edges(i) {
            self.wire[e as usize] += 1.0;
        }
        for &v in forest.path_vias(i) {
            self.vp[v as usize] += 1.0;
        }
    }

    /// Rips up path `i`.
    fn uncommit(&mut self, forest: &DagForest, i: usize) {
        for &e in forest.path_edges(i) {
            self.wire[e as usize] -= 1.0;
        }
        for &v in forest.path_vias(i) {
            self.vp[v as usize] -= 1.0;
        }
    }

    /// The per-edge overflow mask of the committed demand — a pure
    /// per-edge read, computed in parallel, bit-identical at any thread
    /// count.
    fn overflow_mask(&self) -> Vec<bool> {
        par_indexed(self.cap_e.len(), EDGE_PAR_MIN, |e| {
            self.total(e) > self.cap_e[e] + 1e-4
        })
    }

    /// Returns the mutable buffers to the executor scratch pool.
    fn release(self) {
        return_scratch(self.wire);
        return_scratch(self.vp);
    }
}

/// Extracts a discrete 2D solution from a trained model.
///
/// Runs one noise-free forward pass at the final annealed temperature,
/// then realizes the selections net by net, committing demand as it goes
/// (so later greedy picks see earlier commitments).
///
/// # Errors
///
/// Propagates grid errors if a realized path leaves the grid (cannot
/// happen for forests built against the same grid).
pub fn extract_solution(
    design: &Design,
    forest: &DagForest,
    model: &mut CostModel,
    cfg: &DgrConfig,
) -> Result<RoutingSolution, DgrError> {
    let _span = dgr_obs::span("route", "extract");
    // deterministic read-out: no noise, final temperature
    model.graph.data_mut(model.noise_tree).fill(0.0);
    model.graph.data_mut(model.noise_path).fill(0.0);
    let final_temp = cfg.temperature_at(cfg.iterations.saturating_sub(1));
    model.graph.set_data(model.temperature, &[final_temp]);
    model.graph.forward();
    let q = model.graph.value(model.q);
    let p = model.graph.value(model.p);

    let grid = &design.grid;

    // Demand-independent per-path cost (wirelength + via terms of the
    // greedy objective), computed once in parallel instead of per greedy
    // evaluation. The expression matches the serial seed path bit for bit.
    let sqrt_l = (design.num_layers as f32).sqrt();
    let mut static_cost = take_scratch(forest.num_paths());
    par_map_mut(&mut static_cost, |i, v| {
        *v = cfg.weights.wirelength * forest.path_wirelength(i)
            + cfg.weights.via * sqrt_l * forest.path_turn_count(i);
    });

    // Phase 1 (parallel, pure): per-net plans — argmax tree plus ranked
    // candidate sets. Placement is by net index, so the plan vector is
    // identical at any thread count.
    let plans: Vec<NetPlan> = par_indexed(forest.num_nets(), NET_PAR_MIN, |n| {
        let tree = forest
            .trees_of_net(n)
            .max_by(|&a, &b| q[a].total_cmp(&q[b]))
            .expect("net has at least one tree");
        let sets = forest
            .subnets_of_tree(tree)
            .map(|s| match cfg.extraction {
                ExtractionMode::Argmax => vec![forest
                    .paths_of_subnet(s)
                    .max_by(|&a, &b| p[a].total_cmp(&p[b]))
                    .expect("subnet has at least one path")],
                ExtractionMode::TopP { threshold } => top_p_set(forest, s, p, threshold),
            })
            .collect();
        NetPlan { tree, sets }
    });

    // Phase 2 (serial): greedy picks against the demand committed so far —
    // inherently order-dependent, kept in net order. `picks` remembers each
    // route's forest path indices so the rip-up scans below can walk
    // `path_edges` instead of re-deriving edges from corner polylines.
    let mut fd = FastDemand::new(design);
    let mut routes = Vec::with_capacity(forest.num_nets());
    let mut picks: Vec<Vec<usize>> = Vec::with_capacity(forest.num_nets());
    for (n, plan) in plans.into_iter().enumerate() {
        let mut paths = Vec::with_capacity(plan.sets.len());
        let mut net_picks = Vec::with_capacity(plan.sets.len());
        for (s, set) in forest.subnets_of_tree(plan.tree).zip(&plan.sets) {
            let pick = if set.len() == 1 {
                set[0]
            } else {
                greedy_pick(forest, cfg, &fd, &static_cost, set)
            };
            fd.commit(forest, pick);
            paths.push(realize_path(grid, forest, s, pick));
            net_picks.push(pick);
        }
        routes.push(NetRoute {
            net: n,
            tree: plan.tree,
            paths,
        });
        picks.push(net_picks);
    }

    // rip-up/re-pick rounds: nets over congested edges re-choose their
    // paths greedily over the full candidate set of their selected tree.
    // The overflow raster and the victim scan are pure reads of the
    // committed demand — parallel; the re-pick loop commits — serial.
    for _ in 0..cfg.extraction_rounds {
        let over = fd.overflow_mask();
        let victim_mask = par_indexed(routes.len(), NET_PAR_MIN, |n| {
            picks[n]
                .iter()
                .any(|&i| forest.path_edges(i).iter().any(|&e| over[e as usize]))
        });
        let victims: Vec<usize> = (0..routes.len()).filter(|&n| victim_mask[n]).collect();
        if victims.is_empty() {
            break;
        }
        for &n in &victims {
            // rip up
            for &i in &picks[n] {
                fd.uncommit(forest, i);
            }
            // re-pick over all candidates of the selected tree
            let tree = routes[n].tree;
            let mut paths = Vec::with_capacity(routes[n].paths.len());
            let mut net_picks = Vec::with_capacity(routes[n].paths.len());
            for s in forest.subnets_of_tree(tree) {
                let set: Vec<usize> = forest.paths_of_subnet(s).collect();
                let pick = greedy_pick(forest, cfg, &fd, &static_cost, &set);
                fd.commit(forest, pick);
                paths.push(realize_path(grid, forest, s, pick));
                net_picks.push(pick);
            }
            routes[n].paths = paths;
            picks[n] = net_picks;
        }
    }
    fd.release();
    return_scratch(static_cost);

    let mut solution = RoutingSolution {
        routes,
        demand: DemandMap::new(grid),
        metrics: SolutionMetrics {
            total_wirelength: 0,
            total_turns: 0,
            overflow: Default::default(),
        },
        train_report: None,
    };
    // remeasure rebuilds the demand map from the realized polylines —
    // identical to the demand the flat arrays tracked incrementally.
    solution.remeasure(design)?;
    Ok(solution)
}

/// The top-p candidate set of subnet `s`: paths in descending probability
/// until the cumulative mass passes `threshold` (always ≥ 1 path).
fn top_p_set(forest: &DagForest, s: usize, p: &[f32], threshold: f32) -> Vec<usize> {
    let mut ranked: Vec<usize> = forest.paths_of_subnet(s).collect();
    ranked.sort_by(|&a, &b| p[b].total_cmp(&p[a]));
    let mut cum = 0.0f32;
    let mut set = Vec::new();
    for i in ranked {
        set.push(i);
        cum += p[i];
        if cum >= threshold {
            break;
        }
    }
    set
}

/// The per-edge overflow mask of a committed [`DemandMap`] (shared with
/// the adaptive-expansion pass). A pure per-edge read, computed in
/// parallel — bit-identical at any thread count.
pub(crate) fn overflowed_edges(design: &Design, demand: &DemandMap) -> Vec<bool> {
    let grid = &design.grid;
    let cap = &design.capacity;
    par_indexed(grid.num_edges(), EDGE_PAR_MIN, |i| {
        let e = EdgeId(i as u32);
        demand.total(grid, cap, e) > cap.capacity(e) + 1e-4
    })
}

/// Greedy pick inside a top-p set: minimize the marginal discrete cost
/// against the demand committed so far. `static_cost[i]` carries the
/// demand-independent wirelength + via terms.
fn greedy_pick(
    forest: &DagForest,
    cfg: &DgrConfig,
    fd: &FastDemand,
    static_cost: &[f32],
    set: &[usize],
) -> usize {
    let mut best = set[0];
    let mut best_cost = f32::INFINITY;
    for &i in set {
        let mut cost = static_cost[i];
        // marginal wire overflow along the path's edges
        for &e in forest.path_edges(i) {
            let e = e as usize;
            let d = fd.total(e);
            let c = fd.cap_e[e];
            cost += cfg.weights.overflow * ((d + 1.0 - c).max(0.0) - (d - c).max(0.0));
        }
        // marginal via-pressure overflow around the turn cells
        for &v in forest.path_vias(i) {
            let v = v as usize;
            let share = fd.share[v];
            for &e in &fd.inc_edges[fd.inc_off[v] as usize..fd.inc_off[v + 1] as usize] {
                let e = e as usize;
                let d = fd.total(e);
                let c = fd.cap_e[e];
                cost += cfg.weights.overflow * ((d + share - c).max(0.0) - (d - c).max(0.0));
            }
        }
        if cost < best_cost {
            best_cost = cost;
            best = i;
        }
    }
    best
}

/// Materializes path `i` of subnet `s` as a corner polyline.
fn realize_path(grid: &dgr_grid::GcellGrid, forest: &DagForest, s: usize, i: usize) -> RoutePath {
    let (a, b) = forest.subnet_endpoints(s);
    let mut corners = Vec::with_capacity(forest.path_vias(i).len() + 2);
    corners.push(a);
    for &v in forest.path_vias(i) {
        corners.push(grid.cell_point(GcellId(v)));
    }
    if b != a {
        corners.push(b);
    }
    RoutePath { corners }
}

/// Returns, for diagnostic purposes, whether a probability vector is
/// nearly one-hot within every group of `offsets` (max ≥ `threshold`).
pub fn sharpness(p: &[f32], offsets: &[u32], threshold: f32) -> f64 {
    let groups = offsets.len() - 1;
    if groups == 0 {
        return 1.0;
    }
    let mut sharp = 0usize;
    for g in 0..groups {
        let r = offsets[g] as usize..offsets[g + 1] as usize;
        if r.is_empty() {
            sharp += 1;
            continue;
        }
        let max = p[r].iter().copied().fold(f32::NEG_INFINITY, f32::max);
        if max >= threshold {
            sharp += 1;
        }
    }
    sharp as f64 / groups as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relax::build_cost_model;
    use crate::train::train;
    use dgr_dag::{build_forest, PatternConfig};
    use dgr_grid::{CapacityBuilder, GcellGrid, Net, Point};
    use dgr_rsmt::{tree_candidates, CandidateConfig};
    use rand::{rngs::StdRng, SeedableRng};

    fn routed(tracks: f32, mode: ExtractionMode, seed: u64) -> (Design, RoutingSolution) {
        let grid = GcellGrid::new(8, 8).unwrap();
        let cap = CapacityBuilder::uniform(&grid, tracks)
            .build(&grid)
            .unwrap();
        let design = Design::new(
            grid,
            cap,
            vec![
                Net::new("a", vec![Point::new(0, 0), Point::new(6, 6)]),
                Net::new("b", vec![Point::new(0, 0), Point::new(6, 6)]),
                Net::new("c", vec![Point::new(0, 6), Point::new(6, 0)]),
            ],
            5,
        )
        .unwrap();
        let pools: Vec<_> = design
            .nets
            .iter()
            .map(|n| tree_candidates(&n.pins, &CandidateConfig::single()).unwrap())
            .collect();
        let forest = build_forest(&design.grid, &pools, PatternConfig::l_only()).unwrap();
        let cfg = DgrConfig {
            iterations: 150,
            extraction: mode,
            seed,
            ..DgrConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = build_cost_model(&design, &forest, &cfg, &mut rng);
        train(&mut model, &cfg, &mut rng);
        let sol = extract_solution(&design, &forest, &mut model, &cfg).unwrap();
        (design, sol)
    }

    #[test]
    fn solution_connects_all_subnets_with_minimal_wirelength() {
        let (_, sol) = routed(4.0, ExtractionMode::Argmax, 1);
        assert_eq!(sol.routes.len(), 3);
        for route in &sol.routes {
            assert_eq!(route.paths.len(), 1);
            let p = &route.paths[0];
            assert_eq!(p.wirelength(), 12); // monotone pattern = manhattan
            assert!(p.num_turns() <= 1);
        }
        assert_eq!(sol.metrics.total_wirelength, 36);
    }

    #[test]
    fn top_p_greedy_matches_or_beats_argmax_on_overflow() {
        let (_, am) = routed(1.0, ExtractionMode::Argmax, 3);
        let (_, tp) = routed(1.0, ExtractionMode::TopP { threshold: 0.95 }, 3);
        assert!(
            tp.metrics.overflow.total_overflow <= am.metrics.overflow.total_overflow + 1e-6,
            "top-p {} vs argmax {}",
            tp.metrics.overflow.total_overflow,
            am.metrics.overflow.total_overflow
        );
    }

    #[test]
    fn demand_is_consistent_with_remeasure() {
        let (design, sol) = routed(2.0, ExtractionMode::TopP { threshold: 0.9 }, 5);
        // remeasure from scratch and compare
        let mut copy = sol.clone();
        copy.remeasure(&design).unwrap();
        assert_eq!(copy.metrics.total_wirelength, sol.metrics.total_wirelength);
        assert_eq!(copy.demand.wire_slice(), sol.demand.wire_slice());
    }

    #[test]
    fn fast_demand_total_matches_demand_map_bitwise() {
        let (design, sol) = routed(1.0, ExtractionMode::TopP { threshold: 0.95 }, 7);
        // replay the committed routes into a FastDemand via the forest-free
        // arrays and compare every edge total against DemandMap::total
        let mut fd = FastDemand::new(&design);
        fd.wire.copy_from_slice(sol.demand.wire_slice());
        fd.vp.copy_from_slice(sol.demand.via_pressure_slice());
        let grid = &design.grid;
        let cap = &design.capacity;
        for e in grid.edge_ids() {
            assert_eq!(
                fd.total(e.index()),
                sol.demand.total(grid, cap, e),
                "edge {e:?}"
            );
        }
        let mask = fd.overflow_mask();
        assert_eq!(mask, overflowed_edges(&design, &sol.demand));
        fd.release();
    }

    #[test]
    fn sharpness_reports_one_hot_groups() {
        let p = [0.99f32, 0.01, 0.5, 0.5];
        let offsets = [0u32, 2, 4];
        let s = sharpness(&p, &offsets, 0.9);
        assert!((s - 0.5).abs() < 1e-9);
    }

    #[test]
    fn top_p_set_respects_threshold() {
        let grid = GcellGrid::new(8, 8).unwrap();
        let pool = tree_candidates(
            &[Point::new(0, 0), Point::new(4, 4)],
            &CandidateConfig::single(),
        )
        .unwrap();
        let forest = build_forest(&grid, &[pool], PatternConfig::l_only()).unwrap();
        // two paths with p = [0.8, 0.2]
        let p = vec![0.8f32, 0.2];
        assert_eq!(top_p_set(&forest, 0, &p, 0.7), vec![0]);
        assert_eq!(top_p_set(&forest, 0, &p, 0.9), vec![0, 1]);
        assert_eq!(top_p_set(&forest, 0, &p, 1.0), vec![0, 1]);
    }
}
