//! Independent f64 re-implementations of the solver's cost semantics.
//!
//! Nothing here shares code with `dgr-autodiff` or `dgr-core`: the
//! expected cost is recomputed from the forest accessors in plain f64
//! loops, and the discrete replay walks path corners unit step by unit
//! step instead of reading the forest's path→edge CSR. Agreement between
//! the two implementations is the whole point — a shared helper would be
//! a shared bug.

use dgr_autodiff::Activation;
use dgr_core::DgrConfig;
use dgr_dag::DagForest;
use dgr_grid::{Design, Point};

/// Logit value marking the selected candidate in a one-hot comparison.
///
/// `softmax` subtracts the group max before exponentiating, so with the
/// selected logit at `ONE_HOT` and the rest at zero the f32 softmax is
/// *exactly* one-hot: `exp(-60)` underflows against `1.0` in both f32
/// and f64. That makes the relaxed cost at these logits the discrete
/// cost of the selection, not an approximation of it.
pub const ONE_HOT: f32 = 60.0;

/// Scalar outputs of one cost evaluation, in f64.
#[derive(Debug, Clone)]
pub struct RefCost {
    /// Expected (or discrete) total wirelength.
    pub wl: f64,
    /// Expected via cost, already scaled by √L.
    pub via: f64,
    /// Σ_e f((d_e − cap_e)/scale).
    pub overflow: f64,
    /// `a₃·overflow + a₂·via + a₁·wl`.
    pub loss: f64,
    /// Per-edge demand `d_e` (wire + ½β endpoint-split via pressure).
    pub demand: Vec<f64>,
}

/// Evaluates `activation` in f64, mirroring the f32 formulas in
/// `dgr_autodiff::activation` (including the exp clamp and the CELU /
/// leaky-ReLU constants).
pub fn activation_f64(a: Activation, x: f64) -> f64 {
    match a {
        Activation::Relu => x.max(0.0),
        Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        Activation::LeakyRelu => {
            if x > 0.0 {
                x
            } else {
                0.01 * x
            }
        }
        Activation::Exp => x.min(20.0).exp(),
        Activation::Celu => x.max(0.0) + ((x.min(0.0)).exp() - 1.0).min(0.0),
    }
}

/// The frozen per-design data an f64 evaluation needs.
pub struct RefModel<'a> {
    design: &'a Design,
    forest: &'a DagForest,
    weights: (f64, f64, f64), // (wirelength, via, overflow)
    activation: Activation,
    overflow_scale: f64,
    /// (cell_a, cell_b, β_a, β_b) per edge, for the endpoint split.
    edge_ends: Vec<(usize, usize, f64, f64)>,
}

impl<'a> RefModel<'a> {
    /// Captures the pieces of `cfg` the forward pass depends on.
    pub fn new(design: &'a Design, forest: &'a DagForest, cfg: &DgrConfig) -> Self {
        let grid = &design.grid;
        let mut edge_ends = Vec::with_capacity(grid.num_edges());
        for e in grid.edge_ids() {
            let (pa, pb) = grid.edge_endpoints(e);
            let ia = grid.cell_id(pa).expect("endpoint in grid");
            let ib = grid.cell_id(pb).expect("endpoint in grid");
            edge_ends.push((
                ia.index(),
                ib.index(),
                design.capacity.beta(ia) as f64,
                design.capacity.beta(ib) as f64,
            ));
        }
        RefModel {
            design,
            forest,
            weights: (
                cfg.weights.wirelength as f64,
                cfg.weights.via as f64,
                cfg.weights.overflow as f64,
            ),
            activation: cfg.activation,
            overflow_scale: cfg.overflow_scale as f64,
            edge_ends,
        }
    }

    /// Full f64 forward pass over the same leaves the tape reads:
    /// `z = (w + noise)/τ`, per-group softmax, `qp = p·q`, expected
    /// wirelength/vias/demand, activated overflow, weighted loss.
    pub fn eval(
        &self,
        w_tree: &[f32],
        w_path: &[f32],
        noise_tree: &[f32],
        noise_path: &[f32],
        temperature: f32,
    ) -> RefCost {
        let forest = self.forest;
        let tau = temperature as f64;

        let q = softmax_groups(w_tree, noise_tree, tau, forest.num_nets(), |n| {
            forest.trees_of_net(n)
        });
        let p = softmax_groups(w_path, noise_path, tau, forest.num_subnets(), |s| {
            forest.paths_of_subnet(s)
        });

        let num_paths = forest.num_paths();
        let mut qp = vec![0.0f64; num_paths];
        for (i, qp_i) in qp.iter_mut().enumerate() {
            *qp_i = p[i] * q[forest.tree_of_path(i)];
        }

        let mut wl = 0.0f64;
        let mut turns = 0.0f64;
        for (i, &m) in qp.iter().enumerate() {
            wl += m * forest.path_wirelength(i) as f64;
            turns += m * forest.path_turn_count(i) as f64;
        }
        let via = turns * (self.design.num_layers as f64).sqrt();

        let grid = &self.design.grid;
        let mut wire = vec![0.0f64; grid.num_edges()];
        let mut vp = vec![0.0f64; grid.num_cells()];
        for (i, &m) in qp.iter().enumerate() {
            for &e in forest.path_edges(i) {
                wire[e as usize] += m;
            }
            for &c in forest.path_vias(i) {
                vp[c as usize] += m;
            }
        }
        self.finish(wl, via, wire, vp)
    }

    /// Discrete replay of a selection: walks each chosen path's corners
    /// unit step by unit step (independently of the forest's path→edge
    /// CSR) and computes the same Eq. (9)–(12) metrics on the result.
    pub fn discrete(&self, sel: &Selection) -> RefCost {
        let forest = self.forest;
        let grid = &self.design.grid;
        let mut wl = 0.0f64;
        let mut turns = 0.0f64;
        let mut wire = vec![0.0f64; grid.num_edges()];
        let mut vp = vec![0.0f64; grid.num_cells()];
        for &(subnet, path) in &sel.path_of_subnet {
            let corners = path_corners(forest, grid, subnet, path);
            for w in corners.windows(2) {
                wl += w[0].manhattan_distance(w[1]) as f64;
                let mut p = w[0];
                while p != w[1] {
                    let step =
                        Point::new(p.x + (w[1].x - p.x).signum(), p.y + (w[1].y - p.y).signum());
                    let e = grid.edge_between(p, step).expect("unit step in grid");
                    wire[e.index()] += 1.0;
                    p = step;
                }
            }
            for c in &corners[1..corners.len().saturating_sub(1)] {
                turns += 1.0;
                vp[grid.cell_id(*c).expect("corner in grid").index()] += 1.0;
            }
        }
        let via = turns * (self.design.num_layers as f64).sqrt();
        self.finish(wl, via, wire, vp)
    }

    fn finish(&self, wl: f64, via: f64, wire: Vec<f64>, vp: Vec<f64>) -> RefCost {
        let cap = self.design.capacity.as_slice();
        let mut demand = wire;
        let mut overflow = 0.0f64;
        for (e, d) in demand.iter_mut().enumerate() {
            let (ia, ib, ba, bb) = self.edge_ends[e];
            *d += 0.5 * ba * vp[ia] + 0.5 * bb * vp[ib];
            let slack = (*d - cap[e] as f64) / self.overflow_scale;
            overflow += activation_f64(self.activation, slack);
        }
        let (a1, a2, a3) = self.weights;
        RefCost {
            wl,
            via,
            overflow,
            loss: a3 * overflow + a2 * via + a1 * wl,
            demand,
        }
    }
}

/// Max-subtracting softmax per group, all in f64.
fn softmax_groups(
    w: &[f32],
    noise: &[f32],
    tau: f64,
    groups: usize,
    range_of: impl Fn(usize) -> std::ops::Range<usize>,
) -> Vec<f64> {
    let mut out = vec![0.0f64; w.len()];
    for g in 0..groups {
        let r = range_of(g);
        let z: Vec<f64> = r
            .clone()
            .map(|i| (w[i] as f64 + noise[i] as f64) / tau)
            .collect();
        let max = z.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = z.iter().map(|&v| (v - max).exp()).collect();
        let sum: f64 = exps.iter().sum();
        for (i, e) in r.zip(exps) {
            out[i] = e / sum;
        }
    }
    out
}

/// The corner list of one path: subnet endpoint, each turning cell in
/// stored order, the far endpoint. Mirrors the extractor's
/// `realize_path`.
pub fn path_corners(
    forest: &DagForest,
    grid: &dgr_grid::GcellGrid,
    subnet: usize,
    path: usize,
) -> Vec<Point> {
    let (a, b) = forest.subnet_endpoints(subnet);
    let mut corners = vec![a];
    for &c in forest.path_vias(path) {
        corners.push(grid.cell_point(dgr_grid::GcellId(c)));
    }
    if b != a {
        corners.push(b);
    }
    corners
}

/// One discrete choice: a tree per net and a path per subnet of the
/// chosen trees.
#[derive(Debug, Clone)]
pub struct Selection {
    /// Global tree index chosen for each net, in net order.
    pub tree_of_net: Vec<usize>,
    /// `(subnet, path)` pairs, one per subnet of every chosen tree.
    pub path_of_subnet: Vec<(usize, usize)>,
}

/// Enumerates every selectable (tree, path…) combination of the forest,
/// stopping after `cap` selections. Returns the selections and whether
/// enumeration was truncated.
pub fn enumerate_selections(forest: &DagForest, cap: usize) -> (Vec<Selection>, bool) {
    let mut out = Vec::new();
    let mut current = Selection {
        tree_of_net: Vec::new(),
        path_of_subnet: Vec::new(),
    };
    let truncated = walk_nets(forest, 0, &mut current, &mut out, cap);
    (out, truncated)
}

fn walk_nets(
    forest: &DagForest,
    net: usize,
    current: &mut Selection,
    out: &mut Vec<Selection>,
    cap: usize,
) -> bool {
    if out.len() >= cap {
        return true;
    }
    if net == forest.num_nets() {
        out.push(current.clone());
        return false;
    }
    let mut truncated = false;
    for t in forest.trees_of_net(net) {
        current.tree_of_net.push(t);
        let before = current.path_of_subnet.len();
        truncated |= walk_subnets(forest, net, forest.subnets_of_tree(t), current, out, cap);
        current.path_of_subnet.truncate(before);
        current.tree_of_net.pop();
        if out.len() >= cap {
            return true;
        }
    }
    truncated
}

fn walk_subnets(
    forest: &DagForest,
    net: usize,
    mut subnets: std::ops::Range<usize>,
    current: &mut Selection,
    out: &mut Vec<Selection>,
    cap: usize,
) -> bool {
    match subnets.next() {
        None => walk_nets(forest, net + 1, current, out, cap),
        Some(s) => {
            let mut truncated = false;
            for path in forest.paths_of_subnet(s) {
                current.path_of_subnet.push((s, path));
                truncated |= walk_subnets(forest, net, subnets.clone(), current, out, cap);
                current.path_of_subnet.pop();
                if out.len() >= cap {
                    return true;
                }
            }
            truncated
        }
    }
}

/// Builds the one-hot logit buffers for a selection: `ONE_HOT` at every
/// chosen tree and path, zero elsewhere (subnets of unchosen trees keep
/// uniform logits — their joint mass underflows to exactly zero).
pub fn one_hot_logits(forest: &DagForest, sel: &Selection) -> (Vec<f32>, Vec<f32>) {
    let mut w_tree = vec![0.0f32; forest.num_trees()];
    for &t in &sel.tree_of_net {
        w_tree[t] = ONE_HOT;
    }
    let mut w_path = vec![0.0f32; forest.num_paths()];
    for &(_, p) in &sel.path_of_subnet {
        w_path[p] = ONE_HOT;
    }
    (w_tree, w_path)
}

/// The maze engine exactly as it stood before `dgr_grid::maze` moved to
/// generation-stamped scratch buffers and packed heap keys: fresh
/// `dist`/`prev` vectors per call, `(f32, state)` heap entries ordered by
/// `total_cmp`, and edge ids through `GcellGrid::edge_between`. Kept
/// verbatim so the optimised engine can be checked for identical output.
#[cfg(test)]
pub(crate) mod maze {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use dgr_grid::maze::{compress_corners, MazeConfig};
    use dgr_grid::{EdgeId, GcellGrid, Point, Rect};

    #[derive(PartialEq)]
    struct HeapKey(f32);

    impl Eq for HeapKey {}
    impl PartialOrd for HeapKey {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for HeapKey {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.total_cmp(&other.0)
        }
    }

    /// Reference single-pair search: same contract as `dgr_grid::maze_route`.
    pub(crate) fn reference_maze_route<F>(
        grid: &GcellGrid,
        from: Point,
        to: Point,
        edge_cost: F,
        cfg: &MazeConfig,
    ) -> Option<Vec<Point>>
    where
        F: Fn(EdgeId) -> f32,
    {
        if !grid.contains(from) || !grid.contains(to) {
            return None;
        }
        if from == to {
            return Some(vec![from]);
        }
        let bounds = {
            let b = cfg
                .bounds
                .unwrap_or_else(|| grid.bounds())
                .inflate_clamped(0, grid.bounds());
            // make sure both terminals are inside
            Rect::new(
                Point::new(b.lo.x.min(from.x).min(to.x), b.lo.y.min(from.y).min(to.y)),
                Point::new(b.hi.x.max(from.x).max(to.x), b.hi.y.max(from.y).max(to.y)),
            )
        };
        let w = bounds.width() as i32;
        let h = bounds.height() as i32;
        let n = (w * h) as usize;
        let local =
            |p: Point| -> usize { ((p.y - bounds.lo.y) * w + (p.x - bounds.lo.x)) as usize };

        // state = local cell × incoming axis (0 horizontal, 1 vertical)
        let mut dist = vec![f32::INFINITY; n * 2];
        let mut prev: Vec<u32> = vec![u32::MAX; n * 2];
        let mut heap = BinaryHeap::new();
        for axis in 0..2 {
            dist[local(from) * 2 + axis] = 0.0;
            heap.push(Reverse((HeapKey(0.0), (local(from) * 2 + axis) as u32)));
        }

        const DIRS: [(i32, i32, usize); 4] = [(1, 0, 0), (-1, 0, 0), (0, 1, 1), (0, -1, 1)];
        let mut goal_state = None;
        while let Some(Reverse((HeapKey(d), state))) = heap.pop() {
            let state = state as usize;
            if d > dist[state] {
                continue;
            }
            let cell = state / 2;
            let axis = state % 2;
            let p = Point::new(
                bounds.lo.x + (cell as i32 % w),
                bounds.lo.y + (cell as i32 / w),
            );
            if p == to {
                goal_state = Some(state);
                break;
            }
            for &(dx, dy, new_axis) in &DIRS {
                let q = Point::new(p.x + dx, p.y + dy);
                if !bounds.contains(q) {
                    continue;
                }
                let e = grid.edge_between(p, q).expect("neighbor in grid");
                let step = edge_cost(e);
                if !step.is_finite() {
                    continue;
                }
                let turn = if axis != new_axis && d > 0.0 {
                    cfg.turn_cost
                } else {
                    0.0
                };
                let nd = d + step + turn;
                let ns = local(q) * 2 + new_axis;
                if nd < dist[ns] {
                    dist[ns] = nd;
                    prev[ns] = state as u32;
                    heap.push(Reverse((HeapKey(nd), ns as u32)));
                }
            }
        }

        let mut state = goal_state?;
        let mut cells = vec![to];
        while prev[state] != u32::MAX {
            state = prev[state] as usize;
            let cell = state / 2;
            let p = Point::new(
                bounds.lo.x + (cell as i32 % w),
                bounds.lo.y + (cell as i32 / w),
            );
            cells.push(p);
        }
        cells.reverse();
        debug_assert_eq!(cells[0], from);
        Some(compress_corners(&cells))
    }

    mod tests {
        use super::*;
        use dgr_grid::maze_route;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// A seeded edge-cost field: ties at 1.0, fractional costs,
        /// overflow-penalty-scale costs and blocked edges.
        fn cost_field(grid: &GcellGrid, rng: &mut StdRng) -> Vec<f32> {
            (0..grid.num_edges())
                .map(|_| match rng.gen_range(0..10u32) {
                    0..=3 => 1.0,
                    4 | 5 => rng.gen_range(0.05f32..1.0),
                    6 | 7 => 1.0 + 1000.0 * rng.gen_range(0.0f32..1.0),
                    8 => 1000.0 * rng.gen_range(1..4u32) as f32,
                    _ => f32::INFINITY,
                })
                .collect()
        }

        fn rand_point(grid: &GcellGrid, rng: &mut StdRng) -> Point {
            Point::new(
                rng.gen_range(0..grid.width() as i32),
                rng.gen_range(0..grid.height() as i32),
            )
        }

        /// No window, a window grown around the terminals, or an arbitrary
        /// in-grid window that need not contain them.
        fn window(grid: &GcellGrid, a: Point, b: Point, rng: &mut StdRng) -> Option<Rect> {
            match rng.gen_range(0..3u32) {
                0 => None,
                1 => Some(
                    Rect::bounding(&[a, b]).inflate_clamped(rng.gen_range(0..4), grid.bounds()),
                ),
                _ => Some(Rect::bounding(&[
                    rand_point(grid, rng),
                    rand_point(grid, rng),
                ])),
            }
        }

        /// The search rectangle `maze_route` documents: the window clamped to
        /// the grid, grown to contain both terminals.
        fn search_rect(grid: &GcellGrid, a: Point, b: Point, window: Option<Rect>) -> Rect {
            let r = window
                .unwrap_or_else(|| grid.bounds())
                .inflate_clamped(0, grid.bounds());
            Rect::bounding(&[r.lo, r.hi, a, b])
        }

        /// Cheapest cost over (cell, incoming axis) states by f64
        /// Bellman–Ford, charging `turn` on every axis change away from `a`.
        fn bellman_ford(
            grid: &GcellGrid,
            cost: &[f32],
            a: Point,
            b: Point,
            rect: Rect,
            turn: f64,
        ) -> Option<f64> {
            let cells: Vec<Point> = rect.cells().collect();
            let index = |p: Point| cells.iter().position(|&c| c == p);
            let mut dist = vec![f64::INFINITY; cells.len() * 2];
            let start = index(a).expect("terminal in rect");
            dist[start * 2] = 0.0;
            dist[start * 2 + 1] = 0.0;
            for _ in 0..dist.len() {
                let mut changed = false;
                for (i, &p) in cells.iter().enumerate() {
                    for axis in 0..2 {
                        let d = dist[i * 2 + axis];
                        if d.is_infinite() {
                            continue;
                        }
                        for (q, new_axis) in [
                            (Point::new(p.x + 1, p.y), 0),
                            (Point::new(p.x - 1, p.y), 0),
                            (Point::new(p.x, p.y + 1), 1),
                            (Point::new(p.x, p.y - 1), 1),
                        ] {
                            let Some(j) = index(q) else { continue };
                            let e = if new_axis == 0 {
                                grid.h_edge(p.x.min(q.x), p.y)
                            } else {
                                grid.v_edge(p.x, p.y.min(q.y))
                            }
                            .expect("in grid");
                            let c = f64::from(cost[e.index()]);
                            if !c.is_finite() {
                                continue;
                            }
                            let t = if axis != new_axis && p != a {
                                turn
                            } else {
                                0.0
                            };
                            if d + c + t < dist[j * 2 + new_axis] {
                                dist[j * 2 + new_axis] = d + c + t;
                                changed = true;
                            }
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            let goal = index(b).expect("terminal in rect");
            let best = dist[goal * 2].min(dist[goal * 2 + 1]);
            best.is_finite().then_some(best)
        }

        /// f64 cost of a corner polyline: every unit edge plus one turn
        /// charge per interior corner.
        fn polyline_cost(grid: &GcellGrid, cost: &[f32], corners: &[Point], turn: f64) -> f64 {
            let wire: f64 = corners
                .windows(2)
                .flat_map(|w| grid.edges_on_segment(w[0], w[1]).expect("in grid"))
                .map(|e| f64::from(cost[e.index()]))
                .sum();
            wire + turn * corners.len().saturating_sub(2) as f64
        }

        #[test]
        fn maze_engine_matches_reference_and_bellman_ford() {
            let mut rng = StdRng::seed_from_u64(0x3A2E_0001);
            let mut bf_checked = 0;
            for case in 0..600 {
                // alternate large and tiny instances on one thread so a
                // stale stamp or an undersized scratch table would surface
                let side = |rng: &mut StdRng| {
                    if case % 2 == 0 {
                        rng.gen_range(12..=24u32)
                    } else {
                        rng.gen_range(2..=6u32)
                    }
                };
                let grid = GcellGrid::new(side(&mut rng), side(&mut rng)).expect("≥ 2");
                let cost = cost_field(&grid, &mut rng);
                for _ in 0..3 {
                    let a = rand_point(&grid, &mut rng);
                    let b = rand_point(&grid, &mut rng);
                    let turn_cost = match rng.gen_range(0..3u32) {
                        0 => 0.0,
                        1 => rng.gen_range(1..=3u32) as f32,
                        _ => rng.gen_range(0.0f32..3.0),
                    };
                    let cfg = MazeConfig {
                        bounds: window(&grid, a, b, &mut rng),
                        turn_cost,
                    };
                    let edge_cost = |e: EdgeId| cost[e.index()];
                    let got = maze_route(&grid, a, b, edge_cost, &cfg);
                    let want = reference_maze_route(&grid, a, b, edge_cost, &cfg);
                    assert_eq!(got, want, "case {case}: {a:?}→{b:?} {cfg:?} on {grid:?}");

                    if grid.width() > 6 || grid.height() > 6 {
                        continue;
                    }
                    bf_checked += 1;
                    let turn = f64::from(turn_cost);
                    let rect = search_rect(&grid, a, b, cfg.bounds);
                    let best = bellman_ford(&grid, &cost, a, b, rect, turn);
                    match (&got, best) {
                        (None, None) => {}
                        (Some(path), Some(best)) => {
                            assert_eq!((path[0], path[path.len() - 1]), (a, b));
                            assert!(path.iter().all(|&p| rect.contains(p)));
                            let c = polyline_cost(&grid, &cost, path, turn);
                            assert!(
                                (c - best).abs() <= crate::tol::COST_REL * best.max(1.0),
                                "case {case}: path cost {c} vs Bellman–Ford {best}"
                            );
                        }
                        _ => panic!("case {case}: engine {got:?} vs Bellman–Ford {best:?}"),
                    }
                }
            }
            assert!(
                bf_checked > 500,
                "only {bf_checked} Bellman–Ford checks ran"
            );
        }
    }
}
