//! The five differential cross-checks.
//!
//! Each check takes a [`CaseSpec`], regenerates the instance from its
//! seed, runs the production implementation and the independent
//! reference, and returns a [`Mismatch`] describing the first
//! disagreement beyond tolerance (see [`crate::tol`] for the policy).

use std::sync::Mutex;

use dgr_autodiff::gumbel::fill_gumbel;
use dgr_autodiff::Activation;
use dgr_core::{build_cost_model, DgrConfig, NetRoute, RoutePath};
use dgr_dag::{build_forest, PatternConfig};
use dgr_grid::{CapacityBuilder, DemandMap, GcellGrid, Point};
use dgr_post::{assign_net_dp, AssignConfig};
use dgr_rsmt::{tree_candidates, CandidateConfig};
use rand::rngs::StdRng;
use rand::Rng;

use crate::brute::{brute_best_assignment, brute_rsmt_length, RootedTree, TreeAssignment};
use crate::gen::{case_rng, gen_design, CaseSpec, CheckKind};
use crate::reference::{enumerate_selections, one_hot_logits, RefModel};
use crate::tol;

/// A differential disagreement: which check failed and a human-readable
/// account of the two values that diverged.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// The check that failed.
    pub check: CheckKind,
    /// What diverged, with both values and the tolerance.
    pub detail: String,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.check, self.detail)
    }
}

/// `set_num_threads` is process-global; callers that flip it serialize
/// on this lock (same pattern as the autodiff determinism tests).
pub static EXEC_LOCK: Mutex<()> = Mutex::new(());

/// Runs the check a spec names. `Ok(())` means the implementations
/// agree within tolerance on this case.
///
/// # Errors
///
/// Returns the first [`Mismatch`] found.
pub fn run_case(spec: &CaseSpec) -> Result<(), Mismatch> {
    match spec.check {
        CheckKind::Rsmt => check_rsmt(spec),
        CheckKind::PathCost => check_path_cost(spec),
        CheckKind::GradCheck => check_gradients(spec),
        CheckKind::DemandReplay => check_demand_replay(spec),
        CheckKind::LayerAssign => check_layer_assign(spec),
    }
}

fn fail(spec: &CaseSpec, detail: String) -> Mismatch {
    Mismatch {
        check: spec.check,
        detail,
    }
}

/// `|a − b| ≤ tol · max(1, |a|, |b|)`.
fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs()).max(1.0)
}

// --- check 1: exact Steiner vs. Hanan brute force --------------------------

fn check_rsmt(spec: &CaseSpec) -> Result<(), Mismatch> {
    let mut rng = case_rng(spec);
    let design = gen_design(spec, &mut rng);
    for net in &design.nets {
        let exact = dgr_rsmt::exact_steiner(&net.pins);
        exact
            .validate()
            .map_err(|e| fail(spec, format!("exact_steiner({:?}) invalid: {e}", net.pins)))?;
        let brute = brute_rsmt_length(&net.pins);
        if exact.length() != brute {
            return Err(fail(
                spec,
                format!(
                    "exact_steiner({:?}) length {} ≠ brute-force optimum {brute}",
                    net.pins,
                    exact.length()
                ),
            ));
        }
        let mst = dgr_rsmt::mst::rmst_length(&net.pins);
        if exact.length() > mst {
            return Err(fail(
                spec,
                format!(
                    "exact_steiner({:?}) length {} beaten by plain MST {mst}",
                    net.pins,
                    exact.length()
                ),
            ));
        }
    }
    Ok(())
}

// --- check 2: relaxed cost at one-hot logits vs. discrete replay -----------

/// Upper bound on enumerated selections per case (the generator keeps
/// real counts far below this; the cap is a safety net).
const MAX_SELECTIONS: usize = 600;

fn check_path_cost(spec: &CaseSpec) -> Result<(), Mismatch> {
    let mut rng = case_rng(spec);
    let design = gen_design(spec, &mut rng);
    let cand = CandidateConfig {
        max_candidates: 2,
        clamp: Some(design.grid.bounds()),
        seed: spec.seed,
        ..CandidateConfig::default()
    };
    let pools: Vec<_> = design
        .nets
        .iter()
        .map(|n| tree_candidates(&n.pins, &cand).expect("non-empty pins"))
        .collect();
    let patterns = if rng.gen_range(0..2) == 0 {
        PatternConfig::l_only()
    } else {
        PatternConfig::with_z(2)
    };
    let forest = build_forest(&design.grid, &pools, patterns).expect("candidates clamped to grid");
    let cfg = DgrConfig {
        initial_temperature: 1.0,
        activation: Activation::ALL[rng.gen_range(0..Activation::ALL.len())],
        overflow_scale: if rng.gen_range(0..2) == 0 { 1.0 } else { 2.0 },
        ..DgrConfig::default()
    };
    let mut model = build_cost_model(&design, &forest, &cfg, &mut rng);
    let reference = RefModel::new(&design, &forest, &cfg);
    let zeros_t = vec![0.0f32; forest.num_trees()];
    let zeros_p = vec![0.0f32; forest.num_paths()];

    let (selections, _truncated) = enumerate_selections(&forest, MAX_SELECTIONS);
    for sel in &selections {
        let (w_tree, w_path) = one_hot_logits(&forest, sel);
        let discrete = reference.discrete(sel);

        // pure-f64 sanity: relaxed cost at one-hot logits IS the
        // discrete cost (softmax underflow makes the mass exactly 0/1)
        let relaxed = reference.eval(&w_tree, &w_path, &zeros_t, &zeros_p, 1.0);
        if !close(relaxed.loss, discrete.loss, tol::ONE_HOT_F64) {
            return Err(fail(
                spec,
                format!(
                    "f64 relaxed loss {} ≠ f64 discrete replay {} at one-hot logits \
                     (selection {:?})",
                    relaxed.loss, discrete.loss, sel.tree_of_net
                ),
            ));
        }

        // the production tape against the independent discrete replay
        model.graph.set_data(model.w_tree, &w_tree);
        model.graph.set_data(model.w_path, &w_path);
        let (loss, overflow, wl, via) = model.evaluate();
        for (name, got, want) in [
            ("loss", loss as f64, discrete.loss),
            ("overflow", overflow as f64, discrete.overflow),
            ("wirelength", wl as f64, discrete.wl),
            ("via", via as f64, discrete.via),
        ] {
            if !close(got, want, tol::COST_REL) {
                return Err(fail(
                    spec,
                    format!(
                        "tape {name} {got} ≠ discrete replay {want} \
                         (selection trees {:?}, paths {:?})",
                        sel.tree_of_net, sel.path_of_subnet
                    ),
                ));
            }
        }
        let tape_demand = model.graph.value(model.demand);
        for (e, (&got, &want)) in tape_demand.iter().zip(&discrete.demand).enumerate() {
            if !close(got as f64, want, tol::COST_REL) {
                return Err(fail(
                    spec,
                    format!("tape demand[{e}] {got} ≠ replayed demand {want}"),
                ));
            }
        }
    }
    Ok(())
}

// --- check 3: tape gradients vs. f64 central differences -------------------

fn check_gradients(spec: &CaseSpec) -> Result<(), Mismatch> {
    let mut rng = case_rng(spec);
    let design = gen_design(spec, &mut rng);
    let cand = CandidateConfig {
        max_candidates: 2,
        clamp: Some(design.grid.bounds()),
        seed: spec.seed,
        ..CandidateConfig::default()
    };
    let pools: Vec<_> = design
        .nets
        .iter()
        .map(|n| tree_candidates(&n.pins, &cand).expect("non-empty pins"))
        .collect();
    let forest = build_forest(&design.grid, &pools, PatternConfig::with_z(2))
        .expect("candidates clamped to grid");
    let cfg = DgrConfig {
        // smooth activations only: FD at a ReLU kink is meaningless
        activation: if rng.gen_range(0..2) == 0 {
            Activation::Sigmoid
        } else {
            Activation::Celu
        },
        overflow_scale: 2.0,
        initial_temperature: [0.5f32, 1.0, 2.0][rng.gen_range(0..3usize)],
        ..DgrConfig::default()
    };
    let mut model = build_cost_model(&design, &forest, &cfg, &mut rng);
    if rng.gen_range(0..2) == 0 {
        let mut noise = vec![0.0f32; forest.num_trees()];
        fill_gumbel(&mut rng, &mut noise);
        model.graph.set_data(model.noise_tree, &noise);
        let mut noise = vec![0.0f32; forest.num_paths()];
        fill_gumbel(&mut rng, &mut noise);
        model.graph.set_data(model.noise_path, &noise);
    }

    let w_tree = model.graph.value(model.w_tree).to_vec();
    let w_path = model.graph.value(model.w_path).to_vec();
    let noise_tree = model.graph.value(model.noise_tree).to_vec();
    let noise_path = model.graph.value(model.noise_path).to_vec();
    let tau = model.graph.value(model.temperature)[0];
    let reference = RefModel::new(&design, &forest, &cfg);
    let eval = |wt: &[f32], wp: &[f32]| -> f64 {
        reference.eval(wt, wp, &noise_tree, &noise_path, tau).loss
    };

    // forward consistency first: a wrong forward makes FD meaningless
    let (tape_loss, ..) = model.evaluate();
    let ref_loss = eval(&w_tree, &w_path);
    if !close(tape_loss as f64, ref_loss, tol::COST_REL) {
        return Err(fail(
            spec,
            format!("tape loss {tape_loss} ≠ f64 reference {ref_loss}"),
        ));
    }

    // f64 central differences on a deterministic coordinate sample
    let h = tol::FD_STEP;
    let fd_at = |buf: &[f32], is_tree: bool, j: usize| -> f64 {
        let mut plus = buf.to_vec();
        let mut minus = buf.to_vec();
        plus[j] += h;
        minus[j] -= h;
        let (lp, lm) = if is_tree {
            (eval(&plus, &w_path), eval(&minus, &w_path))
        } else {
            (eval(&w_tree, &plus), eval(&w_tree, &minus))
        };
        (lp - lm) / (2.0 * h as f64)
    };
    let sample = |len: usize, rng: &mut StdRng| -> Vec<usize> {
        if len <= tol::FD_COORDS {
            (0..len).collect()
        } else {
            (0..tol::FD_COORDS).map(|_| rng.gen_range(0..len)).collect()
        }
    };
    let tree_coords = sample(w_tree.len(), &mut rng);
    let path_coords = sample(w_path.len(), &mut rng);

    model.graph.forward();
    model.graph.backward(model.loss);
    let g_tree = model.graph.grad(model.w_tree);
    let g_path = model.graph.grad(model.w_path);
    for &j in &tree_coords {
        let want = fd_at(&w_tree, true, j);
        let got = g_tree[j] as f64;
        if !close(got, want, tol::GRAD_REL) {
            return Err(fail(
                spec,
                format!("tape ∂loss/∂w_tree[{j}] {got} ≠ central diff {want}"),
            ));
        }
    }
    for &j in &path_coords {
        let want = fd_at(&w_path, false, j);
        let got = g_path[j] as f64;
        if !close(got, want, tol::GRAD_REL) {
            return Err(fail(
                spec,
                format!("tape ∂loss/∂w_path[{j}] {got} ≠ central diff {want}"),
            ));
        }
    }
    Ok(())
}

// --- check 4: incremental demand updates vs. naive recount -----------------

#[derive(Debug, Clone, Copy)]
enum DemandOp {
    Seg(Point, Point),
    Turn(Point),
}

fn check_demand_replay(spec: &CaseSpec) -> Result<(), Mismatch> {
    let mut rng = case_rng(spec);
    let grid = GcellGrid::new(spec.width, spec.height).expect("dims ≥ 3");
    let mut cap_builder = CapacityBuilder::uniform(&grid, spec.tracks);
    for _ in 0..2 {
        let p = Point::new(
            rng.gen_range(0..spec.width as i32),
            rng.gen_range(0..spec.height as i32),
        );
        cap_builder = cap_builder
            .set_beta(&grid, p, [0.5f32, 2.0][rng.gen_range(0..2usize)])
            .expect("cell in grid");
    }
    let cap = cap_builder.build(&grid).expect("same grid");

    let mut demand = DemandMap::new(&grid);
    let mut active: Vec<DemandOp> = Vec::new();
    let rand_point = |rng: &mut StdRng| {
        Point::new(
            rng.gen_range(0..spec.width as i32),
            rng.gen_range(0..spec.height as i32),
        )
    };
    let apply = |demand: &mut DemandMap, op: DemandOp, add: bool| {
        let r = match (op, add) {
            (DemandOp::Seg(a, b), true) => demand.add_segment(&grid, a, b),
            (DemandOp::Seg(a, b), false) => demand.remove_segment(&grid, a, b),
            (DemandOp::Turn(p), true) => demand.add_turn(&grid, p),
            (DemandOp::Turn(p), false) => demand.remove_turn(&grid, p),
        };
        r.expect("generated ops stay in grid");
    };
    for _ in 0..spec.ops {
        if !active.is_empty() && rng.gen_range(0..10) < 3 {
            let idx = rng.gen_range(0..active.len());
            let op = active.swap_remove(idx);
            apply(&mut demand, op, false);
            continue;
        }
        let op = if rng.gen_range(0..4) == 0 {
            DemandOp::Turn(rand_point(&mut rng))
        } else {
            let a = rand_point(&mut rng);
            let horizontal = rng.gen_range(0..2) == 0;
            let b = if horizontal {
                Point::new(rng.gen_range(0..spec.width as i32), a.y)
            } else {
                Point::new(a.x, rng.gen_range(0..spec.height as i32))
            };
            if a == b {
                DemandOp::Turn(a)
            } else {
                DemandOp::Seg(a, b)
            }
        };
        apply(&mut demand, op, true);
        active.push(op);
    }

    // naive recount from the surviving op list, unit step by unit step
    let mut wire = vec![0.0f32; grid.num_edges()];
    let mut vp = vec![0.0f32; grid.num_cells()];
    for op in &active {
        match *op {
            DemandOp::Seg(a, b) => {
                let mut p = a;
                while p != b {
                    let step = Point::new(p.x + (b.x - p.x).signum(), p.y + (b.y - p.y).signum());
                    let e = grid.edge_between(p, step).expect("in grid");
                    wire[e.index()] += 1.0;
                    p = step;
                }
            }
            DemandOp::Turn(p) => {
                vp[grid.cell_id(p).expect("in grid").index()] += 1.0;
            }
        }
    }
    if demand.wire_slice() != wire.as_slice() {
        return Err(fail(
            spec,
            format!(
                "incremental wire demand diverged from recount after {} ops \
                 (first diff at edge {:?})",
                spec.ops,
                demand
                    .wire_slice()
                    .iter()
                    .zip(&wire)
                    .position(|(a, b)| a != b)
            ),
        ));
    }
    if demand.via_pressure_slice() != vp.as_slice() {
        return Err(fail(
            spec,
            "incremental via pressure diverged from recount".to_string(),
        ));
    }
    for e in grid.edge_ids() {
        let got = demand.total(&grid, &cap, e) as f64;
        let (pa, pb) = grid.edge_endpoints(e);
        let ia = grid.cell_id(pa).expect("in grid");
        let ib = grid.cell_id(pb).expect("in grid");
        let want = wire[e.index()] as f64
            + 0.5 * cap.beta(ia) as f64 * vp[ia.index()] as f64
            + 0.5 * cap.beta(ib) as f64 * vp[ib.index()] as f64;
        if !close(got, want, tol::DEMAND_TOTAL_REL) {
            return Err(fail(
                spec,
                format!("total({e:?}) {got} ≠ Eq. (2) recomputation {want}"),
            ));
        }
    }

    // rip everything up: an exact round trip must land on exact zeros
    for op in active.drain(..) {
        apply(&mut demand, op, false);
    }
    if demand.wire_slice().iter().any(|&w| w != 0.0)
        || demand.via_pressure_slice().iter().any(|&v| v != 0.0)
    {
        return Err(fail(
            spec,
            "demand not exactly zero after removing every committed op".to_string(),
        ));
    }
    Ok(())
}

// --- check 5: layer-assignment DP vs. exhaustive enumeration ---------------

/// Product-space cap for the layer brute force; larger cases are
/// vacuously skipped (the generator keeps real cases far below this).
const MAX_LAYER_COMBOS: usize = 65_536;

fn check_layer_assign(spec: &CaseSpec) -> Result<(), Mismatch> {
    let mut rng = case_rng(spec);
    let design = gen_design(spec, &mut rng);
    let net = &design.nets[0];
    let tree = dgr_rsmt::rsmt(&net.pins).expect("non-empty pins");
    let mut paths = Vec::new();
    for (a, b) in tree.subnets() {
        if a.is_aligned_with(b) {
            paths.push(RoutePath {
                corners: vec![a, b],
            });
        } else {
            let (c1, c2) = a.l_corners(b);
            let corner = if rng.gen_range(0..2) == 0 { c1 } else { c2 };
            paths.push(RoutePath {
                corners: vec![a, corner, b],
            });
        }
    }
    let route = NetRoute {
        net: 0,
        tree: 0,
        paths,
    };
    let cfg = AssignConfig {
        overflow_weight: [100.0f32, 500.0][rng.gen_range(0..2usize)],
        via_weight: [1.0f32, 4.0][rng.gen_range(0..2usize)],
        first_horizontal: rng.gen_range(0..2) == 0,
    };
    let num_edges = design.grid.num_edges();
    let mut layer_demand = vec![vec![0.0f32; num_edges]; design.num_layers as usize];
    // pre-commit a few wires so the DP sees non-trivial congestion
    for _ in 0..rng.gen_range(0..=2) {
        let y = rng.gen_range(0..spec.height as i32);
        let x1 = rng.gen_range(1..spec.width as i32);
        let l = rng.gen_range(0..design.num_layers) as usize;
        let mut p = Point::new(0, y);
        while p.x < x1 {
            let step = Point::new(p.x + 1, p.y);
            let e = design.grid.edge_between(p, step).expect("in grid");
            layer_demand[l][e.index()] += 1.0;
            p = step;
        }
    }
    let pre_demand = layer_demand.clone();

    let pins: std::collections::HashSet<Point> = net.pins.iter().copied().collect();
    let asg =
        assign_net_dp(&design, cfg, &route, &pins, &mut layer_demand).expect("route stays in grid");
    if asg.topology.in_tree.iter().any(|&t| !t) {
        // overlapping subnets produced a cycle closer: the DP optimum
        // no longer covers every segment, so the comparison is vacuous
        return Ok(());
    }
    let rooted = match RootedTree::root(&asg.topology) {
        Some(r) => r,
        None => return Ok(()),
    };
    let Some(brute) = brute_best_assignment(
        &design,
        cfg,
        &asg.topology,
        &rooted,
        &pins,
        &pre_demand,
        MAX_LAYER_COMBOS,
    ) else {
        return Ok(());
    };

    // (a) the DP's reported cost is achieved by its returned assignment
    let returned = TreeAssignment {
        root_layer: asg.root_layer,
        seg_layer: asg.net3d.segments.iter().map(|s| s.layer).collect(),
    };
    let achieved = crate::brute::eval_assignment(
        &design,
        cfg,
        &asg.topology,
        &rooted,
        &pins,
        &pre_demand,
        &returned,
    );
    if !close(asg.dp_cost as f64, achieved, tol::DP_REL) {
        return Err(fail(
            spec,
            format!(
                "DP reports cost {} but its returned assignment evaluates to {achieved}",
                asg.dp_cost
            ),
        ));
    }
    // (b) the DP's optimum matches the exhaustive optimum
    if !close(asg.dp_cost as f64, brute, tol::DP_REL) {
        return Err(fail(
            spec,
            format!(
                "DP optimum {} ≠ exhaustive optimum {brute} \
                 ({} tree segments, {} layers)",
                asg.dp_cost,
                asg.topology.segs.len(),
                design.num_layers
            ),
        ));
    }
    Ok(())
}
