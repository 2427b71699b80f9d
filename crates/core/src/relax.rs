//! Continuous relaxation: the expected-cost computation graph (Eqs. 9–12).
//!
//! The discrete selections `x_i` (paths) and `y_j` (trees) become
//! probabilities `p` and `q` produced by per-group Gumbel-softmax over
//! trainable logits `w`. The expected costs are then:
//!
//! ```text
//! qp_i        = q_tree(i) · p_i                      (joint selection mass)
//! WL_cost     = Σ_i qp_i · WL_i                      (Eq. 11)
//! via_cost    = √L · Σ_i qp_i · TP_i                 (Eq. 12)
//! d_e         = Σ_{i∋e} qp_i + ½(β_u·vp_u + β_v·vp_v)  (Eq. 10)
//! overflow    = Σ_e f(d_e − cap_e)                   (Eq. 9)
//! loss        = a₃·overflow + a₂·via + a₁·WL          (Eq. 3)
//! ```
//!
//! where `vp` is the per-cell via pressure scattered from path turning
//! points, and the `½β` endpoint split matches
//! [`dgr_grid::DemandMap::total`] exactly — the continuous cost is the
//! expectation of the discrete metric.
//!
//! The paper applies `f` to the *resource* `cap − d` with a logistic
//! function; equivalently we apply the activation to `d − cap` (rising in
//! congestion), which is the orientation its ReLU/ILP experiment uses.

use std::sync::Arc;

use dgr_autodiff::{Graph, Segments, VarId};
use dgr_dag::DagForest;
use dgr_grid::Design;
use rand::rngs::StdRng;
use rand::Rng;

use crate::config::DgrConfig;

/// The assembled expected-cost graph plus handles to every tensor the
/// trainer and extractor need.
#[derive(Debug)]
pub struct CostModel {
    /// The op tape.
    pub graph: Graph,
    /// Trainable tree logits (one per tree candidate).
    pub w_tree: VarId,
    /// Trainable path logits (one per path candidate).
    pub w_path: VarId,
    /// Gumbel-noise leaf for tree logits.
    pub noise_tree: VarId,
    /// Gumbel-noise leaf for path logits.
    pub noise_path: VarId,
    /// Temperature scalar leaf.
    pub temperature: VarId,
    /// Tree probabilities `q` (softmax per net).
    pub q: VarId,
    /// Path probabilities `p` (softmax per sub-net).
    pub p: VarId,
    /// Joint mass `q_tree(i)·p_i` per path.
    pub qp: VarId,
    /// Expected per-edge demand `d_e`.
    pub demand: VarId,
    /// Expected per-cell via pressure.
    pub via_pressure: VarId,
    /// Scalar expected wirelength cost.
    pub wl_cost: VarId,
    /// Scalar expected via cost (already scaled by √L).
    pub via_cost: VarId,
    /// Scalar expected overflow cost.
    pub overflow_cost: VarId,
    /// Scalar total loss.
    pub loss: VarId,
}

impl CostModel {
    /// Convenience: run a forward pass and return
    /// `(loss, overflow, wirelength, via)` scalars.
    pub fn evaluate(&mut self) -> (f32, f32, f32, f32) {
        self.graph.forward();
        (
            self.graph.value(self.loss)[0],
            self.graph.value(self.overflow_cost)[0],
            self.graph.value(self.wl_cost)[0],
            self.graph.value(self.via_cost)[0],
        )
    }
}

/// Builds the expected-cost graph for `forest` over `design`'s grid.
///
/// Logits are initialized `Uniform(−0.5, 0.5)` from `rng` (the paper
/// initializes `w` randomly). The graph is built once; training mutates
/// only the leaf buffers.
pub fn build_cost_model(
    design: &Design,
    forest: &DagForest,
    cfg: &DgrConfig,
    rng: &mut StdRng,
) -> CostModel {
    let mut g = Graph::new();

    // --- probabilities ----------------------------------------------------
    let w_tree = g.param(init_logits(rng, forest.num_trees()));
    let w_path = g.param(init_logits(rng, forest.num_paths()));
    let noise_tree = g.input(vec![0.0; forest.num_trees()]);
    let noise_path = g.input(vec![0.0; forest.num_paths()]);
    let temperature = g.input(vec![cfg.initial_temperature]);

    let grid = &design.grid;
    let cap = &design.capacity;
    let num_edges = grid.num_edges();
    let num_cells = grid.num_cells();
    let num_paths = forest.num_paths();

    let tree_seg = Arc::new(
        Segments::from_offsets(forest.net_tree_offsets_slice().to_vec())
            .expect("forest offsets are valid CSR"),
    );
    let path_seg = Arc::new(
        Segments::from_offsets(forest.subnet_path_offsets_slice().to_vec())
            .expect("forest offsets are valid CSR"),
    );

    let zt = g.add(w_tree, noise_tree);
    let zt = g.div_by_scalar(zt, temperature);
    let q = g.segmented_softmax(zt, tree_seg);

    let zp = g.add(w_path, noise_path);
    let zp = g.div_by_scalar(zp, temperature);
    let p = g.segmented_softmax(zp, path_seg);

    let path_tree_idx = Arc::new(forest.path_tree_slice().to_vec());
    let q_per_path = g.gather(q, path_tree_idx);
    let qp = g.mul(p, q_per_path);

    // --- wirelength and via costs -----------------------------------------
    let wl_cost = g.dot_const(qp, Arc::new(forest.path_wl_slice().to_vec()));
    let tp_raw = g.dot_const(qp, Arc::new(forest.path_turns_slice().to_vec()));
    let via_cost = g.scale(tp_raw, (design.num_layers as f32).sqrt());

    // --- demand ------------------------------------------------------------
    // wire demand: expand qp over the path→edge CSR, scatter into edges
    let (pe_offsets, pe_edges) = forest.path_edge_csr();
    let pe_path_idx = expand_csr_owner(pe_offsets, num_paths);
    let pe_vals = g.gather(qp, Arc::new(pe_path_idx));
    let wire_demand = g.scatter_add(pe_vals, Arc::new(pe_edges.to_vec()), num_edges);

    // via pressure: same trick over the path→via-cell CSR
    let (pv_offsets, pv_cells) = forest.path_via_csr();
    let pv_path_idx = expand_csr_owner(pv_offsets, num_paths);
    let pv_vals = g.gather(qp, Arc::new(pv_path_idx));
    let via_pressure = g.scatter_add(pv_vals, Arc::new(pv_cells.to_vec()), num_cells);

    // endpoint split: d_e += ½·β_u·vp_u + ½·β_v·vp_v
    let mut end_a = Vec::with_capacity(num_edges);
    let mut end_b = Vec::with_capacity(num_edges);
    let mut coeff_a = Vec::with_capacity(num_edges);
    let mut coeff_b = Vec::with_capacity(num_edges);
    for e in grid.edge_ids() {
        let (pa, pb) = grid.edge_endpoints(e);
        let ia = grid.cell_id(pa).expect("endpoint in grid");
        let ib = grid.cell_id(pb).expect("endpoint in grid");
        end_a.push(ia.0);
        end_b.push(ib.0);
        coeff_a.push(0.5 * cap.beta(ia));
        coeff_b.push(0.5 * cap.beta(ib));
    }
    let vp_a = g.gather(via_pressure, Arc::new(end_a));
    let vp_a = g.mul_const(vp_a, Arc::new(coeff_a));
    let vp_b = g.gather(via_pressure, Arc::new(end_b));
    let vp_b = g.mul_const(vp_b, Arc::new(coeff_b));
    let via_demand = g.add(vp_a, vp_b);
    let demand = g.add(wire_demand, via_demand);

    // --- overflow ----------------------------------------------------------
    let neg_cap: Vec<f32> = cap.as_slice().iter().map(|&c| -c).collect();
    let slack = g.add_const(demand, Arc::new(neg_cap));
    let slack = if cfg.overflow_scale != 1.0 {
        g.scale(slack, 1.0 / cfg.overflow_scale)
    } else {
        slack
    };
    let f = g.activate(slack, cfg.activation);
    let overflow_cost = g.sum_all(f);

    // --- total -------------------------------------------------------------
    let loss = g.combine(vec![
        (overflow_cost, cfg.weights.overflow),
        (via_cost, cfg.weights.via),
        (wl_cost, cfg.weights.wirelength),
    ]);

    // Run the loss-reachability analysis at build time so the first
    // training iteration pays no planning cost.
    g.prepare_backward(loss);

    CostModel {
        graph: g,
        w_tree,
        w_path,
        noise_tree,
        noise_path,
        temperature,
        q,
        p,
        qp,
        demand,
        via_pressure,
        wl_cost,
        via_cost,
        overflow_cost,
        loss,
    }
}

/// `Uniform(−0.5, 0.5)` logit initialization (the paper initializes `w`
/// randomly).
fn init_logits(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-0.5..0.5)).collect()
}

/// For a CSR with `offsets.len() - 1 == owners` groups, produces the
/// per-entry owner index (entry `k` belongs to group `g` iff
/// `offsets[g] <= k < offsets[g+1]`).
fn expand_csr_owner(offsets: &[u32], num_owners: usize) -> Vec<u32> {
    let total = *offsets.last().expect("non-empty offsets") as usize;
    let mut out = Vec::with_capacity(total);
    for owner in 0..num_owners {
        let count = (offsets[owner + 1] - offsets[owner]) as usize;
        out.extend(std::iter::repeat_n(owner as u32, count));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_dag::{build_forest, PatternConfig};
    use dgr_grid::{CapacityBuilder, GcellGrid, Net, Point};
    use dgr_rsmt::{tree_candidates, CandidateConfig};
    use rand::SeedableRng;

    fn small_design() -> (Design, DagForest) {
        let grid = GcellGrid::new(8, 8).unwrap();
        let cap = CapacityBuilder::uniform(&grid, 2.0).build(&grid).unwrap();
        let nets = vec![
            Net::new("a", vec![Point::new(0, 0), Point::new(5, 4)]),
            Net::new("b", vec![Point::new(1, 5), Point::new(6, 1)]),
        ];
        let design = Design::new(grid, cap, nets, 5).unwrap();
        let pools: Vec<_> = design
            .nets
            .iter()
            .map(|n| tree_candidates(&n.pins, &CandidateConfig::default()).unwrap())
            .collect();
        let forest = build_forest(&design.grid, &pools, PatternConfig::l_only()).unwrap();
        (design, forest)
    }

    #[test]
    fn expand_csr_owner_basics() {
        assert_eq!(expand_csr_owner(&[0, 2, 2, 5], 3), vec![0, 0, 2, 2, 2]);
        assert_eq!(expand_csr_owner(&[0], 0), Vec::<u32>::new());
    }

    #[test]
    fn probabilities_are_normalized_per_group() {
        let (design, forest) = small_design();
        let cfg = DgrConfig::default();
        let mut rng = StdRng::seed_from_u64(3);
        let mut m = build_cost_model(&design, &forest, &cfg, &mut rng);
        m.graph.forward();
        for n in 0..forest.num_nets() {
            let r = forest.trees_of_net(n);
            let sum: f32 = m.graph.value(m.q)[r].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        for s in 0..forest.num_subnets() {
            let r = forest.paths_of_subnet(s);
            let sum: f32 = m.graph.value(m.p)[r].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn expected_demand_matches_hand_computation() {
        // single 2-pin diagonal net with uniform probabilities: each L
        // carries mass 0.5, so each edge on either L sees demand 0.5.
        let grid = GcellGrid::new(6, 6).unwrap();
        let cap = CapacityBuilder::uniform(&grid, 2.0).build(&grid).unwrap();
        let design = Design::new(
            grid,
            cap,
            vec![Net::new("n", vec![Point::new(0, 0), Point::new(3, 3)])],
            5,
        )
        .unwrap();
        let pools =
            vec![tree_candidates(&design.nets[0].pins, &CandidateConfig::single()).unwrap()];
        let forest = build_forest(&design.grid, &pools, PatternConfig::l_only()).unwrap();
        let cfg = DgrConfig::default();
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = build_cost_model(&design, &forest, &cfg, &mut rng);
        // force equal logits → p = [0.5, 0.5]
        m.graph.set_data(m.w_path, &[0.0, 0.0]);
        m.graph.set_data(m.w_tree, &[0.0]);
        m.graph.forward();
        let demand = m.graph.value(m.demand);
        let e = design.grid.h_edge(0, 0).unwrap(); // on the lower L only
                                                   // wire 0.5 plus via pressure share: corner (3,0) carries vp 0.5 but
                                                   // is far from this edge; corner (0,3) likewise → just 0.5.
        assert!((demand[e.index()] - 0.5).abs() < 1e-5);
        // expected wirelength is the exact manhattan distance
        assert!((m.graph.value(m.wl_cost)[0] - 6.0).abs() < 1e-4);
        // one turn at mass 1.0 total, × √5
        let want_via = 5f32.sqrt();
        assert!((m.graph.value(m.via_cost)[0] - want_via).abs() < 1e-4);
    }

    #[test]
    fn overflow_scale_rescales_the_activation_input() {
        let (design, forest) = small_design();
        let mut rng = StdRng::seed_from_u64(4);
        let base_cfg = DgrConfig {
            activation: dgr_autodiff::Activation::Relu,
            ..DgrConfig::default()
        };
        let mut m1 = build_cost_model(&design, &forest, &base_cfg, &mut rng);
        let mut rng = StdRng::seed_from_u64(4);
        let mut scaled_cfg = base_cfg.clone();
        scaled_cfg.overflow_scale = 2.0;
        let mut m2 = build_cost_model(&design, &forest, &scaled_cfg, &mut rng);
        let (_, ov1, ..) = m1.evaluate();
        let (_, ov2, ..) = m2.evaluate();
        // ReLU is positively homogeneous: relu(x/2) = relu(x)/2
        assert!(
            (ov1 / 2.0 - ov2).abs() < 1e-3 * ov1.abs().max(1.0),
            "ov1 {ov1} ov2 {ov2}"
        );
    }

    #[test]
    fn loss_decreases_under_training_pressure() {
        let (design, forest) = small_design();
        let cfg = DgrConfig::default();
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = build_cost_model(&design, &forest, &cfg, &mut rng);
        let (l0, ..) = m.evaluate();
        let mut adam = dgr_autodiff::Adam::new(&m.graph, 0.2);
        for _ in 0..60 {
            m.graph.forward();
            m.graph.backward(m.loss);
            adam.step(&mut m.graph);
        }
        let (l1, ..) = m.evaluate();
        assert!(l1 <= l0, "loss went up: {l0} → {l1}");
    }

    #[test]
    fn empty_design_produces_trivial_model() {
        let grid = GcellGrid::new(4, 4).unwrap();
        let cap = CapacityBuilder::uniform(&grid, 1.0).build(&grid).unwrap();
        let design = Design::new(grid, cap, vec![], 3).unwrap();
        let forest = build_forest(&design.grid, &[], PatternConfig::l_only()).unwrap();
        let cfg = DgrConfig::default();
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = build_cost_model(&design, &forest, &cfg, &mut rng);
        let (loss, ov, wl, via) = m.evaluate();
        assert_eq!(wl, 0.0);
        assert_eq!(via, 0.0);
        // overflow of an empty design is Σ f(−cap) — a constant baseline
        assert!(loss.is_finite());
        assert!(ov >= 0.0);
    }
}
