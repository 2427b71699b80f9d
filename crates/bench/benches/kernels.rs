//! Micro-benchmarks of the hot kernels: the building blocks whose
//! throughput determines DGR's per-iteration cost.

use std::sync::Arc;

use dgr_autodiff::{Graph, Segments};
use dgr_bench::harness::Harness;
use dgr_grid::{GcellGrid, Point};
use dgr_rsmt::{rsmt, tree_candidates, CandidateConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_segmented_softmax(h: &mut Harness) {
    for &n in &[10_000usize, 100_000, 1_000_000] {
        let mut g = Graph::new();
        let mut rng = StdRng::seed_from_u64(1);
        let data: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let w = g.param(data);
        let seg = Arc::new(Segments::uniform(n / 2, 2));
        let p = g.segmented_softmax(w, seg);
        let loss = g.sum_all(p);
        h.bench_throughput(&format!("segmented_softmax/fwd_bwd/{n}"), n as u64, || {
            g.forward();
            g.backward(loss);
        });
    }
}

fn bench_gather_scatter(h: &mut Harness) {
    for &n in &[100_000usize, 1_000_000] {
        let mut rng = StdRng::seed_from_u64(2);
        let mut g = Graph::new();
        let w = g.param((0..n / 4).map(|_| rng.gen_range(0.0..1.0)).collect());
        let idx: Arc<Vec<u32>> =
            Arc::new((0..n).map(|_| rng.gen_range(0..(n as u32 / 4))).collect());
        let tgt: Arc<Vec<u32>> =
            Arc::new((0..n).map(|_| rng.gen_range(0..(n as u32 / 8))).collect());
        let gathered = g.gather(w, idx);
        let d = g.scatter_add(gathered, tgt, n / 8);
        let loss = g.sum_all(d);
        h.bench_throughput(&format!("gather_scatter/fwd_bwd/{n}"), n as u64, || {
            g.forward();
            g.backward(loss);
        });
    }
}

fn bench_rsmt(h: &mut Harness) {
    let mut rng = StdRng::seed_from_u64(3);
    for &pins in &[3usize, 5, 8, 20, 64] {
        let pts: Vec<Point> = (0..pins)
            .map(|_| Point::new(rng.gen_range(0..500), rng.gen_range(0..500)))
            .collect();
        h.bench(&format!("rsmt/pins/{pins}"), || {
            rsmt(&pts).expect("non-empty");
        });
    }
}

fn bench_forest_build(h: &mut Harness) {
    let grid = GcellGrid::new(128, 128).unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    let pools: Vec<_> = (0..2000)
        .map(|_| {
            let pins: Vec<Point> = (0..rng.gen_range(2..5))
                .map(|_| Point::new(rng.gen_range(0..128), rng.gen_range(0..128)))
                .collect();
            tree_candidates(&pins, &CandidateConfig::default()).expect("pins")
        })
        .collect();
    h.bench("forest_build_2000_nets", || {
        dgr_dag::build_forest(&grid, &pools, dgr_dag::PatternConfig::l_only()).expect("in grid");
    });
}

fn bench_maze(h: &mut Harness) {
    let grid = GcellGrid::new(256, 256).unwrap();
    h.bench("maze_route_256", || {
        dgr_baseline::maze_route(
            &grid,
            Point::new(3, 7),
            Point::new(250, 240),
            |_| 1.0,
            &dgr_baseline::maze::MazeConfig::default(),
        )
        .expect("connected");
    });
}

/// Shaped like refine's escalations: a full-grid search on the 105×101
/// `ispd19_7m` grid whose terminals are separated by fully overflowed
/// bands (cost 1001) over a field of partly overflowed edges (1 + 1000·m),
/// so no cheap path exists and nearly every state is expanded.
fn bench_maze_congested(h: &mut Harness) {
    let grid = GcellGrid::new(105, 101).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let cost: Vec<f32> = grid
        .edge_ids()
        .map(|e| {
            let (a, b) = grid.edge_endpoints(e);
            if a.y != b.y && a.y % 25 == 12 {
                1001.0
            } else if rng.gen_range(0..10) < 3 {
                1.0 + 1000.0 * rng.gen_range(0.0f32..1.0)
            } else {
                1.0
            }
        })
        .collect();
    let cfg = dgr_baseline::maze::MazeConfig {
        bounds: None,
        turn_cost: 1.0,
    };
    h.bench("maze_route_congested", || {
        dgr_baseline::maze_route(
            &grid,
            Point::new(3, 2),
            Point::new(100, 97),
            |e| cost[e.index()],
            &cfg,
        )
        .expect("connected");
    });
}

fn main() {
    let mut h = Harness::from_args();
    bench_segmented_softmax(&mut h);
    bench_gather_scatter(&mut h);
    bench_rsmt(&mut h);
    bench_forest_build(&mut h);
    bench_maze(&mut h);
    bench_maze_congested(&mut h);
}
