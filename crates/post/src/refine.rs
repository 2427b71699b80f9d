//! Maze-routing refinement of congested nets (Section 4.6).
//!
//! After the pattern-routing solution is extracted, nets that cross
//! overflowed g-cell edges are ripped up and rerouted with the maze
//! engine under an overflow-penalized cost. This is the same refinement
//! CUGR2 applies to DGR's 2D output before layer assignment.

use dgr_baseline::cost::overflow_marginal;
use dgr_baseline::maze::{maze_route, MazeConfig};
use dgr_core::{RoutePath, RoutingSolution};
use dgr_grid::{DemandMap, Design, EdgeId, GcellGrid, Point, Rect};

use crate::PostError;

/// Configuration of the refinement pass.
#[derive(Debug, Clone, Copy)]
pub struct RefineConfig {
    /// Maximum rip-up/reroute rounds.
    pub rounds: usize,
    /// Overflow penalty added to the unit wire cost in the maze search.
    pub overflow_penalty: f32,
    /// Turn cost in the maze search (via proxy).
    pub turn_cost: f32,
    /// Search-window inflation around each sub-net's bounding box.
    pub margin: i32,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig {
            rounds: 2,
            overflow_penalty: 1000.0,
            turn_cost: 1.0,
            margin: 8,
        }
    }
}

/// What the refinement accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefineReport {
    /// Rounds actually executed.
    pub rounds: usize,
    /// Nets rerouted in total (with multiplicity across rounds).
    pub nets_rerouted: usize,
    /// Overflowed edges before refinement.
    pub overflowed_before: usize,
    /// Overflowed edges after refinement.
    pub overflowed_after: usize,
}

/// Reroutes nets crossing overflowed edges, in place.
///
/// Each round rips up every net that crosses an overflowed edge and maze
/// routes its sub-nets one by one under `1 + overflow_penalty ·
/// overflow_marginal` edge costs. Every path the maze search finds is
/// committed, even one that adds overflow; a net goes back to its old
/// paths only when some sub-net finds no path at all.
///
/// # Errors
///
/// Propagates grid errors (impossible for solutions produced against the
/// same design).
pub fn refine(
    design: &Design,
    solution: &mut RoutingSolution,
    cfg: RefineConfig,
) -> Result<RefineReport, PostError> {
    let _span = dgr_obs::span("post", "refine");
    let grid = &design.grid;
    let cap = &design.capacity;
    let overflowed_before = solution.metrics.overflow.overflowed_edges;
    let mut nets_rerouted = 0usize;
    let mut rounds = 0usize;
    // the maze cost of every edge, refreshed wherever demand changes
    let cost_of = |demand: &DemandMap, e: EdgeId| {
        1.0 + cfg.overflow_penalty * overflow_marginal(grid, cap, demand, e)
    };
    let mut cost: Vec<f32> = grid
        .edge_ids()
        .map(|e| cost_of(&solution.demand, e))
        .collect();
    let refresh = |cost: &mut [f32], demand: &DemandMap, corners: &[Point]| {
        for_each_touched_edge(grid, corners, |e| cost[e.index()] = cost_of(demand, e))
    };

    for _ in 0..cfg.rounds {
        let victims: Vec<usize> = {
            let over: Vec<bool> = grid
                .edge_ids()
                .map(|e| solution.demand.total(grid, cap, e) > cap.capacity(e) + 1e-4)
                .collect();
            (0..solution.routes.len())
                .filter(|&n| {
                    solution.routes[n].paths.iter().any(|p| {
                        p.corners.windows(2).any(|w| {
                            grid.segment_edges(w[0], w[1])
                                .map(|mut edges| edges.any(|e| over[e.index()]))
                                .unwrap_or(false)
                        })
                    })
                })
                .collect()
        };
        if victims.is_empty() {
            break;
        }
        rounds += 1;
        for &n in &victims {
            // rip up net n
            let old_paths = std::mem::take(&mut solution.routes[n].paths);
            for path in &old_paths {
                remove_path(grid, &mut solution.demand, &path.corners)?;
            }
            for path in &old_paths {
                refresh(&mut cost, &solution.demand, &path.corners)?;
            }
            // reroute each sub-net by maze under overflow penalty
            let mut new_paths = Vec::with_capacity(old_paths.len());
            let mut ok = true;
            for path in &old_paths {
                let (a, b) = (
                    *path.corners.first().expect("non-empty"),
                    *path.corners.last().expect("non-empty"),
                );
                if a == b {
                    new_paths.push(path.clone());
                    continue;
                }
                let mcfg = MazeConfig {
                    bounds: Some(
                        Rect::bounding(&[a, b]).inflate_clamped(cfg.margin, grid.bounds()),
                    ),
                    turn_cost: cfg.turn_cost,
                };
                let demand = &solution.demand;
                let cost_fn = |e: EdgeId| cost[e.index()];
                // windowed search, escalating to the full grid when the
                // window cannot dodge the congestion. The filter reads the
                // exact marginal: `1 + 1000·m` rounds to 1 for tiny m
                let windowed = maze_route(grid, a, b, cost_fn, &mcfg).filter(|corners| {
                    corners.windows(2).all(|w| {
                        grid.segment_edges(w[0], w[1])
                            .map(|mut edges| {
                                edges.all(|e| overflow_marginal(grid, cap, demand, e) <= 0.0)
                            })
                            .unwrap_or(false)
                    })
                });
                let escalated = windowed.or_else(|| {
                    maze_route(
                        grid,
                        a,
                        b,
                        cost_fn,
                        &MazeConfig {
                            bounds: None,
                            turn_cost: cfg.turn_cost,
                        },
                    )
                });
                match escalated {
                    Some(corners) => {
                        add_path(grid, &mut solution.demand, &corners)?;
                        refresh(&mut cost, &solution.demand, &corners)?;
                        new_paths.push(RoutePath { corners });
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                solution.routes[n].paths = new_paths;
                nets_rerouted += 1;
            } else {
                // roll back: remove whatever was committed, restore old
                for p in &new_paths {
                    remove_path(grid, &mut solution.demand, &p.corners)?;
                }
                for p in &old_paths {
                    add_path(grid, &mut solution.demand, &p.corners)?;
                }
                for p in new_paths.iter().chain(&old_paths) {
                    refresh(&mut cost, &solution.demand, &p.corners)?;
                }
                solution.routes[n].paths = old_paths;
            }
        }
        debug_assert!(
            grid.edge_ids()
                .all(|e| cost[e.index()].to_bits() == cost_of(&solution.demand, e).to_bits()),
            "refine cost cache diverged from a from-scratch recomputation"
        );
    }

    solution.remeasure(design)?;
    Ok(RefineReport {
        rounds,
        nets_rerouted,
        overflowed_before,
        overflowed_after: solution.metrics.overflow.overflowed_edges,
    })
}

/// Adds one path's wire demand on every segment and its via pressure at
/// every interior corner.
fn add_path(grid: &GcellGrid, demand: &mut DemandMap, corners: &[Point]) -> Result<(), PostError> {
    for w in corners.windows(2) {
        demand.add_segment(grid, w[0], w[1])?;
    }
    for &c in interior(corners) {
        demand.add_turn(grid, c)?;
    }
    Ok(())
}

/// Exact inverse of [`add_path`] (rip-up).
fn remove_path(
    grid: &GcellGrid,
    demand: &mut DemandMap,
    corners: &[Point],
) -> Result<(), PostError> {
    for w in corners.windows(2) {
        demand.remove_segment(grid, w[0], w[1])?;
    }
    for &c in interior(corners) {
        demand.remove_turn(grid, c)?;
    }
    Ok(())
}

/// Calls `f` on every edge whose Eq. (2) demand a path changes: the edges
/// of its segments, plus the ≤ 4 edges incident to each interior corner
/// (via pressure at a cell feeds every edge that ends there). Edges may
/// repeat.
fn for_each_touched_edge(
    grid: &GcellGrid,
    corners: &[Point],
    mut f: impl FnMut(EdgeId),
) -> Result<(), PostError> {
    for w in corners.windows(2) {
        grid.segment_edges(w[0], w[1])?.for_each(&mut f);
    }
    for &c in interior(corners) {
        grid.incident_edges(c).for_each(&mut f);
    }
    Ok(())
}

/// The corners strictly between a path's endpoints.
fn interior(corners: &[Point]) -> &[Point] {
    match corners.len() {
        0..=2 => &[],
        k => &corners[1..k - 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_core::{NetRoute, SolutionMetrics};
    use dgr_grid::{CapacityBuilder, DemandMap, GcellGrid, Net, Point};

    fn overflowing_solution() -> (Design, RoutingSolution) {
        // two nets stacked on the same row although a free row exists
        let grid = GcellGrid::new(10, 10).unwrap();
        let cap = CapacityBuilder::uniform(&grid, 1.5).build(&grid).unwrap();
        let design = Design::new(
            grid,
            cap,
            vec![
                Net::new("a", vec![Point::new(0, 5), Point::new(9, 5)]),
                Net::new("b", vec![Point::new(1, 5), Point::new(8, 5)]),
            ],
            5,
        )
        .unwrap();
        let routes = vec![
            NetRoute {
                net: 0,
                tree: 0,
                paths: vec![RoutePath {
                    corners: vec![Point::new(0, 5), Point::new(9, 5)],
                }],
            },
            NetRoute {
                net: 1,
                tree: 0,
                paths: vec![RoutePath {
                    corners: vec![Point::new(1, 5), Point::new(8, 5)],
                }],
            },
        ];
        let mut sol = RoutingSolution {
            routes,
            demand: DemandMap::new(&design.grid),
            metrics: SolutionMetrics {
                total_wirelength: 0,
                total_turns: 0,
                overflow: Default::default(),
            },
            train_report: None,
        };
        sol.remeasure(&design).unwrap();
        (design, sol)
    }

    #[test]
    fn refinement_removes_avoidable_overflow() {
        let (design, mut sol) = overflowing_solution();
        assert!(sol.metrics.overflow.overflowed_edges > 0);
        let report = refine(&design, &mut sol, RefineConfig::default()).unwrap();
        assert_eq!(report.overflowed_after, 0, "refinement failed: {report:?}");
        assert!(report.nets_rerouted >= 1);
        assert!(report.overflowed_before > report.overflowed_after);
        // the solution metrics were re-measured
        assert_eq!(
            sol.metrics.overflow.overflowed_edges,
            report.overflowed_after
        );
    }

    #[test]
    fn refinement_is_a_noop_on_clean_solutions() {
        let grid = GcellGrid::new(10, 10).unwrap();
        let cap = CapacityBuilder::uniform(&grid, 4.0).build(&grid).unwrap();
        let design = Design::new(
            grid,
            cap,
            vec![Net::new("a", vec![Point::new(0, 0), Point::new(9, 0)])],
            5,
        )
        .unwrap();
        let mut sol = RoutingSolution {
            routes: vec![NetRoute {
                net: 0,
                tree: 0,
                paths: vec![RoutePath {
                    corners: vec![Point::new(0, 0), Point::new(9, 0)],
                }],
            }],
            demand: DemandMap::new(&design.grid),
            metrics: SolutionMetrics {
                total_wirelength: 0,
                total_turns: 0,
                overflow: Default::default(),
            },
            train_report: None,
        };
        sol.remeasure(&design).unwrap();
        let before = sol.clone();
        let report = refine(&design, &mut sol, RefineConfig::default()).unwrap();
        assert_eq!(report.rounds, 0);
        assert_eq!(report.nets_rerouted, 0);
        assert_eq!(
            sol.metrics.total_wirelength,
            before.metrics.total_wirelength
        );
    }

    #[test]
    fn wirelength_may_grow_but_overflow_shrinks() {
        let (design, mut sol) = overflowing_solution();
        let wl_before = sol.metrics.total_wirelength;
        let ov_before = sol.metrics.overflow.total_overflow;
        refine(&design, &mut sol, RefineConfig::default()).unwrap();
        assert!(sol.metrics.overflow.total_overflow < ov_before);
        assert!(sol.metrics.total_wirelength >= wl_before);
    }
}
