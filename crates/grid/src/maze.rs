//! Dijkstra maze routing on the g-cell grid.
//!
//! The engine used by every sequential baseline and by the congestion
//! refinement pass: single-pair shortest path under an arbitrary per-edge
//! cost, with an optional turn penalty (states are (cell, incoming axis)
//! pairs so turns are charged exactly).
//!
//! The search allocates nothing but its result. Each thread keeps one
//! scratch table of `(stamp, dist, prev)` slots (12 B per state, two
//! states per g-cell) and a heap, both reused across calls. A slot is
//! live only when its stamp equals the current search's generation, so
//! starting a search never clears the table; the stamps are cleared
//! once every 2³² − 1 searches, when the generation counter wraps.
//!
//! Heap entries are single `u64`s, `dist.to_bits() << 32 | state`. For
//! the non-negative distances this engine produces (see the cost
//! contract on [`maze_route`]) the IEEE-754 bit pattern increases with
//! the value, so entries pop by distance and then by state id: the same
//! order as `(f32::total_cmp, state)` pairs.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::geom::{Point, Rect};
use crate::grid::GcellGrid;
use crate::ids::EdgeId;

/// Search options for [`maze_route`].
#[derive(Debug, Clone, Copy)]
pub struct MazeConfig {
    /// Restrict the search to this rectangle (default: whole grid).
    /// The rectangle is automatically inflated to contain both endpoints.
    pub bounds: Option<Rect>,
    /// Extra cost charged every time the path changes axis.
    pub turn_cost: f32,
}

impl Default for MazeConfig {
    fn default() -> Self {
        MazeConfig {
            bounds: None,
            turn_cost: 0.5,
        }
    }
}

/// Per-state search record; live only when `stamp` is the current
/// generation.
#[derive(Clone, Copy)]
struct Slot {
    stamp: u32,
    dist: f32,
    prev: u32,
}

const NO_PREV: u32 = u32::MAX;

/// Search buffers one thread reuses across [`maze_route`] calls.
#[derive(Default)]
struct Scratch {
    generation: u32,
    slots: Vec<Slot>,
    heap: BinaryHeap<Reverse<u64>>,
}

impl Scratch {
    /// Prepares a search over `states` states: grows the table if needed
    /// and opens a new generation, clearing every stamp when it wraps.
    fn begin(&mut self, states: usize) {
        if self.slots.len() < states {
            let dead = Slot {
                stamp: 0,
                dist: f32::INFINITY,
                prev: NO_PREV,
            };
            self.slots.resize(states, dead);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            for slot in &mut self.slots {
                slot.stamp = 0;
            }
            self.generation = 1;
        }
        self.heap.clear();
    }

    fn dist(&self, state: usize) -> f32 {
        let slot = self.slots[state];
        if slot.stamp == self.generation {
            slot.dist
        } else {
            f32::INFINITY
        }
    }

    fn push(&mut self, state: usize, dist: f32, prev: u32) {
        self.slots[state] = Slot {
            stamp: self.generation,
            dist,
            prev,
        };
        self.heap.push(Reverse(pack(dist, state)));
    }
}

/// Heap key of a state: distance bits above, state id below.
fn pack(dist: f32, state: usize) -> u64 {
    (u64::from(dist.to_bits()) << 32) | state as u64
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Finds the cheapest rectilinear path from `from` to `to` under
/// `edge_cost`, returning the corner polyline (both endpoints included),
/// or `None` when no path exists inside the search bounds (e.g. all edges
/// are `f32::INFINITY`).
///
/// Cost contract: `edge_cost` returns a value `≥ 0` or a non-finite value
/// (`INFINITY`/NaN blocks the edge), and `cfg.turn_cost` is finite and
/// `≥ 0`. Both are checked by `debug_assert!`. Among equal-cost paths the
/// result is fixed by the pop order (distance, then state id) and strict
/// `<` relaxation, so it is deterministic.
///
/// # Panics
///
/// Panics if `edge_cost` itself calls `maze_route`: the thread's search
/// buffers are in use.
///
/// # Examples
///
/// ```
/// use dgr_grid::maze::{maze_route, MazeConfig};
/// use dgr_grid::{GcellGrid, Point};
///
/// let grid = GcellGrid::new(8, 8)?;
/// let path = maze_route(
///     &grid,
///     Point::new(0, 0),
///     Point::new(5, 3),
///     |_| 1.0,
///     &MazeConfig::default(),
/// )
/// .expect("uniform grid is connected");
/// assert_eq!(path.first(), Some(&Point::new(0, 0)));
/// assert_eq!(path.last(), Some(&Point::new(5, 3)));
/// # Ok::<(), dgr_grid::GridError>(())
/// ```
pub fn maze_route<F>(
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
    debug_assert!(
        cfg.turn_cost.is_finite() && cfg.turn_cost >= 0.0,
        "maze turn cost must be finite and >= 0, got {}",
        cfg.turn_cost
    );
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
    SCRATCH.with(|scratch| {
        search(
            grid,
            from,
            to,
            bounds,
            &edge_cost,
            cfg,
            &mut scratch.borrow_mut(),
        )
    })
}

/// Dijkstra over (cell, incoming axis) states inside `bounds`, which lies
/// inside the grid and contains both terminals.
fn search<F>(
    grid: &GcellGrid,
    from: Point,
    to: Point,
    bounds: Rect,
    edge_cost: &F,
    cfg: &MazeConfig,
    scratch: &mut Scratch,
) -> Option<Vec<Point>>
where
    F: Fn(EdgeId) -> f32,
{
    let w = bounds.width() as usize;
    let h = bounds.height() as usize;
    let (x0, y0) = (bounds.lo.x as usize, bounds.lo.y as usize);
    let local = |p: Point| (p.y as usize - y0) * w + (p.x as usize - x0);
    // dense edge ids (see `GcellGrid`): horizontal (x, y)→(x+1, y) is
    // y·(W−1) + x; vertical (x, y)→(x, y+1) is num_h_edges + y·W + x
    let gw = grid.width() as usize;
    let num_h = grid.num_h_edges();

    // state = local cell × incoming axis (0 horizontal, 1 vertical)
    scratch.begin(w * h * 2);
    let start = local(from);
    for axis in 0..2 {
        scratch.push(start * 2 + axis, 0.0, NO_PREV);
    }
    let goal = local(to);
    let mut goal_state = None;
    while let Some(Reverse(key)) = scratch.heap.pop() {
        let d = f32::from_bits((key >> 32) as u32);
        let state = key as u32 as usize;
        if d > scratch.dist(state) {
            continue;
        }
        let cell = state / 2;
        let axis = state % 2;
        if cell == goal {
            goal_state = Some(state);
            break;
        }
        let (cx, cy) = (cell % w, cell / w);
        let (gx, gy) = (x0 + cx, y0 + cy);
        let h_east = gy * (gw - 1) + gx;
        let v_north = num_h + gy * gw + gx;
        let moves = [
            (cx + 1 < w, h_east, cell + 1, 0),
            (cx > 0, h_east.wrapping_sub(1), cell.wrapping_sub(1), 0),
            (cy + 1 < h, v_north, cell + w, 1),
            (cy > 0, v_north.wrapping_sub(gw), cell.wrapping_sub(w), 1),
        ];
        for (inside, e, next, new_axis) in moves {
            if !inside {
                continue;
            }
            let step = edge_cost(EdgeId::new(e as u32));
            if !step.is_finite() {
                continue;
            }
            debug_assert!(step >= 0.0, "maze edge cost must be >= 0, got {step}");
            let turn = if axis != new_axis && d > 0.0 {
                cfg.turn_cost
            } else {
                0.0
            };
            let nd = d + step + turn;
            let ns = next * 2 + new_axis;
            if nd < scratch.dist(ns) {
                scratch.push(ns, nd, state as u32);
            }
        }
    }

    let mut state = goal_state?;
    let mut cells = vec![to];
    while scratch.slots[state].prev != NO_PREV {
        state = scratch.slots[state].prev as usize;
        let cell = state / 2;
        cells.push(Point::new((x0 + cell % w) as i32, (y0 + cell / w) as i32));
    }
    cells.reverse();
    debug_assert_eq!(cells[0], from);
    Some(compress_corners(&cells))
}

/// Collapses a unit-step cell sequence into its corner polyline.
pub fn compress_corners(cells: &[Point]) -> Vec<Point> {
    if cells.len() <= 2 {
        return cells.to_vec();
    }
    let mut out = vec![cells[0]];
    for i in 1..cells.len() - 1 {
        let a = *out.last().expect("non-empty");
        let b = cells[i];
        let c = cells[i + 1];
        let collinear = (a.x == b.x && b.x == c.x) || (a.y == b.y && b.y == c.y);
        if !collinear {
            out.push(b);
        }
    }
    out.push(*cells.last().expect("non-empty"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> GcellGrid {
        GcellGrid::new(10, 10).unwrap()
    }

    #[test]
    fn uniform_cost_gives_manhattan_length() {
        let g = grid();
        let path = maze_route(
            &g,
            Point::new(1, 1),
            Point::new(7, 5),
            |_| 1.0,
            &MazeConfig::default(),
        )
        .unwrap();
        let len: u32 = path.windows(2).map(|w| w[0].manhattan_distance(w[1])).sum();
        assert_eq!(len, 10);
        // with a turn penalty the path should be an L (one turn)
        assert_eq!(path.len(), 3);
    }

    #[test]
    fn detours_around_blocked_wall() {
        let g = grid();
        // wall of infinite cost on column x=4 except y=9
        let cost = |e: EdgeId| {
            let (a, b) = g.edge_endpoints(e);
            let crosses = (a.x == 4 && b.x == 5) || (a.x == 3 && b.x == 4);
            if crosses && a.y < 9 {
                f32::INFINITY
            } else {
                1.0
            }
        };
        let path = maze_route(
            &g,
            Point::new(0, 0),
            Point::new(9, 0),
            cost,
            &MazeConfig {
                bounds: None,
                turn_cost: 0.0,
            },
        )
        .unwrap();
        let len: u32 = path.windows(2).map(|w| w[0].manhattan_distance(w[1])).sum();
        assert!(len >= 9 + 18, "must detour through y=9, got {len}");
        // verify the polyline is rectilinear and connected
        for w in path.windows(2) {
            assert!(w[0].is_aligned_with(w[1]));
        }
    }

    #[test]
    fn fully_blocked_is_none() {
        let g = grid();
        let path = maze_route(
            &g,
            Point::new(0, 0),
            Point::new(9, 9),
            |_| f32::INFINITY,
            &MazeConfig::default(),
        );
        assert!(path.is_none());
    }

    #[test]
    fn trivial_and_degenerate_cases() {
        let g = grid();
        let p = maze_route(
            &g,
            Point::new(3, 3),
            Point::new(3, 3),
            |_| 1.0,
            &MazeConfig::default(),
        )
        .unwrap();
        assert_eq!(p, vec![Point::new(3, 3)]);
        assert!(maze_route(
            &g,
            Point::new(0, 0),
            Point::new(50, 50),
            |_| 1.0,
            &MazeConfig::default()
        )
        .is_none());
    }

    #[test]
    fn bounds_inflate_to_contain_terminals() {
        let g = grid();
        let tight = Rect::new(Point::new(4, 4), Point::new(5, 5));
        let path = maze_route(
            &g,
            Point::new(2, 2),
            Point::new(7, 7),
            |_| 1.0,
            &MazeConfig {
                bounds: Some(tight),
                turn_cost: 0.0,
            },
        )
        .unwrap();
        assert_eq!(path.first(), Some(&Point::new(2, 2)));
        assert_eq!(path.last(), Some(&Point::new(7, 7)));
    }

    #[test]
    fn turn_penalty_prefers_fewer_corners() {
        let g = grid();
        // cheap zig-zag bait: make straight edges slightly pricier
        let cost = |_e: EdgeId| 1.0;
        let no_penalty = maze_route(
            &g,
            Point::new(0, 0),
            Point::new(5, 5),
            cost,
            &MazeConfig {
                bounds: None,
                turn_cost: 0.0,
            },
        )
        .unwrap();
        let with_penalty = maze_route(
            &g,
            Point::new(0, 0),
            Point::new(5, 5),
            cost,
            &MazeConfig {
                bounds: None,
                turn_cost: 2.0,
            },
        )
        .unwrap();
        assert!(with_penalty.len() <= no_penalty.len());
        assert_eq!(with_penalty.len(), 3); // an L
    }

    #[test]
    fn packed_keys_order_like_total_cmp_then_state() {
        let dists = [
            0.0f32,
            1e-40, // subnormal
            f32::MIN_POSITIVE,
            0.5,
            1.0,
            1.0 + f32::EPSILON,
            1000.0,
            f32::MAX,
            f32::INFINITY,
        ];
        for &d1 in &dists {
            for &d2 in &dists {
                for (s1, s2) in [(0, 1), (1, 0), (7, 7), (0, u32::MAX as usize - 1)] {
                    let want = d1.total_cmp(&d2).then(s1.cmp(&s2));
                    assert_eq!(
                        pack(d1, s1).cmp(&pack(d2, s2)),
                        want,
                        "{d1} {s1} vs {d2} {s2}"
                    );
                }
            }
        }
    }

    #[test]
    fn scratch_is_reset_when_the_generation_wraps() {
        let g = grid();
        let cost = |e: EdgeId| 1.0 + (e.index() % 7) as f32;
        let route = |a: Point, b: Point| maze_route(&g, a, b, cost, &MazeConfig::default());
        let queries = [
            (Point::new(2, 7), Point::new(8, 1)),
            (Point::new(5, 5), Point::new(0, 9)),
            (Point::new(9, 0), Point::new(3, 3)),
        ];
        let want: Vec<_> = queries.iter().map(|&(a, b)| route(a, b)).collect();
        // a fresh table, then a search that stamps nearly every slot with
        // generation 1; the next search wraps the counter back to 1, and
        // must not mistake those slots for its own
        SCRATCH.with(|s| *s.borrow_mut() = Scratch::default());
        route(Point::new(0, 0), Point::new(9, 9));
        SCRATCH.with(|s| s.borrow_mut().generation = u32::MAX);
        for _ in 0..2 {
            for (&(a, b), w) in queries.iter().zip(&want) {
                assert_eq!(&route(a, b), w, "{a:?} → {b:?}");
            }
        }
        assert_eq!(SCRATCH.with(|s| s.borrow().generation), 6);
    }

    #[test]
    fn compress_corners_removes_collinear_points() {
        let cells = vec![
            Point::new(0, 0),
            Point::new(1, 0),
            Point::new(2, 0),
            Point::new(2, 1),
            Point::new(2, 2),
        ];
        assert_eq!(
            compress_corners(&cells),
            vec![Point::new(0, 0), Point::new(2, 0), Point::new(2, 2)]
        );
    }
}
