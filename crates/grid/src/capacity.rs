//! Routing capacity model — Eq. (1) of the DGR paper.
//!
//! The usable capacity of a g-cell edge `e` is the raw track count reduced
//! by an estimate of the resources consumed by pin connections and purely
//! local nets inside the adjacent g-cells:
//!
//! ```text
//! cap_e = tracks_e − β_v · pin_density_v − local_net_e
//! ```
//!
//! The paper attributes the pin-density and local-net penalty to "the g-cell
//! v which is connected to e". An edge touches *two* g-cells, so this
//! implementation splits the penalty evenly between the two endpoints —
//! a symmetric resolution of the ambiguity that keeps the model smooth for
//! the differentiable solver. The same convention is used for via demand in
//! [`crate::demand`].

use serde::{Deserialize, Serialize};

use crate::geom::Point;
use crate::grid::GcellGrid;
use crate::ids::EdgeId;
use crate::GridError;

/// Immutable per-edge routing capacities.
///
/// Build one with [`CapacityBuilder`]; the finished model also retains the
/// per-cell `β` weights because via demand (Eq. 2) reuses them.
///
/// # Examples
///
/// ```
/// use dgr_grid::{CapacityBuilder, GcellGrid, Point};
///
/// let grid = GcellGrid::new(4, 4)?;
/// let cap = CapacityBuilder::uniform(&grid, 10.0)
///     .add_pins(&grid, Point::new(1, 1), 4)?
///     .build(&grid)?;
/// // Pin penalty is split over the four edges incident to (1, 1).
/// let e = grid.h_edge(1, 1)?;
/// assert!(cap.capacity(e) < 10.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapacityModel {
    cap: Vec<f32>,
    beta: Vec<f32>,
}

impl CapacityModel {
    /// Reassembles a model from raw per-edge capacities and per-cell `β`
    /// weights (e.g. when parsing a serialized design).
    ///
    /// Negative capacities are legal (heavily blocked edges); NaN and
    /// infinities are not, since they poison the training loss.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::LengthMismatch`] if either buffer does not
    /// match `grid`, or [`GridError::NonFinite`] naming the first NaN or
    /// infinite entry.
    pub fn from_parts(grid: &GcellGrid, cap: Vec<f32>, beta: Vec<f32>) -> Result<Self, GridError> {
        if cap.len() != grid.num_edges() {
            return Err(GridError::LengthMismatch {
                expected: grid.num_edges(),
                got: cap.len(),
            });
        }
        if beta.len() != grid.num_cells() {
            return Err(GridError::LengthMismatch {
                expected: grid.num_cells(),
                got: beta.len(),
            });
        }
        for (what, vals) in [("tracks", &cap), ("beta", &beta)] {
            if let Some(index) = vals.iter().position(|v| !v.is_finite()) {
                return Err(GridError::NonFinite { what, index });
            }
        }
        Ok(CapacityModel { cap, beta })
    }

    /// Capacity of edge `e`, in tracks. May be fractional or negative
    /// (heavily blocked edges).
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn capacity(&self, e: EdgeId) -> f32 {
        self.cap[e.index()]
    }

    /// Per-edge capacities as a dense slice indexed by [`EdgeId`].
    pub fn as_slice(&self) -> &[f32] {
        &self.cap
    }

    /// The `β` weight of the g-cell with the given dense id (see Eq. 1/2).
    ///
    /// # Panics
    ///
    /// Panics if the cell id is out of range.
    pub fn beta(&self, cell: crate::ids::GcellId) -> f32 {
        self.beta[cell.index()]
    }

    /// Per-cell `β` weights as a dense slice indexed by [`crate::GcellId`].
    pub fn beta_slice(&self) -> &[f32] {
        &self.beta
    }

    /// Number of edges covered by the model.
    pub fn num_edges(&self) -> usize {
        self.cap.len()
    }

    /// Total routing capacity across all edges.
    pub fn total(&self) -> f64 {
        self.cap.iter().map(|&c| c as f64).sum()
    }
}

/// Incremental builder for a [`CapacityModel`].
///
/// Follows the non-consuming builder pattern: configuration methods take
/// `&mut self` and [`CapacityBuilder::build`] borrows the builder, so it can
/// be reused to produce capacity variants (useful in capacity-sweep
/// experiments).
#[derive(Debug, Clone)]
pub struct CapacityBuilder {
    tracks: Vec<f32>,
    pin_count: Vec<u32>,
    local_nets: Vec<u32>,
    beta: Vec<f32>,
}

/// Default `β` weight when none is configured.
///
/// CUGR2 derives `β` from the LEF minimum wire widths; without LEF data we
/// use a fixed unit weight, which is the value the synthetic benchmarks
/// assume.
pub const DEFAULT_BETA: f32 = 1.0;

impl CapacityBuilder {
    /// Starts a builder with every edge carrying `tracks` tracks.
    pub fn uniform(grid: &GcellGrid, tracks: f32) -> Self {
        CapacityBuilder {
            tracks: vec![tracks; grid.num_edges()],
            pin_count: vec![0; grid.num_cells()],
            local_nets: vec![0; grid.num_cells()],
            beta: vec![DEFAULT_BETA; grid.num_cells()],
        }
    }

    /// Starts a builder from explicit per-edge track counts.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::LengthMismatch`] if `tracks.len()` differs from
    /// `grid.num_edges()`.
    pub fn from_tracks(grid: &GcellGrid, tracks: Vec<f32>) -> Result<Self, GridError> {
        if tracks.len() != grid.num_edges() {
            return Err(GridError::LengthMismatch {
                expected: grid.num_edges(),
                got: tracks.len(),
            });
        }
        Ok(CapacityBuilder {
            tracks,
            pin_count: vec![0; grid.num_cells()],
            local_nets: vec![0; grid.num_cells()],
            beta: vec![DEFAULT_BETA; grid.num_cells()],
        })
    }

    /// Overrides the track count of a single edge (e.g. to model blockages).
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn set_tracks(&mut self, e: EdgeId, tracks: f32) -> &mut Self {
        self.tracks[e.index()] = tracks;
        self
    }

    /// Scales the track count of every edge whose *lower* endpoint lies in
    /// `rect` — the primitive used to carve congestion hotspots.
    pub fn scale_region(&mut self, grid: &GcellGrid, rect: crate::Rect, factor: f32) -> &mut Self {
        for e in grid.edge_ids() {
            let (a, _) = grid.edge_endpoints(e);
            if rect.contains(a) {
                self.tracks[e.index()] *= factor;
            }
        }
        self
    }

    /// Registers `count` physical pins in the g-cell at `p` (Eq. 1's
    /// `pin_density_v`).
    ///
    /// # Errors
    ///
    /// Returns [`GridError::CellOutOfBounds`] if `p` is outside the grid.
    pub fn add_pins(mut self, grid: &GcellGrid, p: Point, count: u32) -> Result<Self, GridError> {
        let id = grid.cell_id(p)?;
        self.pin_count[id.index()] += count;
        Ok(self)
    }

    /// Registers `count` local nets (nets fully contained in one g-cell) at
    /// `p` (Eq. 1's `local_net` term).
    ///
    /// # Errors
    ///
    /// Returns [`GridError::CellOutOfBounds`] if `p` is outside the grid.
    pub fn add_local_nets(
        mut self,
        grid: &GcellGrid,
        p: Point,
        count: u32,
    ) -> Result<Self, GridError> {
        let id = grid.cell_id(p)?;
        self.local_nets[id.index()] += count;
        Ok(self)
    }

    /// Sets the `β` weight of the g-cell at `p`.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::CellOutOfBounds`] if `p` is outside the grid.
    pub fn set_beta(mut self, grid: &GcellGrid, p: Point, beta: f32) -> Result<Self, GridError> {
        let id = grid.cell_id(p)?;
        self.beta[id.index()] = beta;
        Ok(self)
    }

    /// Finalizes the model: applies Eq. (1) with the pin/local-net penalty
    /// of each g-cell split evenly across its incident edges.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::LengthMismatch`] if the builder was created for
    /// a different grid.
    pub fn build(&self, grid: &GcellGrid) -> Result<CapacityModel, GridError> {
        if self.tracks.len() != grid.num_edges() {
            return Err(GridError::LengthMismatch {
                expected: grid.num_edges(),
                got: self.tracks.len(),
            });
        }
        let mut cap = self.tracks.clone();
        for cell in 0..grid.num_cells() {
            let p = grid.cell_point(crate::ids::GcellId::new(cell as u32));
            let penalty =
                self.beta[cell] * self.pin_count[cell] as f32 + self.local_nets[cell] as f32;
            if penalty == 0.0 {
                continue;
            }
            let incident: Vec<EdgeId> = grid.incident_edges(p).collect();
            let share = penalty / incident.len() as f32;
            for e in incident {
                cap[e.index()] -= share;
            }
        }
        Ok(CapacityModel {
            cap,
            beta: self.beta.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rect;

    fn grid() -> GcellGrid {
        GcellGrid::new(4, 4).unwrap()
    }

    #[test]
    fn uniform_capacity_without_pins() {
        let g = grid();
        let cap = CapacityBuilder::uniform(&g, 8.0).build(&g).unwrap();
        for e in g.edge_ids() {
            assert_eq!(cap.capacity(e), 8.0);
        }
        assert_eq!(cap.num_edges(), g.num_edges());
    }

    #[test]
    fn pin_penalty_splits_over_incident_edges() {
        let g = grid();
        let cap = CapacityBuilder::uniform(&g, 8.0)
            .add_pins(&g, Point::new(1, 1), 4)
            .unwrap()
            .build(&g)
            .unwrap();
        // interior cell: 4 incident edges, each loses 4*β/4 = 1.0
        for e in g.incident_edges(Point::new(1, 1)) {
            assert_eq!(cap.capacity(e), 7.0);
        }
        // a far edge is untouched
        let far = g.h_edge(2, 3).unwrap();
        assert_eq!(cap.capacity(far), 8.0);
    }

    #[test]
    fn corner_cell_penalty_splits_over_two_edges() {
        let g = grid();
        let cap = CapacityBuilder::uniform(&g, 8.0)
            .add_pins(&g, Point::new(0, 0), 2)
            .unwrap()
            .build(&g)
            .unwrap();
        for e in g.incident_edges(Point::new(0, 0)) {
            assert_eq!(cap.capacity(e), 7.0);
        }
    }

    #[test]
    fn local_nets_reduce_capacity_without_beta() {
        let g = grid();
        let cap = CapacityBuilder::uniform(&g, 8.0)
            .set_beta(&g, Point::new(1, 1), 2.0)
            .unwrap()
            .add_local_nets(&g, Point::new(1, 1), 4)
            .unwrap()
            .build(&g)
            .unwrap();
        // local nets are not scaled by β: 4 / 4 edges = 1.0 each
        for e in g.incident_edges(Point::new(1, 1)) {
            assert_eq!(cap.capacity(e), 7.0);
        }
    }

    #[test]
    fn beta_scales_pin_penalty() {
        let g = grid();
        let cap = CapacityBuilder::uniform(&g, 8.0)
            .set_beta(&g, Point::new(2, 2), 0.5)
            .unwrap()
            .add_pins(&g, Point::new(2, 2), 4)
            .unwrap()
            .build(&g)
            .unwrap();
        for e in g.incident_edges(Point::new(2, 2)) {
            assert_eq!(cap.capacity(e), 7.5);
        }
        assert_eq!(cap.beta(g.cell_id(Point::new(2, 2)).unwrap()), 0.5);
    }

    #[test]
    fn scale_region_halves_hotspot() {
        let g = grid();
        let mut b = CapacityBuilder::uniform(&g, 8.0);
        b.scale_region(&g, Rect::new(Point::new(0, 0), Point::new(1, 1)), 0.5);
        let cap = b.build(&g).unwrap();
        assert_eq!(cap.capacity(g.h_edge(0, 0).unwrap()), 4.0);
        assert_eq!(cap.capacity(g.h_edge(2, 3).unwrap()), 8.0);
    }

    #[test]
    fn from_tracks_validates_length() {
        let g = grid();
        assert!(matches!(
            CapacityBuilder::from_tracks(&g, vec![1.0; 3]),
            Err(GridError::LengthMismatch { .. })
        ));
        assert!(CapacityBuilder::from_tracks(&g, vec![1.0; g.num_edges()]).is_ok());
    }

    #[test]
    fn total_sums_all_edges() {
        let g = grid();
        let cap = CapacityBuilder::uniform(&g, 2.0).build(&g).unwrap();
        assert_eq!(cap.total(), 2.0 * g.num_edges() as f64);
    }
}
