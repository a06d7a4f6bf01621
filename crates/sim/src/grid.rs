//! A uniform-grid spatial index for range queries over node positions.
//!
//! Bucketing positions into cells of side `range` makes each query touch
//! at most 9 cells. The index is mutable, item by item, so
//! [`crate::soa::DynamicTopology`] keeps one to move nodes incrementally;
//! a whole snapshot's topology comes from the cell-sorted kernel of
//! [`crate::soa::CsrGraph::build`], which lays its cells out the same
//! way.

use crate::geom::{Field, Point};

/// A uniform grid over a [`Field`], indexing items by position.
///
/// # Examples
///
/// ```
/// use jrsnd_sim::geom::{Field, Point};
/// use jrsnd_sim::grid::UniformGrid;
///
/// let field = Field::new(100.0, 100.0);
/// let mut grid = UniformGrid::new(field, 10.0);
/// grid.insert(0, Point::new(5.0, 5.0));
/// grid.insert(1, Point::new(8.0, 5.0));
/// grid.insert(2, Point::new(90.0, 90.0));
/// let near: Vec<usize> = grid.within(Point::new(6.0, 5.0), 5.0).collect();
/// assert!(near.contains(&0) && near.contains(&1) && !near.contains(&2));
/// ```
#[derive(Debug, Clone)]
pub struct UniformGrid {
    cell: f64,
    cols: usize,
    rows: usize,
    cells: Vec<Vec<(usize, Point)>>,
    len: usize,
}

impl UniformGrid {
    /// Creates a grid over `field` with square cells of side `cell_size`.
    ///
    /// For neighbor queries of radius `r`, `cell_size = r` is optimal.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is non-positive or non-finite.
    pub fn new(field: Field, cell_size: f64) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "cell size must be positive and finite, got {cell_size}"
        );
        let cols = (field.width() / cell_size).ceil().max(1.0) as usize;
        let rows = (field.height() / cell_size).ceil().max(1.0) as usize;
        UniformGrid {
            cell: cell_size,
            cols,
            rows,
            cells: vec![Vec::new(); cols * rows],
            len: 0,
        }
    }

    /// Builds a grid directly from a slice of positions, with item `i`
    /// carrying index `i`.
    pub fn from_points(field: Field, cell_size: f64, points: &[Point]) -> Self {
        let mut grid = UniformGrid::new(field, cell_size);
        for (i, &p) in points.iter().enumerate() {
            grid.insert(i, p);
        }
        grid
    }

    #[inline]
    fn cell_of(&self, p: Point) -> (usize, usize) {
        let cx = ((p.x / self.cell) as usize).min(self.cols - 1);
        let cy = ((p.y / self.cell) as usize).min(self.rows - 1);
        (cx, cy)
    }

    /// Inserts an item at a position. Items outside the field are clamped to
    /// the boundary cells.
    pub fn insert(&mut self, id: usize, p: Point) {
        let (cx, cy) = self.cell_of(p);
        self.cells[cy * self.cols + cx].push((id, p));
        self.len += 1;
    }

    /// Removes the item `id` previously inserted at position `p`.
    ///
    /// `p` must be the position the item was inserted (or last relocated)
    /// with — it selects the cell to search, keeping removal O(cell
    /// occupancy) instead of O(n). Returns `true` if the item was found.
    /// Within-cell order of the remaining items is preserved, so query
    /// iteration order stays a pure function of the insert/remove history.
    pub fn remove(&mut self, id: usize, p: Point) -> bool {
        let (cx, cy) = self.cell_of(p);
        let cell = &mut self.cells[cy * self.cols + cx];
        if let Some(i) = cell.iter().position(|&(j, _)| j == id) {
            cell.remove(i);
            self.len -= 1;
            true
        } else {
            false
        }
    }

    /// Moves the item `id` from position `from` to position `to`,
    /// re-bucketing only when the cell changes — the O(moved) primitive
    /// incremental topology refreshes are built on.
    ///
    /// Returns `true` if the item was found at `from`'s cell. A relocation
    /// within one cell updates the stored position in place (preserving
    /// within-cell order); across cells it behaves like remove + insert.
    pub fn relocate(&mut self, id: usize, from: Point, to: Point) -> bool {
        let (fx, fy) = self.cell_of(from);
        let (tx, ty) = self.cell_of(to);
        if (fx, fy) == (tx, ty) {
            let cell = &mut self.cells[fy * self.cols + fx];
            if let Some(slot) = cell.iter_mut().find(|(j, _)| *j == id) {
                slot.1 = to;
                return true;
            }
            return false;
        }
        if self.remove(id, from) {
            self.insert(id, to);
            true
        } else {
            false
        }
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the grid holds no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the ids of all items within Euclidean distance
    /// `radius` of `center` (inclusive).
    pub fn within<'a>(&'a self, center: Point, radius: f64) -> impl Iterator<Item = usize> + 'a {
        self.within_points(center, radius).map(|(id, _)| id)
    }

    /// Like [`UniformGrid::within`] but yields `(id, position)` pairs.
    pub fn within_points<'a>(
        &'a self,
        center: Point,
        radius: f64,
    ) -> impl Iterator<Item = (usize, Point)> + 'a {
        assert!(radius >= 0.0, "radius must be non-negative");
        let r_cells = (radius / self.cell).ceil() as isize;
        let (cx, cy) = self.cell_of(center);
        let (cx, cy) = (cx as isize, cy as isize);
        let x0 = (cx - r_cells).max(0) as usize;
        let x1 = ((cx + r_cells) as usize).min(self.cols - 1);
        let y0 = (cy - r_cells).max(0) as usize;
        let y1 = ((cy + r_cells) as usize).min(self.rows - 1);
        let r_sq = radius * radius;
        (y0..=y1).flat_map(move |yy| {
            (x0..=x1).flat_map(move |xx| {
                self.cells[yy * self.cols + xx]
                    .iter()
                    .filter(move |(_, p)| center.distance_sq(*p) <= r_sq)
                    .map(|&(id, p)| (id, p))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use rand::SeedableRng;

    fn brute_force(points: &[Point], center: Point, radius: f64) -> Vec<usize> {
        let mut v: Vec<usize> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| center.distance_sq(**p) <= radius * radius)
            .map(|(i, _)| i)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn agrees_with_brute_force() {
        let field = Field::new(1000.0, 800.0);
        let mut rng = SimRng::seed_from_u64(11);
        let points = field.sample_uniform_n(500, &mut rng);
        let grid = UniformGrid::from_points(field, 75.0, &points);
        for qi in 0..20 {
            let center = points[qi * 17 % points.len()];
            for radius in [0.0, 10.0, 75.0, 200.0] {
                let mut got: Vec<usize> = grid.within(center, radius).collect();
                got.sort_unstable();
                assert_eq!(got, brute_force(&points, center, radius));
            }
        }
    }

    #[test]
    fn boundary_points_are_indexed() {
        let field = Field::new(100.0, 100.0);
        let mut grid = UniformGrid::new(field, 30.0);
        grid.insert(0, Point::new(100.0, 100.0)); // exactly on the far corner
        grid.insert(1, Point::new(0.0, 0.0));
        let got: Vec<usize> = grid.within(Point::new(99.0, 99.0), 2.0).collect();
        assert_eq!(got, vec![0]);
        assert_eq!(grid.len(), 2);
    }

    #[test]
    fn radius_zero_finds_exact_matches_only() {
        let field = Field::new(10.0, 10.0);
        let mut grid = UniformGrid::new(field, 1.0);
        grid.insert(7, Point::new(5.0, 5.0));
        grid.insert(8, Point::new(5.0, 5.1));
        let got: Vec<usize> = grid.within(Point::new(5.0, 5.0), 0.0).collect();
        assert_eq!(got, vec![7]);
    }

    #[test]
    fn empty_grid_yields_nothing() {
        let grid = UniformGrid::new(Field::new(10.0, 10.0), 1.0);
        assert!(grid.is_empty());
        assert_eq!(grid.within(Point::new(5.0, 5.0), 100.0).count(), 0);
    }

    #[test]
    fn remove_deletes_exactly_the_requested_item() {
        let field = Field::new(100.0, 100.0);
        let mut grid = UniformGrid::new(field, 10.0);
        let p = Point::new(5.0, 5.0);
        grid.insert(0, p);
        grid.insert(1, p);
        assert!(grid.remove(0, p));
        assert_eq!(grid.len(), 1);
        let got: Vec<usize> = grid.within(p, 1.0).collect();
        assert_eq!(got, vec![1]);
        assert!(!grid.remove(0, p), "double remove must be a no-op");
        assert!(!grid.remove(7, p), "unknown id must be a no-op");
        assert_eq!(grid.len(), 1);
    }

    #[test]
    fn relocate_moves_between_cells() {
        let field = Field::new(100.0, 100.0);
        let mut grid = UniformGrid::new(field, 10.0);
        let a = Point::new(5.0, 5.0);
        let b = Point::new(95.0, 95.0);
        grid.insert(3, a);
        assert!(grid.relocate(3, a, b));
        assert_eq!(grid.len(), 1);
        assert_eq!(grid.within(a, 2.0).count(), 0);
        let got: Vec<usize> = grid.within(b, 2.0).collect();
        assert_eq!(got, vec![3]);
    }

    #[test]
    fn relocate_within_a_cell_updates_the_position() {
        let field = Field::new(100.0, 100.0);
        let mut grid = UniformGrid::new(field, 50.0);
        let a = Point::new(10.0, 10.0);
        let b = Point::new(40.0, 40.0); // same 50 m cell
        grid.insert(0, a);
        grid.insert(1, a);
        assert!(grid.relocate(0, a, b));
        let near_b: Vec<usize> = grid.within(b, 1.0).collect();
        assert_eq!(near_b, vec![0]);
        let near_a: Vec<usize> = grid.within(a, 1.0).collect();
        assert_eq!(near_a, vec![1]);
        assert!(!grid.relocate(9, a, b), "unknown id is a no-op");
    }

    #[test]
    fn query_radius_larger_than_field_sees_everything() {
        let field = Field::new(50.0, 50.0);
        let mut rng = SimRng::seed_from_u64(3);
        let points = field.sample_uniform_n(64, &mut rng);
        let grid = UniformGrid::from_points(field, 10.0, &points);
        assert_eq!(grid.within(Point::new(25.0, 25.0), 1e6).count(), 64);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::rng::SimRng;
    use proptest::prelude::*;
    use rand::SeedableRng;

    proptest! {
        #[test]
        fn grid_matches_brute_force(
            seed in 0u64..1000,
            n in 1usize..200,
            cell in 5.0f64..120.0,
            radius in 0.0f64..300.0,
        ) {
            let field = Field::new(500.0, 400.0);
            let mut rng = SimRng::seed_from_u64(seed);
            let points = field.sample_uniform_n(n, &mut rng);
            let grid = UniformGrid::from_points(field, cell, &points);
            let center = points[0];
            let mut got: Vec<usize> = grid.within(center, radius).collect();
            got.sort_unstable();
            let want: Vec<usize> = points
                .iter()
                .enumerate()
                .filter(|(_, p)| center.distance_sq(**p) <= radius * radius)
                .map(|(i, _)| i)
                .collect();
            prop_assert_eq!(got, want);
        }
    }

    /// One step of an insert/remove/move interleaving. Coordinates are
    /// picked by index into a fixed lattice so shrinking stays effective.
    #[derive(Debug, Clone)]
    enum GridOp {
        Insert(u16, u16),
        RemoveNth(usize),
        MoveNth(usize, u16, u16),
    }

    fn arb_grid_op() -> impl Strategy<Value = GridOp> {
        prop_oneof![
            (0u16..500, 0u16..400).prop_map(|(x, y)| GridOp::Insert(x, y)),
            (0usize..64).prop_map(GridOp::RemoveNth),
            (0usize..64, 0u16..500, 0u16..400).prop_map(|(k, x, y)| GridOp::MoveNth(k, x, y)),
        ]
    }

    proptest! {
        /// Arbitrary insert/remove/relocate interleavings agree with a
        /// naive `Vec<(id, Point)>` oracle on membership, length, and the
        /// results of range queries at several radii.
        #[test]
        fn incremental_ops_match_brute_force(
            ops in proptest::collection::vec(arb_grid_op(), 1..120),
            cell in 5.0f64..120.0,
        ) {
            let field = Field::new(500.0, 400.0);
            let mut grid = UniformGrid::new(field, cell);
            let mut model: Vec<(usize, Point)> = Vec::new();
            let mut next_id = 0usize;
            for op in ops {
                match op {
                    GridOp::Insert(x, y) => {
                        let p = Point::new(f64::from(x), f64::from(y));
                        grid.insert(next_id, p);
                        model.push((next_id, p));
                        next_id += 1;
                    }
                    GridOp::RemoveNth(k) => {
                        if model.is_empty() {
                            continue;
                        }
                        let (id, p) = model[k % model.len()];
                        prop_assert!(grid.remove(id, p));
                        model.retain(|&(j, _)| j != id);
                        // A second removal of the same item must miss.
                        prop_assert!(!grid.remove(id, p));
                    }
                    GridOp::MoveNth(k, x, y) => {
                        if model.is_empty() {
                            continue;
                        }
                        let slot = k % model.len();
                        let (id, from) = model[slot];
                        let to = Point::new(f64::from(x), f64::from(y));
                        prop_assert!(grid.relocate(id, from, to));
                        model[slot] = (id, to);
                    }
                }
                prop_assert_eq!(grid.len(), model.len());
            }
            // Query equivalence from a few centers at a few radii.
            let centers = [
                Point::new(0.0, 0.0),
                Point::new(250.0, 200.0),
                Point::new(499.0, 399.0),
            ];
            for center in centers {
                for radius in [0.0, 30.0, 120.0, 600.0] {
                    let mut got: Vec<usize> = grid.within(center, radius).collect();
                    got.sort_unstable();
                    let mut want: Vec<usize> = model
                        .iter()
                        .filter(|(_, p)| center.distance_sq(*p) <= radius * radius)
                        .map(|&(id, _)| id)
                        .collect();
                    want.sort_unstable();
                    prop_assert_eq!(got, want);
                }
            }
        }
    }
}
