//! Struct-of-arrays node state and arena-allocated topology.
//!
//! Every driver that builds a physical-neighbor graph builds it here:
//! [`CsrGraph::rebuild`] is the one topology kernel, and the
//! adjacency-list [`Graph`] of [`crate::topology::physical_graph`] is laid
//! out from its rows. At the paper's 2000 nodes a per-node `Vec<usize>`
//! list already costs more to grow edge by edge than the range tests that
//! find the edges, so the network drivers keep their graph in the CSR
//! form:
//!
//! * [`NodeStore`] — positions as two parallel `f64` columns (SoA), so
//!   sweeps over one coordinate stream contiguously;
//! * [`CsrGraph`] — the physical-neighbor graph in compressed-sparse-row
//!   form: one offsets column plus one shared edge arena, zero per-node
//!   allocations, `u32` node ids, rebuilt in place through a
//!   [`CsrScratch`] by drivers that build one graph per run or, as the
//!   mobility timeline does, one per position snapshot.

use crate::geom::{Field, Point};
use crate::rng::SimRng;
use crate::topology::Graph;

/// Node positions stored as parallel coordinate columns.
///
/// # Examples
///
/// ```
/// use jrsnd_sim::geom::{Field, Point};
/// use jrsnd_sim::soa::NodeStore;
///
/// let store = NodeStore::from_points(&[Point::new(1.0, 2.0), Point::new(3.0, 4.0)]);
/// assert_eq!(store.len(), 2);
/// assert_eq!(store.position(1), Point::new(3.0, 4.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeStore {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl NodeStore {
    /// An empty store with room for `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        NodeStore {
            xs: Vec::with_capacity(n),
            ys: Vec::with_capacity(n),
        }
    }

    /// Columnizes a point slice.
    pub fn from_points(points: &[Point]) -> Self {
        NodeStore {
            xs: points.iter().map(|p| p.x).collect(),
            ys: points.iter().map(|p| p.y).collect(),
        }
    }

    /// Samples `n` i.i.d. uniform positions, drawing the exact same
    /// stream as [`Field::sample_uniform_n`] — the two representations
    /// are interchangeable under one seed.
    pub fn sample_uniform(field: Field, n: usize, rng: &mut SimRng) -> Self {
        let mut store = NodeStore::with_capacity(n);
        store.resample_uniform(field, n, rng);
        store
    }

    /// Replaces the positions with `n` fresh draws of
    /// [`NodeStore::sample_uniform`], reusing the columns' capacity.
    pub fn resample_uniform(&mut self, field: Field, n: usize, rng: &mut SimRng) {
        self.xs.clear();
        self.ys.clear();
        for _ in 0..n {
            self.push(field.sample_uniform(rng));
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Appends a node, returning its index.
    pub fn push(&mut self, p: Point) -> usize {
        self.xs.push(p.x);
        self.ys.push(p.y);
        self.xs.len() - 1
    }

    /// Position of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn position(&self, i: usize) -> Point {
        Point::new(self.xs[i], self.ys[i])
    }

    /// The x-coordinate column.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The y-coordinate column.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// Iterates positions in node order.
    pub fn iter(&self) -> impl Iterator<Item = Point> + '_ {
        self.xs
            .iter()
            .zip(&self.ys)
            .map(|(&x, &y)| Point::new(x, y))
    }

    /// Materializes the positions as a point vector (compatibility with
    /// the AoS API).
    pub fn to_points(&self) -> Vec<Point> {
        self.iter().collect()
    }
}

/// The physical-neighbor graph in compressed-sparse-row form.
///
/// Node `u`'s sorted neighbor slice is `offsets[u]..offsets[u + 1]` of a
/// single `targets` arena. Node ids are `u32`, halving the adjacency
/// footprint at 100k+ nodes. [`CsrGraph::default`] is the graph on zero
/// nodes, ready for [`CsrGraph::rebuild`].
///
/// # Examples
///
/// ```
/// use jrsnd_sim::geom::{Field, Point};
/// use jrsnd_sim::soa::{CsrGraph, NodeStore};
///
/// let store = NodeStore::from_points(&[
///     Point::new(0.0, 0.0),
///     Point::new(5.0, 0.0),
///     Point::new(50.0, 50.0),
/// ]);
/// let g = CsrGraph::build(Field::new(100.0, 100.0), &store, 10.0);
/// assert_eq!(g.neighbors(0), &[1]);
/// assert_eq!(g.edge_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Default for CsrGraph {
    fn default() -> Self {
        CsrGraph {
            offsets: vec![0],
            targets: Vec::new(),
        }
    }
}

/// The buffers of [`CsrGraph::rebuild`], kept by a driver that builds one
/// graph per run so that a warm rebuild allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct CsrScratch {
    /// Each node's cell, then (once the rows are found) each node's next
    /// free slot for lower neighbors.
    cell: Vec<u32>,
    /// `cell_start[c]..cell_start[c + 1]` are cell `c`'s entries of the
    /// cell-sorted columns.
    cell_start: Vec<u32>,
    /// Node ids and coordinates in cell order, ascending ids within a cell.
    ids: Vec<u32>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Every node's higher neighbors, ascending, one row after another:
    /// the canonical pair order.
    upper: Vec<u32>,
    /// Where each node's row of `upper` ends.
    upper_end: Vec<u32>,
}

impl CsrGraph {
    /// Builds the CSR physical graph of a snapshot: an edge for every
    /// pair within `range` metres ([`CsrGraph::rebuild`] into a fresh
    /// graph).
    ///
    /// # Panics
    ///
    /// Panics if `range` is non-positive or the store holds more than
    /// `u32::MAX` nodes.
    pub fn build(field: Field, store: &NodeStore, range: f64) -> Self {
        let mut graph = CsrGraph::default();
        graph.rebuild(field, store, range, &mut CsrScratch::default());
        graph
    }

    /// Replaces the graph with the physical graph of a snapshot, reusing
    /// its arena and `scratch`: an edge joins every pair `(u, v)` with
    /// `dx² + dy² <= range²`, exactly [`Point::distance_sq`]'s test, so a
    /// pair at exactly `range` is an edge.
    ///
    /// The nodes are counting-sorted into the square cells of side
    /// `range` of [`Field::grid`], row-major from the field's origin: the
    /// saturating casts clamp a position outside the field into the
    /// border cells, which keeps every in-range pair within one cell of
    /// each other. Each node
    /// `u`, in ascending order, then tests the contiguous entries of the
    /// up to 3×3 cells around its own without a branch, keeps the ids
    /// above `u` and sorts that short row. Both directions are laid out
    /// from those rows: the lower neighbors of a node arrive in ascending
    /// order because `u` does, so no full row is ever sorted.
    ///
    /// # Panics
    ///
    /// Panics if `range` is non-positive, or the store holds more nodes
    /// or the grid more cells than `u32` ids.
    pub fn rebuild(
        &mut self,
        field: Field,
        store: &NodeStore,
        range: f64,
        scratch: &mut CsrScratch,
    ) {
        assert!(range > 0.0, "transmission range must be positive");
        let n = store.len();
        assert!(u32::try_from(n).is_ok(), "CsrGraph is limited to u32 ids");
        let (cols, rows) = field
            .grid(range)
            .expect("the field holds more cells of side `range` than u32 ids");
        let cells = cols * rows;
        let CsrScratch {
            cell,
            cell_start,
            ids,
            xs,
            ys,
            upper,
            upper_end,
        } = scratch;
        let (px, py) = (store.xs(), store.ys());

        // Counting sort into cell order. Scattering the nodes in descending
        // order while counting each cell down leaves every cell's ids
        // ascending and `cell_start[c]` at the cell's first entry.
        cell.clear();
        cell.extend(px.iter().zip(py).map(|(&x, &y)| {
            let cx = ((x / range) as usize).min(cols - 1);
            let cy = ((y / range) as usize).min(rows - 1);
            (cy * cols + cx) as u32
        }));
        cell_start.clear();
        cell_start.resize(cells + 1, 0);
        for &c in cell.iter() {
            cell_start[c as usize] += 1;
        }
        let mut acc = 0;
        for count in cell_start.iter_mut() {
            acc += *count;
            *count = acc;
        }
        for column in [&mut *xs, &mut *ys] {
            column.clear();
            column.resize(n, 0.0);
        }
        ids.clear();
        ids.resize(n, 0);
        for u in (0..n).rev() {
            let slot = &mut cell_start[cell[u] as usize];
            *slot -= 1;
            let at = *slot as usize;
            ids[at] = u as u32;
            xs[at] = px[u];
            ys[at] = py[u];
        }

        // Each node's higher neighbors from the 3×3 cells around its own:
        // a cell row of three neighboring cells is one contiguous run.
        let r_sq = range * range;
        upper.clear();
        upper_end.clear();
        for u in 0..n {
            let c = cell[u] as usize;
            let (cx, cy) = (c % cols, c / cols);
            let (x0, x1) = (cx.saturating_sub(1), (cx + 1).min(cols - 1));
            let (y0, y1) = (cy.saturating_sub(1), (cy + 1).min(rows - 1));
            let runs = (y0..=y1).map(|yy| {
                cell_start[yy * cols + x0] as usize..cell_start[yy * cols + x1 + 1] as usize
            });
            let row_start = upper.len();
            upper.resize(
                row_start + runs.clone().map(|run| run.len()).sum::<usize>(),
                0,
            );
            let (x, y, id) = (px[u], py[u], u as u32);
            let mut len = row_start;
            for run in runs {
                for ((&v, &vx), &vy) in ids[run.clone()].iter().zip(&xs[run.clone()]).zip(&ys[run])
                {
                    let (dx, dy) = (x - vx, y - vy);
                    upper[len] = v;
                    len += usize::from((dx * dx + dy * dy <= r_sq) & (v > id));
                }
            }
            upper.truncate(len);
            upper[row_start..].sort_unstable();
            upper_end.push(len as u32);
        }

        // Both directions: degrees, offsets, then each node's lower
        // neighbors followed by its own row. `cell` becomes the cursor of
        // the next lower-neighbor slot.
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        let mut row_start = 0;
        for (u, &end) in upper_end.iter().enumerate() {
            self.offsets[u + 1] += end - row_start;
            for &v in &upper[row_start as usize..end as usize] {
                self.offsets[v as usize + 1] += 1;
            }
            row_start = end;
        }
        let mut acc = 0;
        for degree in self.offsets.iter_mut() {
            acc += *degree;
            *degree = acc;
        }
        self.targets.clear();
        self.targets.resize(2 * upper.len(), 0);
        cell.copy_from_slice(&self.offsets[..n]);
        let mut row_start = 0;
        for (u, &end) in upper_end.iter().enumerate() {
            let row = &upper[row_start as usize..end as usize];
            let tail = self.offsets[u + 1] as usize;
            self.targets[tail - row.len()..tail].copy_from_slice(row);
            for &v in row {
                let slot = &mut cell[v as usize];
                self.targets[*slot as usize] = u as u32;
                *slot += 1;
            }
            row_start = end;
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the graph has zero nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sorted neighbor slice of `u`.
    pub fn neighbors(&self, u: usize) -> &[u32] {
        &self.targets[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// Degree of `u`.
    pub fn degree(&self, u: usize) -> usize {
        (self.offsets[u + 1] - self.offsets[u]) as usize
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// Mean degree over all nodes.
    pub fn mean_degree(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.targets.len() as f64 / self.len() as f64
    }

    /// Whether the undirected edge `(u, v)` is present.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        u < self.len() && self.neighbors(u).binary_search(&(v as u32)).is_ok()
    }

    /// Iterates all undirected edges `(u, v)` with `u < v`, ascending in
    /// `u` and then `v` — the canonical pair order the sharded
    /// Monte-Carlo pipeline folds in.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.len() as u32).flat_map(move |u| {
            self.neighbors(u as usize)
                .iter()
                .copied()
                .filter(move |&v| v > u)
                .map(move |v| (u, v))
        })
    }

    /// Converts to the adjacency-list [`Graph`] (for equivalence tests
    /// and small-scale callers), one exact-size allocation per list.
    pub fn to_graph(&self) -> Graph {
        Graph::from_sorted_rows(
            (0..self.len())
                .map(|u| self.neighbors(u).iter().map(|&v| v as usize).collect())
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::{Mobility, RandomWaypoint};
    use crate::time::SimTime;
    use crate::topology::physical_graph;
    use rand::SeedableRng;

    #[test]
    fn node_store_roundtrips_points() {
        let pts = vec![Point::new(1.5, 2.5), Point::new(3.0, 4.0)];
        let store = NodeStore::from_points(&pts);
        assert_eq!(store.to_points(), pts);
        assert_eq!(store.position(1), Point::new(3.0, 4.0));
        assert_eq!(store.xs(), &[1.5, 3.0]);
        assert_eq!(store.ys(), &[2.5, 4.0]);
    }

    #[test]
    fn soa_sampling_matches_aos_sampling() {
        let field = Field::new(1000.0, 800.0);
        let mut a = SimRng::seed_from_u64(9);
        let mut b = SimRng::seed_from_u64(9);
        let store = NodeStore::sample_uniform(field, 64, &mut a);
        let points = field.sample_uniform_n(64, &mut b);
        assert_eq!(store.to_points(), points);
    }

    #[test]
    fn csr_matches_physical_graph() {
        let field = Field::new(1200.0, 900.0);
        let mut rng = SimRng::seed_from_u64(31);
        let points = field.sample_uniform_n(400, &mut rng);
        let range = 100.0;
        let reference = physical_graph(field, &points, range);
        let csr = CsrGraph::build(field, &NodeStore::from_points(&points), range);
        assert_eq!(csr.len(), reference.len());
        assert_eq!(csr.edge_count(), reference.edge_count());
        assert_eq!(csr.mean_degree(), reference.mean_degree());
        for u in 0..points.len() {
            let want: Vec<u32> = reference.neighbors(u).iter().map(|&v| v as u32).collect();
            assert_eq!(csr.neighbors(u), want.as_slice(), "node {u}");
        }
        assert_eq!(csr.to_graph(), reference);
    }

    #[test]
    fn csr_edges_are_canonically_ordered() {
        let field = Field::new(500.0, 500.0);
        let mut rng = SimRng::seed_from_u64(7);
        let store = NodeStore::sample_uniform(field, 120, &mut rng);
        let csr = CsrGraph::build(field, &store, 80.0);
        let edges: Vec<(u32, u32)> = csr.edges().collect();
        let mut sorted = edges.clone();
        sorted.sort_unstable();
        assert_eq!(edges, sorted, "edges() must ascend in (u, v)");
        assert!(edges.iter().all(|&(u, v)| u < v));
        assert_eq!(edges.len(), csr.edge_count());
        for &(u, v) in edges.iter().take(50) {
            assert!(csr.has_edge(u as usize, v as usize));
            assert!(csr.has_edge(v as usize, u as usize));
        }
        assert!(!csr.has_edge(0, 0));
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let field = Field::new(10.0, 10.0);
        let empty = CsrGraph::build(field, &NodeStore::default(), 1.0);
        assert!(empty.is_empty());
        assert_eq!(empty.mean_degree(), 0.0);
        let one = CsrGraph::build(field, &NodeStore::from_points(&[Point::new(5.0, 5.0)]), 1.0);
        assert_eq!(one.len(), 1);
        assert_eq!(one.edge_count(), 0);
        assert_eq!(one.neighbors(0), &[] as &[u32]);
    }

    /// The timeline's use: one graph and one scratch, rebuilt at every
    /// snapshot of a random-waypoint trajectory, equal a fresh build of
    /// that snapshot.
    #[test]
    fn rebuilds_along_a_trajectory_equal_fresh_graphs() {
        let field = Field::new(800.0, 800.0);
        let mut rng = SimRng::seed_from_u64(2011);
        let horizon = SimTime::from_secs(120);
        let model = RandomWaypoint::new(field, 200, 2.0, 12.0, 1.0, horizon, &mut rng);
        let range = 90.0;
        let mut graph = CsrGraph::default();
        let mut scratch = CsrScratch::default();
        let mut previous: Option<Graph> = None;
        let mut changes = 0;
        for step in 0..=12 {
            let t = SimTime::from_secs(step * 10);
            let snap = model.snapshot(t);
            graph.rebuild(field, &NodeStore::from_points(&snap), range, &mut scratch);
            let fresh = physical_graph(field, &snap, range);
            assert_eq!(graph.to_graph(), fresh, "diverged at t = {t:?}");
            assert_eq!(graph.edge_count(), fresh.edge_count());
            assert_eq!(graph.mean_degree(), fresh.mean_degree());
            changes += usize::from(previous.is_some_and(|g| g != fresh));
            previous = Some(fresh);
        }
        assert!(changes > 0, "waypoint nodes should change the topology");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::topology::physical_graph;
    use proptest::prelude::*;

    /// The physical graph by its definition: every pair with
    /// `distance_sq <= range²`, in canonical order.
    fn quadratic_edges(points: &[Point], range: f64) -> Vec<(usize, usize)> {
        let r_sq = range * range;
        (0..points.len())
            .flat_map(|u| ((u + 1)..points.len()).map(move |v| (u, v)))
            .filter(|&(u, v)| points[u].distance_sq(points[v]) <= r_sq)
            .collect()
    }

    /// One point of the topology proptest, on a quarter-metre lattice so
    /// that cell boundaries and exact-range distances are exact: `kind` 0
    /// places it uniformly in the field, 1 on a cell corner (possibly past
    /// the far border), 2 outside the field, and 3 at exactly `range`, or
    /// a 3-4-5 triangle scaled to `range`, from the previous point.
    fn place(kind: u8, a: u16, b: u16, field: Field, range: f64, prev: Option<Point>) -> Point {
        let frac = |k: u16| f64::from(k) / f64::from(u16::MAX);
        let quarter = |x: f64| (x * 4.0).round() / 4.0;
        match (kind, prev) {
            (1, _) => Point::new(f64::from(a % 8) * range, f64::from(b % 8) * range),
            (2, _) => Point::new(
                quarter(field.width() * (3.0 * frac(a) - 1.0)),
                -quarter(field.height() * frac(b)) - 0.25,
            ),
            (3, Some(p)) if a.is_multiple_of(2) => Point::new(p.x + range, p.y),
            (3, Some(p)) => Point::new(p.x - 0.6 * range, p.y + 0.8 * range),
            _ => Point::new(
                quarter(field.width() * frac(a)),
                quarter(field.height() * frac(b)),
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// `CsrGraph::build`, a `rebuild` through dirty scratch and
        /// `physical_graph` equal the O(n²) definition `distance_sq <=
        /// range²`: points on cell boundaries and past the border, pairs at
        /// exactly `range`, fields narrower than `range`, and n ∈ {0, 1}
        /// (a third of the cases keep at most one point).
        #[test]
        fn builders_match_the_quadratic_definition(
            range in prop_oneof![Just(1.0f64), Just(2.5), Just(5.0), Just(12.5), 0.5f64..40.0],
            width in prop_oneof![Just(0.5f64), 0.25f64..120.0],
            height in 0.25f64..120.0,
            raw in proptest::collection::vec((0u8..4, any::<u16>(), any::<u16>()), 0..90),
            few in 0usize..3,
        ) {
            let field = Field::new(width, height);
            let keep = if few == 0 { raw.len().min(1) } else { raw.len() };
            let mut points: Vec<Point> = Vec::with_capacity(keep);
            for &(kind, a, b) in &raw[..keep] {
                let p = place(kind, a, b, field, range, points.last().copied());
                points.push(p);
            }
            let want = quadratic_edges(&points, range);
            let store = NodeStore::from_points(&points);
            let csr = CsrGraph::build(field, &store, range);
            let got: Vec<(usize, usize)> =
                csr.edges().map(|(u, v)| (u as usize, v as usize)).collect();
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(csr.len(), points.len());
            for u in 0..points.len() {
                let row = csr.neighbors(u);
                prop_assert!(row.windows(2).all(|w| w[0] < w[1]), "row {} unsorted", u);
            }
            let reference = Graph::from_edges(points.len(), want.iter().copied());
            prop_assert_eq!(&physical_graph(field, &points, range), &reference);
            // A rebuild through dirty scratch from a larger graph agrees.
            let mut scratch = CsrScratch::default();
            let mut reused = CsrGraph::build(field, &NodeStore::from_points(&[Point::new(0.0, 0.0); 5]), 1.0);
            let wide = Field::new(2.0 * width + range, height);
            reused.rebuild(wide, &NodeStore::from_points(&[Point::new(0.0, 0.0); 7]), range, &mut scratch);
            reused.rebuild(field, &store, range, &mut scratch);
            prop_assert_eq!(&reused, &csr);
        }
    }
}
