//! Physical-neighbor topology: who is within transmission range of whom.
//!
//! JR-SND distinguishes *physical* neighbors (within range) from *logical*
//! neighbors (mutually discovered). [`Graph`] is a mutable adjacency-list
//! graph for either kind, and [`physical_graph`] builds the physical one
//! of a position snapshot. The network drivers keep their physical graph
//! in [`crate::soa::CsrGraph`] instead. M-NDP searches relay paths with a
//! pooled BFS of its own; [`Graph::shortest_path_within`] is the plain
//! search it is checked against.

use crate::geom::{Field, Point};
use crate::soa::{CsrGraph, NodeStore};
use std::collections::VecDeque;

/// An undirected graph over nodes `0..n`, stored as sorted adjacency lists.
///
/// # Examples
///
/// ```
/// use jrsnd_sim::topology::Graph;
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
/// assert!(g.has_edge(1, 0));
/// assert_eq!(g.degree(1), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    adj: Vec<Vec<usize>>,
    edges: usize,
}

impl Graph {
    /// Creates an empty graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
            edges: 0,
        }
    }

    /// Builds a graph from an edge iterator; duplicate and self edges are
    /// ignored.
    ///
    /// # Examples
    ///
    /// ```
    /// use jrsnd_sim::topology::Graph;
    ///
    /// let g = Graph::from_edges(3, [(0, 1), (1, 0), (2, 2), (1, 2)]);
    /// assert_eq!(g.edge_count(), 2);
    /// assert!(!g.has_edge(2, 2));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn from_edges<I: IntoIterator<Item = (usize, usize)>>(n: usize, edges: I) -> Self {
        let mut g = Graph::new(n);
        for (u, v) in edges {
            if u != v {
                g.add_edge(u, v);
            }
        }
        g
    }

    /// A graph from complete adjacency lists, each sorted and every edge
    /// listed at both ends, as [`crate::soa::CsrGraph`] lays them out.
    pub(crate) fn from_sorted_rows(adj: Vec<Vec<usize>>) -> Self {
        let edges = adj.iter().map(Vec::len).sum::<usize>() / 2;
        debug_assert!(adj.iter().all(|row| row.windows(2).all(|w| w[0] < w[1])));
        Graph { adj, edges }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Whether the graph has zero nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Adds the undirected edge `(u, v)`. Returns `true` if it was new.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` or either endpoint is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize) -> bool {
        assert!(u != v, "self edges are not allowed (node {u})");
        assert!(
            u < self.len() && v < self.len(),
            "edge ({u},{v}) out of range"
        );
        match self.adj[u].binary_search(&v) {
            Ok(_) => false,
            Err(iu) => {
                self.adj[u].insert(iu, v);
                let iv = self.adj[v].binary_search(&u).unwrap_err();
                self.adj[v].insert(iv, u);
                self.edges += 1;
                true
            }
        }
    }

    /// Removes the undirected edge `(u, v)`. Returns `true` if it existed.
    pub fn remove_edge(&mut self, u: usize, v: usize) -> bool {
        if u >= self.len() || v >= self.len() {
            return false;
        }
        match self.adj[u].binary_search(&v) {
            Ok(iu) => {
                self.adj[u].remove(iu);
                let iv = self.adj[v].binary_search(&u).unwrap();
                self.adj[v].remove(iv);
                self.edges -= 1;
                true
            }
            Err(_) => false,
        }
    }

    /// Whether the undirected edge `(u, v)` is present.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        u < self.len() && self.adj[u].binary_search(&v).is_ok()
    }

    /// The sorted neighbor list of `u`.
    pub fn neighbors(&self, u: usize) -> &[usize] {
        &self.adj[u]
    }

    /// Degree of `u`.
    pub fn degree(&self, u: usize) -> usize {
        self.adj[u].len()
    }

    /// Mean degree over all nodes (the paper's `g`).
    pub fn mean_degree(&self) -> f64 {
        if self.adj.is_empty() {
            return 0.0;
        }
        2.0 * self.edges as f64 / self.adj.len() as f64
    }

    /// Iterates over all undirected edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.adj
            .iter()
            .enumerate()
            .flat_map(|(u, vs)| vs.iter().filter(move |&&v| u < v).map(move |&v| (u, v)))
    }

    /// One shortest path from `src` to `dst` with at most `max_hops` hops,
    /// if any, as the node sequence `src, …, dst`.
    ///
    /// # Examples
    ///
    /// ```
    /// use jrsnd_sim::topology::Graph;
    ///
    /// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
    /// assert_eq!(g.shortest_path_within(0, 3, 3), Some(vec![0, 1, 2, 3]));
    /// assert_eq!(g.shortest_path_within(0, 3, 2), None);
    /// ```
    pub fn shortest_path_within(
        &self,
        src: usize,
        dst: usize,
        max_hops: usize,
    ) -> Option<Vec<usize>> {
        if src == dst {
            return Some(vec![src]);
        }
        let mut parent = vec![usize::MAX; self.len()];
        let mut dist = vec![usize::MAX; self.len()];
        dist[src] = 0;
        let mut q = VecDeque::from([src]);
        while let Some(u) = q.pop_front() {
            if dist[u] == max_hops {
                continue;
            }
            for &v in &self.adj[u] {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    parent[v] = u;
                    if v == dst {
                        let mut path = vec![dst];
                        let mut cur = dst;
                        while cur != src {
                            cur = parent[cur];
                            path.push(cur);
                        }
                        path.reverse();
                        return Some(path);
                    }
                    q.push_back(v);
                }
            }
        }
        None
    }
}

/// Builds the physical-neighbor graph of a position snapshot: an edge for
/// every pair within `range` metres.
///
/// The edges come from the cell-sorted kernel of
/// [`crate::soa::CsrGraph::build`], so the cost is O(n·g) rather than
/// O(n²), and each adjacency list is allocated once, at its final size.
///
/// # Examples
///
/// ```
/// use jrsnd_sim::geom::{Field, Point};
/// use jrsnd_sim::topology::physical_graph;
///
/// let field = Field::new(100.0, 100.0);
/// let pts = vec![Point::new(0.0, 0.0), Point::new(5.0, 0.0), Point::new(50.0, 50.0)];
/// let g = physical_graph(field, &pts, 10.0);
/// assert!(g.has_edge(0, 1));
/// assert!(!g.has_edge(0, 2));
/// ```
pub fn physical_graph(field: Field, positions: &[Point], range: f64) -> Graph {
    CsrGraph::build(field, &NodeStore::from_points(positions), range).to_graph()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use rand::SeedableRng;

    #[test]
    fn add_remove_edge_bookkeeping() {
        let mut g = Graph::new(3);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(1, 0)); // duplicate, either orientation
        assert_eq!(g.edge_count(), 1);
        assert!(g.remove_edge(0, 1));
        assert!(!g.remove_edge(0, 1));
        assert_eq!(g.edge_count(), 0);
        assert!(!g.has_edge(0, 1));
    }

    #[test]
    fn mean_degree_of_path() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        assert_eq!(g.mean_degree(), 1.5);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn shortest_path_is_shortest() {
        // Triangle plus pendant: 0-1, 1-2, 0-2, 2-3.
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)]);
        let p = g.shortest_path_within(0, 3, 5).unwrap();
        assert_eq!(p, vec![0, 2, 3]);
        assert!(g.shortest_path_within(0, 3, 1).is_none());
        assert_eq!(g.shortest_path_within(1, 1, 0).unwrap(), vec![1]);
    }

    #[test]
    fn physical_graph_matches_brute_force() {
        let field = Field::new(800.0, 800.0);
        let mut rng = SimRng::seed_from_u64(77);
        let pts = field.sample_uniform_n(300, &mut rng);
        let range = 90.0;
        let g = physical_graph(field, &pts, range);
        for u in 0..pts.len() {
            for v in (u + 1)..pts.len() {
                let expect = pts[u].distance(pts[v]) <= range;
                assert_eq!(g.has_edge(u, v), expect, "pair ({u},{v})");
            }
        }
    }

    #[test]
    fn paper_scale_degree_is_near_analytic() {
        let field = Field::paper_default();
        let mut rng = SimRng::seed_from_u64(5);
        let pts = field.sample_uniform_n(2000, &mut rng);
        let g = physical_graph(field, &pts, 300.0);
        let analytic = field.expected_degree(2000, 300.0);
        // Border effects push the empirical mean a bit below the analytic
        // disk value; accept a 15% band.
        let ratio = g.mean_degree() / analytic;
        assert!((0.80..=1.05).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn edges_iterator_is_consistent() {
        let g = Graph::from_edges(5, [(0, 1), (3, 2), (4, 0)]);
        let mut got: Vec<(usize, usize)> = g.edges().collect();
        got.sort_unstable();
        assert_eq!(got, vec![(0, 1), (0, 4), (2, 3)]);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    #[should_panic(expected = "self edges")]
    fn self_edge_rejected() {
        Graph::new(2).add_edge(1, 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn shortest_path_endpoints_and_length(
            n in 2usize..20,
            edges in proptest::collection::vec((0usize..20, 0usize..20), 0..60),
            max_hops in 0usize..6,
        ) {
            let edges: Vec<(usize, usize)> = edges
                .into_iter()
                .filter(|(u, v)| u != v && *u < n && *v < n)
                .collect();
            let g = Graph::from_edges(n, edges);
            if let Some(p) = g.shortest_path_within(0, n - 1, max_hops) {
                prop_assert_eq!(*p.first().unwrap(), 0);
                prop_assert_eq!(*p.last().unwrap(), n - 1);
                prop_assert!(p.len() - 1 <= max_hops || n == 1);
                for w in p.windows(2) {
                    prop_assert!(g.has_edge(w[0], w[1]));
                }
            }
        }
    }
}
