//! Planar geometry for node placement: points, distances, and the
//! rectangular deployment field.
//!
//! The paper deploys 2000 nodes uniformly in a 5000 × 5000 m² field with a
//! 300 m transmission range; [`Field`] models that region and provides
//! uniform sampling, and [`lens_overlap_factor`] computes the
//! `1 − 3√3/(4π)` constant of Theorem 3.

use crate::rng::SimRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A point in the deployment plane, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    /// Easting coordinate in metres.
    pub x: f64,
    /// Northing coordinate in metres.
    pub y: f64,
}

impl Point {
    /// Creates a point from coordinates in metres.
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`, in metres.
    ///
    /// # Examples
    ///
    /// ```
    /// use jrsnd_sim::geom::Point;
    /// let a = Point::new(0.0, 0.0);
    /// let b = Point::new(3.0, 4.0);
    /// assert_eq!(a.distance(b), 5.0);
    /// ```
    #[inline]
    pub fn distance(self, other: Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance — avoids the square root in hot loops.
    #[inline]
    pub fn distance_sq(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// The midpoint between two points.
    pub fn midpoint(self, other: Point) -> Point {
        Point::new((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)
    }
}

/// The rectangular deployment field, `[0, width] × [0, height]` metres.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Field {
    width: f64,
    height: f64,
}

impl Field {
    /// Creates a field of the given dimensions in metres.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is non-positive or non-finite.
    pub fn new(width: f64, height: f64) -> Self {
        assert!(
            width.is_finite() && height.is_finite() && width > 0.0 && height > 0.0,
            "field dimensions must be positive and finite, got {width} x {height}"
        );
        Field { width, height }
    }

    /// The paper's default 5000 × 5000 m² field.
    pub fn paper_default() -> Self {
        Field::new(5000.0, 5000.0)
    }

    /// Field width in metres.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Field height in metres.
    pub fn height(&self) -> f64 {
        self.height
    }

    /// Field area in square metres.
    pub fn area(&self) -> f64 {
        self.width * self.height
    }

    /// Whether `p` lies inside the field (inclusive of edges).
    pub fn contains(&self, p: Point) -> bool {
        (0.0..=self.width).contains(&p.x) && (0.0..=self.height).contains(&p.y)
    }

    /// Clamps `p` onto the field.
    pub fn clamp(&self, p: Point) -> Point {
        Point::new(p.x.clamp(0.0, self.width), p.y.clamp(0.0, self.height))
    }

    /// Samples a point uniformly at random inside the field.
    pub fn sample_uniform(&self, rng: &mut SimRng) -> Point {
        Point::new(
            rng.gen_range(0.0..self.width),
            rng.gen_range(0.0..self.height),
        )
    }

    /// Samples `n` i.i.d. uniform points — the paper's node placement.
    pub fn sample_uniform_n(&self, n: usize, rng: &mut SimRng) -> Vec<Point> {
        (0..n).map(|_| self.sample_uniform(rng)).collect()
    }

    /// The grid of square cells of side `cell` over the field, as
    /// `(⌈w/cell⌉, ⌈h/cell⌉)` columns and rows (at least one of each), or
    /// `None` when it holds more cells than there are `u32` ids.
    pub fn grid(&self, cell: f64) -> Option<(usize, usize)> {
        let cols = (self.width / cell).ceil().max(1.0) as usize;
        let rows = (self.height / cell).ceil().max(1.0) as usize;
        cols.checked_mul(rows)
            .filter(|&cells| u32::try_from(cells).is_ok())
            .map(|_| (cols, rows))
    }

    /// Expected number of physical neighbors of a node with transmission
    /// radius `range`, ignoring border effects: `n · π·range² / area`.
    ///
    /// This is the `g` used when instantiating Theorem 3 analytically.
    pub fn expected_degree(&self, n: usize, range: f64) -> f64 {
        (n as f64) * std::f64::consts::PI * range * range / self.area()
    }
}

/// The `1 − 3√3/(4π)` lens-overlap factor of Theorem 3.
///
/// For two nodes exactly at each other's transmission boundary, the expected
/// overlap of their coverage disks is `(π − 3√3/4)·a²`; dividing by the disk
/// area `π·a²` gives this factor ≈ 0.5865.
///
/// # Examples
///
/// ```
/// let f = jrsnd_sim::geom::lens_overlap_factor();
/// assert!((f - 0.5865).abs() < 1e-3);
/// ```
pub fn lens_overlap_factor() -> f64 {
    1.0 - 3.0 * 3.0_f64.sqrt() / (4.0 * std::f64::consts::PI)
}

/// Area of intersection of two disks of equal radius `r` whose centres are
/// `d` apart (the classical lens formula). Used for exact expected common
/// neighbour counts and to validate [`lens_overlap_factor`].
pub fn disk_intersection_area(r: f64, d: f64) -> f64 {
    assert!(
        r > 0.0 && d >= 0.0,
        "radius must be positive, distance non-negative"
    );
    if d >= 2.0 * r {
        return 0.0;
    }
    if d == 0.0 {
        return std::f64::consts::PI * r * r;
    }
    let half = d / (2.0 * r);
    2.0 * r * r * half.acos() - (d / 2.0) * (4.0 * r * r - d * d).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn distance_basics() {
        let a = Point::new(1.0, 1.0);
        assert_eq!(a.distance(a), 0.0);
        let b = Point::new(4.0, 5.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(a.distance_sq(b), 25.0);
        assert_eq!(a.midpoint(b), Point::new(2.5, 3.0));
    }

    #[test]
    fn field_contains_and_clamps() {
        let f = Field::new(10.0, 20.0);
        assert!(f.contains(Point::new(0.0, 0.0)));
        assert!(f.contains(Point::new(10.0, 20.0)));
        assert!(!f.contains(Point::new(10.1, 5.0)));
        assert_eq!(f.clamp(Point::new(-3.0, 25.0)), Point::new(0.0, 20.0));
        assert_eq!(f.area(), 200.0);
    }

    #[test]
    fn uniform_samples_stay_inside() {
        let f = Field::paper_default();
        let mut rng = SimRng::seed_from_u64(1);
        for p in f.sample_uniform_n(1000, &mut rng) {
            assert!(f.contains(p));
        }
    }

    #[test]
    fn uniform_samples_cover_quadrants() {
        let f = Field::new(100.0, 100.0);
        let mut rng = SimRng::seed_from_u64(2);
        let pts = f.sample_uniform_n(4000, &mut rng);
        let mut quadrants = [0u32; 4];
        for p in pts {
            let q = (usize::from(p.x > 50.0)) | (usize::from(p.y > 50.0) << 1);
            quadrants[q] += 1;
        }
        for &q in &quadrants {
            assert!((800..1200).contains(&q), "quadrant count {q}");
        }
    }

    #[test]
    fn expected_degree_matches_paper_setup() {
        // 2000 nodes, 5000x5000 field, 300 m range => g ~= 22.6.
        let g = Field::paper_default().expected_degree(2000, 300.0);
        assert!((g - 22.62).abs() < 0.05, "g = {g}");
    }

    #[test]
    fn lens_factor_value() {
        let f = lens_overlap_factor();
        assert!((f - 0.586_503).abs() < 1e-5, "factor = {f}");
    }

    #[test]
    fn disk_intersection_limits() {
        let r = 300.0;
        assert_eq!(disk_intersection_area(r, 2.0 * r), 0.0);
        assert!((disk_intersection_area(r, 0.0) - std::f64::consts::PI * r * r).abs() < 1e-6);
    }

    #[test]
    fn expected_overlap_matches_theorem3_constant() {
        // Theorem 3 uses the *expected* overlap of two range-a disks whose
        // centres are a uniformly random neighbour distance apart
        // (density 2d/a^2 on [0, a]): E[A] = (pi - 3*sqrt(3)/4) a^2, i.e.
        // E[A] / (pi a^2) = lens_overlap_factor(). Verify by quadrature.
        let a = 300.0;
        let steps = 200_000;
        let mut acc = 0.0;
        for i in 0..steps {
            let d = (i as f64 + 0.5) / steps as f64 * a;
            acc += disk_intersection_area(a, d) * (2.0 * d / (a * a)) * (a / steps as f64);
        }
        let expected = (std::f64::consts::PI - 3.0 * 3.0_f64.sqrt() / 4.0) * a * a;
        assert!(
            (acc - expected).abs() / expected < 1e-6,
            "E[A]={acc}, want {expected}"
        );
        let frac = acc / (std::f64::consts::PI * a * a);
        assert!((frac - lens_overlap_factor()).abs() < 1e-6);
    }

    #[test]
    fn disk_intersection_monotone_in_distance() {
        let r = 10.0;
        let mut last = f64::INFINITY;
        for i in 0..=40 {
            let d = i as f64 * 0.5;
            let a = disk_intersection_area(r, d);
            assert!(a <= last + 1e-9, "not monotone at d={d}");
            last = a;
        }
    }

    #[test]
    #[should_panic(expected = "field dimensions must be positive")]
    fn zero_field_rejected() {
        let _ = Field::new(0.0, 5.0);
    }
}
