//! Mixed-radix coordinate arithmetic for HyperX / Hamming graphs.
//!
//! An `n`-dimensional HyperX with sides `k_1 × … × k_n` labels each switch by
//! a coordinate vector `(x_1, …, x_n)` with `0 ≤ x_i < k_i`. This module maps
//! between those vectors and flat [`SwitchId`](crate::graph::SwitchId)s and
//! provides the Hamming distance, which in a HyperX equals the graph distance.

use serde::{Deserialize, Serialize};

/// A switch coordinate vector. Dimension 0 is the least-significant digit of
/// the flat switch index.
pub type Coordinates = Vec<usize>;

/// A mixed-radix coordinate system with one radix (side) per dimension.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoordinateSystem {
    sides: Vec<usize>,
}

impl CoordinateSystem {
    /// Creates a coordinate system with the given sides.
    ///
    /// # Panics
    /// Panics if any side is smaller than 2 (a dimension of side 1 adds no
    /// switches and no links and is almost certainly a configuration error).
    pub fn new(sides: &[usize]) -> Self {
        assert!(!sides.is_empty(), "at least one dimension is required");
        assert!(
            sides.iter().all(|&k| k >= 2),
            "every side must be at least 2, got {sides:?}"
        );
        CoordinateSystem {
            sides: sides.to_vec(),
        }
    }

    /// Creates the regular system `k × k × … × k` with `dims` dimensions.
    pub fn regular(dims: usize, side: usize) -> Self {
        Self::new(&vec![side; dims])
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.sides.len()
    }

    /// Side (radix) of dimension `d`.
    pub fn side(&self, d: usize) -> usize {
        self.sides[d]
    }

    /// All sides.
    pub fn sides(&self) -> &[usize] {
        &self.sides
    }

    /// Total number of switches, i.e. the product of all sides.
    pub fn num_switches(&self) -> usize {
        self.sides.iter().product()
    }

    /// Converts a flat switch index into its coordinate vector.
    pub fn to_coords(&self, mut id: usize) -> Coordinates {
        debug_assert!(id < self.num_switches(), "switch id {id} out of range");
        let mut out = Vec::with_capacity(self.dims());
        for &k in &self.sides {
            out.push(id % k);
            id /= k;
        }
        out
    }

    /// Coordinate of switch `id` in dimension `d`, without building the
    /// whole vector: `(id / stride(d)) % side(d)`.
    #[inline]
    pub fn coord(&self, id: usize, d: usize) -> usize {
        debug_assert!(id < self.num_switches(), "switch id {id} out of range");
        let stride: usize = self.sides[..d].iter().product();
        (id / stride) % self.sides[d]
    }

    /// Converts a coordinate vector into its flat switch index.
    ///
    /// # Panics
    /// Panics (in debug builds) if the vector has the wrong length or a
    /// coordinate exceeds its side.
    pub fn to_id(&self, coords: &[usize]) -> usize {
        debug_assert_eq!(coords.len(), self.dims());
        let mut id = 0usize;
        let mut stride = 1usize;
        for (d, &c) in coords.iter().enumerate() {
            debug_assert!(c < self.sides[d], "coordinate {c} out of range in dim {d}");
            id += c * stride;
            stride *= self.sides[d];
        }
        id
    }

    /// Number of coordinates in which `a` and `b` differ. In a healthy HyperX
    /// this equals the graph distance between the two switches.
    pub fn hamming_distance(&self, a: usize, b: usize) -> usize {
        (0..self.dims())
            .filter(|&d| self.coord(a, d) != self.coord(b, d))
            .count()
    }

    /// Returns the switch obtained from `id` by setting dimension `d` to `value`.
    pub fn with_coordinate(&self, id: usize, d: usize, value: usize) -> usize {
        let mut c = self.to_coords(id);
        c[d] = value;
        self.to_id(&c)
    }

    /// The dimensions in which `a` and `b` differ.
    pub fn differing_dimensions(&self, a: usize, b: usize) -> Vec<usize> {
        let ca = self.to_coords(a);
        let cb = self.to_coords(b);
        (0..self.dims()).filter(|&d| ca[d] != cb[d]).collect()
    }

    /// Iterates over every switch id.
    pub fn iter_ids(&self) -> impl Iterator<Item = usize> {
        0..self.num_switches()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_regular() {
        let cs = CoordinateSystem::regular(3, 4);
        assert_eq!(cs.num_switches(), 64);
        for id in cs.iter_ids() {
            let c = cs.to_coords(id);
            assert_eq!(cs.to_id(&c), id);
        }
    }

    #[test]
    fn roundtrip_mixed_radix() {
        let cs = CoordinateSystem::new(&[2, 3, 5]);
        assert_eq!(cs.num_switches(), 30);
        for id in cs.iter_ids() {
            assert_eq!(cs.to_id(&cs.to_coords(id)), id);
        }
    }

    #[test]
    fn coordinate_order_is_little_endian() {
        let cs = CoordinateSystem::new(&[4, 4]);
        assert_eq!(cs.to_coords(0), vec![0, 0]);
        assert_eq!(cs.to_coords(1), vec![1, 0]);
        assert_eq!(cs.to_coords(4), vec![0, 1]);
        assert_eq!(cs.to_id(&[3, 2]), 3 + 2 * 4);
    }

    #[test]
    fn hamming_distance_counts_differences() {
        let cs = CoordinateSystem::regular(3, 8);
        let a = cs.to_id(&[1, 2, 3]);
        let b = cs.to_id(&[1, 5, 4]);
        assert_eq!(cs.hamming_distance(a, a), 0);
        assert_eq!(cs.hamming_distance(a, b), 2);
        assert_eq!(cs.hamming_distance(a, cs.to_id(&[0, 0, 0])), 3);
    }

    #[test]
    fn with_coordinate_changes_single_dimension() {
        let cs = CoordinateSystem::regular(2, 16);
        let a = cs.to_id(&[3, 7]);
        let b = cs.with_coordinate(a, 1, 9);
        assert_eq!(cs.to_coords(b), vec![3, 9]);
    }

    #[test]
    fn differing_dimensions_reported() {
        let cs = CoordinateSystem::regular(3, 4);
        let a = cs.to_id(&[0, 1, 2]);
        let b = cs.to_id(&[0, 3, 1]);
        assert_eq!(cs.differing_dimensions(a, b), vec![1, 2]);
        assert!(cs.differing_dimensions(a, a).is_empty());
    }

    #[test]
    #[should_panic]
    fn side_one_rejected() {
        let _ = CoordinateSystem::new(&[4, 1]);
    }
}
