//! Vertex property arrays and active-vertex sets.
//!
//! Algorithm 1 of the paper operates on three arrays: `Vprop` (the per-vertex property),
//! `Vtemp` (the temporary property accumulated during edge traversal) and the active
//! vertex set `Vactive`. [`VertexProps`] models the first two and [`ActiveSet`] the third.

use crate::{BitSet, VertexId};

/// A dense per-vertex property array.
///
/// The generic parameter is the property value type (`f64` for PageRank, `u32` distances
/// for BFS/SSSP, component ids for CC, widest-path widths for SSWP ...).
///
/// # Example
///
/// ```
/// use piccolo_graph::VertexProps;
/// let mut props = VertexProps::new(4, 0u32);
/// props[2] = 7;
/// assert_eq!(props[2], 7);
/// assert_eq!(props.len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VertexProps<T> {
    values: Vec<T>,
}

impl<T: Clone> VertexProps<T> {
    /// Creates a property array of `num_vertices` entries initialised to `init`.
    pub fn new(num_vertices: u32, init: T) -> Self {
        Self {
            values: vec![init; num_vertices as usize],
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> u32 {
        self.values.len() as u32
    }

    /// Returns `true` if there are no vertices.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Borrow the underlying slice.
    pub fn as_slice(&self) -> &[T] {
        &self.values
    }

    /// Mutably borrow the underlying slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.values
    }

    /// Resets every entry to `value`.
    pub fn fill(&mut self, value: T) {
        self.values.iter_mut().for_each(|v| *v = value.clone());
    }

    /// Iterates over `(vertex, &value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, &T)> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, v)| (i as VertexId, v))
    }
}

impl<T> std::ops::Index<VertexId> for VertexProps<T> {
    type Output = T;

    fn index(&self, index: VertexId) -> &T {
        &self.values[index as usize]
    }
}

impl<T> std::ops::IndexMut<VertexId> for VertexProps<T> {
    fn index_mut(&mut self, index: VertexId) -> &mut T {
        &mut self.values[index as usize]
    }
}

impl<T: Clone> From<Vec<T>> for VertexProps<T> {
    fn from(values: Vec<T>) -> Self {
        Self { values }
    }
}

/// The set of vertices active in the current iteration (the frontier).
///
/// A membership bitset (for O(1) dedup) plus a member count. Members are enumerated in
/// ascending vertex-id order, the order the prefetcher visits them.
#[derive(Debug, Clone)]
pub struct ActiveSet {
    members: BitSet,
    len: u32,
}

impl ActiveSet {
    /// Creates an empty active set over `num_vertices` vertices.
    pub fn new(num_vertices: u32) -> Self {
        Self {
            members: BitSet::new(num_vertices as usize),
            len: 0,
        }
    }

    /// Creates an active set containing every vertex (PageRank's first iteration, and the
    /// `Vactive = V` case discussed in Section II-B).
    pub fn all(num_vertices: u32) -> Self {
        let mut members = BitSet::new(num_vertices as usize);
        members.fill();
        Self {
            members,
            len: num_vertices,
        }
    }

    /// Activates `v`; returns `true` if it was newly activated.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn activate(&mut self, v: VertexId) -> bool {
        let new = self.members.insert(v as usize);
        self.len += u32::from(new);
        new
    }

    /// Returns `true` if `v` is active.
    pub fn contains(&self, v: VertexId) -> bool {
        self.members.contains(v as usize)
    }

    /// Number of active vertices.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Returns `true` if no vertex is active.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of vertices the set ranges over.
    pub fn num_vertices(&self) -> u32 {
        self.members.capacity() as u32
    }

    /// Active vertices in ascending vertex-id order (the order the prefetcher visits them).
    pub fn iter_sorted(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.members.iter().map(|v| v as VertexId)
    }

    /// Visits the active vertices in ascending order via the word-level bitset scan
    /// ([`BitSet::for_each_set`]) — the fast path for building frontier lists.
    pub fn for_each_sorted(&self, mut f: impl FnMut(VertexId)) {
        self.members.for_each_set(|v| f(v as VertexId));
    }

    /// Fraction of vertices that are active.
    pub fn density(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.len() as f64 / self.num_vertices() as f64
        }
    }

    /// Removes all vertices.
    pub fn clear(&mut self) {
        self.members.clear();
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn props_index_and_fill() {
        let mut p = VertexProps::new(3, 1.0f64);
        p[1] = 2.5;
        assert_eq!(p[1], 2.5);
        assert_eq!(p.as_slice(), &[1.0, 2.5, 1.0]);
        p.fill(0.0);
        assert!(p.iter().all(|(_, &v)| v == 0.0));
    }

    #[test]
    fn props_from_vec() {
        let p: VertexProps<u32> = vec![4, 5, 6].into();
        assert_eq!(p.len(), 3);
        assert_eq!(p[2], 6);
    }

    #[test]
    fn active_set_dedups() {
        let mut a = ActiveSet::new(10);
        assert!(a.activate(3));
        assert!(!a.activate(3));
        assert!(a.activate(7));
        assert_eq!(a.len(), 2);
        assert!(a.contains(3));
        assert!(!a.contains(4));
        assert!(a.activate(1));
        assert_eq!(a.iter_sorted().collect::<Vec<_>>(), vec![1, 3, 7]);
        a.clear();
        assert!(a.is_empty());
    }

    #[test]
    fn active_all_is_dense() {
        let a = ActiveSet::all(100);
        assert_eq!(a.len(), 100);
        assert!((a.density() - 1.0).abs() < 1e-12);
        assert_eq!(a.iter_sorted().count(), 100);
    }

    #[test]
    fn clear_resets() {
        let mut a = ActiveSet::all(5);
        a.clear();
        assert!(a.is_empty());
        assert!(a.activate(2));
    }

    #[test]
    fn sorted_iteration_is_sorted() {
        let mut a = ActiveSet::new(50);
        for v in [42, 3, 17, 8] {
            a.activate(v);
        }
        let sorted: Vec<_> = a.iter_sorted().collect();
        assert_eq!(sorted, vec![3, 8, 17, 42]);
    }
}
