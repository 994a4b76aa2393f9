//! Dense symmetric weight matrices.
//!
//! The host graph of a GNCG instance is a *complete* weighted graph, so a
//! dense symmetric matrix is the natural storage. The diagonal is fixed to
//! zero; `set` keeps the matrix symmetric.

use crate::NodeId;

/// A dense symmetric `n × n` matrix of `f64` weights with a zero diagonal.
///
/// Used both for host-graph weights `w(u, v)` and for all-pairs distance
/// tables. Storage is a flat row-major `Vec<f64>` of length `n²`; symmetric
/// writes keep `m[u][v] == m[v][u]` as an invariant.
#[derive(Clone, Debug, PartialEq)]
pub struct SymMatrix {
    n: usize,
    data: Vec<f64>,
}

impl SymMatrix {
    /// The entry count `n·n` of an `n × n` matrix, or `None` when its
    /// `n·n·size_of::<f64>()` bytes exceed `isize::MAX`, the largest
    /// allocation Rust permits (past it, `n·n` itself can wrap). Spec
    /// validation and the CLI refuse such an `n` with this same check.
    pub fn checked_len(n: usize) -> Option<usize> {
        let len = n.checked_mul(n)?;
        let bytes = len.checked_mul(std::mem::size_of::<f64>())?;
        (bytes <= isize::MAX as usize).then_some(len)
    }

    fn alloc_len(n: usize) -> usize {
        Self::checked_len(n).expect("n×n f64 matrix exceeds isize::MAX bytes")
    }

    /// Creates an `n × n` matrix filled with `fill` off the diagonal and
    /// zeros on the diagonal. Panics when the matrix exceeds `isize::MAX`
    /// bytes ([`SymMatrix::checked_len`]).
    pub fn filled(n: usize, fill: f64) -> Self {
        let mut data = vec![fill; Self::alloc_len(n)];
        for i in 0..n {
            data[i * n + i] = 0.0;
        }
        SymMatrix { n, data }
    }

    /// Creates an `n × n` zero matrix. Panics when the matrix exceeds
    /// `isize::MAX` bytes ([`SymMatrix::checked_len`]).
    pub fn zeros(n: usize) -> Self {
        SymMatrix {
            n,
            data: vec![0.0; Self::alloc_len(n)],
        }
    }

    /// Builds a matrix from a callback evaluated on every unordered pair
    /// `u < v`; the result is symmetric with a zero diagonal.
    pub fn from_fn(n: usize, mut f: impl FnMut(NodeId, NodeId) -> f64) -> Self {
        let mut m = SymMatrix::zeros(n);
        for u in 0..n {
            for v in (u + 1)..n {
                let w = f(u as NodeId, v as NodeId);
                m.set(u as NodeId, v as NodeId, w);
            }
        }
        m
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Reads entry `(u, v)`.
    #[inline]
    pub fn get(&self, u: NodeId, v: NodeId) -> f64 {
        self.data[u as usize * self.n + v as usize]
    }

    /// Writes entries `(u, v)` and `(v, u)`.
    ///
    /// # Panics
    /// Panics if `u == v` and `w != 0.0` (the diagonal must stay zero).
    #[inline]
    pub fn set(&mut self, u: NodeId, v: NodeId, w: f64) {
        if u == v {
            assert!(w == 0.0, "diagonal of a SymMatrix must remain zero");
            return;
        }
        self.data[u as usize * self.n + v as usize] = w;
        self.data[v as usize * self.n + u as usize] = w;
    }

    /// Row `u` as a slice of length `n` (fast bulk access for Dijkstra and
    /// Floyd–Warshall inner loops).
    #[inline]
    pub fn row(&self, u: NodeId) -> &[f64] {
        let s = u as usize * self.n;
        &self.data[s..s + self.n]
    }

    /// Iterates over all unordered pairs `(u, v, w)` with `u < v`.
    pub fn pairs(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        (0..self.n).flat_map(move |u| {
            ((u + 1)..self.n)
                .map(move |v| (u as NodeId, v as NodeId, self.get(u as NodeId, v as NodeId)))
        })
    }

    /// Sum of all entries over unordered pairs (total weight of the complete
    /// graph the matrix describes).
    pub fn total_weight(&self) -> f64 {
        self.pairs().map(|(_, _, w)| w).sum()
    }

    /// Largest finite entry, or `0.0` for `n <= 1`.
    pub fn max_weight(&self) -> f64 {
        self.pairs()
            .map(|(_, _, w)| w)
            .filter(|w| w.is_finite())
            .fold(0.0, f64::max)
    }

    /// Smallest off-diagonal entry, or `f64::INFINITY` for `n <= 1`.
    pub fn min_weight(&self) -> f64 {
        self.pairs()
            .map(|(_, _, w)| w)
            .fold(f64::INFINITY, f64::min)
    }

    /// Checks all entries are non-negative (edge weights must be in `R+`).
    pub fn is_nonnegative(&self) -> bool {
        self.data.iter().all(|&w| w >= 0.0)
    }

    /// Verifies the triangle inequality `w(u,v) <= w(u,x) + w(x,v)` for all
    /// triples within tolerance; this is the defining property of the
    /// `M–GNCG` model variant.
    pub fn satisfies_triangle_inequality(&self) -> bool {
        let n = self.n;
        for u in 0..n as NodeId {
            for v in (u + 1)..n as NodeId {
                let w_uv = self.get(u, v);
                for x in 0..n as NodeId {
                    if x == u || x == v {
                        continue;
                    }
                    let detour = self.get(u, x) + self.get(x, v);
                    if w_uv > detour + crate::EPS {
                        return false;
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn checked_len_stops_at_the_isize_allocation_bound() {
        // (2^30)²·8 = 2^63 bytes is one byte over isize::MAX; 2^32 wraps n·n.
        assert_eq!(SymMatrix::checked_len(4), Some(16));
        assert_eq!(
            SymMatrix::checked_len((1 << 30) - 1),
            Some(((1 << 30) - 1) * ((1 << 30) - 1))
        );
        for n in [1usize << 30, 1 << 32, usize::MAX] {
            assert_eq!(SymMatrix::checked_len(n), None, "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "n×n f64 matrix exceeds isize::MAX bytes")]
    fn filled_refuses_a_matrix_past_the_allocation_bound() {
        // n·n wraps to a small length here: without the check the diagonal
        // write indexed past the buffer. The check fires before any
        // allocation.
        SymMatrix::filled(1 << (usize::BITS / 2), 1.0);
    }

    #[test]
    #[should_panic(expected = "n×n f64 matrix exceeds isize::MAX bytes")]
    fn zeros_refuses_a_matrix_past_the_allocation_bound() {
        SymMatrix::zeros(usize::MAX);
    }

    #[test]
    fn filled_has_zero_diagonal() {
        let m = SymMatrix::filled(4, 7.0);
        for i in 0..4 {
            assert_eq!(m.get(i, i), 0.0);
        }
        assert_eq!(m.get(0, 3), 7.0);
    }

    #[test]
    fn set_is_symmetric() {
        let mut m = SymMatrix::zeros(3);
        m.set(0, 2, 5.5);
        assert_eq!(m.get(0, 2), 5.5);
        assert_eq!(m.get(2, 0), 5.5);
    }

    #[test]
    #[should_panic]
    fn diagonal_write_panics() {
        let mut m = SymMatrix::zeros(3);
        m.set(1, 1, 2.0);
    }

    #[test]
    fn from_fn_builds_symmetric() {
        let m = SymMatrix::from_fn(4, |u, v| (u + v) as f64);
        assert_eq!(m.get(1, 3), 4.0);
        assert_eq!(m.get(3, 1), 4.0);
        assert_eq!(m.get(2, 2), 0.0);
    }

    #[test]
    fn pairs_count() {
        let m = SymMatrix::filled(5, 1.0);
        assert_eq!(m.pairs().count(), 10);
        assert_eq!(m.total_weight(), 10.0);
    }

    #[test]
    fn triangle_inequality_detection() {
        // Unit metric satisfies it.
        let unit = SymMatrix::filled(5, 1.0);
        assert!(unit.satisfies_triangle_inequality());
        // 1-2 weights always satisfy it.
        let m12 = SymMatrix::from_fn(5, |u, v| if (u + v) % 2 == 0 { 2.0 } else { 1.0 });
        assert!(m12.satisfies_triangle_inequality());
        // A long edge violating the detour bound does not.
        let mut bad = SymMatrix::filled(3, 1.0);
        bad.set(0, 1, 10.0);
        assert!(!bad.satisfies_triangle_inequality());
    }

    #[test]
    fn min_max_weight() {
        let mut m = SymMatrix::filled(3, 2.0);
        m.set(0, 1, 1.0);
        assert_eq!(m.min_weight(), 1.0);
        assert_eq!(m.max_weight(), 2.0);
    }

    #[test]
    fn row_access() {
        let m = SymMatrix::from_fn(3, |u, v| (u * 3 + v) as f64);
        let r = m.row(0);
        assert_eq!(r.len(), 3);
        assert_eq!(r[1], 1.0);
        assert_eq!(r[2], 2.0);
    }
}
