//! Flat per-entity embedding storage and the fused-path scratch arenas.
//!
//! The original pipeline stored one `Vec<Vec<Vec<f32>>>` per entity —
//! attribute → token → vector — which costs one heap allocation per token
//! *per stage* (static hashing, contextualization, projection) plus the
//! nested spines. TrackingAlloc attribution showed this churn dominating
//! the `embed` span. [`EmbedMatrix`] replaces the nested shape with one
//! flat row-major `Vec<f32>` (token rows in attribute order) plus an
//! attribute offset table, and [`EmbedScratch`] (a thread-local, reached
//! via the crate-private `with_scratch`) keeps the per-stage intermediates in reusable
//! arenas, so the fused embed path performs **one** data allocation per
//! entity in the worst case — and zero at steady state, because dropped
//! matrices can hand their storage back through [`recycle`].

use serde::{Deserialize, Serialize};

/// Flat, row-major storage of one entity's token embeddings.
///
/// Row `r` (a `dim`-long slice) is the contextual unit vector of one token;
/// rows group by attribute: attribute `a` owns rows
/// `attr_offsets[a] .. attr_offsets[a + 1]`, in token order.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EmbedMatrix {
    dim: usize,
    /// `n_attrs + 1` row offsets (first 0, last = total rows).
    attr_offsets: Vec<usize>,
    /// `n_rows * dim` floats, row-major.
    data: Vec<f32>,
}

impl EmbedMatrix {
    /// Assembles a matrix from raw parts (the fused embed path).
    ///
    /// # Panics
    /// Panics when the offset table and data length disagree.
    pub fn from_raw(dim: usize, attr_offsets: Vec<usize>, data: Vec<f32>) -> Self {
        assert!(!attr_offsets.is_empty(), "offset table needs a leading 0");
        let rows = *attr_offsets.last().unwrap();
        assert_eq!(data.len(), rows * dim, "data length must be rows * dim");
        Self { dim, attr_offsets, data }
    }

    /// Converts the legacy nested attribute → token → vector shape. Used by
    /// tests and the reference (unfused) embed path.
    pub fn from_nested(nested: &[Vec<Vec<f32>>], dim: usize) -> Self {
        let mut attr_offsets = Vec::with_capacity(nested.len() + 1);
        attr_offsets.push(0usize);
        let mut rows = 0usize;
        for attr in nested {
            rows += attr.len();
            attr_offsets.push(rows);
        }
        let mut data = Vec::with_capacity(rows * dim);
        for attr in nested {
            for v in attr {
                debug_assert_eq!(v.len(), dim);
                data.extend_from_slice(v);
            }
        }
        Self { dim, attr_offsets, data }
    }

    /// Back to the nested attribute → token → vector shape (tests and the
    /// fused-vs-reference equivalence checks).
    pub fn to_nested(&self) -> Vec<Vec<Vec<f32>>> {
        (0..self.n_attrs())
            .map(|a| self.attr_rows(a).map(<[f32]>::to_vec).collect())
            .collect()
    }

    /// Embedding dimension (row width).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total token rows.
    pub fn n_rows(&self) -> usize {
        *self.attr_offsets.last().unwrap_or(&0)
    }

    /// Number of attributes.
    pub fn n_attrs(&self) -> usize {
        self.attr_offsets.len().saturating_sub(1)
    }

    /// Token count of one attribute.
    pub fn attr_len(&self, attr: usize) -> usize {
        self.attr_offsets[attr + 1] - self.attr_offsets[attr]
    }

    /// Row range of one attribute.
    pub fn attr_range(&self, attr: usize) -> std::ops::Range<usize> {
        self.attr_offsets[attr]..self.attr_offsets[attr + 1]
    }

    /// One token row by flat row index.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.dim..(r + 1) * self.dim]
    }

    /// One token row by (attribute, position).
    pub fn embed(&self, attr: usize, pos: usize) -> &[f32] {
        self.row(self.attr_offsets[attr] + pos)
    }

    /// All rows, in (attribute, position) order.
    pub fn rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.dim.max(1)).take(self.n_rows())
    }

    /// The rows of one attribute.
    pub fn attr_rows(&self, attr: usize) -> impl Iterator<Item = &[f32]> {
        let range = self.attr_range(attr);
        let dim = self.dim.max(1);
        self.data[range.start * self.dim..range.end * self.dim]
            .chunks_exact(dim)
            .take(range.len())
    }

    /// Tears the matrix into its raw buffers (see [`recycle`]).
    pub fn into_raw(self) -> (Vec<usize>, Vec<f32>) {
        (self.attr_offsets, self.data)
    }
}

/// Reusable per-thread arenas of the fused tokenize→embed path. All
/// buffers grow to the high-water mark of the records a thread processes
/// and then stop allocating.
#[derive(Default)]
pub struct EmbedScratch {
    /// Static (pre-context) token vectors, `n_rows * dim`.
    pub(crate) statics: Vec<f32>,
    /// Contextualized vectors when a projection follows, `n_rows * dim`.
    pub(crate) ctx: Vec<f32>,
    /// Record centroid, `dim`.
    pub(crate) centroid: Vec<f32>,
    /// Attribute centroid, `dim`.
    pub(crate) attr_centroid: Vec<f32>,
    /// Neighbour accumulator, `dim`.
    pub(crate) nbr: Vec<f32>,
    /// The boundary-padded token bytes for n-gram hashing.
    pub(crate) pad: Vec<u8>,
    /// Character byte offsets of `pad` (non-ASCII tokens).
    pub(crate) bounds: Vec<usize>,
    /// Recycled `(attr_offsets, data)` buffers from dropped matrices.
    pub(crate) pool: Vec<(Vec<usize>, Vec<f32>)>,
}

/// Upper bound on pooled buffers per thread — enough to cover both sides
/// of a few in-flight records without hoarding memory.
const POOL_CAP: usize = 16;

thread_local! {
    static SCRATCH: std::cell::RefCell<EmbedScratch> =
        std::cell::RefCell::new(EmbedScratch::default());
}

/// Runs `f` with this thread's embed scratch arenas.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut EmbedScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// Returns a dropped matrix's buffers to this thread's pool, making the
/// next fused embed on this thread allocation-free. Callers that consume
/// records in place (the serving path, the perf harness) should recycle;
/// callers that keep records alive (fitting) simply don't.
pub fn recycle(matrix: EmbedMatrix) {
    with_scratch(|s| {
        if s.pool.len() < POOL_CAP {
            s.pool.push(matrix.into_raw());
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EmbedMatrix {
        EmbedMatrix::from_nested(
            &[
                vec![vec![1.0, 2.0], vec![3.0, 4.0]],
                vec![],
                vec![vec![5.0, 6.0]],
            ],
            2,
        )
    }

    #[test]
    fn shape_accessors_agree_with_nested() {
        let m = sample();
        assert_eq!(m.dim(), 2);
        assert_eq!(m.n_attrs(), 3);
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.attr_len(0), 2);
        assert_eq!(m.attr_len(1), 0);
        assert_eq!(m.attr_len(2), 1);
        assert_eq!(m.embed(0, 1), &[3.0, 4.0]);
        assert_eq!(m.embed(2, 0), &[5.0, 6.0]);
        assert_eq!(m.rows().count(), 3);
        assert_eq!(m.attr_rows(1).count(), 0);
        assert_eq!(
            m.to_nested(),
            vec![
                vec![vec![1.0, 2.0], vec![3.0, 4.0]],
                vec![],
                vec![vec![5.0, 6.0]],
            ]
        );
    }

    #[test]
    fn raw_round_trip() {
        let m = sample();
        let dim = m.dim();
        let (offsets, data) = m.clone().into_raw();
        let back = EmbedMatrix::from_raw(dim, offsets, data);
        assert_eq!(back.to_nested(), m.to_nested());
    }

    #[test]
    fn serde_round_trip() {
        use serde::{Deserialize, Serialize};
        let m = sample();
        let back = EmbedMatrix::from_value(&m.to_value()).unwrap();
        assert_eq!(back.to_nested(), m.to_nested());
    }

    #[test]
    fn empty_matrix_is_fine() {
        let m = EmbedMatrix::from_nested(&[], 8);
        assert_eq!(m.n_attrs(), 0);
        assert_eq!(m.n_rows(), 0);
        assert_eq!(m.rows().count(), 0);
    }

    #[test]
    fn recycle_feeds_the_pool() {
        recycle(sample());
        let popped = with_scratch(|s| s.pool.pop());
        assert!(popped.is_some());
    }
}
