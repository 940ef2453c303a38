//! Minimal row-major `f32` matrices.
//!
//! Exactly the operations backprop through an MLP needs: general matrix
//! multiply plus the two transposed variants, all three on one
//! register-tiled GEMM kernel that is bit-identical to the naive k-ordered
//! loop (DESIGN.md §17).

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// A zero matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Wraps existing data (row-major).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Self { rows, cols, data }
    }

    /// Row count.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element `(r, c)`.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The backing slice (row-major).
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The mutable backing slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// `self · other` — shapes `(m×k) · (k×n) = (m×n)`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let a = Strided {
            data: &self.data,
            rs: self.cols,
            cs: 1,
        };
        product(a, self.rows, other)
    }

    /// `selfᵀ · other` — shapes `(k×m)ᵀ · (k×n) = (m×n)`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        // Column i of `self` is row i of the left operand: no copy.
        let a = Strided {
            data: &self.data,
            rs: 1,
            cs: self.cols,
        };
        product(a, self.cols, other)
    }

    /// `self · otherᵀ` — shapes `(m×k) · (n×k)ᵀ = (m×n)`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch");
        self.matmul(&other.transpose())
    }

    /// The transpose, `(cols × rows)`.
    fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        if self.cols > 0 {
            for (r, row) in self.data.chunks_exact(self.cols).enumerate() {
                for (c, &v) in row.iter().enumerate() {
                    t.data[c * self.rows + r] = v;
                }
            }
        }
        t
    }

    /// Adds `v` to every row (broadcast bias add).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != cols`.
    pub fn add_row_vec(&mut self, v: &[f32]) {
        assert_eq!(v.len(), self.cols, "bias length mismatch");
        for r in 0..self.rows {
            for (x, &b) in self.row_mut(r).iter_mut().zip(v) {
                *x += b;
            }
        }
    }

    /// Sum over rows: returns a `cols`-length vector.
    #[must_use]
    pub fn col_sums(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cols];
        for r in 0..self.rows {
            for (o, &x) in out.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
        out
    }
}

/// Output rows of one register tile.
const MR: usize = 4;
/// Output columns of one register tile: two 4-lane vectors per row.
const NR: usize = 8;
/// Depth of one packed panel (every layer of the experiment model fits in
/// one); longer products run in several passes.
const KC: usize = 64;

/// A read-only `m×k` left operand: element `(i, p)` is `data[i·rs + p·cs]`.
/// Row-major has `(rs, cs) = (k, 1)`; the transpose of a row-major `k×m`
/// matrix is the same buffer with `(rs, cs) = (1, m)`.
#[derive(Clone, Copy)]
struct Strided<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

/// `a · b` for an `m`-row strided `a` and a row-major `b`.
fn product(a: Strided<'_>, m: usize, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(m, b.cols);
    gemm(a, &b.data, b.cols, &mut out.data);
    out
}

/// The GEMM kernel: `c += a · b`, with `b` row-major `k×n` (`k` is
/// `b.len() / n`) and `c` row-major `m×n` (`m` is `c.len() / n`).
///
/// Per pass over at most `KC` of `k`, it packs `MR` rows of `a` into a
/// stack panel (one `[f32; MR]` per `p`) and keeps each `MR×NR`
/// block of `c` in registers while it walks the panel. The right-edge
/// strip of `b` (narrower than `NR`, e.g. the 10-class head) is packed
/// zero-padded once per pass, and bottom-edge rows pad the panel with
/// zeros, so every block runs the same full-width loop and stores only its
/// real part. With `c` zeroed first, each output is summed from `+0.0` in
/// increasing `p`, one rounding per multiply and per add: the bits of the
/// naive triple loop (DESIGN.md §17).
///
/// Out of line on purpose: inlined into [`product`], the same tile loop
/// measured about 3× slower on a 32×64·64×64 product (x86-64, SSE2).
// trimlint: hot-path -- every matmul of the training step
#[inline(never)]
fn gemm(a: Strided<'_>, b: &[f32], n: usize, c: &mut [f32]) {
    if n == 0 {
        return;
    }
    let k = b.len() / n;
    let full_cols = n - n % NR;
    let mut panel = [0.0f32; MR * KC];
    let mut edge = [0.0f32; KC * NR];
    for k0 in (0..k).step_by(KC) {
        let kc = KC.min(k - k0);
        let bk = &b[k0 * n..(k0 + kc) * n];
        if full_cols < n {
            for (dst, brow) in edge.chunks_exact_mut(NR).zip(bk.chunks_exact(n)) {
                for (q, x) in dst.iter_mut().enumerate() {
                    *x = brow.get(full_cols + q).copied().unwrap_or(0.0);
                }
            }
        }
        for (ib, cblock) in c.chunks_mut(MR * n).enumerate() {
            let rows = cblock.len() / n;
            for (p, dst) in panel.chunks_exact_mut(MR).take(kc).enumerate() {
                for (r, x) in dst.iter_mut().enumerate() {
                    *x = if r < rows {
                        a.data[(ib * MR + r) * a.rs + (k0 + p) * a.cs]
                    } else {
                        0.0
                    };
                }
            }
            let panel = &panel[..kc * MR];
            for j0 in (0..full_cols).step_by(NR) {
                let strip = Strip {
                    data: bk,
                    stride: n,
                    off: j0,
                };
                tile(panel, strip, cblock, n, j0, NR);
            }
            if full_cols < n {
                let strip = Strip {
                    data: &edge[..kc * NR],
                    stride: NR,
                    off: 0,
                };
                tile(panel, strip, cblock, n, full_cols, n - full_cols);
            }
        }
    }
}

/// `NR` columns of a row-major right operand, starting at column `off` of
/// rows `stride` apart.
#[derive(Clone, Copy)]
struct Strip<'a> {
    data: &'a [f32],
    stride: usize,
    off: usize,
}

/// One register tile: `c[.., j0..j0 + cols] += panel · b`, where `cblock`
/// holds up to `MR` rows of `c`, each `n` long. Lanes past `cols` or past
/// the block's rows are computed and dropped.
#[inline(always)]
fn tile(panel: &[f32], b: Strip<'_>, cblock: &mut [f32], n: usize, j0: usize, cols: usize) {
    let mut acc = [[0.0f32; NR]; MR];
    for (accr, crow) in acc.iter_mut().zip(cblock.chunks_exact(n)) {
        accr[..cols].copy_from_slice(&crow[j0..j0 + cols]);
    }
    for (av, brow) in panel.chunks_exact(MR).zip(b.data.chunks_exact(b.stride)) {
        let bv = &brow[b.off..b.off + NR];
        for (accr, &ar) in acc.iter_mut().zip(av) {
            for (o, &bq) in accr.iter_mut().zip(bv) {
                *o += ar * bq;
            }
        }
    }
    for (accr, crow) in acc.iter().zip(cblock.chunks_exact_mut(n)) {
        crow[j0..j0 + cols].copy_from_slice(&accr[..cols]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn construction_and_access() {
        let mut a = Matrix::zeros(2, 3);
        assert_eq!((a.rows(), a.cols()), (2, 3));
        a.set(1, 2, 5.0);
        assert_eq!(a.get(1, 2), 5.0);
        assert_eq!(a.row(1), &[0.0, 0.0, 5.0]);
        assert_eq!(a.as_slice().len(), 6);
    }

    #[test]
    #[should_panic(expected = "shape/data mismatch")]
    fn from_vec_checks_shape() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn matmul_known_product() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transposed_variants_agree_with_explicit_transpose() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]); // 3×2
        let b = m(3, 4, &(0..12).map(|i| i as f32).collect::<Vec<_>>()); // 3×4
                                                                         // aᵀ·b via t_matmul vs manual transpose.
        let at = m(2, 3, &[1.0, 3.0, 5.0, 2.0, 4.0, 6.0]);
        assert_eq!(a.t_matmul(&b).as_slice(), at.matmul(&b).as_slice());
        // a·cᵀ via matmul_t vs manual transpose.
        let c = m(5, 2, &(0..10).map(|i| i as f32).collect::<Vec<_>>()); // 5×2
        let ct = {
            let mut t = Matrix::zeros(2, 5);
            for r in 0..5 {
                for cc in 0..2 {
                    t.set(cc, r, c.get(r, cc));
                }
            }
            t
        };
        assert_eq!(a.matmul_t(&c).as_slice(), a.matmul(&ct).as_slice());
    }

    #[test]
    fn identity_is_neutral() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = m(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&i).as_slice(), a.as_slice());
        assert_eq!(i.matmul(&a).as_slice(), a.as_slice());
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let _ = Matrix::zeros(2, 3).matmul(&Matrix::zeros(2, 3));
    }

    #[test]
    fn bias_add_and_col_sums() {
        let mut a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        a.add_row_vec(&[10.0, 20.0, 30.0]);
        assert_eq!(a.as_slice(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
        assert_eq!(a.col_sums(), vec![25.0, 47.0, 69.0]);
    }

    #[test]
    fn empty_edge_cases() {
        let a = Matrix::zeros(0, 3);
        assert_eq!(a.col_sums(), vec![0.0; 3]);
        let b = Matrix::zeros(3, 0);
        let c = a.matmul(&Matrix::zeros(3, 2));
        assert_eq!((c.rows(), c.cols()), (0, 2));
        let d = b.matmul(&Matrix::zeros(0, 4));
        assert_eq!((d.rows(), d.cols()), (3, 4));
        assert!(d.as_slice().iter().all(|&x| x == 0.0));
    }
}
