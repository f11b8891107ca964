//! Serial matrix-multiplication kernels.
//!
//! All kernels compute the conventional triple-loop product; they differ
//! only in loop order and tiling.  `C = A·B` for `A: m×k`, `B: k×n`
//! performs `m·n·k` multiply–add pairs, i.e. `m·n·k` units of the
//! paper's normalised work (`W = n³` for square `n×n` inputs).

use crate::matrix::Matrix;

/// The paper's problem size `W` for multiplying `m×k` by `k×n`:
/// the number of multiply–add unit operations.
#[must_use]
pub fn work_units(m: usize, k: usize, n: usize) -> f64 {
    m as f64 * k as f64 * n as f64
}

fn check_shapes(a: &Matrix, b: &Matrix) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "inner dimensions must agree: {}x{} times {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
}

/// Textbook i-j-k product.  Reference semantics; slowest.
#[must_use]
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
    check_shapes(a, b);
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for l in 0..k {
                acc += a[(i, l)] * b[(l, j)];
            }
            c[(i, j)] = acc;
        }
    }
    c
}

/// `A·B` by the default kernel, [`matmul_accumulate`] into zeros.
#[must_use]
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    check_shapes(a, b);
    let mut c = Matrix::zeros(a.rows(), b.cols());
    matmul_accumulate(&mut c, a, b);
    c
}

/// `C += A·B` on raw row-major slices — the primitive the simulated
/// algorithms use for local block updates (Cannon/Fox/GK all accumulate
/// partial products in place).
///
/// Covers `C` with register tiles (see [`tiles`]), widest first, each
/// width on the columns the one before it left: 16 wide under AVX-512F
/// and 8 wide under AVX2 when the host has them (checked at run time),
/// then the portable body's 4, 2 and 1.  The result is bit-identical to
/// [`matmul_accumulate_ikj`].
///
/// # Panics
/// Panics on any shape mismatch.
pub fn matmul_accumulate(c: &mut Matrix, a: &Matrix, b: &Matrix) {
    check_accumulate_shapes(c, a, b);
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let (av, bv) = (a.as_slice(), b.as_slice());
    let cv = c.as_mut_slice();
    #[cfg(target_arch = "x86_64")]
    let j0 = x86::tiles_vector(cv, av, bv, m, k, n);
    #[cfg(not(target_arch = "x86_64"))]
    let j0 = 0;
    tiles_portable(cv, av, bv, m, k, n, j0);
}

/// `C += A·B` by the plain single-row i-k-j loop: the readable reference
/// [`matmul_accumulate`] must match bit for bit.
///
/// Each `C[i][j]` receives `A[i][l]·B[l][j]` (a multiply, then an add;
/// never a fused multiply-add) for ascending `l`, skipping every `l`
/// whose `A[i][l]` is `±0.0`.
///
/// # Panics
/// Panics on any shape mismatch.
pub fn matmul_accumulate_ikj(c: &mut Matrix, a: &Matrix, b: &Matrix) {
    check_accumulate_shapes(c, a, b);
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let (av, bv) = (a.as_slice(), b.as_slice());
    let cv = c.as_mut_slice();
    for i in 0..m {
        let crow = &mut cv[i * n..(i + 1) * n];
        for l in 0..k {
            let aval = av[i * k + l];
            if aval == 0.0 {
                continue;
            }
            let brow = &bv[l * n..(l + 1) * n];
            for (cx, bx) in crow.iter_mut().zip(brow) {
                *cx += aval * bx;
            }
        }
    }
}

fn check_accumulate_shapes(c: &Matrix, a: &Matrix, b: &Matrix) {
    check_shapes(a, b);
    assert_eq!(
        (c.rows(), c.cols()),
        (a.rows(), b.cols()),
        "output shape mismatch: {}x{} for {}x{} times {}x{}",
        c.rows(),
        c.cols(),
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
}

/// Rows of `C` one register tile covers; the last `m % 4` rows get one
/// shorter tile.
const TILE_ROWS: usize = 4;

/// The portable body: 4-wide tiles from column `j0` on, then one 2-wide
/// and one 1-wide tile column for what is left, so every column of `C`
/// is covered.  It is built for the crate's baseline target (SSE2 on
/// x86-64).  Its first width was chosen by measurement there: on a Xeon
/// host, at block edges 32–256, 4 × 4 tiles took about 0.20 ns per
/// multiply-add, 4 × 8 tiles 0.18 and the former row-pair loop
/// 0.20–0.22; and 4 wide, it also tiles blocks 4–7 columns wide.
#[inline(always)]
fn tiles_portable(cv: &mut [f64], av: &[f64], bv: &[f64], m: usize, k: usize, n: usize, j0: usize) {
    let j0 = tiles::<4>(cv, av, bv, m, k, n, j0);
    let j0 = tiles::<2>(cv, av, bv, m, k, n, j0);
    tiles::<1>(cv, av, bv, m, k, n, j0);
}

/// The register-tiled body: `C += A·B` over the `W`-wide column tiles of
/// `C` that fit from column `j0` on; returns the first column it left.
///
/// Column tiles are the outer loop and row tiles the inner one, so the
/// `k × W` panel of `B` stays in L1 while the rows of `A` stream past.
#[inline(always)]
fn tiles<const W: usize>(
    cv: &mut [f64],
    av: &[f64],
    bv: &[f64],
    m: usize,
    k: usize,
    n: usize,
    mut j0: usize,
) -> usize {
    let m_main = m - m % TILE_ROWS;
    while j0 + W <= n {
        for i0 in (0..m_main).step_by(TILE_ROWS) {
            tile::<TILE_ROWS, W>(cv, av, bv, k, n, i0, j0);
        }
        match m - m_main {
            3 => tile::<3, W>(cv, av, bv, k, n, m_main, j0),
            2 => tile::<2, W>(cv, av, bv, k, n, m_main, j0),
            1 => tile::<1, W>(cv, av, bv, k, n, m_main, j0),
            _ => {}
        }
        j0 += W;
    }
    j0
}

/// One `R × W` tile of `C` at row `i0`, column `j0`, held in an
/// accumulator array across the whole `k` loop; each step reads an
/// `R`-long column slice of `A` and a `W`-wide row segment of `B`.
///
/// Bit identity with [`matmul_accumulate_ikj`]: every element gets the
/// same products, multiplied then added (Rust never contracts to FMA),
/// in the same ascending-`l` order, with the same `A[i][l] == 0` skip —
/// the fast branch runs only when all `R` values of `A` are non-zero,
/// otherwise the skip is applied row by row.
#[inline(always)]
fn tile<const R: usize, const W: usize>(
    cv: &mut [f64],
    av: &[f64],
    bv: &[f64],
    k: usize,
    n: usize,
    i0: usize,
    j0: usize,
) {
    let mut acc = [[0.0f64; W]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&cv[(i0 + r) * n + j0..][..W]);
    }
    let arows: [&[f64]; R] = std::array::from_fn(|r| &av[(i0 + r) * k..][..k]);
    for l in 0..k {
        let a: [f64; R] = std::array::from_fn(|r| arows[r][l]);
        let b: &[f64; W] = bv[l * n + j0..][..W].try_into().expect("W-wide segment");
        if a.iter().all(|&x| x != 0.0) {
            for (row, &ar) in acc.iter_mut().zip(&a) {
                for (cx, bx) in row.iter_mut().zip(b) {
                    *cx += ar * bx;
                }
            }
        } else {
            for (row, &ar) in acc.iter_mut().zip(&a) {
                if ar != 0.0 {
                    for (cx, bx) in row.iter_mut().zip(b) {
                        *cx += ar * bx;
                    }
                }
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        cv[(i0 + r) * n + j0..][..W].copy_from_slice(row);
    }
}

/// The x86-64 instantiations of [`tiles`], each compiled for its ISA.
/// Calling one is sound only once the host is known to support it.
#[cfg(target_arch = "x86_64")]
mod x86 {
    /// The 16- and then 8-wide tiles the host supports, from column 0;
    /// returns the first column they left.  A body is called only when
    /// it has a whole tile to fill: small blocks would otherwise pay for
    /// calls that do nothing.
    pub(super) fn tiles_vector(
        cv: &mut [f64],
        av: &[f64],
        bv: &[f64],
        m: usize,
        k: usize,
        n: usize,
    ) -> usize {
        let mut j0 = 0;
        if n >= 16 && is_x86_feature_detected!("avx512f") {
            // SAFETY: the host supports AVX-512F, checked just above.
            j0 = unsafe { tiles_avx512(cv, av, bv, m, k, n, j0) };
        }
        if n - j0 >= 8 && is_x86_feature_detected!("avx2") {
            // SAFETY: the host supports AVX2, checked just above.
            j0 = unsafe { tiles_avx2(cv, av, bv, m, k, n, j0) };
        }
        j0
    }

    #[target_feature(enable = "avx512f")]
    pub(super) fn tiles_avx512(
        cv: &mut [f64],
        av: &[f64],
        bv: &[f64],
        m: usize,
        k: usize,
        n: usize,
        j0: usize,
    ) -> usize {
        super::tiles::<16>(cv, av, bv, m, k, n, j0)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn tiles_avx2(
        cv: &mut [f64],
        av: &[f64],
        bv: &[f64],
        m: usize,
        k: usize,
        n: usize,
        j0: usize,
    ) -> usize {
        super::tiles::<8>(cv, av, bv, m, k, n, j0)
    }
}

/// Tiled (blocked) product with square tiles of `tile` elements.
///
/// A cache-tiled i-k-j loop with no register tiling, kept as a loop-order
/// ablation: the default kernel, [`matmul_accumulate`], outruns it.
/// Results can differ from [`matmul`] only by floating-point association
/// order.
///
/// # Panics
/// Panics if `tile == 0` or on shape mismatch.
#[must_use]
pub fn matmul_blocked(a: &Matrix, b: &Matrix, tile: usize) -> Matrix {
    assert!(tile > 0, "tile size must be positive");
    check_shapes(a, b);
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Matrix::zeros(m, n);
    let (av, bv) = (a.as_slice(), b.as_slice());
    let cv = c.as_mut_slice();
    for i0 in (0..m).step_by(tile) {
        let imax = (i0 + tile).min(m);
        for l0 in (0..k).step_by(tile) {
            let lmax = (l0 + tile).min(k);
            for j0 in (0..n).step_by(tile) {
                let jmax = (j0 + tile).min(n);
                for i in i0..imax {
                    for l in l0..lmax {
                        let aval = av[i * k + l];
                        for j in j0..jmax {
                            cv[i * n + j] += aval * bv[l * n + j];
                        }
                    }
                }
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn work_units_cubic() {
        assert_eq!(work_units(4, 4, 4), 64.0);
        assert_eq!(work_units(2, 3, 5), 30.0);
    }

    #[test]
    fn known_product() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn kernels_agree_on_random_input() {
        let a = gen::random(13, 7, 42);
        let b = gen::random(7, 9, 43);
        let naive = matmul_naive(&a, &b);
        let fast = matmul(&a, &b);
        let blocked = matmul_blocked(&a, &b, 4);
        assert!(naive.approx_eq(&fast, 1e-12));
        assert!(naive.approx_eq(&blocked, 1e-12));
    }

    #[test]
    fn accumulate_adds_to_existing() {
        let a = Matrix::identity(3);
        let b = gen::random(3, 3, 1);
        let mut c = b.clone();
        matmul_accumulate(&mut c, &a, &b);
        // C = B + I·B = 2B.
        let expect = Matrix::from_fn(3, 3, |i, j| 2.0 * b[(i, j)]);
        assert!(c.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn rectangular_products() {
        let a = gen::random(5, 3, 7);
        let b = gen::random(3, 8, 8);
        let c = matmul(&a, &b);
        assert_eq!((c.rows(), c.cols()), (5, 8));
        assert!(c.approx_eq(&matmul_naive(&a, &b), 1e-12));
    }

    #[test]
    fn empty_inner_dimension_gives_zero() {
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 3);
        let c = matmul(&a, &b);
        assert_eq!(c, Matrix::zeros(3, 3));
    }

    #[test]
    #[should_panic(expected = "inner dimensions must agree")]
    fn shape_mismatch_rejected() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = matmul(&a, &b);
    }

    #[test]
    #[should_panic(expected = "tile size must be positive")]
    fn zero_tile_rejected() {
        let a = Matrix::identity(2);
        let _ = matmul_blocked(&a, &a, 0);
    }

    #[test]
    fn blocked_handles_tile_larger_than_matrix() {
        let a = gen::random(5, 5, 3);
        let b = gen::random(5, 5, 4);
        assert!(matmul_blocked(&a, &b, 64).approx_eq(&matmul(&a, &b), 1e-12));
    }

    /// Overwrites about one entry in `every` of `m` with a value drawn
    /// from `pool`; positions and picks come from `seed`.
    fn sprinkle(m: &mut Matrix, pool: &[f64], every: usize, seed: u64) {
        let mut rng = detrng::SplitMix64::new(seed);
        for x in m.as_mut_slice() {
            if rng.next_below(every) == 0 {
                *x = pool[rng.next_below(pool.len())];
            }
        }
    }

    /// `(C, A, B)` for an `m×k` by `k×n` accumulate, seeded with the
    /// values a reordered, fused or differently skipped sum would show
    /// up on: `C` is non-zero with some `-0.0`, `A` has `±0.0` (the
    /// zero-skip, in mixed and all-non-zero row tiles), and `B` has
    /// `±inf`, NaN and subnormals.
    fn special_operands(m: usize, k: usize, n: usize, seed: u64) -> (Matrix, Matrix, Matrix) {
        let mut c = gen::random(m, n, seed);
        let mut a = gen::random(m, k, seed + 1);
        let mut b = gen::random(k, n, seed + 2);
        sprinkle(&mut c, &[-0.0], 7, seed + 3);
        sprinkle(&mut a, &[0.0, -0.0], 5, seed + 4);
        let b_pool = [
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE / 3.0,
            -f64::from_bits(1),
            1e-310,
        ];
        sprinkle(&mut b, &b_pool, 97, seed + 5);
        (c, a, b)
    }

    /// `C + A·B` by the dispatched kernel and by every body this host
    /// can run on its own, each called directly behind its own feature
    /// check (a vector body from column 0, then the portable body for
    /// the columns it left).
    fn every_instantiation(c: &Matrix, a: &Matrix, b: &Matrix) -> Vec<(&'static str, Matrix)> {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let (av, bv) = (a.as_slice(), b.as_slice());
        let mut out = Vec::new();
        let mut dispatched = c.clone();
        matmul_accumulate(&mut dispatched, a, b);
        out.push(("dispatched", dispatched));
        let mut portable = c.clone();
        tiles_portable(portable.as_mut_slice(), av, bv, m, k, n, 0);
        out.push(("portable", portable));
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                let mut r = c.clone();
                // SAFETY: the host supports AVX2, checked just above.
                let j0 = unsafe { x86::tiles_avx2(r.as_mut_slice(), av, bv, m, k, n, 0) };
                tiles_portable(r.as_mut_slice(), av, bv, m, k, n, j0);
                out.push(("avx2", r));
            }
            if is_x86_feature_detected!("avx512f") {
                let mut r = c.clone();
                // SAFETY: the host supports AVX-512F, checked just above.
                let j0 = unsafe { x86::tiles_avx512(r.as_mut_slice(), av, bv, m, k, n, 0) };
                tiles_portable(r.as_mut_slice(), av, bv, m, k, n, j0);
                out.push(("avx512", r));
            }
        }
        out
    }

    /// Bit equality, except that any NaN equals any NaN.  Rust leaves
    /// the sign and payload of a NaN that arithmetic produces
    /// unspecified: when both operands of an add are NaN, x86 returns
    /// the first one, and the compiler may swap the operands of an add.
    /// So no kernel — the reference compiled twice included — can pin
    /// NaN bits; every other pattern (`±0`, `±inf`, subnormals) is
    /// pinned exactly.
    fn same_bits(x: f64, y: f64) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    #[test]
    fn accumulate_is_bit_identical_to_plain_ikj() {
        // Every tile instantiation must reproduce the plain i-k-j
        // reference bit for bit — virtual-time golden files depend on
        // local results being deterministic across kernel revisions.
        // The edges straddle the 4-row tile and the 8- and 16-column
        // tiles on both sides.
        const EDGES: [usize; 11] = [1, 3, 4, 5, 8, 12, 16, 17, 31, 33, 70];
        let mut seed = 0;
        for m in EDGES {
            for k in EDGES {
                for n in EDGES {
                    seed += 10;
                    let (c, a, b) = special_operands(m, k, n, seed);
                    let mut expect = c.clone();
                    matmul_accumulate_ikj(&mut expect, &a, &b);
                    for (isa, got) in every_instantiation(&c, &a, &b) {
                        for (idx, (x, y)) in
                            got.as_slice().iter().zip(expect.as_slice()).enumerate()
                        {
                            assert!(
                                same_bits(*x, *y),
                                "{isa} differs at flat index {idx} for m={m} k={k} n={n}: {:#x} vs {:#x}",
                                x.to_bits(),
                                y.to_bits()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn reference_is_the_plain_triple_loop() {
        // The oracle itself: on finite operands without zeros it is the
        // textbook sum in ascending l, so it equals the i-j-k product.
        let a = gen::random(6, 5, 21);
        let b = gen::random(5, 7, 22);
        let mut c = Matrix::zeros(6, 7);
        matmul_accumulate_ikj(&mut c, &a, &b);
        let naive = matmul_naive(&a, &b);
        for (x, y) in c.as_slice().iter().zip(naive.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn blocked_handles_non_dividing_tile() {
        let a = gen::random(7, 7, 5);
        let b = gen::random(7, 7, 6);
        assert!(matmul_blocked(&a, &b, 3).approx_eq(&matmul(&a, &b), 1e-12));
    }
}
