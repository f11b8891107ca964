//! Property-based tests for the dense substrate.

use dense::{kernel, BlockGrid, ColStrips, Matrix, RowStrips};
use proptest::prelude::*;

/// Shapes (m, k, n) with each dimension in 1..=12.
fn dims3() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..=12, 1usize..=12, 1usize..=12)
}

/// Overwrites about one entry in `every` of `m` with a value drawn from
/// `pool`; positions and picks come from `seed`.
fn sprinkle(m: &mut Matrix, pool: &[f64], every: usize, seed: u64) {
    let mut rng = detrng::SplitMix64::new(seed);
    for x in m.as_mut_slice() {
        if rng.next_below(every) == 0 {
            *x = pool[rng.next_below(pool.len())];
        }
    }
}

/// Bit equality, except that any NaN equals any NaN: Rust leaves the
/// sign and payload of an arithmetic NaN unspecified.
fn same_bits(x: f64, y: f64) -> bool {
    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
}

proptest! {
    #[test]
    fn accumulate_is_bit_identical_to_plain_ikj(
        (m, k, n) in (1usize..=70, 1usize..=70, 1usize..=70),
        seed in 0u64..1_000_000,
    ) {
        // C non-zero with some -0.0; A with ±0.0 (the zero-skip);
        // B with ±inf, NaN and subnormals.
        let mut c = dense::gen::random(m, n, seed);
        let mut a = dense::gen::random(m, k, seed + 1);
        let mut b = dense::gen::random(k, n, seed + 2);
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
        let mut fast = c.clone();
        kernel::matmul_accumulate(&mut fast, &a, &b);
        let mut slow = c;
        kernel::matmul_accumulate_ikj(&mut slow, &a, &b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            prop_assert!(same_bits(*x, *y), "{:#x} vs {:#x} at m={m} k={k} n={n}", x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn kernels_agree((m, k, n) in dims3(), seed in 0u64..1000) {
        let a = dense::gen::random(m, k, seed);
        let b = dense::gen::random(k, n, seed + 1);
        let naive = kernel::matmul_naive(&a, &b);
        let fast = kernel::matmul(&a, &b);
        let blocked = kernel::matmul_blocked(&a, &b, 3);
        prop_assert!(naive.approx_eq(&fast, 1e-10));
        prop_assert!(naive.approx_eq(&blocked, 1e-10));
    }

    #[test]
    fn matmul_distributes_over_addition(n in 1usize..=8, seed in 0u64..1000) {
        let a = dense::gen::random(n, n, seed);
        let b = dense::gen::random(n, n, seed + 1);
        let c = dense::gen::random(n, n, seed + 2);
        // A(B + C) = AB + AC
        let lhs = kernel::matmul(&a, &(&b + &c));
        let rhs = &kernel::matmul(&a, &b) + &kernel::matmul(&a, &c);
        prop_assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn transpose_reverses_product(n in 1usize..=8, seed in 0u64..1000) {
        let a = dense::gen::random(n, n, seed);
        let b = dense::gen::random(n, n, seed + 1);
        // (AB)^T = B^T A^T
        let lhs = kernel::matmul(&a, &b).transpose();
        let rhs = kernel::matmul(&b.transpose(), &a.transpose());
        prop_assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn block_grid_roundtrip(
        gr in 1usize..=4,
        gc in 1usize..=4,
        bh in 1usize..=4,
        bw in 1usize..=4,
        seed in 0u64..1000,
    ) {
        let m = dense::gen::random(gr * bh, gc * bw, seed);
        let grid = BlockGrid::split(&m, gr, gc);
        prop_assert_eq!(grid.block_shape(), (bh, bw));
        prop_assert_eq!(&grid.assemble(), &m);
        let blocks = grid.into_blocks();
        prop_assert_eq!(BlockGrid::assemble_from(&blocks, gr, gc), m);
    }

    #[test]
    fn blockwise_product_matches_full(q in 1usize..=3, b in 1usize..=4, seed in 0u64..500) {
        // The block algebra all mesh algorithms rely on:
        // C_ij = Σ_k A_ik · B_kj.
        let n = q * b;
        let (a, bm) = dense::gen::random_pair(n, seed);
        let ga = BlockGrid::split(&a, q, q);
        let gb = BlockGrid::split(&bm, q, q);
        let full = kernel::matmul(&a, &bm);
        let mut blocks = Vec::new();
        for i in 0..q {
            for j in 0..q {
                let mut cij = Matrix::zeros(b, b);
                for k in 0..q {
                    kernel::matmul_accumulate(&mut cij, ga.block(i, k), gb.block(k, j));
                }
                blocks.push(cij);
            }
        }
        let assembled = BlockGrid::assemble_from(&blocks, q, q);
        prop_assert!(assembled.approx_eq(&full, 1e-9));
    }

    #[test]
    fn strip_sum_identity(r in 1usize..=4, w in 1usize..=4, seed in 0u64..500) {
        // C = Σ_l A_col_l · B_row_l (Berntsen's identity).
        let n = r * w;
        let (a, b) = dense::gen::random_pair(n, seed);
        let cs = ColStrips::split(&a, r);
        let rs = RowStrips::split(&b, r);
        let mut sum = Matrix::zeros(n, n);
        for l in 0..r {
            sum.add_assign(&kernel::matmul(cs.strip(l), rs.strip(l)));
        }
        prop_assert!(sum.approx_eq(&kernel::matmul(&a, &b), 1e-9));
    }

    #[test]
    fn max_abs_diff_is_a_metric(n in 1usize..=6, seed in 0u64..500) {
        let a = dense::gen::random(n, n, seed);
        let b = dense::gen::random(n, n, seed + 1);
        prop_assert_eq!(a.max_abs_diff(&a), 0.0);
        prop_assert_eq!(a.max_abs_diff(&b), b.max_abs_diff(&a));
    }

    #[test]
    fn submatrix_of_submatrix_composes(seed in 0u64..500) {
        let m = dense::gen::random(8, 8, seed);
        let outer = m.submatrix(2, 2, 4, 4);
        let inner = outer.submatrix(1, 1, 2, 2);
        prop_assert_eq!(inner, m.submatrix(3, 3, 2, 2));
    }
}
