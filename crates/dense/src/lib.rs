//! # dense — serial dense-matrix substrate
//!
//! The sequential side of the reproduction: matrix storage, the
//! conventional `O(n³)` multiplication kernels the paper takes as its
//! baseline ("In this paper we consider the conventional O(n³) serial
//! matrix multiplication algorithm only", §2 footnote 1), and the block
//! partitioning used to distribute matrices over processor meshes.
//!
//! The problem size of an `n×n` multiplication is `W = n³` unit
//! operations, where one unit is a fused multiply–add; kernels report
//! their work in those units so simulated efficiencies use exactly the
//! paper's `W`.

pub mod block;
pub mod gen;
pub mod kernel;
pub mod matrix;

pub use block::{BlockGrid, ColStrips, RowStrips};
pub use kernel::{
    matmul, matmul_accumulate, matmul_accumulate_ikj, matmul_blocked, matmul_naive, work_units,
};
pub use matrix::Matrix;
