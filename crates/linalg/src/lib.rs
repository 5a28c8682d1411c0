//! Dense linear-algebra substrate for the WYM entity-matching system.
//!
//! The WYM paper trains a feed-forward relevance scorer and a pool of ten
//! interpretable classifiers. All of that numeric work bottoms out here:
//! a row-major `f32` [`Matrix`], free-function vector kernels, a Gaussian
//! elimination [`solve`](solve::solve) used by LDA, and a deterministic
//! [`Rng64`] so every experiment is reproducible bit-for-bit.
//!
//! The crate is deliberately BLAS-free: matrices in this system are small
//! (feature matrices of a few hundred columns), and register-tiled GEMMs
//! in the [`kernels`] layer — runtime-dispatched between a portable scalar
//! path and AVX2 / AVX-512 intrinsics, bit-identical to each other — are
//! fast enough while keeping the reproduction dependency-light.

pub mod kernels;
pub mod matrix;
pub mod rng;
pub mod solve;
pub mod stats;
pub mod vector;

pub use matrix::Matrix;
pub use rng::Rng64;
