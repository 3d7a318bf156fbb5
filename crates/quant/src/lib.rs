//! Training substrate for the ANNA reproduction.
//!
//! The paper consumes "trained models where each is a set of i) a list of
//! centroids, ii) codebooks, and iii) encoded vectors" (Section V-A),
//! produced by Faiss or ScaNN. This crate builds those models from scratch:
//!
//! * [`kmeans`] — Lloyd's algorithm with k-means++ initialization, used for
//!   both the coarse (cluster) level and the per-subspace codebook level.
//! * [`pq`] — product quantization codebooks ([`PqCodebook`]): training,
//!   encoding, decoding (Section II-B).
//! * [`anisotropic`] — ScaNN-style score-aware (anisotropic) codebook
//!   training, the objective-function difference between Faiss and ScaNN
//!   models the paper evaluates (Guo et al., ICML 2020).
//! * [`opq`] — Optimized Product Quantization (learned orthogonal
//!   rotation), one of the PQ variations Section VI says ANNA supports.
//! * [`additive`] — Additive Quantization (full-dimensional codeword
//!   sums), the "slight extension" Section VI sketches for ANNA.
//! * [`dist_table`] — the one distance-table kernel ([`DimMajor`]): a
//!   sub-vector against every codeword of a dimension-major codeword set,
//!   vectorised across codewords on a portable or an AVX-512 arm
//!   ([`TableArm`]) and bit-identical to the scalar metric functions on
//!   both. LUT construction, coarse cluster filtering, PQ encoding and
//!   k-means assignment all run on it.
//! * [`codes`] — sub-byte code packing: `k* = 16` stores two 4-bit
//!   identifiers per byte, `k* = 256` one byte each (Section II-D notes the
//!   CPU's struggle with exactly this 4-bit format; ANNA's EFM unpacker
//!   handles it in hardware).
//!
//! # Example: train and use a PQ codebook
//!
//! ```
//! use anna_quant::pq::{PqCodebook, PqConfig};
//! use anna_vector::VectorSet;
//!
//! let data = VectorSet::from_fn(8, 256, |r, c| ((r * 31 + c * 7) % 17) as f32);
//! let cfg = PqConfig { m: 4, kstar: 16, iters: 8, seed: 7 };
//! let book = PqCodebook::train(&data, &cfg);
//! let codes = book.encode(data.row(3));
//! let approx = book.decode(&codes);
//! assert_eq!(approx.len(), 8);
//! ```

#![deny(missing_docs)]

pub mod additive;
pub mod anisotropic;
pub mod codes;
pub mod dist_table;
pub mod kmeans;
pub mod linalg;
pub mod opq;
pub mod pq;

pub use codes::{CodeWidth, PackedCodes};
pub use dist_table::{DimMajor, TableArm};
pub use kmeans::{KMeans, KMeansConfig};
pub use opq::{Opq, OpqConfig};
pub use pq::{PqCodebook, PqConfig};
