//! Product quantization codebooks (Section II-B of the paper).
//!
//! A `D`-dimensional vector is split into `M` sub-vectors of `D/M`
//! dimensions; each sub-vector is replaced by the index of its nearest
//! codeword in a per-subspace codebook of `k*` codewords. The encoded vector
//! is the concatenation of `M` identifiers of `log2 k*` bits each.

use crate::codes::{CodeWidth, PackedCodes};
use crate::dist_table::DimMajor;
use crate::kmeans::{KMeans, KMeansConfig};
use anna_vector::{metric, VectorSet};
use serde::{Deserialize, Serialize};

/// Configuration for [`PqCodebook::train`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PqConfig {
    /// Number of sub-vectors `M` each vector is split into.
    pub m: usize,
    /// Codewords per codebook, `k*` (16 or 256 in the paper's evaluation).
    pub kstar: usize,
    /// k-means iterations per subspace.
    pub iters: usize,
    /// RNG seed.
    pub seed: u64,
}

impl PqConfig {
    /// The paper's `k* = 16` (Faiss16 / ScaNN16) configuration for a given
    /// `M`.
    pub fn k16(m: usize) -> Self {
        Self {
            m,
            kstar: 16,
            iters: 15,
            seed: 0,
        }
    }

    /// The paper's `k* = 256` (Faiss256) configuration for a given `M`.
    pub fn k256(m: usize) -> Self {
        Self {
            m,
            kstar: 256,
            iters: 15,
            seed: 0,
        }
    }

    /// Bits per encoded identifier (`log2 k*`).
    pub fn code_bits(&self) -> u32 {
        (usize::BITS - 1) - self.kstar.leading_zeros()
    }

    /// Bytes per encoded vector: `M · log2(k*) / 8` (Section II-B).
    pub fn encoded_bytes(&self) -> usize {
        (self.m * self.code_bits() as usize).div_ceil(8)
    }

    /// The sub-byte/byte code width implied by `k*`.
    ///
    /// # Panics
    ///
    /// Panics if `k*` is not 16 or 256 (the only widths ANNA's unpacker and
    /// the paper's evaluation use).
    pub fn code_width(&self) -> CodeWidth {
        match self.kstar {
            16 => CodeWidth::U4,
            256 => CodeWidth::U8,
            other => panic!("unsupported k* = {other}; ANNA supports 16 and 256"),
        }
    }
}

/// A trained set of `M` per-subspace codebooks.
///
/// Codebook `B_i` holds `k*` codewords of dimension `D/M`; encoding maps
/// sub-vector `x_i` to `argmax_j s(x_i, B_i[j])` under L2 (i.e. nearest
/// codeword), exactly as Figure 1 of the paper illustrates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PqCodebook {
    dim: usize,
    m: usize,
    kstar: usize,
    /// `m` codebooks, each `kstar × (dim/m)`.
    books: Vec<VectorSet>,
    /// `books[i]` transposed (`[table i][dim d][codeword c]`) for the
    /// distance-table kernel. Derived from `books` in [`Self::from_books`],
    /// the only constructor, and never mutated apart from it.
    dim_major: Vec<DimMajor>,
}

impl PqCodebook {
    /// Trains per-subspace codebooks with plain k-means (the Faiss
    /// objective: minimize L2 reconstruction error per subspace).
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty, or `data.dim()` is not divisible by
    /// `config.m`.
    pub fn train(data: &VectorSet, config: &PqConfig) -> Self {
        assert!(!data.is_empty(), "cannot train PQ on an empty set");
        assert!(
            data.dim().is_multiple_of(config.m),
            "dim {} not divisible by m {}",
            data.dim(),
            config.m
        );
        let sub = data.dim() / config.m;
        let mut books = Vec::with_capacity(config.m);
        for j in 0..config.m {
            // Gather the j-th sub-vector of every row.
            let mut flat = Vec::with_capacity(data.len() * sub);
            for i in 0..data.len() {
                flat.extend_from_slice(data.subvector(i, config.m, j));
            }
            let subset = VectorSet::from_vec(sub, flat);
            let km = KMeans::train(
                &subset,
                &KMeansConfig {
                    k: config.kstar,
                    max_iters: config.iters,
                    seed: config.seed.wrapping_add(j as u64),
                },
            );
            books.push(km.centroids().clone());
        }
        Self::from_books(books)
    }

    /// Builds a codebook from explicit per-subspace codeword sets (used by
    /// the anisotropic trainer and by tests).
    ///
    /// # Panics
    ///
    /// Panics if the books are inconsistent in shape.
    pub fn from_books(books: Vec<VectorSet>) -> Self {
        assert!(!books.is_empty(), "need at least one codebook");
        let sub = books[0].dim();
        let kstar = books[0].len();
        for b in &books {
            assert_eq!(b.dim(), sub, "codebooks must share sub-dimension");
            assert_eq!(b.len(), kstar, "codebooks must share k*");
        }
        Self {
            dim: sub * books.len(),
            m: books.len(),
            kstar,
            dim_major: books.iter().map(DimMajor::new).collect(),
            books,
        }
    }

    /// Full vector dimension `D`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of sub-vectors `M`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Codewords per codebook `k*`.
    pub fn kstar(&self) -> usize {
        self.kstar
    }

    /// Sub-vector dimension `D/M`.
    pub fn sub_dim(&self) -> usize {
        self.dim / self.m
    }

    /// The `i`-th codebook `B_i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.m()`.
    pub fn book(&self, i: usize) -> &VectorSet {
        &self.books[i]
    }

    /// The `i`-th codebook in dimension-major order: the distance-table
    /// kernel over `B_i` (LUT construction and encoding both run on it).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.m()`.
    pub fn dim_major(&self, i: usize) -> &DimMajor {
        &self.dim_major[i]
    }

    /// Total codebook storage in bytes at 2-byte elements: `2·k*·D`
    /// (Section III-B: the Codebook SRAM is sized to `2k*D` bytes).
    pub fn storage_bytes(&self) -> usize {
        2 * self.kstar * self.dim
    }

    /// Encodes one vector into `M` codeword identifiers.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.dim()`.
    pub fn encode(&self, v: &[f32]) -> Vec<u8> {
        let mut codes = vec![0u8; self.m];
        self.encode_into(v, &mut codes);
        codes
    }

    /// [`PqCodebook::encode`] into a caller-owned buffer, so a loop over
    /// many vectors allocates nothing: `codes[j]` becomes the nearest
    /// codeword of `B_j` to sub-vector `j` (lowest id on ties).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.dim()` or `codes.len() != self.m()`.
    pub fn encode_into(&self, v: &[f32], codes: &mut [u8]) {
        assert_eq!(v.len(), self.dim);
        assert_eq!(codes.len(), self.m);
        let sub = self.sub_dim();
        for (j, code) in codes.iter_mut().enumerate() {
            *code = self.dim_major[j].nearest(&v[j * sub..(j + 1) * sub]).0 as u8;
        }
    }

    /// Encodes every row of `data`, packing identifiers at the width implied
    /// by `k*`.
    pub fn encode_all(&self, data: &VectorSet) -> PackedCodes {
        let width = match self.kstar {
            k if k <= 16 => CodeWidth::U4,
            _ => CodeWidth::U8,
        };
        let mut packed = PackedCodes::with_capacity(self.m, width, data.len());
        let mut codes = vec![0u8; self.m];
        for v in data.iter() {
            self.encode_into(v, &mut codes);
            packed.push(&codes);
        }
        packed
    }

    /// Reconstructs the approximation of a vector from its identifiers
    /// (concatenation of the selected codewords).
    ///
    /// # Panics
    ///
    /// Panics if `codes.len() != self.m()` or any identifier is `>= k*`.
    pub fn decode(&self, codes: &[u8]) -> Vec<f32> {
        assert_eq!(codes.len(), self.m);
        let mut out = Vec::with_capacity(self.dim);
        for (j, &c) in codes.iter().enumerate() {
            assert!((c as usize) < self.kstar, "code {c} out of range");
            out.extend_from_slice(self.books[j].row(c as usize));
        }
        out
    }

    /// Mean squared reconstruction error over a dataset — the Faiss training
    /// objective, exposed for quality assertions.
    pub fn reconstruction_error(&self, data: &VectorSet) -> f64 {
        let mut total = 0.0f64;
        for v in data.iter() {
            let approx = self.decode(&self.encode(v));
            total += metric::l2_squared(v, &approx) as f64;
        }
        total / data.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_data() -> VectorSet {
        // 6-dim vectors with structured sub-spaces so PQ can compress well.
        VectorSet::from_fn(6, 300, |r, c| {
            let group = (r % 4) as f32;
            group * 5.0 + ((c * 7 + r) % 3) as f32 * 0.1
        })
    }

    #[test]
    fn encode_decode_shapes() {
        let data = toy_data();
        let book = PqCodebook::train(
            &data,
            &PqConfig {
                m: 3,
                kstar: 8,
                iters: 10,
                seed: 0,
            },
        );
        assert_eq!(book.m(), 3);
        assert_eq!(book.sub_dim(), 2);
        let codes = book.encode(data.row(0));
        assert_eq!(codes.len(), 3);
        assert_eq!(book.decode(&codes).len(), 6);
    }

    #[test]
    fn reconstruction_error_small_on_clustered_data() {
        let data = toy_data();
        let book = PqCodebook::train(
            &data,
            &PqConfig {
                m: 3,
                kstar: 8,
                iters: 20,
                seed: 0,
            },
        );
        assert!(
            book.reconstruction_error(&data) < 0.05,
            "err = {}",
            book.reconstruction_error(&data)
        );
    }

    #[test]
    fn more_codewords_reduce_error() {
        let data = VectorSet::from_fn(4, 500, |r, c| ((r * 13 + c * 29) % 101) as f32);
        let small = PqCodebook::train(
            &data,
            &PqConfig {
                m: 2,
                kstar: 4,
                iters: 15,
                seed: 1,
            },
        );
        let big = PqCodebook::train(
            &data,
            &PqConfig {
                m: 2,
                kstar: 64,
                iters: 15,
                seed: 1,
            },
        );
        assert!(big.reconstruction_error(&data) < small.reconstruction_error(&data));
    }

    #[test]
    fn encoded_bytes_match_paper_formula() {
        // D=128, k*=256, M=64 -> 64 bytes (4:1 vs 256-byte float16 original).
        let cfg = PqConfig::k256(64);
        assert_eq!(cfg.code_bits(), 8);
        assert_eq!(cfg.encoded_bytes(), 64);
        // D=128, k*=16, M=128 -> 64 bytes as well (Figure 8's 4:1 setups).
        let cfg = PqConfig::k16(128);
        assert_eq!(cfg.code_bits(), 4);
        assert_eq!(cfg.encoded_bytes(), 64);
    }

    #[test]
    fn storage_matches_codebook_sram_sizing() {
        // Section III-B: 2·k*·D bytes; D=128, k*=256 -> 64 KiB.
        let data = VectorSet::from_fn(128, 300, |r, c| ((r + c) % 7) as f32);
        let book = PqCodebook::train(
            &data,
            &PqConfig {
                m: 64,
                kstar: 256,
                iters: 1,
                seed: 0,
            },
        );
        assert_eq!(book.storage_bytes(), 65536);
    }

    #[test]
    fn decode_rejects_out_of_range_code() {
        let data = toy_data();
        let book = PqCodebook::train(
            &data,
            &PqConfig {
                m: 3,
                kstar: 4,
                iters: 3,
                seed: 0,
            },
        );
        let r = std::panic::catch_unwind(|| book.decode(&[0, 200, 0]));
        assert!(r.is_err());
    }

    #[test]
    fn from_books_roundtrip() {
        let b0 = VectorSet::from_rows(2, &[0.0, 0.0, 1.0, 1.0]);
        let b1 = VectorSet::from_rows(2, &[5.0, 5.0, 9.0, 9.0]);
        let book = PqCodebook::from_books(vec![b0, b1]);
        assert_eq!(book.dim(), 4);
        assert_eq!(book.kstar(), 2);
        let codes = book.encode(&[0.9, 0.9, 5.2, 5.2]);
        assert_eq!(codes, vec![1, 0]);
        assert_eq!(book.decode(&codes), vec![1.0, 1.0, 5.0, 5.0]);
    }

    #[test]
    fn encode_all_packs_every_row() {
        let data = toy_data();
        let book = PqCodebook::train(
            &data,
            &PqConfig {
                m: 3,
                kstar: 16,
                iters: 5,
                seed: 0,
            },
        );
        let packed = book.encode_all(&data);
        assert_eq!(packed.len(), data.len());
        for i in (0..data.len()).step_by(41) {
            assert_eq!(packed.get(i), book.encode(data.row(i)));
        }
    }
}
