//! Packed storage for encoded vectors.
//!
//! With `k* = 16` each identifier is 4 bits and two identifiers share a
//! byte; with `k* = 256` each identifier is one byte. Section II-D of the
//! paper observes that CPUs handle the 4-bit layout poorly (streams of
//! `VPSRLW` shifts); ANNA's Encoded Vector Fetch Module unpacks it with
//! dedicated shifters. This module is the software model of that layout and
//! unpacker.

/// Identifier width of packed codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodeWidth {
    /// 4-bit identifiers (`k* = 16`), two per byte, low nibble first.
    U4,
    /// 8-bit identifiers (`k* = 256`).
    U8,
}

impl CodeWidth {
    /// Bits per identifier.
    pub fn bits(self) -> u32 {
        match self {
            CodeWidth::U4 => 4,
            CodeWidth::U8 => 8,
        }
    }

    /// The `k*` this width supports.
    pub fn kstar(self) -> usize {
        1usize << self.bits()
    }

    /// Bytes needed to store one encoded vector of `m` identifiers
    /// (`M · log2 k* / 8`, Section II-B).
    pub fn vector_bytes(self, m: usize) -> usize {
        (m * self.bits() as usize).div_ceil(8)
    }
}

/// A buffer of encoded vectors, each `m` identifiers wide, packed at a given
/// [`CodeWidth`].
///
/// # Example
///
/// ```
/// use anna_quant::{CodeWidth, PackedCodes};
///
/// let mut codes = PackedCodes::new(3, CodeWidth::U4);
/// codes.push(&[1, 15, 7]);
/// codes.push(&[0, 2, 3]);
/// assert_eq!(codes.get(0), vec![1, 15, 7]);
/// assert_eq!(codes.get(1), vec![0, 2, 3]);
/// assert_eq!(codes.bytes().len(), 4); // two vectors * 2 bytes each
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PackedCodes {
    m: usize,
    width: CodeWidth,
    len: usize,
    data: Vec<u8>,
}

impl PackedCodes {
    /// Creates an empty buffer for vectors of `m` identifiers.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn new(m: usize, width: CodeWidth) -> Self {
        Self::with_capacity(m, width, 0)
    }

    /// Creates an empty buffer with space reserved for `cap` vectors.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn with_capacity(m: usize, width: CodeWidth, cap: usize) -> Self {
        assert!(m > 0, "m must be positive");
        Self {
            m,
            width,
            len: 0,
            data: Vec::with_capacity(cap * width.vector_bytes(m)),
        }
    }

    /// Identifiers per vector.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The identifier width.
    pub fn width(&self) -> CodeWidth {
        self.width
    }

    /// Number of stored vectors.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no vectors are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes per stored vector.
    pub fn vector_bytes(&self) -> usize {
        self.width.vector_bytes(self.m)
    }

    /// The raw packed bytes (what ANNA's EFM streams from DRAM).
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Appends one encoded vector.
    ///
    /// # Panics
    ///
    /// Panics if `codes.len() != self.m()` or an identifier exceeds the
    /// width.
    pub fn push(&mut self, codes: &[u8]) {
        assert_eq!(codes.len(), self.m, "code count mismatch");
        match self.width {
            CodeWidth::U8 => self.data.extend_from_slice(codes),
            CodeWidth::U4 => {
                for pair in codes.chunks(2) {
                    let lo = pair[0];
                    assert!(lo < 16, "identifier {lo} exceeds 4 bits");
                    let hi = if pair.len() == 2 {
                        assert!(pair[1] < 16, "identifier {} exceeds 4 bits", pair[1]);
                        pair[1]
                    } else {
                        0
                    };
                    self.data.push(lo | (hi << 4));
                }
            }
        }
        self.len += 1;
    }

    /// Unpacks vector `i` into identifiers (the EFM unpacker model).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> Vec<u8> {
        let mut out = vec![0u8; self.m];
        self.read_into(i, &mut out);
        out
    }

    /// Unpacks vector `i` into a caller-provided buffer (avoids allocation
    /// in scan loops).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()` or `out.len() != self.m()`.
    pub fn read_into(&self, i: usize, out: &mut [u8]) {
        assert!(
            i < self.len,
            "vector index {i} out of range (len {})",
            self.len
        );
        assert_eq!(out.len(), self.m);
        let vb = self.vector_bytes();
        let row = &self.data[i * vb..(i + 1) * vb];
        match self.width {
            CodeWidth::U8 => out.copy_from_slice(row),
            CodeWidth::U4 => {
                for (j, slot) in out.iter_mut().enumerate() {
                    let byte = row[j / 2];
                    *slot = if j % 2 == 0 { byte & 0x0F } else { byte >> 4 };
                }
            }
        }
    }

    /// Reconstructs a buffer from raw packed bytes (deserialization).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal `len` vectors at this
    /// width/m.
    pub fn from_bytes(m: usize, width: CodeWidth, len: usize, data: Vec<u8>) -> Self {
        assert!(m > 0, "m must be positive");
        assert_eq!(
            data.len(),
            len * width.vector_bytes(m),
            "packed byte length inconsistent with m/width/len"
        );
        Self {
            m,
            width,
            len,
            data,
        }
    }

    /// Borrows the packed bytes of vectors `[start, start + count)` — the
    /// contiguous region the EFM fetches for one cluster.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds `self.len()`.
    pub fn slice_bytes(&self, start: usize, count: usize) -> &[u8] {
        assert!(start + count <= self.len, "slice out of range");
        let vb = self.vector_bytes();
        &self.data[start * vb..(start + count) * vb]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u8_roundtrip() {
        let mut p = PackedCodes::new(4, CodeWidth::U8);
        p.push(&[0, 255, 128, 1]);
        assert_eq!(p.get(0), vec![0, 255, 128, 1]);
        assert_eq!(p.vector_bytes(), 4);
    }

    #[test]
    fn u4_roundtrip_even_m() {
        let mut p = PackedCodes::new(4, CodeWidth::U4);
        p.push(&[1, 2, 3, 4]);
        p.push(&[15, 0, 7, 8]);
        assert_eq!(p.get(0), vec![1, 2, 3, 4]);
        assert_eq!(p.get(1), vec![15, 0, 7, 8]);
        assert_eq!(p.vector_bytes(), 2);
    }

    #[test]
    fn u4_roundtrip_odd_m() {
        let mut p = PackedCodes::new(3, CodeWidth::U4);
        p.push(&[9, 10, 11]);
        assert_eq!(p.get(0), vec![9, 10, 11]);
        assert_eq!(p.vector_bytes(), 2); // 3 nibbles round up to 2 bytes
    }

    #[test]
    fn nibble_order_is_low_first() {
        let mut p = PackedCodes::new(2, CodeWidth::U4);
        p.push(&[0x1, 0x2]);
        assert_eq!(p.bytes(), &[0x21]);
    }

    #[test]
    #[should_panic(expected = "exceeds 4 bits")]
    fn u4_rejects_wide_identifier() {
        let mut p = PackedCodes::new(2, CodeWidth::U4);
        p.push(&[16, 0]);
    }

    #[test]
    fn width_math_matches_paper() {
        // Section II-B example: D=6, M=3, k*=4 -> 6 bits -> "6/8 bytes";
        // we round to whole bytes as any byte-addressed memory must.
        assert_eq!(CodeWidth::U4.vector_bytes(128), 64);
        assert_eq!(CodeWidth::U8.vector_bytes(64), 64);
        assert_eq!(CodeWidth::U4.kstar(), 16);
        assert_eq!(CodeWidth::U8.kstar(), 256);
    }

    #[test]
    fn slice_bytes_selects_cluster_region() {
        let mut p = PackedCodes::new(2, CodeWidth::U8);
        for i in 0..10u8 {
            p.push(&[i, i + 100]);
        }
        let s = p.slice_bytes(3, 2);
        assert_eq!(s, &[3, 103, 4, 104]);
    }

    #[test]
    fn read_into_avoids_allocation() {
        let mut p = PackedCodes::new(4, CodeWidth::U4);
        p.push(&[1, 2, 3, 4]);
        let mut buf = [0u8; 4];
        p.read_into(0, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_rejects_out_of_range() {
        let p = PackedCodes::new(2, CodeWidth::U8);
        let _ = p.get(0);
    }
}
