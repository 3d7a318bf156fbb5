//! The seed scalar kernels — the bit-exact reference implementation.
//!
//! One vector at a time, identifiers accumulated in subquantizer order
//! (`i = 0..M`), bias added last, every score pushed through the top-k
//! heap. Every other dispatch path must reproduce these scores bit for
//! bit; the oracle tests hold each one to them.
//! Each score comes from the shared row loop (`super::score_row`), which
//! also scores every row of `score_all` under the `Scalar` dispatch and
//! finishes the rows the other kernels leave.

use super::score_row;
use crate::lut::Lut;
use anna_quant::codes::{CodeWidth, PackedCodes};
use anna_vector::TopK;

/// Byte-per-identifier scan kernel (`k* = 256`).
///
/// # Panics
///
/// Panics if the codes are not [`CodeWidth::U8`].
pub(super) fn scan_u8(codes: &PackedCodes, ids: &[u64], lut: &Lut, top: &mut TopK) {
    assert_eq!(codes.width(), CodeWidth::U8);
    for (v, &id) in ids.iter().enumerate() {
        top.push(id, score_row(codes, lut, v));
    }
}

/// Nibble-per-identifier scan kernel (`k* = 16`).
///
/// # Panics
///
/// Panics if the codes are not [`CodeWidth::U4`] or the LUT does not have
/// `k* = 16`.
pub(super) fn scan_u4(codes: &PackedCodes, ids: &[u64], lut: &Lut, top: &mut TopK) {
    assert_eq!(codes.width(), CodeWidth::U4);
    assert_eq!(lut.kstar(), 16, "u4 kernel requires a 16-entry LUT");
    for (v, &id) in ids.iter().enumerate() {
        top.push(id, score_row(codes, lut, v));
    }
}
