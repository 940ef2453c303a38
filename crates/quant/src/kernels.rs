//! Fused quantize+bitpack encode kernels (bit-parallel fast paths).
//!
//! Each scheme's `encode` used to emit one `BitBuf::push_bits` call per
//! coordinate per part — a per-byte read-modify-write loop that dominated
//! `encode_row_32k`. These kernels fuse the quantization decision with
//! word-at-a-time packing: sign planes are gathered 64 coordinates per `u64`
//! (`f32::to_bits() >> 31` shifted into lane position), and multi-bit fields
//! stream through [`BitPacker`]'s shift/or accumulator, one 8-byte store per
//! 64 bits. All loops are branch-light over contiguous slices, so the
//! compiler can vectorize the gathers.
//!
//! Output is bit-identical to the scalar reference
//! ([`crate::scheme::TrimmableScheme::encode_scalar`]): both produce the same
//! LSB-first bitstream field by field, only the store granularity differs.
//! The golden tests in `crates/quant/tests/encode_golden.rs` pin this
//! byte-for-byte for every scheme.
//!
//! The decode half mirrors this on the receive side. A [`PartialRow`]'s
//! availability is a list of [`DepthSpan`]s, so depth is constant over each
//! span and a decoder runs one branch-free kernel per span: head planes are
//! read 32 signs per word and multi-bit fields stream through a
//! [`BitUnpacker`]. Each kernel is generic over a [`Store`], so the same
//! loop either overwrites (`decode_into`) or adds (`decode_accumulate`).
//! Every kernel computes each value with the exact expression the
//! per-coordinate `decode_scalar` uses, so the results are bit-identical
//! (`crates/wire/tests/decode_identity.rs` pins this).

use crate::bitpack::{pack_signs, BitBuf, BitPacker, BitUnpacker};
use crate::scheme::{DecodeError, DepthSpan, PartialRow, RowMeta};
use std::cell::Cell;
use trimgrad_hadamard::rht::RandomizedHadamard;

/// Splits IEEE-754 floats into a 1-bit sign plane and 31-bit
/// exponent+mantissa tails — the sign-magnitude and RHT 1-bit layout.
// trimlint: hot-path -- per-row packing kernel on the encode path
#[must_use]
pub fn encode_sign31_parts(values: &[f32]) -> (BitBuf, BitBuf) {
    let heads = pack_signs(values);
    // trimlint: allow(hot-path-alloc) -- one tail buffer per row, amortized
    let mut tails = BitPacker::with_capacity(values.len() * 31);
    for &v in values {
        tails.push(u64::from(v.to_bits() & 0x7FFF_FFFF), 31);
    }
    (heads, tails.finish())
}

/// Splits IEEE-754 floats into 1-bit sign, 8-bit exponent, and 23-bit
/// mantissa planes — the multi-level RHT layout.
// trimlint: hot-path -- per-row packing kernel on the encode path
#[must_use]
pub fn encode_sign_exp_mant_parts(values: &[f32]) -> (BitBuf, BitBuf, BitBuf) {
    let signs = pack_signs(values);
    // trimlint: allow(hot-path-alloc) -- one exponent buffer per row, amortized
    let mut exps = BitPacker::with_capacity(values.len() * 8);
    // trimlint: allow(hot-path-alloc) -- one mantissa buffer per row, amortized
    let mut mants = BitPacker::with_capacity(values.len() * 23);
    for &v in values {
        let bits = v.to_bits();
        exps.push(u64::from((bits >> 23) & 0xFF), 8);
        mants.push(u64::from(bits & 0x7F_FFFF), 23);
    }
    (signs, exps.finish(), mants.finish())
}

/// Packs the full 32-bit patterns of `values` — the SQ/SD tails.
///
/// A 32-bit field written at a 32-bit-aligned offset of the LSB-first
/// stream is exactly the little-endian bytes of the value, so the whole
/// part is a flat byte copy — no bit accumulator needed.
// trimlint: hot-path -- per-row packing kernel on the encode path
#[must_use]
pub fn pack_f32_tails(values: &[f32]) -> BitBuf {
    // trimlint: allow(hot-path-alloc) -- one tail buffer per row, amortized
    let mut bytes = vec![0u8; values.len() * 4];
    for (dst, &v) in bytes.chunks_exact_mut(4).zip(values) {
        dst.copy_from_slice(&v.to_bits().to_le_bytes());
    }
    BitBuf::from_bytes(bytes, values.len() * 32)
}

/// Packs `n` predicate bits produced in coordinate order, gathering 64 into
/// each `u64` word. `bit(i)` is called exactly once per coordinate, strictly
/// in increasing `i` order — the SQ/SD encoders rely on this because their
/// per-coordinate PRNG draws are part of the wire contract.
// trimlint: hot-path -- head-plane packing for the stochastic encoders
#[must_use]
pub fn pack_bits_ordered(n: usize, mut bit: impl FnMut(usize) -> bool) -> BitBuf {
    // trimlint: allow(hot-path-alloc) -- one head buffer per row, amortized
    let mut out = BitPacker::with_capacity(n);
    let mut i = 0;
    while i + 64 <= n {
        let mut word = 0u64;
        for j in 0..64 {
            word |= u64::from(bit(i + j)) << j;
        }
        out.push(word, 64);
        i += 64;
    }
    if i < n {
        let mut word = 0u64;
        for j in 0..n - i {
            word |= u64::from(bit(i + j)) << j;
        }
        out.push(word, (n - i) as u32);
    }
    out.finish()
}

/// Packs `a.len()` predicate bits of `f(a[i], b[i])`, gathering 64 per
/// `u64` word. Iterates both slices by `chunks_exact` + `zip` so the inner
/// loop carries no bounds checks — the closure is evaluated strictly in
/// increasing `i` order, once per coordinate.
// trimlint: hot-path -- head-plane packing for the stochastic encoders
#[must_use]
pub fn pack_bits_zip(a: &[f32], b: &[f32], mut f: impl FnMut(f32, f32) -> bool) -> BitBuf {
    assert_eq!(a.len(), b.len(), "pack_bits_zip: slice lengths differ");
    // trimlint: allow(hot-path-alloc) -- one head buffer per row, amortized
    let mut out = BitPacker::with_capacity(a.len());
    let mut ac = a.chunks_exact(64);
    let mut bc = b.chunks_exact(64);
    for (ca, cb) in (&mut ac).zip(&mut bc) {
        let mut word = 0u64;
        for (j, (&x, &y)) in ca.iter().zip(cb).enumerate() {
            word |= u64::from(f(x, y)) << j;
        }
        out.push(word, 64);
    }
    let (ra, rb) = (ac.remainder(), bc.remainder());
    if !ra.is_empty() {
        let mut word = 0u64;
        for (j, (&x, &y)) in ra.iter().zip(rb).enumerate() {
            word |= u64::from(f(x, y)) << j;
        }
        out.push(word, ra.len() as u32);
    }
    out.finish()
}

/// How a decode kernel stores each decoded value.
pub(crate) trait Store {
    /// Whether [`store`](Self::store) ignores the slot's previous value.
    const OVERWRITES: bool;
    /// Stores `v` into `slot`.
    fn store(slot: &mut f32, v: f32);
}

/// Overwrites: the `decode_into` store.
pub(crate) struct Write;

impl Store for Write {
    const OVERWRITES: bool = true;
    #[inline(always)]
    fn store(slot: &mut f32, v: f32) {
        *slot = v;
    }
}

/// Adds: the `decode_accumulate` store (`acc + decoded`, the same single
/// rounding as adding a materialized decode).
pub(crate) struct Add;

impl Store for Add {
    const OVERWRITES: bool = false;
    #[inline(always)]
    fn store(slot: &mut f32, v: f32) {
        *slot += v;
    }
}

/// Validates `row` against `part_bits` and the scalar schemes' geometry:
/// no padding, so `original_len == n`.
pub(crate) fn check_unpadded(
    row: &PartialRow<'_>,
    meta: &RowMeta,
    part_bits: &[u32],
) -> Result<(), DecodeError> {
    row.validate(part_bits)?;
    if meta.original_len != row.n {
        return Err(DecodeError::BadOriginalLen {
            n: row.n,
            original_len: meta.original_len,
        });
    }
    Ok(())
}

/// Validates `row` against `part_bits` and the RHT schemes' geometry: `n`
/// is `original_len` padded to the next power of two (both zero for an
/// empty row).
pub(crate) fn check_padded(
    row: &PartialRow<'_>,
    meta: &RowMeta,
    part_bits: &[u32],
) -> Result<(), DecodeError> {
    row.validate(part_bits)?;
    let ok = if row.n == 0 {
        meta.original_len == 0
    } else {
        meta.original_len != 0 && trimgrad_hadamard::next_pow2(meta.original_len) == row.n
    };
    if !ok {
        return Err(DecodeError::BadOriginalLen {
            n: row.n,
            original_len: meta.original_len,
        });
    }
    Ok(())
}

/// Checks that a `decode_into`/`decode_accumulate` output slice holds
/// exactly the row's original coordinates.
pub(crate) fn check_out(meta: &RowMeta, out: &[f32]) -> Result<(), DecodeError> {
    if out.len() == meta.original_len {
        Ok(())
    } else {
        Err(DecodeError::OutputLenMismatch {
            expected: meta.original_len,
            got: out.len(),
        })
    }
}

/// Visits `out` in coordinate order as runs of constant depth: every span
/// as `visit(span.depth, span.start, slice)`, and every run no span covers
/// as depth 0. Spans must be validated ([`PartialRow::validate`]); out-of-
/// range runs are skipped rather than panicking.
pub(crate) fn walk_spans(
    spans: &[DepthSpan],
    out: &mut [f32],
    mut visit: impl FnMut(usize, usize, &mut [f32]),
) {
    let mut pos = 0;
    for s in spans {
        if let Some(gap) = out.get_mut(pos..s.start) {
            if !gap.is_empty() {
                visit(0, pos, gap);
            }
        }
        if let Some(run) = out.get_mut(s.start..s.end()) {
            if !run.is_empty() {
                visit(s.depth, s.start, run);
            }
        }
        pos = s.end();
    }
    if let Some(gap) = out.get_mut(pos..) {
        if !gap.is_empty() {
            visit(0, pos, gap);
        }
    }
}

/// Stores `v` into every slot.
pub(crate) fn fill<S: Store>(out: &mut [f32], v: f32) {
    for o in out {
        S::store(o, v);
    }
}

/// Calls `f(slot, sign)` for every slot of `out`, where `sign` is the head
/// bit of coordinate `start + j` moved to bit 31. Head planes are read 32
/// bits per word.
#[inline(always)]
pub(crate) fn with_signs(
    heads: &BitBuf,
    start: usize,
    out: &mut [f32],
    mut f: impl FnMut(&mut f32, u32),
) {
    let mut h = BitUnpacker::new(heads, start);
    for chunk in out.chunks_mut(32) {
        let word = h.next(chunk.len() as u32);
        for (j, o) in chunk.iter_mut().enumerate() {
            f(o, ((word >> j) as u32 & 1) << 31);
        }
    }
}

/// Heads-only decode: `-mag` where the head bit is 1, `+mag` where it is 0.
/// Negation flips exactly the sign bit, so XOR-ing it in is bit-identical
/// to `if bit { -mag } else { mag }`.
pub(crate) fn heads_pm<S: Store>(heads: &BitBuf, start: usize, out: &mut [f32], mag: f32) {
    let mag = mag.to_bits();
    with_signs(heads, start, out, |o, sign| {
        S::store(o, f32::from_bits(mag ^ sign));
    });
}

/// Full-depth decode of the sign + 31-bit layout (sign-magnitude, RHT 1-bit).
pub(crate) fn sign31<S: Store>(heads: &BitBuf, tails: &BitBuf, start: usize, out: &mut [f32]) {
    let mut t = BitUnpacker::new(tails, start * 31);
    with_signs(heads, start, out, |o, sign| {
        S::store(o, f32::from_bits(sign | t.next(31) as u32));
    });
}

/// Full-depth decode of 32-bit tails (SQ/SD). A 32-bit field at a 32-bit
/// aligned offset is the value's little-endian bytes — the inverse of
/// [`pack_f32_tails`].
pub(crate) fn f32_tails<S: Store>(tails: &BitBuf, start: usize, out: &mut [f32]) {
    let bytes = tails.as_bytes().get(start * 4..).unwrap_or(&[]);
    for (o, b) in out.iter_mut().zip(bytes.chunks_exact(4)) {
        S::store(
            o,
            f32::from_bits(u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
        );
    }
}

/// Sign + 8-bit exponent decode (multi-level RHT at depth 2): the binade's
/// mantissa midpoint, or a signed zero for the zero/subnormal binade.
pub(crate) fn sign_exp<S: Store>(
    heads: &BitBuf,
    exps: &BitBuf,
    start: usize,
    out: &mut [f32],
    mantissa_midpoint: u32,
) {
    let mut e = BitUnpacker::new(exps, start * 8);
    with_signs(heads, start, out, |o, sign| {
        let exp = e.next(8) as u32;
        let bits = if exp == 0 {
            sign
        } else {
            sign | (exp << 23) | mantissa_midpoint
        };
        S::store(o, f32::from_bits(bits));
    });
}

/// Full-depth decode of the sign + 8-bit exponent + 23-bit mantissa layout.
pub(crate) fn sign_exp_mant<S: Store>(
    heads: &BitBuf,
    exps: &BitBuf,
    mants: &BitBuf,
    start: usize,
    out: &mut [f32],
) {
    let mut e = BitUnpacker::new(exps, start * 8);
    let mut m = BitUnpacker::new(mants, start * 23);
    with_signs(heads, start, out, |o, sign| {
        let exp = e.next(8) as u32;
        S::store(o, f32::from_bits(sign | (exp << 23) | m.next(23) as u32));
    });
}

/// Span decode of a sign + 31-bit row (sign-magnitude, RHT 1-bit): depth 0
/// is `0.0`, depth 1 is `±mag`, deeper is the exact float. `row` must be
/// validated against a two-part geometry.
pub(crate) fn decode_sign31_row<S: Store>(row: &PartialRow<'_>, mag: f32, out: &mut [f32]) {
    let (Some(heads), Some(tails)) = (row.parts.first(), row.parts.get(1)) else {
        return;
    };
    walk_spans(&row.spans, out, |depth, start, run| match depth {
        0 => fill::<S>(run, 0.0),
        1 => heads_pm::<S>(heads, start, run, mag),
        _ => sign31::<S>(heads, tails, start, run),
    });
}

thread_local! {
    /// Per-thread rotation buffer for the RHT decoders, reused across rows
    /// so a steady-state decode does not allocate.
    static SCRATCH: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// Runs `f` on a zeroed `n`-float scratch buffer owned by this thread. A
/// nested call (none exist today) would get a fresh buffer, not a panic.
pub(crate) fn with_scratch<R>(n: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    let mut buf = SCRATCH.with(Cell::take);
    buf.clear();
    buf.resize(n, 0.0);
    let r = f(&mut buf);
    SCRATCH.with(|cell| cell.set(buf));
    r
}

/// The shared RHT receive tail: `fill_rotated` writes every coordinate of
/// the `n`-long rotated row, which is then inverted and its first
/// `out.len()` coordinates stored into `out`. An unpadded overwrite decodes
/// straight into `out`; everything else goes through the thread's scratch.
pub(crate) fn rht_decode<S: Store>(
    n: usize,
    seed: u64,
    out: &mut [f32],
    fill_rotated: impl FnOnce(&mut [f32]),
) {
    let rht = RandomizedHadamard::new(seed);
    if S::OVERWRITES && out.len() == n {
        fill_rotated(out);
        rht.inverse_padded_in_place(out);
        return;
    }
    with_scratch(n, |rotated| {
        fill_rotated(rotated);
        rht.inverse_padded_in_place(rotated);
        for (o, &v) in out.iter_mut().zip(rotated.iter()) {
            S::store(o, v);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let v = ((i * 37) % 101) as f32 / 7.0 - 7.0;
                if i % 3 == 0 {
                    -v
                } else {
                    v
                }
            })
            .collect()
    }

    #[test]
    fn sign31_matches_per_coordinate_pushes() {
        for n in [0usize, 1, 63, 64, 65, 300, 1024] {
            let values = sample(n);
            let mut heads = BitBuf::with_capacity(n);
            let mut tails = BitBuf::with_capacity(n * 31);
            for &v in &values {
                let bits = v.to_bits();
                heads.push_bits(u64::from(bits >> 31), 1);
                tails.push_bits(u64::from(bits & 0x7FFF_FFFF), 31);
            }
            assert_eq!(encode_sign31_parts(&values), (heads, tails), "n={n}");
        }
    }

    #[test]
    fn sign_exp_mant_matches_per_coordinate_pushes() {
        for n in [0usize, 1, 64, 65, 500] {
            let values = sample(n);
            let mut signs = BitBuf::with_capacity(n);
            let mut exps = BitBuf::with_capacity(n * 8);
            let mut mants = BitBuf::with_capacity(n * 23);
            for &v in &values {
                let bits = v.to_bits();
                signs.push_bits(u64::from(bits >> 31), 1);
                exps.push_bits(u64::from((bits >> 23) & 0xFF), 8);
                mants.push_bits(u64::from(bits & 0x7F_FFFF), 23);
            }
            assert_eq!(
                encode_sign_exp_mant_parts(&values),
                (signs, exps, mants),
                "n={n}"
            );
        }
    }

    #[test]
    fn f32_tails_match_per_coordinate_pushes() {
        let values = sample(130);
        let mut reference = BitBuf::with_capacity(values.len() * 32);
        for &v in &values {
            reference.push_bits(u64::from(v.to_bits()), 32);
        }
        assert_eq!(pack_f32_tails(&values), reference);
    }

    #[test]
    fn zip_bits_match_per_coordinate_pushes() {
        for n in [0usize, 1, 63, 64, 65, 129, 300] {
            let a = sample(n);
            let b: Vec<f32> = sample(n).iter().map(|v| v * 0.3 - 0.1).collect();
            let mut reference = BitBuf::with_capacity(n);
            for (&x, &y) in a.iter().zip(&b) {
                reference.push_bits(u64::from(x + y < 0.0), 1);
            }
            assert_eq!(
                pack_bits_zip(&a, &b, |x, y| x + y < 0.0),
                reference,
                "n={n}"
            );
        }
    }

    #[test]
    fn ordered_bits_visit_every_index_once_in_order() {
        for n in [0usize, 1, 63, 64, 65, 129] {
            let mut visited = Vec::new();
            let buf = pack_bits_ordered(n, |i| {
                visited.push(i);
                i % 3 == 1
            });
            assert_eq!(visited, (0..n).collect::<Vec<_>>(), "n={n}");
            assert_eq!(buf.len(), n);
            for i in 0..n {
                assert_eq!(buf.get_bit(i), i % 3 == 1, "n={n} i={i}");
            }
        }
    }
}
