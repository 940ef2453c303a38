//! Stochastic quantization (paper §3.1, "Stochastic Quantization (SQ)").
//!
//! After clipping the coordinate to `[-L, L]` with `L = 2.5σ` (following
//! TernGrad), the head encodes `+1` with probability `p₊ = (L+v)/2L` and `−1`
//! otherwise; heads decode into `{−L, +L}`. For unclipped coordinates the
//! expectation of the decoded value equals the original — the estimator is
//! **unbiased**, which is what keeps SGD convergent at moderate trim rates
//! where the biased sign-magnitude scheme diverges.
//!
//! Unlike the sign-based schemes, the stochastic head is *not* a bit of the
//! IEEE representation, so exact reconstruction requires the full 32-bit
//! float in the tail: SQ pays one bit of overhead per coordinate
//! (33 vs 32). The randomness is drawn from the shared seed so encoding is
//! reproducible (§5.4), but decoding needs no randomness at all.

use crate::bitpack::BitBuf;
use crate::kernels::{
    check_out, check_unpadded, f32_tails, fill, heads_pm, walk_spans, Add, Store, Write,
};
use crate::scheme::{
    bits_f32, f32_bits, DecodeError, EncodedRow, PartialRow, RowMeta, SchemeId, TrimmableScheme,
};
use crate::stats::{clip, std_dev};
use std::cmp::Ordering;
use trimgrad_hadamard::prng::Xoshiro256StarStar;

/// Stochastic quantization with clipping range `L = multiplier · σ`.
#[derive(Debug, Clone, Copy)]
pub struct StochasticQuantization {
    /// `L = multiplier · σ`; the paper (and TernGrad) use 2.5.
    pub multiplier: f32,
}

impl Default for StochasticQuantization {
    fn default() -> Self {
        Self { multiplier: 2.5 }
    }
}

const PART_BITS: [u32; 2] = [1, 32];

impl TrimmableScheme for StochasticQuantization {
    fn id(&self) -> SchemeId {
        SchemeId::Stochastic
    }

    fn part_bits(&self) -> &'static [u32] {
        &PART_BITS
    }

    fn encode(&self, row: &[f32], seed: u64) -> EncodedRow {
        let l = self.multiplier * std_dev(row);
        let mut rng = Xoshiro256StarStar::new(seed);
        // One PRNG draw per coordinate, in order, buffered up front: the
        // generator's state update is a serial dependency chain, so running
        // it tight and letting the clip/divide/compare work pipeline over
        // the buffer is much faster than interleaving them. The draw
        // sequence (and thus the head stream) is identical to the scalar
        // path because the draws don't depend on the data.
        // trimlint: allow(hot-path-alloc) -- one draw buffer per row, amortized
        let mut draws = Vec::with_capacity(row.len());
        for _ in 0..row.len() {
            draws.push(rng.next_f32());
        }
        let heads = crate::kernels::pack_bits_zip(row, &draws, |v, draw| {
            // p₊ = (L + clip(v)) / 2L; a zero range (constant row) degenerates
            // to a fair coin, which decodes to ±0 = 0 anyway.
            let p_plus = if l > 0.0 {
                (l + clip(v, l)) / (2.0 * l)
            } else {
                0.5
            };
            // Head bit 1 encodes −L (mirroring the IEEE "1 = negative" convention);
            // an incomparable (NaN) pair also sets it.
            draw.partial_cmp(&p_plus) != Some(Ordering::Less)
        });
        let tails = crate::kernels::pack_f32_tails(row);
        EncodedRow {
            scheme: self.id(),
            n: row.len(),
            parts: vec![heads, tails],
            meta: RowMeta {
                original_len: row.len(),
                scale: l,
            },
        }
    }

    fn encode_scalar(&self, row: &[f32], seed: u64) -> EncodedRow {
        let l = self.multiplier * std_dev(row);
        let mut rng = Xoshiro256StarStar::new(seed);
        let mut heads = BitBuf::with_capacity(row.len());
        let mut tails = BitBuf::with_capacity(row.len() * 32);
        for &v in row {
            let p_plus = if l > 0.0 {
                (l + clip(v, l)) / (2.0 * l)
            } else {
                0.5
            };
            let plus = rng.next_f32() < p_plus;
            heads.push_bits(u64::from(!plus), 1);
            tails.push_bits(u64::from(f32_bits(v)), 32);
        }
        EncodedRow {
            scheme: self.id(),
            n: row.len(),
            parts: vec![heads, tails],
            meta: RowMeta {
                original_len: row.len(),
                scale: l,
            },
        }
    }

    // trimlint: hot-path -- span decode on the receive path
    fn decode_into(
        &self,
        row: &PartialRow<'_>,
        meta: &RowMeta,
        _seed: u64,
        out: &mut [f32],
    ) -> Result<(), DecodeError> {
        decode_spans::<Write>(row, meta, out)
    }

    // trimlint: hot-path -- fused decode-and-reduce on the ring's receive path
    fn decode_accumulate(
        &self,
        row: &PartialRow<'_>,
        meta: &RowMeta,
        _seed: u64,
        acc: &mut [f32],
    ) -> Result<(), DecodeError> {
        decode_spans::<Add>(row, meta, acc)
    }

    fn decode_scalar(
        &self,
        row: &PartialRow<'_>,
        meta: &RowMeta,
        _seed: u64,
    ) -> Result<Vec<f32>, DecodeError> {
        check_unpadded(row, meta, &PART_BITS)?;
        let l = meta.scale;
        let mut out = Vec::with_capacity(row.n);
        for i in 0..row.n {
            out.push(match row.avail_depth(i) {
                0 => 0.0,
                1 => {
                    if row.parts[0].get_bits(i, 1) == 1 {
                        -l
                    } else {
                        l
                    }
                }
                _ => bits_f32(row.parts[1].get_bits(i * 32, 32) as u32),
            });
        }
        Ok(out)
    }
}

fn decode_spans<S: Store>(
    row: &PartialRow<'_>,
    meta: &RowMeta,
    out: &mut [f32],
) -> Result<(), DecodeError> {
    check_unpadded(row, meta, &PART_BITS)?;
    check_out(meta, out)?;
    let (Some(heads), Some(tails)) = (row.parts.first(), row.parts.get(1)) else {
        return Ok(());
    };
    walk_spans(&row.spans, out, |depth, start, run| match depth {
        0 => fill::<S>(run, 0.0),
        1 => heads_pm::<S>(heads, start, run, meta.scale),
        _ => f32_tails::<S>(tails, start, run),
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn untrimmed_is_bit_exact() {
        let s = StochasticQuantization::default();
        let r = vec![0.25, -3.5, 1.0e-4, 0.0, -0.0, 99.0];
        let enc = s.encode(&r, 7);
        let dec = s.decode(&enc.full_view(), &enc.meta, 7).unwrap();
        for (d, v) in dec.iter().zip(&r) {
            assert_eq!(d.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn one_bit_overhead() {
        let s = StochasticQuantization::default();
        assert_eq!(s.bits_per_coord(), 33);
        let enc = s.encode(&[1.0, 2.0, 3.0], 0);
        assert_eq!(enc.total_bits(), 3 * 33);
    }

    #[test]
    fn scale_is_2_5_sigma() {
        let s = StochasticQuantization::default();
        let r = vec![1.0f32, -1.0, 1.0, -1.0];
        let enc = s.encode(&r, 0);
        assert!((enc.meta.scale - 2.5).abs() < 1e-6); // σ = 1
    }

    #[test]
    fn heads_only_values_are_plus_minus_l() {
        let s = StochasticQuantization::default();
        let r: Vec<f32> = (0..64).map(|i| (i as f32 - 32.0) / 10.0).collect();
        let enc = s.encode(&r, 3);
        let l = enc.meta.scale;
        let dec = s.decode(&enc.trimmed_view(1), &enc.meta, 3).unwrap();
        for d in dec {
            assert!(d == l || d == -l, "{d} not ±{l}");
        }
    }

    #[test]
    fn encoding_is_deterministic_per_seed() {
        let s = StochasticQuantization::default();
        let r: Vec<f32> = (0..128).map(|i| ((i * 13) % 31) as f32 - 15.0).collect();
        let a = s.encode(&r, 42);
        let b = s.encode(&r, 42);
        assert_eq!(a.parts[0], b.parts[0]);
        let c = s.encode(&r, 43);
        assert_ne!(a.parts[0], c.parts[0], "different seeds should differ");
    }

    #[test]
    fn head_only_estimate_is_unbiased() {
        // Average many independent stochastic encodings of the same row; the
        // head-only decode must converge on the clipped coordinates.
        let s = StochasticQuantization::default();
        let r = vec![0.8f32, -0.4, 0.0, 1.2, -1.0, 0.3, -0.7, 0.5];
        let trials = 4000;
        let mut acc = vec![0.0f64; r.len()];
        for t in 0..trials {
            let enc = s.encode(&r, t);
            let dec = s.decode(&enc.trimmed_view(1), &enc.meta, t).unwrap();
            for (a, d) in acc.iter_mut().zip(&dec) {
                *a += f64::from(*d);
            }
        }
        let l = s.multiplier * crate::stats::std_dev(&r);
        for (a, &v) in acc.iter().zip(&r) {
            let mean = a / (trials as f64);
            // Standard error of the mean is L/sqrt(trials) ≈ 0.03.
            assert!(
                (mean - f64::from(v)).abs() < 4.0 * f64::from(l) / (trials as f64).sqrt(),
                "coordinate {v}: mean {mean}"
            );
        }
    }

    #[test]
    fn constant_row_degenerates_gracefully() {
        let s = StochasticQuantization::default();
        let r = vec![5.0f32; 16]; // σ = 0 → L = 0
        let enc = s.encode(&r, 1);
        assert_eq!(enc.meta.scale, 0.0);
        let dec = s.decode(&enc.trimmed_view(1), &enc.meta, 1).unwrap();
        for d in dec {
            assert_eq!(d.abs(), 0.0);
        }
        // Full precision still exact.
        let dec = s.decode(&enc.full_view(), &enc.meta, 1).unwrap();
        assert_eq!(dec, r);
    }

    #[test]
    fn empty_row() {
        let s = StochasticQuantization::default();
        let enc = s.encode(&[], 0);
        assert!(s.decode(&enc.full_view(), &enc.meta, 0).unwrap().is_empty());
    }

    proptest! {
        #[test]
        fn roundtrip_exact(
            r in proptest::collection::vec(-1.0e5f32..1.0e5, 0..100),
            seed in any::<u64>()
        ) {
            let s = StochasticQuantization::default();
            let enc = s.encode(&r, seed);
            let dec = s.decode(&enc.full_view(), &enc.meta, seed).unwrap();
            for (d, v) in dec.iter().zip(&r) {
                prop_assert_eq!(d.to_bits(), v.to_bits());
            }
        }

        #[test]
        fn extreme_coordinates_get_deterministic_heads(
            mag in 100.0f32..1000.0
        ) {
            // A coordinate far beyond +L must always encode head=+1.
            let s = StochasticQuantization::default();
            let mut r = vec![0.01f32; 32];
            r[0] = mag; // dominates σ but still > 2.5σ? Ensure: σ≈mag/√32·… check via clip
            let enc = s.encode(&r, 9);
            let l = enc.meta.scale;
            if mag > l {
                // p₊ = 1 exactly after clipping.
                prop_assert_eq!(enc.parts[0].get_bits(0, 1), 0); // head bit 0 = +L
            }
        }
    }
}
