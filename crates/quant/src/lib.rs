//! Trimmable gradient quantization schemes.
//!
//! This crate implements the algorithmic core of *"When ML Training Cuts
//! Through Congestion: Just-in-Time Gradient Compression via Packet
//! Trimming"* (HotNets '24): encodings that split every gradient coordinate
//! into a `P`-bit **head** and a `Q`-bit **tail** such that
//!
//! * when nothing is trimmed, head + tail reconstruct the original value
//!   (bit-exactly for the sign-based schemes),
//! * when a congested switch trims a packet down to its heads, the receiver
//!   still decodes a useful low-precision estimate of every coordinate.
//!
//! # Schemes
//!
//! | Scheme | Head | Head-only decode | Character |
//! |---|---|---|---|
//! | [`signmag::SignMagnitude`] | sign bit of the float | `±σ` | biased; diverges ≥ ~2% trimming (paper Fig 3) |
//! | [`stochastic::StochasticQuantization`] | Bernoulli bit, `p₊ = (L+v)/2L`, `L = 2.5σ` | `±L` | unbiased (TernGrad-style) |
//! | [`dither::SubtractiveDithering`] | `sign(v + ε)`, shared-randomness dither | `L·sign(v+ε) − ε` | unbiased, input-independent worst-case error |
//! | [`rht1bit::RhtOneBit`] | sign of the RHT-rotated coordinate | `f·sign`, `f = ‖r‖₂²/‖r‖₁`, then inverse RHT | unbiased, error spread across the row (DRIVE-style) |
//! | [`multilevel::MultiLevelRht`] | sign, then exponent (parts 1/8/23 bits) | per-level | §5.1 multi-level trimming |
//!
//! # Architecture
//!
//! Every scheme implements [`scheme::TrimmableScheme`]: `encode` produces an
//! [`scheme::EncodedRow`] whose payload is a sequence of fixed-width
//! bit-packed **parts** (part 0 is the head). The wire layer lays parts out
//! front-to-back in each packet so that switch trimming truncates whole
//! trailing parts. `decode` accepts a [`scheme::PartialRow`] describing,
//! as spans of coordinates, which prefix of parts survived.
//!
//! ```
//! use trimgrad_quant::scheme::TrimmableScheme;
//! use trimgrad_quant::rht1bit::RhtOneBit;
//!
//! let scheme = RhtOneBit::default();
//! let grad: Vec<f32> = (0..256).map(|i| ((i * 7 % 23) as f32 - 11.0) / 11.0).collect();
//! let enc = scheme.encode(&grad, /*seed=*/ 42);
//!
//! // Untrimmed: decoding is exact up to the rotation's rounding error.
//! let exact = scheme.decode(&enc.full_view(), &enc.meta, 42).unwrap();
//! for (d, v) in exact.iter().zip(&grad) {
//!     assert!((d - v).abs() < 1e-4);
//! }
//!
//! // Fully trimmed (heads only): decoding is approximate but unbiased.
//! let est = scheme.decode(&enc.trimmed_view(1), &enc.meta, 42).unwrap();
//! assert_eq!(est.len(), grad.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitpack;
pub mod dither;
pub mod error;
pub mod fcmp;
pub mod kernels;
pub mod multilevel;
pub mod rht1bit;
pub mod scheme;
pub mod signmag;
pub mod stats;
pub mod stochastic;

pub use scheme::{DepthSpan, EncodedRow, PartialRow, RowMeta, SchemeId, TrimmableScheme};

/// Constructs the scheme implementation for a [`SchemeId`] with default
/// parameters (the ones used throughout the paper's evaluation).
#[must_use]
pub fn scheme_for(id: SchemeId) -> Box<dyn TrimmableScheme> {
    match id {
        SchemeId::SignMagnitude => Box::new(signmag::SignMagnitude),
        SchemeId::Stochastic => Box::new(stochastic::StochasticQuantization::default()),
        SchemeId::SubtractiveDither => Box::new(dither::SubtractiveDithering::default()),
        SchemeId::RhtOneBit => Box::new(rht1bit::RhtOneBit),
        SchemeId::MultiLevelRht => Box::new(multilevel::MultiLevelRht),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_for_covers_all_ids() {
        for id in SchemeId::ALL {
            let s = scheme_for(id);
            assert_eq!(s.id(), id);
            // Every scheme's head is its first part.
            assert!(!s.part_bits().is_empty());
            assert!(s.part_bits().iter().all(|&b| b > 0));
            // The static geometry table must agree with the implementation.
            assert_eq!(s.part_bits(), id.part_bits());
        }
    }
}
