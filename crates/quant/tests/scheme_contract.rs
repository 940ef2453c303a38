//! The `TrimmableScheme` contract, enforced across every scheme with one
//! generic property suite: exactness untrimmed, graceful degradation under
//! any prefix-closed availability, determinism, and monotone error in depth.

use proptest::prelude::*;
use trimgrad_hadamard::prng::Xoshiro256StarStar;
use trimgrad_quant::error::nmse;
use trimgrad_quant::scheme::{DecodeError, DepthSpan};
use trimgrad_quant::{scheme_for, SchemeId};

fn row(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = Xoshiro256StarStar::new(seed);
    (0..len).map(|_| rng.next_f32_range(-5.0, 5.0)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Full-view decode reproduces the row (bit-exactly for scalar schemes,
    /// within rotation rounding for RHT schemes).
    #[test]
    fn untrimmed_decode_is_faithful(
        scheme_idx in 0usize..SchemeId::ALL.len(),
        len in 1usize..600,
        seed in any::<u64>()
    ) {
        let id = SchemeId::ALL[scheme_idx];
        let scheme = scheme_for(id);
        let data = row(len, seed);
        let enc = scheme.encode(&data, seed);
        let dec = scheme.decode(&enc.full_view(), &enc.meta, seed).expect("valid");
        prop_assert_eq!(dec.len(), len);
        match id {
            SchemeId::RhtOneBit | SchemeId::MultiLevelRht => {
                for (d, v) in dec.iter().zip(&data) {
                    prop_assert!((d - v).abs() <= 1e-3 + 1e-4 * v.abs());
                }
            }
            _ => {
                for (d, v) in dec.iter().zip(&data) {
                    prop_assert_eq!(d.to_bits(), v.to_bits());
                }
            }
        }
    }

    /// Any per-coordinate prefix-closed availability decodes without panic,
    /// with finite values and the right length.
    #[test]
    fn arbitrary_availability_never_panics(
        scheme_idx in 0usize..SchemeId::ALL.len(),
        len in 1usize..400,
        seed in any::<u64>(),
        fates in proptest::collection::vec(0usize..=3, 1..50)
    ) {
        let id = SchemeId::ALL[scheme_idx];
        let scheme = scheme_for(id);
        let n_parts = scheme.part_bits().len();
        let data = row(len, seed);
        let enc = scheme.encode(&data, seed);
        let depths: Vec<usize> = (0..enc.n)
            .map(|i| fates[i % fates.len()].min(n_parts))
            .collect();
        let dec = scheme
            .decode(&enc.view_with_depths(&depths), &enc.meta, seed)
            .expect("prefix-closed view must decode");
        prop_assert_eq!(dec.len(), len);
        for d in dec {
            prop_assert!(d.is_finite());
        }
    }

    /// Determinism: encoding and decoding are pure functions of their
    /// arguments.
    #[test]
    fn encode_decode_deterministic(
        scheme_idx in 0usize..SchemeId::ALL.len(),
        len in 1usize..300,
        seed in any::<u64>()
    ) {
        let id = SchemeId::ALL[scheme_idx];
        let scheme = scheme_for(id);
        let data = row(len, seed);
        let a = scheme.encode(&data, seed);
        let b = scheme.encode(&data, seed);
        prop_assert_eq!(&a.parts, &b.parts);
        prop_assert_eq!(a.meta.scale.to_bits(), b.meta.scale.to_bits());
        let da = scheme.decode(&a.trimmed_view(1), &a.meta, seed).expect("valid");
        let db = scheme.decode(&b.trimmed_view(1), &b.meta, seed).expect("valid");
        prop_assert_eq!(da, db);
    }

    /// More surviving parts never increase the reconstruction error (checked
    /// on uniform trims, where the claim is exact rather than statistical).
    #[test]
    fn error_is_monotone_in_depth(
        scheme_idx in 0usize..SchemeId::ALL.len(),
        len in 8usize..400,
        seed in any::<u64>()
    ) {
        let id = SchemeId::ALL[scheme_idx];
        let scheme = scheme_for(id);
        let n_parts = scheme.part_bits().len();
        let data = row(len, seed);
        let enc = scheme.encode(&data, seed);
        let mut last = f64::INFINITY;
        for depth in 1..=n_parts {
            let dec = scheme
                .decode(&enc.trimmed_view(depth), &enc.meta, seed)
                .expect("valid");
            let e = nmse(&dec, &data);
            prop_assert!(
                e <= last + 1e-6,
                "{id}: depth {depth} error {e} worse than {last}"
            );
            last = e;
        }
    }
}

/// Cuts `[0, n)` into consecutive runs of the given lengths and depths
/// (cycling through `runs`), the shape a packetized, trimmed row arrives in.
fn spans_from_runs(n: usize, runs: &[(usize, usize)], n_parts: usize) -> Vec<DepthSpan> {
    let mut spans = Vec::new();
    let mut start = 0;
    for &(len, depth) in runs.iter().cycle() {
        if start >= n {
            break;
        }
        let len = len.min(n - start);
        spans.push(DepthSpan {
            start,
            len,
            depth: depth.min(n_parts),
        });
        start += len;
    }
    spans
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `decode_into`, `decode_accumulate` and `decode` are bit-identical to
    /// the per-coordinate `decode_scalar` for any span availability.
    #[test]
    fn span_decoders_match_scalar_bit_for_bit(
        scheme_idx in 0usize..SchemeId::ALL.len(),
        len in 1usize..700,
        seed in any::<u64>(),
        runs in proptest::collection::vec((1usize..90, 0usize..=3), 1..12)
    ) {
        let scheme = scheme_for(SchemeId::ALL[scheme_idx]);
        let data = row(len, seed);
        let enc = scheme.encode(&data, seed);
        let spans = spans_from_runs(enc.n, &runs, enc.parts.len());
        let view = enc.view_with_spans(&spans);
        let reference = scheme.decode_scalar(&view, &enc.meta, seed).expect("valid");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        let mut into = vec![f32::NAN; len];
        scheme.decode_into(&view, &enc.meta, seed, &mut into).expect("valid");
        prop_assert_eq!(bits(&into), bits(&reference));
        prop_assert_eq!(bits(&scheme.decode(&view, &enc.meta, seed).expect("valid")), bits(&reference));

        // Signed zeros in the accumulator: `-0.0 + 0.0` is `+0.0`, so even
        // lost coordinates must go through the add.
        let acc0: Vec<f32> = data.iter().enumerate()
            .map(|(i, &v)| if i % 5 == 0 { -0.0 } else { v * 0.5 })
            .collect();
        let mut acc = acc0.clone();
        scheme.decode_accumulate(&view, &enc.meta, seed, &mut acc).expect("valid");
        let expected: Vec<f32> = acc0.iter().zip(&reference).map(|(a, d)| a + d).collect();
        prop_assert_eq!(bits(&acc), bits(&expected));
    }
}

#[test]
fn span_decoders_reject_a_wrong_output_length() {
    for id in SchemeId::ALL {
        let scheme = scheme_for(id);
        let enc = scheme.encode(&row(10, 1), 1);
        let mut short = vec![0.0; 9];
        let err = DecodeError::OutputLenMismatch {
            expected: 10,
            got: 9,
        };
        assert_eq!(
            scheme.decode_into(&enc.full_view(), &enc.meta, 1, &mut short),
            Err(err)
        );
        assert_eq!(
            scheme.decode_accumulate(&enc.full_view(), &enc.meta, 1, &mut short),
            Err(err)
        );
        assert!(short.iter().all(|&v| v == 0.0), "{id}: acc untouched");
    }
}
