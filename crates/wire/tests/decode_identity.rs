//! Differential identity of the span decoders against the per-coordinate
//! reference, on availability built the way the receive path builds it:
//! packetize → trim/drop/duplicate → `RowAssembler` → decode.
//!
//! For every scheme, every length in {1, 7, 64, 511, 512, 4096, 32768} and
//! five availability patterns (full, heads-only, a lost packet, mixed trim
//! depths, duplicate upgrade/downgrade), `decode_into`, `decode` and
//! `decode_accumulate` (against `acc + decode_scalar`) must agree with
//! `decode_scalar` bit for bit.

use trimgrad_hadamard::prng::Xoshiro256StarStar;
use trimgrad_quant::{scheme_for, EncodedRow, SchemeId, TrimmableScheme};
use trimgrad_wire::packet::{GradPacket, NetAddrs};
use trimgrad_wire::packetize::{packetize_row, PacketizeConfig};
use trimgrad_wire::reassemble::RowAssembler;

const LENGTHS: [usize; 7] = [1, 7, 64, 511, 512, 4096, 32768];

fn row(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Xoshiro256StarStar::new(seed);
    (0..n)
        .map(|i| match i % 13 {
            0 => 0.0,
            1 => -0.0,
            _ => rng.next_f32_range(-3.0, 3.0),
        })
        .collect()
}

fn trimmed(pkt: &GradPacket, depth: usize, n_parts: usize) -> GradPacket {
    let mut p = pkt.clone();
    if depth < n_parts {
        p.trim_to_depth(depth as u8).expect("trimmable");
    }
    p
}

/// The packet deliveries of each availability pattern, in arrival order.
fn patterns(packets: &[GradPacket], n_parts: usize) -> Vec<(&'static str, Vec<GradPacket>)> {
    let lost = packets.len() / 2;
    vec![
        ("full", packets.to_vec()),
        (
            "heads-only",
            packets.iter().map(|p| trimmed(p, 1, n_parts)).collect(),
        ),
        (
            "lost-packet",
            packets
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != lost)
                .map(|(_, p)| p.clone())
                .collect(),
        ),
        (
            "mixed-trim",
            packets
                .iter()
                .enumerate()
                .rev()
                .map(|(i, p)| trimmed(p, 1 + i % n_parts, n_parts))
                .collect(),
        ),
        (
            "duplicate-upgrade-downgrade",
            packets
                .iter()
                .enumerate()
                .flat_map(|(i, p)| {
                    let (first, second) = if i % 2 == 0 {
                        (trimmed(p, 1, n_parts), p.clone())
                    } else {
                        (p.clone(), trimmed(p, 1, n_parts))
                    };
                    [first, second, trimmed(p, 1 + (i + 1) % n_parts, n_parts)]
                })
                .collect(),
        ),
    ]
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn check_row(scheme: &dyn TrimmableScheme, enc: &EncodedRow, seed: u64) {
    let c = PacketizeConfig {
        mtu: 1500,
        net: NetAddrs::between_hosts(1, 2),
        msg_id: 5,
        row_id: 2,
        epoch: 1,
    };
    let pr = packetize_row(enc, &c);
    let n_parts = enc.parts.len();
    let len = enc.meta.original_len;
    for (name, deliveries) in patterns(&pr.packets, n_parts) {
        let ctx = format!("{} len={len} {name}", scheme.id());
        let mut asm = RowAssembler::new(enc.scheme, c.msg_id, c.row_id, len);
        asm.ingest_meta(&pr.meta).expect("meta");
        for p in &deliveries {
            asm.ingest(p).expect("clean ingest");
        }
        let view = asm.partial_row();
        let meta = asm.meta().expect("meta");
        let reference = scheme.decode_scalar(&view, meta, seed).expect("valid");
        assert_eq!(reference.len(), len, "{ctx}");

        let mut into = vec![f32::NAN; len];
        scheme
            .decode_into(&view, meta, seed, &mut into)
            .expect("valid");
        assert!(bits(&into) == bits(&reference), "{ctx}: decode_into");
        let decoded = scheme.decode(&view, meta, seed).expect("valid");
        assert!(bits(&decoded) == bits(&reference), "{ctx}: decode");

        let acc0: Vec<f32> = (0..len)
            .map(|i| {
                if i % 3 == 0 {
                    -0.0
                } else {
                    i as f32 * 0.25 - 7.0
                }
            })
            .collect();
        let mut acc = acc0.clone();
        scheme
            .decode_accumulate(&view, meta, seed, &mut acc)
            .expect("valid");
        let expected: Vec<f32> = acc0.iter().zip(&reference).map(|(a, d)| a + d).collect();
        assert!(bits(&acc) == bits(&expected), "{ctx}: decode_accumulate");
    }
}

#[test]
fn span_decoders_are_bit_identical_to_the_scalar_reference() {
    for id in SchemeId::ALL {
        let scheme = scheme_for(id);
        for (k, &len) in LENGTHS.iter().enumerate() {
            let seed = 0xD1FF ^ k as u64;
            let enc = scheme.encode(&row(len, seed), seed);
            check_row(scheme.as_ref(), &enc, seed);
        }
    }
}
