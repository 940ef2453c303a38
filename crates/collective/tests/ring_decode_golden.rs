//! Golden digests of congested ring all-reduces, one per scheme.
//!
//! Each ring runs through a trimming switch under cross-traffic, so the
//! reduce-scatter and all-gather steps decode a mix of whole, trimmed and
//! duplicated-upgrade rows. The FNV-1a digest of every worker's result bits
//! is pinned: the receive path (span reassembly, `decode_accumulate` on
//! reduce steps, `decode_into` on gather steps) must reproduce the
//! per-coordinate decoders' results bit for bit. The global pool width is
//! fixed per process, so CI runs this suite at `TRIMGRAD_THREADS` 1 and 4
//! and both legs must match the same constants.
//!
//! The constants were recorded with the per-coordinate decoders, before the
//! span-based receive path replaced them. Regenerate (only for an intended
//! numeric change) with
//! `UPDATE_GOLDEN=1 cargo test -p trimgrad-collective --test ring_decode_golden -- --nocapture`.

use trimgrad_collective::ring_netsim::{run_ring_allreduce, RingNetConfig};
use trimgrad_hadamard::prng::Xoshiro256StarStar;
use trimgrad_netsim::crosstraffic::BulkSenderApp;
use trimgrad_netsim::sim::Simulator;
use trimgrad_netsim::switch::{FullAction, QueuePolicy};
use trimgrad_netsim::time::{gbps, SimTime};
use trimgrad_netsim::topology::Topology;
use trimgrad_netsim::NodeId;
use trimgrad_quant::SchemeId;
use trimgrad_telemetry::fnv1a;

const WORKERS: usize = 4;
const BLOB_LEN: usize = 6000;

/// Runs one congested ring and returns (digest of every result bit, trim
/// fraction seen by the workers).
fn congested_ring(scheme: SchemeId) -> (u64, f64) {
    // The three-part scheme is trimmed to sign + exponent, the others to heads.
    let grad_depth = if scheme == SchemeId::MultiLevelRht {
        2
    } else {
        1
    };
    let policy = QueuePolicy {
        data_capacity: 10_000,
        prio_capacity: 512_000,
        ecn_threshold: None,
        action: FullAction::Trim { grad_depth },
    };
    let mut topo = Topology::new();
    let switch = topo.add_switch(policy);
    let attach = |topo: &mut Topology| {
        let h = topo.add_host();
        topo.link(h, switch, gbps(10.0), SimTime::from_micros(1));
        h
    };
    let hosts: Vec<NodeId> = (0..WORKERS).map(|_| attach(&mut topo)).collect();
    let cross: Vec<NodeId> = (0..2).map(|_| attach(&mut topo)).collect();
    let mut sim = Simulator::new(topo);
    for (i, &c) in cross.iter().enumerate() {
        sim.install_app(
            c,
            Box::new(BulkSenderApp::new(
                hosts[i + 1],
                2_000_000,
                1500,
                0x9000 + i as u64,
            )),
        );
    }
    let mut rng = Xoshiro256StarStar::new(0x5EED);
    let blobs: Vec<Vec<f32>> = (0..WORKERS)
        .map(|_| {
            (0..BLOB_LEN)
                .map(|_| rng.next_f32_range(-1.0, 1.0))
                .collect()
        })
        .collect();
    let cfg = RingNetConfig {
        scheme,
        row_len: 512,
        base_seed: 42,
        epoch: 3,
        mtu: 1500,
        hosts,
        blob_len: BLOB_LEN,
        flow_base: 0,
    };
    let (out, trim_frac) = run_ring_allreduce(&mut sim, &cfg, blobs, SimTime::from_secs(60));
    let bytes: Vec<u8> = out
        .iter()
        .flatten()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    (fnv1a(&bytes), trim_frac)
}

#[test]
fn congested_ring_results_match_golden_digests() {
    const GOLDEN: [(SchemeId, u64); 5] = [
        (SchemeId::SignMagnitude, 0x3674_ddf8_8411_de93),
        (SchemeId::Stochastic, 0x694a_f398_f4d1_8bab),
        (SchemeId::SubtractiveDither, 0x9917_9ba3_3857_f044),
        (SchemeId::RhtOneBit, 0x424e_0511_fda5_6469),
        (SchemeId::MultiLevelRht, 0x8698_1ec3_d1ca_6b70),
    ];
    let update = std::env::var("UPDATE_GOLDEN").is_ok();
    for (scheme, golden) in GOLDEN {
        let (digest, trim_frac) = congested_ring(scheme);
        if update {
            println!("(SchemeId::{scheme:?}, {digest:#018x}), // trim {trim_frac:.3}");
            continue;
        }
        assert!(
            trim_frac > 0.0,
            "{scheme}: the switch must trim ring frames"
        );
        assert_eq!(digest, golden, "{scheme}: ring result bits changed");
    }
}
