//! Adversarial property tests for [`RowAssembler`]: arbitrary interleavings
//! of trimmed, duplicated, reordered, and foreign packets must never panic,
//! availability must be monotone non-decreasing event by event, and the
//! final decode must be bit-identical to the decode of the best copy of
//! each packet — duplicates and hostile packets can neither improve nor
//! degrade the assembled row.

use proptest::prelude::*;
use trimgrad_hadamard::prng::Xoshiro256StarStar;
use trimgrad_quant::{scheme_for, SchemeId};
use trimgrad_wire::packet::{GradPacket, NetAddrs};
use trimgrad_wire::packetize::{packetize_row, PacketizeConfig};
use trimgrad_wire::reassemble::RowAssembler;

fn cfg() -> PacketizeConfig {
    PacketizeConfig {
        mtu: 700,
        net: NetAddrs::between_hosts(1, 2),
        msg_id: 3,
        row_id: 1,
        epoch: 2,
    }
}

fn row(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Xoshiro256StarStar::new(seed);
    (0..n).map(|_| rng.next_f32_range(-10.0, 10.0)).collect()
}

/// Total per-part coordinate availability — the quantity that must only grow.
fn availability(asm: &RowAssembler) -> usize {
    asm.partial_row()
        .spans
        .iter()
        .map(|s| s.len * s.depth)
        .sum()
}

/// The availability model the span assembler replaced: one presence bit per
/// coordinate per part, set for parts `0..depth` of every ingested packet.
struct MaskModel {
    present: Vec<Vec<bool>>,
}

impl MaskModel {
    fn new(n: usize, n_parts: usize) -> Self {
        Self {
            present: vec![vec![false; n]; n_parts],
        }
    }

    fn ingest(&mut self, start: usize, count: usize, depth: usize) {
        for part in &mut self.present[..depth] {
            part[start..start + count].fill(true);
        }
    }

    fn count_present(&self, part: usize) -> usize {
        self.present[part].iter().filter(|&&p| p).count()
    }

    fn depth(&self, i: usize) -> usize {
        self.present.iter().take_while(|p| p[i]).count()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Feed the assembler a shuffled mix of (possibly trimmed, possibly
    /// duplicated) legitimate packets plus wrong-row, wrong-epoch, and
    /// hand-truncated hostile packets. Invariants:
    ///
    /// * no ingest call panics (hostile ones return `Err`);
    /// * availability is monotone non-decreasing after every event;
    /// * the final decode equals, bit for bit, the decode of an assembler
    ///   fed only the least-trimmed surviving copy of each packet.
    #[test]
    fn adversarial_interleavings_keep_assembler_sound(
        scheme_idx in 0usize..SchemeId::ALL.len(),
        len in 1usize..900,
        seed in any::<u64>(),
        shuffle_seed in any::<u64>(),
        fates in proptest::collection::vec(0u8..=14, 1..32)
    ) {
        let scheme_id = SchemeId::ALL[scheme_idx];
        let scheme = scheme_for(scheme_id);
        let data = row(len, seed);
        let enc = scheme.encode(&data, seed);
        let c = cfg();
        let pr = packetize_row(&enc, &c);
        let n_parts = scheme_id.part_bits().len();

        // Expand per-packet fates into delivery events. fate % 5 is the
        // surviving depth (0 = the packet is lost entirely), fate / 5 adds
        // up to two duplicate copies at other depths.
        let mut events: Vec<GradPacket> = Vec::new();
        let mut best_depth = vec![0usize; pr.packets.len()];
        for (i, pkt) in pr.packets.iter().enumerate() {
            let fate = fates[i % fates.len()];
            let depth = ((fate % 5) as usize).min(n_parts);
            if depth == 0 {
                continue;
            }
            let copies = 1 + (fate / 5) as usize;
            for copy in 0..copies {
                let d = if copy == 0 {
                    depth
                } else {
                    1 + (depth + copy) % n_parts
                };
                let mut p = pkt.clone();
                if d < n_parts {
                    p.trim_to_depth(d as u8).expect("trimmable");
                }
                best_depth[i] = best_depth[i].max(d);
                events.push(p);
            }
        }
        // Hostile traffic: a packet for another row, a packet from another
        // epoch, and a frame whose tail bytes were chopped off.
        let foreign = packetize_row(&enc, &PacketizeConfig { row_id: 999, ..cfg() });
        let stale = packetize_row(&enc, &PacketizeConfig { epoch: 7, ..cfg() });
        events.push(foreign.packets[0].clone());
        events.push(stale.packets[0].clone());
        let mut chopped = pr.packets[0].clone().into_frame();
        chopped.truncate(chopped.len() - 3);
        events.push(GradPacket::from_frame(chopped));

        // Reorder: seeded Fisher–Yates shuffle of the event list.
        let mut rng = Xoshiro256StarStar::new(shuffle_seed);
        for i in (1..events.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            events.swap(i, j);
        }

        let mut asm = RowAssembler::new(scheme_id, c.msg_id, c.row_id, len);
        asm.ingest_meta(&pr.meta).expect("meta matches");
        let mut prev = availability(&asm);
        for ev in &events {
            let _ = asm.ingest(ev); // hostile events return Err; none may panic
            let now = availability(&asm);
            prop_assert!(now >= prev, "availability shrank: {now} < {prev}");
            prev = now;
        }

        // Reference: only the best surviving copy of each packet, in order.
        let mut reference = RowAssembler::new(scheme_id, c.msg_id, c.row_id, len);
        reference.ingest_meta(&pr.meta).expect("meta matches");
        for (i, pkt) in pr.packets.iter().enumerate() {
            if best_depth[i] == 0 {
                continue;
            }
            let mut p = pkt.clone();
            if best_depth[i] < n_parts {
                p.trim_to_depth(best_depth[i] as u8).expect("trimmable");
            }
            reference.ingest(&p).expect("clean ingest");
        }
        prop_assert_eq!(availability(&asm), availability(&reference));
        let got = scheme
            .decode(&asm.partial_row(), asm.meta().expect("meta"), seed)
            .expect("decodable");
        let want = scheme
            .decode(&reference.partial_row(), reference.meta().expect("meta"), seed)
            .expect("decodable");
        prop_assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(&want) {
            prop_assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "interleaving changed the decode"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The span assembler answers every availability query exactly like the
    /// per-coordinate mask model, after every event of a shuffled stream of
    /// trimmed, duplicated (upgrading and downgrading) packets.
    #[test]
    fn span_assembler_matches_mask_model(
        scheme_idx in 0usize..SchemeId::ALL.len(),
        len in 1usize..1200,
        seed in any::<u64>(),
        events in proptest::collection::vec((any::<u64>(), 0usize..=3), 1..40)
    ) {
        let scheme_id = SchemeId::ALL[scheme_idx];
        let enc = scheme_for(scheme_id).encode(&row(len, seed), seed);
        let c = cfg();
        let pr = packetize_row(&enc, &c);
        let n_parts = scheme_id.part_bits().len();
        let mut asm = RowAssembler::new(scheme_id, c.msg_id, c.row_id, len);
        let mut model = MaskModel::new(asm.n(), n_parts);
        for &(pick, depth) in &events {
            let mut pkt = pr.packets[(pick % pr.packets.len() as u64) as usize].clone();
            let depth = depth.clamp(1, n_parts);
            if depth < n_parts {
                pkt.trim_to_depth(depth as u8).expect("trimmable");
            }
            let f = pkt.quick_fields().expect("valid frame");
            asm.ingest(&pkt).expect("clean ingest");
            model.ingest(f.coord_start as usize, f.coord_count as usize, depth);

            prop_assert_eq!(asm.coords_received(), model.count_present(0));
            prop_assert_eq!(asm.heads_complete(), model.count_present(0) == asm.n());
            prop_assert_eq!(
                asm.is_complete(),
                (0..n_parts).all(|k| model.count_present(k) == asm.n())
            );
            let view = asm.partial_row();
            prop_assert!(view.validate(scheme_id.part_bits()).is_ok());
            for i in 0..asm.n() {
                prop_assert_eq!(view.avail_depth(i), model.depth(i), "coordinate {}", i);
            }
        }
    }
}
