//! Probabilistic trim/drop injection at packet granularity.
//!
//! The paper's prototype "simulates the effect of congestion using pre-set
//! random probabilistic dropping/trimming" (§4) because NCCL's wire format is
//! closed. This module reproduces that harness: an encoded row is divided
//! into packet-sized coordinate chunks (matching the MTU layout of
//! `trimgrad-wire`), and each chunk is independently
//!
//! * trimmed to a configurable depth with probability `trim_prob`, or
//! * dropped entirely with probability `drop_prob` (heads lost too), or
//! * left intact.
//!
//! The injector also records what a transcript-based replay needs (§5.4):
//! the exact chunk fates, reproducible from the seed.

use trimgrad_hadamard::prng::Xoshiro256StarStar;
use trimgrad_quant::scheme::{DepthSpan, EncodedRow};
use trimgrad_wire::payload::max_coords_for_budget;

/// Outcome counters of one injection pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectStats {
    /// Packet-chunks that passed untouched.
    pub intact: u64,
    /// Packet-chunks trimmed to heads.
    pub trimmed: u64,
    /// Packet-chunks dropped entirely.
    pub dropped: u64,
}

impl InjectStats {
    /// Total chunks processed.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.intact + self.trimmed + self.dropped
    }

    /// Observed trim fraction.
    #[must_use]
    pub fn trim_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.trimmed as f64 / self.total() as f64
        }
    }

    /// Merges another pass's counters.
    pub fn merge(&mut self, other: InjectStats) {
        self.intact += other.intact;
        self.trimmed += other.trimmed;
        self.dropped += other.dropped;
    }

    /// Adds the tallies to `registry` as counters named `{prefix}.{field}`.
    pub fn export_to(&self, registry: &trimgrad_telemetry::Registry, prefix: &str) {
        registry
            .counter(&format!("{prefix}.intact"))
            .add(self.intact);
        registry
            .counter(&format!("{prefix}.trimmed"))
            .add(self.trimmed);
        registry
            .counter(&format!("{prefix}.dropped"))
            .add(self.dropped);
    }
}

/// Per-packet random trim/drop injector.
#[derive(Debug, Clone)]
pub struct TrimInjector {
    /// Probability a packet is trimmed.
    pub trim_prob: f64,
    /// Probability a packet is dropped outright.
    pub drop_prob: f64,
    /// Depth surviving a trim (1 = heads only).
    pub trim_depth: usize,
    /// Coordinates per simulated packet (None = derive from the scheme's
    /// MTU layout like the wire packetizer does).
    pub chunk_coords: Option<usize>,
    rng: Xoshiro256StarStar,
}

impl TrimInjector {
    /// Creates an injector trimming with probability `trim_prob` (heads-only
    /// depth, MTU-derived chunking, no outright drops).
    #[must_use]
    pub fn new(trim_prob: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&trim_prob), "trim_prob out of range");
        Self {
            trim_prob,
            drop_prob: 0.0,
            trim_depth: 1,
            chunk_coords: None,
            rng: Xoshiro256StarStar::new(seed),
        }
    }

    /// Creates an injector whose RNG stream is bound to one simulated
    /// channel, using the same seed derivation as the netsim fault layer
    /// ([`trimgrad_netsim::link::channel_seed`]). A chaos run's per-link
    /// fates can therefore be replayed in this lighter harness from the
    /// same `(base_seed, from, to)` triple.
    #[must_use]
    pub fn for_channel(
        trim_prob: f64,
        base_seed: u64,
        from: trimgrad_netsim::NodeId,
        to: trimgrad_netsim::NodeId,
    ) -> Self {
        Self::new(
            trim_prob,
            trimgrad_netsim::link::channel_seed(base_seed, from, to),
        )
    }

    /// Adds whole-packet drops.
    #[must_use]
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop_prob out of range");
        assert!(self.trim_prob + p <= 1.0, "trim + drop probability > 1");
        self.drop_prob = p;
        self
    }

    /// Overrides the surviving depth for trimmed packets.
    #[must_use]
    pub fn with_trim_depth(mut self, depth: usize) -> Self {
        assert!(depth >= 1, "depth 0 would be a drop");
        self.trim_depth = depth;
        self
    }

    /// Overrides the coordinates-per-packet chunking.
    #[must_use]
    pub fn with_chunk_coords(mut self, coords: usize) -> Self {
        assert!(coords >= 1, "empty chunks");
        self.chunk_coords = Some(coords);
        self
    }

    fn coords_per_packet(&self, enc: &EncodedRow) -> usize {
        self.chunk_coords.unwrap_or_else(|| {
            let budget = 1500 - 20 - 8 - 28; // MTU minus IP/UDP/TrimGrad headers
            max_coords_for_budget(enc.scheme.part_bits(), budget).unwrap_or(1)
        })
    }

    /// Draws the availability of one encoded row: one [`DepthSpan`] per
    /// packet-chunk, covering `[0, n)` in order (depth 0 = dropped), plus
    /// the chunk fates.
    pub fn draw_depths(&mut self, enc: &EncodedRow) -> (Vec<DepthSpan>, InjectStats) {
        let n_parts = enc.parts.len();
        let per_packet = self.coords_per_packet(enc);
        let mut spans = Vec::with_capacity(enc.n.div_ceil(per_packet));
        let mut stats = InjectStats::default();
        let mut start = 0;
        while start < enc.n {
            let len = per_packet.min(enc.n - start);
            let u = f64::from(self.rng.next_f32());
            let depth = if u < self.drop_prob {
                stats.dropped += 1;
                0
            } else if u < self.drop_prob + self.trim_prob {
                stats.trimmed += 1;
                self.trim_depth.min(n_parts)
            } else {
                stats.intact += 1;
                n_parts
            };
            spans.push(DepthSpan { start, len, depth });
            start += len;
        }
        (spans, stats)
    }

    /// Encodes, injects, and decodes one row in place of a real network pass.
    ///
    /// # Panics
    ///
    /// Panics if decoding fails, which would indicate an internal geometry
    /// bug rather than a runtime condition.
    pub fn roundtrip_row(
        &mut self,
        scheme: &dyn trimgrad_quant::TrimmableScheme,
        row: &[f32],
        seed: u64,
    ) -> (Vec<f32>, InjectStats) {
        let enc = scheme.encode(row, seed);
        if enc.n == 0 {
            return (Vec::new(), InjectStats::default());
        }
        let (spans, stats) = self.draw_depths(&enc);
        let view = enc.view_with_spans(&spans);
        let dec = scheme
            .decode(&view, &enc.meta, seed)
            // trimlint: allow(no-panic) -- documented # Panics contract: the view was built from this encoder's own parts and depths, so a decode failure is a codec geometry bug
            .expect("injected view is structurally valid");
        (dec, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trimgrad_hadamard::prng::Xoshiro256StarStar;
    use trimgrad_quant::rht1bit::RhtOneBit;
    use trimgrad_quant::signmag::SignMagnitude;
    use trimgrad_quant::TrimmableScheme;

    fn row(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = Xoshiro256StarStar::new(seed);
        (0..n).map(|_| rng.next_f32_range(-1.0, 1.0)).collect()
    }

    #[test]
    fn zero_probability_is_lossless() {
        let mut inj = TrimInjector::new(0.0, 1);
        let r = row(1000, 2);
        let (dec, stats) = inj.roundtrip_row(&SignMagnitude, &r, 42);
        assert_eq!(stats.trimmed, 0);
        assert_eq!(stats.dropped, 0);
        assert!(stats.intact > 0);
        for (d, v) in dec.iter().zip(&r) {
            assert_eq!(d.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn full_probability_trims_everything() {
        let mut inj = TrimInjector::new(1.0, 1);
        let r = row(1024, 3);
        let (dec, stats) = inj.roundtrip_row(&RhtOneBit, &r, 7);
        assert_eq!(stats.intact, 0);
        assert_eq!(stats.dropped, 0);
        assert!(stats.trim_fraction() == 1.0);
        // Decode is approximate but finite and non-trivial.
        assert!(dec.iter().all(|d| d.is_finite()));
        let nmse = trimgrad_quant::error::nmse(&dec, &r);
        assert!(nmse < 1.0, "RHT heads-only nmse {nmse}");
    }

    #[test]
    fn trim_fraction_matches_probability() {
        let mut inj = TrimInjector::new(0.3, 9).with_chunk_coords(8);
        let mut stats = InjectStats::default();
        let r = row(4096, 4);
        for i in 0..40 {
            let (_, s) = inj.roundtrip_row(&SignMagnitude, &r, i);
            stats.merge(s);
        }
        // 40 × 512 chunks; SE ≈ sqrt(0.3·0.7/20480) ≈ 0.0032.
        assert!(
            (stats.trim_fraction() - 0.3).abs() < 0.02,
            "trim fraction {}",
            stats.trim_fraction()
        );
    }

    #[test]
    fn drops_zero_out_coordinates() {
        let mut inj = TrimInjector::new(0.0, 5)
            .with_drop_prob(1.0)
            .with_chunk_coords(16);
        let r = row(64, 6);
        let (dec, stats) = inj.roundtrip_row(&SignMagnitude, &r, 1);
        assert_eq!(stats.dropped as usize, 4);
        assert!(dec.iter().all(|&d| d == 0.0));
    }

    #[test]
    fn channel_bound_injector_matches_netsim_seed_derivation() {
        use trimgrad_netsim::link::channel_seed;
        use trimgrad_netsim::NodeId;
        let draw = |inj: TrimInjector| {
            inj.with_chunk_coords(4)
                .draw_depths(&SignMagnitude.encode(&row(64, 1), 0))
                .0
        };
        let bound = TrimInjector::for_channel(0.5, 42, NodeId(3), NodeId(7));
        let manual = TrimInjector::new(0.5, channel_seed(42, NodeId(3), NodeId(7)));
        assert_eq!(draw(bound), draw(manual));
        // Direction matters: the reverse channel gets an independent stream.
        let reverse = TrimInjector::for_channel(0.5, 42, NodeId(7), NodeId(3));
        let bound = TrimInjector::for_channel(0.5, 42, NodeId(3), NodeId(7));
        assert_ne!(draw(bound), draw(reverse));
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut inj = TrimInjector::new(0.5, seed).with_chunk_coords(4);
            inj.roundtrip_row(&RhtOneBit, &row(256, 1), 3).0
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn chunking_respects_packet_boundaries() {
        // With chunk 8, coordinates within a chunk share their fate.
        let mut inj = TrimInjector::new(0.5, 2).with_chunk_coords(8);
        let r = row(64, 9);
        let enc = SignMagnitude.encode(&r, 0);
        let (spans, _) = inj.draw_depths(&enc);
        assert_eq!(spans.len(), 8);
        for (i, s) in spans.iter().enumerate() {
            assert_eq!((s.start, s.len), (8 * i, 8), "one span per chunk");
        }
    }

    #[test]
    fn mtu_derived_chunking_matches_wire_layout() {
        let mut inj = TrimInjector::new(1.0, 1);
        let r = row(1000, 1);
        let enc = SignMagnitude.encode(&r, 0);
        let (_, stats) = inj.draw_depths(&enc);
        // 1000 coords at 360/packet → 3 chunks, same as the wire packetizer.
        assert_eq!(stats.total(), 3);
    }

    #[test]
    #[should_panic(expected = "trim + drop probability > 1")]
    fn rejects_inconsistent_probabilities() {
        let _ = TrimInjector::new(0.8, 0).with_drop_prob(0.3);
    }

    #[test]
    fn stats_merge_and_fractions() {
        let a = InjectStats {
            intact: 6,
            trimmed: 3,
            dropped: 1,
        };
        let mut b = InjectStats::default();
        b.merge(a);
        b.merge(a);
        assert_eq!(b.total(), 20);
        assert!((b.trim_fraction() - 0.3).abs() < 1e-12);
        assert_eq!(InjectStats::default().trim_fraction(), 0.0);
    }
}
