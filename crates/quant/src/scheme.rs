//! The `TrimmableScheme` abstraction: multi-part encodings whose prefixes
//! decode.
//!
//! The paper (§3) frames trimmable quantization as "efficiently encoding the
//! gradient into two or more parts of predetermined length, such that a
//! decoder can decode using any number of parts forming a prefix of the
//! encoding". This module fixes that contract in types:
//!
//! * [`EncodedRow`] — the sender-side result: `k` bit-packed **parts**, each
//!   holding one fixed-width field per coordinate, plus small [`RowMeta`]
//!   shipped reliably (never trimmed).
//! * [`PartialRow`] — the receiver-side input: every part's full-stride
//!   buffer plus a sorted list of [`DepthSpan`]s, contiguous coordinate runs
//!   that arrived with the same number of parts (one span per packet, since
//!   packetization emits contiguous ranges). A coordinate's availability is
//!   a single depth, so it is *prefix-closed* by construction: a coordinate
//!   cannot have part `k` without parts `0..k`.
//! * [`TrimmableScheme`] — encode/decode plus the part geometry that the wire
//!   layer uses to lay heads before tails in each packet. Decoders run one
//!   word-at-a-time kernel per span ([`TrimmableScheme::decode_into`],
//!   [`TrimmableScheme::decode_accumulate`]); the per-coordinate reference
//!   decoders stay as [`TrimmableScheme::decode_scalar`].

use crate::bitpack::BitBuf;
use std::borrow::Cow;

/// Identifies a trimmable encoding on the wire (1 byte in the TrimGrad header).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum SchemeId {
    /// Head = IEEE sign bit, head-only decode `±σ` (paper §3.1).
    SignMagnitude = 0,
    /// TernGrad-style stochastic quantization, `L = 2.5σ` (paper §3.1).
    Stochastic = 1,
    /// Subtractive dithering with shared-randomness dither (paper §3.1).
    SubtractiveDither = 2,
    /// DRIVE-style 1-bit encoding of the RHT-rotated row (paper §3.2).
    RhtOneBit = 3,
    /// Three-part (1/8/23-bit) prefix-decodable RHT encoding (paper §5.1).
    MultiLevelRht = 4,
}

impl SchemeId {
    /// All scheme identifiers, in wire-id order.
    pub const ALL: [SchemeId; 5] = [
        SchemeId::SignMagnitude,
        SchemeId::Stochastic,
        SchemeId::SubtractiveDither,
        SchemeId::RhtOneBit,
        SchemeId::MultiLevelRht,
    ];

    /// Parses a wire identifier.
    #[must_use]
    pub fn from_u8(v: u8) -> Option<SchemeId> {
        SchemeId::ALL.get(v as usize).copied()
    }

    /// The wire identifier.
    #[must_use]
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// The part geometry of this scheme (static; equals
    /// [`TrimmableScheme::part_bits`] of the corresponding implementation).
    /// Lets wire-format code compute payload layouts without instantiating
    /// the scheme.
    #[must_use]
    pub fn part_bits(self) -> &'static [u32] {
        match self {
            SchemeId::SignMagnitude | SchemeId::RhtOneBit => &[1, 31],
            SchemeId::Stochastic | SchemeId::SubtractiveDither => &[1, 32],
            SchemeId::MultiLevelRht => &[1, 8, 23],
        }
    }

    /// Short lower-case name used in benchmark output and examples.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SchemeId::SignMagnitude => "signmag",
            SchemeId::Stochastic => "sq",
            SchemeId::SubtractiveDither => "sd",
            SchemeId::RhtOneBit => "rht",
            SchemeId::MultiLevelRht => "rht-ml",
        }
    }
}

impl core::fmt::Display for SchemeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Small per-row side data shipped in reliable (never-trimmed) packets.
///
/// The interpretation of `scale` is scheme-specific: `σ` for sign-magnitude,
/// `L = 2.5σ` for SQ/SD, and the DRIVE factor `f = ‖r‖₂²/‖r‖₁` for the RHT
/// schemes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowMeta {
    /// Number of *original* (pre-padding) coordinates in the row.
    pub original_len: usize,
    /// Scheme-specific scaling factor.
    pub scale: f32,
}

/// A fully-encoded row, before packetization.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedRow {
    /// The scheme that produced this row.
    pub scheme: SchemeId,
    /// Encoded row length (≥ `meta.original_len`; RHT schemes pad to a power
    /// of two).
    pub n: usize,
    /// `parts[k]` holds `n` fields of `part_bits()[k]` bits each; part 0 is
    /// the head, later parts are progressively trimmed first.
    pub parts: Vec<BitBuf>,
    /// Reliable side data.
    pub meta: RowMeta,
}

impl EncodedRow {
    /// A view with every part fully available (the untrimmed case).
    #[must_use]
    pub fn full_view(&self) -> PartialRow<'_> {
        self.trimmed_view(self.parts.len())
    }

    /// A view with only the first `depth` parts available for every
    /// coordinate (uniform trimming). `depth = 1` is the classic
    /// "heads only" trim; `depth = parts.len()` equals [`full_view`](Self::full_view).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero or exceeds the part count — a fully-lost row
    /// has no view; model it at the packet layer instead.
    #[must_use]
    pub fn trimmed_view(&self, depth: usize) -> PartialRow<'_> {
        assert!(
            depth >= 1 && depth <= self.parts.len(),
            "trim depth {depth} out of range 1..={}",
            self.parts.len()
        );
        let span = DepthSpan {
            start: 0,
            len: self.n,
            depth,
        };
        PartialRow {
            n: self.n,
            parts: &self.parts,
            spans: Cow::Owned(vec![span]),
        }
    }

    /// A view where the coordinates of each span have `span.depth` parts
    /// available and all other coordinates have none. `spans` must satisfy
    /// the [`PartialRow`] invariant; decoders reject views that do not.
    #[must_use]
    pub fn view_with_spans<'a>(&'a self, spans: &'a [DepthSpan]) -> PartialRow<'a> {
        PartialRow {
            n: self.n,
            parts: &self.parts,
            spans: Cow::Borrowed(spans),
        }
    }

    /// A view where coordinate `i` has `depths[i]` parts available
    /// (0 = nothing survived for that coordinate). A test and example
    /// convenience: runs of equal depth become one [`DepthSpan`] each.
    ///
    /// # Panics
    ///
    /// Panics if `depths.len() != n` or any depth exceeds the part count.
    #[must_use]
    pub fn view_with_depths(&self, depths: &[usize]) -> PartialRow<'_> {
        assert_eq!(depths.len(), self.n, "one depth per coordinate");
        let k = self.parts.len();
        assert!(
            depths.iter().all(|&d| d <= k),
            "depth exceeds part count {k}"
        );
        let mut spans: Vec<DepthSpan> = Vec::new();
        for (i, &depth) in depths.iter().enumerate() {
            match spans.last_mut() {
                Some(s) if s.depth == depth && s.start + s.len == i => s.len += 1,
                _ if depth == 0 => {}
                _ => spans.push(DepthSpan {
                    start: i,
                    len: 1,
                    depth,
                }),
            }
        }
        PartialRow {
            n: self.n,
            parts: &self.parts,
            spans: Cow::Owned(spans),
        }
    }

    /// Total encoded size in bits (all parts, excluding metadata).
    #[must_use]
    pub fn total_bits(&self) -> usize {
        self.parts.iter().map(BitBuf::len).sum()
    }
}

/// A contiguous run of coordinates `[start, start + len)` that arrived with
/// the same number of parts: `depth` parts, counted from the head (0 =
/// nothing arrived).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepthSpan {
    /// First coordinate of the run.
    pub start: usize,
    /// Number of coordinates in the run.
    pub len: usize,
    /// Parts available for every coordinate of the run.
    pub depth: usize,
}

impl DepthSpan {
    /// One past the last coordinate of the run.
    #[must_use]
    pub fn end(&self) -> usize {
        self.start + self.len
    }
}

/// What the receiver reassembled for one row: the part buffers plus the
/// depth of every coordinate, as spans.
///
/// Invariant (checked by [`validate`](Self::validate), which every decoder
/// runs first): spans are sorted by `start`, pairwise disjoint, inside
/// `[0, n)`, and no deeper than the part count. Coordinates outside every
/// span have depth 0. Part buffers keep full stride; a field is meaningful
/// only where a span's depth covers its part.
#[derive(Debug, Clone)]
pub struct PartialRow<'a> {
    /// Encoded row length (matches [`EncodedRow::n`]).
    pub n: usize,
    /// One full-stride buffer per encoding part, head first.
    pub parts: &'a [BitBuf],
    /// Availability, as sorted disjoint spans.
    pub spans: Cow<'a, [DepthSpan]>,
}

impl PartialRow<'_> {
    /// Number of consecutive parts available for coordinate `i`, starting
    /// from part 0. Returns 0 when even the head is missing (whole packet
    /// lost rather than trimmed).
    #[must_use]
    pub fn avail_depth(&self, i: usize) -> usize {
        let at = self.spans.partition_point(|s| s.end() <= i);
        self.spans
            .get(at)
            .filter(|s| s.start <= i)
            .map_or(0, |s| s.depth)
    }

    /// Validates structural invariants against a scheme's geometry: the
    /// part count matches, every part some span reads holds `n` fields, and
    /// the spans are sorted, disjoint, in range and no deeper than the part
    /// count. Runs in O(spans + parts).
    ///
    /// # Errors
    ///
    /// Returns the specific [`DecodeError`] violated.
    pub fn validate(&self, part_bits: &[u32]) -> Result<(), DecodeError> {
        if self.parts.len() != part_bits.len() {
            return Err(DecodeError::PartCountMismatch {
                expected: part_bits.len(),
                got: self.parts.len(),
            });
        }
        let mut pos = 0;
        let mut max_depth = 0;
        for (index, s) in self.spans.iter().enumerate() {
            let in_order = s.start >= pos;
            let in_range = s.start.checked_add(s.len).is_some_and(|e| e <= self.n);
            if !in_order || !in_range || s.depth > part_bits.len() {
                return Err(DecodeError::BadSpan { index });
            }
            pos = s.end();
            if s.len > 0 {
                max_depth = max_depth.max(s.depth);
            }
        }
        for (k, (buf, &w)) in self.parts.iter().zip(part_bits).enumerate().take(max_depth) {
            let need = self.n * w as usize;
            if buf.len() < need {
                return Err(DecodeError::LengthMismatch {
                    part: k,
                    expected: need,
                    got: buf.len(),
                });
            }
        }
        Ok(())
    }
}

/// Errors surfaced while decoding a [`PartialRow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The view has a different number of parts than the scheme.
    PartCountMismatch {
        /// Scheme's part count.
        expected: usize,
        /// View's part count.
        got: usize,
    },
    /// A part buffer is too short for `n` coordinates.
    LengthMismatch {
        /// Which part.
        part: usize,
        /// Bits required.
        expected: usize,
        /// Bits found.
        got: usize,
    },
    /// An availability span is out of order, overlaps its predecessor, runs
    /// past the row, or is deeper than the part count — indicates
    /// reassembly corruption.
    BadSpan {
        /// Index of the offending span.
        index: usize,
    },
    /// The output slice of `decode_into`/`decode_accumulate` does not hold
    /// exactly `meta.original_len` coordinates.
    OutputLenMismatch {
        /// `meta.original_len`.
        expected: usize,
        /// The slice's length.
        got: usize,
    },
    /// `meta.original_len` is inconsistent with the encoded length `n`.
    BadOriginalLen {
        /// Encoded (padded) length.
        n: usize,
        /// Claimed original length.
        original_len: usize,
    },
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DecodeError::PartCountMismatch { expected, got } => {
                write!(f, "expected {expected} parts, got {got}")
            }
            DecodeError::LengthMismatch {
                part,
                expected,
                got,
            } => {
                write!(f, "part {part}: expected {expected} bits, got {got}")
            }
            DecodeError::BadSpan { index } => {
                write!(f, "availability span {index} is malformed")
            }
            DecodeError::OutputLenMismatch { expected, got } => {
                write!(f, "output holds {got} coordinates, expected {expected}")
            }
            DecodeError::BadOriginalLen { n, original_len } => {
                write!(
                    f,
                    "original_len {original_len} inconsistent with encoded n {n}"
                )
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// A trimmable gradient encoding.
///
/// Implementations must uphold:
///
/// * **Exactness** — decoding a [`EncodedRow::full_view`] reproduces the
///   input row bit-exactly (for schemes whose parts partition the IEEE-754
///   representation) or within floating-point rounding (RHT schemes, which
///   round-trip through the rotation).
/// * **Graceful degradation** — decoding succeeds for *any* prefix-closed
///   availability, including heads-only and fully-lost coordinates.
/// * **Determinism** — `encode(row, seed)` and the matching `decode` depend
///   only on their arguments (shared randomness comes from `seed`).
pub trait TrimmableScheme: Send + Sync {
    /// The wire identifier of this scheme.
    fn id(&self) -> SchemeId;

    /// Field width of each part, head first. The sum for the sign-based
    /// schemes is 32 (a repartition of the IEEE-754 float costing no extra
    /// space); SQ/SD pay one extra bit (head 1 + tail 32) because their
    /// stochastic head is not a bit of the original representation.
    fn part_bits(&self) -> &'static [u32];

    /// Encodes one gradient row with the shared `seed`.
    fn encode(&self, row: &[f32], seed: u64) -> EncodedRow;

    /// Encodes via the retained scalar per-coordinate reference path.
    ///
    /// Bit-identical to [`encode`](Self::encode) by contract: the fused
    /// word-at-a-time kernels in [`crate::kernels`] emit the same LSB-first
    /// bitstream field by field, only the store granularity differs. Kept as
    /// the differential baseline for the golden tests and benchmarks; the
    /// default delegates to `encode` for schemes without a separate fast
    /// path.
    fn encode_scalar(&self, row: &[f32], seed: u64) -> EncodedRow {
        self.encode(row, seed)
    }

    /// Decodes a (possibly trimmed) row back into `meta.original_len`
    /// coordinates. Coordinates whose head was lost entirely decode to `0.0`
    /// (the neutral element of gradient averaging).
    ///
    /// An allocating wrapper over [`decode_into`](Self::decode_into).
    ///
    /// # Errors
    ///
    /// Structural errors only ([`DecodeError`]); trimming is not an error.
    fn decode(
        &self,
        row: &PartialRow<'_>,
        meta: &RowMeta,
        seed: u64,
    ) -> Result<Vec<f32>, DecodeError> {
        row.validate(self.part_bits())?;
        // Every scheme pads (if at all) upwards, so this also bounds the
        // allocation below by the validated row.
        if meta.original_len > row.n {
            return Err(DecodeError::BadOriginalLen {
                n: row.n,
                original_len: meta.original_len,
            });
        }
        let mut out = vec![0.0; meta.original_len];
        self.decode_into(row, meta, seed, &mut out)?;
        Ok(out)
    }

    /// Decodes into `out` (exactly `meta.original_len` coordinates), one
    /// word-at-a-time kernel per availability span.
    ///
    /// Bit-identical to [`decode_scalar`](Self::decode_scalar) by contract.
    ///
    /// # Errors
    ///
    /// As [`decode`](Self::decode), plus [`DecodeError::OutputLenMismatch`];
    /// `out` is unspecified after an error.
    fn decode_into(
        &self,
        row: &PartialRow<'_>,
        meta: &RowMeta,
        seed: u64,
        out: &mut [f32],
    ) -> Result<(), DecodeError>;

    /// Decodes and adds into `acc`: afterwards `acc[i]` is bit-identical to
    /// `acc[i] + decode_scalar(..)[i]`, without materializing the decoded
    /// row. This is the reduce-scatter step of a ring all-reduce.
    ///
    /// # Errors
    ///
    /// As [`decode_into`](Self::decode_into); `acc` is untouched after an
    /// error.
    fn decode_accumulate(
        &self,
        row: &PartialRow<'_>,
        meta: &RowMeta,
        seed: u64,
        acc: &mut [f32],
    ) -> Result<(), DecodeError>;

    /// Decodes via the retained per-coordinate reference path: one
    /// [`PartialRow::avail_depth`] lookup and one [`BitBuf::get_bits`] per
    /// field. Kept as the differential baseline for the identity tests and
    /// benchmarks.
    ///
    /// # Errors
    ///
    /// As [`decode`](Self::decode).
    fn decode_scalar(
        &self,
        row: &PartialRow<'_>,
        meta: &RowMeta,
        seed: u64,
    ) -> Result<Vec<f32>, DecodeError>;

    /// Head width in bits (`part_bits()[0]`).
    fn head_bits(&self) -> u32 {
        self.part_bits()[0]
    }

    /// Total encoded bits per coordinate.
    fn bits_per_coord(&self) -> u32 {
        self.part_bits().iter().sum()
    }
}

/// Reinterprets an `f32` as its IEEE-754 bit pattern.
#[must_use]
pub fn f32_bits(v: f32) -> u32 {
    v.to_bits()
}

/// Reinterprets an IEEE-754 bit pattern as `f32`.
#[must_use]
pub fn bits_f32(bits: u32) -> f32 {
    f32::from_bits(bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_id_wire_roundtrip() {
        for id in SchemeId::ALL {
            assert_eq!(SchemeId::from_u8(id.as_u8()), Some(id));
        }
        assert_eq!(SchemeId::from_u8(5), None);
        assert_eq!(SchemeId::from_u8(255), None);
    }

    #[test]
    fn scheme_id_names_unique() {
        let mut names: Vec<_> = SchemeId::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SchemeId::ALL.len());
        assert_eq!(SchemeId::RhtOneBit.to_string(), "rht");
    }

    fn sample_row() -> EncodedRow {
        // Two parts of widths 1 and 3, n = 4.
        let mut head = BitBuf::new();
        let mut tail = BitBuf::new();
        for i in 0..4u64 {
            head.push_bits(i % 2, 1);
            tail.push_bits(i * 2 % 8, 3);
        }
        EncodedRow {
            scheme: SchemeId::SignMagnitude,
            n: 4,
            parts: vec![head, tail],
            meta: RowMeta {
                original_len: 4,
                scale: 1.0,
            },
        }
    }

    #[test]
    fn full_view_has_max_depth_everywhere() {
        let row = sample_row();
        let v = row.full_view();
        for i in 0..4 {
            assert_eq!(v.avail_depth(i), 2);
        }
        assert!(v.validate(&[1, 3]).is_ok());
    }

    #[test]
    fn trimmed_view_depths() {
        let row = sample_row();
        let v = row.trimmed_view(1);
        for i in 0..4 {
            assert_eq!(v.avail_depth(i), 1);
        }
        assert!(v.validate(&[1, 3]).is_ok());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn trimmed_view_rejects_zero_depth() {
        let _ = sample_row().trimmed_view(0);
    }

    #[test]
    fn view_with_depths_mixed() {
        let row = sample_row();
        let v = row.view_with_depths(&[2, 1, 0, 2]);
        assert_eq!(v.avail_depth(0), 2);
        assert_eq!(v.avail_depth(1), 1);
        assert_eq!(v.avail_depth(2), 0);
        assert_eq!(v.avail_depth(3), 2);
        assert!(v.validate(&[1, 3]).is_ok());
        // Runs of equal depth collapse; depth-0 runs leave no span.
        let spans = |start, len, depth| DepthSpan { start, len, depth };
        assert_eq!(&*v.spans, &[spans(0, 1, 2), spans(1, 1, 1), spans(3, 1, 2)]);
        assert_eq!(
            &*row.view_with_depths(&[1, 1, 1, 1]).spans,
            &[spans(0, 4, 1)]
        );
    }

    #[test]
    fn validate_catches_part_count_mismatch() {
        let row = sample_row();
        let v = row.full_view();
        assert_eq!(
            v.validate(&[1, 3, 7]),
            Err(DecodeError::PartCountMismatch {
                expected: 3,
                got: 2
            })
        );
    }

    #[test]
    fn validate_catches_short_buffer() {
        let row = sample_row();
        let v = row.full_view();
        // Claim widths larger than what the buffers hold.
        assert!(matches!(
            v.validate(&[2, 3]),
            Err(DecodeError::LengthMismatch { part: 0, .. })
        ));
    }

    #[test]
    fn validate_catches_malformed_spans() {
        let row = sample_row();
        let span = |start, len, depth| DepthSpan { start, len, depth };
        for (bad, index) in [
            (vec![span(2, 2, 1), span(0, 1, 1)], 1), // out of order
            (vec![span(0, 2, 1), span(1, 2, 2)], 1), // overlapping
            (vec![span(3, 2, 1)], 0),                // past the row
            (vec![span(usize::MAX, 2, 1)], 0),       // end overflows
            (vec![span(0, 1, 3)], 0),                // deeper than the parts
        ] {
            assert_eq!(
                row.view_with_spans(&bad).validate(&[1, 3]),
                Err(DecodeError::BadSpan { index }),
                "{bad:?}"
            );
        }
        let ok = [span(0, 1, 2), span(1, 0, 0), span(3, 1, 1)];
        let v = row.view_with_spans(&ok);
        assert!(v.validate(&[1, 3]).is_ok());
        assert_eq!(
            (0..4).map(|i| v.avail_depth(i)).collect::<Vec<_>>(),
            [2, 0, 0, 1]
        );
    }

    #[test]
    fn validate_skips_lengths_of_unread_parts() {
        // A heads-only view never reads the tail, so a short tail is fine.
        let mut row = sample_row();
        row.parts[1] = BitBuf::new();
        assert!(row.trimmed_view(1).validate(&[1, 3]).is_ok());
        assert!(matches!(
            row.full_view().validate(&[1, 3]),
            Err(DecodeError::LengthMismatch { part: 1, .. })
        ));
    }

    #[test]
    fn f32_bit_helpers_roundtrip() {
        for v in [0.0f32, -0.0, 1.5, -3.25e-7, f32::MAX, f32::MIN_POSITIVE] {
            assert_eq!(bits_f32(f32_bits(v)).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn decode_error_messages() {
        let e = DecodeError::BadSpan { index: 3 };
        assert!(e.to_string().contains("span 3"));
        let e = DecodeError::OutputLenMismatch {
            expected: 4,
            got: 5,
        };
        assert!(e.to_string().contains("expected 4"));
        let e = DecodeError::BadOriginalLen {
            n: 8,
            original_len: 9,
        };
        assert!(e.to_string().contains("inconsistent"));
    }
}
