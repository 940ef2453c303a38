//! Coupling ahead-of-time compression with congestion control (paper §5.3).
//!
//! Congestion feedback lets the *sender* adjust `Q` — how much refinement it
//! even puts on the wire — while unpredictable residual congestion is still
//! absorbed by just-in-time switch trimming. The paper's guidance: unlike
//! classic congestion control, which avoids queues conservatively, the
//! sender should "always slightly under-compress and over-send so that the
//! gradient traffic always saturates the link", letting switches trim off
//! the excess.
//!
//! [`AotController`] implements that loop for the multi-part encodings: it
//! chooses how many trailing parts to pre-truncate before transmission
//! (`send_depth`), increasing aggressiveness only under sustained feedback
//! and recovering quickly when the network clears — an AIMD on *precision*
//! rather than rate, biased toward over-sending.

use trimgrad_quant::scheme::EncodedRow;

/// Feedback from one round of transmission.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundFeedback {
    /// Fraction of this sender's packets that switches trimmed.
    pub trim_fraction: f64,
    /// Fraction of packets ECN-marked.
    pub ecn_fraction: f64,
}

/// Ahead-of-time precision controller.
#[derive(Debug, Clone)]
pub struct AotController {
    n_parts: usize,
    send_depth: usize,
    /// Reduce precision only after this many consecutive congested rounds
    /// (the "slightly under-compress and over-send" bias).
    patience: u32,
    congested_streak: u32,
    clear_streak: u32,
    /// Trim fraction above which a round counts as congested.
    congested_threshold: f64,
}

impl AotController {
    /// Creates a controller for an encoding with `n_parts` parts, starting
    /// at full precision.
    ///
    /// # Panics
    ///
    /// Panics for `n_parts == 0`.
    #[must_use]
    pub fn new(n_parts: usize) -> Self {
        assert!(n_parts >= 1, "encoding needs at least one part");
        Self {
            n_parts,
            send_depth: n_parts,
            patience: 3,
            congested_streak: 0,
            clear_streak: 0,
            congested_threshold: 0.3,
        }
    }

    /// Parts the sender currently transmits (`1..=n_parts`).
    #[must_use]
    pub fn send_depth(&self) -> usize {
        self.send_depth
    }

    /// Ingests one round's feedback and updates the send depth.
    ///
    /// Heavily-trimmed rounds (most bytes were thrown away in the fabric
    /// anyway) eventually reduce precision by one part; clear rounds restore
    /// it — but *recovery is faster than decay*, implementing the paper's
    /// over-sending bias.
    pub fn on_feedback(&mut self, fb: &RoundFeedback) {
        let congested = fb.trim_fraction > self.congested_threshold
            || fb.ecn_fraction > 2.0 * self.congested_threshold;
        if congested {
            self.clear_streak = 0;
            self.congested_streak += 1;
            if self.congested_streak >= self.patience && self.send_depth > 1 {
                self.send_depth -= 1;
                self.congested_streak = 0;
            }
        } else {
            self.congested_streak = 0;
            self.clear_streak += 1;
            // Recover a precision level after a single clear round.
            if self.clear_streak >= 1 && self.send_depth < self.n_parts {
                self.send_depth += 1;
                self.clear_streak = 0;
            }
        }
    }

    /// Applies the current send depth to an encoded row: pre-truncates the
    /// trailing parts the controller decided not to send (the receiver sees
    /// them exactly as if a switch had trimmed them).
    #[must_use]
    pub fn pre_truncate(&self, mut enc: EncodedRow) -> EncodedRow {
        for part in enc.parts.iter_mut().skip(self.send_depth) {
            *part = trimgrad_quant::bitpack::BitBuf::zeroed(0);
        }
        enc
    }

    /// Wire bits per coordinate at the current depth for the given geometry.
    #[must_use]
    pub fn bits_per_coord(&self, part_bits: &[u32]) -> u32 {
        part_bits.iter().take(self.send_depth).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trimgrad_quant::multilevel::MultiLevelRht;
    use trimgrad_quant::TrimmableScheme;

    fn congested() -> RoundFeedback {
        RoundFeedback {
            trim_fraction: 0.6,
            ecn_fraction: 0.0,
        }
    }

    fn clear() -> RoundFeedback {
        RoundFeedback::default()
    }

    #[test]
    fn starts_at_full_precision() {
        let c = AotController::new(3);
        assert_eq!(c.send_depth(), 3);
        assert_eq!(c.bits_per_coord(&[1, 8, 23]), 32);
    }

    #[test]
    fn sustained_congestion_reduces_depth_slowly() {
        let mut c = AotController::new(3);
        c.on_feedback(&congested());
        c.on_feedback(&congested());
        assert_eq!(c.send_depth(), 3, "patience not yet exhausted");
        c.on_feedback(&congested());
        assert_eq!(c.send_depth(), 2);
        assert_eq!(c.bits_per_coord(&[1, 8, 23]), 9);
        // Never drops below the head.
        for _ in 0..20 {
            c.on_feedback(&congested());
        }
        assert_eq!(c.send_depth(), 1);
    }

    #[test]
    fn recovery_is_faster_than_decay() {
        let mut c = AotController::new(3);
        for _ in 0..9 {
            c.on_feedback(&congested());
        }
        assert_eq!(c.send_depth(), 1);
        // One clear round per recovered level.
        c.on_feedback(&clear());
        assert_eq!(c.send_depth(), 2);
        c.on_feedback(&clear());
        assert_eq!(c.send_depth(), 3);
    }

    #[test]
    fn transient_congestion_is_ignored() {
        let mut c = AotController::new(2);
        for _ in 0..10 {
            c.on_feedback(&congested());
            c.on_feedback(&clear());
        }
        assert_eq!(c.send_depth(), 2, "alternating feedback must not decay");
    }

    #[test]
    fn ecn_feedback_also_counts() {
        let mut c = AotController::new(2);
        let fb = RoundFeedback {
            trim_fraction: 0.0,
            ecn_fraction: 0.9,
        };
        for _ in 0..3 {
            c.on_feedback(&fb);
        }
        assert_eq!(c.send_depth(), 1);
    }

    #[test]
    fn pre_truncated_rows_decode_at_reduced_depth() {
        let scheme = MultiLevelRht;
        let row: Vec<f32> = (0..256).map(|i| ((i as f32) * 0.1).sin()).collect();
        let enc = scheme.encode(&row, 5);
        let mut c = AotController::new(3);
        for _ in 0..3 {
            c.on_feedback(&congested());
        }
        assert_eq!(c.send_depth(), 2);
        let sent = c.pre_truncate(enc);
        // The receiver view: first two parts present, third absent.
        let dec = scheme.decode(&sent.trimmed_view(2), &sent.meta, 5).unwrap();
        let nmse = trimgrad_quant::error::nmse(&dec, &row);
        assert!(nmse > 0.0 && nmse < 0.2, "sign+exponent decode nmse {nmse}");
    }
}
