//! Byte-level communication accounting.
//!
//! The paper's Table 3 argues that FedOMD's statistics exchange is
//! negligible next to the weight exchange ("only a few statistical data of
//! local features are required..., causing negligible communication
//! costs"); this log measures exactly that.
//!
//! A [`CommsLog`] is the fold of a run's frame events, as `PhaseTotals`
//! is of its `PhaseDone` segments: each `FrameSent` is one encoded
//! transport frame (header + payload + checksum), sorted by its payload
//! kind into uplink or downlink, and model weights or statistics
//! (`Payload::travels_up`, `Payload::carries_weights`); each
//! `FrameDropped` is one lost message; each `RoundFinished` one round.

use fedomd_telemetry::{RoundEvent, RoundObserver};
use fedomd_transport::Payload;

/// Accumulated traffic of one federated run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommsLog {
    /// Client → server bytes.
    pub uplink_bytes: u64,
    /// Server → client bytes.
    pub downlink_bytes: u64,
    /// Client → server bytes spent on *statistics* (FedOMD's means and
    /// central moments) — a sub-bucket of `uplink_bytes`.
    pub stats_uplink_bytes: u64,
    /// Communication rounds completed.
    pub rounds: u64,
    /// Messages lost in transit (dropped, or late past the round
    /// deadline). Always 0 on the in-process channel.
    pub dropped_messages: u64,
}

impl CommsLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total traffic in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.uplink_bytes + self.downlink_bytes
    }

    /// Fraction of uplink spent on statistics (0 when no uplink).
    pub fn stats_fraction(&self) -> f64 {
        if self.uplink_bytes == 0 {
            0.0
        } else {
            self.stats_uplink_bytes as f64 / self.uplink_bytes as f64
        }
    }
}

impl RoundObserver for CommsLog {
    /// Statistics uplink is additionally counted in the
    /// `stats_uplink_bytes` sub-bucket (downlink statistics are not
    /// sub-bucketed: Table 3's claim is about client upload cost).
    fn on_event(&mut self, event: &RoundEvent) {
        #[expect(
            clippy::wildcard_enum_match_arm,
            reason = "the ledger folds three events; every other event carries no traffic"
        )]
        match event {
            RoundEvent::FrameSent { kind, bytes } if Payload::travels_up(kind) => {
                self.uplink_bytes += bytes;
                if !Payload::carries_weights(kind) {
                    self.stats_uplink_bytes += bytes;
                }
            }
            RoundEvent::FrameSent { bytes, .. } => self.downlink_bytes += bytes,
            RoundEvent::FrameDropped { .. } => self.dropped_messages += 1,
            RoundEvent::RoundFinished { .. } => self.rounds += 1,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fold(events: &[RoundEvent]) -> CommsLog {
        let mut log = CommsLog::new();
        for e in events {
            log.on_event(e);
        }
        log
    }

    fn sent(kind: &'static str, bytes: u64) -> RoundEvent {
        RoundEvent::FrameSent { kind, bytes }
    }

    #[test]
    fn sends_sum_per_direction() {
        let log = fold(&[sent("WeightUpdate", 400), sent("GlobalModel", 200)]);
        assert_eq!(log.uplink_bytes, 400);
        assert_eq!(log.downlink_bytes, 200);
        assert_eq!(log.total_bytes(), 600);
        assert_eq!(log.stats_uplink_bytes, 0);
    }

    #[test]
    fn stats_are_a_sub_bucket_of_uplink() {
        let log = fold(&[sent("WeightUpdate", 4000), sent("StatsRound1", 40)]);
        assert_eq!(log.uplink_bytes, 4040);
        assert_eq!(log.stats_uplink_bytes, 40);
        assert!((log.stats_fraction() - 40.0 / 4040.0).abs() < 1e-12);
    }

    #[test]
    fn downlink_stats_do_not_touch_the_uplink_sub_bucket() {
        let log = fold(&[sent("GlobalStats", 66)]);
        assert_eq!(log.downlink_bytes, 66);
        assert_eq!(log.uplink_bytes, 0);
        assert_eq!(log.stats_uplink_bytes, 0);
    }

    #[test]
    fn sends_count_whole_frames() {
        // 100 scalars plus framing (header, shapes, checksum).
        let frame_bytes = 426u64;
        let log = fold(&[
            sent("WeightUpdate", frame_bytes),
            sent("StatsRound2", 66),
            sent("GlobalModel", frame_bytes),
            sent("GlobalStats", 66),
        ]);
        assert_eq!(log.uplink_bytes, 492);
        assert_eq!(log.stats_uplink_bytes, 66);
        assert_eq!(log.downlink_bytes, 492);
    }

    #[test]
    fn each_drop_and_round_is_counted_once() {
        let finished = RoundEvent::RoundFinished {
            round: 0,
            uplink_bytes: 0,
            downlink_bytes: 0,
            dropped_messages: 0,
        };
        let dropped = RoundEvent::FrameDropped {
            kind: "WeightUpdate",
            bytes: 426,
        };
        let log = fold(&[dropped.clone(), dropped, finished.clone(), finished]);
        assert_eq!(log.dropped_messages, 2);
        assert_eq!(log.rounds, 2);
        // A lost frame's bytes were counted when it was sent, not again.
        assert_eq!(log.total_bytes(), 0);
    }

    #[test]
    fn empty_log_fraction_is_zero() {
        assert_eq!(CommsLog::new().stats_fraction(), 0.0);
    }

    #[test]
    fn zero_uplink_with_stats_bucket_untouched() {
        // A purely local run (no aggregation) must report a 0/0 stats
        // fraction as 0, not NaN.
        let log = fold(&[RoundEvent::RoundFinished {
            round: 0,
            uplink_bytes: 0,
            downlink_bytes: 0,
            dropped_messages: 0,
        }]);
        assert_eq!(log.uplink_bytes, 0);
        assert_eq!(log.stats_fraction(), 0.0);
        assert!(log.stats_fraction().is_finite());
    }
}
