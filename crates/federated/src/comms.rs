//! Byte-level communication accounting.
//!
//! The paper's Table 3 argues that FedOMD's statistics exchange is
//! negligible next to the weight exchange ("only a few statistical data of
//! local features are required..., causing negligible communication
//! costs"); this log measures exactly that.
//!
//! All recording funnels through one entry point, [`CommsLog::record`]:
//! a [`Direction`] (which way the bytes flew), a [`TrafficClass`] (model
//! weights vs. distribution statistics — the split Table 3 is about), and
//! the size of an encoded transport frame (header + payload + checksum)
//! as produced by `fedomd-transport`.

/// Which way bytes crossed the star topology.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Client → server.
    Uplink,
    /// Server → client.
    Downlink,
}

/// What the bytes carried, at the granularity the paper's Table 3 cares
/// about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrafficClass {
    /// Model parameters (weight updates, global model broadcasts).
    Weights,
    /// Distribution statistics (FedOMD's means and central moments,
    /// FedLIT's centroids, ...).
    Stats,
}

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
    /// deadline). Always 0 on the in-process channel; fed from the
    /// simulated network's fault counters.
    pub dropped_messages: u64,
}

impl CommsLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `bytes` of traffic — the single entry point every recorder
    /// funnels through. Statistics uplink is additionally counted in the
    /// `stats_uplink_bytes` sub-bucket (downlink statistics are not
    /// sub-bucketed: Table 3's claim is about client upload cost).
    pub fn record(&mut self, dir: Direction, class: TrafficClass, bytes: u64) {
        match dir {
            Direction::Uplink => {
                self.uplink_bytes += bytes;
                if class == TrafficClass::Stats {
                    self.stats_uplink_bytes += bytes;
                }
            }
            Direction::Downlink => self.downlink_bytes += bytes,
        }
    }

    /// Overwrites the dropped-message count with the transport's current
    /// cumulative fault counter (idempotent; called once per round).
    pub fn sync_dropped(&mut self, transport_dropped_frames: u64) {
        self.dropped_messages = transport_dropped_frames;
    }

    /// Marks one communication round finished.
    pub fn end_round(&mut self) {
        self.rounds += 1;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_sums_per_direction() {
        let mut log = CommsLog::new();
        log.record(Direction::Uplink, TrafficClass::Weights, 400);
        log.record(Direction::Downlink, TrafficClass::Weights, 200);
        assert_eq!(log.uplink_bytes, 400);
        assert_eq!(log.downlink_bytes, 200);
        assert_eq!(log.total_bytes(), 600);
        assert_eq!(log.stats_uplink_bytes, 0);
    }

    #[test]
    fn stats_are_a_sub_bucket_of_uplink() {
        let mut log = CommsLog::new();
        log.record(Direction::Uplink, TrafficClass::Weights, 4000);
        log.record(Direction::Uplink, TrafficClass::Stats, 40);
        assert_eq!(log.uplink_bytes, 4040);
        assert_eq!(log.stats_uplink_bytes, 40);
        assert!((log.stats_fraction() - 40.0 / 4040.0).abs() < 1e-12);
    }

    #[test]
    fn downlink_stats_do_not_touch_the_uplink_sub_bucket() {
        let mut log = CommsLog::new();
        log.record(Direction::Downlink, TrafficClass::Stats, 66);
        assert_eq!(log.downlink_bytes, 66);
        assert_eq!(log.uplink_bytes, 0);
        assert_eq!(log.stats_uplink_bytes, 0);
    }

    #[test]
    fn record_counts_whole_frames() {
        // 100 scalars plus framing (header, shapes, checksum).
        let frame_bytes = 426u64;
        let mut log = CommsLog::new();
        log.record(Direction::Uplink, TrafficClass::Weights, frame_bytes);
        log.record(Direction::Uplink, TrafficClass::Stats, 66);
        log.record(Direction::Downlink, TrafficClass::Weights, frame_bytes);
        log.record(Direction::Downlink, TrafficClass::Stats, 66);
        assert_eq!(log.uplink_bytes, 492);
        assert_eq!(log.stats_uplink_bytes, 66);
        assert_eq!(log.downlink_bytes, 492);
    }

    #[test]
    fn sync_dropped_is_idempotent_per_cumulative_counter() {
        let mut log = CommsLog::new();
        log.sync_dropped(4);
        log.sync_dropped(4); // same cumulative value: no double count
        assert_eq!(log.dropped_messages, 4);
        log.sync_dropped(7);
        assert_eq!(log.dropped_messages, 7);
    }

    #[test]
    fn empty_log_fraction_is_zero() {
        assert_eq!(CommsLog::new().stats_fraction(), 0.0);
    }

    #[test]
    fn zero_uplink_with_stats_bucket_untouched() {
        // A purely local run (no aggregation) must report a 0/0 stats
        // fraction as 0, not NaN.
        let mut log = CommsLog::new();
        log.end_round();
        assert_eq!(log.uplink_bytes, 0);
        assert_eq!(log.stats_fraction(), 0.0);
        assert!(log.stats_fraction().is_finite());
    }
}
