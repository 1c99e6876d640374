//! [`PhaseStopwatch`]: measure a phase segment, emit one
//! [`RoundEvent::PhaseDone`].
//!
//! Apart from `fedomd-net`'s attested socket deadlines, this file holds the
//! library code's one wall-clock read: `clippy.toml` bans `Instant::now`
//! everywhere else, so every round phase is timed here.

#![allow(
    clippy::disallowed_methods,
    reason = "the one sanctioned wall-clock read"
)]

use std::time::Instant;

use crate::event::{Phase, RoundEvent};
use crate::observer::RoundObserver;

/// A started wall-clock measurement for one phase segment.
///
/// ```
/// use fedomd_telemetry::{MemoryObserver, Phase, PhaseStopwatch};
/// let mut obs = MemoryObserver::new();
/// let sw = PhaseStopwatch::start(Phase::LocalTrain);
/// // ... the measured work ...
/// sw.finish(&mut obs);
/// assert_eq!(obs.count("phase_done"), 1);
/// ```
pub struct PhaseStopwatch {
    phase: Phase,
    started: Instant,
}

impl PhaseStopwatch {
    /// Starts timing `phase` now.
    pub fn start(phase: Phase) -> Self {
        Self {
            phase,
            started: Instant::now(),
        }
    }

    /// Stops and emits `PhaseDone`.
    pub fn finish(self, obs: &mut dyn RoundObserver) {
        obs.on_event(&RoundEvent::PhaseDone {
            phase: self.phase,
            micros: self.started.elapsed().as_micros() as u64,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::MemoryObserver;

    #[test]
    fn finish_emits_exactly_one_phase_event() {
        let mut obs = MemoryObserver::new();
        PhaseStopwatch::start(Phase::Eval).finish(&mut obs);
        assert_eq!(obs.events.len(), 1);
        match &obs.events[0] {
            RoundEvent::PhaseDone { phase, .. } => assert_eq!(*phase, Phase::Eval),
            other => panic!("expected PhaseDone, got {other:?}"),
        }
    }
}
