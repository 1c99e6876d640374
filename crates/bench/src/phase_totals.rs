//! [`PhaseTotals`]: the measured columns of the paper's Table 3 (client,
//! server and inference time), folded from the `PhaseDone` segments a run
//! reports to its observer.

use fedomd_telemetry::{Phase, RoundEvent, RoundObserver};

/// Sums every `PhaseDone` segment of a run, per phase, in microseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTotals([u64; 5]);

fn slot(phase: Phase) -> usize {
    match phase {
        Phase::LocalTrain => 0,
        Phase::Comms => 1,
        Phase::Aggregation => 2,
        Phase::Eval => 3,
        Phase::FoldOverlap => 4,
    }
}

impl PhaseTotals {
    /// Summed microseconds of `phase`.
    pub fn micros(&self, phase: Phase) -> u64 {
        self.0[slot(phase)]
    }

    fn ms(&self, phases: &[Phase]) -> f64 {
        phases.iter().map(|&p| self.micros(p)).sum::<u64>() as f64 / 1e3
    }

    /// Client time: local training. After an evaluated round a trained
    /// client's next forward pass was recorded by the evaluation, so it
    /// counts as inference, not here.
    pub fn client_ms(&self) -> f64 {
        self.ms(&[Phase::LocalTrain])
    }

    /// Server time: moving frames, folding them, and aggregating.
    pub fn server_ms(&self) -> f64 {
        self.ms(&[Phase::Comms, Phase::Aggregation, Phase::FoldOverlap])
    }

    /// Inference time: evaluation, including the forward pass it shares
    /// with the next round's local training.
    pub fn inference_ms(&self) -> f64 {
        self.ms(&[Phase::Eval])
    }
}

impl RoundObserver for PhaseTotals {
    fn on_event(&mut self, event: &RoundEvent) {
        if let RoundEvent::PhaseDone { phase, micros } = event {
            self.0[slot(*phase)] += micros;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedomd_core::FedRun;
    use fedomd_data::{generate, spec, DatasetName};
    use fedomd_federated::{setup_federation, FederationConfig, TrainConfig};
    use fedomd_telemetry::{MemoryObserver, TeeObserver};

    const PHASES: [Phase; 5] = [
        Phase::LocalTrain,
        Phase::Comms,
        Phase::Aggregation,
        Phase::Eval,
        Phase::FoldOverlap,
    ];

    #[test]
    fn totals_are_the_per_phase_sums_of_a_fedomd_run() {
        let ds = generate(&spec(DatasetName::CoraMini), 0);
        let clients = setup_federation(&ds, &FederationConfig::mini(3, 0));
        let cfg = TrainConfig {
            rounds: 2,
            ..TrainConfig::mini(0)
        };
        let mut totals = PhaseTotals::default();
        let mut mem = MemoryObserver::new();
        FedRun::new(&clients, ds.n_classes)
            .train(cfg)
            .observer(&mut TeeObserver::new(&mut totals, &mut mem))
            .run();
        for phase in PHASES {
            let segments: Vec<u64> = mem
                .events
                .iter()
                .filter_map(|e| match e {
                    RoundEvent::PhaseDone { phase: p, micros } if *p == phase => Some(*micros),
                    _ => None,
                })
                .collect();
            assert_eq!(totals.micros(phase), segments.iter().sum::<u64>());
            let expected = phase != Phase::FoldOverlap;
            assert_eq!(!segments.is_empty(), expected, "{} segments", phase.name());
        }
    }

    #[test]
    fn table3_columns_group_the_phases() {
        let mut totals = PhaseTotals::default();
        for (phase, micros) in PHASES.into_iter().zip([1000, 200, 30, 4000, 5]) {
            totals.on_event(&RoundEvent::PhaseDone { phase, micros });
        }
        totals.on_event(&RoundEvent::RoundStarted { round: 0 });
        assert_eq!(totals.client_ms(), 1.0);
        assert_eq!(totals.server_ms(), 0.235);
        assert_eq!(totals.inference_ms(), 4.0);
    }
}
