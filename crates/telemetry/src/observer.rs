//! The [`RoundObserver`] sink contract and the three shipped sinks.
//!
//! An observer is a synchronous callback on the training thread: the run
//! calls [`RoundObserver::on_event`] once per milestone, in a fixed,
//! deterministic order. Observers must not influence the run — they get
//! `&RoundEvent` and no way back into the trainer — which is what makes
//! the `NullObserver` golden test (telemetry on ≡ telemetry off,
//! bit-for-bit) possible.

use std::io::Write;
use std::path::Path;

use crate::event::RoundEvent;

/// A sink for round events.
pub trait RoundObserver {
    /// Receives one event. Called on the training thread; keep it cheap.
    fn on_event(&mut self, event: &RoundEvent);
}

/// The zero-cost default: drops every event.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl RoundObserver for NullObserver {
    fn on_event(&mut self, _event: &RoundEvent) {}
}

/// Collects every event in memory — the test and scripting sink.
#[derive(Debug, Default)]
pub struct MemoryObserver {
    /// Events in emission order.
    pub events: Vec<RoundEvent>,
}

impl MemoryObserver {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many events of `kind` were recorded.
    pub fn count(&self, kind: &str) -> usize {
        self.events.iter().filter(|e| e.kind() == kind).count()
    }
}

impl RoundObserver for MemoryObserver {
    fn on_event(&mut self, event: &RoundEvent) {
        self.events.push(event.clone());
    }
}

/// Human-readable round lines on an arbitrary writer (stderr by default
/// via [`ConsoleObserver::stderr`]).
///
/// Prints one line per evaluated round plus run begin/end markers; frame
/// and step events only update internal per-round aggregates.
pub struct ConsoleObserver<W: Write> {
    out: W,
    round: u64,
    loss_sum: f64,
    loss_n: usize,
    round_frames: u64,
    round_drops: u64,
}

impl ConsoleObserver<std::io::Stderr> {
    /// A console observer writing to stderr (keeps stdout clean for the
    /// binaries' own tables).
    pub fn stderr() -> Self {
        Self::new(std::io::stderr())
    }
}

impl<W: Write> ConsoleObserver<W> {
    /// A console observer over any writer.
    pub fn new(out: W) -> Self {
        Self {
            out,
            round: 0,
            loss_sum: 0.0,
            loss_n: 0,
            round_frames: 0,
            round_drops: 0,
        }
    }
}

impl<W: Write> RoundObserver for ConsoleObserver<W> {
    fn on_event(&mut self, event: &RoundEvent) {
        match event {
            RoundEvent::RunStarted { spec } => {
                let flags: String = spec.iter().map(|(k, v)| format!(" --{k} {v}")).collect();
                let _ = writeln!(self.out, "[telemetry] run{flags}");
            }
            RoundEvent::RoundStarted { round } => {
                self.round = *round;
                self.loss_sum = 0.0;
                self.loss_n = 0;
                self.round_frames = 0;
                self.round_drops = 0;
            }
            RoundEvent::LocalStepDone { loss, .. } => {
                self.loss_sum += loss;
                self.loss_n += 1;
            }
            RoundEvent::FrameSent { .. } => self.round_frames += 1,
            RoundEvent::FrameDropped { .. } => self.round_drops += 1,
            RoundEvent::EvalDone {
                round,
                val_acc,
                test_acc,
            } => {
                let mean_loss = self.loss_sum / self.loss_n.max(1) as f64;
                let _ = writeln!(
                    self.out,
                    "[telemetry] round {round:>4} · loss {mean_loss:.4} · val {:5.2}% · \
                     test {:5.2}% · frames {} (dropped {})",
                    100.0 * val_acc,
                    100.0 * test_acc,
                    self.round_frames,
                    self.round_drops,
                );
            }
            RoundEvent::EarlyStopped { round } => {
                let _ = writeln!(self.out, "[telemetry] early stop at round {round}");
            }
            RoundEvent::RunFinished {
                algorithm,
                test_acc,
                best_round,
                rounds,
                ..
            } => {
                let _ = writeln!(
                    self.out,
                    "[telemetry] {algorithm} finished: test {:.2}% (best round {best_round}, \
                     {rounds} rounds run)",
                    100.0 * test_acc,
                );
            }
            _ => {}
        }
    }
}

/// One event per line as flat JSON, with a monotonically increasing
/// `"seq"` field stamped on every line so consumers can verify ordering
/// and detect truncation.
pub struct JsonlObserver<W: Write> {
    out: W,
    seq: u64,
}

impl JsonlObserver<std::io::BufWriter<std::fs::File>> {
    /// Creates (truncates) `path` and streams events into it.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(Self::new(std::io::BufWriter::new(std::fs::File::create(
            path,
        )?)))
    }
}

impl<W: Write> JsonlObserver<W> {
    /// A JSONL observer over any writer.
    pub fn new(out: W) -> Self {
        Self { out, seq: 0 }
    }

    /// Unwraps the inner writer (flushing is the writer's business).
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> RoundObserver for JsonlObserver<W> {
    fn on_event(&mut self, event: &RoundEvent) {
        let mut json = event.to_json();
        if let fedomd_jsonio::Json::Obj(fields) = &mut json {
            fields.push(("seq".to_string(), fedomd_jsonio::Json::Num(self.seq as f64)));
        }
        self.seq += 1;
        let _ = writeln!(self.out, "{json}");
    }
}

/// Forwards every event to both observers, in order — e.g. a JSONL trace
/// plus console lines from one run.
pub struct TeeObserver<'a> {
    a: &'a mut dyn RoundObserver,
    b: &'a mut dyn RoundObserver,
}

impl<'a> TeeObserver<'a> {
    /// Tees `a` then `b`.
    pub fn new(a: &'a mut dyn RoundObserver, b: &'a mut dyn RoundObserver) -> Self {
        Self { a, b }
    }
}

impl RoundObserver for TeeObserver<'_> {
    fn on_event(&mut self, event: &RoundEvent) {
        self.a.on_event(event);
        self.b.on_event(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Phase;
    use fedomd_jsonio::Json;

    fn sample_events() -> Vec<RoundEvent> {
        vec![
            RoundEvent::RunStarted {
                spec: vec![
                    ("algo".into(), "FedOMD".into()),
                    ("parties".into(), "2".into()),
                ],
            },
            RoundEvent::RoundStarted { round: 0 },
            RoundEvent::LocalStepDone {
                client: 0,
                epoch: 0,
                loss: 1.5,
                ce: 1.5,
                ortho: 0.0,
                cmd: 0.0,
            },
            RoundEvent::PhaseDone {
                phase: Phase::LocalTrain,
                micros: 10,
            },
            RoundEvent::EvalDone {
                round: 0,
                val_acc: 0.5,
                test_acc: 0.5,
            },
            RoundEvent::RoundFinished {
                round: 0,
                uplink_bytes: 10,
                downlink_bytes: 10,
                dropped_messages: 0,
            },
            RoundEvent::RunFinished {
                algorithm: "FedOMD".into(),
                test_acc: 0.5,
                val_acc: 0.5,
                best_round: 0,
                rounds: 1,
            },
        ]
    }

    #[test]
    fn jsonl_lines_parse_and_seq_is_monotonic() {
        let mut sink = JsonlObserver::new(Vec::new());
        for ev in sample_events() {
            sink.on_event(&ev);
        }
        let text = String::from_utf8(sink.into_inner()).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), sample_events().len());
        for (i, line) in lines.iter().enumerate() {
            let json = Json::parse(line).expect("every line is standalone JSON");
            assert_eq!(
                json.get("seq").and_then(|j| j.as_u64()),
                Some(i as u64),
                "seq must count lines without gaps"
            );
        }
    }

    #[test]
    fn jsonl_preserves_emission_order() {
        let mut sink = JsonlObserver::new(Vec::new());
        let events = sample_events();
        for ev in &events {
            sink.on_event(ev);
        }
        let text = String::from_utf8(sink.into_inner()).expect("utf8");
        let kinds: Vec<String> = text
            .lines()
            .map(|l| {
                Json::parse(l)
                    .expect("json")
                    .get("event")
                    .and_then(|j| j.as_str())
                    .expect("event tag")
                    .to_string()
            })
            .collect();
        let expected: Vec<String> = events.iter().map(|e| e.kind().to_string()).collect();
        assert_eq!(kinds, expected);
        // And the lifecycle shape holds: started first, finished last.
        assert_eq!(kinds.first().map(String::as_str), Some("run_started"));
        assert_eq!(kinds.last().map(String::as_str), Some("run_finished"));
    }

    #[test]
    fn memory_observer_counts_by_kind() {
        let mut mem = MemoryObserver::new();
        for ev in sample_events() {
            mem.on_event(&ev);
        }
        assert_eq!(mem.count("local_step_done"), 1);
        assert_eq!(mem.count("run_finished"), 1);
        assert_eq!(mem.count("frame_dropped"), 0);
    }

    #[test]
    fn console_observer_prints_round_lines() {
        let mut con = ConsoleObserver::new(Vec::new());
        for ev in sample_events() {
            con.on_event(&ev);
        }
        let text = String::from_utf8(con.out).expect("utf8");
        assert!(text.contains("run --algo FedOMD --parties 2"));
        assert!(text.contains("round    0"));
        assert!(text.contains("finished: test 50.00%"));
    }

    #[test]
    fn tee_forwards_to_both() {
        let mut a = MemoryObserver::new();
        let mut b = MemoryObserver::new();
        {
            let mut tee = TeeObserver::new(&mut a, &mut b);
            for ev in sample_events() {
                tee.on_event(&ev);
            }
        }
        assert_eq!(a.events.len(), b.events.len());
        assert_eq!(a.events, b.events);
    }
}
