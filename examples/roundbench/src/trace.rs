//! The two observers the benchmark attaches to a run, and the span
//! arithmetic of the traced pass.
//!
//! Both observers see the run only through the public `RoundEvent` stream:
//! [`RoundClock`] is the untraced one (a clock read on two event kinds and
//! integer compares on four more), [`Recorder`] keeps every event with its
//! receipt time so [`build_spans`] can turn the stream into
//! `run → round → phase segment` spans afterwards.

use std::time::{Duration, Instant};

use fedomd_jsonio::{obj, Json};
use fedomd_telemetry::{RoundEvent, RoundObserver};

/// Round boundaries and per-round failure flags of one run.
#[derive(Clone, Debug, Default)]
pub struct RoundClock {
    /// Participants a full phase reports (the round's cohort size).
    expected: usize,
    /// Receipt time of each `RoundStarted`.
    pub starts: Vec<Duration>,
    /// Receipt time of `RunFinished`.
    pub finished: Option<Duration>,
    /// Per started round: a phase closed short of the cohort, or a frame
    /// was dropped in it.
    pub degraded: Vec<bool>,
}

impl RoundClock {
    pub fn new(expected: usize) -> Self {
        Self {
            expected,
            ..Self::default()
        }
    }

    /// Feeds one event received at `t` (time since the benchmark's epoch).
    pub fn observe(&mut self, t: Duration, event: &RoundEvent) {
        match event {
            RoundEvent::RoundStarted { .. } => {
                self.starts.push(t);
                self.degraded.push(false);
            }
            RoundEvent::RunFinished { .. } => self.finished = Some(t),
            RoundEvent::StatsRound1Done { participants }
            | RoundEvent::StatsRound2Done { participants }
            | RoundEvent::AggregationDone { participants }
                if *participants < self.expected =>
            {
                self.flag()
            }
            RoundEvent::FrameDropped { .. } => self.flag(),
            _ => {}
        }
    }

    fn flag(&mut self) {
        if let Some(last) = self.degraded.last_mut() {
            *last = true;
        }
    }

    /// Wall-time of every round that closed: the gap to the next
    /// `RoundStarted`, the last one closing on `RunFinished`. A run that
    /// ended without `RunFinished` leaves its last round open, so it
    /// contributes no gap.
    pub fn round_gaps(&self) -> Vec<Duration> {
        let mut gaps: Vec<Duration> = self.starts.windows(2).map(|w| w[1] - w[0]).collect();
        if let (Some(&last), Some(end)) = (self.starts.last(), self.finished) {
            gaps.push(end - last);
        }
        gaps
    }

    /// Failed rounds out of `scheduled`: degraded ones, ones that never
    /// started, and the open round of a run that did not finish.
    pub fn failed_rounds(&self, scheduled: usize) -> usize {
        let degraded = self.degraded.iter().filter(|&&d| d).count();
        let missing = scheduled.saturating_sub(self.starts.len());
        let open = usize::from(self.finished.is_none() && !self.starts.is_empty());
        (degraded + missing + open).min(scheduled)
    }
}

/// The untraced observer: stamps against a shared epoch.
pub struct ClockObserver {
    pub epoch: Instant,
    pub clock: RoundClock,
}

impl RoundObserver for ClockObserver {
    fn on_event(&mut self, event: &RoundEvent) {
        match event {
            RoundEvent::RoundStarted { .. } | RoundEvent::RunFinished { .. } => {
                self.clock.observe(self.epoch.elapsed(), event)
            }
            // The failure flags need no timestamp.
            _ => self.clock.observe(Duration::ZERO, event),
        }
    }
}

/// The traced observer: every event with its receipt time, plus the
/// process CPU clock at the start of round 1 and at `RunFinished`.
pub struct Recorder {
    pub epoch: Instant,
    pub clock: RoundClock,
    pub events: Vec<(Duration, RoundEvent)>,
    /// `(round-1 start, run finished)` process CPU seconds.
    pub cpu: (Option<f64>, Option<f64>),
}

impl Recorder {
    pub fn new(epoch: Instant, expected: usize) -> Self {
        Self {
            epoch,
            clock: RoundClock::new(expected),
            events: Vec::new(),
            cpu: (None, None),
        }
    }
}

impl RoundObserver for Recorder {
    fn on_event(&mut self, event: &RoundEvent) {
        let t = self.epoch.elapsed();
        self.clock.observe(t, event);
        match event {
            RoundEvent::RoundStarted { round: 1 } => self.cpu.0 = process_cpu_s(),
            RoundEvent::RunFinished { .. } => self.cpu.1 = process_cpu_s(),
            _ => {}
        }
        self.events.push((t, event.clone()));
    }
}

/// utime + stime of this process in seconds, from `/proc/self/stat`
/// (fields 14 and 15, in clock ticks; Linux fixes `USER_HZ` at 100).
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Resets the kernel's peak-RSS mark of this process (Linux: writing 5 to
/// `clear_refs`), so the next [`peak_rss_mb`] reads the peak since now.
/// Where that is not allowed the mark simply stays the lifetime peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One traced interval. Times are microseconds since the benchmark epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: usize,
    /// The span that caused this one; `None` for a root.
    pub parent: Option<usize>,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Append-only span store; ids are indices.
#[derive(Default)]
pub struct Spans(pub Vec<Span>);

impl Spans {
    pub fn push(&mut self, parent: Option<usize>, name: &str, start_us: f64, end_us: f64) -> usize {
        let id = self.0.len();
        self.0.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_us,
            end_us,
        });
        id
    }

    /// A span's duration minus the part of its interval its direct
    /// children cover (overlapping children are counted once, and a child
    /// is clipped to its parent).
    pub fn self_time_us(&self, id: usize) -> f64 {
        let parent = &self.0[id];
        let mut kids: Vec<(f64, f64)> = self
            .0
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_us.max(parent.start_us), s.end_us.min(parent.end_us)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = f64::NEG_INFINITY;
        for (a, b) in kids {
            if b > reach {
                covered += b - a.max(reach);
                reach = b;
            }
        }
        parent.dur_us() - covered
    }

    /// One JSON object per line: `run`, `id`, `parent`, `name`,
    /// `start_us`, `end_us`.
    pub fn to_jsonl(&self, run_id: &str) -> String {
        let mut out = String::new();
        for s in &self.0 {
            let line = obj([
                ("run", run_id.into()),
                ("id", s.id.into()),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
                ("name", s.name.as_str().into()),
                ("start_us", s.start_us.into()),
                ("end_us", s.end_us.into()),
            ]);
            out.push_str(&line.to_compact());
            out.push('\n');
        }
        out
    }
}

/// Microseconds, the unit of span times.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Turns one recorded stream into spans under `parent`: a `run` span from
/// `entry` to the last event, a `round` span per `RoundStarted` (closing
/// on the next one, or on `RunFinished`), and under each round a
/// `phase.<name>` span per `PhaseDone`, placed at `[receipt − micros,
/// receipt]`. Returns the run span's id.
pub fn build_spans(
    spans: &mut Spans,
    parent: Option<usize>,
    name: &str,
    entry: Duration,
    events: &[(Duration, RoundEvent)],
) -> usize {
    let end = events.last().map_or(entry, |(t, _)| *t);
    let run = spans.push(parent, name, us(entry), us(end));
    let mut round: Option<usize> = None;
    for (t, ev) in events {
        match ev {
            RoundEvent::RoundStarted { .. } => {
                if let Some(open) = round {
                    spans.0[open].end_us = us(*t);
                }
                round = Some(spans.push(Some(run), "round", us(*t), us(end)));
            }
            RoundEvent::RunFinished { .. } => {
                if let Some(open) = round.take() {
                    spans.0[open].end_us = us(*t);
                }
            }
            RoundEvent::PhaseDone { phase, micros } => {
                let name = format!("phase.{}", phase.name());
                spans.push(round.or(Some(run)), &name, us(*t) - *micros as f64, us(*t));
            }
            _ => {}
        }
    }
    run
}
