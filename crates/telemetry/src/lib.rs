//! `fedomd-telemetry`: round-event observability for federated runs.
//!
//! Production FL systems treat per-round telemetry as the substrate that
//! straggler debugging, drop analysis, and convergence monitoring are
//! built on (FedScale's runtime metrics, Flower's event-driven API). This
//! crate is that substrate for the FedOMD workspace, in three pieces:
//!
//! * [`event`] — the [`RoundEvent`] taxonomy (run/round lifecycle, local
//!   steps with loss components, frame sends/drops, statistics-exchange
//!   milestones, phase wall-clock segments, evaluation, early stop) and
//!   its flat-JSON encoding.
//! * [`observer`] — the [`RoundObserver`] sink trait with the three
//!   shipped sinks: [`NullObserver`] (zero-cost default), a
//!   [`ConsoleObserver`] printing human round lines, and a
//!   [`JsonlObserver`] streaming one event per line (what
//!   `fedomd_run --telemetry <path>` writes). [`MemoryObserver`] and
//!   [`TeeObserver`] support tests and composition.
//! * [`stopwatch`] — [`PhaseStopwatch`], one-shot phase timing that emits
//!   `PhaseDone` segments.
//!
//! The contract the training loops uphold (and tests pin): observers are
//! pure sinks, so a run with any observer is **bit-identical** in result
//! and byte accounting to the same run with [`NullObserver`].

#![forbid(unsafe_code)]

pub mod event;
pub mod observer;
pub mod stopwatch;

pub use event::{Phase, RoundEvent};
pub use observer::{
    ConsoleObserver, JsonlObserver, MemoryObserver, NullObserver, RoundObserver, TeeObserver,
};
pub use stopwatch::PhaseStopwatch;
