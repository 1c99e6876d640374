//! Metrics, statistics, timing, and result rendering for the experiment
//! harness. Every bench binary reports "accuracy ± std over seeds" the way
//! the paper's tables do, and serialises machine-readable records for
//! EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![allow(clippy::disallowed_methods, reason = "this crate owns the wall clock")]

pub mod accuracy;
pub mod f1;
pub mod record;
pub mod stats;
pub mod table;
pub mod timer;

pub use accuracy::{accuracy, argmax_row};
pub use f1::{macro_f1, F1Report};
pub use record::{CellRecord, ExperimentRecord};
pub use stats::{mean_std, Summary};
pub use table::Table;
pub use timer::{Stopwatch, Timer};
