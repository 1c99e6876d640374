//! Wall-clock timing with named phases — the instrument behind the
//! measured Table 3 (client / server / inference time per model).

use std::time::{Duration, Instant};

/// A started wall-clock measurement.
///
/// This is the only sanctioned way for round-loop code to read the clock:
/// `clippy.toml` bans `Instant::now` in library code outside
/// `fedomd-metrics` and `fedomd-telemetry`, so training and protocol crates
/// measure phases with a `Stopwatch` and charge the result to a [`Timer`]
/// bucket instead of touching `std::time` directly.
/// Use it for split measurements where [`Timer::time`]'s closure shape
/// does not fit (e.g. a phase whose start and end straddle borrows).
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts measuring now.
    pub fn start() -> Self {
        Self {
            started: Instant::now(),
        }
    }

    /// Wall-clock time since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

/// Accumulates wall-clock time into named buckets.
#[derive(Clone, Debug, Default)]
pub struct Timer {
    buckets: Vec<(String, Duration)>,
}

impl Timer {
    /// An empty timer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Times `f`, charging the elapsed time to `bucket`, and returns `f`'s
    /// result.
    pub fn time<T>(&mut self, bucket: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(bucket, start.elapsed());
        out
    }

    /// Adds a pre-measured duration to `bucket`.
    pub fn add(&mut self, bucket: &str, d: Duration) {
        if let Some(entry) = self.buckets.iter_mut().find(|(name, _)| name == bucket) {
            entry.1 += d;
        } else {
            self.buckets.push((bucket.to_string(), d));
        }
    }

    /// Total accumulated time in `bucket` (zero if absent).
    pub fn get(&self, bucket: &str) -> Duration {
        self.buckets
            .iter()
            .find(|(name, _)| name == bucket)
            .map(|(_, d)| *d)
            .unwrap_or_default()
    }

    /// All buckets in first-touch order.
    pub fn buckets(&self) -> &[(String, Duration)] {
        &self.buckets
    }

    /// Merges another timer's buckets into this one.
    pub fn merge(&mut self, other: &Timer) {
        for (name, d) in &other.buckets {
            self.add(name, *d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_into_named_buckets() {
        let mut t = Timer::new();
        t.add("client", Duration::from_millis(5));
        t.add("client", Duration::from_millis(7));
        t.add("server", Duration::from_millis(1));
        assert_eq!(t.get("client"), Duration::from_millis(12));
        assert_eq!(t.get("server"), Duration::from_millis(1));
        assert_eq!(t.get("absent"), Duration::ZERO);
    }

    #[test]
    fn time_returns_closure_result() {
        let mut t = Timer::new();
        let v = t.time("work", || 41 + 1);
        assert_eq!(v, 42);
        assert!(t.get("work") > Duration::ZERO || t.get("work") == Duration::ZERO);
        assert_eq!(t.buckets().len(), 1);
    }

    #[test]
    fn merge_combines() {
        let mut a = Timer::new();
        a.add("x", Duration::from_millis(1));
        let mut b = Timer::new();
        b.add("x", Duration::from_millis(2));
        b.add("y", Duration::from_millis(3));
        a.merge(&b);
        assert_eq!(a.get("x"), Duration::from_millis(3));
        assert_eq!(a.get("y"), Duration::from_millis(3));
    }
}
