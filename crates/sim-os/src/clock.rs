//! The virtual clock.
//!
//! Every component of the simulation — CPUs, disks, the network —
//! advances one shared clock. Benchmarks report virtual elapsed time,
//! which makes runs deterministic and lets the evaluation reproduce
//! the *shape* of the paper's overhead tables independent of host
//! hardware.

use std::cell::Cell;
use std::rc::Rc;

/// Virtual nanoseconds since simulation start.
pub type Nanos = u64;

/// One nanosecond expressed in [`Nanos`].
pub const NANOS_PER_SEC: Nanos = 1_000_000_000;

/// A shareable virtual clock.
///
/// Cloning a `Clock` yields another handle on the same timeline.
#[derive(Clone, Debug, Default)]
pub struct Clock {
    now: Rc<Cell<Nanos>>,
}

impl Clock {
    /// Creates a clock at time zero.
    pub fn new() -> Clock {
        Clock::default()
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.now.get()
    }

    /// Advances the clock by `ns` nanoseconds and returns the new time.
    pub fn advance(&self, ns: Nanos) -> Nanos {
        let now = self.now.get() + ns;
        self.now.set(now);
        now
    }

    /// Current time in (virtual) seconds as a float, for reporting.
    pub fn seconds(&self) -> f64 {
        self.now() as f64 / NANOS_PER_SEC as f64
    }

    /// Runs `f` and returns the virtual time it consumed alongside its
    /// result.
    pub fn measure<T>(&self, f: impl FnOnce() -> T) -> (T, Nanos) {
        let start = self.now();
        let out = f();
        (out, self.now() - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let c = Clock::new();
        assert_eq!(c.now(), 0);
        assert_eq!(c.advance(5), 5);
        assert_eq!(c.advance(10), 15);
        assert_eq!(c.now(), 15);
    }

    #[test]
    fn clones_share_the_timeline() {
        let a = Clock::new();
        let b = a.clone();
        a.advance(100);
        assert_eq!(b.now(), 100);
        b.advance(1);
        assert_eq!(a.now(), 101);
    }

    #[test]
    fn seconds_conversion() {
        let c = Clock::new();
        c.advance(NANOS_PER_SEC / 2);
        assert!((c.seconds() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn measure_reports_consumed_time() {
        let c = Clock::new();
        let (out, spent) = c.measure(|| {
            c.advance(42);
            "done"
        });
        assert_eq!(out, "done");
        assert_eq!(spent, 42);
    }
}
