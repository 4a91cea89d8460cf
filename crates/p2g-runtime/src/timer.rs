//! Global timers for deadline support.
//!
//! The paper's kernel language lets a program declare a global timer
//! (`timer t1`), poll it from a kernel (`t1 + 100ms`) and reset it
//! (`t1 = now`). A timeout steers the body down an alternate code path that
//! stores to a different field, creating new dependencies — e.g. skipping
//! the encode of a frame whose playback deadline already passed.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// A table of named global timers shared by every kernel instance of a
/// program.
#[derive(Debug, Default)]
pub struct TimerTable {
    timers: Mutex<HashMap<String, Instant>>,
}

impl TimerTable {
    /// Empty table.
    pub fn new() -> TimerTable {
        TimerTable::default()
    }

    /// Declare a timer, starting it now. Re-declaring resets it.
    pub fn declare(&self, name: &str) {
        self.timers.lock().insert(name.to_string(), Instant::now());
    }

    /// Reset a timer to now (`t1 = now`). Declares it if unknown.
    pub(crate) fn reset(&self, name: &str) {
        self.declare(name);
    }

    /// Time elapsed since the timer was last reset. `None` for unknown
    /// timers.
    pub fn elapsed(&self, name: &str) -> Option<Duration> {
        self.timers.lock().get(name).map(|t| t.elapsed())
    }

    /// Poll a deadline condition (`t1 + timeout` in the kernel language):
    /// true when `timeout` has passed since the last reset. Unknown timers
    /// are never expired.
    pub(crate) fn expired(&self, name: &str, timeout: Duration) -> bool {
        self.elapsed(name).is_some_and(|e| e > timeout)
    }

    /// Names of all declared timers.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.timers.lock().keys().cloned().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_and_poll() {
        let t = TimerTable::new();
        t.declare("t1");
        assert!(!t.expired("t1", Duration::from_secs(60)));
        assert!(t.elapsed("t1").is_some());
    }

    #[test]
    fn expiry_after_timeout() {
        let t = TimerTable::new();
        t.declare("t1");
        std::thread::sleep(Duration::from_millis(5));
        assert!(t.expired("t1", Duration::from_millis(1)));
        t.reset("t1");
        assert!(!t.expired("t1", Duration::from_millis(1)));
    }

    #[test]
    fn unknown_timer_never_expired() {
        let t = TimerTable::new();
        assert!(!t.expired("nope", Duration::ZERO));
        assert!(t.elapsed("nope").is_none());
    }

    #[test]
    fn names_sorted() {
        let t = TimerTable::new();
        t.declare("b");
        t.declare("a");
        assert_eq!(t.names(), vec!["a".to_string(), "b".to_string()]);
    }
}
