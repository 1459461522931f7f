//! A stop flag whose waiters wake the moment it is raised.
//!
//! The controller's accept loop and a worker's reconnect loop both pace
//! their retries with a jittered back-off. Slept out, that back-off would
//! hold a shutdown up for as long as the longest delay; waited out on a
//! [`StopFlag`], it ends when the flag goes up.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A shared, one-way "stop" signal. Clones share the flag.
#[derive(Debug, Clone, Default)]
pub struct StopFlag {
    inner: Arc<(Mutex<bool>, Condvar)>,
}

impl StopFlag {
    /// Raise the flag and wake every [`StopFlag::wait`]er. Idempotent.
    pub fn raise(&self) {
        let (raised, cv) = &*self.inner;
        *raised.lock().unwrap_or_else(|e| e.into_inner()) = true;
        cv.notify_all();
    }

    pub fn is_raised(&self) -> bool {
        *self.inner.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Wait up to `delay`; returns `true` as soon as the flag is raised
    /// (immediately, if it already was), `false` once the delay is out.
    pub fn wait(&self, delay: Duration) -> bool {
        let (raised, cv) = &*self.inner;
        let guard = raised.lock().unwrap_or_else(|e| e.into_inner());
        let (guard, _) = cv
            .wait_timeout_while(guard, delay, |raised| !*raised)
            .unwrap_or_else(|e| e.into_inner());
        *guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn wait_runs_the_delay_out_when_nobody_raises() {
        let stop = StopFlag::default();
        let t0 = Instant::now();
        assert!(!stop.wait(Duration::from_millis(20)));
        assert!(t0.elapsed() >= Duration::from_millis(20));
        assert!(!stop.is_raised());
    }

    #[test]
    fn raise_wakes_a_waiter_long_before_its_delay() {
        let stop = StopFlag::default();
        let waiter = {
            let stop = stop.clone();
            std::thread::spawn(move || stop.wait(Duration::from_secs(600)))
        };
        stop.raise();
        // Joining is the assertion: an uninterruptible wait would hold
        // this test for ten minutes.
        assert!(waiter.join().unwrap());
        assert!(stop.is_raised());
        assert!(stop.wait(Duration::from_secs(600)), "already raised");
    }
}
