//! The coalescer: packs compatible queued jobs into large SIMT batches.
//!
//! Jobs bin by [`CompatKey`] (same DUT structure, same cycle horizon).
//! A bin flushes when
//!
//! * **full** — packing one more job would overflow the max-batch knob,
//!   or the bin reaches it exactly;
//! * **deadline** — its deadline, the earliest `join time + class
//!   window` over its jobs, has passed. This is the upper bound on how
//!   long any job waits;
//! * **idle** — a worker is idle and no job has joined the bin for one
//!   quiet period, the shortest class window
//!   (`DeadlineClass::Interactive.window(base)`). Holding a burst that has
//!   stopped growing cannot make its launch any larger, and the free
//!   worker would only sit idle. While every worker is busy the rule is
//!   off, so bins keep growing under load.
//!
//! The coalescer does no I/O and reads no clock: callers pass `now` and
//! whether a worker is idle, so every rule is testable on explicit
//! instants.
//!
//! **Correctness invariant** (tested in `tests/serve_coalescing.rs`):
//! coalescing only concatenates sources via `StackedSource`; each job
//! keeps its own stimulus indices and seed, so per-job results are
//! bit-identical to a standalone run. Coalescing affects *when* work
//! runs and how large the launch is — never what it computes.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::job::{CompatKey, DeadlineClass, Job};

/// Why a bin was flushed (counted in [`crate::ServeMetrics`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlushReason {
    /// The bin reached (or would have overflowed) `max_batch`.
    Full,
    /// The bin's class deadline passed.
    Deadline,
    /// A worker was idle and the bin had been quiet for one quiet period.
    Idle,
    /// The service was shutting down.
    Shutdown,
}

/// A flushed, ready-to-run batch of compatible jobs.
pub(crate) struct Batch {
    pub key: CompatKey,
    pub jobs: Vec<Job>,
    pub total_stimulus: usize,
    pub reason: FlushReason,
}

struct Bin {
    jobs: Vec<Job>,
    total: usize,
    deadline: Instant,
    /// When the most recent job joined: the quiet period runs from here.
    last_join: Instant,
}

pub(crate) struct Coalescer {
    max_batch: usize,
    base_window: Duration,
    quiet: Duration,
    bins: HashMap<CompatKey, Bin>,
}

impl Coalescer {
    pub fn new(max_batch: usize, base_window: Duration) -> Self {
        Coalescer {
            max_batch: max_batch.max(1),
            base_window,
            quiet: DeadlineClass::Interactive.window(base_window),
            bins: HashMap::new(),
        }
    }

    /// Accept one job; returns a batch if the job's bin had to flush.
    pub fn add(&mut self, job: Job, now: Instant) -> Option<Batch> {
        let key = job.key;
        let n = job.num_stimulus();
        let deadline = now + job.class.window(self.base_window);

        let mut flushed = None;
        if let Some(bin) = self.bins.get_mut(&key) {
            if bin.total + n > self.max_batch {
                // The newcomer would overflow: ship the bin as-is first.
                flushed = self.take(key, FlushReason::Full);
            }
        }
        let bin = self.bins.entry(key).or_insert_with(|| Bin {
            jobs: Vec::new(),
            total: 0,
            deadline,
            last_join: now,
        });
        bin.total += n;
        bin.deadline = bin.deadline.min(deadline);
        bin.last_join = now;
        bin.jobs.push(job);
        if bin.total >= self.max_batch {
            // Full (or a single over-sized job): dispatch immediately.
            debug_assert!(flushed.is_none(), "a bin cannot flush twice per add");
            flushed = self.take(key, FlushReason::Full);
        }
        flushed
    }

    /// Flush every bin whose deadline has passed, and — when a worker is
    /// `idle` — every bin that has been quiet for the quiet period.
    pub fn poll(&mut self, now: Instant, idle: bool) -> Vec<Batch> {
        let due: Vec<(CompatKey, FlushReason)> = self
            .bins
            .iter()
            .filter_map(|(k, b)| {
                if b.deadline <= now {
                    Some((*k, FlushReason::Deadline))
                } else if idle && b.last_join + self.quiet <= now {
                    Some((*k, FlushReason::Idle))
                } else {
                    None
                }
            })
            .collect();
        due.into_iter()
            .filter_map(|(k, reason)| self.take(k, reason))
            .collect()
    }

    /// The next instant [`Coalescer::poll`] could flush a bin — how long
    /// the scheduler may sleep. With an `idle` worker that is the earlier
    /// of a bin's deadline and the end of its quiet period.
    pub fn next_deadline(&self, idle: bool) -> Option<Instant> {
        self.bins
            .values()
            .map(|b| {
                if idle {
                    b.deadline.min(b.last_join + self.quiet)
                } else {
                    b.deadline
                }
            })
            .min()
    }

    /// Flush everything (shutdown path).
    pub fn flush_all(&mut self) -> Vec<Batch> {
        let keys: Vec<CompatKey> = self.bins.keys().copied().collect();
        keys.into_iter()
            .filter_map(|k| self.take(k, FlushReason::Shutdown))
            .collect()
    }

    fn take(&mut self, key: CompatKey, reason: FlushReason) -> Option<Batch> {
        let bin = self.bins.remove(&key)?;
        Some(Batch {
            key,
            jobs: bin.jobs,
            total_stimulus: bin.total,
            reason,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{design_hash, DeadlineClass, JobHandle, JobId};
    use std::sync::Arc;
    use std::time::Duration;
    use stimulus::{PortMap, RandomSource};

    fn tiny_design() -> Arc<rtlir::Design> {
        let v = "module top(input clk, input rst, input [3:0] a, output [3:0] q);
                 reg [3:0] r; always @(posedge clk) r <= rst ? 4'd0 : a;
                 assign q = r; endmodule";
        Arc::new(rtlir::elaborate(v, "top").unwrap())
    }

    fn job(design: &Arc<rtlir::Design>, n: usize, cycles: u64, class: DeadlineClass) -> Job {
        let map = PortMap::from_design(design);
        let id = JobId::fresh();
        let (_h, events) = JobHandle::new(id);
        Job {
            id,
            design: Arc::clone(design),
            source: Box::new(RandomSource::new(&map, n, 1)),
            class,
            want_vcd: false,
            key: CompatKey {
                design: design_hash(design),
                cycles,
            },
            accepted_at: Instant::now(),
            events,
        }
    }

    #[test]
    fn fills_to_max_batch_then_flushes() {
        let d = tiny_design();
        let mut c = Coalescer::new(100, Duration::from_millis(50));
        let now = Instant::now();
        assert!(c.add(job(&d, 40, 10, DeadlineClass::Batch), now).is_none());
        assert!(c.add(job(&d, 40, 10, DeadlineClass::Batch), now).is_none());
        // 40+40+40 > 100: the bin ships with 80, the newcomer starts fresh.
        let b = c.add(job(&d, 40, 10, DeadlineClass::Batch), now).unwrap();
        assert_eq!(b.total_stimulus, 80);
        assert_eq!(b.jobs.len(), 2);
        assert_eq!(b.reason, FlushReason::Full);
        assert!(
            c.next_deadline(false).is_some(),
            "the newcomer stays binned"
        );
    }

    #[test]
    fn exact_fill_dispatches_immediately() {
        let d = tiny_design();
        let mut c = Coalescer::new(64, Duration::from_millis(50));
        let now = Instant::now();
        let b = c.add(job(&d, 64, 10, DeadlineClass::Batch), now).unwrap();
        assert_eq!(b.total_stimulus, 64);
        assert_eq!(b.reason, FlushReason::Full);
        assert!(c.next_deadline(false).is_none());
    }

    #[test]
    fn oversized_job_runs_alone() {
        let d = tiny_design();
        let mut c = Coalescer::new(16, Duration::from_millis(50));
        let b = c
            .add(job(&d, 100, 10, DeadlineClass::Batch), Instant::now())
            .unwrap();
        assert_eq!(b.total_stimulus, 100);
        assert_eq!(b.jobs.len(), 1);
    }

    #[test]
    fn different_cycles_do_not_coalesce() {
        let d = tiny_design();
        let mut c = Coalescer::new(1000, Duration::from_millis(50));
        let now = Instant::now();
        c.add(job(&d, 8, 10, DeadlineClass::Batch), now);
        c.add(job(&d, 8, 20, DeadlineClass::Batch), now);
        let batches = c.flush_all();
        assert_eq!(batches.len(), 2, "unequal horizons must stay separate");
    }

    #[test]
    fn window_expiry_flushes_and_interactive_shrinks_it() {
        let d = tiny_design();
        let mut c = Coalescer::new(1000, Duration::from_millis(80));
        let t0 = Instant::now();
        c.add(job(&d, 4, 10, DeadlineClass::Interactive), t0);
        // Interactive window = 80/4 = 20ms: nothing due at 10ms...
        assert!(c.poll(t0 + Duration::from_millis(10), false).is_empty());
        // ...due at 25ms, well before the 80ms base window.
        let due = c.poll(t0 + Duration::from_millis(25), false);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].reason, FlushReason::Deadline);
        // A batch-class job would still be pending at that age.
        c.add(job(&d, 4, 10, DeadlineClass::Batch), t0);
        assert!(c.poll(t0 + Duration::from_millis(25), false).is_empty());
        assert_eq!(c.poll(t0 + Duration::from_millis(85), false).len(), 1);
    }

    #[test]
    fn deadline_is_min_over_jobs() {
        let d = tiny_design();
        let mut c = Coalescer::new(1000, Duration::from_millis(80));
        let t0 = Instant::now();
        c.add(job(&d, 4, 10, DeadlineClass::Bulk), t0);
        let bulk_deadline = c.next_deadline(false).unwrap();
        c.add(job(&d, 4, 10, DeadlineClass::Interactive), t0);
        let tightened = c.next_deadline(false).unwrap();
        assert!(
            tightened < bulk_deadline,
            "an interactive job tightens its bin's deadline"
        );
    }

    /// Base window 80 ms: quiet period 20 ms, Bulk deadline 320 ms.
    fn bulk_bin(c: &mut Coalescer, d: &Arc<rtlir::Design>, t0: Instant) {
        c.add(job(d, 4, 10, DeadlineClass::Bulk), t0);
        c.add(job(d, 4, 10, DeadlineClass::Bulk), t0 + ms(1));
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn idle_worker_and_quiet_bin_flush_early() {
        let d = tiny_design();
        let mut c = Coalescer::new(1000, ms(80));
        let t0 = Instant::now();
        bulk_bin(&mut c, &d, t0);
        // The quiet period runs from the last join (t0 + 1 ms).
        assert_eq!(c.next_deadline(true), Some(t0 + ms(21)));
        assert!(c.poll(t0 + ms(20), true).is_empty());
        let due = c.poll(t0 + ms(21), true);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].reason, FlushReason::Idle);
        assert_eq!(due[0].jobs.len(), 2);
        assert!(c.next_deadline(true).is_none());
    }

    #[test]
    fn busy_workers_keep_a_quiet_bin_until_its_deadline() {
        let d = tiny_design();
        let mut c = Coalescer::new(1000, ms(80));
        let t0 = Instant::now();
        bulk_bin(&mut c, &d, t0);
        assert_eq!(c.next_deadline(false), Some(t0 + ms(320)));
        assert!(c.poll(t0 + ms(200), false).is_empty());
        // A job joining while busy restarts the quiet period.
        c.add(job(&d, 4, 10, DeadlineClass::Bulk), t0 + ms(200));
        assert!(c.poll(t0 + ms(210), true).is_empty());
        let due = c.poll(t0 + ms(320), false);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].reason, FlushReason::Deadline);
        assert_eq!(due[0].jobs.len(), 3);
    }

    #[test]
    fn steady_trickle_flushes_only_at_the_deadline() {
        let d = tiny_design();
        let mut c = Coalescer::new(1000, ms(80));
        let t0 = Instant::now();
        // A join every 15 ms (< the 20 ms quiet period), idle throughout:
        // polled just before each next join, the bin is never quiet.
        for k in 0..22 {
            let t = t0 + ms(15 * k);
            c.add(job(&d, 1, 10, DeadlineClass::Bulk), t);
            let before_next = (t + ms(14)).min(t0 + ms(319));
            assert!(c.poll(before_next, true).is_empty(), "flushed at join {k}");
        }
        let due = c.poll(t0 + ms(320), true);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].reason, FlushReason::Deadline);
        assert_eq!(due[0].jobs.len(), 22);
    }

    #[test]
    fn idle_rule_leaves_full_and_shutdown_flushes_alone() {
        let d = tiny_design();
        let mut c = Coalescer::new(8, ms(80));
        let t0 = Instant::now();
        assert!(c.add(job(&d, 6, 10, DeadlineClass::Bulk), t0).is_none());
        // Overflow ships the old bin whole, whatever the idle state.
        let b = c.add(job(&d, 6, 10, DeadlineClass::Bulk), t0).unwrap();
        assert_eq!((b.total_stimulus, b.reason), (6, FlushReason::Full));
        let rest = c.flush_all();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].reason, FlushReason::Shutdown);
    }
}
