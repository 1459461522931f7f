//! Discrete-event simulation substrate.
//!
//! The reproduction substitutes the paper's physical testbeds (an 80-thread
//! Xeon server and an RTX A6000) with *virtual-time* models. This crate is
//! the shared machinery: a virtual clock in nanoseconds, capacity-limited
//! [`Resource`]s with earliest-slot scheduling, and a [`Trace`] recorder
//! that yields the utilization rates and timelines behind Figures 2, 15
//! and 16.

pub mod backoff;
pub mod json;
pub mod trace;

pub use backoff::Backoff;
pub use json::Json;
pub use trace::{Interval, Trace};

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Virtual time in nanoseconds.
pub type Time = u64;

/// Convenience: nanoseconds from microseconds.
pub const fn us(v: u64) -> Time {
    v * 1_000
}

/// Convenience: nanoseconds from milliseconds.
pub const fn ms(v: u64) -> Time {
    v * 1_000_000
}

/// Format a virtual duration the way the paper's tables do
/// (`1h22m47s`, `2m45s`, `16s`, `850ms`...).
pub fn fmt_duration(t: Time) -> String {
    let total_ms = t / 1_000_000;
    let ms_part = total_ms % 1000;
    let total_s = total_ms / 1000;
    let s = total_s % 60;
    let m = (total_s / 60) % 60;
    let h = total_s / 3600;
    if h > 0 {
        format!("{h}h{m}m{s}s")
    } else if m > 0 {
        format!("{m}m{s}s")
    } else if total_s > 0 {
        format!("{s}s")
    } else {
        format!("{ms_part}ms")
    }
}

/// A capacity-limited execution resource (e.g. "80 CPU threads" is a
/// resource of capacity 80; one GPU copy/compute engine is capacity 1).
///
/// Tasks are placed greedily on the slot that frees up first — classic
/// list scheduling, which is what both Verilator's static scheduler and
/// the CUDA runtime's stream scheduler approximate.
#[derive(Debug, Clone)]
pub struct Resource {
    pub name: String,
    /// Earliest available completion time per slot (min-heap).
    free_at: BinaryHeap<Reverse<Time>>,
    capacity: usize,
}

impl Resource {
    pub fn new(name: impl Into<String>, capacity: usize) -> Self {
        assert!(capacity >= 1, "resource needs at least one slot");
        let mut free_at = BinaryHeap::with_capacity(capacity);
        for _ in 0..capacity {
            free_at.push(Reverse(0));
        }
        Resource {
            name: name.into(),
            free_at,
            capacity,
        }
    }

    /// Number of parallel slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Schedule a task that becomes ready at `ready` and runs for
    /// `duration`; returns its `(start, end)` on the earliest free slot.
    pub fn schedule(&mut self, ready: Time, duration: Time) -> (Time, Time) {
        let Reverse(free) = self.free_at.pop().expect("capacity >= 1");
        let start = free.max(ready);
        let end = start + duration;
        self.free_at.push(Reverse(end));
        (start, end)
    }

    /// Schedule and record the interval in a trace.
    pub fn schedule_traced(
        &mut self,
        ready: Time,
        duration: Time,
        trace: &mut Trace,
        label: &str,
    ) -> (Time, Time) {
        let (start, end) = self.schedule(ready, duration);
        trace.record(&self.name, start, end, label);
        (start, end)
    }

    /// Earliest time any slot is free.
    pub fn earliest_free(&self) -> Time {
        self.free_at.peek().map(|Reverse(t)| *t).unwrap_or(0)
    }

    /// Latest completion across all slots (the resource's makespan).
    pub fn makespan(&self) -> Time {
        self.free_at.iter().map(|Reverse(t)| *t).max().unwrap_or(0)
    }

    /// Reset all slots to time zero.
    pub fn reset(&mut self) {
        let cap = self.capacity;
        self.free_at.clear();
        for _ in 0..cap {
            self.free_at.push(Reverse(0));
        }
    }
}

/// A dependency-aware task-graph scheduler over multiple resources.
///
/// Tasks are submitted in any topological order; each names its
/// predecessors, its resource, and its duration. `finish_time` of the
/// whole graph is the model's makespan.
#[derive(Debug)]
pub struct GraphScheduler {
    resources: Vec<Resource>,
    /// Completion time of each submitted task.
    done_at: Vec<Time>,
}

/// Handle to a scheduled task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskHandle(usize);

impl GraphScheduler {
    pub fn new(resources: Vec<Resource>) -> Self {
        GraphScheduler {
            resources,
            done_at: Vec::new(),
        }
    }

    /// Index of a resource by name.
    pub fn resource(&self, name: &str) -> usize {
        self.resources
            .iter()
            .position(|r| r.name == name)
            .unwrap_or_else(|| panic!("unknown resource `{name}`"))
    }

    /// Submit a task depending on `deps`, ready no earlier than `ready`.
    pub fn submit(
        &mut self,
        resource: usize,
        deps: &[TaskHandle],
        ready: Time,
        duration: Time,
        trace: Option<(&mut Trace, &str)>,
    ) -> TaskHandle {
        let dep_ready = deps.iter().map(|h| self.done_at[h.0]).max().unwrap_or(0);
        let ready = ready.max(dep_ready);
        let (_, end) = match trace {
            Some((tr, label)) => {
                self.resources[resource].schedule_traced(ready, duration, tr, label)
            }
            None => self.resources[resource].schedule(ready, duration),
        };
        self.done_at.push(end);
        TaskHandle(self.done_at.len() - 1)
    }

    /// Completion time of one task.
    pub fn end_of(&self, h: TaskHandle) -> Time {
        self.done_at[h.0]
    }

    /// Makespan across every resource.
    pub fn makespan(&self) -> Time {
        self.resources
            .iter()
            .map(Resource::makespan)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_slot_serializes() {
        let mut r = Resource::new("gpu", 1);
        let (s1, e1) = r.schedule(0, 10);
        let (s2, e2) = r.schedule(0, 10);
        assert_eq!((s1, e1), (0, 10));
        assert_eq!((s2, e2), (10, 20));
        assert_eq!(r.makespan(), 20);
    }

    #[test]
    fn multi_slot_runs_parallel() {
        let mut r = Resource::new("cpu", 4);
        for _ in 0..4 {
            r.schedule(0, 100);
        }
        assert_eq!(r.makespan(), 100);
        // Fifth task waits for a slot.
        let (s, e) = r.schedule(0, 100);
        assert_eq!((s, e), (100, 200));
    }

    #[test]
    fn ready_time_delays_start() {
        let mut r = Resource::new("cpu", 2);
        let (s, _) = r.schedule(500, 10);
        assert_eq!(s, 500);
    }

    #[test]
    fn graph_scheduler_honors_deps() {
        let cpu = Resource::new("cpu", 2);
        let gpu = Resource::new("gpu", 1);
        let mut g = GraphScheduler::new(vec![cpu, gpu]);
        let c = g.resource("cpu");
        let d = g.resource("gpu");
        let t1 = g.submit(c, &[], 0, 100, None);
        let t2 = g.submit(d, &[t1], 0, 50, None);
        assert_eq!(g.end_of(t2), 150);
        // Independent task overlaps on the other cpu slot.
        let t3 = g.submit(c, &[], 0, 100, None);
        assert_eq!(g.end_of(t3), 100);
        assert_eq!(g.makespan(), 150);
    }

    #[test]
    fn duration_formatting_matches_paper_style() {
        assert_eq!(fmt_duration(ms(2 * 60_000 + 45_000)), "2m45s");
        assert_eq!(fmt_duration(ms(16_000)), "16s");
        assert_eq!(
            fmt_duration(ms(1_000 * 3600 + 22 * 60_000 + 47_000)),
            "1h22m47s"
        );
        assert_eq!(fmt_duration(ms(850)), "850ms");
    }

    #[test]
    fn reset_clears_slots() {
        let mut r = Resource::new("cpu", 1);
        r.schedule(0, 100);
        r.reset();
        assert_eq!(r.earliest_free(), 0);
    }
}
