//! Host threads for the functional pass: how many cores the host has,
//! how a modeled group is cut into lane blocks, and the process-wide pool
//! of helper-thread slots that concurrent [`crate::run_groups`] callers
//! share.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Cores of the host (`available_parallelism`), read once.
pub(crate) fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Lanes per block of a `group`-lane modeled group on `cores` cores:
/// an even share of the group rounded up to whole `lane_chunk`s, so the
/// executor chunks the group's lanes at the same boundaries whether or
/// not it is split. One core (or a share that rounds up past the group)
/// gives the whole group.
pub(crate) fn lane_block(group: usize, cores: usize, lane_chunk: usize) -> usize {
    let share = group.div_ceil(cores.max(1));
    group.min(share.next_multiple_of(lane_chunk.max(1)))
}

/// A fixed number of helper-thread slots shared by every caller.
pub(crate) struct SlotPool {
    free: AtomicUsize,
}

impl SlotPool {
    pub(crate) const fn new(capacity: usize) -> SlotPool {
        SlotPool {
            free: AtomicUsize::new(capacity),
        }
    }

    /// Take up to `want` slots without blocking; an empty pool leases 0.
    pub(crate) fn lease(&self, want: usize) -> Lease<'_> {
        let mut got = 0;
        // Relaxed: the count guards no data, only how many threads start.
        let _ = self
            .free
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |free| {
                got = want.min(free);
                Some(free - got)
            });
        Lease {
            pool: self,
            slots: got,
        }
    }
}

/// Slots taken from a [`SlotPool`]; dropping the lease returns them.
pub(crate) struct Lease<'a> {
    pool: &'a SlotPool,
    pub(crate) slots: usize,
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        self.pool.free.fetch_add(self.slots, Ordering::Relaxed);
    }
}

/// The process-wide pool: one slot per core beyond the caller's own, so
/// concurrent callers together never run more threads than there are
/// cores.
pub(crate) fn helpers() -> &'static SlotPool {
    static POOL: OnceLock<SlotPool> = OnceLock::new();
    POOL.get_or_init(|| SlotPool::new(host_cores() - 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_are_whole_chunks_of_one_group() {
        // One core: the group itself.
        assert_eq!(lane_block(1000, 1, 256), 1000);
        assert_eq!(lane_block(300, 1, 7), 300);
        // Two cores: half the group rounded up to the chunk, never more
        // than the group.
        assert_eq!(lane_block(1024, 2, 256), 512);
        assert_eq!(lane_block(300, 2, 256), 256);
        assert_eq!(lane_block(256, 2, 256), 256);
        assert_eq!(lane_block(300, 2, 7), 154);
        assert_eq!(lane_block(7, 2, 7), 7);
        assert_eq!(lane_block(1, 2, 256), 1);
        // A zero chunk counts as one lane, like the executor's.
        assert_eq!(lane_block(9, 2, 0), 5);
    }

    #[test]
    fn leases_never_exceed_capacity_and_return_on_drop() {
        let pool = SlotPool::new(3);
        let a = pool.lease(2);
        assert_eq!(a.slots, 2);
        let b = pool.lease(5);
        assert_eq!(b.slots, 1);
        assert_eq!(pool.lease(1).slots, 0, "an empty pool leases nothing");
        drop(a);
        let c = pool.lease(5);
        assert_eq!(c.slots, 2);
        drop((b, c));
        assert_eq!(pool.lease(usize::MAX).slots, 3);
        assert_eq!(pool.lease(0).slots, 0);
        assert_eq!(SlotPool::new(0).lease(4).slots, 0);
    }
}
