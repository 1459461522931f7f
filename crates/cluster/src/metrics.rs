//! Cluster-wide and per-worker accounting, accumulated across batches.

use std::time::Duration;

use desim::Json;

/// What one worker connection did over the controller's lifetime.
#[derive(Debug, Clone)]
pub struct WorkerReport {
    /// Controller-assigned worker id.
    pub worker: u32,
    /// Advertised capacity weight from the worker's `Hello`.
    pub capacity: u32,
    /// `false` once the controller declared the worker dead.
    pub alive: bool,
    /// Groups committed by this worker (requeued pickups do not count).
    pub groups: u64,
    /// Result chunks streamed back.
    pub chunks: u64,
    /// Wall time this worker spent with a group in flight.
    pub busy: Duration,
    /// `busy` over the total time the controller spent running batches —
    /// the per-worker utilization of the cluster.
    pub utilization: f64,
    /// Bytes sent to / received from this worker.
    pub bytes_tx: u64,
    pub bytes_rx: u64,
}

/// Counters for the whole cluster since the controller was bound.
#[derive(Debug, Clone, Default)]
pub struct ClusterMetrics {
    pub workers: Vec<WorkerReport>,
    /// Batches completed.
    pub batches: u64,
    /// Group dispatches sent to workers (re-dispatches after requeue
    /// count again — this is the wire-level dispatch count).
    pub dispatches: u64,
    /// Result chunks received and committed.
    pub chunks_committed: u64,
    /// Groups put back onto survivors after a worker death.
    pub requeues: u64,
    /// Workers declared dead (heartbeat timeout, EOF, or wire error).
    pub worker_deaths: u64,
    /// Of those deaths, how many were detected as heartbeat timeouts
    /// (the silent-failure path) rather than closed connections.
    pub heartbeat_timeouts: u64,
    /// Registrations accepted after at least one worker death — a
    /// replacement or a returning worker rejoining the pool.
    pub reconnects: u64,
    /// Total registrations accepted.
    pub registrations: u64,
    /// Registrations refused (bad protocol version / malformed hello).
    pub rejected_hellos: u64,
    /// Mid-group checkpoint frames accepted from workers.
    pub checkpoints_received: u64,
    /// Total bytes of accepted checkpoint images.
    pub checkpoint_bytes: u64,
    /// Re-dispatches that carried a checkpoint image — groups that
    /// resumed from a checkpointed cycle instead of cycle 0.
    pub groups_resumed: u64,
    /// Total cycles those resumed dispatches did *not* have to recompute.
    pub resume_cycles_skipped: u64,
    /// The highest resumed-from cycle seen — > 0 proves mid-batch
    /// resume actually happened.
    pub max_resume_cycle: u64,
    /// Model-parallel groups completed (each spans K workers).
    pub modelpar_groups: u64,
    /// All-K rollbacks after a partition-replica death mid-group.
    pub modelpar_rollbacks: u64,
    /// Boundary-exchange payload bytes received from parts.
    pub boundary_bytes: u64,
    /// Boundary frames received from parts (one per exporting part per
    /// cycle, so `boundary_bytes / boundary_frames` is the per-cycle
    /// per-part exchange size).
    pub boundary_frames: u64,
    /// Exchange latency parts hid behind compute (summed ns).
    pub overlap_hidden_ns: u64,
    /// Time parts spent stalled waiting for boundary frames (summed ns).
    pub exchange_stall_ns: u64,
    /// Time parts spent in their `pre`/`mid`/`post` phases (summed ns).
    /// `overlap_hidden_ns` over this is the share of the compute that ran
    /// with an exchange in flight; unlike the hidden share of the
    /// exchange, it does not move with relay latency or poke cost.
    pub phase_compute_ns: u64,
    /// Wall time spent inside `run_batch` calls.
    pub busy: Duration,
}

impl ClusterMetrics {
    /// Mean utilization across workers that committed work.
    pub fn mean_utilization(&self) -> f64 {
        let active: Vec<&WorkerReport> = self.workers.iter().filter(|w| w.groups > 0).collect();
        if active.is_empty() {
            return 0.0;
        }
        active.iter().map(|w| w.utilization).sum::<f64>() / active.len() as f64
    }

    /// Render the per-worker table plus cluster totals (the
    /// `cluster-sim` report).
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "  {:>4}  {:>4}  {:>6}  {:>7}  {:>7}  {:>9}  {:>6}  {:>9}  {:>9}\n",
            "wkr", "cap", "alive", "groups", "chunks", "busy(ms)", "util%", "tx(B)", "rx(B)"
        ));
        for w in &self.workers {
            out.push_str(&format!(
                "  {:>4}  {:>4}  {:>6}  {:>7}  {:>7}  {:>9.2}  {:>6.1}  {:>9}  {:>9}\n",
                w.worker,
                w.capacity,
                if w.alive { "yes" } else { "DEAD" },
                w.groups,
                w.chunks,
                w.busy.as_secs_f64() * 1e3,
                w.utilization * 100.0,
                w.bytes_tx,
                w.bytes_rx,
            ));
        }
        out.push_str(&format!(
            "  {} batches, {} dispatches, {} chunks committed\n",
            self.batches, self.dispatches, self.chunks_committed
        ));
        out.push_str(&format!(
            "  deaths {} (timeouts {})  requeued {}  reconnects {}  registrations {}\n",
            self.worker_deaths,
            self.heartbeat_timeouts,
            self.requeues,
            self.reconnects,
            self.registrations,
        ));
        out.push_str(&format!(
            "  checkpoints {} ({} B)  resumed {} (skipped {} cycles, deepest cycle {})\n",
            self.checkpoints_received,
            self.checkpoint_bytes,
            self.groups_resumed,
            self.resume_cycles_skipped,
            self.max_resume_cycle,
        ));
        if self.modelpar_groups > 0 || self.modelpar_rollbacks > 0 || self.boundary_frames > 0 {
            let per_frame = self
                .boundary_bytes
                .checked_div(self.boundary_frames)
                .unwrap_or(0);
            let exchange = self.overlap_hidden_ns + self.exchange_stall_ns;
            let hidden_pct = if exchange > 0 {
                self.overlap_hidden_ns as f64 * 100.0 / exchange as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "  model-parallel: {} groups, {} rollbacks  boundary {} B in {} frames \
                 ({per_frame} B/cycle/part)\n",
                self.modelpar_groups,
                self.modelpar_rollbacks,
                self.boundary_bytes,
                self.boundary_frames,
            ));
            out.push_str(&format!(
                "  exchange overlap: {:.2} ms hidden, {:.2} ms stalled ({hidden_pct:.1}% hidden), \
                 {:.2} ms phase compute\n",
                self.overlap_hidden_ns as f64 / 1e6,
                self.exchange_stall_ns as f64 / 1e6,
                self.phase_compute_ns as f64 / 1e6,
            ));
        }
        out
    }

    /// Machine-readable snapshot (`cluster-sim --json`), joining the
    /// same `desim::Json` emission path as serve/shard metrics.
    pub fn to_json(&self) -> Json {
        let workers: Vec<Json> = self
            .workers
            .iter()
            .map(|w| {
                Json::obj()
                    .field("worker", w.worker as u64)
                    .field("capacity", w.capacity as u64)
                    .field("alive", w.alive)
                    .field("groups", w.groups)
                    .field("chunks", w.chunks)
                    .field("busy_ms", w.busy.as_secs_f64() * 1e3)
                    .field("utilization", w.utilization)
                    .field("bytes_tx", w.bytes_tx)
                    .field("bytes_rx", w.bytes_rx)
            })
            .collect();
        Json::obj()
            .field("batches", self.batches)
            .field("dispatches", self.dispatches)
            .field("chunks_committed", self.chunks_committed)
            .field("requeues", self.requeues)
            .field("worker_deaths", self.worker_deaths)
            .field("heartbeat_timeouts", self.heartbeat_timeouts)
            .field("reconnects", self.reconnects)
            .field("registrations", self.registrations)
            .field("rejected_hellos", self.rejected_hellos)
            .field("checkpoints_received", self.checkpoints_received)
            .field("checkpoint_bytes", self.checkpoint_bytes)
            .field("groups_resumed", self.groups_resumed)
            .field("resume_cycles_skipped", self.resume_cycles_skipped)
            .field("max_resume_cycle", self.max_resume_cycle)
            .field("modelpar_groups", self.modelpar_groups)
            .field("modelpar_rollbacks", self.modelpar_rollbacks)
            .field("boundary_bytes", self.boundary_bytes)
            .field("boundary_frames", self.boundary_frames)
            .field("overlap_hidden_ns", self.overlap_hidden_ns)
            .field("exchange_stall_ns", self.exchange_stall_ns)
            .field("phase_compute_ns", self.phase_compute_ns)
            .field("busy_ms", self.busy.as_secs_f64() * 1e3)
            .field("mean_utilization", self.mean_utilization())
            .field("workers", Json::Arr(workers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ClusterMetrics {
        ClusterMetrics {
            workers: vec![
                WorkerReport {
                    worker: 1,
                    capacity: 2,
                    alive: true,
                    groups: 6,
                    chunks: 6,
                    busy: Duration::from_millis(30),
                    utilization: 0.6,
                    bytes_tx: 1000,
                    bytes_rx: 400,
                },
                WorkerReport {
                    worker: 2,
                    capacity: 1,
                    alive: false,
                    groups: 2,
                    chunks: 2,
                    busy: Duration::from_millis(10),
                    utilization: 0.2,
                    bytes_tx: 500,
                    bytes_rx: 200,
                },
            ],
            batches: 1,
            dispatches: 9,
            chunks_committed: 8,
            requeues: 1,
            worker_deaths: 1,
            heartbeat_timeouts: 0,
            reconnects: 0,
            registrations: 2,
            rejected_hellos: 0,
            checkpoints_received: 3,
            checkpoint_bytes: 4096,
            groups_resumed: 1,
            resume_cycles_skipped: 16,
            max_resume_cycle: 16,
            modelpar_groups: 2,
            modelpar_rollbacks: 1,
            boundary_bytes: 2048,
            boundary_frames: 32,
            overlap_hidden_ns: 3_000_000,
            exchange_stall_ns: 1_000_000,
            phase_compute_ns: 5_000_000,
            busy: Duration::from_millis(50),
        }
    }

    #[test]
    fn mean_utilization_ignores_idle_workers() {
        let mut m = sample();
        assert!((m.mean_utilization() - 0.4).abs() < 1e-12);
        m.workers[1].groups = 0;
        assert!((m.mean_utilization() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn table_flags_dead_workers() {
        let t = sample().table();
        assert!(t.contains("DEAD"));
        assert!(t.contains("reconnects"));
        assert!(t.contains("resumed 1"));
        // The model-parallel row reports boundary traffic and overlap.
        assert!(t.contains("2 groups, 1 rollbacks"));
        assert!(t.contains("boundary 2048 B in 32 frames (64 B/cycle/part)"));
        assert!(t.contains("75.0% hidden), 5.00 ms phase compute"));
    }

    #[test]
    fn json_carries_counters_and_worker_array() {
        let j = sample().to_json().to_string();
        assert!(j.contains("\"requeues\":1"));
        assert!(j.contains("\"worker_deaths\":1"));
        assert!(j.contains("\"checkpoints_received\":3"));
        assert!(j.contains("\"groups_resumed\":1"));
        assert!(j.contains("\"max_resume_cycle\":16"));
        assert!(j.contains("\"modelpar_rollbacks\":1"));
        assert!(j.contains("\"boundary_bytes\":2048"));
        assert!(j.contains("\"overlap_hidden_ns\":3000000"));
        assert!(j.contains("\"exchange_stall_ns\":1000000"));
        assert!(j.contains("\"phase_compute_ns\":5000000"));
        assert!(j.contains("\"workers\":[{"));
    }
}
