//! Service-wide counters: what the scheduler did and how well
//! coalescing amortized launches.

use std::time::Duration;

use desim::Json;

/// Snapshot of the service's behaviour since start.
#[derive(Debug, Clone, Default)]
pub struct ServeMetrics {
    /// Jobs admitted past the queue limit check.
    pub jobs_accepted: u64,
    /// Jobs refused with a retry-after.
    pub jobs_rejected: u64,
    /// Jobs that reached a terminal `Completed` event.
    pub jobs_completed: u64,
    /// Jobs that reached a terminal `Failed` event.
    pub jobs_failed: u64,
    /// Coalesced batches dispatched to the worker pool.
    pub dispatches: u64,
    /// Total stimulus across all dispatched batches.
    pub stimulus_dispatched: u64,
    /// Histogram of dispatched batch sizes (stimulus); bucket `i` counts
    /// batches with `2^i <= size < 2^(i+1)`, bucket 0 also holds size 1.
    pub batch_size_buckets: [u64; 24],
    /// Sum / max of real time jobs spent between admission and dispatch.
    pub queue_wait_total: Duration,
    pub queue_wait_max: Duration,
    /// Warm program-cache hits / misses (per dispatch, keyed by design hash).
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// EWMA of real service time per stimulus, feeding retry-after.
    pub ewma_service_per_job: Duration,
    /// Dispatches routed through the multi-device sharded executor.
    pub pool_dispatches: u64,
    /// Work-steal operations across all pool dispatches.
    pub pool_steals: u64,
    /// Injected device faults across all pool dispatches.
    pub pool_faults: u64,
    /// Groups requeued onto surviving devices after faults.
    pub pool_groups_requeued: u64,
    /// Coalesced batches routed to remote cluster workers.
    pub cluster_dispatches: u64,
    /// Jobs served by those remote batches.
    pub cluster_jobs: u64,
    /// Of those remote batches, the ones that exceeded the per-worker
    /// footprint budget and ran model-parallel (design cut across
    /// workers) instead of data-parallel.
    pub cluster_modelpar_dispatches: u64,
    /// Remote attempts that failed and fell back to local execution.
    pub cluster_fallbacks: u64,
    /// Batches that skipped the cluster because another batch held it
    /// (the dispatch gate lost its try-lock) and ran locally instead.
    pub cluster_busy_skips: u64,
    /// Records fsync'd to the write-ahead job journal (0 without one).
    pub journal_records: u64,
    /// Jobs re-admitted from the journal after a crash (submits that
    /// carried a `recovered_from` link).
    pub jobs_recovered: u64,
}

impl ServeMetrics {
    pub(crate) fn record_dispatch(&mut self, total_stimulus: usize, cache_hit: bool) {
        self.dispatches += 1;
        self.stimulus_dispatched += total_stimulus as u64;
        let bucket = (usize::BITS - 1 - total_stimulus.max(1).leading_zeros()) as usize;
        self.batch_size_buckets[bucket.min(self.batch_size_buckets.len() - 1)] += 1;
        if cache_hit {
            self.cache_hits += 1;
        } else {
            self.cache_misses += 1;
        }
    }

    pub(crate) fn record_wait(&mut self, wait: Duration) {
        self.queue_wait_total += wait;
        self.queue_wait_max = self.queue_wait_max.max(wait);
    }

    pub(crate) fn record_pool(&mut self, pool: &shard::ShardMetrics) {
        self.pool_dispatches += 1;
        self.pool_steals += pool.total_steals;
        self.pool_faults += pool.faults_injected;
        self.pool_groups_requeued += pool.groups_requeued;
    }

    pub(crate) fn record_service_time(&mut self, per_job: Duration) {
        // EWMA, alpha = 1/4: responsive to load shifts, immune to spikes.
        if self.ewma_service_per_job.is_zero() {
            self.ewma_service_per_job = per_job;
        } else {
            self.ewma_service_per_job = (self.ewma_service_per_job * 3 + per_job) / 4;
        }
    }

    /// Fraction of launches saved by coalescing: `1 - dispatches/jobs`.
    /// 0.0 = every job launched alone; approaching 1.0 = many jobs per
    /// launch (the amortization the paper's batch curve rewards).
    pub fn coalescing_efficiency(&self) -> f64 {
        if self.jobs_completed + self.jobs_failed == 0 {
            return 0.0;
        }
        let served = (self.jobs_completed + self.jobs_failed) as f64;
        (1.0 - self.dispatches as f64 / served).max(0.0)
    }

    /// Warm-cache hit rate over dispatches.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / total as f64
    }

    pub fn mean_batch_stimulus(&self) -> f64 {
        if self.dispatches == 0 {
            return 0.0;
        }
        self.stimulus_dispatched as f64 / self.dispatches as f64
    }

    pub fn mean_queue_wait(&self) -> Duration {
        if self.jobs_completed == 0 {
            return Duration::ZERO;
        }
        self.queue_wait_total / self.jobs_completed as u32
    }

    /// Render the metrics as an aligned text table (the `serve-sim`
    /// report). One line per metric; histogram rows only for non-empty
    /// buckets.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let mut row = |k: &str, v: String| {
            out.push_str(&format!("  {k:<28} {v}\n"));
        };
        row("jobs accepted", self.jobs_accepted.to_string());
        row("jobs rejected", self.jobs_rejected.to_string());
        row("jobs completed", self.jobs_completed.to_string());
        row("jobs failed", self.jobs_failed.to_string());
        row("batches dispatched", self.dispatches.to_string());
        row(
            "mean batch size (stimulus)",
            format!("{:.1}", self.mean_batch_stimulus()),
        );
        row(
            "coalescing efficiency",
            format!(
                "{:.1}% (1 - batches/jobs)",
                self.coalescing_efficiency() * 100.0
            ),
        );
        row(
            "program cache hit rate",
            format!(
                "{:.1}% ({}/{})",
                self.cache_hit_rate() * 100.0,
                self.cache_hits,
                self.cache_hits + self.cache_misses
            ),
        );
        row(
            "mean queue wait",
            format!("{:.2} ms", self.mean_queue_wait().as_secs_f64() * 1e3),
        );
        row(
            "max queue wait",
            format!("{:.2} ms", self.queue_wait_max.as_secs_f64() * 1e3),
        );
        row(
            "ewma service / job",
            format!("{:.2} ms", self.ewma_service_per_job.as_secs_f64() * 1e3),
        );
        if self.pool_dispatches > 0 {
            row("pool dispatches", self.pool_dispatches.to_string());
            row("pool steals", self.pool_steals.to_string());
            row("pool faults", self.pool_faults.to_string());
            row(
                "pool groups requeued",
                self.pool_groups_requeued.to_string(),
            );
        }
        if self.journal_records + self.jobs_recovered > 0 {
            row("journal records", self.journal_records.to_string());
            row("jobs recovered", self.jobs_recovered.to_string());
        }
        if self.cluster_dispatches + self.cluster_fallbacks + self.cluster_busy_skips > 0 {
            row("cluster dispatches", self.cluster_dispatches.to_string());
            row("cluster jobs", self.cluster_jobs.to_string());
            row(
                "cluster model-parallel",
                self.cluster_modelpar_dispatches.to_string(),
            );
            row("cluster fallbacks", self.cluster_fallbacks.to_string());
            row("cluster busy skips", self.cluster_busy_skips.to_string());
        }
        out.push_str("  batch-size histogram:\n");
        for (i, &count) in self.batch_size_buckets.iter().enumerate() {
            if count > 0 {
                let lo = 1u64 << i;
                let hi = (1u64 << (i + 1)) - 1;
                out.push_str(&format!("    [{lo:>6} .. {hi:>6}] {count}\n"));
            }
        }
        out
    }

    /// Machine-readable snapshot (`serve-sim --json`).
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .batch_size_buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                Json::obj()
                    .field("min_stimulus", 1u64 << i)
                    .field("count", c)
            })
            .collect();
        Json::obj()
            .field("jobs_accepted", self.jobs_accepted)
            .field("jobs_rejected", self.jobs_rejected)
            .field("jobs_completed", self.jobs_completed)
            .field("jobs_failed", self.jobs_failed)
            .field("dispatches", self.dispatches)
            .field("stimulus_dispatched", self.stimulus_dispatched)
            .field("mean_batch_stimulus", self.mean_batch_stimulus())
            .field("coalescing_efficiency", self.coalescing_efficiency())
            .field("cache_hits", self.cache_hits)
            .field("cache_misses", self.cache_misses)
            .field("cache_hit_rate", self.cache_hit_rate())
            .field(
                "mean_queue_wait_ms",
                self.mean_queue_wait().as_secs_f64() * 1e3,
            )
            .field("max_queue_wait_ms", self.queue_wait_max.as_secs_f64() * 1e3)
            .field(
                "ewma_service_per_job_ms",
                self.ewma_service_per_job.as_secs_f64() * 1e3,
            )
            .field("pool_dispatches", self.pool_dispatches)
            .field("pool_steals", self.pool_steals)
            .field("pool_faults", self.pool_faults)
            .field("pool_groups_requeued", self.pool_groups_requeued)
            .field("cluster_dispatches", self.cluster_dispatches)
            .field("cluster_jobs", self.cluster_jobs)
            .field(
                "cluster_modelpar_dispatches",
                self.cluster_modelpar_dispatches,
            )
            .field("cluster_fallbacks", self.cluster_fallbacks)
            .field("cluster_busy_skips", self.cluster_busy_skips)
            .field("journal_records", self.journal_records)
            .field("jobs_recovered", self.jobs_recovered)
            .field("batch_size_histogram", Json::Arr(buckets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let mut m = ServeMetrics::default();
        m.record_dispatch(1, true); // bucket 0
        m.record_dispatch(3, true); // bucket 1 (2..3)
        m.record_dispatch(4, true); // bucket 2 (4..7)
        m.record_dispatch(1024, false); // bucket 10
        assert_eq!(m.batch_size_buckets[0], 1);
        assert_eq!(m.batch_size_buckets[1], 1);
        assert_eq!(m.batch_size_buckets[2], 1);
        assert_eq!(m.batch_size_buckets[10], 1);
        assert_eq!(m.cache_hits, 3);
        assert_eq!(m.cache_misses, 1);
        assert!((m.cache_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn coalescing_efficiency_tracks_jobs_per_dispatch() {
        let mut m = ServeMetrics {
            jobs_completed: 8,
            dispatches: 2,
            ..Default::default()
        };
        assert!((m.coalescing_efficiency() - 0.75).abs() < 1e-12);
        // One dispatch per job = no amortization.
        m.dispatches = 8;
        assert_eq!(m.coalescing_efficiency(), 0.0);
    }

    #[test]
    fn ewma_converges_toward_recent_samples() {
        let mut m = ServeMetrics::default();
        m.record_service_time(Duration::from_millis(8));
        assert_eq!(m.ewma_service_per_job, Duration::from_millis(8));
        for _ in 0..32 {
            m.record_service_time(Duration::from_millis(2));
        }
        assert!(m.ewma_service_per_job < Duration::from_millis(3));
    }

    #[test]
    fn table_mentions_required_lines() {
        let m = ServeMetrics::default();
        let t = m.table();
        assert!(t.contains("coalescing efficiency"));
        assert!(t.contains("program cache hit rate"));
        assert!(
            !t.contains("pool dispatches"),
            "pool rows only appear once the pool was used"
        );
    }

    #[test]
    fn json_snapshot_carries_pool_counters() {
        let mut m = ServeMetrics::default();
        m.record_dispatch(24, false);
        m.pool_dispatches = 1;
        m.pool_steals = 3;
        let j = m.to_json().to_string();
        assert!(j.contains("\"pool_steals\":3"));
        assert!(j.contains("\"dispatches\":1"));
        assert!(j.contains("\"batch_size_histogram\":[{"));
    }
}
