//! Analytic timing model of the RTX A6000.
//!
//! Constants come from public A6000 specs (84 SMs, ~1.8 GHz boost,
//! 768 GB/s GDDR6) and from the CUDA call overheads the paper measures
//! around Figure 10 (multi-microsecond stream launches vs. a single graph
//! launch per cycle). The model is first-order on purpose: the
//! reproduction targets the *shape* of the results, and EXPERIMENTS.md
//! records every place where shape is compared against the paper.

use crate::ir::KernelStats;
use desim::Time;

/// CUDA call overheads (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchCosts {
    /// CPU time to launch one kernel into a stream (`cudaLaunchKernel`).
    pub stream_kernel_ns: u64,
    /// CPU time to record/wait one event (cross-stream dependency).
    pub event_ns: u64,
    /// CPU time to launch a whole instantiated CUDA graph.
    pub graph_launch_ns: u64,
    /// Amortized GPU-side scheduling overhead per node inside a graph.
    pub graph_node_ns: u64,
    /// One-time cost per node to instantiate a CUDA graph.
    pub graph_instantiate_node_ns: u64,
    /// Minimum wall time of any kernel, however tiny (driver + dispatch).
    pub min_kernel_ns: u64,
}

impl Default for LaunchCosts {
    fn default() -> Self {
        LaunchCosts {
            stream_kernel_ns: 20_000,
            event_ns: 6_000,
            graph_launch_ns: 8_000,
            graph_node_ns: 350,
            graph_instantiate_node_ns: 9_000,
            min_kernel_ns: 6_000,
        }
    }
}

/// The GPU device model.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuModel {
    /// Streaming multiprocessors.
    pub sms: usize,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// INT32 lanes per SM (Ampere: 64).
    pub int_lanes_per_sm: u32,
    /// Peak DRAM bandwidth in GB/s.
    pub dram_gbps: f64,
    /// Achievable fraction of peak bandwidth for coalesced access.
    pub coalesced_eff: f64,
    /// Fraction of coalesced traffic served by L1/L2 instead of DRAM.
    pub cache_hit: f64,
    /// Slowdown multiplier for gather/scatter (uncoalesced) bytes.
    pub gather_penalty: f64,
    /// Threads per block the transpiler launches with.
    pub threads_per_block: u32,
    pub launch: LaunchCosts,
}

impl Default for GpuModel {
    /// RTX A6000.
    fn default() -> Self {
        GpuModel {
            sms: 84,
            clock_ghz: 1.8,
            int_lanes_per_sm: 64,
            dram_gbps: 768.0,
            coalesced_eff: 0.65,
            cache_hit: 0.90,
            gather_penalty: 6.0,
            threads_per_block: 256,
            launch: LaunchCosts::default(),
        }
    }
}

impl GpuModel {
    /// Derive a heterogeneous-pool variant running at `speed` times this
    /// model's throughput (clock and memory bandwidth scale together, the
    /// way a binned/power-limited part of the same architecture behaves).
    /// The per-kernel duration floor is device-side execution and scales
    /// too; host-side launch overheads (stream/graph launches, events)
    /// stay fixed.
    pub fn scaled(&self, speed: f64) -> GpuModel {
        assert!(speed > 0.0, "device speed factor must be positive");
        let mut m = self.clone();
        m.clock_ghz *= speed;
        m.dram_gbps *= speed;
        m.launch.min_kernel_ns = ((self.launch.min_kernel_ns as f64 / speed) as u64).max(1);
        m
    }

    /// Number of thread blocks a kernel over `n_threads` stimulus needs.
    pub fn blocks_for(&self, n_threads: usize) -> usize {
        n_threads.div_ceil(self.threads_per_block as usize).max(1)
    }

    /// Execution time of ONE thread block of a kernel (ns): the larger of
    /// its compute time and its memory time, as in a roofline model.
    pub fn block_time(&self, stats: &KernelStats) -> Time {
        let threads = self.threads_per_block as f64;
        // Compute: alu ops issued over the SM's int lanes.
        let compute_ns =
            stats.alu_ops as f64 * threads / (self.int_lanes_per_sm as f64 * self.clock_ghz);
        // Memory: per-SM share of DRAM bandwidth; gathers pay the penalty.
        let per_sm_bw = self.dram_gbps * self.coalesced_eff / self.sms as f64; // GB/s == bytes/ns
        let eff_bytes = stats.bytes as f64 * (1.0 - self.cache_hit)
            + stats.gather_bytes as f64 * self.gather_penalty * (1.0 - self.cache_hit);
        let mem_ns = eff_bytes * threads / per_sm_bw;
        let busy = compute_ns.max(mem_ns);
        // Fixed block dispatch overhead.
        (busy as u64).saturating_add(300)
    }

    /// Standalone duration of a kernel over `n_threads`, assuming an idle
    /// GPU (blocks wave-scheduled over the SM pool).
    pub fn kernel_time(&self, stats: &KernelStats, n_threads: usize) -> Time {
        let blocks = self.blocks_for(n_threads);
        let waves = blocks.div_ceil(self.sms) as u64;
        (waves * self.block_time(stats)).max(self.launch.min_kernel_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(alu: u64, bytes: u64) -> KernelStats {
        KernelStats {
            alu_ops: alu,
            loads: bytes / 8,
            stores: 0,
            bytes,
            gather_ops: 0,
            gather_bytes: 0,
        }
    }

    #[test]
    fn bigger_kernels_take_longer() {
        let m = GpuModel::default();
        assert!(m.block_time(&stats(1000, 64)) > m.block_time(&stats(10, 64)));
        assert!(m.block_time(&stats(10, 4096)) > m.block_time(&stats(10, 64)));
    }

    #[test]
    fn kernel_time_scales_with_waves() {
        // Large enough that the minimum-kernel floor does not bind.
        let m = GpuModel::default();
        let s = stats(20_000, 4096);
        let small = m.kernel_time(&s, 256); // 1 block
        let big = m.kernel_time(&s, 256 * 84 * 4); // 4 waves
        assert!(
            big >= small * 3,
            "waves must scale duration: {small} vs {big}"
        );
    }

    #[test]
    fn sub_wave_batches_cost_the_same() {
        // Up to one wave, adding stimulus is free — the data-parallelism
        // headroom that makes batch simulation win (Figure 13's flat
        // region for RTLflow).
        let m = GpuModel::default();
        let s = stats(20_000, 4096);
        assert_eq!(m.kernel_time(&s, 256), m.kernel_time(&s, 84 * 256));
    }

    #[test]
    fn gather_traffic_is_penalized() {
        let m = GpuModel::default();
        let coalesced = KernelStats {
            bytes: 1024,
            ..Default::default()
        };
        let gathered = KernelStats {
            gather_bytes: 1024,
            gather_ops: 128,
            ..Default::default()
        };
        assert!(m.block_time(&gathered) > m.block_time(&coalesced) * 3);
    }

    #[test]
    fn min_kernel_time_floors_tiny_kernels() {
        let m = GpuModel::default();
        let s = stats(1, 8);
        assert_eq!(m.kernel_time(&s, 32), m.launch.min_kernel_ns);
    }
}
