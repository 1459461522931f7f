//! rtlflow-shard: multi-device sharded batch execution.
//!
//! Splits a batch of N stimulus into per-device shards at *group*
//! granularity and runs them on a [`DevicePool`] of simulated GPUs that
//! share one host. Each device owns its memory, its own instantiated
//! CUDA graph, and a per-device two-stage pipeline; a drained device
//! elastically steals the back half of the largest remaining queue, and
//! an injected device fault requeues the dead device's work onto the
//! survivors — in every case the batch's output digests are bit-identical
//! to a single-device [`pipeline`] run, because stimulus generation is a
//! pure function of `(stimulus id, cycle)` and groups commit only on
//! completion.
//!
//! Entry points mirror the single-device pipeline crate:
//! [`shard_batch`] (functional + timing), [`model_shard_batch`]
//! (timing-only sweeps), [`shard_batch_jobs`] (coalesced multi-job
//! batches for the serve layer).

mod exec;
mod fault;
mod metrics;
mod pool;

pub use exec::{
    model_shard_batch, shard_batch, shard_batch_jobs, ShardConfig, ShardJobResult, ShardResult,
};
pub use fault::FaultSpec;
pub use metrics::{DeviceReport, ShardMetrics};
pub use pool::{DevicePool, DeviceSpec};
