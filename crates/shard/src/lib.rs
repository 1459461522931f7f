//! rtlflow-shard: the multi-device scheduling model.
//!
//! Splits a batch of N stimulus into per-device shards at *group*
//! granularity and times them on a [`DevicePool`] of simulated GPUs that
//! share one host. Each device has its own instantiated CUDA graph and a
//! per-device two-stage pipeline; a drained device elastically steals
//! the back half of the largest remaining queue, and an injected device
//! fault requeues the dead device's work onto the survivors.
//!
//! The scheduler is a pure model of time: it never runs a kernel or
//! reads a stimulus. A group's digests are a pure function of
//! `(stimulus ids, cycles)`, so the digests come from one functional
//! pass (`Flow::simulate`, or `pipeline::run_groups` in serve) and
//! [`model_shard_batch`] only times the schedule; placement, steals and
//! faults can never change a digest.

mod exec;
mod fault;
mod metrics;
mod pool;

pub use exec::{model_shard_batch, ShardConfig};
pub use fault::FaultSpec;
pub use metrics::{DeviceReport, ShardMetrics};
pub use pool::{DevicePool, DeviceSpec};
