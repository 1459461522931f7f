//! `cluster` — fault-tolerant multi-node distributed simulation over TCP.
//!
//! The paper accelerates batch-stimulus RTL simulation on one GPU; this
//! crate is the layer that takes the flow beyond one host (in the spirit
//! of Parendi's thousand-way partitioning, see PAPERS.md): a
//! **controller** cuts a coalesced batch into stimulus groups and
//! schedules them over TCP onto registered **workers**, each of which
//! runs the same warm per-design engine
//! ([`rtlir::design_hash`]-keyed) through the existing
//! `pipeline`/`cudasim` fused executor and streams result chunks
//! back as groups complete.
//!
//! Everything is `std`-only — `std::net::TcpStream` and a hand-rolled
//! length-prefixed binary wire protocol ([`wire`]) — so the workspace
//! stays fully offline.
//!
//! # Fault tolerance
//!
//! The failure model mirrors `shard::fault`, one layer up:
//!
//! * group inputs are materialized controller-side as a pure function of
//!   `(stimulus id, cycle)` and shipped with each dispatch, so re-running
//!   a group anywhere is idempotent;
//! * digests commit only when a result chunk arrives (first commit
//!   wins), so partial work from a dying worker cannot leak;
//! * a dead worker — detected by EOF, a wire error, or a heartbeat
//!   timeout — has its in-flight group and backlog requeued round-robin
//!   onto survivors, and workers reconnect with exponential backoff so a
//!   batch stranded with zero workers can adopt a returning one;
//! * with a `checkpoint_interval` configured, workers ship mid-group
//!   device snapshots (versioned, checksummed [`cudasim::Checkpoint`]
//!   images over the v2 `Checkpoint` frame), and a requeued group
//!   resumes on a survivor from its last checkpointed cycle instead of
//!   cycle 0 — still bit-identical, because the per-cycle step is a pure
//!   function of (device state, that cycle's inputs).
//!
//! Results are therefore bit-identical regardless of worker count,
//! capacities, mid-run deaths, or checkpoint resumes — verified end to
//! end by `tests/cluster_determinism.rs` against single-process
//! `Flow::simulate`, and under scripted [`chaos::ChaosPlan`] fault
//! campaigns.
//!
//! # Model parallelism (wire v3)
//!
//! Besides the batch axis, the controller can cut the *design* into K
//! parts ([`partition::PartitionSpec`]) and co-simulate one group across
//! K workers ([`Controller::run_batch_modelpar`]): each worker compiles
//! its part's sub-design ([`modelpar::PartEngine`]) and exchanges packed
//! boundary-signal frames ([`wire::BoundaryFrame`], width-bucketed with
//! bit-transposed 1-bit nets) once per cycle, relayed by the controller.
//! Exchange latency overlaps with the part levels that don't depend on
//! remote inputs; a partition-replica death rolls every part back to the
//! deepest common checkpoint cycle and re-dispatches under a bumped
//! epoch, preserving bit-identical digests.
//!
//! # Dispatch cost (wire v4)
//!
//! Getting stimulus to the evaluator is the paper's bottleneck (§2.4.3),
//! so the dispatch path sleeps nowhere, copies nothing twice and ships
//! nothing wider than it is: a worker's reply goes out the moment its
//! group finishes (the compute-time heartbeat ticker waits on a
//! [`StopFlag`], woken on completion), every `u64` array travels at the
//! narrowest power-of-two width that holds its elements, and a dispatch
//! is encoded by reference from the batch's frame block into a buffer
//! its connection reuses. See [`wire`] for the encoding and its bounds.

pub mod chaos;
pub mod controller;
pub mod error;
pub mod metrics;
pub mod stop;
pub mod wire;
pub mod worker;

pub use chaos::ChaosPlan;
pub use controller::{ClusterConfig, Controller};
pub use error::ClusterError;
pub use metrics::{ClusterMetrics, WorkerReport};
pub use stop::StopFlag;
pub use wire::{
    BoundaryFrame, CheckpointUpdate, Frame, PartCheckpointUpdate, PartDispatch, PartResult,
    WireError, MAX_PAYLOAD, VERSION,
};
pub use worker::{run_worker, spawn_worker, FaultMode, GroupFault, WorkerConfig, WorkerFault};
