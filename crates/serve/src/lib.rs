//! rtlflow-serve — a continuous-batching simulation service.
//!
//! The paper's core economics (one GPU thread per stimulus; per-launch
//! overhead amortized across the batch, Figure 12) reward *large*
//! batches — but real verification traffic arrives as many small,
//! independent jobs from many clients. This crate closes that gap the
//! same way LLM inference stacks do: an admission-controlled queue
//! feeds a **coalescer** that packs compatible jobs (same DUT
//! structure, same cycle horizon) into one large launch per dispatch
//! window, and a worker pool runs each launch through
//! [`pipeline::run_groups`] with a warm per-design program cache.
//!
//! # Correctness contract
//!
//! Coalescing is **bit-invisible**: every [`StimulusSource`] is a pure
//! function of `(stimulus, cycle)`, each job keeps its own seed and
//! local indices inside the stacked batch, and each job gets back
//! exactly its own digest slice. A coalesced job's results are
//! bit-identical to running the same spec alone — the integration test
//! `serve_coalescing.rs` proves this against `Flow::simulate`.
//!
//! # Crash resilience
//!
//! With [`ServeConfig::journal`] set, every accepted job is fsync'd to
//! a write-ahead [`journal`] before `submit` returns, and every
//! dispatch/terminal transition follows it. After a crash (simulated by
//! [`SimService::crash`]), [`journal::pending`] replays the journal and
//! names exactly the accepted-but-unfinished jobs; re-admitting them
//! via [`JobSpec::recovered_from`] journals the supersession link and
//! — because every stimulus source is a pure function of
//! `(stimulus, cycle)` — reproduces bit-identical digests. Proven end
//! to end by `tests/serve_journal_recovery.rs`.
//!
//! # Flow of a job
//!
//! ```text
//! submit(JobSpec) ──admission──► JobQueue ──scheduler──► Coalescer
//!        │ Rejected{retry_after}                │ full bin / window expiry
//!        ▼                                      ▼
//!    JobHandle ◄──Queued/Dispatched/Completed── worker pool
//!                                               │ warm EngineCache
//!                                               ▼
//!                                   pipeline::run_groups
//! ```
//!
//! [`StimulusSource`]: stimulus::StimulusSource

mod coalesce;
mod job;
pub mod journal;
mod metrics;
mod queue;
mod service;
mod synthetic;

pub use job::{
    design_hash, CompatKey, DeadlineClass, JobEvent, JobHandle, JobId, JobResult, JobSpec,
};
pub use journal::{Journal, JournalEvent, JournalRecord, PendingJob};
pub use metrics::ServeMetrics;
pub use queue::{Rejected, SubmitError};
pub use service::{ClusterBackend, ServeConfig, SimService};
pub use synthetic::{replay, TraceConfig, TraceReport};
