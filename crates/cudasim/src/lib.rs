//! `cudasim` — a functional + timed model of a CUDA GPU, standing in for
//! the RTX A6000 the paper runs on.
//!
//! The model has two faces:
//!
//! * **Functional**: [`ir::Kernel`]s are straight-line SIMT programs over
//!   the paper's width-bucketed global arrays (`var8/var16/var32/var64`,
//!   §3.1.2), laid out `array[offset * N + tid]` (§3.1.3). The
//!   [`device::DeviceMemory`] executor runs every op across a range of
//!   threads (one thread = one stimulus), bit-exactly.
//! * **Timed**: [`model::GpuModel`] converts a kernel's static op counts
//!   into block execution times on a virtual A6000 (SM pool, int32
//!   throughput, DRAM bandwidth with a coalescing factor), and charges the
//!   CUDA call overheads that Table 4 is about: per-kernel stream
//!   launches, event waits, and whole-graph launches.
//!
//! [`graph::CudaGraph`] is the define-once-run-repeatedly execution model
//! (§3.2.2); [`graph::StreamExec`] is the stream/event baseline
//! implementing the capture algorithm of [23, 24] (level-ordered,
//! round-robin over a fixed number of streams).

pub mod bitplane;
pub mod checkpoint;
pub mod device;
pub mod exec;
pub mod fuse;
pub mod graph;
pub mod ir;
pub mod model;

pub use bitplane::{
    pack_bit_lanes, unpack_bit_lanes, BOp, BitLayout, BitProgram, BitplaneMemory, EscapeRead,
};
pub use checkpoint::{Checkpoint, CheckpointError};
pub use device::{execute_kernel, DeviceMemory, Scratch};
pub use exec::{
    execute_fused, execute_ordered, run_order, ExecConfig, ExecSpecError, ExecStrategy,
    DEFAULT_BLOCK, DEFAULT_LANE_CHUNK,
};
pub use fuse::{
    fuse_graph, fuse_graph_with, fuse_kernel, fuse_kernel_with, ExecStats, FOp, FuseConfig,
    FuseStats, FusedKernel, SlotUniform,
};
pub use graph::{CudaGraph, CycleTiming, ExecMode, GpuRuntime, StreamExec};
pub use ir::{Bucket, KBin, KUn, Kernel, KernelStats, Op, Slot, TaskGraphIr};
pub use model::{GpuModel, LaunchCosts};
