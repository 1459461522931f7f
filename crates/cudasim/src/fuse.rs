//! Kernel-IR fusion and uniform-slot analysis.
//!
//! Runs once at graph instantiation (like CUDA Graph capture): each
//! [`Kernel`] is lowered to a [`FusedKernel`] whose superops collapse the
//! common chains the transpiler emits — load→binop→store, mux-of-two-loads,
//! shift+and slice extraction — into a single memory sweep, after constant
//! propagation and dead-code elimination. The fused program is cached on
//! the graph so per-cycle execution pays none of this cost.
//!
//! [`SlotUniform`] is the companion static analysis: a greatest-fixpoint
//! computation marking device slots whose value is provably identical
//! across all N stimulus (clock, reset, design constants, un-poked
//! nets). The executor computes ops over uniform values once as scalars
//! and broadcasts only on demotion to per-thread storage.
//!
//! Soundness: a slot keeps its `uniform` flag only if *every* kernel
//! write to it stores a statically-uniform value and indexed scatters
//! into its range are themselves uniform (same word, same value, same
//! predicate across lanes). Host pokes are modeled by the caller passing
//! the poked slots as non-uniform roots. The conservative direction
//! (flag cleared on actually-uniform data) only costs speed, never
//! correctness, because device rows are always fully materialized.
//!
//! Contract: uniform specialization assumes every lane of a device
//! allocation sees the same kernel sequence each cycle (consistent lane
//! ranges). All in-repo callers comply; checkpoint restore from a
//! snapshot of the same program preserves uniformity.

use crate::device::mask;
use crate::ir::{Bucket, KBin, KUn, Kernel, Op, Reg, Slot, TaskGraphIr};

/// One fused SIMT instruction. Base ops mirror [`Op`]; superops carry the
/// fused memory operand so the executor does one sweep instead of two or
/// three. `swapped` means the fused memory/immediate operand sits in the
/// *second* source position of the original binary op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FOp {
    /// `dst = value` (scalar — never materialized unless demoted).
    Const { dst: Reg, value: u64 },
    /// `dst = a`
    Copy { dst: Reg, a: Reg },
    /// `dst = bucket[slot]`; `uniform` = slot provably lane-invariant.
    Load { dst: Reg, slot: Slot, uniform: bool },
    /// `bucket[slot] = src & mask(width)`
    Store { src: Reg, slot: Slot, width: u32 },
    /// `bucket[slot] = value` (pre-masked at fuse time).
    ConstStore { slot: Slot, value: u64 },
    /// Gather; `uniform` = the whole `[offset, offset+depth)` range is
    /// lane-invariant, so a scalar index yields a scalar result.
    LoadIdx {
        dst: Reg,
        slot: Slot,
        idx: Reg,
        depth: u32,
        uniform: bool,
    },
    /// Guarded scatter (per-lane predicate and index).
    StoreIdxCond {
        src: Reg,
        slot: Slot,
        idx: Reg,
        depth: u32,
        pred: Reg,
        width: u32,
    },
    /// `dst = a (op) b`
    Bin {
        op: KBin,
        dst: Reg,
        a: Reg,
        b: Reg,
        width: u32,
    },
    /// `dst = a (op) imm` (or `imm (op) a` when `swapped`).
    BinImm {
        op: KBin,
        dst: Reg,
        a: Reg,
        imm: u64,
        width: u32,
        swapped: bool,
    },
    /// `dst = (op) a`
    Un {
        op: KUn,
        dst: Reg,
        a: Reg,
        width: u32,
    },
    /// `dst = cond ? a : b`
    Mux { dst: Reg, cond: Reg, a: Reg, b: Reg },
    /// Superop: `dst = row (op) b` (row second when `swapped`).
    LoadBin {
        op: KBin,
        dst: Reg,
        slot: Slot,
        b: Reg,
        width: u32,
        swapped: bool,
        uniform: bool,
    },
    /// Superop: `dst = row (op) imm` (operand order per `swapped`).
    LoadBinImm {
        op: KBin,
        dst: Reg,
        slot: Slot,
        imm: u64,
        width: u32,
        swapped: bool,
        uniform: bool,
    },
    /// Superop: `bucket[slot] = (a (op) b)` — bin width <= store width.
    BinStore {
        op: KBin,
        a: Reg,
        b: Reg,
        slot: Slot,
        width: u32,
    },
    /// Superop: `bucket[slot] = (a (op) imm)`.
    BinImmStore {
        op: KBin,
        a: Reg,
        imm: u64,
        slot: Slot,
        width: u32,
        swapped: bool,
    },
    /// Superop: `bucket[slot] = (op) a`.
    UnStore {
        op: KUn,
        a: Reg,
        slot: Slot,
        width: u32,
    },
    /// Superop: `bucket[slot] = (cond ? a : b) & mask(width)`.
    MuxStore {
        cond: Reg,
        a: Reg,
        b: Reg,
        slot: Slot,
        width: u32,
    },
    /// Superop: `dst = cond ? row_a : row_b` — one sweep, two rows.
    MuxLoads {
        dst: Reg,
        cond: Reg,
        slot_a: Slot,
        slot_b: Slot,
        uniform_a: bool,
        uniform_b: bool,
    },
    /// Superop: `dst = (a >> shift) & emask` (slice extraction;
    /// `shift < width` of the original Shr is guaranteed at fuse time).
    Extract {
        dst: Reg,
        a: Reg,
        shift: u32,
        emask: u64,
    },
}

impl FOp {
    /// Register written, if any.
    pub fn dst(&self) -> Option<Reg> {
        match *self {
            FOp::Const { dst, .. }
            | FOp::Copy { dst, .. }
            | FOp::Load { dst, .. }
            | FOp::LoadIdx { dst, .. }
            | FOp::Bin { dst, .. }
            | FOp::BinImm { dst, .. }
            | FOp::Un { dst, .. }
            | FOp::Mux { dst, .. }
            | FOp::LoadBin { dst, .. }
            | FOp::LoadBinImm { dst, .. }
            | FOp::MuxLoads { dst, .. }
            | FOp::Extract { dst, .. } => Some(dst),
            FOp::Store { .. }
            | FOp::ConstStore { .. }
            | FOp::StoreIdxCond { .. }
            | FOp::BinStore { .. }
            | FOp::BinImmStore { .. }
            | FOp::UnStore { .. }
            | FOp::MuxStore { .. } => None,
        }
    }

    /// Registers read.
    pub fn srcs(&self) -> Vec<Reg> {
        match *self {
            FOp::Const { .. }
            | FOp::ConstStore { .. }
            | FOp::Load { .. }
            | FOp::LoadBinImm { .. } => {
                vec![]
            }
            FOp::Copy { a, .. } | FOp::Un { a, .. } | FOp::UnStore { a, .. } => vec![a],
            FOp::Store { src, .. } => vec![src],
            FOp::LoadIdx { idx, .. } => vec![idx],
            FOp::StoreIdxCond { src, idx, pred, .. } => vec![src, idx, pred],
            FOp::Bin { a, b, .. } | FOp::BinStore { a, b, .. } => vec![a, b],
            FOp::BinImm { a, .. } | FOp::BinImmStore { a, .. } | FOp::Extract { a, .. } => {
                vec![a]
            }
            FOp::Mux { cond, a, b, .. } | FOp::MuxStore { cond, a, b, .. } => vec![cond, a, b],
            FOp::LoadBin { b, .. } => vec![b],
            FOp::MuxLoads { cond, .. } => vec![cond],
        }
    }

    /// Mutable references to every register operand: the destination (if
    /// any) and the sources, for in-place renumbering.
    #[allow(clippy::type_complexity)]
    fn regs_mut(&mut self) -> (Option<&mut Reg>, Vec<&mut Reg>) {
        match self {
            FOp::Const { dst, .. } | FOp::Load { dst, .. } | FOp::LoadBinImm { dst, .. } => {
                (Some(dst), vec![])
            }
            FOp::Copy { dst, a } | FOp::Un { dst, a, .. } | FOp::BinImm { dst, a, .. } => {
                (Some(dst), vec![a])
            }
            FOp::Extract { dst, a, .. } => (Some(dst), vec![a]),
            FOp::LoadIdx { dst, idx, .. } => (Some(dst), vec![idx]),
            FOp::Bin { dst, a, b, .. } => (Some(dst), vec![a, b]),
            FOp::Mux { dst, cond, a, b } => (Some(dst), vec![cond, a, b]),
            FOp::LoadBin { dst, b, .. } => (Some(dst), vec![b]),
            FOp::MuxLoads { dst, cond, .. } => (Some(dst), vec![cond]),
            FOp::Store { src, .. } => (None, vec![src]),
            FOp::ConstStore { .. } => (None, vec![]),
            FOp::StoreIdxCond { src, idx, pred, .. } => (None, vec![src, idx, pred]),
            FOp::BinStore { a, b, .. } => (None, vec![a, b]),
            FOp::BinImmStore { a, .. } | FOp::UnStore { a, .. } => (None, vec![a]),
            FOp::MuxStore { cond, a, b, .. } => (None, vec![cond, a, b]),
        }
    }

    /// Does this op write device memory?
    pub fn has_side_effect(&self) -> bool {
        matches!(
            self,
            FOp::Store { .. }
                | FOp::ConstStore { .. }
                | FOp::StoreIdxCond { .. }
                | FOp::BinStore { .. }
                | FOp::BinImmStore { .. }
                | FOp::UnStore { .. }
                | FOp::MuxStore { .. }
        )
    }
}

/// Static fusion statistics, aggregated per kernel then per graph.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuseStats {
    /// Ops in the source kernel IR.
    pub ops_in: u64,
    /// Ops in the fused program.
    pub ops_out: u64,
    /// Superops created by peephole fusion (each replaces >= 2 ops).
    pub superops: u64,
    /// Ops strength-reduced or removed by constant propagation.
    pub consts_folded: u64,
    /// Ops removed by dead-code elimination.
    pub dead_removed: u64,
    /// Loads replaced by the register that was just stored to the row.
    pub stores_forwarded: u64,
}

impl FuseStats {
    pub fn accumulate(&mut self, other: &FuseStats) {
        self.ops_in += other.ops_in;
        self.ops_out += other.ops_out;
        self.superops += other.superops;
        self.consts_folded += other.consts_folded;
        self.dead_removed += other.dead_removed;
        self.stores_forwarded += other.stores_forwarded;
    }
}

/// A fused, cached kernel program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusedKernel {
    pub name: String,
    pub fops: Vec<FOp>,
    pub num_regs: u16,
    pub stats: FuseStats,
}

/// Per-slot lane-invariance flags for the four width buckets.
#[derive(Debug, Clone, Default)]
pub struct SlotUniform {
    flags: [Vec<bool>; 4],
}

fn bidx(b: Bucket) -> usize {
    match b {
        Bucket::B8 => 0,
        Bucket::B16 => 1,
        Bucket::B32 => 2,
        Bucket::B64 => 3,
    }
}

impl SlotUniform {
    /// All slots non-uniform (the "analysis off" element).
    pub fn none(lens: [u32; 4]) -> SlotUniform {
        SlotUniform {
            flags: [
                vec![false; lens[0] as usize],
                vec![false; lens[1] as usize],
                vec![false; lens[2] as usize],
                vec![false; lens[3] as usize],
            ],
        }
    }

    /// Is `slot` provably lane-invariant?
    #[inline]
    pub fn get(&self, slot: Slot) -> bool {
        self.flags[bidx(slot.bucket)]
            .get(slot.offset as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Is the whole `[offset, offset+depth)` range lane-invariant?
    pub fn range(&self, slot: Slot, depth: u32) -> bool {
        (0..depth.max(1)).all(|k| {
            self.get(Slot {
                bucket: slot.bucket,
                offset: slot.offset + k,
            })
        })
    }

    fn clear(&mut self, slot: Slot) -> bool {
        let f = &mut self.flags[bidx(slot.bucket)];
        let i = slot.offset as usize;
        if i < f.len() && f[i] {
            f[i] = false;
            true
        } else {
            false
        }
    }

    fn clear_range(&mut self, slot: Slot, depth: u32) -> bool {
        let mut changed = false;
        for k in 0..depth.max(1) {
            changed |= self.clear(Slot {
                bucket: slot.bucket,
                offset: slot.offset + k,
            });
        }
        changed
    }

    /// Count of uniform slots (for stats).
    pub fn uniform_count(&self) -> usize {
        self.flags
            .iter()
            .map(|f| f.iter().filter(|&&b| b).count())
            .sum()
    }

    /// Total slots tracked.
    pub fn total_count(&self) -> usize {
        self.flags.iter().map(|f| f.len()).sum()
    }

    /// Greatest-fixpoint uniformity analysis over all kernels of `ir`.
    ///
    /// `lens` are the per-bucket element counts of the memory plan;
    /// `roots` are slots the host writes per-lane data into (design
    /// inputs / pokes) — they seed the non-uniform set. Device memory
    /// starts zeroed, so everything else starts uniform and is cleared
    /// until no kernel can break the invariant.
    pub fn analyze(ir: &TaskGraphIr, lens: [u32; 4], roots: &[Slot]) -> SlotUniform {
        let mut u = SlotUniform {
            flags: [
                vec![true; lens[0] as usize],
                vec![true; lens[1] as usize],
                vec![true; lens[2] as usize],
                vec![true; lens[3] as usize],
            ],
        };
        for &r in roots {
            u.clear(r);
        }
        loop {
            let mut changed = false;
            for k in &ir.kernels {
                changed |= sweep_kernel(k, &mut u);
            }
            if !changed {
                break;
            }
        }
        u
    }
}

/// One abstract-interpretation sweep of `kernel`: propagate register
/// uniformity and clear any slot written with a non-uniform value.
/// Returns whether any flag changed.
fn sweep_kernel(kernel: &Kernel, u: &mut SlotUniform) -> bool {
    let mut reg_u = vec![false; kernel.num_regs as usize];
    let mut changed = false;
    for op in &kernel.ops {
        match *op {
            Op::Const { dst, .. } => reg_u[dst as usize] = true,
            Op::Load { dst, slot } => reg_u[dst as usize] = u.get(slot),
            Op::LoadIdx {
                dst,
                slot,
                idx,
                depth,
            } => {
                reg_u[dst as usize] = reg_u[idx as usize] && u.range(slot, depth);
            }
            Op::Bin { dst, a, b, .. } => {
                reg_u[dst as usize] = reg_u[a as usize] && reg_u[b as usize]
            }
            Op::Un { dst, a, .. } => reg_u[dst as usize] = reg_u[a as usize],
            Op::Mux { dst, cond, a, b } => {
                reg_u[dst as usize] = reg_u[cond as usize] && reg_u[a as usize] && reg_u[b as usize]
            }
            Op::Store { src, slot, .. } => {
                if !reg_u[src as usize] {
                    changed |= u.clear(slot);
                }
            }
            Op::StoreIdxCond {
                src,
                slot,
                idx,
                depth,
                pred,
                ..
            } => {
                // Uniform pred+idx+src writes the same word with the same
                // value on every lane (or none); anything else may leave
                // lanes diverged anywhere in the range.
                if !(reg_u[src as usize] && reg_u[idx as usize] && reg_u[pred as usize]) {
                    changed |= u.clear_range(slot, depth);
                }
            }
        }
    }
    changed
}

/// Tunable thresholds of the fuser. Both gates are *op-count floors*: an
/// optimization pass runs only on kernels at least that large, so tiny
/// kernels (where pass overhead can exceed the win) can be skipped. The
/// defaults (0 = always run) reproduce the untuned fuser exactly; every
/// setting is semantics-preserving, so fused programs stay bit-identical
/// to the scalar reference regardless of thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FuseConfig {
    /// Constant propagation / strength reduction runs only on kernels
    /// with at least this many input ops.
    pub const_fold_min_ops: usize,
    /// Peephole superop formation runs only on kernels with at least
    /// this many post-const-prop ops.
    pub superop_min_ops: usize,
}

/// Fuse one kernel: constant propagation → peephole superop formation →
/// dead-code elimination. `uniform` (when available) bakes per-load
/// lane-invariance flags into the program.
pub fn fuse_kernel(kernel: &Kernel, uniform: Option<&SlotUniform>) -> FusedKernel {
    fuse_kernel_with(kernel, uniform, &FuseConfig::default())
}

/// [`fuse_kernel`] with explicit [`FuseConfig`] thresholds.
pub fn fuse_kernel_with(
    kernel: &Kernel,
    uniform: Option<&SlotUniform>,
    cfg: &FuseConfig,
) -> FusedKernel {
    let mut stats = FuseStats {
        ops_in: kernel.ops.len() as u64,
        ..FuseStats::default()
    };
    let uget = |s: Slot| uniform.map(|u| u.get(s)).unwrap_or(false);
    let urange = |s: Slot, d: u32| uniform.map(|u| u.range(s, d)).unwrap_or(false);
    // Constness roots at `Op::Const`; suppressing that single write keeps
    // every fold path dormant, which is how the const-fold gate works
    // without touching the conversion logic below.
    let fold = kernel.ops.len() >= cfg.const_fold_min_ops;

    // Pass A: convert + constant propagation / strength reduction.
    let mut consts: Vec<Option<u64>> = vec![None; kernel.num_regs as usize];
    let mut fops: Vec<FOp> = Vec::with_capacity(kernel.ops.len());
    for op in &kernel.ops {
        let fop = match *op {
            Op::Const { dst, value } => {
                consts[dst as usize] = if fold { Some(value) } else { None };
                FOp::Const { dst, value }
            }
            Op::Load { dst, slot } => {
                consts[dst as usize] = None;
                FOp::Load {
                    dst,
                    slot,
                    uniform: uget(slot),
                }
            }
            Op::Store { src, slot, width } => {
                if let Some(v) = consts[src as usize] {
                    stats.consts_folded += 1;
                    FOp::ConstStore {
                        slot,
                        value: v & mask(width),
                    }
                } else {
                    FOp::Store { src, slot, width }
                }
            }
            Op::LoadIdx {
                dst,
                slot,
                idx,
                depth,
            } => {
                consts[dst as usize] = None;
                if let Some(i) = consts[idx as usize] {
                    stats.consts_folded += 1;
                    if i < depth as u64 {
                        let s = Slot {
                            bucket: slot.bucket,
                            offset: slot.offset + i as u32,
                        };
                        FOp::Load {
                            dst,
                            slot: s,
                            uniform: uget(s),
                        }
                    } else {
                        consts[dst as usize] = Some(0);
                        FOp::Const { dst, value: 0 }
                    }
                } else {
                    FOp::LoadIdx {
                        dst,
                        slot,
                        idx,
                        depth,
                        uniform: urange(slot, depth),
                    }
                }
            }
            Op::StoreIdxCond {
                src,
                slot,
                idx,
                depth,
                pred,
                width,
            } => {
                if consts[pred as usize] == Some(0) {
                    stats.consts_folded += 1;
                    continue;
                }
                match (consts[pred as usize], consts[idx as usize]) {
                    (Some(_nz), Some(i)) => {
                        stats.consts_folded += 1;
                        if i < depth as u64 {
                            let s = Slot {
                                bucket: slot.bucket,
                                offset: slot.offset + i as u32,
                            };
                            if let Some(v) = consts[src as usize] {
                                FOp::ConstStore {
                                    slot: s,
                                    value: v & mask(width),
                                }
                            } else {
                                FOp::Store {
                                    src,
                                    slot: s,
                                    width,
                                }
                            }
                        } else {
                            continue;
                        }
                    }
                    _ => FOp::StoreIdxCond {
                        src,
                        slot,
                        idx,
                        depth,
                        pred,
                        width,
                    },
                }
            }
            Op::Bin {
                op,
                dst,
                a,
                b,
                width,
            } => {
                use crate::device::apply_bin;
                let (ca, cb) = (consts[a as usize], consts[b as usize]);
                consts[dst as usize] = None;
                match (ca, cb) {
                    (Some(va), Some(vb)) => {
                        stats.consts_folded += 1;
                        let v = apply_bin(op, va, vb, width);
                        consts[dst as usize] = Some(v);
                        FOp::Const { dst, value: v }
                    }
                    (Some(va), None) => {
                        stats.consts_folded += 1;
                        bin_imm_or_const(op, dst, b, va, width, true, &mut consts, &mut stats)
                    }
                    (None, Some(vb)) => {
                        stats.consts_folded += 1;
                        bin_imm_or_const(op, dst, a, vb, width, false, &mut consts, &mut stats)
                    }
                    (None, None) => FOp::Bin {
                        op,
                        dst,
                        a,
                        b,
                        width,
                    },
                }
            }
            Op::Un { op, dst, a, width } => {
                if let Some(va) = consts[a as usize] {
                    stats.consts_folded += 1;
                    let v = crate::device::apply_un(op, va, width);
                    consts[dst as usize] = Some(v);
                    FOp::Const { dst, value: v }
                } else {
                    consts[dst as usize] = None;
                    FOp::Un { op, dst, a, width }
                }
            }
            Op::Mux { dst, cond, a, b } => {
                if let Some(c) = consts[cond as usize] {
                    stats.consts_folded += 1;
                    let src = if c != 0 { a } else { b };
                    if let Some(v) = consts[src as usize] {
                        consts[dst as usize] = Some(v);
                        FOp::Const { dst, value: v }
                    } else {
                        consts[dst as usize] = None;
                        FOp::Copy { dst, a: src }
                    }
                } else {
                    consts[dst as usize] = None;
                    FOp::Mux { dst, cond, a, b }
                }
            }
        };
        fops.push(fop);
    }

    // Pass B: store→load forwarding first (it turns row round-trips into
    // register ops), then DCE so dead Consts (absorbed into immediates)
    // don't break adjacency, then peephole superop formation, then a
    // final DCE sweep for loads whose consumer was fused away. Registers
    // are kernel-local, so nothing is live at the end of the kernel.
    let fops = forward_stores(fops, &mut stats);
    let fops = dce(fops, &mut stats);
    let fops = if fops.len() >= cfg.superop_min_ops {
        peephole(fops, &mut stats)
    } else {
        fops
    };
    let fops = dce(fops, &mut stats);

    let (fops, num_regs) = compact_regs(fops);
    stats.ops_out = fops.len() as u64;
    FusedKernel {
        name: kernel.name.clone(),
        fops,
        num_regs,
        stats,
    }
}

/// Lower `reg (op) imm` (operand order per `swapped`: the immediate is
/// the *first* operand when swapped). Folds shifts whose result no longer
/// depends on the register.
#[allow(clippy::too_many_arguments)]
fn bin_imm_or_const(
    op: KBin,
    dst: Reg,
    a: Reg,
    imm: u64,
    width: u32,
    swapped: bool,
    consts: &mut [Option<u64>],
    stats: &mut FuseStats,
) -> FOp {
    // Shift amount >= width zeroes the result regardless of the value
    // operand (Shl/Shr only; Sshr sign-fills, which depends on `a`).
    if !swapped && matches!(op, KBin::Shl | KBin::Shr) && imm >= width as u64 {
        stats.consts_folded += 1;
        consts[dst as usize] = Some(0);
        return FOp::Const { dst, value: 0 };
    }
    FOp::BinImm {
        op,
        dst,
        a,
        imm,
        width,
        swapped,
    }
}

/// Store→load forwarding. A row read back after it was written inside
/// the same kernel takes its value straight from the stored register
/// (masked to what the row would have retained) — or the stored constant
/// — instead of sweeping device memory again. The store itself stays:
/// later kernels and the next cycle may read the row. Inter-level wires
/// become exactly this pattern when the partitioner merges levels into
/// one kernel, which is what makes coarse partitions profitable for the
/// autotuner to discover.
fn forward_stores(fops: Vec<FOp>, stats: &mut FuseStats) -> Vec<FOp> {
    use std::collections::HashMap;

    /// What the most recent write provably left in every lane of a row.
    #[derive(Clone, Copy)]
    enum Avail {
        Reg { src: Reg, mask: u64 },
        Const(u64),
    }

    let bucket_mask = |b: Bucket| mask(8 * b.bytes() as u32);
    let mut avail: HashMap<(usize, u32), Avail> = HashMap::new();
    let mut out = Vec::with_capacity(fops.len());
    for f in fops {
        let f = match f {
            FOp::Load { dst, slot, .. } => match avail.get(&(bidx(slot.bucket), slot.offset)) {
                Some(&Avail::Reg { src, mask: m }) => {
                    stats.stores_forwarded += 1;
                    FOp::BinImm {
                        op: KBin::And,
                        dst,
                        a: src,
                        imm: m,
                        width: 64,
                        swapped: false,
                    }
                }
                Some(&Avail::Const(v)) => {
                    stats.stores_forwarded += 1;
                    FOp::Const { dst, value: v }
                }
                None => f,
            },
            other => other,
        };
        // A register redefinition kills every forward sourced from it.
        if let Some(d) = f.dst() {
            avail.retain(|_, a| !matches!(a, Avail::Reg { src, .. } if *src == d));
        }
        match f {
            FOp::Store { src, slot, width } => {
                avail.insert(
                    (bidx(slot.bucket), slot.offset),
                    Avail::Reg {
                        src,
                        mask: mask(width) & bucket_mask(slot.bucket),
                    },
                );
            }
            FOp::ConstStore { slot, value } => {
                avail.insert(
                    (bidx(slot.bucket), slot.offset),
                    Avail::Const(value & bucket_mask(slot.bucket)),
                );
            }
            // Superop stores leave a value we don't track; indexed
            // scatters clobber an unknown word of their range.
            FOp::BinStore { slot, .. }
            | FOp::BinImmStore { slot, .. }
            | FOp::UnStore { slot, .. }
            | FOp::MuxStore { slot, .. } => {
                avail.remove(&(bidx(slot.bucket), slot.offset));
            }
            FOp::StoreIdxCond { slot, depth, .. } => {
                for d in 0..depth {
                    avail.remove(&(bidx(slot.bucket), slot.offset + d));
                }
            }
            _ => {}
        }
        out.push(f);
    }
    out
}

/// Linear-scan register compaction. The transpiler mints a fresh
/// register per value, so a level-merged kernel's register file is the
/// *sum* of its parts even though only one level's worth is live at any
/// point. Scratch is `num_regs × lanes × 8 B` per chunk — exactly the
/// working set the lane-chunked executor keeps cache-resident — so remap
/// registers onto the smallest file that respects lifetimes. A freed
/// physical register is never handed to the destination of the very op
/// that last reads it, preserving the executor's dst/src aliasing
/// behavior.
fn compact_regs(mut fops: Vec<FOp>) -> (Vec<FOp>, u16) {
    let mut max_reg = 0usize;
    for f in &fops {
        for s in f.srcs() {
            max_reg = max_reg.max(s as usize);
        }
        if let Some(d) = f.dst() {
            max_reg = max_reg.max(d as usize);
        }
    }
    // Last occurrence (read or write) per original register: the point
    // after which its physical register can be recycled.
    let mut last = vec![usize::MAX; max_reg + 1];
    for (i, f) in fops.iter().enumerate() {
        for s in f.srcs() {
            last[s as usize] = i;
        }
        if let Some(d) = f.dst() {
            last[d as usize] = i;
        }
    }

    let mut map: Vec<Option<Reg>> = vec![None; max_reg + 1];
    let mut free: Vec<Reg> = Vec::new();
    let mut next: Reg = 0;
    let mut alloc = |map: &mut Vec<Option<Reg>>, free: &mut Vec<Reg>, r: usize| -> Reg {
        match map[r] {
            Some(p) => p,
            None => {
                let p = free.pop().unwrap_or_else(|| {
                    let p = next;
                    next += 1;
                    p
                });
                map[r] = Some(p);
                p
            }
        }
    };
    for (i, fop) in fops.iter_mut().enumerate() {
        let orig = *fop;
        let (dst, srcs) = fop.regs_mut();
        // Sources first (write-before-read makes them already mapped;
        // allocating defensively keeps malformed input merely slow).
        for s in srcs {
            *s = alloc(&mut map, &mut free, *s as usize);
        }
        // Then the destination, so it never lands on a source freed by
        // this same op unless destination and source were already equal.
        if let Some(d) = dst {
            *d = alloc(&mut map, &mut free, *d as usize);
        }
        for r in orig
            .srcs()
            .into_iter()
            .chain(orig.dst())
            .map(|r| r as usize)
        {
            if last[r] == i {
                if let Some(p) = map[r].take() {
                    free.push(p);
                }
            }
        }
    }
    (fops, next)
}

/// Is register `r` dead after position `pos` (exclusive)? Registers are
/// kernel-local, so reaching the end of the kernel means dead; a redefine
/// before any read also means dead.
fn dead_after(fops: &[FOp], pos: usize, r: Reg) -> bool {
    for f in &fops[pos + 1..] {
        if f.srcs().contains(&r) {
            return false;
        }
        if f.dst() == Some(r) {
            return true;
        }
    }
    true
}

fn peephole(fops: Vec<FOp>, stats: &mut FuseStats) -> Vec<FOp> {
    let mut out: Vec<FOp> = Vec::with_capacity(fops.len());
    let mut i = 0;
    while i < fops.len() {
        // Triple: Load a; Load b; Mux(cond, a, b) -> MuxLoads.
        if i + 2 < fops.len() {
            if let (
                FOp::Load {
                    dst: ra,
                    slot: sa,
                    uniform: ua,
                },
                FOp::Load {
                    dst: rb,
                    slot: sb,
                    uniform: ub,
                },
                FOp::Mux { dst, cond, a, b },
            ) = (fops[i], fops[i + 1], fops[i + 2])
            {
                if ra != rb
                    && ((a == ra && b == rb) || (a == rb && b == ra))
                    && cond != ra
                    && cond != rb
                    && dead_after(&fops, i + 2, ra)
                    && dead_after(&fops, i + 2, rb)
                {
                    let (slot_a, slot_b, uniform_a, uniform_b) = if a == ra {
                        (sa, sb, ua, ub)
                    } else {
                        (sb, sa, ub, ua)
                    };
                    out.push(FOp::MuxLoads {
                        dst,
                        cond,
                        slot_a,
                        slot_b,
                        uniform_a,
                        uniform_b,
                    });
                    stats.superops += 1;
                    i += 3;
                    continue;
                }
            }
        }
        if i + 1 < fops.len() {
            if let Some(fused) = fuse_pair(&fops, i, stats) {
                out.push(fused);
                i += 2;
                continue;
            }
        }
        out.push(fops[i]);
        i += 1;
    }
    out
}

/// Try to fuse `fops[i]` with `fops[i+1]` into one superop.
fn fuse_pair(fops: &[FOp], i: usize, stats: &mut FuseStats) -> Option<FOp> {
    let fused = match (fops[i], fops[i + 1]) {
        // Load; Bin -> LoadBin (row in either operand position).
        (
            FOp::Load {
                dst: r,
                slot,
                uniform,
            },
            FOp::Bin {
                op,
                dst,
                a,
                b,
                width,
            },
        ) if (a == r) != (b == r) && dead_after(fops, i + 1, r) => FOp::LoadBin {
            op,
            dst,
            slot,
            b: if a == r { b } else { a },
            width,
            swapped: b == r,
            uniform,
        },
        // Load; BinImm -> LoadBinImm.
        (
            FOp::Load {
                dst: r,
                slot,
                uniform,
            },
            FOp::BinImm {
                op,
                dst,
                a,
                imm,
                width,
                swapped,
            },
        ) if a == r && dead_after(fops, i + 1, r) => FOp::LoadBinImm {
            op,
            dst,
            slot,
            imm,
            width,
            swapped,
            uniform,
        },
        // Bin; Store -> BinStore (bin's own mask must cover the store's).
        (
            FOp::Bin {
                op,
                dst,
                a,
                b,
                width,
            },
            FOp::Store {
                src,
                slot,
                width: sw,
            },
        ) if src == dst && width <= sw && dead_after(fops, i + 1, dst) => FOp::BinStore {
            op,
            a,
            b,
            slot,
            width,
        },
        // BinImm; Store -> BinImmStore.
        (
            FOp::BinImm {
                op,
                dst,
                a,
                imm,
                width,
                swapped,
            },
            FOp::Store {
                src,
                slot,
                width: sw,
            },
        ) if src == dst && width <= sw && dead_after(fops, i + 1, dst) => FOp::BinImmStore {
            op,
            a,
            imm,
            slot,
            width,
            swapped,
        },
        // Un; Store -> UnStore.
        (
            FOp::Un { op, dst, a, width },
            FOp::Store {
                src,
                slot,
                width: sw,
            },
        ) if src == dst && width <= sw && dead_after(fops, i + 1, dst) => {
            FOp::UnStore { op, a, slot, width }
        }
        // Mux; Store -> MuxStore (store's mask is applied in the sweep).
        (
            FOp::Mux { dst, cond, a, b },
            FOp::Store {
                src,
                slot,
                width: sw,
            },
        ) if src == dst && dead_after(fops, i + 1, dst) => FOp::MuxStore {
            cond,
            a,
            b,
            slot,
            width: sw,
        },
        // Shr-imm; And-imm -> Extract (slice read). Shift < width is
        // guaranteed: larger shifts were folded to Const 0 in pass A.
        (
            FOp::BinImm {
                op: KBin::Shr,
                dst: r1,
                a,
                imm: shift,
                width: _,
                swapped: false,
            },
            FOp::BinImm {
                op: KBin::And,
                dst,
                a: a2,
                imm: emask,
                width: _,
                swapped: _,
            },
        ) if a2 == r1 && dead_after(fops, i + 1, r1) => FOp::Extract {
            dst,
            a,
            shift: shift as u32,
            emask,
        },
        _ => return None,
    };
    stats.superops += 1;
    Some(fused)
}

fn dce(fops: Vec<FOp>, stats: &mut FuseStats) -> Vec<FOp> {
    let max_reg = fops
        .iter()
        .flat_map(|f| f.dst().into_iter().chain(f.srcs()))
        .max()
        .map_or(0, |r| r as usize + 1);
    let mut live = vec![false; max_reg];
    let mut keep = vec![false; fops.len()];
    for (i, f) in fops.iter().enumerate().rev() {
        let needed = f.has_side_effect() || f.dst().is_none_or(|d| live[d as usize]);
        if needed {
            keep[i] = true;
            if let Some(d) = f.dst() {
                live[d as usize] = false;
            }
            for s in f.srcs() {
                live[s as usize] = true;
            }
        } else {
            stats.dead_removed += 1;
        }
    }
    fops.into_iter()
        .zip(keep)
        .filter_map(|(f, k)| k.then_some(f))
        .collect()
}

/// Fuse every kernel of a task graph.
pub fn fuse_graph(ir: &TaskGraphIr, uniform: Option<&SlotUniform>) -> Vec<FusedKernel> {
    fuse_graph_with(ir, uniform, &FuseConfig::default())
}

/// [`fuse_graph`] with explicit [`FuseConfig`] thresholds.
pub fn fuse_graph_with(
    ir: &TaskGraphIr,
    uniform: Option<&SlotUniform>,
    cfg: &FuseConfig,
) -> Vec<FusedKernel> {
    ir.kernels
        .iter()
        .map(|k| fuse_kernel_with(k, uniform, cfg))
        .collect()
}

/// Aggregate executor statistics for the metrics/trace path.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecStats {
    pub fuse: FuseStats,
    /// Slots proven lane-invariant / total slots tracked.
    pub uniform_slots: u64,
    pub total_slots: u64,
    /// Average ops per cycle computed once as scalars instead of per lane.
    pub scalar_ops_per_cycle: f64,
}

impl ExecStats {
    /// Static statistics of a fused program and the uniform-slot analysis
    /// it was specialized against. `scalar_ops_per_cycle` is a runtime
    /// quantity, filled in by whoever counted executed cycles.
    pub fn of(fused: &[FusedKernel], uniform: Option<&SlotUniform>) -> ExecStats {
        let mut fuse = FuseStats::default();
        for fk in fused {
            fuse.accumulate(&fk.stats);
        }
        ExecStats {
            fuse,
            uniform_slots: uniform.map_or(0, |u| u.uniform_count() as u64),
            total_slots: uniform.map_or(0, |u| u.total_count() as u64),
            scalar_ops_per_cycle: 0.0,
        }
    }

    pub fn to_json(&self) -> desim::Json {
        desim::Json::obj()
            .field("ops_in", desim::Json::Int(self.fuse.ops_in as i128))
            .field("ops_out", desim::Json::Int(self.fuse.ops_out as i128))
            .field("superops", desim::Json::Int(self.fuse.superops as i128))
            .field(
                "consts_folded",
                desim::Json::Int(self.fuse.consts_folded as i128),
            )
            .field(
                "dead_removed",
                desim::Json::Int(self.fuse.dead_removed as i128),
            )
            .field(
                "stores_forwarded",
                desim::Json::Int(self.fuse.stores_forwarded as i128),
            )
            .field(
                "uniform_slots",
                desim::Json::Int(self.uniform_slots as i128),
            )
            .field("total_slots", desim::Json::Int(self.total_slots as i128))
            .field(
                "scalar_ops_per_cycle",
                desim::Json::Num(self.scalar_ops_per_cycle),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Kernel;

    fn s8(offset: u32) -> Slot {
        Slot {
            bucket: Bucket::B8,
            offset,
        }
    }

    #[test]
    fn load_bin_store_chain_fuses() {
        let k = Kernel::new(
            "chain",
            vec![
                Op::Load {
                    dst: 0,
                    slot: s8(0),
                },
                Op::Load {
                    dst: 1,
                    slot: s8(1),
                },
                Op::Bin {
                    op: KBin::Add,
                    dst: 2,
                    a: 0,
                    b: 1,
                    width: 8,
                },
                Op::Store {
                    src: 2,
                    slot: s8(2),
                    width: 8,
                },
            ],
        );
        let f = fuse_kernel(&k, None);
        // Load r0; LoadBin r2 = row1 + r0 (swapped); Store fuses into the
        // LoadBin's consumer chain -> expect 2-3 ops, strictly fewer than 4.
        assert!(f.fops.len() < 4, "{:?}", f.fops);
        assert!(f.stats.superops >= 1);
    }

    #[test]
    fn const_store_folds() {
        let k = Kernel::new(
            "c",
            vec![
                Op::Const {
                    dst: 0,
                    value: 0x1ff,
                },
                Op::Store {
                    src: 0,
                    slot: s8(0),
                    width: 8,
                },
            ],
        );
        let f = fuse_kernel(&k, None);
        assert_eq!(
            f.fops,
            vec![FOp::ConstStore {
                slot: s8(0),
                value: 0xff
            }]
        );
        assert_eq!(f.stats.dead_removed, 1); // the Const became dead
    }

    #[test]
    fn extract_pattern_fuses() {
        // The Shr source is a *computed* register (not a fresh load, which
        // would greedily become LoadBinImm instead).
        let k = Kernel::new(
            "x",
            vec![
                Op::Load {
                    dst: 0,
                    slot: s8(0),
                },
                Op::Load {
                    dst: 1,
                    slot: s8(1),
                },
                Op::Bin {
                    op: KBin::Add,
                    dst: 2,
                    a: 0,
                    b: 1,
                    width: 8,
                },
                Op::Const { dst: 3, value: 3 },
                Op::Bin {
                    op: KBin::Shr,
                    dst: 4,
                    a: 2,
                    b: 3,
                    width: 8,
                },
                Op::Const { dst: 5, value: 0x7 },
                Op::Bin {
                    op: KBin::And,
                    dst: 6,
                    a: 4,
                    b: 5,
                    width: 8,
                },
                Op::Store {
                    src: 6,
                    slot: s8(2),
                    width: 8,
                },
            ],
        );
        let f = fuse_kernel(&k, None);
        assert!(
            f.fops.iter().any(|f| matches!(
                f,
                FOp::Extract {
                    shift: 3,
                    emask: 7,
                    ..
                }
            )),
            "{:?}",
            f.fops
        );
    }

    #[test]
    fn uniform_fixpoint_clears_written_from_inputs() {
        // slot0 = input (root), slot1 = slot0 + 1, slot2 = const.
        let k = Kernel::new(
            "k",
            vec![
                Op::Load {
                    dst: 0,
                    slot: s8(0),
                },
                Op::Const { dst: 1, value: 1 },
                Op::Bin {
                    op: KBin::Add,
                    dst: 2,
                    a: 0,
                    b: 1,
                    width: 8,
                },
                Op::Store {
                    src: 2,
                    slot: s8(1),
                    width: 8,
                },
                Op::Store {
                    src: 1,
                    slot: s8(2),
                    width: 8,
                },
            ],
        );
        let ir = TaskGraphIr {
            kernels: vec![k],
            deps: vec![vec![]],
        };
        let u = SlotUniform::analyze(&ir, [3, 0, 0, 0], &[s8(0)]);
        assert!(!u.get(s8(0)), "input root must be non-uniform");
        assert!(!u.get(s8(1)), "derived from input");
        assert!(u.get(s8(2)), "constant-written slot stays uniform");
        assert_eq!(u.uniform_count(), 1);
        assert_eq!(u.total_count(), 3);
    }

    #[test]
    fn uniform_transitive_chain_needs_fixpoint() {
        // k0: slot1 = slot0 (input); k1: slot2 = slot1. One sweep clears
        // slot1, the second must clear slot2.
        let copy = |from: u32, to: u32, name: &str| {
            Kernel::new(
                name,
                vec![
                    Op::Load {
                        dst: 0,
                        slot: s8(from),
                    },
                    Op::Store {
                        src: 0,
                        slot: s8(to),
                        width: 8,
                    },
                ],
            )
        };
        // Order k1 before k0 so a single sweep is insufficient.
        let ir = TaskGraphIr {
            kernels: vec![copy(1, 2, "k1"), copy(0, 1, "k0")],
            deps: vec![vec![], vec![]],
        };
        let u = SlotUniform::analyze(&ir, [3, 0, 0, 0], &[s8(0)]);
        assert!(!u.get(s8(1)));
        assert!(!u.get(s8(2)));
    }

    #[test]
    fn dce_removes_unused_loads() {
        let k = Kernel::new(
            "dead",
            vec![
                Op::Load {
                    dst: 0,
                    slot: s8(0),
                },
                Op::Load {
                    dst: 1,
                    slot: s8(1),
                },
                Op::Store {
                    src: 1,
                    slot: s8(2),
                    width: 8,
                },
            ],
        );
        let f = fuse_kernel(&k, None);
        assert!(f.stats.dead_removed >= 1);
        assert!(!f.fops.iter().any(|f| matches!(
            f,
            FOp::Load {
                slot: Slot { offset: 0, .. },
                ..
            }
        )));
    }
}
