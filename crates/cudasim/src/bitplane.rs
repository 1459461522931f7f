//! Bit-transposed ("bitplane") execution layout.
//!
//! The width-bucketed [`DeviceMemory`] arrays spend a full element per lane
//! on every slot, so a 1-bit control signal (clock, enable, valid/ready,
//! FSM one-hot) wastes 63/64 of each `u64` the vector executor sweeps.
//! This module adds a *transposed* region where one `u64` word holds the
//! same bit of 64 stimuli: AND/OR/XOR/NOT/MUX over 1-bit signals become
//! single word ops across a 64-lane block (the GATSPI packing).
//!
//! Layout analysis ([`BitLayout::compile`]) classifies each `var8` slot as
//! *transposable* (every store is width-1, its producing cone stays in
//! the bitwise/mux/const fragment, and at least one bit op reads or
//! writes it) or *bucketed*. A design with no transposable slot compiles
//! to a zero-plane layout, which [`crate::exec::run_order`] runs as the
//! plain vectorized loop. Each kernel is otherwise split
//! into a word part (fused exactly like the vectorized engine) and a
//! [`BitProgram`] over bit registers. Word-domain ops may still *read*
//! transposed slots: those reads are listed as [`EscapeRead`]s and the
//! plane bits are scattered back into the `var8` row just before the word
//! part runs, so mixing a 1-bit operand into an arithmetic cone never
//! forces the whole signal out of the transposed region.
//!
//! The boundary is sealed by shims: `DeviceMemory::{load,store}` consult
//! the attached [`BitplaneMemory`] for transposed offsets (host peek/poke),
//! and checkpoints capture/restore through [`DeviceMemory::var8_canonical`]
//! / [`DeviceMemory::resync_bitplane`] so images stay layout-independent.

use crate::device::{DeviceMemory, Scratch};
use crate::exec::execute_ordered;
use crate::fuse::{fuse_graph_with, FuseConfig, FusedKernel, SlotUniform};
use crate::ir::{Bucket, KBin, KUn, Kernel, Op, Reg, Slot, TaskGraphIr};

/// Sentinel in `plane_of_b8` for slots that stay width-bucketed.
const NO_PLANE: u32 = u32::MAX;

/// A transposed slot that a kernel's word part reads. Before the word part
/// runs, the plane's bits are scattered into the `var8` row at `offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EscapeRead {
    pub plane: u32,
    pub offset: u32,
}

/// One op over bit registers. A bit register holds one plane word per
/// 64-lane block; every op is a plain `u64` word operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BOp {
    /// `dst = ones ? !0 : 0` (the same constant bit in every lane).
    Const {
        dst: Reg,
        ones: bool,
    },
    /// `dst = plane[w]` for each word of the lane window.
    Load {
        dst: Reg,
        plane: u32,
    },
    /// `plane[w] = src` (edge words merged under the lane-range mask).
    Store {
        src: Reg,
        plane: u32,
    },
    Not {
        dst: Reg,
        a: Reg,
    },
    Copy {
        dst: Reg,
        a: Reg,
    },
    And {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    Or {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    Xor {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// `dst = !(a ^ b)`
    Xnor {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// `dst = a & !b`
    AndNot {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// `dst = a | !b`
    OrNot {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// `dst = (cond & a) | (!cond & b)` — valid because bit-domain values
    /// are always 0/1 per lane, so `cond` is a full lane mask per word.
    Mux {
        dst: Reg,
        cond: Reg,
        a: Reg,
        b: Reg,
    },
}

/// The bit-domain part of one kernel, over dense bit registers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitProgram {
    pub ops: Vec<BOp>,
    pub num_regs: Reg,
}

/// Compiled transposed layout for one task graph: the plane map plus, per
/// kernel, the word-domain fused program, the bit program, and the escape
/// reads that bridge them.
#[derive(Debug, Clone)]
pub struct BitLayout {
    /// `var8` offset → plane id (`NO_PLANE` if the slot stays bucketed).
    plane_of_b8: Vec<u32>,
    num_planes: u32,
    /// Per kernel: transposed slots its word part reads.
    pub escapes: Vec<Vec<EscapeRead>>,
    /// Per kernel: the word-domain remainder, fused like the vector engine.
    pub word_fused: Vec<FusedKernel>,
    /// Per kernel: the bit-domain program.
    pub bit: Vec<BitProgram>,
}

/// Is a binary op expressible in the bit domain, given both operands are
/// guaranteed 0/1? Width-independent ops survive any `width` because the
/// full-u64 comparison/logical semantics coincide with the 1-bit truth
/// table on 0/1 operands; the rest only at `width == 1` where masking
/// collapses them. Div/Rem are excluded outright (x/0 = all-ones).
fn bin_bit_ok(op: KBin, width: u32) -> bool {
    match op {
        KBin::And
        | KBin::Or
        | KBin::Xor
        | KBin::LAnd
        | KBin::LOr
        | KBin::Eq
        | KBin::Ne
        | KBin::Ltu
        | KBin::Leu
        | KBin::Gtu
        | KBin::Geu => true,
        KBin::Add | KBin::Sub | KBin::Mul | KBin::Xnor | KBin::Shl | KBin::Shr | KBin::Sshr => {
            width == 1
        }
        KBin::Div | KBin::Rem => false,
    }
}

/// Unary counterpart of [`bin_bit_ok`].
fn un_bit_ok(op: KUn, width: u32) -> bool {
    match op {
        KUn::LNot | KUn::RedOr | KUn::RedXor => true,
        KUn::Not | KUn::Neg | KUn::RedAnd => width == 1,
    }
}

/// Per-kernel classification result (word/bit membership per op index).
struct KernelClass {
    /// Op included in the word-domain kernel.
    word_inc: Vec<bool>,
    /// Op included in the bit-domain program.
    bit_inc: Vec<bool>,
    /// Candidate offsets the word part reads (escapes, pre-plane-id).
    escape_offs: Vec<u32>,
    /// Candidate offsets the bit program loads or stores.
    bit_touched: Vec<u32>,
    /// Candidate offsets found to violate transposability here.
    demote: Vec<u32>,
}

fn is_leaf(op: &Op) -> bool {
    matches!(op, Op::Load { .. } | Op::Const { .. })
}

/// Can this reg-defining op live in the bit domain (operands 0/1)?
fn op_bit_capable(op: &Op, candidate: &[bool]) -> bool {
    match op {
        Op::Const { value, .. } => *value <= 1,
        Op::Load { slot, .. } => {
            slot.bucket == Bucket::B8 && candidate.get(slot.offset as usize) == Some(&true)
        }
        Op::Bin { op, width, .. } => bin_bit_ok(*op, *width),
        Op::Un { op, width, .. } => un_bit_ok(*op, *width),
        Op::Mux { .. } => true,
        Op::Store { .. } | Op::LoadIdx { .. } | Op::StoreIdxCond { .. } => false,
    }
}

fn is_bit_store(op: &Op, candidate: &[bool]) -> bool {
    matches!(op, Op::Store { slot, width, .. }
        if slot.bucket == Bucket::B8
            && *width == 1
            && candidate.get(slot.offset as usize) == Some(&true))
}

/// Classify one kernel's ops into word/bit domains against the current
/// candidate set. Word membership propagates forward (a word value forces
/// its consumers word) and backward (a word op needs its operands
/// materialized in registers, so non-leaf operand defs go word too).
/// Leaves (Load/Const) are never forced word — they are duplicated into
/// whichever domains consume them.
fn classify_kernel(kernel: &Kernel, candidate: &[bool]) -> KernelClass {
    let ops = &kernel.ops;
    let n = ops.len();

    // Def-use chains under sequential reg visibility.
    let mut last_def: Vec<Option<usize>> = vec![None; kernel.num_regs as usize];
    let mut src_defs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut uses: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, op) in ops.iter().enumerate() {
        for s in op.srcs() {
            if let Some(d) = last_def[s as usize] {
                src_defs[i].push(d);
                uses[d].push(i);
            }
        }
        if let Some(d) = op.dst() {
            last_def[d as usize] = Some(i);
        }
    }

    let cap: Vec<bool> = ops.iter().map(|op| op_bit_capable(op, candidate)).collect();
    let mut word = vec![false; n];
    let mut demote: Vec<u32> = Vec::new();
    let mut wl: Vec<usize> = Vec::new();

    let force = |i: usize, word: &mut Vec<bool>, wl: &mut Vec<usize>| {
        if !is_leaf(&ops[i]) && !word[i] {
            word[i] = true;
            wl.push(i);
        }
    };

    // Seed: incapable non-leaf defs are word; word sinks force their
    // operand defs word. Incapable leaves (wide loads, consts > 1) are
    // word-domain values but need no backward propagation.
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Store { .. } if !is_bit_store(op, candidate) => {
                for &d in &src_defs[i] {
                    force(d, &mut word, &mut wl);
                }
            }
            Op::StoreIdxCond { .. } => {
                for &d in &src_defs[i] {
                    force(d, &mut word, &mut wl);
                }
            }
            _ if op.dst().is_some() && !cap[i] => {
                if is_leaf(op) {
                    word[i] = true;
                    wl.push(i);
                } else {
                    force(i, &mut word, &mut wl);
                }
            }
            _ => {}
        }
    }

    while let Some(i) = wl.pop() {
        // Backward: a word op reads its operands from word registers.
        if !is_leaf(&ops[i]) {
            for &d in &src_defs[i] {
                force(d, &mut word, &mut wl);
            }
        }
        // Forward: a word value forces reg-def consumers word; a would-be
        // bit store fed by a word value demotes its slot instead.
        for &j in &uses[i] {
            match &ops[j] {
                Op::Store { slot, .. } => {
                    if is_bit_store(&ops[j], candidate) {
                        demote.push(slot.offset);
                    }
                }
                Op::StoreIdxCond { .. } => {}
                _ => {
                    if !word[j] {
                        word[j] = true;
                        wl.push(j);
                    }
                }
            }
        }
    }

    // Membership. A leaf joins the word program iff some consumer is
    // word-domain, and the bit program iff some consumer is bit-domain
    // (possibly both — duplication is the escape hatch that keeps mixed
    // cones from demoting the shared signal).
    let consumer_word = |j: usize| -> bool {
        match &ops[j] {
            Op::Store { .. } => !is_bit_store(&ops[j], candidate),
            Op::StoreIdxCond { .. } => true,
            _ => word[j],
        }
    };
    let consumer_bit = |j: usize| -> bool {
        match &ops[j] {
            Op::Store { .. } => is_bit_store(&ops[j], candidate),
            Op::StoreIdxCond { .. } => false,
            _ => cap[j] && !word[j] && !is_leaf(&ops[j]),
        }
    };

    let mut word_inc = vec![false; n];
    let mut bit_inc = vec![false; n];
    let mut escape_offs: Vec<u32> = Vec::new();
    let mut bit_stored: Vec<u32> = Vec::new();
    let mut bit_touched: Vec<u32> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Store { slot, .. } => {
                if is_bit_store(op, candidate) {
                    bit_inc[i] = true;
                    bit_stored.push(slot.offset);
                } else {
                    word_inc[i] = true;
                }
            }
            Op::StoreIdxCond { .. } => word_inc[i] = true,
            _ if is_leaf(op) => {
                let has_word = word[i] || uses[i].iter().any(|&j| consumer_word(j));
                let has_bit = cap[i] && uses[i].iter().any(|&j| consumer_bit(j));
                word_inc[i] = has_word;
                bit_inc[i] = has_bit;
                if let Op::Load { slot, .. } = op {
                    // `cap` already says a bit-included load is of a
                    // candidate slot.
                    if has_bit {
                        bit_touched.push(slot.offset);
                    }
                    if has_word
                        && slot.bucket == Bucket::B8
                        && candidate.get(slot.offset as usize) == Some(&true)
                    {
                        escape_offs.push(slot.offset);
                    }
                }
            }
            _ => {
                word_inc[i] = word[i];
                bit_inc[i] = cap[i] && !word[i];
            }
        }
    }

    // Intra-kernel hazard: the word part reads a slot this kernel also
    // bit-stores. The escape scatter runs once before the word part, so a
    // bit store in between would be invisible to it (and vice versa).
    // Demote conservatively, regardless of op order.
    escape_offs.sort_unstable();
    escape_offs.dedup();
    for &o in &escape_offs {
        if bit_stored.contains(&o) {
            demote.push(o);
        }
    }

    bit_touched.extend(bit_stored);
    KernelClass {
        word_inc,
        bit_inc,
        escape_offs,
        bit_touched,
        demote,
    }
}

/// Emit the bit program for one kernel from its classification. Bit
/// registers are allocated densely, one per *original* register: a bit
/// reader's visible def is always a bit def (a word redefinition in
/// between would have forced the reader word), so the merge is safe.
fn emit_bit_program(kernel: &Kernel, cls: &KernelClass, plane_of: &[u32]) -> BitProgram {
    let mut bmap: Vec<Option<Reg>> = vec![None; kernel.num_regs as usize];
    let mut next: Reg = 0;
    let mut bops: Vec<BOp> = Vec::new();
    {
        let mut breg = |r: Reg, bmap: &mut Vec<Option<Reg>>| -> Reg {
            *bmap[r as usize].get_or_insert_with(|| {
                let b = next;
                next += 1;
                b
            })
        };
        for (i, op) in kernel.ops.iter().enumerate() {
            if !cls.bit_inc[i] {
                continue;
            }
            match op {
                Op::Const { dst, value } => {
                    let dst = breg(*dst, &mut bmap);
                    bops.push(BOp::Const {
                        dst,
                        ones: *value != 0,
                    });
                }
                Op::Load { dst, slot } => {
                    let dst = breg(*dst, &mut bmap);
                    bops.push(BOp::Load {
                        dst,
                        plane: plane_of[slot.offset as usize],
                    });
                }
                Op::Store { src, slot, .. } => {
                    let src = breg(*src, &mut bmap);
                    bops.push(BOp::Store {
                        src,
                        plane: plane_of[slot.offset as usize],
                    });
                }
                Op::Bin { op, dst, a, b, .. } => {
                    let (a, b) = (breg(*a, &mut bmap), breg(*b, &mut bmap));
                    let dst = breg(*dst, &mut bmap);
                    bops.push(match op {
                        KBin::And | KBin::Mul | KBin::LAnd => BOp::And { dst, a, b },
                        KBin::Or | KBin::LOr => BOp::Or { dst, a, b },
                        KBin::Xor | KBin::Ne | KBin::Add | KBin::Sub => BOp::Xor { dst, a, b },
                        KBin::Xnor | KBin::Eq => BOp::Xnor { dst, a, b },
                        // a < b on 0/1 is b & !a; a <= b is b | !a.
                        KBin::Ltu => BOp::AndNot { dst, a: b, b: a },
                        KBin::Leu => BOp::OrNot { dst, a: b, b: a },
                        // a > b is a & !b; shifts at width 1 zero unless
                        // the amount is 0, which is the same table.
                        KBin::Gtu | KBin::Shl | KBin::Shr => BOp::AndNot { dst, a, b },
                        KBin::Geu => BOp::OrNot { dst, a, b },
                        // Sign-fill from bit 0 at width 1 is the identity.
                        KBin::Sshr => BOp::Copy { dst, a },
                        KBin::Div | KBin::Rem => unreachable!("div/rem are never bit-capable"),
                    });
                }
                Op::Un { op, dst, a, .. } => {
                    let a = breg(*a, &mut bmap);
                    let dst = breg(*dst, &mut bmap);
                    bops.push(match op {
                        KUn::Not | KUn::LNot => BOp::Not { dst, a },
                        KUn::Neg | KUn::RedAnd | KUn::RedOr | KUn::RedXor => BOp::Copy { dst, a },
                    });
                }
                Op::Mux { dst, cond, a, b } => {
                    let (cond, a, b) = (
                        breg(*cond, &mut bmap),
                        breg(*a, &mut bmap),
                        breg(*b, &mut bmap),
                    );
                    let dst = breg(*dst, &mut bmap);
                    bops.push(BOp::Mux { dst, cond, a, b });
                }
                Op::LoadIdx { .. } | Op::StoreIdxCond { .. } => {
                    unreachable!("indexed memory ops are never bit-included")
                }
            }
        }
    }
    BitProgram {
        ops: bops,
        num_regs: next,
    }
}

impl BitLayout {
    /// Analyze a task graph and build the transposed layout.
    ///
    /// `len8` is the `var8` bucket length, `roots` the externally-poked
    /// input slots with their variable widths (a multi-bit root pins its
    /// slot bucketed), `uniform` the lane-invariance analysis of the
    /// *full* IR (the word remainder must be fused against the full-graph
    /// analysis: re-analyzing the filtered kernels would wrongly mark
    /// bit-stored slots uniform), and `cfg` the fusion thresholds.
    pub fn compile(
        ir: &TaskGraphIr,
        len8: u32,
        roots: &[(Slot, u32)],
        uniform: Option<&SlotUniform>,
        cfg: &FuseConfig,
    ) -> BitLayout {
        let len8 = len8 as usize;
        // Seed candidates: slots with a width-1 store or a width-1 root,
        // minus wide stores, wide roots, and indexed-memory ranges.
        let mut seeded = vec![false; len8];
        let mut excluded = vec![false; len8];
        let mark_range = |excluded: &mut Vec<bool>, slot: &Slot, depth: u32| {
            if slot.bucket == Bucket::B8 {
                for k in 0..depth.max(1) {
                    if let Some(e) = excluded.get_mut((slot.offset + k) as usize) {
                        *e = true;
                    }
                }
            }
        };
        for kernel in &ir.kernels {
            for op in &kernel.ops {
                match op {
                    Op::Store { slot, width, .. } if slot.bucket == Bucket::B8 => {
                        if *width == 1 {
                            if let Some(s) = seeded.get_mut(slot.offset as usize) {
                                *s = true;
                            }
                        } else {
                            mark_range(&mut excluded, slot, 1);
                        }
                    }
                    Op::LoadIdx { slot, depth, .. } => {
                        mark_range(&mut excluded, slot, *depth);
                    }
                    Op::StoreIdxCond { slot, depth, .. } => {
                        mark_range(&mut excluded, slot, *depth);
                    }
                    _ => {}
                }
            }
        }
        for (slot, width) in roots {
            if slot.bucket == Bucket::B8 {
                if *width == 1 {
                    if let Some(s) = seeded.get_mut(slot.offset as usize) {
                        *s = true;
                    }
                } else {
                    mark_range(&mut excluded, slot, 1);
                }
            }
        }
        let mut candidate: Vec<bool> = seeded
            .iter()
            .zip(&excluded)
            .map(|(&s, &e)| s && !e)
            .collect();

        // Fixpoint: classification may demote candidates (word-fed
        // stores, intra-kernel escape/store hazards), and a candidate no
        // bit op reads or writes goes back to the word domain too: as a
        // plane it would buy nothing and cost its word readers an escape
        // scatter every cycle. Demotions only ever turn bit ops into
        // word ops, so both sets shrink monotonically and this
        // terminates; at the fixpoint every plane is touched by a bit op.
        let classes: Vec<KernelClass> = loop {
            let classes: Vec<KernelClass> = ir
                .kernels
                .iter()
                .map(|k| classify_kernel(k, &candidate))
                .collect();
            let mut demoted = false;
            let mut touched = vec![false; len8];
            for cls in &classes {
                for &o in &cls.demote {
                    if candidate[o as usize] {
                        candidate[o as usize] = false;
                        demoted = true;
                    }
                }
                for &o in &cls.bit_touched {
                    touched[o as usize] = true;
                }
            }
            for (c, &t) in candidate.iter_mut().zip(&touched) {
                if *c && !t {
                    *c = false;
                    demoted = true;
                }
            }
            if !demoted {
                break classes;
            }
        };

        // Assign plane ids to the surviving candidates.
        let mut plane_of_b8 = vec![NO_PLANE; len8];
        let mut num_planes = 0u32;
        for (o, &c) in candidate.iter().enumerate() {
            if c {
                plane_of_b8[o] = num_planes;
                num_planes += 1;
            }
        }

        // Build the word-domain remainder and fuse it like the vector
        // engine (against the full-IR uniform analysis).
        let word_kernels: Vec<Kernel> = ir
            .kernels
            .iter()
            .zip(&classes)
            .map(|(k, cls)| {
                let ops: Vec<Op> = k
                    .ops
                    .iter()
                    .zip(&cls.word_inc)
                    .filter(|&(_, &inc)| inc)
                    .map(|(op, _)| op.clone())
                    .collect();
                Kernel::new(k.name.clone(), ops)
            })
            .collect();
        let word_ir = TaskGraphIr {
            kernels: word_kernels,
            deps: ir.deps.clone(),
        };
        let word_fused = fuse_graph_with(&word_ir, uniform, cfg);

        let bit: Vec<BitProgram> = ir
            .kernels
            .iter()
            .zip(&classes)
            .map(|(k, cls)| emit_bit_program(k, cls, &plane_of_b8))
            .collect();

        let escapes: Vec<Vec<EscapeRead>> = classes
            .iter()
            .map(|cls| {
                cls.escape_offs
                    .iter()
                    .filter(|&&o| plane_of_b8[o as usize] != NO_PLANE)
                    .map(|&o| EscapeRead {
                        plane: plane_of_b8[o as usize],
                        offset: o,
                    })
                    .collect()
            })
            .collect();

        BitLayout {
            plane_of_b8,
            num_planes,
            escapes,
            word_fused,
            bit,
        }
    }

    /// Number of transposed planes. Every plane is read or written by at
    /// least one [`BOp`]; 0 means the design runs as the plain vectorized
    /// loop.
    pub fn num_planes(&self) -> u32 {
        self.num_planes
    }

    /// Plane id for a `var8` offset, if transposed.
    pub fn plane_of(&self, offset: u32) -> Option<u32> {
        match self.plane_of_b8.get(offset as usize) {
            Some(&p) if p != NO_PLANE => Some(p),
            _ => None,
        }
    }

    /// Total bit ops across all kernels (cost-model input).
    pub fn bit_op_count(&self) -> usize {
        self.bit.iter().map(|p| p.ops.len()).sum()
    }

    /// Total word-domain fused ops across all kernels.
    pub fn word_fop_count(&self) -> usize {
        self.word_fused.iter().map(|k| k.fops.len()).sum()
    }

    /// Total escape reads across all kernels (per-cycle scatter cost).
    pub fn escape_count(&self) -> usize {
        self.escapes.iter().map(|e| e.len()).sum()
    }
}

/// The transposed storage region: `num_planes` rows of `words` words,
/// plane-major, where `bits[p * words + w]` holds bit `p` of lanes
/// `[64w, 64w + 64)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitplaneMemory {
    pub(crate) words: usize,
    pub(crate) num_planes: u32,
    pub(crate) bits: Vec<u64>,
    pub(crate) plane_of_b8: Vec<u32>,
}

impl BitplaneMemory {
    /// Plane id for a `var8` offset, if transposed.
    #[inline]
    pub(crate) fn plane_for(&self, offset: u32) -> Option<u32> {
        match self.plane_of_b8.get(offset as usize) {
            Some(&p) if p != NO_PLANE => Some(p),
            _ => None,
        }
    }

    /// Read one lane's bit of a plane (0 or 1).
    #[inline]
    pub(crate) fn get(&self, plane: u32, tid: usize) -> u64 {
        (self.bits[plane as usize * self.words + tid / 64] >> (tid % 64)) & 1
    }

    /// Write one lane's bit of a plane.
    #[inline]
    pub(crate) fn set(&mut self, plane: u32, tid: usize, v: u64) {
        let w = &mut self.bits[plane as usize * self.words + tid / 64];
        let m = 1u64 << (tid % 64);
        if v & 1 != 0 {
            *w |= m;
        } else {
            *w &= !m;
        }
    }
}

impl DeviceMemory {
    /// Attach a transposed region for `layout`, packing the current
    /// `var8` rows of every transposed slot into planes (and zeroing the
    /// rows — the plane is authoritative while attached). Idempotent; a
    /// zero-plane layout attaches nothing.
    pub fn attach_bitplane(&mut self, layout: &BitLayout) {
        if layout.num_planes == 0 || self.bitplane.is_some() {
            return;
        }
        let words = self.n().div_ceil(64);
        self.bitplane = Some(Box::new(BitplaneMemory {
            words,
            num_planes: layout.num_planes,
            bits: vec![0u64; layout.num_planes as usize * words],
            plane_of_b8: layout.plane_of_b8.clone(),
        }));
        self.resync_bitplane();
    }

    /// Detach the transposed region, folding every plane back into its
    /// `var8` row. After this the raw arrays are the full state again.
    pub fn detach_bitplane(&mut self) {
        self.var8 = self.var8_canonical();
        self.bitplane = None;
    }

    /// Re-pack the planes from the raw `var8` rows (used after a
    /// checkpoint restore wrote canonical rows into an attached device).
    pub fn resync_bitplane(&mut self) {
        let n = self.n();
        let DeviceMemory { var8, bitplane, .. } = self;
        let Some(bp) = bitplane else { return };
        for (o, &p) in bp.plane_of_b8.iter().enumerate() {
            if p == NO_PLANE {
                continue;
            }
            let pbase = p as usize * bp.words;
            bp.bits[pbase..pbase + bp.words].fill(0);
            let row = &mut var8[o * n..o * n + n];
            for (t, v) in row.iter_mut().enumerate() {
                if *v & 1 != 0 {
                    bp.bits[pbase + t / 64] |= 1u64 << (t % 64);
                }
                *v = 0;
            }
        }
    }

    /// The `var8` bucket in canonical (layout-independent) form: a copy
    /// of the raw rows with any attached planes folded back in.
    pub fn var8_canonical(&self) -> Vec<u8> {
        let n = self.n();
        let mut out = self.var8.clone();
        if let Some(bp) = &self.bitplane {
            for (o, &p) in bp.plane_of_b8.iter().enumerate() {
                if p == NO_PLANE {
                    continue;
                }
                let pbase = p as usize * bp.words;
                for (t, v) in out[o * n..o * n + n].iter_mut().enumerate() {
                    *v = ((bp.bits[pbase + t / 64] >> (t % 64)) & 1) as u8;
                }
            }
        }
        out
    }

    /// Zero the whole device state, including any attached planes.
    pub fn reset(&mut self) {
        self.var8.fill(0);
        self.var16.fill(0);
        self.var32.fill(0);
        self.var64.fill(0);
        if let Some(bp) = &mut self.bitplane {
            bp.bits.fill(0);
        }
    }

    /// Scatter each escaped plane's bits into its `var8` row for lanes
    /// `[tid0, tid0 + group)` so the word part can read them raw.
    pub fn materialize_escapes(&mut self, escapes: &[EscapeRead], tid0: usize, group: usize) {
        let n = self.n();
        let DeviceMemory { var8, bitplane, .. } = self;
        let Some(bp) = bitplane else { return };
        for e in escapes {
            let base = e.offset as usize * n;
            let pbase = e.plane as usize * bp.words;
            for t in tid0..tid0 + group {
                var8[base + t] = ((bp.bits[pbase + t / 64] >> (t % 64)) & 1) as u8;
            }
        }
    }
}

/// Execute one kernel's bit program over the lane window `[tid0, end)`.
/// Bit registers are `words`-long rows in the shared [`Scratch`] arena
/// (one `u64` per 64 lanes); stores merge edge words under the window
/// mask so partial/misaligned ranges never clobber neighbor lanes.
fn exec_bit_program(
    prog: &BitProgram,
    bp: &mut BitplaneMemory,
    scratch: &mut Scratch,
    tid0: usize,
    end: usize,
) {
    let w0 = tid0 / 64;
    let w1 = end.div_ceil(64);
    let rlen = w1 - w0;
    if rlen == 0 {
        return;
    }
    scratch.ensure(prog.num_regs, rlen);
    let first_mask = !0u64 << (tid0 % 64);
    let last_mask = if end.is_multiple_of(64) {
        !0u64
    } else {
        (1u64 << (end % 64)) - 1
    };

    // Index-based element loops: bit registers may alias (one bit reg per
    // original reg), and elementwise `d[i] = f(a[i], b[i])` is alias-safe.
    #[inline(always)]
    fn bun(scratch: &mut Scratch, dst: Reg, a: Reg, rlen: usize, f: impl Fn(u64) -> u64) {
        let g = scratch.group;
        let (di, ai) = (dst as usize * g, a as usize * g);
        for i in 0..rlen {
            scratch.regs[di + i] = f(scratch.regs[ai + i]);
        }
    }
    #[inline(always)]
    fn bbin(
        scratch: &mut Scratch,
        dst: Reg,
        a: Reg,
        b: Reg,
        rlen: usize,
        f: impl Fn(u64, u64) -> u64,
    ) {
        let g = scratch.group;
        let (di, ai, bi) = (dst as usize * g, a as usize * g, b as usize * g);
        for i in 0..rlen {
            let (va, vb) = (scratch.regs[ai + i], scratch.regs[bi + i]);
            scratch.regs[di + i] = f(va, vb);
        }
    }

    for op in &prog.ops {
        match *op {
            BOp::Const { dst, ones } => {
                scratch.reg_mut(dst).fill(if ones { !0 } else { 0 });
            }
            BOp::Load { dst, plane } => {
                let src = &bp.bits[plane as usize * bp.words + w0..][..rlen];
                scratch.reg_mut(dst).copy_from_slice(src);
            }
            BOp::Store { src, plane } => {
                let s = scratch.reg(src);
                let d = &mut bp.bits[plane as usize * bp.words + w0..][..rlen];
                if rlen == 1 {
                    let m = first_mask & last_mask;
                    d[0] = (d[0] & !m) | (s[0] & m);
                } else {
                    d[0] = (d[0] & !first_mask) | (s[0] & first_mask);
                    d[1..rlen - 1].copy_from_slice(&s[1..rlen - 1]);
                    d[rlen - 1] = (d[rlen - 1] & !last_mask) | (s[rlen - 1] & last_mask);
                }
            }
            BOp::Not { dst, a } => bun(scratch, dst, a, rlen, |a| !a),
            BOp::Copy { dst, a } => bun(scratch, dst, a, rlen, |a| a),
            BOp::And { dst, a, b } => bbin(scratch, dst, a, b, rlen, |a, b| a & b),
            BOp::Or { dst, a, b } => bbin(scratch, dst, a, b, rlen, |a, b| a | b),
            BOp::Xor { dst, a, b } => bbin(scratch, dst, a, b, rlen, |a, b| a ^ b),
            BOp::Xnor { dst, a, b } => bbin(scratch, dst, a, b, rlen, |a, b| !(a ^ b)),
            BOp::AndNot { dst, a, b } => bbin(scratch, dst, a, b, rlen, |a, b| a & !b),
            BOp::OrNot { dst, a, b } => bbin(scratch, dst, a, b, rlen, |a, b| a | !b),
            BOp::Mux { dst, cond, a, b } => {
                let g = scratch.group;
                let (ci, ai, bi, di) = (
                    cond as usize * g,
                    a as usize * g,
                    b as usize * g,
                    dst as usize * g,
                );
                for i in 0..rlen {
                    let (vc, va, vb) = (
                        scratch.regs[ci + i],
                        scratch.regs[ai + i],
                        scratch.regs[bi + i],
                    );
                    scratch.regs[di + i] = (vc & va) | (!vc & vb);
                }
            }
        }
    }
}

/// Run every kernel of `order` over `[tid0, end)`: per kernel, scatter its
/// escape reads, run the word-domain remainder, then the bit program.
/// The per-kernel interleave (not phase-per-cycle) is required because a
/// later kernel's escapes may read slots an earlier kernel bit-stored.
/// `dev` must have `layout`'s planes attached.
pub(crate) fn execute_bitplane_range(
    layout: &BitLayout,
    order: &[usize],
    dev: &mut DeviceMemory,
    scratch: &mut Scratch,
    tid0: usize,
    end: usize,
    lane_chunk: usize,
) {
    for &k in order {
        let esc = &layout.escapes[k];
        if !esc.is_empty() {
            dev.materialize_escapes(esc, tid0, end - tid0);
        }
        if !layout.word_fused[k].fops.is_empty() {
            execute_ordered(
                &layout.word_fused,
                std::slice::from_ref(&k),
                dev,
                scratch,
                tid0,
                end - tid0,
                lane_chunk,
            );
        }
        if !layout.bit[k].ops.is_empty() {
            if let Some(bp) = dev.bitplane.as_deref_mut() {
                exec_bit_program(&layout.bit[k], bp, scratch, tid0, end);
            }
        }
    }
}

/// Bit-transpose `n` 1-bit lane values into `ceil(n / 64)` words: lane
/// `i`'s low bit lands in bit `i % 64` of word `i / 64`. This is the
/// same lane-major word layout [`BitplaneMemory`] packs planes in, split
/// out so boundary-exchange frames (modelpar) can ship 1-bit nets at 64
/// stimuli per machine word.
pub fn pack_bit_lanes(values: impl ExactSizeIterator<Item = u64>) -> Vec<u64> {
    let n = values.len();
    let mut words = vec![0u64; n.div_ceil(64)];
    for (i, v) in values.enumerate() {
        words[i / 64] |= (v & 1) << (i % 64);
    }
    words
}

/// Inverse of [`pack_bit_lanes`]: call `put(lane, bit)` for each of the
/// `n` lanes. Returns `false` (without calling `put`) when `words` is
/// too short for `n` lanes — the caller treats that as a malformed frame.
pub fn unpack_bit_lanes(words: &[u64], n: usize, mut put: impl FnMut(usize, u64)) -> bool {
    if words.len() < n.div_ceil(64) {
        return false;
    }
    for i in 0..n {
        put(i, (words[i / 64] >> (i % 64)) & 1);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::execute_kernel;
    use crate::exec::for_lane_blocks;
    use crate::ir::{Kernel, Op};

    fn s8(offset: u32) -> Slot {
        Slot {
            bucket: Bucket::B8,
            offset,
        }
    }

    fn s16(offset: u32) -> Slot {
        Slot {
            bucket: Bucket::B16,
            offset,
        }
    }

    /// A control-ish graph: bitwise cone over 1-bit slots 0..4, plus a
    /// word cone (add) over slot 5 that *reads* 1-bit slot 0 (escape).
    fn demo_graph() -> TaskGraphIr {
        let k0 = Kernel::new(
            "bits",
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
                    op: KBin::And,
                    dst: 2,
                    a: 0,
                    b: 1,
                    width: 1,
                },
                Op::Un {
                    op: KUn::Not,
                    dst: 3,
                    a: 1,
                    width: 1,
                },
                Op::Mux {
                    dst: 4,
                    cond: 2,
                    a: 3,
                    b: 0,
                },
                Op::Store {
                    src: 4,
                    slot: s8(2),
                    width: 1,
                },
                Op::Bin {
                    op: KBin::Xor,
                    dst: 5,
                    a: 2,
                    b: 3,
                    width: 1,
                },
                Op::Store {
                    src: 5,
                    slot: s8(3),
                    width: 1,
                },
            ],
        );
        let k1 = Kernel::new(
            "word",
            vec![
                Op::Load {
                    dst: 0,
                    slot: s8(0),
                },
                Op::Load {
                    dst: 1,
                    slot: s8(5),
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
                    slot: s8(5),
                    width: 8,
                },
                Op::Load {
                    dst: 3,
                    slot: s16(0),
                },
                Op::Bin {
                    op: KBin::Add,
                    dst: 4,
                    a: 3,
                    b: 2,
                    width: 16,
                },
                Op::Store {
                    src: 4,
                    slot: s16(0),
                    width: 16,
                },
            ],
        );
        TaskGraphIr {
            kernels: vec![k0, k1],
            deps: vec![vec![], vec![0]],
        }
    }

    fn roots() -> Vec<(Slot, u32)> {
        vec![(s8(0), 1), (s8(1), 1)]
    }

    fn scalar_reference(ir: &TaskGraphIr, dev: &mut DeviceMemory, n: usize, cycles: usize) {
        let mut scratch = Scratch::new();
        for _ in 0..cycles {
            for k in &ir.kernels {
                for t in 0..n {
                    execute_kernel(k, dev, &mut scratch, t, 1);
                }
            }
        }
    }

    /// One cycle over `layout` for lanes `[tid0, tid0 + group)`, as
    /// `run_order` drives it: one worker per scratch.
    fn run_layout(
        layout: &BitLayout,
        order: &[usize],
        dev: &mut DeviceMemory,
        scratches: &mut [Scratch],
        tid0: usize,
        group: usize,
        block: usize,
    ) {
        dev.attach_bitplane(layout);
        for_lane_blocks(dev, scratches, tid0, group, block, |dev, s, t0, t1| {
            execute_bitplane_range(layout, order, dev, s, t0, t1, 256)
        });
    }

    fn seed(dev: &mut DeviceMemory, n: usize) {
        for t in 0..n {
            dev.store(s8(0), t, (t as u64) & 1);
            dev.store(s8(1), t, ((t / 3) as u64) & 1);
            dev.store(s8(5), t, (t as u64 * 7) & 0xff);
            dev.store(s16(0), t, (t as u64 * 131) & 0xffff);
        }
    }

    #[test]
    fn classification_assigns_planes_and_escapes() {
        let ir = demo_graph();
        let layout = BitLayout::compile(&ir, 6, &roots(), None, &FuseConfig::default());
        // Slots 0..=3 are 1-bit (roots 0,1; stores 2,3); slot 5 is wide.
        assert_eq!(layout.num_planes(), 4);
        assert!(layout.plane_of(0).is_some());
        assert!(layout.plane_of(3).is_some());
        assert_eq!(layout.plane_of(5), None);
        // Kernel 1's add reads transposed slot 0 → one escape there.
        assert!(layout.escapes[0].is_empty());
        assert_eq!(layout.escapes[1].len(), 1);
        assert_eq!(layout.escapes[1][0].offset, 0);
        // Kernel 0 is fully bit-domain; kernel 1 fully word-domain.
        assert!(layout.word_fused[0].fops.is_empty());
        assert!(!layout.bit[0].ops.is_empty());
        assert!(layout.bit[1].ops.is_empty());
    }

    #[test]
    fn bitpar_matches_scalar_reference() {
        let ir = demo_graph();
        let n = 200; // deliberately not a multiple of 64
        let layout = BitLayout::compile(&ir, 6, &roots(), None, &FuseConfig::default());
        let order = ir.topo_order().unwrap();

        let mut ref_dev = DeviceMemory::new(n, 6, 1, 0, 0);
        seed(&mut ref_dev, n);
        scalar_reference(&ir, &mut ref_dev, n, 4);

        let mut dev = DeviceMemory::new(n, 6, 1, 0, 0);
        seed(&mut dev, n);
        let mut scratches = vec![Scratch::new()];
        for _ in 0..4 {
            run_layout(&layout, &order, &mut dev, &mut scratches, 0, n, 1024);
        }
        dev.detach_bitplane();
        assert_eq!(dev.var8, ref_dev.var8);
        assert_eq!(dev.var16, ref_dev.var16);
    }

    #[test]
    fn parallel_and_partial_ranges_match_serial() {
        let ir = demo_graph();
        let n = 512;
        let layout = BitLayout::compile(&ir, 6, &roots(), None, &FuseConfig::default());
        let order = ir.topo_order().unwrap();

        let mut ref_dev = DeviceMemory::new(n, 6, 1, 0, 0);
        seed(&mut ref_dev, n);
        let mut s1 = vec![Scratch::new()];
        for _ in 0..3 {
            run_layout(&layout, &order, &mut ref_dev, &mut s1, 0, n, 1024);
        }
        ref_dev.detach_bitplane();

        // Parallel workers over small blocks.
        let mut dev = DeviceMemory::new(n, 6, 1, 0, 0);
        seed(&mut dev, n);
        let mut s4: Vec<Scratch> = (0..4).map(|_| Scratch::new()).collect();
        for _ in 0..3 {
            run_layout(&layout, &order, &mut dev, &mut s4, 0, n, 64);
        }
        dev.detach_bitplane();
        assert_eq!(dev.var8, ref_dev.var8);
        assert_eq!(dev.var16, ref_dev.var16);

        // Misaligned sub-range: run [37, 411) only; lanes outside must be
        // untouched.
        let mut base = DeviceMemory::new(n, 6, 1, 0, 0);
        seed(&mut base, n);
        let mut part = base.clone();
        let mut sp = vec![Scratch::new()];
        run_layout(&layout, &order, &mut part, &mut sp, 37, 411 - 37, 128);
        part.detach_bitplane();
        let mut expect = base.clone();
        let mut se = Scratch::new();
        for k in &ir.kernels {
            for t in 37..411 {
                execute_kernel(k, &mut expect, &mut se, t, 1);
            }
        }
        assert_eq!(part.var8, expect.var8);
        assert_eq!(part.var16, expect.var16);
    }

    #[test]
    fn attach_detach_round_trips_and_shims_read_planes() {
        let ir = demo_graph();
        let n = 70;
        let layout = BitLayout::compile(&ir, 6, &roots(), None, &FuseConfig::default());
        let mut dev = DeviceMemory::new(n, 6, 1, 0, 0);
        seed(&mut dev, n);
        let before = dev.var8.clone();
        dev.attach_bitplane(&layout);
        // Transposed rows zeroed, shims still read the true values.
        for (t, &b) in before.iter().enumerate().take(n) {
            assert_eq!(dev.load(s8(0), t), b as u64 & 1);
        }
        // Poke through the shim, then detach and check the raw row.
        dev.store(s8(1), 3, 1);
        dev.store(s8(1), 4, 0);
        let canon = dev.var8_canonical();
        assert_eq!(canon[n + 3], 1);
        assert_eq!(canon[n + 4], 0);
        dev.detach_bitplane();
        assert_eq!(dev.var8[n + 3], 1);
        assert_eq!(dev.var8[n + 4], 0);
        assert_eq!(dev.var8[..n], before[..n]);
    }

    #[test]
    fn wide_store_demotes_slot() {
        // Slot 0 stored width-1 in one kernel, width-4 in another → not
        // transposable.
        let k0 = Kernel::new(
            "a",
            vec![
                Op::Const { dst: 0, value: 1 },
                Op::Store {
                    src: 0,
                    slot: s8(0),
                    width: 1,
                },
            ],
        );
        let k1 = Kernel::new(
            "b",
            vec![
                Op::Const { dst: 0, value: 5 },
                Op::Store {
                    src: 0,
                    slot: s8(0),
                    width: 4,
                },
            ],
        );
        let ir = TaskGraphIr {
            kernels: vec![k0, k1],
            deps: vec![vec![], vec![0]],
        };
        let layout = BitLayout::compile(&ir, 1, &[], None, &FuseConfig::default());
        assert_eq!(layout.num_planes(), 0);
        assert_eq!(layout.plane_of(0), None);
    }

    #[test]
    fn word_fed_bit_store_demotes_slot() {
        // res = (a + b) truncated to 1 bit via a width-1 store? No — the
        // store is width 1 but its src is a word-domain add at width 8,
        // so the slot must demote to stay bit-identical.
        let k = Kernel::new(
            "mix",
            vec![
                Op::Load {
                    dst: 0,
                    slot: s8(1),
                },
                Op::Load {
                    dst: 1,
                    slot: s8(2),
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
                    slot: s8(0),
                    width: 1,
                },
            ],
        );
        let ir = TaskGraphIr {
            kernels: vec![k],
            deps: vec![vec![]],
        };
        let layout = BitLayout::compile(&ir, 3, &[], None, &FuseConfig::default());
        assert_eq!(layout.plane_of(0), None);
    }

    #[test]
    fn reset_clears_planes() {
        let ir = demo_graph();
        let n = 64;
        let layout = BitLayout::compile(&ir, 6, &roots(), None, &FuseConfig::default());
        let mut dev = DeviceMemory::new(n, 6, 1, 0, 0);
        seed(&mut dev, n);
        dev.attach_bitplane(&layout);
        dev.store(s8(0), 5, 1);
        dev.reset();
        assert_eq!(dev.load(s8(0), 5), 0);
        dev.detach_bitplane();
        assert!(dev.var8.iter().all(|&v| v == 0));
    }

    #[test]
    fn bit_lane_pack_roundtrip() {
        for n in [0usize, 1, 63, 64, 65, 200] {
            let vals: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9e37) >> 3).collect();
            let words = pack_bit_lanes(vals.iter().copied());
            assert_eq!(words.len(), n.div_ceil(64));
            let mut back = vec![u64::MAX; n];
            assert!(unpack_bit_lanes(&words, n, |i, b| back[i] = b));
            for (i, (&v, &b)) in vals.iter().zip(&back).enumerate() {
                assert_eq!(v & 1, b, "lane {i}");
            }
        }
    }

    #[test]
    fn bit_lane_unpack_rejects_short_input() {
        let words = pack_bit_lanes((0..64usize).map(|_| 1u64));
        let mut calls = 0;
        assert!(!unpack_bit_lanes(&words, 65, |_, _| calls += 1));
        assert_eq!(calls, 0);
    }

    #[test]
    fn bit_lane_pack_only_low_bit_matters() {
        let a = pack_bit_lanes([0u64, 1, 2, 3, 0xffff_fffe, 0xffff_ffff].into_iter());
        let b = pack_bit_lanes([0u64, 1, 0, 1, 0, 1].into_iter());
        assert_eq!(a, b);
    }
}
