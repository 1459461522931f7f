//! The fused execution engine: vectorized, uniform-specialized and
//! lane-block-parallel execution of fused kernel programs.
//!
//! Three compounding layers over the scalar reference interpreter in
//! [`crate::device`]:
//!
//! * **Lane-chunked vectorized loops** — every (op, bucket) pair is
//!   monomorphized into a tight slice-to-slice sweep with bounds checks
//!   hoisted out (split borrows + `zip`), so rustc autovectorizes the
//!   inner loop exactly the way a coalesced CUDA kernel streams
//!   `array[offset * N + tid]`.
//! * **Uniform-slot specialization** — registers fed only by provably
//!   lane-invariant slots ([`crate::fuse::SlotUniform`]) and constants
//!   live in a scalar shadow file and are computed once per op, not once
//!   per lane; they are broadcast only on demotion to per-lane use.
//! * **Block-parallel execution** — the tid range is split into disjoint
//!   64-lane-aligned blocks executed on a scoped host-thread pool (one
//!   [`Scratch`] per worker, raw-pointer device access over provably
//!   disjoint lane sub-ranges; see [`for_lane_blocks`]).
//!
//! Whether a cycle runs over the width-bucketed rows alone or also over
//! bit-transposed planes is a property of the compiled design
//! ([`BitLayout`]), picked in [`run_order`]; it is not a strategy.
//!
//! Bit-exactness versus [`crate::device::execute_kernel`] is enforced by
//! construction: every monomorphized arm calls [`apply_bin`]/[`apply_un`]
//! with a literal op so the compiler folds the dispatch *after* inlining
//! the reference semantics, and by the differential tests in
//! `tests/exec_equivalence.rs`.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::bitplane::{execute_bitplane_range, BitLayout};
use crate::device::{apply_bin, apply_un, execute_kernel, mask, DeviceMemory, Scratch};
use crate::fuse::{FOp, FusedKernel};
use crate::ir::{Bucket, KBin, KUn, Kernel, Reg, Slot};

/// How the functional executor runs a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecStrategy {
    /// The scalar reference interpreter (pre-fusion semantics): the
    /// oracle every differential test compares against.
    Scalar,
    /// The fused engine: vectorized and uniform-specialized, over
    /// bit-transposed planes where the compiled [`BitLayout`] has any.
    /// `threads == 1` is serial; `0` means "use available parallelism";
    /// `block` is the parallel lane-block size (rounded to 64 lanes).
    Fused { threads: usize, block: usize },
}

/// Structured parse error for [`ExecConfig::parse`] specs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecSpecError {
    /// The strategy head is not one of the known names.
    UnknownStrategy { token: String },
    /// A numeric field is empty, non-digit, or out of range.
    BadNumber { what: &'static str, token: String },
    /// Extra input after a complete, valid spec.
    TrailingInput { rest: String },
}

impl std::fmt::Display for ExecSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        const GRAMMAR: &str = "scalar|fused[:threads[:block]][@chunk]";
        match self {
            ExecSpecError::UnknownStrategy { token } => {
                write!(f, "unknown exec strategy `{token}` (expected {GRAMMAR})")
            }
            ExecSpecError::BadNumber { what, token } => {
                write!(f, "bad {what} `{token}` in exec spec (expected {GRAMMAR})")
            }
            ExecSpecError::TrailingInput { rest } => {
                write!(
                    f,
                    "trailing input `{rest}` after exec spec (expected {GRAMMAR})"
                )
            }
        }
    }
}

impl std::error::Error for ExecSpecError {}

/// Functional-execution configuration threaded through pipeline/shard/serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    pub strategy: ExecStrategy,
    /// Lanes swept per chunk of [`execute_ordered`] (cache-residency
    /// knob; see [`DEFAULT_LANE_CHUNK`]). `0` is treated as 1.
    pub lane_chunk: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig::fused(1)
    }
}

impl ExecConfig {
    pub const fn scalar() -> Self {
        ExecConfig {
            strategy: ExecStrategy::Scalar,
            lane_chunk: DEFAULT_LANE_CHUNK,
        }
    }

    /// The fused engine on `threads` workers: `1` is serial, `0` means
    /// "use available parallelism".
    pub const fn fused(threads: usize) -> Self {
        ExecConfig {
            strategy: ExecStrategy::Fused {
                threads,
                block: DEFAULT_BLOCK,
            },
            lane_chunk: DEFAULT_LANE_CHUNK,
        }
    }

    /// Alias of [`ExecConfig::fused`] under its old name. It exists only
    /// because `benchmark/` calls it and goes with the next `benchmark/`
    /// PR.
    #[doc(hidden)]
    pub const fn bitplane(threads: usize) -> Self {
        ExecConfig::fused(threads)
    }

    /// Same config with a different lane-chunk size.
    pub const fn with_lane_chunk(mut self, lane_chunk: usize) -> Self {
        self.lane_chunk = lane_chunk;
        self
    }

    /// Same config with a different parallel block size (no-op for the
    /// scalar oracle).
    pub const fn with_block(mut self, block: usize) -> Self {
        if let ExecStrategy::Fused { threads, .. } = self.strategy {
            self.strategy = ExecStrategy::Fused { threads, block };
        }
        self
    }

    /// Parse a CLI spec: `scalar` or `fused[:threads[:block]]`, each
    /// optionally suffixed with `@<lane_chunk>` (e.g. `fused@512`,
    /// `fused:4:2048@128`, `fused:0`). The whole input must be consumed:
    /// trailing characters after a valid spec are a
    /// [`ExecSpecError::TrailingInput`]/[`ExecSpecError::BadNumber`].
    pub fn parse(s: &str) -> Result<ExecConfig, ExecSpecError> {
        // Digits only: `usize::from_str` also accepts a leading `+`,
        // which `spec()` never emits and the grammar does not allow.
        fn int(what: &'static str, tok: &str) -> Result<usize, ExecSpecError> {
            let bad = || ExecSpecError::BadNumber {
                what,
                token: tok.to_string(),
            };
            if tok.is_empty() || !tok.bytes().all(|b| b.is_ascii_digit()) {
                return Err(bad());
            }
            tok.parse().map_err(|_| bad())
        }

        let (base, chunk) = match s.split_once('@') {
            Some((b, c)) => (b, Some(int("lane-chunk", c)?.max(1))),
            None => (s, None),
        };
        let mut toks = base.split(':');
        let cfg = match toks.next().unwrap_or("") {
            "scalar" => ExecConfig::scalar(),
            "fused" => {
                let threads = toks.next().map_or(Ok(1), |t| int("thread count", t))?;
                let block = toks
                    .next()
                    .map_or(Ok(DEFAULT_BLOCK), |b| int("block size", b))?;
                ExecConfig::fused(threads).with_block(block)
            }
            head => {
                return Err(ExecSpecError::UnknownStrategy {
                    token: head.to_string(),
                })
            }
        };
        let rest: Vec<&str> = toks.collect();
        if !rest.is_empty() {
            return Err(ExecSpecError::TrailingInput {
                rest: rest.join(":"),
            });
        }
        Ok(match chunk {
            Some(c) => cfg.with_lane_chunk(c),
            None => cfg,
        })
    }

    /// Canonical spec string that [`ExecConfig::parse`] round-trips.
    pub fn spec(&self) -> String {
        let mut s = match self.strategy {
            ExecStrategy::Scalar => "scalar".to_string(),
            ExecStrategy::Fused { threads, block } => {
                if block != DEFAULT_BLOCK {
                    format!("fused:{threads}:{block}")
                } else if threads != 1 {
                    format!("fused:{threads}")
                } else {
                    "fused".to_string()
                }
            }
        };
        if self.lane_chunk != DEFAULT_LANE_CHUNK {
            s.push_str(&format!("@{}", self.lane_chunk));
        }
        s
    }

    /// Worker-thread count this config wants (1 for the scalar oracle).
    /// A host that cannot report its parallelism gets one worker: an
    /// unknown host must not be oversubscribed.
    pub fn thread_count(&self) -> usize {
        match self.strategy {
            ExecStrategy::Scalar => 1,
            ExecStrategy::Fused { threads: 0, .. } => {
                std::thread::available_parallelism().map_or(1, |n| n.get())
            }
            ExecStrategy::Fused { threads, .. } => threads,
        }
    }

    /// One fresh [`Scratch`] per worker thread this config wants.
    pub fn scratch_pool(&self) -> Vec<Scratch> {
        (0..self.thread_count().max(1))
            .map(|_| Scratch::new())
            .collect()
    }
}

/// Lane block size for block-parallel execution: big enough to amortize
/// scratch sweeps, small enough to load-balance (a GPU thread block).
pub const DEFAULT_BLOCK: usize = 1024;

// ---------------------------------------------------------------------------
// Lane element abstraction over the four width buckets.

trait Lane: Copy {
    fn get(self) -> u64;
    fn put(v: u64) -> Self;
}

macro_rules! impl_lane {
    ($($t:ty),*) => {$(
        impl Lane for $t {
            #[inline(always)]
            fn get(self) -> u64 {
                self as u64
            }
            #[inline(always)]
            fn put(v: u64) -> Self {
                v as $t
            }
        }
    )*};
}
impl_lane!(u8, u16, u32, u64);

/// Run `$body` with `$row` bound to the shared lane sub-slice of `$slot`.
macro_rules! with_row {
    ($dev:expr, $slot:expr, $tid0:expr, $group:expr, |$row:ident| $body:expr) => {{
        let base = $slot.offset as usize * $dev.n() + $tid0;
        match $slot.bucket {
            Bucket::B8 => {
                let $row = &$dev.var8[base..base + $group];
                $body
            }
            Bucket::B16 => {
                let $row = &$dev.var16[base..base + $group];
                $body
            }
            Bucket::B32 => {
                let $row = &$dev.var32[base..base + $group];
                $body
            }
            Bucket::B64 => {
                let $row = &$dev.var64[base..base + $group];
                $body
            }
        }
    }};
}

/// Mutable variant of [`with_row!`].
macro_rules! with_row_mut {
    ($dev:expr, $slot:expr, $tid0:expr, $group:expr, |$row:ident| $body:expr) => {{
        let base = $slot.offset as usize * $dev.n() + $tid0;
        match $slot.bucket {
            Bucket::B8 => {
                let $row = &mut $dev.var8[base..base + $group];
                $body
            }
            Bucket::B16 => {
                let $row = &mut $dev.var16[base..base + $group];
                $body
            }
            Bucket::B32 => {
                let $row = &mut $dev.var32[base..base + $group];
                $body
            }
            Bucket::B64 => {
                let $row = &mut $dev.var64[base..base + $group];
                $body
            }
        }
    }};
}

/// Whole-bucket variants for gather/scatter (per-lane indices).
macro_rules! with_bucket {
    ($dev:expr, $bucket:expr, |$arr:ident| $body:expr) => {
        match $bucket {
            Bucket::B8 => {
                let $arr = &$dev.var8[..];
                $body
            }
            Bucket::B16 => {
                let $arr = &$dev.var16[..];
                $body
            }
            Bucket::B32 => {
                let $arr = &$dev.var32[..];
                $body
            }
            Bucket::B64 => {
                let $arr = &$dev.var64[..];
                $body
            }
        }
    };
}

macro_rules! with_bucket_mut {
    ($dev:expr, $bucket:expr, |$arr:ident| $body:expr) => {
        match $bucket {
            Bucket::B8 => {
                let $arr = &mut $dev.var8[..];
                $body
            }
            Bucket::B16 => {
                let $arr = &mut $dev.var16[..];
                $body
            }
            Bucket::B32 => {
                let $arr = &mut $dev.var32[..];
                $body
            }
            Bucket::B64 => {
                let $arr = &mut $dev.var64[..];
                $body
            }
        }
    };
}

/// Monomorphize a runtime [`KBin`] into a literal for the macro `$arm`.
macro_rules! for_kbin {
    ($op:expr, $arm:ident) => {
        match $op {
            KBin::Add => $arm!(KBin::Add),
            KBin::Sub => $arm!(KBin::Sub),
            KBin::Mul => $arm!(KBin::Mul),
            KBin::Div => $arm!(KBin::Div),
            KBin::Rem => $arm!(KBin::Rem),
            KBin::And => $arm!(KBin::And),
            KBin::Or => $arm!(KBin::Or),
            KBin::Xor => $arm!(KBin::Xor),
            KBin::Xnor => $arm!(KBin::Xnor),
            KBin::Shl => $arm!(KBin::Shl),
            KBin::Shr => $arm!(KBin::Shr),
            KBin::Sshr => $arm!(KBin::Sshr),
            KBin::Eq => $arm!(KBin::Eq),
            KBin::Ne => $arm!(KBin::Ne),
            KBin::Ltu => $arm!(KBin::Ltu),
            KBin::Leu => $arm!(KBin::Leu),
            KBin::Gtu => $arm!(KBin::Gtu),
            KBin::Geu => $arm!(KBin::Geu),
            KBin::LAnd => $arm!(KBin::LAnd),
            KBin::LOr => $arm!(KBin::LOr),
        }
    };
}

macro_rules! for_kun {
    ($op:expr, $arm:ident) => {
        match $op {
            KUn::Not => $arm!(KUn::Not),
            KUn::Neg => $arm!(KUn::Neg),
            KUn::LNot => $arm!(KUn::LNot),
            KUn::RedAnd => $arm!(KUn::RedAnd),
            KUn::RedOr => $arm!(KUn::RedOr),
            KUn::RedXor => $arm!(KUn::RedXor),
        }
    };
}

// ---------------------------------------------------------------------------
// Scalar-register bookkeeping.

#[inline(always)]
fn sc(s: &Scratch, r: Reg) -> Option<u64> {
    if s.is_scalar[r as usize] {
        Some(s.sregs[r as usize])
    } else {
        None
    }
}

#[inline(always)]
fn set_scalar(s: &mut Scratch, r: Reg, v: u64) {
    s.sregs[r as usize] = v;
    s.is_scalar[r as usize] = true;
    s.scalar_ops += 1;
}

#[inline(always)]
fn clear_scalar(s: &mut Scratch, r: Reg) {
    s.is_scalar[r as usize] = false;
}

/// Demote a scalar register to per-lane storage (broadcast).
fn materialize(s: &mut Scratch, r: Reg) {
    if s.is_scalar[r as usize] {
        let v = s.sregs[r as usize];
        s.reg_mut(r).fill(v);
        s.is_scalar[r as usize] = false;
    }
}

/// Split-borrow one shared + one mutable register lane.
///
/// # Safety
/// Caller must guarantee `dst != a`.
unsafe fn two_regs(s: &mut Scratch, a: Reg, dst: Reg) -> (&[u64], &mut [u64]) {
    debug_assert!(dst != a);
    let g = s.group;
    let ptr = s.regs.as_mut_ptr();
    let av = std::slice::from_raw_parts(ptr.add(a as usize * g), g);
    let dv = std::slice::from_raw_parts_mut(ptr.add(dst as usize * g), g);
    (av, dv)
}

/// Split-borrow two shared + one mutable register lane.
///
/// # Safety
/// Caller must guarantee `dst != a && dst != b`.
unsafe fn three_regs(s: &mut Scratch, a: Reg, b: Reg, dst: Reg) -> (&[u64], &[u64], &mut [u64]) {
    debug_assert!(dst != a && dst != b);
    let g = s.group;
    let ptr = s.regs.as_mut_ptr();
    let av = std::slice::from_raw_parts(ptr.add(a as usize * g), g);
    let bv = std::slice::from_raw_parts(ptr.add(b as usize * g), g);
    let dv = std::slice::from_raw_parts_mut(ptr.add(dst as usize * g), g);
    (av, bv, dv)
}

/// Split-borrow three shared + one mutable register lane.
///
/// # Safety
/// Caller must guarantee `dst` differs from `c`, `a`, and `b`.
unsafe fn four_regs(
    s: &mut Scratch,
    c: Reg,
    a: Reg,
    b: Reg,
    dst: Reg,
) -> (&[u64], &[u64], &[u64], &mut [u64]) {
    debug_assert!(dst != c && dst != a && dst != b);
    let g = s.group;
    let ptr = s.regs.as_mut_ptr();
    let cv = std::slice::from_raw_parts(ptr.add(c as usize * g), g);
    let av = std::slice::from_raw_parts(ptr.add(a as usize * g), g);
    let bv = std::slice::from_raw_parts(ptr.add(b as usize * g), g);
    let dv = std::slice::from_raw_parts_mut(ptr.add(dst as usize * g), g);
    (cv, av, bv, dv)
}

// ---------------------------------------------------------------------------
// Generic row sweeps (monomorphized per bucket element type by the
// with_row!/with_row_mut! dispatch).

fn row_load<E: Lane>(row: &[E], out: &mut [u64]) {
    for (o, v) in out.iter_mut().zip(row) {
        *o = v.get();
    }
}

fn row_store<E: Lane>(row: &mut [E], src: &[u64], m: u64) {
    for (o, v) in row.iter_mut().zip(src) {
        *o = E::put(*v & m);
    }
}

fn row_fill<E: Lane>(row: &mut [E], v: u64) {
    row.fill(E::put(v));
}

// ---------------------------------------------------------------------------
// Vector op sweeps.

fn vbin(s: &mut Scratch, op: KBin, dst: Reg, a: Reg, b: Reg, w: u32, group: usize) {
    macro_rules! arm {
        ($o:expr) => {{
            if dst != a && dst != b {
                let (av, bv, dv) = unsafe { three_regs(s, a, b, dst) };
                for ((d, &x), &y) in dv.iter_mut().zip(av).zip(bv) {
                    *d = apply_bin($o, x, y, w);
                }
            } else {
                for t in 0..group {
                    let x = s.read_reg(a, t);
                    let y = s.read_reg(b, t);
                    s.reg_mut(dst)[t] = apply_bin($o, x, y, w);
                }
            }
        }};
    }
    for_kbin!(op, arm);
}

fn vbin_imm(s: &mut Scratch, op: KBin, dst: Reg, a: Reg, imm: u64, w: u32, swapped: bool) {
    macro_rules! arm {
        ($o:expr) => {{
            if dst != a {
                let (av, dv) = unsafe { two_regs(s, a, dst) };
                if swapped {
                    for (d, &x) in dv.iter_mut().zip(av) {
                        *d = apply_bin($o, imm, x, w);
                    }
                } else {
                    for (d, &x) in dv.iter_mut().zip(av) {
                        *d = apply_bin($o, x, imm, w);
                    }
                }
            } else {
                let dv = s.reg_mut(dst);
                if swapped {
                    for d in dv.iter_mut() {
                        *d = apply_bin($o, imm, *d, w);
                    }
                } else {
                    for d in dv.iter_mut() {
                        *d = apply_bin($o, *d, imm, w);
                    }
                }
            }
        }};
    }
    for_kbin!(op, arm);
}

fn vun(s: &mut Scratch, op: KUn, dst: Reg, a: Reg, w: u32) {
    macro_rules! arm {
        ($o:expr) => {{
            if dst != a {
                let (av, dv) = unsafe { two_regs(s, a, dst) };
                for (d, &x) in dv.iter_mut().zip(av) {
                    *d = apply_un($o, x, w);
                }
            } else {
                for d in s.reg_mut(dst).iter_mut() {
                    *d = apply_un($o, *d, w);
                }
            }
        }};
    }
    for_kun!(op, arm);
}

fn vmux(s: &mut Scratch, dst: Reg, cond: Reg, a: Reg, b: Reg, group: usize) {
    if dst != cond && dst != a && dst != b {
        let (cv, av, bv, dv) = unsafe { four_regs(s, cond, a, b, dst) };
        for (((d, &c), &x), &y) in dv.iter_mut().zip(cv).zip(av).zip(bv) {
            *d = if c != 0 { x } else { y };
        }
    } else {
        for t in 0..group {
            let c = s.read_reg(cond, t);
            let v = if c != 0 {
                s.read_reg(a, t)
            } else {
                s.read_reg(b, t)
            };
            s.reg_mut(dst)[t] = v;
        }
    }
}

/// `dst = row (op) other-reg` (row position per `swapped`).
fn vload_bin<E: Lane>(
    row: &[E],
    s: &mut Scratch,
    op: KBin,
    dst: Reg,
    b: Reg,
    w: u32,
    swapped: bool,
) {
    macro_rules! arm {
        ($o:expr) => {{
            if dst != b {
                let (bv, dv) = unsafe { two_regs(s, b, dst) };
                if swapped {
                    for ((d, &y), v) in dv.iter_mut().zip(bv).zip(row) {
                        *d = apply_bin($o, y, v.get(), w);
                    }
                } else {
                    for ((d, &y), v) in dv.iter_mut().zip(bv).zip(row) {
                        *d = apply_bin($o, v.get(), y, w);
                    }
                }
            } else {
                let dv = s.reg_mut(dst);
                if swapped {
                    for (d, v) in dv.iter_mut().zip(row) {
                        *d = apply_bin($o, *d, v.get(), w);
                    }
                } else {
                    for (d, v) in dv.iter_mut().zip(row) {
                        *d = apply_bin($o, v.get(), *d, w);
                    }
                }
            }
        }};
    }
    for_kbin!(op, arm);
}

/// `dst = row (op) imm` (operand order per `swapped`).
fn vload_bin_imm<E: Lane>(
    row: &[E],
    s: &mut Scratch,
    op: KBin,
    dst: Reg,
    imm: u64,
    w: u32,
    swapped: bool,
) {
    macro_rules! arm {
        ($o:expr) => {{
            let dv = s.reg_mut(dst);
            if swapped {
                for (d, v) in dv.iter_mut().zip(row) {
                    *d = apply_bin($o, imm, v.get(), w);
                }
            } else {
                for (d, v) in dv.iter_mut().zip(row) {
                    *d = apply_bin($o, v.get(), imm, w);
                }
            }
        }};
    }
    for_kbin!(op, arm);
}

/// `row = a (op) b` — the bin's own mask covers the store width.
fn vbin_store<E: Lane>(row: &mut [E], av: &[u64], bv: &[u64], op: KBin, w: u32) {
    macro_rules! arm {
        ($o:expr) => {
            for ((o, &x), &y) in row.iter_mut().zip(av).zip(bv) {
                *o = E::put(apply_bin($o, x, y, w));
            }
        };
    }
    for_kbin!(op, arm);
}

fn vbin_imm_store<E: Lane>(row: &mut [E], av: &[u64], op: KBin, imm: u64, w: u32, swapped: bool) {
    macro_rules! arm {
        ($o:expr) => {
            if swapped {
                for (o, &x) in row.iter_mut().zip(av) {
                    *o = E::put(apply_bin($o, imm, x, w));
                }
            } else {
                for (o, &x) in row.iter_mut().zip(av) {
                    *o = E::put(apply_bin($o, x, imm, w));
                }
            }
        };
    }
    for_kbin!(op, arm);
}

fn vun_store<E: Lane>(row: &mut [E], av: &[u64], op: KUn, w: u32) {
    macro_rules! arm {
        ($o:expr) => {
            for (o, &x) in row.iter_mut().zip(av) {
                *o = E::put(apply_un($o, x, w));
            }
        };
    }
    for_kun!(op, arm);
}

fn vmux_store<E: Lane>(row: &mut [E], cv: &[u64], av: &[u64], bv: &[u64], m: u64) {
    for (((o, &c), &x), &y) in row.iter_mut().zip(cv).zip(av).zip(bv) {
        *o = E::put(if c != 0 { x } else { y } & m);
    }
}

fn vmux_loads<EA: Lane, EB: Lane>(ra: &[EA], rb: &[EB], cv: &[u64], dv: &mut [u64]) {
    for (((d, &c), x), y) in dv.iter_mut().zip(cv).zip(ra).zip(rb) {
        *d = if c != 0 { x.get() } else { y.get() };
    }
}

#[allow(clippy::too_many_arguments)]
fn vgather<E: Lane>(
    arr: &[E],
    n: usize,
    offset: u32,
    depth: u32,
    tid0: usize,
    iv: &[u64],
    out: &mut [u64],
) {
    for (t, (o, &i)) in out.iter_mut().zip(iv).enumerate() {
        *o = if i < depth as u64 {
            arr[(offset as usize + i as usize) * n + tid0 + t].get()
        } else {
            0
        };
    }
}

#[allow(clippy::too_many_arguments)]
fn vscatter<E: Lane>(
    arr: &mut [E],
    n: usize,
    offset: u32,
    depth: u32,
    tid0: usize,
    iv: &[u64],
    pv: &[u64],
    sv: &[u64],
    m: u64,
) {
    for (t, ((&i, &p), &v)) in iv.iter().zip(pv).zip(sv).enumerate() {
        if p != 0 && i < depth as u64 {
            arr[(offset as usize + i as usize) * n + tid0 + t] = E::put(v & m);
        }
    }
}

// ---------------------------------------------------------------------------
// The fused-op interpreter.

/// Execute one fused kernel for threads `[tid0, tid0 + group)`.
pub fn execute_fused(
    fk: &FusedKernel,
    dev: &mut DeviceMemory,
    scratch: &mut Scratch,
    tid0: usize,
    group: usize,
) {
    debug_assert!(tid0 + group <= dev.n());
    scratch.ensure(fk.num_regs, group);
    for &f in &fk.fops {
        exec_fop(f, dev, scratch, tid0, group);
    }
}

fn exec_fop(f: FOp, dev: &mut DeviceMemory, s: &mut Scratch, tid0: usize, group: usize) {
    match f {
        FOp::Const { dst, value } => set_scalar(s, dst, value),
        FOp::Copy { dst, a } => match sc(s, a) {
            Some(v) => set_scalar(s, dst, v),
            None => {
                clear_scalar(s, dst);
                if dst != a {
                    let (av, dv) = unsafe { two_regs(s, a, dst) };
                    dv.copy_from_slice(av);
                }
            }
        },
        FOp::Load { dst, slot, uniform } => {
            if uniform {
                set_scalar(s, dst, dev.load(slot, tid0));
            } else {
                clear_scalar(s, dst);
                with_row!(dev, slot, tid0, group, |row| row_load(row, s.reg_mut(dst)));
            }
        }
        FOp::Store { src, slot, width } => {
            let m = mask(width);
            match sc(s, src) {
                Some(v) => {
                    s.scalar_ops += 1;
                    with_row_mut!(dev, slot, tid0, group, |row| row_fill(row, v & m));
                }
                None => with_row_mut!(dev, slot, tid0, group, |row| row_store(row, s.reg(src), m)),
            }
        }
        FOp::ConstStore { slot, value } => {
            s.scalar_ops += 1;
            with_row_mut!(dev, slot, tid0, group, |row| row_fill(row, value));
        }
        FOp::LoadIdx {
            dst,
            slot,
            idx,
            depth,
            uniform,
        } => {
            debug_assert!(
                slot.offset as usize + depth as usize <= dev.bucket_len(slot.bucket),
                "memory at {slot:?} depth {depth} exceeds allocated extent"
            );
            match sc(s, idx) {
                Some(i) => {
                    if i >= depth as u64 {
                        set_scalar(s, dst, 0);
                    } else {
                        let row = Slot {
                            bucket: slot.bucket,
                            offset: slot.offset + i as u32,
                        };
                        if uniform {
                            set_scalar(s, dst, dev.load(row, tid0));
                        } else {
                            clear_scalar(s, dst);
                            with_row!(dev, row, tid0, group, |r| row_load(r, s.reg_mut(dst)));
                        }
                    }
                }
                None => {
                    clear_scalar(s, dst);
                    let n = dev.n();
                    if dst != idx {
                        let (iv, dv) = unsafe { two_regs(s, idx, dst) };
                        with_bucket!(dev, slot.bucket, |arr| vgather(
                            arr,
                            n,
                            slot.offset,
                            depth,
                            tid0,
                            iv,
                            dv
                        ));
                    } else {
                        for t in 0..group {
                            let i = s.read_reg(idx, t);
                            let v = dev.load_idx(slot, tid0 + t, i, depth);
                            s.reg_mut(dst)[t] = v;
                        }
                    }
                }
            }
        }
        FOp::StoreIdxCond {
            src,
            slot,
            idx,
            depth,
            pred,
            width,
        } => {
            let m = mask(width);
            if let (Some(p), Some(i), Some(v)) = (sc(s, pred), sc(s, idx), sc(s, src)) {
                s.scalar_ops += 1;
                if p != 0 && i < depth as u64 {
                    let row = Slot {
                        bucket: slot.bucket,
                        offset: slot.offset + i as u32,
                    };
                    with_row_mut!(dev, row, tid0, group, |r| row_fill(r, v & m));
                }
            } else {
                materialize(s, pred);
                materialize(s, idx);
                materialize(s, src);
                let n = dev.n();
                let (iv, pv, sv) = (s.reg(idx), s.reg(pred), s.reg(src));
                with_bucket_mut!(dev, slot.bucket, |arr| vscatter(
                    arr,
                    n,
                    slot.offset,
                    depth,
                    tid0,
                    iv,
                    pv,
                    sv,
                    m
                ));
            }
        }
        FOp::Bin {
            op,
            dst,
            a,
            b,
            width,
        } => match (sc(s, a), sc(s, b)) {
            (Some(x), Some(y)) => set_scalar(s, dst, apply_bin(op, x, y, width)),
            (Some(x), None) => {
                clear_scalar(s, dst);
                vbin_imm(s, op, dst, b, x, width, true);
            }
            (None, Some(y)) => {
                clear_scalar(s, dst);
                vbin_imm(s, op, dst, a, y, width, false);
            }
            (None, None) => {
                clear_scalar(s, dst);
                vbin(s, op, dst, a, b, width, group);
            }
        },
        FOp::BinImm {
            op,
            dst,
            a,
            imm,
            width,
            swapped,
        } => match sc(s, a) {
            Some(x) => {
                let v = if swapped {
                    apply_bin(op, imm, x, width)
                } else {
                    apply_bin(op, x, imm, width)
                };
                set_scalar(s, dst, v);
            }
            None => {
                clear_scalar(s, dst);
                vbin_imm(s, op, dst, a, imm, width, swapped);
            }
        },
        FOp::Un { op, dst, a, width } => match sc(s, a) {
            Some(x) => set_scalar(s, dst, apply_un(op, x, width)),
            None => {
                clear_scalar(s, dst);
                vun(s, op, dst, a, width);
            }
        },
        FOp::Mux { dst, cond, a, b } => match sc(s, cond) {
            Some(c) => {
                let src = if c != 0 { a } else { b };
                exec_fop(FOp::Copy { dst, a: src }, dev, s, tid0, group);
            }
            None => {
                materialize(s, a);
                materialize(s, b);
                clear_scalar(s, dst);
                vmux(s, dst, cond, a, b, group);
            }
        },
        FOp::Extract {
            dst,
            a,
            shift,
            emask,
        } => match sc(s, a) {
            Some(x) => set_scalar(s, dst, (x >> shift) & emask),
            None => {
                clear_scalar(s, dst);
                if dst != a {
                    let (av, dv) = unsafe { two_regs(s, a, dst) };
                    for (d, &x) in dv.iter_mut().zip(av) {
                        *d = (x >> shift) & emask;
                    }
                } else {
                    for d in s.reg_mut(dst).iter_mut() {
                        *d = (*d >> shift) & emask;
                    }
                }
            }
        },
        FOp::LoadBin {
            op,
            dst,
            slot,
            b,
            width,
            swapped,
            uniform,
        } => {
            if uniform {
                let x = dev.load(slot, tid0);
                match sc(s, b) {
                    Some(y) => {
                        let v = if swapped {
                            apply_bin(op, y, x, width)
                        } else {
                            apply_bin(op, x, y, width)
                        };
                        set_scalar(s, dst, v);
                    }
                    None => {
                        // Row is the immediate now; flip `swapped` so the
                        // remaining register keeps its operand position.
                        clear_scalar(s, dst);
                        vbin_imm(s, op, dst, b, x, width, !swapped);
                    }
                }
            } else {
                match sc(s, b) {
                    Some(y) => {
                        clear_scalar(s, dst);
                        with_row!(dev, slot, tid0, group, |row| vload_bin_imm(
                            row, s, op, dst, y, width, swapped
                        ));
                    }
                    None => {
                        clear_scalar(s, dst);
                        with_row!(dev, slot, tid0, group, |row| vload_bin(
                            row, s, op, dst, b, width, swapped
                        ));
                    }
                }
            }
        }
        FOp::LoadBinImm {
            op,
            dst,
            slot,
            imm,
            width,
            swapped,
            uniform,
        } => {
            if uniform {
                let x = dev.load(slot, tid0);
                let v = if swapped {
                    apply_bin(op, imm, x, width)
                } else {
                    apply_bin(op, x, imm, width)
                };
                set_scalar(s, dst, v);
            } else {
                clear_scalar(s, dst);
                with_row!(dev, slot, tid0, group, |row| vload_bin_imm(
                    row, s, op, dst, imm, width, swapped
                ));
            }
        }
        FOp::BinStore {
            op,
            a,
            b,
            slot,
            width,
        } => match (sc(s, a), sc(s, b)) {
            (Some(x), Some(y)) => {
                s.scalar_ops += 1;
                let v = apply_bin(op, x, y, width);
                with_row_mut!(dev, slot, tid0, group, |row| row_fill(row, v));
            }
            (Some(x), None) => {
                let bv = s.reg(b);
                with_row_mut!(dev, slot, tid0, group, |row| vbin_imm_store(
                    row, bv, op, x, width, true
                ));
            }
            (None, Some(y)) => {
                let av = s.reg(a);
                with_row_mut!(dev, slot, tid0, group, |row| vbin_imm_store(
                    row, av, op, y, width, false
                ));
            }
            (None, None) => {
                let (av, bv) = (s.reg(a), s.reg(b));
                with_row_mut!(dev, slot, tid0, group, |row| vbin_store(
                    row, av, bv, op, width
                ));
            }
        },
        FOp::BinImmStore {
            op,
            a,
            imm,
            slot,
            width,
            swapped,
        } => match sc(s, a) {
            Some(x) => {
                s.scalar_ops += 1;
                let v = if swapped {
                    apply_bin(op, imm, x, width)
                } else {
                    apply_bin(op, x, imm, width)
                };
                with_row_mut!(dev, slot, tid0, group, |row| row_fill(row, v));
            }
            None => {
                let av = s.reg(a);
                with_row_mut!(dev, slot, tid0, group, |row| vbin_imm_store(
                    row, av, op, imm, width, swapped
                ));
            }
        },
        FOp::UnStore { op, a, slot, width } => match sc(s, a) {
            Some(x) => {
                s.scalar_ops += 1;
                let v = apply_un(op, x, width);
                with_row_mut!(dev, slot, tid0, group, |row| row_fill(row, v));
            }
            None => {
                let av = s.reg(a);
                with_row_mut!(dev, slot, tid0, group, |row| vun_store(row, av, op, width));
            }
        },
        FOp::MuxStore {
            cond,
            a,
            b,
            slot,
            width,
        } => {
            let m = mask(width);
            if let (Some(c), Some(x), Some(y)) = (sc(s, cond), sc(s, a), sc(s, b)) {
                s.scalar_ops += 1;
                let v = if c != 0 { x } else { y } & m;
                with_row_mut!(dev, slot, tid0, group, |row| row_fill(row, v));
            } else {
                materialize(s, cond);
                materialize(s, a);
                materialize(s, b);
                let (cv, av, bv) = (s.reg(cond), s.reg(a), s.reg(b));
                with_row_mut!(dev, slot, tid0, group, |row| vmux_store(row, cv, av, bv, m));
            }
        }
        FOp::MuxLoads {
            dst,
            cond,
            slot_a,
            slot_b,
            uniform_a,
            uniform_b,
        } => match sc(s, cond) {
            Some(c) => {
                let (slot, uniform) = if c != 0 {
                    (slot_a, uniform_a)
                } else {
                    (slot_b, uniform_b)
                };
                exec_fop(FOp::Load { dst, slot, uniform }, dev, s, tid0, group);
            }
            None => {
                clear_scalar(s, dst);
                if dst != cond {
                    let (cv, dv) = unsafe { two_regs(s, cond, dst) };
                    with_row!(dev, slot_a, tid0, group, |ra| with_row!(
                        dev,
                        slot_b,
                        tid0,
                        group,
                        |rb| vmux_loads(ra, rb, cv, dv)
                    ));
                } else {
                    for t in 0..group {
                        let c = s.read_reg(cond, t);
                        let v = if c != 0 {
                            dev.load(slot_a, tid0 + t)
                        } else {
                            dev.load(slot_b, tid0 + t)
                        };
                        s.reg_mut(dst)[t] = v;
                    }
                }
            }
        },
    }
}

// ---------------------------------------------------------------------------
// Whole-cycle drivers.

/// Execute fused kernels in `order` for one lane range (single thread).
pub fn execute_ordered(
    fused: &[FusedKernel],
    order: &[usize],
    dev: &mut DeviceMemory,
    scratch: &mut Scratch,
    tid0: usize,
    group: usize,
    lane_chunk: usize,
) {
    // Lane-chunked: the whole kernel sequence runs chunk-by-chunk so the
    // scratch register rows (8 B/lane) and the touched device rows stay
    // cache-resident across every fop of the cycle, instead of each fop
    // streaming the full lane range through the cache. Lanes are
    // independent, so any chunk order is bit-identical.
    let lane_chunk = lane_chunk.max(1);
    let end = tid0 + group;
    let mut t = tid0;
    while t < end {
        let g = lane_chunk.min(end - t);
        for &k in order {
            execute_fused(&fused[k], dev, scratch, t, g);
        }
        t += g;
    }
}

/// Default lanes swept per chunk of [`execute_ordered`]: 256 lanes keep a
/// u64 register row at 2 KB, so a kernel's whole register file sits in
/// L1/L2 while the chunk runs every fop of the cycle (measured fastest of
/// 256/512/1024 on the riscv-mini 8192-lane benchmark). The runtime value
/// lives in [`ExecConfig::lane_chunk`] so the autotuner can search it
/// per design/host.
pub const DEFAULT_LANE_CHUNK: usize = 256;

/// The device image as the lane-block workers of [`for_lane_blocks`]
/// share it.
struct DevPtr(*mut DeviceMemory);
// SAFETY: the pointer comes from the `&mut DeviceMemory` that
// `for_lane_blocks` holds for the whole scope its workers live in, so it
// is valid and nothing outside the scope touches the image meanwhile.
// `DeviceMemory` is plain owned data (four bucket `Vec`s and an optional
// boxed plane `Vec`), none of it thread-affine, and no worker grows,
// shrinks, attaches or detaches any of them. Workers claim distinct
// block indices from one atomic counter, and block `i` covers lanes
// `[max(64·w_i, tid0), min(64·w_{i+1}, end))` for a strictly increasing
// word sequence `w`: the lane intervals are pairwise disjoint and every
// boundary between two blocks is a multiple of 64. Every executor
// (`execute_ordered`, the escape scatter, the bit programs) given lanes
// `[t0, t1)` reads and writes only elements `offset * N + t` of bucket
// rows with `t` in that interval, and only words `[t0/64, ceil(t1/64))`
// of a plane, partial edge words under a lane mask; with boundaries on
// multiples of 64 two blocks never share a plane word. So no element is
// written by one worker and accessed by another. (The workers' `&mut`
// views of the image do overlap as references; that lane discipline is
// all that separates them, so `for_lane_blocks` stays crate-private and
// everything called through it must keep to its lanes.)
unsafe impl Send for DevPtr {}
unsafe impl Sync for DevPtr {}

/// The one block-parallel driver: call `run(dev, scratch, t0, t1)` over
/// lanes `[tid0, tid0 + group)` cut into 64-lane-aligned blocks of
/// `block` lanes, claimed from an atomic counter by up to
/// `scratches.len()` scoped workers. With one scratch (or one block) it
/// is a single call on the caller's thread.
///
/// `run` must confine itself to lanes `[t0, t1)` of every row and to the
/// plane words covering them; see the SAFETY argument on [`DevPtr`].
pub(crate) fn for_lane_blocks(
    dev: &mut DeviceMemory,
    scratches: &mut [Scratch],
    tid0: usize,
    group: usize,
    block: usize,
    run: impl Fn(&mut DeviceMemory, &mut Scratch, usize, usize) + Sync,
) {
    if group == 0 {
        return;
    }
    let end = tid0 + group;
    let w_start = tid0 / 64;
    let w_end = end.div_ceil(64);
    let words_per_block = (block / 64).max(1);
    let nblocks = (w_end - w_start).div_ceil(words_per_block);
    let workers = scratches.len().min(nblocks);
    if workers <= 1 {
        run(dev, &mut scratches[0], tid0, end);
        return;
    }
    let next = AtomicUsize::new(0);
    let devp = DevPtr(dev);
    let (next, devp, run) = (&next, &devp, &run);
    std::thread::scope(|sc| {
        for scratch in scratches[..workers].iter_mut() {
            sc.spawn(move || loop {
                // Relaxed: the counter hands out indices and publishes
                // nothing; the scope's join orders the workers' writes
                // before the caller's next read.
                let bi = next.fetch_add(1, Ordering::Relaxed);
                if bi >= nblocks {
                    break;
                }
                let bw0 = w_start + bi * words_per_block;
                let bw1 = (bw0 + words_per_block).min(w_end);
                let t0 = (bw0 * 64).max(tid0);
                let t1 = (bw1 * 64).min(end);
                // SAFETY: see `DevPtr` — this block's lanes and plane
                // words belong to no other worker.
                let dev = unsafe { &mut *devp.0 };
                run(dev, scratch, t0, t1);
            });
        }
    });
}

/// Execute the kernels `order` names for lanes `[tid0, tid0 + group)`
/// under `exec`: the one place a config becomes an executor call.
/// `kernels` is the scalar reference form of the program and `fused` the
/// same kernels fused. The fused engine picks its data path from what it
/// is given: a `bit` layout with planes runs the transposed engine
/// (attaching the planes on first use), no layout or a zero-plane one
/// runs [`execute_ordered`] over `fused`. `scratches` holds at least one
/// element, one per worker. Returns the ops computed once as scalars
/// instead of once per lane.
#[allow(clippy::too_many_arguments)]
pub fn run_order(
    kernels: &[Kernel],
    fused: &[FusedKernel],
    bit: Option<&BitLayout>,
    order: &[usize],
    dev: &mut DeviceMemory,
    scratches: &mut [Scratch],
    tid0: usize,
    group: usize,
    exec: &ExecConfig,
) -> u64 {
    let chunk = exec.lane_chunk;
    match (exec.strategy, bit.filter(|l| l.num_planes() > 0)) {
        (ExecStrategy::Scalar, _) => {
            for &k in order {
                execute_kernel(&kernels[k], dev, &mut scratches[0], tid0, group);
            }
        }
        (ExecStrategy::Fused { block, .. }, Some(layout)) => {
            dev.attach_bitplane(layout);
            for_lane_blocks(dev, scratches, tid0, group, block, |dev, s, t0, t1| {
                execute_bitplane_range(layout, order, dev, s, t0, t1, chunk)
            });
        }
        (ExecStrategy::Fused { block, .. }, None) => {
            for_lane_blocks(dev, scratches, tid0, group, block, |dev, s, t0, t1| {
                execute_ordered(fused, order, dev, s, t0, t1 - t0, chunk)
            });
        }
    }
    scratches
        .iter_mut()
        .map(|s| std::mem::take(&mut s.scalar_ops))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuse::fuse_kernel;
    use crate::ir::{Kernel, Op};

    fn s(bucket: Bucket, offset: u32) -> Slot {
        Slot { bucket, offset }
    }

    fn demo_kernel() -> Kernel {
        Kernel::new(
            "demo",
            vec![
                Op::Load {
                    dst: 0,
                    slot: s(Bucket::B16, 0),
                },
                Op::Const { dst: 1, value: 3 },
                Op::Bin {
                    op: KBin::Mul,
                    dst: 2,
                    a: 0,
                    b: 1,
                    width: 14,
                },
                Op::Load {
                    dst: 3,
                    slot: s(Bucket::B16, 1),
                },
                Op::Bin {
                    op: KBin::Xor,
                    dst: 4,
                    a: 2,
                    b: 3,
                    width: 14,
                },
                Op::Store {
                    src: 4,
                    slot: s(Bucket::B16, 2),
                    width: 14,
                },
            ],
        )
    }

    fn seed_dev(n: usize) -> DeviceMemory {
        let mut dev = DeviceMemory::new(n, 0, 3, 0, 0);
        for t in 0..n {
            dev.store(s(Bucket::B16, 0), t, (t as u64 * 7 + 1) & 0x3fff);
            dev.store(s(Bucket::B16, 1), t, (t as u64 * 13 + 5) & 0x3fff);
        }
        dev
    }

    #[test]
    fn fused_matches_scalar() {
        let n = 33;
        let k = demo_kernel();
        let fk = fuse_kernel(&k, None);
        let mut d1 = seed_dev(n);
        let mut d2 = seed_dev(n);
        execute_kernel(&k, &mut d1, &mut Scratch::new(), 0, n);
        execute_fused(&fk, &mut d2, &mut Scratch::new(), 0, n);
        assert_eq!(d1.var16, d2.var16);
    }

    #[test]
    fn parallel_matches_scalar() {
        let n = 257;
        let k = demo_kernel();
        let fk = fuse_kernel(&k, None);
        let mut d1 = seed_dev(n);
        let mut d2 = seed_dev(n);
        execute_kernel(&k, &mut d1, &mut Scratch::new(), 0, n);
        let mut pool: Vec<Scratch> = (0..3).map(|_| Scratch::new()).collect();
        run_order(
            std::slice::from_ref(&k),
            &[fk],
            None,
            &[0],
            &mut d2,
            &mut pool,
            0,
            n,
            &ExecConfig::fused(3).with_block(64),
        );
        assert_eq!(d1.var16, d2.var16);
    }

    #[test]
    fn lane_blocks_tile_the_window_on_word_boundaries() {
        let mut dev = DeviceMemory::new(512, 0, 0, 0, 0);
        let windows = [
            (0, 512, 64),
            (37, 374, 128),
            (5, 20, 1),
            (63, 2, 64),
            (0, 0, 64),
        ];
        for (tid0, group, block) in windows {
            let seen = std::sync::Mutex::new(Vec::new());
            let mut pool = ExecConfig::fused(4).scratch_pool();
            for_lane_blocks(&mut dev, &mut pool, tid0, group, block, |_, _, t0, t1| {
                seen.lock().unwrap().push((t0, t1));
            });
            let mut seen = seen.into_inner().unwrap();
            seen.sort_unstable();
            let mut at = tid0;
            for (t0, t1) in seen {
                assert!(t0 == at && t1 > t0, "blocks must tile the window");
                assert!(t0 == tid0 || t0 % 64 == 0, "boundary {t0} not word-aligned");
                at = t1;
            }
            assert_eq!(at, tid0 + group);
        }
    }

    #[test]
    fn exec_config_parse() {
        assert_eq!(ExecConfig::parse("scalar").unwrap(), ExecConfig::scalar());
        assert_eq!(ExecConfig::parse("fused").unwrap(), ExecConfig::default());
        assert_eq!(
            ExecConfig::parse("fused:8").unwrap().strategy,
            ExecStrategy::Fused {
                threads: 8,
                block: DEFAULT_BLOCK
            }
        );
        assert_eq!(
            ExecConfig::parse("fused:0:2048").unwrap().strategy,
            ExecStrategy::Fused {
                threads: 0,
                block: 2048
            }
        );
        assert!(ExecConfig::parse("wat").is_err());
        assert!(ExecConfig::parse("fused@zero").is_err());
    }

    #[test]
    fn exec_config_parse_rejects_trailing_garbage() {
        assert_eq!(
            ExecConfig::parse("fused@1024junk"),
            Err(ExecSpecError::BadNumber {
                what: "lane-chunk",
                token: "1024junk".to_string()
            })
        );
        assert_eq!(
            ExecConfig::parse("scalar:3"),
            Err(ExecSpecError::TrailingInput {
                rest: "3".to_string()
            })
        );
        assert_eq!(
            ExecConfig::parse("fused:4:1024:9"),
            Err(ExecSpecError::TrailingInput {
                rest: "9".to_string()
            })
        );
        assert_eq!(
            ExecConfig::parse("fused:+4"),
            Err(ExecSpecError::BadNumber {
                what: "thread count",
                token: "+4".to_string()
            })
        );
        assert_eq!(
            ExecConfig::parse("fused:"),
            Err(ExecSpecError::BadNumber {
                what: "thread count",
                token: String::new()
            })
        );
        // The heads of the strategies that were folded into `fused` are
        // unknown like any other word, not aliases.
        for head in ["warp", "vector", "vectorized", "par", "parallel", "bitpar"] {
            for spec in [head.to_string(), format!("{head}:2"), format!("{head}@64")] {
                let token = head.to_string();
                assert_eq!(
                    ExecConfig::parse(&spec),
                    Err(ExecSpecError::UnknownStrategy { token }),
                    "`{spec}`"
                );
            }
        }
        // Errors render with the grammar hint for the CLI.
        let msg = ExecConfig::parse("fused@1024junk").unwrap_err().to_string();
        assert!(msg.contains("lane-chunk") && msg.contains("fused[:threads[:block]]"));
    }

    #[test]
    fn exec_config_spec_round_trips() {
        for spec in [
            ExecConfig::scalar(),
            ExecConfig::scalar().with_lane_chunk(64),
            ExecConfig::fused(1),
            ExecConfig::fused(1).with_lane_chunk(512),
            ExecConfig::fused(1).with_block(128),
            ExecConfig::fused(0),
            ExecConfig::fused(4).with_block(2048),
            ExecConfig::fused(0).with_block(4096).with_lane_chunk(64),
        ] {
            assert_eq!(ExecConfig::parse(&spec.spec()).unwrap(), spec);
        }
        assert_eq!(
            ExecConfig::parse("fused:4:2048@128").unwrap(),
            ExecConfig::fused(4).with_block(2048).with_lane_chunk(128)
        );
        assert_eq!(ExecConfig::default().spec(), "fused");
        assert_eq!(ExecConfig::bitplane(2), ExecConfig::fused(2));
    }
}
