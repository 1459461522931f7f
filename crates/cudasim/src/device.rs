//! Functional SIMT execution over the width-bucketed device memory.
//!
//! One GPU thread simulates one stimulus (§3.1). The executor runs each
//! op across a contiguous thread range before moving to the next op —
//! warp-synchronous semantics, with the op-outer/thread-inner loop shape
//! giving the host CPU the same streaming access pattern a coalesced GPU
//! kernel enjoys.

use crate::ir::{Bucket, KBin, KUn, Kernel, Op, Slot};

/// Mask with the low `width` bits set (width 1..=64).
#[inline(always)]
pub fn mask(width: u32) -> u64 {
    debug_assert!((1..=64).contains(&width));
    if width >= 64 {
        !0
    } else {
        (1u64 << width) - 1
    }
}

/// The device's global memory: four width-bucketed arrays, each holding
/// `len_i * N` elements (`N` = batch size), laid out `offset * N + tid`.
#[derive(Debug, Clone)]
pub struct DeviceMemory {
    n: usize,
    pub var8: Vec<u8>,
    pub var16: Vec<u16>,
    pub var32: Vec<u32>,
    pub var64: Vec<u64>,
    /// Optional bit-transposed region for 1-bit slots. While attached, the
    /// planes are authoritative for their slots and the matching `var8`
    /// rows are zero (see [`crate::bitplane`]); the single-element
    /// `load`/`store` shims below route through it transparently.
    pub(crate) bitplane: Option<Box<crate::bitplane::BitplaneMemory>>,
}

impl DeviceMemory {
    /// Allocate arrays for `n` stimulus with the given element counts per
    /// bucket (the transpiler's memory plan totals).
    pub fn new(n: usize, len8: u32, len16: u32, len32: u32, len64: u32) -> Self {
        DeviceMemory {
            n,
            var8: vec![0; len8 as usize * n],
            var16: vec![0; len16 as usize * n],
            var32: vec![0; len32 as usize * n],
            var64: vec![0; len64 as usize * n],
            bitplane: None,
        }
    }

    /// Batch size N.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total allocated bytes (GPU memory footprint).
    pub fn bytes(&self) -> usize {
        self.var8.len() + self.var16.len() * 2 + self.var32.len() * 4 + self.var64.len() * 8
    }

    /// Read one element.
    #[inline(always)]
    pub fn load(&self, slot: Slot, tid: usize) -> u64 {
        let i = slot.offset as usize * self.n + tid;
        match slot.bucket {
            Bucket::B8 => {
                if let Some(bp) = &self.bitplane {
                    if let Some(p) = bp.plane_for(slot.offset) {
                        return bp.get(p, tid);
                    }
                }
                self.var8[i] as u64
            }
            Bucket::B16 => self.var16[i] as u64,
            Bucket::B32 => self.var32[i] as u64,
            Bucket::B64 => self.var64[i],
        }
    }

    /// Write one element (truncating to the bucket element type).
    #[inline(always)]
    pub fn store(&mut self, slot: Slot, tid: usize, value: u64) {
        let i = slot.offset as usize * self.n + tid;
        match slot.bucket {
            Bucket::B8 => {
                if let Some(bp) = &mut self.bitplane {
                    if let Some(p) = bp.plane_for(slot.offset) {
                        bp.set(p, tid, value);
                        return;
                    }
                }
                self.var8[i] = value as u8;
            }
            Bucket::B16 => self.var16[i] = value as u16,
            Bucket::B32 => self.var32[i] = value as u32,
            Bucket::B64 => self.var64[i] = value,
        }
    }

    /// Write lanes `tid0..tid0 + values.len()` of one slot, equal to one
    /// [`DeviceMemory::store`] per lane: a copy into the bucket row, or on
    /// an attached plane 64 lanes per word, edge words merged under the
    /// window mask so no lane outside it changes.
    pub fn store_row(&mut self, slot: Slot, tid0: usize, values: &[u64]) {
        // Past `n` a run would spill into the next slot's row.
        assert!(
            tid0 + values.len() <= self.n,
            "lanes [{tid0}, {tid0}+{}) outside a {}-lane device",
            values.len(),
            self.n
        );
        let at = slot.offset as usize * self.n + tid0;
        fn copy<T>(row: &mut [T], values: &[u64], cast: impl Fn(u64) -> T) {
            for (d, &v) in row[..values.len()].iter_mut().zip(values) {
                *d = cast(v);
            }
        }
        match slot.bucket {
            Bucket::B8 => {
                if let Some(bp) = &mut self.bitplane {
                    if let Some(p) = bp.plane_for(slot.offset) {
                        bp.set_lanes(p, tid0, values);
                        return;
                    }
                }
                copy(&mut self.var8[at..], values, |v| v as u8)
            }
            Bucket::B16 => copy(&mut self.var16[at..], values, |v| v as u16),
            Bucket::B32 => copy(&mut self.var32[at..], values, |v| v as u32),
            Bucket::B64 => self.var64[at..at + values.len()].copy_from_slice(values),
        }
    }

    /// Elements allocated in `bucket` (per stimulus).
    #[inline(always)]
    pub fn bucket_len(&self, bucket: Bucket) -> usize {
        let total = match bucket {
            Bucket::B8 => self.var8.len(),
            Bucket::B16 => self.var16.len(),
            Bucket::B32 => self.var32.len(),
            Bucket::B64 => self.var64.len(),
        };
        total.checked_div(self.n).unwrap_or(0)
    }

    /// Read a memory word `mem[idx]` for a variable based at `slot`.
    #[inline(always)]
    pub fn load_idx(&self, slot: Slot, tid: usize, idx: u64, depth: u32) -> u64 {
        // An inconsistent memory plan would make an in-range `idx` read the
        // *next* variable's slots; catch that in debug builds.
        debug_assert!(
            slot.offset as usize + depth as usize <= self.bucket_len(slot.bucket),
            "memory at {slot:?} depth {depth} exceeds allocated extent {}",
            self.bucket_len(slot.bucket)
        );
        if idx >= depth as u64 {
            return 0;
        }
        self.load(
            Slot {
                bucket: slot.bucket,
                offset: slot.offset + idx as u32,
            },
            tid,
        )
    }
}

/// Reusable per-kernel register arena: register-major layout
/// `regs[r * group + t]` so each op's thread loop is a contiguous sweep.
///
/// The vectorized executor additionally keeps a scalar shadow file
/// (`sregs`/`is_scalar`): a register proven lane-invariant lives as one
/// `u64` and is broadcast into `regs` only on demotion to per-lane use.
#[derive(Debug, Default)]
pub struct Scratch {
    pub(crate) regs: Vec<u64>,
    pub(crate) group: usize,
    pub(crate) sregs: Vec<u64>,
    pub(crate) is_scalar: Vec<bool>,
    /// Ops executed once as scalars instead of per lane (uniform wins).
    pub scalar_ops: u64,
}

impl Scratch {
    pub fn new() -> Self {
        Scratch::default()
    }

    pub(crate) fn ensure(&mut self, num_regs: u16, group: usize) {
        let need = num_regs as usize * group;
        if self.regs.len() < need {
            self.regs.resize(need, 0);
        }
        if self.sregs.len() < num_regs as usize {
            self.sregs.resize(num_regs as usize, 0);
            self.is_scalar.resize(num_regs as usize, false);
        }
        self.group = group;
    }

    #[inline(always)]
    pub(crate) fn reg(&self, r: u16) -> &[u64] {
        &self.regs[r as usize * self.group..r as usize * self.group + self.group]
    }

    #[inline(always)]
    pub(crate) fn reg_mut(&mut self, r: u16) -> &mut [u64] {
        &mut self.regs[r as usize * self.group..r as usize * self.group + self.group]
    }

    /// Copy a register lane out (for tests/debug).
    pub fn read_reg(&self, r: u16, t: usize) -> u64 {
        self.regs[r as usize * self.group + t]
    }
}

/// Apply a binary op at a width. Division semantics match two-state
/// Verilog: `x/0 = all-ones`, `x%0 = 0`.
#[inline(always)]
pub fn apply_bin(op: KBin, a: u64, b: u64, width: u32) -> u64 {
    let m = mask(width);
    match op {
        KBin::Add => a.wrapping_add(b) & m,
        KBin::Sub => a.wrapping_sub(b) & m,
        KBin::Mul => a.wrapping_mul(b) & m,
        KBin::Div => a.checked_div(b).map_or(m, |q| q & m),
        KBin::Rem => {
            if b == 0 {
                0
            } else {
                (a % b) & m
            }
        }
        KBin::And => a & b,
        KBin::Or => a | b,
        KBin::Xor => a ^ b,
        KBin::Xnor => !(a ^ b) & m,
        KBin::Shl => {
            if b >= width as u64 {
                0
            } else {
                (a << b) & m
            }
        }
        KBin::Shr => {
            if b >= width as u64 {
                0
            } else {
                a >> b
            }
        }
        KBin::Sshr => {
            let sign = (a >> (width - 1)) & 1;
            if b >= width as u64 {
                if sign == 1 {
                    m
                } else {
                    0
                }
            } else {
                let shifted = a >> b;
                if sign == 1 && b > 0 {
                    let fill = m & !(m >> b);
                    shifted | fill
                } else {
                    shifted
                }
            }
        }
        KBin::Eq => (a == b) as u64,
        KBin::Ne => (a != b) as u64,
        KBin::Ltu => (a < b) as u64,
        KBin::Leu => (a <= b) as u64,
        KBin::Gtu => (a > b) as u64,
        KBin::Geu => (a >= b) as u64,
        KBin::LAnd => (a != 0 && b != 0) as u64,
        KBin::LOr => (a != 0 || b != 0) as u64,
    }
}

/// Apply a unary op at a width.
#[inline(always)]
pub fn apply_un(op: KUn, a: u64, width: u32) -> u64 {
    let m = mask(width);
    match op {
        KUn::Not => !a & m,
        KUn::Neg => a.wrapping_neg() & m,
        KUn::LNot => (a == 0) as u64,
        KUn::RedAnd => (a & m == m) as u64,
        KUn::RedOr => (a != 0) as u64,
        KUn::RedXor => (a.count_ones() & 1) as u64,
    }
}

/// Execute `kernel` for threads `[tid0, tid0 + group)`.
///
/// This is the heart of the functional GPU: op-outer, thread-inner.
pub fn execute_kernel(
    kernel: &Kernel,
    dev: &mut DeviceMemory,
    scratch: &mut Scratch,
    tid0: usize,
    group: usize,
) {
    debug_assert!(tid0 + group <= dev.n());
    scratch.ensure(kernel.num_regs, group);
    for op in &kernel.ops {
        match *op {
            Op::Const { dst, value } => {
                scratch.reg_mut(dst).fill(value);
            }
            Op::Load { dst, slot } => {
                let base = slot.offset as usize * dev.n + tid0;
                let out = scratch.reg_mut(dst);
                match slot.bucket {
                    Bucket::B8 => {
                        for (o, v) in out.iter_mut().zip(&dev.var8[base..base + group]) {
                            *o = *v as u64;
                        }
                    }
                    Bucket::B16 => {
                        for (o, v) in out.iter_mut().zip(&dev.var16[base..base + group]) {
                            *o = *v as u64;
                        }
                    }
                    Bucket::B32 => {
                        for (o, v) in out.iter_mut().zip(&dev.var32[base..base + group]) {
                            *o = *v as u64;
                        }
                    }
                    Bucket::B64 => {
                        out.copy_from_slice(&dev.var64[base..base + group]);
                    }
                }
            }
            Op::Store { src, slot, width } => {
                let m = mask(width);
                let base = slot.offset as usize * dev.n + tid0;
                let input = scratch.reg(src);
                match slot.bucket {
                    Bucket::B8 => {
                        for (o, v) in dev.var8[base..base + group].iter_mut().zip(input) {
                            *o = (*v & m) as u8;
                        }
                    }
                    Bucket::B16 => {
                        for (o, v) in dev.var16[base..base + group].iter_mut().zip(input) {
                            *o = (*v & m) as u16;
                        }
                    }
                    Bucket::B32 => {
                        for (o, v) in dev.var32[base..base + group].iter_mut().zip(input) {
                            *o = (*v & m) as u32;
                        }
                    }
                    Bucket::B64 => {
                        for (o, v) in dev.var64[base..base + group].iter_mut().zip(input) {
                            *o = *v & m;
                        }
                    }
                }
            }
            Op::LoadIdx {
                dst,
                slot,
                idx,
                depth,
            } => {
                // Gather: per-thread index — this is the uncoalesced path.
                for t in 0..group {
                    let i = scratch.read_reg(idx, t);
                    let v = dev.load_idx(slot, tid0 + t, i, depth);
                    scratch.reg_mut(dst)[t] = v;
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
                let m = mask(width);
                for t in 0..group {
                    if scratch.read_reg(pred, t) != 0 {
                        let i = scratch.read_reg(idx, t);
                        if i < depth as u64 {
                            let v = scratch.read_reg(src, t) & m;
                            dev.store(
                                Slot {
                                    bucket: slot.bucket,
                                    offset: slot.offset + i as u32,
                                },
                                tid0 + t,
                                v,
                            );
                        }
                    }
                }
            }
            Op::Bin {
                op,
                dst,
                a,
                b,
                width,
            } => {
                if dst == a || dst == b {
                    for t in 0..group {
                        let va = scratch.read_reg(a, t);
                        let vb = scratch.read_reg(b, t);
                        scratch.reg_mut(dst)[t] = apply_bin(op, va, vb, width);
                    }
                } else {
                    // Disjoint registers: split borrows for a tight loop.
                    let (av, bv, dv) = unsafe { scratch.three_regs(a, b, dst) };
                    for t in 0..group {
                        dv[t] = apply_bin(op, av[t], bv[t], width);
                    }
                }
            }
            Op::Un { op, dst, a, width } => {
                for t in 0..group {
                    let va = scratch.read_reg(a, t);
                    scratch.reg_mut(dst)[t] = apply_un(op, va, width);
                }
            }
            Op::Mux { dst, cond, a, b } => {
                for t in 0..group {
                    let c = scratch.read_reg(cond, t);
                    let v = if c != 0 {
                        scratch.read_reg(a, t)
                    } else {
                        scratch.read_reg(b, t)
                    };
                    scratch.reg_mut(dst)[t] = v;
                }
            }
        }
    }
}

impl Scratch {
    /// Split-borrow three distinct register lanes: `a` and `b` shared,
    /// `dst` mutable.
    ///
    /// # Safety
    /// Caller must guarantee `dst != a && dst != b`.
    unsafe fn three_regs(&mut self, a: u16, b: u16, dst: u16) -> (&[u64], &[u64], &mut [u64]) {
        debug_assert!(dst != a && dst != b);
        let g = self.group;
        let ptr = self.regs.as_mut_ptr();
        let av = std::slice::from_raw_parts(ptr.add(a as usize * g), g);
        let bv = std::slice::from_raw_parts(ptr.add(b as usize * g), g);
        let dv = std::slice::from_raw_parts_mut(ptr.add(dst as usize * g), g);
        (av, bv, dv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Kernel, Slot};

    fn s(bucket: Bucket, offset: u32) -> Slot {
        Slot { bucket, offset }
    }

    #[test]
    fn add_kernel_across_threads() {
        let n = 8;
        let mut dev = DeviceMemory::new(n, 2, 0, 0, 0);
        for t in 0..n {
            dev.store(s(Bucket::B8, 0), t, t as u64);
        }
        let k = Kernel::new(
            "add1",
            vec![
                Op::Load {
                    dst: 0,
                    slot: s(Bucket::B8, 0),
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
                    slot: s(Bucket::B8, 1),
                    width: 8,
                },
            ],
        );
        let mut scratch = Scratch::new();
        execute_kernel(&k, &mut dev, &mut scratch, 0, n);
        for t in 0..n {
            assert_eq!(dev.load(s(Bucket::B8, 1), t), t as u64 + 1);
        }
    }

    #[test]
    fn partial_range_leaves_other_threads() {
        let n = 8;
        let mut dev = DeviceMemory::new(n, 1, 0, 0, 0);
        let k = Kernel::new(
            "one",
            vec![
                Op::Const { dst: 0, value: 7 },
                Op::Store {
                    src: 0,
                    slot: s(Bucket::B8, 0),
                    width: 8,
                },
            ],
        );
        let mut scratch = Scratch::new();
        execute_kernel(&k, &mut dev, &mut scratch, 2, 3);
        let vals: Vec<u64> = (0..n).map(|t| dev.load(s(Bucket::B8, 0), t)).collect();
        assert_eq!(vals, vec![0, 0, 7, 7, 7, 0, 0, 0]);
    }

    #[test]
    fn store_masks_to_width() {
        let mut dev = DeviceMemory::new(1, 0, 1, 0, 0);
        let k = Kernel::new(
            "mask",
            vec![
                Op::Const {
                    dst: 0,
                    value: 0xffff,
                },
                Op::Store {
                    src: 0,
                    slot: s(Bucket::B16, 0),
                    width: 14,
                },
            ],
        );
        execute_kernel(&k, &mut dev, &mut Scratch::new(), 0, 1);
        assert_eq!(dev.load(s(Bucket::B16, 0), 0), 0x3fff);
    }

    #[test]
    fn memory_gather_and_guarded_scatter() {
        let n = 4;
        // Memory of 4 words at offsets 0..4 in var32, plus idx at r-space.
        let mut dev = DeviceMemory::new(n, 0, 0, 4, 0);
        for t in 0..n {
            for w in 0..4 {
                dev.store(s(Bucket::B32, w), t, (w as u64) * 10 + t as u64);
            }
        }
        let k = Kernel::new(
            "mem",
            vec![
                Op::Const { dst: 0, value: 2 }, // idx = 2
                Op::LoadIdx {
                    dst: 1,
                    slot: s(Bucket::B32, 0),
                    idx: 0,
                    depth: 4,
                },
                Op::Const { dst: 2, value: 1 }, // pred
                Op::Const { dst: 3, value: 3 }, // idx = 3
                Op::StoreIdxCond {
                    src: 1,
                    slot: s(Bucket::B32, 0),
                    idx: 3,
                    depth: 4,
                    pred: 2,
                    width: 32,
                },
            ],
        );
        execute_kernel(&k, &mut dev, &mut Scratch::new(), 0, n);
        for t in 0..n {
            // mem[3] = mem[2]
            assert_eq!(dev.load(s(Bucket::B32, 3), t), 20 + t as u64);
        }
    }

    #[test]
    fn out_of_range_gather_returns_zero() {
        let mut dev = DeviceMemory::new(1, 0, 0, 2, 0);
        dev.store(s(Bucket::B32, 0), 0, 5);
        let k = Kernel::new(
            "oob",
            vec![
                Op::Const { dst: 0, value: 9 },
                Op::LoadIdx {
                    dst: 1,
                    slot: s(Bucket::B32, 0),
                    idx: 0,
                    depth: 2,
                },
                Op::Store {
                    src: 1,
                    slot: s(Bucket::B32, 1),
                    width: 32,
                },
            ],
        );
        execute_kernel(&k, &mut dev, &mut Scratch::new(), 0, 1);
        assert_eq!(dev.load(s(Bucket::B32, 1), 0), 0);
    }

    #[test]
    fn sshr_sign_fill() {
        assert_eq!(apply_bin(KBin::Sshr, 0b1000_0000, 3, 8), 0b1111_0000);
        assert_eq!(apply_bin(KBin::Sshr, 0b0100_0000, 3, 8), 0b0000_1000);
        assert_eq!(apply_bin(KBin::Sshr, 0x8000_0000, 31, 32), 0xffff_ffff);
        assert_eq!(apply_bin(KBin::Sshr, 0x8000_0000, 40, 32), 0xffff_ffff);
        assert_eq!(apply_bin(KBin::Sshr, 0x4000_0000, 40, 32), 0);
    }

    #[test]
    fn division_by_zero_semantics() {
        assert_eq!(apply_bin(KBin::Div, 42, 0, 8), 0xff);
        assert_eq!(apply_bin(KBin::Rem, 42, 0, 8), 0);
    }

    #[test]
    fn shifts_saturate() {
        assert_eq!(apply_bin(KBin::Shl, 1, 64, 32), 0);
        assert_eq!(apply_bin(KBin::Shr, 0xff, 64, 8), 0);
        assert_eq!(apply_bin(KBin::Shl, 1, 31, 32), 0x8000_0000);
    }

    #[test]
    fn reductions() {
        assert_eq!(apply_un(KUn::RedAnd, 0xff, 8), 1);
        assert_eq!(apply_un(KUn::RedAnd, 0x7f, 8), 0);
        assert_eq!(apply_un(KUn::RedXor, 0b0111, 4), 1);
        assert_eq!(apply_un(KUn::Neg, 1, 4), 0xf);
    }

    #[test]
    fn load_idx_within_extent_is_fine() {
        let dev = DeviceMemory::new(2, 0, 0, 4, 0);
        assert_eq!(dev.bucket_len(Bucket::B32), 4);
        // offset 1, depth 3 -> touches offsets 1..4, exactly in extent.
        assert_eq!(dev.load_idx(s(Bucket::B32, 1), 0, 2, 3), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "exceeds allocated extent")]
    fn load_idx_past_extent_asserts() {
        let dev = DeviceMemory::new(2, 0, 0, 4, 0);
        // offset 2, depth 4 -> would silently read the next variable's
        // slots at offsets 4..6; the debug assertion must catch it even
        // when `idx` itself is in range.
        dev.load_idx(s(Bucket::B32, 2), 0, 1, 4);
    }

    #[test]
    fn in_place_bin_aliasing_is_safe() {
        let mut dev = DeviceMemory::new(2, 1, 0, 0, 0);
        let k = Kernel::new(
            "alias",
            vec![
                Op::Const { dst: 0, value: 3 },
                Op::Bin {
                    op: KBin::Add,
                    dst: 0,
                    a: 0,
                    b: 0,
                    width: 8,
                }, // dst aliases srcs
                Op::Store {
                    src: 0,
                    slot: s(Bucket::B8, 0),
                    width: 8,
                },
            ],
        );
        execute_kernel(&k, &mut dev, &mut Scratch::new(), 0, 2);
        assert_eq!(dev.load(s(Bucket::B8, 0), 0), 6);
    }

    // -----------------------------------------------------------------
    // Bucket-boundary behavior: width-64 masks, load_idx extents, and
    // peek/poke truncation at each bucket's element type.

    #[test]
    fn mask_covers_full_width_range() {
        assert_eq!(mask(1), 1);
        assert_eq!(mask(8), 0xff);
        assert_eq!(mask(63), (1u64 << 63) - 1);
        // Width 64 must not overflow the shift: full mask.
        assert_eq!(mask(64), u64::MAX);
    }

    #[test]
    fn width64_ops_do_not_truncate() {
        let mut dev = DeviceMemory::new(2, 0, 0, 0, 2);
        let k = Kernel::new(
            "w64",
            vec![
                Op::Const {
                    dst: 0,
                    value: u64::MAX,
                },
                Op::Const { dst: 1, value: 1 },
                // MAX + 1 wraps to 0 at width 64; MAX - 1 keeps bit 63.
                Op::Bin {
                    op: KBin::Add,
                    dst: 2,
                    a: 0,
                    b: 1,
                    width: 64,
                },
                Op::Bin {
                    op: KBin::Sub,
                    dst: 3,
                    a: 0,
                    b: 1,
                    width: 64,
                },
                Op::Store {
                    src: 2,
                    slot: s(Bucket::B64, 0),
                    width: 64,
                },
                Op::Store {
                    src: 3,
                    slot: s(Bucket::B64, 1),
                    width: 64,
                },
            ],
        );
        execute_kernel(&k, &mut dev, &mut Scratch::new(), 0, 2);
        assert_eq!(dev.load(s(Bucket::B64, 0), 0), 0);
        assert_eq!(dev.load(s(Bucket::B64, 1), 0), u64::MAX - 1);
    }

    #[test]
    fn store_truncates_to_bucket_element() {
        let mut dev = DeviceMemory::new(1, 1, 1, 1, 1);
        // Host pokes truncate to the bucket element type, independent of
        // any op width: B8 keeps the low 8 bits, B16 the low 16, etc.
        dev.store(s(Bucket::B8, 0), 0, 0x1ff);
        assert_eq!(dev.load(s(Bucket::B8, 0), 0), 0xff);
        dev.store(s(Bucket::B16, 0), 0, 0xab_cdef);
        assert_eq!(dev.load(s(Bucket::B16, 0), 0), 0xcdef);
        dev.store(s(Bucket::B32, 0), 0, 0xdead_beef_0bad_f00d);
        assert_eq!(dev.load(s(Bucket::B32, 0), 0), 0x0bad_f00d);
        dev.store(s(Bucket::B64, 0), 0, u64::MAX);
        assert_eq!(dev.load(s(Bucket::B64, 0), 0), u64::MAX);
    }

    #[test]
    fn bucket_len_reports_per_stimulus_extents() {
        let dev = DeviceMemory::new(4, 3, 2, 1, 0);
        assert_eq!(dev.bucket_len(Bucket::B8), 3);
        assert_eq!(dev.bucket_len(Bucket::B16), 2);
        assert_eq!(dev.bucket_len(Bucket::B32), 1);
        assert_eq!(dev.bucket_len(Bucket::B64), 0);
    }

    #[test]
    fn load_idx_bounds_and_extent() {
        let mut dev = DeviceMemory::new(2, 4, 0, 0, 0);
        for i in 0..4 {
            dev.store(s(Bucket::B8, i), 1, 10 + i as u64);
        }
        // In-range reads index consecutive slots of the same lane.
        assert_eq!(dev.load_idx(s(Bucket::B8, 0), 1, 0, 4), 10);
        assert_eq!(dev.load_idx(s(Bucket::B8, 1), 1, 2, 3), 13);
        // Out-of-range indices read as zero (two-state X semantics),
        // including indices far beyond the array.
        assert_eq!(dev.load_idx(s(Bucket::B8, 0), 1, 4, 4), 0);
        assert_eq!(dev.load_idx(s(Bucket::B8, 0), 1, u64::MAX, 4), 0);
        // The final element of the declared extent is reachable.
        assert_eq!(dev.load_idx(s(Bucket::B8, 0), 1, 3, 4), 13);
    }

    #[test]
    #[should_panic(expected = "exceeds allocated extent")]
    #[cfg(debug_assertions)]
    fn load_idx_rejects_overdeclared_depth() {
        let dev = DeviceMemory::new(2, 4, 0, 0, 0);
        // Depth 5 from offset 0 overruns the 4-element B8 extent: an
        // inconsistent memory plan must be caught, not read neighbors.
        dev.load_idx(s(Bucket::B8, 0), 0, 1, 5);
    }
}
