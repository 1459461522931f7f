//! Incremental GPU memory allocation (§3.1.2).
//!
//! One pass over the design's variables assigns each a slot in the
//! smallest width bucket that fits it. A variable of width `w` occupies
//! one element of `var8/var16/var32/var64`; a memory of depth `d` takes
//! `d` consecutive offsets; a state scalar (flip-flop) additionally gets
//! a *shadow* slot so sequential kernels can double-buffer non-blocking
//! assignments. Each offset is replicated `N` times at device allocation,
//! so accesses become `bucket[offset * N + tid]` — fully coalesced.

use cudasim::{Bucket, DeviceMemory, Slot};
use rtlir::{Design, VarId};

/// Placement of one design variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VarSlot {
    /// Current-value slot (base offset for memories).
    pub slot: Slot,
    /// Shadow (next-value) slot for state scalars.
    pub shadow: Option<Slot>,
    /// Memory depth (0 = scalar).
    pub depth: u32,
    /// Bit width.
    pub width: u32,
}

/// The complete allocation for a design.
#[derive(Debug, Clone)]
pub struct MemoryPlan {
    /// Indexed by `VarId`.
    pub slots: Vec<VarSlot>,
    /// Elements allocated per bucket (per stimulus).
    pub len8: u32,
    pub len16: u32,
    pub len32: u32,
    pub len64: u32,
}

impl MemoryPlan {
    /// Build the plan. Fails when a variable is wider than 64 bits — the
    /// kernel IR is single-word (the golden interpreter supports wide
    /// values; transpilation of >64-bit signals is future work and none of
    /// the benchmark designs need it).
    pub fn build(design: &Design) -> Result<MemoryPlan, String> {
        let mut lens = [0u32; 4];
        let mut slots = Vec::with_capacity(design.vars.len());
        for var in &design.vars {
            if var.width > 64 {
                return Err(format!(
                    "variable `{}` is {} bits wide; kernel transpilation supports <= 64",
                    var.name, var.width
                ));
            }
            let bucket = Bucket::for_width(var.width);
            let bi = bucket_index(bucket);
            let count = if var.is_memory() { var.depth } else { 1 };
            let offset = lens[bi];
            lens[bi] += count;
            // Shadow for state scalars only; memories commit in place.
            let shadow = if var.is_state && !var.is_memory() {
                let s = Slot {
                    bucket,
                    offset: lens[bi],
                };
                lens[bi] += 1;
                Some(s)
            } else {
                None
            };
            slots.push(VarSlot {
                slot: Slot { bucket, offset },
                shadow,
                depth: var.depth,
                width: var.width,
            });
        }
        Ok(MemoryPlan {
            slots,
            len8: lens[0],
            len16: lens[1],
            len32: lens[2],
            len64: lens[3],
        })
    }

    /// Allocate device arrays for `n` stimulus.
    pub fn alloc_device(&self, n: usize) -> DeviceMemory {
        DeviceMemory::new(n, self.len8, self.len16, self.len32, self.len64)
    }

    /// Per-bucket element counts, in `[B8, B16, B32, B64]` order (the
    /// shape `cudasim::SlotUniform::analyze` expects).
    pub fn lens(&self) -> [u32; 4] {
        [self.len8, self.len16, self.len32, self.len64]
    }

    /// Slots the host pokes per-lane stimulus into — the non-uniform
    /// roots of the uniform-slot analysis. Contract: host `poke`s must
    /// target design inputs only (all in-repo stimulus drivers do).
    pub fn input_slots(&self, design: &Design) -> Vec<Slot> {
        design.inputs.iter().map(|&v| self.slots[v].slot).collect()
    }

    /// Input slots with their variable widths — the roots of the
    /// bit-transposed layout analysis (a multi-bit input pins its slot to
    /// the bucketed layout even if no kernel stores it).
    pub fn input_roots(&self, design: &Design) -> Vec<(Slot, u32)> {
        design
            .inputs
            .iter()
            .map(|&v| (self.slots[v].slot, self.slots[v].width))
            .collect()
    }

    /// Device bytes needed per stimulus.
    pub fn bytes_per_stimulus(&self) -> u64 {
        self.len8 as u64 + self.len16 as u64 * 2 + self.len32 as u64 * 4 + self.len64 as u64 * 8
    }

    /// Write a scalar variable for one stimulus (host-side `set_inputs`).
    pub fn poke(&self, dev: &mut DeviceMemory, var: VarId, tid: usize, value: u64) {
        let vs = &self.slots[var];
        debug_assert_eq!(vs.depth, 0, "poke on memory");
        let m = cudasim::device::mask(vs.width);
        dev.store(vs.slot, tid, value & m);
    }

    /// Write a scalar variable for stimuli `tid0..tid0 + values.len()`,
    /// equal to one [`MemoryPlan::poke`] per lane. `values` is masked to
    /// the variable's width in place.
    pub fn poke_row(&self, dev: &mut DeviceMemory, var: VarId, tid0: usize, values: &mut [u64]) {
        let vs = &self.slots[var];
        debug_assert_eq!(vs.depth, 0, "poke on memory");
        let m = cudasim::device::mask(vs.width);
        if m != !0 {
            for v in values.iter_mut() {
                *v &= m;
            }
        }
        dev.store_row(vs.slot, tid0, values);
    }

    /// Poke port columns into lanes `0..len`: column `p` of `cols`
    /// (`cols[p * len..][..len]`) drives the `p`-th variable of `vars`.
    pub fn poke_columns(
        &self,
        dev: &mut DeviceMemory,
        vars: impl IntoIterator<Item = VarId>,
        cols: &mut [u64],
        len: usize,
    ) {
        if len == 0 {
            return;
        }
        for (var, col) in vars.into_iter().zip(cols.chunks_exact_mut(len)) {
            self.poke_row(dev, var, 0, col);
        }
    }

    /// Poke cycle `cycle` of a frame block laid out `[stimulus][cycle][port]`
    /// over `cycles` cycles (the wire layout of a group dispatch), stimulus
    /// `i` of the block into lane `i`, gathering one port column at a time
    /// through `col`. `vars` lists the variable each port drives, in port
    /// order.
    pub fn poke_block(
        &self,
        dev: &mut DeviceMemory,
        vars: impl ExactSizeIterator<Item = VarId>,
        block: &[u64],
        cycles: u64,
        cycle: u64,
        col: &mut Vec<u64>,
    ) {
        let ports = vars.len();
        let stride = cycles as usize * ports;
        // An empty block is an empty group (no lanes), not a short one.
        if stride == 0 || block.is_empty() {
            return;
        }
        col.resize(block.len() / stride, 0);
        let at = cycle as usize * ports;
        for (p, var) in vars.enumerate() {
            for (v, &f) in col.iter_mut().zip(block[at + p..].iter().step_by(stride)) {
                *v = f;
            }
            self.poke_row(dev, var, 0, col);
        }
    }

    /// Read a scalar variable for one stimulus.
    pub fn peek(&self, dev: &DeviceMemory, var: VarId, tid: usize) -> u64 {
        let vs = &self.slots[var];
        debug_assert_eq!(vs.depth, 0, "peek on memory");
        dev.load(vs.slot, tid)
    }

    /// Read one memory word for one stimulus.
    pub fn peek_mem(&self, dev: &DeviceMemory, var: VarId, idx: u32, tid: usize) -> u64 {
        let vs = &self.slots[var];
        debug_assert!(idx < vs.depth, "peek_mem out of range");
        dev.load(
            Slot {
                bucket: vs.slot.bucket,
                offset: vs.slot.offset + idx,
            },
            tid,
        )
    }

    /// FNV digest over a design's outputs for one stimulus — bit-for-bit
    /// the same fold as `rtlir::Interp::output_digest` (all outputs are
    /// <= 64 bits wide, i.e. single-word).
    pub fn output_digest(&self, dev: &DeviceMemory, design: &Design, tid: usize) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for &o in &design.outputs {
            h ^= self.peek(dev, o, tid);
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }
}

fn bucket_index(b: Bucket) -> usize {
    match b {
        Bucket::B8 => 0,
        Bucket::B16 => 1,
        Bucket::B32 => 2,
        Bucket::B64 => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_by_width_bucket() {
        let src = "
            module top(input clk, input [5:0] in, output [13:0] sum);
              reg [13:0] acc;
              always @(posedge clk) acc <= acc + {8'd0, in};
              assign sum = acc;
            endmodule";
        let d = rtlir::elaborate(src, "top").unwrap();
        let plan = MemoryPlan::build(&d).unwrap();
        let inv = d.find_var("in").unwrap();
        let acc = d.find_var("acc").unwrap();
        assert_eq!(plan.slots[inv].slot.bucket, Bucket::B8);
        assert_eq!(plan.slots[acc].slot.bucket, Bucket::B16);
        // acc is state: gets a shadow in the same bucket.
        assert!(plan.slots[acc].shadow.is_some());
        assert_eq!(plan.slots[acc].shadow.unwrap().bucket, Bucket::B16);
    }

    #[test]
    fn memories_take_depth_offsets() {
        let src = "
            module top(input clk, input [3:0] a, input [7:0] d, input we, output [7:0] q);
              reg [7:0] mem [0:15];
              assign q = mem[a];
              always @(posedge clk) if (we) mem[a] <= d;
            endmodule";
        let d = rtlir::elaborate(src, "top").unwrap();
        let plan = MemoryPlan::build(&d).unwrap();
        let mem = d.find_var("mem").unwrap();
        assert_eq!(plan.slots[mem].depth, 16);
        assert!(plan.slots[mem].shadow.is_none(), "memories commit in place");
        // 16 words of b8 plus the other small vars.
        assert!(plan.len8 >= 16);
    }

    #[test]
    fn offsets_are_disjoint() {
        let src = "
            module top(input [7:0] a, input [7:0] b, output [7:0] x, output [7:0] y);
              assign x = a + b;
              assign y = a ^ b;
            endmodule";
        let d = rtlir::elaborate(src, "top").unwrap();
        let plan = MemoryPlan::build(&d).unwrap();
        let mut seen = std::collections::HashSet::new();
        for vs in &plan.slots {
            let count = vs.depth.max(1) + vs.shadow.is_some() as u32;
            for k in 0..count {
                assert!(
                    seen.insert((vs.slot.bucket, vs.slot.offset + k)),
                    "overlap at {vs:?}"
                );
            }
        }
    }

    #[test]
    fn wide_vars_rejected() {
        let src = "
            module top(input [99:0] a, output [99:0] y);
              assign y = a;
            endmodule";
        let d = rtlir::elaborate(src, "top").unwrap();
        assert!(MemoryPlan::build(&d).is_err());
    }

    #[test]
    fn poke_peek_roundtrip_masks() {
        let src = "module top(input [5:0] a, output [5:0] y); assign y = a; endmodule";
        let d = rtlir::elaborate(src, "top").unwrap();
        let plan = MemoryPlan::build(&d).unwrap();
        let mut dev = plan.alloc_device(2);
        let a = d.find_var("a").unwrap();
        plan.poke(&mut dev, a, 1, 0xfff);
        assert_eq!(plan.peek(&dev, a, 1), 0x3f);
        assert_eq!(plan.peek(&dev, a, 0), 0);
    }

    #[test]
    fn poke_block_gathers_ports_and_accepts_an_empty_group() {
        let src =
            "module top(input [5:0] a, input b, output [5:0] y); assign y = b ? a : 0; endmodule";
        let d = rtlir::elaborate(src, "top").unwrap();
        let plan = MemoryPlan::build(&d).unwrap();
        let vars = [d.find_var("a").unwrap(), d.find_var("b").unwrap()];
        let mut col = Vec::new();
        // Two stimuli, two cycles, two ports: `[stimulus][cycle][port]`.
        let block = [0x41, 1, 0x7f, 0, 0x02, 0, 0x33, 3];
        let mut dev = plan.alloc_device(2);
        plan.poke_block(&mut dev, vars.iter().copied(), &block, 2, 1, &mut col);
        assert_eq!(plan.peek(&dev, vars[0], 0), 0x3f);
        assert_eq!(plan.peek(&dev, vars[1], 0), 0);
        assert_eq!(plan.peek(&dev, vars[0], 1), 0x33);
        assert_eq!(plan.peek(&dev, vars[1], 1), 1);
        // A zero-length group carries an empty block for every cycle.
        let mut empty = plan.alloc_device(0);
        for cycle in 0..2 {
            plan.poke_block(&mut empty, vars.iter().copied(), &[], 2, cycle, &mut col);
        }
    }
}
