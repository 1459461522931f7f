//! Batch stimulus generation for multi-stimulus RTL simulation.
//!
//! A *stimulus* is an independent sequence of input vectors driving the
//! same Design-Under-Test; a *batch* is thousands of them simulated
//! simultaneously (the paper's stimulus-level parallelism). This crate
//! provides:
//!
//! * [`PortMap`] — the ordered list of driven input ports of a design.
//! * [`StimulusSource`] — deterministic O(1)-random-access generators
//!   (every engine can ask "port values of stimulus `s` at cycle `c`"
//!   without materializing terabytes of vectors). A source answers in two
//!   shapes: a frame (`fill_frame`, one stimulus's ports, what the golden
//!   interpreter pokes) or port columns (`fill_columns`, one port over a
//!   run of stimuli, what a group runner stores into a device row or bit
//!   plane). `fill_columns` defaults to a transpose of `fill_frame` that
//!   calls it once per stimulus in ascending order; the generated sources
//!   override it to hash each column's `(cycle, port)` key once, and
//!   answer `fill_frame` as a one-stimulus column fill.
//! * Concrete sources: [`RandomSource`], [`RiscvSource`] (constrained
//!   instruction streams), [`NvdlaSource`] (configure-then-stream
//!   protocol), and [`ConcatSource`] (the paper's "randomly concatenating
//!   stimulus offered by each design").
//! * the `file` module — a binary batch-stimulus file format, because
//!   real flows read stimulus from disk and `set_inputs` cost matters
//!   (§2.4.3).

pub mod file;

use rtlir::{BitVec, Design, VarId};

/// One driven input port: variable id, name and width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    pub var: VarId,
    pub name: String,
    pub width: u32,
}

/// Ordered list of the input ports a stimulus drives.
///
/// Ports wider than 64 bits are rejected (none of the benchmark designs
/// need them; the frame layout is one `u64` lane per port).
#[derive(Debug, Clone)]
pub struct PortMap {
    pub ports: Vec<Port>,
}

impl PortMap {
    /// Build the port map from a design's (non-clock) inputs plus its
    /// reset, in declaration order.
    pub fn from_design(design: &Design) -> Self {
        let ports = design
            .inputs
            .iter()
            .map(|&v| {
                let var = &design.vars[v];
                assert!(
                    var.width <= 64,
                    "stimulus port `{}` wider than 64 bits",
                    var.name
                );
                Port {
                    var: v,
                    name: var.name.clone(),
                    width: var.width,
                }
            })
            .collect();
        PortMap { ports }
    }

    /// Number of ports (the frame width in lanes).
    pub fn len(&self) -> usize {
        self.ports.len()
    }

    /// `true` when the design has no drivable inputs.
    pub fn is_empty(&self) -> bool {
        self.ports.is_empty()
    }

    /// Index of a port by (suffix) name, e.g. `"rst"`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.ports
            .iter()
            .position(|p| p.name == name || p.name.ends_with(&format!(".{name}")))
    }

    /// Convert one frame into interpreter pokes.
    pub fn to_pokes(&self, frame: &[u64]) -> Vec<(VarId, BitVec)> {
        self.ports
            .iter()
            .zip(frame)
            .map(|(p, &v)| (p.var, BitVec::from_u64(v, p.width)))
            .collect()
    }

    /// Mask a raw 64-bit lane value to a port's width.
    pub fn mask(&self, port: usize, value: u64) -> u64 {
        value & width_mask(self.ports[port].width)
    }
}

/// Deterministic random-access batch stimulus.
///
/// Implementations must be pure functions of `(stimulus, cycle)` so that
/// every engine — golden interpreter, CPU baselines, GPU kernels, the
/// pipelined scheduler — sees identical inputs regardless of evaluation
/// order.
pub trait StimulusSource: Send + Sync {
    /// Number of stimulus in the batch.
    fn num_stimulus(&self) -> usize;

    /// Fill `frame` (one lane per port) for `stimulus` at `cycle`.
    fn fill_frame(&self, stimulus: usize, cycle: u64, frame: &mut [u64]);

    /// Frame width in lanes.
    fn num_ports(&self) -> usize;

    /// Fill port columns for stimuli `tid0..tid0 + len` at `cycle`: port
    /// `p` of stimulus `tid0 + i` goes to `cols[p * stride + i]`
    /// (`stride >= len`, and `cols` holds at least
    /// `(num_ports - 1) * stride + len` values). Bit-identical to
    /// transposing `fill_frame`.
    ///
    /// The default body is that transpose. It calls `fill_frame` exactly
    /// once per stimulus, in ascending order, so a decorator that only
    /// implements `fill_frame` still sees every (stimulus, cycle) once and
    /// a driver's first and last fill stay where they were.
    fn fill_columns(&self, cycle: u64, tid0: usize, len: usize, stride: usize, cols: &mut [u64]) {
        debug_assert!(stride >= len);
        let mut frame = vec![0u64; self.num_ports()];
        for i in 0..len {
            self.fill_frame(tid0 + i, cycle, &mut frame);
            for (p, &v) in frame.iter().enumerate() {
                cols[p * stride + i] = v;
            }
        }
    }
}

macro_rules! forward_source {
    ($($ty:ty),*) => {$(
        impl<T: StimulusSource + ?Sized> StimulusSource for $ty {
            fn num_stimulus(&self) -> usize {
                (**self).num_stimulus()
            }
            fn fill_frame(&self, stimulus: usize, cycle: u64, frame: &mut [u64]) {
                (**self).fill_frame(stimulus, cycle, frame)
            }
            fn num_ports(&self) -> usize {
                (**self).num_ports()
            }
            fn fill_columns(
                &self,
                cycle: u64,
                tid0: usize,
                len: usize,
                stride: usize,
                cols: &mut [u64],
            ) {
                (**self).fill_columns(cycle, tid0, len, stride, cols)
            }
        }
    )*};
}

forward_source!(&T, Box<T>, std::sync::Arc<T>);

/// SplitMix64 — the deterministic hash behind all random sources.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Hash a (seed, stimulus, cycle, lane) coordinate to a u64.
#[inline]
pub fn coord_hash(seed: u64, stimulus: u64, cycle: u64, lane: u64) -> u64 {
    hash_column(seed, stimulus, column_key(cycle, lane))
}

/// The (cycle, lane) half of [`coord_hash`], shared by a whole column.
#[inline]
fn column_key(cycle: u64, lane: u64) -> u64 {
    splitmix64(cycle ^ splitmix64(lane))
}

/// The (seed, stimulus) half of [`coord_hash`] over a [`column_key`].
#[inline]
fn hash_column(seed: u64, stimulus: u64, key: u64) -> u64 {
    splitmix64(seed ^ splitmix64(stimulus ^ key))
}

/// `col[i] = f(coord_hash(seed, tid0 + i, cycle, lane))`, with the
/// column's `key = column_key(cycle, lane)` hashed once by the caller.
#[inline]
fn hash_into(col: &mut [u64], seed: u64, tid0: usize, key: u64, f: impl Fn(u64) -> u64) {
    for (i, out) in col.iter_mut().enumerate() {
        *out = f(hash_column(seed, (tid0 + i) as u64, key));
    }
}

/// Mask with the low `width` bits set (`width >= 64` keeps everything).
#[inline]
fn width_mask(width: u32) -> u64 {
    if width >= 64 {
        !0
    } else {
        (1u64 << width) - 1
    }
}

/// Pure-random stimulus with a per-port reset protocol: `rst`-like ports
/// are held high for the first `reset_cycles` cycles, then low.
#[derive(Debug, Clone)]
pub struct RandomSource {
    pub seed: u64,
    pub num_stimulus: usize,
    pub reset_cycles: u64,
    ports: Vec<(u32, bool)>, // (width, is_reset)
}

impl RandomSource {
    pub fn new(map: &PortMap, num_stimulus: usize, seed: u64) -> Self {
        let ports = map
            .ports
            .iter()
            .map(|p| {
                let short = p.name.rsplit('.').next().unwrap_or(&p.name);
                (
                    p.width,
                    matches!(short, "rst" | "reset" | "rst_n" | "resetn"),
                )
            })
            .collect();
        RandomSource {
            seed,
            num_stimulus,
            reset_cycles: 2,
            ports,
        }
    }
}

impl StimulusSource for RandomSource {
    fn num_stimulus(&self) -> usize {
        self.num_stimulus
    }

    fn fill_frame(&self, stimulus: usize, cycle: u64, frame: &mut [u64]) {
        self.fill_columns(cycle, stimulus, 1, 1, frame)
    }

    fn num_ports(&self) -> usize {
        self.ports.len()
    }

    fn fill_columns(&self, cycle: u64, tid0: usize, len: usize, stride: usize, cols: &mut [u64]) {
        debug_assert!(stride >= len);
        for (lane, &(width, is_reset)) in self.ports.iter().enumerate() {
            let col = &mut cols[lane * stride..][..len];
            if is_reset {
                col.fill((cycle < self.reset_cycles) as u64);
            } else {
                let (key, m) = (column_key(cycle, lane as u64), width_mask(width));
                hash_into(col, self.seed, tid0, key, |h| h & m);
            }
        }
    }
}

/// Constrained-random RV32 instruction streams for the CPU benchmarks.
///
/// Every generated word is a well-formed R/I/B/LUI/load/store instruction
/// over a configurable register window, so decode logic sees realistic
/// activity instead of noise.
#[derive(Debug, Clone)]
pub struct RiscvSource {
    pub seed: u64,
    pub num_stimulus: usize,
    pub reset_cycles: u64,
    /// Lane index of the instruction port.
    instr_lane: usize,
    rst_lane: Option<usize>,
    ports: Vec<u32>,
}

impl RiscvSource {
    pub fn new(map: &PortMap, num_stimulus: usize, seed: u64) -> Self {
        let instr_lane = map.index_of("instr").expect("design has no `instr` port");
        let rst_lane = map.index_of("rst");
        RiscvSource {
            seed,
            num_stimulus,
            reset_cycles: 2,
            instr_lane,
            rst_lane,
            ports: map.ports.iter().map(|p| p.width).collect(),
        }
    }

    /// Generate one constrained instruction from a hash value.
    pub fn instruction(h: u64) -> u32 {
        let rd = ((h >> 7) & 31) as u32;
        let rs1 = ((h >> 12) & 31) as u32;
        let rs2 = ((h >> 17) & 31) as u32;
        let funct3 = ((h >> 22) & 7) as u32;
        let imm = ((h >> 25) & 0xfff) as u32;
        match h % 8 {
            // R-type (arithmetic, occasionally MUL via funct7[0])
            0 | 1 => {
                let funct7 = if h & (1 << 40) != 0 {
                    0x20
                } else if h & (1 << 41) != 0 {
                    1
                } else {
                    0
                };
                (funct7 << 25) | (rs2 << 20) | (rs1 << 15) | (funct3 << 12) | (rd << 7) | 0b0110011
            }
            // I-type ALU
            2..=4 => (imm << 20) | (rs1 << 15) | (funct3 << 12) | (rd << 7) | 0b0010011,
            // Load word
            5 => (imm << 20) | (rs1 << 15) | (0b010 << 12) | (rd << 7) | 0b0000011,
            // Store word
            6 => {
                let imm_lo = imm & 0x1f;
                let imm_hi = (imm >> 5) & 0x7f;
                (imm_hi << 25)
                    | (rs2 << 20)
                    | (rs1 << 15)
                    | (0b010 << 12)
                    | (imm_lo << 7)
                    | 0b0100011
            }
            // Branch or LUI
            _ => {
                if h & (1 << 42) != 0 {
                    (imm << 12) | (rd << 7) | 0b0110111 // LUI
                } else {
                    let imm_lo = imm & 0x1e; // bit0 forced clear
                    (((imm >> 5) & 0x3f) << 25)
                        | (rs2 << 20)
                        | (rs1 << 15)
                        | (funct3 << 12)
                        | (imm_lo << 7)
                        | 0b1100011
                }
            }
        }
    }
}

impl StimulusSource for RiscvSource {
    fn num_stimulus(&self) -> usize {
        self.num_stimulus
    }

    fn fill_frame(&self, stimulus: usize, cycle: u64, frame: &mut [u64]) {
        self.fill_columns(cycle, stimulus, 1, 1, frame)
    }

    fn num_ports(&self) -> usize {
        self.ports.len()
    }

    /// `rst` follows the reset protocol, `instr` carries a constrained
    /// instruction hashed under lane key `0xfeed`, and every other lane a
    /// hashed value masked to its width.
    fn fill_columns(&self, cycle: u64, tid0: usize, len: usize, stride: usize, cols: &mut [u64]) {
        debug_assert!(stride >= len);
        for (lane, &width) in self.ports.iter().enumerate() {
            let col = &mut cols[lane * stride..][..len];
            if Some(lane) == self.rst_lane {
                col.fill((cycle < self.reset_cycles) as u64);
            } else if lane == self.instr_lane {
                let key = column_key(cycle, 0xfeed);
                hash_into(col, self.seed, tid0, key, |h| Self::instruction(h) as u64);
            } else {
                let (key, m) = (column_key(cycle, lane as u64), width_mask(width));
                hash_into(col, self.seed, tid0, key, |h| h & m);
            }
        }
    }
}

/// NVDLA configure-then-stream protocol: a handful of CSR writes during a
/// per-stimulus configuration window, then streaming MAC data with `start`
/// held high and periodic `clear` pulses.
#[derive(Debug, Clone)]
pub struct NvdlaSource {
    pub seed: u64,
    pub num_stimulus: usize,
    lanes: NvdlaLanes,
    ports: Vec<u32>,
}

#[derive(Debug, Clone, Copy)]
struct NvdlaLanes {
    rst: usize,
    data: usize,
    weight: usize,
    cfg_we: usize,
    cfg_addr: usize,
    cfg_data: usize,
    start: usize,
    clear: usize,
}

impl NvdlaSource {
    pub fn new(map: &PortMap, num_stimulus: usize, seed: u64) -> Self {
        let lane = |n: &str| {
            map.index_of(n)
                .unwrap_or_else(|| panic!("nvdla design missing port `{n}`"))
        };
        NvdlaSource {
            seed,
            num_stimulus,
            lanes: NvdlaLanes {
                rst: lane("rst"),
                data: lane("data_in"),
                weight: lane("weight_in"),
                cfg_we: lane("cfg_we"),
                cfg_addr: lane("cfg_addr"),
                cfg_data: lane("cfg_data"),
                start: lane("start"),
                clear: lane("clear"),
            },
            ports: map.ports.iter().map(|p| p.width).collect(),
        }
    }
}

impl StimulusSource for NvdlaSource {
    fn num_stimulus(&self) -> usize {
        self.num_stimulus
    }

    fn fill_frame(&self, stimulus: usize, cycle: u64, frame: &mut [u64]) {
        frame.fill(0);
        let l = self.lanes;
        let s = stimulus as u64;
        if cycle < 2 {
            frame[l.rst] = 1;
            return;
        }
        if cycle < 6 {
            // Configuration window: program shift/relu/bias per stimulus.
            frame[l.cfg_we] = 1;
            frame[l.cfg_addr] = cycle - 2;
            frame[l.cfg_data] = coord_hash(self.seed, s, cycle, 0xc0f6) & 0xffff;
            return;
        }
        // Streaming phase.
        frame[l.start] = 1;
        frame[l.data] = coord_hash(self.seed, s, cycle, 0xdada);
        frame[l.weight] = coord_hash(self.seed, s, cycle, 0x3e16);
        // Periodic accumulator flush, period differs per stimulus.
        let period = 16 + (s % 17);
        if cycle.is_multiple_of(period) {
            frame[l.clear] = 1;
            frame[l.start] = 0;
        }
        for (v, &w) in frame.iter_mut().zip(&self.ports) {
            *v &= width_mask(w);
        }
    }

    fn num_ports(&self) -> usize {
        self.ports.len()
    }
}

/// Directed (hand-written) stimulus: every stimulus plays an explicit
/// sequence of frames; cycles beyond a sequence hold its last frame
/// (the usual directed-test idiom of driving a scenario then idling).
#[derive(Debug, Clone)]
pub struct DirectedSource {
    /// One frame sequence per stimulus; every frame has one lane per port.
    sequences: Vec<Vec<Vec<u64>>>,
    lanes: usize,
}

impl DirectedSource {
    /// Build from explicit per-stimulus frame sequences.
    pub fn new(map: &PortMap, sequences: Vec<Vec<Vec<u64>>>) -> Self {
        assert!(
            !sequences.is_empty(),
            "directed source needs at least one stimulus"
        );
        for seq in &sequences {
            assert!(!seq.is_empty(), "every stimulus needs at least one frame");
            for f in seq {
                assert_eq!(f.len(), map.len(), "frame lane count mismatch");
            }
        }
        DirectedSource {
            sequences,
            lanes: map.len(),
        }
    }

    /// A single directed test replicated with per-stimulus perturbations
    /// of one lane — "perturbations to directed tests" from §1.
    pub fn perturbed(
        map: &PortMap,
        base: Vec<Vec<u64>>,
        lane: usize,
        num_stimulus: usize,
        seed: u64,
    ) -> Self {
        assert!(lane < map.len());
        let sequences = (0..num_stimulus)
            .map(|s| {
                base.iter()
                    .enumerate()
                    .map(|(c, f)| {
                        let mut f = f.clone();
                        f[lane] ^=
                            map.mask(lane, coord_hash(seed, s as u64, c as u64, lane as u64));
                        f[lane] = map.mask(lane, f[lane]);
                        f
                    })
                    .collect()
            })
            .collect();
        DirectedSource {
            sequences,
            lanes: map.len(),
        }
    }
}

impl StimulusSource for DirectedSource {
    fn num_stimulus(&self) -> usize {
        self.sequences.len()
    }

    fn fill_frame(&self, stimulus: usize, cycle: u64, frame: &mut [u64]) {
        let seq = &self.sequences[stimulus];
        let idx = (cycle as usize).min(seq.len() - 1);
        frame.copy_from_slice(&seq[idx]);
    }

    fn num_ports(&self) -> usize {
        self.lanes
    }
}

/// Concatenation of base stimulus segments, per the paper's appendix:
/// "generate multiple stimulus by randomly concatenating stimulus offered
/// by each design". Each generated stimulus plays `segment_len`-cycle
/// windows of randomly chosen base stimulus.
pub struct ConcatSource<S> {
    pub base: S,
    pub num_stimulus: usize,
    pub segment_len: u64,
    pub seed: u64,
}

impl<S: StimulusSource> ConcatSource<S> {
    pub fn new(base: S, num_stimulus: usize, segment_len: u64, seed: u64) -> Self {
        assert!(segment_len > 0);
        assert!(
            base.num_stimulus() > 0,
            "concat source needs a non-empty base"
        );
        ConcatSource {
            base,
            num_stimulus,
            segment_len,
            seed,
        }
    }
}

impl<S: StimulusSource> StimulusSource for ConcatSource<S> {
    fn num_stimulus(&self) -> usize {
        self.num_stimulus
    }

    fn fill_frame(&self, stimulus: usize, cycle: u64, frame: &mut [u64]) {
        let segment = cycle / self.segment_len;
        // Which base stimulus does this (stimulus, segment) window replay?
        let pick = coord_hash(self.seed, stimulus as u64, segment, 0xcafe) as usize
            % self.base.num_stimulus();
        // Keep cycle-local position so protocols (reset windows) still work
        // for the first segment, and later segments replay steady-state.
        let base_cycle = if segment == 0 {
            cycle
        } else {
            self.segment_len.max(8) + cycle % self.segment_len
        };
        self.base.fill_frame(pick, base_cycle, frame);
    }

    fn num_ports(&self) -> usize {
        self.base.num_ports()
    }
}

/// An `offset + len` window over any [`StimulusSource`]: stimulus `i` of
/// the slice is stimulus `offset + i` of the parent, bit for bit. This is
/// what lets a serving layer hand each job a contiguous sub-range of a
/// shared batch (and, inversely, re-address a job's stimulus inside a
/// coalesced super-batch) without copying frames.
#[derive(Debug, Clone)]
pub struct SliceSource<S> {
    base: S,
    offset: usize,
    len: usize,
}

impl<S: StimulusSource> SliceSource<S> {
    /// View `len` stimulus of `base` starting at `offset`.
    /// Panics when the window exceeds the parent's batch.
    pub fn new(base: S, offset: usize, len: usize) -> Self {
        assert!(
            offset
                .checked_add(len)
                .is_some_and(|end| end <= base.num_stimulus()),
            "slice [{offset}, {offset}+{len}) exceeds parent batch of {}",
            base.num_stimulus()
        );
        SliceSource { base, offset, len }
    }

    /// First parent index covered by this slice.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// The underlying source.
    pub fn base(&self) -> &S {
        &self.base
    }
}

impl<S: StimulusSource> StimulusSource for SliceSource<S> {
    fn num_stimulus(&self) -> usize {
        self.len
    }

    fn fill_frame(&self, stimulus: usize, cycle: u64, frame: &mut [u64]) {
        assert!(
            stimulus < self.len,
            "stimulus {stimulus} outside slice of {}",
            self.len
        );
        self.base.fill_frame(self.offset + stimulus, cycle, frame)
    }

    fn num_ports(&self) -> usize {
        self.base.num_ports()
    }

    fn fill_columns(&self, cycle: u64, tid0: usize, len: usize, stride: usize, cols: &mut [u64]) {
        assert!(
            tid0 + len <= self.len,
            "stimuli [{tid0}, {tid0}+{len}) outside slice of {}",
            self.len
        );
        self.base
            .fill_columns(cycle, self.offset + tid0, len, stride, cols)
    }
}

/// Several sources stacked into one contiguous batch: segment `j`'s
/// stimulus `i` appears at global index `prefix[j] + i`. The inverse of
/// [`SliceSource`] — a coalescer stacks many jobs' sources into one
/// super-batch, runs it once, then carves the results back apart with the
/// per-segment ranges. Each segment keeps its own generator and seed, so
/// stacked results are bit-identical to running every segment alone.
pub struct StackedSource<S> {
    segments: Vec<S>,
    /// `prefix[j]` = global index of segment j's first stimulus;
    /// `prefix[segments.len()]` = total batch size.
    prefix: Vec<usize>,
    lanes: usize,
}

impl<S: StimulusSource> StackedSource<S> {
    /// Stack `segments` in order. All segments must drive the same lane
    /// count; panics otherwise or on an empty list.
    pub fn new(segments: Vec<S>) -> Self {
        assert!(
            !segments.is_empty(),
            "stacked source needs at least one segment"
        );
        let lanes = segments[0].num_ports();
        let mut prefix = Vec::with_capacity(segments.len() + 1);
        let mut total = 0usize;
        for s in &segments {
            assert_eq!(
                s.num_ports(),
                lanes,
                "all stacked segments must drive the same ports"
            );
            prefix.push(total);
            total += s.num_stimulus();
        }
        prefix.push(total);
        StackedSource {
            segments,
            prefix,
            lanes,
        }
    }

    /// Global `offset..offset+len` range of segment `j`.
    pub fn segment_range(&self, j: usize) -> std::ops::Range<usize> {
        self.prefix[j]..self.prefix[j + 1]
    }

    /// Segment `j`, with its own local stimulus indices.
    pub fn segment(&self, j: usize) -> &S {
        &self.segments[j]
    }
}

impl<S: StimulusSource> StimulusSource for StackedSource<S> {
    fn num_stimulus(&self) -> usize {
        *self.prefix.last().unwrap()
    }

    fn fill_frame(&self, stimulus: usize, cycle: u64, frame: &mut [u64]) {
        // prefix is sorted; the owner is the last segment starting at or
        // before `stimulus` (skipping any empty segments at that index).
        let j = self.prefix.partition_point(|&p| p <= stimulus) - 1;
        self.segments[j].fill_frame(stimulus - self.prefix[j], cycle, frame)
    }

    fn num_ports(&self) -> usize {
        self.lanes
    }

    /// Each segment fills its share of the window, in segment order, into
    /// the columns at that share's offset; empty shares are skipped.
    fn fill_columns(&self, cycle: u64, tid0: usize, len: usize, stride: usize, cols: &mut [u64]) {
        let end = tid0 + len;
        for (j, seg) in self.segments.iter().enumerate() {
            let lo = tid0.max(self.prefix[j]);
            let hi = end.min(self.prefix[j + 1]);
            if lo < hi {
                let sub = cols.get_mut(lo - tid0..).unwrap_or_default();
                seg.fill_columns(cycle, lo - self.prefix[j], hi - lo, stride, sub);
            }
        }
    }
}

/// Pick the idiomatic source for a named benchmark top module.
pub fn source_for(
    design: &Design,
    map: &PortMap,
    num_stimulus: usize,
    seed: u64,
) -> Box<dyn StimulusSource> {
    if map.index_of("instr").is_some() {
        Box::new(RiscvSource::new(map, num_stimulus, seed))
    } else if map.index_of("cfg_we").is_some() && map.index_of("data_in").is_some() {
        Box::new(NvdlaSource::new(map, num_stimulus, seed))
    } else {
        let _ = design;
        Box::new(RandomSource::new(map, num_stimulus, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use designs::Benchmark;

    fn map_for(b: Benchmark) -> (rtlir::Design, PortMap) {
        let d = b.elaborate().unwrap();
        let m = PortMap::from_design(&d);
        (d, m)
    }

    #[test]
    fn portmap_excludes_clock() {
        let (d, m) = map_for(Benchmark::RiscvMini);
        let clk = d.clock.unwrap();
        assert!(m.ports.iter().all(|p| p.var != clk));
        assert!(m.index_of("instr").is_some());
        assert!(m.index_of("rst").is_some());
    }

    #[test]
    fn random_source_is_deterministic() {
        let (_, m) = map_for(Benchmark::RiscvMini);
        let s = RandomSource::new(&m, 8, 42);
        let mut f1 = vec![0u64; m.len()];
        let mut f2 = vec![0u64; m.len()];
        s.fill_frame(3, 100, &mut f1);
        s.fill_frame(3, 100, &mut f2);
        assert_eq!(f1, f2);
        s.fill_frame(4, 100, &mut f2);
        assert_ne!(f1, f2, "different stimulus must differ");
    }

    #[test]
    fn random_source_respects_widths() {
        let (_, m) = map_for(Benchmark::RiscvMini);
        let s = RandomSource::new(&m, 4, 7);
        let mut f = vec![0u64; m.len()];
        for c in 0..50 {
            for st in 0..4 {
                s.fill_frame(st, c, &mut f);
                for (lane, p) in m.ports.iter().enumerate() {
                    if p.width < 64 {
                        assert!(
                            f[lane] < (1 << p.width),
                            "lane {lane} overflows width {}",
                            p.width
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn reset_protocol() {
        let (_, m) = map_for(Benchmark::RiscvMini);
        let s = RandomSource::new(&m, 2, 1);
        let rst = m.index_of("rst").unwrap();
        let mut f = vec![0u64; m.len()];
        s.fill_frame(0, 0, &mut f);
        assert_eq!(f[rst], 1);
        s.fill_frame(0, 1, &mut f);
        assert_eq!(f[rst], 1);
        s.fill_frame(0, 2, &mut f);
        assert_eq!(f[rst], 0);
    }

    #[test]
    fn generated_sources_are_coord_hash_of_each_lane() {
        // The column fill is the only generator, so pin it to its spec:
        // every recorded digest in the repo hangs on these values.
        let (_, m) = map_for(Benchmark::RiscvMini);
        let (instr, rst) = (m.index_of("instr").unwrap(), m.index_of("rst").unwrap());
        let random = RandomSource::new(&m, 8, 21);
        let riscv = RiscvSource::new(&m, 8, 22);
        let mut f = vec![0u64; m.len()];
        for (s, c) in [(0usize, 0u64), (3, 1), (7, 2), (5, 90)] {
            let reset = (c < 2) as u64;
            random.fill_frame(s, c, &mut f);
            for (lane, p) in m.ports.iter().enumerate() {
                let h = coord_hash(21, s as u64, c, lane as u64) & width_mask(p.width);
                assert_eq!(f[lane], if lane == rst { reset } else { h });
            }
            riscv.fill_frame(s, c, &mut f);
            for (lane, p) in m.ports.iter().enumerate() {
                let want = match lane {
                    _ if lane == rst => reset,
                    _ if lane == instr => {
                        RiscvSource::instruction(coord_hash(22, s as u64, c, 0xfeed)) as u64
                    }
                    _ => coord_hash(22, s as u64, c, lane as u64) & width_mask(p.width),
                };
                assert_eq!(f[lane], want, "riscv lane {lane} of ({s}, {c})");
            }
        }
    }

    #[test]
    fn riscv_source_emits_known_opcodes() {
        let (_, m) = map_for(Benchmark::RiscvMini);
        let s = RiscvSource::new(&m, 16, 99);
        let instr = m.index_of("instr").unwrap();
        let mut f = vec![0u64; m.len()];
        let valid = [
            0b0110011u64,
            0b0010011,
            0b0000011,
            0b0100011,
            0b1100011,
            0b0110111,
        ];
        for c in 2..200 {
            s.fill_frame(c as usize % 16, c, &mut f);
            let op = f[instr] & 0x7f;
            assert!(valid.contains(&op), "bad opcode {op:#b}");
        }
    }

    #[test]
    fn nvdla_source_protocol_phases() {
        let (_, m) = map_for(Benchmark::Nvdla(designs::NvdlaScale::Tiny));
        let s = NvdlaSource::new(&m, 4, 5);
        let mut f = vec![0u64; m.len()];
        s.fill_frame(0, 0, &mut f);
        assert_eq!(f[m.index_of("rst").unwrap()], 1);
        s.fill_frame(0, 3, &mut f);
        assert_eq!(f[m.index_of("cfg_we").unwrap()], 1);
        assert_eq!(f[m.index_of("start").unwrap()], 0);
        s.fill_frame(0, 10, &mut f);
        assert_eq!(f[m.index_of("cfg_we").unwrap()], 0);
        assert_eq!(f[m.index_of("start").unwrap()], 1);
    }

    #[test]
    fn directed_source_holds_last_frame() {
        let (_, m) = map_for(Benchmark::RiscvMini);
        let frames = vec![vec![vec![1u64; m.len()], vec![2u64; m.len()]]];
        let src = DirectedSource::new(&m, frames);
        let mut f = vec![0u64; m.len()];
        src.fill_frame(0, 0, &mut f);
        assert_eq!(f[0], 1);
        src.fill_frame(0, 1, &mut f);
        assert_eq!(f[0], 2);
        src.fill_frame(0, 99, &mut f);
        assert_eq!(f[0], 2, "past the sequence end, the last frame holds");
    }

    #[test]
    fn perturbed_directed_tests_differ_only_on_lane() {
        let (_, m) = map_for(Benchmark::RiscvMini);
        let instr = m.index_of("instr").unwrap();
        let base = vec![vec![0u64; m.len()]; 4];
        let src = DirectedSource::perturbed(&m, base, instr, 8, 42);
        assert_eq!(src.num_stimulus(), 8);
        let mut f1 = vec![0u64; m.len()];
        let mut f2 = vec![0u64; m.len()];
        src.fill_frame(0, 2, &mut f1);
        src.fill_frame(5, 2, &mut f2);
        for lane in 0..m.len() {
            if lane == instr {
                assert_ne!(f1[lane], f2[lane], "perturbed lane should differ");
            } else {
                assert_eq!(f1[lane], f2[lane], "other lanes must match");
            }
        }
    }

    #[test]
    fn concat_source_replays_base_windows() {
        let (_, m) = map_for(Benchmark::RiscvMini);
        let base = RandomSource::new(&m, 4, 11);
        let c = ConcatSource::new(base, 32, 10, 3);
        assert_eq!(c.num_stimulus(), 32);
        let mut f1 = vec![0u64; m.len()];
        let mut f2 = vec![0u64; m.len()];
        c.fill_frame(9, 25, &mut f1);
        c.fill_frame(9, 25, &mut f2);
        assert_eq!(f1, f2);
    }

    #[test]
    fn slice_source_remaps_indices_to_parent() {
        let (_, m) = map_for(Benchmark::RiscvMini);
        let base = RandomSource::new(&m, 32, 0xfeed);
        let slice = SliceSource::new(base.clone(), 10, 8);
        assert_eq!(slice.num_stimulus(), 8);
        assert_eq!(slice.num_ports(), m.len());
        let mut fs = vec![0u64; m.len()];
        let mut fp = vec![0u64; m.len()];
        for s in 0..8 {
            for c in [0u64, 1, 7, 100] {
                slice.fill_frame(s, c, &mut fs);
                base.fill_frame(10 + s, c, &mut fp);
                assert_eq!(
                    fs,
                    fp,
                    "slice stimulus {s} must equal parent stimulus {}",
                    10 + s
                );
            }
        }
    }

    #[test]
    fn slice_of_slice_composes() {
        let (_, m) = map_for(Benchmark::RiscvMini);
        let base = RandomSource::new(&m, 32, 7);
        let outer = SliceSource::new(base.clone(), 4, 16);
        let inner = SliceSource::new(outer, 3, 5);
        let mut fi = vec![0u64; m.len()];
        let mut fp = vec![0u64; m.len()];
        inner.fill_frame(2, 9, &mut fi);
        base.fill_frame(4 + 3 + 2, 9, &mut fp);
        assert_eq!(fi, fp);
    }

    #[test]
    #[should_panic(expected = "exceeds parent batch")]
    fn slice_source_rejects_overrun() {
        let (_, m) = map_for(Benchmark::RiscvMini);
        let base = RandomSource::new(&m, 8, 1);
        let _ = SliceSource::new(base, 4, 8);
    }

    #[test]
    #[should_panic(expected = "non-empty base")]
    fn concat_source_rejects_empty_base() {
        let (_, m) = map_for(Benchmark::RiscvMini);
        let _ = ConcatSource::new(RandomSource::new(&m, 0, 1), 8, 4, 2);
    }

    /// `fill_columns` over `(cycle, tid0, len, stride)` must equal the
    /// transposed `fill_frame` rows, and leave the gap past `len` in
    /// every column untouched.
    fn assert_columns_match_frames(src: &dyn StimulusSource, what: &str) {
        let ports = src.num_ports();
        let n = src.num_stimulus();
        let mut rng = 0x5eed_u64;
        let mut next = |bound: usize| {
            rng = splitmix64(rng);
            (rng % bound.max(1) as u64) as usize
        };
        let mut frame = vec![0u64; ports];
        for _ in 0..24 {
            let cycle = next(40) as u64;
            let tid0 = next(n + 1);
            let len = next(n - tid0 + 1);
            let stride = (len + next(5)).max(1);
            const GAP: u64 = 0xdead_beef;
            let mut cols = vec![GAP; ports * stride];
            src.fill_columns(cycle, tid0, len, stride, &mut cols);
            for (p, col) in cols.chunks(stride).enumerate() {
                assert!(col[len..].iter().all(|&v| v == GAP), "{what}: gap written");
                for (i, &v) in col[..len].iter().enumerate() {
                    src.fill_frame(tid0 + i, cycle, &mut frame);
                    assert_eq!(
                        v,
                        frame[p],
                        "{what}: port {p} of stimulus {} at cycle {cycle}",
                        tid0 + i
                    );
                }
            }
        }
    }

    #[test]
    fn every_source_fills_columns_as_transposed_frames() {
        let (_, rv_map) = map_for(Benchmark::RiscvMini);
        let (_, nv_map) = map_for(Benchmark::Nvdla(designs::NvdlaScale::Tiny));
        let (_, hs_map) = map_for(Benchmark::Handshake);
        let random = RandomSource::new(&hs_map, 70, 3);
        let riscv = RiscvSource::new(&rv_map, 70, 4);
        let nvdla = NvdlaSource::new(&nv_map, 40, 5);
        let base = vec![vec![0u64; rv_map.len()]; 6];
        let directed = DirectedSource::perturbed(&rv_map, base, 1, 30, 6);
        let widths: Vec<u32> = rv_map.ports.iter().map(|p| p.width).collect();
        let file = file::FileSource::new(file::BatchFile::record(&riscv, &widths, 16)).unwrap();
        let concat = ConcatSource::new(RandomSource::new(&rv_map, 5, 7), 33, 8, 8);
        let slice = SliceSource::new(RiscvSource::new(&rv_map, 90, 9), 17, 50);
        let stacked: StackedSource<Box<dyn StimulusSource>> = StackedSource::new(vec![
            Box::new(RandomSource::new(&rv_map, 0, 10)),
            Box::new(RiscvSource::new(&rv_map, 37, 11)),
            Box::new(RandomSource::new(&rv_map, 0, 12)),
            Box::new(RandomSource::new(&rv_map, 64, 13)),
            Box::new(SliceSource::new(RiscvSource::new(&rv_map, 9, 14), 2, 5)),
            Box::new(RandomSource::new(&rv_map, 0, 15)),
        ]);
        let sources: [(&dyn StimulusSource, &str); 8] = [
            (&random, "random"),
            (&riscv, "riscv"),
            (&nvdla, "nvdla"),
            (&directed, "directed"),
            (&file, "file"),
            (&concat, "concat"),
            (&slice, "slice"),
            (&stacked, "stacked"),
        ];
        for (src, what) in sources {
            assert_columns_match_frames(src, what);
            assert_columns_match_frames(&&src, &format!("&{what}"));
            assert_columns_match_frames(&Box::new(src), &format!("Box<{what}>"));
            assert_columns_match_frames(&std::sync::Arc::new(src), &format!("Arc<{what}>"));
        }
    }

    /// Counts `fill_frame` calls and records their order; implements
    /// nothing else, like a tracing decorator.
    struct RowOnly {
        inner: RandomSource,
        calls: std::sync::Mutex<Vec<(usize, u64)>>,
    }

    impl StimulusSource for RowOnly {
        fn num_stimulus(&self) -> usize {
            self.inner.num_stimulus()
        }
        fn fill_frame(&self, stimulus: usize, cycle: u64, frame: &mut [u64]) {
            self.calls.lock().unwrap().push((stimulus, cycle));
            self.inner.fill_frame(stimulus, cycle, frame)
        }
        fn num_ports(&self) -> usize {
            self.inner.num_ports()
        }
    }

    #[test]
    fn default_columns_fill_each_frame_once_in_ascending_order_through_wrappers() {
        let (_, m) = map_for(Benchmark::Handshake);
        let row = RowOnly {
            inner: RandomSource::new(&m, 20, 1),
            calls: Default::default(),
        };
        let stacked = StackedSource::new(vec![
            Box::new(std::sync::Arc::new(&row)) as Box<dyn StimulusSource>,
            Box::new(RandomSource::new(&m, 0, 2)),
            Box::new(std::sync::Arc::new(&row)),
        ]);
        let mut cols = vec![0u64; m.len() * 40];
        stacked.fill_columns(3, 5, 30, 40, &mut cols);
        let seen = row.calls.lock().unwrap().clone();
        let expect: Vec<(usize, u64)> = (5..20).chain(0..15).map(|s| (s, 3)).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn source_for_dispatches_by_ports() {
        let (d, m) = map_for(Benchmark::Nvdla(designs::NvdlaScale::Tiny));
        let s = source_for(&d, &m, 8, 1);
        assert_eq!(s.num_stimulus(), 8);
        assert_eq!(s.num_ports(), m.len());
    }
}
