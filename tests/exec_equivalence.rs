//! Differential equivalence of the execution engine: the fused engine —
//! with no layout, with a bit-transposed layout on one thread, and with
//! the layout on several threads over misaligned lane windows — must be
//! bit-identical to the scalar reference interpreter, checkpoints through
//! the transposed region included —
//!
//! * on randomly generated (but valid) kernel IR over randomly
//!   initialized device memory, for every width bucket, including
//!   out-of-range `LoadIdx` (reads as 0) and guarded `StoreIdxCond`,
//!   for full, partial, and single-lane tid ranges, and
//! * on the benchmark designs over real stimulus.
//!
//! The uniform-slot analysis runs for real on every fuzzed graph; slots
//! it proves lane-invariant are seeded with broadcast values (the
//! contract the executor specializes against), everything else with
//! per-lane random data.

use cudasim::{
    execute_kernel, fuse_graph, run_order, BitLayout, Bucket, Checkpoint, DeviceMemory, ExecConfig,
    FuseConfig, KBin, KUn, Kernel, Op, Scratch, Slot, SlotUniform, TaskGraphIr,
};
use rtlflow::{Benchmark, Flow, NvdlaScale, PortMap};
use stimulus::StimulusSource;

/// Deterministic xorshift64* — no external crates.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e3779b97f4a7c15) | 1)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545f4914f6cdd1d)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Elements allocated per bucket in the fuzzed device.
const LENS: [u32; 4] = [12, 6, 6, 6];

const BUCKETS: [Bucket; 4] = [Bucket::B8, Bucket::B16, Bucket::B32, Bucket::B64];

const BINS: [KBin; 20] = [
    KBin::Add,
    KBin::Sub,
    KBin::Mul,
    KBin::Div,
    KBin::Rem,
    KBin::And,
    KBin::Or,
    KBin::Xor,
    KBin::Xnor,
    KBin::Shl,
    KBin::Shr,
    KBin::Sshr,
    KBin::Eq,
    KBin::Ne,
    KBin::Ltu,
    KBin::Leu,
    KBin::Gtu,
    KBin::Geu,
    KBin::LAnd,
    KBin::LOr,
];

const UNS: [KUn; 6] = [
    KUn::Not,
    KUn::Neg,
    KUn::LNot,
    KUn::RedAnd,
    KUn::RedOr,
    KUn::RedXor,
];

fn rand_slot(rng: &mut Rng) -> Slot {
    let bi = rng.below(4) as usize;
    Slot {
        bucket: BUCKETS[bi],
        offset: rng.below(LENS[bi] as u64) as u32,
    }
}

/// Base slot + depth for a memory op, staying inside the allocation
/// (the `load_idx` extent assertion enforces this). `wide_only` keeps
/// memories out of `var8`, where a wide indexed store would break the
/// 0/1 contract of a one-bit slot.
fn rand_mem(rng: &mut Rng, wide_only: bool) -> (Slot, u32) {
    let bi = if wide_only {
        1 + rng.below(3) as usize
    } else {
        rng.below(4) as usize
    };
    let len = LENS[bi];
    let offset = rng.below(len as u64 - 1) as u32;
    let depth = 1 + rng.below((len - offset) as u64) as u32;
    (
        Slot {
            bucket: BUCKETS[bi],
            offset,
        },
        depth,
    )
}

/// Generate a random kernel that upholds the write-before-read
/// invariant `Kernel::validate` enforces.
///
/// The first `one_bit` `var8` slots are 1-bit signals: every store to
/// them is width 1, so with a 0/1 seed they only ever hold 0/1. With none
/// the generator is unbiased. Otherwise every other op is a *bit-domain*
/// one: operands from the registers that hold 0/1 values by construction,
/// width 1, one-bit slots, which also keeps the IR's own contract that a
/// width-`w` op is fed `w`-bit values. The remaining ops mostly keep off
/// those registers, because a single word-domain reader drags the whole
/// cone that produced its operand into the word domain; one draw in eight
/// reads them anyway, which is where mixed cones, escapes and demotions
/// come from. Without the bias a random kernel forms no bit cone at all
/// and every layout compiles to zero planes.
fn gen_kernel(rng: &mut Rng, name: &str, one_bit: u32) -> Kernel {
    let is_one_bit = |s: &Slot| s.bucket == Bucket::B8 && s.offset < one_bit;
    let mut ops = Vec::new();
    let mut written: Vec<u16> = Vec::new();
    // Registers whose current value is 0/1 by construction.
    let mut bits: Vec<u16> = Vec::new();
    let n_ops = 16 + rng.below(48) as usize;
    for _ in 0..n_ops {
        let bit_op = !bits.is_empty() && rng.below(2) == 0;
        let words: Vec<u16> = written
            .iter()
            .copied()
            .filter(|r| !bits.contains(r))
            .collect();
        // A dst is a fresh register (capped) or an overwrite.
        let dst = |rng: &mut Rng, written: &mut Vec<u16>| -> u16 {
            if written.len() < 12 || rng.below(3) == 0 {
                let r = written.len() as u16;
                written.push(r);
                r
            } else {
                written[rng.below(written.len() as u64) as usize]
            }
        };
        let src = |rng: &mut Rng, written: &[u16]| {
            let pool = if bit_op {
                &bits[..]
            } else if !words.is_empty() && rng.below(8) > 0 {
                &words[..]
            } else {
                written
            };
            pool[rng.below(pool.len() as u64) as usize]
        };
        let width = |rng: &mut Rng| {
            if bit_op {
                1
            } else {
                1 + rng.below(64) as u32
            }
        };
        let slot = |rng: &mut Rng| {
            if bit_op {
                Slot {
                    bucket: Bucket::B8,
                    offset: rng.below(one_bit as u64) as u32,
                }
            } else if one_bit > 0 && rng.below(2) == 0 {
                Slot {
                    bucket: Bucket::B8,
                    offset: rng.below(LENS[0] as u64) as u32,
                }
            } else {
                rand_slot(rng)
            }
        };

        let choice = if written.len() < 2 {
            rng.below(2)
        } else {
            rng.below(12)
        };
        let op = match choice {
            0 => Op::Const {
                dst: dst(rng, &mut written),
                value: if bit_op { rng.below(2) } else { rng.next() },
            },
            1 => Op::Load {
                dst: dst(rng, &mut written),
                slot: slot(rng),
            },
            2 | 3 => {
                let slot = slot(rng);
                Op::Store {
                    src: src(rng, &written),
                    slot,
                    width: if is_one_bit(&slot) { 1 } else { width(rng) },
                }
            }
            // Sources are sampled BEFORE dst: dst may mint a fresh
            // register, which must not be readable by the same op.
            4 => {
                let a = src(rng, &written);
                Op::Un {
                    op: UNS[rng.below(6) as usize],
                    dst: dst(rng, &mut written),
                    a,
                    width: width(rng),
                }
            }
            5 => {
                let (cond, a, b) = (src(rng, &written), src(rng, &written), src(rng, &written));
                Op::Mux {
                    dst: dst(rng, &mut written),
                    cond,
                    a,
                    b,
                }
            }
            6 if !bit_op => {
                let (slot, depth) = rand_mem(rng, one_bit > 0);
                let idx = src(rng, &written);
                Op::LoadIdx {
                    dst: dst(rng, &mut written),
                    slot,
                    idx,
                    depth,
                }
            }
            7 if !bit_op => {
                let (slot, depth) = rand_mem(rng, one_bit > 0);
                Op::StoreIdxCond {
                    src: src(rng, &written),
                    slot,
                    idx: src(rng, &written),
                    depth,
                    pred: src(rng, &written),
                    width: width(rng),
                }
            }
            _ => {
                let (a, b) = (src(rng, &written), src(rng, &written));
                Op::Bin {
                    op: BINS[rng.below(20) as usize],
                    dst: dst(rng, &mut written),
                    a,
                    b,
                    width: width(rng),
                }
            }
        };
        if let (true, Some(d)) = (one_bit > 0, op.dst()) {
            let from_bits = op.srcs().iter().all(|r| bits.contains(r));
            let is_bit = match &op {
                Op::Const { value, .. } => *value <= 1,
                Op::Load { slot, .. } => is_one_bit(slot),
                Op::Bin { width, .. } | Op::Un { width, .. } => *width == 1 && from_bits,
                Op::Mux { .. } => from_bits,
                _ => false,
            };
            bits.retain(|&r| r != d);
            if is_bit {
                bits.push(d);
            }
        }
        ops.push(op);
    }
    Kernel::new(name, ops)
}

/// A chain-dependency task graph of `k` random kernels plus the real
/// uniform-slot analysis over random non-uniform roots.
fn gen_graph(rng: &mut Rng, k: usize, one_bit: u32) -> (TaskGraphIr, SlotUniform) {
    let kernels: Vec<Kernel> = (0..k)
        .map(|i| gen_kernel(rng, &format!("fz{i}"), one_bit))
        .collect();
    let deps = (0..k)
        .map(|i| if i == 0 { vec![] } else { vec![i - 1] })
        .collect();
    let ir = TaskGraphIr { kernels, deps };
    for kn in &ir.kernels {
        kn.validate().expect("generated kernel must validate");
    }
    let mut roots = Vec::new();
    for (bi, &b) in BUCKETS.iter().enumerate() {
        for off in 0..LENS[bi] {
            if rng.below(3) == 0 {
                roots.push(Slot {
                    bucket: b,
                    offset: off,
                });
            }
        }
    }
    let uniform = SlotUniform::analyze(&ir, LENS, &roots);
    (ir, uniform)
}

/// Seed device memory honoring the uniform contract: slots the analysis
/// proved lane-invariant get one broadcast value, all others get
/// independent per-lane randoms.
fn seed_device(rng: &mut Rng, uniform: &SlotUniform, n: usize) -> DeviceMemory {
    let mut dev = DeviceMemory::new(n, LENS[0], LENS[1], LENS[2], LENS[3]);
    for (bi, &b) in BUCKETS.iter().enumerate() {
        for off in 0..LENS[bi] {
            let slot = Slot {
                bucket: b,
                offset: off,
            };
            let broadcast = rng.next();
            for tid in 0..n {
                let v = if uniform.get(slot) {
                    broadcast
                } else {
                    rng.next()
                };
                dev.store(slot, tid, v); // store truncates to the bucket type
            }
        }
    }
    dev
}

/// Full device state of `b` against the scalar reference's. `b` may have
/// a bit-transposed region attached: its `var8` is compared in canonical
/// form.
fn assert_matches_reference(a: &DeviceMemory, b: &DeviceMemory, what: &str, trial: u64) {
    assert_eq!(
        a.var8,
        b.var8_canonical(),
        "{what} diverged in var8 (trial {trial})"
    );
    assert_eq!(a.var16, b.var16, "{what} diverged in var16 (trial {trial})");
    assert_eq!(a.var32, b.var32, "{what} diverged in var32 (trial {trial})");
    assert_eq!(a.var64, b.var64, "{what} diverged in var64 (trial {trial})");
}

/// One differential trial: a fuzzed graph over a seeded device, three
/// cycles on lanes `[tid0, tid0 + group)`, the fused engine four ways —
/// without and with the compiled layout, on one thread and on four over
/// 64-lane blocks, with a fuzzed lane-chunk size (including the
/// degenerate chunk of 1 and chunks larger than the lane range) — each
/// bit-identical to the scalar reference after every cycle, plus a
/// checkpoint round-trip through the transposed region.
///
/// A `biased` trial declares the first half to all of the `var8` slots
/// 1-bit signals: width-1 input roots that the graph only ever stores at
/// width 1 and whose seeds are masked to 0/1, the contract a width-1 root
/// makes (the rest stay width-8). Returns whether the layout kept any
/// plane: one that did not runs the no-layout path all four ways, and the
/// bit trials check that enough of them are not of that kind.
fn run_trial(trial: u64, n: usize, tid0: usize, group: usize, biased: bool) -> bool {
    let mut rng = Rng::new(if biased { trial ^ 0xb17b17 } else { trial });
    let k = 1 + rng.below(3) as usize;
    let one_bit = if biased {
        LENS[0] / 2 + rng.below(LENS[0] as u64 / 2) as u32
    } else {
        0
    };
    let (ir, uniform) = gen_graph(&mut rng, k, one_bit);
    let order: Vec<usize> = (0..ir.kernels.len()).collect();
    let fused = fuse_graph(&ir, Some(&uniform));
    let b8 = |offset: u32| Slot {
        bucket: Bucket::B8,
        offset,
    };
    let bit_roots: Vec<(Slot, u32)> = (0..LENS[0])
        .map(|o| (b8(o), if o < one_bit { 1 } else { 8 }))
        .collect();
    let layout = BitLayout::compile(
        &ir,
        LENS[0],
        &bit_roots,
        Some(&uniform),
        &FuseConfig::default(),
    );
    let mut dev_s = seed_device(&mut rng, &uniform, n);
    for o in 0..one_bit {
        for tid in 0..n {
            let v = dev_s.load(b8(o), tid) & 1;
            dev_s.store(b8(o), tid, v);
        }
    }

    let chunk = [1usize, 3, 17, 64, 256, 1000][rng.below(6) as usize];
    // (worker threads, whether the engine is handed the layout)
    let engines = [(1, false), (4, false), (1, true), (4, true)];
    let mut devs = vec![dev_s.clone(); engines.len()];
    let mut scratch = Scratch::new();
    for cycle in 0..3u64 {
        for &k in &order {
            execute_kernel(&ir.kernels[k], &mut dev_s, &mut scratch, tid0, group);
        }
        for (&(threads, with_layout), dev) in engines.iter().zip(&mut devs) {
            let exec = ExecConfig::fused(threads)
                .with_block(64)
                .with_lane_chunk(chunk);
            run_order(
                &ir.kernels,
                &fused,
                with_layout.then_some(&layout),
                &order,
                dev,
                &mut exec.scratch_pool(),
                tid0,
                group,
                &exec,
            );
            let what = format!("fused:{threads} layout={with_layout}");
            assert_matches_reference(&dev_s, dev, &what, trial);
        }

        // Checkpoint images are canonical: capturing from the attached
        // device must equal capturing from the scalar reference, and a
        // restore into the attached device must leave the next cycle
        // bit-identical.
        let ck_s = Checkpoint::capture(&dev_s, 1, cycle, tid0 as u64);
        let ck_b = Checkpoint::capture(&devs[2], 1, cycle, tid0 as u64);
        assert_eq!(ck_s, ck_b, "checkpoint diverged (trial {trial})");
        ck_s.restore_into(&mut devs[3]).unwrap();
    }
    layout.num_planes() > 0
}

/// Every plane of a compiled layout is touched by a bit op, so a fuzzed
/// graph with no surviving bit-domain cone compiles to zero planes (about
/// half do: one word-fed store or one escape-and-store hazard demotes a
/// slot, and demotions cascade). The bit trials are only worth their name
/// while a good share of them is really transposed.
fn assert_enough_transposed(transposed: usize, trials: usize) {
    assert!(
        transposed * 3 > trials,
        "only {transposed} of {trials} bit trials kept a plane: the generator no longer \
         forms bit-domain cones"
    );
}

#[test]
fn fuzzed_bitplane_full_range() {
    let transposed = (200..236)
        .filter(|&trial| {
            let n = [1usize, 2, 5, 33, 64, 200][trial as usize % 6];
            run_trial(trial, n, 0, n, true)
        })
        .count();
    assert_enough_transposed(transposed, 36);
}

#[test]
fn fuzzed_bitplane_partial_and_misaligned_ranges() {
    let transposed = (300..324)
        .filter(|&trial| {
            // Sub-word, word-straddling, and single-lane windows.
            run_trial(trial, 33, 1, 31, true);
            run_trial(trial, 8, 7, 1, true);
            run_trial(trial, 16, 0, 0, true);
            run_trial(trial, 200, 37, 97, true)
        })
        .count();
    assert_enough_transposed(transposed, 24);
}

#[test]
fn fuzzed_kernels_full_range() {
    for trial in 0..48 {
        let n = [1usize, 2, 5, 33, 64, 200][trial as usize % 6];
        run_trial(trial, n, 0, n, false);
    }
}

#[test]
fn fuzzed_kernels_partial_and_single_lane_ranges() {
    for trial in 100..130 {
        run_trial(trial, 33, 1, 31, false);
        run_trial(trial, 200, 37, 97, false);
        run_trial(trial, 8, 7, 1, false);
        run_trial(trial, 16, 0, 0, false);
    }
}

/// Drive `b` with its idiomatic stimulus under every engine — a config,
/// and whether it is handed the program's compiled layout — and compare
/// each engine's full device state to the first one's, every cycle.
fn compare_engines(b: Benchmark, n: usize, cycles: u64, engines: &[(ExecConfig, bool)]) {
    let flow = Flow::from_benchmark(b).unwrap();
    let p = &flow.program;
    let map = PortMap::from_design(&flow.design);
    let source = stimulus::source_for(&flow.design, &map, n, 0x5eed);
    let mut frame = vec![0u64; map.len()];
    let mut devs: Vec<DeviceMemory> = engines.iter().map(|_| p.plan.alloc_device(n)).collect();
    let mut pools: Vec<Vec<Scratch>> = engines.iter().map(|(e, _)| e.scratch_pool()).collect();

    for c in 0..cycles {
        for dev in devs.iter_mut() {
            for s in 0..n {
                source.fill_frame(s, c, &mut frame);
                for (lane, port) in map.ports.iter().enumerate() {
                    p.plan.poke(dev, port.var, s, frame[lane]);
                }
            }
        }
        for (i, (exec, layout)) in engines.iter().enumerate() {
            run_order(
                &p.graph.kernels,
                &p.fused,
                layout.then_some(&p.bit),
                &p.order,
                &mut devs[i],
                &mut pools[i],
                0,
                n,
                exec,
            );
        }
        let (reference, rest) = devs.split_first().unwrap();
        for (dev, (exec, layout)) in rest.iter().zip(&engines[1..]) {
            let what = format!("{} {} layout={layout}", b.name(), exec.spec());
            assert_matches_reference(reference, dev, &what, c);
        }
    }
}

/// The lane-chunk size is a pure scheduling knob: every chunk size —
/// degenerate (1), sub-default (64), default (256), and a non-power-of-
/// two larger than the batch (1000) — must leave the device state
/// bit-identical to the scalar reference on one worker and on three.
#[test]
fn lane_chunk_sizes_are_bit_identical() {
    let mut engines = vec![(ExecConfig::scalar(), true)];
    for chunk in [1usize, 64, 256, 1000] {
        let three = ExecConfig::fused(3).with_block(64);
        engines.push((ExecConfig::fused(1).with_lane_chunk(chunk), true));
        engines.push((three.with_lane_chunk(chunk), true));
    }
    // Three 64-lane blocks, not a multiple of any chunk size.
    compare_engines(Benchmark::Nvdla(NvdlaScale::Tiny), 161, 12, &engines);
}

/// The benchmark designs: the fused engine — with no layout, with the
/// compiled layout on one thread, and with it on two threads over 64-lane
/// blocks — must reproduce the scalar reference bit-for-bit.
#[test]
fn benchmark_designs_match_scalar_reference() {
    let engines = [
        (ExecConfig::scalar(), false),
        (ExecConfig::fused(1), false),
        (ExecConfig::fused(1), true),
        (ExecConfig::fused(2).with_block(64), true),
    ];
    for (b, n) in [
        (Benchmark::RiscvMini, 24usize),
        (Benchmark::Spinal, 24),
        (Benchmark::Nvdla(NvdlaScale::Tiny), 16),
        (Benchmark::Picorv32, 16),
        (Benchmark::Handshake, 70),
    ] {
        compare_engines(b, n, 20, &engines);
    }
}
