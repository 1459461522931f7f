//! Property-based tests over the core invariants:
//!
//! * random expression designs evaluate identically on the golden
//!   interpreter and the transpiled SIMT kernels,
//! * `BitVec` arithmetic agrees with native `u128` arithmetic,
//! * stimulus sources are pure functions of their coordinates,
//! * the discrete-event resource respects work-conservation bounds,
//! * a compiled bit layout keeps only planes some bit op touches.
//!
//! The cases are driven by a deterministic in-tree generator rather than
//! `proptest` (the build must work offline): every case derives from a
//! fixed seed, so failures are reproducible by construction — the case
//! index is part of each assertion message.

use rtlflow::{Benchmark, BitVec, Flow, Interp, NvdlaScale, PortMap};
use stimulus::{splitmix64, RandomSource, StimulusSource};

/// Deterministic stream of pseudo-random draws for one test case.
struct Gen(u64);

impl Gen {
    fn new(test_seed: u64, case: u64) -> Self {
        Gen(splitmix64(test_seed ^ splitmix64(case)))
    }

    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.below(options.len() as u64) as usize]
    }
}

// ---------------------------------------------------------------- expr gen

/// A random expression tree over three 16-bit inputs.
#[derive(Debug, Clone)]
enum Ex {
    A,
    B,
    C,
    Lit(u16),
    Un(&'static str, Box<Ex>),
    Bin(&'static str, Box<Ex>, Box<Ex>),
    Tern(Box<Ex>, Box<Ex>, Box<Ex>),
    Slice(Box<Ex>, u8),
}

impl Ex {
    fn to_verilog(&self) -> String {
        match self {
            Ex::A => "a".into(),
            Ex::B => "b".into(),
            Ex::C => "c".into(),
            Ex::Lit(v) => format!("16'd{v}"),
            Ex::Un(op, e) => format!("({op}({}))", e.to_verilog()),
            Ex::Bin(op, l, r) => format!("(({}) {op} ({}))", l.to_verilog(), r.to_verilog()),
            Ex::Tern(c, t, e) => {
                format!(
                    "(({}) ? ({}) : ({}))",
                    c.to_verilog(),
                    t.to_verilog(),
                    e.to_verilog()
                )
            }
            Ex::Slice(e, lsb) => {
                // Part selects need a named base in our subset, so express
                // the slice as shift+mask instead.
                format!("((({}) >> {lsb}) & 16'h00ff)", e.to_verilog())
            }
        }
    }
}

const UN_OPS: [&str; 3] = ["~", "-", "!"];
const BIN_OPS: [&str; 10] = ["+", "-", "*", "&", "|", "^", "<<", ">>", "==", "<"];

fn arb_expr(g: &mut Gen, depth: u32) -> Ex {
    if depth == 0 || g.below(5) == 0 {
        return match g.below(4) {
            0 => Ex::A,
            1 => Ex::B,
            2 => Ex::C,
            _ => Ex::Lit(g.next() as u16),
        };
    }
    match g.below(4) {
        0 => Ex::Un(g.pick(&UN_OPS), Box::new(arb_expr(g, depth - 1))),
        1 => Ex::Bin(
            g.pick(&BIN_OPS),
            Box::new(arb_expr(g, depth - 1)),
            Box::new(arb_expr(g, depth - 1)),
        ),
        2 => Ex::Tern(
            Box::new(arb_expr(g, depth - 1)),
            Box::new(arb_expr(g, depth - 1)),
            Box::new(arb_expr(g, depth - 1)),
        ),
        _ => Ex::Slice(Box::new(arb_expr(g, depth - 1)), g.below(8) as u8),
    }
}

/// The headline invariant: transpiled kernels == golden interpreter
/// for arbitrary combinational expressions and inputs.
#[test]
fn transpiled_matches_interp_on_random_exprs() {
    for case in 0..48u64 {
        let mut g = Gen::new(0x5eed_0001, case);
        let expr = arb_expr(&mut g, 4);
        let src = format!(
            "module top(input [15:0] a, input [15:0] b, input [15:0] c, output [15:0] y);\n\
             assign y = {};\nendmodule",
            expr.to_verilog()
        );
        let Ok(flow) = Flow::from_verilog(&src, "top") else {
            // Some random expressions exceed width limits; skip them.
            continue;
        };
        let a = flow.design.find_var("a").unwrap();
        let b = flow.design.find_var("b").unwrap();
        let c = flow.design.find_var("c").unwrap();
        let y = flow.design.find_var("y").unwrap();

        let mut interp = Interp::new(&flow.design).unwrap();
        let mut dev = flow.program.plan.alloc_device(1);
        let mut scratch = cudasim::Scratch::new();
        for _ in 0..1 + g.below(5) {
            let (va, vb, vc) = (g.next() as u16, g.next() as u16, g.next() as u16);
            interp.step_cycle(&[
                (a, BitVec::from_u64(va as u64, 16)),
                (b, BitVec::from_u64(vb as u64, 16)),
                (c, BitVec::from_u64(vc as u64, 16)),
            ]);
            flow.program.plan.poke(&mut dev, a, 0, va as u64);
            flow.program.plan.poke(&mut dev, b, 0, vb as u64);
            flow.program.plan.poke(&mut dev, c, 0, vc as u64);
            flow.program
                .run_cycle_functional(&mut dev, &mut scratch, 0, 1);
            assert_eq!(
                flow.program.plan.peek(&dev, y, 0),
                interp.peek(y).unwrap().to_u64(),
                "case {case} expr: {}",
                expr.to_verilog()
            );
        }
    }
}

/// BitVec arithmetic agrees with u128 reference semantics.
#[test]
// The guard intentionally mirrors hardware semantics (skip x/0 cases)
// rather than using checked division on the reference values.
#[allow(clippy::manual_checked_ops)]
fn bitvec_matches_u128() {
    for case in 0..256u64 {
        let mut g = Gen::new(0x5eed_0002, case);
        let (a, b) = (g.next(), g.next());
        let width = 1 + g.below(64) as u32;
        let m: u128 = if width == 64 {
            u64::MAX as u128
        } else {
            (1u128 << width) - 1
        };
        let va = BitVec::from_u64(a, width);
        let vb = BitVec::from_u64(b, width);
        let am = a as u128 & m;
        let bm = b as u128 & m;
        assert_eq!(va.add(&vb).to_u64() as u128, (am + bm) & m, "case {case}");
        assert_eq!(
            va.sub(&vb).to_u64() as u128,
            am.wrapping_sub(bm) & m,
            "case {case}"
        );
        assert_eq!(va.mul(&vb).to_u64() as u128, (am * bm) & m, "case {case}");
        assert_eq!(va.and(&vb).to_u64() as u128, am & bm, "case {case}");
        assert_eq!(va.or(&vb).to_u64() as u128, am | bm, "case {case}");
        assert_eq!(va.xor(&vb).to_u64() as u128, am ^ bm, "case {case}");
        if bm != 0 {
            assert_eq!(va.div(&vb).to_u64() as u128, am / bm, "case {case}");
            assert_eq!(va.rem(&vb).to_u64() as u128, am % bm, "case {case}");
        }
        assert_eq!(va.cmp_unsigned(&vb), am.cmp(&bm), "case {case}");
    }
}

/// Kernel-level binop semantics match BitVec semantics.
#[test]
fn kernel_binops_match_bitvec() {
    use cudasim::ir::KBin;
    for case in 0..256u64 {
        let mut g = Gen::new(0x5eed_0003, case);
        let (a, b) = (g.next(), g.next());
        let width = 1 + g.below(64) as u32;
        let m = cudasim::device::mask(width);
        let (am, bm) = (a & m, b & m);
        let va = BitVec::from_u64(am, width);
        let vb = BitVec::from_u64(bm, width);
        let pairs: [(KBin, BitVec); 8] = [
            (KBin::Add, va.add(&vb)),
            (KBin::Sub, va.sub(&vb)),
            (KBin::Mul, va.mul(&vb)),
            (KBin::And, va.and(&vb)),
            (KBin::Or, va.or(&vb)),
            (KBin::Xor, va.xor(&vb)),
            (KBin::Shl, va.shl(&vb)),
            (KBin::Shr, va.shr(&vb)),
        ];
        for (op, expect) in pairs {
            assert_eq!(
                cudasim::device::apply_bin(op, am, bm, width),
                expect.to_u64(),
                "case {case} op {op:?} width {width}"
            );
        }
        assert_eq!(
            cudasim::device::apply_bin(KBin::Sshr, am, bm, width),
            va.sshr(&vb).to_u64(),
            "case {case} Sshr width {width}"
        );
    }
}

/// Stimulus sources are pure: same coordinates, same frame.
#[test]
fn stimulus_is_pure() {
    let design = rtlflow::Benchmark::RiscvMini.elaborate().unwrap();
    let map = PortMap::from_design(&design);
    for case in 0..64u64 {
        let mut g = Gen::new(0x5eed_0004, case);
        let seed = g.next();
        let s = g.below(64) as usize;
        let c = g.below(1000);
        let src = RandomSource::new(&map, 64, seed);
        let mut f1 = vec![0u64; map.len()];
        let mut f2 = vec![0u64; map.len()];
        src.fill_frame(s, c, &mut f1);
        src.fill_frame(s, c, &mut f2);
        assert_eq!(f1, f2, "case {case}");
    }
}

/// Resource scheduling is work-conserving: makespan between the
/// perfect-parallel and fully-serial bounds.
#[test]
fn resource_respects_bounds() {
    for case in 0..64u64 {
        let mut g = Gen::new(0x5eed_0005, case);
        let capacity = 1 + g.below(7) as usize;
        let durations: Vec<u64> = (0..1 + g.below(39)).map(|_| 1 + g.below(999)).collect();
        let mut r = desim::Resource::new("r", capacity);
        for &d in &durations {
            r.schedule(0, d);
        }
        let total: u64 = durations.iter().sum();
        let max = *durations.iter().max().unwrap();
        let lower = (total / capacity as u64).max(max);
        assert!(r.makespan() >= lower, "case {case}");
        assert!(r.makespan() <= total, "case {case}");
    }
}

// ------------------------------------------------------ bit-layout rule

/// A random netlist through `netlist::gen`: 1-bit gates and muxes over
/// single bits (sliced out of wider nets too), word adders and compares
/// feeding 1-bit results back, and registers, so that bit-domain cones,
/// word-domain cones and the reads that cross between them all occur.
fn arb_netlist(g: &mut Gen) -> String {
    use netlist::gen::{Builder, B};
    let mut b = Builder::new("fz");
    let clk = b.input("clk", 1)[0];
    let mut pool: Vec<Vec<B>> = (0..3 + g.below(3))
        .map(|i| b.input(&format!("in{i}"), g.pick(&[1usize, 1, 1, 4, 8])))
        .collect();
    // The low `w` bits of a random pool signal from a random bit up,
    // zero-extended.
    let take = |g: &mut Gen, pool: &[Vec<B>], w: usize| -> Vec<B> {
        let sig = &pool[g.below(pool.len() as u64) as usize];
        let lsb = g.below(sig.len() as u64) as usize;
        (lsb..lsb + w)
            .map(|i| *sig.get(i).unwrap_or(&B::C0))
            .collect()
    };
    for i in 0..8 + g.below(24) {
        let name = format!("c{i}");
        let w = g.pick(&[1usize, 1, 1, 4, 8]);
        let (x, y) = (take(g, &pool, w), take(g, &pool, w));
        let out = match g.below(6) {
            0 | 1 => b.bin(g.pick(&["$and", "$or", "$xor", "$add"]), &name, &x, &y, w),
            2 => b.bin(g.pick(&["$eq", "$lt"]), &name, &x, &y, 1),
            3 => b.unary(g.pick(&["$not", "$reduce_or"]), &name, &x, 1),
            4 => b.mux(&name, &x, &y, take(g, &pool, 1)[0], w),
            _ => b.dff(&name, clk, &x),
        };
        pool.push(out);
    }
    for (i, sig) in pool.iter().rev().take(3).enumerate() {
        b.output(&format!("out{i}"), sig);
    }
    b.to_json()
}

/// The layout rule the engine is selected by: every plane of a compiled
/// layout is read or written by at least one bit op, and a layout with no
/// planes has no escape reads, so "has planes" means "has bit-domain work"
/// and a zero-plane design costs nothing over the plain vectorized loop.
#[test]
fn compiled_layouts_keep_only_planes_a_bit_op_touches() {
    use cudasim::BOp;
    let check = |what: &str, flow: &Flow| {
        let bit = &flow.program.bit;
        let mut touched = vec![false; bit.num_planes() as usize];
        for op in bit.bit.iter().flat_map(|p| &p.ops) {
            if let BOp::Load { plane, .. } | BOp::Store { plane, .. } = op {
                touched[*plane as usize] = true;
            }
        }
        let untouched = touched.iter().position(|&t| !t);
        assert_eq!(untouched, None, "{what}: a plane no bit op touches");
        for e in bit.escapes.iter().flatten() {
            assert!(e.plane < bit.num_planes(), "{what}: escape names no plane");
        }
        bit.num_planes()
    };

    let mut with_planes = 0;
    for case in 0..200 {
        let json = arb_netlist(&mut Gen::new(0xb17_1a70, case));
        let (design, _) = netlist::import_str(&json, "fz")
            .unwrap_or_else(|e| panic!("case {case}: generated netlist must import: {e}"));
        let flow = Flow::from_design(
            design,
            rtlflow::PartitionStrategy::PerLevel,
            rtlflow::GpuModel::default(),
        )
        .unwrap_or_else(|e| panic!("case {case}: {e}"));
        with_planes += (check(&format!("case {case}"), &flow) > 0) as usize;
    }
    assert!(
        (50..=190).contains(&with_planes),
        "{with_planes} of 200 generated designs kept a plane: one side of the rule is barely tried"
    );

    // The committed designs: the two word-domain cores compile to no
    // planes at all, the control ring keeps every one of its 1-bit cones.
    for (b, expect) in [
        (Benchmark::RiscvMini, Some((0, 0))),
        (Benchmark::Spinal, Some((0, 0))),
        (Benchmark::Nvdla(NvdlaScale::Tiny), None),
        (Benchmark::Picorv32, None),
        (Benchmark::Handshake, Some((401, 3330))),
    ] {
        let flow = Flow::from_benchmark(b).unwrap();
        let planes = check(b.name(), &flow);
        if let Some(expect) = expect {
            let bit_ops = flow.program.bit.bit_op_count();
            assert_eq!((planes, bit_ops), expect, "{}", b.name());
        }
    }
}
