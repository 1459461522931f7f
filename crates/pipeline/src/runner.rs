//! The one group stepper (§3.2.3): per cycle, `set_inputs` then
//! `evaluate`, for one stimulus group on its own device image.
//!
//! The caller owns the cycle loop. Checkpoint cadence, fault injection,
//! per-cycle timing and coverage sampling are ordinary statements between
//! [`GroupRunner::step`] calls.

use cudasim::{Checkpoint, DeviceMemory, ExecConfig, Scratch};
use rtlir::Design;
use stimulus::{PortMap, StimulusSource};
use transpile::KernelProgram;

/// What a resume image must say before a run continues from it.
#[derive(Debug, Clone, Copy)]
pub struct Resume {
    pub design_hash: u64,
    /// First global stimulus id of the group.
    pub tid0: u64,
    /// The cycle the dispatch says the image was taken at.
    pub cycle: u64,
    /// Total cycles of the run; an image at or past the end is refused.
    pub cycles: u64,
}

/// Restore `image` into `dev` if it decodes, matches `expect` in design,
/// cycle and stimulus range, and has `dev`'s shape. On `false`, `dev` is
/// untouched.
pub fn restore_image(dev: &mut DeviceMemory, image: &[u8], expect: &Resume) -> bool {
    Checkpoint::decode(image).is_ok_and(|ck| {
        ck.design_hash == expect.design_hash
            && ck.cycle == expect.cycle
            && ck.cycle < expect.cycles
            && ck.tid0 == expect.tid0
            && ck.restore_into(dev).is_ok()
    })
}

/// One stimulus group advancing cycle by cycle through `program` under
/// `exec`, with group-local thread ids `0..len`.
pub struct GroupRunner<'p> {
    program: &'p KernelProgram,
    exec: ExecConfig,
    dev: DeviceMemory,
    scratch: Scratch,
    /// Port columns of the cycle being poked, `ports × len`, reused.
    cols: Vec<u64>,
    cycle: u64,
    scalar_ops: u64,
}

impl<'p> GroupRunner<'p> {
    pub fn new(program: &'p KernelProgram, exec: ExecConfig, len: usize) -> Self {
        GroupRunner {
            program,
            exec,
            dev: program.plan.alloc_device(len),
            scratch: Scratch::new(),
            cols: Vec::new(),
            cycle: 0,
            scalar_ops: 0,
        }
    }

    /// Cycles completed; the next [`GroupRunner::step`] runs this cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The group's device image (coverage sampling, peeks).
    pub fn dev(&self) -> &DeviceMemory {
        &self.dev
    }

    /// Ops computed once as scalars instead of once per lane, summed over
    /// every step so far.
    pub fn scalar_ops(&self) -> u64 {
        self.scalar_ops
    }

    /// Set this cycle's inputs from `source`, whose stimulus `tid0 + i`
    /// drives lane `i`: one `fill_columns` for the whole group, then one
    /// row store per port.
    pub fn poke_source(&mut self, map: &PortMap, source: &dyn StimulusSource, tid0: usize) {
        let n = self.dev.n();
        self.cols.resize(map.len() * n, 0);
        source.fill_columns(self.cycle, tid0, n, n, &mut self.cols);
        let vars = map.ports.iter().map(|p| p.var);
        let plan = &self.program.plan;
        plan.poke_columns(&mut self.dev, vars, &mut self.cols, n);
    }

    /// Set this cycle's inputs from a materialized frame block laid out
    /// `[stimulus][cycle][lane]` over `cycles` cycles (the wire layout of
    /// a group dispatch).
    pub fn poke_frames(&mut self, map: &PortMap, block: &[u64], cycles: u64) {
        let vars = map.ports.iter().map(|p| p.var);
        let plan = &self.program.plan;
        plan.poke_block(
            &mut self.dev,
            vars,
            block,
            cycles,
            self.cycle,
            &mut self.cols,
        );
    }

    /// Evaluate one cycle over the inputs just poked.
    pub fn step(&mut self) {
        let n = self.dev.n();
        self.scalar_ops +=
            self.program
                .run_cycle_exec(&mut self.dev, &mut self.scratch, 0, n, &self.exec);
        self.cycle += 1;
    }

    /// Continue from `image` if [`restore_image`] accepts it; otherwise
    /// the runner stays where it was, image untouched. Resume is an
    /// optimization: a refused image means a cold start, never an error.
    pub fn restore(&mut self, image: &[u8], expect: &Resume) -> bool {
        let ok = restore_image(&mut self.dev, image, expect);
        if ok {
            self.cycle = expect.cycle;
        }
        ok
    }

    /// Snapshot the device state at the current cycle.
    pub fn checkpoint(&self, design_hash: u64, tid0: u64) -> Checkpoint {
        Checkpoint::capture(&self.dev, design_hash, self.cycle, tid0)
    }

    /// Zero the device state and the cycle counter (a probe's warm-up
    /// step faults the image's pages in, then starts over).
    pub fn reset(&mut self) {
        self.dev.reset();
        self.cycle = 0;
    }

    /// Per-stimulus output digests of the group, in lane order.
    pub fn digests(&self, design: &Design) -> Vec<u64> {
        (0..self.dev.n())
            .map(|i| self.program.plan.output_digest(&self.dev, design, i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cudasim::GpuModel;
    use designs::Benchmark;

    fn setup() -> (Design, KernelProgram, PortMap) {
        setup_for(Benchmark::RiscvMini)
    }

    fn setup_for(b: Benchmark) -> (Design, KernelProgram, PortMap) {
        let design = b.elaborate().unwrap();
        let (program, _) = crate::prepare(&design, &GpuModel::default()).unwrap();
        let map = PortMap::from_design(&design);
        (design, program, map)
    }

    /// Run lanes `[tid0, tid0 + len)` of `src` from the runner's current
    /// cycle to `cycles`.
    fn run_to(
        r: &mut GroupRunner<'_>,
        map: &PortMap,
        src: &dyn StimulusSource,
        tid0: usize,
        cycles: u64,
    ) {
        for _ in r.cycle()..cycles {
            r.poke_source(map, src, tid0);
            r.step();
        }
    }

    #[test]
    fn resume_through_the_wire_image_matches_uninterrupted_run() {
        let (design, program, map) = setup();
        let src = stimulus::RiscvSource::new(&map, 13, 0xabcd);
        let exec = ExecConfig::default();
        let hash = rtlir::design_hash(&design);
        let (tid0, len, cycles, k) = (4usize, 9usize, 20u64, 7u64);

        let mut whole = GroupRunner::new(&program, exec, len);
        run_to(&mut whole, &map, &src, tid0, cycles);

        let mut first = GroupRunner::new(&program, exec, len);
        run_to(&mut first, &map, &src, tid0, k);
        let image = first.checkpoint(hash, tid0 as u64).encode();
        drop(first);

        let mut resumed = GroupRunner::new(&program, exec, len);
        let expect = Resume {
            design_hash: hash,
            tid0: tid0 as u64,
            cycle: k,
            cycles,
        };
        assert!(resumed.restore(&image, &expect));
        assert_eq!(resumed.cycle(), k);
        run_to(&mut resumed, &map, &src, tid0, cycles);
        assert_eq!(
            resumed.digests(&design),
            whole.digests(&design),
            "resume from a checkpoint must be bit-identical to the uninterrupted run"
        );
    }

    /// Both poke paths against the scalar oracle poked one lane at a
    /// time. Handshake runs over bit planes, so its 1-bit ports take the
    /// packed-word store; riscv-mini has none.
    #[test]
    fn source_and_frame_block_inputs_agree() {
        let cycles = 12u64;
        for (bench, lens) in [
            (Benchmark::RiscvMini, &[5usize][..]),
            (Benchmark::Handshake, &[1, 63, 64, 65, 257][..]),
        ] {
            let (design, program, map) = setup_for(bench);
            let lanes = map.len();
            for &len in lens {
                let tid0 = 3usize;
                let src = stimulus::RandomSource::new(&map, tid0 + len, 0x51);
                let mut block = vec![0u64; len * cycles as usize * lanes];
                for i in 0..len {
                    for c in 0..cycles {
                        let base = (i * cycles as usize + c as usize) * lanes;
                        src.fill_frame(tid0 + i, c, &mut block[base..base + lanes]);
                    }
                }
                let mut by_lane = GroupRunner::new(&program, ExecConfig::scalar(), len);
                let mut frame = vec![0u64; lanes];
                for c in 0..cycles {
                    for i in 0..len {
                        src.fill_frame(tid0 + i, c, &mut frame);
                        for (port, &v) in map.ports.iter().zip(&frame) {
                            program.plan.poke(&mut by_lane.dev, port.var, i, v);
                        }
                    }
                    by_lane.step();
                }
                let golden = by_lane.digests(&design);
                let mut by_source = GroupRunner::new(&program, ExecConfig::default(), len);
                run_to(&mut by_source, &map, &src, tid0, cycles);
                let mut by_block = GroupRunner::new(&program, ExecConfig::default(), len);
                for _ in 0..cycles {
                    by_block.poke_frames(&map, &block, cycles);
                    by_block.step();
                }
                let what = format!("{bench:?} at len {len}");
                assert_eq!(by_source.digests(&design), golden, "source, {what}");
                assert_eq!(by_block.digests(&design), golden, "block, {what}");
            }
        }
    }

    /// A row-only source, like a tracing decorator: records every
    /// `fill_frame` call and implements nothing else.
    struct Rows {
        inner: stimulus::RandomSource,
        frames: std::sync::Mutex<Vec<(usize, u64)>>,
    }

    impl StimulusSource for Rows {
        fn num_stimulus(&self) -> usize {
            self.inner.num_stimulus()
        }
        fn fill_frame(&self, stimulus: usize, cycle: u64, frame: &mut [u64]) {
            self.frames.lock().unwrap().push((stimulus, cycle));
            self.inner.fill_frame(stimulus, cycle, frame)
        }
        fn num_ports(&self) -> usize {
            self.inner.num_ports()
        }
    }

    /// The same source with a `fill_columns` of its own.
    struct Columns(Rows);

    impl StimulusSource for Columns {
        fn num_stimulus(&self) -> usize {
            self.0.num_stimulus()
        }
        fn fill_frame(&self, stimulus: usize, cycle: u64, frame: &mut [u64]) {
            self.0.fill_frame(stimulus, cycle, frame)
        }
        fn num_ports(&self) -> usize {
            self.0.num_ports()
        }
        fn fill_columns(
            &self,
            cycle: u64,
            tid0: usize,
            len: usize,
            stride: usize,
            cols: &mut [u64],
        ) {
            self.0.inner.fill_columns(cycle, tid0, len, stride, cols)
        }
    }

    #[test]
    fn runner_fills_rows_once_in_order_and_columns_without_rows() {
        let (design, program, map) = setup_for(Benchmark::Handshake);
        let (tid0, len, cycles) = (4usize, 70usize, 5u64);
        let rows = |seed| Rows {
            inner: stimulus::RandomSource::new(&map, tid0 + len, seed),
            frames: Default::default(),
        };
        let (by_frame, by_column) = (rows(7), Columns(rows(7)));
        let mut r1 = GroupRunner::new(&program, ExecConfig::default(), len);
        run_to(&mut r1, &map, &std::sync::Arc::new(&by_frame), tid0, cycles);
        let mut r2 = GroupRunner::new(&program, ExecConfig::default(), len);
        run_to(&mut r2, &map, &Box::new(&by_column), tid0, cycles);
        let expect: Vec<(usize, u64)> = (0..cycles)
            .flat_map(|c| (tid0..tid0 + len).map(move |s| (s, c)))
            .collect();
        assert_eq!(*by_frame.frames.lock().unwrap(), expect);
        assert!(by_column.0.frames.lock().unwrap().is_empty());
        assert_eq!(r1.digests(&design), r2.digests(&design));
    }

    #[test]
    fn every_strategy_matches_scalar_at_awkward_group_lengths() {
        let (design, program, map) = setup();
        let strategies = [
            ExecConfig::fused(),
            ExecConfig::fused().with_lane_chunk(7),
            ExecConfig::fused().with_lane_chunk(64),
        ];
        for len in [1usize, 63, 64, 65, 257] {
            let src = stimulus::RiscvSource::new(&map, len, 0x77);
            let mut scalar = GroupRunner::new(&program, ExecConfig::scalar(), len);
            run_to(&mut scalar, &map, &src, 0, 6);
            let golden = scalar.digests(&design);
            for exec in strategies {
                let mut r = GroupRunner::new(&program, exec, len);
                run_to(&mut r, &map, &src, 0, 6);
                assert_eq!(r.digests(&design), golden, "{} at len {len}", exec.spec());
            }
        }
    }

    #[test]
    fn restore_refuses_a_mismatched_image_and_leaves_the_runner_cold() {
        let (design, program, map) = setup();
        let src = stimulus::RiscvSource::new(&map, 8, 9);
        let hash = rtlir::design_hash(&design);
        let (tid0, len, cycles, k) = (2u64, 6usize, 10u64, 4u64);
        let mut donor = GroupRunner::new(&program, ExecConfig::default(), len);
        run_to(&mut donor, &map, &src, tid0 as usize, k);
        let image = donor.checkpoint(hash, tid0).encode();
        let resume = |design_hash, tid0, cycle, cycles| Resume {
            design_hash,
            tid0,
            cycle,
            cycles,
        };
        let good = resume(hash, tid0, k, cycles);
        let refused = [
            ("design hash", resume(hash ^ 1, tid0, k, cycles), len),
            ("cycle", resume(hash, tid0, k + 1, cycles), len),
            ("tid0", resume(hash, tid0 + 1, k, cycles), len),
            ("cycle >= cycles", resume(hash, tid0, k, k), len),
            ("n", good, len + 1),
        ];
        for (what, expect, n) in refused {
            let mut r = GroupRunner::new(&program, ExecConfig::default(), n);
            let cold = r.checkpoint(0, 0).encode();
            assert!(!r.restore(&image, &expect), "{what} mismatch accepted");
            assert_eq!(r.cycle(), 0, "{what}");
            assert_eq!(r.checkpoint(0, 0).encode(), cold, "{what}: image touched");
        }
        let mut r = GroupRunner::new(&program, ExecConfig::default(), len);
        assert!(!r.restore(&image[..image.len() - 1], &good), "truncated");
        assert!(r.restore(&image, &good));
        assert_eq!(r.cycle(), k);
    }
}
