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
    scratches: Vec<Scratch>,
    frame: Vec<u64>,
    cycle: u64,
    scalar_ops: u64,
}

impl<'p> GroupRunner<'p> {
    pub fn new(program: &'p KernelProgram, exec: ExecConfig, len: usize) -> Self {
        GroupRunner {
            program,
            exec,
            dev: program.plan.alloc_device(len),
            scratches: exec.scratch_pool(),
            frame: Vec::new(),
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
    /// drives lane `i`.
    pub fn poke_source(&mut self, map: &PortMap, source: &dyn StimulusSource, tid0: usize) {
        let plan = &self.program.plan;
        self.frame.resize(map.len(), 0);
        for i in 0..self.dev.n() {
            source.fill_frame(tid0 + i, self.cycle, &mut self.frame);
            for (port, &value) in map.ports.iter().zip(&self.frame) {
                plan.poke(&mut self.dev, port.var, i, value);
            }
        }
    }

    /// Set this cycle's inputs from a materialized frame block laid out
    /// `[stimulus][cycle][lane]` over `cycles` cycles (the wire layout of
    /// a group dispatch).
    pub fn poke_frames(&mut self, map: &PortMap, block: &[u64], cycles: u64) {
        let plan = &self.program.plan;
        let lanes = map.len();
        let stride = cycles as usize * lanes;
        let at = self.cycle as usize * lanes;
        for i in 0..self.dev.n() {
            let frame = &block[i * stride + at..][..lanes];
            for (port, &value) in map.ports.iter().zip(frame) {
                plan.poke(&mut self.dev, port.var, i, value);
            }
        }
    }

    /// Evaluate one cycle over the inputs just poked.
    pub fn step(&mut self) {
        let n = self.dev.n();
        self.scalar_ops +=
            self.program
                .run_cycle_exec(&mut self.dev, &mut self.scratches, 0, n, &self.exec);
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
        let design = Benchmark::RiscvMini.elaborate().unwrap();
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

    #[test]
    fn source_and_frame_block_inputs_agree() {
        let (design, program, map) = setup();
        let (tid0, len, cycles) = (3usize, 5usize, 12u64);
        let src = stimulus::RiscvSource::new(&map, tid0 + len, 0x51);
        let lanes = map.len();
        let mut block = vec![0u64; len * cycles as usize * lanes];
        for i in 0..len {
            for c in 0..cycles {
                let base = (i * cycles as usize + c as usize) * lanes;
                src.fill_frame(tid0 + i, c, &mut block[base..base + lanes]);
            }
        }
        let mut by_source = GroupRunner::new(&program, ExecConfig::default(), len);
        run_to(&mut by_source, &map, &src, tid0, cycles);
        let mut by_block = GroupRunner::new(&program, ExecConfig::default(), len);
        for _ in 0..cycles {
            by_block.poke_frames(&map, &block, cycles);
            by_block.step();
        }
        assert_eq!(by_block.digests(&design), by_source.digests(&design));
    }

    #[test]
    fn every_strategy_matches_scalar_at_awkward_group_lengths() {
        let (design, program, map) = setup();
        let strategies = [
            ExecConfig::fused(1),
            ExecConfig::fused(1).with_lane_chunk(7),
            ExecConfig::fused(2),
            ExecConfig::fused(3).with_block(64),
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
