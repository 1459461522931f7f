//! Probe execution: score one candidate configuration against the real
//! executor.
//!
//! A probe is a short seeded run with the same methodology as
//! `rtlflow bench-exec`: poke stimulus outside the timed region, execute
//! whole cycles, reduce per-cycle wall times with the *median* (robust to
//! preemption spikes on shared cores), and report throughput in
//! stimulus-cycles/second. The harness caches built [`KernelProgram`]s
//! per (fuse, partition) pair so exec-only mutations (the lane chunk)
//! re-use the transpiled program.

use std::collections::HashMap;

use cudasim::{ExecConfig, ExecStrategy, FuseConfig};
use pipeline::GroupRunner;
use rtlir::{Design, RtlGraph};
use stimulus::{PortMap, StimulusSource};
use transpile::KernelProgram;

use crate::artifact::PartSpec;

/// One point in the search space.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    pub exec: ExecConfig,
    pub fuse: FuseConfig,
    pub partition: PartSpec,
}

impl Default for Candidate {
    /// The untuned pipeline: default exec, unthresholded fuser,
    /// per-level partition. This is the baseline every probe score is
    /// compared against.
    fn default() -> Self {
        Candidate {
            exec: ExecConfig::default(),
            fuse: FuseConfig::default(),
            partition: PartSpec::PerLevel,
        }
    }
}

impl Candidate {
    /// Human-readable one-line spec (trajectory logs, JSON output).
    pub fn spec(&self) -> String {
        format!(
            "exec={} fuse={},{} part={}",
            self.exec.spec(),
            self.fuse.const_fold_min_ops,
            self.fuse.superop_min_ops,
            self.partition.spec()
        )
    }
}

/// Probe run sizing.
#[derive(Debug, Clone, Copy)]
pub struct ProbeSettings {
    /// Batch size (stimulus lanes) per probe.
    pub num_stimulus: usize,
    /// Timed cycles per probe (one extra untimed warm-up cycle runs
    /// first).
    pub cycles: u64,
    /// Stimulus generator seed — fixed across probes so every candidate
    /// executes the identical workload.
    pub stim_seed: u64,
}

impl Default for ProbeSettings {
    fn default() -> Self {
        ProbeSettings {
            num_stimulus: 1024,
            cycles: 12,
            stim_seed: 7,
        }
    }
}

/// Program-cache key: the build-affecting dimensions of a candidate.
type ProgramKey = (usize, usize, String);

fn program_key(cand: &Candidate) -> ProgramKey {
    (
        cand.fuse.const_fold_min_ops,
        cand.fuse.superop_min_ops,
        cand.partition.spec(),
    )
}

/// Reusable probe state for one design.
pub struct ProbeHarness<'a> {
    design: &'a Design,
    graph: RtlGraph,
    map: PortMap,
    source: Box<dyn StimulusSource>,
    settings: ProbeSettings,
    programs: HashMap<ProgramKey, KernelProgram>,
}

impl<'a> ProbeHarness<'a> {
    pub fn new(design: &'a Design, settings: ProbeSettings) -> Result<ProbeHarness<'a>, String> {
        let graph = RtlGraph::build(design).map_err(|e| format!("{e}"))?;
        let map = PortMap::from_design(design);
        let source = stimulus::source_for(design, &map, settings.num_stimulus, settings.stim_seed);
        Ok(ProbeHarness {
            design,
            graph,
            map,
            source,
            settings,
            programs: HashMap::new(),
        })
    }

    pub fn settings(&self) -> &ProbeSettings {
        &self.settings
    }

    /// Build (or fetch the cached) program for a candidate's fuse and
    /// partition settings.
    pub fn program_for(&mut self, cand: &Candidate) -> Result<&KernelProgram, String> {
        let key = program_key(cand);
        if !self.programs.contains_key(&key) {
            let part = cand.partition.materialize(self.design, &self.graph);
            let program = KernelProgram::build_with(self.design, &self.graph, &part, &cand.fuse)?;
            self.programs.insert(key.clone(), program);
        }
        Ok(&self.programs[&key])
    }

    /// Measure a candidate: median-per-cycle throughput in
    /// stimulus-cycles/second (the `bench-exec` metric).
    pub fn measure(&mut self, cand: &Candidate) -> Result<f64, String> {
        let cycles = self.settings.cycles.max(1);
        self.program_for(cand)?;
        let program = &self.programs[&program_key(cand)];
        Ok(median_throughput(
            program,
            cand.exec,
            &self.map,
            self.source.as_ref(),
            cycles,
        ))
    }

    /// Deterministic cost model in pseudo stimulus-cycles/second: same
    /// candidate always scores the same value, independent of the host.
    /// Used by reproducibility tests and `--static-cost`; the real CLI
    /// default is [`ProbeHarness::measure`].
    pub fn static_score(&mut self, cand: &Candidate) -> Result<f64, String> {
        let n = self.settings.num_stimulus as f64;
        let lane_chunk = cand.exec.lane_chunk.max(1) as f64;
        let chunks = (n / lane_chunk).ceil().max(1.0);
        self.program_for(cand)?;
        let program = &self.programs[&program_key(cand)];

        // Per-cycle cost in abstract op units. Each kernel dispatch per
        // lane chunk pays a fixed overhead (the thing larger chunks and
        // merged levels amortize); each fused op costs one unit per lane.
        const DISPATCH: f64 = 24.0;
        let cost = match cand.exec.strategy {
            ExecStrategy::Scalar => {
                // The scalar reference interprets the *unfused* kernels,
                // one full pass per lane, no chunking, no hoisting.
                let ops: f64 = program
                    .order
                    .iter()
                    .map(|&k| program.graph.kernels[k].ops.len() as f64)
                    .sum();
                program.order.len() as f64 * DISPATCH + ops * n * 1.6
            }
            ExecStrategy::Fused => {
                // Word-domain ops cost one unit per lane; bit ops process
                // 64 lanes per word; escapes pay a per-lane scatter each
                // cycle. A zero-plane layout has only the word term: the
                // whole fused program.
                let word_ops = if program.bit.num_planes() > 0 {
                    program.bit.word_fop_count()
                } else {
                    program.fused.iter().map(|k| k.fops.len()).sum()
                } as f64;
                let bit_ops = program.bit.bit_op_count() as f64;
                let escapes = program.bit.escape_count() as f64;
                program.order.len() as f64 * chunks * DISPATCH
                    + word_ops * n
                    + bit_ops * (n / 64.0).ceil()
                    + escapes * n
            }
        };
        Ok(1e9 * n / cost.max(1.0))
    }
}

/// Executor throughput of `program` under `exec` over the whole of
/// `source`, in stimulus-cycles/second. Pokes are host `set_inputs` work
/// and stay outside the timed region; per-cycle wall times are reduced
/// with the median, which shrugs off preemption spikes on shared cores
/// that would swamp a sum.
pub fn median_throughput(
    program: &KernelProgram,
    exec: ExecConfig,
    map: &PortMap,
    source: &dyn StimulusSource,
    cycles: u64,
) -> f64 {
    let n = source.num_stimulus();
    let mut runner = GroupRunner::new(program, exec, n);
    // One untimed warm-up cycle faults in the lazily zero-mapped device
    // pages and warms the caches; the reset makes every candidate measure
    // the same cycle range from the same state.
    runner.step();
    runner.reset();
    let mut per_cycle = Vec::with_capacity(cycles as usize);
    for _ in 0..cycles {
        runner.poke_source(map, source, 0);
        let t0 = std::time::Instant::now();
        runner.step();
        per_cycle.push(t0.elapsed());
    }
    per_cycle.sort();
    let median = per_cycle[per_cycle.len() / 2];
    n as f64 / median.as_secs_f64().max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use designs::{Benchmark, NvdlaScale};

    #[test]
    fn static_score_is_deterministic_and_shape_sensitive() {
        let design = Benchmark::Nvdla(NvdlaScale::Tiny).elaborate().unwrap();
        let mut h = ProbeHarness::new(&design, ProbeSettings::default()).unwrap();
        let base = Candidate::default();
        let a = h.static_score(&base).unwrap();
        let b = h.static_score(&base).unwrap();
        assert_eq!(a, b);
        // A different lane chunk must move the score (chunk count changes
        // dispatch overhead).
        let chunked = Candidate {
            exec: ExecConfig::default().with_lane_chunk(32),
            ..Candidate::default()
        };
        assert_ne!(h.static_score(&chunked).unwrap(), a);
    }

    /// The estimate of the word term did not move when zero-plane
    /// layouts stopped fusing their remainder a second time: riscv-mini
    /// has no planes, handshake has 401. The pins are the scores the
    /// double-fused build computed.
    #[test]
    fn static_score_is_pinned_on_both_data_paths() {
        let pins = [
            (Benchmark::RiscvMini, 256, 480408.34709503077),
            (Benchmark::RiscvMini, 32, 474721.10135295516),
            (Benchmark::Handshake, 256, 5821357.103874841),
            (Benchmark::Handshake, 32, 5049708.063752565),
        ];
        for (bench, chunk, pin) in pins {
            let design = bench.elaborate().unwrap();
            let mut h = ProbeHarness::new(&design, ProbeSettings::default()).unwrap();
            let cand = Candidate {
                exec: ExecConfig::default().with_lane_chunk(chunk),
                ..Candidate::default()
            };
            let score = h.static_score(&cand).unwrap();
            assert_eq!(score, pin, "{bench:?} at chunk {chunk}");
            let bit = &h.program_for(&cand).unwrap().bit;
            assert_eq!(bit.word_fused.is_empty(), bit.num_planes() == 0);
        }
    }

    #[test]
    fn measure_runs_and_is_positive() {
        let design = Benchmark::Nvdla(NvdlaScale::Tiny).elaborate().unwrap();
        let mut h = ProbeHarness::new(
            &design,
            ProbeSettings {
                num_stimulus: 64,
                cycles: 4,
                stim_seed: 7,
            },
        )
        .unwrap();
        let score = h.measure(&Candidate::default()).unwrap();
        assert!(score > 0.0);
    }
}
