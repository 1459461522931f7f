//! Pipeline scheduling (§3.2.3): overlap CPU `set_inputs` with GPU
//! `evaluate` across stimulus groups.
//!
//! Batch stimulus are split into groups; each group advances through a
//! per-cycle two-stage pipeline (CPU: set inputs, GPU: evaluate the CUDA
//! graph). Groups have no cross dependencies, so group *i*'s CPU stage
//! overlaps group *j*'s GPU stage, which is exactly what keeps the GPU at
//! ~100% utilization in Figure 15.
//!
//! Two halves that share nothing but the group split:
//!
//! * [`GroupRunner`] — the functional half: one group's bit-exact
//!   `set_inputs` / `evaluate` cycle on its own device image. Every
//!   layer that executes kernels (this crate, `shard`, the cluster
//!   worker, the probes) steps groups through it.
//! * [`model_batch`] — the virtual clock: discrete-event timing of the
//!   same groups (CPU thread pool + SM pool + launch costs). Every
//!   table/figure number comes from here.
//!
//! [`simulate_batch`] runs the first, then the second.

mod runner;

pub use runner::{restore_image, GroupRunner, Resume};

use cudasim::{CudaGraph, ExecConfig, ExecMode, ExecStats, GpuModel, GpuRuntime};
use desim::{Resource, Time, Trace};
use rtlir::Design;
use stimulus::{PortMap, StackedSource, StimulusSource};
use transpile::KernelProgram;

/// The simulation host (Machine 2: i7-11700, 16 threads).
#[derive(Debug, Clone, PartialEq)]
pub struct HostModel {
    /// Host threads available for `set_inputs` work.
    pub threads: usize,
    /// Nanoseconds to produce + stage one input lane of one stimulus:
    /// read from the stimulus file, parse, mask, write to the pinned
    /// staging buffer (the async H2D copy is folded in because it is
    /// bandwidth-trivial). Real flows parse text/binary testbench files,
    /// which is why §2.4.3 finds `set_inputs` dominating at large batches.
    pub lane_ns: u64,
    /// Parallel workers filling one group's frames (the Taskflow worker
    /// pool splits a group's `set_inputs` across threads).
    pub workers_per_group: usize,
}

impl Default for HostModel {
    fn default() -> Self {
        HostModel {
            threads: 16,
            lane_ns: 250,
            workers_per_group: 4,
        }
    }
}

impl HostModel {
    /// The paper's Machine 1 (80-thread Xeon Gold server) — the host a
    /// multi-device pool hangs off, where `set_inputs` for several
    /// devices must not contend down to a laptop-class core count.
    pub fn xeon() -> HostModel {
        HostModel {
            threads: 80,
            lane_ns: 250,
            workers_per_group: 8,
        }
    }
}

/// Scheduling configuration for one batch run.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Stimulus per group (the paper suggests 256-1024).
    pub group_size: usize,
    /// `false` = RTLflow¬p: a global barrier per cycle (set inputs for
    /// *all* stimulus — OpenMP-parallel — then evaluate everything).
    pub pipelined: bool,
    /// CUDA execution mode per group-cycle.
    pub mode: ExecMode,
    /// Functional execution config (the scalar oracle, or the fused
    /// engine and its thread count). Timing is unaffected; only host
    /// wall-clock and bit-exact functional results flow from this.
    pub exec: ExecConfig,
    pub host: HostModel,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            group_size: 1024,
            pipelined: true,
            mode: ExecMode::Graph,
            exec: ExecConfig::default(),
            host: HostModel::default(),
        }
    }
}

/// Result of a timed batch simulation.
#[derive(Debug)]
pub struct SimResult {
    /// Virtual completion time of the whole batch (ns).
    pub makespan: Time,
    /// Busy-interval trace (resources: "cpu", "gpu").
    pub trace: Trace,
    /// Final per-stimulus output digests.
    pub digests: Vec<u64>,
    /// GPU utilization over the makespan.
    pub gpu_utilization: f64,
    /// Aggregate CPU busy time spent in `set_inputs`.
    pub set_inputs_busy: Time,
    /// Aggregate GPU busy time spent evaluating.
    pub evaluate_busy: Time,
    /// Fusion / uniform-slot / scalar-op statistics for the run.
    pub exec: ExecStats,
}

/// Run `cycles` of `source` through `program` under `cfg`: every group
/// functionally, start to finish on its own device image, then the
/// virtual clock over the same groups.
///
/// The functional pass comes first and drops each group's image before
/// the next, so the model's trace is never resident together with a
/// device image; modelling first raises peak RSS (DESIGN.md §17).
#[allow(clippy::too_many_arguments)]
pub fn simulate_batch(
    design: &Design,
    program: &KernelProgram,
    graph: &CudaGraph,
    map: &PortMap,
    source: &dyn StimulusSource,
    cycles: u64,
    cfg: &PipelineConfig,
    model: &GpuModel,
) -> SimResult {
    let n = source.num_stimulus();
    let (group_size, num_groups) = group_split(cfg, n);
    let mut digests = Vec::with_capacity(n);
    let mut scalar_ops = 0u64;
    for g in 0..num_groups {
        let (tid0, len) = group_range(g, group_size, n);
        let mut runner = GroupRunner::new(program, cfg.exec, len);
        for _ in 0..cycles {
            runner.poke_source(map, source, tid0);
            runner.step();
        }
        digests.extend(runner.digests(design));
        scalar_ops += runner.scalar_ops();
    }
    let mut result = model_batch(program, graph, map.len(), n, cycles, cfg, model);
    result.digests = digests;
    let steps = (num_groups as u64 * cycles).max(1);
    result.exec.scalar_ops_per_cycle = scalar_ops as f64 / steps as f64;
    result
}

/// Result of a coalesced multi-job batch run: the shared [`SimResult`]
/// plus each job's digest range inside `digests`.
#[derive(Debug)]
pub struct JobBatchResult {
    pub sim: SimResult,
    /// `ranges[j]` is job j's slice of `sim.digests`, in submission order.
    pub ranges: Vec<std::ops::Range<usize>>,
}

/// Run several pre-grouped jobs — each bringing its own stimulus source,
/// seed, and count — as ONE coalesced batch launch over the same DUT.
///
/// Invariant (the serving layer's correctness contract): every stimulus
/// source is a pure function of `(stimulus, cycle)` and each job keeps
/// its own indices within its segment, so `sim.digests[ranges[j]]` is
/// bit-identical to running job j alone through [`simulate_batch`].
/// Coalescing changes only the *timing* (larger SIMT launches amortize
/// per-launch overhead — the paper's batch-size curve), never the data.
#[allow(clippy::too_many_arguments)]
pub fn simulate_batch_jobs(
    design: &Design,
    program: &KernelProgram,
    graph: &CudaGraph,
    map: &PortMap,
    jobs: Vec<Box<dyn StimulusSource>>,
    cycles: u64,
    cfg: &PipelineConfig,
    model: &GpuModel,
) -> JobBatchResult {
    let stacked = StackedSource::new(jobs);
    let ranges: Vec<_> = (0..stacked.num_segments())
        .map(|j| stacked.segment_range(j))
        .collect();
    let sim = simulate_batch(design, program, graph, map, &stacked, cycles, cfg, model);
    JobBatchResult { sim, ranges }
}

/// The virtual clock alone: the scheduling model of one batch, with no
/// kernel executed and no digests. Modeled time is independent of signal
/// data, so this is also how table-scale workloads (e.g. 65536 stimulus
/// x 500K cycles) are extrapolated from a steady-state sample. Only the
/// lane count of the port map enters timing.
pub fn model_batch(
    program: &KernelProgram,
    graph: &CudaGraph,
    input_lanes: usize,
    n: usize,
    cycles: u64,
    cfg: &PipelineConfig,
    model: &GpuModel,
) -> SimResult {
    let (group_size, num_groups) = group_split(cfg, n);
    let mut rt = GpuRuntime::new(model.clone());
    let mut cpu = Resource::new("cpu", cfg.host.threads);
    let mut trace = Trace::new();

    // Per-group completion time of the previous cycle's GPU stage, and of
    // the cycle before that (input double-buffering lets `set_inputs` for
    // cycle c+1 overlap the GPU evaluating cycle c).
    let mut group_gpu_done = vec![0 as Time; num_groups];
    let mut group_gpu_done_prev = vec![0 as Time; num_groups];
    // Barrier time for the non-pipelined variant.
    let mut barrier = 0 as Time;

    let lane_cost = input_lanes as u64 * cfg.host.lane_ns;
    for _ in 0..cycles {
        if !cfg.pipelined {
            // RTLflow¬p: set inputs for ALL stimulus (parallel over host
            // threads), then launch every group; one global barrier.
            let per_thread = (n as u64 * lane_cost).div_ceil(cfg.host.threads as u64);
            let mut set_done = barrier;
            for _ in 0..cfg.host.threads.min(n) {
                let (_, e) =
                    cpu.schedule_traced(barrier, per_thread.max(1), &mut trace, "set_inputs");
                set_done = set_done.max(e);
            }
            let mut cycle_end = set_done;
            for g in 0..num_groups {
                let (_, len) = group_range(g, group_size, n);
                let t = rt.time_cycle(graph, cfg.mode, len, set_done, Some(&mut trace));
                cycle_end = cycle_end.max(t.gpu_end);
            }
            barrier = cycle_end;
        } else {
            // Pipelined: each group flows independently; its set_inputs
            // contends only for host threads, its evaluate for the GPU.
            // Double-buffered inputs: set_inputs(c) only waits for the
            // GPU to have finished cycle c-2 (freeing the input buffer),
            // so it overlaps the GPU evaluating cycle c-1.
            for g in 0..num_groups {
                let (_, len) = group_range(g, group_size, n);
                let set_ready = group_gpu_done_prev[g];
                let workers = cfg.host.workers_per_group.max(1).min(len);
                let dur = (len as u64 * lane_cost).div_ceil(workers as u64).max(1);
                let mut set_done = set_ready;
                for _ in 0..workers {
                    let (_, e) = cpu.schedule_traced(set_ready, dur, &mut trace, "set_inputs");
                    set_done = set_done.max(e);
                }
                let gpu_ready = set_done.max(group_gpu_done[g]);
                let t = rt.time_cycle(graph, cfg.mode, len, gpu_ready, Some(&mut trace));
                group_gpu_done_prev[g] = group_gpu_done[g];
                group_gpu_done[g] = t.gpu_end;
            }
        }
    }

    let makespan = if cfg.pipelined {
        group_gpu_done.iter().copied().max().unwrap_or(0)
    } else {
        barrier
    };
    let gpu_utilization = trace.utilization("gpu", makespan);
    let breakdown_cpu = trace.breakdown("cpu");
    let set_inputs_busy = breakdown_cpu.get("set_inputs").copied().unwrap_or(0);
    let evaluate_busy: Time = trace.breakdown("gpu").values().sum();
    SimResult {
        makespan,
        trace,
        digests: Vec::new(),
        gpu_utilization,
        set_inputs_busy,
        evaluate_busy,
        exec: program.exec_stats(),
    }
}

/// `(group size, group count)` of an `n`-stimulus batch under `cfg`.
fn group_split(cfg: &PipelineConfig, n: usize) -> (usize, usize) {
    let group_size = cfg.group_size.max(1).min(n.max(1));
    (group_size, n.div_ceil(group_size).max(1))
}

fn group_range(g: usize, group_size: usize, n: usize) -> (usize, usize) {
    let tid0 = g * group_size;
    (tid0, group_size.min(n - tid0))
}

/// Timing model for a multi-GPU host (the paper's future-work scale-out):
/// the batch is sharded across `gpus` devices, each with its own SM pool
/// and per-shard pipeline, all contending for the same host CPU threads
/// running `set_inputs`. Returns the slowest shard's result plus the
/// aggregate utilization of GPU 0 (shards are symmetric).
#[allow(clippy::too_many_arguments)]
pub fn model_batch_multi_gpu(
    program: &KernelProgram,
    graph: &CudaGraph,
    input_lanes: usize,
    n: usize,
    cycles: u64,
    cfg: &PipelineConfig,
    model: &GpuModel,
    gpus: usize,
) -> SimResult {
    let gpus = gpus.max(1);
    let shard = n.div_ceil(gpus);
    // Shared host: every shard's set_inputs work lands on the same CPU
    // pool, so give each shard's model a proportional slice of threads
    // (a conservative static split; a work-stealing host would do better).
    let threads_per_shard = (cfg.host.threads / gpus).max(1);
    let mut worst: Option<SimResult> = None;
    for g in 0..gpus {
        let this = shard.min(n.saturating_sub(g * shard));
        if this == 0 {
            break;
        }
        let shard_cfg = PipelineConfig {
            host: HostModel {
                threads: threads_per_shard,
                ..cfg.host.clone()
            },
            ..cfg.clone()
        };
        let r = model_batch(program, graph, input_lanes, this, cycles, &shard_cfg, model);
        worst = Some(match worst {
            None => r,
            Some(w) if r.makespan > w.makespan => r,
            Some(w) => w,
        });
    }
    worst.expect("at least one shard")
}

/// Convenience: build program + instantiated graph for a design with the
/// transpiler's default partition.
pub fn prepare(design: &Design, model: &GpuModel) -> Result<(KernelProgram, CudaGraph), String> {
    let program = transpile::transpile(design)?;
    let graph = program.instantiate(model)?;
    Ok((program, graph))
}

#[cfg(test)]
mod tests {
    use super::*;
    use designs::Benchmark;
    use stimulus::RiscvSource;

    fn setup(n: usize) -> (Design, KernelProgram, CudaGraph, PortMap, RiscvSource) {
        let design = Benchmark::RiscvMini.elaborate().unwrap();
        let model = GpuModel::default();
        let (program, graph) = prepare(&design, &model).unwrap();
        let map = PortMap::from_design(&design);
        let src = RiscvSource::new(&map, n, 0xabcd);
        (design, program, graph, map, src)
    }

    #[test]
    fn pipelined_and_barrier_agree_functionally() {
        let (design, program, graph, map, src) = setup(24);
        let model = GpuModel::default();
        let mut cfg = PipelineConfig {
            group_size: 8,
            ..Default::default()
        };
        let r1 = simulate_batch(&design, &program, &graph, &map, &src, 30, &cfg, &model);
        cfg.pipelined = false;
        let r2 = simulate_batch(&design, &program, &graph, &map, &src, 30, &cfg, &model);
        assert_eq!(r1.digests, r2.digests);
    }

    #[test]
    fn digests_match_golden_interpreter() {
        let (design, program, graph, map, src) = setup(6);
        let model = GpuModel::default();
        let cfg = PipelineConfig {
            group_size: 4,
            ..Default::default()
        };
        let r = simulate_batch(&design, &program, &graph, &map, &src, 40, &cfg, &model);
        // Check stimulus 3 against the interpreter.
        let mut interp = rtlir::Interp::new(&design).unwrap();
        let mut frame = vec![0u64; map.len()];
        for c in 0..40 {
            src.fill_frame(3, c, &mut frame);
            interp.step_cycle(&map.to_pokes(&frame));
        }
        assert_eq!(r.digests[3], interp.output_digest());
    }

    #[test]
    fn pipelining_reduces_makespan() {
        let (design, program, graph, map, src) = setup(4096);
        let model = GpuModel::default();
        let base = PipelineConfig {
            group_size: 512,
            ..Default::default()
        };
        let piped = simulate_batch(&design, &program, &graph, &map, &src, 12, &base, &model);
        let barrier_cfg = PipelineConfig {
            pipelined: false,
            ..base.clone()
        };
        let barrier = simulate_batch(
            &design,
            &program,
            &graph,
            &map,
            &src,
            12,
            &barrier_cfg,
            &model,
        );
        assert!(
            piped.makespan < barrier.makespan,
            "pipelined {} should beat barrier {}",
            piped.makespan,
            barrier.makespan
        );
    }

    #[test]
    fn pipelining_improves_gpu_utilization() {
        let (design, program, graph, map, src) = setup(4096);
        let model = GpuModel::default();
        let base = PipelineConfig {
            group_size: 512,
            ..Default::default()
        };
        let piped = simulate_batch(&design, &program, &graph, &map, &src, 12, &base, &model);
        let barrier_cfg = PipelineConfig {
            pipelined: false,
            ..base.clone()
        };
        let barrier = simulate_batch(
            &design,
            &program,
            &graph,
            &map,
            &src,
            12,
            &barrier_cfg,
            &model,
        );
        assert!(
            piped.gpu_utilization > barrier.gpu_utilization,
            "piped {} vs barrier {}",
            piped.gpu_utilization,
            barrier.gpu_utilization
        );
    }

    #[test]
    fn trace_has_both_resources() {
        let (design, program, graph, map, src) = setup(16);
        let model = GpuModel::default();
        let cfg = PipelineConfig {
            group_size: 8,
            ..Default::default()
        };
        let r = simulate_batch(&design, &program, &graph, &map, &src, 5, &cfg, &model);
        assert!(r.set_inputs_busy > 0);
        assert!(r.evaluate_busy > 0);
        assert!(!r.trace.intervals("cpu").is_empty());
        assert!(!r.trace.intervals("gpu").is_empty());
    }

    #[test]
    fn multi_gpu_sharding_speeds_up_until_host_bound() {
        let (_, program, graph, map, _) = setup(4);
        let model = GpuModel::default();
        let cfg = PipelineConfig {
            group_size: 1024,
            ..Default::default()
        };
        let t1 =
            model_batch_multi_gpu(&program, &graph, map.len(), 65536, 32, &cfg, &model, 1).makespan;
        let t2 =
            model_batch_multi_gpu(&program, &graph, map.len(), 65536, 32, &cfg, &model, 2).makespan;
        let t64 = model_batch_multi_gpu(&program, &graph, map.len(), 65536, 32, &cfg, &model, 64)
            .makespan;
        assert!(t2 < t1, "2 GPUs should beat 1: {t1} vs {t2}");
        assert!(t64 >= t2 / 40, "scaling cannot be unbounded: {t2} vs {t64}");
    }

    #[test]
    fn coalesced_jobs_match_standalone_runs() {
        let (design, program, graph, map, _) = setup(1);
        let model = GpuModel::default();
        let cfg = PipelineConfig {
            group_size: 8,
            ..Default::default()
        };
        let specs: [(usize, u64); 3] = [(5, 0x11), (9, 0x22), (3, 0x33)];
        let jobs: Vec<Box<dyn StimulusSource>> = specs
            .iter()
            .map(|&(n, seed)| Box::new(RiscvSource::new(&map, n, seed)) as Box<dyn StimulusSource>)
            .collect();
        let batch = simulate_batch_jobs(&design, &program, &graph, &map, jobs, 20, &cfg, &model);
        assert_eq!(batch.ranges.len(), 3);
        assert_eq!(batch.sim.digests.len(), 5 + 9 + 3);
        for (j, &(n, seed)) in specs.iter().enumerate() {
            let solo_src = RiscvSource::new(&map, n, seed);
            let solo = simulate_batch(&design, &program, &graph, &map, &solo_src, 20, &cfg, &model);
            assert_eq!(
                &batch.sim.digests[batch.ranges[j].clone()],
                &solo.digests[..],
                "job {j} digests must be bit-identical to its standalone run"
            );
        }
    }

    #[test]
    fn group_range_covers_batch() {
        assert_eq!(group_range(0, 8, 20), (0, 8));
        assert_eq!(group_range(2, 8, 20), (16, 4));
    }
}
