//! The sharded executor: group-granular scheduling over a device pool.
//!
//! The batch is cut into stimulus groups (the same granularity the
//! single-device pipeline uses) and the groups — not the stimulus — are
//! the unit of placement, stealing, and fault recovery:
//!
//! * **Placement.** Groups are split uniformly and contiguously across
//!   devices up front. The split is deliberately *not* speed-weighted:
//!   heterogeneity and faults are corrected by stealing at run time,
//!   which is what keeps the policy elastic.
//! * **Execution.** Each device runs its groups one after another, each
//!   group carrying its own local [`DeviceMemory`] and a per-cycle
//!   two-stage pipeline (host `set_inputs` double-buffered against the
//!   device evaluating the previous cycle). The host's threads are
//!   partitioned evenly across devices — pinned input-preparation
//!   workers per shard — so growing the pool shrinks each shard's host
//!   share, which is exactly the host-side scaling ceiling the analytic
//!   multi-GPU model predicts.
//! * **Stealing.** A device that drains its queue takes the back half of
//!   the largest remaining queue. The victim keeps the front half — the
//!   work it would reach first.
//! * **Faults.** A killed device's in-flight group and backlog are
//!   requeued round-robin onto survivors. Because a group's functional
//!   execution is a pure function of `(stimulus ids, cycles)` and only
//!   commits results when it completes, every re-run is bit-identical —
//!   placement and failures can never change a digest.

use std::collections::VecDeque;

use cudasim::{CudaGraph, ExecConfig, ExecMode, GpuRuntime};
use desim::{Resource, Time, Trace};
use pipeline::{GroupRunner, HostModel};
use rtlir::Design;
use stimulus::{PortMap, StackedSource, StimulusSource};
use transpile::KernelProgram;

use crate::fault::FaultSpec;
use crate::metrics::{DeviceReport, ShardMetrics};
use crate::pool::DevicePool;

/// Scheduling configuration for one sharded run.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Stimulus per group — the stealing/rebalance granularity.
    pub group_size: usize,
    /// CUDA execution mode per group-cycle.
    pub mode: ExecMode,
    /// Functional execution config per device (the scalar oracle, or the
    /// fused engine and its thread count).
    pub exec: ExecConfig,
    /// The shared host. Defaults to the paper's Machine 1 (80-thread
    /// Xeon): a multi-device pool needs server-class `set_inputs`
    /// parallelism or the host becomes the scaling ceiling.
    pub host: HostModel,
    /// Optional device-fault injection.
    pub fault: Option<FaultSpec>,
    /// Tuned-artifact cache policy: when `exec` is left at its default
    /// and the run is functional, the pool's devices run with the tuned
    /// exec config for the design (if one is cached).
    pub tuned: autotune::TunePolicy,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            group_size: 1024,
            mode: ExecMode::Graph,
            exec: ExecConfig::default(),
            host: HostModel::xeon(),
            fault: None,
            tuned: autotune::TunePolicy::default(),
        }
    }
}

/// Result of a sharded batch run.
#[derive(Debug)]
pub struct ShardResult {
    /// Virtual completion time of the whole batch (ns).
    pub makespan: Time,
    /// Final per-stimulus output digests (empty in timing-only mode).
    pub digests: Vec<u64>,
    pub metrics: ShardMetrics,
}

/// Result of a coalesced multi-job sharded run: the shared
/// [`ShardResult`] plus each job's digest range.
#[derive(Debug)]
pub struct ShardJobResult {
    pub result: ShardResult,
    /// `ranges[j]` is job j's slice of `result.digests`.
    pub ranges: Vec<std::ops::Range<usize>>,
}

/// One schedulable unit: a contiguous stimulus group run start-to-finish
/// on a single device.
#[derive(Debug, Clone, Copy)]
struct WorkItem {
    /// First global stimulus id of the group.
    tid0: usize,
    /// Stimulus in the group.
    len: usize,
}

/// Functionally execute + time `cycles` of `source` across the pool.
#[allow(clippy::too_many_arguments)]
pub fn shard_batch(
    design: &Design,
    program: &KernelProgram,
    graph: &CudaGraph,
    map: &PortMap,
    source: &dyn StimulusSource,
    cycles: u64,
    cfg: &ShardConfig,
    pool: &DevicePool,
) -> ShardResult {
    run_sharded(
        Some((design, map, source)),
        program,
        graph,
        map.len(),
        source.num_stimulus(),
        cycles,
        cfg,
        pool,
    )
}

/// Timing-only variant: identical scheduling (placement, stealing,
/// faults) without functional kernel execution or digests. Used for
/// device-count sweeps at table scale.
pub fn model_shard_batch(
    program: &KernelProgram,
    graph: &CudaGraph,
    input_lanes: usize,
    n: usize,
    cycles: u64,
    cfg: &ShardConfig,
    pool: &DevicePool,
) -> ShardResult {
    run_sharded(None, program, graph, input_lanes, n, cycles, cfg, pool)
}

/// Run several pre-grouped jobs as ONE sharded launch over the same DUT.
/// Same correctness contract as `pipeline::simulate_batch_jobs`: every
/// job's digest slice is bit-identical to running it alone, no matter
/// how the pool splits, steals, or fails.
#[allow(clippy::too_many_arguments)]
pub fn shard_batch_jobs(
    design: &Design,
    program: &KernelProgram,
    graph: &CudaGraph,
    map: &PortMap,
    jobs: Vec<Box<dyn StimulusSource>>,
    cycles: u64,
    cfg: &ShardConfig,
    pool: &DevicePool,
) -> ShardJobResult {
    let stacked = StackedSource::new(jobs);
    let ranges: Vec<_> = (0..stacked.num_segments())
        .map(|j| stacked.segment_range(j))
        .collect();
    let result = shard_batch(design, program, graph, map, &stacked, cycles, cfg, pool);
    ShardJobResult { result, ranges }
}

/// Per-device scheduler state.
struct DeviceState {
    rt: GpuRuntime,
    /// This device's own instantiated CUDA graph.
    graph: CudaGraph,
    /// This device's pinned share of the host's input-prep threads.
    cpu: Resource,
    cpu_trace: Trace,
    trace: Trace,
    /// When the device is free to start its next group.
    clock: Time,
    queue: VecDeque<WorkItem>,
    alive: bool,
    /// Set when the device found no work anywhere; cleared on requeue.
    parked: bool,
    /// Group pickups so far (the fault trigger coordinate).
    pickups: u64,
    /// Groups committed.
    groups: u64,
    steals: u64,
}

/// Immutable per-run context threaded through group execution.
struct ExecCtx<'a> {
    /// Design, port map and stimulus of a functional run; `None` is a
    /// timing-only sweep.
    functional: Option<(&'a Design, &'a PortMap, &'a dyn StimulusSource)>,
    program: &'a KernelProgram,
    input_lanes: usize,
    cycles: u64,
    cfg: &'a ShardConfig,
    /// `cfg.exec`, or the design's tuned exec when that is the default.
    exec: ExecConfig,
}

#[allow(clippy::too_many_arguments)]
fn run_sharded(
    functional: Option<(&Design, &PortMap, &dyn StimulusSource)>,
    program: &KernelProgram,
    graph: &CudaGraph,
    input_lanes: usize,
    n: usize,
    cycles: u64,
    cfg: &ShardConfig,
    pool: &DevicePool,
) -> ShardResult {
    assert!(n >= 1, "shard batch needs at least one stimulus");
    let k = pool.len();
    let group_size = cfg.group_size.max(1).min(n);
    let num_groups = n.div_ceil(group_size);

    let items: Vec<WorkItem> = (0..num_groups)
        .map(|g| {
            let tid0 = g * group_size;
            WorkItem {
                tid0,
                len: group_size.min(n - tid0),
            }
        })
        .collect();

    // Tuned exec applies only when the configured exec is the default
    // (an explicit strategy always wins) and the run is functional — a
    // timing-only sweep has no design to key the cache with.
    let exec = match functional {
        Some((design, ..)) if cfg.exec == ExecConfig::default() => autotune::resolve_exec(
            cfg.exec,
            cfg.tuned.lookup(rtlir::design_hash(design)).as_ref(),
        ),
        _ => cfg.exec,
    };

    // Uniform contiguous initial split — device i gets groups
    // [i*per, (i+1)*per). Deliberately speed-blind; see module docs.
    let per = num_groups.div_ceil(k);
    let threads_per_device = (cfg.host.threads / k).max(1);
    let mut devices: Vec<DeviceState> = (0..k)
        .map(|d| {
            let model = pool.model_for(d);
            let dgraph = graph
                .reinstantiate(&model)
                .expect("pool re-instantiates an already-validated graph");
            DeviceState {
                rt: GpuRuntime::new(model),
                graph: dgraph,
                cpu: Resource::new("cpu", threads_per_device),
                cpu_trace: Trace::new(),
                trace: Trace::new(),
                clock: 0,
                queue: items
                    .iter()
                    .skip(d * per)
                    .take(per.min(num_groups.saturating_sub(d * per)))
                    .copied()
                    .collect(),
                alive: true,
                parked: false,
                pickups: 0,
                groups: 0,
                steals: 0,
            }
        })
        .collect();

    let mut digests = vec![0u64; if functional.is_some() { n } else { 0 }];
    let mut total_steals = 0u64;
    let mut faults_injected = 0u64;
    let mut groups_requeued = 0u64;

    let ctx = ExecCtx {
        functional,
        program,
        input_lanes,
        cycles,
        cfg,
        exec,
    };

    // Event loop: always advance the device that frees up earliest —
    // list scheduling over the pool. Host threads are pinned per device,
    // so each device's bookings stay monotone in virtual time and the
    // earliest-slot CPU resources behave causally.
    while let Some(d) = devices
        .iter()
        .enumerate()
        .filter(|(_, s)| s.alive && !s.parked)
        .min_by_key(|&(i, s)| (s.clock, i))
        .map(|(i, _)| i)
    {
        let item = match devices[d].queue.pop_front() {
            Some(item) => item,
            None => {
                // Elastic steal: back half of the largest queue. Dead
                // devices' leftovers are redistributed on the fault, so
                // victims here are live peers that are simply behind.
                let victim = (0..k)
                    .filter(|&v| v != d && !devices[v].queue.is_empty())
                    .max_by_key(|&v| devices[v].queue.len());
                match victim {
                    None => {
                        devices[d].parked = true;
                        continue;
                    }
                    Some(v) => {
                        let keep = devices[v].queue.len() / 2;
                        let stolen = devices[v].queue.split_off(keep);
                        devices[d].steals += 1;
                        total_steals += 1;
                        devices[d].queue = stolen;
                        devices[d]
                            .queue
                            .pop_front()
                            .expect("stolen half is non-empty")
                    }
                }
            }
        };

        // Fault injection at pickup. The last surviving device is
        // immune — losing it would lose the batch.
        let alive_count = devices.iter().filter(|s| s.alive).count();
        let dies = cfg
            .fault
            .as_ref()
            .is_some_and(|f| alive_count > 1 && f.triggers(d, devices[d].pickups));
        if dies {
            devices[d].alive = false;
            faults_injected += 1;
            let mut orphans = vec![item];
            orphans.extend(devices[d].queue.drain(..));
            groups_requeued += orphans.len() as u64;
            let survivors: Vec<usize> = (0..k).filter(|&v| devices[v].alive).collect();
            for (i, orphan) in orphans.into_iter().enumerate() {
                let v = survivors[i % survivors.len()];
                devices[v].queue.push_back(orphan);
                devices[v].parked = false;
            }
            continue;
        }

        devices[d].pickups += 1;
        let start = devices[d].clock;
        let end = run_group(&ctx, &mut devices[d], item, start, &mut digests);
        devices[d].clock = end;
        devices[d].groups += 1;
    }

    let makespan = devices.iter().map(|s| s.clock).max().unwrap_or(0);
    let set_inputs_busy: Time = devices
        .iter()
        .map(|s| {
            s.cpu_trace
                .breakdown("cpu")
                .get("set_inputs")
                .copied()
                .unwrap_or(0)
        })
        .sum();
    let reports: Vec<DeviceReport> = devices
        .iter()
        .enumerate()
        .map(|(d, s)| {
            let busy_ns: Time = s.trace.breakdown("gpu").values().sum();
            DeviceReport {
                device: d,
                speed: pool.devices[d].speed,
                alive: s.alive,
                groups: s.groups,
                steals: s.steals,
                busy_ns,
                finish_ns: s.clock,
                utilization: if makespan > 0 {
                    busy_ns as f64 / makespan as f64
                } else {
                    0.0
                },
            }
        })
        .collect();

    ShardResult {
        makespan,
        digests,
        metrics: ShardMetrics {
            devices: reports,
            n,
            cycles,
            group_size,
            num_groups,
            makespan,
            total_steals,
            faults_injected,
            groups_requeued,
            set_inputs_busy,
        },
    }
}

/// Run one group start-to-finish on `dev`. Timing first: a per-cycle
/// two-stage pipeline with double-buffered inputs (`set_inputs(c)` waits
/// only for the GPU to have finished cycle `c-2`). Then, on a functional
/// run, the group itself through a [`GroupRunner`]: a group-local device
/// image with local thread ids, and *global* stimulus ids into the
/// source — which is what makes results independent of placement.
fn run_group(
    ctx: &ExecCtx<'_>,
    dev: &mut DeviceState,
    item: WorkItem,
    start: Time,
    digests: &mut [u64],
) -> Time {
    let len = item.len;
    let lane_cost = ctx.input_lanes as u64 * ctx.cfg.host.lane_ns;
    let workers = ctx.cfg.host.workers_per_group.max(1).min(len);
    let dur = (len as u64 * lane_cost).div_ceil(workers as u64).max(1);

    let mut gpu_done = start;
    let mut gpu_done_prev = start;
    for _ in 0..ctx.cycles {
        let set_ready = gpu_done_prev;
        let mut set_done = set_ready;
        for _ in 0..workers {
            let (_, e) = dev
                .cpu
                .schedule_traced(set_ready, dur, &mut dev.cpu_trace, "set_inputs");
            set_done = set_done.max(e);
        }
        let gpu_ready = set_done.max(gpu_done);
        let t = dev.rt.time_cycle(
            &dev.graph,
            ctx.cfg.mode,
            len,
            gpu_ready,
            Some(&mut dev.trace),
        );
        gpu_done_prev = gpu_done;
        gpu_done = t.gpu_end;
    }

    // Commit only on completion: a faulted device never reaches here for
    // its in-flight group, so partial work cannot leak into results.
    if let Some((design, map, source)) = ctx.functional {
        let mut runner = GroupRunner::new(ctx.program, ctx.exec, len);
        for _ in 0..ctx.cycles {
            runner.poke_source(map, source, item.tid0);
            runner.step();
        }
        digests[item.tid0..item.tid0 + len].copy_from_slice(&runner.digests(design));
    }
    gpu_done
}

#[cfg(test)]
mod tests {
    use super::*;
    use cudasim::GpuModel;
    use designs::Benchmark;
    use pipeline::{simulate_batch, PipelineConfig};
    use stimulus::RiscvSource;

    fn setup(n: usize) -> (Design, KernelProgram, CudaGraph, PortMap, RiscvSource) {
        let design = Benchmark::RiscvMini.elaborate().unwrap();
        let model = GpuModel::default();
        let (program, graph) = pipeline::prepare(&design, &model).unwrap();
        let map = PortMap::from_design(&design);
        let src = RiscvSource::new(&map, n, 0xabcd);
        (design, program, graph, map, src)
    }

    fn single_device_digests(
        design: &Design,
        program: &KernelProgram,
        graph: &CudaGraph,
        map: &PortMap,
        src: &RiscvSource,
        cycles: u64,
        group_size: usize,
    ) -> Vec<u64> {
        let cfg = PipelineConfig {
            group_size,
            ..Default::default()
        };
        simulate_batch(
            design,
            program,
            graph,
            map,
            src,
            cycles,
            &cfg,
            &GpuModel::default(),
        )
        .digests
    }

    #[test]
    fn sharded_digests_match_single_device() {
        let (design, program, graph, map, src) = setup(41);
        let golden = single_device_digests(&design, &program, &graph, &map, &src, 24, 8);
        for devs in [1usize, 2, 3, 7] {
            let pool = DevicePool::uniform(GpuModel::default(), devs);
            let cfg = ShardConfig {
                group_size: 8,
                ..Default::default()
            };
            let r = shard_batch(&design, &program, &graph, &map, &src, 24, &cfg, &pool);
            assert_eq!(
                r.digests, golden,
                "{devs}-device shard must be bit-identical to single device"
            );
            assert_eq!(
                r.metrics.devices.iter().map(|d| d.groups).sum::<u64>(),
                r.metrics.num_groups as u64
            );
        }
    }

    #[test]
    fn heterogeneous_pool_triggers_stealing() {
        let (design, program, graph, map, src) = setup(64);
        let pool = DevicePool::with_speeds(GpuModel::default(), &[1.0, 0.2]);
        let cfg = ShardConfig {
            group_size: 4,
            ..Default::default()
        };
        let r = shard_batch(&design, &program, &graph, &map, &src, 20, &cfg, &pool);
        assert!(
            r.metrics.total_steals > 0,
            "a 5x-faster device must steal from the slow one"
        );
        assert!(
            r.metrics.devices[0].groups > r.metrics.devices[1].groups,
            "the fast device should commit more groups: {:?}",
            r.metrics
                .devices
                .iter()
                .map(|d| d.groups)
                .collect::<Vec<_>>()
        );
        let golden = single_device_digests(&design, &program, &graph, &map, &src, 20, 4);
        assert_eq!(r.digests, golden);
    }

    #[test]
    fn fault_requeues_onto_survivors_bit_identically() {
        let (design, program, graph, map, src) = setup(48);
        let pool = DevicePool::uniform(GpuModel::default(), 3);
        let clean_cfg = ShardConfig {
            group_size: 4,
            ..Default::default()
        };
        let clean = shard_batch(&design, &program, &graph, &map, &src, 20, &clean_cfg, &pool);
        let faulty_cfg = ShardConfig {
            group_size: 4,
            fault: Some(FaultSpec::schedule(vec![(0, 1)])),
            ..Default::default()
        };
        let faulty = shard_batch(
            &design,
            &program,
            &graph,
            &map,
            &src,
            20,
            &faulty_cfg,
            &pool,
        );
        assert_eq!(faulty.digests, clean.digests);
        assert_eq!(faulty.metrics.faults_injected, 1);
        assert!(!faulty.metrics.devices[0].alive);
        assert!(faulty.metrics.groups_requeued > 0);
        assert_eq!(faulty.metrics.devices[0].groups, 1, "died at 2nd pickup");
    }

    #[test]
    fn last_surviving_device_is_immune() {
        let (design, program, graph, map, src) = setup(24);
        let pool = DevicePool::uniform(GpuModel::default(), 2);
        let cfg = ShardConfig {
            group_size: 4,
            fault: Some(FaultSpec::with_rate(1.0, 7)),
            ..Default::default()
        };
        let r = shard_batch(&design, &program, &graph, &map, &src, 16, &cfg, &pool);
        assert_eq!(r.metrics.faults_injected, 1, "only one device may die");
        assert_eq!(
            r.metrics.devices.iter().filter(|d| d.alive).count(),
            1,
            "exactly one survivor finishes the batch"
        );
        let golden = single_device_digests(&design, &program, &graph, &map, &src, 16, 4);
        assert_eq!(r.digests, golden);
    }

    #[test]
    fn four_equal_devices_scale_beyond_three_x() {
        // The acceptance workload: riscv-mini, N=65536, 4 equal devices —
        // timing-only (scheduling is identical; kernels aren't run).
        let (_, program, graph, map, _) = setup(1);
        let cfg = ShardConfig::default();
        let t1 = model_shard_batch(
            &program,
            &graph,
            map.len(),
            65536,
            16,
            &cfg,
            &DevicePool::uniform(GpuModel::default(), 1),
        )
        .makespan;
        let r4 = model_shard_batch(
            &program,
            &graph,
            map.len(),
            65536,
            16,
            &cfg,
            &DevicePool::uniform(GpuModel::default(), 4),
        );
        let speedup = t1 as f64 / r4.makespan as f64;
        assert!(
            speedup >= 3.0,
            "4 equal devices must deliver >= 3.0x, got {speedup:.2}x"
        );
        assert!(r4.metrics.scaling_efficiency(t1) >= 0.75);
    }

    #[test]
    fn more_devices_than_groups_parks_the_excess() {
        let (design, program, graph, map, src) = setup(12);
        let pool = DevicePool::uniform(GpuModel::default(), 7);
        let cfg = ShardConfig {
            group_size: 4, // only 3 groups for 7 devices
            ..Default::default()
        };
        let r = shard_batch(&design, &program, &graph, &map, &src, 12, &cfg, &pool);
        assert_eq!(r.metrics.num_groups, 3);
        assert_eq!(
            r.metrics.devices.iter().filter(|d| d.groups == 0).count(),
            4,
            "four devices never get work"
        );
        let golden = single_device_digests(&design, &program, &graph, &map, &src, 12, 4);
        assert_eq!(r.digests, golden);
    }

    #[test]
    fn model_mode_produces_no_digests() {
        let (_, program, graph, map, _) = setup(1);
        let r = model_shard_batch(
            &program,
            &graph,
            map.len(),
            256,
            8,
            &ShardConfig::default(),
            &DevicePool::uniform(GpuModel::default(), 2),
        );
        assert!(r.digests.is_empty());
        assert!(r.makespan > 0);
    }

    #[test]
    fn coalesced_jobs_keep_their_ranges() {
        let (design, program, graph, map, _) = setup(1);
        let pool = DevicePool::uniform(GpuModel::default(), 2);
        let cfg = ShardConfig {
            group_size: 8,
            ..Default::default()
        };
        let specs: [(usize, u64); 3] = [(5, 0x11), (9, 0x22), (3, 0x33)];
        let jobs: Vec<Box<dyn StimulusSource>> = specs
            .iter()
            .map(|&(n, seed)| Box::new(RiscvSource::new(&map, n, seed)) as Box<dyn StimulusSource>)
            .collect();
        let batch = shard_batch_jobs(&design, &program, &graph, &map, jobs, 20, &cfg, &pool);
        assert_eq!(batch.ranges.len(), 3);
        assert_eq!(batch.result.digests.len(), 5 + 9 + 3);
        for (j, &(n, seed)) in specs.iter().enumerate() {
            let solo = RiscvSource::new(&map, n, seed);
            let golden = single_device_digests(&design, &program, &graph, &map, &solo, 20, 8);
            assert_eq!(
                &batch.result.digests[batch.ranges[j].clone()],
                &golden[..],
                "job {j} digests must be bit-identical to its standalone run"
            );
        }
    }
}
