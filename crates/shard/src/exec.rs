//! The sharded scheduler: a model of time for group-granular
//! scheduling over a device pool.
//!
//! The batch is cut into stimulus groups (the same granularity the
//! single-device pipeline uses) and the groups — not the stimulus — are
//! the unit of placement, stealing, and fault recovery:
//!
//! * **Placement.** Groups are split uniformly and contiguously across
//!   devices up front. The split is deliberately *not* speed-weighted:
//!   heterogeneity and faults are corrected by stealing at run time,
//!   which is what keeps the policy elastic.
//! * **Execution.** Each device times its groups one after another, each
//!   group through a per-cycle two-stage pipeline (host `set_inputs`
//!   double-buffered against the device evaluating the previous cycle).
//!   The host's threads are partitioned evenly across devices — pinned
//!   input-preparation workers per shard — so growing the pool shrinks
//!   each shard's host share, which is exactly the host-side scaling
//!   ceiling the analytic multi-GPU model predicts.
//! * **Stealing.** A device that drains its queue takes the back half of
//!   the largest remaining queue. The victim keeps the front half — the
//!   work it would reach first.
//! * **Faults.** A killed device's in-flight group and backlog are
//!   requeued round-robin onto survivors.
//!
//! No kernel runs here. A group's digests are a pure function of
//! `(stimulus ids, cycles)`, so placement and failures can never change
//! them: the functional pass is `pipeline::run_groups`, run once, and
//! this scheduler only decides *when* each group would have run.

use std::collections::VecDeque;

use cudasim::{CudaGraph, ExecMode, GpuRuntime};
use desim::{Resource, Time, Trace};
use pipeline::HostModel;

use crate::fault::FaultSpec;
use crate::metrics::{DeviceReport, ShardMetrics};
use crate::pool::DevicePool;

/// Scheduling configuration for one sharded run.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Stimulus per group — the stealing/rebalance granularity.
    pub group_size: usize,
    /// Optional device-fault injection.
    pub fault: Option<FaultSpec>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            group_size: 1024,
            fault: None,
        }
    }
}

/// Result of a sharded batch run: the functional pass's digests plus the
/// scheduler's metrics (`metrics.makespan` is the batch's virtual
/// completion time).
#[derive(Debug)]
pub struct ShardResult {
    /// Final per-stimulus output digests.
    pub digests: Vec<u64>,
    pub metrics: ShardMetrics,
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
    /// Stimulus count of each queued group; a group runs start-to-finish
    /// on a single device.
    queue: VecDeque<usize>,
    alive: bool,
    /// Set when the device found no work anywhere; cleared on requeue.
    parked: bool,
    /// Group pickups so far (the fault trigger coordinate).
    pickups: u64,
    /// Groups committed.
    groups: u64,
    steals: u64,
}

/// Time `cycles` of an `n`-stimulus batch across the pool: placement,
/// stealing and faults over `graph` re-instantiated per device, with
/// `input_lanes` lanes to set per stimulus and cycle. The host is the
/// paper's Machine 1 ([`HostModel::xeon`]): a multi-device pool needs
/// server-class `set_inputs` parallelism or the host becomes the
/// scaling ceiling. Every group-cycle is one CUDA-graph launch.
pub fn model_shard_batch(
    graph: &CudaGraph,
    input_lanes: usize,
    n: usize,
    cycles: u64,
    cfg: &ShardConfig,
    pool: &DevicePool,
) -> ShardMetrics {
    assert!(n >= 1, "shard batch needs at least one stimulus");
    let host = HostModel::xeon();
    let k = pool.len();
    let group_size = cfg.group_size.max(1).min(n);
    let num_groups = n.div_ceil(group_size);

    let items: Vec<usize> = (0..num_groups)
        .map(|g| group_size.min(n - g * group_size))
        .collect();

    // Uniform contiguous initial split — device i gets groups
    // [i*per, (i+1)*per). Deliberately speed-blind; see module docs.
    let per = num_groups.div_ceil(k);
    let threads_per_device = (host.threads / k).max(1);
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

    let mut total_steals = 0u64;
    let mut faults_injected = 0u64;
    let mut groups_requeued = 0u64;

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
        let len = match devices[d].queue.pop_front() {
            Some(len) => len,
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
            let mut orphans = vec![len];
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
        let end = time_group(&mut devices[d], &host, len, input_lanes, cycles, start);
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

    ShardMetrics {
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
    }
}

/// Time one group start-to-finish on `dev`: a per-cycle two-stage
/// pipeline with double-buffered inputs (`set_inputs(c)` waits only for
/// the GPU to have finished cycle `c-2`). Returns when the group's last
/// cycle leaves the GPU.
fn time_group(
    dev: &mut DeviceState,
    host: &HostModel,
    len: usize,
    input_lanes: usize,
    cycles: u64,
    start: Time,
) -> Time {
    let mut gpu_done = start;
    let mut gpu_done_prev = start;
    for _ in 0..cycles {
        let set_done = host.set_inputs(
            &mut dev.cpu,
            &mut dev.cpu_trace,
            gpu_done_prev,
            len,
            input_lanes,
        );
        let gpu_ready = set_done.max(gpu_done);
        let t = dev.rt.time_cycle(
            &dev.graph,
            ExecMode::Graph,
            len,
            gpu_ready,
            Some(&mut dev.trace),
        );
        gpu_done_prev = gpu_done;
        gpu_done = t.gpu_end;
    }
    gpu_done
}

#[cfg(test)]
mod tests {
    use super::*;
    use cudasim::GpuModel;
    use designs::Benchmark;
    use stimulus::PortMap;

    /// riscv-mini's instantiated graph and input lane count.
    fn setup() -> (CudaGraph, usize) {
        let design = Benchmark::RiscvMini.elaborate().unwrap();
        let (_, graph) = pipeline::prepare(&design, &GpuModel::default()).unwrap();
        (graph, PortMap::from_design(&design).len())
    }

    fn run(n: usize, cycles: u64, cfg: &ShardConfig, pool: &DevicePool) -> ShardMetrics {
        let (graph, lanes) = setup();
        model_shard_batch(&graph, lanes, n, cycles, cfg, pool)
    }

    fn committed(m: &ShardMetrics) -> u64 {
        m.devices.iter().map(|d| d.groups).sum()
    }

    fn groups_of(size: usize) -> ShardConfig {
        ShardConfig {
            group_size: size,
            ..Default::default()
        }
    }

    #[test]
    fn every_group_commits_once_on_any_pool() {
        for devs in [1usize, 2, 3, 7] {
            let pool = DevicePool::uniform(GpuModel::default(), devs);
            let m = run(41, 24, &groups_of(8), &pool);
            assert_eq!(m.num_groups, 6);
            assert_eq!(committed(&m), 6, "{devs} devices");
        }
    }

    #[test]
    fn heterogeneous_pool_triggers_stealing() {
        let pool = DevicePool::with_speeds(GpuModel::default(), &[1.0, 0.2]);
        let m = run(64, 20, &groups_of(4), &pool);
        assert!(
            m.total_steals > 0,
            "a 5x-faster device must steal from the slow one"
        );
        assert!(
            m.devices[0].groups > m.devices[1].groups,
            "the fast device should commit more groups: {:?}",
            m.devices.iter().map(|d| d.groups).collect::<Vec<_>>()
        );
        assert_eq!(committed(&m), m.num_groups as u64);
    }

    #[test]
    fn fault_requeues_onto_survivors() {
        let pool = DevicePool::uniform(GpuModel::default(), 3);
        let cfg = ShardConfig {
            group_size: 4,
            fault: Some(FaultSpec::schedule(vec![(0, 1)])),
        };
        let m = run(48, 20, &cfg, &pool);
        assert_eq!(m.faults_injected, 1);
        assert!(!m.devices[0].alive);
        assert!(m.groups_requeued > 0);
        assert_eq!(m.devices[0].groups, 1, "died at 2nd pickup");
        assert_eq!(committed(&m), m.num_groups as u64, "no group lost");
    }

    #[test]
    fn last_surviving_device_is_immune() {
        let pool = DevicePool::uniform(GpuModel::default(), 2);
        let cfg = ShardConfig {
            group_size: 4,
            fault: Some(FaultSpec::with_rate(1.0, 7)),
        };
        let m = run(24, 16, &cfg, &pool);
        assert_eq!(m.faults_injected, 1, "only one device may die");
        assert_eq!(
            m.devices.iter().filter(|d| d.alive).count(),
            1,
            "exactly one survivor finishes the batch"
        );
        assert_eq!(committed(&m), m.num_groups as u64);
    }

    #[test]
    fn four_equal_devices_scale_beyond_three_x() {
        // The acceptance workload: riscv-mini, N=65536, 4 equal devices.
        let cfg = ShardConfig::default();
        let t1 = run(
            65536,
            16,
            &cfg,
            &DevicePool::uniform(GpuModel::default(), 1),
        )
        .makespan;
        let m4 = run(
            65536,
            16,
            &cfg,
            &DevicePool::uniform(GpuModel::default(), 4),
        );
        let speedup = t1 as f64 / m4.makespan as f64;
        assert!(
            speedup >= 3.0,
            "4 equal devices must deliver >= 3.0x, got {speedup:.2}x"
        );
        assert!(m4.scaling_efficiency(t1) >= 0.75);
    }

    #[test]
    fn more_devices_than_groups_parks_the_excess() {
        let pool = DevicePool::uniform(GpuModel::default(), 7);
        let m = run(12, 12, &groups_of(4), &pool); // only 3 groups for 7 devices
        assert_eq!(m.num_groups, 3);
        assert_eq!(
            m.devices.iter().filter(|d| d.groups == 0).count(),
            4,
            "four devices never get work"
        );
    }
}
