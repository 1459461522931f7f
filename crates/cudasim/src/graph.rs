//! CUDA Graph and stream/event execution models (§3.2.2).
//!
//! Both modes execute the same kernels bit-exactly; they differ only in
//! the modeled launch overheads:
//!
//! * [`ExecMode::Stream`] — the state-of-the-art capture algorithm of
//!   [23, 24]: kernels are levelized and issued round-robin over a fixed
//!   number of streams, with events expressing cross-stream dependencies.
//!   Every kernel pays a CPU launch call, every cross-stream edge an
//!   event, *every cycle*.
//! * [`ExecMode::Graph`] — define-once-run-repeatedly CUDA Graph: one
//!   instantiation, then a single CPU launch per cycle with a small
//!   amortized per-node scheduling cost on the device.

use desim::{Resource, Time, Trace};

use crate::bitplane::BitLayout;
use crate::device::{DeviceMemory, Scratch};
use crate::exec::{run_order, ExecConfig};
use crate::fuse::{fuse_graph, ExecStats, FusedKernel, SlotUniform};
use crate::ir::TaskGraphIr;
use crate::model::GpuModel;

/// How a cycle's task graph is offloaded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Stream/event execution over `streams` CUDA streams.
    Stream { streams: usize },
    /// Instantiated CUDA Graph execution.
    Graph,
}

/// An instantiated CUDA graph: a validated task graph plus its
/// preprocessed launch order and levelization.
#[derive(Debug, Clone)]
pub struct CudaGraph {
    pub ir: TaskGraphIr,
    /// Topological launch order.
    pub order: Vec<usize>,
    /// Level (longest dependency chain) of each kernel.
    pub levels: Vec<u32>,
    /// One-time instantiation cost charged to the CPU.
    pub instantiate_ns: Time,
    /// Fused programs, indexed like `ir.kernels` — built once here
    /// (CUDA-Graph capture time), executed every cycle.
    pub fused: Vec<FusedKernel>,
    /// Uniform-slot analysis the fusion was specialized against.
    pub uniform: Option<SlotUniform>,
    /// Bit-transposed layout of the design (`None`, like a zero-plane
    /// layout, runs the fused engine over the width-bucketed rows alone).
    pub bit: Option<BitLayout>,
}

impl CudaGraph {
    /// Validate and instantiate a task graph with neither analysis:
    /// every load is treated as per-lane data.
    pub fn instantiate(ir: TaskGraphIr, model: &GpuModel) -> Result<CudaGraph, String> {
        CudaGraph::instantiate_full(ir, model, None, None)
    }

    /// Validate and instantiate with both analyses: the uniform-slot
    /// specialization and (optionally) a precompiled bit-transposed
    /// layout.
    pub fn instantiate_full(
        ir: TaskGraphIr,
        model: &GpuModel,
        uniform: Option<SlotUniform>,
        bit: Option<BitLayout>,
    ) -> Result<CudaGraph, String> {
        let order = ir.topo_order()?;
        for k in &ir.kernels {
            k.validate()?;
        }
        let levels = ir.levels();
        let instantiate_ns = ir.kernels.len() as Time * model.launch.graph_instantiate_node_ns;
        let fused = fuse_graph(&ir, uniform.as_ref());
        Ok(CudaGraph {
            ir,
            order,
            levels,
            instantiate_ns,
            fused,
            uniform,
            bit,
        })
    }

    /// Re-instantiate the same task graph against another GPU model,
    /// preserving the uniform-slot analysis and bit layout (used when a
    /// shard migrates a graph onto a different device).
    pub fn reinstantiate(&self, model: &GpuModel) -> Result<CudaGraph, String> {
        CudaGraph::instantiate_full(
            self.ir.clone(),
            model,
            self.uniform.clone(),
            self.bit.clone(),
        )
    }

    /// Aggregate fusion + uniform statistics for the metrics path
    /// (see [`ExecStats::of`]).
    pub fn static_exec_stats(&self) -> ExecStats {
        ExecStats::of(&self.fused, self.uniform.as_ref())
    }

    /// Number of kernels.
    pub fn len(&self) -> usize {
        self.ir.kernels.len()
    }

    /// `true` when the graph has no kernels.
    pub fn is_empty(&self) -> bool {
        self.ir.kernels.is_empty()
    }
}

/// Timing outcome of one launched cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleTiming {
    /// When the launching CPU thread becomes free again.
    pub cpu_end: Time,
    /// When the last kernel of the cycle completes on the GPU.
    pub gpu_end: Time,
}

/// The device runtime: persists the SM pool across cycles so GPU
/// occupancy and utilization emerge from block scheduling.
pub struct GpuRuntime {
    pub model: GpuModel,
    sm: Resource,
    /// Functional-execution config (scalar oracle or the fused engine).
    pub exec: ExecConfig,
    /// Per-worker scratch pool for block-parallel execution.
    par_scratch: Vec<Scratch>,
    /// Functional cycles executed (for per-cycle stats).
    cycles: u64,
    /// Ops computed once as scalars instead of per lane, summed.
    scalar_ops: u64,
}

/// A micro-executor for stream-mode bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct StreamExec {
    /// Completion time of the last kernel issued to each stream.
    pub stream_free: Vec<Time>,
}

impl GpuRuntime {
    pub fn new(model: GpuModel) -> Self {
        GpuRuntime::with_exec(model, ExecConfig::default())
    }

    /// Build a runtime with an explicit functional-execution strategy.
    pub fn with_exec(model: GpuModel, exec: ExecConfig) -> Self {
        let sm = Resource::new("gpu", model.sms);
        let par_scratch = exec.scratch_pool();
        GpuRuntime {
            model,
            sm,
            exec,
            par_scratch,
            cycles: 0,
            scalar_ops: 0,
        }
    }

    /// Reset the virtual GPU clock (e.g. between benchmark scenarios).
    pub fn reset(&mut self) {
        self.sm.reset();
    }

    /// Fusion/uniform stats plus the measured scalar-op rate of this
    /// runtime's executed cycles.
    pub fn exec_stats(&self, graph: &CudaGraph) -> ExecStats {
        let mut st = graph.static_exec_stats();
        if self.cycles > 0 {
            st.scalar_ops_per_cycle = self.scalar_ops as f64 / self.cycles as f64;
        }
        st
    }

    /// Functionally execute + time one cycle of `graph` for stimulus
    /// threads `[tid0, tid0+group)`, with the launch becoming possible at
    /// `ready` (after `set_inputs` finished for this group).
    #[allow(clippy::too_many_arguments)]
    pub fn run_cycle(
        &mut self,
        graph: &CudaGraph,
        mode: ExecMode,
        dev: &mut DeviceMemory,
        scratch: &mut Scratch,
        tid0: usize,
        group: usize,
        ready: Time,
        trace: Option<&mut Trace>,
    ) -> CycleTiming {
        // Functional execution (identical for both modes and both
        // strategies — bit-exactness is enforced by differential tests),
        // then timing. A serial config runs on the caller's scratch.
        let scratches = if self.par_scratch.len() > 1 {
            &mut self.par_scratch[..]
        } else {
            std::slice::from_mut(scratch)
        };
        self.scalar_ops += run_order(
            &graph.ir.kernels,
            &graph.fused,
            graph.bit.as_ref(),
            &graph.order,
            dev,
            scratches,
            tid0,
            group,
            &self.exec,
        );
        self.cycles += 1;
        self.time_cycle(graph, mode, group, ready, trace)
    }

    /// Timing-only variant of [`GpuRuntime::run_cycle`]: advances the
    /// virtual clocks without touching device memory. Modeled time is
    /// independent of signal values, so this is exact for extrapolation.
    pub fn time_cycle(
        &mut self,
        graph: &CudaGraph,
        mode: ExecMode,
        group: usize,
        ready: Time,
        mut trace: Option<&mut Trace>,
    ) -> CycleTiming {
        let n = graph.len();
        let mut end = vec![0 as Time; n];
        match mode {
            ExecMode::Graph => {
                let cpu_end = ready + self.model.launch.graph_launch_ns;
                for &k in &graph.order {
                    let dep_ready = graph.ir.deps[k].iter().map(|&p| end[p]).max().unwrap_or(0);
                    let kready = cpu_end.max(dep_ready) + self.model.launch.graph_node_ns;
                    end[k] = self.schedule_kernel(graph, k, group, kready, trace.as_deref_mut());
                }
                let gpu_end = end.iter().copied().max().unwrap_or(cpu_end);
                CycleTiming { cpu_end, gpu_end }
            }
            ExecMode::Stream { streams } => {
                let streams = streams.max(1);
                let mut stream_free = vec![ready; streams];
                let mut stream_of = vec![0usize; n];
                let mut cpu_now = ready;
                // Issue kernels level by level, round-robin across streams
                // — the capture algorithm that maximizes concurrency.
                let mut by_level: Vec<Vec<usize>> = Vec::new();
                for &k in &graph.order {
                    let l = graph.levels[k] as usize;
                    if by_level.len() <= l {
                        by_level.resize(l + 1, Vec::new());
                    }
                    by_level[l].push(k);
                }
                let mut rr = 0usize;
                for level in &by_level {
                    for &k in level {
                        let s = rr % streams;
                        rr += 1;
                        stream_of[k] = s;
                        // CPU: event waits for cross-stream deps + the launch.
                        let cross = graph.ir.deps[k]
                            .iter()
                            .filter(|&&p| stream_of[p] != s)
                            .count() as Time;
                        cpu_now +=
                            cross * self.model.launch.event_ns + self.model.launch.stream_kernel_ns;
                        let dep_ready = graph.ir.deps[k]
                            .iter()
                            .map(|&p| {
                                let e = end[p];
                                if stream_of[p] != s {
                                    e + self.model.launch.event_ns
                                } else {
                                    e
                                }
                            })
                            .max()
                            .unwrap_or(0);
                        let kready = cpu_now.max(dep_ready).max(stream_free[s]);
                        end[k] =
                            self.schedule_kernel(graph, k, group, kready, trace.as_deref_mut());
                        stream_free[s] = end[k];
                    }
                }
                let gpu_end = end.iter().copied().max().unwrap_or(cpu_now);
                CycleTiming {
                    cpu_end: cpu_now,
                    gpu_end,
                }
            }
        }
    }

    /// Place one kernel's blocks on the SM pool; returns its end time.
    fn schedule_kernel(
        &mut self,
        graph: &CudaGraph,
        k: usize,
        group: usize,
        ready: Time,
        trace: Option<&mut Trace>,
    ) -> Time {
        let stats = &graph.ir.kernels[k].stats;
        let blocks = self.model.blocks_for(group);
        let block_time = self.model.block_time(stats);
        // Bound heap traffic: schedule at most `sms` slot-tasks, each
        // carrying a whole wave-chain of blocks.
        let slots = blocks.min(self.model.sms);
        let per_slot = blocks.div_ceil(slots) as Time * block_time;
        let per_slot = per_slot.max(self.model.launch.min_kernel_ns);
        let mut start = Time::MAX;
        let mut endmax = 0;
        for _ in 0..slots {
            let (s, e) = self.sm.schedule(ready, per_slot);
            start = start.min(s);
            endmax = endmax.max(e);
        }
        if let Some(tr) = trace {
            tr.record("gpu", start, endmax, &graph.ir.kernels[k].name);
        }
        endmax
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Bucket, KBin, Kernel, Op, Slot};

    fn slot(offset: u32) -> Slot {
        Slot {
            bucket: Bucket::B32,
            offset,
        }
    }

    /// kernel: var32[out] = var32[a] + var32[b]
    fn add_kernel(name: &str, a: u32, b: u32, out: u32) -> Kernel {
        Kernel::new(
            name,
            vec![
                Op::Load {
                    dst: 0,
                    slot: slot(a),
                },
                Op::Load {
                    dst: 1,
                    slot: slot(b),
                },
                Op::Bin {
                    op: KBin::Add,
                    dst: 2,
                    a: 0,
                    b: 1,
                    width: 32,
                },
                Op::Store {
                    src: 2,
                    slot: slot(out),
                    width: 32,
                },
            ],
        )
    }

    fn diamond() -> TaskGraphIr {
        // k0: s2 = s0+s1 ; k1: s3 = s2+s0 ; k2: s4 = s2+s1 ; k3: s5 = s3+s4
        TaskGraphIr {
            kernels: vec![
                add_kernel("k0", 0, 1, 2),
                add_kernel("k1", 2, 0, 3),
                add_kernel("k2", 2, 1, 4),
                add_kernel("k3", 3, 4, 5),
            ],
            deps: vec![vec![], vec![0], vec![0], vec![1, 2]],
        }
    }

    fn run(mode: ExecMode) -> (DeviceMemory, CycleTiming) {
        let model = GpuModel::default();
        let g = CudaGraph::instantiate(diamond(), &model).unwrap();
        let mut rt = GpuRuntime::new(model);
        let n = 16;
        let mut dev = DeviceMemory::new(n, 0, 0, 6, 0);
        for t in 0..n {
            dev.store(slot(0), t, t as u64);
            dev.store(slot(1), t, 100);
        }
        let mut scratch = Scratch::new();
        let t = rt.run_cycle(&g, mode, &mut dev, &mut scratch, 0, n, 0, None);
        (dev, t)
    }

    #[test]
    fn graph_and_stream_agree_functionally() {
        let (d1, _) = run(ExecMode::Graph);
        let (d2, _) = run(ExecMode::Stream { streams: 4 });
        for t in 0..16 {
            // s5 = (s0+s1)+s0 + (s0+s1)+s1
            let expect = (t + 100) + t + (t + 100) + 100;
            assert_eq!(d1.load(slot(5), t as usize), expect);
            assert_eq!(d2.load(slot(5), t as usize), expect);
        }
    }

    #[test]
    fn graph_mode_is_faster_than_streams() {
        let (_, tg) = run(ExecMode::Graph);
        let (_, ts) = run(ExecMode::Stream { streams: 4 });
        assert!(
            tg.gpu_end < ts.gpu_end,
            "graph {} should beat streams {}",
            tg.gpu_end,
            ts.gpu_end
        );
    }

    #[test]
    fn stream_cpu_cost_scales_with_kernels() {
        let model = GpuModel::default();
        let g = CudaGraph::instantiate(diamond(), &model).unwrap();
        let mut rt = GpuRuntime::new(model.clone());
        let mut dev = DeviceMemory::new(4, 0, 0, 6, 0);
        let mut scratch = Scratch::new();
        let ts = rt.run_cycle(
            &g,
            ExecMode::Stream { streams: 2 },
            &mut dev,
            &mut scratch,
            0,
            4,
            0,
            None,
        );
        // 4 kernel launches minimum on the CPU.
        assert!(ts.cpu_end >= 4 * model.launch.stream_kernel_ns);
        let mut rt2 = GpuRuntime::new(model.clone());
        let tg = rt2.run_cycle(&g, ExecMode::Graph, &mut dev, &mut scratch, 0, 4, 0, None);
        assert_eq!(tg.cpu_end, model.launch.graph_launch_ns);
    }

    #[test]
    fn ready_time_delays_everything() {
        let model = GpuModel::default();
        let g = CudaGraph::instantiate(diamond(), &model).unwrap();
        let mut rt = GpuRuntime::new(model);
        let mut dev = DeviceMemory::new(4, 0, 0, 6, 0);
        let mut scratch = Scratch::new();
        let t = rt.run_cycle(
            &g,
            ExecMode::Graph,
            &mut dev,
            &mut scratch,
            0,
            4,
            1_000_000,
            None,
        );
        assert!(t.cpu_end > 1_000_000);
        assert!(t.gpu_end > 1_000_000);
    }

    #[test]
    fn trace_records_kernels() {
        let model = GpuModel::default();
        let g = CudaGraph::instantiate(diamond(), &model).unwrap();
        let mut rt = GpuRuntime::new(model);
        let mut dev = DeviceMemory::new(4, 0, 0, 6, 0);
        let mut scratch = Scratch::new();
        let mut trace = Trace::new();
        rt.run_cycle(
            &g,
            ExecMode::Graph,
            &mut dev,
            &mut scratch,
            0,
            4,
            0,
            Some(&mut trace),
        );
        assert_eq!(trace.intervals("gpu").len(), 4);
    }

    #[test]
    fn instantiation_cost_scales_with_nodes() {
        let model = GpuModel::default();
        let g = CudaGraph::instantiate(diamond(), &model).unwrap();
        assert_eq!(g.instantiate_ns, 4 * model.launch.graph_instantiate_node_ns);
    }
}
