//! # RTLflow
//!
//! A Rust reproduction of *"From RTL to CUDA: A GPU Acceleration Flow for
//! RTL Simulation with Batch Stimulus"* (Lin et al., ICPP 2022).
//!
//! RTLflow simulates one Design-Under-Test across thousands of
//! independent stimulus simultaneously by transpiling RTL into SIMT
//! kernels (one GPU thread per stimulus) over width-bucketed, coalesced
//! device arrays, partitioning the RTL graph into a CUDA task graph with
//! an MCMC GPU-aware search, executing it as a define-once-run-repeatedly
//! CUDA graph, and overlapping CPU `set_inputs` with GPU evaluation via
//! pipeline scheduling.
//!
//! Because this reproduction targets machines without an A6000 (or any
//! GPU), the CUDA device is a *model*: kernels execute functionally
//! (bit-exact against a golden interpreter) while time advances on a
//! calibrated virtual A6000. See `DESIGN.md` for the substitution map.
//!
//! ## Quickstart
//!
//! ```
//! use rtlflow::{Flow, PartitionStrategy};
//!
//! let verilog = "
//!     module top(input clk, input rst, input [7:0] a, output [7:0] q);
//!       reg [7:0] acc;
//!       always @(posedge clk) begin
//!         if (rst) acc <= 8'd0; else acc <= acc + a;
//!       end
//!       assign q = acc;
//!     endmodule";
//! let flow = Flow::from_verilog(verilog, "top").unwrap();
//! let result = flow.simulate_random(256, 100, 42).unwrap();
//! assert_eq!(result.digests.len(), 256);
//! ```

pub use autotune::{
    tune, CostSource, PartSpec, ProbeSettings, TuneCache, TuneConfig, TunePolicy, TuneReport,
    TunedArtifact,
};
pub use baselines::{CpuModel, EssentModel, EssentSim, VerilatorModel, VerilatorSim};
pub use cluster::{
    run_worker, spawn_worker, ChaosPlan, ClusterConfig, ClusterError, ClusterJobResult,
    ClusterMetrics, Controller, FaultMode, WorkerConfig, WorkerFault, WorkerReport,
};
pub use cudasim::{
    Checkpoint, CheckpointError, CudaGraph, ExecConfig, ExecMode, ExecStats, ExecStrategy,
    FuseStats, GpuModel, LaunchCosts, SlotUniform,
};
pub use designs::{Benchmark, NvdlaConfig, NvdlaScale};
pub use desim::{fmt_duration, Backoff, Time, Trace};
pub use modelpar::{fold_digest, simulate_modelpar, BoundaryCodec, PartEngine};
pub use netlist::{load_design, ImportStats, NetlistError, RewriteStats};
pub use partition::{
    mcmc_partition, static_partition, CutReport, McmcConfig, McmcResult, ModelPart, PartCutRow,
    PartitionSpec,
};
pub use pipeline::{simulate_batch, GroupRunner, HostModel, PipelineConfig, SimResult};
pub use rtlir::{BitVec, Design, Interp};
pub use serve::{
    journal, replay as serve_replay, ClusterBackend, DeadlineClass, JobEvent, JobHandle, JobResult,
    JobSpec, Journal, JournalEvent, JournalRecord, PendingJob, Rejected, ServeConfig, ServeMetrics,
    SimService, SubmitError, TraceConfig, TraceReport,
};
pub use shard::{
    model_shard_batch, shard_batch, shard_batch_jobs, DevicePool, DeviceReport, DeviceSpec,
    FaultSpec, ShardConfig, ShardJobResult, ShardMetrics, ShardResult,
};
pub use stimulus::{PortMap, RandomSource, RiscvSource, SliceSource, StimulusSource};
pub use transpile::{emit_cpp, emit_cuda, CodeMetrics, KernelProgram, Partition};

pub mod cli;

use rtlir::RtlGraph;

/// How the RTL graph is partitioned into GPU kernels.
#[derive(Debug, Clone)]
pub enum PartitionStrategy {
    /// One task per levelization level (the transpiler default).
    PerLevel,
    /// One task per combinational process (maximum kernel concurrency).
    PerProcess,
    /// Verilator-style hard-coded weights with parallelism parameter α
    /// (`RTLflow¬g` in Table 3).
    Static { alpha: usize },
    /// The paper's GPU-aware MCMC search (Algorithm 1).
    Mcmc(McmcConfig),
}

impl PartitionStrategy {
    fn partition(
        &self,
        design: &Design,
        graph: &RtlGraph,
        model: &GpuModel,
    ) -> Result<Partition, String> {
        Ok(match self {
            PartitionStrategy::PerLevel => transpile::default_partition(design, graph),
            PartitionStrategy::PerProcess => transpile::per_process_partition(design, graph),
            PartitionStrategy::Static { alpha } => static_partition(design, graph, *alpha),
            PartitionStrategy::Mcmc(cfg) => mcmc_partition(design, graph, model, cfg)?.partition,
        })
    }
}

/// Transpilation statistics (Table 1 rows).
#[derive(Debug, Clone)]
pub struct TranspileReport {
    /// Verilog source lines.
    pub verilog_loc: usize,
    /// AST node count.
    pub ast_nodes: usize,
    /// Emitted Verilator-style C++ metrics.
    pub cpp: CodeMetrics,
    /// Emitted CUDA metrics.
    pub cuda: CodeMetrics,
    /// Wall-clock transpilation time.
    pub t_trans: std::time::Duration,
}

/// The end-to-end flow object: parse → elaborate → partition → transpile
/// → instantiate → simulate.
pub struct Flow {
    pub design: Design,
    pub graph_info: RtlGraph,
    pub program: KernelProgram,
    pub cuda: CudaGraph,
    pub model: GpuModel,
    pub partition: Partition,
}

impl Flow {
    /// Build a flow from Verilog source with the default partition and
    /// the default (A6000) GPU model.
    pub fn from_verilog(src: &str, top: &str) -> Result<Flow, String> {
        let design = rtlir::elaborate(src, top).map_err(|e| e.to_string())?;
        Flow::from_design(design, PartitionStrategy::PerLevel, GpuModel::default())
    }

    /// Build a flow from design source in either frontend format
    /// (Verilog subset or Yosys JSON netlist, auto-detected).
    pub fn from_source(src: &str, top: &str) -> Result<Flow, String> {
        let design = netlist::load_design(src, top).map_err(|e| e.to_string())?;
        Flow::from_design(design, PartitionStrategy::PerLevel, GpuModel::default())
    }

    /// Build a flow for one of the paper's benchmark designs.
    pub fn from_benchmark(b: Benchmark) -> Result<Flow, String> {
        let design = b.elaborate().map_err(|e| e.to_string())?;
        Flow::from_design(design, PartitionStrategy::PerLevel, GpuModel::default())
    }

    /// Build a flow from an elaborated design with explicit strategy/model.
    pub fn from_design(
        design: Design,
        strategy: PartitionStrategy,
        model: GpuModel,
    ) -> Result<Flow, String> {
        let graph = RtlGraph::build(&design).map_err(|e| e.to_string())?;
        let partition = strategy.partition(&design, &graph, &model)?;
        let program = KernelProgram::build(&design, &graph, &partition)?;
        let cuda = program.instantiate(&model)?;
        Ok(Flow {
            design,
            graph_info: graph,
            program,
            cuda,
            model,
            partition,
        })
    }

    /// Re-partition an existing flow (cheaper than rebuilding the design).
    pub fn repartition(&mut self, strategy: PartitionStrategy) -> Result<(), String> {
        let partition = strategy.partition(&self.design, &self.graph_info, &self.model)?;
        self.program = KernelProgram::build(&self.design, &self.graph_info, &partition)?;
        self.cuda = self.program.instantiate(&self.model)?;
        self.partition = partition;
        Ok(())
    }

    /// Ordered input port map (what a stimulus drives).
    pub fn port_map(&self) -> PortMap {
        PortMap::from_design(&self.design)
    }

    /// The port map, once `source` is known to drive it: one lane per
    /// port, at least one stimulus.
    fn checked_port_map(&self, source: &dyn StimulusSource) -> Result<PortMap, String> {
        let map = self.port_map();
        if source.num_ports() != map.len() {
            return Err(format!(
                "stimulus has {} lanes but design drives {} ports",
                source.num_ports(),
                map.len()
            ));
        }
        if source.num_stimulus() == 0 {
            return Err("stimulus batch is empty".to_string());
        }
        Ok(map)
    }

    /// Simulate a batch with explicit source and pipeline configuration.
    pub fn simulate(
        &self,
        source: &dyn StimulusSource,
        cycles: u64,
        cfg: &PipelineConfig,
    ) -> Result<SimResult, String> {
        let map = self.checked_port_map(source)?;
        Ok(simulate_batch(
            &self.design,
            &self.program,
            &self.cuda,
            &map,
            source,
            cycles,
            cfg,
            &self.model,
        ))
    }

    /// Simulate a batch across a multi-device pool with elastic work
    /// stealing. Digests are bit-identical to [`Flow::simulate`] for any
    /// pool shape, speed mix, or injected fault schedule.
    pub fn simulate_sharded(
        &self,
        source: &dyn StimulusSource,
        cycles: u64,
        cfg: &ShardConfig,
        pool: &DevicePool,
    ) -> Result<ShardResult, String> {
        let map = self.checked_port_map(source)?;
        Ok(shard_batch(
            &self.design,
            &self.program,
            &self.cuda,
            &map,
            source,
            cycles,
            cfg,
            pool,
        ))
    }

    /// Simulate `n` random stimulus for `cycles` cycles (idiomatic source
    /// per design: constrained RISC-V streams, NVDLA protocol, or pure
    /// random).
    pub fn simulate_random(&self, n: usize, cycles: u64, seed: u64) -> Result<SimResult, String> {
        let map = self.port_map();
        let source = stimulus::source_for(&self.design, &map, n, seed);
        self.simulate(source.as_ref(), cycles, &PipelineConfig::default())
    }

    /// Verify `sample` stimulus against the golden interpreter for
    /// `cycles` cycles; returns the number of compared waveform points.
    pub fn verify_against_golden(
        &self,
        source: &dyn StimulusSource,
        cycles: u64,
        sample: usize,
    ) -> Result<usize, String> {
        let map = self.port_map();
        let result = self.simulate(source, cycles, &PipelineConfig::default())?;
        let mut compared = 0;
        let step = (source.num_stimulus() / sample.max(1)).max(1);
        let mut frame = vec![0u64; map.len()];
        for s in (0..source.num_stimulus()).step_by(step) {
            let mut interp = Interp::new(&self.design).map_err(|e| e.to_string())?;
            for c in 0..cycles {
                source.fill_frame(s, c, &mut frame);
                interp.step_cycle(&map.to_pokes(&frame));
            }
            if result.digests[s] != interp.output_digest() {
                return Err(format!("stimulus {s} diverged from the golden reference"));
            }
            compared += 1;
        }
        Ok(compared)
    }

    /// Transpilation statistics for Table 1.
    pub fn transpile_report(src: &str, top: &str) -> Result<TranspileReport, String> {
        let t0 = std::time::Instant::now();
        let unit = rtlir::parse(src).map_err(|e| e.to_string())?;
        let ast_nodes = unit.count_nodes();
        let design = rtlir::elaborate(src, top).map_err(|e| e.to_string())?;
        let program = transpile::transpile(&design)?;
        let (_, cuda) = emit_cuda(&design, &program);
        let t_trans = t0.elapsed();
        let (_, cpp) = emit_cpp(&design);
        let verilog_loc = src.lines().filter(|l| !l.trim().is_empty()).count();
        Ok(TranspileReport {
            verilog_loc,
            ast_nodes,
            cpp,
            cuda,
            t_trans,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_flow_runs() {
        let verilog = "
            module top(input clk, input rst, input [7:0] a, output [7:0] q);
              reg [7:0] acc;
              always @(posedge clk) begin
                if (rst) acc <= 8'd0; else acc <= acc + a;
              end
              assign q = acc;
            endmodule";
        let flow = Flow::from_verilog(verilog, "top").unwrap();
        let result = flow.simulate_random(64, 50, 1).unwrap();
        assert_eq!(result.digests.len(), 64);
        assert!(result.makespan > 0);
    }

    #[test]
    fn strategies_agree_functionally() {
        let flow = Flow::from_benchmark(Benchmark::RiscvMini).unwrap();
        let map = flow.port_map();
        let src = RiscvSource::new(&map, 16, 99);
        let cfg = PipelineConfig::default();
        let base = flow.simulate(&src, 30, &cfg).unwrap();

        for strat in [
            PartitionStrategy::PerProcess,
            PartitionStrategy::Static { alpha: 4 },
        ] {
            let mut f2 = Flow::from_benchmark(Benchmark::RiscvMini).unwrap();
            f2.repartition(strat).unwrap();
            let r2 = f2.simulate(&src, 30, &cfg).unwrap();
            assert_eq!(base.digests, r2.digests);
        }
    }

    #[test]
    fn verify_against_golden_passes() {
        let flow = Flow::from_benchmark(Benchmark::RiscvMini).unwrap();
        let map = flow.port_map();
        let src = RiscvSource::new(&map, 8, 5);
        let compared = flow.verify_against_golden(&src, 25, 4).unwrap();
        assert!(compared >= 4);
    }

    #[test]
    fn lane_mismatch_is_rejected() {
        let flow = Flow::from_benchmark(Benchmark::RiscvMini).unwrap();
        let other = Flow::from_benchmark(Benchmark::Nvdla(NvdlaScale::Tiny)).unwrap();
        let src = stimulus::NvdlaSource::new(&other.port_map(), 4, 1);
        assert!(flow.simulate(&src, 5, &PipelineConfig::default()).is_err());
    }

    #[test]
    fn empty_batch_is_rejected() {
        let flow = Flow::from_benchmark(Benchmark::RiscvMini).unwrap();
        let src = RiscvSource::new(&flow.port_map(), 0, 1);
        assert!(flow.simulate(&src, 5, &PipelineConfig::default()).is_err());
        let pool = DevicePool::uniform(flow.model.clone(), 2);
        assert!(flow
            .simulate_sharded(&src, 5, &ShardConfig::default(), &pool)
            .is_err());
    }

    #[test]
    fn transpile_report_counts() {
        let r = Flow::transpile_report(&Benchmark::RiscvMini.source(), "riscv_mini").unwrap();
        assert!(r.verilog_loc > 100);
        assert!(r.ast_nodes > 500);
        assert!(r.cuda.loc > r.cpp.loc / 2);
        assert!(r.cuda.cc_avg < r.cpp.cc_avg);
    }
}
