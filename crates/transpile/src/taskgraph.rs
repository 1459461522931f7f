//! Task-graph code transpilation: partitioned kernels + the per-cycle
//! CUDA task graph (§3.2).
//!
//! A *partition* groups combinational RTL-graph nodes into macro tasks;
//! each task becomes one `__global__` kernel. The full per-cycle graph is
//!
//! ```text
//!   [comb tasks, pass 1] -> ff -> commit -> [comb tasks, pass 2]
//! ```
//!
//! mirroring Listing 1's two `evaluate()` calls per cycle (falling and
//! rising clock edge): pass 1 settles combinational logic so flip-flops
//! capture their inputs; `ff` computes every non-blocking assignment into
//! shadow slots; `commit` copies shadows to current; pass 2 settles the
//! post-edge state that outputs are sampled from.

use std::collections::{HashMap, HashSet};

use cudasim::fuse::fuse_graph_with;
use cudasim::{
    execute_ordered, BitLayout, CudaGraph, DeviceMemory, ExecConfig, ExecStats, FuseConfig,
    FusedKernel, GpuModel, Kernel, Scratch, SlotUniform, TaskGraphIr, DEFAULT_LANE_CHUNK,
};
use rtlir::graph::NodeId;
use rtlir::{Design, ProcessKind, RtlGraph};

use crate::lower::{lower_commit, lower_process};
use crate::mem::MemoryPlan;

/// A partition of the combinational RTL-graph nodes into macro tasks.
pub type Partition = Vec<Vec<NodeId>>;

/// One task per levelization level — the transpiler's default.
pub fn default_partition(_design: &Design, graph: &RtlGraph) -> Partition {
    let depth = graph.depth() as usize;
    let mut tasks: Partition = vec![Vec::new(); depth];
    for &n in &graph.comb_order {
        tasks[graph.nodes[n].level as usize].push(n);
    }
    tasks.retain(|t| !t.is_empty());
    tasks
}

/// One task per combinational node — maximum kernel concurrency,
/// maximum launch overhead.
pub fn per_process_partition(_design: &Design, graph: &RtlGraph) -> Partition {
    graph.comb_order.iter().map(|&n| vec![n]).collect()
}

/// The transpiled program: memory plan + per-cycle kernel task graph.
#[derive(Debug, Clone)]
pub struct KernelProgram {
    pub plan: MemoryPlan,
    pub graph: TaskGraphIr,
    /// Cached topological order of `graph`.
    pub order: Vec<usize>,
    /// Number of combinational tasks (pass 1 == pass 2 count).
    pub num_tasks: usize,
    /// Whether the design has sequential logic (ff/commit/pass-2 kernels).
    pub has_seq: bool,
    /// Uniform-slot analysis: slots provably identical across all N
    /// stimulus (design inputs are the non-uniform roots).
    pub uniform: SlotUniform,
    /// Fused per-kernel programs (built once here, cached for every cycle).
    pub fused: Vec<FusedKernel>,
    /// Bit-transposed layout of the design (1-bit control signals packed
    /// 64 stimuli per word). Zero planes on a design with no bit-domain
    /// logic, which then runs `fused` over the whole order.
    pub bit: BitLayout,
}

impl KernelProgram {
    /// Build the program for `design` under `partition`.
    pub fn build(
        design: &Design,
        graph: &RtlGraph,
        partition: &Partition,
    ) -> Result<KernelProgram, String> {
        KernelProgram::build_with(design, graph, partition, &FuseConfig::default())
    }

    /// [`KernelProgram::build`] with explicit fuser thresholds (the
    /// autotuner's entry point; thresholds are semantics-preserving).
    pub fn build_with(
        design: &Design,
        graph: &RtlGraph,
        partition: &Partition,
        fuse_cfg: &FuseConfig,
    ) -> Result<KernelProgram, String> {
        let plan = MemoryPlan::build(design)?;
        check_partition(graph, partition)?;
        check_seq_memory_hazard(design)?;

        // Map comb node -> task.
        let mut task_of: HashMap<NodeId, usize> = HashMap::new();
        for (t, nodes) in partition.iter().enumerate() {
            for &n in nodes {
                task_of.insert(n, t);
            }
        }

        // Lower each task: processes in levelized order, registers reused
        // across processes (cross-process dataflow goes through memory).
        let num_tasks = partition.len();
        let mut kernels: Vec<Kernel> = Vec::with_capacity(num_tasks * 2 + 2);
        let mut order_in_task: Vec<Vec<NodeId>> = vec![Vec::new(); num_tasks];
        for &n in &graph.comb_order {
            order_in_task[task_of[&n]].push(n);
        }
        for (t, nodes) in order_in_task.iter().enumerate() {
            let mut ops = Vec::new();
            let mut regs = 0u16;
            for &n in nodes {
                let mut pops = Vec::new();
                let used = lower_process(design, &plan, graph.nodes[n].process, &mut pops)?;
                regs = regs.max(used);
                ops.extend(pops);
            }
            let mut k = Kernel::new(format!("task_{t}"), ops);
            k.num_regs = k.num_regs.max(regs);
            kernels.push(k);
        }

        // Task-level dependencies from comb node edges.
        let mut deps: Vec<HashSet<usize>> = vec![HashSet::new(); num_tasks];
        for (a, outs) in graph.edges.iter().enumerate() {
            let Some(&ta) = task_of.get(&a) else { continue };
            for &b in outs {
                let Some(&tb) = task_of.get(&b) else { continue };
                if ta != tb {
                    deps[tb].insert(ta);
                }
            }
        }

        let has_seq = !graph.seq_nodes.is_empty();
        let mut graph_ir = TaskGraphIr {
            kernels,
            deps: deps.iter().map(|d| d.iter().copied().collect()).collect(),
        };

        if has_seq {
            // ff kernel: every sequential process, in index order.
            let mut ff_ops = Vec::new();
            let mut ff_regs = 0u16;
            for &n in &graph.seq_nodes {
                let mut pops = Vec::new();
                let used = lower_process(design, &plan, graph.nodes[n].process, &mut pops)?;
                ff_regs = ff_regs.max(used);
                ff_ops.extend(pops);
            }
            let mut ff = Kernel::new("ff", ff_ops);
            ff.num_regs = ff.num_regs.max(ff_regs);

            // ff depends on every pass-1 task that produces one of its
            // reads (a variable can have several slice-writer tasks).
            let mut writer_task: HashMap<usize, Vec<usize>> = HashMap::new();
            for (t, nodes) in order_in_task.iter().enumerate() {
                for &n in nodes {
                    for &w in &design.processes[graph.nodes[n].process].writes {
                        writer_task.entry(w).or_default().push(t);
                    }
                }
            }
            let mut ff_deps: HashSet<usize> = HashSet::new();
            for &n in &graph.seq_nodes {
                for &r in &design.processes[graph.nodes[n].process].reads {
                    for &t in writer_task.get(&r).map(Vec::as_slice).unwrap_or(&[]) {
                        ff_deps.insert(t);
                    }
                }
            }
            let ff_idx = graph_ir.kernels.len();
            graph_ir.kernels.push(ff);
            graph_ir.deps.push(ff_deps.into_iter().collect());

            // commit kernel.
            let mut commit_ops = Vec::new();
            lower_commit(design, &plan, &mut commit_ops);
            let commit_idx = graph_ir.kernels.len();
            graph_ir.kernels.push(Kernel::new("commit", commit_ops));
            graph_ir.deps.push(vec![ff_idx]);

            // Pass 2: clone of pass-1 tasks, entry tasks gated on commit.
            let base = graph_ir.kernels.len();
            for t in 0..num_tasks {
                let mut k = graph_ir.kernels[t].clone();
                k.name = format!("{}_p2", k.name);
                graph_ir.kernels.push(k);
            }
            for dep in deps.iter().take(num_tasks) {
                let mut d: Vec<usize> = dep.iter().map(|&p| base + p).collect();
                if d.is_empty() {
                    d.push(commit_idx);
                }
                graph_ir.deps.push(d);
            }
        }

        let order = graph_ir.topo_order()?;
        for k in &graph_ir.kernels {
            k.validate()?;
        }
        let uniform = SlotUniform::analyze(&graph_ir, plan.lens(), &plan.input_slots(design));
        let fused = fuse_graph_with(&graph_ir, Some(&uniform), fuse_cfg);
        // The word remainder inside the layout must be fused against the
        // *full-graph* uniform analysis (re-analyzing the filtered word
        // kernels would wrongly mark bit-stored slots uniform).
        let bit = BitLayout::compile(
            &graph_ir,
            plan.len8,
            &plan.input_roots(design),
            Some(&uniform),
            fuse_cfg,
        );
        Ok(KernelProgram {
            plan,
            graph: graph_ir,
            order,
            num_tasks,
            has_seq,
            uniform,
            fused,
            bit,
        })
    }

    /// Execute one full cycle functionally (inputs must already be poked).
    ///
    /// Runs the fused + vectorized + uniform-specialized executor — the
    /// default hot path, bit-identical to the scalar reference interpreter
    /// ([`KernelProgram::run_cycle_exec`] under `ExecConfig::scalar()`).
    pub fn run_cycle_functional(
        &self,
        dev: &mut DeviceMemory,
        scratch: &mut Scratch,
        tid0: usize,
        group: usize,
    ) {
        execute_ordered(
            &self.fused,
            &self.order,
            dev,
            scratch,
            tid0,
            group,
            DEFAULT_LANE_CHUNK,
        );
    }

    /// Execute one cycle under `exec`. `scratches` must hold at least one
    /// element (one per worker for block-parallel execution).
    /// Returns the ops computed once as scalars instead of once per lane.
    pub fn run_cycle_exec(
        &self,
        dev: &mut DeviceMemory,
        scratches: &mut [Scratch],
        tid0: usize,
        group: usize,
        exec: &ExecConfig,
    ) -> u64 {
        cudasim::run_order(
            &self.graph.kernels,
            &self.fused,
            Some(&self.bit),
            &self.order,
            dev,
            scratches,
            tid0,
            group,
            exec,
        )
    }

    /// Instantiate this program's task graph as a CUDA graph on `model`.
    pub fn instantiate(&self, model: &GpuModel) -> Result<CudaGraph, String> {
        CudaGraph::instantiate_full(
            self.graph.clone(),
            model,
            Some(self.uniform.clone()),
            Some(self.bit.clone()),
        )
    }

    /// Static fusion + uniform statistics of the cached program.
    pub fn exec_stats(&self) -> ExecStats {
        ExecStats::of(&self.fused, Some(&self.uniform))
    }

    /// Total static ops across all kernels of one cycle.
    pub fn ops_per_cycle(&self) -> u64 {
        self.graph.kernels.iter().map(|k| k.ops.len() as u64).sum()
    }

    /// Largest register demand of any kernel (scratch arena sizing).
    pub fn max_regs(&self) -> u16 {
        self.graph
            .kernels
            .iter()
            .map(|k| k.num_regs)
            .max()
            .unwrap_or(0)
    }
}

/// Every comb node must appear in exactly one task.
fn check_partition(graph: &RtlGraph, partition: &Partition) -> Result<(), String> {
    let mut seen: HashSet<NodeId> = HashSet::new();
    for task in partition {
        for &n in task {
            if n >= graph.nodes.len() || graph.nodes[n].kind != ProcessKind::Comb {
                return Err(format!("partition references non-comb node {n}"));
            }
            if !seen.insert(n) {
                return Err(format!("node {n} appears in multiple tasks"));
            }
        }
    }
    if seen.len() != graph.comb_order.len() {
        return Err(format!(
            "partition covers {} of {} comb nodes",
            seen.len(),
            graph.comb_order.len()
        ));
    }
    Ok(())
}

/// Memories commit in place at the ff stage, so a sequential process must
/// never read a memory that sequential logic writes (the write order
/// inside the ff kernel would leak post-edge values).
fn check_seq_memory_hazard(design: &Design) -> Result<(), String> {
    let mut seq_written_mems: HashSet<usize> = HashSet::new();
    for p in &design.processes {
        if p.kind == ProcessKind::Seq {
            for &w in &p.writes {
                if design.vars[w].is_memory() {
                    seq_written_mems.insert(w);
                }
            }
        }
    }
    for p in &design.processes {
        if p.kind == ProcessKind::Seq {
            for &r in &p.reads {
                if seq_written_mems.contains(&r) {
                    return Err(format!(
                        "sequential process `{}` reads memory `{}` which sequential logic writes; \
                         this ordering hazard is not supported",
                        p.name, design.vars[r].name
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlir::BitVec;

    fn program(src: &str) -> (rtlir::Design, KernelProgram) {
        let d = rtlir::elaborate(src, "top").unwrap();
        let g = RtlGraph::build(&d).unwrap();
        let part = default_partition(&d, &g);
        let p = KernelProgram::build(&d, &g, &part).unwrap();
        (d, p)
    }

    const COUNTER: &str = "
        module top(input clk, input rst, output [7:0] q);
          reg [7:0] r;
          always @(posedge clk) begin
            if (rst) r <= 8'd0; else r <= r + 8'd1;
          end
          assign q = r;
        endmodule";

    #[test]
    fn cycle_graph_shape() {
        let (_, p) = program(COUNTER);
        // 1 comb task x 2 passes + ff + commit.
        assert!(p.has_seq);
        assert_eq!(p.num_tasks, 1);
        assert_eq!(p.graph.kernels.len(), 4);
        let names: Vec<&str> = p.graph.kernels.iter().map(|k| k.name.as_str()).collect();
        assert!(names.contains(&"ff"));
        assert!(names.contains(&"commit"));
        assert!(names.iter().any(|n| n.ends_with("_p2")));
    }

    #[test]
    fn counter_counts_on_device() {
        let (d, p) = program(COUNTER);
        let n = 8;
        let mut dev = p.plan.alloc_device(n);
        let mut scratch = Scratch::new();
        let rst = d.find_var("rst").unwrap();
        let q = d.find_var("q").unwrap();
        for c in 0..10u64 {
            for t in 0..n {
                p.plan.poke(&mut dev, rst, t, (c == 0) as u64);
            }
            p.run_cycle_functional(&mut dev, &mut scratch, 0, n);
        }
        for t in 0..n {
            assert_eq!(p.plan.peek(&dev, q, t), 9);
        }
    }

    #[test]
    fn matches_golden_interpreter_on_random_logic() {
        let src = "
            module top(input clk, input rst, input [15:0] x, output [15:0] y, output [15:0] z);
              reg [15:0] acc;
              reg [15:0] last;
              wire [15:0] mixed = (x ^ {acc[7:0], acc[15:8]}) + 16'd3;
              always @(posedge clk) begin
                if (rst) begin acc <= 16'd0; last <= 16'd0; end
                else begin acc <= acc + mixed; last <= mixed; end
              end
              assign y = acc;
              assign z = last ^ acc;
            endmodule";
        let (d, p) = program(src);
        let mut dev = p.plan.alloc_device(2);
        let mut scratch = Scratch::new();
        let mut interp = rtlir::Interp::new(&d).unwrap();
        let rst = d.find_var("rst").unwrap();
        let x = d.find_var("x").unwrap();
        for c in 0..50u64 {
            let xv = c.wrapping_mul(0x9e37) & 0xffff;
            let rv = (c < 2) as u64;
            for t in 0..2 {
                p.plan.poke(&mut dev, rst, t, rv);
                p.plan.poke(&mut dev, x, t, xv);
            }
            interp.step_cycle(&[
                (rst, BitVec::from_u64(rv, 1)),
                (x, BitVec::from_u64(xv, 16)),
            ]);
            p.run_cycle_functional(&mut dev, &mut scratch, 0, 2);
            assert_eq!(
                p.plan.output_digest(&dev, &d, 0),
                interp.output_digest(),
                "digest diverged at cycle {c}"
            );
            assert_eq!(p.plan.output_digest(&dev, &d, 1), interp.output_digest());
        }
    }

    #[test]
    fn per_process_partition_also_correct() {
        let d = rtlir::elaborate(COUNTER, "top").unwrap();
        let g = RtlGraph::build(&d).unwrap();
        let part = per_process_partition(&d, &g);
        let p = KernelProgram::build(&d, &g, &part).unwrap();
        let mut dev = p.plan.alloc_device(1);
        let mut scratch = Scratch::new();
        let rst = d.find_var("rst").unwrap();
        for c in 0..5u64 {
            p.plan.poke(&mut dev, rst, 0, (c == 0) as u64);
            p.run_cycle_functional(&mut dev, &mut scratch, 0, 1);
        }
        assert_eq!(p.plan.peek(&dev, d.find_var("q").unwrap(), 0), 4);
    }

    #[test]
    fn incomplete_partition_rejected() {
        let d = rtlir::elaborate(COUNTER, "top").unwrap();
        let g = RtlGraph::build(&d).unwrap();
        let err = KernelProgram::build(&d, &g, &vec![]).unwrap_err();
        assert!(err.contains("covers"), "{err}");
    }

    #[test]
    fn duplicate_node_rejected() {
        let d = rtlir::elaborate(COUNTER, "top").unwrap();
        let g = RtlGraph::build(&d).unwrap();
        let n = g.comb_order[0];
        let err = KernelProgram::build(&d, &g, &vec![vec![n], vec![n]]).unwrap_err();
        assert!(err.contains("multiple"), "{err}");
    }

    #[test]
    fn seq_memory_read_write_hazard_rejected() {
        let src = "
            module top(input clk, input [3:0] a, input [7:0] d, output reg [7:0] q);
              reg [7:0] mem [0:15];
              always @(posedge clk) begin
                q <= mem[a];
                mem[a] <= d;
              end
            endmodule";
        let d = rtlir::elaborate(src, "top").unwrap();
        let g = RtlGraph::build(&d).unwrap();
        let part = default_partition(&d, &g);
        let err = KernelProgram::build(&d, &g, &part).unwrap_err();
        assert!(err.contains("ordering hazard"), "{err}");
    }

    #[test]
    fn memory_design_matches_interp() {
        let src = "
            module top(input clk, input we, input [3:0] wa, input [3:0] ra, input [7:0] d, output [7:0] q);
              reg [7:0] mem [0:15];
              assign q = mem[ra];
              always @(posedge clk) if (we) mem[wa] <= d;
            endmodule";
        let (des, p) = program(src);
        let mut dev = p.plan.alloc_device(1);
        let mut scratch = Scratch::new();
        let mut interp = rtlir::Interp::new(&des).unwrap();
        let we = des.find_var("we").unwrap();
        let wa = des.find_var("wa").unwrap();
        let ra = des.find_var("ra").unwrap();
        let dd = des.find_var("d").unwrap();
        for c in 0..40u64 {
            let h = c.wrapping_mul(0x5851f42d4c957f2d);
            let ins = [
                (we, h & 1),
                (wa, (h >> 1) & 15),
                (ra, (h >> 5) & 15),
                (dd, (h >> 9) & 255),
            ];
            for (v, val) in ins {
                p.plan.poke(&mut dev, v, 0, val);
            }
            let pokes: Vec<_> = ins
                .iter()
                .map(|&(v, val)| (v, BitVec::from_u64(val, des.vars[v].width)))
                .collect();
            interp.step_cycle(&pokes);
            p.run_cycle_functional(&mut dev, &mut scratch, 0, 1);
            assert_eq!(
                p.plan.output_digest(&dev, &des, 0),
                interp.output_digest(),
                "cycle {c}"
            );
        }
    }
}
