//! A compiled, phase-split execution engine for one model part.
//!
//! The kernel schedule of a part's [`KernelProgram`] is split by a taint
//! analysis over the boundary imports:
//!
//! * `pre` — pass-1 kernels whose transitive inputs never touch a
//!   boundary import. These are safe to evaluate while the previous
//!   cycle's boundary frame is still in flight (the communication /
//!   compute overlap of the co-simulation protocol).
//! * `mid` — the remaining pass-1 kernels plus ff and commit. Run after
//!   the imports for this cycle are applied.
//! * `post` — the pass-2 re-settle. Its view of remote state is one
//!   cycle stale, which is fine mid-run (pass-1 recomputes every comb
//!   value next cycle) but not at the very end — hence `refresh`.
//! * `refresh` — all pass-1 kernels; run once after the final boundary
//!   application so comb-driven outputs settle against final state
//!   before the digest peeks them.

use crate::boundary::BoundaryCodec;
use crate::subdesign::{build_subdesign, SubDesign};
use cudasim::{DeviceMemory, ExecConfig, Scratch};
use partition::PartitionSpec;
use rtlir::{Design, RtlGraph, VarId};
use transpile::{default_partition, KernelProgram};

/// Decode schedule for boundary frames arriving from one exporter part.
#[derive(Debug, Clone)]
pub struct ImportLink {
    /// Exporting part index.
    pub from: usize,
    /// Codec over the exporter's full boundary-out set.
    pub codec: BoundaryCodec,
    /// Local variable per exporter position; `None` for exported
    /// variables this part does not read.
    pub targets: Vec<Option<VarId>>,
}

/// One part, compiled and ready to co-simulate.
pub struct PartEngine {
    pub part: usize,
    pub sub: SubDesign,
    pub program: KernelProgram,
    /// Hash of the *sub*-design (checkpoint images are tagged with it).
    pub design_hash: u64,
    /// Positions of this part's owned outputs within the parent's
    /// output list (for the digest fold).
    pub out_positions: Vec<usize>,
    /// Codec for this part's own exports (empty boundary set ⇒ no frame).
    pub export_codec: BoundaryCodec,
    pub imports: Vec<ImportLink>,
    pub pre: Vec<usize>,
    pub mid: Vec<usize>,
    pub post: Vec<usize>,
    pub refresh: Vec<usize>,
}

impl PartEngine {
    /// Compile part `part` of `spec`. Pure function of `(design, spec,
    /// part)` — a worker handed only the design source re-derives the
    /// engine the controller planned with.
    pub fn build(design: &Design, spec: &PartitionSpec, part: usize) -> Result<PartEngine, String> {
        let mp = spec
            .parts
            .get(part)
            .ok_or_else(|| format!("part {part} out of range (k={})", spec.k))?;
        let sub = build_subdesign(design, mp, part);
        let graph = RtlGraph::build(&sub.design).map_err(|e| e.to_string())?;
        let partition = default_partition(&sub.design, &graph);
        let program = KernelProgram::build(&sub.design, &graph, &partition)?;
        let design_hash = rtlir::design_hash(&sub.design);

        // Taint: pass-1 tasks transitively reading a boundary import.
        let boundary: std::collections::BTreeSet<VarId> = sub.boundary_in.iter().copied().collect();
        let num_tasks = program.num_tasks;
        let mut tainted = vec![false; num_tasks];
        for (t, nodes) in partition.iter().enumerate() {
            for &n in nodes {
                let p = &sub.design.processes[graph.nodes[n].process];
                if p.reads.iter().any(|v| boundary.contains(v)) {
                    tainted[t] = true;
                }
            }
        }
        for &e in &program.order {
            if e < num_tasks && !tainted[e] {
                tainted[e] = program.graph.deps[e].iter().any(|&d| tainted[d]);
            }
        }

        let ff_idx = num_tasks;
        let commit_idx = num_tasks + 1;
        let mut pre = Vec::new();
        let mut mid = Vec::new();
        let mut post = Vec::new();
        let mut refresh = Vec::new();
        for &e in &program.order {
            if e < num_tasks {
                refresh.push(e);
                if tainted[e] {
                    mid.push(e);
                } else {
                    pre.push(e);
                }
            } else if program.has_seq && (e == ff_idx || e == commit_idx) {
                mid.push(e);
            } else {
                post.push(e);
            }
        }

        let out_positions: Vec<usize> = mp
            .outputs
            .iter()
            .map(|o| design.outputs.iter().position(|p| p == o).unwrap())
            .collect();
        let widths_of =
            |vars: &[VarId]| -> Vec<u32> { vars.iter().map(|&v| design.vars[v].width).collect() };
        let export_codec = BoundaryCodec::new(&widths_of(&mp.boundary_out));
        let my_imports: std::collections::BTreeSet<VarId> =
            mp.boundary_in.iter().copied().collect();
        let mut imports = Vec::new();
        for (q, qp) in spec.parts.iter().enumerate() {
            if q == part || qp.boundary_out.iter().all(|v| !my_imports.contains(v)) {
                continue;
            }
            let targets = qp
                .boundary_out
                .iter()
                .map(|v| {
                    if my_imports.contains(v) {
                        Some(sub.map[*v].expect("imported var pruned"))
                    } else {
                        None
                    }
                })
                .collect();
            imports.push(ImportLink {
                from: q,
                codec: BoundaryCodec::new(&widths_of(&qp.boundary_out)),
                targets,
            });
        }

        Ok(PartEngine {
            part,
            sub,
            program,
            design_hash,
            out_positions,
            export_codec,
            imports,
            pre,
            mid,
            post,
            refresh,
        })
    }

    /// Execute one phase under `exec`. `scratches` must hold at least one
    /// element (one per worker thread for block-parallel execution).
    ///
    /// No bit layout is handed to the engine, so it runs the word-domain
    /// path: the phase split slices the schedule mid-cycle, which the
    /// transposed layout's attach life cycle does not support — and both
    /// paths are bit-identical, so only throughput differs.
    pub fn run_phase(
        &self,
        phase: &[usize],
        dev: &mut DeviceMemory,
        scratches: &mut [Scratch],
        tid0: usize,
        group: usize,
        exec: &ExecConfig,
    ) {
        cudasim::run_order(
            &self.program.graph.kernels,
            &self.program.fused,
            None,
            phase,
            dev,
            scratches,
            tid0,
            group,
            exec,
        );
    }

    /// Pack this part's exports for lanes `0..n` of `dev`.
    pub fn extract_exports(&self, dev: &DeviceMemory, n: usize) -> Vec<u8> {
        self.export_codec.pack(n, |vi, lane| {
            self.program.plan.peek(dev, self.sub.boundary_out[vi], lane)
        })
    }

    /// Apply one exporter's payload to lanes `0..n` of `dev`.
    pub fn apply_import(
        &self,
        link: &ImportLink,
        payload: &[u8],
        dev: &mut DeviceMemory,
        n: usize,
    ) -> Result<(), String> {
        link.codec.unpack(payload, n, |vi, lane, value| {
            if let Some(v) = link.targets[vi] {
                self.program.plan.poke(dev, v, lane, value);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use designs::Benchmark;

    #[test]
    fn phases_cover_the_whole_schedule() {
        let d = Benchmark::RiscvMini.elaborate().unwrap();
        let g = RtlGraph::build(&d).unwrap();
        let spec = PartitionSpec::compute(&d, &g, 3).unwrap();
        for p in 0..3 {
            let e = PartEngine::build(&d, &spec, p).unwrap();
            assert_eq!(
                e.pre.len() + e.mid.len() + e.post.len(),
                e.program.order.len(),
                "part {p} phases must partition the schedule"
            );
            assert_eq!(e.refresh.len(), e.program.num_tasks);
            // pre must be closed under task deps (safe to run early).
            let pre: std::collections::BTreeSet<usize> = e.pre.iter().copied().collect();
            for &t in &e.pre {
                for &dep in &e.program.graph.deps[t] {
                    assert!(pre.contains(&dep), "pre task {t} depends on non-pre {dep}");
                }
            }
        }
    }

    #[test]
    fn import_links_mirror_exports() {
        let d = Benchmark::Handshake.elaborate().unwrap();
        let g = RtlGraph::build(&d).unwrap();
        let spec = PartitionSpec::compute(&d, &g, 2).unwrap();
        let engines: Vec<PartEngine> = (0..2)
            .map(|p| PartEngine::build(&d, &spec, p).unwrap())
            .collect();
        for e in &engines {
            for link in &e.imports {
                let exporter = &engines[link.from];
                assert_eq!(link.codec, exporter.export_codec);
                assert!(link.targets.iter().any(Option::is_some));
            }
        }
    }
}
