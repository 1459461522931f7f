//! In-process K-part co-simulation.
//!
//! Runs every part in one address space with the exact per-cycle
//! protocol the cluster uses — poke inputs, run `pre`, apply the
//! previous cycle's boundary payloads, run `mid`, extract exports, run
//! `post`; after the final cycle apply the last exports and `refresh` —
//! so the determinism tests and the CLI verify path exercise the same
//! codec and phase split as the distributed mode, minus the sockets.

use crate::engine::PartEngine;
use cudasim::{ExecConfig, Scratch};
use partition::PartitionSpec;
use rtlir::{Design, RtlGraph};
use stimulus::{PortMap, StimulusSource};

/// Fold one stimulus's parent-ordered output values into the digest the
/// monolithic path computes (`MemoryPlan::output_digest`): FNV-1a over
/// the output list.
pub fn fold_digest(outputs: &[u64]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &o in outputs {
        h ^= o;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Simulate `cycles` cycles of `source` against `design` cut into `k`
/// parts, in groups of `group_size` stimuli. Returns per-stimulus output
/// digests, bit-identical to `Flow::simulate`.
pub fn simulate_modelpar(
    design: &Design,
    source: &dyn StimulusSource,
    cycles: u64,
    k: usize,
    exec: &ExecConfig,
    group_size: usize,
) -> Result<Vec<u64>, String> {
    let graph = RtlGraph::build(design).map_err(|e| e.to_string())?;
    let spec = PartitionSpec::compute(design, &graph, k)?;
    let engines: Vec<PartEngine> = (0..k)
        .map(|p| PartEngine::build(design, &spec, p))
        .collect::<Result<_, _>>()?;

    let map = PortMap::from_design(design);
    let lanes = map.len();
    if source.num_ports() != lanes {
        return Err(format!(
            "stimulus provides {} ports, design wants {lanes}",
            source.num_ports()
        ));
    }
    let n = source.num_stimulus();
    let group_size = group_size.max(1);
    let mut digests = vec![0u64; n];
    let mut cols = Vec::new();
    let mut scratch = Scratch::new();

    let mut tid0 = 0usize;
    while tid0 < n {
        let len = group_size.min(n - tid0);
        cols.resize(lanes * len, 0);
        let mut devs: Vec<_> = engines
            .iter()
            .map(|e| e.program.plan.alloc_device(len))
            .collect();
        // Exports extracted at the end of the previous cycle, per part.
        let mut in_flight: Vec<Option<Vec<u8>>> = vec![None; k];

        for c in 0..cycles {
            // One fill per (group, cycle), shared by every part.
            source.fill_columns(c, tid0, len, len, &mut cols);
            for (e, dev) in engines.iter().zip(devs.iter_mut()) {
                let vars = e.sub.parent_inputs.iter().copied();
                e.program.plan.poke_columns(dev, vars, &mut cols, len);
            }
            for (e, dev) in engines.iter().zip(devs.iter_mut()) {
                e.run_phase(&e.pre, dev, &mut scratch, 0, len, exec);
            }
            if c > 0 {
                apply_all(&engines, &mut devs, &in_flight, len)?;
            }
            for (e, dev) in engines.iter().zip(devs.iter_mut()) {
                e.run_phase(&e.mid, dev, &mut scratch, 0, len, exec);
            }
            for (p, (e, dev)) in engines.iter().zip(devs.iter()).enumerate() {
                in_flight[p] = (e.export_codec.num_vars() > 0).then(|| e.extract_exports(dev, len));
            }
            for (e, dev) in engines.iter().zip(devs.iter_mut()) {
                e.run_phase(&e.post, dev, &mut scratch, 0, len, exec);
            }
        }
        // Final settle: apply the last cycle's exports, re-run pass 1 so
        // comb-driven outputs reflect final state everywhere.
        if cycles > 0 {
            apply_all(&engines, &mut devs, &in_flight, len)?;
            for (e, dev) in engines.iter().zip(devs.iter_mut()) {
                if !e.imports.is_empty() {
                    e.run_phase(&e.refresh, dev, &mut scratch, 0, len, exec);
                }
            }
        }

        let mut outs = vec![0u64; design.outputs.len()];
        for s in 0..len {
            for (e, dev) in engines.iter().zip(devs.iter()) {
                for (j, &pos) in e.out_positions.iter().enumerate() {
                    outs[pos] = e.program.plan.peek(dev, e.sub.outputs[j], s);
                }
            }
            digests[tid0 + s] = fold_digest(&outs);
        }
        tid0 += len;
    }
    Ok(digests)
}

fn apply_all(
    engines: &[PartEngine],
    devs: &mut [cudasim::DeviceMemory],
    payloads: &[Option<Vec<u8>>],
    len: usize,
) -> Result<(), String> {
    for (e, dev) in engines.iter().zip(devs.iter_mut()) {
        for link in &e.imports {
            let payload = payloads[link.from]
                .as_ref()
                .ok_or_else(|| format!("part {} sent no boundary payload", link.from))?;
            e.apply_import(link, payload, dev, len)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use designs::Benchmark;
    use stimulus::RandomSource;

    fn check(b: Benchmark, k: usize, n: usize, cycles: u64) {
        let d = b.elaborate().unwrap();
        let map = PortMap::from_design(&d);
        let src = RandomSource::new(&map, n, 0xc0ffee);
        let exec = ExecConfig::default();
        let mono = simulate_modelpar(&d, &src, cycles, 1, &exec, 64).unwrap();
        let cut = simulate_modelpar(&d, &src, cycles, k, &exec, 64).unwrap();
        assert_eq!(mono, cut, "{b:?} k={k} diverged");
    }

    #[test]
    fn handshake_2way_matches_1way() {
        check(Benchmark::Handshake, 2, 96, 24);
    }

    #[test]
    fn riscv_mini_3way_matches_1way() {
        check(Benchmark::RiscvMini, 3, 48, 16);
    }
}
