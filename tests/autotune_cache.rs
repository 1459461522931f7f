//! Integration tests for the autotune subsystem, end to end across
//! crates:
//!
//! * the tuned-artifact cache round-trips through disk and is keyed by
//!   `rtlir::design_hash`, which must be stable across reimports of the
//!   same benchmark,
//! * corrupt, truncated, or mis-keyed cache entries are silently
//!   rejected (counted, never panicking, never changing results),
//! * a tuning run under the static cost model is bit-for-bit
//!   reproducible: same seed and budget give the same probe trajectory
//!   and the same winner, and
//! * every winning configuration is semantics-preserving — the tuned
//!   program reproduces the scalar reference's full device state on all
//!   benchmark designs.

use autotune::{prepare_tuned, CostSource, TuneCache, TuneConfig, TunePolicy, TunedArtifact};
use cudasim::{ExecConfig, Scratch};
use rtlflow::{tune, Benchmark, Flow, NvdlaScale, PortMap};
use std::path::PathBuf;

/// A unique scratch directory per test (cleaned up by the OS).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("rtlflow-tune-test-{}-{}", std::process::id(), tag));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sample_artifact(hash: u64) -> TunedArtifact {
    TunedArtifact {
        design_hash: hash,
        design_name: "sample".into(),
        exec: ExecConfig::default().with_lane_chunk(512),
        fuse: cudasim::FuseConfig {
            const_fold_min_ops: 4,
            superop_min_ops: 16,
        },
        partition: autotune::PartSpec::MergedLevels(3),
        seed: 7,
        probes: 12,
        baseline: 1.0e6,
        best_score: 1.3e6,
    }
}

#[test]
fn design_hash_is_stable_across_reimports() {
    let a = Flow::from_benchmark(Benchmark::RiscvMini).unwrap();
    let b = Flow::from_benchmark(Benchmark::RiscvMini).unwrap();
    assert_eq!(
        rtlir::design_hash(&a.design),
        rtlir::design_hash(&b.design),
        "reimporting the same benchmark must hash identically"
    );
    let c = Flow::from_benchmark(Benchmark::Spinal).unwrap();
    assert_ne!(
        rtlir::design_hash(&a.design),
        rtlir::design_hash(&c.design),
        "distinct designs must not collide on the cache key"
    );
}

#[test]
fn cache_round_trips_and_policies_resolve() {
    let dir = scratch_dir("roundtrip");
    let cache = TuneCache::at(&dir);
    let art = sample_artifact(0xfeed_beef_dead_cafe);
    let path = cache.store(&art).unwrap();
    assert!(path.exists());

    let loaded = cache.load(art.design_hash).expect("stored entry loads");
    assert_eq!(loaded, art);

    // Policy resolution: Dir hits the same entry, Off never looks.
    let via_dir = TunePolicy::Dir(dir.clone()).lookup(art.design_hash);
    assert_eq!(via_dir.as_ref(), Some(&art));
    assert!(TunePolicy::Off.lookup(art.design_hash).is_none());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_cache_entries_are_rejected_without_panicking() {
    let dir = scratch_dir("corrupt");
    let cache = TuneCache::at(&dir);
    let art = sample_artifact(0x1234_5678_9abc_def0);
    let path = cache.store(&art).unwrap();
    let pristine = std::fs::read(&path).unwrap();

    // Truncation sweep: every prefix length must be a clean rejection.
    let mut expected_rejected = 0u64;
    for cut in (0..pristine.len()).step_by(7) {
        std::fs::write(&path, &pristine[..cut]).unwrap();
        assert!(
            cache.load(art.design_hash).is_none(),
            "truncated at {cut} bytes must not load"
        );
        expected_rejected += 1;
    }

    // Byte-flip sweep: the checksum trailer must catch every flip.
    for pos in (0..pristine.len()).step_by(11) {
        let mut bytes = pristine.clone();
        bytes[pos] ^= 0x55;
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            cache.load(art.design_hash).is_none(),
            "byte flip at {pos} must not load"
        );
        expected_rejected += 1;
    }

    // Outright garbage.
    std::fs::write(&path, b"not a tuned artifact at all\n").unwrap();
    assert!(cache.load(art.design_hash).is_none());
    expected_rejected += 1;

    let (_hits, _misses, rejected) = cache.stats.snapshot();
    assert_eq!(
        rejected, expected_rejected,
        "every malformed entry increments the rejected counter"
    );

    // Restore the pristine bytes: the same cache object recovers.
    std::fs::write(&path, &pristine).unwrap();
    assert_eq!(cache.load(art.design_hash), Some(art));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tuning_is_reproducible_and_survives_the_cache() {
    let flow = Flow::from_benchmark(Benchmark::Nvdla(NvdlaScale::Tiny)).unwrap();
    let cfg = TuneConfig {
        seed: 1234,
        max_probes: 10,
        cost: CostSource::Static,
        ..Default::default()
    };
    let a = tune(&flow.design, "nvdla-tiny", &cfg).unwrap();
    let b = tune(&flow.design, "nvdla-tiny", &cfg).unwrap();
    assert_eq!(
        a.trajectory, b.trajectory,
        "same seed and budget must replay the same probe trajectory"
    );
    assert_eq!(a.artifact, b.artifact, "and must elect the same winner");

    // A different seed explores a different trajectory (the specs the
    // annealer visits differ, even if the winner happens to coincide).
    let other = tune(&flow.design, "nvdla-tiny", &TuneConfig { seed: 77, ..cfg }).unwrap();
    let specs = |r: &rtlflow::TuneReport| -> Vec<String> {
        r.trajectory.iter().map(|p| p.spec.clone()).collect()
    };
    assert_ne!(specs(&a), specs(&other));

    // The winner survives a disk round-trip through the cache.
    let dir = scratch_dir("repro");
    let cache = TuneCache::at(&dir);
    cache.store(&a.artifact).unwrap();
    assert_eq!(cache.load(a.artifact.design_hash), Some(a.artifact));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A tuned artifact's fuse thresholds are the ones a run executes and
/// reports: `simulate_batch` runs the tuned program's own fused kernels,
/// not a default-threshold re-fuse of its task graph.
#[test]
fn tuned_fuse_thresholds_reach_simulate_batch() {
    let flow = Flow::from_benchmark(Benchmark::RiscvMini).unwrap();
    let artifact = TunedArtifact {
        fuse: cudasim::FuseConfig {
            const_fold_min_ops: usize::MAX,
            superop_min_ops: usize::MAX,
        },
        partition: autotune::PartSpec::PerLevel,
        ..sample_artifact(rtlir::design_hash(&flow.design))
    };
    let (program, graph) = prepare_tuned(&flow.design, &flow.model, &artifact).unwrap();
    assert_ne!(
        program.exec_stats().fuse,
        flow.program.exec_stats().fuse,
        "the thresholds must change what the fuser does"
    );
    let map = PortMap::from_design(&flow.design);
    let source = stimulus::source_for(&flow.design, &map, 24, 0x7e57);
    let cfg = rtlflow::PipelineConfig {
        group_size: 16,
        ..Default::default()
    };
    let tuned = rtlflow::simulate_batch(
        &flow.design,
        &program,
        &graph,
        &map,
        source.as_ref(),
        10,
        &cfg,
        &flow.model,
    );
    assert_eq!(tuned.exec.fuse, program.exec_stats().fuse);
    let default = flow.simulate(source.as_ref(), 10, &cfg).unwrap();
    assert_eq!(tuned.digests, default.digests);
}

/// Every benchmark design: tune under the static cost model, rebuild the
/// winning configuration with `prepare_tuned`, and drive both it and the
/// untuned scalar reference with identical stimulus. The full device
/// state — every design variable, every memory word, every lane — must
/// match every cycle.
#[test]
fn tuned_configs_are_bit_identical_to_scalar_reference() {
    for (b, seed) in [
        (Benchmark::RiscvMini, 11u64),
        (Benchmark::Spinal, 22),
        (Benchmark::Nvdla(NvdlaScale::Tiny), 33),
        (Benchmark::Picorv32, 44),
    ] {
        let flow = Flow::from_benchmark(b).unwrap();
        let report = tune(
            &flow.design,
            b.name(),
            &TuneConfig {
                seed,
                max_probes: 8,
                cost: CostSource::Static,
                ..Default::default()
            },
        )
        .unwrap();
        let (tuned_prog, _) = prepare_tuned(&flow.design, &flow.model, &report.artifact).unwrap();

        let map = PortMap::from_design(&flow.design);
        let n = 16usize;
        let cycles = 12u64;
        let source = stimulus::source_for(&flow.design, &map, n, 0x7e57);
        let mut frame = vec![0u64; map.len()];

        let mut dev_ref = flow.program.plan.alloc_device(n);
        let mut dev_tuned = tuned_prog.plan.alloc_device(n);
        let mut scratch_ref = vec![Scratch::new()];
        let exec = report.artifact.exec;
        let mut scratch_tuned = exec.scratch_pool();

        for c in 0..cycles {
            for s in 0..n {
                source.fill_frame(s, c, &mut frame);
                for (lane, port) in map.ports.iter().enumerate() {
                    flow.program
                        .plan
                        .poke(&mut dev_ref, port.var, s, frame[lane]);
                    tuned_prog
                        .plan
                        .poke(&mut dev_tuned, port.var, s, frame[lane]);
                }
            }
            flow.program.run_cycle_exec(
                &mut dev_ref,
                &mut scratch_ref,
                0,
                n,
                &ExecConfig::scalar(),
            );
            tuned_prog.run_cycle_exec(&mut dev_tuned, &mut scratch_tuned, 0, n, &exec);

            // The two programs may lay memory out differently (the tuned
            // partition can differ), so compare through each plan.
            for (var, v) in flow.design.vars.iter().enumerate() {
                let words = if v.is_memory() { v.depth } else { 1 };
                for idx in 0..words {
                    for tid in 0..n {
                        let (r, t) = if v.is_memory() {
                            (
                                flow.program.plan.peek_mem(&dev_ref, var, idx, tid),
                                tuned_prog.plan.peek_mem(&dev_tuned, var, idx, tid),
                            )
                        } else {
                            (
                                flow.program.plan.peek(&dev_ref, var, tid),
                                tuned_prog.plan.peek(&dev_tuned, var, tid),
                            )
                        };
                        assert_eq!(
                            r,
                            t,
                            "{}: tuned config `{}` diverged on var {} `{}` word {idx} \
                             lane {tid} at cycle {c}",
                            b.name(),
                            report
                                .trajectory
                                .last()
                                .map(|p| p.spec.as_str())
                                .unwrap_or(""),
                            var,
                            v.name,
                        );
                    }
                }
            }
        }
    }
}
