//! rtlflow-autotune: profile-guided search over exec/partition/fuse
//! configs with a persistent tuned-artifact cache.
//!
//! The GPU-flow papers pick one launch configuration per design by hand;
//! this crate searches for it instead. A [`tune`] run probes candidate
//! configurations — worker threads + lane chunk + block size
//! ([`cudasim::ExecConfig`]), fuser thresholds ([`cudasim::FuseConfig`]),
//! and partition shape ([`PartSpec`]) — with short seeded benchmark runs
//! against the real executor, walks the space with simulated annealing
//! under a probe/wall-clock budget, and persists the winner as a
//! versioned [`TunedArtifact`] keyed by [`rtlir::design_hash`].
//!
//! Production subsystems consult the cache on engine-cache fill through
//! [`TunePolicy`]: `serve`'s warm engine cache, `shard`'s device pool and
//! the `cluster` worker all call [`prepare_with_policy`], so a design
//! tuned once is simulated with its tuned config everywhere, with no
//! config changes. Every searched dimension is semantics-preserving, so
//! tuned results stay bit-identical to the scalar reference; a corrupt or
//! stale cache entry degrades to the default config, never to a wrong
//! result.

pub mod artifact;
pub mod cache;
pub mod probe;
pub mod rng;
pub mod search;

pub use artifact::{PartSpec, TunedArtifact, ARTIFACT_VERSION};
pub use cache::{CacheStats, TuneCache, TunePolicy, CACHE_DIR_ENV};
pub use probe::{Candidate, ProbeHarness, ProbeSettings};
pub use rng::SmallRng;
pub use search::{tune, CostSource, ProbeRecord, TuneConfig, TuneReport};

use cudasim::{CudaGraph, ExecConfig, GpuModel};
use rtlir::{Design, RtlGraph};
use transpile::KernelProgram;

/// Build the program + CUDA graph for a design under a tuned artifact's
/// partition and fuse settings (the artifact's exec config is applied at
/// run time by the caller, not here).
pub fn prepare_tuned(
    design: &Design,
    model: &GpuModel,
    artifact: &TunedArtifact,
) -> Result<(KernelProgram, CudaGraph), String> {
    let graph = RtlGraph::build(design).map_err(|e| format!("{e}"))?;
    let part = artifact.partition.materialize(design, &graph);
    let program = KernelProgram::build_with(design, &graph, &part, &artifact.fuse)?;
    let cuda = program.instantiate(model)?;
    Ok((program, cuda))
}

/// Engine-cache fill path: consult the tuned-artifact cache under
/// `policy`, build with the tuned config on a hit, and fall back to the
/// default build when there is no artifact *or the tuned build fails*
/// (a stale artifact must never take an engine down). Returns the build
/// plus the artifact actually applied (`None` = default config).
pub fn prepare_with_policy(
    design: &Design,
    model: &GpuModel,
    policy: &TunePolicy,
) -> (
    Result<(KernelProgram, CudaGraph), String>,
    Option<TunedArtifact>,
) {
    if let Some(artifact) = policy.lookup(rtlir::design_hash(design)) {
        if let Ok(built) = prepare_tuned(design, model, &artifact) {
            return (Ok(built), Some(artifact));
        }
    }
    (pipeline::prepare(design, model), None)
}

/// Resolve the exec config an engine should run with: the artifact's
/// tuned exec, unless the operator explicitly configured a non-default
/// exec (an explicit choice always wins over the cache).
pub fn resolve_exec(configured: ExecConfig, tuned: Option<&TunedArtifact>) -> ExecConfig {
    match tuned {
        Some(a) if configured == ExecConfig::default() => a.exec,
        _ => configured,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use designs::{Benchmark, NvdlaScale};

    #[test]
    fn policy_off_uses_default_build() {
        let design = Benchmark::Nvdla(NvdlaScale::Tiny).elaborate().unwrap();
        let model = GpuModel::default();
        let (built, tuned) = prepare_with_policy(&design, &model, &TunePolicy::Off);
        assert!(built.is_ok());
        assert!(tuned.is_none());
    }

    #[test]
    fn tuned_artifact_flows_through_prepare() {
        let design = Benchmark::Nvdla(NvdlaScale::Tiny).elaborate().unwrap();
        let model = GpuModel::default();
        let dir = std::env::temp_dir().join(format!("rtlflow-tune-flow-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = TuneConfig {
            seed: 3,
            max_probes: 6,
            cost: CostSource::Static,
            probe: ProbeSettings {
                num_stimulus: 64,
                cycles: 2,
                stim_seed: 7,
            },
            ..TuneConfig::default()
        };
        let report = tune(&design, "tiny", &cfg).unwrap();
        TuneCache::at(&dir).store(&report.artifact).unwrap();
        let (built, tuned) = prepare_with_policy(&design, &model, &TunePolicy::Dir(dir.clone()));
        assert!(built.is_ok());
        assert_eq!(tuned.unwrap(), report.artifact);
    }

    #[test]
    fn explicit_exec_beats_tuned_exec() {
        let art = TunedArtifact {
            design_hash: 1,
            design_name: "x".into(),
            exec: ExecConfig::default().with_lane_chunk(1024),
            fuse: cudasim::FuseConfig::default(),
            partition: PartSpec::PerLevel,
            seed: 0,
            probes: 1,
            baseline: 1.0,
            best_score: 2.0,
        };
        assert_eq!(
            resolve_exec(ExecConfig::default(), Some(&art)),
            art.exec,
            "default config defers to the artifact"
        );
        let explicit = ExecConfig::scalar();
        assert_eq!(resolve_exec(explicit, Some(&art)), explicit);
        assert_eq!(
            resolve_exec(ExecConfig::default(), None),
            ExecConfig::default()
        );
    }
}
