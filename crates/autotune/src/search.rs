//! The simulated-annealing configuration search.
//!
//! One [`tune`] call probes candidate configs against a [`ProbeHarness`]
//! under a probe-count / wall-clock budget. Proposals mutate one
//! dimension at a time — lane chunk, fuser thresholds, partition shape
//! (per-level, merged levels, or feature-weight packing) — and are
//! accepted with the Metropolis rule so
//! early probes explore and late probes exploit. The proposal stream is
//! driven entirely by a seeded [`SmallRng`], so with the deterministic
//! [`CostSource::Static`] cost model the whole trajectory (and the
//! winner) is a pure function of `(design, seed, budget)`.

use std::time::Instant;

use desim::Json;
use rtlir::Design;

use crate::artifact::{PartSpec, TunedArtifact};
use crate::probe::{Candidate, ProbeHarness, ProbeSettings};
use crate::rng::SmallRng;

/// Where probe scores come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostSource {
    /// Wall-clock measurement against the real executor (the CLI
    /// default; what the paper's flow would do on hardware).
    #[default]
    Measured,
    /// Deterministic cost model — reproducibility tests and CI.
    Static,
}

/// Search budget and shape.
#[derive(Debug, Clone)]
pub struct TuneConfig {
    pub seed: u64,
    /// Probe budget, baseline probe included.
    pub max_probes: u32,
    /// Wall-clock budget in milliseconds; `0` disables the clock bound
    /// (probe count alone limits the run — required for reproducible
    /// trajectories).
    pub budget_ms: u64,
    /// Metropolis inverse temperature: acceptance of a worsening move is
    /// `exp(beta * relative_delta)`.
    pub beta: f64,
    pub probe: ProbeSettings,
    pub cost: CostSource,
    /// Whether partition mutations are in the move set (they force a
    /// re-transpile per probe, the most expensive proposal kind).
    pub search_partition: bool,
}

impl Default for TuneConfig {
    fn default() -> Self {
        TuneConfig {
            seed: 42,
            max_probes: 24,
            budget_ms: 0,
            beta: 12.0,
            probe: ProbeSettings::default(),
            cost: CostSource::Measured,
            search_partition: true,
        }
    }
}

/// One probe in the trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeRecord {
    pub index: u32,
    /// Candidate spec string ([`Candidate::spec`]).
    pub spec: String,
    /// Score in stimulus-cycles/second (pseudo units under `Static`).
    pub score: f64,
    /// Whether the Metropolis rule accepted this candidate as the new
    /// current point.
    pub accepted: bool,
    /// Whether this probe became the best seen so far.
    pub best: bool,
}

/// The full result of one tuning run.
#[derive(Debug, Clone)]
pub struct TuneReport {
    pub artifact: TunedArtifact,
    pub trajectory: Vec<ProbeRecord>,
    pub elapsed_ms: u64,
}

impl TuneReport {
    pub fn to_json(&self) -> Json {
        let a = &self.artifact;
        let probes: Vec<Json> = self
            .trajectory
            .iter()
            .map(|p| {
                Json::obj()
                    .field("probe", p.index as u64)
                    .field("spec", p.spec.as_str())
                    .field("score", p.score)
                    .field("accepted", p.accepted)
                    .field("best", p.best)
            })
            .collect();
        Json::obj()
            .field("design", a.design_name.as_str())
            .field("design_hash", format!("{:016x}", a.design_hash))
            .field("seed", a.seed)
            .field("probes", a.probes as u64)
            .field("elapsed_ms", self.elapsed_ms)
            .field("baseline", a.baseline)
            .field("best_score", a.best_score)
            .field("speedup", a.speedup())
            .field("exec", a.exec.spec())
            .field(
                "fuse",
                format!("{},{}", a.fuse.const_fold_min_ops, a.fuse.superop_min_ops),
            )
            .field("partition", a.partition.spec())
            .field("trajectory", Json::Arr(probes))
    }
}

/// Discrete menus per dimension. Values bracket the defaults by a couple
/// of octaves each way; the search walks these rather than raw integers
/// so every proposal is a sane config.
const LANE_CHUNKS: [usize; 8] = [32, 64, 128, 256, 512, 1024, 2048, 4096];
const FUSE_MIN_OPS: [usize; 5] = [0, 4, 16, 64, 256];
const MERGE_FACTORS: [usize; 8] = [2, 3, 4, 6, 8, 12, 16, 32];

/// Mutate one dimension of `cur`. Always returns a candidate different
/// from `cur` (re-rolls on a no-op draw, bounded).
fn propose(cur: &Candidate, rng: &mut SmallRng, search_partition: bool) -> Candidate {
    for _ in 0..64 {
        let mut next = cur.clone();
        let dims = if search_partition { 4 } else { 3 };
        match rng.gen_index(dims) {
            // Lane chunk, the one exec dimension. The scalar oracle is
            // never proposed: it is the reference, not a contender.
            0 => {
                next.exec.lane_chunk = LANE_CHUNKS[rng.gen_index(LANE_CHUNKS.len())];
            }
            // Const-fold threshold.
            1 => {
                next.fuse.const_fold_min_ops = FUSE_MIN_OPS[rng.gen_index(FUSE_MIN_OPS.len())];
            }
            // Superop threshold.
            2 => {
                next.fuse.superop_min_ops = FUSE_MIN_OPS[rng.gen_index(FUSE_MIN_OPS.len())];
            }
            // Partition shape.
            _ => {
                next.partition = match rng.gen_index(3) {
                    0 => PartSpec::PerLevel,
                    1 => PartSpec::MergedLevels(MERGE_FACTORS[rng.gen_index(MERGE_FACTORS.len())]),
                    _ => {
                        // Feature-weight packing: perturb the current
                        // weights (or start from all-ones) and redraw the
                        // task-count target.
                        let mut weights = match &cur.partition {
                            PartSpec::Weighted { weights, .. } => weights.clone(),
                            _ => vec![1.0; partition::NUM_FEATURES],
                        };
                        let slot = rng.gen_index(weights.len());
                        weights[slot] = (weights[slot] * rng.gen_range(0.25, 4.0)).clamp(0.0, 64.0);
                        let target_tasks = 4 << rng.gen_index(5); // 4..64
                        PartSpec::Weighted {
                            weights,
                            target_tasks,
                        }
                    }
                };
            }
        }
        if next != *cur {
            return next;
        }
    }
    // Statistically unreachable; fall back to a lane-chunk bump.
    let mut next = cur.clone();
    next.exec.lane_chunk = if cur.exec.lane_chunk == 256 { 512 } else { 256 };
    next
}

/// Run the search and return the winner plus its full trajectory. The
/// returned artifact records the *best* candidate (not the final current
/// point) and the baseline score of the untuned default config.
pub fn tune(design: &Design, name: &str, cfg: &TuneConfig) -> Result<TuneReport, String> {
    let t0 = Instant::now();
    let mut harness = ProbeHarness::new(design, cfg.probe)?;
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let score_of = |h: &mut ProbeHarness, c: &Candidate| -> Result<f64, String> {
        match cfg.cost {
            CostSource::Measured => h.measure(c),
            CostSource::Static => h.static_score(c),
        }
    };

    // Probe 0: the untuned baseline.
    let mut cur = Candidate::default();
    let baseline = score_of(&mut harness, &cur)?;
    let mut cur_score = baseline;
    let mut best = cur.clone();
    let mut best_score = baseline;
    let mut trajectory = vec![ProbeRecord {
        index: 0,
        spec: cur.spec(),
        score: baseline,
        accepted: true,
        best: true,
    }];

    let max_probes = cfg.max_probes.max(1);
    let mut visited: Vec<(Candidate, f64)> = Vec::new();
    for i in 1..max_probes {
        if cfg.budget_ms > 0 && t0.elapsed().as_millis() as u64 >= cfg.budget_ms {
            break;
        }
        let cand = propose(&cur, &mut rng, cfg.search_partition);
        // A candidate that fails to build (e.g. a degenerate weighted
        // partition) scores zero: it is recorded, never accepted.
        let score = score_of(&mut harness, &cand).unwrap_or(0.0);
        // Metropolis on relative improvement, maximizing score.
        let rel = (score - cur_score) / cur_score.max(1e-12);
        let accepted = score > 0.0 && (rel >= 0.0 || rng.gen_f64() < (cfg.beta * rel).exp());
        let is_best = score > best_score;
        trajectory.push(ProbeRecord {
            index: i,
            spec: cand.spec(),
            score,
            accepted,
            best: is_best,
        });
        if score > 0.0 {
            visited.push((cand.clone(), score));
        }
        if is_best {
            best = cand.clone();
            best_score = score;
        }
        if accepted {
            cur = cand;
            cur_score = score;
        }
    }

    // Playoff: wall-clock probes are noisy, and a single lucky sample
    // must not elect the winner (nor a slow baseline sample inflate the
    // recorded speedup). Re-measure the strongest distinct candidates
    // and the baseline several times, keep each one's best repeat, and
    // decide from those. Static scores are exact, so the playoff only
    // runs for measured probes — keeping static trajectories a pure
    // function of (design, seed, budget).
    let mut baseline = baseline;
    if cfg.cost == CostSource::Measured && !visited.is_empty() {
        const PLAYOFF_CANDIDATES: usize = 3;
        const PLAYOFF_REPS: usize = 3;
        visited.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut finalists: Vec<Candidate> = Vec::new();
        for (c, _) in &visited {
            if !finalists.contains(c) && *c != Candidate::default() {
                finalists.push(c.clone());
                if finalists.len() == PLAYOFF_CANDIDATES {
                    break;
                }
            }
        }
        let rerun = |h: &mut ProbeHarness, c: &Candidate| -> f64 {
            (0..PLAYOFF_REPS)
                .filter_map(|_| h.measure(c).ok())
                .fold(0.0f64, f64::max)
        };
        baseline = rerun(&mut harness, &Candidate::default()).max(1e-12);
        best = Candidate::default();
        best_score = baseline;
        for (index, cand) in (trajectory.len() as u32..).zip(finalists) {
            let score = rerun(&mut harness, &cand);
            let is_best = score > best_score;
            trajectory.push(ProbeRecord {
                index,
                spec: format!("playoff {}", cand.spec()),
                score,
                accepted: false,
                best: is_best,
            });
            if is_best {
                best = cand;
                best_score = score;
            }
        }
    }

    let artifact = TunedArtifact {
        design_hash: rtlir::design_hash(design),
        design_name: name.to_string(),
        exec: best.exec,
        fuse: best.fuse,
        partition: best.partition,
        seed: cfg.seed,
        probes: trajectory.len() as u32,
        baseline,
        best_score,
    };
    Ok(TuneReport {
        artifact,
        trajectory,
        elapsed_ms: t0.elapsed().as_millis() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use designs::{Benchmark, NvdlaScale};

    fn static_cfg(seed: u64, probes: u32) -> TuneConfig {
        TuneConfig {
            seed,
            max_probes: probes,
            cost: CostSource::Static,
            probe: ProbeSettings {
                num_stimulus: 128,
                cycles: 2,
                stim_seed: 7,
            },
            ..TuneConfig::default()
        }
    }

    #[test]
    fn tune_is_reproducible_under_static_cost() {
        let design = Benchmark::Nvdla(NvdlaScale::Tiny).elaborate().unwrap();
        let a = tune(&design, "tiny", &static_cfg(9, 12)).unwrap();
        let b = tune(&design, "tiny", &static_cfg(9, 12)).unwrap();
        assert_eq!(a.trajectory, b.trajectory);
        assert_eq!(a.artifact, b.artifact);
    }

    #[test]
    fn best_never_worse_than_baseline() {
        let design = Benchmark::Nvdla(NvdlaScale::Tiny).elaborate().unwrap();
        let r = tune(&design, "tiny", &static_cfg(1, 16)).unwrap();
        assert!(r.artifact.best_score >= r.artifact.baseline);
        assert_eq!(r.trajectory.len(), 16);
    }
}
