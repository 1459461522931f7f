//! The versioned on-disk tuned-config artifact.
//!
//! A [`TunedArtifact`] records the winning configuration of one autotune
//! run, keyed by [`rtlir::design_hash`]. The wire format is a plain text
//! key/value file with a version header and an FNV-1a checksum trailer:
//!
//! ```text
//! rtlflow-tuned v2
//! design_hash = 0123456789abcdef
//! design_name = riscv-mini
//! exec = fused@512
//! fuse = 0,16
//! partition = merged:4
//! seed = 42
//! probes = 24
//! baseline = 1300753.5
//! best_score = 1534889.1
//! checksum = 89abcdef01234567
//! ```
//!
//! Parsing is defensive by construction: [`TunedArtifact::parse`] returns
//! `Err` (never panics) on any malformed, truncated, version-mismatched
//! or checksum-failing input, so the cache can treat corruption as a
//! plain miss.

use cudasim::{ExecConfig, FuseConfig};
use rtlir::{Design, RtlGraph};
use transpile::Partition;

/// Current artifact format version. Bump on any incompatible change;
/// older files are then ignored (treated as a cache miss), never
/// misparsed. v2: the `exec` grammar lost `vector|par|bitpar`.
pub const ARTIFACT_VERSION: u32 = 2;

const HEADER: &str = "rtlflow-tuned v2";

/// How the tuned partition is re-derived from the RTL graph.
#[derive(Debug, Clone, PartialEq)]
pub enum PartSpec {
    /// Transpiler default: one task per levelization level.
    PerLevel,
    /// Merge runs of `factor` consecutive levels into one task (fewer,
    /// larger kernels: less per-kernel dispatch overhead per lane chunk,
    /// larger peephole windows).
    MergedLevels(usize),
    /// Feature-weight packing via [`partition::weighted_partition`].
    Weighted {
        weights: Vec<f64>,
        target_tasks: usize,
    },
}

impl PartSpec {
    pub fn spec(&self) -> String {
        match self {
            PartSpec::PerLevel => "per-level".to_string(),
            PartSpec::MergedLevels(f) => format!("merged:{f}"),
            PartSpec::Weighted {
                weights,
                target_tasks,
            } => {
                let ws: Vec<String> = weights.iter().map(|w| format!("{w}")).collect();
                format!("weights:{};{target_tasks}", ws.join(","))
            }
        }
    }

    pub fn parse(s: &str) -> Result<PartSpec, String> {
        if s == "per-level" {
            return Ok(PartSpec::PerLevel);
        }
        if let Some(f) = s.strip_prefix("merged:") {
            let f: usize = f.parse().map_err(|_| format!("bad merge factor `{s}`"))?;
            if f < 2 {
                return Err(format!("merge factor must be >= 2 in `{s}`"));
            }
            return Ok(PartSpec::MergedLevels(f));
        }
        if let Some(rest) = s.strip_prefix("weights:") {
            let (ws, tt) = rest
                .rsplit_once(';')
                .ok_or_else(|| format!("missing target-task count in `{s}`"))?;
            let weights: Result<Vec<f64>, _> = ws.split(',').map(str::parse).collect();
            let weights = weights.map_err(|_| format!("bad weight list in `{s}`"))?;
            if weights.is_empty() || weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
                return Err(format!("weights must be finite and non-negative in `{s}`"));
            }
            let target_tasks: usize = tt
                .parse()
                .map_err(|_| format!("bad target-task count in `{s}`"))?;
            return Ok(PartSpec::Weighted {
                weights,
                target_tasks,
            });
        }
        Err(format!("unknown partition spec `{s}`"))
    }

    /// Materialize the partition this spec describes for a design.
    pub fn materialize(&self, design: &Design, graph: &RtlGraph) -> Partition {
        match self {
            PartSpec::PerLevel => transpile::default_partition(design, graph),
            PartSpec::MergedLevels(factor) => {
                let levels = transpile::default_partition(design, graph);
                // Merging runs of *consecutive* levels keeps the induced
                // task graph acyclic: every dependency still points from
                // an earlier interval to a later one.
                levels
                    .chunks((*factor).max(1))
                    .map(|run| run.iter().flatten().copied().collect())
                    .collect()
            }
            PartSpec::Weighted {
                weights,
                target_tasks,
            } => partition::weighted_partition(design, graph, weights, *target_tasks),
        }
    }
}

/// The persisted winner of one autotune run.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedArtifact {
    /// Structural fingerprint of the design this config was tuned for.
    pub design_hash: u64,
    pub design_name: String,
    pub exec: ExecConfig,
    pub fuse: FuseConfig,
    pub partition: PartSpec,
    /// Search seed that produced this artifact.
    pub seed: u64,
    /// Probes spent (baseline included).
    pub probes: u32,
    /// Default-config probe score, stimulus-cycles/s.
    pub baseline: f64,
    /// Winning probe score, stimulus-cycles/s.
    pub best_score: f64,
}

impl TunedArtifact {
    /// Tuned speedup over the default config as measured at tune time.
    pub fn speedup(&self) -> f64 {
        if self.baseline > 0.0 {
            self.best_score / self.baseline
        } else {
            1.0
        }
    }

    /// Serialize to the versioned text format (checksum included).
    pub fn serialize(&self) -> String {
        let mut body = String::new();
        body.push_str(HEADER);
        body.push('\n');
        body.push_str(&format!("design_hash = {:016x}\n", self.design_hash));
        body.push_str(&format!("design_name = {}\n", self.design_name));
        body.push_str(&format!("exec = {}\n", self.exec.spec()));
        body.push_str(&format!(
            "fuse = {},{}\n",
            self.fuse.const_fold_min_ops, self.fuse.superop_min_ops
        ));
        body.push_str(&format!("partition = {}\n", self.partition.spec()));
        body.push_str(&format!("seed = {}\n", self.seed));
        body.push_str(&format!("probes = {}\n", self.probes));
        body.push_str(&format!("baseline = {}\n", self.baseline));
        body.push_str(&format!("best_score = {}\n", self.best_score));
        let sum = fnv1a(body.as_bytes());
        body.push_str(&format!("checksum = {sum:016x}\n"));
        body
    }

    /// Parse the text format. Never panics: every malformation is an
    /// `Err` with a reason (the cache maps those to misses).
    pub fn parse(text: &str) -> Result<TunedArtifact, String> {
        // The checksum line covers everything before it, byte-exact.
        let trailer_at = text
            .rfind("checksum = ")
            .ok_or("missing checksum trailer")?;
        let (body, trailer) = text.split_at(trailer_at);
        let sum_hex = trailer
            .strip_prefix("checksum = ")
            .and_then(|s| s.lines().next())
            .ok_or("malformed checksum trailer")?;
        let claimed = u64::from_str_radix(sum_hex.trim(), 16)
            .map_err(|_| "bad checksum value".to_string())?;
        if fnv1a(body.as_bytes()) != claimed {
            return Err("checksum mismatch (corrupt or truncated artifact)".to_string());
        }

        let mut lines = body.lines();
        if lines.next() != Some(HEADER) {
            return Err(format!("version header mismatch (want `{HEADER}`)"));
        }
        let mut get = |key: &str| -> Result<String, String> {
            lines
                .next()
                .and_then(|l| l.split_once(" = "))
                .filter(|(k, _)| *k == key)
                .map(|(_, v)| v.to_string())
                .ok_or_else(|| format!("missing field `{key}`"))
        };
        let design_hash = u64::from_str_radix(&get("design_hash")?, 16)
            .map_err(|_| "bad design_hash".to_string())?;
        let design_name = get("design_name")?;
        let exec = ExecConfig::parse(&get("exec")?).map_err(|e| e.to_string())?;
        let fuse_raw = get("fuse")?;
        let (cf, so) = fuse_raw
            .split_once(',')
            .ok_or_else(|| format!("bad fuse thresholds `{fuse_raw}`"))?;
        let fuse = FuseConfig {
            const_fold_min_ops: cf
                .parse()
                .map_err(|_| format!("bad fuse thresholds `{fuse_raw}`"))?,
            superop_min_ops: so
                .parse()
                .map_err(|_| format!("bad fuse thresholds `{fuse_raw}`"))?,
        };
        let partition = PartSpec::parse(&get("partition")?)?;
        let seed: u64 = get("seed")?.parse().map_err(|_| "bad seed".to_string())?;
        let probes: u32 = get("probes")?
            .parse()
            .map_err(|_| "bad probe count".to_string())?;
        let baseline: f64 = get("baseline")?
            .parse()
            .map_err(|_| "bad baseline".to_string())?;
        let best_score: f64 = get("best_score")?
            .parse()
            .map_err(|_| "bad best_score".to_string())?;
        if !baseline.is_finite() || !best_score.is_finite() {
            return Err("non-finite score".to_string());
        }
        Ok(TunedArtifact {
            design_hash,
            design_name,
            exec,
            fuse,
            partition,
            seed,
            probes,
            baseline,
            best_score,
        })
    }
}

/// FNV-1a, the same construction [`rtlir::design_hash`] uses.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `text` with its header rewritten to version `v` and the checksum
/// redone, so only the version differs.
#[cfg(test)]
pub(crate) fn reversioned(text: &str, v: u32) -> String {
    let mut text = text.replacen(HEADER, &format!("rtlflow-tuned v{v}"), 1);
    let body_end = text.rfind("checksum = ").unwrap();
    let sum = fnv1a(&text.as_bytes()[..body_end]);
    text.truncate(body_end);
    text.push_str(&format!("checksum = {sum:016x}\n"));
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TunedArtifact {
        TunedArtifact {
            design_hash: 0xdead_beef_0123_4567,
            design_name: "riscv-mini".into(),
            exec: ExecConfig::fused(4).with_block(2048).with_lane_chunk(128),
            fuse: FuseConfig {
                const_fold_min_ops: 4,
                superop_min_ops: 16,
            },
            partition: PartSpec::Weighted {
                weights: vec![1.0, 2.5, 1.0, 1.0, 1.0, 2.0, 1.0, 4.0, 1.0, 2.0],
                target_tasks: 24,
            },
            seed: 42,
            probes: 24,
            baseline: 1_300_753.52,
            best_score: 1_534_889.13,
        }
    }

    #[test]
    fn serialize_parse_round_trips() {
        let a = sample();
        assert_eq!(TunedArtifact::parse(&a.serialize()).unwrap(), a);
        let b = TunedArtifact {
            partition: PartSpec::MergedLevels(4),
            ..sample()
        };
        assert_eq!(TunedArtifact::parse(&b.serialize()).unwrap(), b);
        let c = TunedArtifact {
            partition: PartSpec::PerLevel,
            exec: ExecConfig::default(),
            ..sample()
        };
        assert_eq!(TunedArtifact::parse(&c.serialize()).unwrap(), c);
    }

    #[test]
    fn corrupt_inputs_error_without_panic() {
        let good = sample().serialize();
        // Truncations at every length.
        for cut in 0..good.len() {
            let _ = TunedArtifact::parse(&good[..cut]);
        }
        // Single-byte flips.
        for i in 0..good.len() {
            let mut bytes = good.clone().into_bytes();
            bytes[i] ^= 0x20;
            if let Ok(s) = String::from_utf8(bytes) {
                if let Ok(parsed) = TunedArtifact::parse(&s) {
                    // A flip inside the checksum's own hex digits can
                    // only survive if it flips the claimed value to the
                    // still-matching body sum — impossible here because
                    // the body is untouched and the claimed value
                    // changed; a flip in the body breaks the sum.
                    assert_eq!(parsed, sample(), "flip at {i} silently accepted a change");
                }
            }
        }
        assert!(TunedArtifact::parse("").is_err());
        assert!(TunedArtifact::parse("rtlflow-tuned v0\nchecksum = 0\n").is_err());
    }

    #[test]
    fn version_bump_is_a_miss() {
        assert_eq!(HEADER, format!("rtlflow-tuned v{ARTIFACT_VERSION}"));
        let good = sample().serialize();
        for v in [ARTIFACT_VERSION - 1, ARTIFACT_VERSION + 1] {
            assert!(TunedArtifact::parse(&reversioned(&good, v))
                .unwrap_err()
                .contains("version header"));
        }
    }
}
