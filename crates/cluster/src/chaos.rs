//! Deterministic chaos schedules.
//!
//! `--chaos <seed>` turns the single-fault injection of `--kill-worker`
//! into a scripted campaign: a pure function of `(seed, workers, cycles,
//! checkpoint_interval)` decides which workers die, at which pickup, how
//! many cycles into their group, and whether they disconnect or go
//! silent. Because the schedule is deterministic, a failing CI chaos run
//! reproduces locally from nothing but the seed — and because every
//! fault is scripted at cycle granularity, the schedule can deliberately
//! kill workers *past* a checkpoint boundary, proving the resume path
//! end to end (`--verify` compares against the uninterrupted run).

use stimulus::splitmix64;

use crate::worker::{FaultMode, GroupFault, WorkerFault};

/// A scripted set of worker faults derived from one seed.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    pub seed: u64,
    /// `(worker index, fault)` — at most one fault per worker.
    pub faults: Vec<(usize, WorkerFault)>,
}

impl ChaosPlan {
    /// Script faults for a `workers`-strong cluster running `cycles`
    /// cycles per batch. Roughly half the workers (always at least one,
    /// and always leaving one survivor when there is more than one
    /// worker) die mid-group; when `checkpoint_interval` is active the
    /// death cycle is scripted at or past the first checkpoint boundary
    /// so recovery must resume rather than restart.
    pub fn generate(seed: u64, workers: usize, cycles: u64, checkpoint_interval: u64) -> ChaosPlan {
        let mut faults: Vec<(usize, WorkerFault)> = Vec::new();
        if workers == 0 || cycles == 0 {
            return ChaosPlan { seed, faults };
        }
        let victims = if workers == 1 {
            1
        } else {
            (workers / 2).max(1).min(workers - 1)
        };
        let mut s = splitmix64(seed ^ 0x9e37_79b9_7f4a_7c15);
        for _ in 0..victims {
            // Distinct victim via linear probing.
            s = splitmix64(s);
            let mut w = (s % workers as u64) as usize;
            while faults.iter().any(|&(v, _)| v == w) {
                w = (w + 1) % workers;
            }
            s = splitmix64(s);
            let mode = if s.is_multiple_of(4) {
                FaultMode::Silent
            } else {
                FaultMode::Disconnect
            };
            s = splitmix64(s);
            // Death cycle: past the first checkpoint boundary when one
            // exists, otherwise anywhere inside the group's run.
            let mid_cycle = if checkpoint_interval > 0 && cycles > checkpoint_interval {
                checkpoint_interval + s % (cycles - checkpoint_interval)
            } else {
                1 + s % cycles.max(1)
            };
            // Always the first pickup: a later pickup might never happen
            // on a small batch, silently turning the campaign into a
            // no-fault run.
            faults.push((
                w,
                WorkerFault {
                    after_pickups: 0,
                    mode,
                    mid_cycle: Some(mid_cycle),
                },
            ));
        }
        faults.sort_by_key(|&(w, _)| w);
        ChaosPlan { seed, faults }
    }

    /// The fault scripted for worker `index`, if any.
    pub fn fault_for(&self, index: usize) -> Option<WorkerFault> {
        self.faults
            .iter()
            .find(|&&(w, _)| w == index)
            .map(|&(_, f)| f)
    }

    /// The same campaign addressed to groups instead of workers: the
    /// fault scripted for worker `w` becomes "whoever first picks up
    /// group `w` dies". Hand the whole list to every in-process worker.
    /// Every fault whose group exists lands, however the groups get
    /// spread over the workers — on a batch of at least `workers` groups
    /// that is all of them — and with fewer faults than workers a
    /// survivor always remains.
    pub fn group_faults(&self) -> Vec<GroupFault> {
        self.faults
            .iter()
            .map(|&(w, f)| GroupFault::new(w as u32, f.mode, f.mid_cycle))
            .collect()
    }

    /// Human-readable schedule, one line per scripted fault.
    pub fn describe(&self) -> String {
        let mut out = format!("chaos seed {:#x}:\n", self.seed);
        for (w, f) in &self.faults {
            out.push_str(&format!(
                "  worker {w}: {} at pickup {}{}\n",
                match f.mode {
                    FaultMode::Disconnect => "disconnect",
                    FaultMode::Silent => "go silent",
                },
                f.after_pickups,
                match f.mid_cycle {
                    Some(c) => format!(", {c} cycles into the group"),
                    None => String::new(),
                }
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_inputs() {
        let a = ChaosPlan::generate(7, 4, 64, 16);
        let b = ChaosPlan::generate(7, 4, 64, 16);
        assert_eq!(a.faults.len(), b.faults.len());
        for ((wa, fa), (wb, fb)) in a.faults.iter().zip(&b.faults) {
            assert_eq!(wa, wb);
            assert_eq!(fa.after_pickups, fb.after_pickups);
            assert_eq!(fa.mode, fb.mode);
            assert_eq!(fa.mid_cycle, fb.mid_cycle);
        }
    }

    #[test]
    fn leaves_a_survivor_and_respects_checkpoint_boundary() {
        for seed in 0..32u64 {
            let plan = ChaosPlan::generate(seed, 4, 64, 16);
            assert!(!plan.faults.is_empty());
            assert!(plan.faults.len() < 4, "must leave a survivor");
            let victims: std::collections::BTreeSet<usize> =
                plan.faults.iter().map(|&(w, _)| w).collect();
            assert_eq!(victims.len(), plan.faults.len(), "victims distinct");
            for (_, f) in &plan.faults {
                let c = f.mid_cycle.expect("chaos faults are mid-group");
                assert!(
                    (16..64).contains(&c),
                    "death cycle {c} must land at/past the checkpoint boundary"
                );
            }
        }
    }

    #[test]
    fn single_worker_and_zero_cycles_edge_cases() {
        let plan = ChaosPlan::generate(3, 1, 8, 0);
        assert_eq!(plan.faults.len(), 1);
        assert!(plan.fault_for(0).is_some());
        assert!(ChaosPlan::generate(3, 0, 8, 4).faults.is_empty());
        assert!(ChaosPlan::generate(3, 4, 0, 4).faults.is_empty());
        assert!(plan.describe().contains("worker 0"));
    }
}
