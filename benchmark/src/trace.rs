//! What a traced run accumulates: the span recorder, one sample series
//! per timed layer metric, and the exact counts.

use std::collections::BTreeMap;

use crate::spans::Recorder;
use crate::stats;

pub struct Traced {
    pub rec: Recorder,
    series: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, u64>,
    /// Counts that took two different values within this run.
    pub unstable: Vec<String>,
    setups: u64,
}

impl Traced {
    pub fn new() -> Self {
        Traced {
            rec: Recorder::new(),
            series: BTreeMap::new(),
            counts: BTreeMap::new(),
            unstable: Vec::new(),
            setups: 0,
        }
    }

    /// Span job ids of bring-ups sit above every job's.
    pub fn next_setup_id(&mut self) -> u64 {
        self.setups += 1;
        1_000_000_000 + self.setups
    }

    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.series.entry(name).or_default().push(value);
    }

    /// Record an exact count. A count is a property of (workload, seed):
    /// it must come out the same on every job of the run.
    pub fn count(&mut self, name: &'static str, value: u64) {
        if let Some(prev) = self.counts.insert(name, value) {
            if prev != value {
                self.unstable.push(format!("{name}: {prev} then {value}"));
            }
        }
    }

    pub fn series(&self, name: &str) -> &[f64] {
        self.series.get(name).map_or(&[], Vec::as_slice)
    }

    /// A statistic of a series; 0 when the workload has no such layer.
    fn stat(&self, name: &str, f: fn(&[f64]) -> f64) -> f64 {
        match self.series(name) {
            [] => 0.0,
            s => f(s),
        }
    }

    pub fn p10(&self, name: &str) -> f64 {
        self.stat(name, stats::p10)
    }

    pub fn p50(&self, name: &str) -> f64 {
        self.stat(name, stats::p50)
    }

    pub fn mean(&self, name: &str) -> f64 {
        self.stat(name, stats::mean)
    }

    pub fn get_count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}
