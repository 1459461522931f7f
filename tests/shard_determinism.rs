//! Property test for the sharding invariant: a group's digests are a
//! pure function of `(stimulus ids, cycles)`, so cutting the batch into
//! groups of ANY size leaves `Flow::simulate`'s output digests
//! bit-identical to the default 1024-stimulus grouping. Device pools,
//! steals and faults only time the groups (`model_shard_batch`); they
//! never run one, so this is the whole digest contract for sharding.
//!
//! Cases are driven by a deterministic in-tree generator (the build must
//! work offline, so no `proptest`); every case derives from a fixed seed
//! and carries its index in the assertion message.

use rtlflow::{Benchmark, Flow, PipelineConfig, PortMap, StimulusSource};
use stimulus::splitmix64;

/// Deterministic stream of pseudo-random draws for one test case.
struct Gen(u64);

impl Gen {
    fn new(test_seed: u64, case: u64) -> Self {
        Gen(splitmix64(test_seed ^ splitmix64(case)))
    }

    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

#[test]
fn sharding_never_changes_digests() {
    let flow = Flow::from_benchmark(Benchmark::RiscvMini).unwrap();
    let map = PortMap::from_design(&flow.design);
    let digests = |source: &dyn StimulusSource, cycles, group_size| {
        let cfg = PipelineConfig {
            group_size,
            ..Default::default()
        };
        flow.simulate(source, cycles, &cfg).unwrap().digests
    };

    for case in 0..6u64 {
        let mut g = Gen::new(0x5a4d ^ 0x1000, case);
        let n = 16 + g.below(48) as usize;
        let cycles = 10 + g.below(20);
        let source = stimulus::source_for(&flow.design, &map, n, g.next());
        let golden = digests(source.as_ref(), cycles, 1024);

        for group_size in 1..=12 {
            assert_eq!(
                digests(source.as_ref(), cycles, group_size),
                golden,
                "case {case}: group {group_size} diverged (n {n}, {cycles} cycles)"
            );
        }
    }
}
