//! Property test for the sharding invariant: for ANY pool shape — device
//! count, heterogeneous speed mix, group size — and ANY injected fault
//! schedule, the sharded executor's output digests are bit-identical to
//! the single-device `Flow::simulate` baseline.
//!
//! Cases are driven by a deterministic in-tree generator (the build must
//! work offline, so no `proptest`); every case derives from a fixed seed
//! and carries its index in the assertion message.

use rtlflow::{
    Benchmark, DevicePool, FaultSpec, Flow, PipelineConfig, PortMap, ShardConfig, StimulusSource,
};
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

fn golden_digests(flow: &Flow, source: &dyn StimulusSource, cycles: u64) -> Vec<u64> {
    flow.simulate(source, cycles, &PipelineConfig::default())
        .expect("single-device baseline")
        .digests
}

#[test]
fn sharding_never_changes_digests() {
    let flow = Flow::from_benchmark(Benchmark::RiscvMini).unwrap();
    let map = PortMap::from_design(&flow.design);

    for case in 0..6u64 {
        let mut g = Gen::new(0x5a4d ^ 0x1000, case);
        let n = 16 + g.below(48) as usize;
        let cycles = 10 + g.below(20);
        let source = stimulus::source_for(&flow.design, &map, n, g.next());
        let golden = golden_digests(&flow, source.as_ref(), cycles);

        for shards in [1usize, 2, 3, 7] {
            // A mix of equal and binned device speeds.
            let speeds: Vec<f64> = (0..shards)
                .map(|_| [1.0, 1.0, 0.5, 0.25][g.below(4) as usize])
                .collect();
            let pool = DevicePool::with_speeds(flow.model.clone(), &speeds);
            let cfg = ShardConfig {
                group_size: 1 + g.below(12) as usize,
                fault: None,
            };
            let r = flow
                .simulate_sharded(source.as_ref(), cycles, &cfg, &pool)
                .unwrap();
            assert_eq!(
                r.digests, golden,
                "case {case}: {shards} shards (speeds {speeds:?}, group {}) diverged",
                cfg.group_size
            );
        }
    }
}

#[test]
fn faulted_runs_stay_bit_identical() {
    let flow = Flow::from_benchmark(Benchmark::RiscvMini).unwrap();
    let map = PortMap::from_design(&flow.design);

    for case in 0..6u64 {
        let mut g = Gen::new(0xfa17 ^ 0x2000, case);
        let n = 24 + g.below(40) as usize;
        let cycles = 10 + g.below(16);
        let source = stimulus::source_for(&flow.design, &map, n, g.next());
        let golden = golden_digests(&flow, source.as_ref(), cycles);

        for shards in [2usize, 3, 7] {
            // Random explicit fault schedule: up to `shards` kill events at
            // random pickup indices (the executor protects the last
            // survivor, so even an all-devices schedule must complete).
            let kills = 1 + g.below(shards as u64);
            let at: Vec<(usize, u64)> = (0..kills)
                .map(|_| (g.below(shards as u64) as usize, g.below(4)))
                .collect();
            let pool = DevicePool::uniform(flow.model.clone(), shards);
            let cfg = ShardConfig {
                group_size: 1 + g.below(8) as usize,
                fault: Some(FaultSpec::schedule(at.clone())),
            };
            let r = flow
                .simulate_sharded(source.as_ref(), cycles, &cfg, &pool)
                .unwrap();
            assert_eq!(
                r.digests, golden,
                "case {case}: {shards} shards with fault schedule {at:?} diverged"
            );
            assert!(
                r.metrics.devices.iter().any(|d| d.alive),
                "case {case}: at least one device must survive"
            );
        }
    }
}

#[test]
fn rate_faults_with_requeue_stay_bit_identical() {
    let flow = Flow::from_benchmark(Benchmark::RiscvMini).unwrap();
    let map = PortMap::from_design(&flow.design);
    let source = stimulus::source_for(&flow.design, &map, 40, 0xbeef);
    let golden = golden_digests(&flow, source.as_ref(), 18);

    // An aggressive fault rate across seeds: devices keep dying mid-batch
    // and their shards requeue, yet results never change.
    let mut saw_requeue = false;
    for seed in 0..4u64 {
        let pool = DevicePool::uniform(flow.model.clone(), 3);
        let cfg = ShardConfig {
            group_size: 4,
            fault: Some(FaultSpec::with_rate(0.3, seed)),
        };
        let r = flow
            .simulate_sharded(source.as_ref(), 18, &cfg, &pool)
            .unwrap();
        assert_eq!(r.digests, golden, "seed {seed} diverged under rate faults");
        saw_requeue |= r.metrics.groups_requeued > 0;
    }
    assert!(
        saw_requeue,
        "a 30% pickup fault rate must exercise the requeue path"
    );
}
