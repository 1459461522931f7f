//! The cluster invariant, mirroring `tests/shard_determinism.rs` one
//! layer up: for ANY worker count, capacity mix, or mid-run worker
//! death, a batch run over loopback TCP returns digests bit-identical
//! to the local `Flow::simulate` run. Determinism holds because digests are
//! a pure function of (stimulus, cycle): the controller materializes
//! every group's frames once, and a requeued group re-executes the same
//! frames on a survivor.

use std::time::Duration;

use cluster::GroupFault;
use rtlflow::{
    spawn_worker, Benchmark, ChaosPlan, ClusterConfig, ClusterMetrics, Controller, FaultMode, Flow,
    PipelineConfig, PortMap, StimulusSource, WorkerConfig, WorkerFault,
};

/// Local `Flow::simulate` run: the reference the cluster must match.
fn local_digests(flow: &Flow, source: &dyn StimulusSource, cycles: u64) -> Vec<u64> {
    flow.simulate(source, cycles, &PipelineConfig::default())
        .expect("local reference")
        .digests
}

/// The faults one run injects. `by_worker[i]` kills worker i at a pickup
/// (and optionally a cycle) coordinate. `by_group` faults are shared by
/// every worker and kill whichever of them first picks the addressed
/// group up: that lands wherever stealing moves the group, where a
/// pickup count is lost once the victim's queue has been stolen empty.
#[derive(Default)]
struct Faults<'a> {
    by_worker: &'a [(usize, WorkerFault)],
    by_group: &'a [GroupFault],
}

/// Run one batch on a loopback cluster of `workers` and return
/// (digests, metrics). `checkpoint_interval > 0` turns on mid-group
/// snapshots and checkpoint resume.
fn run_cluster(
    bench: Benchmark,
    source: &dyn StimulusSource,
    cycles: u64,
    workers: usize,
    faults: Faults<'_>,
    checkpoint_interval: u64,
    cfg: ClusterConfig,
) -> (Vec<u64>, ClusterMetrics) {
    let controller = Controller::bind("127.0.0.1:0", cfg).expect("bind loopback controller");
    let key = controller
        .register_design(&bench.source(), bench.top())
        .expect("register benchmark design");
    let handles: Vec<_> = (0..workers)
        .map(|i| {
            spawn_worker(
                controller.addr(),
                WorkerConfig {
                    fault: faults
                        .by_worker
                        .iter()
                        .find(|(w, _)| *w == i)
                        .map(|&(_, f)| f),
                    group_faults: faults.by_group.to_vec(),
                    checkpoint_interval,
                    ..Default::default()
                },
            )
        })
        .collect();
    controller
        .wait_for_workers(workers, Duration::from_secs(10))
        .expect("all workers register");
    let digests = controller
        .run_batch(key, source, cycles)
        .expect("cluster batch completes");
    let metrics = controller.metrics();
    controller.shutdown();
    for h in handles {
        let _ = h.join();
    }
    (digests, metrics)
}

#[test]
fn loopback_matches_sharded_for_every_benchmark_and_worker_count() {
    // (benchmark, n, cycles): sized so nvdla stays test-suite friendly.
    let cases = [
        (Benchmark::RiscvMini, 48usize, 24u64),
        (Benchmark::Spinal, 40, 20),
        (Benchmark::Nvdla(rtlflow::NvdlaScale::Tiny), 24, 12),
    ];
    for (bench, n, cycles) in cases {
        let flow = Flow::from_benchmark(bench).unwrap();
        let map = PortMap::from_design(&flow.design);
        let source = stimulus::source_for(&flow.design, &map, n, 0xc1u64);
        let golden = local_digests(&flow, source.as_ref(), cycles);

        for workers in [1usize, 4] {
            let cfg = ClusterConfig {
                group_size: 8,
                ..Default::default()
            };
            let (digests, m) = run_cluster(
                bench,
                source.as_ref(),
                cycles,
                workers,
                Faults::default(),
                0,
                cfg,
            );
            assert_eq!(
                digests, golden,
                "{bench:?} with {workers} worker(s) diverged from the local reference"
            );
            assert_eq!(m.batches, 1);
            assert_eq!(m.worker_deaths, 0);
        }
    }
}

#[test]
fn worker_killed_mid_run_stays_bit_identical() {
    let bench = Benchmark::RiscvMini;
    let flow = Flow::from_benchmark(bench).unwrap();
    let map = PortMap::from_design(&flow.design);
    let source = stimulus::source_for(&flow.design, &map, 64, 0xdead);
    let golden = local_digests(&flow, source.as_ref(), 20);

    // Sixteen groups over four workers; whoever picks up group 5 dies
    // with it in flight. Some worker must pick it up, so the kill lands
    // mid-batch however fast the other groups go and whoever steals what.
    let cfg = ClusterConfig {
        group_size: 4,
        ..Default::default()
    };
    let faults = Faults {
        by_group: &[GroupFault::new(5, FaultMode::Disconnect, None)],
        ..Default::default()
    };
    let (digests, m) = run_cluster(bench, source.as_ref(), 20, 4, faults, 0, cfg);
    assert_eq!(
        digests, golden,
        "digests changed under a mid-run worker death"
    );
    assert!(m.worker_deaths >= 1, "the injected kill must be observed");
    assert!(
        m.requeues >= 1,
        "the dead worker's in-flight group must requeue onto a survivor"
    );
}

#[test]
fn silent_worker_is_detected_by_heartbeat_timeout() {
    let bench = Benchmark::RiscvMini;
    let flow = Flow::from_benchmark(bench).unwrap();
    let map = PortMap::from_design(&flow.design);
    let source = stimulus::source_for(&flow.design, &map, 48, 0x51e7);
    let golden = local_digests(&flow, source.as_ref(), 16);

    // A silent worker never closes its socket, so only the heartbeat
    // deadline can unmask it; shrink the deadline to keep the test fast.
    let cfg = ClusterConfig {
        group_size: 4,
        heartbeat_timeout: Duration::from_millis(250),
        rejoin_grace: Duration::from_millis(500),
    };
    let faults = Faults {
        by_group: &[GroupFault::new(5, FaultMode::Silent, None)],
        ..Default::default()
    };
    let (digests, m) = run_cluster(bench, source.as_ref(), 16, 3, faults, 0, cfg);
    assert_eq!(digests, golden, "digests changed under a silent worker");
    assert!(
        m.heartbeat_timeouts >= 1,
        "a silent worker must be caught by the heartbeat deadline, \
         not the EOF path (metrics: {m:?})"
    );
}

#[test]
fn sole_worker_death_is_rescued_by_its_own_reconnect() {
    let bench = Benchmark::RiscvMini;
    let flow = Flow::from_benchmark(bench).unwrap();
    let map = PortMap::from_design(&flow.design);
    let source = stimulus::source_for(&flow.design, &map, 32, 0x0e57);
    let golden = local_digests(&flow, source.as_ref(), 16);

    // One worker, killed mid-batch: no survivor exists, so the orphaned
    // groups can only complete when the worker's reconnect loop rejoins
    // and the monitor adopts it within the rejoin grace window. With
    // nobody to steal from it, the sole worker's second pickup is certain.
    let cfg = ClusterConfig {
        group_size: 4,
        rejoin_grace: Duration::from_secs(5),
        ..Default::default()
    };
    let faults = Faults {
        by_worker: &[(0, WorkerFault::at_pickup(1, FaultMode::Disconnect))],
        ..Default::default()
    };
    let (digests, m) = run_cluster(bench, source.as_ref(), 16, 1, faults, 0, cfg);
    assert_eq!(
        digests, golden,
        "digests changed across a full-cluster outage"
    );
    assert!(m.worker_deaths >= 1);
    assert!(
        m.reconnects >= 1,
        "the batch can only have finished via the reconnect path (metrics: {m:?})"
    );
}

#[test]
fn worker_killed_mid_group_resumes_from_checkpoint() {
    let bench = Benchmark::RiscvMini;
    let flow = Flow::from_benchmark(bench).unwrap();
    let map = PortMap::from_design(&flow.design);
    let source = stimulus::source_for(&flow.design, &map, 32, 0xc4e);
    let golden = local_digests(&flow, source.as_ref(), 48);

    // Whoever picks up group 0 dies 20 cycles into it — past two
    // checkpoint boundaries (interval 8) — so the requeued group must
    // resume from cycle 16 on the survivor, not restart from zero.
    let cfg = ClusterConfig {
        group_size: 16,
        ..Default::default()
    };
    let faults = Faults {
        by_group: &[GroupFault::new(0, FaultMode::Disconnect, Some(20))],
        ..Default::default()
    };
    let (digests, m) = run_cluster(bench, source.as_ref(), 48, 2, faults, 8, cfg);
    assert_eq!(
        digests, golden,
        "digests changed across a checkpointed mid-group resume"
    );
    assert!(m.worker_deaths >= 1, "the injected kill must be observed");
    assert!(
        m.checkpoints_received >= 1,
        "the victim must have shipped at least one checkpoint before dying \
         (metrics: {m:?})"
    );
    assert!(
        m.groups_resumed >= 1,
        "the requeued group must resume from a checkpoint image, not cold-start \
         (metrics: {m:?})"
    );
    assert!(
        m.max_resume_cycle > 0,
        "a resume must restart mid-run, at a cycle past zero (metrics: {m:?})"
    );
}

#[test]
fn chaos_campaign_is_bit_identical_after_recovery() {
    let bench = Benchmark::RiscvMini;
    let flow = Flow::from_benchmark(bench).unwrap();
    let map = PortMap::from_design(&flow.design);
    let source = stimulus::source_for(&flow.design, &map, 48, 0xca05);
    let golden = local_digests(&flow, source.as_ref(), 48);

    // A scripted chaos campaign: the plan is a pure function of the
    // seed, so a failure here reproduces exactly from this test alone.
    // Every scripted death lands at or past the checkpoint boundary by
    // construction, and the plan may include Silent faults, so the
    // heartbeat deadline is shortened to keep detection fast. The plan
    // is applied group-addressed (three groups, three workers), so each
    // scripted death lands whichever worker ends up with its group.
    let plan = ChaosPlan::generate(7, 3, 48, 8);
    assert!(!plan.faults.is_empty(), "the campaign must script a fault");
    let faults = Faults {
        by_group: &plan.group_faults(),
        ..Default::default()
    };
    let cfg = ClusterConfig {
        group_size: 16,
        heartbeat_timeout: Duration::from_millis(300),
        rejoin_grace: Duration::from_secs(5),
    };
    let (digests, m) = run_cluster(bench, source.as_ref(), 48, 3, faults, 8, cfg);
    assert_eq!(
        digests,
        golden,
        "digests changed under the chaos campaign (plan:\n{})",
        plan.describe()
    );
    assert!(m.worker_deaths >= 1, "scripted faults must be observed");
    assert!(
        m.groups_resumed >= 1,
        "chaos deaths land past the checkpoint boundary, so recovery must \
         resume from a checkpoint (metrics: {m:?})"
    );
}
