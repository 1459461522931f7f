//! The model-parallel invariant: cutting the *design* into K parts —
//! in-process or across loopback cluster workers — returns digests
//! bit-identical to the local sharded executor, for every benchmark,
//! every K, and under a mid-run partition-replica kill with rollback.
//!
//! Determinism holds because the cut is a pure function of (design, K),
//! group inputs are a pure function of (stimulus id, cycle), and the
//! per-cycle boundary exchange applies exactly the previous cycle's
//! post-commit state — so re-running an epoch after a death (from the
//! deepest common checkpoint, or cycle 0) replays identical state.

use std::time::Duration;

use rtlflow::{
    simulate_modelpar, spawn_worker, Benchmark, ClusterConfig, ClusterMetrics, Controller,
    DevicePool, ExecConfig, FaultMode, Flow, PortMap, ShardConfig, StimulusSource, WorkerConfig,
    WorkerFault,
};

/// Single-device sharded run: the local reference model-parallel must match.
fn sharded_digests(flow: &Flow, source: &dyn StimulusSource, cycles: u64) -> Vec<u64> {
    let cfg = ShardConfig {
        group_size: 8,
        ..Default::default()
    };
    flow.simulate_sharded(
        source,
        cycles,
        &cfg,
        &DevicePool::uniform(flow.model.clone(), 1),
    )
    .expect("local sharded reference")
    .digests
}

/// Run one model-parallel batch on a loopback cluster of `parts`
/// workers (one per part), optionally killing one worker mid-run.
fn run_cluster_modelpar(
    bench: Benchmark,
    source: &dyn StimulusSource,
    cycles: u64,
    parts: usize,
    faults: &[(usize, WorkerFault)],
    checkpoint_interval: u64,
    cfg: ClusterConfig,
) -> (Vec<u64>, ClusterMetrics) {
    let workers = parts;
    let controller = Controller::bind("127.0.0.1:0", cfg).expect("bind loopback controller");
    let key = controller
        .register_design(&bench.source(), bench.top())
        .expect("register benchmark design");
    let handles: Vec<_> = (0..workers)
        .map(|i| {
            spawn_worker(
                controller.addr(),
                WorkerConfig {
                    fault: faults.iter().find(|(w, _)| *w == i).map(|&(_, f)| f),
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
        .run_batch_modelpar(key, source, cycles, parts)
        .expect("model-parallel batch completes");
    let metrics = controller.metrics();
    controller.shutdown();
    for h in handles {
        let _ = h.join();
    }
    (digests, metrics)
}

#[test]
fn in_process_k_way_matches_sharded_for_every_benchmark() {
    // (benchmark, n, cycles): the three designs the issue names —
    // riscv-mini (memories force writer replication), handshake_ring
    // (almost all 1-bit boundary nets, the bit-transposed packer's
    // case), and picorv32 (gate-level netlist frontend).
    let cases = [
        (Benchmark::RiscvMini, 32usize, 16u64),
        (Benchmark::Handshake, 48, 16),
        (Benchmark::Picorv32, 24, 12),
    ];
    let exec = ExecConfig::default();
    for (bench, n, cycles) in cases {
        let flow = Flow::from_benchmark(bench).unwrap();
        let map = PortMap::from_design(&flow.design);
        let source = stimulus::source_for(&flow.design, &map, n, 0x90de1u64);
        let golden = sharded_digests(&flow, source.as_ref(), cycles);

        for k in [2usize, 3, 4] {
            let cut = simulate_modelpar(&flow.design, source.as_ref(), cycles, k, &exec, 8)
                .unwrap_or_else(|e| panic!("{bench:?} k={k}: {e}"));
            assert_eq!(
                cut, golden,
                "{bench:?} cut into {k} parts diverged from the sharded reference"
            );
        }
    }
}

#[test]
fn loopback_model_parallel_matches_sharded_and_overlaps_exchange() {
    // Handshake ring over a real loopback cluster: K=2 co-simulation
    // with per-cycle boundary exchange must stay bit-identical, and the
    // exchange timers must have run. How *much* of the exchange latency
    // hides behind compute is a wall-clock ratio, so it is gated where
    // timing belongs: the CI model-parallel smoke (hidden >= 25%).
    let bench = Benchmark::Handshake;
    let flow = Flow::from_benchmark(bench).unwrap();
    let map = PortMap::from_design(&flow.design);
    let source = stimulus::source_for(&flow.design, &map, 32, 0x0f10u64);
    let golden = sharded_digests(&flow, source.as_ref(), 24);

    let cfg = ClusterConfig {
        group_size: 16,
        ..Default::default()
    };
    let (digests, m) = run_cluster_modelpar(bench, source.as_ref(), 24, 2, &[], 0, cfg);
    assert_eq!(digests, golden, "loopback K=2 diverged from sharded");
    assert!(m.modelpar_groups >= 1);
    assert_eq!(m.modelpar_rollbacks, 0);
    assert!(
        m.boundary_frames > 0 && m.boundary_bytes > 0,
        "parts must have exchanged boundary frames (metrics: {m:?})"
    );
    let exchange = m.overlap_hidden_ns + m.exchange_stall_ns;
    assert!(exchange > 0, "exchange timing must be recorded");
}

#[test]
fn partition_replica_killed_mid_run_rolls_back_bit_identical() {
    // K=3 co-simulation where one part's worker dies 10 cycles into the
    // first group — past two checkpoint boundaries (interval 4). The
    // controller must abort the survivors, adopt the reconnecting
    // worker, roll all three parts back to the deepest common
    // checkpoint, and still return bit-identical digests.
    let bench = Benchmark::RiscvMini;
    let flow = Flow::from_benchmark(bench).unwrap();
    let map = PortMap::from_design(&flow.design);
    let source = stimulus::source_for(&flow.design, &map, 32, 0xdeadu64);
    let golden = sharded_digests(&flow, source.as_ref(), 24);

    let cfg = ClusterConfig {
        group_size: 16,
        rejoin_grace: Duration::from_secs(5),
        ..Default::default()
    };
    let fault = WorkerFault::mid_group(0, 10, FaultMode::Disconnect);
    let (digests, m) = run_cluster_modelpar(bench, source.as_ref(), 24, 3, &[(1, fault)], 4, cfg);
    assert_eq!(
        digests, golden,
        "digests changed under a mid-run partition-replica death"
    );
    assert!(m.worker_deaths >= 1, "the injected kill must be observed");
    assert!(
        m.modelpar_rollbacks >= 1,
        "a part death must roll the whole group back (metrics: {m:?})"
    );
    assert!(
        m.checkpoints_received >= 1,
        "parts must have shipped checkpoints before the death (metrics: {m:?})"
    );
    assert!(
        m.groups_resumed >= 1 && m.max_resume_cycle > 0,
        "the rollback must restart from a common checkpoint cycle past \
         zero, not cold-start (metrics: {m:?})"
    );
}
