//! Per-cycle functional cost of the three execution engines on the same
//! batch: Verilator-like (per-stimulus straight-line), ESSENT-like
//! (event-driven) and the SIMT batch executor.

use criterion::{criterion_group, criterion_main, Criterion};
use rtlflow::{
    Benchmark, EssentSim, ExecConfig, Flow, GroupRunner, PortMap, RiscvSource, VerilatorSim,
};

fn bench_engines(c: &mut Criterion) {
    let design = Benchmark::RiscvMini.elaborate().unwrap();
    let map = PortMap::from_design(&design);
    let n = 32;
    let src = RiscvSource::new(&map, n, 7);

    let mut g = c.benchmark_group("engines");
    g.sample_size(10);

    g.bench_function("verilator_like/cycle", |bench| {
        let mut vsim = VerilatorSim::new(&design, n).unwrap();
        bench.iter(|| vsim.step_cycle(&map, &src))
    });

    g.bench_function("essent_like/cycle", |bench| {
        let mut esim = EssentSim::new(&design, n).unwrap();
        bench.iter(|| esim.step_cycle(&map, &src))
    });

    g.bench_function("simt_batch/cycle", |bench| {
        let flow = Flow::from_benchmark(Benchmark::RiscvMini).unwrap();
        let mut runner = GroupRunner::new(&flow.program, ExecConfig::default(), n);
        bench.iter(|| {
            runner.poke_source(&map, &src, 0);
            runner.step();
        })
    });

    g.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
