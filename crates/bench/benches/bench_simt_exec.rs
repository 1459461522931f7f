//! Functional SIMT executor throughput: simulated stimulus-cycles per
//! second across batch sizes (the host-side cost of our "GPU"), for each
//! execution strategy — the scalar reference interpreter, the fused +
//! vectorized + uniform-specialized executor, and block-parallel
//! execution on the host thread pool.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rtlflow::{Benchmark, ExecConfig, Flow, GroupRunner, PortMap};

fn bench_exec(c: &mut Criterion) {
    let designs = [
        ("riscv_mini", Benchmark::RiscvMini),
        ("spinal", Benchmark::Spinal),
        ("nvdla_tiny", Benchmark::Nvdla(rtlflow::NvdlaScale::Tiny)),
    ];
    let strategies = [
        ("scalar", ExecConfig::scalar()),
        ("vectorized", ExecConfig::vectorized()),
        ("parallel", ExecConfig::parallel(0)),
    ];

    let mut g = c.benchmark_group("simt_exec");
    g.sample_size(10);
    for (dname, b) in designs {
        let flow = Flow::from_benchmark(b).unwrap();
        let map = PortMap::from_design(&flow.design);
        for &n in &[64usize, 1024, 8192] {
            let src = stimulus::source_for(&flow.design, &map, n, 42);
            g.throughput(Throughput::Elements(n as u64));
            for (sname, exec) in &strategies {
                let mut runner = GroupRunner::new(&flow.program, *exec, n);
                g.bench_function(format!("{dname}/{sname}/cycle/n{n}"), |bench| {
                    bench.iter(|| {
                        runner.poke_source(&map, &src, 0);
                        runner.step();
                    })
                });
            }
        }
    }
    g.finish();
}

criterion_group!(benches, bench_exec);
criterion_main!(benches);
