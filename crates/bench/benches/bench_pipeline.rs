//! Pipeline machinery: the virtual-time scheduler's own overhead and a
//! functional batch through it.

use criterion::{criterion_group, criterion_main, Criterion};
use cudasim::GpuModel;
use pipeline::{model_batch, prepare, simulate_batch, PipelineConfig};
use rtlflow::{Benchmark, PortMap, RiscvSource};

fn bench_pipeline(c: &mut Criterion) {
    let design = Benchmark::RiscvMini.elaborate().unwrap();
    let model = GpuModel::default();
    let (program, graph) = prepare(&design, &model).unwrap();
    let map = PortMap::from_design(&design);

    let mut g = c.benchmark_group("pipeline");
    g.sample_size(10);

    // Pure discrete-event scheduling rate (no functional execution).
    g.bench_function("model_batch/4096x64", |bench| {
        let cfg = PipelineConfig {
            group_size: 512,
            ..Default::default()
        };
        bench.iter(|| model_batch(&program, &graph, map.len(), 4096, 64, &cfg, &model))
    });

    // Functional execution plus the model.
    let n = 64;
    let src = RiscvSource::new(&map, n, 5);
    g.bench_function("functional_sequential/64x32", |bench| {
        let cfg = PipelineConfig {
            group_size: 16,
            ..Default::default()
        };
        bench.iter(|| simulate_batch(&design, &program, &graph, &map, &src, 32, &cfg, &model))
    });

    g.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
