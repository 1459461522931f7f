//! Coverage closure with batch stimulus — the paper's §1 motivation made
//! concrete: more simultaneous stimulus ⇒ faster toggle-coverage
//! convergence for the same wall-clock budget.
//!
//! ```sh
//! cargo run --release --example coverage_closure
//! ```

use rtlflow::{Benchmark, ExecConfig, Flow, GroupRunner, PortMap, RiscvSource};
use transpile::ToggleCoverage;

/// Toggle coverage of `n` fuzzed stimulus after `cycles` cycles, sampled
/// every `every` cycles.
fn coverage(flow: &Flow, map: &PortMap, n: usize, cycles: u64, every: u64) -> ToggleCoverage {
    let source = RiscvSource::new(map, n, 0xc073u64);
    let mut runner = GroupRunner::new(&flow.program, ExecConfig::default(), n);
    let mut cov = ToggleCoverage::new(&flow.design);
    for c in 0..cycles {
        runner.poke_source(map, &source, 0);
        runner.step();
        if c % every == every - 1 {
            cov.sample(&flow.design, &flow.program.plan, runner.dev(), 0, n);
        }
    }
    cov
}

fn main() {
    let flow = Flow::from_benchmark(Benchmark::RiscvMini).expect("build riscv-mini");
    let map = PortMap::from_design(&flow.design);
    let cycles = 150u64;

    println!("toggle coverage on riscv-mini after {cycles} cycles, by batch size:\n");
    println!("{:>8} {:>12} {:>10}", "#stim", "covered", "coverage");

    let mut last = 0.0;
    for n in [1usize, 4, 16, 64, 256] {
        // Sampling every 10 cycles keeps overhead realistic.
        let cov = coverage(&flow, &map, n, cycles, 10);
        println!(
            "{:>8} {:>12} {:>9.1}%",
            n,
            cov.covered_bits(),
            cov.fraction() * 100.0
        );
        last = cov.fraction();
    }

    // Show where the remaining holes are at the largest batch.
    let cov = coverage(&flow, &map, 256, cycles, 1);
    println!("\nremaining holes at n=256 (top 10):");
    for (name, bits) in cov.holes(&flow.design).into_iter().take(10) {
        println!("  {name}: uncovered bits {bits:#x}");
    }
    assert!(last > 0.5, "batched fuzzing should cover most toggles");
}
