//! Integration tests for the verification tooling built on the flow:
//! checkpoints, VCD dumps and toggle coverage, and the CLI's exit on a
//! closed stdout.

use cudasim::Scratch;
use rtlflow::{Benchmark, Flow, PortMap, RiscvSource};
use stimulus::StimulusSource;
use transpile::ToggleCoverage;

#[allow(clippy::too_many_arguments)]
fn drive(
    flow: &Flow,
    map: &PortMap,
    src: &dyn StimulusSource,
    dev: &mut cudasim::DeviceMemory,
    scratch: &mut Scratch,
    n: usize,
    from: u64,
    to: u64,
) {
    let mut frame = vec![0u64; map.len()];
    for c in from..to {
        for s in 0..n {
            src.fill_frame(s, c, &mut frame);
            for (lane, port) in map.ports.iter().enumerate() {
                flow.program.plan.poke(dev, port.var, s, frame[lane]);
            }
        }
        flow.program.run_cycle_functional(dev, scratch, 0, n);
    }
}

#[test]
fn checkpoint_resume_is_bit_exact() {
    let flow = Flow::from_benchmark(Benchmark::RiscvMini).unwrap();
    let map = PortMap::from_design(&flow.design);
    let n = 6;
    let src = RiscvSource::new(&map, n, 0x5a7e);
    let mut scratch = Scratch::new();

    // Reference run: 100 straight cycles.
    let mut dev_ref = flow.program.plan.alloc_device(n);
    drive(&flow, &map, &src, &mut dev_ref, &mut scratch, n, 0, 100);
    let reference: Vec<u64> = (0..n)
        .map(|s| flow.program.plan.output_digest(&dev_ref, &flow.design, s))
        .collect();

    // Checkpointed run: 50 cycles, snapshot, 50 more.
    let mut dev = flow.program.plan.alloc_device(n);
    drive(&flow, &map, &src, &mut dev, &mut scratch, n, 0, 50);
    let snap = dev.snapshot();
    drive(&flow, &map, &src, &mut dev, &mut scratch, n, 50, 100);
    let direct: Vec<u64> = (0..n)
        .map(|s| flow.program.plan.output_digest(&dev, &flow.design, s))
        .collect();
    assert_eq!(direct, reference);

    // Resume from the snapshot in a fresh device: must land identically.
    let mut dev2 = flow.program.plan.alloc_device(n);
    dev2.restore(&snap).unwrap();
    drive(&flow, &map, &src, &mut dev2, &mut scratch, n, 50, 100);
    let resumed: Vec<u64> = (0..n)
        .map(|s| flow.program.plan.output_digest(&dev2, &flow.design, s))
        .collect();
    assert_eq!(resumed, reference);
}

#[test]
fn vcd_dump_of_benchmark_outputs() {
    let design = Benchmark::RiscvMini.elaborate().unwrap();
    let map = PortMap::from_design(&design);
    let src = RiscvSource::new(&map, 1, 3);
    let mut frame = vec![0u64; map.len()];
    let vcd = rtlir::vcd::dump_outputs(&design, 50, |c| {
        src.fill_frame(0, c, &mut frame);
        map.to_pokes(&frame)
    })
    .unwrap();
    assert!(vcd.contains("$enddefinitions"));
    assert!(vcd.contains("pc_out"));
    // PC moves, so there must be plenty of value changes.
    assert!(
        vcd.lines().filter(|l| l.starts_with('b')).count() > 40,
        "{vcd}"
    );
}

#[test]
fn coverage_is_monotone_in_cycles() {
    let flow = Flow::from_benchmark(Benchmark::Spinal).unwrap();
    let map = PortMap::from_design(&flow.design);
    let n = 8;
    let src = RiscvSource::new(&map, n, 0xfeed);
    let mut dev = flow.program.plan.alloc_device(n);
    let mut scratch = Scratch::new();
    let mut cov = ToggleCoverage::new(&flow.design);
    let mut fractions = Vec::new();
    let mut frame = vec![0u64; map.len()];
    for c in 0..60u64 {
        for s in 0..n {
            src.fill_frame(s, c, &mut frame);
            for (lane, port) in map.ports.iter().enumerate() {
                flow.program.plan.poke(&mut dev, port.var, s, frame[lane]);
            }
        }
        flow.program
            .run_cycle_functional(&mut dev, &mut scratch, 0, n);
        cov.sample(&flow.design, &flow.program.plan, &dev, 0, n);
        if c % 20 == 19 {
            fractions.push(cov.fraction());
        }
    }
    assert!(
        fractions.windows(2).all(|w| w[1] >= w[0]),
        "coverage must be monotone: {fractions:?}"
    );
    assert!(*fractions.last().unwrap() > 0.4);
}

#[test]
fn coverage_shards_merge_to_whole() {
    let flow = Flow::from_benchmark(Benchmark::RiscvMini).unwrap();
    let map = PortMap::from_design(&flow.design);
    let n = 8;
    let src = RiscvSource::new(&map, n, 0x11);
    let mut scratch = Scratch::new();

    // Whole-batch coverage.
    let mut dev = flow.program.plan.alloc_device(n);
    let mut whole = ToggleCoverage::new(&flow.design);
    let mut frame = vec![0u64; map.len()];
    for c in 0..40u64 {
        for s in 0..n {
            src.fill_frame(s, c, &mut frame);
            for (lane, port) in map.ports.iter().enumerate() {
                flow.program.plan.poke(&mut dev, port.var, s, frame[lane]);
            }
        }
        flow.program
            .run_cycle_functional(&mut dev, &mut scratch, 0, n);
        whole.sample(&flow.design, &flow.program.plan, &dev, 0, n);
    }

    // Two half-batch shards, merged.
    let mut merged = ToggleCoverage::new(&flow.design);
    for half in 0..2 {
        let mut devh = flow.program.plan.alloc_device(n);
        let mut cov = ToggleCoverage::new(&flow.design);
        for c in 0..40u64 {
            for s in 0..n {
                src.fill_frame(s, c, &mut frame);
                for (lane, port) in map.ports.iter().enumerate() {
                    flow.program.plan.poke(&mut devh, port.var, s, frame[lane]);
                }
            }
            flow.program
                .run_cycle_functional(&mut devh, &mut scratch, 0, n);
            let (tid0, len) = if half == 0 {
                (0, n / 2)
            } else {
                (n / 2, n - n / 2)
            };
            cov.sample(&flow.design, &flow.program.plan, &devh, tid0, len);
        }
        merged.merge(&cov);
    }
    assert_eq!(merged.covered_bits(), whole.covered_bits());
}

/// A reader that has gone away (`rtlflow simulate … | head -1`) ends the
/// CLI with exit 0 and no panic, whichever line hits the closed pipe.
#[test]
fn cli_exits_cleanly_on_a_closed_stdout() {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_rtlflow"))
        .args([
            "simulate",
            "--benchmark",
            "riscv-mini",
            "-n",
            "8",
            "-c",
            "4",
        ])
        .stdout(writer)
        .stderr(std::process::Stdio::piped())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
