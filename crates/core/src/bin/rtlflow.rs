//! `rtlflow` — command-line front door to the flow.
//!
//! ```sh
//! rtlflow transpile design.v --top cpu --emit cuda -o cpu.cu
//! rtlflow simulate design.v --top cpu -n 4096 -c 10000
//! rtlflow simulate --benchmark riscv-mini -n 1024 -c 1000
//! rtlflow coverage design.v --top cpu -n 256 -c 500
//! rtlflow vcd design.v --top cpu -c 200 -o wave.vcd
//! rtlflow graph design.v --top cpu          # RTL graph as Graphviz DOT
//! rtlflow serve-sim --clients 8 --jobs 6    # replay a multi-client trace
//! rtlflow shard-sim --gpus 1,2,4,8          # multi-device scaling sweep
//! ```

use std::process::exit;

use rtlflow::cli::{benchmark_by_name, csv_list, Args};
use rtlflow::{fmt_duration, Benchmark, Flow, PipelineConfig, PortMap};
use transpile::ToggleCoverage;

const USAGE: &str = "usage: rtlflow <command> [args]

commands:
  transpile   <file.v> --top <module> [--emit cuda|cpp] [-o <path>]
              Transpile RTL to CUDA (or Verilator-style C++) source.
  simulate    (<file.v> --top <module> | --benchmark <name>) [-n <stimulus>]
              [-c <cycles>] [--seed <u64>] [--group <size>] [--no-pipeline]
              [--streams <k>] [--verify <count>]
              [--exec scalar|fused[:threads[:block]][@chunk]]
              Batch-simulate on the virtual A6000, optionally checking
              digests against the golden interpreter (`scalar` is the
              reference executor the fused engine is tested against).
  bench-exec  [--fast] [--json] [--benchmark <name>] [--tuned [<dir>|off]]
              [-o <path>]
              Measure functional-execution throughput (stimulus-cycles/s)
              of the scalar reference and the fused engine (one thread,
              and one per host core) across the benchmark designs at batch
              sizes 64/1024/8192. Designs with a cached tuned artifact get
              a `tuned` row. With --json the output file is merged per
              design: rows for designs not measured in this run are
              preserved from the existing file.
  autotune    [--benchmark <name> | --all | --fixture counter|picorv32]
              [--budget <probes>] [--budget-ms <ms>] [--seed <u64>]
              [--probe-n <stimulus>] [--probe-c <cycles>]
              [--cache-dir <dir>] [--static-cost] [--json] [-o <path>]
              Profile-guided search over engine threads, block size, lane
              chunk, fuser thresholds, and partition shape; persists the winner
              in the tuned-artifact cache keyed by design hash.
  shard-sim   [--benchmark <name>] [-n <stimulus>] [-c <cycles>]
              [--gpus <k1,k2,..>] [--speeds <f1,f2,..>] [--group <size>]
              [--fault-rate <p>] [--fault-seed <u64>] [--functional]
              [--seed <u64>] [--tuned [<dir>|off]] [--json]
              Sweep device counts (or one heterogeneous pool via --speeds),
              reporting measured vs analytically predicted speedup, steal
              counts, and per-device utilization.
  serve-sim   [--clients <n>] [--jobs <per-client>] [--designs <k>]
              [--max-batch <n>] [--window-ms <ms>] [--workers <n>]
              [--queue-limit <n>] [--devices <f1,f2,..>] [--seed <u64>]
              [--journal <path>] [--crash-after <k>]
              [--tuned [<dir>|off]] [--json]
              Replay a multi-client trace through the coalescing service.
              --journal write-ahead-logs every job; with --crash-after the
              service is hard-crashed after k accepted jobs and recovery
              from the journal is verified bit-identical to direct runs.
  netlist-sim (<file.json> --top <module> | --fixture counter|picorv32)
              [-n <stimulus>] [-c <cycles>] [--seed <u64>] [--rewrite on|off]
              [--exec scalar|fused[:threads[:block]][@chunk]] [--verify <count>]
              [--json]
              Import a Yosys JSON netlist, optionally run the pattern
              rewriter, batch-simulate, and report import + rewrite stats
              (digests verified against the interpreter on the un-rewritten
              import).
  cluster-sim [--benchmark <name>] [-n <stimulus>] [-c <cycles>]
              [--workers <k>] [--capacities <c1,c2,..>] [--group <size>]
              [--model-parallel <k>]
              [--kill-worker <i>@<pickup>[+<cycle>][:silent]]
              [--checkpoint-interval <cycles>] [--chaos <seed>]
              [--seed <u64>] [--tuned [<dir>|off]] [--verify] [--json]
              Run a batch on an in-process loopback TCP cluster of k
              workers, optionally killing workers mid-run (one scripted
              fault, or a deterministic --chaos campaign) and checking
              digests bit-identical to the local sharded executor. With
              --checkpoint-interval, killed groups resume on survivors
              from their last mid-group checkpoint instead of cycle 0.
              --model-parallel <k> cuts the *design* into k parts
              co-simulated across k workers with per-cycle boundary
              exchange (a killed part rolls every part back to the
              deepest common checkpoint); digests stay bit-identical.
  coverage    (<file.v> --top <module> | --benchmark <name>) [-n <stimulus>]
              [-c <cycles>] [--seed <u64>]
              Toggle-coverage report over a random batch.
  vcd         <file.v> --top <module> [-c <cycles>] [--seed <u64>] [-o <path>]
              Dump a single-stimulus output waveform as VCD.
  graph       <file.v> --top <module> [-o <path>]
              Emit the RTL graph as Graphviz DOT.
  benchmarks  List built-in benchmark designs.
  help        Print this message.
";

fn usage() -> ! {
    eprint!("{USAGE}");
    exit(2)
}

/// `--tuned` flag → tuned-artifact cache policy. No flag (or a bare
/// `--tuned`) consults the default cache dir, `--tuned off` disables the
/// cache, `--tuned <dir>` points at an explicit one.
fn tuned_policy(args: &Args) -> rtlflow::TunePolicy {
    match args.get("tuned") {
        Some("off") => rtlflow::TunePolicy::Off,
        Some(dir) => rtlflow::TunePolicy::Dir(dir.into()),
        None => rtlflow::TunePolicy::Auto,
    }
}

/// `--exec <spec>`, or the default engine.
fn exec_config(args: &Args) -> rtlflow::ExecConfig {
    match args.get("exec") {
        Some(s) => rtlflow::ExecConfig::parse(s).unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(2)
        }),
        None => rtlflow::ExecConfig::default(),
    }
}

/// `-o <path>`; a bare `-o` is a usage error.
fn out_path(args: &Args) -> Option<&str> {
    let path = args.get("o");
    if path.is_none() && args.has("o") {
        usage()
    }
    path
}

fn load_flow(args: &Args) -> Flow {
    let top = args.get("top");
    if let Some(b) = args.get("benchmark") {
        return Flow::from_benchmark(benchmark_by_name(b)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            exit(1)
        });
    }
    let Some(path) = args.positional.get(1) else {
        usage()
    };
    let Some(top) = top else {
        eprintln!("--top <module> is required with a Verilog file");
        exit(2)
    };
    let src = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1)
    });
    Flow::from_verilog(&src, top).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(1)
    })
}

fn write_out(out: Option<&str>, default_name: &str, content: &str) {
    match out {
        Some(path) => {
            std::fs::write(path, content).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                exit(1)
            });
            eprintln!("wrote {path}");
        }
        None => {
            if content.len() > 200_000 {
                let path = default_name;
                std::fs::write(path, content).unwrap();
                eprintln!("large output written to {path}");
            } else {
                println!("{content}");
            }
        }
    }
}

/// Convert a parsed JSON value (the netlist frontend's reader) into the
/// emitter's tree, preserving member order. `bench-exec --json` uses this
/// to carry previously-measured design rows into the merged output file.
fn jvalue_to_json(v: &netlist::json::JValue) -> desim::Json {
    use desim::Json;
    use netlist::json::JValue;
    match v {
        JValue::Null => Json::Null,
        JValue::Bool(b) => Json::Bool(*b),
        JValue::Int(i) => Json::Int(*i as i128),
        JValue::Num(n) => Json::Num(*n),
        JValue::Str(s) => Json::Str(s.clone()),
        JValue::Arr(a) => Json::Arr(a.iter().map(jvalue_to_json).collect()),
        JValue::Obj(m) => Json::Obj(
            m.iter()
                .map(|(k, v)| (k.clone(), jvalue_to_json(v)))
                .collect(),
        ),
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        usage();
    }
    let args = Args::parse(&raw);
    match raw[0].as_str() {
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
        }
        "benchmarks" => {
            args.finish();
            println!("riscv-mini   single-cycle RV32I-subset core");
            println!("spinal       3-stage pipelined core with forwarding + branch prediction");
            println!("nvdla        deep-learning accelerator, hw_small scale (8x8x4 PEs)");
            println!("nvdla-small  4x4x2 PEs");
            println!("nvdla-tiny   2x2x1 PEs");
            println!("picorv32     vendored Yosys-JSON netlist fixture (gate-level RV32I subset)");
            println!("handshake    control-heavy valid/ready ring, almost all 1-bit signals");
        }
        "transpile" => {
            let flow = load_flow(&args);
            let emit = args.get("emit").unwrap_or("cuda");
            let out = out_path(&args);
            args.finish();
            let (text, metrics) = match emit {
                "cpp" => rtlflow::emit_cpp(&flow.design),
                _ => rtlflow::emit_cuda(&flow.design, &flow.program),
            };
            eprintln!(
                "{}: {} LoC, {} tokens, CC_avg {:.1}, {} kernels/cycle",
                flow.design.name,
                metrics.loc,
                metrics.tokens,
                metrics.cc_avg,
                flow.cuda.len()
            );
            write_out(out, "out.cu", &text);
        }
        "simulate" => {
            let flow = load_flow(&args);
            let n: usize = args.num("n", 1024);
            let cycles: u64 = args.num("c", 1000);
            let seed: u64 = args.num("seed", 1);
            let map = PortMap::from_design(&flow.design);
            let source = stimulus::source_for(&flow.design, &map, n, seed);
            let cfg = PipelineConfig {
                group_size: args.num("group", 1024.min(n)),
                pipelined: !args.has("no-pipeline"),
                mode: match args.get("streams") {
                    Some(s) => rtlflow::ExecMode::Stream {
                        streams: s.parse().unwrap_or(4),
                    },
                    None => rtlflow::ExecMode::Graph,
                },
                exec: exec_config(&args),
                ..Default::default()
            };
            let verify: Option<usize> = args.get("verify").map(|v| v.parse().unwrap_or(4));
            args.finish();
            let t0 = std::time::Instant::now();
            let result = flow
                .simulate(source.as_ref(), cycles, &cfg)
                .unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    exit(1)
                });
            println!(
                "simulated {n} stimulus x {cycles} cycles ({:?} host time)",
                t0.elapsed()
            );
            println!("modeled A6000 wall time: {}", fmt_duration(result.makespan));
            println!("GPU utilization: {:.1}%", result.gpu_utilization * 100.0);
            let unique: std::collections::HashSet<_> = result.digests.iter().collect();
            println!("{} distinct output signatures", unique.len());
            let st = &result.exec;
            println!(
                "fusion: {} ops -> {} fops ({} superops, {} consts folded, {} dead removed)",
                st.fuse.ops_in,
                st.fuse.ops_out,
                st.fuse.superops,
                st.fuse.consts_folded,
                st.fuse.dead_removed
            );
            println!(
                "uniform slots: {}/{}; scalar ops/cycle: {:.1}",
                st.uniform_slots, st.total_slots, st.scalar_ops_per_cycle
            );
            if let Some(count) = verify {
                let checked = flow
                    .verify_against_golden(source.as_ref(), cycles.min(200), count)
                    .unwrap_or_else(|e| {
                        eprintln!("GOLDEN MISMATCH: {e}");
                        exit(1)
                    });
                println!("verified {checked} stimulus against the golden reference");
            }
        }
        "bench-exec" => {
            use autotune::probe::median_throughput;
            use desim::Json;
            use rtlflow::ExecConfig;

            let fast = args.has("fast");
            let policy = tuned_policy(&args);
            let all_designs = [
                "riscv-mini",
                "spinal",
                "nvdla-tiny",
                "picorv32",
                "handshake",
            ];
            // `--benchmark <name>` restricts the run to one design; with
            // --json the other designs' rows survive via the merge below.
            let designs: Vec<&str> = match args.get("benchmark") {
                Some(name) => {
                    benchmark_by_name(name); // validates the name (exits on junk)
                    vec![name]
                }
                None => all_designs.to_vec(),
            };
            let json = args.has("json");
            let out = out_path(&args);
            args.finish();
            let batches: [usize; 3] = [64, 1024, 8192];
            let strategies: [(&str, ExecConfig); 3] = [
                ("scalar", ExecConfig::scalar()),
                ("fused", ExecConfig::fused(1)),
                ("fused_par", ExecConfig::fused(0)),
            ];

            let mut design_rows: Vec<Json> = Vec::new();
            let mut table = String::new();
            for name in designs {
                let flow = Flow::from_benchmark(benchmark_by_name(name)).unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    exit(1)
                });
                let map = PortMap::from_design(&flow.design);
                // Tuned config, if the cache has one for this design: the
                // program is rebuilt with the tuned partition/fuse and
                // measured with the tuned exec.
                let tuned = policy
                    .lookup(rtlir::design_hash(&flow.design))
                    .and_then(|a| {
                        autotune::prepare_tuned(&flow.design, &flow.model, &a)
                            .ok()
                            .map(|(program, _)| (a, program))
                    });
                let mut batch_rows: Vec<Json> = Vec::new();
                for &n in &batches {
                    // Fewer cycles at the biggest batch and in --fast mode:
                    // throughput is per stimulus-cycle, so the sample just
                    // needs to be large enough to dominate timer noise.
                    let cycles: u64 = match (fast, n >= 8192) {
                        (true, true) => 8,
                        (true, false) => 32,
                        (false, true) => 64,
                        (false, false) => 256,
                    };
                    let source = stimulus::source_for(&flow.design, &map, n, 7);
                    let mut row = Json::obj().field("n", n).field("cycles", cycles);
                    table.push_str(&format!("{name:>12}  n={n:<6} c={cycles:<4}"));
                    for (label, exec) in &strategies {
                        let tput = median_throughput(&flow.program, *exec, &map, &source, cycles);
                        row = row.field(label, tput);
                        table.push_str(&format!("  {label} {tput:>12.0}/s"));
                    }
                    if let Some((a, program)) = &tuned {
                        let tput = median_throughput(program, a.exec, &map, &source, cycles);
                        row = row.field("tuned", tput);
                        table.push_str(&format!("  tuned {tput:>12.0}/s"));
                    }
                    table.push('\n');
                    batch_rows.push(row);
                }
                let mut drow = Json::obj().field("design", name);
                if let Some((a, _)) = &tuned {
                    drow = drow.field(
                        "tuned_config",
                        Json::obj()
                            .field("exec", a.exec.spec())
                            .field(
                                "fuse",
                                format!("{},{}", a.fuse.const_fold_min_ops, a.fuse.superop_min_ops),
                            )
                            .field("partition", a.partition.spec()),
                    );
                }
                design_rows.push(drow.field("batches", Json::Arr(batch_rows)));
            }

            if json {
                // Merge per design instead of wholesale rewrite: rows for
                // designs not measured in this run are carried over from
                // the existing file in their original positions, and a
                // re-measured design replaces its old row in place. A
                // `--benchmark handshake` run therefore updates one row of
                // BENCH_simt.json and leaves the other four untouched.
                let path = out.unwrap_or("BENCH_simt.json");
                let mut fresh: Vec<Option<Json>> = design_rows.into_iter().map(Some).collect();
                let take = |fresh: &mut Vec<Option<Json>>, name: &str| -> Option<Json> {
                    fresh.iter_mut().find_map(|slot| {
                        match slot {
                            Some(Json::Obj(m)) => m
                                .iter()
                                .any(|(k, v)| k == "design" && *v == Json::Str(name.into())),
                            _ => false,
                        }
                        .then(|| slot.take())
                        .flatten()
                    })
                };
                let mut merged: Vec<Json> = Vec::new();
                if let Ok(prev) = std::fs::read_to_string(path) {
                    if let Ok(doc) = netlist::json::parse(&prev) {
                        for row in doc
                            .get("designs")
                            .and_then(|d| d.as_arr())
                            .unwrap_or_default()
                        {
                            let name = row.get("design").and_then(|d| d.as_str());
                            match name.and_then(|n| take(&mut fresh, n)) {
                                Some(new_row) => merged.push(new_row),
                                None => merged.push(jvalue_to_json(row)),
                            }
                        }
                    }
                }
                merged.extend(fresh.into_iter().flatten());
                let doc = Json::obj()
                    .field("fast", fast)
                    .field("unit", "stimulus-cycles/sec")
                    .field("designs", Json::Arr(merged));
                write_out(out, "BENCH_simt.json", &format!("{doc}\n"));
            } else {
                println!(
                    "bench-exec (stimulus-cycles/sec{}):",
                    if fast { ", fast mode" } else { "" }
                );
                print!("{table}");
            }
        }
        "autotune" => {
            use desim::Json;
            use rtlflow::{tune, CostSource, TuneCache, TuneConfig};

            let (fixture, all) = (args.get("fixture"), args.has("all"));
            let benchmark = args.get("benchmark").unwrap_or("riscv-mini");
            let default_probe = rtlflow::ProbeSettings::default();
            let cfg = TuneConfig {
                seed: args.num("seed", 42),
                max_probes: args.num("budget", 24),
                budget_ms: args.num("budget-ms", 0),
                cost: if args.has("static-cost") {
                    CostSource::Static
                } else {
                    CostSource::Measured
                },
                probe: rtlflow::ProbeSettings {
                    num_stimulus: args.num("probe-n", default_probe.num_stimulus),
                    cycles: args.num("probe-c", default_probe.cycles),
                    ..default_probe
                },
                ..Default::default()
            };
            let cache = match args.get("cache-dir") {
                Some(d) => TuneCache::at(d),
                None => TuneCache::open_default(),
            };
            let json = args.has("json");
            let out = out_path(&args);
            args.finish();

            let targets: Vec<(String, rtlir::Design)> = if let Some(f) = fixture {
                let (src, top) = match f {
                    "counter" => (netlist::COUNTER_JSON, "counter"),
                    "picorv32" => (netlist::PICORV32_JSON, "picorv32"),
                    other => {
                        eprintln!("unknown fixture `{other}` (counter, picorv32)");
                        exit(2)
                    }
                };
                let (design, _) = netlist::import_str(src, top).unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    exit(1)
                });
                vec![(format!("fixture-{top}"), design)]
            } else {
                let names: Vec<&str> = if all {
                    vec![
                        "riscv-mini",
                        "spinal",
                        "nvdla-tiny",
                        "picorv32",
                        "handshake",
                    ]
                } else {
                    vec![benchmark]
                };
                names
                    .into_iter()
                    .map(|name| {
                        let design = benchmark_by_name(name).elaborate().unwrap_or_else(|e| {
                            eprintln!("error: {e}");
                            exit(1)
                        });
                        (name.to_string(), design)
                    })
                    .collect()
            };
            let mut runs: Vec<Json> = Vec::new();
            for (name, design) in &targets {
                let report = tune(design, name, &cfg).unwrap_or_else(|e| {
                    eprintln!("error: tuning {name}: {e}");
                    exit(1)
                });
                let path = cache.store(&report.artifact).unwrap_or_else(|e| {
                    eprintln!("error: cannot persist artifact: {e}");
                    exit(1)
                });
                let a = &report.artifact;
                if !json {
                    println!(
                        "{name}: {:.2}x over default after {} probes ({} ms)",
                        a.speedup(),
                        a.probes,
                        report.elapsed_ms
                    );
                    println!(
                        "  winner: exec={} fuse={},{} partition={}",
                        a.exec.spec(),
                        a.fuse.const_fold_min_ops,
                        a.fuse.superop_min_ops,
                        a.partition.spec()
                    );
                    println!("  cached: {}", path.display());
                }
                runs.push(report.to_json());
            }
            if json {
                let doc = Json::obj()
                    .field("cache_dir", cache.dir().display().to_string())
                    .field("runs", Json::Arr(runs));
                write_out(out, "AUTOTUNE.json", &format!("{doc}\n"));
            }
        }
        "coverage" => {
            let flow = load_flow(&args);
            let n: usize = args.num("n", 256);
            let cycles: u64 = args.num("c", 500);
            let seed: u64 = args.num("seed", 1);
            args.finish();
            let map = PortMap::from_design(&flow.design);
            let source = stimulus::source_for(&flow.design, &map, n, seed);
            let mut runner =
                rtlflow::GroupRunner::new(&flow.program, rtlflow::ExecConfig::default(), n);
            let mut cov = ToggleCoverage::new(&flow.design);
            for _ in 0..cycles {
                runner.poke_source(&map, source.as_ref(), 0);
                runner.step();
                cov.sample(&flow.design, &flow.program.plan, runner.dev(), 0, n);
            }
            print!("{}", cov.report(&flow.design, 20));
        }
        "vcd" => {
            let flow = load_flow(&args);
            let cycles: u64 = args.num("c", 200);
            let seed: u64 = args.num("seed", 1);
            let out = out_path(&args);
            args.finish();
            let map = PortMap::from_design(&flow.design);
            let source = stimulus::source_for(&flow.design, &map, 1, seed);
            let mut frame = vec![0u64; map.len()];
            let vcd = rtlir::vcd::dump_outputs(&flow.design, cycles, |c| {
                source.fill_frame(0, c, &mut frame);
                map.to_pokes(&frame)
            })
            .unwrap_or_else(|e| {
                eprintln!("error: {e}");
                exit(1)
            });
            write_out(out, "wave.vcd", &vcd);
        }
        "graph" => {
            let flow = load_flow(&args);
            let out = out_path(&args);
            args.finish();
            let dot = flow.graph_info.to_dot(&flow.design);
            write_out(out, "rtl.dot", &dot);
        }
        "shard-sim" => {
            use desim::Json;
            use rtlflow::{DevicePool, FaultSpec, HostModel, ShardConfig};

            let bench_name = args.get("benchmark").unwrap_or("riscv-mini");
            let n: usize = args.num("n", 65536);
            let cycles: u64 = args.num("c", 64);
            let group: usize = args.num("group", 1024);
            let fault_rate: f64 = args.num("fault-rate", 0.0);
            let fault_seed: u64 = args.num("fault-seed", 1);
            let seed: u64 = args.num("seed", 1);
            let functional = args.has("functional");
            let cfg = ShardConfig {
                group_size: group.clamp(1, n.max(1)),
                fault: (fault_rate > 0.0).then(|| FaultSpec::with_rate(fault_rate, fault_seed)),
                tuned: tuned_policy(&args),
                ..Default::default()
            };
            let (speeds, gpus) = (args.get("speeds"), args.get("gpus").unwrap_or("1,2,4"));
            let json = args.has("json");
            args.finish();

            let flow = Flow::from_benchmark(benchmark_by_name(bench_name)).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                exit(1)
            });
            let map = PortMap::from_design(&flow.design);
            let pools: Vec<DevicePool> = match speeds {
                Some(s) => vec![DevicePool::with_speeds(
                    flow.model.clone(),
                    &csv_list::<f64>(s, "speeds"),
                )],
                None => csv_list::<usize>(gpus, "gpus")
                    .into_iter()
                    .map(|k| DevicePool::uniform(flow.model.clone(), k.max(1)))
                    .collect(),
            };

            let run = |pool: &DevicePool| {
                if functional {
                    let source = stimulus::source_for(&flow.design, &map, n, seed);
                    flow.simulate_sharded(source.as_ref(), cycles, &cfg, pool)
                        .unwrap_or_else(|e| {
                            eprintln!("error: {e}");
                            exit(1)
                        })
                } else {
                    rtlflow::model_shard_batch(
                        &flow.program,
                        &flow.cuda,
                        map.len(),
                        n,
                        cycles,
                        &cfg,
                        pool,
                    )
                }
            };
            // Baselines: measured single device, and the analytic static
            // multi-GPU model at each device count.
            let t1 = run(&DevicePool::uniform(flow.model.clone(), 1)).makespan;
            let pcfg = PipelineConfig {
                group_size: cfg.group_size,
                host: HostModel::xeon(),
                ..Default::default()
            };
            let predict = |k: usize| {
                pipeline::model_batch_multi_gpu(
                    &flow.program,
                    &flow.cuda,
                    map.len(),
                    n,
                    cycles,
                    &pcfg,
                    &flow.model,
                    k,
                )
                .makespan
            };
            let predicted_t1 = predict(1);

            let mut sweeps = Vec::new();
            for pool in &pools {
                let r = run(pool);
                let k = pool.len();
                let speedup = t1 as f64 / r.makespan as f64;
                let model_speedup = predicted_t1 as f64 / predict(k) as f64;
                sweeps.push((k, r, speedup, model_speedup));
            }

            if json {
                let rows: Vec<Json> = sweeps
                    .iter()
                    .map(|(k, r, speedup, model_speedup)| {
                        Json::obj()
                            .field("gpus", *k)
                            .field("speedup", *speedup)
                            .field("model_speedup", *model_speedup)
                            .field("efficiency", r.metrics.scaling_efficiency(t1))
                            .field("metrics", r.metrics.to_json())
                    })
                    .collect();
                let doc = Json::obj()
                    .field("benchmark", bench_name)
                    .field("n", n)
                    .field("cycles", cycles)
                    .field("functional", functional)
                    .field("fault_rate", fault_rate)
                    .field("single_device_makespan_ns", t1)
                    .field("sweeps", Json::Arr(rows));
                println!("{doc}");
            } else {
                println!(
                    "shard-sim: {} stimulus x {} cycles, group {}{}",
                    n,
                    cycles,
                    cfg.group_size,
                    if functional { "" } else { " (timing-only)" }
                );
                println!(
                    "  {:>4}  {:>12}  {:>8}  {:>9}  {:>6}  {:>7}  {:>7}",
                    "gpus", "makespan", "speedup", "predicted", "eff%", "steals", "faults"
                );
                for (k, r, speedup, model_speedup) in &sweeps {
                    println!(
                        "  {:>4}  {:>12}  {:>7.2}x  {:>8.2}x  {:>6.1}  {:>7}  {:>7}",
                        k,
                        fmt_duration(r.makespan),
                        speedup,
                        model_speedup,
                        r.metrics.scaling_efficiency(t1) * 100.0,
                        r.metrics.total_steals,
                        r.metrics.faults_injected,
                    );
                }
                for (k, r, _, _) in &sweeps {
                    println!("\nper-device ({k} gpu{}):", if *k == 1 { "" } else { "s" });
                    print!("{}", r.metrics.table());
                }
            }
        }
        "serve-sim" => {
            use rtlflow::{ServeConfig, SimService, TraceConfig};
            use std::sync::Arc;
            use std::time::Duration;

            // DUT pool: 1 = max coalescing, 2 = adds a second engine.
            let n_designs: usize = args.num("designs", 1);
            let serve_cfg = ServeConfig {
                max_batch: args.num("max-batch", 4096),
                window: Duration::from_millis(args.num("window-ms", 5)),
                queue_limit: args.num("queue-limit", 256),
                workers: args.num("workers", 2),
                devices: match args.get("devices") {
                    Some(s) => csv_list::<f64>(s, "devices"),
                    None => vec![1.0],
                },
                tuned: tuned_policy(&args),
                journal: args.get("journal").map(std::path::PathBuf::from),
                ..Default::default()
            };
            let crash_after = args.get("crash-after");
            let trace_cfg = TraceConfig {
                clients: args.num("clients", 8),
                jobs_per_client: args.num("jobs", 6),
                seed: args.num("seed", 7),
                ..Default::default()
            };
            let json = args.has("json");
            args.finish();

            let pool = [Benchmark::RiscvMini, Benchmark::Spinal];
            let designs: Vec<Arc<rtlflow::Design>> = pool
                .iter()
                .take(n_designs.clamp(1, pool.len()))
                .map(|b| {
                    Flow::from_benchmark(*b)
                        .map(|f| Arc::new(f.design))
                        .unwrap_or_else(|e| {
                            eprintln!("error: {e}");
                            exit(1)
                        })
                })
                .collect();

            // `--crash-after <k>`: crash-resilience demo instead of the
            // trace replay. Accept k journaled jobs behind an effectively
            // infinite window (so none can flush), hard-crash the
            // service, then recover every job from the write-ahead
            // journal on a fresh service and check each one's digests
            // bit-identical to a direct local run. Exits nonzero on any
            // lost job or digest mismatch.
            if let Some(k) = crash_after {
                let k: usize = k.parse().unwrap_or_else(|_| {
                    eprintln!("bad --crash-after `{k}` (want a job count)");
                    exit(2)
                });
                let Some(jpath) = serve_cfg.journal.clone() else {
                    eprintln!("--crash-after requires --journal <path>");
                    exit(2)
                };
                let _ = std::fs::remove_file(&jpath);
                let seed = trace_cfg.seed;
                let cycles: u64 = 40;
                let maps: Vec<PortMap> = designs.iter().map(|d| PortMap::from_design(d)).collect();
                let make_source = |which: usize, n: usize, jseed: u64| {
                    Box::new(stimulus::RandomSource::new(&maps[which], n, jseed))
                        as Box<dyn stimulus::StimulusSource>
                };

                let service = SimService::start(ServeConfig {
                    window: Duration::from_secs(3600),
                    ..serve_cfg.clone()
                });
                for i in 0..k {
                    let which = i % designs.len();
                    let n = 8 + i;
                    let jseed = seed ^ ((i as u64) << 8);
                    let spec = rtlflow::JobSpec::new(
                        std::sync::Arc::clone(&designs[which]),
                        make_source(which, n, jseed),
                        cycles,
                    )
                    .with_descriptor(format!("rand:{which}:{n}:{jseed}:{cycles}"));
                    service.submit(spec).unwrap_or_else(|e| {
                        eprintln!("error: submit {i}: {e}");
                        exit(1)
                    });
                }
                let crashed = service.crash();
                println!(
                    "crashed with {} accepted jobs ({} journal records fsync'd)",
                    crashed.jobs_accepted, crashed.journal_records
                );

                let pending = rtlflow::journal::pending(&jpath).unwrap_or_else(|e| {
                    eprintln!("error: read journal: {e}");
                    exit(1)
                });
                if pending.len() != k {
                    eprintln!(
                        "JOB LOSS: journal recovers {} of {k} accepted jobs",
                        pending.len()
                    );
                    exit(1);
                }
                let service = SimService::start(serve_cfg);
                let handles: Vec<(usize, usize, u64, rtlflow::JobHandle)> = pending
                    .iter()
                    .map(|p| {
                        let fields: Vec<&str> = p.descriptor.split(':').collect();
                        let parse = || -> Option<(usize, usize, u64, u64)> {
                            if fields.len() != 5 || fields[0] != "rand" {
                                return None;
                            }
                            Some((
                                fields[1].parse().ok()?,
                                fields[2].parse().ok()?,
                                fields[3].parse().ok()?,
                                fields[4].parse().ok()?,
                            ))
                        };
                        let (which, n, jseed, jcycles) = parse().unwrap_or_else(|| {
                            eprintln!("unrecognized journal descriptor `{}`", p.descriptor);
                            exit(1)
                        });
                        let spec = rtlflow::JobSpec::new(
                            std::sync::Arc::clone(&designs[which]),
                            make_source(which, n, jseed),
                            jcycles,
                        )
                        .with_descriptor(p.descriptor.clone())
                        .recovered_from(p.id);
                        let h = service.submit(spec).unwrap_or_else(|e| {
                            eprintln!("error: recover job {}: {e}", p.id);
                            exit(1)
                        });
                        (which, n, jseed, h)
                    })
                    .collect();
                let mut mismatches = 0usize;
                for (which, n, jseed, h) in handles {
                    let result = h.wait().unwrap_or_else(|e| {
                        eprintln!("error: recovered job failed: {e}");
                        exit(1)
                    });
                    let flow = Flow::from_benchmark(pool[which]).unwrap_or_else(|e| {
                        eprintln!("error: {e}");
                        exit(1)
                    });
                    let golden = flow
                        .simulate(
                            &stimulus::RandomSource::new(&maps[which], n, jseed),
                            cycles,
                            &PipelineConfig::default(),
                        )
                        .unwrap_or_else(|e| {
                            eprintln!("error: reference run: {e}");
                            exit(1)
                        });
                    if result.digests != golden.digests {
                        mismatches += 1;
                    }
                }
                let metrics = service.shutdown();
                if mismatches > 0 {
                    eprintln!(
                        "RECOVERY MISMATCH: {mismatches} recovered job(s) diverge from \
                         direct local runs"
                    );
                    exit(1);
                }
                println!(
                    "recovered {} job(s) from {}; all digests bit-identical to direct runs",
                    metrics.jobs_recovered,
                    jpath.display()
                );
                if json {
                    println!("{}", metrics.to_json());
                } else {
                    print!("{}", metrics.table());
                }
                return;
            }

            if !json {
                println!(
                    "serve-sim: {} clients x {} jobs over {} design(s); \
                     max batch {}, window {:?}, {} workers, queue limit {}, {} device(s)",
                    trace_cfg.clients,
                    trace_cfg.jobs_per_client,
                    designs.len(),
                    serve_cfg.max_batch,
                    serve_cfg.window,
                    serve_cfg.workers,
                    serve_cfg.queue_limit,
                    serve_cfg.devices.len()
                );
            }
            let service = SimService::start(serve_cfg);
            let report = rtlflow::serve_replay(&service, &designs, &trace_cfg);
            let metrics = service.shutdown();
            if json {
                println!("{}", metrics.to_json());
            } else {
                println!("\nclient-side trace report:");
                print!("{}", report.table());
                println!("\nservice metrics:");
                print!("{}", metrics.table());
            }
        }
        "netlist-sim" => {
            use desim::Json;

            let top_flag = args.get("top");
            let do_rewrite = match args.get("rewrite").unwrap_or("on") {
                "on" => true,
                "off" => false,
                other => {
                    eprintln!("bad value for --rewrite: `{other}` (on|off)");
                    exit(2)
                }
            };
            let n: usize = args.num("n", 1024);
            let cycles: u64 = args.num("c", 1000);
            let seed: u64 = args.num("seed", 1);
            let cfg = PipelineConfig {
                group_size: args.num("group", 1024.min(n)),
                exec: exec_config(&args),
                ..Default::default()
            };
            let verify: Option<usize> = args.get("verify").map(|v| v.parse().unwrap_or(4));
            let json = args.has("json");
            let fixture = args.get("fixture");
            args.finish();

            let (src, top): (String, String) = match fixture {
                Some("counter") => (netlist::COUNTER_JSON.to_string(), "counter".into()),
                Some("picorv32") => (netlist::PICORV32_JSON.to_string(), "picorv32".into()),
                Some(other) => {
                    eprintln!("unknown fixture `{other}` (counter, picorv32)");
                    exit(2)
                }
                None => {
                    let Some(path) = args.positional.get(1) else {
                        usage()
                    };
                    let Some(top) = top_flag else {
                        eprintln!("--top <module> is required with a netlist file");
                        exit(2)
                    };
                    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                        eprintln!("cannot read {path}: {e}");
                        exit(1)
                    });
                    (text, top.to_string())
                }
            };
            let (reference, import_stats) = netlist::import_str(&src, &top).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                exit(1)
            });
            let mut design = reference.clone();
            let rw = do_rewrite.then(|| netlist::rewrite(&mut design));

            let flow = Flow::from_design(
                design,
                rtlflow::PartitionStrategy::PerLevel,
                rtlflow::GpuModel::default(),
            )
            .unwrap_or_else(|e| {
                eprintln!("error: {e}");
                exit(1)
            });
            let map = PortMap::from_design(&flow.design);
            let source = stimulus::source_for(&flow.design, &map, n, seed);
            let t0 = std::time::Instant::now();
            let result = flow
                .simulate(source.as_ref(), cycles, &cfg)
                .unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    exit(1)
                });
            let host = t0.elapsed();

            // Verification runs the interpreter on the *un-rewritten*
            // import, so it checks the importer, the rewriter, and the
            // batch executor against each other in one pass.
            let verified = verify.map(|count| {
                let vc = cycles.min(200);
                let step = (n / count.max(1)).max(1);
                let mut frame = vec![0u64; map.len()];
                let mut compared = 0usize;
                for stim in (0..n).step_by(step) {
                    let mut interp = rtlflow::Interp::new(&reference).unwrap_or_else(|e| {
                        eprintln!("error: {e}");
                        exit(1)
                    });
                    for c in 0..vc {
                        source.fill_frame(stim, c, &mut frame);
                        interp.step_cycle(&map.to_pokes(&frame));
                    }
                    if cycles == vc && result.digests[stim] != interp.output_digest() {
                        eprintln!(
                            "GOLDEN MISMATCH: stimulus {stim} diverged from the \
                             un-rewritten interpreter reference"
                        );
                        exit(1);
                    }
                    compared += 1;
                }
                compared
            });

            if json {
                let mut doc = Json::obj()
                    .field("top", top.as_str())
                    .field("n", n)
                    .field("cycles", cycles)
                    .field(
                        "import",
                        Json::obj()
                            .field("cells", import_stats.cells)
                            .field("nets", import_stats.nets)
                            .field("vars", import_stats.vars)
                            .field("processes", import_stats.processes),
                    );
                if let Some(rw) = &rw {
                    doc = doc.field(
                        "rewrite",
                        Json::obj()
                            .field("processes_in", rw.processes_in)
                            .field("processes_out", rw.processes_out)
                            .field("reduction_pct", rw.reduction_pct())
                            .field("consts_folded", rw.consts_folded)
                            .field("consts_propagated", rw.consts_propagated)
                            .field("copies_propagated", rw.copies_propagated)
                            .field("muxes_collapsed", rw.muxes_collapsed)
                            .field("subexprs_shared", rw.subexprs_shared)
                            .field("adders_widened", rw.adders_widened)
                            .field("comparators_widened", rw.comparators_widened)
                            .field("dead_removed", rw.dead_removed)
                            .field("rounds", rw.rounds),
                    );
                }
                let st = &result.exec;
                doc = doc
                    .field(
                        "fusion",
                        Json::obj()
                            .field("ops_in", st.fuse.ops_in)
                            .field("ops_out", st.fuse.ops_out)
                            .field("superops", st.fuse.superops),
                    )
                    .field("makespan_ns", result.makespan)
                    .field("gpu_utilization", result.gpu_utilization)
                    .field("host_seconds", host.as_secs_f64());
                if let Some(compared) = verified {
                    doc = doc.field("verified", compared);
                }
                println!("{doc}");
            } else {
                println!(
                    "imported {top}: {} cells, {} nets -> {} vars, {} processes",
                    import_stats.cells,
                    import_stats.nets,
                    import_stats.vars,
                    import_stats.processes
                );
                match &rw {
                    Some(rw) => print!("{}", rw.table()),
                    None => println!("rewrite: off"),
                }
                let st = &result.exec;
                println!(
                    "fusion: {} ops -> {} fops ({} superops)",
                    st.fuse.ops_in, st.fuse.ops_out, st.fuse.superops
                );
                println!("simulated {n} stimulus x {cycles} cycles ({host:?} host time)");
                println!("modeled A6000 wall time: {}", fmt_duration(result.makespan));
                if let Some(compared) = verified {
                    println!(
                        "verified {compared} stimulus against the un-rewritten \
                         interpreter reference"
                    );
                }
            }
        }
        "cluster-sim" => {
            use rtlflow::{
                ClusterConfig, Controller, DevicePool, FaultMode, ShardConfig, WorkerConfig,
                WorkerFault,
            };
            use std::time::Duration;

            let bench_name = args.get("benchmark").unwrap_or("riscv-mini");
            let bench = benchmark_by_name(bench_name);
            let n: usize = args.num("n", 4096);
            let cycles: u64 = args.num("c", 64);
            let seed: u64 = args.num("seed", 1);
            let group: usize = args.num("group", 1024);
            let workers: usize = args.num("workers", 4);
            let capacities: Vec<u32> = match args.get("capacities") {
                Some(s) => csv_list(s, "capacities"),
                None => vec![1; workers],
            };
            if capacities.is_empty() || capacities.contains(&0) {
                eprintln!("--capacities needs positive values");
                exit(2);
            }
            // `--kill-worker i@k[+cycle][:silent]`: worker i disconnects
            // (or goes silent) at its k-th group pickup — `+cycle` delays
            // the death until that many cycles into the group, past any
            // checkpoints due by then — then rejoins healthy.
            let fault: Option<(usize, WorkerFault)> = args.get("kill-worker").map(|s| {
                let parse = || -> Option<(usize, WorkerFault)> {
                    let (spec, mode) = match s.strip_suffix(":silent") {
                        Some(rest) => (rest, FaultMode::Silent),
                        None => (s, FaultMode::Disconnect),
                    };
                    let (i, rest) = spec.split_once('@')?;
                    let (k, mid_cycle) = match rest.split_once('+') {
                        Some((k, c)) => (k, Some(c.parse().ok()?)),
                        None => (rest, None),
                    };
                    Some((
                        i.parse().ok()?,
                        WorkerFault {
                            after_pickups: k.parse().ok()?,
                            mode,
                            mid_cycle,
                        },
                    ))
                };
                parse().unwrap_or_else(|| {
                    eprintln!("bad --kill-worker `{s}` (want <worker>@<pickup>[+cycle][:silent])");
                    exit(2)
                })
            });
            if let Some((i, _)) = &fault {
                if *i >= capacities.len() {
                    eprintln!(
                        "--kill-worker names worker {i} but only {} exist",
                        capacities.len()
                    );
                    exit(2);
                }
            }
            // Mid-group snapshot cadence (0 = off): workers ship a
            // checkpoint every this-many cycles, and requeued groups
            // resume from the last one instead of cycle 0.
            let checkpoint_interval: u64 = args.num("checkpoint-interval", 0);
            // `--model-parallel k` (0 = off): cut the design into k parts
            // co-simulated across k workers instead of replicating it.
            let model_parallel: usize = args.num("model-parallel", 0);
            if model_parallel > capacities.len() {
                eprintln!(
                    "--model-parallel {model_parallel} needs that many workers, only {} spawn",
                    capacities.len()
                );
                exit(2);
            }
            // `--chaos <seed>`: replace any single --kill-worker fault
            // with a deterministic scripted campaign derived from the
            // seed (reproduce CI failures from the seed alone).
            let chaos: Option<rtlflow::ChaosPlan> = args.get("chaos").map(|s| {
                let seed: u64 = s.parse().unwrap_or_else(|_| {
                    eprintln!("bad --chaos `{s}` (want a u64 seed)");
                    exit(2)
                });
                rtlflow::ChaosPlan::generate(seed, capacities.len(), cycles, checkpoint_interval)
            });
            let tuned = tuned_policy(&args);
            let (verify, json) = (args.has("verify"), args.has("json"));
            args.finish();
            if let Some(plan) = &chaos {
                print!("{}", plan.describe());
            }

            let flow = Flow::from_benchmark(bench).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                exit(1)
            });
            let controller = Controller::bind(
                "127.0.0.1:0",
                ClusterConfig {
                    group_size: group.clamp(1, n.max(1)),
                    ..Default::default()
                },
            )
            .unwrap_or_else(|e| {
                eprintln!("error: bind controller: {e}");
                exit(1)
            });
            let key = controller
                .register_design(&bench.source(), bench.top())
                .unwrap_or_else(|e| {
                    eprintln!("error: register design: {e}");
                    exit(1)
                });
            let handles: Vec<_> = capacities
                .iter()
                .enumerate()
                .map(|(i, &capacity)| {
                    rtlflow::spawn_worker(
                        controller.addr(),
                        WorkerConfig {
                            capacity,
                            fault: match &chaos {
                                Some(plan) => plan.fault_for(i),
                                None => fault.as_ref().filter(|(w, _)| *w == i).map(|&(_, f)| f),
                            },
                            checkpoint_interval,
                            tuned: tuned.clone(),
                            ..Default::default()
                        },
                    )
                })
                .collect();
            controller
                .wait_for_workers(capacities.len(), Duration::from_secs(10))
                .unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    exit(1)
                });

            let map = PortMap::from_design(&flow.design);
            let source = stimulus::source_for(&flow.design, &map, n, seed);
            let t0 = std::time::Instant::now();
            let digests = if model_parallel > 0 {
                controller.run_batch_modelpar(key, source.as_ref(), cycles, model_parallel)
            } else {
                controller.run_batch(key, source.as_ref(), cycles)
            }
            .unwrap_or_else(|e| {
                eprintln!("error: cluster batch: {e}");
                exit(1)
            });
            let elapsed = t0.elapsed();
            controller.shutdown();
            for h in handles {
                let _ = h.join();
            }

            let verified = verify.then(|| {
                let cfg = ShardConfig {
                    group_size: group.clamp(1, n.max(1)),
                    ..Default::default()
                };
                let local = flow
                    .simulate_sharded(
                        source.as_ref(),
                        cycles,
                        &cfg,
                        &DevicePool::uniform(flow.model.clone(), 1),
                    )
                    .unwrap_or_else(|e| {
                        eprintln!("error: local reference run: {e}");
                        exit(1)
                    });
                if local.digests != digests {
                    eprintln!("CLUSTER MISMATCH: digests diverge from the local sharded run");
                    exit(1);
                }
            });

            // The cut the controller and workers both re-derive, reported
            // for inspection (`--json` gets the full per-part table).
            let cut = (model_parallel > 0)
                .then(|| {
                    rtlflow::PartitionSpec::compute(&flow.design, &flow.graph_info, model_parallel)
                        .map(|spec| spec.cut_report(&flow.design))
                })
                .transpose()
                .unwrap_or_else(|e| {
                    eprintln!("error: cut report: {e}");
                    exit(1)
                });

            let metrics = controller.metrics();
            if json {
                use desim::Json;
                let mut doc = Json::obj()
                    .field("benchmark", bench_name)
                    .field("n", n)
                    .field("cycles", cycles)
                    .field("workers", capacities.len())
                    .field("model_parallel", model_parallel)
                    .field("host_seconds", elapsed.as_secs_f64())
                    .field("verified", verified.is_some())
                    .field("metrics", metrics.to_json());
                if let Some(report) = &cut {
                    let parts: Vec<Json> = report
                        .parts
                        .iter()
                        .map(|p| {
                            Json::obj()
                                .field("part", p.part)
                                .field("seq_processes", p.seq_processes)
                                .field("replica_processes", p.replica_processes)
                                .field("comb_processes", p.comb_processes)
                                .field("cost", p.cost)
                                .field("boundary_in_vars", p.boundary_in_vars)
                                .field("boundary_in_bits", p.boundary_in_bits)
                                .field("boundary_out_vars", p.boundary_out_vars)
                                .field("boundary_out_bits", p.boundary_out_bits)
                                .field("outputs", p.outputs)
                        })
                        .collect();
                    doc = doc.field(
                        "cut",
                        Json::obj()
                            .field("total_boundary_bits", report.total_boundary_bits)
                            .field("parts", Json::Arr(parts)),
                    );
                }
                println!("{doc}");
            } else {
                let unique: std::collections::HashSet<_> = digests.iter().collect();
                println!(
                    "cluster-sim: {n} stimulus x {cycles} cycles over {} loopback worker(s) \
                     ({elapsed:?} host time)",
                    capacities.len()
                );
                if let Some(report) = &cut {
                    println!(
                        "model-parallel cut: {} parts, {} boundary bits/cycle",
                        report.parts.len(),
                        report.total_boundary_bits
                    );
                    for p in &report.parts {
                        println!(
                            "  part {}: {} seq + {} replica + {} comb processes, cost {}, \
                             in {} bits / out {} bits, {} outputs",
                            p.part,
                            p.seq_processes,
                            p.replica_processes,
                            p.comb_processes,
                            p.cost,
                            p.boundary_in_bits,
                            p.boundary_out_bits,
                            p.outputs
                        );
                    }
                }
                println!("{} distinct output signatures", unique.len());
                if verified.is_some() {
                    println!("verified: bit-identical to the local sharded executor");
                }
                print!("{}", metrics.table());
            }
        }
        _ => usage(),
    }
}
