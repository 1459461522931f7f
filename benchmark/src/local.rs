//! The in-process flow every workload is built on: the design compiled
//! through `Flow`, the seeded stimulus ring with its reference digests,
//! and the hand-driven unit job that attributes a `Flow::simulate` job's
//! wall time to the layers underneath it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cudasim::{CudaGraph, ExecConfig, GpuRuntime, Scratch};
use desim::{Resource, Time, Trace};
use pipeline::{PipelineConfig, SimResult};
use rtlflow::{Benchmark, Flow, GpuModel};
use rtlir::RtlGraph;
use stimulus::{splitmix64, PortMap, SliceSource, StackedSource, StimulusSource};
use transpile::KernelProgram;

use crate::spans::Recorder;
use crate::trace::Traced;

pub type Source = Arc<dyn StimulusSource>;

/// Sources in the stimulus ring; job `i` drives `ring[i % RING]`.
pub const RING: usize = 8;
/// Stimuli of the first batch a cold bring-up verifies.
pub const FIRST_BATCH: usize = 64;
/// Stimuli per design checked against the golden interpreter.
const GOLDEN: usize = 8;

/// What one job simulates and how.
#[derive(Clone)]
pub struct Shape {
    pub bench: Benchmark,
    pub exec: ExecConfig,
    /// Stimuli per ring source.
    pub n: usize,
    pub cycles: u64,
    /// Pipeline group size of the local job.
    pub group_size: usize,
    /// The unit of work is the whole ring stacked into one batch (a
    /// serve burst) rather than one ring source.
    pub stacked: bool,
}

impl Shape {
    pub fn config(&self) -> PipelineConfig {
        PipelineConfig {
            group_size: self.group_size,
            exec: self.exec,
            ..PipelineConfig::default()
        }
    }
}

pub struct Local {
    pub shape: Shape,
    pub src: String,
    pub top: &'static str,
    pub flow: Flow,
    pub map: PortMap,
    pub cfg: PipelineConfig,
    pub ring: Vec<Source>,
    /// The batches a local job simulates: the ring sources themselves,
    /// or the one stack of all of them.
    pub units: Vec<Source>,
    /// `reference[u]` = digests of `units[u]` from the scalar executor.
    pub reference: Vec<Vec<u64>>,
    /// Fold of every reference digest; repeats exactly for one seed.
    pub checksum: u64,
    /// Virtual-clock makespan of one job (modeled A6000 time, not host
    /// time); independent of stimulus data and of the exec strategy.
    pub modeled_makespan_ns: Time,
}

impl Local {
    /// Compile the design, derive the ring from `seed`, compute the
    /// reference digests with `ExecConfig::scalar()` and check eight
    /// stimuli against `rtlir::Interp`.
    pub fn new(shape: Shape, seed: u64) -> Result<Local, String> {
        let src = shape.bench.source();
        let top = shape.bench.top();
        let flow = Flow::from_source(&src, top)?;
        let map = flow.port_map();
        let ring: Vec<Source> = (0..RING as u64)
            .map(|i| {
                let s = splitmix64(seed ^ splitmix64(i + 1));
                Arc::from(stimulus::source_for(&flow.design, &map, shape.n, s))
            })
            .collect();
        let units: Vec<Source> = if shape.stacked {
            vec![Arc::new(StackedSource::new(ring.clone()))]
        } else {
            ring.clone()
        };
        let cfg = shape.config();
        let scalar = PipelineConfig {
            exec: ExecConfig::scalar(),
            ..cfg.clone()
        };
        let mut reference = Vec::with_capacity(units.len());
        let mut checksum = 0xcbf2_9ce4_8422_2325u64;
        let mut modeled_makespan_ns = 0;
        for u in &units {
            let r = flow.simulate(u, shape.cycles, &scalar)?;
            for d in &r.digests {
                checksum = (checksum ^ d).wrapping_mul(0x0000_0100_0000_01b3);
            }
            modeled_makespan_ns = r.makespan;
            reference.push(r.digests);
        }
        let golden = SliceSource::new(Arc::clone(&ring[0]), 0, GOLDEN.min(shape.n));
        flow.verify_against_golden(&golden, shape.cycles, GOLDEN)?;
        Ok(Local {
            shape,
            src,
            top,
            flow,
            map,
            cfg,
            ring,
            units,
            reference,
            checksum,
            modeled_makespan_ns,
        })
    }

    /// Stimulus-cycles of one unit of work.
    pub fn work(&self) -> u64 {
        self.units[0].num_stimulus() as u64 * self.shape.cycles
    }

    /// The unit job `i` simulates and its reference digests.
    pub fn unit_of(&self, i: usize) -> (&Source, &[u64]) {
        let u = i % self.units.len();
        (&self.units[u], &self.reference[u])
    }

    /// The first batch of a cold bring-up and the digests it must produce.
    pub fn first_batch(&self) -> (SliceSource<Source>, &[u64]) {
        let len = FIRST_BATCH.min(self.shape.n);
        (
            SliceSource::new(Arc::clone(&self.ring[0]), 0, len),
            &self.reference[0][..len],
        )
    }

    pub fn simulate(&self, source: &dyn StimulusSource) -> Result<SimResult, String> {
        self.flow.simulate(source, self.shape.cycles, &self.cfg)
    }

    /// One `Flow::simulate` job on unit `i`, checked against the
    /// reference. Returns the call's wall time.
    pub fn job(&self, i: usize) -> Result<Duration, String> {
        let (source, expect) = self.unit_of(i);
        let t0 = Instant::now();
        let r = self.simulate(source)?;
        let wall = t0.elapsed();
        check(&r.digests, expect, "Flow::simulate")?;
        if r.makespan != self.modeled_makespan_ns {
            return Err(format!(
                "modeled makespan {} differs from the reference run's {}",
                r.makespan, self.modeled_makespan_ns
            ));
        }
        Ok(wall)
    }

    /// Cold bring-up of the local flow: design source text to the first
    /// verified digest. With a trace, the stages `Flow::from_source`
    /// makes are called by hand in its order, one span each.
    pub fn bring_up(&self, traced: Option<&mut Traced>) -> Result<Duration, String> {
        let (first, expect) = self.first_batch();
        let t0 = Instant::now();
        let digests = match traced {
            None => {
                let flow = Flow::from_source(&self.src, self.top)?;
                flow.simulate(&first, self.shape.cycles, &self.cfg)?.digests
            }
            Some(t) => {
                let job = t.next_setup_id();
                let root = t.rec.open("setup", job, t0);
                let mut at = t0;
                let mut stage = |t: &mut Traced, name: &'static str, key: &'static str| {
                    let now = Instant::now();
                    t.rec.push(name, job, root, at, now);
                    t.sample(key, (now - at).as_secs_f64());
                    at = now;
                };
                let design =
                    netlist::load_design(&self.src, self.top).map_err(|e| e.to_string())?;
                stage(t, "rtlir.elaborate", "rtlir.elaborate_s");
                let graph = RtlGraph::build(&design).map_err(|e| e.to_string())?;
                stage(t, "rtlir.graph_build", "rtlir.graph_build_s");
                let partition = transpile::default_partition(&design, &graph);
                stage(t, "transpile.partition", "transpile.partition_s");
                let program = KernelProgram::build(&design, &graph, &partition)?;
                stage(t, "transpile.program_build", "transpile.program_build_s");
                let model = GpuModel::default();
                let cuda = CudaGraph::instantiate_full(
                    program.graph.clone(),
                    &model,
                    Some(program.uniform.clone()),
                    Some(program.bit.clone()),
                )?;
                stage(t, "cudasim.instantiate", "cudasim.instantiate_s");
                let map = PortMap::from_design(&design);
                let r = pipeline::simulate_batch(
                    &design,
                    &program,
                    &cuda,
                    &map,
                    &first,
                    self.shape.cycles,
                    &self.cfg,
                    &model,
                );
                let now = Instant::now();
                t.rec.push("pipeline.first_batch", job, root, at, now);
                t.rec.close(root, now);
                r.digests
            }
        };
        let wall = t0.elapsed();
        check(&digests, expect, "bring-up first batch")?;
        Ok(wall)
    }

    /// Drive one job by hand through the public layer calls, in the order
    /// `pipeline::simulate_batch` makes them (pipelined branch), with a
    /// span around each call. Returns the digests and the unit's wall.
    ///
    /// `fill` and `poke` are split per group rather than per stimulus so
    /// a span costs two clock reads per 1024 lanes, not per lane.
    pub fn unit(&self, i: usize, source: &dyn StimulusSource, t: &mut Traced) -> UnitResult {
        let plan = &self.flow.program.plan;
        let graph = &self.flow.cuda;
        let cfg = &self.cfg;
        let n = source.num_stimulus();
        let cycles = self.shape.cycles;
        let lanes = self.map.len();
        let group_size = cfg.group_size.max(1).min(n.max(1));
        let num_groups = n.div_ceil(group_size).max(1);
        let job = i as u64;

        let mut sums = UnitSums::default();
        let t0 = Instant::now();
        let root = t.rec.open("unit", job, t0);
        let mut at = t0;
        // One clock read closes a span and opens the next, so the spans
        // tile the unit.
        let mut lap = |rec: &mut Recorder, name: &'static str, acc: &mut Duration| {
            let now = Instant::now();
            rec.push(name, job, root, at, now);
            *acc += now - at;
            at = now;
        };

        let mut dev = plan.alloc_device(n);
        let mut scratch = Scratch::new();
        let mut rt = GpuRuntime::with_exec(self.flow.model.clone(), cfg.exec);
        let mut cpu = Resource::new("cpu", cfg.host.threads);
        let mut trace = Trace::new();
        let mut frames = vec![0u64; group_size * lanes];
        let mut gpu_done = vec![0 as Time; num_groups];
        let mut gpu_done_prev = vec![0 as Time; num_groups];
        let lane_cost = lanes as u64 * cfg.host.lane_ns;
        lap(&mut t.rec, "pipeline.alloc", &mut sums.alloc);

        for c in 0..cycles {
            for g in 0..num_groups {
                let tid0 = g * group_size;
                let len = group_size.min(n - tid0);
                let set_ready = gpu_done_prev[g];
                let workers = cfg.host.workers_per_group.max(1).min(len);
                let dur = (len as u64 * lane_cost).div_ceil(workers as u64).max(1);
                let mut set_done = set_ready;
                for _ in 0..workers {
                    let (_, e) = cpu.schedule_traced(set_ready, dur, &mut trace, "set_inputs");
                    set_done = set_done.max(e);
                }
                let gpu_ready = set_done.max(gpu_done[g]);
                lap(&mut t.rec, "pipeline.model", &mut sums.model_cpu);

                for s in 0..len {
                    source.fill_frame(tid0 + s, c, &mut frames[s * lanes..(s + 1) * lanes]);
                }
                sums.fill_calls += len as u64;
                lap(&mut t.rec, "stimulus.fill", &mut sums.fill);

                for s in 0..len {
                    for (lane, port) in self.map.ports.iter().enumerate() {
                        plan.poke(&mut dev, port.var, tid0 + s, frames[s * lanes + lane]);
                    }
                }
                sums.poke_calls += (len * lanes) as u64;
                lap(&mut t.rec, "transpile.poke", &mut sums.poke);

                let timing = rt.run_cycle(
                    graph,
                    cfg.mode,
                    &mut dev,
                    &mut scratch,
                    tid0,
                    len,
                    gpu_ready,
                    Some(&mut trace),
                );
                sums.run_cycle_calls += 1;
                lap(&mut t.rec, "cudasim.run_cycle", &mut sums.run_cycle);
                gpu_done_prev[g] = gpu_done[g];
                gpu_done[g] = timing.gpu_end;
            }
        }

        let digests: Vec<u64> = (0..n)
            .map(|s| plan.output_digest(&dev, &self.flow.design, s))
            .collect();
        lap(&mut t.rec, "transpile.digest", &mut sums.digest);

        let makespan = gpu_done.iter().copied().max().unwrap_or(0);
        std::hint::black_box((
            trace.utilization("gpu", makespan),
            trace.breakdown("cpu"),
            trace.breakdown("gpu"),
            rt.exec_stats(graph),
        ));
        lap(&mut t.rec, "pipeline.model", &mut sums.model_cpu);

        drop((dev, scratch, rt, cpu, trace, frames));
        lap(&mut t.rec, "pipeline.alloc", &mut sums.alloc);
        let wall = at - t0;
        t.rec.close(root, at);

        // The virtual-clock half of `run_cycle`, replayed alone on a
        // second runtime so it can be taken out of `cudasim.exec_s`.
        let m0 = Instant::now();
        let time_cycle = self.time_cycles(n, group_size, num_groups);
        t.rec
            .push("pipeline.model_only", job, None, m0, Instant::now());

        UnitResult {
            digests,
            makespan,
            wall,
            sums,
            time_cycle,
        }
    }

    /// Wall time of the `GpuRuntime::time_cycle` calls one job makes.
    fn time_cycles(&self, n: usize, group_size: usize, num_groups: usize) -> Duration {
        let cfg = &self.cfg;
        let mut rt = GpuRuntime::with_exec(self.flow.model.clone(), cfg.exec);
        let mut trace = Trace::new();
        let mut ready = vec![0 as Time; num_groups];
        let mut total = Duration::ZERO;
        for _ in 0..self.shape.cycles {
            for (g, ready) in ready.iter_mut().enumerate() {
                let len = group_size.min(n - g * group_size);
                let t0 = Instant::now();
                let timing =
                    rt.time_cycle(&self.flow.cuda, cfg.mode, len, *ready, Some(&mut trace));
                total += t0.elapsed();
                *ready = timing.gpu_end;
            }
        }
        total
    }

    /// One traced iteration's local part: unit `i` driven by hand, its
    /// digests checked, and the per-layer samples that follow from it.
    /// `call` is the wall time of the `Flow::simulate` call the unit
    /// stands for: the unit's spans are that call's children, so its
    /// coverage and `pipeline.self_s` are taken against it, not against
    /// the unit's own wall (which its spans tile by construction).
    /// Returns the unit's wall and the share of `call` its spans cover.
    pub fn traced_unit(
        &self,
        i: usize,
        call: Duration,
        t: &mut Traced,
    ) -> Result<(Duration, f64), String> {
        let (source, expect) = self.unit_of(i);
        let u = self.unit(i, source, t);
        check(&u.digests, expect, "hand-driven unit job")?;
        if u.makespan != self.modeled_makespan_ns {
            return Err(format!(
                "hand-driven unit modeled {} ns, Flow::simulate modeled {} ns",
                u.makespan, self.modeled_makespan_ns
            ));
        }
        let s = &u.sums;
        let wall = u.wall.as_secs_f64();
        let call = call.as_secs_f64();
        let secs = |d: Duration| d.as_secs_f64();
        let exec = (secs(s.run_cycle) - secs(u.time_cycle)).max(0.0);
        let named = secs(s.alloc + s.model_cpu + s.fill + s.poke + s.run_cycle + s.digest);
        t.sample("stimulus.fill_s", secs(s.fill));
        t.sample("transpile.poke_s", secs(s.poke));
        t.sample(
            "pipeline.set_inputs_share",
            (secs(s.fill) + secs(s.poke)) / wall,
        );
        t.sample("cudasim.exec_s", exec);
        t.sample("cudasim.exec_share", exec / wall);
        t.sample("transpile.digest_s", secs(s.digest));
        t.sample("pipeline.alloc_s", secs(s.alloc));
        t.sample("pipeline.model_s", secs(s.model_cpu) + secs(u.time_cycle));
        t.sample("pipeline.self_s", (call - named).max(0.0));
        t.count("transpile.poke_calls", s.poke_calls);
        t.count("cudasim.run_cycle_calls", s.run_cycle_calls);
        t.count("unit.fill_calls", s.fill_calls);
        Ok((u.wall, named / call))
    }

    /// Static counts of the compiled program.
    pub fn static_counts(&self, t: &mut Traced) {
        t.count("cudasim.ops_per_cycle", self.flow.program.ops_per_cycle());
        t.count(
            "cudasim.device_bytes_per_stimulus",
            self.flow.program.plan.bytes_per_stimulus(),
        );
        t.count("pipeline.modeled_makespan_ns", self.modeled_makespan_ns);
    }
}

#[derive(Default)]
pub struct UnitSums {
    pub alloc: Duration,
    pub model_cpu: Duration,
    pub fill: Duration,
    pub poke: Duration,
    pub run_cycle: Duration,
    pub digest: Duration,
    pub fill_calls: u64,
    pub poke_calls: u64,
    pub run_cycle_calls: u64,
}

pub struct UnitResult {
    pub digests: Vec<u64>,
    pub makespan: Time,
    pub wall: Duration,
    pub sums: UnitSums,
    pub time_cycle: Duration,
}

pub fn check(got: &[u64], expect: &[u64], what: &str) -> Result<(), String> {
    if got == expect {
        Ok(())
    } else {
        Err(format!("{what}: digests differ from the scalar reference"))
    }
}

/// `StimulusSource` decorator for traced runs: counts `fill_frame` calls
/// and stamps the first and the last one. Every driver in the repo fills
/// in a fixed order that starts at (stimulus 0, cycle 0) and ends at the
/// last stimulus of the last cycle, so two clock reads per job bound the
/// fill window without timing each call.
pub struct Probe {
    inner: Source,
    last_cycle: u64,
    calls: AtomicU64,
    window: Mutex<(Option<Instant>, Option<Instant>)>,
}

impl Probe {
    pub fn new(inner: Source, cycles: u64) -> Arc<Probe> {
        Arc::new(Probe {
            inner,
            last_cycle: cycles - 1,
            calls: AtomicU64::new(0),
            window: Mutex::new((None, None)),
        })
    }

    pub fn calls(&self) -> u64 {
        // Relaxed: a statistic, read after the job's threads have joined.
        self.calls.load(Ordering::Relaxed)
    }

    /// Start of the first fill and end of the last one.
    pub fn window(&self) -> Option<(Instant, Instant)> {
        let w = self.window.lock().expect("probe window poisoned");
        Some((w.0?, w.1?))
    }
}

impl StimulusSource for Probe {
    fn num_stimulus(&self) -> usize {
        self.inner.num_stimulus()
    }

    fn fill_frame(&self, stimulus: usize, cycle: u64, frame: &mut [u64]) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        if stimulus == 0 && cycle == 0 {
            let now = Instant::now();
            self.window.lock().expect("probe window poisoned").0 = Some(now);
        }
        self.inner.fill_frame(stimulus, cycle, frame);
        if stimulus + 1 == self.inner.num_stimulus() && cycle == self.last_cycle {
            let now = Instant::now();
            self.window.lock().expect("probe window poisoned").1 = Some(now);
        }
    }

    fn num_ports(&self) -> usize {
        self.inner.num_ports()
    }
}
