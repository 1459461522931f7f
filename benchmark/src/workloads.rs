//! The four workloads. Each one times calls into one public entry point
//! (`Flow::simulate`, `Controller::run_batch`, `SimService::submit` →
//! `JobHandle::wait`) in a closed loop with one client, and owns the
//! cold bring-up that produces its `setup_s` samples.
//!
//! Sizes were chosen on the 2-vCPU reference host; `README.md` records
//! why, and what share of a job each workload's dominant layer takes.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cluster::wire::{BatchDescriptor, Frame, GroupDispatch, ResultChunk};
use cluster::{spawn_worker, ClusterConfig, ClusterError, Controller, WorkerConfig};
use cudasim::ExecConfig;
use rtlflow::{Benchmark, TunePolicy};
use rtlir::Design;
use serve::{DeadlineClass, JobEvent, JobSpec, ServeConfig, SimService};
use stimulus::StimulusSource;

use crate::local::{check, Local, Probe, Shape, RING};
use crate::trace::Traced;

pub const NAMES: [&str; 4] = ["exec_bound", "input_bound", "wire_bound", "serve_closed"];

/// The share of a job the workload was sized to spend in its dominant
/// layer, checked by the traced run.
#[derive(Clone, Copy)]
pub struct Dominant {
    pub series: &'static str,
    pub floor: f64,
}

pub trait Workload {
    fn local(&self) -> &Local;
    /// One timed unit of work (a job, or a burst of jobs in
    /// `serve_closed`): returns its wall time and pushes the latency of
    /// every job in it, in seconds. Digests are checked after the clock
    /// stops; any error is a failed operation.
    fn job(&mut self, i: usize, latencies: &mut Vec<f64>) -> Result<Duration, String>;
    /// One cold bring-up, design source text to first verified digest.
    fn bring_up(&mut self, traced: Option<&mut Traced>) -> Result<Duration, String>;
    /// One traced iteration: the timed unit with spans and probes, then
    /// its local equivalent driven by hand.
    fn traced_job(&mut self, i: usize, t: &mut Traced) -> Result<(), String>;
    /// Least acceptable `run.trace_coverage`.
    fn min_coverage(&self) -> f64 {
        0.95
    }
    fn dominant(&self) -> Dominant;
    /// Tear down; reports fault counters that must be zero.
    fn finish(self: Box<Self>, t: &mut Traced) -> Result<(), String>;
}

pub fn build(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    match name {
        // Executor-dominated: a big design on the default vectorized
        // engine, one pipeline group.
        "exec_bound" => Ok(Box::new(FlowJobs {
            local: Local::new(
                Shape {
                    bench: Benchmark::RiscvMini,
                    exec: ExecConfig::default(),
                    n: 1024,
                    cycles: 32,
                    group_size: 1024,
                    stacked: false,
                },
                seed,
            )?,
            dominant: Dominant {
                series: "cudasim.exec_share",
                floor: 0.8,
            },
        })),
        // `set_inputs`-dominated (§2.4.3): a 1-bit control design on the
        // bit-transposed engine, where execution handles 64 stimuli per
        // word and the per-lane fill + poke path does not.
        "input_bound" => Ok(Box::new(FlowJobs {
            local: Local::new(
                Shape {
                    bench: Benchmark::Handshake,
                    exec: ExecConfig::bitplane(1),
                    n: 4096,
                    cycles: 32,
                    group_size: 1024,
                    stacked: false,
                },
                seed,
            )?,
            dominant: Dominant {
                series: "pipeline.set_inputs_share",
                floor: 0.5,
            },
        })),
        "wire_bound" => WireJobs::new(seed).map(|w| Box::new(w) as Box<dyn Workload>),
        "serve_closed" => ServeJobs::new(seed).map(|w| Box::new(w) as Box<dyn Workload>),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {NAMES:?})"
        )),
    }
}

// ---------------------------------------------------------------- flow

/// `exec_bound` and `input_bound`: `Flow::simulate` jobs on one thread.
struct FlowJobs {
    local: Local,
    dominant: Dominant,
}

impl Workload for FlowJobs {
    fn local(&self) -> &Local {
        &self.local
    }

    fn job(&mut self, i: usize, latencies: &mut Vec<f64>) -> Result<Duration, String> {
        let wall = self.local.job(i)?;
        latencies.push(wall.as_secs_f64());
        Ok(wall)
    }

    fn bring_up(&mut self, traced: Option<&mut Traced>) -> Result<Duration, String> {
        self.local.bring_up(traced)
    }

    fn traced_job(&mut self, i: usize, t: &mut Traced) -> Result<(), String> {
        let (source, expect) = self.local.unit_of(i);
        let probe = Probe::new(Arc::clone(source), self.local.shape.cycles);
        let t0 = Instant::now();
        let r = self.local.simulate(&*probe)?;
        let t1 = Instant::now();
        t.rec.push("job", i as u64, None, t0, t1);
        check(&r.digests, expect, "traced Flow::simulate")?;
        t.count("stimulus.fill_calls", probe.calls());
        let (unit, coverage) = self.local.traced_unit(i, t1 - t0, t)?;
        t.sample("traced.job_wall_s", unit.as_secs_f64());
        t.sample("run.trace_coverage", coverage);
        Ok(())
    }

    fn dominant(&self) -> Dominant {
        self.dominant
    }

    fn finish(self: Box<Self>, _t: &mut Traced) -> Result<(), String> {
        Ok(())
    }
}

// ---------------------------------------------------------------- wire

/// A loopback cluster: one controller, one worker thread.
struct Cluster {
    controller: Controller,
    worker: JoinHandle<Result<(), ClusterError>>,
    key: u64,
}

impl Cluster {
    fn start(local: &Local) -> Result<Cluster, String> {
        let cfg = ClusterConfig {
            // One group per batch: every job is one `GroupDispatch`.
            group_size: local.shape.n,
            ..ClusterConfig::default()
        };
        let controller = Controller::bind("127.0.0.1:0", cfg).map_err(|e| e.to_string())?;
        let worker = spawn_worker(
            controller.addr(),
            WorkerConfig {
                exec: local.shape.exec,
                tuned: TunePolicy::Off,
                reconnect: false,
                ..WorkerConfig::default()
            },
        );
        controller
            .wait_for_workers(1, Duration::from_secs(10))
            .map_err(|e| e.to_string())?;
        let key = controller
            .register_design(&local.src, local.top)
            .map_err(|e| e.to_string())?;
        Ok(Cluster {
            controller,
            worker,
            key,
        })
    }

    fn run(&self, source: &dyn StimulusSource, cycles: u64) -> Result<Vec<u64>, String> {
        self.controller
            .run_batch(self.key, source, cycles)
            .map_err(|e| e.to_string())
    }

    fn stop(self) -> Result<(), String> {
        self.controller.shutdown();
        match self.worker.join() {
            Ok(r) => r.map_err(|e| e.to_string()),
            Err(_) => Err("cluster worker thread panicked".into()),
        }
    }
}

/// `wire_bound`: `Controller::run_batch` over loopback TCP.
struct WireJobs {
    local: Local,
    cluster: Cluster,
}

impl WireJobs {
    /// n = 2048 × 16 cycles is 2 MB of frames per job. The worker joins
    /// its heartbeat ticker, which sleeps in 10 ms steps, before it
    /// replies, so a group takes a whole number of steps: this size
    /// keeps the worker's own ~5 ms well inside the first step. Half the
    /// lanes finish before the ticker first runs often enough to split
    /// the job times in two; 1.5× or more work lands on the boundary.
    fn new(seed: u64) -> Result<WireJobs, String> {
        let local = Local::new(
            Shape {
                bench: Benchmark::Handshake,
                exec: ExecConfig::bitplane(1),
                n: 2048,
                cycles: 16,
                group_size: 2048,
                stacked: false,
            },
            seed,
        )?;
        let cluster = Cluster::start(&local)?;
        Ok(WireJobs { local, cluster })
    }
}

impl Workload for WireJobs {
    fn local(&self) -> &Local {
        &self.local
    }

    fn job(&mut self, i: usize, latencies: &mut Vec<f64>) -> Result<Duration, String> {
        let (source, expect) = self.local.unit_of(i);
        let t0 = Instant::now();
        let digests = self.cluster.run(source, self.local.shape.cycles)?;
        let wall = t0.elapsed();
        check(&digests, expect, "Controller::run_batch")?;
        latencies.push(wall.as_secs_f64());
        Ok(wall)
    }

    fn bring_up(&mut self, traced: Option<&mut Traced>) -> Result<Duration, String> {
        let (first, expect) = self.local.first_batch();
        let t0 = Instant::now();
        let cluster = Cluster::start(&self.local)?;
        let t1 = Instant::now();
        let digests = cluster.run(&first, self.local.shape.cycles)?;
        let t2 = Instant::now();
        cluster.stop()?;
        check(&digests, expect, "cluster bring-up first batch")?;
        if let Some(t) = traced {
            let job = t.next_setup_id();
            let root = t.rec.push("setup", job, None, t0, t2);
            t.rec.push("cluster.bringup", job, root, t0, t1);
            t.rec.push("cluster.first_batch", job, root, t1, t2);
            t.sample("cluster.bringup_s", (t1 - t0).as_secs_f64());
            t.sample("cluster.first_batch_s", (t2 - t1).as_secs_f64());
            // The engine-build stages happen inside the worker; their
            // spans come from the same stages called by hand.
            self.local.bring_up(Some(t))?;
        }
        Ok(t2 - t0)
    }

    fn traced_job(&mut self, i: usize, t: &mut Traced) -> Result<(), String> {
        let local = &self.local;
        let cycles = local.shape.cycles;
        let (source, expect) = local.unit_of(i);
        let probe = Probe::new(Arc::clone(source), cycles);
        let before = self.cluster.controller.metrics();
        let t0 = Instant::now();
        let digests = self.cluster.run(&*probe, cycles)?;
        let t1 = Instant::now();
        let after = self.cluster.controller.metrics();
        check(&digests, expect, "traced Controller::run_batch")?;

        let job = i as u64;
        let wall = (t1 - t0).as_secs_f64();
        let root = t.rec.push("job", job, None, t0, t1);
        let (w0, w1) = probe.window().ok_or("run_batch never filled a frame")?;
        t.rec.push("cluster.materialize", job, root, w0, w1);
        let materialize = (w1 - w0).as_secs_f64();
        // Dispatch → committed chunk, as the controller's own per-worker
        // clock saw it. It ends just before `run_batch` returns; where it
        // starts is not visible from outside, so the span is drawn
        // against the job's end.
        let busy: Duration = after.workers.iter().map(|w| w.busy).sum::<Duration>()
            - before.workers.iter().map(|w| w.busy).sum::<Duration>();
        t.rec
            .push("cluster.worker_busy", job, root, t1 - busy.min(t1 - w1), t1);
        let tx = |m: &cluster::ClusterMetrics| m.workers.iter().map(|w| w.bytes_tx).sum::<u64>();
        t.sample("traced.job_wall_s", wall);
        t.sample("cluster.materialize_s", materialize);
        t.sample("cluster.worker_busy_s", busy.as_secs_f64());
        t.sample(
            "run.trace_coverage",
            (materialize + busy.as_secs_f64()) / wall,
        );
        t.count("stimulus.fill_calls", probe.calls());
        t.count("cluster.dispatches", after.dispatches - before.dispatches);
        t.count("cluster.tx_bytes_per_job", tx(&after) - tx(&before));

        // The frames the job put on the wire, encoded and decoded by hand.
        let n = source.num_stimulus();
        let lanes = local.map.len();
        let mut frames = vec![0u64; n * cycles as usize * lanes];
        for (k, frame) in frames.chunks_exact_mut(lanes).enumerate() {
            source.fill_frame(k / cycles as usize, k as u64 % cycles, frame);
        }
        let outbound = [
            Frame::BatchStart(BatchDescriptor {
                batch: 1,
                design_key: self.cluster.key,
                top: local.top.to_string(),
                verilog: local.src.clone(),
                cycles,
                lanes: lanes as u32,
                n: n as u64,
            }),
            Frame::RunGroup(GroupDispatch {
                batch: 1,
                group: 0,
                tid0: 0,
                len: n as u32,
                frames,
                resume_cycle: 0,
                resume_image: Vec::new(),
            }),
            Frame::Chunk(ResultChunk {
                batch: 1,
                group: 0,
                tid0: 0,
                digests,
            }),
        ];
        let e0 = Instant::now();
        let mut wire = Vec::with_capacity(outbound.len());
        for f in &outbound {
            wire.push(f.encode().map_err(|e| e.to_string())?);
        }
        let e1 = Instant::now();
        for (bytes, sent) in wire.iter().zip(&outbound) {
            let (frame, used) = Frame::decode(bytes).map_err(|e| e.to_string())?;
            if used != bytes.len() || frame != *sent {
                return Err("wire frame did not survive encode → decode".into());
            }
        }
        let e2 = Instant::now();
        t.rec.push("cluster.encode", job, None, e0, e1);
        t.rec.push("cluster.decode", job, None, e1, e2);
        t.sample("cluster.encode_s", (e1 - e0).as_secs_f64());
        t.sample("cluster.decode_s", (e2 - e1).as_secs_f64());

        // The same batch through `Flow::simulate` in this process.
        let l0 = Instant::now();
        let r = local.simulate(source)?;
        let l1 = Instant::now();
        check(&r.digests, expect, "local equivalent of the wire job")?;
        t.rec.push("cluster.local_equiv", job, None, l0, l1);
        let local_equiv = (l1 - l0).as_secs_f64();
        t.sample("cluster.local_equiv_s", local_equiv);
        t.sample("cluster.wire_overhead_s", (wall - local_equiv).max(0.0));
        t.sample(
            "cluster.wire_overhead_share",
            (wall - local_equiv).max(0.0) / wall,
        );
        local.traced_unit(i, l1 - l0, t)?;
        Ok(())
    }

    /// Socket time and the controller's thread hand-offs sit outside any
    /// callable, so less of the job can be attributed.
    fn min_coverage(&self) -> f64 {
        0.90
    }

    fn dominant(&self) -> Dominant {
        Dominant {
            series: "cluster.wire_overhead_share",
            floor: 0.4,
        }
    }

    fn finish(self: Box<Self>, t: &mut Traced) -> Result<(), String> {
        let m = self.cluster.controller.metrics();
        t.count("cluster.requeues", m.requeues);
        self.cluster.stop()?;
        if m.requeues != 0 || m.worker_deaths != 0 {
            return Err(format!(
                "cluster requeued {} groups and lost {} workers; expected none",
                m.requeues, m.worker_deaths
            ));
        }
        Ok(())
    }
}

// --------------------------------------------------------------- serve

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        tuned: TunePolicy::Off,
        journal: None,
        ..ServeConfig::default()
    }
}

/// `serve_closed`: bursts of eight small jobs through `SimService`.
struct ServeJobs {
    local: Local,
    design: Arc<Design>,
    service: SimService,
}

impl ServeJobs {
    /// A burst is the ring: eight jobs of n = 64 × 32 cycles, coalesced
    /// into one 512-lane launch. Jobs are `Bulk` class, so the window is
    /// four default windows (20 ms) against ~15 ms of simulation: with
    /// the default class the burst was ~10 ms, half of it one timer
    /// sleep, and whole runs shifted by 1 ms (10 %) with the host.
    fn new(seed: u64) -> Result<ServeJobs, String> {
        let local = Local::new(
            Shape {
                bench: Benchmark::RiscvMini,
                exec: ExecConfig::default(),
                n: 64,
                cycles: 32,
                group_size: ServeConfig::default().group_size,
                stacked: true,
            },
            seed,
        )?;
        let design = Arc::new(local.flow.design.clone());
        let service = SimService::start(serve_config());
        Ok(ServeJobs {
            local,
            design,
            service,
        })
    }

    fn submit(
        service: &SimService,
        design: &Arc<Design>,
        source: Box<dyn StimulusSource>,
        cycles: u64,
    ) -> Result<serve::JobHandle, String> {
        let spec = JobSpec::new(Arc::clone(design), source, cycles).with_class(DeadlineClass::Bulk);
        service
            .submit(spec)
            .map_err(|e| format!("submit refused: {e:?}"))
    }

    /// Reference digests of ring job `j` inside the stacked burst.
    fn expect(&self, j: usize) -> &[u64] {
        let n = self.local.shape.n;
        &self.local.reference[0][j * n..(j + 1) * n]
    }
}

impl Workload for ServeJobs {
    fn local(&self) -> &Local {
        &self.local
    }

    fn job(&mut self, _i: usize, latencies: &mut Vec<f64>) -> Result<Duration, String> {
        let cycles = self.local.shape.cycles;
        let t0 = Instant::now();
        let mut pending = Vec::with_capacity(RING);
        for source in &self.local.ring {
            let at = Instant::now();
            let boxed = Box::new(Arc::clone(source));
            pending.push((
                at,
                Self::submit(&self.service, &self.design, boxed, cycles)?,
            ));
        }
        let mut results = Vec::with_capacity(RING);
        for (at, handle) in pending {
            let r = handle.wait()?;
            results.push((at.elapsed(), r));
        }
        let wall = t0.elapsed();
        for (j, (latency, r)) in results.iter().enumerate() {
            check(&r.digests, self.expect(j), "SimService job")?;
            latencies.push(latency.as_secs_f64());
        }
        Ok(wall)
    }

    fn bring_up(&mut self, traced: Option<&mut Traced>) -> Result<Duration, String> {
        let (first, expect) = self.local.first_batch();
        let cycles = self.local.shape.cycles;
        let t0 = Instant::now();
        let design = netlist::load_design(&self.local.src, self.local.top)
            .map(Arc::new)
            .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let service = SimService::start(serve_config());
        let t2 = Instant::now();
        let r = Self::submit(&service, &design, Box::new(first), cycles)?.wait()?;
        let t3 = Instant::now();
        service.shutdown();
        check(&r.digests, expect, "serve bring-up first job")?;
        if r.cache_hit {
            return Err("a fresh service reported a warm engine cache".into());
        }
        if let Some(t) = traced {
            let job = t.next_setup_id();
            let root = t.rec.push("setup", job, None, t0, t3);
            t.rec.push("rtlir.elaborate", job, root, t0, t1);
            t.rec.push("serve.start", job, root, t1, t2);
            t.rec.push("serve.first_job", job, root, t2, t3);
            t.sample("serve.start_s", (t2 - t1).as_secs_f64());
            t.sample("serve.first_job_s", (t3 - t2).as_secs_f64());
            // The engine-build stages happen inside the service's cache
            // fill; their spans come from the same stages called by hand.
            self.local.bring_up(Some(t))?;
        }
        Ok(t3 - t0)
    }

    fn traced_job(&mut self, i: usize, t: &mut Traced) -> Result<(), String> {
        let cycles = self.local.shape.cycles;
        let job = i as u64;
        let t0 = Instant::now();
        let root = t.rec.open("burst", job, t0);
        let mut probes = Vec::with_capacity(RING);
        let mut pending = Vec::with_capacity(RING);
        let mut submits = Duration::ZERO;
        for source in &self.local.ring {
            let probe = Probe::new(Arc::clone(source), cycles);
            let at = Instant::now();
            let handle = Self::submit(
                &self.service,
                &self.design,
                Box::new(Arc::clone(&probe)),
                cycles,
            )?;
            let done = Instant::now();
            t.rec.push("serve.submit", job, root, at, done);
            t.sample("serve.submit_s", (done - at).as_secs_f64());
            submits += done - at;
            probes.push(probe);
            pending.push((at, handle));
        }
        let submitted = Instant::now();

        // The first handle is watched event by event; the other seven
        // ride the same coalesced batch and resolve with it.
        let mut results = Vec::with_capacity(RING);
        let mut dispatched = None;
        for (j, (at, handle)) in pending.into_iter().enumerate() {
            let r = if j == 0 {
                loop {
                    match handle.recv() {
                        Some(JobEvent::Dispatched { .. }) => dispatched = Some(Instant::now()),
                        Some(JobEvent::Completed(r)) => break *r,
                        Some(JobEvent::Failed { error, .. }) => return Err(error),
                        Some(JobEvent::Queued { .. }) => {}
                        None => return Err("service dropped the job channel".into()),
                    }
                }
            } else {
                handle.wait()?
            };
            results.push((at, Instant::now(), r));
        }
        let end = Instant::now();
        t.rec.close(root, end);
        let first_done = results[0].1;
        let dispatched = dispatched.unwrap_or(first_done).max(submitted);
        t.rec.push("serve.queue", job, root, submitted, dispatched);
        t.rec.push("serve.run", job, root, dispatched, first_done);
        t.rec.push("serve.collect", job, root, first_done, end);
        // Submit calls plus the three client-side phases; what is left
        // is the client's own work between two submits.
        let covered = submits + (end - submitted);
        t.sample(
            "run.trace_coverage",
            covered.as_secs_f64() / (end - t0).as_secs_f64(),
        );
        t.sample("traced.job_wall_s", (end - t0).as_secs_f64());

        let fills: u64 = probes.iter().map(|p| p.calls()).sum();
        t.count("stimulus.fill_calls", fills);
        for (j, (_, _, r)) in results.iter().enumerate() {
            check(&r.digests, self.expect(j), "traced SimService job")?;
            t.sample("serve.queue_wait_ms", r.queue_wait.as_secs_f64() * 1e3);
            t.sample("serve.batch_stimulus", r.batch_stimulus as f64);
        }

        // What the burst's simulation costs without the service: the
        // eight sources stacked into one `Flow::simulate` call.
        let (stack, expect) = self.local.unit_of(0);
        let l0 = Instant::now();
        let r = self.local.simulate(stack)?;
        let l1 = Instant::now();
        check(&r.digests, expect, "local equivalent of the burst")?;
        t.rec.push("serve.local_equiv", job, None, l0, l1);
        let local_equiv = (l1 - l0).as_secs_f64();
        t.sample("serve.local_equiv_s", local_equiv);
        for (at, done, _) in &results {
            let latency = (*done - *at).as_secs_f64();
            t.sample("serve.overhead_ms", (latency - local_equiv).max(0.0) * 1e3);
            t.sample(
                "serve.overhead_share",
                (latency - local_equiv).max(0.0) / latency,
            );
        }
        self.local.traced_unit(i, l1 - l0, t)?;
        Ok(())
    }

    fn dominant(&self) -> Dominant {
        Dominant {
            series: "serve.overhead_share",
            floor: 0.4,
        }
    }

    fn finish(self: Box<Self>, t: &mut Traced) -> Result<(), String> {
        let m = self.service.shutdown();
        t.count("serve.rejections", m.jobs_rejected);
        t.sample("serve.coalescing_efficiency", m.coalescing_efficiency());
        t.sample("serve.cache_hit_rate", m.cache_hit_rate());
        if m.jobs_rejected != 0 || m.jobs_failed != 0 {
            return Err(format!(
                "service rejected {} and failed {} jobs; expected none",
                m.jobs_rejected, m.jobs_failed
            ));
        }
        Ok(())
    }
}
