//! The running service: an admission-controlled queue feeding a
//! coalescing scheduler feeding a worker pool.
//!
//! Three kinds of threads cooperate:
//!
//! * **Clients** call [`SimService::submit`], which either enqueues the
//!   job (streaming a `Queued` event) or rejects it with a retry-after.
//! * **The scheduler** drains the queue into the [`Coalescer`], shipping
//!   full bins immediately and expired bins on their deadline, then
//!   sleeps until the next deadline or the next submit.
//! * **Workers** pull coalesced batches from a shared channel, look up
//!   (or build, once per design) the compiled engine in the warm cache,
//!   run the launch — [`pipeline::simulate_batch_jobs`] on one device,
//!   or [`shard::shard_batch_jobs`] across the configured device pool —
//!   and fan per-job slices of the result back over each job's event
//!   channel.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cudasim::{CudaGraph, GpuModel};
use pipeline::PipelineConfig;
use rtlir::Design;
use stimulus::{PortMap, StimulusSource};
use transpile::KernelProgram;

use crate::coalesce::{Batch, Coalescer};
use crate::job::{
    design_hash, CompatKey, DeadlineClass, Job, JobEvent, JobHandle, JobId, JobResult, JobSpec,
};
use crate::journal::{Journal, JournalEvent};
use crate::metrics::ServeMetrics;
use crate::queue::{JobQueue, SubmitError};

/// Remote overflow backend: a [`cluster::Controller`] plus the routing
/// threshold. Batches of at least `min_stimulus` whose design was
/// registered with the controller run on remote workers instead of the
/// local device pool; smaller batches (and any batch the cluster cannot
/// take) stay local, so the cluster is strictly additive capacity.
#[derive(Clone)]
pub struct ClusterBackend {
    pub controller: Arc<cluster::Controller>,
    /// Smallest coalesced batch (total stimulus) worth shipping over
    /// the wire.
    pub min_stimulus: usize,
    /// Per-worker device-footprint budget in bytes. A remote-bound batch
    /// whose estimated footprint (per-stimulus device bytes × total
    /// stimulus) exceeds this is cut into `K = ceil(footprint / budget)`
    /// model-parallel parts (clamped to the idle worker count) and
    /// co-simulated via [`cluster::Controller::run_jobs_modelpar`]
    /// instead of replicating the whole design on every worker. `None`
    /// keeps every remote batch data-parallel.
    pub footprint_budget: Option<u64>,
}

impl std::fmt::Debug for ClusterBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterBackend")
            .field("controller", &self.controller.addr())
            .field("min_stimulus", &self.min_stimulus)
            .field("footprint_budget", &self.footprint_budget)
            .finish()
    }
}

/// Service knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Stimulus per coalesced launch before a bin must flush.
    pub max_batch: usize,
    /// Base flush window; per-job deadline is `class.window(window)`.
    pub window: Duration,
    /// In-flight jobs (admitted, not yet terminal) past which submits
    /// are rejected with a retry-after (backpressure).
    pub queue_limit: usize,
    /// Worker threads draining coalesced batches.
    pub workers: usize,
    /// Pipeline group size inside each launch (clamped to the batch).
    pub group_size: usize,
    /// Virtual GPU the workers simulate against (the pool's base model).
    pub model: GpuModel,
    /// Per-device speed factors of the device pool coalesced batches are
    /// dispatched onto. `[1.0]` (the default) keeps the single-device
    /// pipeline; more than one entry routes every launch through the
    /// sharded multi-device executor.
    pub devices: Vec<f64>,
    /// Functional execution config forwarded to the pipeline/shard
    /// executors (the scalar oracle, or the fused engine and its thread
    /// count).
    pub exec: cudasim::ExecConfig,
    /// Optional remote overflow backend: large coalesced batches of
    /// cluster-registered designs route to remote workers once the
    /// local pool would be the bottleneck.
    pub cluster: Option<ClusterBackend>,
    /// Tuned-artifact cache policy. Under the default (`Auto`) every
    /// engine-cache fill consults the autotune cache, so a design tuned
    /// with `rtlflow autotune` is served with its tuned partition/fuse
    /// config — and its tuned exec, unless `exec` was set explicitly.
    pub tuned: autotune::TunePolicy,
    /// Write-ahead job journal path. When set, every accepted job is
    /// fsync'd to this journal before `submit` returns, and every
    /// dispatch/terminal transition is appended as it happens — so
    /// after a crash, [`crate::journal::pending`] names exactly the
    /// jobs that must be re-admitted.
    pub journal: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 4096,
            window: Duration::from_millis(5),
            queue_limit: 256,
            workers: 2,
            group_size: 1024,
            model: GpuModel::default(),
            devices: vec![1.0],
            exec: cudasim::ExecConfig::default(),
            cluster: None,
            tuned: autotune::TunePolicy::default(),
            journal: None,
        }
    }
}

/// A compiled, reusable per-design engine — the warm-cache payload.
struct Engine {
    design: Arc<Design>,
    program: KernelProgram,
    graph: CudaGraph,
    map: PortMap,
    /// The tuned artifact this engine was built with, if the cache hit.
    tuned: Option<autotune::TunedArtifact>,
}

/// Warm program cache keyed by design hash. Transpiling + graph
/// instantiation happen once per distinct design; every later dispatch
/// of the same DUT is a hit, no matter which client submitted it.
struct EngineCache {
    entries: Mutex<HashMap<u64, Arc<Engine>>>,
}

impl EngineCache {
    fn get_or_build(
        &self,
        key: u64,
        design: &Arc<Design>,
        model: &GpuModel,
        policy: &autotune::TunePolicy,
    ) -> (Result<Arc<Engine>, String>, bool) {
        if let Some(e) = self
            .entries
            .lock()
            .expect("engine cache poisoned")
            .get(&key)
        {
            return (Ok(Arc::clone(e)), true);
        }
        // Build outside the lock; a racing duplicate build is wasted work
        // but harmless, and keeps slow transpiles from serializing hits.
        // The tuned-artifact cache is consulted here, on the fill path: a
        // hit builds with the tuned partition/fuse config, any miss (or a
        // corrupt entry, or a failing tuned build) degrades to
        // `pipeline::prepare` semantics.
        let (built, tuned) = autotune::prepare_with_policy(design, model, policy);
        match built {
            Ok((program, graph)) => {
                let engine = Arc::new(Engine {
                    design: Arc::clone(design),
                    program,
                    graph,
                    map: PortMap::from_design(design),
                    tuned,
                });
                let mut entries = self.entries.lock().expect("engine cache poisoned");
                let e = entries.entry(key).or_insert_with(|| Arc::clone(&engine));
                (Ok(Arc::clone(e)), false)
            }
            Err(e) => (Err(e), false),
        }
    }
}

/// Scheduler/worker shared state.
struct Shared {
    queue: Mutex<JobQueue>,
    metrics: Mutex<ServeMetrics>,
    /// Signalled on submit and on shutdown; the scheduler waits on it.
    wake: Condvar,
    stop: AtomicBool,
    /// Set by [`SimService::crash`]: threads abandon queued and
    /// in-flight work instead of draining it, simulating a hard stop.
    crashed: AtomicBool,
    /// Write-ahead job journal (when configured).
    journal: Mutex<Option<Journal>>,
    /// Serializes cluster dispatch: `Controller::take_workers` hands
    /// every idle worker to one batch, so a second concurrent batch
    /// would only block for the full rejoin grace before falling back.
    /// Losers of the try-lock skip straight to the local executors.
    cluster_gate: Mutex<()>,
}

/// Append one record to the configured journal (no-op without one) and
/// count it. Append failures are swallowed: the journal is a recovery
/// aid, never a reason to fail live traffic.
#[allow(clippy::too_many_arguments)]
fn journal_event(
    shared: &Shared,
    event: JournalEvent,
    id: u64,
    design: u64,
    cycles: u64,
    n: u64,
    class: DeadlineClass,
    descriptor: &str,
) {
    let mut guard = shared.journal.lock().expect("journal poisoned");
    let Some(j) = guard.as_mut() else { return };
    if j.append(event, id, design, cycles, n, class, descriptor)
        .is_ok()
    {
        drop(guard);
        shared
            .metrics
            .lock()
            .expect("metrics poisoned")
            .journal_records += 1;
    }
}

/// A live simulation service. Construct with [`SimService::start`],
/// feed with [`SimService::submit`], tear down with
/// [`SimService::shutdown`] (which drains all pending work first).
pub struct SimService {
    cfg: ServeConfig,
    shared: Arc<Shared>,
    scheduler: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl SimService {
    pub fn start(cfg: ServeConfig) -> SimService {
        // An unopenable journal degrades to journal-less operation with
        // a warning rather than refusing to serve: availability first.
        let journal = cfg.journal.as_ref().and_then(|p| match Journal::open(p) {
            Ok(j) => Some(j),
            Err(e) => {
                eprintln!("serve: cannot open journal {}: {e}", p.display());
                None
            }
        });
        let shared = Arc::new(Shared {
            queue: Mutex::new(JobQueue::new(cfg.queue_limit)),
            metrics: Mutex::new(ServeMetrics::default()),
            wake: Condvar::new(),
            stop: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            journal: Mutex::new(journal),
            cluster_gate: Mutex::new(()),
        });
        let cache = Arc::new(EngineCache {
            entries: Mutex::new(HashMap::new()),
        });
        let (batch_tx, batch_rx) = channel::<Batch>();
        let batch_rx = Arc::new(Mutex::new(batch_rx));

        let scheduler = {
            let shared = Arc::clone(&shared);
            let cfg = cfg.clone();
            std::thread::Builder::new()
                .name("serve-scheduler".into())
                .spawn(move || scheduler_loop(&shared, &cfg, batch_tx))
                .expect("spawn scheduler")
        };
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let cache = Arc::clone(&cache);
                let rx = Arc::clone(&batch_rx);
                let cfg = cfg.clone();
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &cache, &cfg, &rx))
                    .expect("spawn worker")
            })
            .collect();

        SimService {
            cfg,
            shared,
            scheduler: Some(scheduler),
            workers,
        }
    }

    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Submit a job. The spec is validated first — a malformed payload
    /// (wrong lane count, zero cycles) gets a permanent
    /// [`SubmitError::Invalid`] instead of panicking a worker thread
    /// mid-batch. Then admission control applies: at the in-flight limit
    /// the job is refused with [`SubmitError::Full`] carrying a
    /// retry-after estimated from the backlog and the EWMA service time.
    pub fn submit(&self, mut spec: JobSpec) -> Result<JobHandle, SubmitError> {
        let lanes = PortMap::from_design(&spec.design).len();
        if spec.source.num_ports() != lanes {
            return Err(SubmitError::Invalid(format!(
                "stimulus source drives {} lanes but the design has {lanes} input ports",
                spec.source.num_ports()
            )));
        }
        if spec.cycles == 0 {
            return Err(SubmitError::Invalid("cycle count must be >= 1".into()));
        }
        let id = JobId::fresh();
        let (handle, events) = JobHandle::new(id);
        let key = CompatKey {
            design: design_hash(&spec.design),
            cycles: spec.cycles,
        };
        let n = spec.source.num_stimulus() as u64;
        let class = spec.class;
        let descriptor = spec.descriptor.take().unwrap_or_default();
        let recovered_from = spec.recovered_from.take();
        let job = Job {
            id,
            design: spec.design,
            source: spec.source,
            class: spec.class,
            want_vcd: spec.want_vcd,
            key,
            accepted_at: Instant::now(),
            events,
        };
        let estimate = self
            .shared
            .metrics
            .lock()
            .expect("metrics poisoned")
            .ewma_service_per_job;
        let queued_tx = job.events.clone();
        let mut queue = self.shared.queue.lock().expect("queue poisoned");
        match queue.push(job, estimate) {
            Ok(_) => {
                // In-flight jobs ahead of this one at admission time.
                let depth = queue.depth().saturating_sub(1);
                drop(queue);
                // Write-ahead point: the job is durable before the
                // caller learns it was accepted. A crash from here on
                // leaves it recoverable from the journal.
                if let Some(old_id) = recovered_from {
                    journal_event(
                        &self.shared,
                        JournalEvent::Resume,
                        old_id,
                        key.design,
                        spec.cycles,
                        n,
                        class,
                        &id.0.to_string(),
                    );
                    self.shared
                        .metrics
                        .lock()
                        .expect("metrics poisoned")
                        .jobs_recovered += 1;
                }
                journal_event(
                    &self.shared,
                    JournalEvent::Submit,
                    id.0,
                    key.design,
                    spec.cycles,
                    n,
                    class,
                    &descriptor,
                );
                self.shared
                    .metrics
                    .lock()
                    .expect("metrics poisoned")
                    .jobs_accepted += 1;
                let _ = queued_tx.send(JobEvent::Queued { id, depth });
                self.shared.wake.notify_all();
                Ok(handle)
            }
            Err((job, rejected)) => {
                drop(queue);
                self.shared
                    .metrics
                    .lock()
                    .expect("metrics poisoned")
                    .jobs_rejected += 1;
                // Dropping the job closes its event channel; the caller
                // only ever sees the Rejected.
                drop(job);
                Err(SubmitError::Full(rejected))
            }
        }
    }

    /// Current metrics snapshot.
    pub fn metrics(&self) -> ServeMetrics {
        self.shared
            .metrics
            .lock()
            .expect("metrics poisoned")
            .clone()
    }

    /// Drain every queued and windowed job, stop all threads, and
    /// return the final metrics.
    pub fn shutdown(mut self) -> ServeMetrics {
        self.stop_and_join();
        self.metrics()
    }

    /// Simulate a hard crash: stop every thread *without* draining
    /// queued, windowed, or undispatched work. Accepted-but-unfinished
    /// jobs are lost in memory — their event channels close, handles
    /// see an error — but each one is already fsync'd in the journal,
    /// so [`crate::journal::pending`] names them for re-admission. This
    /// is the failure the chaos tests and `--crash-after` inject.
    pub fn crash(mut self) -> ServeMetrics {
        self.shared.crashed.store(true, Ordering::SeqCst);
        self.stop_and_join();
        self.metrics()
    }

    /// Compact the configured journal (drop retired history), returning
    /// `(kept, dropped)` record counts. No-op `(0, 0)` without a journal.
    pub fn compact_journal(&self) -> std::io::Result<(usize, usize)> {
        match self
            .shared
            .journal
            .lock()
            .expect("journal poisoned")
            .as_mut()
        {
            Some(j) => j.compact(),
            None => Ok((0, 0)),
        }
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.wake.notify_all();
        if let Some(s) = self.scheduler.take() {
            let _ = s.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for SimService {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn scheduler_loop(shared: &Shared, cfg: &ServeConfig, batch_tx: Sender<Batch>) {
    let mut coalescer = Coalescer::new(cfg.max_batch, cfg.window);
    let mut queue = shared.queue.lock().expect("queue poisoned");
    loop {
        if shared.crashed.load(Ordering::SeqCst) {
            // Hard crash: abandon the FIFO and every windowed bin.
            break;
        }
        while let Some(job) = queue.pop() {
            if let Some(batch) = coalescer.add(job, Instant::now()) {
                let _ = batch_tx.send(batch);
            }
        }
        for batch in coalescer.poll(Instant::now()) {
            let _ = batch_tx.send(batch);
        }
        if shared.stop.load(Ordering::SeqCst) && queue.queued() == 0 {
            for batch in coalescer.flush_all() {
                let _ = batch_tx.send(batch);
            }
            break;
        }
        let timeout = match coalescer.next_deadline() {
            Some(d) => d
                .saturating_duration_since(Instant::now())
                .max(Duration::from_micros(100)),
            // Idle: wake periodically as a stop-flag backstop.
            None => Duration::from_millis(25),
        };
        queue = shared
            .wake
            .wait_timeout(queue, timeout)
            .expect("queue poisoned")
            .0;
    }
    // Dropping the sender closes the channel; workers exit once drained.
}

/// Per-job bookkeeping kept after the source moves into the launch.
struct JobMeta {
    id: JobId,
    want_vcd: bool,
    class: DeadlineClass,
    accepted_at: Instant,
    events: Sender<JobEvent>,
}

fn worker_loop(
    shared: &Shared,
    cache: &EngineCache,
    cfg: &ServeConfig,
    rx: &Arc<Mutex<Receiver<Batch>>>,
) {
    loop {
        let batch = {
            let guard = rx.lock().expect("batch channel poisoned");
            guard.recv()
        };
        match batch {
            // A crash drops already-channelled batches on the floor too:
            // their jobs' event channels close unresolved, exactly like
            // a process that died between dispatch and completion.
            Ok(_) if shared.crashed.load(Ordering::SeqCst) => continue,
            Ok(batch) => run_coalesced(shared, cache, cfg, batch),
            Err(_) => break, // scheduler gone and channel drained
        }
    }
}

fn run_coalesced(shared: &Shared, cache: &EngineCache, cfg: &ServeConfig, batch: Batch) {
    let dispatched_at = Instant::now();
    let n_jobs = batch.jobs.len();
    let total = batch.total_stimulus;
    let cycles = batch.key.cycles;

    let (engine, cache_hit) = cache.get_or_build(
        batch.key.design,
        &batch.jobs[0].design,
        &cfg.model,
        &cfg.tuned,
    );
    let engine = match engine {
        Ok(e) => e,
        Err(error) => {
            let mut m = shared.metrics.lock().expect("metrics poisoned");
            m.record_dispatch(total, cache_hit);
            m.jobs_failed += n_jobs as u64;
            drop(m);
            for job in batch.jobs {
                journal_event(
                    shared,
                    JournalEvent::Fail,
                    job.id.0,
                    batch.key.design,
                    cycles,
                    job.num_stimulus() as u64,
                    job.class,
                    "",
                );
                let _ = job.events.send(JobEvent::Failed {
                    id: job.id,
                    error: error.clone(),
                });
            }
            shared.queue.lock().expect("queue poisoned").release(n_jobs);
            return;
        }
    };

    let mut metas = Vec::with_capacity(n_jobs);
    let mut sources: Vec<Arc<dyn StimulusSource>> = Vec::with_capacity(n_jobs);
    for job in batch.jobs {
        journal_event(
            shared,
            JournalEvent::Dispatch,
            job.id.0,
            batch.key.design,
            cycles,
            job.num_stimulus() as u64,
            job.class,
            "",
        );
        let _ = job.events.send(JobEvent::Dispatched {
            id: job.id,
            batch_stimulus: total,
            batch_jobs: n_jobs,
        });
        metas.push(JobMeta {
            id: job.id,
            want_vcd: job.want_vcd,
            class: job.class,
            accepted_at: job.accepted_at,
            events: job.events,
        });
        sources.push(Arc::from(job.source));
    }
    // Each job's source keeps its own local indices inside the stack —
    // the bit-identical-to-standalone invariant lives here.
    let mut stacked: Vec<Box<dyn StimulusSource>> = sources
        .iter()
        .map(|s| Box::new(Arc::clone(s)) as Box<dyn StimulusSource>)
        .collect();

    let group_size = cfg.group_size.clamp(1, total.max(1));
    // Tuned exec applies only when the operator left `exec` at its
    // default — an explicit strategy choice always wins over the cache.
    let exec = autotune::resolve_exec(cfg.exec, engine.tuned.as_ref());
    let t0 = Instant::now();

    // Overflow routing: a big-enough batch of a cluster-registered
    // design runs on remote workers. Any cluster failure (no live
    // workers, wire error) falls back to the local executors below, so
    // remote capacity can only add throughput, never lose a batch.
    let mut remote: Option<(Vec<u64>, Vec<std::ops::Range<usize>>)> = None;
    if let Some(cb) = &cfg.cluster {
        if total >= cb.min_stimulus && cb.controller.has_design(batch.key.design) {
            // Only one batch may hold the cluster at a time; a busy
            // cluster means local execution now beats queueing for the
            // full rejoin grace behind the winner.
            let gate = match shared.cluster_gate.try_lock() {
                Ok(g) => Some(g),
                Err(std::sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
                Err(std::sync::TryLockError::WouldBlock) => None,
            };
            if let Some(_gate) = gate {
                // Footprint routing: when the batch's estimated device
                // footprint exceeds the per-worker budget, cut the design
                // into K model-parallel parts so each worker holds only
                // its share; otherwise replicate it data-parallel.
                let parts = cb.footprint_budget.map_or(0, |budget| {
                    let per_stim = engine.program.plan.alloc_device(1).bytes() as u64;
                    let footprint = per_stim.saturating_mul(total as u64);
                    if footprint > budget.max(1) {
                        (footprint.div_ceil(budget.max(1)) as usize)
                            .clamp(2, cb.controller.num_workers().max(1))
                    } else {
                        0
                    }
                });
                let outcome = if parts >= 2 {
                    cb.controller
                        .run_jobs_modelpar(batch.key.design, stacked, cycles, parts)
                } else {
                    cb.controller.run_jobs(batch.key.design, stacked, cycles)
                };
                match outcome {
                    Ok(r) => {
                        let mut m = shared.metrics.lock().expect("metrics poisoned");
                        m.cluster_dispatches += 1;
                        m.cluster_jobs += n_jobs as u64;
                        if parts >= 2 {
                            m.cluster_modelpar_dispatches += 1;
                        }
                        remote = Some((r.digests, r.ranges));
                    }
                    Err(_) => {
                        shared
                            .metrics
                            .lock()
                            .expect("metrics poisoned")
                            .cluster_fallbacks += 1;
                    }
                }
                // The sources are Arc-shared, so the local fallback (and
                // the VCD path) can rebuild the stacked batch after the
                // remote attempt consumed it.
                stacked = sources
                    .iter()
                    .map(|s| Box::new(Arc::clone(s)) as Box<dyn StimulusSource>)
                    .collect();
            } else {
                shared
                    .metrics
                    .lock()
                    .expect("metrics poisoned")
                    .cluster_busy_skips += 1;
            }
        }
    }

    // Single device keeps the pipeline path; a multi-device config routes
    // the whole coalesced batch through the sharded executor. Either way
    // each job's digest slice is bit-identical to a standalone run.
    let (digests, ranges, makespan, gpu_utilization, pool) = if let Some((digests, ranges)) = remote
    {
        // Remote runs return functional digests only; the virtual timing
        // model stays a local concern.
        (digests, ranges, 0, 0.0, None)
    } else if cfg.devices.len() > 1 {
        let pool = shard::DevicePool::with_speeds(cfg.model.clone(), &cfg.devices);
        let scfg = shard::ShardConfig {
            group_size,
            exec,
            ..Default::default()
        };
        let r = shard::shard_batch_jobs(
            &engine.design,
            &engine.program,
            &engine.graph,
            &engine.map,
            stacked,
            cycles,
            &scfg,
            &pool,
        );
        let util = r.result.metrics.mean_utilization();
        (
            r.result.digests,
            r.ranges,
            r.result.makespan,
            util,
            Some(r.result.metrics),
        )
    } else {
        let pcfg = PipelineConfig {
            group_size,
            exec,
            ..Default::default()
        };
        let r = pipeline::simulate_batch_jobs(
            &engine.design,
            &engine.program,
            &engine.graph,
            &engine.map,
            stacked,
            cycles,
            &pcfg,
            &cfg.model,
        );
        (
            r.sim.digests,
            r.ranges,
            r.sim.makespan,
            r.sim.gpu_utilization,
            None,
        )
    };
    let elapsed = t0.elapsed();

    {
        let mut m = shared.metrics.lock().expect("metrics poisoned");
        m.record_dispatch(total, cache_hit);
        m.record_service_time(elapsed / n_jobs as u32);
        for meta in &metas {
            m.record_wait(dispatched_at.duration_since(meta.accepted_at));
        }
        if let Some(pool) = &pool {
            m.record_pool(pool);
        }
        m.jobs_completed += n_jobs as u64;
    }
    // Terminal state reached: hand the admission credits back.
    shared.queue.lock().expect("queue poisoned").release(n_jobs);

    for (j, meta) in metas.into_iter().enumerate() {
        let range = ranges[j].clone();
        journal_event(
            shared,
            JournalEvent::Complete,
            meta.id.0,
            batch.key.design,
            cycles,
            range.len() as u64,
            meta.class,
            "",
        );
        let vcd = if meta.want_vcd {
            let src = &sources[j];
            let map = &engine.map;
            let mut frame = vec![0u64; map.len()];
            rtlir::vcd::dump_outputs(&engine.design, cycles, |c| {
                src.fill_frame(0, c, &mut frame);
                map.to_pokes(&frame)
            })
            .ok()
        } else {
            None
        };
        let _ = meta.events.send(JobEvent::Completed(Box::new(JobResult {
            id: meta.id,
            digests: digests[range].to_vec(),
            makespan,
            gpu_utilization,
            batch_stimulus: total,
            batch_jobs: n_jobs,
            queue_wait: dispatched_at.duration_since(meta.accepted_at),
            cache_hit,
            vcd,
        })));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::DeadlineClass;
    use stimulus::RandomSource;

    fn tiny_design() -> Arc<Design> {
        let v = "module top(input clk, input rst, input [7:0] a, output [7:0] q);
                 reg [7:0] acc;
                 always @(posedge clk) begin if (rst) acc <= 8'd0; else acc <= acc + a; end
                 assign q = acc; endmodule";
        Arc::new(rtlir::elaborate(v, "top").unwrap())
    }

    fn spec(design: &Arc<Design>, n: usize, seed: u64, cycles: u64) -> JobSpec {
        let map = PortMap::from_design(design);
        JobSpec::new(
            Arc::clone(design),
            Box::new(RandomSource::new(&map, n, seed)),
            cycles,
        )
    }

    #[test]
    fn jobs_complete_and_coalesce_into_one_dispatch() {
        let design = tiny_design();
        let service = SimService::start(ServeConfig {
            max_batch: 4096,
            window: Duration::from_millis(10),
            workers: 1,
            ..Default::default()
        });
        let h1 = service.submit(spec(&design, 8, 11, 30)).unwrap();
        let h2 = service.submit(spec(&design, 16, 22, 30)).unwrap();
        let r1 = h1.wait().unwrap();
        let r2 = h2.wait().unwrap();
        assert_eq!(r1.digests.len(), 8);
        assert_eq!(r2.digests.len(), 16);
        // Same DUT + cycles inside one window: one coalesced launch of 24.
        assert_eq!(r1.batch_stimulus, 24);
        assert_eq!(r1.batch_jobs, 2);
        assert_eq!(r2.batch_stimulus, 24);
        let m = service.shutdown();
        assert_eq!(m.jobs_completed, 2);
        assert_eq!(m.dispatches, 1);
        assert!((m.coalescing_efficiency() - 0.5).abs() < 1e-12);
        assert_eq!(m.cache_misses, 1, "first dispatch builds the engine");
    }

    #[test]
    fn warm_cache_hits_on_second_dispatch() {
        let design = tiny_design();
        let service = SimService::start(ServeConfig {
            window: Duration::from_millis(1),
            workers: 1,
            ..Default::default()
        });
        let r1 = service
            .submit(spec(&design, 4, 1, 20).with_class(DeadlineClass::Interactive))
            .unwrap()
            .wait()
            .unwrap();
        assert!(!r1.cache_hit);
        let r2 = service
            .submit(spec(&design, 4, 2, 20).with_class(DeadlineClass::Interactive))
            .unwrap()
            .wait()
            .unwrap();
        assert!(
            r2.cache_hit,
            "second launch of the same design must hit the warm cache"
        );
        let m = service.shutdown();
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.cache_misses, 1);
    }

    #[test]
    fn shutdown_drains_pending_work() {
        let design = tiny_design();
        let service = SimService::start(ServeConfig {
            // A wide-open window: only shutdown can flush these.
            window: Duration::from_secs(60),
            workers: 1,
            ..Default::default()
        });
        let handles: Vec<JobHandle> = (0..3)
            .map(|i| service.submit(spec(&design, 4, i, 25)).unwrap())
            .collect();
        let metrics = service.shutdown();
        assert_eq!(metrics.jobs_completed, 3);
        for h in handles {
            assert_eq!(h.wait().unwrap().digests.len(), 4);
        }
    }

    #[test]
    fn pool_dispatch_is_bit_identical_to_single_device() {
        let design = tiny_design();
        let run = |devices: Vec<f64>| {
            let service = SimService::start(ServeConfig {
                window: Duration::from_millis(10),
                workers: 1,
                group_size: 4,
                devices,
                ..Default::default()
            });
            let h1 = service.submit(spec(&design, 8, 11, 30)).unwrap();
            let h2 = service.submit(spec(&design, 16, 22, 30)).unwrap();
            let digests = (h1.wait().unwrap().digests, h2.wait().unwrap().digests);
            (digests, service.shutdown())
        };
        let (single, m1) = run(vec![1.0]);
        let (pooled, m2) = run(vec![1.0, 0.5, 1.0]);
        assert_eq!(
            pooled, single,
            "a heterogeneous pool must not change any job's digests"
        );
        assert_eq!(
            m1.pool_dispatches, 0,
            "one device stays on the pipeline path"
        );
        assert!(
            m2.pool_dispatches >= 1,
            "multi-device config must use the pool"
        );
    }

    #[test]
    fn cluster_backend_routes_big_batches_and_keeps_digests() {
        let v = "module top(input clk, input rst, input [7:0] a, output [7:0] q);
                 reg [7:0] acc;
                 always @(posedge clk) begin if (rst) acc <= 8'd0; else acc <= acc + a; end
                 assign q = acc; endmodule";
        let design = Arc::new(rtlir::elaborate(v, "top").unwrap());

        // Local-only reference digests.
        let run_local = || {
            let service = SimService::start(ServeConfig {
                window: Duration::from_millis(10),
                workers: 1,
                ..Default::default()
            });
            let h1 = service.submit(spec(&design, 8, 11, 30)).unwrap();
            let h2 = service.submit(spec(&design, 16, 22, 30)).unwrap();
            (h1.wait().unwrap().digests, h2.wait().unwrap().digests)
        };
        let local = run_local();

        // Same jobs with a loopback cluster attached: the coalesced
        // 24-stimulus batch clears min_stimulus and runs remotely.
        let controller = Arc::new(
            cluster::Controller::bind("127.0.0.1:0", cluster::ClusterConfig::default()).unwrap(),
        );
        controller.register_design(v, "top").unwrap();
        let worker = cluster::spawn_worker(controller.addr(), cluster::WorkerConfig::default());
        controller
            .wait_for_workers(1, Duration::from_secs(5))
            .unwrap();
        let service = SimService::start(ServeConfig {
            window: Duration::from_millis(10),
            workers: 1,
            cluster: Some(ClusterBackend {
                controller: Arc::clone(&controller),
                min_stimulus: 16,
                footprint_budget: None,
            }),
            ..Default::default()
        });
        let h1 = service.submit(spec(&design, 8, 11, 30)).unwrap();
        let h2 = service.submit(spec(&design, 16, 22, 30)).unwrap();
        let remote = (h1.wait().unwrap().digests, h2.wait().unwrap().digests);
        let m = service.shutdown();
        controller.shutdown();
        let _ = worker.join();

        assert_eq!(remote, local, "remote execution must not change digests");
        assert!(m.cluster_dispatches >= 1, "the batch must have gone remote");
        assert_eq!(m.cluster_jobs, 2);
        assert_eq!(m.cluster_fallbacks, 0);
    }

    #[test]
    fn footprint_budget_routes_big_designs_model_parallel() {
        let v = "module top(input clk, input rst, input [7:0] a, output [7:0] q);
                 reg [7:0] acc;
                 always @(posedge clk) begin if (rst) acc <= 8'd0; else acc <= acc + a; end
                 assign q = acc; endmodule";
        let design = Arc::new(rtlir::elaborate(v, "top").unwrap());

        let run_local = || {
            let service = SimService::start(ServeConfig {
                window: Duration::from_millis(10),
                workers: 1,
                ..Default::default()
            });
            let h = service.submit(spec(&design, 24, 11, 30)).unwrap();
            h.wait().unwrap().digests
        };
        let local = run_local();

        // A one-byte budget: any batch overflows it, so the remote path
        // must cut the design across the two workers.
        let controller = Arc::new(
            cluster::Controller::bind("127.0.0.1:0", cluster::ClusterConfig::default()).unwrap(),
        );
        controller.register_design(v, "top").unwrap();
        let workers: Vec<_> = (0..2)
            .map(|_| cluster::spawn_worker(controller.addr(), cluster::WorkerConfig::default()))
            .collect();
        controller
            .wait_for_workers(2, Duration::from_secs(5))
            .unwrap();
        let service = SimService::start(ServeConfig {
            window: Duration::from_millis(10),
            workers: 1,
            cluster: Some(ClusterBackend {
                controller: Arc::clone(&controller),
                min_stimulus: 16,
                footprint_budget: Some(1),
            }),
            ..Default::default()
        });
        let h = service.submit(spec(&design, 24, 11, 30)).unwrap();
        let remote = h.wait().unwrap().digests;
        let m = service.shutdown();
        controller.shutdown();
        for w in workers {
            let _ = w.join();
        }

        assert_eq!(
            remote, local,
            "model-parallel overflow must not change digests"
        );
        assert!(
            m.cluster_modelpar_dispatches >= 1,
            "the batch must have been cut model-parallel (metrics: {m:?})"
        );
        assert_eq!(m.cluster_fallbacks, 0);
    }

    #[test]
    fn cluster_with_no_workers_falls_back_to_local() {
        let design = tiny_design();
        // A controller nobody ever connects to: run_jobs fails fast once
        // the (shortened) rejoin grace expires, and the batch must land
        // on the local pipeline anyway.
        let controller = Arc::new(
            cluster::Controller::bind(
                "127.0.0.1:0",
                cluster::ClusterConfig {
                    rejoin_grace: Duration::from_millis(50),
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        let v = "module top(input clk, input rst, input [7:0] a, output [7:0] q);
                 reg [7:0] acc;
                 always @(posedge clk) begin if (rst) acc <= 8'd0; else acc <= acc + a; end
                 assign q = acc; endmodule";
        controller.register_design(v, "top").unwrap();
        let service = SimService::start(ServeConfig {
            window: Duration::from_millis(5),
            workers: 1,
            cluster: Some(ClusterBackend {
                controller: Arc::clone(&controller),
                min_stimulus: 1,
                footprint_budget: None,
            }),
            ..Default::default()
        });
        let r = service.submit(spec(&design, 6, 3, 20)).unwrap().wait();
        let m = service.shutdown();
        controller.shutdown();
        assert_eq!(r.unwrap().digests.len(), 6, "the job must still complete");
        assert!(
            m.cluster_fallbacks >= 1,
            "a dead cluster must be counted as a fallback"
        );
        assert_eq!(m.jobs_failed, 0);
    }

    #[test]
    fn vcd_requested_jobs_get_a_waveform() {
        let design = tiny_design();
        let service = SimService::start(ServeConfig {
            window: Duration::from_millis(1),
            workers: 1,
            ..Default::default()
        });
        let r = service
            .submit(spec(&design, 2, 9, 16).with_vcd())
            .unwrap()
            .wait()
            .unwrap();
        let vcd = r.vcd.expect("want_vcd must produce a waveform");
        assert!(vcd.contains("$enddefinitions"));
        drop(service);
    }
}
