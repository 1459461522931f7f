//! The cluster worker: connects to a controller, registers with its
//! capacity, and executes dispatched groups through the same
//! `pipeline`/`cudasim` functional executor the single-process flow uses.
//!
//! A worker is deliberately stateless across groups: every `RunGroup`
//! carries its materialized input frames, so executing a group twice —
//! or on a different worker after a requeue — produces bit-identical
//! digests. The only warm state is the per-design engine cache
//! ([`rtlir::design_hash`]-keyed), which survives reconnects.
//!
//! Failure behaviour is driven by [`WorkerFault`] for tests and the
//! `cluster-sim` demo: `Disconnect` drops the socket mid-batch (the
//! controller sees EOF), `Silent` stops responding without closing (the
//! controller's heartbeat timeout has to notice). A consumed fault does
//! not re-fire after the worker reconnects, so a faulted worker rejoins
//! as a healthy one.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cudasim::{Checkpoint, DeviceMemory, ExecConfig, Scratch};
use modelpar::PartEngine;
use pipeline::{restore_image, GroupRunner, Resume};
use rtlir::Design;
use stimulus::PortMap;
use transpile::KernelProgram;

use crate::error::ClusterError;
use crate::stop::StopFlag;
use crate::wire::{
    read_frame, write_frame, BatchDescriptor, BoundaryFrame, CheckpointUpdate, Frame,
    PartCheckpointUpdate, PartDispatch, PartResult, ResultChunk, VERSION,
};

/// How an injected fault manifests on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Close the connection abruptly: the controller reads EOF.
    Disconnect,
    /// Go quiet without closing: only the controller's heartbeat
    /// timeout can detect this.
    Silent,
}

/// Kill this worker at its `after_pickups`-th group pickup (0-based,
/// mirroring `shard::FaultSpec` coordinates). Consumed once.
#[derive(Debug, Clone, Copy)]
pub struct WorkerFault {
    pub after_pickups: u64,
    pub mode: FaultMode,
    /// `None`: die at pickup, before any compute (the original
    /// behaviour). `Some(k)`: pick the group up, compute `k` cycles —
    /// emitting every due checkpoint along the way — and die mid-group,
    /// which is what makes checkpoint resume observable.
    pub mid_cycle: Option<u64>,
}

impl WorkerFault {
    /// Die at the `after_pickups`-th pickup, before any compute.
    pub fn at_pickup(after_pickups: u64, mode: FaultMode) -> Self {
        WorkerFault {
            after_pickups,
            mode,
            mid_cycle: None,
        }
    }

    /// Die `cycle` cycles into the `after_pickups`-th picked-up group.
    pub fn mid_group(after_pickups: u64, cycle: u64, mode: FaultMode) -> Self {
        WorkerFault {
            after_pickups,
            mode,
            mid_cycle: Some(cycle),
        }
    }
}

/// A one-shot fault addressed to a *group* instead of to one worker's
/// pickup count. Clones share the trigger, so hand the same value to
/// every in-process worker: whichever of them picks `group` up first
/// dies, exactly once. Every group is picked up by somebody, so the
/// fault lands however the groups end up spread over the workers — a
/// pickup-count fault is lost when faster peers steal the victim's queue
/// before it gets that far.
#[derive(Debug, Clone)]
pub struct GroupFault {
    /// Group index within the batch.
    pub group: u32,
    pub mode: FaultMode,
    /// As [`WorkerFault::mid_cycle`].
    pub mid_cycle: Option<u64>,
    armed: Arc<AtomicBool>,
}

impl GroupFault {
    pub fn new(group: u32, mode: FaultMode, mid_cycle: Option<u64>) -> Self {
        GroupFault {
            group,
            mode,
            mid_cycle,
            armed: Arc::new(AtomicBool::new(true)),
        }
    }

    /// `true` for exactly one caller that picked up the addressed group.
    fn claim(&self, group: u32) -> bool {
        // SeqCst: the swap is the whole protocol — one claimant wins.
        group == self.group && self.armed.swap(false, Ordering::SeqCst)
    }
}

/// Worker-side configuration.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Advertised relative throughput weight; the controller sizes this
    /// worker's initial queue share by it.
    pub capacity: u32,
    /// Functional execution config for group cycles (the scalar oracle,
    /// or the fused engine and its thread count).
    pub exec: ExecConfig,
    /// Tuned-artifact cache policy, consulted when a batch's engine is
    /// built. A tuned design runs with its tuned partition/fuse config —
    /// and its tuned exec, unless `exec` was set to a non-default value.
    pub tuned: autotune::TunePolicy,
    /// Optional injected fault.
    pub fault: Option<WorkerFault>,
    /// Injected faults addressed to groups, shared with the other
    /// in-process workers (see [`GroupFault`]).
    pub group_faults: Vec<GroupFault>,
    /// How often to emit `Heartbeat` frames while a group computes.
    /// Every frame the controller reads restarts its per-group read
    /// deadline, so this must stay well under the controller's
    /// `heartbeat_timeout` or long groups are falsely declared dead.
    pub heartbeat_interval: Duration,
    /// Reconnect after a connection loss (including an injected
    /// `Disconnect`). `Goodbye` always ends the worker.
    pub reconnect: bool,
    /// First reconnect backoff; doubles per failed attempt (jittered,
    /// via the shared [`desim::Backoff`] schedule).
    pub backoff_start: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Connection attempts per (re)connect before giving up.
    pub max_attempts: u32,
    /// Ship a device snapshot to the controller every this many cycles
    /// while a group computes, so a requeued group can resume from its
    /// last checkpointed cycle instead of cycle 0. `0` disables
    /// checkpointing.
    pub checkpoint_interval: u64,
    /// Raise (on a clone kept by the caller) to cut a reconnect back-off
    /// short and end the worker instead of dialing again. A worker with a
    /// live connection still ends the usual way, on `Goodbye` or EOF.
    pub stop: StopFlag,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            capacity: 1,
            exec: ExecConfig::default(),
            tuned: autotune::TunePolicy::default(),
            fault: None,
            group_faults: Vec::new(),
            heartbeat_interval: Duration::from_millis(100),
            reconnect: true,
            backoff_start: Duration::from_millis(10),
            backoff_max: Duration::from_millis(500),
            max_attempts: 8,
            checkpoint_interval: 0,
            stop: StopFlag::default(),
        }
    }
}

/// A warm per-design engine: elaborated design + prepared kernel program.
struct Engine {
    design: Design,
    program: KernelProgram,
    map: PortMap,
    /// The tuned artifact this engine was built with, if the cache hit.
    tuned: Option<autotune::TunedArtifact>,
}

/// What one batch needs at group-execution time.
struct BatchInfo {
    design_key: u64,
    cycles: u64,
    lanes: u32,
}

/// Spawn [`run_worker`] on its own thread (the in-process loopback shape
/// used by `cluster-sim` and the tests).
pub fn spawn_worker(addr: SocketAddr, cfg: WorkerConfig) -> JoinHandle<Result<(), ClusterError>> {
    std::thread::spawn(move || run_worker(addr, cfg))
}

/// Run a worker until the controller says `Goodbye`, the connection is
/// lost with reconnects disabled, every reconnect attempt fails, or
/// [`WorkerConfig::stop`] is raised between connections.
pub fn run_worker(addr: SocketAddr, mut cfg: WorkerConfig) -> Result<(), ClusterError> {
    // The engine cache outlives connections: a worker that drops and
    // rejoins does not pay elaboration again. Part engines (model-parallel
    // sub-design programs) are cached separately, keyed by the cut too.
    let mut engines: HashMap<u64, Engine> = HashMap::new();
    let mut part_engines: HashMap<(u64, u32, u32), PartEngine> = HashMap::new();
    loop {
        let Some(stream) = connect_with_backoff(addr, &cfg)? else {
            return Ok(());
        };
        match serve_connection(stream, &mut cfg, &mut engines, &mut part_engines) {
            ConnectionEnd::Goodbye => return Ok(()),
            ConnectionEnd::Lost => {
                if !cfg.reconnect {
                    return Ok(());
                }
            }
        }
    }
}

/// Dial the controller with jittered exponential backoff and register.
/// `Ok(None)` means the stop flag went up first.
fn connect_with_backoff(
    addr: SocketAddr,
    cfg: &WorkerConfig,
) -> Result<Option<TcpStream>, ClusterError> {
    // Seeded per (port, capacity) so a fleet of identical workers
    // restarting together fans out instead of re-dialing in lockstep,
    // while each individual schedule stays deterministic.
    let seed = u64::from(addr.port()) ^ (u64::from(cfg.capacity) << 16);
    let mut backoff = desim::Backoff::new(cfg.backoff_start, cfg.backoff_max, seed);
    let mut last: Option<std::io::Error> = None;
    for attempt in 0..cfg.max_attempts.max(1) {
        let delay = if attempt > 0 {
            backoff.next_delay()
        } else {
            Duration::ZERO
        };
        if cfg.stop.wait(delay) {
            return Ok(None);
        }
        match TcpStream::connect(addr) {
            Ok(mut stream) => {
                stream.set_nodelay(true).ok();
                write_frame(
                    &mut stream,
                    &Frame::Hello {
                        proto: VERSION,
                        capacity: cfg.capacity.max(1),
                    },
                )?;
                match read_frame(&mut stream)? {
                    (Frame::Welcome { .. }, _) => return Ok(Some(stream)),
                    (Frame::Error { context }, _) => {
                        return Err(ClusterError::Protocol(format!(
                            "controller refused registration: {context}"
                        )))
                    }
                    (other, _) => {
                        return Err(ClusterError::Protocol(format!(
                            "expected Welcome, got {other:?}"
                        )))
                    }
                }
            }
            Err(e) => last = Some(e),
        }
    }
    Err(ClusterError::Io(last.unwrap_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::TimedOut, "no connection attempts made")
    })))
}

enum ConnectionEnd {
    /// Orderly shutdown: never reconnect.
    Goodbye,
    /// EOF / wire error / injected fault: reconnect if configured.
    Lost,
}

/// Serve one registered connection until it ends.
fn serve_connection(
    mut stream: TcpStream,
    cfg: &mut WorkerConfig,
    engines: &mut HashMap<u64, Engine>,
    part_engines: &mut HashMap<(u64, u32, u32), PartEngine>,
) -> ConnectionEnd {
    let mut batches: HashMap<u64, BatchInfo> = HashMap::new();
    let mut pickups: u64 = 0;
    loop {
        let frame = match read_frame(&mut stream) {
            Ok((f, _)) => f,
            Err(_) => return ConnectionEnd::Lost,
        };
        match frame {
            Frame::BatchStart(desc) => {
                if let Err(context) = start_batch(&desc, engines, &mut batches, &cfg.tuned) {
                    // A design this worker cannot build is reported, not
                    // fatal: the controller requeues onto other workers.
                    let _ = write_frame(&mut stream, &Frame::Error { context });
                }
            }
            Frame::RunGroup(g) => {
                let (mode, die_mid) = match take_fault(cfg, pickups, g.group) {
                    Some((mode, None)) => return die(&mut stream, mode),
                    // Die mid-group instead: run the group's first
                    // cycles (emitting due checkpoints), then crash
                    // without replying.
                    Some((mode, cycle)) => (mode, cycle),
                    None => (FaultMode::Disconnect, None),
                };
                pickups += 1;
                // Liveness marker before the compute burst.
                if write_frame(&mut stream, &Frame::Heartbeat { seq: pickups }).is_err() {
                    return ConnectionEnd::Lost;
                }
                let result = run_with_heartbeats(&stream, cfg.heartbeat_interval, |sink| {
                    run_group(
                        &g,
                        &batches,
                        engines,
                        &cfg.exec,
                        cfg.checkpoint_interval,
                        die_mid,
                        sink,
                    )
                });
                let reply = match result {
                    Ok(chunk) => Frame::Chunk(chunk),
                    Err(GroupEnd::Failed(context)) => Frame::Error { context },
                    // The injected mid-group crash: no reply, the
                    // connection dies the way the fault mode says.
                    Err(GroupEnd::Fault) => return die(&mut stream, mode),
                };
                if write_frame(&mut stream, &reply).is_err() {
                    return ConnectionEnd::Lost;
                }
            }
            Frame::RunPart(p) => {
                let mut dispatch = p;
                loop {
                    let (mode, die_mid) = match take_fault(cfg, pickups, dispatch.group) {
                        Some((mode, None)) => return die(&mut stream, mode),
                        Some((mode, cycle)) => (mode, cycle),
                        None => (FaultMode::Disconnect, None),
                    };
                    pickups += 1;
                    if write_frame(&mut stream, &Frame::Heartbeat { seq: pickups }).is_err() {
                        return ConnectionEnd::Lost;
                    }
                    let end = match ensure_part_engine(&dispatch, &batches, engines, part_engines) {
                        Err(context) => PartEnd::Failed(context),
                        Ok(key) => {
                            let pe = &part_engines[&key];
                            let info = &batches[&dispatch.batch];
                            run_with_heartbeats(&stream, cfg.heartbeat_interval, |sink| {
                                run_part(&stream, sink, &dispatch, info, pe, cfg, die_mid)
                            })
                        }
                    };
                    match end {
                        PartEnd::Done(r) => {
                            if write_frame(&mut stream, &Frame::PartDone(*r)).is_err() {
                                return ConnectionEnd::Lost;
                            }
                            break;
                        }
                        PartEnd::Failed(context) => {
                            if write_frame(&mut stream, &Frame::Error { context }).is_err() {
                                return ConnectionEnd::Lost;
                            }
                            break;
                        }
                        // The abort ack was already echoed from inside the
                        // boundary wait; just drop the doomed epoch.
                        PartEnd::Aborted => break,
                        PartEnd::Preempted(next) => {
                            dispatch = *next;
                            continue;
                        }
                        PartEnd::Lost => return ConnectionEnd::Lost,
                        PartEnd::Goodbye => return ConnectionEnd::Goodbye,
                        PartEnd::Fault => return die(&mut stream, mode),
                    }
                }
            }
            // A rollback barrier arriving while no part is running (this
            // part already finished its epoch): ack it so the controller's
            // drain completes, then wait for the re-dispatch.
            Frame::PartAbort {
                batch,
                group,
                epoch,
            } => {
                if write_frame(
                    &mut stream,
                    &Frame::PartAbort {
                        batch,
                        group,
                        epoch,
                    },
                )
                .is_err()
                {
                    return ConnectionEnd::Lost;
                }
            }
            Frame::Heartbeat { seq } => {
                if write_frame(&mut stream, &Frame::HeartbeatAck { seq }).is_err() {
                    return ConnectionEnd::Lost;
                }
            }
            Frame::Goodbye => return ConnectionEnd::Goodbye,
            // Acks and stray frames are harmless; a controller bug must
            // not crash the worker.
            Frame::HeartbeatAck { .. } | Frame::Error { .. } => {}
            Frame::Hello { .. } | Frame::Welcome { .. } | Frame::Chunk(_) => {}
            Frame::Checkpoint(_) => {}
            // Stale boundary traffic between parts is discarded, same as
            // inside the wait loop (rollback makes it harmless).
            Frame::Boundary(_) | Frame::PartDone(_) | Frame::PartCheckpoint(_) => {}
        }
    }
}

/// The fault due at this pickup, if any: `(mode, mid_cycle)`. A fired
/// fault is consumed, so the worker rejoins healthy after it.
fn take_fault(
    cfg: &mut WorkerConfig,
    pickups: u64,
    group: u32,
) -> Option<(FaultMode, Option<u64>)> {
    if let Some(f) = cfg.fault.filter(|f| f.after_pickups == pickups) {
        cfg.fault = None;
        return Some((f.mode, f.mid_cycle));
    }
    cfg.group_faults
        .iter()
        .find(|f| f.claim(group))
        .map(|f| (f.mode, f.mid_cycle))
}

/// End the connection the way an injected fault says.
fn die(stream: &mut TcpStream, mode: FaultMode) -> ConnectionEnd {
    if mode == FaultMode::Silent {
        // Stop responding but keep the socket open; drain frames until
        // the controller gives up and closes it.
        while read_frame(stream).is_ok() {}
    }
    ConnectionEnd::Lost
}

/// A mutex-serialized side channel for frames written *while a group
/// computes* — checkpoint snapshots from the compute thread and
/// heartbeats from the ticker share one cloned stream, so their frame
/// bytes can never interleave on the wire. Send failures are swallowed:
/// a checkpoint is an optimization, and a dying connection surfaces at
/// the reply write anyway.
pub(crate) struct FrameSink<'a> {
    stream: Option<&'a Mutex<TcpStream>>,
}

impl FrameSink<'_> {
    fn send(&self, frame: &Frame) {
        if let Some(m) = self.stream {
            if let Ok(mut s) = m.lock() {
                let _ = write_frame(&mut *s, frame);
            }
        }
    }
}

/// Run `compute` while a ticker thread writes `Heartbeat` frames on a
/// clone of `stream` every `interval`, so a group whose compute outlives
/// the controller's `heartbeat_timeout` keeps extending its per-group
/// read deadline instead of being falsely declared dead. `compute`
/// receives a [`FrameSink`] sharing the ticker's stream (mutex-guarded)
/// for mid-compute checkpoint frames. The ticker waits its interval out
/// on a flag that is raised the instant `compute` returns, and is joined
/// (via the scope) before this returns: the caller's reply write can
/// never interleave with a heartbeat or checkpoint frame, and never
/// waits for a timer either.
fn run_with_heartbeats<T>(
    stream: &TcpStream,
    interval: Duration,
    compute: impl FnOnce(&FrameSink<'_>) -> T,
) -> T {
    /// Raised on drop, so a panicking `compute` still releases the
    /// ticker and the scope's join cannot hang.
    struct Finished(StopFlag);
    impl Drop for Finished {
        fn drop(&mut self) {
            self.0.raise();
        }
    }

    // A zero interval would turn the wait into a busy loop of heartbeats.
    let interval = interval.max(Duration::from_millis(1));
    // If the clone fails we just compute without heartbeats or
    // checkpoints: short groups still finish inside the controller's
    // deadline.
    let shared = stream.try_clone().ok().map(Mutex::new);
    std::thread::scope(|s| {
        let finished = Finished(StopFlag::default());
        if let Some(m) = shared.as_ref() {
            let done = finished.0.clone();
            s.spawn(move || {
                let mut seq = 0u64;
                while !done.wait(interval) {
                    seq += 1;
                    let dead = match m.lock() {
                        Ok(mut s) => write_frame(&mut *s, &Frame::Heartbeat { seq }).is_err(),
                        Err(_) => true,
                    };
                    if dead {
                        return;
                    }
                }
            });
        }
        let sink = FrameSink {
            stream: shared.as_ref(),
        };
        compute(&sink)
    })
}

/// Elaborate + prepare (or reuse) the engine for a batch descriptor.
fn start_batch(
    desc: &BatchDescriptor,
    engines: &mut HashMap<u64, Engine>,
    batches: &mut HashMap<u64, BatchInfo>,
    policy: &autotune::TunePolicy,
) -> Result<(), String> {
    if let std::collections::hash_map::Entry::Vacant(slot) = engines.entry(desc.design_key) {
        let design = netlist::load_design(&desc.verilog, &desc.top)
            .map_err(|e| format!("batch {}: elaborate '{}': {e}", desc.batch, desc.top))?;
        let key = rtlir::design_hash(&design);
        if key != desc.design_key {
            return Err(format!(
                "batch {}: design hash mismatch (controller {:#018x}, worker {key:#018x})",
                desc.batch, desc.design_key
            ));
        }
        let model = cudasim::GpuModel::default();
        // Engine-cache fill consults the tuned-artifact cache; a miss or
        // a failing tuned build degrades to `pipeline::prepare` semantics.
        let (built, tuned) = autotune::prepare_with_policy(&design, key, &model, policy);
        let (program, _graph) = built.map_err(|e| format!("batch {}: prepare: {e}", desc.batch))?;
        let map = PortMap::from_design(&design);
        slot.insert(Engine {
            design,
            program,
            map,
            tuned,
        });
    }
    let lanes = engines[&desc.design_key].map.len() as u32;
    if desc.lanes != lanes {
        return Err(format!(
            "batch {}: controller says {} input lanes, design has {lanes}",
            desc.batch, desc.lanes
        ));
    }
    batches.insert(
        desc.batch,
        BatchInfo {
            design_key: desc.design_key,
            cycles: desc.cycles,
            lanes,
        },
    );
    Ok(())
}

/// Why a group run produced no chunk.
enum GroupEnd {
    /// Contextful execution failure, reported to the controller.
    Failed(String),
    /// An injected mid-group crash fired: die without replying.
    Fault,
}

/// Functionally execute one dispatched group and digest its outputs.
/// Every failure path is a contextful `Err` — a malformed dispatch must
/// never panic the worker.
///
/// Cycle-resume discipline: a dispatch carrying a valid checkpoint image
/// restores the device state and starts at `resume_cycle`; since the
/// per-cycle step is a pure function of (device state, that cycle's
/// input frames), the continuation is bit-identical to a cold run. An
/// image that fails *any* validation (decode, design, range, shape)
/// falls back to cycle 0 — resume is an optimization, never a
/// correctness dependency.
fn run_group(
    g: &crate::wire::GroupDispatch,
    batches: &HashMap<u64, BatchInfo>,
    engines: &HashMap<u64, Engine>,
    exec: &ExecConfig,
    checkpoint_interval: u64,
    die_at_cycle: Option<u64>,
    sink: &FrameSink<'_>,
) -> Result<ResultChunk, GroupEnd> {
    let fail = GroupEnd::Failed;
    let info = batches.get(&g.batch).ok_or_else(|| {
        fail(format!(
            "group {} references unknown batch {}",
            g.group, g.batch
        ))
    })?;
    let engine = engines
        .get(&info.design_key)
        .ok_or_else(|| fail(format!("batch {} lost its engine", g.batch)))?;
    // Tuned exec applies only when the configured exec is the default —
    // an explicit strategy choice always wins over the cache.
    let exec = autotune::resolve_exec(*exec, engine.tuned.as_ref());
    let len = g.len as usize;
    let lanes = info.lanes as usize;
    let expect = len
        .checked_mul(info.cycles as usize)
        .and_then(|x| x.checked_mul(lanes))
        .ok_or_else(|| fail(format!("group {}: frame count overflows", g.group)))?;
    if g.frames.len() != expect {
        return Err(fail(format!(
            "group {}: {} frame words, expected {expect} ({len} stim × {} cycles × {lanes} lanes)",
            g.group,
            g.frames.len(),
            info.cycles
        )));
    }
    let mut runner = GroupRunner::new(&engine.program, exec, len);
    if g.resume_cycle > 0 {
        runner.restore(
            &g.resume_image,
            &Resume {
                design_hash: info.design_key,
                tid0: g.tid0,
                cycle: g.resume_cycle,
                cycles: info.cycles,
            },
        );
    }
    for c in runner.cycle()..info.cycles {
        runner.poke_frames(&engine.map, &g.frames, info.cycles);
        runner.step();
        let completed = c + 1;
        if checkpoint_interval > 0
            && completed.is_multiple_of(checkpoint_interval)
            && completed < info.cycles
        {
            sink.send(&Frame::Checkpoint(CheckpointUpdate {
                batch: g.batch,
                group: g.group,
                tid0: g.tid0,
                cycle: completed,
                image: runner.checkpoint(info.design_key, g.tid0).encode(),
            }));
        }
        if die_at_cycle.is_some_and(|k| completed >= k) {
            return Err(GroupEnd::Fault);
        }
    }
    let digests = runner.digests(&engine.design);
    Ok(ResultChunk {
        batch: g.batch,
        group: g.group,
        tid0: g.tid0,
        digests,
    })
}

/// How a model-parallel part run ended.
enum PartEnd {
    /// Finished: final outputs and overlap timings, ready to reply.
    Done(Box<PartResult>),
    /// Contextful failure, reported to the controller.
    Failed(String),
    /// The controller aborted this epoch; the ack was already echoed.
    Aborted,
    /// A fresh dispatch arrived mid-part (defensive; the controller
    /// normally aborts first). The caller restarts with it.
    Preempted(Box<PartDispatch>),
    /// The connection died.
    Lost,
    /// Orderly shutdown arrived mid-wait.
    Goodbye,
    /// An injected mid-part crash fired: die without replying.
    Fault,
}

/// Build (or reuse) the compiled engine for one part of a K-way cut.
/// The cut is a pure function of `(design, k)`, so the worker re-derives
/// exactly the partition the controller planned with.
fn ensure_part_engine(
    p: &PartDispatch,
    batches: &HashMap<u64, BatchInfo>,
    engines: &HashMap<u64, Engine>,
    part_engines: &mut HashMap<(u64, u32, u32), PartEngine>,
) -> Result<(u64, u32, u32), String> {
    let info = batches.get(&p.batch).ok_or_else(|| {
        format!(
            "part {} of group {} references unknown batch {}",
            p.part, p.group, p.batch
        )
    })?;
    let key = (info.design_key, p.k, p.part);
    if let std::collections::hash_map::Entry::Vacant(e) = part_engines.entry(key) {
        let engine = engines
            .get(&info.design_key)
            .ok_or_else(|| format!("batch {} lost its engine", p.batch))?;
        let graph = rtlir::RtlGraph::build(&engine.design)
            .map_err(|e| format!("part {}: graph: {e}", p.part))?;
        let spec = partition::PartitionSpec::compute(&engine.design, &graph, p.k as usize)
            .map_err(|e| format!("k={}: {e}", p.k))?;
        let pe = PartEngine::build(&engine.design, &spec, p.part as usize)
            .map_err(|e| format!("part {}: {e}", p.part))?;
        e.insert(pe);
    }
    Ok(key)
}

/// Everything a boundary wait needs about the running part.
struct PartCtx<'a> {
    stream: &'a TcpStream,
    sink: &'a FrameSink<'a>,
    p: &'a PartDispatch,
    pe: &'a PartEngine,
    len: usize,
}

/// Boundary-exchange bookkeeping across the cycle loop.
struct ExchangeState {
    /// Out-of-order frames keyed `(exporter part, cycle)`. Peers with no
    /// imports of their own can run ahead; their frames buffer here.
    buffered: HashMap<(u32, u64), Vec<u8>>,
    /// Exchange latency hidden behind compute (ns).
    hidden_ns: u64,
    /// Time spent blocked waiting for boundary frames (ns).
    stall_ns: u64,
    /// When this part's own export for the previous cycle went out —
    /// the start of the window in which the exchange is in flight.
    exchange_start: Option<Instant>,
}

/// Execute one dispatched part of a model-parallel group: the same
/// poke / `pre` / apply-imports / `mid` / export / `post` cycle protocol
/// as `modelpar::simulate_modelpar`, with the boundary payloads crossing
/// the controller instead of a function call. `pre` runs while the
/// previous cycle's exchange is still in flight — that window is the
/// communication/compute overlap reported as `hidden_ns`.
fn run_part(
    stream: &TcpStream,
    sink: &FrameSink<'_>,
    p: &PartDispatch,
    info: &BatchInfo,
    pe: &PartEngine,
    cfg: &WorkerConfig,
    die_at_cycle: Option<u64>,
) -> PartEnd {
    let exec = &cfg.exec;
    let len = p.len as usize;
    let lanes = info.lanes as usize;
    let cycles = info.cycles;
    let expect = len
        .checked_mul(cycles as usize)
        .and_then(|x| x.checked_mul(lanes));
    if expect != Some(p.frames.len()) {
        return PartEnd::Failed(format!(
            "part {}: {} frame words, expected {expect:?}",
            p.part,
            p.frames.len()
        ));
    }
    let mut dev = pe.program.plan.alloc_device(len);
    let mut start_cycle = 0u64;
    if p.start_cycle > 0 {
        // Unlike data-parallel resume, a part may NOT silently fall back
        // to cycle 0: all K parts must restart from the same cycle or
        // determinism breaks. A bad image is an error the controller
        // turns into another rollback.
        let expect = Resume {
            design_hash: pe.design_hash,
            tid0: p.tid0,
            cycle: p.start_cycle,
            cycles,
        };
        if !restore_image(&mut dev, &p.resume_image, &expect) {
            return PartEnd::Failed(format!(
                "part {}: resume image for cycle {} failed validation",
                p.part, p.start_cycle
            ));
        }
        start_cycle = p.start_cycle;
    }
    let mut scratch = Scratch::new();
    let mut xs = ExchangeState {
        buffered: HashMap::new(),
        hidden_ns: 0,
        stall_ns: 0,
        exchange_start: None,
    };
    let ctx = PartCtx {
        stream,
        sink,
        p,
        pe,
        len,
    };
    let has_exports = pe.export_codec.num_vars() > 0;
    let boundary = |cycle: u64, payload: Vec<u8>| {
        Frame::Boundary(BoundaryFrame {
            batch: p.batch,
            group: p.group,
            part: p.part,
            epoch: p.epoch,
            cycle,
            payload,
        })
    };
    // A resumed part re-announces its boundary state for the cycle just
    // before the restart point: the restored device holds exactly the
    // post-commit state of `start_cycle - 1`, which is what peers need to
    // apply at `start_cycle`.
    if start_cycle > 0 && has_exports {
        sink.send(&boundary(start_cycle - 1, pe.extract_exports(&dev, len)));
        xs.exchange_start = Some(Instant::now());
    }
    let mut col = Vec::new();
    // Wall time of the pre/mid/post phases: what `hidden_ns` is judged
    // against, independent of how long the poke or the relay takes.
    let mut compute_ns = 0u64;
    let mut phase = |ph: &[usize], dev: &mut DeviceMemory, scratch: &mut Scratch| {
        let t = Instant::now();
        pe.run_phase(ph, dev, scratch, 0, len, exec);
        compute_ns += t.elapsed().as_nanos() as u64;
    };
    for c in start_cycle..cycles {
        let vars = pe.sub.parent_inputs.iter().copied();
        let plan = &pe.program.plan;
        plan.poke_block(&mut dev, vars, &p.frames, cycles, c, &mut col);
        phase(&pe.pre, &mut dev, &mut scratch);
        if c > 0 && !pe.imports.is_empty() {
            if let Err(end) = wait_and_apply(&ctx, &mut dev, c - 1, &mut xs) {
                return end;
            }
        }
        phase(&pe.mid, &mut dev, &mut scratch);
        if has_exports {
            sink.send(&boundary(c, pe.extract_exports(&dev, len)));
            xs.exchange_start = Some(Instant::now());
        }
        phase(&pe.post, &mut dev, &mut scratch);
        let completed = c + 1;
        if cfg.checkpoint_interval > 0
            && completed.is_multiple_of(cfg.checkpoint_interval)
            && completed < cycles
        {
            let image = Checkpoint::capture(&dev, pe.design_hash, completed, p.tid0).encode();
            sink.send(&Frame::PartCheckpoint(PartCheckpointUpdate {
                batch: p.batch,
                group: p.group,
                part: p.part,
                epoch: p.epoch,
                tid0: p.tid0,
                cycle: completed,
                image,
            }));
        }
        if die_at_cycle.is_some_and(|k| completed >= k) {
            return PartEnd::Fault;
        }
    }
    // Final settle: apply the peers' last exports and re-run pass 1 so
    // comb-driven outputs reflect final remote state (mid-run, pass-2's
    // one-cycle-stale view self-corrects; at the end nothing would).
    if cycles > 0 && !pe.imports.is_empty() {
        if let Err(end) = wait_and_apply(&ctx, &mut dev, cycles - 1, &mut xs) {
            return end;
        }
        pe.run_phase(&pe.refresh, &mut dev, &mut scratch, 0, len, exec);
    }
    let mut outputs = vec![0u64; pe.sub.outputs.len() * len];
    for (o, &lv) in pe.sub.outputs.iter().enumerate() {
        for s in 0..len {
            outputs[o * len + s] = pe.program.plan.peek(&dev, lv, s);
        }
    }
    PartEnd::Done(Box::new(PartResult {
        batch: p.batch,
        group: p.group,
        part: p.part,
        epoch: p.epoch,
        tid0: p.tid0,
        outputs,
        hidden_ns: xs.hidden_ns,
        stall_ns: xs.stall_ns,
        compute_ns,
    }))
}

/// Block until every import peer's boundary frame for `cycle` is here,
/// then apply them all. Frames for other cycles buffer; control frames
/// (abort, re-dispatch, shutdown) end the part via `Err`.
fn wait_and_apply(
    ctx: &PartCtx<'_>,
    dev: &mut DeviceMemory,
    cycle: u64,
    xs: &mut ExchangeState,
) -> Result<(), PartEnd> {
    let p = ctx.p;
    let wait_start = Instant::now();
    if let Some(t0) = xs.exchange_start.take() {
        // Time between sending our own export and needing the peers' —
        // exchange latency hidden behind post/poke/pre compute.
        xs.hidden_ns += wait_start.duration_since(t0).as_nanos() as u64;
    }
    for link in &ctx.pe.imports {
        let key = (link.from as u32, cycle);
        while !xs.buffered.contains_key(&key) {
            match read_frame(&mut &*ctx.stream) {
                Ok((Frame::Boundary(b), _)) => {
                    if b.batch == p.batch && b.group == p.group && b.epoch == p.epoch {
                        xs.buffered.insert((b.part, b.cycle), b.payload);
                    }
                }
                Ok((
                    Frame::PartAbort {
                        batch,
                        group,
                        epoch,
                    },
                    _,
                )) => {
                    // Always echo the ack; only abort when it names an
                    // epoch at least as new as the one running.
                    ctx.sink.send(&Frame::PartAbort {
                        batch,
                        group,
                        epoch,
                    });
                    if batch == p.batch && group == p.group && epoch >= p.epoch {
                        return Err(PartEnd::Aborted);
                    }
                }
                Ok((Frame::RunPart(next), _)) => return Err(PartEnd::Preempted(Box::new(next))),
                Ok((Frame::Heartbeat { seq }, _)) => ctx.sink.send(&Frame::HeartbeatAck { seq }),
                Ok((Frame::Goodbye, _)) => return Err(PartEnd::Goodbye),
                Ok(_) => {}
                Err(_) => return Err(PartEnd::Lost),
            }
        }
        let payload = &xs.buffered[&key];
        if let Err(e) = ctx.pe.apply_import(link, payload, dev, ctx.len) {
            return Err(PartEnd::Failed(format!(
                "part {}: boundary from part {}: {e}",
                p.part, link.from
            )));
        }
    }
    // Applied frames can never be needed again; drop them (and anything
    // older) to bound memory when peers run ahead.
    xs.buffered.retain(|&(_, cyc), _| cyc > cycle);
    xs.stall_ns += wait_start.elapsed().as_nanos() as u64;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A connected loopback pair: (the worker's end, the controller's end).
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let near = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (far, _) = listener.accept().unwrap();
        (near, far)
    }

    #[test]
    fn ticker_is_released_the_moment_compute_returns() {
        // The ticker is ten minutes from its first heartbeat when the
        // compute returns; the join must not wait any of that out.
        let (stream, _far) = socket_pair();
        let interval = Duration::from_secs(600);
        let t0 = Instant::now();
        assert_eq!(run_with_heartbeats(&stream, interval, |_| 7), 7);
        assert!(t0.elapsed() < interval);
    }

    #[test]
    fn heartbeats_flow_while_compute_runs_and_stop_with_it() {
        let (stream, mut far) = socket_pair();
        // The compute "runs" for exactly as long as it takes the far end
        // to read three heartbeats, so the interleaving is forced.
        run_with_heartbeats(&stream, Duration::from_millis(2), |_| {
            for seq in 1..=3 {
                assert_eq!(read_frame(&mut far).unwrap().0, Frame::Heartbeat { seq });
            }
        });
        // Joined before returning: whatever else the ticker wrote is
        // already in the socket, and the next frame is the caller's.
        write_frame(&mut &stream, &Frame::Goodbye).unwrap();
        loop {
            match read_frame(&mut far).unwrap().0 {
                Frame::Heartbeat { .. } => {}
                other => break assert_eq!(other, Frame::Goodbye),
            }
        }
    }

    /// Read frames until one `want` accepts, failing on EOF (a panicked
    /// worker drops its socket) or on an `Error` reply.
    fn read_until(far: &mut TcpStream, want: impl Fn(&Frame) -> bool) -> Frame {
        loop {
            let frame = read_frame(far).expect("worker still connected").0;
            assert!(!matches!(frame, Frame::Error { .. }), "{frame:?}");
            if want(&frame) {
                return frame;
            }
        }
    }

    #[test]
    fn empty_group_and_empty_part_dispatches_do_not_panic_the_worker() {
        // Play the controller by hand: a zero-length dispatch passes the
        // frame-count check (0 == 0 words) with two or more ports and
        // several cycles, so the column gather must cope with no lanes.
        let b = designs::Benchmark::Handshake;
        let design = netlist::load_design(&b.source(), b.top()).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let worker = spawn_worker(
            listener.local_addr().unwrap(),
            WorkerConfig {
                reconnect: false,
                ..WorkerConfig::default()
            },
        );
        let (mut far, _) = listener.accept().unwrap();
        assert!(matches!(
            read_frame(&mut far).unwrap().0,
            Frame::Hello { .. }
        ));
        write_frame(&mut far, &Frame::Welcome { worker_id: 1 }).unwrap();
        let desc = BatchDescriptor {
            batch: 1,
            design_key: rtlir::design_hash(&design),
            top: b.top().to_string(),
            verilog: b.source(),
            cycles: 3,
            lanes: PortMap::from_design(&design).len() as u32,
            n: 0,
        };
        assert!(desc.lanes >= 2);
        write_frame(&mut far, &Frame::BatchStart(desc)).unwrap();

        let group = crate::wire::GroupDispatch {
            batch: 1,
            group: 0,
            tid0: 0,
            len: 0,
            frames: Vec::new(),
            resume_cycle: 0,
            resume_image: Vec::new(),
        };
        write_frame(&mut far, &Frame::RunGroup(group)).unwrap();
        let chunk = read_until(&mut far, |f| matches!(f, Frame::Chunk(_)));
        assert!(matches!(chunk, Frame::Chunk(c) if c.digests.is_empty()));

        let part = PartDispatch {
            batch: 1,
            group: 1,
            part: 0,
            k: 2,
            epoch: 0,
            tid0: 0,
            len: 0,
            start_cycle: 0,
            resume_image: Vec::new(),
            frames: Vec::new(),
        };
        write_frame(&mut far, &Frame::RunPart(part)).unwrap();
        // Nobody plays part 1, so part 0 may wait on its boundary: abort
        // the epoch, and the echo proves the worker got that far.
        let abort = Frame::PartAbort {
            batch: 1,
            group: 1,
            epoch: 0,
        };
        write_frame(&mut far, &abort).unwrap();
        read_until(&mut far, |f| *f == abort);

        write_frame(&mut far, &Frame::Goodbye).unwrap();
        worker.join().unwrap().unwrap();
    }

    #[test]
    fn group_fault_fires_once_for_whoever_picks_the_group_up() {
        let fault = GroupFault::new(5, FaultMode::Disconnect, None);
        let shared = fault.clone();
        assert!(!fault.claim(4), "another group never fires it");
        assert!(shared.claim(5), "first pickup of the group");
        assert!(!fault.claim(5), "consumed for every holder");
    }

    #[test]
    fn raised_stop_flag_ends_a_worker_in_reconnect_backoff() {
        // Nothing listens on the port, and every retry is ten minutes
        // away: only the flag can end this worker in test time.
        let port = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let stop = StopFlag::default();
        let worker = spawn_worker(
            port,
            WorkerConfig {
                backoff_start: Duration::from_secs(600),
                backoff_max: Duration::from_secs(600),
                stop: stop.clone(),
                ..WorkerConfig::default()
            },
        );
        stop.raise();
        worker.join().unwrap().unwrap();
    }
}
