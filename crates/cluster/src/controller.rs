//! The cluster controller: worker registry, capacity-weighted batch
//! scheduling, heartbeat failure detection, and requeue onto survivors.
//!
//! # Scheduling model
//!
//! A batch is cut into contiguous stimulus groups (the same granularity
//! `shard` uses) and the groups are split contiguously across the
//! registered workers, weighted by each worker's advertised capacity
//! (largest-remainder rounding). Each worker connection gets its own
//! I/O thread; a worker that drains its queue steals the back half of
//! the largest live queue, so capacity weights only have to be roughly
//! right.
//!
//! # Failure model (mirrors `shard::fault`)
//!
//! Group inputs are materialized controller-side as a pure function of
//! `(stimulus id, cycle)` and shipped with every dispatch, and digests
//! are committed only when a group's result chunk arrives — so
//! re-executing a group after a worker death (or after a false-positive
//! heartbeat timeout) is idempotent. A dead worker's in-flight group and
//! backlog are requeued round-robin onto survivors; if *no* survivor
//! remains, the controller waits up to `rejoin_grace` for a replacement
//! registration (workers reconnect with exponential backoff) and adopts
//! it mid-batch. Results are therefore bit-identical regardless of
//! worker count, capacities, or mid-run deaths — the cluster analogue of
//! `tests/shard_determinism.rs`.

mod modelpar;

use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use stimulus::StimulusSource;

use crate::error::ClusterError;
use crate::metrics::{ClusterMetrics, WorkerReport};
use crate::stop::StopFlag;
use crate::wire::{
    read_frame, write_frame, BatchDescriptor, Frame, FrameWriter, GroupDispatch, GroupDispatchRef,
    WireError, VERSION,
};

/// Controller-side scheduling configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Stimulus per dispatched group — the requeue/steal granularity.
    pub group_size: usize,
    /// A worker that stays silent this long with a group in flight is
    /// declared dead and its work requeued.
    pub heartbeat_timeout: Duration,
    /// How long a batch with zero live workers waits for a replacement
    /// registration before failing.
    pub rejoin_grace: Duration,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            group_size: 1024,
            heartbeat_timeout: Duration::from_secs(2),
            rejoin_grace: Duration::from_secs(2),
        }
    }
}

/// A batch of coalesced jobs run remotely: the flat digests plus each
/// job's slice (the cluster analogue of `shard::ShardJobResult`).
#[derive(Debug)]
pub struct ClusterJobResult {
    pub digests: Vec<u64>,
    /// `ranges[j]` is job j's slice of `digests`.
    pub ranges: Vec<std::ops::Range<usize>>,
}

/// A registered, currently idle worker connection.
struct WorkerConn {
    id: u32,
    capacity: u32,
    stream: TcpStream,
}

/// A design the controller can ship to workers.
struct DesignEntry {
    verilog: String,
    top: String,
    lanes: u32,
}

/// Per-worker accounting, accumulated across batches (and deaths: a
/// worker that reconnects gets a fresh id and a fresh row).
#[derive(Default)]
struct WorkerAcc {
    capacity: u32,
    alive: bool,
    groups: u64,
    chunks: u64,
    busy: Duration,
    bytes_tx: u64,
    bytes_rx: u64,
}

#[derive(Default)]
struct MetricsAcc {
    workers: BTreeMap<u32, WorkerAcc>,
    batches: u64,
    dispatches: u64,
    chunks_committed: u64,
    requeues: u64,
    worker_deaths: u64,
    heartbeat_timeouts: u64,
    reconnects: u64,
    registrations: u64,
    rejected_hellos: u64,
    checkpoints_received: u64,
    checkpoint_bytes: u64,
    groups_resumed: u64,
    resume_cycles_skipped: u64,
    max_resume_cycle: u64,
    modelpar_groups: u64,
    modelpar_rollbacks: u64,
    boundary_bytes: u64,
    boundary_frames: u64,
    overlap_hidden_ns: u64,
    exchange_stall_ns: u64,
    busy: Duration,
}

impl MetricsAcc {
    fn worker(&mut self, id: u32, capacity: u32) -> &mut WorkerAcc {
        let acc = self.workers.entry(id).or_default();
        if acc.capacity == 0 {
            acc.capacity = capacity;
            acc.alive = true;
        }
        acc
    }
}

/// State shared between the accept thread, batch runs, and the public
/// handle.
struct Shared {
    cfg: ClusterConfig,
    stop: StopFlag,
    registry: Mutex<Vec<WorkerConn>>,
    registry_cv: Condvar,
    metrics: Mutex<MetricsAcc>,
    designs: Mutex<BTreeMap<u64, DesignEntry>>,
    next_worker: AtomicU32,
    next_batch: AtomicU64,
}

/// The cluster controller. Bind it, point workers at [`Controller::addr`],
/// register designs, then run batches.
pub struct Controller {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Mutex<Option<JoinHandle<()>>>,
}

impl Controller {
    /// Bind a listener (use `"127.0.0.1:0"` for loopback clusters) and
    /// start accepting worker registrations.
    pub fn bind(addr: &str, cfg: ClusterConfig) -> Result<Controller, ClusterError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            cfg,
            stop: StopFlag::default(),
            registry: Mutex::new(Vec::new()),
            registry_cv: Condvar::new(),
            metrics: Mutex::new(MetricsAcc::default()),
            designs: Mutex::new(BTreeMap::new()),
            next_worker: AtomicU32::new(1),
            next_batch: AtomicU64::new(1),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || accept_loop(listener, accept_shared));
        Ok(Controller {
            shared,
            addr,
            accept: Mutex::new(Some(accept)),
        })
    }

    /// The bound address workers should dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until at least `n` workers are registered and idle, up to
    /// `timeout`.
    pub fn wait_for_workers(&self, n: usize, timeout: Duration) -> Result<(), ClusterError> {
        let deadline = Instant::now() + timeout;
        let mut reg = lock(&self.shared.registry);
        while reg.len() < n {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(ClusterError::NoWorkers(format!(
                    "{} of {n} workers registered within {timeout:?}",
                    reg.len()
                )));
            }
            reg = self
                .shared
                .registry_cv
                .wait_timeout(reg, left)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        Ok(())
    }

    /// Number of currently idle registered workers.
    pub fn num_workers(&self) -> usize {
        lock(&self.shared.registry).len()
    }

    /// Register a design by source (Verilog subset or Yosys JSON netlist;
    /// the frontend is auto-detected); returns its key
    /// ([`rtlir::design_hash`]), which batches reference.
    pub fn register_design(&self, verilog: &str, top: &str) -> Result<u64, ClusterError> {
        let design = netlist::load_design(verilog, top)
            .map_err(|e| ClusterError::Design(format!("elaborate '{top}': {e}")))?;
        let key = rtlir::design_hash(&design);
        let lanes = stimulus::PortMap::from_design(&design).len() as u32;
        lock(&self.shared.designs).insert(
            key,
            DesignEntry {
                verilog: verilog.to_string(),
                top: top.to_string(),
                lanes,
            },
        );
        Ok(key)
    }

    /// Whether `key` was registered (serve's overflow router checks this
    /// before sending a batch remote).
    pub fn has_design(&self, key: u64) -> bool {
        lock(&self.shared.designs).contains_key(&key)
    }

    /// Probe every idle worker; drops the ones that fail to ack.
    /// Returns the number of live workers registered afterwards.
    pub fn ping_all(&self) -> usize {
        // Probe with the registry lock released: each dead worker costs
        // a full heartbeat_timeout, and holding the lock that long would
        // stall registrations (`handle_hello`) and batch starts.
        let conns = std::mem::take(&mut *lock(&self.shared.registry));
        let mut kept = Vec::new();
        for mut w in conns {
            let ok = w
                .stream
                .set_read_timeout(Some(self.shared.cfg.heartbeat_timeout))
                .is_ok()
                && write_frame(&mut w.stream, &Frame::Heartbeat { seq: 0 }).is_ok()
                && matches!(
                    read_frame(&mut w.stream),
                    Ok((Frame::HeartbeatAck { .. }, _))
                );
            if ok {
                kept.push(w);
            } else {
                let mut m = lock(&self.shared.metrics);
                m.worker_deaths += 1;
                m.worker(w.id, w.capacity).alive = false;
            }
        }
        let mut reg = lock(&self.shared.registry);
        reg.extend(kept);
        let n = reg.len();
        drop(reg);
        self.shared.registry_cv.notify_all();
        n
    }

    /// Run one batch of `cycles` over `source` on the cluster; returns
    /// one output digest per stimulus, bit-identical to a local run.
    pub fn run_batch(
        &self,
        design_key: u64,
        source: &dyn StimulusSource,
        cycles: u64,
    ) -> Result<Vec<u64>, ClusterError> {
        let t0 = Instant::now();
        let (desc, groups) = self.materialize(design_key, source, cycles)?;
        let result = self.run_materialized(&desc, &groups);
        let mut m = lock(&self.shared.metrics);
        m.busy += t0.elapsed();
        if result.is_ok() {
            m.batches += 1;
        }
        result
    }

    /// Run a set of coalesced jobs as one batch (serve's remote path);
    /// returns the flat digests plus each job's range.
    pub fn run_jobs(
        &self,
        design_key: u64,
        jobs: Vec<Box<dyn StimulusSource>>,
        cycles: u64,
    ) -> Result<ClusterJobResult, ClusterError> {
        let stacked = stimulus::StackedSource::new(jobs);
        let ranges: Vec<_> = (0..stacked.num_segments())
            .map(|j| stacked.segment_range(j))
            .collect();
        let digests = self.run_batch(design_key, &stacked, cycles)?;
        Ok(ClusterJobResult { digests, ranges })
    }

    /// Snapshot the accumulated cluster metrics.
    pub fn metrics(&self) -> ClusterMetrics {
        let m = lock(&self.shared.metrics);
        let total = m.busy.as_secs_f64();
        ClusterMetrics {
            workers: m
                .workers
                .iter()
                .map(|(&id, a)| WorkerReport {
                    worker: id,
                    capacity: a.capacity,
                    alive: a.alive,
                    groups: a.groups,
                    chunks: a.chunks,
                    busy: a.busy,
                    utilization: if total > 0.0 {
                        a.busy.as_secs_f64() / total
                    } else {
                        0.0
                    },
                    bytes_tx: a.bytes_tx,
                    bytes_rx: a.bytes_rx,
                })
                .collect(),
            batches: m.batches,
            dispatches: m.dispatches,
            chunks_committed: m.chunks_committed,
            requeues: m.requeues,
            worker_deaths: m.worker_deaths,
            heartbeat_timeouts: m.heartbeat_timeouts,
            reconnects: m.reconnects,
            registrations: m.registrations,
            rejected_hellos: m.rejected_hellos,
            checkpoints_received: m.checkpoints_received,
            checkpoint_bytes: m.checkpoint_bytes,
            groups_resumed: m.groups_resumed,
            resume_cycles_skipped: m.resume_cycles_skipped,
            max_resume_cycle: m.max_resume_cycle,
            modelpar_groups: m.modelpar_groups,
            modelpar_rollbacks: m.modelpar_rollbacks,
            boundary_bytes: m.boundary_bytes,
            boundary_frames: m.boundary_frames,
            overlap_hidden_ns: m.overlap_hidden_ns,
            exchange_stall_ns: m.exchange_stall_ns,
            busy: m.busy,
        }
    }

    /// Orderly shutdown: say `Goodbye` to every idle worker (they exit
    /// instead of reconnecting) and stop accepting registrations.
    pub fn shutdown(&self) {
        self.shared.stop.raise();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = lock(&self.accept).take() {
            let _ = h.join();
        }
        let mut reg = lock(&self.shared.registry);
        for mut w in reg.drain(..) {
            let _ = write_frame(&mut w.stream, &Frame::Goodbye);
        }
    }

    /// Cut the batch into groups and materialize every group's input
    /// frames (a pure function of `(stimulus id, cycle)` — the property
    /// that makes re-dispatch after a fault bit-identical).
    fn materialize(
        &self,
        design_key: u64,
        source: &dyn StimulusSource,
        cycles: u64,
    ) -> Result<(BatchDescriptor, Vec<GroupDispatch>), ClusterError> {
        let designs = lock(&self.shared.designs);
        let entry = designs
            .get(&design_key)
            .ok_or(ClusterError::UnknownDesign(design_key))?;
        let n = source.num_stimulus();
        let lanes = entry.lanes as usize;
        if source.num_ports() != lanes {
            return Err(ClusterError::Protocol(format!(
                "stimulus source has {} lanes, design {design_key:#018x} has {lanes}",
                source.num_ports()
            )));
        }
        let desc = BatchDescriptor {
            batch: self.shared.next_batch.fetch_add(1, Ordering::SeqCst),
            design_key,
            top: entry.top.clone(),
            verilog: entry.verilog.clone(),
            cycles,
            lanes: entry.lanes,
            n: n as u64,
        };
        drop(designs);

        // Split so every GroupDispatch fits the wire's payload cap, which
        // bounds a frame *unpacked*: group frames cost the worker
        // `len * cycles * lanes * 8` bytes plus a few fixed fields however
        // narrow they travel, and a frame over MAX_PAYLOAD would be
        // refused at encode time. Smaller groups never change the digests
        // — each stimulus is independent — only the scheduling
        // granularity.
        const DISPATCH_FIXED_BYTES: u128 = 64;
        let bytes_per_stim = (cycles as u128) * (lanes as u128) * 8;
        let budget = u128::from(crate::wire::MAX_PAYLOAD) - DISPATCH_FIXED_BYTES;
        if n > 0 && bytes_per_stim > budget {
            return Err(ClusterError::Protocol(format!(
                "one stimulus needs {bytes_per_stim} frame bytes ({cycles} cycles × {} lanes), \
                 exceeding the {}-byte frame payload cap",
                desc.lanes,
                crate::wire::MAX_PAYLOAD
            )));
        }
        let wire_cap = (budget / bytes_per_stim.max(1)).min(usize::MAX as u128) as usize;
        let group_size = self
            .shared
            .cfg
            .group_size
            .max(1)
            .min(n.max(1))
            .min(wire_cap.max(1));
        let num_groups = n.div_ceil(group_size);
        let mut groups = Vec::with_capacity(num_groups);
        for g in 0..num_groups {
            let tid0 = g * group_size;
            let len = group_size.min(n - tid0);
            // Each frame is filled where it will be sent from.
            let mut frames = vec![0u64; len * cycles as usize * lanes];
            if lanes > 0 {
                for (k, frame) in frames.chunks_exact_mut(lanes).enumerate() {
                    let (s, c) = (k / cycles as usize, k as u64 % cycles);
                    source.fill_frame(tid0 + s, c, frame);
                }
            }
            groups.push(GroupDispatch {
                batch: desc.batch,
                group: g as u32,
                tid0: tid0 as u64,
                len: len as u32,
                frames,
                resume_cycle: 0,
                resume_image: Vec::new(),
            });
        }
        Ok((desc, groups))
    }

    /// Schedule the materialized groups across the registered workers.
    fn run_materialized(
        &self,
        desc: &BatchDescriptor,
        groups: &[GroupDispatch],
    ) -> Result<Vec<u64>, ClusterError> {
        let n = desc.n as usize;
        if groups.is_empty() {
            return Ok(Vec::new());
        }
        let mut conns = self.take_workers(self.shared.cfg.rejoin_grace)?;
        let caps: Vec<u32> = conns.iter().map(|w| w.capacity.max(1)).collect();
        let counts = weighted_counts(groups.len(), &caps);

        // Per-worker-slot queues of group indices, capacity-weighted and
        // contiguous, so a uniform cluster reproduces shard's placement.
        let mut queues: Vec<VecDeque<usize>> = Vec::with_capacity(conns.len());
        let mut next = 0usize;
        for &c in &counts {
            queues.push((next..next + c).collect());
            next += c;
        }

        let state = Mutex::new(BatchState {
            queues,
            alive: vec![true; conns.len()],
            inflight: vec![None; conns.len()],
            committed: vec![false; groups.len()],
            orphans: Vec::new(),
            remaining: groups.len(),
            digests: vec![0u64; n],
            checkpoints: vec![None; groups.len()],
        });
        let cv = Condvar::new();

        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for (slot, conn) in conns.drain(..).enumerate() {
                let (state, cv) = (&state, &cv);
                handles
                    .push(s.spawn(move || self.batch_worker(slot, conn, desc, groups, state, cv)));
            }

            // Monitor: watch for completion, and adopt a replacement
            // worker mid-batch when every current worker has died.
            loop {
                let mut st = lock(&state);
                if st.remaining == 0 {
                    break;
                }
                if st.alive.iter().any(|&a| a) {
                    st = cv
                        .wait_timeout(st, Duration::from_millis(25))
                        .unwrap_or_else(|e| e.into_inner())
                        .0;
                    drop(st);
                    continue;
                }
                // All dead: the orphan queue holds every uncommitted
                // group. Wait for a reconnecting/replacement worker.
                drop(st);
                match self.take_one_worker(self.shared.cfg.rejoin_grace) {
                    Some(conn) => {
                        let mut st = lock(&state);
                        let orphans: VecDeque<usize> = st.orphans.drain(..).collect();
                        let slot = st.queues.len();
                        st.queues.push(orphans);
                        st.alive.push(true);
                        st.inflight.push(None);
                        drop(st);
                        cv.notify_all();
                        let (state, cv) = (&state, &cv);
                        handles.push(
                            s.spawn(move || self.batch_worker(slot, conn, desc, groups, state, cv)),
                        );
                    }
                    None => break,
                }
            }

            // Threads exit on their own once remaining == 0 or their
            // worker died; survivors hand their connection back.
            let mut reg = lock(&self.shared.registry);
            for h in handles {
                if let Ok(Some(conn)) = h.join() {
                    reg.push(conn);
                }
            }
            drop(reg);
            self.shared.registry_cv.notify_all();
        });

        let st = state.into_inner().unwrap_or_else(|e| e.into_inner());
        if st.remaining != 0 {
            return Err(ClusterError::NoWorkers(format!(
                "batch {}: every worker died with {} groups left and no replacement arrived \
                 within {:?}",
                desc.batch, st.remaining, self.shared.cfg.rejoin_grace
            )));
        }
        Ok(st.digests)
    }

    /// Take every idle worker (waiting up to `grace` for the first one).
    fn take_workers(&self, grace: Duration) -> Result<Vec<WorkerConn>, ClusterError> {
        let deadline = Instant::now() + grace;
        let mut reg = lock(&self.shared.registry);
        while reg.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(ClusterError::NoWorkers(
                    "no workers registered; start workers pointing at the controller address"
                        .into(),
                ));
            }
            reg = self
                .shared
                .registry_cv
                .wait_timeout(reg, left)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        Ok(std::mem::take(&mut *reg))
    }

    /// Take one idle worker, waiting up to `grace` for a registration.
    fn take_one_worker(&self, grace: Duration) -> Option<WorkerConn> {
        let deadline = Instant::now() + grace;
        let mut reg = lock(&self.shared.registry);
        loop {
            if let Some(w) = reg.pop() {
                return Some(w);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            reg = self
                .shared
                .registry_cv
                .wait_timeout(reg, left)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    /// One worker connection's I/O loop for one batch. Returns the
    /// connection if the worker survived (it goes back to the registry).
    fn batch_worker(
        &self,
        slot: usize,
        mut conn: WorkerConn,
        desc: &BatchDescriptor,
        groups: &[GroupDispatch],
        state: &Mutex<BatchState>,
        cv: &Condvar,
    ) -> Option<WorkerConn> {
        let hb = self.shared.cfg.heartbeat_timeout;
        if conn.stream.set_read_timeout(Some(hb)).is_err() {
            self.die(slot, &mut conn, state, cv, false);
            return None;
        }
        // One encode buffer for every frame this connection is sent.
        let mut writer = FrameWriter::default();
        match writer.write(&mut conn.stream, &Frame::BatchStart(desc.clone())) {
            Ok(bytes) => self.count_tx(&conn, bytes),
            Err(_) => {
                self.die(slot, &mut conn, state, cv, false);
                return None;
            }
        }

        loop {
            // Claim work: own queue first, then steal the back half of
            // the largest live queue (shard's elastic policy). The claim
            // also carries the group's latest checkpoint, if a previous
            // (now dead) worker shipped one.
            let (g, resume) = {
                let mut st = lock(state);
                loop {
                    if st.remaining == 0 {
                        return Some(conn);
                    }
                    if let Some(g) = st.queues[slot].pop_front() {
                        st.inflight[slot] = Some(g);
                        let resume = st.checkpoints[g].clone();
                        break (g, resume);
                    }
                    let victim = (0..st.queues.len())
                        .filter(|&v| v != slot && st.alive[v] && !st.queues[v].is_empty())
                        .max_by_key(|&v| st.queues[v].len());
                    if let Some(v) = victim {
                        let keep = st.queues[v].len() / 2;
                        let stolen = st.queues[v].split_off(keep);
                        st.queues[slot] = stolen;
                        continue;
                    }
                    st = cv
                        .wait_timeout(st, Duration::from_millis(25))
                        .unwrap_or_else(|e| e.into_inner())
                        .0;
                }
            };

            let started = Instant::now();
            // The group's frames and the resume image are encoded from
            // where they live; neither is cloned into a dispatch.
            let mut dispatch = groups[g].as_ref();
            if let Some((cycle, image)) = &resume {
                // Attach the resume image only when the combined frame,
                // unpacked, still fits the wire cap; otherwise fall back
                // to a cold start (resume is an optimization, never
                // required).
                let budget = crate::wire::MAX_PAYLOAD as usize;
                if dispatch.frames.len() * 8 + image.len() + 128 <= budget {
                    dispatch = GroupDispatchRef {
                        resume_cycle: *cycle,
                        resume_image: image,
                        ..dispatch
                    };
                    let mut m = lock(&self.shared.metrics);
                    m.groups_resumed += 1;
                    m.resume_cycles_skipped += cycle;
                    m.max_resume_cycle = m.max_resume_cycle.max(*cycle);
                }
            }
            match writer.write(&mut conn.stream, &dispatch) {
                Ok(bytes) => {
                    self.count_tx(&conn, bytes);
                    lock(&self.shared.metrics).dispatches += 1;
                }
                Err(_) => {
                    self.die(slot, &mut conn, state, cv, false);
                    return None;
                }
            }

            // Await the chunk; heartbeats extend the deadline because
            // every successful read restarts the socket timeout.
            loop {
                match read_frame(&mut conn.stream) {
                    Ok((Frame::Heartbeat { .. } | Frame::HeartbeatAck { .. }, bytes)) => {
                        self.count_rx(&conn, bytes);
                    }
                    Ok((Frame::Chunk(c), bytes)) => {
                        self.count_rx(&conn, bytes);
                        let item = &groups[g];
                        if c.batch != desc.batch
                            || c.group != item.group
                            || c.tid0 != item.tid0
                            || c.digests.len() != item.len as usize
                        {
                            self.die(slot, &mut conn, state, cv, false);
                            return None;
                        }
                        let mut st = lock(state);
                        st.inflight[slot] = None;
                        // First commit wins; a re-run after a
                        // false-positive timeout is bit-identical anyway.
                        if !st.committed[g] {
                            st.committed[g] = true;
                            st.remaining -= 1;
                            // The group's checkpoint can never be needed
                            // again: drop the image to bound memory.
                            st.checkpoints[g] = None;
                            let at = item.tid0 as usize;
                            st.digests[at..at + c.digests.len()].copy_from_slice(&c.digests);
                            let mut m = lock(&self.shared.metrics);
                            m.chunks_committed += 1;
                            let acc = m.worker(conn.id, conn.capacity);
                            acc.groups += 1;
                            acc.chunks += 1;
                            acc.busy += started.elapsed();
                        }
                        drop(st);
                        cv.notify_all();
                        break;
                    }
                    Ok((Frame::Checkpoint(u), bytes)) => {
                        self.count_rx(&conn, bytes);
                        // A mid-group snapshot from the worker. Validate
                        // against the dispatched group before storing:
                        // a confused or malicious worker must not plant
                        // state under another group's identity.
                        let gi = u.group as usize;
                        if u.batch == desc.batch
                            && gi < groups.len()
                            && groups[gi].tid0 == u.tid0
                            && u.cycle > 0
                            && u.cycle < desc.cycles
                            && !u.image.is_empty()
                        {
                            let image_len = u.image.len() as u64;
                            let mut st = lock(state);
                            let better = !st.committed[gi]
                                && st.checkpoints[gi]
                                    .as_ref()
                                    .is_none_or(|(cy, _)| u.cycle > *cy);
                            if better {
                                st.checkpoints[gi] = Some((u.cycle, u.image));
                            }
                            drop(st);
                            let mut m = lock(&self.shared.metrics);
                            m.checkpoints_received += 1;
                            m.checkpoint_bytes += image_len;
                        }
                    }
                    Ok((Frame::Error { .. }, bytes)) => {
                        // The worker cannot run this batch (engine build
                        // failure, bad dispatch): requeue elsewhere.
                        self.count_rx(&conn, bytes);
                        self.die(slot, &mut conn, state, cv, false);
                        return None;
                    }
                    Ok((_, bytes)) => {
                        self.count_rx(&conn, bytes);
                    }
                    Err(e) => {
                        self.die(slot, &mut conn, state, cv, e.is_timeout());
                        return None;
                    }
                }
            }
        }
    }

    /// Declare a worker dead: requeue its in-flight group and backlog
    /// round-robin onto survivors (or the orphan queue when none
    /// remain), and record the death.
    fn die(
        &self,
        slot: usize,
        conn: &mut WorkerConn,
        state: &Mutex<BatchState>,
        cv: &Condvar,
        timed_out: bool,
    ) {
        let mut st = lock(state);
        st.alive[slot] = false;
        let mut orphans: Vec<usize> = st.inflight[slot].take().into_iter().collect();
        orphans.extend(st.queues[slot].drain(..));
        let survivors: Vec<usize> = (0..st.alive.len()).filter(|&v| st.alive[v]).collect();
        let requeued = orphans.len() as u64;
        if survivors.is_empty() {
            st.orphans.extend(orphans);
        } else {
            for (i, g) in orphans.into_iter().enumerate() {
                st.queues[survivors[i % survivors.len()]].push_back(g);
            }
        }
        drop(st);
        cv.notify_all();
        let mut m = lock(&self.shared.metrics);
        m.worker_deaths += 1;
        m.requeues += requeued;
        if timed_out {
            m.heartbeat_timeouts += 1;
        }
        m.worker(conn.id, conn.capacity).alive = false;
    }

    fn count_tx(&self, conn: &WorkerConn, bytes: usize) {
        lock(&self.shared.metrics)
            .worker(conn.id, conn.capacity)
            .bytes_tx += bytes as u64;
    }

    fn count_rx(&self, conn: &WorkerConn, bytes: usize) {
        lock(&self.shared.metrics)
            .worker(conn.id, conn.capacity)
            .bytes_rx += bytes as u64;
    }
}

impl Drop for Controller {
    fn drop(&mut self) {
        if !self.shared.stop.is_raised() {
            self.shutdown();
        }
    }
}

/// Mutable scheduling state of one in-flight batch.
struct BatchState {
    /// Per-worker-slot queues of group indices.
    queues: Vec<VecDeque<usize>>,
    alive: Vec<bool>,
    inflight: Vec<Option<usize>>,
    committed: Vec<bool>,
    /// Uncommitted groups stranded with zero survivors, awaiting an
    /// adopted replacement worker.
    orphans: Vec<usize>,
    remaining: usize,
    digests: Vec<u64>,
    /// Latest mid-group checkpoint per group `(cycle, image)`; survives
    /// the snapshotting worker's death so a requeued dispatch resumes
    /// from it instead of cycle 0. Cleared on commit to bound memory.
    checkpoints: Vec<Option<(u64, Vec<u8>)>>,
}

/// Accept registrations until shutdown.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let seed = listener
        .local_addr()
        .map(|a| u64::from(a.port()))
        .unwrap_or(0);
    let mut backoff =
        desim::Backoff::new(Duration::from_millis(5), Duration::from_millis(200), seed);
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.stop.is_raised() {
                    return;
                }
                backoff.reset();
                handle_hello(stream, &shared);
            }
            Err(_) => {
                // A persistent accept failure (fd exhaustion…) must
                // neither busy-spin nor outlive shutdown; the shared
                // jittered schedule ramps the retry pace down, and
                // shutdown cuts the wait short.
                if shared.stop.wait(backoff.next_delay()) {
                    return;
                }
            }
        }
    }
}

/// Process one dialing worker's `Hello`.
fn handle_hello(mut stream: TcpStream, shared: &Arc<Shared>) {
    stream.set_nodelay(true).ok();
    // A bounded handshake window so a stalled dialer can't wedge the
    // accept loop.
    if stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .is_err()
    {
        return;
    }
    match read_frame(&mut stream) {
        Ok((Frame::Hello { proto, capacity }, _)) if proto == VERSION => {
            let id = shared.next_worker.fetch_add(1, Ordering::SeqCst);
            if write_frame(&mut stream, &Frame::Welcome { worker_id: id }).is_err()
                || stream.set_read_timeout(None).is_err()
            {
                return;
            }
            let mut m = lock(&shared.metrics);
            m.registrations += 1;
            if m.worker_deaths > 0 {
                m.reconnects += 1;
            }
            m.worker(id, capacity.max(1));
            drop(m);
            lock(&shared.registry).push(WorkerConn {
                id,
                capacity: capacity.max(1),
                stream,
            });
            shared.registry_cv.notify_all();
        }
        Ok((Frame::Hello { proto, .. }, _)) => {
            lock(&shared.metrics).rejected_hellos += 1;
            let _ = write_frame(
                &mut stream,
                &Frame::Error {
                    context: format!("{}", WireError::BadVersion(proto)),
                },
            );
        }
        _ => {
            lock(&shared.metrics).rejected_hellos += 1;
        }
    }
}

/// Largest-remainder capacity-weighted split of `total` groups.
fn weighted_counts(total: usize, caps: &[u32]) -> Vec<usize> {
    let cap_sum: u64 = caps.iter().map(|&c| u64::from(c.max(1))).sum();
    let mut counts = Vec::with_capacity(caps.len());
    let mut rems: Vec<(u64, usize)> = Vec::with_capacity(caps.len());
    let mut assigned = 0usize;
    for (i, &c) in caps.iter().enumerate() {
        let num = total as u64 * u64::from(c.max(1));
        counts.push((num / cap_sum) as usize);
        rems.push((num % cap_sum, i));
        assigned += counts[i];
    }
    rems.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, i) in rems.iter().take(total - assigned) {
        counts[i] += 1;
    }
    counts
}

/// Lock a mutex, shrugging off poison: batch state stays consistent
/// because every mutation is completed under the lock.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::{spawn_worker, WorkerConfig};

    #[test]
    fn weighted_counts_cover_total_and_respect_capacity() {
        assert_eq!(weighted_counts(10, &[1, 1]), vec![5, 5]);
        assert_eq!(weighted_counts(10, &[3, 1]), vec![8, 2]);
        assert_eq!(weighted_counts(7, &[2, 1, 1]), vec![3, 2, 2]);
        assert_eq!(weighted_counts(1, &[1, 1, 1, 1]), vec![1, 0, 0, 0]);
        for (total, caps) in [(13, vec![5, 3, 1]), (100, vec![1, 2, 3, 4])] {
            let counts = weighted_counts(total, &caps);
            assert_eq!(counts.iter().sum::<usize>(), total);
        }
    }

    #[test]
    fn wait_for_workers_times_out_with_context() {
        let ctl = Controller::bind("127.0.0.1:0", ClusterConfig::default()).unwrap();
        let err = ctl
            .wait_for_workers(1, Duration::from_millis(30))
            .unwrap_err();
        assert!(matches!(err, ClusterError::NoWorkers(_)));
        assert!(err.to_string().contains("0 of 1"));
        ctl.shutdown();
    }

    #[test]
    fn register_rejects_bad_verilog_and_run_rejects_unknown_key() {
        let ctl = Controller::bind("127.0.0.1:0", ClusterConfig::default()).unwrap();
        assert!(matches!(
            ctl.register_design("module ???", "nope"),
            Err(ClusterError::Design(_))
        ));
        let v = "module top(input clk, input a, output q); assign q = a; endmodule";
        let design = rtlir::elaborate(v, "top").unwrap();
        let map = stimulus::PortMap::from_design(&design);
        let src = stimulus::RandomSource::new(&map, 4, 1);
        assert!(matches!(
            ctl.run_batch(42, &src, 1),
            Err(ClusterError::UnknownDesign(42))
        ));
        ctl.shutdown();
    }

    #[test]
    fn slow_group_outliving_heartbeat_timeout_is_not_declared_dead() {
        let v = "module top(input clk, input rst, input [7:0] a, output [7:0] q);
                 reg [7:0] acc;
                 always @(posedge clk) begin if (rst) acc <= 8'd0; else acc <= acc + a; end
                 assign q = acc; endmodule";
        // One giant group and a heartbeat deadline far shorter than its
        // compute: only the worker's compute-time heartbeat ticker keeps
        // the controller from a false-positive death (which would
        // requeue, time out again on every retry, and livelock).
        let ctl = Controller::bind(
            "127.0.0.1:0",
            ClusterConfig {
                group_size: 1 << 20,
                heartbeat_timeout: Duration::from_millis(150),
                rejoin_grace: Duration::from_millis(400),
            },
        )
        .unwrap();
        let key = ctl.register_design(v, "top").unwrap();
        let worker = spawn_worker(
            ctl.addr(),
            WorkerConfig {
                heartbeat_interval: Duration::from_millis(30),
                ..WorkerConfig::default()
            },
        );
        ctl.wait_for_workers(1, Duration::from_secs(5)).unwrap();

        let design = rtlir::elaborate(v, "top").unwrap();
        let map = stimulus::PortMap::from_design(&design);
        let src = stimulus::RandomSource::new(&map, 1000, 3);
        let digests = ctl.run_batch(key, &src, 500).unwrap();
        assert_eq!(digests.len(), 1000);
        let m = ctl.metrics();
        assert_eq!(
            m.worker_deaths, 0,
            "a long compute must stay alive via heartbeats (metrics: {m:?})"
        );
        assert_eq!(m.heartbeat_timeouts, 0);
        ctl.shutdown();
        worker.join().unwrap().unwrap();
    }

    #[test]
    fn loopback_model_parallel_matches_data_parallel() {
        let b = designs::Benchmark::Handshake;
        let ctl = Controller::bind(
            "127.0.0.1:0",
            ClusterConfig {
                group_size: 16,
                ..ClusterConfig::default()
            },
        )
        .unwrap();
        let key = ctl.register_design(&b.source(), b.top()).unwrap();
        let workers: Vec<_> = (0..2)
            .map(|_| spawn_worker(ctl.addr(), WorkerConfig::default()))
            .collect();
        ctl.wait_for_workers(2, Duration::from_secs(5)).unwrap();

        let design = b.elaborate().unwrap();
        let map = stimulus::PortMap::from_design(&design);
        let src = stimulus::RandomSource::new(&map, 24, 0xfeed);
        let dp = ctl.run_batch(key, &src, 12).unwrap();
        let mp = ctl.run_batch_modelpar(key, &src, 12, 2).unwrap();
        assert_eq!(
            dp, mp,
            "model-parallel must match the data-parallel digests"
        );

        let m = ctl.metrics();
        assert!(m.modelpar_groups >= 1, "metrics: {m:?}");
        assert!(
            m.boundary_frames > 0,
            "parts must have exchanged boundaries"
        );
        assert!(m.boundary_bytes > 0);
        assert_eq!(m.modelpar_rollbacks, 0);
        // Both workers go back to the registry after the group.
        assert_eq!(ctl.ping_all(), 2);
        ctl.shutdown();
        for w in workers {
            w.join().unwrap().unwrap();
        }
    }

    #[test]
    fn loopback_batch_runs_and_returns_idle_workers() {
        let v = "module top(input clk, input rst, input [7:0] a, output [7:0] q);
                 reg [7:0] acc;
                 always @(posedge clk) begin if (rst) acc <= 8'd0; else acc <= acc + a; end
                 assign q = acc; endmodule";
        let ctl = Controller::bind(
            "127.0.0.1:0",
            ClusterConfig {
                group_size: 8,
                ..ClusterConfig::default()
            },
        )
        .unwrap();
        let key = ctl.register_design(v, "top").unwrap();
        assert!(ctl.has_design(key));
        let workers: Vec<_> = (0..2)
            .map(|_| spawn_worker(ctl.addr(), WorkerConfig::default()))
            .collect();
        ctl.wait_for_workers(2, Duration::from_secs(5)).unwrap();

        let design = rtlir::elaborate(v, "top").unwrap();
        let map = stimulus::PortMap::from_design(&design);
        let src = stimulus::RandomSource::new(&map, 40, 0x5eed);
        let d1 = ctl.run_batch(key, &src, 6).unwrap();
        assert_eq!(d1.len(), 40);
        // Workers return to the registry and a second batch reuses the
        // warm engines.
        assert_eq!(ctl.ping_all(), 2);
        let d2 = ctl.run_batch(key, &src, 6).unwrap();
        assert_eq!(d1, d2, "same batch twice must be bit-identical");

        let m = ctl.metrics();
        assert_eq!(m.batches, 2);
        assert_eq!(m.registrations, 2);
        assert!(m.chunks_committed >= 10);
        ctl.shutdown();
        for w in workers {
            w.join().unwrap().unwrap();
        }
    }
}
