//! Model-parallel scheduling: one group, K workers, boundary relay.
//!
//! The controller cuts the design with `partition::PartitionSpec` (the
//! same pure function of `(design, k)` every worker re-derives, so no
//! plan has to travel on the wire), dispatches part `p` of each group to
//! worker `p`, and relays each part's per-cycle [`Frame::Boundary`]
//! export to the parts that import from it. Groups run sequentially —
//! the K workers co-simulate one group at a time.
//!
//! # Rollback protocol
//!
//! Any part death dooms the whole group epoch: survivors are aborted
//! (`PartAbort`, echoed back as an ack so stale boundary traffic can be
//! drained), the dead part's worker is replaced from the registry, the
//! epoch counter is bumped (workers discard frames from older epochs),
//! and all K parts are re-dispatched from the deepest checkpoint cycle
//! present in *every* part's checkpoint map — all parts must restart at
//! the same cycle or the boundary exchange desynchronizes. Because group
//! inputs are a pure function of `(stimulus id, cycle)` and parts are
//! deterministic, the rerun is bit-identical.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use partition::PartitionSpec;
use stimulus::StimulusSource;

use super::{lock, Controller, WorkerConn};
use crate::error::ClusterError;
use crate::wire::{
    read_frame, write_frame, BatchDescriptor, Frame, FrameWriter, GroupDispatch,
    PartCheckpointUpdate, PartDispatchRef, PartResult,
};

/// Hard cap on rollback epochs per group; hitting it means deaths are
/// arriving faster than the group can make checkpoint progress.
const MAX_EPOCHS: u32 = 64;

/// Controller-side view of the cut: just enough topology to validate
/// results, relay boundaries, and fold digests — the workers own the
/// compiled engines.
struct ModelPlan {
    k: usize,
    /// `design.outputs.len()` — the digest fold width.
    num_outputs: usize,
    /// `out_positions[p][o]` is where part p's o-th owned output lands
    /// in the parent output list (mirrors `PartEngine::out_positions`).
    out_positions: Vec<Vec<usize>>,
    /// For each part, the parts that import its boundary exports
    /// (mirrors `PartEngine::imports`, from the exporter's side).
    importers_of: Vec<Vec<usize>>,
}

impl ModelPlan {
    fn build(
        verilog: &str,
        top: &str,
        k: usize,
        design_key: u64,
    ) -> Result<ModelPlan, ClusterError> {
        let design = netlist::load_design(verilog, top)
            .map_err(|e| ClusterError::Design(format!("elaborate '{top}': {e}")))?;
        let graph = rtlir::RtlGraph::build(&design)
            .map_err(|e| ClusterError::Design(format!("design {design_key:#018x}: {e}")))?;
        let spec = PartitionSpec::compute(&design, &graph, k).map_err(ClusterError::Design)?;
        let out_positions = spec
            .parts
            .iter()
            .map(|p| {
                p.outputs
                    .iter()
                    .map(|o| {
                        design
                            .outputs
                            .iter()
                            .position(|d| d == o)
                            .expect("part owns an output the design lacks")
                    })
                    .collect()
            })
            .collect();
        let importers_of = (0..k)
            .map(|p| {
                let exports: BTreeSet<_> = spec.parts[p].boundary_out.iter().collect();
                (0..k)
                    .filter(|&q| {
                        q != p
                            && spec.parts[q]
                                .boundary_in
                                .iter()
                                .any(|v| exports.contains(v))
                    })
                    .collect()
            })
            .collect();
        Ok(ModelPlan {
            k,
            num_outputs: design.outputs.len(),
            out_positions,
            importers_of,
        })
    }
}

/// Context one group epoch shares between its K session threads.
struct GroupCtx<'a> {
    desc: &'a BatchDescriptor,
    plan: &'a ModelPlan,
    /// Group index within the batch.
    group: u32,
    /// The rollback epoch this set of sessions runs.
    epoch: u32,
    len: usize,
    tid0: u64,
    /// Serialized write handles, one per part connection: boundary
    /// fan-out from any session thread goes through these, so frames
    /// never interleave on a socket.
    writers: Vec<Mutex<TcpStream>>,
    /// Checkpoint images per part, keyed by cycle. Kept across epochs —
    /// a snapshot of deterministic state is valid regardless of which
    /// epoch captured it.
    ck: &'a Mutex<Vec<BTreeMap<u64, Vec<u8>>>>,
    /// Set by the first session that sees its part die; the survivors
    /// bail at their next frame instead of waiting out the group.
    failed: &'a AtomicBool,
}

/// How one part's session thread ended.
enum SessionEnd {
    /// The part finished this epoch and its result validated.
    Done(Box<PartResult>),
    /// The connection died (EOF, wire error, timeout, bad result shape).
    Died { timed_out: bool },
    /// Another part died first; this worker is presumed alive and gets
    /// an abort/drain instead of a replacement.
    Bailed,
}

impl Controller {
    /// Run one batch with the design cut into `k` model-parallel parts
    /// co-simulated across `k` workers. Digests are bit-identical to
    /// [`Controller::run_batch`] and to a local `Flow::simulate` run.
    pub fn run_batch_modelpar(
        &self,
        design_key: u64,
        source: &dyn StimulusSource,
        cycles: u64,
        k: usize,
    ) -> Result<Vec<u64>, ClusterError> {
        if k == 0 {
            return Err(ClusterError::Protocol(
                "model-parallel needs k >= 1 parts".into(),
            ));
        }
        let t0 = Instant::now();
        let (verilog, top) = {
            let designs = lock(&self.shared.designs);
            let entry = designs
                .get(&design_key)
                .ok_or(ClusterError::UnknownDesign(design_key))?;
            (entry.verilog.clone(), entry.top.clone())
        };
        let plan = ModelPlan::build(&verilog, &top, k, design_key)?;
        let (desc, groups) = self.materialize(design_key, source, cycles)?;
        if groups.is_empty() {
            let mut m = lock(&self.shared.metrics);
            m.busy += t0.elapsed();
            m.batches += 1;
            return Ok(Vec::new());
        }

        let mut conns = self.take_k_workers(k)?;
        let result = self.run_modelpar_groups(&desc, &groups, &plan, &mut conns);
        // Hand the surviving connections back to the registry.
        let mut reg = lock(&self.shared.registry);
        reg.extend(conns);
        drop(reg);
        self.shared.registry_cv.notify_all();

        let mut m = lock(&self.shared.metrics);
        m.busy += t0.elapsed();
        if result.is_ok() {
            m.batches += 1;
        }
        result
    }

    /// Take exactly `k` idle workers, waiting up to `rejoin_grace` for
    /// enough registrations; the rest stay in the registry (they serve
    /// as replacements after a part death).
    fn take_k_workers(&self, k: usize) -> Result<Vec<WorkerConn>, ClusterError> {
        let deadline = Instant::now() + self.shared.cfg.rejoin_grace;
        let mut reg = lock(&self.shared.registry);
        while reg.len() < k {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(ClusterError::NoWorkers(format!(
                    "model-parallel k={k} needs {k} idle workers, {} registered",
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
        let at = reg.len() - k;
        Ok(reg.drain(at..).collect())
    }

    /// Prepare a connection for model-parallel duty: arm the heartbeat
    /// read deadline and ship the batch descriptor once per worker.
    fn init_modelpar_conn(
        &self,
        conn: &mut WorkerConn,
        desc: &BatchDescriptor,
        started: &mut HashSet<u32>,
    ) -> Result<(), ClusterError> {
        conn.stream
            .set_read_timeout(Some(self.shared.cfg.heartbeat_timeout))?;
        if started.insert(conn.id) {
            let bytes = write_frame(&mut conn.stream, &Frame::BatchStart(desc.clone()))
                .map_err(ClusterError::Wire)?;
            self.count_tx(conn, bytes);
        }
        Ok(())
    }

    /// Co-simulate every group sequentially across the K connections,
    /// rolling all parts back to a common checkpoint on any death.
    fn run_modelpar_groups(
        &self,
        desc: &BatchDescriptor,
        groups: &[GroupDispatch],
        plan: &ModelPlan,
        conns: &mut [WorkerConn],
    ) -> Result<Vec<u64>, ClusterError> {
        let mut started: HashSet<u32> = HashSet::new();
        for conn in conns.iter_mut() {
            self.init_modelpar_conn(conn, desc, &mut started)?;
        }
        let mut digests = vec![0u64; desc.n as usize];
        for g in groups {
            let len = g.len as usize;
            let ck = Mutex::new(vec![BTreeMap::new(); plan.k]);
            let mut epoch = 0u32;
            let results: Vec<PartResult> = loop {
                // Deepest cycle checkpointed by *every* part — the only
                // cycle all K can restart from in lockstep.
                let start_cycle = {
                    let maps = lock(&ck);
                    maps[0]
                        .keys()
                        .rev()
                        .find(|&&cy| maps.iter().all(|m| m.contains_key(&cy)))
                        .copied()
                        .unwrap_or(0)
                };
                let failed = AtomicBool::new(false);
                let writers: Vec<Mutex<TcpStream>> = conns
                    .iter()
                    .map(|c| c.stream.try_clone().map(Mutex::new))
                    .collect::<Result<_, _>>()?;
                let ctx = GroupCtx {
                    desc,
                    plan,
                    group: g.group,
                    epoch,
                    len,
                    tid0: g.tid0,
                    writers,
                    ck: &ck,
                    failed: &failed,
                };
                if start_cycle > 0 {
                    let mut m = lock(&self.shared.metrics);
                    m.groups_resumed += 1;
                    m.resume_cycles_skipped += start_cycle;
                    m.max_resume_cycle = m.max_resume_cycle.max(start_cycle);
                }

                // Dispatch barrier: all K `RunPart` frames are on their
                // sockets before any session thread exists to relay a
                // `Boundary`. A worker discards boundaries that reach it
                // ahead of its own `RunPart`, and a part that lost its
                // peer's cycle-0 export waits for it forever. Every part
                // encodes from the one group block; nothing is cloned.
                let dispatched: Vec<bool> = {
                    let images = lock(&ck);
                    let mut writer = FrameWriter::default();
                    (0..plan.k)
                        .map(|p| {
                            let dispatch = PartDispatchRef {
                                batch: desc.batch,
                                group: g.group,
                                part: p as u32,
                                k: plan.k as u32,
                                epoch,
                                tid0: g.tid0,
                                len: g.len,
                                start_cycle,
                                resume_image: if start_cycle > 0 {
                                    &images[p][&start_cycle]
                                } else {
                                    &[]
                                },
                                frames: &g.frames,
                            };
                            match writer.write(&mut conns[p].stream, &dispatch) {
                                Ok(bytes) => {
                                    self.count_tx(&conns[p], bytes);
                                    lock(&self.shared.metrics).dispatches += 1;
                                    true
                                }
                                Err(_) => {
                                    failed.store(true, Ordering::Release);
                                    false
                                }
                            }
                        })
                        .collect()
                };

                let ends: Vec<SessionEnd> = std::thread::scope(|s| {
                    let handles: Vec<_> = conns
                        .iter_mut()
                        .zip(dispatched)
                        .enumerate()
                        .map(|(p, (conn, dispatched))| {
                            let ctx = &ctx;
                            s.spawn(move || {
                                if dispatched {
                                    self.part_session(p, conn, ctx)
                                } else {
                                    SessionEnd::Died { timed_out: false }
                                }
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().unwrap_or(SessionEnd::Died { timed_out: false }))
                        .collect()
                });

                if ends.iter().all(|e| matches!(e, SessionEnd::Done(_))) {
                    lock(&self.shared.metrics).modelpar_groups += 1;
                    break ends
                        .into_iter()
                        .map(|e| match e {
                            SessionEnd::Done(r) => *r,
                            _ => unreachable!("checked all Done"),
                        })
                        .collect();
                }

                // Rollback: replace the dead, abort-and-drain the rest,
                // bump the epoch, re-dispatch everyone from start_cycle.
                lock(&self.shared.metrics).modelpar_rollbacks += 1;
                for (p, end) in ends.iter().enumerate() {
                    let alive = match end {
                        SessionEnd::Died { timed_out } => {
                            self.record_part_death(&conns[p], *timed_out);
                            false
                        }
                        SessionEnd::Done(_) | SessionEnd::Bailed => {
                            let ok = self.abort_and_drain(p, &mut conns[p], &ctx);
                            if !ok {
                                self.record_part_death(&conns[p], false);
                            }
                            ok
                        }
                    };
                    if !alive {
                        let mut fresh = self
                            .take_one_worker(self.shared.cfg.rejoin_grace)
                            .ok_or_else(|| {
                                ClusterError::NoWorkers(format!(
                                    "part {p} of group {} died and no replacement registered \
                                     within {:?}",
                                    g.group, self.shared.cfg.rejoin_grace
                                ))
                            })?;
                        self.init_modelpar_conn(&mut fresh, desc, &mut started)?;
                        conns[p] = fresh;
                    }
                }
                epoch += 1;
                if epoch >= MAX_EPOCHS {
                    return Err(ClusterError::Protocol(format!(
                        "group {}: {MAX_EPOCHS} rollbacks without completing",
                        g.group
                    )));
                }
            };

            // Scatter each part's owned outputs into parent order and
            // fold — the same digest the monolithic path computes.
            let mut outs = vec![0u64; plan.num_outputs];
            for s in 0..len {
                for (p, r) in results.iter().enumerate() {
                    for (o, &pos) in plan.out_positions[p].iter().enumerate() {
                        outs[pos] = r.outputs[o * len + s];
                    }
                }
                digests[g.tid0 as usize + s] = ::modelpar::fold_digest(&outs);
            }
            let mut m = lock(&self.shared.metrics);
            for r in &results {
                m.overlap_hidden_ns += r.hidden_ns;
                m.exchange_stall_ns += r.stall_ns;
                m.phase_compute_ns += r.compute_ns;
            }
        }
        Ok(digests)
    }

    /// One already-dispatched part's relay loop for one epoch. Reads the
    /// part's socket, fans its boundary exports out to importers, stores
    /// its checkpoints, and returns its validated result.
    fn part_session(&self, p: usize, conn: &mut WorkerConn, ctx: &GroupCtx<'_>) -> SessionEnd {
        let started = Instant::now();
        let (batch, group, epoch, part) = (ctx.desc.batch, ctx.group, ctx.epoch, p as u32);
        let expect_outputs = ctx.plan.out_positions[p].len() * ctx.len;

        loop {
            match read_frame(&mut conn.stream) {
                Ok((frame, bytes)) => {
                    self.count_rx(conn, bytes);
                    // A checkpoint is kept even once the epoch is doomed:
                    // the rollback restarts from the deepest one received.
                    if let Frame::PartCheckpoint(u) = frame {
                        self.keep_checkpoint(p, ctx, u);
                        continue;
                    }
                    if ctx.failed.load(Ordering::Acquire) {
                        return SessionEnd::Bailed;
                    }
                    match frame {
                        Frame::Boundary(b)
                            if b.batch == batch
                                && b.group == group
                                && b.epoch == epoch
                                && b.part == part =>
                        {
                            {
                                let mut m = lock(&self.shared.metrics);
                                m.boundary_bytes += b.payload.len() as u64;
                                m.boundary_frames += 1;
                            }
                            for &q in &ctx.plan.importers_of[p] {
                                // A fan-out write failure is part q's
                                // death; q's own session detects it.
                                let mut w = lock(&ctx.writers[q]);
                                let _ = write_frame(&mut *w, &Frame::Boundary(b.clone()));
                            }
                        }
                        Frame::PartDone(r) => {
                            if r.epoch != epoch {
                                continue; // stale epoch: drained later
                            }
                            if r.batch == batch
                                && r.group == group
                                && r.part == part
                                && r.tid0 == ctx.tid0
                                && r.outputs.len() == expect_outputs
                            {
                                let mut m = lock(&self.shared.metrics);
                                m.chunks_committed += 1;
                                let acc = m.worker(conn.id, conn.capacity);
                                acc.groups += 1;
                                acc.chunks += 1;
                                acc.busy += started.elapsed();
                                return SessionEnd::Done(Box::new(r));
                            }
                            ctx.failed.store(true, Ordering::Release);
                            return SessionEnd::Died { timed_out: false };
                        }
                        Frame::Heartbeat { .. } | Frame::HeartbeatAck { .. } => {}
                        Frame::Error { .. } => {
                            ctx.failed.store(true, Ordering::Release);
                            return SessionEnd::Died { timed_out: false };
                        }
                        _ => {}
                    }
                }
                Err(e) => {
                    let timed_out = e.is_timeout();
                    if timed_out && ctx.failed.load(Ordering::Acquire) {
                        // The epoch is already doomed; this worker is
                        // merely quiet, not necessarily dead.
                        return SessionEnd::Bailed;
                    }
                    ctx.failed.store(true, Ordering::Release);
                    return SessionEnd::Died { timed_out };
                }
            }
        }
    }

    /// Store part `p`'s checkpoint if it belongs to this group and epoch
    /// and names a cycle strictly inside the run.
    fn keep_checkpoint(&self, p: usize, ctx: &GroupCtx<'_>, u: PartCheckpointUpdate) {
        if u.batch == ctx.desc.batch
            && u.group == ctx.group
            && u.part == p as u32
            && u.epoch == ctx.epoch
            && u.tid0 == ctx.tid0
            && u.cycle > 0
            && u.cycle < ctx.desc.cycles
            && !u.image.is_empty()
        {
            let image_len = u.image.len() as u64;
            lock(ctx.ck)[p].insert(u.cycle, u.image);
            let mut m = lock(&self.shared.metrics);
            m.checkpoints_received += 1;
            m.checkpoint_bytes += image_len;
        }
    }

    /// Abort one surviving part and drain its socket until the abort
    /// echo arrives, keeping its valid checkpoints and discarding the
    /// doomed epoch's other traffic. Returns whether the worker is still
    /// alive.
    fn abort_and_drain(&self, p: usize, conn: &mut WorkerConn, ctx: &GroupCtx<'_>) -> bool {
        let (batch, group, epoch) = (ctx.desc.batch, ctx.group, ctx.epoch);
        let abort = Frame::PartAbort {
            batch,
            group,
            epoch,
        };
        match write_frame(&mut conn.stream, &abort) {
            Ok(bytes) => self.count_tx(conn, bytes),
            Err(_) => return false,
        }
        loop {
            match read_frame(&mut conn.stream) {
                Ok((
                    Frame::PartAbort {
                        batch: b,
                        group: g,
                        epoch: e,
                    },
                    bytes,
                )) => {
                    self.count_rx(conn, bytes);
                    if b == batch && g == group && e >= epoch {
                        return true;
                    }
                }
                Ok((Frame::PartCheckpoint(u), bytes)) => {
                    self.count_rx(conn, bytes);
                    self.keep_checkpoint(p, ctx, u);
                }
                Ok((_, bytes)) => self.count_rx(conn, bytes),
                Err(_) => return false,
            }
        }
    }

    /// Record a part connection's death in the shared metrics.
    fn record_part_death(&self, conn: &WorkerConn, timed_out: bool) {
        let mut m = lock(&self.shared.metrics);
        m.worker_deaths += 1;
        if timed_out {
            m.heartbeat_timeouts += 1;
        }
        m.worker(conn.id, conn.capacity).alive = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterConfig;
    use std::net::TcpListener;

    fn checkpoint(epoch: u32, cycle: u64) -> Frame {
        Frame::PartCheckpoint(PartCheckpointUpdate {
            batch: 1,
            group: 0,
            part: 0,
            epoch,
            tid0: 0,
            cycle,
            image: vec![0xc4; 8],
        })
    }

    #[test]
    fn a_doomed_epoch_still_keeps_the_checkpoints_it_reads() {
        // Force the interleaving a part death produces: part 0's session
        // is behind on its socket when another part fails the epoch, so
        // its queued checkpoints are read only after `failed` is up, and
        // more arrive while the abort is drained. Each must land in the
        // map, or the rollback restarts from cycle 0.
        let ctl = Controller::bind("127.0.0.1:0", ClusterConfig::default()).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut worker = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut conn = WorkerConn {
            id: 1,
            capacity: 1,
            stream: listener.accept().unwrap().0,
        };
        let desc = BatchDescriptor {
            batch: 1,
            design_key: 0,
            top: String::new(),
            verilog: String::new(),
            cycles: 24,
            lanes: 1,
            n: 16,
        };
        let plan = ModelPlan {
            k: 2,
            num_outputs: 0,
            out_positions: vec![Vec::new(); 2],
            importers_of: vec![Vec::new(); 2],
        };
        let ck = Mutex::new(vec![BTreeMap::new(); 2]);
        let failed = AtomicBool::new(true);
        let ctx = GroupCtx {
            desc: &desc,
            plan: &plan,
            group: 0,
            epoch: 0,
            len: 16,
            tid0: 0,
            writers: Vec::new(),
            ck: &ck,
            failed: &failed,
        };

        write_frame(&mut worker, &checkpoint(0, 4)).unwrap();
        write_frame(&mut worker, &Frame::Heartbeat { seq: 1 }).unwrap();
        assert!(matches!(
            ctl.part_session(0, &mut conn, &ctx),
            SessionEnd::Bailed
        ));

        write_frame(&mut worker, &checkpoint(0, 8)).unwrap();
        // Another epoch's snapshot is still refused.
        write_frame(&mut worker, &checkpoint(1, 12)).unwrap();
        let echo = Frame::PartAbort {
            batch: 1,
            group: 0,
            epoch: 0,
        };
        write_frame(&mut worker, &echo).unwrap();
        assert!(ctl.abort_and_drain(0, &mut conn, &ctx));

        let kept: Vec<u64> = lock(&ck)[0].keys().copied().collect();
        assert_eq!(kept, [4, 8]);
        assert_eq!(ctl.metrics().checkpoints_received, 2);
        ctl.shutdown();
    }
}
