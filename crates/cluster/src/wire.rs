//! The cluster wire protocol: length-prefixed, versioned binary frames.
//!
//! Every message on a controller↔worker connection is one frame:
//!
//! ```text
//! magic "RFLC" | version u16 | kind u8 | payload_len u32 | payload bytes
//! ```
//!
//! All integers are little-endian. Strings are `u32 length + UTF-8`.
//! A `u64` array travels at its real width (v4):
//!
//! ```text
//! count u32 | width u8 | ceil(count / (64 / width)) packed u64 words
//! ```
//!
//! `width` is the narrowest of 1/2/4/8/16/32/64 bits that holds the OR
//! of the elements, so the encoding needs no port map; element `i` sits
//! in word `i / (64 / width)` at bit `(i % (64 / width)) * width`, and
//! the unused high bits of the last word are zero. A design whose input
//! ports are all one bit wide therefore ships one bit per lane-cycle,
//! not eight bytes.
//!
//! Decoding is total: any truncated, corrupted, oversized, or unknown
//! input yields a [`WireError`] — never a panic — because a malformed
//! remote payload must not take down a worker or the controller. Two
//! bounds hold on both ends: a payload is at most [`MAX_PAYLOAD`] bytes
//! on the wire, and at most [`MAX_PAYLOAD`] bytes once its array is
//! unpacked to eight bytes an element. Both are checked before any
//! allocation sized from the wire, so neither a corrupted length prefix
//! nor a narrow array with a huge count can trigger a giant allocation.
//!
//! The protocol is deliberately value-oriented: stimulus travel as
//! *materialized frame slices* (a pure function of `(stimulus, cycle)`
//! evaluated controller-side), so a group re-dispatched after a worker
//! death re-executes on bit-identical inputs no matter which survivor
//! picks it up.

use std::io::{Read, Write};

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"RFLC";
/// Protocol version carried in every frame header and in [`Frame::Hello`].
/// v2 added mid-batch checkpointing: the `Checkpoint` frame kind and the
/// resume fields on [`GroupDispatch`]. v3 added model-parallel
/// co-simulation: `RunPart`, `Boundary`, `PartDone`, `PartAbort` and
/// `PartCheckpoint`. A v2 decoder rejects every v3 frame with a
/// structured `BadVersion` error before looking at the kind byte. v4
/// carries every `u64` array packed at its width class; a v3 decoder
/// rejects it the same way.
pub const VERSION: u16 = 4;
/// Upper bound on a frame payload (256 MiB), on the wire and unpacked.
/// A length prefix or an array count beyond this is rejected before any
/// allocation happens.
pub const MAX_PAYLOAD: u32 = 256 << 20;
/// Header bytes in front of every payload.
const HEADER: usize = 11;

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum WireError {
    /// Underlying socket/stream error (includes read timeouts).
    Io(std::io::Error),
    /// The stream ended mid-frame.
    Truncated { context: &'static str },
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Header version != [`VERSION`].
    BadVersion(u16),
    /// Unrecognized frame kind byte.
    UnknownKind(u8),
    /// Payload size, on the wire or unpacked, exceeds [`MAX_PAYLOAD`]
    /// (on decode: a corrupted length prefix or array count; on encode:
    /// a frame too big for a peer to hold, caught before any byte of it
    /// is written).
    TooLarge(u64),
    /// Structurally invalid payload (bad UTF-8, inconsistent counts…).
    Malformed(String),
}

impl WireError {
    /// `true` when the error is a read timeout rather than a dead peer —
    /// the controller's heartbeat detector treats the two differently
    /// only in its report, both requeue the worker's groups.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            WireError::Io(e) if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            )
        )
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o: {e}"),
            WireError::Truncated { context } => write!(f, "truncated frame ({context})"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::BadVersion(v) => {
                write!(f, "protocol version {v} (this build speaks {VERSION})")
            }
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            WireError::TooLarge(n) => {
                write!(f, "payload length {n} exceeds the {MAX_PAYLOAD}-byte cap")
            }
            WireError::Malformed(m) => write!(f, "malformed payload: {m}"),
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

/// Announces one coalesced batch to a worker before its groups arrive.
/// Carries the full design source so a cold worker can build its engine;
/// workers cache engines by `design_key`, so repeats are free.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchDescriptor {
    /// Controller-unique batch id.
    pub batch: u64,
    /// Structural design fingerprint ([`rtlir::design_hash`]); the
    /// worker's engine-cache key, cross-checked after elaboration.
    pub design_key: u64,
    /// Top module name.
    pub top: String,
    /// Verilog source of the DUT.
    pub verilog: String,
    /// Clock cycles every group of this batch runs.
    pub cycles: u64,
    /// Input lanes per stimulus frame.
    pub lanes: u32,
    /// Total stimulus across the whole batch (for reporting).
    pub n: u64,
}

/// One schedulable unit of work: a contiguous stimulus group with its
/// materialized input frames.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupDispatch {
    pub batch: u64,
    /// Group index within the batch.
    pub group: u32,
    /// First *global* stimulus id of the group.
    pub tid0: u64,
    /// Stimulus in the group.
    pub len: u32,
    /// Stimulus-major frame data:
    /// `frames[(s_local * cycles + c) * lanes + lane]`, length
    /// `len * cycles * lanes`.
    pub frames: Vec<u64>,
    /// Cycle to resume from: 0 for a cold start, otherwise the cycle
    /// index the attached `resume_image` was captured at.
    pub resume_cycle: u64,
    /// Encoded [`cudasim::Checkpoint`] image to restore before running
    /// (empty for a cold start). A worker that cannot validate the image
    /// falls back to cycle 0 — resuming is an optimization, never a
    /// correctness dependency.
    pub resume_image: Vec<u8>,
}

/// Worker → controller: a mid-group device snapshot, shipped every
/// `checkpoint_interval` cycles so the controller can re-dispatch a dead
/// worker's group from its last checkpointed cycle instead of cycle 0.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointUpdate {
    pub batch: u64,
    /// Group index within the batch.
    pub group: u32,
    /// First *global* stimulus id of the group (cross-checked on receipt).
    pub tid0: u64,
    /// Cycles fully completed when the snapshot was taken.
    pub cycle: u64,
    /// Encoded [`cudasim::Checkpoint`] image.
    pub image: Vec<u8>,
}

/// Controller → worker: run one *part* of a model-parallel group. The
/// worker derives the cut locally from `(design, k)` — the dispatch only
/// names which part this worker plays and where to (re)start.
#[derive(Debug, Clone, PartialEq)]
pub struct PartDispatch {
    pub batch: u64,
    /// Group index within the batch.
    pub group: u32,
    /// Which part of the K-way cut this worker simulates.
    pub part: u32,
    /// Total parts in the cut.
    pub k: u32,
    /// Rollback epoch: bumped by the controller on every re-dispatch
    /// after a partition-replica death. Stale traffic from older epochs
    /// is discarded by both ends.
    pub epoch: u32,
    /// First *global* stimulus id of the group.
    pub tid0: u64,
    /// Stimulus in the group.
    pub len: u32,
    /// Cycle to start from: 0 for a cold start, otherwise the common
    /// checkpoint cycle all parts roll back to.
    pub start_cycle: u64,
    /// Encoded [`cudasim::Checkpoint`] of *this part's* sub-design state
    /// at `start_cycle` (empty for a cold start).
    pub resume_image: Vec<u8>,
    /// Stimulus-major frame data, identical layout to
    /// [`GroupDispatch::frames`] (every part drives the full input set).
    pub frames: Vec<u64>,
}

/// One part's packed boundary exports for one cycle. Workers send it to
/// the controller, which fans the identical payload to every importing
/// part; the payload layout is the exporter's `BoundaryCodec` schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundaryFrame {
    pub batch: u64,
    pub group: u32,
    /// Exporting part.
    pub part: u32,
    pub epoch: u32,
    /// Cycle whose *post-commit* state the payload carries.
    pub cycle: u64,
    pub payload: Vec<u8>,
}

/// Worker → controller: one part finished its group.
#[derive(Debug, Clone, PartialEq)]
pub struct PartResult {
    pub batch: u64,
    pub group: u32,
    pub part: u32,
    pub epoch: u32,
    pub tid0: u64,
    /// Final values of the part's owned outputs, output-major:
    /// `outputs[o * len + s]` for owned-output index `o`, local lane `s`.
    pub outputs: Vec<u64>,
    /// Exchange latency hidden behind `pre`-phase compute (summed ns).
    pub hidden_ns: u64,
    /// Time spent blocked waiting for boundary frames (summed ns).
    pub stall_ns: u64,
}

/// Worker → controller: a mid-run snapshot of one part's sub-design
/// state, used to derive the common rollback cycle after a death.
#[derive(Debug, Clone, PartialEq)]
pub struct PartCheckpointUpdate {
    pub batch: u64,
    pub group: u32,
    pub part: u32,
    pub epoch: u32,
    pub tid0: u64,
    /// Cycles fully completed when the snapshot was taken.
    pub cycle: u64,
    /// Encoded [`cudasim::Checkpoint`] of the sub-design device.
    pub image: Vec<u8>,
}

/// A completed group's digests, streamed back as the group finishes.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultChunk {
    pub batch: u64,
    pub group: u32,
    pub tid0: u64,
    /// One output digest per stimulus of the group.
    pub digests: Vec<u64>,
}

/// Every message of the protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Worker → controller registration. `proto` must equal [`VERSION`];
    /// `capacity` is the worker's advertised relative throughput weight.
    Hello { proto: u16, capacity: u32 },
    /// Controller → worker registration ack with the assigned id.
    Welcome { worker_id: u32 },
    /// Controller → worker: a new batch is about to dispatch groups.
    BatchStart(BatchDescriptor),
    /// Controller → worker: run one group.
    RunGroup(GroupDispatch),
    /// Worker → controller: one finished group's digests.
    Chunk(ResultChunk),
    /// Liveness probe (either direction).
    Heartbeat { seq: u64 },
    /// Liveness reply echoing the probe's sequence number.
    HeartbeatAck { seq: u64 },
    /// A contextful, non-fatal-to-the-peer failure report.
    Error { context: String },
    /// Orderly shutdown; the receiver stops without reconnecting.
    Goodbye,
    /// Worker → controller: mid-group device snapshot for crash resume.
    Checkpoint(CheckpointUpdate),
    /// Controller → worker: run one part of a model-parallel group (v3).
    RunPart(PartDispatch),
    /// One cycle's packed boundary exports, relayed both directions (v3).
    Boundary(BoundaryFrame),
    /// Worker → controller: a part's final outputs and timings (v3).
    PartDone(PartResult),
    /// Rollback barrier (v3). Controller → worker: abandon the named
    /// group's current epoch. The worker echoes the frame back as an ack,
    /// which lets the controller drain stale boundary traffic in between.
    PartAbort { batch: u64, group: u32, epoch: u32 },
    /// Worker → controller: mid-run part snapshot for rollback (v3).
    PartCheckpoint(PartCheckpointUpdate),
}

const KIND_HELLO: u8 = 1;
const KIND_WELCOME: u8 = 2;
const KIND_BATCH_START: u8 = 3;
const KIND_RUN_GROUP: u8 = 4;
const KIND_CHUNK: u8 = 5;
const KIND_HEARTBEAT: u8 = 6;
const KIND_HEARTBEAT_ACK: u8 = 7;
const KIND_ERROR: u8 = 8;
const KIND_GOODBYE: u8 = 9;
const KIND_CHECKPOINT: u8 = 10;
const KIND_RUN_PART: u8 = 11;
const KIND_BOUNDARY: u8 = 12;
const KIND_PART_DONE: u8 = 13;
const KIND_PART_ABORT: u8 = 14;
const KIND_PART_CHECKPOINT: u8 = 15;

impl GroupDispatch {
    pub(crate) fn as_ref(&self) -> GroupDispatchRef<'_> {
        GroupDispatchRef {
            batch: self.batch,
            group: self.group,
            tid0: self.tid0,
            len: self.len,
            frames: &self.frames,
            resume_cycle: self.resume_cycle,
            resume_image: &self.resume_image,
        }
    }
}

/// A [`GroupDispatch`] over borrowed frames and resume image: the
/// controller encodes each `RunGroup` straight from the batch's group
/// block and its checkpoint cache, cloning neither.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GroupDispatchRef<'a> {
    pub batch: u64,
    pub group: u32,
    pub tid0: u64,
    pub len: u32,
    pub frames: &'a [u64],
    pub resume_cycle: u64,
    pub resume_image: &'a [u8],
}

impl Encode for GroupDispatchRef<'_> {
    fn kind(&self) -> u8 {
        KIND_RUN_GROUP
    }

    fn put(&self, e: &mut Enc<'_>) -> Result<(), WireError> {
        e.u64(self.batch);
        e.u32(self.group);
        e.u64(self.tid0);
        e.u32(self.len);
        e.u64s(self.frames)?;
        e.u64(self.resume_cycle);
        e.bytes(self.resume_image);
        Ok(())
    }
}

impl PartDispatch {
    fn as_ref(&self) -> PartDispatchRef<'_> {
        PartDispatchRef {
            batch: self.batch,
            group: self.group,
            part: self.part,
            k: self.k,
            epoch: self.epoch,
            tid0: self.tid0,
            len: self.len,
            start_cycle: self.start_cycle,
            resume_image: &self.resume_image,
            frames: &self.frames,
        }
    }
}

/// A [`PartDispatch`] over borrowed frames and resume image: the K parts
/// of a model-parallel group all encode from the one group block.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PartDispatchRef<'a> {
    pub batch: u64,
    pub group: u32,
    pub part: u32,
    pub k: u32,
    pub epoch: u32,
    pub tid0: u64,
    pub len: u32,
    pub start_cycle: u64,
    pub resume_image: &'a [u8],
    pub frames: &'a [u64],
}

impl Encode for PartDispatchRef<'_> {
    fn kind(&self) -> u8 {
        KIND_RUN_PART
    }

    fn put(&self, e: &mut Enc<'_>) -> Result<(), WireError> {
        e.u64(self.batch);
        e.u32(self.group);
        e.u32(self.part);
        e.u32(self.k);
        e.u32(self.epoch);
        e.u64(self.tid0);
        e.u32(self.len);
        e.u64(self.start_cycle);
        e.bytes(self.resume_image);
        e.u64s(self.frames)
    }
}

/// Something that goes on the wire as one frame: an owned [`Frame`], or
/// a dispatch assembled from borrowed parts.
pub(crate) trait Encode {
    fn kind(&self) -> u8;
    /// Append the payload fields.
    fn put(&self, e: &mut Enc<'_>) -> Result<(), WireError>;
}

impl Encode for Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::Hello { .. } => KIND_HELLO,
            Frame::Welcome { .. } => KIND_WELCOME,
            Frame::BatchStart(_) => KIND_BATCH_START,
            Frame::RunGroup(_) => KIND_RUN_GROUP,
            Frame::Chunk(_) => KIND_CHUNK,
            Frame::Heartbeat { .. } => KIND_HEARTBEAT,
            Frame::HeartbeatAck { .. } => KIND_HEARTBEAT_ACK,
            Frame::Error { .. } => KIND_ERROR,
            Frame::Goodbye => KIND_GOODBYE,
            Frame::Checkpoint(_) => KIND_CHECKPOINT,
            Frame::RunPart(_) => KIND_RUN_PART,
            Frame::Boundary(_) => KIND_BOUNDARY,
            Frame::PartDone(_) => KIND_PART_DONE,
            Frame::PartAbort { .. } => KIND_PART_ABORT,
            Frame::PartCheckpoint(_) => KIND_PART_CHECKPOINT,
        }
    }

    fn put(&self, e: &mut Enc<'_>) -> Result<(), WireError> {
        match self {
            Frame::Hello { proto, capacity } => {
                e.u16(*proto);
                e.u32(*capacity);
            }
            Frame::Welcome { worker_id } => e.u32(*worker_id),
            Frame::BatchStart(b) => {
                e.u64(b.batch);
                e.u64(b.design_key);
                e.str(&b.top);
                e.str(&b.verilog);
                e.u64(b.cycles);
                e.u32(b.lanes);
                e.u64(b.n);
            }
            Frame::RunGroup(g) => g.as_ref().put(e)?,
            Frame::Chunk(c) => {
                e.u64(c.batch);
                e.u32(c.group);
                e.u64(c.tid0);
                e.u64s(&c.digests)?;
            }
            Frame::Heartbeat { seq } | Frame::HeartbeatAck { seq } => e.u64(*seq),
            Frame::Error { context } => e.str(context),
            Frame::Goodbye => {}
            Frame::Checkpoint(u) => {
                e.u64(u.batch);
                e.u32(u.group);
                e.u64(u.tid0);
                e.u64(u.cycle);
                e.bytes(&u.image);
            }
            Frame::RunPart(p) => p.as_ref().put(e)?,
            Frame::Boundary(b) => {
                e.u64(b.batch);
                e.u32(b.group);
                e.u32(b.part);
                e.u32(b.epoch);
                e.u64(b.cycle);
                e.bytes(&b.payload);
            }
            Frame::PartDone(r) => {
                e.u64(r.batch);
                e.u32(r.group);
                e.u32(r.part);
                e.u32(r.epoch);
                e.u64(r.tid0);
                e.u64s(&r.outputs)?;
                e.u64(r.hidden_ns);
                e.u64(r.stall_ns);
            }
            Frame::PartAbort {
                batch,
                group,
                epoch,
            } => {
                e.u64(*batch);
                e.u32(*group);
                e.u32(*epoch);
            }
            Frame::PartCheckpoint(u) => {
                e.u64(u.batch);
                e.u32(u.group);
                e.u32(u.part);
                e.u32(u.epoch);
                e.u64(u.tid0);
                e.u64(u.cycle);
                e.bytes(&u.image);
            }
        }
        Ok(())
    }
}

impl Frame {
    /// Encode into one self-contained frame (header + payload). A frame
    /// whose payload exceeds [`MAX_PAYLOAD`] — on the wire, or once its
    /// array is unpacked — is refused here: every receiver would reject
    /// it anyway, and past 4 GiB the `u32` length prefix would silently
    /// truncate and desync the stream.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::new();
        encode_into(&mut out, self)?;
        Ok(out)
    }

    /// Decode one frame from the front of `data`; returns the frame and
    /// the number of bytes consumed. Never panics on any input.
    pub fn decode(data: &[u8]) -> Result<(Frame, usize), WireError> {
        if data.len() < HEADER {
            return Err(WireError::Truncated { context: "header" });
        }
        if data[0..4] != MAGIC {
            return Err(WireError::BadMagic([data[0], data[1], data[2], data[3]]));
        }
        let version = u16::from_le_bytes([data[4], data[5]]);
        if version != VERSION {
            return Err(WireError::BadVersion(version));
        }
        let kind = data[6];
        let plen = u32::from_le_bytes([data[7], data[8], data[9], data[10]]);
        if plen > MAX_PAYLOAD {
            return Err(WireError::TooLarge(u64::from(plen)));
        }
        let plen = plen as usize;
        if data.len() < HEADER + plen {
            return Err(WireError::Truncated { context: "payload" });
        }
        let frame = decode_payload(kind, &data[HEADER..HEADER + plen])?;
        Ok((frame, HEADER + plen))
    }
}

/// Build one frame in `out` (cleared first): the header, then the
/// payload `frame` appends, written in place so it is never copied into
/// a second buffer. On `Err`, `out` holds a partial frame and must not
/// be sent.
fn encode_into(out: &mut Vec<u8>, frame: &impl Encode) -> Result<(), WireError> {
    out.clear();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(frame.kind());
    out.extend_from_slice(&[0u8; 4]);
    let mut e = Enc { out, slack: 0 };
    frame.put(&mut e)?;
    let unpacked = e.unpacked();
    if unpacked > u64::from(MAX_PAYLOAD) {
        return Err(WireError::TooLarge(unpacked));
    }
    // `unpacked` bounds the payload from above, so it fits the prefix.
    let plen = (out.len() - HEADER) as u32;
    out[7..HEADER].copy_from_slice(&plen.to_le_bytes());
    Ok(())
}

/// Encodes frames into one reused buffer and puts each on the stream
/// with a single `write_all`: a connection that dispatches group after
/// group allocates once, and `TCP_NODELAY` sees one write per frame.
#[derive(Default)]
pub(crate) struct FrameWriter {
    buf: Vec<u8>,
}

impl FrameWriter {
    /// [`write_frame`] through the reused buffer; returns the bytes
    /// written.
    pub(crate) fn write(
        &mut self,
        w: &mut impl Write,
        frame: &impl Encode,
    ) -> Result<usize, WireError> {
        encode_into(&mut self.buf, frame)?;
        w.write_all(&self.buf)?;
        w.flush()?;
        Ok(self.buf.len())
    }
}

fn decode_payload(kind: u8, payload: &[u8]) -> Result<Frame, WireError> {
    let mut c = Cursor {
        data: payload,
        pos: 0,
    };
    let frame = match kind {
        KIND_HELLO => Frame::Hello {
            proto: c.u16()?,
            capacity: c.u32()?,
        },
        KIND_WELCOME => Frame::Welcome {
            worker_id: c.u32()?,
        },
        KIND_BATCH_START => Frame::BatchStart(BatchDescriptor {
            batch: c.u64()?,
            design_key: c.u64()?,
            top: c.string()?,
            verilog: c.string()?,
            cycles: c.u64()?,
            lanes: c.u32()?,
            n: c.u64()?,
        }),
        KIND_RUN_GROUP => Frame::RunGroup(GroupDispatch {
            batch: c.u64()?,
            group: c.u32()?,
            tid0: c.u64()?,
            len: c.u32()?,
            frames: c.u64s()?,
            resume_cycle: c.u64()?,
            resume_image: c.bytes()?,
        }),
        KIND_CHUNK => Frame::Chunk(ResultChunk {
            batch: c.u64()?,
            group: c.u32()?,
            tid0: c.u64()?,
            digests: c.u64s()?,
        }),
        KIND_HEARTBEAT => Frame::Heartbeat { seq: c.u64()? },
        KIND_HEARTBEAT_ACK => Frame::HeartbeatAck { seq: c.u64()? },
        KIND_ERROR => Frame::Error {
            context: c.string()?,
        },
        KIND_GOODBYE => Frame::Goodbye,
        KIND_CHECKPOINT => Frame::Checkpoint(CheckpointUpdate {
            batch: c.u64()?,
            group: c.u32()?,
            tid0: c.u64()?,
            cycle: c.u64()?,
            image: c.bytes()?,
        }),
        KIND_RUN_PART => Frame::RunPart(PartDispatch {
            batch: c.u64()?,
            group: c.u32()?,
            part: c.u32()?,
            k: c.u32()?,
            epoch: c.u32()?,
            tid0: c.u64()?,
            len: c.u32()?,
            start_cycle: c.u64()?,
            resume_image: c.bytes()?,
            frames: c.u64s()?,
        }),
        KIND_BOUNDARY => Frame::Boundary(BoundaryFrame {
            batch: c.u64()?,
            group: c.u32()?,
            part: c.u32()?,
            epoch: c.u32()?,
            cycle: c.u64()?,
            payload: c.bytes()?,
        }),
        KIND_PART_DONE => Frame::PartDone(PartResult {
            batch: c.u64()?,
            group: c.u32()?,
            part: c.u32()?,
            epoch: c.u32()?,
            tid0: c.u64()?,
            outputs: c.u64s()?,
            hidden_ns: c.u64()?,
            stall_ns: c.u64()?,
        }),
        KIND_PART_ABORT => Frame::PartAbort {
            batch: c.u64()?,
            group: c.u32()?,
            epoch: c.u32()?,
        },
        KIND_PART_CHECKPOINT => Frame::PartCheckpoint(PartCheckpointUpdate {
            batch: c.u64()?,
            group: c.u32()?,
            part: c.u32()?,
            epoch: c.u32()?,
            tid0: c.u64()?,
            cycle: c.u64()?,
            image: c.bytes()?,
        }),
        other => return Err(WireError::UnknownKind(other)),
    };
    if c.pos != payload.len() {
        return Err(WireError::Malformed(format!(
            "{} trailing payload bytes",
            payload.len() - c.pos
        )));
    }
    Ok(frame)
}

/// Write one frame to a stream; returns the bytes written. A frame too
/// large for the wire format is refused with [`WireError::TooLarge`]
/// before any byte is written, so the stream never desyncs.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<usize, WireError> {
    FrameWriter::default().write(w, frame)
}

/// Read one frame from a stream; returns the frame and its wire size.
/// An EOF before the first header byte is reported as `Truncated`, any
/// later short read as the underlying i/o error.
pub fn read_frame(r: &mut impl Read) -> Result<(Frame, usize), WireError> {
    let mut header = [0u8; HEADER];
    r.read_exact(&mut header).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated { context: "header" }
        } else {
            WireError::Io(e)
        }
    })?;
    if header[0..4] != MAGIC {
        return Err(WireError::BadMagic([
            header[0], header[1], header[2], header[3],
        ]));
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let plen = u32::from_le_bytes([header[7], header[8], header[9], header[10]]);
    if plen > MAX_PAYLOAD {
        return Err(WireError::TooLarge(u64::from(plen)));
    }
    let mut payload = vec![0u8; plen as usize];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated { context: "payload" }
        } else {
            WireError::Io(e)
        }
    })?;
    let frame = decode_payload(header[6], &payload)?;
    Ok((frame, HEADER + plen as usize))
}

// --------------------------------------------------------------------------
// Little-endian field encoding.

/// Bits per element an array of the given OR travels at: the narrowest
/// of 1/2/4/8/16/32/64 that holds every set bit.
fn width_class(or: u64) -> u32 {
    (64 - or.leading_zeros()).max(1).next_power_of_two()
}

/// Bytes `count` elements occupy packed at `width` bits (whole words).
fn packed_bytes(count: u64, width: u32) -> u64 {
    count.div_ceil(u64::from(64 / width)) * 8
}

/// Pack `vs`, no element wider than `W` bits, into little-endian words.
fn pack<const W: u32>(vs: &[u64], out: &mut [u8]) {
    let word = |chunk: &[u64]| {
        chunk
            .iter()
            .enumerate()
            .fold(0u64, |w, (j, &v)| w | v << (j as u32 * W))
    };
    let mut src = vs.chunks_exact((64 / W) as usize);
    let mut dst = out.chunks_exact_mut(8);
    // `src` leads the zip so a short tail leaves its `dst` word unconsumed.
    for (chunk, d) in (&mut src).zip(&mut dst) {
        d.copy_from_slice(&word(chunk).to_le_bytes());
    }
    if let Some(d) = dst.next() {
        d.copy_from_slice(&word(src.remainder()).to_le_bytes());
    }
}

/// Inverse of [`pack`]; `src` holds exactly the words `out` needs.
fn unpack<const W: u32>(src: &[u8], out: &mut [u64]) {
    let mask = u64::MAX >> (64 - W);
    for (chunk, wb) in out.chunks_mut((64 / W) as usize).zip(src.chunks_exact(8)) {
        let word = u64::from_le_bytes(wb.try_into().expect("chunks_exact(8)"));
        for (j, v) in chunk.iter_mut().enumerate() {
            *v = (word >> (j as u32 * W)) & mask;
        }
    }
}

/// The payload under construction, directly behind the header in the
/// output buffer.
pub(crate) struct Enc<'a> {
    out: &'a mut Vec<u8>,
    /// Bytes the arrays written so far will grow by when unpacked.
    slack: u64,
}

impl Enc<'_> {
    /// Size of the payload so far once its arrays are unpacked to eight
    /// bytes an element — what it costs a receiver to hold.
    fn unpacked(&self) -> u64 {
        (self.out.len() - HEADER) as u64 + self.slack
    }

    fn u16(&mut self, v: u16) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    fn bytes(&mut self, bs: &[u8]) {
        self.u32(bs.len() as u32);
        self.out.extend_from_slice(bs);
    }

    /// Refuses an array that would push the unpacked payload past
    /// [`MAX_PAYLOAD`] before packing a single word of it.
    fn u64s(&mut self, vs: &[u64]) -> Result<(), WireError> {
        let raw = vs.len() as u64 * 8;
        let unpacked = self.unpacked() + raw;
        if unpacked > u64::from(MAX_PAYLOAD) {
            return Err(WireError::TooLarge(unpacked));
        }
        let width = width_class(vs.iter().fold(0, |or, &v| or | v));
        let packed = packed_bytes(vs.len() as u64, width);
        self.u32(vs.len() as u32);
        self.out.push(width as u8);
        let at = self.out.len();
        self.out.resize(at + packed as usize, 0);
        let out = &mut self.out[at..];
        match width {
            1 => pack::<1>(vs, out),
            2 => pack::<2>(vs, out),
            4 => pack::<4>(vs, out),
            8 => pack::<8>(vs, out),
            16 => pack::<16>(vs, out),
            32 => pack::<32>(vs, out),
            _ => pack::<64>(vs, out),
        }
        self.slack += raw - packed;
        Ok(())
    }
}

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.data.len() - self.pos < n {
            return Err(WireError::Truncated { context: "field" });
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Malformed("string is not UTF-8".into()))
    }

    fn u64s(&mut self) -> Result<Vec<u64>, WireError> {
        let count = self.u32()? as usize;
        let width = u32::from(self.u8()?);
        if !matches!(width, 1 | 2 | 4 | 8 | 16 | 32 | 64) {
            return Err(WireError::Malformed(format!(
                "array width class {width} is not one of 1/2/4/8/16/32/64"
            )));
        }
        // Both checks run before the allocation below, which is sized
        // from the (possibly corrupted) count: the payload with this
        // array unpacked must fit the cap, and the packed words the
        // count promises must really be there.
        let raw = count as u64 * 8;
        let packed = packed_bytes(count as u64, width);
        let unpacked = (self.data.len() as u64).saturating_sub(packed) + raw;
        if unpacked > u64::from(MAX_PAYLOAD) {
            return Err(WireError::TooLarge(unpacked));
        }
        // The cap above keeps `packed` within `usize` on any target.
        let src = self.take(packed as usize)?;
        let mut out = vec![0u64; count];
        match width {
            1 => unpack::<1>(src, &mut out),
            2 => unpack::<2>(src, &mut out),
            4 => unpack::<4>(src, &mut out),
            8 => unpack::<8>(src, &mut out),
            16 => unpack::<16>(src, &mut out),
            32 => unpack::<32>(src, &mut out),
            _ => unpack::<64>(src, &mut out),
        }
        // A short last word must be zero above its elements, so every
        // array has exactly one encoding at its class.
        let tail = count % (64 / width) as usize;
        if tail != 0 {
            let last = u64::from_le_bytes(src[src.len() - 8..].try_into().unwrap());
            if last >> (tail as u32 * width) != 0 {
                return Err(WireError::Malformed(
                    "non-zero padding bits after a packed array".into(),
                ));
            }
        }
        Ok(out)
    }

    fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let count = self.u32()? as usize;
        // Same discipline as `u64s`: the honest length check runs before
        // any allocation sized from the (possibly corrupted) count.
        Ok(self.take(count)?.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stimulus::splitmix64;

    /// The low `bits` bits set (`bits` in 0..=64).
    fn mask(bits: u32) -> u64 {
        u64::MAX.checked_shr(64 - bits).unwrap_or(0)
    }

    fn chunk_of(digests: Vec<u64>) -> Frame {
        Frame::Chunk(ResultChunk {
            batch: 1,
            group: 2,
            tid0: 3,
            digests,
        })
    }

    /// Where a `Chunk`'s array starts: header + batch + group + tid0.
    const CHUNK_ARRAY_AT: usize = HEADER + 8 + 4 + 8;

    /// Deterministic generator for the property tests.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = splitmix64(self.0);
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n.max(1)
        }

        fn string(&mut self, max: usize) -> String {
            let len = self.below(max as u64) as usize;
            (0..len)
                .map(|_| char::from_u32(32 + (self.below(95)) as u32).unwrap())
                .collect()
        }

        /// Elements of a random bit width 0..=64, so the arrays of the
        /// generated frames land in every width class.
        fn u64s(&mut self, max: usize) -> Vec<u64> {
            let len = self.below(max as u64) as usize;
            let bits = self.below(65) as u32;
            (0..len).map(|_| self.next() & mask(bits)).collect()
        }

        fn bytes(&mut self, max: usize) -> Vec<u8> {
            let len = self.below(max as u64) as usize;
            (0..len).map(|_| self.next() as u8).collect()
        }

        fn frame(&mut self) -> Frame {
            match self.below(15) {
                0 => Frame::Hello {
                    proto: self.next() as u16,
                    capacity: self.next() as u32,
                },
                1 => Frame::Welcome {
                    worker_id: self.next() as u32,
                },
                2 => Frame::BatchStart(BatchDescriptor {
                    batch: self.next(),
                    design_key: self.next(),
                    top: self.string(16),
                    verilog: self.string(200),
                    cycles: self.next(),
                    lanes: self.next() as u32,
                    n: self.next(),
                }),
                3 => Frame::RunGroup(GroupDispatch {
                    batch: self.next(),
                    group: self.next() as u32,
                    tid0: self.next(),
                    len: self.next() as u32,
                    frames: self.u64s(64),
                    resume_cycle: self.below(1000),
                    resume_image: self.bytes(96),
                }),
                4 => Frame::Chunk(ResultChunk {
                    batch: self.next(),
                    group: self.next() as u32,
                    tid0: self.next(),
                    digests: self.u64s(64),
                }),
                5 => Frame::Heartbeat { seq: self.next() },
                6 => Frame::HeartbeatAck { seq: self.next() },
                7 => Frame::Error {
                    context: self.string(80),
                },
                8 => Frame::Checkpoint(CheckpointUpdate {
                    batch: self.next(),
                    group: self.next() as u32,
                    tid0: self.next(),
                    cycle: self.next(),
                    image: self.bytes(128),
                }),
                9 => Frame::RunPart(PartDispatch {
                    batch: self.next(),
                    group: self.next() as u32,
                    part: self.below(8) as u32,
                    k: self.below(8) as u32,
                    epoch: self.below(4) as u32,
                    tid0: self.next(),
                    len: self.next() as u32,
                    start_cycle: self.below(1000),
                    resume_image: self.bytes(96),
                    frames: self.u64s(64),
                }),
                10 => Frame::Boundary(BoundaryFrame {
                    batch: self.next(),
                    group: self.next() as u32,
                    part: self.below(8) as u32,
                    epoch: self.below(4) as u32,
                    cycle: self.next(),
                    payload: self.bytes(160),
                }),
                11 => Frame::PartDone(PartResult {
                    batch: self.next(),
                    group: self.next() as u32,
                    part: self.below(8) as u32,
                    epoch: self.below(4) as u32,
                    tid0: self.next(),
                    outputs: self.u64s(64),
                    hidden_ns: self.next(),
                    stall_ns: self.next(),
                }),
                12 => Frame::PartAbort {
                    batch: self.next(),
                    group: self.next() as u32,
                    epoch: self.below(4) as u32,
                },
                13 => Frame::PartCheckpoint(PartCheckpointUpdate {
                    batch: self.next(),
                    group: self.next() as u32,
                    part: self.below(8) as u32,
                    epoch: self.below(4) as u32,
                    tid0: self.next(),
                    cycle: self.next(),
                    image: self.bytes(128),
                }),
                _ => Frame::Goodbye,
            }
        }
    }

    #[test]
    fn random_frames_roundtrip() {
        let mut g = Gen(0xc105_7e12);
        for case in 0..500 {
            let frame = g.frame();
            let bytes = frame.encode().unwrap();
            let (back, used) = Frame::decode(&bytes)
                .unwrap_or_else(|e| panic!("case {case}: decode failed: {e} for {frame:?}"));
            assert_eq!(used, bytes.len(), "case {case}: whole frame consumed");
            assert_eq!(back, frame, "case {case}: roundtrip must be exact");
        }
    }

    #[test]
    fn stream_roundtrip_concatenated() {
        let mut g = Gen(7);
        let frames: Vec<Frame> = (0..32).map(|_| g.frame()).collect();
        let mut bytes = Vec::new();
        for f in &frames {
            write_frame(&mut bytes, f).unwrap();
        }
        let mut r = &bytes[..];
        for f in &frames {
            let (back, _) = read_frame(&mut r).unwrap();
            assert_eq!(&back, f);
        }
        assert!(r.is_empty());
    }

    #[test]
    fn every_truncation_errors_never_panics() {
        let mut g = Gen(0xdead);
        for _ in 0..50 {
            let frame = g.frame();
            let bytes = frame.encode().unwrap();
            for cut in 0..bytes.len() {
                let r = Frame::decode(&bytes[..cut]);
                assert!(
                    r.is_err(),
                    "decoding a {cut}-byte prefix of a {}-byte frame must error",
                    bytes.len()
                );
                // And the streaming path likewise.
                assert!(read_frame(&mut &bytes[..cut]).is_err());
            }
        }
    }

    #[test]
    fn corrupted_bytes_never_panic() {
        let mut g = Gen(0xbeef);
        for _ in 0..40 {
            let frame = g.frame();
            let bytes = frame.encode().unwrap();
            for i in 0..bytes.len() {
                let mut bad = bytes.clone();
                bad[i] ^= 0x41;
                // Any outcome but a panic is acceptable: corruption in a
                // value field still decodes (to a different frame), while
                // header/structure corruption must error.
                let _ = Frame::decode(&bad);
                let _ = read_frame(&mut &bad[..]);
            }
        }
    }

    #[test]
    fn header_corruptions_error_specifically() {
        let bytes = Frame::Goodbye.encode().unwrap();
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            Frame::decode(&bad_magic),
            Err(WireError::BadMagic(_))
        ));

        let mut bad_version = bytes.clone();
        bad_version[4] = 0xff;
        assert!(matches!(
            Frame::decode(&bad_version),
            Err(WireError::BadVersion(_))
        ));

        let mut bad_kind = bytes.clone();
        bad_kind[6] = 0x7f;
        assert!(matches!(
            Frame::decode(&bad_kind),
            Err(WireError::UnknownKind(0x7f))
        ));

        let mut huge_len = bytes;
        huge_len[7..11].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Frame::decode(&huge_len),
            Err(WireError::TooLarge(_))
        ));
    }

    /// A `RunGroup` of `words` frame words, all zero but the first. The
    /// zeros are never written, so even a cap-sized block costs no memory.
    fn big_group(words: usize, first: u64) -> Frame {
        let mut frames = vec![0u64; words];
        frames[0] = first;
        Frame::RunGroup(GroupDispatch {
            batch: 1,
            group: 0,
            tid0: 0,
            len: 1,
            frames,
            resume_cycle: 0,
            resume_image: Vec::new(),
        })
    }

    fn assert_refused_before_any_byte(frame: &Frame) {
        assert!(matches!(frame.encode(), Err(WireError::TooLarge(_))));
        let mut sink = Vec::new();
        assert!(
            matches!(write_frame(&mut sink, frame), Err(WireError::TooLarge(_))),
            "write_frame must refuse before touching the stream"
        );
        assert!(sink.is_empty(), "no bytes may reach the wire");
    }

    #[test]
    fn oversized_payload_is_refused_at_encode_time() {
        // Full-width words, one u64 past the cap with the fixed fields:
        // the sender must refuse, because every receiver would reject
        // the frame as TooLarge anyway.
        assert_refused_before_any_byte(&big_group(MAX_PAYLOAD as usize / 8, u64::MAX));
    }

    #[test]
    fn oversized_unpacked_payload_is_refused_at_encode_time() {
        // The same block at one bit an element packs to 4 MiB, far under
        // the cap on the wire — but the receiver would have to unpack it
        // to 256 MiB, so the cap bounds that size too.
        assert_refused_before_any_byte(&big_group(MAX_PAYLOAD as usize / 8, 1));
        // Just inside the cap it goes out, and at its packed size.
        let words = MAX_PAYLOAD as usize / 8 - 64;
        let bytes = big_group(words, 1).encode().unwrap();
        assert!(bytes.len() < words / 8 + 64, "{} bytes", bytes.len());
    }

    #[test]
    fn corrupted_array_count_is_rejected_without_allocation() {
        let mut bytes = chunk_of(vec![4, 5, 6]).encode().unwrap();
        let count_at = CHUNK_ARRAY_AT;
        bytes[count_at..count_at + 4].copy_from_slice(&0x00ff_ffffu32.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn narrow_array_with_a_huge_count_is_refused_without_allocation() {
        // One bit an element makes a huge count cheap to claim: 2^31
        // elements are 256 MiB packed but 16 GiB unpacked. The unpacked
        // bound refuses the count itself, whatever bytes follow it.
        let mut bytes = chunk_of(vec![1, 0, 1]).encode().unwrap();
        assert_eq!(bytes[CHUNK_ARRAY_AT + 4], 1, "a one-bit array");
        for count in [u32::MAX, 1 << 31, MAX_PAYLOAD / 8 + 1] {
            bytes[CHUNK_ARRAY_AT..CHUNK_ARRAY_AT + 4].copy_from_slice(&count.to_le_bytes());
            assert!(
                matches!(Frame::decode(&bytes), Err(WireError::TooLarge(_))),
                "count {count}"
            );
            assert!(matches!(
                read_frame(&mut &bytes[..]),
                Err(WireError::TooLarge(_))
            ));
        }
    }

    #[test]
    fn arrays_roundtrip_at_every_width_class() {
        let mut g = Gen(0x71d7_4c1a);
        for bits in 0..=64u32 {
            let width = bits.max(1).next_power_of_two();
            let per = (64 / width) as usize;
            // Empty, shorter than a word, and every side of a word edge.
            for len in [0, 1, 2, 3, per - 1, per, per + 1, 3 * per - 1, 3 * per, 130] {
                let mut digests: Vec<u64> = (0..len).map(|_| g.next() & mask(bits)).collect();
                if let Some(last) = digests.last_mut() {
                    // Pin the class: the top bit of the width is in use
                    // (bit 63 itself when bits = 64).
                    *last |= mask(bits) ^ mask(bits.saturating_sub(1));
                }
                let frame = chunk_of(digests);
                let bytes = frame.encode().unwrap();
                let class = if len == 0 { 1 } else { width };
                assert_eq!(u32::from(bytes[CHUNK_ARRAY_AT + 4]), class, "bits {bits}");
                let words = len.div_ceil((64 / class) as usize);
                assert_eq!(
                    bytes.len(),
                    CHUNK_ARRAY_AT + 4 + 1 + words * 8,
                    "{len} elements of {bits} bits"
                );
                let (back, used) = Frame::decode(&bytes).unwrap();
                assert_eq!(used, bytes.len());
                assert_eq!(back, frame, "{len} elements of {bits} bits");
            }
        }
    }

    #[test]
    fn one_bit_dispatch_travels_at_one_bit_per_lane_cycle() {
        // The benchmark's wire_bound job: 2048 stimulus × 16 cycles ×
        // 8 one-bit lanes. 2 MiB of frame words, 32 KiB on the wire.
        let mut g = Gen(0xb17);
        let frames: Vec<u64> = (0..2048 * 16 * 8).map(|_| g.next() & 1).collect();
        let frame = Frame::RunGroup(GroupDispatch {
            batch: 1,
            group: 0,
            tid0: 0,
            len: 2048,
            frames,
            resume_cycle: 0,
            resume_image: Vec::new(),
        });
        let bytes = frame.encode().unwrap();
        let fixed = HEADER + (8 + 4 + 8 + 4) + (4 + 1) + 8 + 4;
        assert_eq!(bytes.len(), fixed + 2048 * 16 * 8 / 8);
        assert!(bytes.len() <= 33 << 10);
        assert_eq!(Frame::decode(&bytes).unwrap().0, frame);
    }

    #[test]
    fn malformed_packed_arrays_error_specifically() {
        // Five 4-bit elements: one word, its top 44 bits padding.
        let good = chunk_of(vec![9, 1, 2, 3, 4]).encode().unwrap();
        let class_at = CHUNK_ARRAY_AT + 4;
        assert_eq!(good[class_at], 4);
        assert_eq!(good.len(), class_at + 1 + 8);

        for class in [0u8, 3, 5, 12, 63, 65, 128, 255] {
            let mut bad = good.clone();
            bad[class_at] = class;
            assert!(
                matches!(Frame::decode(&bad), Err(WireError::Malformed(_))),
                "class {class} is not a width"
            );
        }

        // A set bit in the padding: the array would have two encodings.
        for bit in [5 * 4, 63] {
            let mut bad = good.clone();
            bad[class_at + 1 + bit / 8] |= 1 << (bit % 8);
            assert!(
                matches!(Frame::decode(&bad), Err(WireError::Malformed(_))),
                "padding bit {bit}"
            );
        }

        // A class the words do not match: too few words is a truncation,
        // too many leaves trailing bytes.
        let mut wider = good.clone();
        wider[class_at] = 64;
        assert!(matches!(
            Frame::decode(&wider),
            Err(WireError::Truncated { .. })
        ));
        let mut narrower = chunk_of(vec![u64::MAX; 5]).encode().unwrap();
        narrower[class_at] = 4;
        assert!(matches!(
            Frame::decode(&narrower),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn corrupted_image_count_is_rejected_without_allocation() {
        let frame = Frame::Checkpoint(CheckpointUpdate {
            batch: 1,
            group: 2,
            tid0: 3,
            cycle: 4,
            image: vec![9, 9, 9],
        });
        let mut bytes = frame.encode().unwrap();
        // The image byte count lives after batch(8)+group(4)+tid0(8)+cycle(8).
        let count_at = 11 + 8 + 4 + 8 + 8;
        bytes[count_at..count_at + 4].copy_from_slice(&0x00ff_ffffu32.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn boundary_frames_roundtrip_and_survive_fuzzing() {
        let mut g = Gen(0xb0_0d41);
        for case in 0..200 {
            let frame = Frame::Boundary(BoundaryFrame {
                batch: g.next(),
                group: g.next() as u32,
                part: g.below(8) as u32,
                epoch: g.below(4) as u32,
                cycle: g.next(),
                payload: g.bytes(512),
            });
            let bytes = frame.encode().unwrap();
            let (back, used) = Frame::decode(&bytes).unwrap();
            assert_eq!(used, bytes.len(), "case {case}");
            assert_eq!(back, frame, "case {case}");
            // Every truncation errors, never panics.
            for cut in 0..bytes.len() {
                assert!(Frame::decode(&bytes[..cut]).is_err());
            }
            // Single-byte corruption never panics either.
            for i in 0..bytes.len() {
                let mut bad = bytes.clone();
                bad[i] ^= 0x41;
                let _ = Frame::decode(&bad);
                let _ = read_frame(&mut &bad[..]);
            }
        }
        // A corrupted payload count fails the honest length check.
        let bytes = Frame::Boundary(BoundaryFrame {
            batch: 1,
            group: 2,
            part: 0,
            epoch: 0,
            cycle: 3,
            payload: vec![7; 16],
        })
        .encode()
        .unwrap();
        let mut bad = bytes;
        // The payload byte count lives after batch(8)+group(4)+part(4)+epoch(4)+cycle(8).
        let count_at = 11 + 8 + 4 + 4 + 4 + 8;
        bad[count_at..count_at + 4].copy_from_slice(&0x00ff_ffffu32.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bad),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn v2_decoder_rejects_v3_frames_with_a_structured_error() {
        // The version gate sits in front of the kind byte, so a peer
        // speaking v2 reports every v3 frame as BadVersion — it never
        // reaches the (to it, unknown) kind and never panics. Simulate
        // the converse here: a v3 frame stamped with a v2 header must be
        // rejected by this decoder as BadVersion(2).
        let frame = Frame::Boundary(BoundaryFrame {
            batch: 42,
            group: 1,
            part: 2,
            epoch: 0,
            cycle: 99,
            payload: vec![0xab; 24],
        });
        let mut bytes = frame.encode().unwrap();
        bytes[4..6].copy_from_slice(&2u16.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(WireError::BadVersion(2))
        ));
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(WireError::BadVersion(2))
        ));
    }

    #[test]
    fn v3_decoder_rejects_v4_frames_with_a_structured_error() {
        // Same gate, one version on: v4 changed how arrays are laid out
        // under kinds v3 already knew, so a v3 peer that got as far as
        // the payload would misread it. It never does — the header
        // version stops it first. Simulated by the converse, as above.
        let mut bytes = chunk_of(vec![1, 0, 1, 1]).encode().unwrap();
        bytes[4..6].copy_from_slice(&3u16.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(WireError::BadVersion(3))
        ));
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(WireError::BadVersion(3))
        ));
    }

    #[test]
    fn trailing_garbage_in_payload_is_malformed() {
        let mut bytes = Frame::Heartbeat { seq: 9 }.encode().unwrap();
        // Grow the payload by one byte and fix up the length prefix.
        bytes.push(0);
        let plen = (bytes.len() - HEADER) as u32;
        bytes[7..11].copy_from_slice(&plen.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(WireError::Malformed(_))
        ));
    }
}
