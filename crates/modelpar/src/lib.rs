//! Model-parallel co-simulation of one design cut into K parts.
//!
//! `partition::modelcut` decides *what* runs where; this crate makes the
//! parts executable and keeps them bit-identical to the monolithic
//! simulation:
//!
//! * [`subdesign`] — extract a standalone [`rtlir::Design`] for one
//!   [`partition::ModelPart`]: only the part's processes and the
//!   variables they touch survive (so the per-part device footprint
//!   genuinely shrinks), boundary imports become input ports, and
//!   non-local state loses its `is_state` flag so commit never clobbers
//!   an applied boundary value.
//! * [`boundary`] — the packed per-cycle exchange format: 1-bit nets are
//!   bit-transposed 64 stimuli per word (via [`cudasim::pack_bit_lanes`]),
//!   wider nets are width-bucketed little-endian, in sorted parent
//!   variable order so every part derives the same layout independently.
//! * [`engine`] — a compiled [`PartEngine`] whose cycle is split into
//!   three phases: `pre` (kernels provably independent of remote state —
//!   safe to run while the previous cycle's boundary frame is still in
//!   flight), `mid` (remote-tainted kernels + ff + commit, run after the
//!   imports are applied), and `post` (the pass-2 re-settle).
//! * [`sim`] — an in-process K-part co-simulator used by the determinism
//!   tests and the CLI's verify path; the cluster controller/worker wire
//!   the same engines across TCP.
//!
//! Determinism contract: for any K, the folded per-stimulus output
//! digests equal `Flow::simulate_sharded`'s bit for bit.

pub mod boundary;
pub mod engine;
pub mod sim;
pub mod subdesign;

pub use boundary::BoundaryCodec;
pub use engine::{ImportLink, PartEngine};
pub use sim::{fold_digest, simulate_modelpar};
pub use subdesign::{build_subdesign, SubDesign};
