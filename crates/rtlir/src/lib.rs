//! `rtlir` — a from-scratch frontend for a synthesizable subset of Verilog.
//!
//! The crate provides the substrate that RTLflow's transpilation flow builds
//! on (the original paper reuses Verilator's frontend; we implement our own):
//!
//! * [`lexer`] / [`parser`] — Verilog source → [`ast`] (module list).
//! * [`elab`] — hierarchy elaboration: parameter resolution, module
//!   flattening, width inference, producing a flat [`elab::Design`] of
//!   variables and processes.
//! * [`graph`] — the *RTL graph*: one node per process, edges for
//!   producer/consumer signal dependencies, levelization of combinational
//!   logic and combinational-loop detection.
//! * [`interp`] — a cycle-accurate golden-reference interpreter used to
//!   validate every other execution engine in the workspace.
//! * [`value`] — arbitrary-width two-state bit vectors with Verilog
//!   semantics (truncation, zero extension, wrapping arithmetic).
//!
//! # Supported language subset
//!
//! Modules with ANSI or non-ANSI ports, `wire`/`reg`/`output reg`
//! declarations with packed ranges, 1-D unpacked `reg` arrays (memories),
//! `parameter`/`localparam` with instantiation overrides, continuous
//! `assign`, `always @(*)` with blocking assignments, `always @(posedge
//! clk)` with non-blocking assignments, `if`/`else`, `case` and `casez`
//! (with `?`/`x`/`z` wildcard labels), constant-bound procedural `for`
//! loops (unrolled), `genvar`/`generate for` blocks (unrolled, with
//! disjoint-slice bus drivers across iterations), the usual
//! unary/binary/ternary operators, bit/part/index selects, concatenation
//! and replication, and sized/unsized literals.
//!
//! Four-state logic (`x`/`z`) is intentionally out of scope: like
//! Verilator, this is a two-state full-cycle simulation stack.

pub mod ast;
pub mod elab;
pub mod error;
pub mod graph;
pub mod interp;
pub mod lexer;
pub mod opt;
pub mod parser;
pub mod token;
pub mod value;
pub mod vcd;

pub use ast::SourceUnit;
pub use elab::{Design, ProcessKind, VarId};
pub use error::{Error, Result};
pub use graph::RtlGraph;
pub use interp::Interp;
pub use value::BitVec;

/// Parse Verilog source text into an AST.
///
/// Convenience wrapper over [`lexer::Lexer`] + [`parser::Parser`].
pub fn parse(src: &str) -> Result<SourceUnit> {
    let tokens = lexer::Lexer::new(src).lex()?;
    parser::Parser::new(tokens).parse_source_unit()
}

/// Parse and elaborate `src`, using `top` as the top-level module.
pub fn elaborate(src: &str, top: &str) -> Result<Design> {
    let unit = parse(src)?;
    elab::Elaborator::new(&unit).elaborate(top)
}

/// Stable structural fingerprint of a design — the warm-engine-cache key
/// used by both `serve` and `cluster`. Two independently elaborated
/// copies of the same RTL hash identically, so a cluster worker can
/// cross-check a shipped design against the controller's key.
pub fn design_hash(design: &Design) -> u64 {
    // FNV-1a over the debug rendering: the Debug form covers every var,
    // process and statement, so structural changes always change the key.
    let repr = format!("{design:?}");
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in repr.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
