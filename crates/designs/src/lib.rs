//! Benchmark designs used throughout the RTLflow reproduction.
//!
//! The paper evaluates three industrial designs; we provide functionally
//! analogous designs written in (or generated into) the `rtlir` Verilog
//! subset:
//!
//! * riscv-mini ([`riscv_mini_source`]) — a single-cycle RV32I-subset CPU
//!   (register file, ALU, branch unit, data memory), analogous to
//!   ucb-bar/riscv-mini.
//! * Spinal ([`spinal_source`]) — a 3-stage pipelined RV-style core with
//!   forwarding and a 2-bit branch predictor, analogous to the
//!   VexRiscv/Spinal benchmark.
//! * NVDLA ([`nvdla_source`]) — a parametric deep-learning-accelerator generator
//!   (systolic MAC array, accumulators, activation unit, CSR block),
//!   analogous to NVDLA `hw_small`. Its size scales with the chosen
//!   [`NvdlaConfig`] so partitioning experiments have real structure to
//!   chew on.

mod handshake;
mod nvdla;
mod riscv_mini;
mod spinal;

pub use handshake::{handshake_source, handshake_source_with, HandshakeConfig};
pub use nvdla::{nvdla_source, NvdlaConfig};
pub use riscv_mini::riscv_mini_source;
pub use spinal::spinal_source;

use rtlir::{Design, Result};

/// The benchmark designs of the paper's evaluation (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    RiscvMini,
    Spinal,
    /// NVDLA at a given scale.
    Nvdla(NvdlaScale),
    /// The vendored picorv32 Yosys-JSON netlist fixture (gate-level; enters
    /// through the `netlist` frontend rather than the Verilog parser).
    Picorv32,
    /// Control-heavy handshake ring: almost all 1-bit signals, dense
    /// FSM/handshake logic (the bit-transposed executor's best case).
    Handshake,
}

/// Size presets for the NVDLA generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NvdlaScale {
    /// Tiny instance for unit tests (2x2 PEs, 1 core).
    Tiny,
    /// Small instance for fast experiments (4x4 PEs, 2 cores).
    Small,
    /// The default evaluation scale (8x8 PEs, 4 cores), standing in for
    /// the paper's `hw_small` configuration.
    HwSmall,
}

impl Benchmark {
    /// Canonical name used in tables and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Benchmark::RiscvMini => "riscv-mini",
            Benchmark::Spinal => "Spinal",
            Benchmark::Nvdla(_) => "NVDLA",
            Benchmark::Picorv32 => "picorv32",
            Benchmark::Handshake => "handshake",
        }
    }

    /// Top-level module name.
    pub fn top(&self) -> &'static str {
        match self {
            Benchmark::RiscvMini => "riscv_mini",
            Benchmark::Spinal => "spinal_cpu",
            Benchmark::Nvdla(_) => "nvdla_top",
            Benchmark::Picorv32 => "picorv32",
            Benchmark::Handshake => "handshake_ring",
        }
    }

    /// Design source for this benchmark: Verilog subset text, except
    /// picorv32 which is a Yosys JSON netlist ([`netlist::load_design`]
    /// dispatches on the format).
    pub fn source(&self) -> String {
        match self {
            Benchmark::RiscvMini => riscv_mini_source(),
            Benchmark::Spinal => spinal_source(),
            Benchmark::Nvdla(scale) => nvdla_source(&NvdlaConfig::preset(*scale)),
            Benchmark::Picorv32 => netlist::PICORV32_JSON.to_string(),
            Benchmark::Handshake => handshake_source(),
        }
    }

    /// Parse + elaborate this benchmark (through the matching frontend).
    pub fn elaborate(&self) -> Result<Design> {
        netlist::load_design(&self.source(), self.top())
    }

    /// All three paper benchmarks at their evaluation scales.
    pub fn all() -> [Benchmark; 3] {
        [
            Benchmark::RiscvMini,
            Benchmark::Spinal,
            Benchmark::Nvdla(NvdlaScale::HwSmall),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_elaborate() {
        for b in [
            Benchmark::RiscvMini,
            Benchmark::Spinal,
            Benchmark::Nvdla(NvdlaScale::Tiny),
            Benchmark::Handshake,
        ] {
            let d = b
                .elaborate()
                .unwrap_or_else(|e| panic!("{}: {e}", b.name()));
            assert!(!d.inputs.is_empty(), "{} has no inputs", b.name());
            assert!(!d.outputs.is_empty(), "{} has no outputs", b.name());
            assert!(d.clock.is_some(), "{} has no clock", b.name());
        }
    }

    #[test]
    fn picorv32_elaborates_through_netlist_frontend() {
        let d = Benchmark::Picorv32.elaborate().unwrap();
        assert_eq!(d.name, "picorv32");
        assert!(d.clock.is_some());
        assert!(!d.inputs.is_empty());
        rtlir::RtlGraph::build(&d).unwrap();
    }

    #[test]
    fn benchmarks_have_graphs() {
        for b in [
            Benchmark::RiscvMini,
            Benchmark::Spinal,
            Benchmark::Nvdla(NvdlaScale::Tiny),
            Benchmark::Handshake,
        ] {
            let d = b.elaborate().unwrap();
            let g = rtlir::RtlGraph::build(&d).unwrap_or_else(|e| panic!("{}: {e}", b.name()));
            assert!(g.depth() >= 2, "{} suspiciously shallow", b.name());
        }
    }

    #[test]
    fn nvdla_scales_monotonically() {
        let tiny = Benchmark::Nvdla(NvdlaScale::Tiny).elaborate().unwrap();
        let small = Benchmark::Nvdla(NvdlaScale::Small).elaborate().unwrap();
        assert!(small.processes.len() > tiny.processes.len());
        assert!(small.vars.len() > tiny.vars.len());
    }
}
