//! Frontend equivalence: a design entering through the Yosys-JSON netlist
//! importer must be bit-identical to the same design entering through the
//! Verilog subset parser — across the scalar oracle and the fused engine
//! (serial and block-parallel), with the pattern rewriter on or off — and the
//! picorv32 netlist fixture must match the golden interpreter running on
//! the un-rewritten import.

use rtlflow::{ExecConfig, Flow, Interp, PipelineConfig, PortMap};

/// The Verilog twin of `crates/netlist/fixtures/counter.json`.
const COUNTER_V: &str = "module counter(input clk, input rst, output [7:0] q, output wrap);
  reg [7:0] cnt;
  assign q = cnt;
  assign wrap = (cnt == 8'hf0);
  always @(posedge clk) begin
    if (rst || wrap) cnt <= 8'd0;
    else cnt <= cnt + 8'd1;
  end
endmodule
";

fn exec_configs() -> [(&'static str, ExecConfig); 3] {
    [
        ("scalar", ExecConfig::scalar()),
        ("fused", ExecConfig::fused(1)),
        ("fused:2", ExecConfig::fused(2)),
    ]
}

fn digests(flow: &Flow, n: usize, cycles: u64, exec: &ExecConfig) -> Vec<u64> {
    let map = PortMap::from_design(&flow.design);
    let source = stimulus::source_for(&flow.design, &map, n, 0xfe11);
    let cfg = PipelineConfig {
        exec: *exec,
        group_size: (n / 2).max(1),
        ..Default::default()
    };
    flow.simulate(source.as_ref(), cycles, &cfg)
        .unwrap()
        .digests
}

#[test]
fn counter_frontends_agree_across_executors() {
    let flow_v = Flow::from_verilog(COUNTER_V, "counter").unwrap();
    let flow_j = Flow::from_source(netlist::COUNTER_JSON, "counter").unwrap();
    // Rewritten netlist flow: the wide-add recognition must not change
    // behaviour either.
    let (mut d_rw, _) = netlist::import_str(netlist::COUNTER_JSON, "counter").unwrap();
    let st = netlist::rewrite(&mut d_rw);
    assert!(st.adders_widened >= 1, "{st:?}");
    let flow_r = Flow::from_design(
        d_rw,
        rtlflow::PartitionStrategy::PerLevel,
        rtlflow::GpuModel::default(),
    )
    .unwrap();

    for (label, exec) in &exec_configs() {
        let dv = digests(&flow_v, 32, 300, exec);
        let dj = digests(&flow_j, 32, 300, exec);
        let dr = digests(&flow_r, 32, 300, exec);
        assert_eq!(dv, dj, "verilog vs netlist frontend diverge under {label}");
        assert_eq!(dv, dr, "rewritten netlist diverges under {label}");
    }
}

#[test]
fn picorv32_executors_match_unrewritten_interpreter() {
    let (reference, _) = netlist::import_str(netlist::PICORV32_JSON, "picorv32").unwrap();
    let (mut rewritten, _) = netlist::import_str(netlist::PICORV32_JSON, "picorv32").unwrap();
    let st = netlist::rewrite(&mut rewritten);
    assert!(st.reduction_pct() > 50.0, "{st:?}");
    let flow = Flow::from_design(
        rewritten,
        rtlflow::PartitionStrategy::PerLevel,
        rtlflow::GpuModel::default(),
    )
    .unwrap();

    let (n, cycles) = (24usize, 40u64);
    let map = PortMap::from_design(&flow.design);
    let source = stimulus::source_for(&flow.design, &map, n, 0x5eed);

    let mut all: Vec<Vec<u64>> = Vec::new();
    for (_, exec) in &exec_configs() {
        let cfg = PipelineConfig {
            exec: *exec,
            ..Default::default()
        };
        all.push(
            flow.simulate(source.as_ref(), cycles, &cfg)
                .unwrap()
                .digests,
        );
    }
    assert_eq!(all[0], all[1], "scalar vs fused diverge on picorv32");
    assert_eq!(all[0], all[2], "scalar vs fused:2 diverge on picorv32");

    // Golden check: interpreter on the *un-rewritten* import.
    let mut frame = vec![0u64; map.len()];
    for (s, &digest) in all[0].iter().enumerate().take(n) {
        let mut interp = Interp::new(&reference).unwrap();
        for c in 0..cycles {
            source.fill_frame(s, c, &mut frame);
            interp.step_cycle(&map.to_pokes(&frame));
        }
        assert_eq!(
            digest,
            interp.output_digest(),
            "stimulus {s}: executors diverge from the un-rewritten interpreter"
        );
    }
}

#[test]
fn rewrite_toggle_is_digest_identical() {
    let off = Flow::from_source(netlist::PICORV32_JSON, "picorv32").unwrap();
    let (mut d, _) = netlist::import_str(netlist::PICORV32_JSON, "picorv32").unwrap();
    netlist::rewrite(&mut d);
    let on = Flow::from_design(
        d,
        rtlflow::PartitionStrategy::PerLevel,
        rtlflow::GpuModel::default(),
    )
    .unwrap();
    let exec = ExecConfig::default();
    assert_eq!(
        digests(&off, 16, 60, &exec),
        digests(&on, 16, 60, &exec),
        "--rewrite on/off changes simulation results"
    );
}
