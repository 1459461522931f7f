//! The serving layer's two external contracts:
//!
//! 1. **Coalescing is bit-invisible.** N jobs submitted concurrently and
//!    packed into one launch return digests bit-identical to N standalone
//!    `Flow::simulate` runs of the same specs.
//! 2. **Backpressure is honest.** Past the in-flight limit, submits are
//!    rejected immediately with a positive retry-after — and a retrying
//!    client eventually gets through.

use std::sync::Arc;
use std::time::Duration;

use rtlflow::{
    DeadlineClass, Flow, JobSpec, PipelineConfig, PortMap, RandomSource, ServeConfig, SimService,
    SubmitError,
};

fn accumulator_flow() -> Flow {
    let v = "module top(input clk, input rst, input [7:0] a, input [7:0] b, output [7:0] q);
               reg [7:0] acc;
               always @(posedge clk) begin
                 if (rst) acc <= 8'd0; else acc <= acc + (a ^ b);
               end
               assign q = acc;
             endmodule";
    Flow::from_verilog(v, "top").expect("elaborate accumulator")
}

#[test]
fn coalesced_jobs_are_bit_identical_to_standalone_flow_runs() {
    let flow = accumulator_flow();
    let design = Arc::new(flow.design.clone());
    let map = PortMap::from_design(&design);
    const CYCLES: u64 = 60;
    // Distinct (stimulus count, seed) per job: coalescing must keep each
    // job's own indices and seed intact.
    let specs: [(usize, u64); 4] = [(7, 0xA1), (16, 0xB2), (3, 0xC3), (24, 0xD4)];

    // Standalone references straight through the flow, no service.
    let expected: Vec<Vec<u64>> = specs
        .iter()
        .map(|&(n, seed)| {
            let source = RandomSource::new(&map, n, seed);
            flow.simulate(&source, CYCLES, &PipelineConfig::default())
                .expect("standalone run")
                .digests
        })
        .collect();

    // The same four jobs, submitted concurrently; a 1 s window (quiet
    // period 250 ms, longer than any gap between the four submits) with a
    // roomy max batch guarantees they ride one coalesced launch.
    let service = SimService::start(ServeConfig {
        max_batch: 4096,
        window: Duration::from_secs(1),
        workers: 2,
        ..Default::default()
    });
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .iter()
            .map(|&(n, seed)| {
                let design = Arc::clone(&design);
                let map = &map;
                let service = &service;
                scope.spawn(move || {
                    let spec =
                        JobSpec::new(design, Box::new(RandomSource::new(map, n, seed)), CYCLES);
                    service
                        .submit(spec)
                        .expect("under the limit")
                        .wait()
                        .expect("job completes")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    for ((result, want), &(n, seed)) in results.iter().zip(&expected).zip(&specs) {
        assert_eq!(result.digests.len(), n);
        assert_eq!(
            &result.digests, want,
            "job (n={n}, seed={seed:#x}) must be bit-identical to its standalone run"
        );
        assert_eq!(
            result.batch_jobs, 4,
            "all four jobs must have shared one coalesced launch"
        );
        assert_eq!(result.batch_stimulus, 7 + 16 + 3 + 24);
    }

    let metrics = service.shutdown();
    assert_eq!(metrics.jobs_completed, 4);
    assert_eq!(metrics.dispatches, 1);
    assert!((metrics.coalescing_efficiency() - 0.75).abs() < 1e-12);
}

#[test]
fn over_limit_submits_reject_with_retry_after() {
    let flow = accumulator_flow();
    let design = Arc::new(flow.design.clone());
    let map = PortMap::from_design(&design);
    // A wide-open window keeps admitted jobs in flight (windowed, not
    // completed), so the in-flight limit binds deterministically.
    let service = SimService::start(ServeConfig {
        queue_limit: 2,
        window: Duration::from_secs(300),
        workers: 1,
        ..Default::default()
    });
    let spec = |seed: u64| {
        JobSpec::new(
            Arc::clone(&design),
            Box::new(RandomSource::new(&map, 4, seed)),
            30,
        )
        .with_class(DeadlineClass::Bulk)
    };

    let h1 = service.submit(spec(1)).expect("first fits");
    let h2 = service.submit(spec(2)).expect("second fits");
    let rejected = match service.submit(spec(3)) {
        Err(SubmitError::Full(r)) => r,
        Err(SubmitError::Invalid(m)) => panic!("a well-formed spec must not be invalid: {m}"),
        Ok(_) => panic!("third submit must be rejected at in-flight limit 2"),
    };
    assert_eq!(rejected.depth, 2);
    assert!(
        rejected.retry_after > Duration::ZERO,
        "retry-after must be actionable"
    );
    assert!(
        rejected.to_string().contains("retry after"),
        "rejection message should carry the hint: {rejected}"
    );

    // Shutdown drains the windowed jobs; the rejected one never ran.
    let metrics = service.shutdown();
    assert_eq!(metrics.jobs_accepted, 2);
    assert_eq!(metrics.jobs_rejected, 1);
    assert_eq!(metrics.jobs_completed, 2);
    assert!(h1.wait().is_ok());
    assert!(h2.wait().is_ok());
}
