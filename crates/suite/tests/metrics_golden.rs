//! Golden telemetry snapshots for the five benchmark programs.
//!
//! Every benchmark is split with the full paper pipeline and executed
//! through [`hps_runtime::Executor`] with a recorder attached (batched
//! transport, rtt = 10 so the round-trip counters are non-trivial); the
//! serialized `hps-telemetry/v1` snapshot must match the checked-in golden
//! byte-for-byte. Because the recorder observes only *virtual* quantities
//! (no wall-clock anywhere in the document), the snapshot is exactly
//! reproducible — any drift is a real behaviour change to review, not
//! noise.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! HPS_UPDATE_GOLDEN=1 cargo test -p hps-suite --test metrics_golden
//! ```

use hps_core::{split_program, SplitPlan};
use hps_runtime::telemetry::metrics::names;
use hps_runtime::{ExecReport, Executor, MetricsRecorder};
use std::path::PathBuf;

fn paper_plan(program: &hps_ir::Program) -> SplitPlan {
    hps_security::default_targets(program, hps_security::SeedRule::CostRestricted)
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("goldens/metrics")
        .join(format!("{name}.json"))
}

/// One recorded batched run of a benchmark, the way the goldens were made.
fn recorded_run(b: &hps_suite::Benchmark) -> ExecReport {
    let program = b.program().expect("parses");
    let split = split_program(&program, &paper_plan(&program)).expect("splits");
    Executor::new(&split.open, &split.hidden)
        .batching(true)
        .rtt(10)
        .recorder(MetricsRecorder::new())
        .run(&[b.workload(600, 77)])
        .expect("split run")
}

#[test]
fn metrics_snapshots_match_goldens() {
    let update = std::env::var_os("HPS_UPDATE_GOLDEN").is_some();
    for b in hps_suite::benchmarks() {
        let rendered = recorded_run(&b).snapshot().to_json_string();

        let path = golden_path(b.name);
        if update {
            std::fs::create_dir_all(path.parent().unwrap()).expect("mkdir");
            std::fs::write(&path, &rendered).expect("write golden");
            continue;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: missing golden {} ({e}); regenerate with HPS_UPDATE_GOLDEN=1",
                b.name,
                path.display()
            )
        });
        assert_eq!(
            rendered,
            golden,
            "{}: telemetry snapshot drifted from {}; regenerate with \
             HPS_UPDATE_GOLDEN=1 if the change is intentional",
            b.name,
            path.display()
        );
    }
}

#[test]
fn snapshots_are_byte_for_byte_reproducible() {
    // Two fresh runs of the same benchmark serialize identically — the
    // document carries no timestamps, addresses or iteration-order
    // artifacts. This is the property that makes golden-pinning sane.
    for b in hps_suite::benchmarks() {
        let first = recorded_run(&b).snapshot().to_json_string();
        let second = recorded_run(&b).snapshot().to_json_string();
        assert_eq!(first, second, "{}: snapshot is not reproducible", b.name);
    }
}

#[test]
fn snapshot_counters_cross_check_the_report() {
    // The telemetry aggregates must agree with the independently-kept
    // report fields: the channel's interaction counter, the server's cost
    // meter, and — in-process, where no frame is ever lost — one fragment
    // executed per logical call.
    for b in hps_suite::benchmarks() {
        let report = recorded_run(&b);
        let m = &report.telemetry;
        assert_eq!(
            m.counter(names::INTERACTIONS),
            report.interactions,
            "{}: interactions counter drifted from the channel",
            b.name
        );
        assert_eq!(
            m.counter(names::SERVER_COST_UNITS),
            report.server_cost,
            "{}: server cost counter drifted from the meter",
            b.name
        );
        assert_eq!(
            m.counter(names::CALLS),
            m.counter(names::FRAGMENTS),
            "{}: in-process call/fragment counts must pair up",
            b.name
        );
    }
}
