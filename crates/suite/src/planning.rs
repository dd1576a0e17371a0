//! The canonical plan-measurement harness.
//!
//! One definition of "measure a split's overhead" shared by everything
//! that verifies budgets — `hps split`'s planner mode and the suite's plan
//! goldens, which the CI `plan` job runs — so their numbers agree byte for
//! byte:
//!
//! * the workload is the benchmark's **first** listed size scaled down to
//!   [`PLAN_SCALE`]th (floor [`PLAN_FLOOR`]), workload seed 1 — the same
//!   shape as the Table 5 smoke runs;
//! * transport is **batched** at the LAN round trip of the deterministic
//!   cost model, with a telemetry recorder attached;
//! * the original and split outputs are compared and divergence is an
//!   error, so a measured plan is also an equivalence check;
//! * the original runs once per plan ([`PlanMeasurer`]), not once per
//!   level of the budget search.

use crate::Benchmark;
use hps_audit::{PlanError, PlanReport, Planner};
use hps_core::SplitResult;
use hps_ir::Program;
use hps_runtime::telemetry::metrics::names;
use hps_runtime::{run_program, Executor, MetricsRecorder, Outcome, RtValue, COST_MODEL};
use hps_security::MeasuredCost;
use std::cell::OnceCell;

/// Divisor applied to the benchmark's first workload size for plan
/// measurement.
pub const PLAN_SCALE: usize = 10;

/// Smallest workload size plan measurement will use.
pub const PLAN_FLOOR: usize = 30;

/// The canonical measurement workload for a benchmark.
pub fn plan_workload(b: &Benchmark) -> RtValue {
    let (_, size) = b.workloads()[0];
    b.workload((size / PLAN_SCALE).max(PLAN_FLOOR), 1)
}

/// The plan measurer: runs splits of one program on fixed entry
/// arguments and compares each split's output with the original's.
/// A planner measures splits of one unchanged program, so the original
/// runs once, on the first call. Every run gets its own deep copy of the
/// arguments: arrays are shared-mutable, and no run may see another's
/// writes.
pub struct PlanMeasurer<'p> {
    program: &'p Program,
    args: Vec<RtValue>,
    original: OnceCell<Outcome>,
}

impl<'p> PlanMeasurer<'p> {
    /// A measurer for splits of `program` on `args`; nothing runs yet.
    pub fn new(program: &'p Program, args: Vec<RtValue>) -> PlanMeasurer<'p> {
        PlanMeasurer {
            program,
            args,
            original: OnceCell::new(),
        }
    }

    fn fresh_args(&self) -> Vec<RtValue> {
        self.args.iter().map(RtValue::deep_clone).collect()
    }

    /// Runs `split` batched at LAN rtt with telemetry and returns the
    /// virtual-cost breakdown. Output divergence is an `Err`.
    pub fn measure(&self, split: &SplitResult) -> Result<MeasuredCost, String> {
        let before = match self.original.get() {
            Some(before) => before,
            None => {
                let before = run_program(self.program, &self.fresh_args())
                    .map_err(|e| format!("original run failed: {e}"))?;
                self.original.get_or_init(|| before)
            }
        };
        let rtt = COST_MODEL.lan_round_trip();
        let after = Executor::new(&split.open, &split.hidden)
            .batching(true)
            .rtt(rtt)
            .recorder(MetricsRecorder::new())
            .run(&self.fresh_args())
            .map_err(|e| format!("split run failed: {e}"))?;
        if before.output != after.outcome.output {
            return Err(format!(
                "outputs diverged: original {:?} vs split {:?}",
                before.output, after.outcome.output
            ));
        }
        Ok(MeasuredCost {
            base_units: before.cost,
            split_units: after.outcome.cost,
            rtt_units: after.telemetry.counter(names::RTT_COST_UNITS),
            server_units: after.telemetry.counter(names::SERVER_COST_UNITS),
            interactions: after.interactions,
        })
    }
}

/// Measures one split against its original on `input`: a one-shot
/// [`PlanMeasurer`], running the original too.
pub fn measure_split(
    program: &Program,
    split: &SplitResult,
    input: &RtValue,
) -> Result<MeasuredCost, String> {
    PlanMeasurer::new(program, vec![input.clone()]).measure(split)
}

/// Plans one benchmark the canonical way: automatic targets under the
/// default seed rule, measured on [`plan_workload`], with the given
/// budget and hardening switches. This is exactly what
/// `hps split <bench> --budget B --harden` and the CI plan gate run.
pub fn plan_benchmark(
    b: &Benchmark,
    budget_percent: Option<f64>,
    harden: bool,
) -> Result<PlanReport, PlanError> {
    let program = b
        .program()
        .map_err(|e| PlanError::Measure(format!("benchmark parse failed: {e}")))?;
    let measurer = PlanMeasurer::new(&program, vec![plan_workload(b)]);
    let mut planner = Planner::new(&program)
        .harden(harden)
        .measure_with(move |_, split| measurer.measure(split));
    if let Some(budget) = budget_percent {
        planner = planner.budget(budget);
    }
    planner.plan()
}
