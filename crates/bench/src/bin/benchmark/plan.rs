//! The `plan-ladder` workload: budget-aware planning of four suite
//! programs, each exactly as `hps split --budget 15% --harden` plans it
//! ([`hps_suite::plan_benchmark`]), one after the other on one thread.
//! One unit of work is a rotation: all four programs planned once, calcc
//! first and the other three in an order drawn from `--seed`. Every
//! report is byte-compared with its golden `hps-plan/v2` document.
//!
//! rulekit is left out: its one measurement at plan size 50 costs about
//! 850 ms, far more than the other four plans together, and would hide
//! every planner stage. A traced `serve-openbound` run still plans it
//! ([`profile`]).

use crate::stats::{median_rate, quartiles, Samples};
use crate::{Divergence, Report, Settings};
use hps_audit::{audit_split, plan_to_json, Planner};
use hps_core::{harden_split, split_program, SplitPlan};
use hps_ir::{ComponentId, FragLabel, Program};
use hps_runtime::RtValue;
use hps_security::{
    analyze_split, predict, AcType, OptimizeLadder, PlanCostModel, SecurityReport, SeedRule,
};
use hps_suite::{measure_split, plan_benchmark, plan_workload, Benchmark};
use std::cell::Cell;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The programs a rotation plans.
pub const LADDER: [&str; 4] = ["calcc", "asmkit", "optkit", "figkit"];

/// The golden report of every program this benchmark plans.
const GOLDENS: [(&str, &str); 5] = [
    (
        "calcc",
        include_str!("../../../../suite/goldens/plans/calcc.json"),
    ),
    (
        "asmkit",
        include_str!("../../../../suite/goldens/plans/asmkit.json"),
    ),
    (
        "optkit",
        include_str!("../../../../suite/goldens/plans/optkit.json"),
    ),
    (
        "figkit",
        include_str!("../../../../suite/goldens/plans/figkit.json"),
    ),
    (
        "rulekit",
        include_str!("../../../../suite/goldens/plans/rulekit.json"),
    ),
];

/// A suite program and its golden report.
fn program(name: &str) -> (Benchmark, &'static str) {
    let golden = GOLDENS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, g)| *g)
        .expect("every planned program has a golden");
    (hps_suite::benchmark(name).expect("suite benchmark"), golden)
}

/// The overhead budget of the goldens, in percent.
pub const BUDGET: f64 = 15.0;

/// `Planner::plan`'s own backstop on ladder depth.
const MAX_LEVELS: usize = 64;

/// The rotation order for `seed`: calcc, then the other three in a
/// Fisher–Yates shuffle driven by splitmix64. calcc always comes first so
/// that a set-up, which ends with the first plan, does the same work
/// whatever the seed.
fn rotation(seed: u64) -> [usize; 4] {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order = [0, 1, 2, 3];
    for i in (2..order.len()).rev() {
        order.swap(i, 1 + (next() % i as u64) as usize);
    }
    order
}

fn check(name: &str, golden: &str, report: &hps_audit::PlanReport) -> Result<(), Divergence> {
    if plan_to_json(report).pretty() == golden {
        Ok(())
    } else {
        Err(Divergence(format!("{name}: plan differs from its golden")))
    }
}

/// Stage times of one plan, replayed from outside the planner.
#[derive(Clone, Copy, Default)]
struct Stages {
    parse: Duration,
    ladder: Duration,
    split: Duration,
    estimate: Duration,
    harden: Duration,
    audit: Duration,
    measure: Duration,
}

impl Stages {
    fn add(&mut self, o: &Stages) {
        self.parse += o.parse;
        self.ladder += o.ladder;
        self.split += o.split;
        self.estimate += o.estimate;
        self.harden += o.harden;
        self.audit += o.audit;
        self.measure += o.measure;
    }

    /// Everything `Planner::plan` does itself: all stages but parsing.
    fn in_planner(&self) -> Duration {
        self.ladder + self.split + self.estimate + self.harden + self.audit + self.measure
    }
}

/// A traced plan: the planner's wall time split by the measurer wrapped
/// around `measure_split`, and the stage replay.
#[derive(Default)]
struct Traced {
    /// Parse plus `Planner::plan`, the same work as an untraced plan.
    op: Duration,
    plan: Duration,
    measure_in_plan: Duration,
    levels: usize,
    stages: Stages,
}

fn weak_groups(security: &SecurityReport) -> Vec<(ComponentId, FragLabel)> {
    let mut groups: Vec<(ComponentId, FragLabel)> = security
        .iter()
        .filter(|c| matches!(c.ac.ty, AcType::Constant | AcType::Linear))
        .map(|c| (c.ilp.component, c.ilp.label))
        .collect();
    groups.sort();
    groups.dedup();
    groups
}

/// Replays `Planner::plan` level by level with the public stage functions,
/// in the order `Planner::finish` calls them, timing each. Returns the
/// stage times, the final plan and the number of levels visited.
fn replay(program: &Program, input: &RtValue) -> Result<(Stages, SplitPlan, usize), String> {
    /// Time since `mark`, moving `mark` to now.
    fn lap(mark: &mut Instant) -> Duration {
        let now = Instant::now();
        let took = now - *mark;
        *mark = now;
        took
    }
    let mut st = Stages::default();
    let base = PlanCostModel::default();
    let mut mark = Instant::now();
    let mut ladder = OptimizeLadder::new(program, SeedRule::default(), base.clone());
    st.ladder += lap(&mut mark);
    let mut levels = 0;
    loop {
        levels += 1;
        let outcome = ladder.outcome(None);
        st.ladder += lap(&mut mark);
        let mut split = split_program(program, &outcome.plan).map_err(|e| e.to_string())?;
        st.split += lap(&mut mark);
        let groups = weak_groups(&analyze_split(program, &split));
        st.estimate += lap(&mut mark);
        black_box(harden_split(&mut split, &groups));
        st.harden += lap(&mut mark);
        black_box(analyze_split(program, &split));
        st.estimate += lap(&mut mark);
        black_box(audit_split(program, &split));
        st.audit += lap(&mut mark);
        let measured = measure_split(program, &split, input)?;
        st.measure += lap(&mut mark);
        let model = base.calibrated(&measured);
        black_box(predict(program, &split, &model, Some(measured.base_units)));
        st.estimate += lap(&mut mark);
        let over = measured.overhead_percent() > BUDGET;
        let descended = over && ladder.level() + 1 < MAX_LEVELS && ladder.descend();
        st.ladder += lap(&mut mark);
        if !descended {
            return Ok((st, outcome.plan, levels));
        }
    }
}

/// Plans `b` with the measurer timed, then replays the plan's stages.
fn traced_plan(b: &Benchmark, golden: &str) -> Result<Traced, Divergence> {
    let started = Instant::now();
    let program = b.program().expect("suite program parses");
    let parse = started.elapsed();
    let input = plan_workload(b);
    let measuring = Cell::new(Duration::ZERO);
    let levels = Cell::new(0);
    let planner = Planner::new(&program)
        .harden(true)
        .budget(BUDGET)
        .measure_with(|prog, split| {
            let t = Instant::now();
            let measured = measure_split(prog, split, &input);
            measuring.set(measuring.get() + t.elapsed());
            levels.set(levels.get() + 1);
            measured
        });
    let t = Instant::now();
    let report = planner
        .plan()
        .map_err(|e| Divergence(format!("{}: planning failed: {e}", b.name)))?;
    let plan = t.elapsed();
    let op = started.elapsed();
    check(b.name, golden, &report)?;

    let (mut stages, final_plan, replayed) = replay(&program, &input)
        .map_err(|e| Divergence(format!("{}: stage replay failed: {e}", b.name)))?;
    if final_plan != report.plan || replayed != levels.get() {
        return Err(Divergence(format!(
            "{}: stage replay visited {replayed} levels, the planner {}",
            b.name,
            levels.get()
        )));
    }
    stages.parse = parse;
    Ok(Traced {
        op,
        plan,
        measure_in_plan: measuring.get(),
        levels: replayed,
        stages,
    })
}

/// What the rotations of one phase measured.
#[derive(Default)]
struct PhaseOut {
    op_ms: Vec<f64>,
    /// When each successful rotation ended, in seconds from the phase's
    /// start.
    done_at: Vec<f64>,
    attempted: u64,
    failed: u64,
    elapsed: Duration,
    traced: Vec<Traced>,
}

impl PhaseOut {
    /// Consecutive phases as one, on a clock that leaves out the pauses
    /// between them.
    fn concat(outs: Vec<PhaseOut>) -> PhaseOut {
        let mut all = PhaseOut::default();
        for o in outs {
            let offset = all.elapsed.as_secs_f64();
            all.op_ms.extend(o.op_ms);
            all.done_at.extend(o.done_at.iter().map(|t| t + offset));
            all.attempted += o.attempted;
            all.failed += o.failed;
            all.elapsed += o.elapsed;
            all.traced.extend(o.traced);
        }
        all
    }
}

/// Plans every program once in `order`: one unit of work.
fn rotate(
    programs: &[(Benchmark, &'static str)],
    order: &[usize; 4],
    traced: bool,
    out: &mut PhaseOut,
) -> Result<(), Divergence> {
    out.attempted += 1;
    let mut took = Duration::ZERO;
    for &i in order {
        let (b, golden) = &programs[i];
        if traced {
            let t = traced_plan(b, golden)?;
            took += t.op;
            out.traced.push(t);
            continue;
        }
        let started = Instant::now();
        let report = plan_benchmark(b, Some(BUDGET), true);
        took += started.elapsed();
        match report {
            Ok(report) => check(b.name, golden, &report)?,
            Err(e) => {
                eprintln!("[benchmark] {}: planning failed: {e}", b.name);
                out.failed += 1;
                return Ok(());
            }
        }
    }
    out.op_ms.push(took.as_secs_f64() * 1e3);
    Ok(())
}

/// Rotations back to back for `duration` (at least one).
fn phase(
    programs: &[(Benchmark, &'static str)],
    order: &[usize; 4],
    duration: Duration,
    traced: bool,
) -> Result<PhaseOut, Divergence> {
    let mut out = PhaseOut::default();
    let started = Instant::now();
    loop {
        let done = out.op_ms.len();
        rotate(programs, order, traced, &mut out)?;
        if out.op_ms.len() > done {
            out.done_at.push(started.elapsed().as_secs_f64());
        }
        if started.elapsed() >= duration {
            break;
        }
    }
    out.elapsed = started.elapsed();
    Ok(out)
}

/// Runs the planning workload.
pub fn run(s: &Settings) -> Result<Report, Divergence> {
    let order = rotation(s.seed);

    // A fresh set-up looks the four programs up and completes the first
    // plan, calcc's. Nothing carries over between plans (each parses its
    // program and builds its measurement input), so every set-up is fresh.
    let set_up = |setup_s: &mut Vec<f64>| {
        let started = Instant::now();
        let programs: Vec<(Benchmark, &'static str)> = LADDER.into_iter().map(program).collect();
        let (b, golden) = &programs[order[0]];
        let first = plan_benchmark(b, Some(BUDGET), true)
            .map_err(|e| Divergence(format!("{}: set-up planning failed: {e}", b.name)))?;
        setup_s.push(started.elapsed().as_secs_f64());
        check(b.name, golden, &first)?;
        Ok::<_, Divergence>(programs)
    };
    let mut setup_s = Vec::new();
    let programs = set_up(&mut setup_s)?;
    phase(&programs, &order, s.warmup, false)?;

    // The other set-ups are spread over the window, one after each of its
    // segments, so that their median samples the host's speed as widely as
    // the window's own metrics do; the window's clock leaves them out.
    let segments = s.setups.saturating_sub(1).max(1);
    let mut parts = Vec::new();
    for _ in 0..segments {
        parts.push(phase(&programs, &order, s.window / segments as u32, false)?);
        if setup_s.len() < s.setups {
            set_up(&mut setup_s)?;
        }
    }
    let untraced = PhaseOut::concat(parts);
    let mut report = Report::default();
    let untraced_ops = Samples::new(untraced.op_ms.clone());
    let rate = median_rate(untraced.done_at.clone(), untraced.elapsed.as_secs_f64());
    let (Some(median), Some(rate)) = (untraced_ops.median(), rate) else {
        return Err(Divergence("every plan rotation failed".into()));
    };
    report.attempted = untraced.attempted;
    report.failed = untraced.failed;
    report.put_sampled("op_ms_p50", median, untraced_ops.len());
    report.put("ops_per_s", rate);

    if s.trace {
        let traced = phase(&programs, &order, s.window / 2, true)?;
        report.attempted += traced.attempted;
        report.failed += traced.failed;
        let traced_ops = Samples::new(traced.op_ms.clone());
        let traced_median = traced_ops.median().unwrap_or(0.0);
        report.put_sampled("trace.op_ms_p50", traced_median, traced_ops.len());
        report.put("trace.overhead_frac", traced_median / median - 1.0);
        put_stages(&mut report, &traced.traced);
    }
    report.put("setup_s", quartiles(&setup_s).expect("set-ups").1);
    Ok(report)
}

/// The planning layers of a serving workload's program: traced plans of
/// `name`, back to back for `budget` (at least one).
pub fn profile(name: &str, budget: Duration) -> Result<Report, Divergence> {
    let (b, golden) = program(name);
    let mut traced = Vec::new();
    let started = Instant::now();
    while traced.is_empty() || started.elapsed() < budget {
        traced.push(traced_plan(&b, golden)?);
    }
    let mut report = Report {
        attempted: traced.len() as u64,
        ..Report::default()
    };
    put_stages(&mut report, &traced);
    Ok(report)
}

/// The per-layer planning metrics, per plan over every traced plan.
fn put_stages(report: &mut Report, traced: &[Traced]) {
    let plans = traced.len().max(1) as f64;
    let mut stages = Stages::default();
    let (mut plan, mut measure_in_plan, mut levels) = (Duration::ZERO, Duration::ZERO, 0);
    for t in traced {
        stages.add(&t.stages);
        plan += t.plan;
        measure_in_plan += t.measure_in_plan;
        levels += t.levels;
    }
    let per_plan_ms = |d: Duration| d.as_secs_f64() * 1e3 / plans;
    report.put("lang.parse_ms", per_plan_ms(stages.parse));
    report.put("security.ladder_ms", per_plan_ms(stages.ladder));
    report.put("core.split_ms", per_plan_ms(stages.split));
    report.put("security.estimate_ms", per_plan_ms(stages.estimate));
    report.put("core.harden_ms", per_plan_ms(stages.harden));
    report.put("audit.audit_ms", per_plan_ms(stages.audit));
    report.put("suite.measure_ms", per_plan_ms(stages.measure));
    report.put("planner.levels", levels as f64 / plans);
    report.put("planner.self_ms", per_plan_ms(plan - measure_in_plan));
    report.put(
        "planner.measure_share",
        measure_in_plan.as_secs_f64() / plan.as_secs_f64(),
    );
    report.put(
        "planner.stage_coverage",
        stages.in_planner().as_secs_f64() / plan.as_secs_f64(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_is_a_seeded_permutation_starting_with_calcc() {
        for seed in 0..32 {
            let mut order = rotation(seed);
            assert_eq!(order, rotation(seed));
            assert_eq!(LADDER[order[0]], "calcc");
            order.sort_unstable();
            assert_eq!(order, [0, 1, 2, 3]);
        }
        assert!((0..32).any(|seed| rotation(seed) != rotation(0)));
    }
}
