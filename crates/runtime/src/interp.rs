//! The open-side interpreter.
//!
//! [`Interp`] runs an `hps_ir::Program` on the crate's register bytecode
//! VM (`bytecode/`) — the same instruction set, lowering and dispatch
//! loop that runs hidden fragments. A split's open program is compiled
//! once, by [`SplitMeta::derive`], and every `Interp` the metadata is
//! attached to ([`Interp::with_channel`]) runs that code; an `Interp`
//! without a channel compiles its program on its first [`Interp::run`].
//! [`run_program`] and [`Executor::run`] build a fresh `Interp` per call
//! and compile per run; `Executor::run` attaches its code directly, with
//! no metadata and no copy of the program. The interpreter provides:
//!
//! * deterministic virtual-time cost accounting (see [`COST_MODEL`](crate::COST_MODEL)),
//! * fixed step and call-depth limits so runaway programs fail cleanly,
//! * split-program support: functions carrying
//!   [`split_component`](hps_ir::Function::split_component) allocate an
//!   *activation id* on entry (the paper's instance id, which keeps
//!   recursive activations apart), route
//!   [`StmtKind::HiddenCall`](hps_ir::StmtKind::HiddenCall) statements
//!   through an attached [`Channel`] (buffering `deferred` ones when
//!   batching), and release the secure-side state on every exit. Methods
//!   of split classes route calls by the receiver object's instance id
//!   instead.
//!
//! The VM charges every cost, ticks every step and raises every error
//! where the reference tree-walk (`reference.rs`, compiled for tests
//! only) does; the interpreter goldens in `hps-suite` and the crate's
//! `open_vm_differential` tests pin all three (DESIGN.md §7c).

use crate::bytecode::{HiddenCode, OpenCode, Vm};
use crate::channel::{Channel, InProcessChannel, TransportStats};
use crate::error::RuntimeError;
use crate::server::SecureServer;
use crate::value::RtValue;
use hps_ir::{ComponentKind, HiddenProgram, Program, Ty};
use hps_telemetry::{Event, MetricsRecorder, MetricsSnapshot, RecorderHandle, Snapshot};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// Execution settings: whether deferred hidden calls are batched.
///
/// Construct with [`ExecConfig::new`] / [`ExecConfig::default`] and adjust
/// through [`ExecConfig::with_batching`]. The execution limits are not
/// settings: every run may execute 500 M statements and nest 128 calls.
/// Calls do not recurse on the host stack, so the depth limit only keeps
/// runaway recursion failing with the same [`RuntimeError::StackOverflow`]
/// at the same depth.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct ExecConfig {
    /// Honour `deferred` marks on
    /// [`StmtKind::HiddenCall`](hps_ir::StmtKind::HiddenCall): buffer
    /// marked calls and ship them together with the next demanded call
    /// (or flush point) in one round trip. Off by default so unbatched
    /// interaction counts stay reproducible.
    pub batching: bool,
}

impl ExecConfig {
    /// Defaults: no batching.
    pub fn new() -> ExecConfig {
        ExecConfig { batching: false }
    }

    /// Enables or disables round-trip batching (builder style).
    pub fn with_batching(mut self, batching: bool) -> ExecConfig {
        self.batching = batching;
        self
    }
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig::new()
    }
}

/// The result of a successful run.
#[derive(Clone, PartialEq, Debug)]
pub struct Outcome {
    /// Value returned by the entry function.
    pub ret: RtValue,
    /// Lines produced by `print` statements, in order.
    pub output: Vec<String>,
    /// Virtual cost units spent on the open side's critical path (includes
    /// channel round trips and secure-side execution for split runs).
    pub cost: u64,
    /// Number of statements executed on the open side.
    pub steps: u64,
}

/// What the *open* side needs to run one split: the open program compiled
/// once to register bytecode, with the routing of every hidden call baked
/// in (which id space keys each component's state: per activation for
/// split functions, per object instance for split classes, one shared key
/// for hidden globals). Contains no hidden code.
///
/// Derive it once per split and attach it to every [`Interp`] that runs
/// the split's open program: no run compiles again. It keeps its own copy
/// of the open program it was derived from, and it and the compiled code
/// are plain `Send + Sync` data behind an `Arc`, so clones are cheap and
/// threads can share one. An `Interp` whose program differs from that copy
/// never runs the code: its runs fail with
/// [`RuntimeError::ForeignSplitMeta`].
#[derive(Clone)]
pub struct SplitMeta {
    split: Arc<Split>,
}

/// The open program a [`SplitMeta`] was derived from, and its code.
struct Split {
    open: Program,
    code: OpenCode,
}

#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) enum MetaKind {
    Function,
    Class,
    Global,
}

impl SplitMeta {
    /// Compiles `open` with the routing table of `hidden`'s components.
    /// A program that does not lower compiles to code whose runs fail
    /// with [`RuntimeError::Unlowerable`].
    pub fn derive(open: &Program, hidden: &HiddenProgram) -> SplitMeta {
        SplitMeta::with_kinds(open, &kinds(hidden))
    }

    /// Compiles `open` with the component kinds `kinds`, by `ComponentId`.
    pub(crate) fn with_kinds(open: &Program, kinds: &[MetaKind]) -> SplitMeta {
        SplitMeta {
            split: Arc::new(Split {
                open: open.clone(),
                code: OpenCode::compile(open, Some(kinds)),
            }),
        }
    }

    /// The functions `name`'s compiled code still calls with a frame of
    /// their own, in code order: every callee but the small scalar leaves
    /// whose code is inlined into their callers (DESIGN.md §7c). `None`
    /// when no function is named `name` or the program does not lower.
    pub fn framed_callees(&self, name: &str) -> Option<Vec<&str>> {
        let open = &self.split.open;
        let func = open.func_by_name(name)?;
        let code = self.split.code.get(false).ok()?;
        Some(
            code.callees(func.index())
                .map(|f| open.functions[f].name.as_str())
                .collect(),
        )
    }

    /// How many `Int` arithmetic and compare-and-branch instructions of
    /// `name`'s compiled code kept their generic form, for want of a
    /// specialised one (DESIGN.md §7c). `None` as for
    /// [`SplitMeta::framed_callees`].
    pub fn generic_int_ops(&self, name: &str) -> Option<usize> {
        let func = self.split.open.func_by_name(name)?;
        let code = self.split.code.get(false).ok()?;
        Some(code.generic_int_ops(func.index()))
    }

    /// The code, when `program` equals the one this was derived from.
    fn code_for(&self, program: &Program) -> Option<&OpenCode> {
        (self.split.open == *program).then_some(&self.split.code)
    }
}

/// The kind of each of `hidden`'s components, by `ComponentId`: the
/// routing table the open program is compiled with.
fn kinds(hidden: &HiddenProgram) -> Vec<MetaKind> {
    hidden
        .components
        .iter()
        .map(|comp| match comp.kind {
            ComponentKind::Function { .. } => MetaKind::Function,
            ComponentKind::Class { .. } => MetaKind::Class,
            ComponentKind::Global { .. } => MetaKind::Global,
        })
        .collect()
}

impl fmt::Debug for SplitMeta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SplitMeta")
            .field("functions", &self.split.open.functions.len())
            .finish_non_exhaustive()
    }
}

/// One configured in-process split execution: open program, hidden
/// program, batching, round-trip latency and telemetry recording.
///
/// This is the single entry point for running a split program in process:
/// it installs the hidden program on a fresh [`SecureServer`] behind an
/// [`InProcessChannel`]. Use [`Interp`] directly only for custom channels:
/// a [`TcpChannel`](crate::tcp::TcpChannel) to a remote session server, or
/// a [`TraceChannel`](crate::TraceChannel) wiretap.
///
/// # Examples
///
/// ```
/// use hps_runtime::{Executor, MetricsRecorder};
///
/// let program = hps_lang::parse(
///     "fn f(x: int) -> int { var a: int = x * 2; return a; }
///      fn main() { print(f(21)); }",
/// )?;
/// let plan = hps_core::SplitPlan::single(&program, "f", "a")?;
/// let split = hps_core::split_program(&program, &plan)?;
/// let report = Executor::new(&split.open, &split.hidden)
///     .batching(true)
///     .rtt(10)
///     .recorder(MetricsRecorder::new())
///     .run(&[])?;
/// assert_eq!(report.outcome.output, ["42"]);
/// assert!(report.interactions > 0);
/// assert_eq!(
///     report.telemetry.counter("hps_interactions_total"),
///     report.interactions,
/// );
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Executor<'p> {
    open: &'p Program,
    hidden: &'p HiddenProgram,
    config: ExecConfig,
    rtt: u64,
    recorder: Option<Rc<MetricsRecorder>>,
}

impl<'p> Executor<'p> {
    /// An executor with default configuration: no batching, zero
    /// round-trip cost, no recorder.
    pub fn new(open: &'p Program, hidden: &'p HiddenProgram) -> Executor<'p> {
        Executor {
            open,
            hidden,
            config: ExecConfig::new(),
            rtt: 0,
            recorder: None,
        }
    }

    /// Enables or disables round-trip batching of deferred hidden calls.
    pub fn batching(mut self, batching: bool) -> Executor<'p> {
        self.config.batching = batching;
        self
    }

    /// Sets the virtual round-trip cost charged per interaction.
    pub fn rtt(mut self, rtt: u64) -> Executor<'p> {
        self.rtt = rtt;
        self
    }

    /// Attaches a metrics recorder; the events every layer fires during
    /// the run are aggregated into [`ExecReport::telemetry`]. Recording
    /// never changes results, costs or interaction counts. Without a
    /// recorder the telemetry snapshot comes back empty and the hooks
    /// reduce to one branch each.
    pub fn recorder(mut self, recorder: MetricsRecorder) -> Executor<'p> {
        self.recorder = Some(Rc::new(recorder));
        self
    }

    /// Runs `main` of the open program against a fresh in-process
    /// [`SecureServer`] holding the hidden program.
    ///
    /// Each call builds a fresh server; the recorder, if any, accumulates
    /// across runs.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] for execution faults on either side.
    pub fn run(&self, args: &[RtValue]) -> Result<ExecReport, RuntimeError> {
        let handle = match &self.recorder {
            Some(r) => RecorderHandle::new(r.clone()),
            None => RecorderHandle::none(),
        };
        let code = Arc::new(HiddenCode::compile(self.hidden));
        let server = SecureServer::installed(code).with_recorder(handle.clone());
        let mut channel = InProcessChannel::new(server)
            .with_rtt(self.rtt)
            .with_recorder(handle.clone());
        // The program is compiled here for this run alone, so it needs no
        // `SplitMeta` and no copy of the program to check against.
        let code = OpenCode::compile(self.open, Some(&kinds(self.hidden)));
        let outcome = Interp::new(self.open, self.config.clone())
            .with_code(&mut channel, &code)
            .with_recorder(handle)
            .run("main", args)?;
        let telemetry = match &self.recorder {
            Some(r) => r.snapshot(),
            None => MetricsSnapshot::new(),
        };
        Ok(ExecReport {
            outcome,
            interactions: channel.interactions(),
            server_cost: channel.server().cost_spent(),
            transport: channel.transport_stats(),
            telemetry,
        })
    }
}

/// Everything one [`Executor::run`] reports: the program's outcome, the
/// paper's interaction/cost measurements, the transport's reliability
/// counters, and (when a recorder was attached) the full metrics snapshot.
#[derive(Clone, PartialEq, Debug)]
pub struct ExecReport {
    /// The ordinary outcome (output, return value, cost, steps).
    pub outcome: Outcome,
    /// Open↔hidden round trips (the paper's "Component Interactions").
    pub interactions: u64,
    /// Virtual cost units spent by the secure device.
    pub server_cost: u64,
    /// Reliability counters from the transport (all zero on fault-free
    /// channels).
    pub transport: TransportStats,
    /// Aggregated telemetry; empty when no recorder was attached.
    pub telemetry: MetricsSnapshot,
}

impl ExecReport {
    /// The run's telemetry as one serializable `hps-telemetry/v1`
    /// document (transport counters beside the metrics).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::new(self.transport, self.telemetry.clone())
    }
}

/// Runs `main` of an ordinary (unsplit) program.
///
/// # Errors
///
/// Returns a [`RuntimeError`] for execution faults or a missing/ill-typed
/// entry function.
pub fn run_program(program: &Program, args: &[RtValue]) -> Result<Outcome, RuntimeError> {
    run_function(program, "main", args, ExecConfig::new())
}

/// Runs a named free function of an ordinary (unsplit) program.
///
/// # Errors
///
/// Returns a [`RuntimeError`] for execution faults or a missing/ill-typed
/// entry function.
pub(crate) fn run_function(
    program: &Program,
    name: &str,
    args: &[RtValue],
    config: ExecConfig,
) -> Result<Outcome, RuntimeError> {
    let mut interp = Interp::new(program, config);
    interp.run(name, args)
}

/// Statements (and loop-condition checks) a run may execute before it
/// fails with [`RuntimeError::StepLimitExceeded`].
const MAX_STEPS: u64 = 500_000_000;

/// Call depth at which a run fails with [`RuntimeError::StackOverflow`].
const MAX_CALL_DEPTH: usize = 128;

/// Every global of `program` at its declared initial value.
pub(crate) fn initial_globals(program: &Program) -> Vec<RtValue> {
    program
        .globals
        .iter()
        .map(|g| match (&g.ty, g.array_len) {
            (Ty::Array(elem), Some(len)) => RtValue::new_array(elem, len),
            (_, _) => g
                .init
                .map(RtValue::from_const)
                .unwrap_or_else(|| RtValue::default_of(&g.ty)),
        })
        .collect()
}

/// The interpreter. Most callers use [`run_program`] or [`Executor`];
/// construct an [`Interp`] directly to attach a custom [`Channel`]
/// (TCP, tracing) or to reuse global state across entry calls.
///
/// With a channel it runs the code its [`SplitMeta`] compiled; without
/// one it compiles its program on its first run and keeps the code for
/// later runs. Either way one compiled program serves batching and
/// unbatched runs: whether a `deferred` call is buffered is decided when
/// the call runs.
///
/// Cost and step counts accumulate across runs on one `Interp`, so an
/// [`Outcome`] reports the totals so far. A run that fails adds its steps
/// but no cost: the cost total stays where it was before that run.
pub struct Interp<'a> {
    program: &'a Program,
    code: Code<'a>,
    vm: Vm<'a>,
}

/// The bytecode an [`Interp`] runs.
enum Code<'a> {
    /// No channel: compiled by the first run.
    Unsplit(Option<OpenCode>),
    /// The split's code, compiled by [`SplitMeta::derive`] (or by
    /// [`Executor::run`] for its one run).
    Split(&'a OpenCode),
    /// The attached [`SplitMeta`] was derived from another program.
    Foreign,
}

impl<'a> Interp<'a> {
    /// Creates an interpreter with initialized globals and no channel.
    pub fn new(program: &'a Program, config: ExecConfig) -> Interp<'a> {
        let mut vm = Vm::new(initial_globals(program), MAX_STEPS, MAX_CALL_DEPTH);
        vm.batching = config.batching;
        Interp {
            program,
            code: Code::Unsplit(None),
            vm,
        }
    }

    /// Attaches a channel and the split's metadata for split execution
    /// (builder style). Runs execute the code `meta` compiled; when `meta`
    /// was derived from a different open program they fail with
    /// [`RuntimeError::ForeignSplitMeta`] instead.
    pub fn with_channel(mut self, channel: &'a mut dyn Channel, meta: &'a SplitMeta) -> Interp<'a> {
        self.vm.channel = Some(channel);
        self.code = meta
            .code_for(self.program)
            .map_or(Code::Foreign, Code::Split);
        self
    }

    /// Attaches a channel and `code`, compiled from this interpreter's own
    /// program by the caller.
    fn with_code(mut self, channel: &'a mut dyn Channel, code: &'a OpenCode) -> Interp<'a> {
        self.vm.channel = Some(channel);
        self.code = Code::Split(code);
        self
    }

    /// Attaches a telemetry recorder firing `Deferred` / `Flush` /
    /// `OpenRun` events (builder style). Recording never changes results,
    /// costs or step counts.
    pub fn with_recorder(mut self, recorder: RecorderHandle) -> Interp<'a> {
        self.vm.recorder = recorder;
        self
    }

    /// Replaces the fixed step and call-depth limits (for tests that pin
    /// where they fire).
    #[cfg(test)]
    pub(crate) fn with_limits(mut self, max_steps: u64, max_call_depth: usize) -> Interp<'a> {
        self.vm.step_limit = max_steps;
        self.vm.depth_limit = max_call_depth;
        self
    }

    /// Runs a named free function to completion.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] for execution faults, a missing entry, a
    /// program that does not lower ([`RuntimeError::Unlowerable`]), or
    /// metadata derived from another program
    /// ([`RuntimeError::ForeignSplitMeta`]).
    pub fn run(&mut self, name: &str, args: &[RtValue]) -> Result<Outcome, RuntimeError> {
        let fid = self
            .program
            .func_by_name(name)
            .ok_or_else(|| RuntimeError::NoSuchFunction(name.to_string()))?;
        let func = self.program.func(fid);
        if args.len() != func.num_params {
            return Err(RuntimeError::BadEntryArgs(format!(
                "`{name}` takes {} argument(s), got {}",
                func.num_params,
                args.len()
            )));
        }
        let code = match &mut self.code {
            Code::Split(code) => *code,
            Code::Unsplit(code) => {
                code.get_or_insert_with(|| OpenCode::compile(self.program, None))
            }
            Code::Foreign => return Err(RuntimeError::ForeignSplitMeta),
        }
        .get(self.vm.batching)?;
        let cost = self.vm.cost;
        // Errors discard cost: the charges of a failed run are not the
        // tree-walk's at the failing point, so none of them are kept.
        let ret = self
            .vm
            .run(code, fid.index(), args)
            .inspect_err(|_| self.vm.cost = cost)?;
        self.vm.recorder.record(Event::OpenRun {
            steps: self.vm.steps,
            cost: self.vm.cost,
        });
        Ok(Outcome {
            ret,
            output: std::mem::take(&mut self.vm.output),
            cost: self.vm.cost,
            steps: self.vm.steps,
        })
    }

    /// The value of a global (for tests and experiment harnesses).
    pub fn global(&self, id: hps_ir::GlobalId) -> &RtValue {
        &self.vm.globals[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hps_ir::{BinOp, Builtin, ComponentId, Expr, Place, StmtKind, Value};

    /// `main` of `p` under explicit limits.
    fn run_limited(p: &Program, steps: u64, depth: usize) -> Result<Outcome, RuntimeError> {
        Interp::new(p, ExecConfig::new())
            .with_limits(steps, depth)
            .run("main", &[])
    }

    fn run(src: &str) -> Outcome {
        let p = hps_lang::parse(src).expect("parses");
        run_program(&p, &[]).expect("runs")
    }

    fn run_err(src: &str) -> RuntimeError {
        let p = hps_lang::parse(src).expect("parses");
        run_program(&p, &[]).expect_err("should fail")
    }

    #[test]
    fn arithmetic_and_print() {
        let out = run("fn main() { print(2 + 3 * 4); print(10 / 3); print(10 % 3); }");
        assert_eq!(out.output, vec!["14", "3", "1"]);
        assert!(out.cost > 0);
    }

    #[test]
    fn float_formatting_is_stable() {
        let out = run("fn main() { print(1.5 + 1.5); print(0.1 + 0.2); }");
        assert_eq!(out.output[0], "3.0");
        assert!(out.output[1].starts_with("0.3"));
    }

    #[test]
    fn loops_conditionals_break_continue() {
        let out = run("fn main() {
                var i: int = 0; var s: int = 0;
                while (true) {
                    i = i + 1;
                    if (i > 10) { break; }
                    if (i % 2 == 0) { continue; }
                    s = s + i;
                }
                print(s);
            }");
        assert_eq!(out.output, vec!["25"]); // 1+3+5+7+9
    }

    #[test]
    fn functions_recursion_and_entry_args() {
        let p = hps_lang::parse(
            "fn fib(n: int) -> int {
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            fn main() { print(fib(10)); }",
        )
        .unwrap();
        assert_eq!(run_program(&p, &[]).unwrap().output, vec!["55"]);
        let out = run_function(&p, "fib", &[RtValue::Int(12)], ExecConfig::new()).unwrap();
        assert_eq!(out.ret, RtValue::Int(144));
    }

    #[test]
    fn arrays_and_len() {
        let out = run("fn main() {
                var a: int[] = new int[5];
                var i: int = 0;
                while (i < len(a)) { a[i] = i * i; i = i + 1; }
                print(a[4]);
            }");
        assert_eq!(out.output, vec!["16"]);
    }

    #[test]
    fn globals_scalar_and_array() {
        let out = run("global count: int = 10;
             global buf: int[] = new int[3];
             fn main() { buf[0] = count + 1; print(buf[0]); }");
        assert_eq!(out.output, vec!["11"]);
    }

    #[test]
    fn objects_fields_and_methods() {
        let out = run("class Point {
                x: int; y: int;
                fn set(a: int, b: int) { self.x = a; self.y = b; }
                fn norm2() -> int { return self.x * self.x + self.y * self.y; }
            }
            fn main() {
                var p: Point = new Point();
                p.set(3, 4);
                print(p.norm2());
                var q: Point = new Point();
                print(q.norm2());
            }");
        assert_eq!(out.output, vec!["25", "0"]);
    }

    #[test]
    fn aggregates_are_by_reference() {
        let out = run(
            "fn fill(a: int[], v: int) { var i: int = 0; while (i < len(a)) { a[i] = v; i = i + 1; } }
             fn main() { var a: int[] = new int[2]; fill(a, 7); print(a[1]); }",
        );
        assert_eq!(out.output, vec!["7"]);
    }

    #[test]
    fn runtime_errors() {
        assert_eq!(
            run_err("fn main() { print(1 / 0); }"),
            RuntimeError::DivisionByZero
        );
        assert!(matches!(
            run_err("fn main() { var a: int[] = new int[2]; print(a[5]); }"),
            RuntimeError::IndexOutOfBounds { index: 5, len: 2 }
        ));
        assert!(matches!(
            run_err("fn main() { var a: int[] = new int[2]; print(a[-1]); }"),
            RuntimeError::IndexOutOfBounds { .. }
        ));
        assert_eq!(
            run_err("fn main() { var a: int[]; print(a[0]); }"),
            RuntimeError::UninitializedValue
        );
        assert!(matches!(
            run_err("fn main() { var a: int[] = new int[0 - 3]; }"),
            RuntimeError::IndexOutOfBounds { .. }
        ));
    }

    #[test]
    fn infinite_loop_hits_step_limit() {
        let p = hps_lang::parse("fn main() { while (true) { } }").unwrap();
        assert!(matches!(
            run_limited(&p, 1000, MAX_CALL_DEPTH),
            Err(RuntimeError::StepLimitExceeded { .. })
        ));
    }

    #[test]
    fn runaway_recursion_hits_depth_limit() {
        let p = hps_lang::parse("fn f() { f(); } fn main() { f(); }").unwrap();
        assert!(matches!(
            run_program(&p, &[]),
            Err(RuntimeError::StackOverflow { .. })
        ));
    }

    #[test]
    fn missing_entry_and_bad_args() {
        let p = hps_lang::parse("fn notmain() { }").unwrap();
        assert!(matches!(
            run_program(&p, &[]),
            Err(RuntimeError::NoSuchFunction(_))
        ));
        let p = hps_lang::parse("fn main(x: int) { print(x); }").unwrap();
        assert!(matches!(
            run_program(&p, &[]),
            Err(RuntimeError::BadEntryArgs(_))
        ));
        let out = run_program(&p, &[RtValue::Int(9)]).unwrap();
        assert_eq!(out.output, vec!["9"]);
    }

    #[test]
    fn hidden_call_without_channel_fails() {
        use hps_ir::{FragLabel, Stmt};
        let mut p = hps_lang::parse("fn main() { }").unwrap();
        let main = p.entry().unwrap();
        p.func_mut(main)
            .body
            .stmts
            .push(Stmt::new(StmtKind::HiddenCall {
                component: ComponentId::new(0),
                label: FragLabel::new(0),
                args: vec![],
                result: None,
                deferred: false,
            }));
        p.renumber_all();
        assert_eq!(run_program(&p, &[]), Err(RuntimeError::NoChannel));
    }

    #[test]
    fn short_circuit_avoids_division_by_zero() {
        let out = run("fn main() {
                var x: int = 0;
                if (x != 0 && 10 / x > 1) { print(1); } else { print(2); }
                if (x == 0 || 10 / x > 1) { print(3); }
            }");
        assert_eq!(out.output, vec!["2", "3"]);
    }

    /// Parses `src`, lets `patch` rewrite `main` in IR (for shapes the
    /// type checker rejects), and runs it unsplit.
    fn run_patched(
        src: &str,
        patch: impl FnOnce(&mut hps_ir::Function),
    ) -> Result<Outcome, RuntimeError> {
        let mut p = hps_lang::parse(src).expect("parses");
        let main = p.entry().expect("main");
        patch(p.func_mut(main));
        run_program(&p, &[])
    }

    fn local(f: &hps_ir::Function, name: &str) -> Expr {
        Expr::local(f.local_by_name(name).expect("declared local"))
    }

    /// Replaces the condition of `main`'s first `if`.
    fn set_if_cond(f: &mut hps_ir::Function, cond: Expr) {
        for stmt in &mut f.body.stmts {
            if let StmtKind::If { cond: c, .. } = &mut stmt.kind {
                *c = cond;
                return;
            }
        }
        panic!("main has no if");
    }

    const LOCALS: &str = "fn main() {
            var x: int = 3; var y: float = 1.5; var b: bool = true; var u: int[];
            if (true) { print(1); } else { print(2); }
            x = 4;
        }";

    #[test]
    fn leaf_index_out_of_bounds_and_negative() {
        assert_eq!(
            run_err("fn main() { var a: int[] = new int[2]; var i: int = 5; print(a[i]); }"),
            RuntimeError::IndexOutOfBounds { index: 5, len: 2 }
        );
        assert_eq!(
            run_err("fn main() { var a: int[] = new int[2]; var i: int = 0 - 1; print(a[i]); }"),
            RuntimeError::IndexOutOfBounds { index: -1, len: 2 }
        );
        assert_eq!(
            run_err("fn main() { var a: int[] = new int[2]; var i: int = 2; a[i] = 1; }"),
            RuntimeError::IndexOutOfBounds { index: 2, len: 2 }
        );
        assert_eq!(
            run_err("fn main() { var a: int[] = new int[2]; a[0 - 3] = 1; }"),
            RuntimeError::IndexOutOfBounds { index: -3, len: 2 }
        );
    }

    #[test]
    fn uninit_and_int_locals_used_as_arrays() {
        for src in [
            "fn main() { var a: int[]; var i: int = 0; print(a[i]); }",
            "fn main() { var a: int[]; a[1] = 2; }",
            "fn main() { var a: int[]; print(len(a)); }",
        ] {
            assert_eq!(run_err(src), RuntimeError::UninitializedValue, "{src}");
        }
        let int_as_array = RuntimeError::TypeMismatch {
            expected: "array",
            found: "int",
        };
        let read = run_patched(LOCALS, |f| {
            let x = local(f, "x");
            set_if_cond(
                f,
                Expr::binary(BinOp::Eq, Expr::index(x, Expr::int(0)), Expr::int(0)),
            );
        });
        assert_eq!(read, Err(int_as_array.clone()));
        let len = run_patched(LOCALS, |f| {
            let x = local(f, "x");
            let len = Expr::builtin(Builtin::Len, vec![x]);
            set_if_cond(f, Expr::binary(BinOp::Eq, len, Expr::int(0)));
        });
        assert_eq!(len, Err(int_as_array.clone()));
        let write = run_patched(LOCALS, |f| {
            let x = f.local_by_name("x").expect("x");
            let last = f.body.stmts.last_mut().expect("x = 4");
            let StmtKind::Assign { place, .. } = &mut last.kind else {
                panic!("last statement is `x = 4`");
            };
            *place = Place::Index {
                base: Box::new(Place::Local(x)),
                index: Expr::int(0),
            };
        });
        assert_eq!(write, Err(int_as_array));
    }

    #[test]
    fn non_bool_leaf_conditions_fail_like_the_general_path() {
        let cases = [
            // An int leaf as the whole condition.
            ("x", None, "bool condition", "int"),
            // Mixed int/float leaves.
            ("x", Some("y"), "matching scalar operands", "float"),
            // Bools have no order.
            ("b", Some("b"), "matching scalar operands", "bool"),
            // An uninitialised aggregate leaf.
            ("u", Some("x"), "matching scalar operands", "uninitialized"),
        ];
        for (lhs, rhs, expected, found) in cases {
            let got = run_patched(LOCALS, |f| {
                let l = local(f, lhs);
                let cond = match rhs {
                    Some(r) => Expr::binary(BinOp::Lt, l, local(f, r)),
                    None => l,
                };
                set_if_cond(f, cond);
            });
            assert_eq!(
                got,
                Err(RuntimeError::TypeMismatch { expected, found }),
                "{lhs} < {rhs:?}"
            );
        }
        // Well-typed leaf comparisons agree with `ops::binop`, NaN included.
        let out = run("fn main() {
                var n: float = 0.0 / 0.0; var one: float = 1.0; var i: int = 2;
                if (n < one) { print(1); } if (n != n) { print(2); }
                if (i >= 2) { print(3); } if (one == 1.0) { print(4); }
            }");
        assert_eq!(out.output, ["2", "3", "4"]);
    }

    #[test]
    fn division_by_zero_inside_fast_path_operands() {
        let head = "fn id(v: int) -> int { return v; }
            fn main() { var x: int = 1; var z: int = 0; var a: int[] = new int[2]; ";
        for body in [
            "print(x / z);",
            "x = x % z;",
            "print(a[x / z]);",
            "a[x / z] = 1;",
            "print(id(x / z));",
            "print(abs(x / z));",
            "print(max(1, x / z));",
            "if (x / z > 0) { print(1); }",
            "while (x / z > 0) { print(1); }",
        ] {
            assert_eq!(
                run_err(&format!("{head}{body} }}")),
                RuntimeError::DivisionByZero,
                "{body}"
            );
        }
    }

    #[test]
    fn step_limit_fires_at_the_same_count() {
        // Each statement ticks once, and a `while` ticks once more per
        // condition check: 1 (x) + 1 (while) + 3 * 2 (check + body) + 1
        // (failing check) = 9.
        let p =
            hps_lang::parse("fn main() { var i: int = 0; while (i < 3) { i = i + 1; } }").unwrap();
        let out = run_program(&p, &[]).unwrap();
        assert_eq!(out.steps, 9);
        assert_eq!(run_limited(&p, 9, MAX_CALL_DEPTH).unwrap().steps, 9);
        assert_eq!(
            run_limited(&p, 8, MAX_CALL_DEPTH),
            Err(RuntimeError::StepLimitExceeded { limit: 8 })
        );
        let p = hps_lang::parse("fn main() { while (true) { } }").unwrap();
        assert_eq!(
            run_limited(&p, 1000, MAX_CALL_DEPTH),
            Err(RuntimeError::StepLimitExceeded { limit: 1000 })
        );
    }

    #[test]
    fn depth_limit_holds_across_repeated_calls() {
        let p = hps_lang::parse(
            "fn f(n: int) -> int { if (n == 0) { return 0; } return f(n - 1) + 1; }
             fn main(n: int) { var i: int = 0;
                 while (i < 5) { print(f(n)); i = i + 1; } }",
        )
        .unwrap();
        // `main` is depth 1, so f(8) reaches depth 10 and f(9) depth 11.
        let run = |n| {
            Interp::new(&p, ExecConfig::new())
                .with_limits(MAX_STEPS, 10)
                .run("main", &[RtValue::Int(n)])
        };
        assert_eq!(run(8).unwrap().output, ["8"; 5]);
        assert_eq!(run(9), Err(RuntimeError::StackOverflow { limit: 10 }));
        // The fixed limit: depth 128 is the deepest call that runs.
        let ok = run_function(&p, "main", &[RtValue::Int(126)], ExecConfig::new()).unwrap();
        assert_eq!(ok.output, ["126"; 5]);
        assert_eq!(
            run_function(&p, "main", &[RtValue::Int(127)], ExecConfig::new()),
            Err(RuntimeError::StackOverflow { limit: 128 })
        );
    }

    #[test]
    fn frames_keep_caller_locals_and_start_from_defaults() {
        let out = run("fn g(n: int) -> int {
                var a: int = n * 10; var b: int[] = new int[1]; b[0] = n;
                if (n == 0) { return 0; }
                var r: int = g(n - 1) + g(n - 1) / 2;
                return r + a + b[0];
             }
             fn h(set: bool) -> int { var x: int; var y: float; if (set) { x = 5; y = 2.5; }
                 if (y > 1.0) { return x + 1; } return x; }
             fn main() { print(g(12)); print(h(true)); print(h(false)); print(h(true)); }");
        fn g(n: i64) -> i64 {
            if n == 0 {
                return 0;
            }
            g(n - 1) + g(n - 1) / 2 + n * 10 + n
        }
        assert_eq!(
            out.output,
            [g(12).to_string(), "6".into(), "0".into(), "6".into()]
        );
    }

    /// Replies `40 + arg` to every call; one interaction per round trip.
    struct Echo(u64);

    impl Channel for Echo {
        fn call(
            &mut self,
            _: ComponentId,
            _: u64,
            _: hps_ir::FragLabel,
            args: &[Value],
        ) -> Result<crate::CallReply, RuntimeError> {
            self.0 += 1;
            let Some(Value::Int(v)) = args.first() else {
                panic!("one int argument");
            };
            Ok(crate::CallReply {
                value: Value::Int(40 + v),
                server_cost: 0,
            })
        }
        fn call_batch(
            &mut self,
            calls: &[crate::PendingCall],
        ) -> Result<Vec<crate::CallReply>, RuntimeError> {
            let replies = calls
                .iter()
                .map(|c| self.call(c.component, c.key, c.label, &c.args))
                .collect();
            self.0 -= calls.len() as u64 - 1;
            replies
        }
        fn release(&mut self, _: ComponentId, _: u64) -> Result<(), RuntimeError> {
            Ok(())
        }
        fn interactions(&self) -> u64 {
            self.0
        }
        fn rtt_cost(&self) -> u64 {
            0
        }
    }

    /// Appends a hidden call of component 0 to `f`'s body.
    fn push_hidden(f: &mut hps_ir::Function, arg: &str, result: Option<Place>, deferred: bool) {
        let arg = local(f, arg);
        f.body.stmts.push(hps_ir::Stmt::new(StmtKind::HiddenCall {
            component: ComponentId::new(0),
            label: hps_ir::FragLabel::new(0),
            args: vec![arg],
            result,
            deferred,
        }));
    }

    #[test]
    fn deferred_result_lands_in_its_register_before_it_is_read() {
        // `f` buffers a call whose reply lands in `t`, then demands one:
        // the batch's flush writes `t` before `return` reads it. The
        // demanded call marshals `t` before the flush, so it sends 2.
        let mut p = hps_lang::parse(
            "fn f(n: int) -> int { var t: int = n; var u: int = 0; }
             fn k(v: int) -> int { var w: int = v + 1; return w; }
             fn main() { print(f(2)); print(k(7)); }",
        )
        .unwrap();
        let fid = p.func_by_name("f").unwrap();
        let f = p.func_mut(fid);
        f.split_component = Some(ComponentId::new(0));
        let (t, u) = (f.local_by_name("t").unwrap(), f.local_by_name("u").unwrap());
        push_hidden(f, "n", Some(Place::Local(t)), true);
        push_hidden(f, "t", Some(Place::Local(u)), false);
        let ret = Expr::binary(
            BinOp::Add,
            Expr::local(t),
            Expr::binary(BinOp::Mul, Expr::local(u), Expr::int(100)),
        );
        f.body
            .stmts
            .push(hps_ir::Stmt::new(StmtKind::Return(Some(ret))));
        p.renumber_all();
        let meta = SplitMeta::with_kinds(&p, &[MetaKind::Function]);
        let mut chan = Echo(0);
        let outcome = Interp::new(&p, ExecConfig::new().with_batching(true))
            .with_channel(&mut chan, &meta)
            .run("main", &[])
            .unwrap();
        assert_eq!(outcome.output, ["4242", "8"]);
        assert_eq!(chan.interactions(), 1);
        // Unbatched, the first reply lands before the second call.
        let mut chan = Echo(0);
        let outcome = Interp::new(&p, ExecConfig::new())
            .with_channel(&mut chan, &meta)
            .run("main", &[])
            .unwrap();
        assert_eq!(outcome.output, ["8242", "8"]);
        assert_eq!(chan.interactions(), 2);
    }

    #[test]
    fn deferred_result_outside_a_local_is_unlowerable() {
        let mut p = hps_lang::parse(
            "global g: int; fn f(n: int) { var t: int = n; } fn main() { f(1); print(g); }",
        )
        .unwrap();
        let fid = p.func_by_name("f").unwrap();
        let f = p.func_mut(fid);
        f.split_component = Some(ComponentId::new(0));
        push_hidden(f, "n", Some(Place::Global(hps_ir::GlobalId::new(0))), true);
        p.renumber_all();
        let meta = SplitMeta::with_kinds(&p, &[MetaKind::Function]);
        let mut chan = Echo(0);
        let batched = Interp::new(&p, ExecConfig::new().with_batching(true))
            .with_channel(&mut chan, &meta)
            .run("main", &[]);
        assert!(matches!(batched, Err(RuntimeError::Unlowerable(_))));
        // Without batching the mark is ignored and the call is demanded.
        let mut chan = Echo(0);
        let demanded = Interp::new(&p, ExecConfig::new())
            .with_channel(&mut chan, &meta)
            .run("main", &[])
            .unwrap();
        assert_eq!(demanded.output, ["41"]);
    }

    #[test]
    fn globals_are_read_where_the_tree_walk_reads_them() {
        // `g` is read before the call that bumps it, in an operator, in an
        // argument list, and as the index of an assignment, which is
        // evaluated after the assigned value. A VM reading globals late
        // prints 12 and 1101, and writes a[1].
        let p = hps_lang::parse(
            "global g: int;
             fn bump() -> int { g = g + 10; return 1; }
             fn pair(a: int, b: int) -> int { return a * 100 + b; }
             fn main() {
                 var a: int[] = new int[32];
                 g = 1; print(g + bump());
                 g = 1; print(pair(g, bump()));
                 g = 1; a[g] = bump();
                 print(a[1]); print(a[11]);
             }",
        )
        .unwrap();
        let out = run_program(&p, &[]).unwrap();
        assert_eq!(out.output, ["2", "101", "0", "1"]);
        assert_eq!((out.cost, out.steps), (182, 16));
        let reference = crate::reference::run_function(&p, "main", &[], MAX_STEPS, MAX_CALL_DEPTH);
        assert_eq!(reference, Ok(out));
    }

    #[test]
    fn oversized_functions_are_typed_errors() {
        // More locals than the bytecode addresses.
        let decls: String = (0..70_000).map(|i| format!("var v{i}: int; ")).collect();
        let p = hps_lang::parse(&format!("fn main() {{ {decls} print(1); }}")).unwrap();
        assert!(matches!(
            run_program(&p, &[]),
            Err(RuntimeError::Unlowerable(_))
        ));
    }

    #[test]
    fn for_loops_execute() {
        let out = run("fn main() {
                var s: int = 0; var i: int;
                for (i = 0; i < 5; i = i + 1) { s = s + i; }
                print(s);
            }");
        assert_eq!(out.output, vec!["10"]);
    }
}
