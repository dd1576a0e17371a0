//! The open-side interpreter.
//!
//! A tree-walking evaluator for `hps_ir::Program` with:
//!
//! * deterministic virtual-time cost accounting (see [`COST_MODEL`]),
//! * step and call-depth limits so runaway programs fail cleanly,
//! * split-program support: functions carrying
//!   [`split_component`](hps_ir::Function::split_component) allocate an
//!   *activation id* on entry (the paper's instance id, which keeps
//!   recursive activations apart), route
//!   [`StmtKind::HiddenCall`] statements through an attached [`Channel`],
//!   and release the secure-side state on return. Methods of split classes
//!   route calls by the receiver object's instance id instead.
//!
//! The hot path allocates nothing per call and does not recurse on leaves
//! (DESIGN.md §7c): frames reuse pooled locals vectors, `Const`/`Local`/
//! `Global` operands resolve inline, one- and two-argument builtins take
//! stack slices, `leaf <cmp> leaf` conditions evaluate straight to a
//! `bool`, and local arrays are indexed in place. None of this moves a
//! cost charge, a step tick or the order in which errors fire; the
//! interpreter goldens in `hps-suite` pin all three.

use crate::channel::{Channel, InProcessChannel, PendingCall, TransportStats};
use crate::cost::COST_MODEL;
use crate::error::RuntimeError;
use crate::fault::{FaultPlan, FaultyChannel};
use crate::server::SecureServer;
use crate::value::{ObjData, RtValue};
use hps_ir::{
    BinOp, Block, Builtin, ComponentId, ComponentKind, Expr, FuncId, HiddenProgram, Place, Program,
    StmtKind, Ty, Value,
};
use hps_telemetry::{Event, MetricsRecorder, MetricsSnapshot, RecorderHandle, Snapshot};
use std::cell::RefCell;
use std::rc::Rc;

/// Execution limits and batching.
///
/// Construct with [`ExecConfig::new`] / [`ExecConfig::default`] and adjust
/// through the builder setters; the struct is `#[non_exhaustive]` so new
/// knobs can be added without breaking downstream construction.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct ExecConfig {
    /// Maximum statements/iterations executed before aborting.
    pub max_steps: u64,
    /// Maximum call depth.
    pub max_call_depth: usize,
    /// Honour `deferred` marks on [`StmtKind::HiddenCall`]: buffer marked
    /// calls and ship them together with the next demanded call (or flush
    /// point) in one round trip. Off by default so unbatched interaction
    /// counts stay reproducible.
    pub batching: bool,
}

impl ExecConfig {
    /// Defaults: 500 M steps, depth 128, no batching.
    ///
    /// The depth limit is conservative because each interpreted call uses a
    /// few kilobytes of host stack; 128 fits comfortably in a 2 MiB test
    /// thread stack.
    pub fn new() -> ExecConfig {
        ExecConfig {
            max_steps: 500_000_000,
            max_call_depth: 128,
            batching: false,
        }
    }

    /// Enables or disables round-trip batching (builder style).
    pub fn with_batching(mut self, batching: bool) -> ExecConfig {
        self.batching = batching;
        self
    }

    /// Overrides the step limit (builder style).
    pub fn with_max_steps(mut self, max_steps: u64) -> ExecConfig {
        self.max_steps = max_steps;
        self
    }

    /// Overrides the call-depth limit (builder style).
    pub fn with_max_call_depth(mut self, max_call_depth: usize) -> ExecConfig {
        self.max_call_depth = max_call_depth;
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

/// Component-kind table the *open* side needs to route hidden calls (which
/// id spaces key the state: per-activation for split functions,
/// per-object-instance for split classes). Contains no hidden code.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SplitMeta {
    kinds: Vec<MetaKind>,
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum MetaKind {
    Function,
    Class,
    Global,
}

impl SplitMeta {
    /// Derives the routing table from the hidden program's component
    /// list. The open program is not consulted: its split functions and
    /// classes already name their components.
    pub fn derive(_open: &Program, hidden: &HiddenProgram) -> SplitMeta {
        let kinds = hidden
            .components
            .iter()
            .map(|comp| match comp.kind {
                ComponentKind::Function { .. } => MetaKind::Function,
                ComponentKind::Class { .. } => MetaKind::Class,
                ComponentKind::Global { .. } => MetaKind::Global,
            })
            .collect();
        SplitMeta { kinds }
    }

    fn kind_of(&self, c: ComponentId) -> Option<MetaKind> {
        self.kinds.get(c.index()).copied()
    }
}

/// One configured in-process split execution: open program, hidden
/// program, batching, round-trip latency, fault injection and telemetry
/// recording.
///
/// This is the single entry point for running a split program in process:
/// it installs the hidden program on a fresh [`SecureServer`] behind an
/// [`InProcessChannel`]. Use [`Interp`] directly only for custom channels
/// (TCP, tracing).
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
    faults: Option<FaultPlan>,
    recorder: Option<Rc<MetricsRecorder>>,
}

impl<'p> Executor<'p> {
    /// An executor with default configuration: no batching, zero
    /// round-trip cost, no faults, no recorder.
    pub fn new(open: &'p Program, hidden: &'p HiddenProgram) -> Executor<'p> {
        Executor {
            open,
            hidden,
            config: ExecConfig::new(),
            rtt: 0,
            faults: None,
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

    /// Injects transport faults: wraps the channel in a
    /// [`FaultyChannel`] driven by `plan`. Outcome, interaction count and
    /// the server-side call sequence stay identical to a fault-free run;
    /// only [`ExecReport::transport`] (and the reliability telemetry
    /// counters) record the turbulence.
    pub fn faults(mut self, plan: FaultPlan) -> Executor<'p> {
        self.faults = Some(plan);
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
    /// Each call builds a fresh server (and, with [`Executor::faults`], a
    /// fresh copy of the fault plan, so every run replays the same seeded
    /// schedule); the recorder, if any, accumulates across runs.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] for execution faults on either side, or
    /// a terminal transport error if a fault plan exhausts the retry
    /// budget.
    pub fn run(&self, args: &[RtValue]) -> Result<ExecReport, RuntimeError> {
        let handle = match &self.recorder {
            Some(r) => RecorderHandle::new(r.clone()),
            None => RecorderHandle::none(),
        };
        let server = SecureServer::new(self.hidden.clone()).with_recorder(handle.clone());
        let inner = InProcessChannel::new(server)
            .with_rtt(self.rtt)
            .with_recorder(handle.clone());
        let meta = SplitMeta::derive(self.open, self.hidden);
        let (outcome, interactions, server_cost, transport) = match self.faults.clone() {
            Some(plan) => {
                let mut channel = FaultyChannel::new(inner, plan).with_recorder(handle.clone());
                let mut interp = Interp::new(self.open, self.config.clone())
                    .with_channel(&mut channel, &meta)
                    .with_recorder(handle);
                let outcome = interp.run("main", args)?;
                drop(interp);
                (
                    outcome,
                    channel.interactions(),
                    channel.inner().server().cost_spent(),
                    channel.transport_stats(),
                )
            }
            None => {
                let mut channel = inner;
                let mut interp = Interp::new(self.open, self.config.clone())
                    .with_channel(&mut channel, &meta)
                    .with_recorder(handle);
                let outcome = interp.run("main", args)?;
                drop(interp);
                (
                    outcome,
                    channel.interactions(),
                    channel.server().cost_spent(),
                    channel.transport_stats(),
                )
            }
        };
        let telemetry = match &self.recorder {
            Some(r) => r.snapshot(),
            None => MetricsSnapshot::new(),
        };
        Ok(ExecReport {
            outcome,
            interactions,
            server_cost,
            transport,
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
pub fn run_function(
    program: &Program,
    name: &str,
    args: &[RtValue],
    config: ExecConfig,
) -> Result<Outcome, RuntimeError> {
    let mut interp = Interp::new(program, config);
    interp.run(name, args)
}

/// Upper bound on buffered deferred calls before a forced flush.
const MAX_PENDING_CALLS: usize = 4096;

enum Flow {
    Normal,
    Break,
    Continue,
    Return(RtValue),
}

struct Frame {
    locals: Vec<RtValue>,
    activation: Option<(ComponentId, u64)>,
}

/// The interpreter. Most callers use [`run_program`] or [`Executor`];
/// construct an [`Interp`] directly to attach a custom [`Channel`]
/// (TCP, tracing) or to reuse global state across entry calls.
pub struct Interp<'a> {
    program: &'a Program,
    config: ExecConfig,
    globals: Vec<RtValue>,
    output: Vec<String>,
    cost: u64,
    steps: u64,
    depth: usize,
    channel: Option<&'a mut dyn Channel>,
    meta: Option<&'a SplitMeta>,
    next_activation: u64,
    next_instance: u64,
    /// Deferred hidden calls awaiting one coalesced round trip, with the
    /// result place (if any) each reply must land in. The deferrable-call
    /// pass guarantees a result-bearing entry is flushed within the frame
    /// that buffered it.
    pending: Vec<PendingCall>,
    pending_results: Vec<Option<Place>>,
    recorder: RecorderHandle,
    /// Cleared locals vectors of finished frames; a call takes one, so a
    /// steady-state call allocates nothing.
    frame_pool: Vec<Vec<RtValue>>,
    /// Each function's locals at their declared defaults, by `FuncId`; a
    /// call copies the part after its arguments.
    defaults: Vec<Vec<RtValue>>,
}

impl<'a> Interp<'a> {
    /// Creates an interpreter with initialized globals and no channel.
    pub fn new(program: &'a Program, config: ExecConfig) -> Interp<'a> {
        let globals = program
            .globals
            .iter()
            .map(|g| match (&g.ty, g.array_len) {
                (Ty::Array(elem), Some(len)) => RtValue::new_array(elem, len),
                (_, _) => g
                    .init
                    .map(RtValue::from_const)
                    .unwrap_or_else(|| RtValue::default_of(&g.ty)),
            })
            .collect();
        let defaults = program
            .functions
            .iter()
            .map(|f| {
                f.locals
                    .iter()
                    .map(|d| RtValue::default_of(&d.ty))
                    .collect()
            })
            .collect();
        Interp {
            program,
            config,
            globals,
            output: Vec::new(),
            cost: 0,
            steps: 0,
            depth: 0,
            channel: None,
            meta: None,
            next_activation: 1,
            next_instance: 1,
            pending: Vec::new(),
            pending_results: Vec::new(),
            recorder: RecorderHandle::none(),
            frame_pool: Vec::new(),
            defaults,
        }
    }

    /// Attaches a channel and routing metadata for split execution
    /// (builder style).
    pub fn with_channel(mut self, channel: &'a mut dyn Channel, meta: &'a SplitMeta) -> Interp<'a> {
        self.channel = Some(channel);
        self.meta = Some(meta);
        self
    }

    /// Attaches a telemetry recorder firing `Deferred` / `Flush` /
    /// `OpenRun` events (builder style). Recording never changes results,
    /// costs or step counts.
    pub fn with_recorder(mut self, recorder: RecorderHandle) -> Interp<'a> {
        self.recorder = recorder;
        self
    }

    /// Runs a named free function to completion.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] for execution faults or a missing entry.
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
        let ret = self.call_function(fid, args.to_vec())?;
        // Deferred calls to persistent (global/class) components may still
        // be buffered; the run's hidden-side effects must be complete
        // before the outcome is observable.
        self.flush_pending(None, false)?;
        self.recorder.record(Event::OpenRun {
            steps: self.steps,
            cost: self.cost,
        });
        Ok(Outcome {
            ret,
            output: std::mem::take(&mut self.output),
            cost: self.cost,
            steps: self.steps,
        })
    }

    /// Runs one call. `locals` holds the evaluated arguments; the rest of
    /// the frame is filled from the function's defaults.
    fn call_function(
        &mut self,
        fid: FuncId,
        mut locals: Vec<RtValue>,
    ) -> Result<RtValue, RuntimeError> {
        self.depth += 1;
        if self.depth > self.config.max_call_depth {
            self.depth -= 1;
            return Err(RuntimeError::StackOverflow {
                limit: self.config.max_call_depth,
            });
        }
        self.cost += COST_MODEL.call;
        let func = self.program.func(fid);
        let defaults = &self.defaults[fid.index()];
        locals.extend_from_slice(defaults.get(locals.len()..).unwrap_or_default());
        let activation = match func.split_component {
            Some(c) if self.meta.and_then(|m| m.kind_of(c)) == Some(MetaKind::Function) => {
                let id = self.next_activation;
                self.next_activation += 1;
                Some((c, id))
            }
            _ => None,
        };
        let mut frame = Frame { locals, activation };
        let mut result = self.exec_block(&mut frame, &func.body);
        // Buffered calls must reach the server before this activation's
        // state is freed below. (On error the run's outcome is discarded,
        // so the buffer is dropped instead of flushed.)
        if result.is_ok() && frame.activation.is_some() {
            if let Err(e) = self.flush_pending(Some(&mut frame), false) {
                result = Err(e);
            }
        }
        if result.is_err() {
            self.pending.clear();
            self.pending_results.clear();
        }
        // Free secure-side state regardless of how the function exits.
        if let Some((c, id)) = frame.activation {
            if let Some(chan) = self.channel.as_deref_mut() {
                chan.release(c, id)?;
            }
        }
        self.depth -= 1;
        // Only now, after the flush above has written every deferred
        // result into this frame, may its locals be reused.
        frame.locals.clear();
        self.frame_pool.push(frame.locals);
        match result? {
            Flow::Return(v) => Ok(v),
            // Falling off the end returns the zero value of the return type
            // (void functions return Uninit-safe Int 0 placeholder that
            // callers never observe — the type checker rejects using them).
            _ => Ok(match &func.ret_ty {
                Ty::Void => RtValue::Int(0),
                ty => RtValue::default_of(ty),
            }),
        }
    }

    fn tick(&mut self) -> Result<(), RuntimeError> {
        self.steps += 1;
        if self.steps > self.config.max_steps {
            return Err(RuntimeError::StepLimitExceeded {
                limit: self.config.max_steps,
            });
        }
        Ok(())
    }

    fn exec_block(&mut self, frame: &mut Frame, block: &Block) -> Result<Flow, RuntimeError> {
        for stmt in &block.stmts {
            self.tick()?;
            match &stmt.kind {
                StmtKind::Assign { place, value } => {
                    let v = self.operand(frame, value)?;
                    self.cost += COST_MODEL.assign;
                    self.assign_place(frame, place, v)?;
                }
                StmtKind::If {
                    cond,
                    then_blk,
                    else_blk,
                } => {
                    self.cost += COST_MODEL.branch;
                    let taken = self.truthy(frame, cond)?;
                    let flow = if taken {
                        self.exec_block(frame, then_blk)?
                    } else {
                        self.exec_block(frame, else_blk)?
                    };
                    match flow {
                        Flow::Normal => {}
                        other => return Ok(other),
                    }
                }
                StmtKind::While { cond, body } => loop {
                    self.tick()?;
                    self.cost += COST_MODEL.branch;
                    if !self.truthy(frame, cond)? {
                        break;
                    }
                    match self.exec_block(frame, body)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                },
                StmtKind::Return(e) => {
                    let v = match e {
                        Some(e) => self.operand(frame, e)?,
                        None => RtValue::Int(0),
                    };
                    return Ok(Flow::Return(v));
                }
                StmtKind::Break => return Ok(Flow::Break),
                StmtKind::Continue => return Ok(Flow::Continue),
                StmtKind::ExprStmt(e) => {
                    self.eval(frame, e)?;
                }
                StmtKind::Print(e) => {
                    let v = self.operand(frame, e)?;
                    self.cost += COST_MODEL.print;
                    self.output.push(v.to_string());
                }
                StmtKind::HiddenCall {
                    component,
                    label,
                    args,
                    result,
                    deferred,
                } => {
                    if *deferred && self.config.batching {
                        self.defer_call(frame, *component, *label, args, result.clone())?;
                    } else {
                        let reply = self.hidden_call(frame, *component, *label, args)?;
                        if let Some(place) = result {
                            self.cost += COST_MODEL.assign;
                            self.assign_place(frame, place, RtValue::from_const(reply))?;
                        }
                    }
                }
                StmtKind::Nop => {}
            }
        }
        Ok(Flow::Normal)
    }

    /// Evaluates hidden-call arguments to wire scalars.
    fn marshal_args(
        &mut self,
        frame: &mut Frame,
        args: &[Expr],
    ) -> Result<Vec<hps_ir::Value>, RuntimeError> {
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            let v = self.operand(frame, a)?;
            vals.push(v.to_const().ok_or(RuntimeError::TypeMismatch {
                expected: "scalar hidden-call argument",
                found: "aggregate",
            })?);
        }
        self.cost += COST_MODEL.marshal_per_arg * vals.len() as u64;
        Ok(vals)
    }

    /// The state key a hidden call routes to: the receiver's instance id
    /// for class components, 0 for globals, the current activation for
    /// split functions.
    fn activation_key(&self, frame: &Frame, component: ComponentId) -> Result<u64, RuntimeError> {
        let meta = self.meta.ok_or(RuntimeError::NoChannel)?;
        match meta.kind_of(component) {
            Some(MetaKind::Class) => match frame.locals.first() {
                Some(RtValue::Object(obj)) => Ok(obj.borrow().instance_id),
                _ => Err(RuntimeError::Channel(
                    "class-component hidden call outside a method".into(),
                )),
            },
            // One shared hidden state for a hidden global.
            Some(MetaKind::Global) => Ok(0),
            _ => match frame.activation {
                Some((c, id)) if c == component => Ok(id),
                _ => Err(RuntimeError::Channel(
                    "hidden call outside its split function's activation".into(),
                )),
            },
        }
    }

    fn hidden_call(
        &mut self,
        frame: &mut Frame,
        component: ComponentId,
        label: hps_ir::FragLabel,
        args: &[Expr],
    ) -> Result<hps_ir::Value, RuntimeError> {
        let vals = self.marshal_args(frame, args)?;
        let key = self.activation_key(frame, component)?;
        if self.pending.is_empty() {
            let chan = self.channel.as_deref_mut().ok_or(RuntimeError::NoChannel)?;
            let reply = chan.call(component, key, label, &vals)?;
            self.cost += chan.rtt_cost() + reply.server_cost;
            Ok(reply.value)
        } else {
            // Ship the deferred buffer and this demanded call together in
            // one round trip; the demanded reply is the batch's last.
            self.pending.push(PendingCall {
                component,
                key,
                label,
                args: vals,
            });
            self.pending_results.push(None);
            let last = self.flush_pending(Some(frame), true)?;
            Ok(last.expect("flushing a non-empty batch yields a reply"))
        }
    }

    /// Buffers a hidden call marked deferrable: argument evaluation (and
    /// its cost) happens now, transport waits for the next flush point.
    fn defer_call(
        &mut self,
        frame: &mut Frame,
        component: ComponentId,
        label: hps_ir::FragLabel,
        args: &[Expr],
        result: Option<Place>,
    ) -> Result<(), RuntimeError> {
        let vals = self.marshal_args(frame, args)?;
        let key = self.activation_key(frame, component)?;
        // Fail like an immediate call would if no channel is attached.
        if self.channel.is_none() {
            return Err(RuntimeError::NoChannel);
        }
        self.pending.push(PendingCall {
            component,
            key,
            label,
            args: vals,
        });
        self.pending_results.push(result);
        self.recorder.record(Event::Deferred);
        // Deterministic cap: an update-only loop may never demand a value,
        // so bound the buffer (and its memory) by flushing periodically.
        // The flush happens in the buffering frame, so result places stay
        // valid.
        if self.pending.len() >= MAX_PENDING_CALLS {
            self.flush_pending(Some(frame), false)?;
        }
        Ok(())
    }

    /// Sends every buffered call in one batched round trip, assigns replies
    /// to their recorded result places, and returns the last reply (the
    /// value of the demanded call that triggered the flush, when there is
    /// one). No-op on an empty buffer.
    fn flush_pending(
        &mut self,
        mut frame: Option<&mut Frame>,
        demanded: bool,
    ) -> Result<Option<hps_ir::Value>, RuntimeError> {
        if self.pending.is_empty() {
            return Ok(None);
        }
        let calls = std::mem::take(&mut self.pending);
        let results = std::mem::take(&mut self.pending_results);
        self.recorder.record(Event::Flush {
            pending: calls.len() as u64,
            demanded,
        });
        let chan = self.channel.as_deref_mut().ok_or(RuntimeError::NoChannel)?;
        let replies = chan.call_batch(&calls)?;
        self.cost += chan.rtt_cost();
        let mut last = None;
        for (reply, place) in replies.into_iter().zip(results) {
            self.cost += reply.server_cost;
            if let Some(place) = place {
                // The deferrable-call pass only defers result-bearing calls
                // that flush within the frame that buffered them.
                let frame = frame
                    .as_deref_mut()
                    .expect("deferred result flushed outside its frame");
                self.cost += COST_MODEL.assign;
                self.assign_place(frame, &place, RtValue::from_const(reply.value))?;
            }
            last = Some(reply.value);
        }
        Ok(last)
    }

    fn truthy(&mut self, frame: &mut Frame, cond: &Expr) -> Result<bool, RuntimeError> {
        if let Expr::Binary { op, lhs, rhs } = cond {
            if let Some(taken) = self.leaf_compare(frame, *op, lhs, rhs) {
                self.cost += COST_MODEL.binop;
                return Ok(taken);
            }
        }
        match self.operand(frame, cond)? {
            RtValue::Bool(b) => Ok(b),
            v => Err(RuntimeError::TypeMismatch {
                expected: "bool condition",
                found: v.type_name(),
            }),
        }
    }

    fn read_place(&mut self, frame: &mut Frame, place: &Place) -> Result<RtValue, RuntimeError> {
        match place {
            Place::Local(id) => Ok(frame.locals[id.index()].clone()),
            Place::Global(id) => Ok(self.globals[id.index()].clone()),
            Place::Index { base, index } => {
                if let Place::Local(id) = **base {
                    let idx = self.eval_index(frame, index)?;
                    self.cost += COST_MODEL.index;
                    return load_elem(&frame.locals[id.index()], idx);
                }
                let arr = self.read_place(frame, base)?;
                let idx = self.eval_index(frame, index)?;
                self.cost += COST_MODEL.index;
                load_elem(&arr, idx)
            }
            Place::Field { obj, field, .. } => {
                let o = self.eval(frame, obj)?;
                self.cost += COST_MODEL.field;
                match o {
                    RtValue::Object(o) => Ok(o.borrow().fields[field.index()].clone()),
                    RtValue::Uninit => Err(RuntimeError::UninitializedValue),
                    v => Err(RuntimeError::TypeMismatch {
                        expected: "object",
                        found: v.type_name(),
                    }),
                }
            }
        }
    }

    fn assign_place(
        &mut self,
        frame: &mut Frame,
        place: &Place,
        value: RtValue,
    ) -> Result<(), RuntimeError> {
        match place {
            Place::Local(id) => {
                frame.locals[id.index()] = value;
                Ok(())
            }
            Place::Global(id) => {
                self.globals[id.index()] = value;
                Ok(())
            }
            Place::Index { base, index } => {
                if let Place::Local(id) = **base {
                    let idx = self.eval_index(frame, index)?;
                    self.cost += COST_MODEL.index;
                    return store_elem(&frame.locals[id.index()], idx, value);
                }
                let arr = self.read_place(frame, base)?;
                let idx = self.eval_index(frame, index)?;
                self.cost += COST_MODEL.index;
                store_elem(&arr, idx, value)
            }
            Place::Field { obj, field, .. } => {
                let o = self.eval(frame, obj)?;
                self.cost += COST_MODEL.field;
                match o {
                    RtValue::Object(o) => {
                        o.borrow_mut().fields[field.index()] = value;
                        Ok(())
                    }
                    RtValue::Uninit => Err(RuntimeError::UninitializedValue),
                    v => Err(RuntimeError::TypeMismatch {
                        expected: "object",
                        found: v.type_name(),
                    }),
                }
            }
        }
    }

    fn eval_index(&mut self, frame: &mut Frame, index: &Expr) -> Result<i64, RuntimeError> {
        match self.operand(frame, index)? {
            RtValue::Int(i) => Ok(i),
            v => Err(RuntimeError::TypeMismatch {
                expected: "int index",
                found: v.type_name(),
            }),
        }
    }

    /// Evaluates an operand: the leaves (`Const`, `Local`, `Global`)
    /// resolve inline, anything else recurses into [`Interp::eval`].
    #[inline(always)]
    fn operand(&mut self, frame: &mut Frame, e: &Expr) -> Result<RtValue, RuntimeError> {
        match e {
            Expr::Const(v) => Ok(RtValue::from_const(*v)),
            Expr::Local(id) => Ok(frame.locals[id.index()].clone()),
            Expr::Global(id) => Ok(self.globals[id.index()].clone()),
            _ => self.eval(frame, e),
        }
    }

    /// A leaf's scalar value; `None` for other expressions and for
    /// aggregate or uninitialised leaves.
    #[inline(always)]
    fn leaf(&self, frame: &Frame, e: &Expr) -> Option<Value> {
        match e {
            Expr::Const(v) => Some(*v),
            Expr::Local(id) => frame.locals[id.index()].to_const(),
            Expr::Global(id) => self.globals[id.index()].to_const(),
            _ => None,
        }
    }

    /// `leaf <cmp> leaf` on two ints or two floats, straight to a `bool`.
    /// `None` sends every other shape down the general path, which also
    /// reports its errors.
    #[inline(always)]
    fn leaf_compare(&self, frame: &Frame, op: BinOp, lhs: &Expr, rhs: &Expr) -> Option<bool> {
        if !op.is_relational() {
            return None;
        }
        match (self.leaf(frame, lhs)?, self.leaf(frame, rhs)?) {
            (Value::Int(x), Value::Int(y)) => Some(compare(op, x, y)),
            (Value::Float(x), Value::Float(y)) => Some(compare(op, x, y)),
            _ => None,
        }
    }

    fn eval(&mut self, frame: &mut Frame, e: &Expr) -> Result<RtValue, RuntimeError> {
        Ok(match e {
            Expr::Const(v) => RtValue::from_const(*v),
            Expr::Local(id) => frame.locals[id.index()].clone(),
            Expr::Global(id) => self.globals[id.index()].clone(),
            Expr::Index { base, index } => {
                // A local array is indexed in place. Nothing the index
                // expression runs can rebind this frame's locals, so reading
                // the base after it is the same as reading it before.
                if let Expr::Local(id) = **base {
                    let idx = self.eval_index(frame, index)?;
                    self.cost += COST_MODEL.index;
                    return load_elem(&frame.locals[id.index()], idx);
                }
                let arr = self.operand(frame, base)?;
                let idx = self.eval_index(frame, index)?;
                self.cost += COST_MODEL.index;
                load_elem(&arr, idx)?
            }
            Expr::FieldGet { obj, field, .. } => {
                let o = self.operand(frame, obj)?;
                self.cost += COST_MODEL.field;
                match o {
                    RtValue::Object(o) => o.borrow().fields[field.index()].clone(),
                    RtValue::Uninit => return Err(RuntimeError::UninitializedValue),
                    v => {
                        return Err(RuntimeError::TypeMismatch {
                            expected: "object",
                            found: v.type_name(),
                        })
                    }
                }
            }
            Expr::Unary { op, arg } => {
                self.cost += COST_MODEL.unop;
                let a = self.operand(frame, arg)?;
                crate::ops::unop(*op, &a)?
            }
            Expr::Binary { op, lhs, rhs } => {
                self.cost += COST_MODEL.binop;
                if *op == hps_ir::BinOp::And {
                    return if self.truthy(frame, lhs)? {
                        self.eval(frame, rhs)
                    } else {
                        Ok(RtValue::Bool(false))
                    };
                }
                if *op == hps_ir::BinOp::Or {
                    return if self.truthy(frame, lhs)? {
                        Ok(RtValue::Bool(true))
                    } else {
                        self.eval(frame, rhs)
                    };
                }
                let a = self.operand(frame, lhs)?;
                let b = self.operand(frame, rhs)?;
                crate::ops::binop(*op, &a, &b)?
            }
            Expr::Call { callee, args } => {
                let mut locals = self.frame_pool.pop().unwrap_or_default();
                for a in args {
                    locals.push(self.operand(frame, a)?);
                }
                self.call_function(callee.func(), locals)?
            }
            Expr::BuiltinCall { builtin, args } => {
                if *builtin == Builtin::Len {
                    self.cost += COST_MODEL.builtin;
                    if let Expr::Local(id) = args[0] {
                        return array_len(&frame.locals[id.index()]);
                    }
                    let a = self.eval(frame, &args[0])?;
                    array_len(&a)?
                } else {
                    self.cost += COST_MODEL.builtin_cost(*builtin);
                    // One- and two-argument builtins take a stack slice.
                    match args.as_slice() {
                        [a] => {
                            let a = self.operand(frame, a)?;
                            crate::ops::builtin(*builtin, std::slice::from_ref(&a))?
                        }
                        [a, b] => {
                            let a = self.operand(frame, a)?;
                            let b = self.operand(frame, b)?;
                            crate::ops::builtin(*builtin, &[a, b])?
                        }
                        _ => {
                            let mut vals = Vec::with_capacity(args.len());
                            for a in args {
                                vals.push(self.operand(frame, a)?);
                            }
                            crate::ops::builtin(*builtin, &vals)?
                        }
                    }
                }
            }
            Expr::NewArray { elem, len } => {
                let n = self.eval_index(frame, len)?;
                if n < 0 {
                    return Err(RuntimeError::IndexOutOfBounds { index: n, len: 0 });
                }
                self.cost += COST_MODEL.alloc_per_elem * n as u64;
                RtValue::new_array(elem, n as usize)
            }
            Expr::NewObject(class) => {
                self.cost += COST_MODEL.alloc_object;
                let cdef = self.program.class(*class);
                let instance_id = self.next_instance;
                self.next_instance += 1;
                RtValue::Object(Rc::new(RefCell::new(ObjData {
                    class: *class,
                    instance_id,
                    fields: cdef
                        .fields
                        .iter()
                        .map(|f| RtValue::default_of(&f.ty))
                        .collect(),
                })))
            }
        })
    }

    /// The value of a global (for tests and experiment harnesses).
    pub fn global(&self, id: hps_ir::GlobalId) -> &RtValue {
        &self.globals[id.index()]
    }

    /// Virtual cost spent so far.
    pub fn cost(&self) -> u64 {
        self.cost
    }
}

fn idx_usize(idx: i64, len: usize) -> Result<usize, RuntimeError> {
    if idx < 0 {
        Err(RuntimeError::IndexOutOfBounds { index: idx, len })
    } else {
        Ok(idx as usize)
    }
}

/// The outcome of a relational operator on two scalars of one type; the
/// same answers as [`crate::ops::binop`], NaN included.
#[inline(always)]
fn compare<T: PartialOrd>(op: BinOp, x: T, y: T) -> bool {
    match op {
        BinOp::Eq => x == y,
        BinOp::Ne => x != y,
        BinOp::Lt => x < y,
        BinOp::Le => x <= y,
        BinOp::Gt => x > y,
        _ => x >= y,
    }
}

fn not_an_array(v: &RtValue) -> RuntimeError {
    match v {
        RtValue::Uninit => RuntimeError::UninitializedValue,
        v => RuntimeError::TypeMismatch {
            expected: "array",
            found: v.type_name(),
        },
    }
}

/// Element `idx` of an array value.
fn load_elem(arr: &RtValue, idx: i64) -> Result<RtValue, RuntimeError> {
    let RtValue::Array(a) = arr else {
        return Err(not_an_array(arr));
    };
    let a = a.borrow();
    a.get(idx_usize(idx, a.len())?)
        .cloned()
        .ok_or(RuntimeError::IndexOutOfBounds {
            index: idx,
            len: a.len(),
        })
}

/// Writes element `idx` of an array value.
fn store_elem(arr: &RtValue, idx: i64, value: RtValue) -> Result<(), RuntimeError> {
    let RtValue::Array(a) = arr else {
        return Err(not_an_array(arr));
    };
    let mut a = a.borrow_mut();
    let len = a.len();
    let slot = a
        .get_mut(idx_usize(idx, len)?)
        .ok_or(RuntimeError::IndexOutOfBounds { index: idx, len })?;
    *slot = value;
    Ok(())
}

/// `len` of an array value.
fn array_len(arr: &RtValue) -> Result<RtValue, RuntimeError> {
    match arr {
        RtValue::Array(a) => Ok(RtValue::Int(a.borrow().len() as i64)),
        v => Err(not_an_array(v)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let cfg = ExecConfig::new().with_max_steps(1000);
        assert!(matches!(
            run_function(&p, "main", &[], cfg),
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
        let cfg = |n| ExecConfig::new().with_max_steps(n);
        assert_eq!(run_function(&p, "main", &[], cfg(9)).unwrap().steps, 9);
        assert_eq!(
            run_function(&p, "main", &[], cfg(8)),
            Err(RuntimeError::StepLimitExceeded { limit: 8 })
        );
        let p = hps_lang::parse("fn main() { while (true) { } }").unwrap();
        assert_eq!(
            run_function(&p, "main", &[], cfg(1000)),
            Err(RuntimeError::StepLimitExceeded { limit: 1000 })
        );
    }

    #[test]
    fn depth_limit_holds_with_pooled_frames() {
        let p = hps_lang::parse(
            "fn f(n: int) -> int { if (n == 0) { return 0; } return f(n - 1) + 1; }
             fn main(n: int) { var i: int = 0;
                 while (i < 5) { print(f(n)); i = i + 1; } }",
        )
        .unwrap();
        // `main` is depth 1, so f(8) reaches depth 10 and f(9) depth 11.
        let cfg = || ExecConfig::new().with_max_call_depth(10);
        let ok = run_function(&p, "main", &[RtValue::Int(8)], cfg()).unwrap();
        assert_eq!(ok.output, ["8"; 5]);
        assert_eq!(
            run_function(&p, "main", &[RtValue::Int(9)], cfg()),
            Err(RuntimeError::StackOverflow { limit: 10 })
        );
    }

    #[test]
    fn pooled_frames_keep_caller_locals_and_start_from_defaults() {
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

    #[test]
    fn deferred_result_lands_before_its_frame_is_recycled() {
        use crate::channel::CallReply;
        use hps_ir::{FragLabel, Stmt};

        /// Replies `40 + arg` to every call.
        struct Echo(u64);
        impl Channel for Echo {
            fn call(
                &mut self,
                _: ComponentId,
                _: u64,
                _: FragLabel,
                args: &[Value],
            ) -> Result<CallReply, RuntimeError> {
                self.0 += 1;
                let Some(Value::Int(v)) = args.first() else {
                    panic!("one int argument");
                };
                Ok(CallReply {
                    value: Value::Int(40 + v),
                    server_cost: 0,
                })
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

        // `f`'s deferred call writes its reply into the caller's array
        // through `f`'s own local; the flush at `f`'s end must find that
        // local before the frame goes back to the pool. `k` then reuses
        // the recycled frame.
        let mut p = hps_lang::parse(
            "fn f(out: int[], n: int) { var t: int = n; }
             fn k(v: int) -> int { var w: int = v + 1; return w; }
             fn main() { var a: int[] = new int[1]; f(a, 2); print(k(7)); print(a[0]); }",
        )
        .unwrap();
        let fid = p.func_by_name("f").unwrap();
        let f = p.func_mut(fid);
        let out = f.local_by_name("out").unwrap();
        let n = f.local_by_name("n").unwrap();
        f.split_component = Some(ComponentId::new(0));
        f.body.stmts.push(Stmt::new(StmtKind::HiddenCall {
            component: ComponentId::new(0),
            label: FragLabel::new(0),
            args: vec![Expr::local(n)],
            result: Some(Place::Index {
                base: Box::new(Place::Local(out)),
                index: Expr::int(0),
            }),
            deferred: true,
        }));
        p.renumber_all();
        let meta = SplitMeta {
            kinds: vec![MetaKind::Function],
        };
        let mut chan = Echo(0);
        let outcome = Interp::new(&p, ExecConfig::new().with_batching(true))
            .with_channel(&mut chan, &meta)
            .run("main", &[])
            .unwrap();
        assert_eq!(outcome.output, ["8", "42"]);
        assert_eq!(chan.interactions(), 1);
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
