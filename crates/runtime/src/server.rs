//! The secure-side server.
//!
//! Holds the installed [`HiddenProgram`], compiled once when it is
//! installed, and the hidden part of the running program's state, keyed
//! by `(component, activation-or-instance id)`. State is created lazily on
//! first touch (so no extra round trip is needed to open an activation)
//! and freed on [`SecureServer::release`].

use crate::bytecode::{run_compiled, HiddenCode};
use crate::error::RuntimeError;
use crate::value::RtValue;
use hps_ir::{ComponentId, FragLabel, HiddenProgram, Value};
use hps_telemetry::{Event, RecorderHandle};
use std::collections::HashMap;
use std::sync::Arc;

/// Result of executing a fragment: the returned scalar and the virtual
/// cost the secure device spent.
#[derive(Clone, PartialEq, Debug)]
pub struct FragOutcome {
    /// Value returned to the open side (the "any" placeholder is `Int(0)`).
    pub value: Value,
    /// Virtual cost units consumed on the secure device.
    pub cost: u64,
}

/// The secure machine: hidden code plus hidden state.
#[derive(Debug)]
pub struct SecureServer {
    /// The installed program, compiled; the sessions of a shard pool share
    /// one.
    code: Arc<HiddenCode>,
    state: HashMap<(ComponentId, u64), Vec<RtValue>>,
    calls_served: u64,
    cost_spent: u64,
    recorder: RecorderHandle,
}

impl SecureServer {
    /// Creates a server installing the given hidden program: every
    /// fragment is compiled here, once.
    pub fn new(hidden: HiddenProgram) -> SecureServer {
        SecureServer::installed(Arc::new(HiddenCode::compile(&hidden)))
    }

    /// A server running already compiled code, which other servers may
    /// share: the shard pool hands every session the one it compiled.
    pub(crate) fn installed(code: Arc<HiddenCode>) -> SecureServer {
        SecureServer {
            code,
            state: HashMap::new(),
            calls_served: 0,
            cost_spent: 0,
            recorder: RecorderHandle::none(),
        }
    }

    /// Attaches a telemetry recorder firing one `Fragment` event per
    /// executed fragment (builder style). Recording never changes results
    /// or metering.
    pub fn with_recorder(mut self, recorder: RecorderHandle) -> SecureServer {
        self.recorder = recorder;
        self
    }

    /// Executes fragment `label` of `component` against the state of
    /// activation/instance `key`, creating zeroed state on first touch.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnknownComponent`] / [`RuntimeError::UnknownFragment`]
    /// for bad addresses and propagates fragment execution errors.
    pub fn call(
        &mut self,
        component: ComponentId,
        key: u64,
        label: FragLabel,
        args: &[Value],
    ) -> Result<FragOutcome, RuntimeError> {
        let comp = self
            .code
            .component(component)
            .ok_or(RuntimeError::UnknownComponent(component))?;
        let code = comp
            .fragment(label)
            .ok_or(RuntimeError::UnknownFragment { component, label })?;
        let vars = self
            .state
            .entry((component, key))
            .or_insert_with(|| comp.fresh_vars());
        let outcome = run_compiled(code, vars, args)?;
        self.calls_served += 1;
        self.cost_spent += outcome.cost;
        self.recorder.record(Event::Fragment { cost: outcome.cost });
        Ok(outcome)
    }

    /// Executes a batch of logical fragment calls in order (the payload of
    /// one coalesced round trip).
    ///
    /// Each entry is metered exactly like an individual [`SecureServer::call`]
    /// — `calls_served` and `cost_spent` advance per logical call, so
    /// transport batching never changes what the secure side observes.
    ///
    /// # Errors
    ///
    /// Propagates the first failing call's error; later entries do not run.
    pub fn call_batch(
        &mut self,
        calls: &[crate::channel::PendingCall],
    ) -> Result<Vec<FragOutcome>, RuntimeError> {
        calls
            .iter()
            .map(|c| self.call(c.component, c.key, c.label, &c.args))
            .collect()
    }

    /// Frees the hidden state of one activation/instance (sent by the open
    /// side when a split function returns). Unknown keys are ignored — the
    /// activation may never have touched the hidden side.
    pub fn release(&mut self, component: ComponentId, key: u64) {
        self.state.remove(&(component, key));
    }

    /// Number of fragment calls served.
    pub fn calls_served(&self) -> u64 {
        self.calls_served
    }

    /// Total virtual cost spent executing fragments.
    pub fn cost_spent(&self) -> u64 {
        self.cost_spent
    }

    /// The installed program's code.
    #[cfg(test)]
    pub(crate) fn code(&self) -> &Arc<HiddenCode> {
        &self.code
    }

    /// Number of live activations/instances.
    pub fn live_activations(&self) -> usize {
        self.state.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hps_ir::{
        BinOp, Block, ComponentKind, Expr, Fragment, HiddenComponent, HiddenVar, LocalId, Place,
        Stmt, StmtKind, Ty,
    };

    fn counter_program() -> HiddenProgram {
        // One component, hidden var c; L0(p): c = c + p, returns c.
        let mut hp = HiddenProgram::new();
        hp.add(HiddenComponent {
            id: ComponentId::new(0),
            kind: ComponentKind::Function {
                func_name: "f".into(),
            },
            vars: vec![HiddenVar {
                name: "c".into(),
                ty: Ty::Int,
                init: None,
            }],
            fragments: vec![Fragment {
                label: FragLabel::new(0),
                params: vec![("p".into(), Ty::Int)],
                body: Block::of(vec![Stmt::new(StmtKind::Assign {
                    place: Place::Local(LocalId::new(0)),
                    value: Expr::binary(
                        BinOp::Add,
                        Expr::local(LocalId::new(0)),
                        Expr::local(LocalId::new(1)),
                    ),
                })]),
                ret: Some(Expr::local(LocalId::new(0))),
            }],
        });
        hp
    }

    #[test]
    fn state_is_per_key_and_lazy() {
        let mut server = SecureServer::new(counter_program());
        let c = ComponentId::new(0);
        let l = FragLabel::new(0);
        assert_eq!(
            server.call(c, 1, l, &[Value::Int(5)]).unwrap().value,
            Value::Int(5)
        );
        assert_eq!(
            server.call(c, 1, l, &[Value::Int(5)]).unwrap().value,
            Value::Int(10)
        );
        // A different activation starts fresh.
        assert_eq!(
            server.call(c, 2, l, &[Value::Int(1)]).unwrap().value,
            Value::Int(1)
        );
        assert_eq!(server.live_activations(), 2);
        assert_eq!(server.calls_served(), 3);
        assert!(server.cost_spent() > 0);
    }

    #[test]
    fn release_frees_state() {
        let mut server = SecureServer::new(counter_program());
        let c = ComponentId::new(0);
        let l = FragLabel::new(0);
        server.call(c, 1, l, &[Value::Int(5)]).unwrap();
        server.release(c, 1);
        assert_eq!(server.live_activations(), 0);
        // Re-entering the same key starts from zeroed state.
        assert_eq!(
            server.call(c, 1, l, &[Value::Int(2)]).unwrap().value,
            Value::Int(2)
        );
        // Releasing unknown keys is a no-op.
        server.release(c, 99);
    }

    #[test]
    fn a_fragment_that_does_not_lower_installs_and_fails_when_called() {
        // Component 0 gains `L1`, a `print` the fragment subset forbids;
        // component 1 has more hidden variables than the bytecode
        // addresses, so its `L0` does not lower at all.
        let mut hidden = counter_program();
        hidden.components[0].fragments.push(Fragment {
            label: FragLabel::new(1),
            params: vec![],
            body: Block::of(vec![Stmt::new(StmtKind::Print(Expr::int(1)))]),
            ret: None,
        });
        hidden.add(HiddenComponent {
            id: ComponentId::new(1),
            kind: ComponentKind::Function {
                func_name: "g".into(),
            },
            vars: (0..70_000)
                .map(|i| HiddenVar {
                    name: format!("v{i}"),
                    ty: Ty::Int,
                    init: None,
                })
                .collect(),
            fragments: vec![Fragment {
                label: FragLabel::new(0),
                params: vec![],
                body: Block::new(),
                ret: None,
            }],
        });
        let mut server = SecureServer::new(hidden);
        let (c0, c1) = (ComponentId::new(0), ComponentId::new(1));
        let (l0, l1) = (FragLabel::new(0), FragLabel::new(1));
        let add = |server: &mut SecureServer, p| server.call(c0, 1, l0, &[Value::Int(p)]);
        assert_eq!(add(&mut server, 5).unwrap().value, Value::Int(5));
        let illegal = server.call(c0, 1, l1, &[]).unwrap_err();
        assert_eq!(
            illegal.to_string(),
            "fragment attempted an illegal operation: print in fragment"
        );
        let unlowered = server.call(c1, 1, l0, &[]).unwrap_err();
        assert_eq!(
            unlowered.to_string(),
            "program cannot be lowered to bytecode: more variables than bytecode registers"
        );
        assert_eq!(add(&mut server, 5).unwrap().value, Value::Int(10));
        assert_eq!(server.calls_served(), 2);
    }

    #[test]
    fn bad_addresses() {
        let mut server = SecureServer::new(counter_program());
        assert!(matches!(
            server.call(ComponentId::new(9), 0, FragLabel::new(0), &[]),
            Err(RuntimeError::UnknownComponent(_))
        ));
        assert!(matches!(
            server.call(ComponentId::new(0), 0, FragLabel::new(9), &[]),
            Err(RuntimeError::UnknownFragment { .. })
        ));
    }
}
