//! The secure-side server.
//!
//! Holds the [`HiddenProgram`] and the hidden part of the running program's
//! state, keyed by `(component, activation-or-instance id)`. State is
//! created lazily on first touch (so no extra round trip is needed to open
//! an activation) and freed on [`SecureServer::release`].

use crate::bytecode::{run_compiled, VmCache};
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
    hidden: Arc<HiddenProgram>,
    state: HashMap<(ComponentId, u64), Vec<RtValue>>,
    calls_served: u64,
    cost_spent: u64,
    recorder: RecorderHandle,
    /// Compile-once fragment bytecode cache, built for `hidden`: every
    /// fragment runs on the VM. The sessions of a shard share one.
    vm: Arc<VmCache>,
}

impl SecureServer {
    /// Creates a server installing the given hidden program, with an
    /// empty compile-once bytecode cache of its own.
    pub fn new(hidden: HiddenProgram) -> SecureServer {
        let vm = Arc::new(VmCache::for_program(&hidden));
        SecureServer::shared(Arc::new(hidden), vm)
    }

    /// A server over a program and a compile-once cache that other
    /// servers share: the shard pool hands every session of a shard the
    /// same two, so the program is held once and each fragment lowers at
    /// most once per shard. `vm` must be built for `hidden`.
    pub(crate) fn shared(hidden: Arc<HiddenProgram>, vm: Arc<VmCache>) -> SecureServer {
        SecureServer {
            hidden,
            state: HashMap::new(),
            calls_served: 0,
            cost_spent: 0,
            recorder: RecorderHandle::none(),
            vm,
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
        if component.index() >= self.hidden.components.len() {
            return Err(RuntimeError::UnknownComponent(component));
        }
        let comp = &self.hidden.components[component.index()];
        let position = comp
            .fragments
            .iter()
            .position(|f| f.label == label)
            .ok_or(RuntimeError::UnknownFragment { component, label })?;
        let fragment = &comp.fragments[position];
        let vars = self.state.entry((component, key)).or_insert_with(|| {
            comp.vars
                .iter()
                .map(|v| match v.init {
                    Some(init) => RtValue::from_const(init),
                    None => RtValue::default_of(&v.ty),
                })
                .collect()
        });
        let (code, fresh) =
            self.vm
                .get_or_compile(component.index(), position, fragment, &comp.vars);
        self.recorder.record(if fresh {
            Event::VmCompile
        } else {
            Event::VmCacheHit
        });
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

    /// Number of live activations/instances.
    pub fn live_activations(&self) -> usize {
        self.state.len()
    }

    /// Fragments lowered to bytecode by this server's cache (shared caches
    /// report the shared totals).
    pub fn vm_compiles(&self) -> u64 {
        self.vm.compiles()
    }

    /// Fragment executions served from already-compiled bytecode.
    pub fn vm_cache_hits(&self) -> u64 {
        self.vm.cache_hits()
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
    fn fragments_compile_once_and_hit_the_cache() {
        let mut server = SecureServer::new(counter_program());
        let c = ComponentId::new(0);
        let l = FragLabel::new(0);
        for i in 0..4 {
            server.call(c, 1, l, &[Value::Int(i)]).unwrap();
        }
        assert_eq!(server.vm_compiles(), 1, "one fragment lowers once");
        assert_eq!(server.vm_cache_hits(), 3);
    }

    #[test]
    fn shared_vm_cache_compiles_once_across_servers() {
        let hidden = Arc::new(counter_program());
        let cache = Arc::new(VmCache::for_program(&hidden));
        let c = ComponentId::new(0);
        let l = FragLabel::new(0);
        let mut a = SecureServer::shared(Arc::clone(&hidden), Arc::clone(&cache));
        let mut b = SecureServer::shared(hidden, Arc::clone(&cache));
        a.call(c, 1, l, &[Value::Int(7)]).unwrap();
        b.call(c, 2, l, &[Value::Int(7)]).unwrap();
        assert_eq!((cache.compiles(), cache.cache_hits()), (1, 1));
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
