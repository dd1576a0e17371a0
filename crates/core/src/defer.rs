//! The deferrable-call pass: round-trip coalescing for split programs.
//!
//! Splitting emits one [`StmtKind::HiddenCall`] per fragment trigger, and
//! every call costs the open side a full round trip to the secure device.
//! Many of those calls never produce a value the open side looks at before
//! the next hidden call — update-only `set` fragments, region flushes,
//! promoted clause triggers. This pass finds them and marks them
//! `deferred`, allowing a batching runtime ([`hps_runtime`'s
//! `ExecConfig::batching`]) to buffer marked calls and ship them together
//! with the next *demanded* call in a single round trip.
//!
//! The marking is purely static and conservative; a call is deferrable
//! when buffering it cannot change what any open statement observes:
//!
//! * a call with **no result place** only mutates hidden state, which the
//!   open side can only observe through a later hidden call — and any
//!   later non-deferred call flushes the buffer first, preserving the
//!   logical call order;
//! * a call whose result place is **dead** (no use is reached by the
//!   definition, per [`DefUse`] chains over the open function) behaves
//!   like a result-free call once the dead store is dropped;
//! * a call whose result **is** consumed can still be deferred when the
//!   consumption happens at or after the next non-deferred hidden call in
//!   the same straight-line run: the flush assigns buffered results, in
//!   order, before anything reads them. This requires the intervening
//!   calls' arguments to be free of open function calls (a callee could
//!   force a flush in its own frame) and free of reads of the result
//!   local.
//!
//! The secure side still executes and meters every logical call in order,
//! and the wiretap ([`hps_runtime`'s `TraceChannel`]) still records each
//! one, so the adversary's view — and therefore the paper's security
//! analysis — is unchanged; only the transport schedule differs.

use hps_analysis::cfg::Cfg;
use hps_analysis::reaching::{DefUse, ReachingDefs};
use hps_analysis::vars::VarId;
use hps_analysis::ModRef;
use hps_ir::{Block, Expr, Function, Place, Program, Stmt, StmtId, StmtKind};
use std::collections::HashSet;

/// What the pass did to one open program.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DeferStats {
    /// Hidden calls in the open program.
    pub total_calls: usize,
    /// Calls marked deferrable (shippable in a coalesced round trip).
    pub deferred_calls: usize,
    /// Dead result places dropped (the call became update-only).
    pub dead_results_dropped: usize,
}

impl DeferStats {
    fn add(&mut self, other: &DeferStats) {
        self.total_calls += other.total_calls;
        self.deferred_calls += other.deferred_calls;
        self.dead_results_dropped += other.dead_results_dropped;
    }

    /// Fraction of hidden-call sites that a batching runtime may coalesce.
    pub fn deferred_fraction(&self) -> f64 {
        if self.total_calls == 0 {
            0.0
        } else {
            self.deferred_calls as f64 / self.total_calls as f64
        }
    }
}

/// Marks deferrable hidden calls in a freshly split (and renumbered) open
/// program. Returns per-program statistics.
///
/// Idempotent: re-running never un-marks a call, and already-marked calls
/// are counted, not re-derived.
pub fn mark_deferrable(open: &mut Program) -> DeferStats {
    let modref = ModRef::compute(open);
    let mut stats = DeferStats::default();
    for func in &mut open.functions {
        stats.add(&mark_deferrable_function(func, &modref));
    }
    stats
}

/// [`mark_deferrable`] for one renumbered open function. `modref` is the
/// mod/ref summary of the program the function belongs to. Splitting one
/// function on a local seed leaves that summary unchanged (the suite's
/// `trial_split` test checks it on every such split), so a trial split of
/// one function may pass the original program's.
pub fn mark_deferrable_function(func: &mut Function, modref: &ModRef) -> DeferStats {
    let mut stats = DeferStats::default();
    let mut any_hidden = false;
    hps_ir::visit::for_each_stmt(&func.body, &mut |s| {
        if matches!(s.kind, StmtKind::HiddenCall { .. }) {
            any_hidden = true;
        }
    });
    if !any_hidden {
        return stats;
    }

    // Result places never consumed anywhere: reaching definitions with
    // empty use sets (hps-analysis def-use chains).
    let cfg = Cfg::build(func);
    let reaching = ReachingDefs::compute(func, &cfg, modref);
    let def_use = DefUse::compute(&cfg, &reaching);
    let mut dead_results: HashSet<StmtId> = HashSet::new();
    hps_ir::visit::for_each_stmt(&func.body, &mut |s| {
        if let StmtKind::HiddenCall {
            result: Some(Place::Local(l)),
            ..
        } = &s.kind
        {
            let node = cfg.node_of(s.id);
            let dead = reaching.defs_at(node).iter().any(|&d| {
                reaching.defs()[d].var == VarId::Local(*l) && def_use.uses_of(d).is_empty()
            });
            if dead {
                dead_results.insert(s.id);
            }
        }
    });

    let mut defer: HashSet<StmtId> = HashSet::new();
    scan_block(&func.body, &dead_results, &mut defer);
    apply_block(&mut func.body, &defer, &dead_results, &mut stats);
    stats
}

/// Walks a block, splitting its statement list into maximal runs of
/// consecutive hidden calls and recursing into nested blocks.
fn scan_block(block: &Block, dead: &HashSet<StmtId>, defer: &mut HashSet<StmtId>) {
    let stmts = &block.stmts;
    let mut i = 0;
    while i < stmts.len() {
        if matches!(stmts[i].kind, StmtKind::HiddenCall { .. }) {
            let start = i;
            while i < stmts.len() && matches!(stmts[i].kind, StmtKind::HiddenCall { .. }) {
                i += 1;
            }
            scan_run(&stmts[start..i], dead, defer);
        } else {
            match &stmts[i].kind {
                StmtKind::If {
                    then_blk, else_blk, ..
                } => {
                    scan_block(then_blk, dead, defer);
                    scan_block(else_blk, dead, defer);
                }
                StmtKind::While { body, .. } => scan_block(body, dead, defer),
                _ => {}
            }
            i += 1;
        }
    }
}

/// Decides deferrability within one straight-line run of hidden calls.
fn scan_run(run: &[Stmt], dead: &HashSet<StmtId>, defer: &mut HashSet<StmtId>) {
    // The last call with a live result stays demanded; it is the run's
    // guaranteed flush point, executing in the same frame as the run.
    let live_result = |s: &Stmt| {
        matches!(
            s.kind,
            StmtKind::HiddenCall {
                result: Some(_),
                ..
            }
        ) && !dead.contains(&s.id)
    };
    let flusher = run.iter().rposition(live_result);
    for (i, stmt) in run.iter().enumerate() {
        let StmtKind::HiddenCall { result, .. } = &stmt.kind else {
            unreachable!("scan_run sees only hidden calls");
        };
        let deferrable = match result {
            // Update-only: hidden state is invisible until the next
            // (flushing) demand call, wherever that happens.
            None => true,
            Some(_) if dead.contains(&stmt.id) => true,
            // Live result: defer only when a same-run flusher assigns it
            // before anything can read it.
            Some(Place::Local(l)) => match flusher {
                Some(f) if i < f => run[i + 1..=f].iter().all(|later| {
                    let StmtKind::HiddenCall { args, .. } = &later.kind else {
                        unreachable!("scan_run sees only hidden calls");
                    };
                    args.iter()
                        .all(|a| !expr_reads_local(a, *l) && !expr_contains_call(a))
                }),
                _ => false,
            },
            // Non-local result places (globals, array slots) stay demanded.
            Some(_) => false,
        };
        if deferrable {
            defer.insert(stmt.id);
        }
    }
}

fn expr_reads_local(e: &Expr, l: hps_ir::LocalId) -> bool {
    let mut found = false;
    e.walk(&mut |sub| {
        if matches!(sub, Expr::Local(x) if *x == l) {
            found = true;
        }
    });
    found
}

fn expr_contains_call(e: &Expr) -> bool {
    let mut found = false;
    e.walk(&mut |sub| {
        if matches!(sub, Expr::Call { .. }) {
            found = true;
        }
    });
    found
}

fn apply_block(
    block: &mut Block,
    defer: &HashSet<StmtId>,
    dead: &HashSet<StmtId>,
    stats: &mut DeferStats,
) {
    for stmt in &mut block.stmts {
        let id = stmt.id;
        match &mut stmt.kind {
            StmtKind::HiddenCall {
                result, deferred, ..
            } => {
                stats.total_calls += 1;
                if dead.contains(&id) && result.is_some() {
                    *result = None;
                    stats.dead_results_dropped += 1;
                }
                if defer.contains(&id) {
                    *deferred = true;
                }
                if *deferred {
                    stats.deferred_calls += 1;
                }
            }
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                apply_block(then_blk, defer, dead, stats);
                apply_block(else_blk, defer, dead, stats);
            }
            StmtKind::While { body, .. } => apply_block(body, defer, dead, stats),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SplitPlan;
    use crate::splitter::split_program;

    fn deferred_flags(p: &Program) -> Vec<bool> {
        let mut out = Vec::new();
        for (_, func) in p.iter_funcs() {
            hps_ir::visit::for_each_stmt(&func.body, &mut |s| {
                if let StmtKind::HiddenCall { deferred, .. } = &s.kind {
                    out.push(*deferred);
                }
            });
        }
        out
    }

    #[test]
    fn update_only_global_sets_are_deferred() {
        let src = "
            global total: int;
            fn add(x: int) { total = total + x; }
            fn main() {
                var i: int = 0;
                while (i < 4) { add(i); i = i + 1; }
                print(total);
            }";
        let program = hps_lang::parse(src).unwrap();
        let plan = SplitPlan::global(&program, "total").unwrap();
        let split = split_program(&program, &plan).unwrap();
        // The set call inside `add` has no result: deferrable. The final
        // fetch feeding print() is demanded.
        assert!(split.defer.total_calls >= 2);
        assert!(
            split.defer.deferred_calls >= 1,
            "update-only set calls must be deferrable: {:?}",
            split.defer
        );
        assert!(split.defer.deferred_calls < split.defer.total_calls);
    }

    #[test]
    fn demanded_fetches_are_not_deferred() {
        // A fetch whose temp feeds the very next open statement must stay
        // a demand call.
        let src = "
            fn f(x: int) -> int { var a: int = x * 2; return a + 1; }
            fn main() { print(f(21)); }";
        let program = hps_lang::parse(src).unwrap();
        let plan = SplitPlan::single(&program, "f", "a").unwrap();
        let split = split_program(&program, &plan).unwrap();
        let flags = deferred_flags(&split.open);
        assert!(!flags.is_empty());
        // Every run ends in a demanded call; a lone fetch is never marked.
        let fid = split.open.func_by_name("f").unwrap();
        hps_ir::visit::for_each_stmt(&split.open.func(fid).body, &mut |s| {
            if let StmtKind::HiddenCall {
                result: Some(_),
                deferred,
                ..
            } = &s.kind
            {
                // Result-bearing calls in `f` feed the return expression
                // immediately, outside any longer run.
                assert!(!*deferred, "live lone fetch must stay demanded");
            }
        });
    }

    #[test]
    fn stats_count_matches_marks() {
        let src = "
            global g: int;
            fn main() {
                g = 1;
                g = g + 2;
                print(g);
            }";
        let program = hps_lang::parse(src).unwrap();
        let plan = SplitPlan::global(&program, "g").unwrap();
        let split = split_program(&program, &plan).unwrap();
        let flags = deferred_flags(&split.open);
        assert_eq!(split.defer.total_calls, flags.len());
        assert_eq!(
            split.defer.deferred_calls,
            flags.iter().filter(|&&b| b).count()
        );
    }

    #[test]
    fn marking_is_idempotent() {
        let src = "
            global g: int;
            fn main() { g = 5; g = g * 3; print(g); }";
        let program = hps_lang::parse(src).unwrap();
        let plan = SplitPlan::global(&program, "g").unwrap();
        let mut split = split_program(&program, &plan).unwrap();
        let first = split.defer;
        let again = mark_deferrable(&mut split.open);
        assert_eq!(first.total_calls, again.total_calls);
        assert_eq!(first.deferred_calls, again.deferred_calls);
    }
}
