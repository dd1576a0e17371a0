//! Loop facts and trip-count recognition.
//!
//! The paper's ILP-complexity algorithm (Fig. 3) needs `Iter(L)` — "an
//! arithmetic expression for the number of loop iterations of loop nest `L`
//! in terms of observable values". This module recognizes the common
//! counted-loop shape
//!
//! ```text
//! i = init;  while (i < bound) { ...; i = i + step; }
//! ```
//!
//! (and its `<=`, `>`, `>=` down-counting variants) and reports
//! `(init, bound, step)` so the security analysis can evaluate the
//! complexity of `(bound - init) / step`. Anything else is
//! [`TripCount::Unknown`].

use crate::structure::StructInfo;
use hps_ir::{BinOp, Expr, Function, LocalId, Place, StmtId, StmtKind};
use std::collections::HashMap;

/// Recognized iteration-count structure of a loop.
#[derive(Clone, PartialEq, Debug)]
pub enum TripCount {
    /// A counted loop: the induction variable, its initializer expression
    /// (if a unique one was found), the loop bound and the constant step.
    Counted {
        /// The induction variable.
        var: LocalId,
        /// Unique initializing expression outside the loop, when found.
        init: Option<Expr>,
        /// The bound expression from the condition.
        bound: Expr,
        /// Constant per-iteration step (negative for down-counting loops).
        step: i64,
    },
    /// The loop does not match the counted pattern.
    Unknown,
}

impl TripCount {
    /// Whether the loop runs a compile-time-constant number of times: a
    /// counted loop whose initializer and bound are both constants.
    pub fn is_constant(&self) -> bool {
        matches!(
            self,
            TripCount::Counted { init: Some(init), bound, .. }
                if init.as_const().is_some() && bound.as_const().is_some()
        )
    }
}

/// Facts about one loop.
#[derive(Clone, Debug)]
pub struct LoopMeta {
    /// The `while` statement.
    pub stmt: StmtId,
    /// Statements inside the loop (transitively).
    pub body: Vec<StmtId>,
    /// Nesting depth (1 = outermost).
    pub depth: u32,
    /// Recognized trip count.
    pub trip: TripCount,
}

/// All loops of one function.
#[derive(Clone, Debug, Default)]
pub struct LoopInfo {
    loops: Vec<LoopMeta>,
    by_stmt: HashMap<StmtId, usize>,
}

impl LoopInfo {
    /// Computes loop facts for a renumbered function.
    pub fn compute(func: &Function, structure: &StructInfo) -> LoopInfo {
        let mut info = LoopInfo::default();
        // Collect all assignments `v = expr` for the init lookup.
        let mut assigns: HashMap<LocalId, Vec<(StmtId, Expr)>> = HashMap::new();
        hps_ir::visit::for_each_stmt(&func.body, &mut |stmt| {
            if let StmtKind::Assign {
                place: Place::Local(l),
                value,
            } = &stmt.kind
            {
                assigns
                    .entry(*l)
                    .or_default()
                    .push((stmt.id, value.clone()));
            }
        });
        hps_ir::visit::for_each_stmt(&func.body, &mut |stmt| {
            if let StmtKind::While { cond, .. } = &stmt.kind {
                let body = structure.descendants(stmt.id);
                let depth = structure.loop_depth(stmt.id) + 1;
                let trip = recognize(cond, stmt.id, &body, &assigns);
                info.by_stmt.insert(stmt.id, info.loops.len());
                info.loops.push(LoopMeta {
                    stmt: stmt.id,
                    body,
                    depth,
                    trip,
                });
            }
        });
        info
    }

    /// All loops, in pre-order.
    pub fn loops(&self) -> &[LoopMeta] {
        &self.loops
    }

    /// The facts for the loop headed by `stmt`, if it is a loop.
    pub fn loop_at(&self, stmt: StmtId) -> Option<&LoopMeta> {
        self.by_stmt.get(&stmt).map(|&i| &self.loops[i])
    }
}

fn recognize(
    cond: &Expr,
    loop_stmt: StmtId,
    body: &[StmtId],
    assigns: &HashMap<LocalId, Vec<(StmtId, Expr)>>,
) -> TripCount {
    // Condition must be `i <op> bound` or `bound <op> i` with i a local.
    // Both operands may be locals (`n > i`), so collect every candidate
    // interpretation and accept the first that completes the pattern.
    let mut candidates: Vec<(LocalId, Expr, bool)> = Vec::new();
    if let Expr::Binary { op, lhs, rhs } = cond {
        if let Expr::Local(l) = lhs.as_ref() {
            match op {
                BinOp::Lt | BinOp::Le => candidates.push((*l, rhs.as_ref().clone(), true)),
                BinOp::Gt | BinOp::Ge => candidates.push((*l, rhs.as_ref().clone(), false)),
                _ => {}
            }
        }
        if let Expr::Local(l) = rhs.as_ref() {
            match op {
                BinOp::Gt | BinOp::Ge => candidates.push((*l, lhs.as_ref().clone(), true)),
                BinOp::Lt | BinOp::Le => candidates.push((*l, lhs.as_ref().clone(), false)),
                _ => {}
            }
        }
    }
    for (var, bound, up) in candidates {
        let tc = recognize_with(var, bound, up, loop_stmt, body, assigns);
        if tc != TripCount::Unknown {
            return tc;
        }
    }
    TripCount::Unknown
}

fn recognize_with(
    var: LocalId,
    bound: Expr,
    up: bool,
    loop_stmt: StmtId,
    body: &[StmtId],
    assigns: &HashMap<LocalId, Vec<(StmtId, Expr)>>,
) -> TripCount {
    // The bound must not mention the induction variable.
    if bound.locals_read().contains(&var) {
        return TripCount::Unknown;
    }
    let empty = Vec::new();
    let var_assigns = assigns.get(&var).unwrap_or(&empty);
    // Exactly one assignment to `var` inside the body, of the form
    // `var = var ± const`.
    let inner: Vec<&(StmtId, Expr)> = var_assigns
        .iter()
        .filter(|(s, _)| body.contains(s))
        .collect();
    if inner.len() != 1 {
        return TripCount::Unknown;
    }
    let step = match step_of(&inner[0].1, var) {
        Some(s) => s,
        None => return TripCount::Unknown,
    };
    if (up && step <= 0) || (!up && step >= 0) {
        return TripCount::Unknown;
    }
    // A unique initializing assignment outside the loop (and not the loop
    // statement itself) gives `init`.
    let outer: Vec<&(StmtId, Expr)> = var_assigns
        .iter()
        .filter(|(s, _)| !body.contains(s) && *s != loop_stmt)
        .collect();
    let init = if outer.len() == 1 {
        Some(outer[0].1.clone())
    } else {
        None
    };
    TripCount::Counted {
        var,
        init,
        bound,
        step,
    }
}

/// Matches `v = v + c`, `v = c + v`, `v = v - c`; returns the signed step.
fn step_of(e: &Expr, var: LocalId) -> Option<i64> {
    match e {
        Expr::Binary { op, lhs, rhs } => {
            let const_of = |e: &Expr| e.as_const().and_then(|v| v.as_int());
            match op {
                BinOp::Add => match (lhs.as_ref(), rhs.as_ref()) {
                    (Expr::Local(l), c) if *l == var => const_of(c),
                    (c, Expr::Local(l)) if *l == var => const_of(c),
                    _ => None,
                },
                BinOp::Sub => match (lhs.as_ref(), rhs.as_ref()) {
                    (Expr::Local(l), c) if *l == var => const_of(c).map(|v| -v),
                    _ => None,
                },
                _ => None,
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hps_ir::FuncId;

    fn loops_of(src: &str) -> LoopInfo {
        let p = hps_lang::parse(src).expect("parses");
        let f = p.func(FuncId::new(0));
        let si = StructInfo::compute(f);
        LoopInfo::compute(f, &si)
    }

    #[test]
    fn recognizes_counted_loop() {
        let li = loops_of("fn f(n: int) { var i: int = 0; while (i < n) { i = i + 1; } }");
        assert_eq!(li.loops().len(), 1);
        match &li.loops()[0].trip {
            TripCount::Counted {
                init, bound, step, ..
            } => {
                assert_eq!(*step, 1);
                assert_eq!(*bound, Expr::local(LocalId::new(0)));
                assert_eq!(*init, Some(Expr::int(0)));
            }
            TripCount::Unknown => panic!("should recognize counted loop"),
        }
    }

    #[test]
    fn recognizes_down_counting_and_flipped_conditions() {
        let li = loops_of("fn f(n: int) { var i: int = n; while (i > 0) { i = i - 2; } }");
        match &li.loops()[0].trip {
            TripCount::Counted { step, .. } => assert_eq!(*step, -2),
            TripCount::Unknown => panic!("should recognize"),
        }
        let li = loops_of("fn f(n: int) { var i: int = 0; while (n > i) { i = i + 3; } }");
        match &li.loops()[0].trip {
            TripCount::Counted { step, .. } => assert_eq!(*step, 3),
            TripCount::Unknown => panic!("should recognize flipped condition"),
        }
    }

    #[test]
    fn unknown_when_multiple_updates_or_non_constant_step() {
        let li = loops_of(
            "fn f(n: int) { var i: int = 0;
               while (i < n) { i = i + 1; i = i + 1; } }",
        );
        assert_eq!(li.loops()[0].trip, TripCount::Unknown);
        let li = loops_of("fn f(n: int, k: int) { var i: int = 0; while (i < n) { i = i + k; } }");
        assert_eq!(li.loops()[0].trip, TripCount::Unknown);
    }

    #[test]
    fn unknown_when_bound_involves_induction_var() {
        let li = loops_of("fn f(n: int) { var i: int = 1; while (i < i + n) { i = i + 1; } }");
        assert_eq!(li.loops()[0].trip, TripCount::Unknown);
    }

    #[test]
    fn unknown_for_boolean_conditions_and_wrong_direction() {
        let li = loops_of("fn f() { while (true) { break; } }");
        assert_eq!(li.loops()[0].trip, TripCount::Unknown);
        let li = loops_of("fn f(n: int) { var i: int = 0; while (i < n) { i = i - 1; } }");
        assert_eq!(li.loops()[0].trip, TripCount::Unknown);
    }

    #[test]
    fn nested_loops_report_depths() {
        let li = loops_of(
            "fn f(n: int) { var i: int = 0; var j: int;
               while (i < n) { j = 0; while (j < i) { j = j + 1; } i = i + 1; } }",
        );
        assert_eq!(li.loops().len(), 2);
        assert_eq!(li.loops()[0].depth, 1);
        assert_eq!(li.loops()[1].depth, 2);
        assert!(li.loop_at(li.loops()[1].stmt).is_some());
    }

    #[test]
    fn constant_trip_needs_constant_init_and_bound() {
        let trip = |src: &str| loops_of(src).loops()[0].trip.clone();
        assert!(trip("fn f() { var i: int = 0; while (i < 8) { i = i + 1; } }").is_constant());
        assert!(
            !trip("fn f(n: int) { var i: int = 0; while (i < n) { i = i + 1; } }").is_constant()
        );
        assert!(
            !trip("fn f(n: int) { var i: int = n; while (i < 8) { i = i + 1; } }").is_constant()
        );
        // An ambiguous initializer is not a constant one.
        assert!(!trip(
            "fn f(b: bool) { var i: int = 0; if (b) { i = 5; } while (i < 8) { i = i + 1; } }"
        )
        .is_constant());
        assert!(!TripCount::Unknown.is_constant());
    }

    #[test]
    fn init_none_when_ambiguous() {
        let li = loops_of(
            "fn f(n: int, b: bool) { var i: int = 0; if (b) { i = 5; }
               while (i < n) { i = i + 1; } }",
        );
        match &li.loops()[0].trip {
            TripCount::Counted { init, .. } => assert_eq!(*init, None),
            TripCount::Unknown => panic!("still counted"),
        }
    }
}
