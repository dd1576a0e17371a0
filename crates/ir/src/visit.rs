//! Statement walkers.
//!
//! Free functions that traverse a [`Block`] tree in *pre-order* (a compound
//! statement is visited before its children), matching the numbering
//! produced by [`Function::renumber`](crate::Function::renumber).

use crate::{Block, Expr, Stmt, StmtId, StmtKind};

/// Visits every statement in the block, pre-order.
pub fn for_each_stmt(block: &Block, f: &mut impl FnMut(&Stmt)) {
    for stmt in &block.stmts {
        f(stmt);
        match &stmt.kind {
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                for_each_stmt(then_blk, f);
                for_each_stmt(else_blk, f);
            }
            StmtKind::While { body, .. } => for_each_stmt(body, f),
            _ => {}
        }
    }
}

/// Visits every statement in the block mutably, pre-order.
pub fn for_each_stmt_mut(block: &mut Block, f: &mut impl FnMut(&mut Stmt)) {
    for stmt in &mut block.stmts {
        f(stmt);
        match &mut stmt.kind {
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                for_each_stmt_mut(then_blk, f);
                for_each_stmt_mut(else_blk, f);
            }
            StmtKind::While { body, .. } => for_each_stmt_mut(body, f),
            _ => {}
        }
    }
}

/// Finds a statement by id.
pub fn find_stmt(block: &Block, id: StmtId) -> Option<&Stmt> {
    for stmt in &block.stmts {
        if stmt.id == id {
            return Some(stmt);
        }
        match &stmt.kind {
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                if let Some(s) = find_stmt(then_blk, id) {
                    return Some(s);
                }
                if let Some(s) = find_stmt(else_blk, id) {
                    return Some(s);
                }
            }
            StmtKind::While { body, .. } => {
                if let Some(s) = find_stmt(body, id) {
                    return Some(s);
                }
            }
            _ => {}
        }
    }
    None
}

/// Visits every expression appearing in the statement (conditions, assigned
/// values, call arguments, place indices), including sub-expressions.
pub fn for_each_expr_in_stmt(stmt: &Stmt, f: &mut impl FnMut(&Expr)) {
    match &stmt.kind {
        StmtKind::Assign { place, value } => {
            place.exprs().into_iter().for_each(|e| e.walk(f));
            value.walk(f);
        }
        StmtKind::If { cond, .. } | StmtKind::While { cond, .. } => cond.walk(f),
        StmtKind::Return(Some(e)) | StmtKind::ExprStmt(e) | StmtKind::Print(e) => e.walk(f),
        StmtKind::HiddenCall { args, result, .. } => {
            for a in args {
                a.walk(f);
            }
            if let Some(place) = result {
                place.exprs().into_iter().for_each(|e| e.walk(f));
            }
        }
        StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue | StmtKind::Nop => {}
    }
}

/// Counts the statements in a block, recursively.
pub fn count_stmts(block: &Block) -> usize {
    let mut n = 0;
    for_each_stmt(block, &mut |_| n += 1);
    n
}

/// Collects the ids of all statements in the block, pre-order.
pub fn stmt_ids(block: &Block) -> Vec<StmtId> {
    let mut out = Vec::new();
    for_each_stmt(block, &mut |s| out.push(s.id));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinOp, Expr, Function, LocalId, Place, Ty};

    fn nested_fn() -> Function {
        let mut f = Function::new("t", Ty::Void);
        let x = f.add_local("x", Ty::Int);
        let inner = Stmt::new(StmtKind::Assign {
            place: Place::Local(x),
            value: Expr::int(1),
        });
        let loop_stmt = Stmt::new(StmtKind::While {
            cond: Expr::binary(BinOp::Lt, Expr::local(x), Expr::int(10)),
            body: Block::of(vec![inner]),
        });
        let branch = Stmt::new(StmtKind::If {
            cond: Expr::bool(true),
            then_blk: Block::of(vec![Stmt::new(StmtKind::Break)]),
            else_blk: Block::new(),
        });
        f.body = Block::of(vec![loop_stmt, branch]);
        f.renumber();
        f
    }

    #[test]
    fn preorder_traversal_matches_renumbering() {
        let f = nested_fn();
        let ids = stmt_ids(&f.body);
        assert_eq!(ids, (0..4).map(StmtId::new).collect::<Vec<_>>());
        assert_eq!(count_stmts(&f.body), 4);
    }

    #[test]
    fn find_nested_statement() {
        let f = nested_fn();
        // s1 is the assignment inside the while body.
        let s = find_stmt(&f.body, StmtId::new(1)).expect("statement exists");
        assert_eq!(s.kind.tag(), "assign");
        // s3 is the break inside the if.
        let s = find_stmt(&f.body, StmtId::new(3)).expect("statement exists");
        assert_eq!(s.kind.tag(), "break");
        assert!(find_stmt(&f.body, StmtId::new(99)).is_none());
    }

    #[test]
    fn expr_walker_covers_conditions_and_values() {
        let f = nested_fn();
        let while_stmt = find_stmt(&f.body, StmtId::new(0)).unwrap();
        let mut locals = Vec::new();
        for_each_expr_in_stmt(while_stmt, &mut |e| {
            if let Expr::Local(id) = e {
                locals.push(*id);
            }
        });
        assert_eq!(locals, vec![LocalId::new(0)]);
    }
}
