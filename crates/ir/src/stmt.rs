//! Statements, blocks and assignable places.

use crate::ids::ComponentId;
use crate::{ClassId, Expr, FieldId, FragLabel, GlobalId, LocalId, Span, StmtId};

/// An assignable location.
#[derive(Clone, PartialEq, Debug)]
pub enum Place {
    /// A local variable.
    Local(LocalId),
    /// A global variable.
    Global(GlobalId),
    /// An array element `base[index]`.
    Index {
        /// The array holding the element (a variable or field, not an
        /// arbitrary expression).
        base: Box<Place>,
        /// The element index.
        index: Expr,
    },
    /// An object field `obj.field`.
    Field {
        /// The receiver object.
        obj: Expr,
        /// The class declaring the field.
        class: ClassId,
        /// The field.
        field: FieldId,
    },
}

impl Place {
    /// The *root* variable of the place: the local or global that is
    /// (partially) overwritten by an assignment to this place. Field places
    /// return the root of the receiver expression if it is a plain variable.
    pub fn root(&self) -> PlaceRoot {
        match self {
            Place::Local(id) => PlaceRoot::Local(*id),
            Place::Global(id) => PlaceRoot::Global(*id),
            Place::Index { base, .. } => base.root(),
            Place::Field { obj, class, field } => match obj {
                Expr::Local(id) => PlaceRoot::FieldOf(Some(*id), *class, *field),
                _ => PlaceRoot::FieldOf(None, *class, *field),
            },
        }
    }

    /// Returns `true` if assigning to this place writes a whole scalar
    /// variable (local or global), as opposed to an element of an aggregate.
    pub fn is_whole_var(&self) -> bool {
        matches!(self, Place::Local(_) | Place::Global(_))
    }

    /// The expressions evaluated to locate this place, in evaluation order:
    /// receiver objects and indices.
    pub fn exprs(&self) -> Vec<&Expr> {
        match self {
            Place::Local(_) | Place::Global(_) => Vec::new(),
            Place::Index { base, index } => {
                let mut exprs = base.exprs();
                exprs.push(index);
                exprs
            }
            Place::Field { obj, .. } => vec![obj],
        }
    }

    /// Collects the locals *read* when evaluating this place (indices,
    /// receiver objects, array bases) — not the assigned variable itself for
    /// whole-variable places.
    pub fn locals_read(&self) -> Vec<LocalId> {
        let mut out = Vec::new();
        match self {
            Place::Local(_) | Place::Global(_) => {}
            Place::Index { base, index } => {
                // The base array variable is read (to locate the aggregate).
                if let Place::Local(id) = base.as_ref() {
                    out.push(*id);
                } else {
                    out.extend(base.locals_read());
                }
                for l in index.locals_read() {
                    if !out.contains(&l) {
                        out.push(l);
                    }
                }
            }
            Place::Field { obj, .. } => out.extend(obj.locals_read()),
        }
        out
    }
}

/// Identity of the variable written by an assignment, used by dataflow.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PlaceRoot {
    /// A local variable.
    Local(LocalId),
    /// A global variable.
    Global(GlobalId),
    /// A field of an object; the receiver local is recorded when it is a
    /// plain variable (`None` for computed receivers).
    FieldOf(Option<LocalId>, ClassId, FieldId),
}

/// A sequence of statements.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Block {
    /// The statements, in execution order.
    pub stmts: Vec<Stmt>,
}

impl Block {
    /// An empty block.
    pub fn new() -> Block {
        Block::default()
    }

    /// A block holding the given statements.
    pub fn of(stmts: Vec<Stmt>) -> Block {
        Block { stmts }
    }

    /// Returns `true` if the block holds no statements.
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }

    /// Number of directly contained statements (not recursive).
    pub fn len(&self) -> usize {
        self.stmts.len()
    }
}

/// A statement together with its stable [`StmtId`].
///
/// Besides the id and kind, a statement carries *metadata* — its originating
/// source [`Span`] and any `@allow(lint_id)` suppressions attached in the
/// source. Metadata is ignored by equality: two statements compare equal when
/// their ids and kinds do, so structural comparisons (round-trip tests,
/// slice/plan equality) are unaffected by where the code came from.
#[derive(Clone, Debug)]
pub struct Stmt {
    /// Identifier, assigned by [`Function::renumber`](crate::Function::renumber).
    pub id: StmtId,
    /// What the statement does.
    pub kind: StmtKind,
    /// Source position of the statement's first token (`Span::default()`
    /// when synthesised).
    pub span: Span,
    /// Audit lint ids suppressed at this statement via `@allow(...)`.
    pub allows: Vec<String>,
}

impl PartialEq for Stmt {
    fn eq(&self, other: &Stmt) -> bool {
        self.id == other.id && self.kind == other.kind
    }
}

impl Stmt {
    /// Placeholder id carried by freshly built statements before
    /// [`Function::renumber`](crate::Function::renumber) runs.
    pub const UNNUMBERED: StmtId = StmtId(u32::MAX);

    /// Creates a statement with the placeholder id and no source position.
    pub fn new(kind: StmtKind) -> Stmt {
        Stmt {
            id: Self::UNNUMBERED,
            kind,
            span: Span::default(),
            allows: Vec::new(),
        }
    }

    /// Creates a statement anchored at a source position.
    pub fn at(kind: StmtKind, span: Span) -> Stmt {
        Stmt {
            id: Self::UNNUMBERED,
            kind,
            span,
            allows: Vec::new(),
        }
    }

    /// Returns this statement with the given span attached.
    pub fn with_span(mut self, span: Span) -> Stmt {
        self.span = span;
        self
    }

    /// Returns `true` if the statement suppresses the given lint id.
    pub fn allows_lint(&self, lint: &str) -> bool {
        self.allows.iter().any(|a| a == lint)
    }
}

/// The different statement forms.
///
/// `If` and `While` statements own their sub-blocks; the statement's own
/// [`StmtId`] identifies the *condition evaluation* in the derived CFG.
#[derive(Clone, PartialEq, Debug)]
pub enum StmtKind {
    /// `place = value;`
    Assign {
        /// Assignment target.
        place: Place,
        /// Assigned value.
        value: Expr,
    },
    /// `if (cond) { then_blk } else { else_blk }` (the else block may be
    /// empty).
    If {
        /// Branch condition.
        cond: Expr,
        /// Taken when `cond` is true.
        then_blk: Block,
        /// Taken when `cond` is false.
        else_blk: Block,
    },
    /// `while (cond) { body }`
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Block,
    },
    /// `return expr?;`
    Return(Option<Expr>),
    /// `break;` out of the innermost loop.
    Break,
    /// `continue;` the innermost loop.
    Continue,
    /// An expression evaluated for its side effects (a call).
    ExprStmt(Expr),
    /// `print(expr);` — writes one line of observable program output.
    Print(Expr),
    /// A call into a hidden component fragment, introduced by the splitting
    /// transformation. Never produced by the front end.
    ///
    /// Sends the current values of `args` to the secure side, runs fragment
    /// `label` of `component` there, and stores the returned scalar into
    /// `result` if present. A `None` result corresponds to the paper's
    /// "arbitrary value denoted as *any* is returned".
    HiddenCall {
        /// Which hidden component the fragment belongs to.
        component: ComponentId,
        /// Which fragment to run.
        label: FragLabel,
        /// Scalar values shipped to the secure side.
        args: Vec<Expr>,
        /// Where the returned value goes, if it is used.
        result: Option<Place>,
        /// Marked by the deferrable-call pass (`hps-core`): the open side may
        /// buffer this call and ship it together with later calls in one
        /// round trip, because no open statement observes its effect before
        /// the next flush point. Execution order of the logical calls is
        /// preserved; only the transport is coalesced. Splitting always
        /// emits `false`; the pass upgrades safe sites afterwards.
        deferred: bool,
    },
    /// A no-op, left behind where statements were removed.
    Nop,
}

impl StmtKind {
    /// Short tag for diagnostics.
    pub fn tag(&self) -> &'static str {
        match self {
            StmtKind::Assign { .. } => "assign",
            StmtKind::If { .. } => "if",
            StmtKind::While { .. } => "while",
            StmtKind::Return(_) => "return",
            StmtKind::Break => "break",
            StmtKind::Continue => "continue",
            StmtKind::ExprStmt(_) => "expr",
            StmtKind::Print(_) => "print",
            StmtKind::HiddenCall { .. } => "hidden-call",
            StmtKind::Nop => "nop",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BinOp;

    #[test]
    fn place_roots() {
        let p = Place::Index {
            base: Box::new(Place::Local(LocalId::new(3))),
            index: Expr::local(LocalId::new(1)),
        };
        assert_eq!(p.root(), PlaceRoot::Local(LocalId::new(3)));
        assert!(!p.is_whole_var());
        assert!(Place::Global(GlobalId::new(0)).is_whole_var());
        assert_eq!(
            Place::Global(GlobalId::new(2)).root(),
            PlaceRoot::Global(GlobalId::new(2))
        );
    }

    #[test]
    fn field_place_root() {
        let p = Place::Field {
            obj: Expr::local(LocalId::new(0)),
            class: ClassId::new(1),
            field: FieldId::new(2),
        };
        assert_eq!(
            p.root(),
            PlaceRoot::FieldOf(Some(LocalId::new(0)), ClassId::new(1), FieldId::new(2))
        );
    }

    #[test]
    fn index_place_reads_base_and_index() {
        let p = Place::Index {
            base: Box::new(Place::Local(LocalId::new(3))),
            index: Expr::binary(
                BinOp::Add,
                Expr::local(LocalId::new(1)),
                Expr::local(LocalId::new(3)),
            ),
        };
        assert_eq!(p.locals_read(), vec![LocalId::new(3), LocalId::new(1)]);
    }

    #[test]
    fn fresh_statements_are_unnumbered() {
        let s = Stmt::new(StmtKind::Break);
        assert_eq!(s.id, Stmt::UNNUMBERED);
        assert_eq!(s.kind.tag(), "break");
    }

    #[test]
    fn metadata_is_ignored_by_equality() {
        let plain = Stmt::new(StmtKind::Nop);
        let mut placed = Stmt::at(StmtKind::Nop, Span::new(4, 2));
        placed.allows.push("weak-ilp-constant".into());
        assert_eq!(plain, placed);
        assert_eq!(placed.span, Span::new(4, 2));
        assert!(placed.allows_lint("weak-ilp-constant"));
        assert!(!placed.allows_lint("unused-leak"));
        assert_eq!(plain.with_span(Span::new(9, 1)).span, Span::new(9, 1));
    }

    #[test]
    fn block_basics() {
        let b = Block::of(vec![Stmt::new(StmtKind::Nop)]);
        assert!(!b.is_empty());
        assert_eq!(b.len(), 1);
        assert!(Block::new().is_empty());
    }
}
