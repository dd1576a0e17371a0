//! Static types of IR expressions.
//!
//! The front end guarantees well-typedness, so inference never fails on
//! its output. The splitter types the temporaries and fragment parameters
//! it introduces with it; the bytecode VM types the operands of each
//! arithmetic and comparison it lowers, and runs ill-typed IR too, so
//! inference is total: `None` where the IR is ill-typed.

use crate::{Builtin, Expr, Function, LocalId, Place, Program, Ty, UnOp};

/// The declared types of the locals an expression may read.
pub trait LocalTypes {
    /// The type of local `id`, `None` when out of range.
    fn local_ty(&self, id: LocalId) -> Option<&Ty>;
}

impl LocalTypes for Function {
    fn local_ty(&self, id: LocalId) -> Option<&Ty> {
        self.locals.get(id.index()).map(|d| &d.ty)
    }
}

/// Slots typed by position, as a fragment's hidden variables and
/// parameters are.
impl LocalTypes for Vec<Ty> {
    fn local_ty(&self, id: LocalId) -> Option<&Ty> {
        self.get(id.index())
    }
}

/// The static type of an expression whose locals `locals` types; `None`
/// on ill-typed IR (an index into a non-array, an id out of range).
pub fn expr_ty(program: &Program, locals: &(impl LocalTypes + ?Sized), e: &Expr) -> Option<Ty> {
    Some(match e {
        Expr::Const(v) => v.ty(),
        Expr::Local(id) => locals.local_ty(*id)?.clone(),
        Expr::Global(id) => program.globals.get(id.index())?.ty.clone(),
        Expr::Index { base, .. } => match expr_ty(program, locals, base)? {
            Ty::Array(elem) => *elem,
            _ => return None,
        },
        Expr::FieldGet { class, field, .. } => field_ty(program, *class, *field)?,
        Expr::Unary { op, arg } => match op {
            UnOp::Neg => expr_ty(program, locals, arg)?,
            UnOp::Not => Ty::Bool,
        },
        Expr::Binary { op, lhs, .. } => {
            if op.is_arithmetic() {
                expr_ty(program, locals, lhs)?
            } else {
                Ty::Bool
            }
        }
        Expr::Call { callee, .. } => program.functions.get(callee.func().index())?.ret_ty.clone(),
        Expr::BuiltinCall { builtin, args } => match builtin {
            Builtin::Len | Builtin::IntCast => Ty::Int,
            Builtin::FloatCast => Ty::Float,
            Builtin::Exp | Builtin::Log | Builtin::Sqrt | Builtin::Floor => Ty::Float,
            Builtin::Abs | Builtin::Min | Builtin::Max => expr_ty(program, locals, args.first()?)?,
        },
        Expr::NewArray { elem, .. } => Ty::Array(Box::new(elem.clone())),
        Expr::NewObject(class) => Ty::Object(*class),
    })
}

/// The static type of an assignable place; `None` on ill-typed IR.
pub fn place_ty(program: &Program, locals: &(impl LocalTypes + ?Sized), p: &Place) -> Option<Ty> {
    Some(match p {
        Place::Local(id) => locals.local_ty(*id)?.clone(),
        Place::Global(id) => program.globals.get(id.index())?.ty.clone(),
        Place::Index { base, .. } => match place_ty(program, locals, base)? {
            Ty::Array(elem) => *elem,
            _ => return None,
        },
        Place::Field { class, field, .. } => field_ty(program, *class, *field)?,
    })
}

fn field_ty(program: &Program, class: crate::ClassId, field: crate::FieldId) -> Option<Ty> {
    let class = program.classes.get(class.index())?;
    Some(class.fields.get(field.index())?.ty.clone())
}
