//! # hps-ir — mid-level IR for slice-based software splitting
//!
//! This crate defines the *structured* mid-level intermediate representation
//! (MIR) on which the whole reproduction of *Hiding Program Slices for
//! Software Security* (Zhang & Gupta, CGO 2003) is built.
//!
//! The IR is deliberately **structured** (nested `if`/`while` blocks rather
//! than basic blocks): the paper's splitting transformation moves *whole
//! control constructs* between the open and hidden components ("if all the
//! statements that form a loop body are moved to `Hf`, then the enclosing
//! looping construct may be moved to `Hf`"), which is a syntactic operation
//! on structured code. Dataflow analyses derive a statement-level CFG on
//! demand (see the `hps-analysis` crate).
//!
//! The main types are:
//!
//! * [`Program`] — a compilation unit: functions, globals and classes.
//! * [`Function`] — parameters, typed locals and a [`Block`] body.
//! * [`Stmt`] / [`StmtKind`] — statements, each carrying a stable [`StmtId`]
//!   so that analyses, slices and the splitter can refer to program points.
//! * [`Expr`] — side-effect-free expressions plus calls.
//! * [`Place`] — assignable locations (locals, globals, array elements,
//!   object fields).
//!
//! # Examples
//!
//! Programs are usually produced by the `hps-lang` parser, but can be built
//! programmatically:
//!
//! ```
//! use hps_ir::build::FnBuilder;
//! use hps_ir::{Program, Ty, Expr, BinOp};
//!
//! let mut fb = FnBuilder::new("double", Ty::Int);
//! let x = fb.param("x", Ty::Int);
//! fb.ret(Some(Expr::binary(BinOp::Mul, Expr::local(x), Expr::int(2))));
//! let mut program = Program::new();
//! program.add_function(fb.finish());
//! assert_eq!(program.functions.len(), 1);
//! ```

pub mod build;
pub mod expr;
pub mod func;
pub mod hidden;
pub mod ids;
pub mod infer;
pub mod pretty;
pub mod program;
pub mod span;
pub mod stmt;
pub mod types;
pub mod visit;

pub use expr::{BinOp, Builtin, Callee, Expr, UnOp};
pub use func::{Function, LocalDecl, LocalKind};
pub use hidden::{ComponentKind, Fragment, HiddenComponent, HiddenProgram, HiddenVar};
pub use ids::{ClassId, ComponentId, FieldId, FragLabel, FuncId, GlobalId, LocalId, StmtId};
pub use program::{ClassDef, FieldDecl, GlobalDecl, Program};
pub use span::Span;
pub use stmt::{Block, Place, PlaceRoot, Stmt, StmtKind};
pub use types::{Ty, Value};
