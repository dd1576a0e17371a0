//! # hps-core — the splitting transformation
//!
//! This crate implements the contribution of *Hiding Program Slices for
//! Software Security* (Zhang & Gupta, CGO 2003): automatically splitting a
//! program into an **open component** `Of` — installed on the unsecure
//! machine — and a **hidden component** `Hf` — installed on a secure device
//! — such that the hidden component is built from program slices whose
//! function is hard to reconstruct from the open code and the observable
//! interaction.
//!
//! The pipeline:
//!
//! 1. **Target selection** ([`plan`]): which functions/globals/classes to
//!    split. Automatic selection follows the paper — a cut through the call
//!    graph avoiding functions called inside loops (see
//!    [`selection`]) — or the caller names targets explicitly.
//! 2. **Slice planning** (`hps-slicing`): the forward data slice from the
//!    seed variable, hidden-variable growth and control promotion.
//! 3. **Rewriting** ([`splitter`]): produce the open program (with
//!    `HiddenCall` statements, fetch/send synchronization and altered
//!    control flow) and the [`hps_ir::HiddenProgram`] of labeled fragments.
//!
//! Also here: the *self-contained method* analysis behind the paper's
//! Table 1 ([`self_contained`]), showing why hiding whole methods does not
//! work and slices are needed.
//!
//! # Examples
//!
//! ```
//! use hps_core::{split_program, SplitPlan};
//!
//! let program = hps_lang::parse(
//!     "fn f(x: int, y: int, z: int) -> int {
//!          var a: int; var i: int; var sum: int;
//!          a = 3 * x + y;
//!          i = a;
//!          sum = 0;
//!          while (i < z) { sum = sum + i; i = i + 1; }
//!          return sum;
//!      }
//!      fn main() { print(f(1, 2, 30)); }",
//! )?;
//! let plan = SplitPlan::single(&program, "f", "a")?;
//! let split = split_program(&program, &plan)?;
//! assert_eq!(split.hidden.components.len(), 1);
//! assert!(split.reports[0].ilps.len() >= 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod defer;
pub mod deploy;
pub mod error;
pub mod harden;
pub mod plan;
pub mod result;
pub mod selection;
pub mod self_contained;
pub mod splitter;

pub use defer::{mark_deferrable, mark_deferrable_function, DeferStats};
pub use deploy::{check_deployment, DeploymentCheck, DeviceProfile};
pub use error::SplitError;
pub use harden::{harden_split, HardenAction, HardenReport, HardenSkip};
pub use plan::{SplitPlan, SplitTarget};
pub use result::{HardenKind, IlpInfo, IlpKind, SplitReport, SplitResult};
pub use selection::{select_functions, FunctionEligibility};
pub use self_contained::{self_contained_report, SelfContainedReport};
pub use splitter::{split_function, split_program, FunctionSplit};
