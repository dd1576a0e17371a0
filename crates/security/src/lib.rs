//! # hps-security — ILP identification and complexity analysis
//!
//! Implements §3 of the paper. The adversary can only learn about the
//! hidden component through *information leak points* (ILPs): "points in a
//! open component at which values are returned by the hidden component for
//! use in future computations". Recovering the hidden component amounts to
//! recovering, for every ILP, the function
//!
//! ```text
//! lv = f_ILP(observable values used)
//! ```
//!
//! This crate characterizes each ILP by
//!
//! * **arithmetic complexity** ([`lattice`]) — the triple
//!   `<Type, Inputs, Degree>` with
//!   `Constant ≺ Linear ≺ Polynomial ≺ Rational ≺ Arbitrary`, and
//! * **control-flow complexity** ([`cc`]) — the triple
//!   `<Paths, Predicates, Flow>`,
//!
//! computed by the def-use propagation algorithm of the paper's Fig. 3
//! ([`estimate`]: `EVAL`, propagated complexities, `RAISE` over loop exits,
//! definitely-leaked definitions). [`OriginalAnalysis`] holds the
//! original program's analyses and grades any number of its splits;
//! [`analyze_split`] is its one-shot form. [`choose`] uses it to pick
//! the seed variable "which creates an ILP with the highest maximum
//! arithmetic complexity" (§4).
//!
//! ## Divergence note (documented also in EXPERIMENTS.md)
//!
//! Fig. 3 combines per-path lower bounds with MIN over def-use edges while
//! the ILP definition takes MAX across paths. Where several definitions
//! reach a use we take the **MAX** of the propagated complexities — the
//! cross-path maximum of the definition — and keep the algorithm's other
//! conservative choices (no symbolic evaluation, pattern-based `Iter(L)`).

pub mod cc;
pub mod choose;
pub mod estimate;
pub mod ilp;
pub mod lattice;
pub mod optimize;

pub use cc::{CcTriple, PathCount};
pub use choose::{
    choose_seed, choose_seed_with, choose_seeds_all, choose_seeds_all_with, in_loop_hidden_calls,
    ranked_seeds_with, SeedCandidate, SeedRule,
};
pub use estimate::Estimator;
pub use ilp::{analyze_split, IlpComplexity, OriginalAnalysis, SecurityReport};
pub use lattice::{Ac, AcType, Inputs};
pub use optimize::{
    default_targets, estimate_base_units, predict, MeasuredCost, OptimizeLadder, OptimizeOutcome,
    PlanCostModel, PredictedCost, SeedChoice,
};
