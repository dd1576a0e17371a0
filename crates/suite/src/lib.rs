//! # hps-suite — the benchmark programs
//!
//! The paper evaluates on five large Java applications (javac, jess,
//! jasmin, bloat, jfig). Those applications and the JVM are not
//! reproducible here, so this crate provides five synthetic MiniLang
//! programs with the same *workload character* (see DESIGN.md §2 for the
//! substitution argument):
//!
//! | here      | paper analog | character                                            |
//! |-----------|--------------|------------------------------------------------------|
//! | `calcc`   | javac        | compiler: tokenize, parse, fold, emit                 |
//! | `rulekit` | jess         | rule engine: match / select / act cycles              |
//! | `asmkit`  | jasmin       | assembler: two-pass encode, label fixups              |
//! | `optkit`  | bloat        | optimizer: peephole windows, liveness bit sets        |
//! | `figkit`  | jfig         | 2-D graphics: transforms, béziers, perspective (float) |
//!
//! Every program takes one `int[]` input built by its [`Workload`]
//! generator and prints a digest of its computation, so original-vs-split
//! equivalence is observable. All are deterministic.
//!
//! # Examples
//!
//! ```
//! use hps_suite::{benchmarks, Benchmark};
//!
//! let suite = benchmarks();
//! assert_eq!(suite.len(), 5);
//! let calcc = &suite[0];
//! let program = calcc.program()?;
//! let input = calcc.workload(calcc.workloads()[0].1, 7);
//! let out = hps_runtime::run_program(&program, &[input])?;
//! assert!(!out.output.is_empty());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod planning;
pub mod programs;
pub mod workload;

pub use planning::{
    measure_split, plan_benchmark, plan_workload, PlanMeasurer, PLAN_FLOOR, PLAN_SCALE,
};
pub use workload::Workload;

use hps_ir::Program;
use hps_lang::LangError;
use hps_runtime::RtValue;

/// One benchmark: source, metadata and workload generation.
#[derive(Clone, Copy, Debug)]
pub struct Benchmark {
    /// Short name used in tables.
    pub name: &'static str,
    /// The paper benchmark it stands in for.
    pub paper_analog: &'static str,
    /// MiniLang source.
    pub source: &'static str,
    /// How inputs are generated.
    pub workload_kind: Workload,
    /// Named workload sizes `(label, element count)` mirroring the paper's
    /// Table 5 inputs (scaled to the interpreter).
    workload_sizes: &'static [(&'static str, usize)],
}

impl Benchmark {
    /// Parses the benchmark source.
    ///
    /// # Errors
    ///
    /// Propagates front-end errors (the suite tests guarantee none).
    pub fn program(&self) -> Result<Program, LangError> {
        hps_lang::parse(self.source)
    }

    /// The named workload sizes.
    pub fn workloads(&self) -> &'static [(&'static str, usize)] {
        self.workload_sizes
    }

    /// Generates the `int[]` input of `size` elements for `seed`.
    pub fn workload(&self, size: usize, seed: u64) -> RtValue {
        self.workload_kind.generate(size, seed)
    }
}

/// The five benchmarks, in the order used by the tables.
pub fn benchmarks() -> Vec<Benchmark> {
    vec![
        Benchmark {
            name: "calcc",
            paper_analog: "javac",
            source: programs::calcc::SOURCE,
            workload_kind: Workload::TokenStream,
            workload_sizes: &[("33K", 3300), ("355K", 35500)],
        },
        Benchmark {
            name: "rulekit",
            paper_analog: "jess",
            source: programs::rulekit::SOURCE,
            workload_kind: Workload::Facts,
            workload_sizes: &[
                ("dilemma", 500),
                ("fullmab", 1200),
                ("hard", 50),
                ("stack", 200),
                ("wordgame", 500),
                ("zebra", 700),
            ],
        },
        Benchmark {
            name: "asmkit",
            paper_analog: "jasmin",
            source: programs::asmkit::SOURCE,
            workload_kind: Workload::Instructions,
            workload_sizes: &[("small", 12400)],
        },
        Benchmark {
            name: "optkit",
            paper_analog: "bloat",
            source: programs::optkit::SOURCE,
            workload_kind: Workload::Bytecode,
            workload_sizes: &[("asmkit.jar", 14900), ("rulekit.jar", 29000)],
        },
        Benchmark {
            name: "figkit",
            paper_analog: "jfig",
            source: programs::figkit::SOURCE,
            workload_kind: Workload::Geometry,
            workload_sizes: &[("scene", 4000)],
        },
    ]
}

/// Looks a benchmark up by name.
pub fn benchmark(name: &str) -> Option<Benchmark> {
    benchmarks().into_iter().find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_parse_and_run() {
        for b in benchmarks() {
            let p = b
                .program()
                .unwrap_or_else(|e| panic!("{} does not parse: {e}", b.name));
            let input = b.workload(200, 42);
            let out = hps_runtime::run_program(&p, &[input])
                .unwrap_or_else(|e| panic!("{} does not run: {e}", b.name));
            assert!(!out.output.is_empty(), "{} printed nothing", b.name);
        }
    }

    #[test]
    fn runs_are_deterministic() {
        for b in benchmarks() {
            let p = b.program().unwrap();
            let out1 = hps_runtime::run_program(&p, &[b.workload(150, 9)]).unwrap();
            let out2 = hps_runtime::run_program(&p, &[b.workload(150, 9)]).unwrap();
            assert_eq!(out1.output, out2.output, "{} not deterministic", b.name);
        }
    }

    #[test]
    fn different_seeds_change_outputs() {
        // Guards against programs that ignore their input.
        for b in benchmarks() {
            let p = b.program().unwrap();
            let out1 = hps_runtime::run_program(&p, &[b.workload(300, 1)]).unwrap();
            let out2 = hps_runtime::run_program(&p, &[b.workload(300, 2)]).unwrap();
            assert_ne!(out1.output, out2.output, "{} ignores its input", b.name);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(benchmark("calcc").is_some());
        assert!(benchmark("figkit").is_some());
        assert!(benchmark("nope").is_none());
    }

    #[test]
    fn programs_are_substantial() {
        for b in benchmarks() {
            let p = b.program().unwrap();
            assert!(
                p.functions.len() >= 12,
                "{} has only {} functions",
                b.name,
                p.functions.len()
            );
            let stmts: usize = p.functions.iter().map(hps_ir::Function::stmt_count).sum();
            assert!(stmts >= 120, "{} has only {stmts} statements", b.name);
        }
    }
}
