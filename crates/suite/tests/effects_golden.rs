//! Golden effect reports for the five benchmark programs.
//!
//! Every benchmark is split with the full paper pipeline; the
//! `hps-audit-effects/v1` JSON (`hps audit --effects`) must match the
//! checked-in golden byte-for-byte. This pins the effect lattice verdicts
//! behind the `memoizable_fragment` and `nondeterministic_hidden_fragment`
//! lints: a change to the analysis shows up as a golden diff to review.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! HPS_UPDATE_GOLDEN=1 cargo test -p hps-suite --test effects_golden
//! ```

use hps_analysis::Effect;
use hps_core::{split_program, SplitPlan};
use std::path::PathBuf;

fn paper_plan(program: &hps_ir::Program) -> SplitPlan {
    hps_security::default_targets(program, hps_security::SeedRule::CostRestricted)
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("goldens/effects")
        .join(format!("{name}.json"))
}

#[test]
fn effect_reports_match_goldens() {
    let update = std::env::var_os("HPS_UPDATE_GOLDEN").is_some();
    for b in hps_suite::benchmarks() {
        let program = b.program().expect("parses");
        let split = split_program(&program, &paper_plan(&program)).expect("splits");
        let rendered = hps_audit::render::effects_to_json(&program, &split, b.name).pretty();

        let path = golden_path(b.name);
        if update {
            std::fs::create_dir_all(path.parent().unwrap()).expect("mkdir");
            std::fs::write(&path, &rendered).expect("write golden");
            continue;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: missing golden {} ({e}); regenerate with HPS_UPDATE_GOLDEN=1",
                b.name,
                path.display()
            )
        });
        assert_eq!(
            rendered,
            golden,
            "{}: effects report drifted from {}; regenerate with HPS_UPDATE_GOLDEN=1 \
             if the change is intentional",
            b.name,
            path.display()
        );
    }
}

#[test]
fn report_counts_agree_with_a_fresh_analysis() {
    // The report's summary counts and its per-fragment rows must be
    // exactly what a from-scratch run of the fragment analysis computes.
    for b in hps_suite::benchmarks() {
        let program = b.program().expect("parses");
        let split = split_program(&program, &paper_plan(&program)).expect("splits");
        let rendered = hps_audit::render::effects_to_json(&program, &split, b.name).pretty();
        let fresh = hps_analysis::FragmentEffects::compute(&split.hidden);
        let pure = fresh.count(Effect::Pure);
        let summary = format!(
            "\"summary\": {{\n    \"fragments\": {},\n    \"pure\": {pure},\n    \
             \"reads_hidden\": {},\n    \"writes_hidden\": {},\n    \
             \"may_trap\": {},\n    \"memoizable\": {pure},\n",
            fresh.total(),
            fresh.count(Effect::ReadsHidden),
            fresh.count(Effect::WritesHidden),
            fresh.count(Effect::MayTrap),
        );
        assert!(rendered.contains(&summary), "{}: summary drifted", b.name);
        assert_eq!(
            rendered.matches("\"memoizable\": true").count(),
            pure,
            "{}",
            b.name
        );
    }
}
