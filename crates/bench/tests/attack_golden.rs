//! Pins the attack table: for every suite benchmark and every arithmetic
//! complexity class the estimator assigned, how many leaks the adversary
//! recovered, how many resisted and how many lacked data, over
//! `attack_rows(24, 400)` (the `tables -- attack` configuration).
//!
//! The adversary reads the wire traces the open-side interpreter records,
//! so any drift in what the interpreter sends, in which order, or in the
//! estimator's grades shows up here as a changed count.

use hps_bench::attack_rows;

/// `benchmark class recovered resistant insufficient`, one line per class
/// with at least one leak.
const EXPECTED: &str = "\
calcc Linear 11 0 0
calcc Arbitrary 0 2 0
rulekit Linear 6 0 0
rulekit Arbitrary 4 2 0
asmkit Linear 6 0 0
asmkit Arbitrary 2 3 0
optkit Linear 4 0 0
optkit Polynomial 1 0 0
figkit Constant 2 0 0
figkit Linear 2 0 0
figkit Polynomial 2 0 0
figkit Rational 0 1 0
figkit Arbitrary 2 2 0
";

#[test]
fn attack_outcomes_per_benchmark_and_class_are_pinned() {
    let mut got = String::new();
    for row in attack_rows(24, 400) {
        for (class, recovered, resistant, insufficient) in row.by_class {
            if recovered + resistant + insufficient > 0 {
                got.push_str(&format!(
                    "{} {class} {recovered} {resistant} {insufficient}\n",
                    row.name
                ));
            }
        }
    }
    assert_eq!(got, EXPECTED, "attack table drifted:\n{got}");
}
