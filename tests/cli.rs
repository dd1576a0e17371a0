//! End-to-end tests of the `hps` binary, including the real two-process
//! deployment: `hps serve` in one process, `hps client` in another.

use std::io::Write;
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const HPS: &str = env!("CARGO_BIN_EXE_hps");

/// A demo program file, deleted when the test that wrote it ends.
struct DemoFile(std::path::PathBuf);

impl std::ops::Deref for DemoFile {
    type Target = std::path::Path;
    fn deref(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for DemoFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn demo_file() -> DemoFile {
    // One file per call: tests run in parallel, and rewriting one shared
    // file lets a test's `hps` read another test's half-written copy.
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join("hps-cli-tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("demo-{}-{n}.ml", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("create");
    f.write_all(
        b"fn fee(seats: int, months: int) -> int {
              var rate: int = seats * 3 + 7;
              var total: int = 0;
              var m: int = 0;
              while (m < months) { total = total + rate; m = m + 1; }
              return total;
          }
          fn main(seats: int, months: int) { print(fee(seats, months)); }",
    )
    .expect("write");
    DemoFile(path)
}

#[test]
fn run_executes_programs() {
    let path = demo_file();
    let out = Command::new(HPS)
        .args(["run", path.to_str().unwrap(), "10", "12"])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "444");
}

#[test]
fn split_prints_both_components() {
    let path = demo_file();
    let out = Command::new(HPS)
        .args([
            "split",
            path.to_str().unwrap(),
            "--func",
            "fee",
            "--var",
            "rate",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("open program"), "{text}");
    assert!(text.contains("__hidden("), "{text}");
    assert!(text.contains("hidden var"), "{text}");
    // Hidden names are anonymized in the open half.
    let open_part = text.split("hidden program").next().unwrap();
    assert!(!open_part.contains("var rate"), "{open_part}");
}

#[test]
fn split_plans_with_budget_and_hardening() {
    let path = demo_file();
    // Human report: hps split FILE --harden --args ... (no budget, so the
    // level-0 plan with its targets survives even on this tiny program).
    let out = Command::new(HPS)
        .args([
            "split",
            path.to_str().unwrap(),
            "--harden",
            "--args",
            "10",
            "12",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("plan:"), "{text}");
    assert!(text.contains("measured:"), "{text}");
    assert!(text.contains("weak ILPs:"), "{text}");

    // Machine report: --budget 15% --json emits the hps-plan/v2 document.
    let out = Command::new(HPS)
        .args([
            "split",
            path.to_str().unwrap(),
            "--budget",
            "15%",
            "--harden",
            "--json",
            "--args",
            "10",
            "12",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"schema\": \"hps-plan/v2\""), "{json}");
    assert!(json.contains("\"budget_percent\": \"15.00\""), "{json}");
    assert!(json.contains("\"within_budget\": true"), "{json}");
}

#[test]
fn split_args_alone_select_planner_mode() {
    let path = demo_file();
    // --args only feeds the planner's measurer; the legacy dump would
    // silently ignore it, so it must select planner mode by itself.
    let out = Command::new(HPS)
        .args(["split", path.to_str().unwrap(), "--args", "10", "12"])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("plan:"), "{text}");
    assert!(text.contains("measured:"), "{text}");
    assert!(!text.contains("==== open program"), "{text}");
}

#[test]
fn split_plan_json_matches_goldens() {
    // Budgeted, hardened planning of the shipped examples, pinned byte for
    // byte. Regenerate a golden with the command it records, e.g.
    //   hps split examples/fee.ml --budget 15% --harden --json --args 7 40 \
    //     > tests/goldens/cli/fee_plan.json
    let root = env!("CARGO_MANIFEST_DIR");
    for (example, args, golden) in [
        (
            "examples/fee.ml",
            ["7", "40"],
            include_str!("goldens/cli/fee_plan.json"),
        ),
        (
            "examples/metering.ml",
            ["150", "12"],
            include_str!("goldens/cli/metering_plan.json"),
        ),
    ] {
        let out = Command::new(HPS)
            .current_dir(root)
            .args(["split", example, "--budget", "15%", "--harden", "--json"])
            .arg("--args")
            .args(args)
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "{example}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            golden,
            "{example}: plan report drifted from its golden"
        );
    }
}

#[test]
fn analyze_reports_ilp_classes() {
    let path = demo_file();
    let out = Command::new(HPS)
        .args([
            "analyze",
            path.to_str().unwrap(),
            "--func",
            "fee",
            "--var",
            "rate",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("totals:"), "{text}");
}

#[test]
fn audit_passes_sound_split_and_emits_machine_formats() {
    let path = demo_file();
    let base = [
        "audit",
        path.to_str().unwrap(),
        "--func",
        "fee",
        "--var",
        "rate",
    ];

    let out = Command::new(HPS).args(base).output().expect("spawn");
    assert!(
        out.status.success(),
        "audit denied a sound split: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("verdict: PASS"), "{text}");
    // The accumulation loop runs openly, so the leak's control flow is
    // fully observable — the auditor warns about it.
    assert!(text.contains("weak_ilp_open_control"), "{text}");

    let out = Command::new(HPS)
        .args(base)
        .arg("--json")
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"schema\": \"hps-audit/v1\""), "{text}");
    assert!(text.contains("\"deny\": 0"), "{text}");

    let out = Command::new(HPS)
        .args(base)
        .arg("--sarif")
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"version\": \"2.1.0\""), "{text}");
    assert!(
        text.contains("\"ruleId\": \"weak_ilp_open_control\""),
        "{text}"
    );
}

#[test]
fn audit_flags_trapping_fragments_and_has_no_effects_report() {
    let root = env!("CARGO_MANIFEST_DIR");
    let audit = |extra: &str| {
        Command::new(HPS)
            .current_dir(root)
            .args(["audit", "examples/paper_fig2.ml", extra])
            .output()
            .expect("spawn")
    };

    // There is no effects report: `--effects` is an unknown flag.
    let out = audit("--effects");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown selection flag"), "{err}");

    // The fig. 2 split hides a loop, which may exhaust the step limit.
    let out = audit("--json");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        text.matches("\"lint\": \"nondeterministic_hidden_fragment\"")
            .count(),
        1,
        "{text}"
    );
}

#[test]
fn unknown_inputs_fail_cleanly() {
    let out = Command::new(HPS)
        .args(["run", "/nonexistent.ml"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
    let out = Command::new(HPS)
        .args(["frobnicate"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn serve_and_client_split_across_processes() {
    let path = demo_file();
    let addr = "127.0.0.1:47261";
    let mut server = Command::new(HPS)
        .args([
            "serve",
            path.to_str().unwrap(),
            addr,
            "--func",
            "fee",
            "--var",
            "rate",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn server");

    // Wait for the listener.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match TcpStream::connect(addr) {
            Ok(_) => break,
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => {
                let _ = server.kill();
                panic!("server never came up: {e}");
            }
        }
    }

    let out = Command::new(HPS)
        .args([
            "client",
            path.to_str().unwrap(),
            addr,
            "--func",
            "fee",
            "--var",
            "rate",
            "--args",
            "10",
            "12",
        ])
        .output()
        .expect("spawn client");
    let _ = server.kill();
    let _ = server.wait();
    assert!(
        out.status.success(),
        "client failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "444");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("interactions"));
    assert!(stderr.contains("transport:"), "{stderr}");
}
