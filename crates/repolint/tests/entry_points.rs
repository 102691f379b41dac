//! An `entry_points` name in `repolint.toml` that matches no workspace
//! function is a config error, not an empty root: renaming or deleting
//! an entry point must fail the run instead of quietly shrinking the
//! DET004 reach or the PERF hot set.

use repolint::config::Config;
use repolint::Workspace;

const ENGINE: &str = "pub struct Engine;\n\
                      impl Engine {\n\
                      \x20   pub fn run(&self) { step(); }\n\
                      }\n\
                      fn step() {}\n";

fn lint_with(toml: &str) -> Result<(), String> {
    let cfg = Config::parse(toml).expect("config parses");
    let ws = Workspace::from_sources(&[("crates/sim/src/lib.rs", "sim", ENGINE)])
        .expect("fixture parses");
    ws.lint(&cfg).map(|_| ())
}

#[test]
fn a_missing_perf_root_fails_the_run() {
    let err = lint_with("[rules.PERF001]\nentry_points = [\"Engine::run\", \"Campaign::run\"]\n")
        .expect_err("an unresolved root must be an error");
    assert!(err.contains("PERF001"), "{err}");
    assert!(err.contains("`Campaign::run`"), "{err}");
}

#[test]
fn a_missing_det004_root_fails_the_run() {
    let err = lint_with("[rules.DET004]\nentry_points = [\"simulate\"]\n")
        .expect_err("an unresolved root must be an error");
    assert!(err.contains("DET004") && err.contains("`simulate`"), "{err}");
}

#[test]
fn resolved_roots_and_disabled_rules_pass() {
    // `Type::method` and bare names both resolve.
    assert_eq!(lint_with("[rules.PERF002]\nentry_points = [\"Engine::run\", \"step\"]\n"), Ok(()));
    // A rule that does not run cannot fail on its roots.
    assert_eq!(
        lint_with("[rules.PERF003]\nseverity = \"allow\"\nentry_points = [\"Gone::run\"]\n"),
        Ok(())
    );
}
