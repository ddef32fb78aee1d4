//! Golden-file tests for the spec compiler.
//!
//! Each `tests/golden/*.spec` source is compiled twice — once with the
//! optimizer off (the raw lowered IR) and once with the default pipeline
//! (the optimized IR) — and the rendered listings, superinstructions
//! included, are compared byte-for-byte against the committed `.base.txt` /
//! `.default.txt` goldens. Any compiler change that moves an
//! instruction shows up as a readable diff here, not as a silent behavior
//! shift.
//!
//! To regenerate after an intentional compiler change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p guardrails --test compiler_golden
//! ```
//!
//! then review and commit the diff.

use std::fmt::Write as _;
use std::path::PathBuf;

use guardrails::compile::ir::Op;
use guardrails::compile::{compile, CompileOptions, CompiledAction};
use guardrails::spec::parse_and_check;
use simkernel::Nanos;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn render_nanos(n: Nanos) -> String {
    if n == Nanos::MAX {
        "unbounded".to_string()
    } else {
        format!("{}ns", n.as_nanos())
    }
}

/// Renders every compiled guardrail: triggers, per-rule listings, and
/// actions with their operand programs. The format is line-oriented so golden diffs read naturally.
fn render(source: &str, opts: &CompileOptions) -> String {
    let checked = parse_and_check(source).expect("golden spec parses");
    let compiled = compile(&checked, opts).expect("golden spec compiles");
    let mut out = String::new();
    for g in &compiled {
        let _ = writeln!(out, "guardrail {}", g.name);
        for t in &g.timers {
            let _ = writeln!(
                out,
                "  timer start={} interval={} stop={}",
                render_nanos(t.start),
                render_nanos(t.interval),
                render_nanos(t.stop)
            );
        }
        for hook in &g.hooks {
            let _ = writeln!(out, "  hook {hook}");
        }
        for (i, rule) in g.rules.iter().enumerate() {
            let _ = writeln!(
                out,
                "  rule {i}: {} (instrs={} max_stack={} worst_fuel={})",
                rule.source,
                rule.program.report().instrs,
                rule.program.report().max_stack_depth,
                rule.program.report().worst_case_fuel
            );
            for line in rule.program.to_string().lines() {
                let _ = writeln!(out, "    {line}");
            }
        }
        for (i, action) in g.actions.iter().enumerate() {
            match action {
                CompiledAction::Report { message, keys } => {
                    let _ = writeln!(out, "  action {i}: REPORT {message:?} keys={keys:?}");
                }
                CompiledAction::Replace { slot, variant } => {
                    let _ = writeln!(out, "  action {i}: REPLACE {slot} -> {variant}");
                }
                CompiledAction::Retrain { model } => {
                    let _ = writeln!(out, "  action {i}: RETRAIN {model}");
                }
                CompiledAction::Deprioritize { target, steps } => {
                    let _ = writeln!(out, "  action {i}: DEPRIORITIZE {target}");
                    if let Some(program) = steps {
                        for line in program.to_string().lines() {
                            let _ = writeln!(out, "    {line}");
                        }
                    }
                }
                CompiledAction::Save { key, value } => {
                    let _ = writeln!(out, "  action {i}: SAVE {key}");
                    for line in value.to_string().lines() {
                        let _ = writeln!(out, "    {line}");
                    }
                }
                CompiledAction::Record { key, value } => {
                    let _ = writeln!(out, "  action {i}: RECORD {key}");
                    for line in value.to_string().lines() {
                        let _ = writeln!(out, "    {line}");
                    }
                }
            }
        }
    }
    out
}

/// Compares `rendered` against the committed golden, or rewrites it when
/// `UPDATE_GOLDEN=1` is set.
fn check_golden(name: &str, rendered: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::write(&path, rendered).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\nregenerate with UPDATE_GOLDEN=1 cargo test -p guardrails \
             --test compiler_golden",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        expected,
        "compiler output diverged from {}\nregenerate with UPDATE_GOLDEN=1 (then review the \
         diff!) if the change is intentional",
        path.display()
    );
}

fn base_options() -> CompileOptions {
    CompileOptions { optimize: false }
}

#[test]
fn listing1_lowered_ir_matches_golden() {
    let source = std::fs::read_to_string(golden_dir().join("listing1.spec")).unwrap();
    check_golden("listing1.base.txt", &render(&source, &base_options()));
}

#[test]
fn listing1_default_pipeline_matches_golden() {
    let source = std::fs::read_to_string(golden_dir().join("listing1.spec")).unwrap();
    check_golden(
        "listing1.default.txt",
        &render(&source, &CompileOptions::default()),
    );
}

#[test]
fn listing2_lowered_ir_matches_golden() {
    let source = std::fs::read_to_string(golden_dir().join("listing2.spec")).unwrap();
    check_golden("listing2.base.txt", &render(&source, &base_options()));
}

#[test]
fn listing2_default_pipeline_matches_golden() {
    let source = std::fs::read_to_string(golden_dir().join("listing2.spec")).unwrap();
    check_golden(
        "listing2.default.txt",
        &render(&source, &CompileOptions::default()),
    );
}

/// The goldens themselves must stay honest: Listing 2's rule is the
/// dominant `LOAD(k) <= c` shape, so both pipelines must lower it to one
/// load-compare superinstruction.
#[test]
fn golden_specs_exercise_superinstructions() {
    let source = std::fs::read_to_string(golden_dir().join("listing2.spec")).unwrap();
    let checked = parse_and_check(&source).unwrap();
    for opts in [CompileOptions::default(), base_options()] {
        let compiled = compile(&checked, &opts).unwrap();
        assert!(matches!(
            compiled[0].rules[0].program.ops[..],
            [Op::LoadCmp { .. }]
        ));
    }
}
