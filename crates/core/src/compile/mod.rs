//! Compilation of checked guardrails into verified monitor programs.
//!
//! "The provided guardrails are then automatically compiled into 'guardrail
//! monitors' that run inside the kernel" (§3.3). Here the target is the
//! verified bytecode of [`ir`], playing the role eBPF programs play in the
//! paper's envisioned deployment.

pub mod ir;
pub mod lower;
pub mod opt;
pub mod verify;

use std::sync::Arc;

use crate::error::Result;
use crate::spec::ast::ActionStmt;
use crate::spec::check::{CheckedGuardrail, CheckedSpec, TimerSpec};
use crate::spec::pretty::print_expr;
use ir::Program;
use verify::{verify_named, ExpectedType, Verified};

/// Options controlling compilation.
#[derive(Clone, Copy, Debug)]
pub struct CompileOptions {
    /// Run the AST optimizer before lowering (on by default; the compiler
    /// goldens and E11's per-event run turn it off).
    pub optimize: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions { optimize: true }
    }
}

/// A compiled corrective action.
#[derive(Clone, Debug)]
pub enum CompiledAction {
    /// A1: log the violation with the current values of `keys`.
    Report {
        /// Human-readable message.
        message: String,
        /// Feature-store keys dumped alongside the message.
        keys: Vec<String>,
    },
    /// A2: activate `variant` in policy slot `slot`.
    Replace {
        /// Policy slot.
        slot: String,
        /// Variant to activate.
        variant: String,
    },
    /// A3: enqueue an asynchronous retrain of `model`.
    Retrain {
        /// Model name.
        model: String,
    },
    /// A4: demote/kill tasks selected by `target`.
    Deprioritize {
        /// Task-selection key.
        target: String,
        /// Demotion amount program (`None` = default of 5 nice levels).
        steps: Option<Verified>,
    },
    /// Write `value` to the scalar `key`.
    Save {
        /// Destination key.
        key: String,
        /// Value program.
        value: Verified,
    },
    /// Append `value` to the series `key`.
    Record {
        /// Destination series key.
        key: String,
        /// Value program.
        value: Verified,
    },
}

impl CompiledAction {
    /// The operand program, for the actions that take one (`DEPRIORITIZE`
    /// with explicit steps, `SAVE`, `RECORD`).
    pub fn operand(&self) -> Option<&Verified> {
        match self {
            CompiledAction::Deprioritize { steps, .. } => steps.as_ref(),
            CompiledAction::Save { value, .. } | CompiledAction::Record { value, .. } => {
                Some(value)
            }
            CompiledAction::Report { .. }
            | CompiledAction::Replace { .. }
            | CompiledAction::Retrain { .. } => None,
        }
    }
}

/// The program of an action without an operand: no instructions, no keys.
static NO_PROGRAM: Program = Program {
    ops: Vec::new(),
    keys: Vec::new(),
};

/// A rule compiled to bytecode, with its source text for diagnostics.
#[derive(Clone, Debug)]
pub struct CompiledRule {
    /// The verified program (evaluates to a boolean), with what the
    /// verifier proved about it.
    pub program: Verified,
    /// Canonical source text of the rule, shared with its violation
    /// events.
    pub source: Arc<str>,
}

/// A fully compiled guardrail, ready to install into the monitor engine.
#[derive(Clone, Debug)]
pub struct CompiledGuardrail {
    /// The guardrail name, shared with every event it records.
    pub name: Arc<str>,
    /// Resolved periodic triggers.
    pub timers: Vec<TimerSpec>,
    /// Tracepoints to attach to.
    pub hooks: Vec<String>,
    /// The compiled rules (all must hold; conjunction).
    pub rules: Vec<CompiledRule>,
    /// The compiled actions, run in order on violation.
    pub actions: Vec<CompiledAction>,
}

impl CompiledGuardrail {
    /// Every program of the guardrail: one per rule, then one per action
    /// (the empty program for an action without an operand). A monitor's
    /// `DELTA` state and its checkpoint address programs in this order.
    pub fn programs(&self) -> impl Iterator<Item = &Program> {
        let rules = self.rules.iter().map(|r| r.program.program());
        let actions = self
            .actions
            .iter()
            .map(|a| a.operand().map_or(&NO_PROGRAM, Verified::program));
        rules.chain(actions)
    }
}

/// Compiles every guardrail in a checked spec.
pub fn compile(spec: &CheckedSpec, opts: &CompileOptions) -> Result<Vec<CompiledGuardrail>> {
    spec.checked
        .iter()
        .map(|g| compile_guardrail(g, opts))
        .collect()
}

/// Compiles one checked guardrail: optimize → lower → verify.
fn compile_guardrail(g: &CheckedGuardrail, opts: &CompileOptions) -> Result<CompiledGuardrail> {
    let mut rules = Vec::with_capacity(g.rules.len());
    for rule in &g.rules {
        let source = print_expr(rule);
        let folded = if opts.optimize {
            opt::fold_expr(rule)
        } else {
            rule.clone()
        };
        let program = lower::lower_expr(&folded)?;
        rules.push(CompiledRule {
            program: verify_named(program, ExpectedType::Bool, &g.name)?,
            source: source.into(),
        });
    }

    let mut actions = Vec::with_capacity(g.actions.len());
    for action in &g.actions {
        actions.push(compile_action(action, g, opts)?);
    }

    Ok(CompiledGuardrail {
        name: g.name.as_str().into(),
        timers: g.timers.clone(),
        hooks: g.hooks.clone(),
        rules,
        actions,
    })
}

fn compile_action(
    action: &ActionStmt,
    g: &CheckedGuardrail,
    opts: &CompileOptions,
) -> Result<CompiledAction> {
    let compile_operand = |e: &crate::spec::ast::Expr, expect: ExpectedType| -> Result<Verified> {
        let folded = if opts.optimize {
            opt::fold_expr(e)
        } else {
            e.clone()
        };
        verify_named(lower::lower_expr(&folded)?, expect, &g.name)
    };
    Ok(match action {
        ActionStmt::Report { message, keys } => CompiledAction::Report {
            message: message.clone(),
            keys: keys.clone(),
        },
        ActionStmt::Replace { slot, variant } => CompiledAction::Replace {
            slot: slot.clone(),
            variant: variant.clone(),
        },
        ActionStmt::Retrain { model } => CompiledAction::Retrain {
            model: model.clone(),
        },
        ActionStmt::Deprioritize { target, steps } => CompiledAction::Deprioritize {
            target: target.clone(),
            steps: match steps {
                Some(e) => Some(compile_operand(e, ExpectedType::Num)?),
                None => None,
            },
        },
        ActionStmt::Save { key, value } => CompiledAction::Save {
            key: key.clone(),
            value: compile_operand(value, ExpectedType::Either)?,
        },
        ActionStmt::Record { key, value } => CompiledAction::Record {
            key: key.clone(),
            value: compile_operand(value, ExpectedType::Num)?,
        },
    })
}

/// Parses, checks, and compiles guardrail source text in one call.
///
/// # Examples
///
/// ```
/// let compiled = guardrails::compile::compile_str(
///     "guardrail g { trigger: { TIMER(0, 1s) }, rule: { LOAD(x) < 1 }, action: { REPORT(\"x\") } }",
/// ).unwrap();
/// assert_eq!(&*compiled[0].name, "g");
/// assert_eq!(compiled[0].rules[0].program.len(), 1);
/// ```
pub fn compile_str(source: &str) -> Result<Vec<CompiledGuardrail>> {
    let checked = crate::spec::parse_and_check(source)?;
    compile(&checked, &CompileOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::ir::{CmpKind, Op};
    use simkernel::Nanos;

    #[test]
    fn compiles_listing_2() {
        let compiled = compile_str(
            r#"guardrail low-false-submit {
                trigger: { TIMER(start_time, 1e9) },
                rule: { LOAD(false_submit_rate) <= 0.05 },
                action: { SAVE(ml_enabled, false) }
            }"#,
        )
        .unwrap();
        let g = &compiled[0];
        assert_eq!(&*g.name, "low-false-submit");
        assert_eq!(g.timers[0].interval, Nanos::from_secs(1));
        assert_eq!(
            g.rules[0].program.ops,
            vec![Op::LoadCmp {
                key: 0,
                cmp: CmpKind::Le,
                constant: 0.05
            }]
        );
        assert_eq!(&*g.rules[0].source, "LOAD(false_submit_rate) <= 0.05");
        match &g.actions[0] {
            CompiledAction::Save { key, value } => {
                assert_eq!(key, "ml_enabled");
                assert_eq!(value.ops, vec![Op::Push(0.0)]);
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn optimizer_shrinks_programs() {
        let src = "guardrail g { trigger: { TIMER(0,1) }, rule: { LOAD(x) < 2 * 1000 + 500 }, action: { REPORT(m) } }";
        let checked = crate::spec::parse_and_check(src).unwrap();
        let optimized = compile(&checked, &CompileOptions::default()).unwrap();
        let unoptimized = compile(&checked, &CompileOptions { optimize: false }).unwrap();
        assert!(optimized[0].rules[0].program.len() < unoptimized[0].rules[0].program.len());
        assert_eq!(
            optimized[0].rules[0].program.ops,
            vec![Op::LoadCmp {
                key: 0,
                cmp: CmpKind::Lt,
                constant: 2500.0
            }]
        );
    }

    #[test]
    fn all_actions_compile() {
        let compiled = compile_str(
            r#"guardrail g {
                trigger: { TIMER(0, 1s) FUNCTION(f) },
                rule: { ARG(0) < 10 },
                action: {
                    REPORT("v", a, b)
                    REPLACE(slot, fallback)
                    RETRAIN(model)
                    DEPRIORITIZE(heaviest)
                    DEPRIORITIZE(heaviest, 3 + 2)
                    SAVE(k, LOAD(k) + 1)
                    RECORD(series, ARG(1))
                }
            }"#,
        )
        .unwrap();
        assert_eq!(compiled[0].actions.len(), 7);
        assert_eq!(compiled[0].hooks, vec!["f".to_string()]);
        match &compiled[0].actions[4] {
            CompiledAction::Deprioritize { steps: Some(p), .. } => {
                assert_eq!(p.ops, vec![Op::Push(5.0)], "steps constant-folded");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nan_clamp_bound_in_spec_text_does_not_panic_the_compiler() {
        // The optimizer folds the CLAMP to NaN; the verifier then rejects
        // the non-finite immediate. Either outcome is fine, a panic is not.
        let result = std::panic::catch_unwind(|| {
            compile_str(
                "guardrail g { trigger: { TIMER(0,1) }, rule: { CLAMP(1, 1e308 * 10 - 1e308 * 10, 5) < LOAD(x) }, action: { REPORT(m) } }",
            )
            .map(|_| ())
        });
        assert!(result.is_ok(), "compile_str panicked");
    }

    #[test]
    fn optimizer_keeps_nan_comparisons_false() {
        use crate::store::FeatureStore;
        use crate::vm::{DeltaState, EvalCtx, Vm};
        let src = "guardrail g { trigger: { TIMER(0,1) }, rule: { (1e308 * 10 - 1e308 * 10) != 1 || LOAD(x) > 5 }, action: { REPORT(m) } }";
        let checked = crate::spec::parse_and_check(src).unwrap();
        let store = FeatureStore::new();
        store.save("x", 1.0);
        let value = |optimize| {
            let compiled = compile(&checked, &CompileOptions { optimize }).unwrap();
            let program = &compiled[0].rules[0].program;
            let slots = store.bind(&program.keys);
            Vm::new()
                .run(
                    program,
                    &mut EvalCtx {
                        slots: &slots,
                        now: Nanos::ZERO,
                        args: &[],
                        deltas: &mut DeltaState::for_program(program),
                    },
                )
                .value
        };
        assert_eq!(value(false), 0.0, "NaN != 1 is false, and 1 > 5 is false");
        assert_eq!(value(true), value(false));
    }
}
