//! Semantic and type checking of parsed specifications.
//!
//! Checking establishes the invariants the compiler and verifier rely on:
//! rules are boolean, trigger parameters are positive compile-time constants,
//! `ARG(i)` only appears under a `FUNCTION` trigger, and quantiles are inside
//! `[0, 1]`. Symbolic names like `start_time` (used verbatim in the paper's
//! Listing 2) are resolved against a bindings table here.

use std::collections::HashMap;

use simkernel::Nanos;

use crate::compile::opt::fold_expr;
use crate::error::{GuardrailError, Result};
use crate::spec::ast::{ActionStmt, BinOp, Expr, Guardrail, Spec, Trigger, UnOp};

/// A resolved periodic trigger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimerSpec {
    /// First evaluation time.
    pub start: Nanos,
    /// Period between evaluations (always > 0).
    pub interval: Nanos,
    /// Last evaluation time ([`Nanos::MAX`] when unbounded).
    pub stop: Nanos,
}

/// A guardrail that passed checking, with triggers resolved.
#[derive(Clone, Debug)]
pub struct CheckedGuardrail {
    /// The guardrail name.
    pub name: String,
    /// Resolved periodic triggers.
    pub timers: Vec<TimerSpec>,
    /// Tracepoint names for `FUNCTION` triggers.
    pub hooks: Vec<String>,
    /// Boolean rule expressions (symbols substituted).
    pub rules: Vec<Expr>,
    /// Corrective actions (operand expressions checked).
    pub actions: Vec<ActionStmt>,
}

/// A fully checked specification.
#[derive(Clone, Debug)]
pub struct CheckedSpec {
    /// The original parsed spec (for pretty-printing and diagnostics).
    pub spec: Spec,
    /// The checked guardrails, in source order.
    pub checked: Vec<CheckedGuardrail>,
}

/// The value type of an expression.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Type {
    /// A number (durations are numbers of nanoseconds).
    Num,
    /// A boolean.
    Bool,
}

/// The bindings [`check_spec`] resolves symbolic constants against.
fn default_bindings() -> HashMap<String, f64> {
    HashMap::from([
        ("start_time".to_string(), 0.0),
        ("stop_time".to_string(), u64::MAX as f64),
    ])
}

/// Checks a spec, binding the symbolic constants `start_time` to 0 and
/// `stop_time` to never, so the paper's Listing 2 checks without edits.
pub fn check_spec(spec: Spec) -> Result<CheckedSpec> {
    check_spec_with_bindings(spec, &default_bindings())
}

/// Checks a spec, resolving symbolic constants against `bindings`.
fn check_spec_with_bindings(spec: Spec, bindings: &HashMap<String, f64>) -> Result<CheckedSpec> {
    let mut checked = Vec::with_capacity(spec.guardrails.len());
    let mut seen = std::collections::HashSet::new();
    for g in &spec.guardrails {
        if !seen.insert(g.name.clone()) {
            return Err(GuardrailError::check(
                &g.name,
                "duplicate guardrail name in spec",
            ));
        }
        checked.push(check_guardrail(g, bindings)?);
    }
    Ok(CheckedSpec { spec, checked })
}

fn check_guardrail(g: &Guardrail, bindings: &HashMap<String, f64>) -> Result<CheckedGuardrail> {
    let mut timers = Vec::new();
    let mut hooks = Vec::new();
    for t in &g.triggers {
        match t {
            Trigger::Timer {
                start,
                interval,
                stop,
            } => {
                let start_ns = const_num(start, bindings, &g.name, "TIMER start")?;
                let interval_ns = const_num(interval, bindings, &g.name, "TIMER interval")?;
                if interval_ns.is_nan() || interval_ns <= 0.0 {
                    return Err(GuardrailError::check(
                        &g.name,
                        format!("TIMER interval must be positive, got {interval_ns}"),
                    ));
                }
                if start_ns < 0.0 {
                    return Err(GuardrailError::check(
                        &g.name,
                        format!("TIMER start must be non-negative, got {start_ns}"),
                    ));
                }
                let stop_ns = match stop {
                    Some(e) => {
                        let v = const_num(e, bindings, &g.name, "TIMER stop")?;
                        if v < start_ns {
                            return Err(GuardrailError::check(
                                &g.name,
                                "TIMER stop precedes start",
                            ));
                        }
                        to_nanos(v)
                    }
                    None => Nanos::MAX,
                };
                timers.push(TimerSpec {
                    start: to_nanos(start_ns),
                    interval: to_nanos(interval_ns),
                    stop: stop_ns,
                });
            }
            Trigger::Function { hook } => {
                if hook.is_empty() {
                    return Err(GuardrailError::check(
                        &g.name,
                        "FUNCTION hook name is empty",
                    ));
                }
                hooks.push(hook.clone());
            }
        }
    }
    let has_function_trigger = !hooks.is_empty();

    let mut rules = Vec::with_capacity(g.rules.len());
    for rule in &g.rules {
        let resolved = substitute_symbols(rule, bindings, &g.name)?;
        let ctx = ExprCtx {
            guardrail: &g.name,
            allow_args: has_function_trigger,
        };
        let ty = type_of(&resolved, &ctx)?;
        if ty != Type::Bool {
            return Err(GuardrailError::check(
                &g.name,
                "rule must be a boolean expression",
            ));
        }
        rules.push(resolved);
    }

    let mut actions = Vec::with_capacity(g.actions.len());
    for action in &g.actions {
        actions.push(check_action(
            action,
            bindings,
            &g.name,
            has_function_trigger,
        )?);
    }

    Ok(CheckedGuardrail {
        name: g.name.clone(),
        timers,
        hooks,
        rules,
        actions,
    })
}

fn check_action(
    action: &ActionStmt,
    bindings: &HashMap<String, f64>,
    guardrail: &str,
    allow_args: bool,
) -> Result<ActionStmt> {
    let ctx = ExprCtx {
        guardrail,
        allow_args,
    };
    let checked = match action {
        ActionStmt::Report { message, keys } => ActionStmt::Report {
            message: message.clone(),
            keys: keys.clone(),
        },
        ActionStmt::Replace { slot, variant } => ActionStmt::Replace {
            slot: slot.clone(),
            variant: variant.clone(),
        },
        ActionStmt::Retrain { model } => ActionStmt::Retrain {
            model: model.clone(),
        },
        ActionStmt::Deprioritize { target, steps } => {
            let steps = match steps {
                Some(e) => {
                    let resolved = substitute_symbols(e, bindings, guardrail)?;
                    if type_of(&resolved, &ctx)? != Type::Num {
                        return Err(GuardrailError::check(
                            guardrail,
                            "DEPRIORITIZE steps must be numeric",
                        ));
                    }
                    Some(resolved)
                }
                None => None,
            };
            ActionStmt::Deprioritize {
                target: target.clone(),
                steps,
            }
        }
        ActionStmt::Save { key, value } => {
            let resolved = substitute_symbols(value, bindings, guardrail)?;
            // Either type is storable: booleans are stored as 0/1.
            let _ = type_of(&resolved, &ctx)?;
            ActionStmt::Save {
                key: key.clone(),
                value: resolved,
            }
        }
        ActionStmt::Record { key, value } => {
            let resolved = substitute_symbols(value, bindings, guardrail)?;
            if type_of(&resolved, &ctx)? != Type::Num {
                return Err(GuardrailError::check(
                    guardrail,
                    "RECORD value must be numeric",
                ));
            }
            ActionStmt::Record {
                key: key.clone(),
                value: resolved,
            }
        }
    };
    Ok(checked)
}

fn to_nanos(v: f64) -> Nanos {
    Nanos::from_nanos(v.min(u64::MAX as f64).max(0.0) as u64)
}

/// Replaces [`Expr::Symbol`] nodes with bound constants; unbound symbols are
/// an error pointing the developer at `LOAD`.
fn substitute_symbols(e: &Expr, bindings: &HashMap<String, f64>, guardrail: &str) -> Result<Expr> {
    Ok(match e {
        Expr::Symbol(name) => match bindings.get(name) {
            Some(&v) => Expr::Number(v),
            None => {
                return Err(GuardrailError::check(
                    guardrail,
                    format!("unknown identifier '{name}' (feature-store reads use LOAD({name}))"),
                ))
            }
        },
        Expr::Aggregate { kind, key, window } => Expr::Aggregate {
            kind: *kind,
            key: key.clone(),
            window: Box::new(substitute_symbols(window, bindings, guardrail)?),
        },
        Expr::Quantile { key, q, window } => Expr::Quantile {
            key: key.clone(),
            q: Box::new(substitute_symbols(q, bindings, guardrail)?),
            window: Box::new(substitute_symbols(window, bindings, guardrail)?),
        },
        Expr::Hist { key, q } => Expr::Hist {
            key: key.clone(),
            q: Box::new(substitute_symbols(q, bindings, guardrail)?),
        },
        Expr::Abs(x) => Expr::Abs(Box::new(substitute_symbols(x, bindings, guardrail)?)),
        Expr::Clamp(x, lo, hi) => Expr::Clamp(
            Box::new(substitute_symbols(x, bindings, guardrail)?),
            Box::new(substitute_symbols(lo, bindings, guardrail)?),
            Box::new(substitute_symbols(hi, bindings, guardrail)?),
        ),
        Expr::Unary(op, x) => {
            Expr::Unary(*op, Box::new(substitute_symbols(x, bindings, guardrail)?))
        }
        Expr::Binary(op, l, r) => Expr::Binary(
            *op,
            Box::new(substitute_symbols(l, bindings, guardrail)?),
            Box::new(substitute_symbols(r, bindings, guardrail)?),
        ),
        other => other.clone(),
    })
}

struct ExprCtx<'a> {
    guardrail: &'a str,
    allow_args: bool,
}

/// Infers the type of a (symbol-free) expression, validating sub-expressions.
fn type_of(e: &Expr, ctx: &ExprCtx<'_>) -> Result<Type> {
    let err = |msg: String| GuardrailError::check(ctx.guardrail, msg);
    match e {
        Expr::Number(_) => Ok(Type::Num),
        Expr::Bool(_) => Ok(Type::Bool),
        Expr::Symbol(s) => Err(err(format!("unresolved symbol '{s}'"))),
        Expr::Load(_) | Expr::Ewma(_) | Expr::Delta(_) => Ok(Type::Num),
        Expr::Arg(_) => {
            if ctx.allow_args {
                Ok(Type::Num)
            } else {
                Err(err(
                    "ARG(i) requires a FUNCTION trigger (TIMER evaluations have no arguments)"
                        .into(),
                ))
            }
        }
        Expr::Aggregate { kind, window, .. } => {
            expect_const_positive(window, ctx, &format!("{} window", kind.name()))?;
            Ok(Type::Num)
        }
        Expr::Quantile { q, window, .. } => {
            let qv = expect_const(q, ctx, "QUANTILE q")?;
            if !(0.0..=1.0).contains(&qv) {
                return Err(err(format!("QUANTILE q must be in [0, 1], got {qv}")));
            }
            expect_const_positive(window, ctx, "QUANTILE window")?;
            Ok(Type::Num)
        }
        Expr::Hist { q, .. } => {
            let qv = expect_const(q, ctx, "HIST q")?;
            if !(0.0..=1.0).contains(&qv) {
                return Err(err(format!("HIST q must be in [0, 1], got {qv}")));
            }
            Ok(Type::Num)
        }
        Expr::Abs(x) => {
            expect_type(x, Type::Num, ctx, "ABS operand")?;
            Ok(Type::Num)
        }
        Expr::Clamp(x, lo, hi) => {
            expect_type(x, Type::Num, ctx, "CLAMP value")?;
            expect_type(lo, Type::Num, ctx, "CLAMP low bound")?;
            expect_type(hi, Type::Num, ctx, "CLAMP high bound")?;
            Ok(Type::Num)
        }
        Expr::Unary(UnOp::Neg, x) => {
            expect_type(x, Type::Num, ctx, "negation operand")?;
            Ok(Type::Num)
        }
        Expr::Unary(UnOp::Not, x) => {
            expect_type(x, Type::Bool, ctx, "'!' operand")?;
            Ok(Type::Bool)
        }
        Expr::Binary(op, l, r) => {
            if op.is_arithmetic() {
                expect_type(l, Type::Num, ctx, "arithmetic operand")?;
                expect_type(r, Type::Num, ctx, "arithmetic operand")?;
                Ok(Type::Num)
            } else if op.is_comparison() {
                let lt = type_of(l, ctx)?;
                let rt = type_of(r, ctx)?;
                if lt != rt {
                    return Err(err(format!(
                        "comparison operands have mismatched types ({lt:?} vs {rt:?})"
                    )));
                }
                if lt == Type::Bool && !matches!(op, BinOp::Eq | BinOp::Ne) {
                    return Err(err("booleans only support == and !=".into()));
                }
                Ok(Type::Bool)
            } else {
                expect_type(l, Type::Bool, ctx, "logical operand")?;
                expect_type(r, Type::Bool, ctx, "logical operand")?;
                Ok(Type::Bool)
            }
        }
    }
}

fn expect_type(e: &Expr, want: Type, ctx: &ExprCtx<'_>, what: &str) -> Result<()> {
    let got = type_of(e, ctx)?;
    if got != want {
        return Err(GuardrailError::check(
            ctx.guardrail,
            format!("{what} must be {want:?}, got {got:?}"),
        ));
    }
    Ok(())
}

fn expect_const(e: &Expr, ctx: &ExprCtx<'_>, what: &str) -> Result<f64> {
    // Typed first: the folder simplifies `true && 5` and `!!5` to `5`.
    expect_type(e, Type::Num, ctx, what)?;
    const_fold(e).ok_or_else(|| {
        GuardrailError::check(
            ctx.guardrail,
            format!("{what} must be a compile-time constant"),
        )
    })
}

fn expect_const_positive(e: &Expr, ctx: &ExprCtx<'_>, what: &str) -> Result<f64> {
    let v = expect_const(e, ctx, what)?;
    if v.is_nan() || v <= 0.0 {
        return Err(GuardrailError::check(
            ctx.guardrail,
            format!("{what} must be positive, got {v}"),
        ));
    }
    Ok(v)
}

/// Evaluates a closed numeric expression (no loads, args, or aggregates):
/// the number [`fold_expr`] folds it to, if it folds to one.
pub fn const_fold(e: &Expr) -> Option<f64> {
    match fold_expr(e) {
        Expr::Number(n) => Some(n),
        _ => None,
    }
}

fn const_num(
    e: &Expr,
    bindings: &HashMap<String, f64>,
    guardrail: &str,
    what: &str,
) -> Result<f64> {
    let resolved = substitute_symbols(e, bindings, guardrail)?;
    let ctx = ExprCtx {
        guardrail,
        allow_args: false,
    };
    expect_const(&resolved, &ctx, what)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::parser::parse;

    fn check(src: &str) -> Result<CheckedSpec> {
        check_spec(parse(src)?)
    }

    #[test]
    fn listing_2_checks_with_default_bindings() {
        let spec = check(
            r#"guardrail low-false-submit {
                trigger: { TIMER(start_time, 1e9) },
                rule: { LOAD(false_submit_rate) <= 0.05 },
                action: { SAVE(ml_enabled, false) }
            }"#,
        )
        .unwrap();
        let g = &spec.checked[0];
        assert_eq!(g.timers.len(), 1);
        assert_eq!(g.timers[0].start, Nanos::ZERO);
        assert_eq!(g.timers[0].interval, Nanos::from_secs(1));
        assert_eq!(g.timers[0].stop, Nanos::MAX);
    }

    #[test]
    fn rule_must_be_boolean() {
        let err = check(
            "guardrail g { trigger: { TIMER(0,1) }, rule: { LOAD(x) + 1 }, action: { REPORT(m) } }",
        )
        .unwrap_err();
        assert!(format!("{err}").contains("boolean"), "{err}");
    }

    #[test]
    fn timer_interval_must_be_positive() {
        assert!(check(
            "guardrail g { trigger: { TIMER(0, 0) }, rule: { true }, action: { REPORT(m) } }"
        )
        .is_err());
        assert!(check(
            "guardrail g { trigger: { TIMER(0, 1 - 2) }, rule: { true }, action: { REPORT(m) } }"
        )
        .is_err());
    }

    #[test]
    fn timer_stop_must_follow_start() {
        assert!(check(
            "guardrail g { trigger: { TIMER(5s, 1s, 2s) }, rule: { true }, action: { REPORT(m) } }"
        )
        .is_err());
        let ok = check(
            "guardrail g { trigger: { TIMER(1s, 1s, 10s) }, rule: { true }, action: { REPORT(m) } }",
        )
        .unwrap();
        assert_eq!(ok.checked[0].timers[0].stop, Nanos::from_secs(10));
    }

    #[test]
    fn arg_requires_function_trigger() {
        assert!(check(
            "guardrail g { trigger: { TIMER(0,1) }, rule: { ARG(0) < 5 }, action: { REPORT(m) } }"
        )
        .is_err());
        assert!(check(
            "guardrail g { trigger: { FUNCTION(f) }, rule: { ARG(0) < 5 }, action: { REPORT(m) } }"
        )
        .is_ok());
        // Mixed triggers: allowed (ARG reads 0 under TIMER evaluation).
        assert!(check(
            "guardrail g { trigger: { TIMER(0,1) FUNCTION(f) }, rule: { ARG(0) < 5 }, action: { REPORT(m) } }"
        )
        .is_ok());
    }

    #[test]
    fn unknown_symbol_suggests_load() {
        let err = check(
            "guardrail g { trigger: { TIMER(0,1) }, rule: { latency < 5 }, action: { REPORT(m) } }",
        )
        .unwrap_err();
        assert!(format!("{err}").contains("LOAD(latency)"), "{err}");
    }

    #[test]
    fn quantile_bounds_checked() {
        assert!(check(
            "guardrail g { trigger: { TIMER(0,1) }, rule: { QUANTILE(x, 1.5, 1s) < 5 }, action: { REPORT(m) } }"
        )
        .is_err());
        assert!(check(
            "guardrail g { trigger: { TIMER(0,1) }, rule: { QUANTILE(x, 0.99, 1s) < 5 }, action: { REPORT(m) } }"
        )
        .is_ok());
        // Window must be a positive constant.
        assert!(check(
            "guardrail g { trigger: { TIMER(0,1) }, rule: { AVG(x, LOAD(w)) < 5 }, action: { REPORT(m) } }"
        )
        .is_err());
    }

    #[test]
    fn hist_q_bounds_checked() {
        assert!(check(
            "guardrail g { trigger: { TIMER(0,1) }, rule: { HIST(x, 1.5) < 5 }, action: { REPORT(m) } }"
        )
        .is_err());
        assert!(check(
            "guardrail g { trigger: { TIMER(0,1) }, rule: { HIST(x, 0.99) < 5 }, action: { REPORT(m) } }"
        )
        .is_ok());
        assert!(check(
            "guardrail g { trigger: { TIMER(0,1) }, rule: { HIST(x, LOAD(q)) < 5 }, action: { REPORT(m) } }"
        )
        .is_err(), "q must be constant");
    }

    #[test]
    fn boolean_comparisons_limited_to_equality() {
        assert!(check(
            "guardrail g { trigger: { TIMER(0,1) }, rule: { true < false }, action: { REPORT(m) } }"
        )
        .is_err());
        assert!(check(
            "guardrail g { trigger: { TIMER(0,1) }, rule: { true == false }, action: { REPORT(m) } }"
        )
        .is_ok());
        assert!(check(
            "guardrail g { trigger: { TIMER(0,1) }, rule: { LOAD(x) == true }, action: { REPORT(m) } }"
        )
        .is_err());
    }

    #[test]
    fn duplicate_names_rejected() {
        assert!(check(
            "guardrail g { trigger: { TIMER(0,1) }, rule: { true }, action: { REPORT(m) } }
             guardrail g { trigger: { TIMER(0,1) }, rule: { true }, action: { REPORT(m) } }"
        )
        .is_err());
    }

    #[test]
    fn custom_bindings_resolve() {
        let spec = parse(
            "guardrail g { trigger: { TIMER(warmup, tick) }, rule: { true }, action: { REPORT(m) } }",
        )
        .unwrap();
        let mut b = default_bindings();
        b.insert("warmup".into(), 5e9);
        b.insert("tick".into(), 1e6);
        let checked = check_spec_with_bindings(spec, &b).unwrap();
        assert_eq!(checked.checked[0].timers[0].start, Nanos::from_secs(5));
        assert_eq!(checked.checked[0].timers[0].interval, Nanos::from_millis(1));
    }

    #[test]
    fn const_fold_arithmetic() {
        use crate::spec::ast::Expr as E;
        assert_eq!(
            const_fold(&E::bin(BinOp::Div, E::Number(1.0), E::Number(0.0))),
            Some(0.0)
        );
        assert_eq!(
            const_fold(&E::bin(BinOp::Mod, E::Number(7.0), E::Number(4.0))),
            Some(3.0)
        );
        assert_eq!(const_fold(&E::Load("x".into())), None);
        assert_eq!(
            const_fold(&E::bin(BinOp::Lt, E::Number(1.0), E::Number(2.0))),
            None
        );
    }

    /// The folder simplifies `true && 5` and `!!5` to `5`; the checker
    /// types a constant before folding it, so neither is a number.
    #[test]
    fn boolean_operators_do_not_make_numeric_constants() {
        for timer in ["TIMER(true && 5, 1)", "TIMER(0, !!5)"] {
            let src = format!(
                "guardrail g {{ trigger: {{ {timer} }}, rule: {{ true }}, action: {{ REPORT(m) }} }}"
            );
            assert!(check(&src).is_err(), "{timer}");
        }
        assert!(check(
            "guardrail g { trigger: { TIMER(0,1) }, rule: { QUANTILE(k, 0.5 || false, 10) < 1 }, action: { REPORT(m) } }"
        )
        .is_err());
    }

    #[test]
    fn deprioritize_steps_and_record_are_numeric() {
        assert!(check(
            "guardrail g { trigger: { TIMER(0,1) }, rule: { true }, action: { DEPRIORITIZE(t, true) } }"
        )
        .is_err());
        assert!(check(
            "guardrail g { trigger: { TIMER(0,1) }, rule: { true }, action: { RECORD(k, false) } }"
        )
        .is_err());
        assert!(check(
            "guardrail g { trigger: { TIMER(0,1) }, rule: { true }, action: { DEPRIORITIZE(t, 5) RECORD(k, LOAD(x) * 2) } }"
        )
        .is_ok());
    }
}
