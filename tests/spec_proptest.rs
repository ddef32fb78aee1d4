//! Property-based tests over the guardrail language pipeline:
//! pretty-print/parse round-trips, total evaluation, and
//! optimizer semantics preservation.

use guardrails::compile::ir::Program;
use guardrails::compile::lower::lower_expr;
use guardrails::compile::opt::fold_expr;
use guardrails::compile::verify::{verify, ExpectedType, VerifyLimits};
use guardrails::spec::ast::{ActionStmt, AggKind, BinOp, Expr, Guardrail, Spec, Trigger, UnOp};
use guardrails::spec::pretty::print_spec;
use guardrails::spec::{parse, parse_and_check};
use guardrails::vm::{DeltaState, EvalCtx, Vm};
use guardrails::FeatureStore;
use proptest::prelude::*;
use simkernel::Nanos;

/// One character of the key alphabet `[a-z0-9_]`.
fn key_char(i: usize) -> char {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
    ALPHABET[i] as char
}

/// Identifier keys matching `[a-z][a-z0-9_]{0,6}(\.[a-z0-9_]{1,4})?`,
/// built from combinators (the shimmed proptest has no regex strategies).
fn arb_key() -> impl Strategy<Value = String> {
    (
        0usize..26,
        proptest::collection::vec(0usize..37, 0..7),
        proptest::option::of(proptest::collection::vec(0usize..37, 1..5)),
    )
        .prop_map(|(first, tail, suffix)| {
            let mut s = String::new();
            s.push((b'a' + first as u8) as char);
            s.extend(tail.into_iter().map(key_char));
            if let Some(suffix) = suffix {
                s.push('.');
                s.extend(suffix.into_iter().map(key_char));
            }
            s
        })
        .prop_filter("reserved words", |s| {
            !matches!(
                s.as_str(),
                "true" | "false" | "guardrail" | "trigger" | "rule" | "action"
            )
        })
}

/// Report messages matching `[ -~&&[^"\\]]{0,20}`: up to 20 printable ASCII
/// characters excluding the quote and backslash.
fn arb_report_message() -> impl Strategy<Value = String> {
    let printable: Vec<char> = (b' '..=b'~')
        .map(|b| b as char)
        .filter(|&c| c != '"' && c != '\\')
        .collect();
    let n = printable.len();
    proptest::collection::vec(0usize..n, 0..21)
        .prop_map(move |idxs| idxs.into_iter().map(|i| printable[i]).collect())
}

fn arb_number() -> impl Strategy<Value = f64> {
    prop_oneof![-1e6..1e6f64, Just(0.0), Just(1.0), Just(0.05), Just(1e9),]
}

fn arb_agg() -> impl Strategy<Value = AggKind> {
    prop_oneof![
        Just(AggKind::Avg),
        Just(AggKind::Sum),
        Just(AggKind::Count),
        Just(AggKind::Min),
        Just(AggKind::Max),
        Just(AggKind::StdDev),
        Just(AggKind::Rate),
    ]
}

/// Numeric expressions (leaves + arithmetic), depth-bounded.
fn arb_num_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        arb_number().prop_map(Expr::Number),
        arb_key().prop_map(Expr::Load),
        arb_key().prop_map(Expr::Ewma),
        arb_key().prop_map(Expr::Delta),
        (0u32..8).prop_map(Expr::Arg),
        (arb_agg(), arb_key(), 1.0..1e10f64).prop_map(|(kind, key, w)| Expr::Aggregate {
            kind,
            key,
            window: Box::new(Expr::Number(w.trunc().max(1.0))),
        }),
        (arb_key(), 0.0..=1.0f64, 1.0..1e10f64).prop_map(|(key, q, w)| Expr::Quantile {
            key,
            q: Box::new(Expr::Number((q * 100.0).round() / 100.0)),
            window: Box::new(Expr::Number(w.trunc().max(1.0))),
        }),
        (arb_key(), 0.0..=1.0f64).prop_map(|(key, q)| Expr::Hist {
            key,
            q: Box::new(Expr::Number((q * 100.0).round() / 100.0)),
        }),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(BinOp::Add, a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(BinOp::Sub, a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(BinOp::Mul, a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(BinOp::Div, a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(BinOp::Mod, a, b)),
            inner
                .clone()
                .prop_map(|a| Expr::Unary(UnOp::Neg, Box::new(a))),
            inner.clone().prop_map(|a| Expr::Abs(Box::new(a))),
            (inner.clone(), inner.clone(), inner).prop_map(|(a, b, c)| Expr::Clamp(
                Box::new(a),
                Box::new(b),
                Box::new(c)
            )),
        ]
    })
}

/// Boolean expressions built over numeric comparisons.
fn arb_bool_expr() -> impl Strategy<Value = Expr> {
    let cmp = (arb_num_expr(), arb_num_expr(), 0usize..6).prop_map(|(a, b, op)| {
        let op = [
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
            BinOp::Eq,
            BinOp::Ne,
        ][op];
        Expr::bin(op, a, b)
    });
    let leaf = prop_oneof![cmp, any::<bool>().prop_map(Expr::Bool)];
    leaf.prop_recursive(2, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(BinOp::And, a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(BinOp::Or, a, b)),
            inner.prop_map(|a| Expr::Unary(UnOp::Not, Box::new(a))),
        ]
    })
}

fn arb_action() -> impl Strategy<Value = ActionStmt> {
    prop_oneof![
        (
            arb_report_message(),
            proptest::collection::vec(arb_key(), 0..3)
        )
            .prop_map(|(message, keys)| ActionStmt::Report { message, keys }),
        (arb_key(), arb_key()).prop_map(|(slot, variant)| ActionStmt::Replace { slot, variant }),
        arb_key().prop_map(|model| ActionStmt::Retrain { model }),
        (arb_key(), proptest::option::of(arb_num_expr()))
            .prop_map(|(target, steps)| ActionStmt::Deprioritize { target, steps }),
        (arb_key(), arb_num_expr()).prop_map(|(key, value)| ActionStmt::Save { key, value }),
        (arb_key(), arb_num_expr()).prop_map(|(key, value)| ActionStmt::Record { key, value }),
    ]
}

fn arb_guardrail(name: String) -> impl Strategy<Value = Guardrail> {
    (
        (0.0..1e9f64, 1.0..1e10f64).prop_map(|(start, interval)| Trigger::Timer {
            start: Expr::Number(start.trunc()),
            interval: Expr::Number(interval.trunc().max(1.0)),
            stop: None,
        }),
        arb_key(),
        proptest::collection::vec(arb_bool_expr(), 1..3),
        proptest::collection::vec(arb_action(), 1..4),
    )
        .prop_map(move |(timer, hook, rules, actions)| Guardrail {
            name: name.clone(),
            triggers: vec![timer, Trigger::Function { hook }],
            rules,
            actions,
        })
}

fn arb_spec() -> impl Strategy<Value = Spec> {
    proptest::collection::vec(arb_bool_expr(), 0..1) // Dummy to vary shrink seeds.
        .prop_flat_map(|_| {
            (
                arb_guardrail("g-one".to_string()),
                arb_guardrail("g_two".to_string()),
            )
                .prop_map(|(a, b)| Spec {
                    guardrails: vec![a, b],
                })
        })
}

fn eval(program: &Program, store: &FeatureStore, args: &[f64]) -> f64 {
    let slots = store.bind(&program.keys);
    let mut deltas = DeltaState::default();
    Vm::new()
        .run(
            program,
            &mut EvalCtx {
                slots: &slots,
                now: Nanos::from_secs(1),
                args,
                deltas: &mut deltas,
            },
        )
        .value
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Pretty-printing then re-parsing reproduces the same AST.
    #[test]
    fn print_parse_round_trips(spec in arb_spec()) {
        let printed = print_spec(&spec);
        let reparsed = parse(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        prop_assert_eq!(&spec, &reparsed, "printed:\n{}", printed);
    }

    /// Every generated spec passes checking, compiles, and verifies.
    #[test]
    fn generated_specs_compile_and_verify(spec in arb_spec()) {
        let printed = print_spec(&spec);
        let checked = parse_and_check(&printed)
            .unwrap_or_else(|e| panic!("check failed: {e}\n{printed}"));
        let compiled = guardrails::compile::compile(
            &checked,
            &guardrails::compile::CompileOptions::default(),
        )
        .unwrap_or_else(|e| panic!("compile failed: {e}\n{printed}"));
        prop_assert_eq!(compiled.len(), 2);
        for g in &compiled {
            prop_assert!(!g.rules.is_empty());
            for rule in &g.rules {
                prop_assert!(rule.report.instrs > 0);
            }
        }
    }

    /// Verified rule programs always evaluate to exactly 0.0 or 1.0 — total
    /// evaluation with a strict boolean result, for any store contents.
    #[test]
    fn rule_evaluation_is_total_and_boolean(
        rule in arb_bool_expr(),
        values in proptest::collection::vec(-1e12..1e12f64, 4),
    ) {
        let program = lower_expr(&rule).expect("lowers");
        verify(&program, ExpectedType::Bool, &VerifyLimits::default()).expect("verifies");
        let store = FeatureStore::new();
        // Populate every key the program references with arbitrary values.
        for (i, key) in program.keys.iter().enumerate() {
            store.save(key, values[i % values.len()]);
        }
        let args = [values[0], values[1 % values.len()]];
        let out = eval(&program, &store, &args);
        prop_assert!(out == 0.0 || out == 1.0, "non-boolean result {out}");
    }

    /// The optimizer preserves semantics: folded and unfolded programs agree
    /// on every input.
    #[test]
    fn optimizer_preserves_semantics(
        rule in arb_bool_expr(),
        values in proptest::collection::vec(-1e9..1e9f64, 4),
    ) {
        let plain = lower_expr(&rule).expect("lowers");
        let folded = lower_expr(&fold_expr(&rule)).expect("lowers folded");
        let store = FeatureStore::new();
        for (i, key) in plain.keys.iter().enumerate() {
            store.save(key, values[i % values.len()]);
        }
        for (i, key) in folded.keys.iter().enumerate() {
            store.save(key, values[i % values.len()]);
        }
        let args = [values[2 % values.len()], values[3 % values.len()]];
        prop_assert_eq!(eval(&plain, &store, &args), eval(&folded, &store, &args));
    }

    /// Folding never grows the program.
    #[test]
    fn optimizer_never_grows_programs(rule in arb_bool_expr()) {
        let plain = lower_expr(&rule).expect("lowers");
        let folded = lower_expr(&fold_expr(&rule)).expect("lowers folded");
        prop_assert!(folded.len() <= plain.len(),
            "folded {} > plain {}", folded.len(), plain.len());
    }

    /// The static fuel bound really bounds dynamic fuel.
    #[test]
    fn dynamic_fuel_never_exceeds_static_bound(
        rule in arb_bool_expr(),
        values in proptest::collection::vec(-100.0..100.0f64, 4),
    ) {
        let program = lower_expr(&rule).expect("lowers");
        let store = FeatureStore::new();
        for (i, key) in program.keys.iter().enumerate() {
            store.save(key, values[i % values.len()]);
        }
        let slots = store.bind(&program.keys);
        let mut deltas = DeltaState::default();
        let result = Vm::new().run(
            &program,
            &mut EvalCtx {
                slots: &slots,
                now: Nanos::from_secs(1),
                args: &[],
                deltas: &mut deltas,
            },
        );
        prop_assert!(result.fuel <= program.worst_case_fuel());
    }
}
