//! Property-based tests over the guardrail language pipeline:
//! pretty-print/parse round-trips, total evaluation, optimizer semantics
//! preservation, and the VM against a reference evaluator.

use std::collections::HashMap;

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

const COMPARISONS: [BinOp; 6] = [
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::Eq,
    BinOp::Ne,
];

const ARITHMETIC: [BinOp; 5] = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod];

/// The shapes lowering turns into superinstructions — `LOAD(k) <cmp> c`,
/// `ARG(i) <cmp> c`, and `(LOAD(k) <arith> c) <cmp> c` — over a three-key
/// pool, so keys also repeat within a rule.
fn arb_superinstruction_cmp() -> impl Strategy<Value = Expr> {
    let key = || (0usize..3).prop_map(|i| ["a", "b", "c"][i].to_string());
    let lhs = prop_oneof![
        key().prop_map(Expr::Load),
        (0u32..8).prop_map(Expr::Arg),
        (key(), 0usize..5, arb_number()).prop_map(|(k, op, c)| Expr::bin(
            ARITHMETIC[op],
            Expr::Load(k),
            Expr::Number(c)
        )),
    ];
    (lhs, 0usize..6, arb_number())
        .prop_map(|(lhs, op, c)| Expr::bin(COMPARISONS[op], lhs, Expr::Number(c)))
}

/// Boolean expressions built over numeric comparisons.
fn arb_bool_expr() -> impl Strategy<Value = Expr> {
    let cmp = (arb_num_expr(), arb_num_expr(), 0usize..6)
        .prop_map(|(a, b, op)| Expr::bin(COMPARISONS[op], a, b));
    let leaf = prop_oneof![
        cmp,
        arb_superinstruction_cmp(),
        any::<bool>().prop_map(Expr::Bool)
    ];
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
    let mut deltas = DeltaState::for_program(program);
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

/// Values a feature or trigger argument may hold, non-finite ones
/// included (the store under test has quarantine off).
fn arb_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1e6..1e6f64,
        Just(0.0),
        Just(1.0),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(1e308),
    ]
}

/// What one key holds: `(kind, values)` with kind 0 absent, 1 scalar,
/// 2 series, 3 EWMA, 4 histogram.
fn arb_contents() -> impl Strategy<Value = Vec<(usize, Vec<f64>)>> {
    proptest::collection::vec((0usize..5, proptest::collection::vec(arb_value(), 1..6)), 4)
}

/// The evaluation time; series samples are recorded up to one second
/// before it.
const NOW: Nanos = Nanos::from_secs(10);

/// A store with quarantine off, holding `contents[i % len]` at the `i`-th
/// key of `keys`.
fn populate(keys: &[String], contents: &[(usize, Vec<f64>)]) -> FeatureStore {
    let store = FeatureStore::new();
    store.set_quarantine(false);
    for (i, key) in keys.iter().enumerate() {
        let (kind, values) = &contents[i % contents.len()];
        for (j, &v) in values.iter().enumerate() {
            match kind {
                1 => store.save(key, v),
                2 => store.record(key, Nanos::from_millis(9_000 + 200 * j as u64), v),
                3 => store.ewma_update(key, v, 0.5),
                4 => store.hist_observe(key, v),
                _ => {}
            }
        }
    }
    store
}

/// A test-only evaluator over `Expr`, written from the language definition
/// rather than from the compiler or the VM: comparisons with a NaN operand
/// are false, `/` and `%` by 0 give 0, `CLAMP(x, lo, hi)` limits `x` to
/// `[lo, max(lo, hi)]` (NaN when `x` or `lo` is NaN), `&&`/`||`
/// short-circuit left to right, absent keys and arguments read 0, loads
/// and aggregates read the store through its string API, and `DELTA(k)`
/// is the change in `LOAD(k)` since the previous `DELTA(k)` read (0 on the
/// first).
struct Reference<'a> {
    store: &'a FeatureStore,
    args: &'a [f64],
    deltas: HashMap<String, f64>,
}

impl Reference<'_> {
    fn truth(&mut self, e: &Expr) -> bool {
        match e {
            Expr::Bool(b) => *b,
            Expr::Unary(UnOp::Not, x) => !self.truth(x),
            Expr::Binary(BinOp::And, l, r) => self.truth(l) && self.truth(r),
            Expr::Binary(BinOp::Or, l, r) => self.truth(l) || self.truth(r),
            Expr::Binary(op, l, r) => {
                let (a, b) = (self.num(l), self.num(r));
                if a.is_nan() || b.is_nan() {
                    return false;
                }
                match op {
                    BinOp::Lt => a < b,
                    BinOp::Le => a <= b,
                    BinOp::Gt => a > b,
                    BinOp::Ge => a >= b,
                    BinOp::Eq => a == b,
                    BinOp::Ne => a != b,
                    other => panic!("{other:?} is not a comparison"),
                }
            }
            other => panic!("not a boolean expression: {other:?}"),
        }
    }

    fn num(&mut self, e: &Expr) -> f64 {
        let window = |w: &Expr| Nanos::from_nanos(const_number(w) as u64);
        match e {
            Expr::Number(n) => *n,
            Expr::Load(k) => self.store.load(k).unwrap_or(0.0),
            Expr::Arg(i) => self.args.get(*i as usize).copied().unwrap_or(0.0),
            Expr::Ewma(k) => self.store.ewma(k),
            Expr::Delta(k) => {
                let current = self.store.load(k).unwrap_or(0.0);
                let last = self.deltas.insert(k.clone(), current).unwrap_or(current);
                current - last
            }
            Expr::Aggregate {
                kind,
                key,
                window: w,
            } => self.store.aggregate(*kind, key, window(w), NOW),
            Expr::Quantile { key, q, window: w } => {
                self.store.quantile(key, const_number(q), window(w), NOW)
            }
            Expr::Hist { key, q } => self.store.hist_quantile(key, const_number(q)),
            Expr::Abs(x) => self.num(x).abs(),
            Expr::Unary(UnOp::Neg, x) => -self.num(x),
            Expr::Clamp(x, lo, hi) => {
                let (x, lo, hi) = (self.num(x), self.num(lo), self.num(hi));
                if x.is_nan() || lo.is_nan() {
                    return f64::NAN;
                }
                let hi = if hi >= lo { hi } else { lo };
                if x < lo {
                    lo
                } else if x > hi {
                    hi
                } else {
                    x
                }
            }
            Expr::Binary(op, l, r) => {
                let (a, b) = (self.num(l), self.num(r));
                match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div if b == 0.0 => 0.0,
                    BinOp::Div => a / b,
                    BinOp::Mod if b == 0.0 => 0.0,
                    BinOp::Mod => a % b,
                    other => panic!("{other:?} is not arithmetic"),
                }
            }
            other => panic!("not a numeric expression: {other:?}"),
        }
    }
}

/// The generators only put literals where the language requires constants
/// (windows, quantiles).
fn const_number(e: &Expr) -> f64 {
    match e {
        Expr::Number(n) => *n,
        other => panic!("expected a literal, got {other:?}"),
    }
}

/// The rule as the engine installs it: folded, lowered, verified.
fn install(rule: &Expr) -> Program {
    let program = lower_expr(&fold_expr(rule)).expect("lowers");
    verify(&program, ExpectedType::Bool, &VerifyLimits::default()).expect("verifies");
    program
}

/// Every key `rule` reads (lowering without folding keeps them all).
fn rule_keys(rule: &Expr) -> Vec<String> {
    lower_expr(rule).expect("lowers").keys
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
        let mut deltas = DeltaState::for_program(&program);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The VM running the installed program agrees with the reference
    /// evaluator, over two evaluations with the store's scalars and the
    /// arguments changed in between (so `DELTA` state carries over).
    #[test]
    fn vm_matches_reference_evaluator(
        rule in arb_bool_expr(),
        contents in arb_contents(),
        rewrites in proptest::collection::vec(arb_value(), 4),
        args in proptest::collection::vec(arb_value(), 2..9),
    ) {
        let program = install(&rule);
        let keys = rule_keys(&rule);
        let store = populate(&keys, &contents);
        let slots = store.bind(&program.keys);
        let mut vm_deltas = DeltaState::for_program(&program);
        let mut reference = Reference { store: &store, args: &args, deltas: HashMap::new() };
        for round in 0..2 {
            if round == 1 {
                for (i, key) in keys.iter().enumerate() {
                    if contents[i % contents.len()].0 == 1 {
                        store.save(key, rewrites[i % rewrites.len()]);
                    }
                }
            }
            let got = Vm::new()
                .run(
                    &program,
                    &mut EvalCtx { slots: &slots, now: NOW, args: &args, deltas: &mut vm_deltas },
                )
                .value;
            let want = if reference.truth(&rule) { 1.0 } else { 0.0 };
            prop_assert_eq!(got, want, "round {} of {:?}\n{}", round, rule, program);
        }
    }

    /// A dynamic fuel limit faults an evaluation exactly when the
    /// unlimited run burns more than the limit, and otherwise changes
    /// nothing.
    #[test]
    fn fuel_limit_faults_exactly_when_exceeded(
        rule in arb_bool_expr(),
        contents in arb_contents(),
        args in proptest::collection::vec(arb_value(), 2..9),
    ) {
        let program = install(&rule);
        let store = populate(&rule_keys(&rule), &contents);
        let slots = store.bind(&program.keys);
        let mut vm = Vm::new();
        let mut run = |limit: Option<u64>| {
            vm.try_run(
                &program,
                &mut EvalCtx {
                    slots: &slots,
                    now: NOW,
                    args: &args,
                    deltas: &mut DeltaState::for_program(&program),
                },
                limit,
            )
        };
        let full = run(None).expect("no limit never faults");
        for limit in 0..=program.worst_case_fuel() + 1 {
            match run(Some(limit)) {
                Err(_) => prop_assert!(full.fuel > limit, "faulted at limit {} with fuel {}", limit, full.fuel),
                Ok(r) => {
                    prop_assert!(full.fuel <= limit, "limit {} not enforced", limit);
                    prop_assert_eq!(r, full);
                }
            }
        }
    }
}
