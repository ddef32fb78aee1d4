//! Property-based tests over the guardrail language pipeline:
//! pretty-print/parse round-trips, total evaluation, optimizer semantics
//! preservation, the VM (rules and action operands) against a reference
//! evaluator, the verifier's soundness on arbitrary instruction streams,
//! and mutated spec text through every stage.

use std::collections::HashMap;

use guardrails::compile::ir::{ArithKind, CmpKind, Op, Program};
use guardrails::compile::lower::lower_expr;
use guardrails::compile::opt::fold_expr;
use guardrails::compile::verify::{verify, ExpectedType, Verified, VerifyLimits, MAX_TRACE_ARGS};
use guardrails::compile::{compile, CompileOptions};
use guardrails::spec::ast::{ActionStmt, AggKind, BinOp, Expr, Guardrail, Spec, Trigger, UnOp};
use guardrails::spec::lexer::lex;
use guardrails::spec::pretty::print_spec;
use guardrails::spec::{parse, parse_and_check};
use guardrails::vm::{DeltaState, EvalCtx, Vm, STACK_SLOTS};
use guardrails::FeatureStore;
use proptest::prelude::*;
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;
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

fn eval(program: &Verified, store: &FeatureStore, args: &[f64]) -> f64 {
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

/// `program` verified as a rule under the default limits.
fn verified(program: Program) -> Verified {
    verify(program, ExpectedType::Bool, &VerifyLimits::default()).expect("verifies")
}

/// The rule as the engine installs it: folded, lowered, verified.
fn install(rule: &Expr) -> Verified {
    verified(lower_expr(&fold_expr(rule)).expect("lowers"))
}

/// Every key the expression `rule` reads (lowering without folding keeps
/// them all).
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
                prop_assert!(rule.program.report().instrs > 0);
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
        let program = verified(lower_expr(&rule).expect("lowers"));
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
        let plain = verified(lower_expr(&rule).expect("lowers"));
        let folded = install(&rule);
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
        let program = verified(lower_expr(&rule).expect("lowers"));
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

// ---------------------------------------------------------------------------
// Verifier soundness on arbitrary instruction streams
// ---------------------------------------------------------------------------

/// The key table an arbitrary stream may index (a prefix of it).
const KEY_POOL: [&str; 4] = ["k0", "k1", "k2", "k3"];

const AGGREGATES: [AggKind; 7] = [
    AggKind::Avg,
    AggKind::Sum,
    AggKind::Count,
    AggKind::Min,
    AggKind::Max,
    AggKind::StdDev,
    AggKind::Rate,
];

const CMPS: [CmpKind; 6] = [
    CmpKind::Lt,
    CmpKind::Le,
    CmpKind::Gt,
    CmpKind::Ge,
    CmpKind::Eq,
    CmpKind::Ne,
];

const ARITHS: [ArithKind; 5] = [
    ArithKind::Add,
    ArithKind::Sub,
    ArithKind::Mul,
    ArithKind::Div,
    ArithKind::Mod,
];

/// Random instructions, their fields in and out of their valid ranges.
struct Fields<'a> {
    rng: &'a mut TestRng,
    /// The key table's size.
    keys: usize,
    /// One field in `odds` is drawn outside its valid range.
    odds: usize,
}

impl Fields<'_> {
    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.rng.below(from.len())]
    }

    fn bad(&mut self) -> bool {
        self.rng.below(self.odds) == 0
    }

    /// A key index: past the table when bad (or when it is empty).
    fn key(&mut self) -> u16 {
        if self.keys == 0 || self.bad() {
            (self.keys + self.rng.below(2)) as u16
        } else {
            self.rng.below(self.keys) as u16
        }
    }

    fn arg(&mut self) -> u8 {
        match self.bad() {
            true => (MAX_TRACE_ARGS + self.rng.below(2)) as u8,
            false => self.rng.below(MAX_TRACE_ARGS) as u8,
        }
    }

    fn immediate(&mut self) -> f64 {
        if self.bad() {
            return self.pick(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        }
        match self.rng.below(8) {
            0 => -0.0,
            1 => 1e308,
            2 => 0.0,
            3 => 1.0,
            _ => (self.rng.next_f64() - 0.5) * 2e6,
        }
    }

    fn quantile(&mut self) -> f64 {
        match self.bad() {
            true => self.pick(&[f64::NAN, 1.5, -0.1]),
            false => {
                let q = self.rng.next_f64();
                self.pick(&[0.0, 1.0, q])
            }
        }
    }

    fn window(&mut self) -> u64 {
        if self.bad() {
            return 0;
        }
        match self.rng.below(4) {
            0 => 1,
            1 => u64::MAX,
            2 => 1_000_000_000,
            _ => self.rng.next_u64() % 20_000_000_000,
        }
    }

    /// An instruction pushing a number (`Push` is either type).
    fn number(&mut self) -> Op {
        match self.rng.below(9) {
            0 => Op::Push(self.immediate()),
            1 => Op::Load(self.key()),
            2 => Op::Arg(self.arg()),
            3 => Op::Agg {
                kind: self.pick(&AGGREGATES),
                key: self.key(),
                window_ns: self.window(),
            },
            4 => Op::Quantile {
                key: self.key(),
                q: self.quantile(),
                window_ns: self.window(),
            },
            5 => Op::Ewma(self.key()),
            6 => Op::Hist {
                key: self.key(),
                q: self.quantile(),
            },
            7 => Op::Delta(self.key()),
            _ => Op::LoadArith {
                key: self.key(),
                arith: self.pick(&ARITHS),
                constant: self.immediate(),
            },
        }
    }

    /// An instruction pushing a boolean.
    fn boolean(&mut self) -> Op {
        match self.rng.below(3) {
            0 => Op::Push(self.pick(&[0.0, 1.0])),
            1 => Op::LoadCmp {
                key: self.key(),
                cmp: self.pick(&CMPS),
                constant: self.immediate(),
            },
            _ => Op::ArgCmp {
                arg: self.arg(),
                cmp: self.pick(&CMPS),
                constant: self.immediate(),
            },
        }
    }

    /// An instruction of any kind; a jump targets anywhere from the start
    /// to one past the end of a stream of `len` instructions.
    fn any(&mut self, len: usize) -> Op {
        match self.rng.below(10) {
            0 => Op::Abs,
            1 => Op::Neg,
            2 => Op::Not,
            3 => Op::Arith(self.pick(&ARITHS)),
            4 => Op::Clamp,
            5 => Op::Cmp(self.pick(&CMPS)),
            6 => Op::JumpIfFalsePeek(self.rng.below(len + 2) as u16),
            7 => Op::JumpIfTruePeek(self.rng.below(len + 2) as u16),
            8 => Op::Pop,
            _ => match self.rng.below(2) {
                0 => self.number(),
                _ => self.boolean(),
            },
        }
    }

    /// A stream that tracks its abstract stack (`true` = boolean), so that
    /// most of its instructions are well typed: producers, unary and
    /// binary operators, `CLAMP`, pops and the compiler's short-circuit
    /// shape (`jump; pop; producer`), with an arbitrary instruction now
    /// and then, reduced to one value at the end. Also returns that
    /// value's type.
    fn shaped(&mut self) -> (Vec<Op>, ExpectedType) {
        let target = 1 + self.rng.below(40);
        let mut ops = Vec::new();
        let mut stack: Vec<bool> = Vec::new();
        while ops.len() < target {
            let top = stack.last().copied();
            let pair = stack.len() >= 2 && stack[stack.len() - 1] == stack[stack.len() - 2];
            match self.rng.below(if stack.is_empty() { 2 } else { 20 }) {
                0 | 2..=5 => {
                    ops.push(self.number());
                    stack.push(false);
                }
                1 | 6 | 7 => {
                    ops.push(self.boolean());
                    stack.push(true);
                }
                8 | 9 => ops.push(match top {
                    Some(true) => Op::Not,
                    _ => self.pick(&[Op::Abs, Op::Neg]),
                }),
                10..=12 if pair => {
                    let numeric = !stack[stack.len() - 1];
                    stack.pop();
                    if numeric && self.rng.below(2) == 0 {
                        ops.push(Op::Arith(self.pick(&ARITHS)));
                    } else {
                        ops.push(Op::Cmp(self.pick(&CMPS)));
                        *stack.last_mut().expect("two values") = true;
                    }
                }
                13 if stack.len() >= 3 && stack[stack.len() - 3..] == [false; 3] => {
                    ops.push(Op::Clamp);
                    stack.truncate(stack.len() - 2);
                }
                14 | 15 if top == Some(true) => {
                    let at = ops.len() as u16 + 3;
                    let jump = match self.rng.below(2) {
                        0 => Op::JumpIfFalsePeek(at),
                        _ => Op::JumpIfTruePeek(at),
                    };
                    let rhs = self.boolean();
                    ops.extend([jump, Op::Pop, rhs]);
                }
                16 => {
                    ops.push(Op::Pop);
                    stack.pop();
                }
                // Anything, after which the tracked stack may be wrong.
                17 => ops.push(self.any(target)),
                _ => {}
            }
        }
        while stack.len() > 1 {
            ops.push(Op::Pop);
            stack.pop();
        }
        let expect = match stack.pop() {
            None => {
                ops.push(self.number());
                ExpectedType::Num
            }
            Some(true) => ExpectedType::Bool,
            Some(false) => ExpectedType::Num,
        };
        (ops, expect)
    }

    /// A stream that is deep and nothing else: `n` numeric pushes folded
    /// by `n - 1` additions, with `n` on both sides of the VM's stack size.
    fn deep(&mut self) -> Vec<Op> {
        let n = STACK_SLOTS - 24 + self.rng.below(60);
        let mut ops: Vec<Op> = (0..n)
            .map(|_| match self.rng.below(3) {
                0 => Op::Push(1.0),
                1 => Op::Arg(0),
                _ => Op::Load(0),
            })
            .collect();
        ops.extend((1..n).map(|_| Op::Arith(ArithKind::Add)));
        ops
    }
}

/// An arbitrary instruction stream and key table with the type and limits
/// it is verified against: depth-tracking streams, fully random ones and
/// deep ones, not compiler output.
struct ArbStream;

impl Strategy for ArbStream {
    type Value = (Program, ExpectedType, VerifyLimits);

    fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
        let keys: Vec<String> = KEY_POOL[..1 + rng.below(KEY_POOL.len())]
            .iter()
            .map(|k| k.to_string())
            .collect();
        let mut fields = Fields {
            rng,
            keys: keys.len(),
            odds: 3,
        };
        let (ops, expect) = match fields.rng.below(10) {
            0 => (fields.deep(), ExpectedType::Num),
            1..=6 => {
                fields.odds = 40;
                fields.shaped()
            }
            _ => {
                let len = 1 + fields.rng.below(12);
                let ops = (0..len).map(|_| fields.any(len)).collect();
                (ops, ExpectedType::Either)
            }
        };
        let expect = match fields.rng.below(8) {
            0 => fields.pick(&[ExpectedType::Bool, ExpectedType::Num]),
            1 => ExpectedType::Either,
            _ => expect,
        };
        let limits = match fields.rng.below(10) {
            0..=6 => VerifyLimits::default(),
            _ => VerifyLimits {
                max_instrs: 4 + fields.rng.below(200),
                max_stack: 1 + fields.rng.below(2 * STACK_SLOTS),
                max_fuel: 8 + fields.rng.below(600) as u64,
            },
        };
        (Program { ops, keys }, expect, limits)
    }
}

/// The first [`ArbStream`] draw the verifier accepts, with its limits.
struct AcceptedStream;

impl Strategy for AcceptedStream {
    type Value = (Verified, VerifyLimits);

    fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
        for _ in 0..100_000 {
            let (program, expect, limits) = ArbStream.gen_value(rng);
            if let Ok(verified) = verify(program, expect, &limits) {
                return (verified, limits);
            }
        }
        panic!("the verifier accepted none of 100 000 streams");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Verifier soundness: every program the verifier accepts runs to
    /// completion without panicking, never holds more values than its
    /// `max_stack_depth` (itself within the limits and the VM's fixed
    /// stack), and never burns more than its `worst_case_fuel`, for store
    /// contents and arguments with NaN and ±inf under quarantine off, over
    /// two evaluations that carry `DELTA` state, and under any fuel limit.
    #[test]
    fn verified_programs_cannot_fail(
        accepted in AcceptedStream,
        contents in arb_contents(),
        args in proptest::collection::vec(arb_value(), 0..10),
        fuel_limit in 0u64..200,
    ) {
        let (program, limits) = accepted;
        let report = program.report();
        prop_assert!(report.max_stack_depth <= limits.max_stack.min(STACK_SLOTS));
        prop_assert!(report.worst_case_fuel <= limits.max_fuel);
        let store = populate(&program.keys, &contents);
        let slots = store.bind(&program.keys);
        let mut deltas = DeltaState::for_program(&program);
        let mut vm = Vm::new();
        for _ in 0..2 {
            let mut ctx = EvalCtx { slots: &slots, now: NOW, args: &args, deltas: &mut deltas };
            let Ok((result, depth)) = vm.try_run_with_depth(&program, &mut ctx, None) else {
                panic!("no fuel limit, yet a fault");
            };
            prop_assert!(depth <= report.max_stack_depth,
                "depth {} > proven {}\n{}", depth, report.max_stack_depth, program);
            prop_assert!(result.fuel <= report.worst_case_fuel,
                "fuel {} > proven {}\n{}", result.fuel, report.worst_case_fuel, program);
            let fast = vm.run(&program, &mut ctx);
            prop_assert_eq!(fast.fuel, result.fuel);
            match vm.try_run(&program, &mut ctx, Some(fuel_limit)) {
                Ok(r) => prop_assert!(r.fuel <= fuel_limit),
                Err(fault) => prop_assert!(fault.to_string().contains("fuel exhausted")),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Mutated spec text through every stage
// ---------------------------------------------------------------------------

/// One edit of spec text; positions wrap to the text's length.
#[derive(Clone, Copy, Debug)]
enum Edit {
    /// Replace the byte at a position with any byte.
    Flip(usize, u8),
    /// Drop one token (a run of word characters, of spaces, or one other
    /// character).
    DropToken(usize),
    /// Insert a copy of up to 40 bytes right after them.
    Duplicate(usize, usize),
    /// Cut the text at a position.
    Truncate(usize),
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (0usize..100_000, 0u8..=255).prop_map(|(at, byte)| Edit::Flip(at, byte)),
        (0usize..100_000).prop_map(Edit::DropToken),
        (0usize..100_000, 1usize..41).prop_map(|(at, len)| Edit::Duplicate(at, len)),
        (0usize..100_000).prop_map(Edit::Truncate),
    ]
}

/// Token boundaries of `text`, by the character class of each byte.
fn token_spans(text: &[u8]) -> Vec<(usize, usize)> {
    let class = |b: u8| {
        if b.is_ascii_alphanumeric() || b == b'_' || b == b'.' {
            0
        } else if b.is_ascii_whitespace() {
            1
        } else {
            2
        }
    };
    let mut spans = Vec::new();
    let mut start = 0;
    for i in 1..=text.len() {
        if i == text.len() || class(text[i]) != class(text[start]) || class(text[start]) == 2 {
            spans.push((start, i));
            start = i;
        }
    }
    spans
}

fn apply(text: &mut Vec<u8>, edit: Edit) {
    if text.is_empty() {
        return;
    }
    let len = text.len();
    match edit {
        Edit::Flip(at, byte) => text[at % len] = byte,
        Edit::DropToken(at) => {
            let spans = token_spans(text);
            let (start, end) = spans[at % spans.len()];
            text.drain(start..end);
        }
        Edit::Duplicate(at, n) => {
            let start = at % len;
            let end = (start + n).min(len);
            let copy = text[start..end].to_vec();
            text.splice(end..end, copy);
        }
        Edit::Truncate(at) => text.truncate(at % len),
    }
}

/// Every program of `g`: rules, then operands.
fn programs(g: &guardrails::compile::CompiledGuardrail) -> Vec<&Verified> {
    let rules = g.rules.iter().map(|r| &r.program);
    rules
        .chain(g.actions.iter().filter_map(|a| a.operand()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Byte flips, token drops, duplications and truncations of generated
    /// spec text: the lexer, the parser, the checker and the compiler with
    /// its verifier each return an error or their result, and never panic;
    /// whatever compiles is verified and runs within its proven bounds.
    #[test]
    fn mutated_specs_fail_cleanly_at_every_stage(
        spec in arb_spec(),
        edits in proptest::collection::vec(arb_edit(), 1..5),
    ) {
        let mut bytes = print_spec(&spec).into_bytes();
        for &edit in &edits {
            apply(&mut bytes, edit);
        }
        let text = String::from_utf8_lossy(&bytes);
        let _ = lex(&text);
        let _ = parse(&text);
        let compiled = parse_and_check(&text)
            .and_then(|checked| compile(&checked, &CompileOptions::default()))
            .unwrap_or_default();
        let store = FeatureStore::new();
        let mut vm = Vm::new();
        for g in &compiled {
            for program in programs(g) {
                let report = program.report();
                let slots = store.bind(&program.keys);
                let mut deltas = DeltaState::for_program(program);
                let mut ctx = EvalCtx { slots: &slots, now: NOW, args: &[], deltas: &mut deltas };
                let Ok((result, depth)) = vm.try_run_with_depth(program, &mut ctx, None) else {
                    panic!("no fuel limit, yet a fault");
                };
                prop_assert!(depth <= report.max_stack_depth);
                prop_assert!(result.fuel <= report.worst_case_fuel);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Action operands against the reference evaluator
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The operand programs of `SAVE`, `RECORD` and `DEPRIORITIZE`, compiled
    /// from spec text as the engine installs them, compute what the
    /// reference evaluator computes (NaN where it gives NaN), over two
    /// evaluations with the store's scalars and the arguments changed in
    /// between, so `DELTA` state carries over.
    #[test]
    fn operands_match_reference_evaluator(
        value in arb_num_expr(),
        kind in 0usize..3,
        contents in arb_contents(),
        rewrites in proptest::collection::vec(arb_value(), 4),
        args in proptest::collection::vec(arb_value(), 2..9),
    ) {
        let action = match kind {
            0 => ActionStmt::Save { key: "out".into(), value: value.clone() },
            1 => ActionStmt::Record { key: "out".into(), value: value.clone() },
            _ => ActionStmt::Deprioritize { target: "t".into(), steps: Some(value.clone()) },
        };
        let spec = Spec {
            guardrails: vec![Guardrail {
                name: "g".into(),
                triggers: vec![Trigger::Function { hook: "h".into() }],
                rules: vec![Expr::Bool(false)],
                actions: vec![action],
            }],
        };
        let text = print_spec(&spec);
        let compiled = guardrails::compile::compile_str(&text)
            .unwrap_or_else(|e| panic!("compile failed: {e}\n{text}"));
        let operand = compiled[0].actions[0].operand().expect("an operand");
        let keys = rule_keys(&value);
        let store = populate(&keys, &contents);
        let slots = store.bind(&operand.keys);
        let mut vm_deltas = DeltaState::for_program(operand);
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
                    operand,
                    &mut EvalCtx { slots: &slots, now: NOW, args: &args, deltas: &mut vm_deltas },
                )
                .value;
            let want = reference.num(&value);
            prop_assert!(got == want || (got.is_nan() && want.is_nan()),
                "round {}: got {} want {} for {:?}\n{}", round, got, want, value, operand);
        }
    }
}
