//! E2: compilation-pipeline cost (parse → check → compile → verify) and VM
//! execution throughput, with the optimizer and verifier ablations from
//! DESIGN.md.

use criterion::{criterion_group, criterion_main, Criterion};
use guardrails::compile::verify::{verify, ExpectedType, VerifyLimits};
use guardrails::compile::{compile, compile_str, CompileOptions};
use guardrails::spec::parse_and_check;
use guardrails::vm::{DeltaState, EvalCtx, Vm};
use guardrails::FeatureStore;
use simkernel::Nanos;
use std::hint::black_box;

const SMALL: &str = r#"
guardrail low-false-submit {
    trigger: { TIMER(start_time, 1e9) },
    rule: { LOAD(false_submit_rate) <= 0.05 },
    action: { SAVE(ml_enabled, false) }
}
"#;

/// A deliberately heavyweight spec: several rules with aggregates, logic,
/// and arithmetic — the upper end of what a practitioner would write.
const LARGE: &str = r#"
guardrail complex {
    trigger: { TIMER(0, 100ms, 100s) FUNCTION(io_submit) FUNCTION(io_complete) },
    rule: {
        AVG(lat, 10s) < 2000 && QUANTILE(lat, 0.99, 10s) < 50ms;
        (RATE(errs, 1s) < 10 || LOAD(err_budget) > 0) && !(LOAD(panic_mode) == 1);
        CLAMP(ABS(DELTA(queue_depth)), 0, 100) * 2 + EWMA(svc_time) / 1000 <= 500;
        ARG(0) >= 0 && ARG(0) < 1e9 && (ARG(1) + ARG(2)) % 4096 == 0 || LOAD(x) < 1
    },
    action: {
        REPORT("complex violated", lat, errs, queue_depth)
        REPLACE(io_policy, fallback)
        RETRAIN(io_model)
        DEPRIORITIZE(heaviest, 5 + 5)
        SAVE(alarm, LOAD(alarm) + 1)
        RECORD(violations, 1)
    }
}
"#;

fn pipeline(c: &mut Criterion) {
    c.bench_function("compile_small_spec_full_pipeline", |b| {
        b.iter(|| compile_str(black_box(SMALL)).unwrap())
    });
    c.bench_function("compile_large_spec_full_pipeline", |b| {
        b.iter(|| compile_str(black_box(LARGE)).unwrap())
    });
}

fn stages(c: &mut Criterion) {
    c.bench_function("parse_and_check_large", |b| {
        b.iter(|| parse_and_check(black_box(LARGE)).unwrap())
    });
    let checked = parse_and_check(LARGE).unwrap();
    c.bench_function("lower_and_verify_large_optimized", |b| {
        b.iter(|| compile(black_box(&checked), &CompileOptions::default()).unwrap())
    });
    c.bench_function("lower_and_verify_large_unoptimized", |b| {
        b.iter(|| {
            compile(
                black_box(&checked),
                &CompileOptions {
                    optimize: false,
                    ..CompileOptions::default()
                },
            )
            .unwrap()
        })
    });
    let compiled = compile(&checked, &CompileOptions::default()).unwrap();
    let program = &compiled[0].rules[0].program;
    c.bench_function("verifier_alone_on_compiled_rule", |b| {
        b.iter(|| {
            verify(
                black_box(program),
                ExpectedType::Bool,
                &VerifyLimits::default(),
            )
            .unwrap()
        })
    });
}

fn vm_execution(c: &mut Criterion) {
    let compiled = compile_str(LARGE).unwrap();
    let store = FeatureStore::new();
    for i in 0..5_000u64 {
        store.record("lat", Nanos::from_millis(i * 2), (i % 900) as f64);
    }
    store.save("err_budget", 100.0);
    store.save("x", 0.5);
    let mut vm = Vm::new();
    let mut deltas = vec![DeltaState::default(); compiled[0].rules.len()];
    let slots: Vec<_> = compiled[0]
        .rules
        .iter()
        .map(|rule| store.bind(&rule.program.keys))
        .collect();
    c.bench_function("vm_evaluate_all_large_rules", |b| {
        b.iter(|| {
            let mut violated = false;
            for (i, rule) in compiled[0].rules.iter().enumerate() {
                let r = vm.run(
                    &rule.program,
                    &mut EvalCtx {
                        slots: &slots[i],
                        now: Nanos::from_secs(10),
                        args: &[512.0, 2048.0, 2048.0],
                        deltas: &mut deltas[i],
                    },
                );
                violated |= !r.as_bool();
            }
            black_box(violated)
        })
    });

    let small = compile_str(SMALL).unwrap();
    store.save("false_submit_rate", 0.01);
    let small_slots = store.bind(&small[0].rules[0].program.keys);
    let mut delta = DeltaState::default();
    c.bench_function("vm_evaluate_listing2_rule", |b| {
        b.iter(|| {
            let r = vm.run(
                &small[0].rules[0].program,
                &mut EvalCtx {
                    slots: &small_slots,
                    now: Nanos::from_secs(10),
                    args: &[],
                    deltas: &mut delta,
                },
            );
            black_box(r.value)
        })
    });
}

criterion_group!(benches, pipeline, stages, vm_execution);
criterion_main!(benches);
