//! The monitor virtual machine.
//!
//! Executes verified [`Program`]s against the feature store, through the
//! store slots the program's key table was bound to. Arithmetic is
//! total (division/modulo by zero yield 0, NaN comparisons are false), and
//! the interpreter charges fuel per instruction so the engine can account
//! monitoring overhead (property P5). A verified program cannot fail:
//! [`Vm::run`] on one always returns a value.

use std::collections::HashMap;

use simkernel::Nanos;

use crate::compile::ir::{FusedOp, Op, Program};
use crate::store::Slot;

/// Per-program persistent state for `DELTA(key)`: last-seen scalar values.
pub type DeltaState = HashMap<u16, f64>;

/// The evaluation context a program runs in.
pub struct EvalCtx<'a> {
    /// The program's key table bound to store slots
    /// ([`crate::FeatureStore::bind`]): key index `k` reads `slots[k]`.
    /// Reads only; writes happen through actions.
    pub slots: &'a [Slot],
    /// Current simulated time (anchors windowed aggregates).
    pub now: Nanos,
    /// Trigger arguments (empty under TIMER triggers).
    pub args: &'a [f64],
    /// Persistent `DELTA` state for this program.
    pub deltas: &'a mut DeltaState,
}

impl EvalCtx<'_> {
    /// The slot bound to key index `k`; the verifier guarantees every key
    /// operand indexes the program's key table.
    #[inline]
    fn slot(&self, k: u16) -> &Slot {
        &self.slots[usize::from(k)]
    }
}

/// The result of one program evaluation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EvalResult {
    /// The value left on the stack (booleans as 0.0/1.0).
    pub value: f64,
    /// Fuel consumed (the verifier's static cost model, charged dynamically).
    pub fuel: u64,
}

impl EvalResult {
    /// Interprets the result as a boolean.
    pub fn as_bool(self) -> bool {
        self.value != 0.0
    }
}

/// A fault aborting a [`Vm::try_run`] evaluation.
///
/// Verified programs cannot underflow or jump out of bounds, but a caller
/// may impose a *dynamic* fuel budget tighter than the verifier's static
/// bound (or a fault-injection harness may shrink it mid-run); exhausting
/// it aborts the evaluation without a result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VmFault {
    /// The dynamic fuel budget ran out before the program completed.
    FuelExhausted {
        /// Fuel consumed when the budget tripped.
        used: u64,
        /// The budget that was in force.
        limit: u64,
    },
}

impl std::fmt::Display for VmFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmFault::FuelExhausted { used, limit } => {
                write!(f, "fuel exhausted ({used} used, limit {limit})")
            }
        }
    }
}

impl std::error::Error for VmFault {}

/// A reusable stack VM.
///
/// # Examples
///
/// ```
/// use guardrails::compile::compile_str;
/// use guardrails::vm::{EvalCtx, Vm};
/// use guardrails::FeatureStore;
/// use simkernel::Nanos;
///
/// let compiled = compile_str(
///     "guardrail g { trigger: { TIMER(0,1s) }, rule: { LOAD(x) <= 0.05 }, action: { REPORT(m) } }",
/// ).unwrap();
/// let store = FeatureStore::new();
/// store.save("x", 0.2);
/// let program = &compiled[0].rules[0].program;
/// let slots = store.bind(&program.keys);
/// let mut vm = Vm::new();
/// let mut deltas = Default::default();
/// let result = vm.run(
///     program,
///     &mut EvalCtx { slots: &slots, now: Nanos::ZERO, args: &[], deltas: &mut deltas },
/// );
/// assert!(!result.as_bool()); // 0.2 > 0.05: the rule does not hold.
/// ```
#[derive(Debug, Default)]
pub struct Vm {
    stack: Vec<f64>,
}

impl Vm {
    /// Creates a VM with an empty stack.
    pub fn new() -> Self {
        Vm {
            stack: Vec::with_capacity(16),
        }
    }

    /// Executes a *verified* program to completion.
    ///
    /// # Panics
    ///
    /// Panics on stack underflow or malformed jumps, which the verifier
    /// excludes; running an unverified program is a programming error. Also
    /// panics when `ctx.slots` was not bound from this program's key table.
    pub fn run(&mut self, program: &Program, ctx: &mut EvalCtx<'_>) -> EvalResult {
        self.exec(program, ctx, None)
            .expect("unlimited fuel cannot exhaust")
    }

    /// Executes a verified program under a dynamic fuel budget.
    ///
    /// Returns [`VmFault::FuelExhausted`] when cumulative fuel exceeds
    /// `fuel_limit` before the program finishes; the engine's watchdog uses
    /// this to detect rules that can no longer complete within budget
    /// instead of letting them run unbounded.
    pub fn try_run(
        &mut self,
        program: &Program,
        ctx: &mut EvalCtx<'_>,
        fuel_limit: Option<u64>,
    ) -> Result<EvalResult, VmFault> {
        self.exec(program, ctx, fuel_limit)
    }

    fn exec(
        &mut self,
        program: &Program,
        ctx: &mut EvalCtx<'_>,
        fuel_limit: Option<u64>,
    ) -> Result<EvalResult, VmFault> {
        if program.fused.is_empty() {
            self.exec_base(program, ctx, fuel_limit)
        } else {
            self.exec_fused(program, ctx, fuel_limit)
        }
    }

    /// The fused fast loop: superinstructions keep their operands in the
    /// instruction and their intermediates in locals (register style), so
    /// the dominant `LOAD(k) <= c` rule shape is one dispatch and one stack
    /// push instead of three dispatches and four stack moves. Anything not
    /// fused executes through the same stack machinery as
    /// [`Vm::exec_base`] via [`FusedOp::Plain`]. Each fused instruction
    /// charges the summed fuel of its constituents, so fuel totals — and
    /// fuel-limit faulting — match the base stream exactly.
    fn exec_fused(
        &mut self,
        program: &Program,
        ctx: &mut EvalCtx<'_>,
        fuel_limit: Option<u64>,
    ) -> Result<EvalResult, VmFault> {
        self.stack.clear();
        let mut fuel = 0u64;
        let mut pc = 0usize;
        let fused = &program.fused;
        while pc < fused.len() {
            let fop = fused[pc];
            fuel += fop.cost();
            if let Some(limit) = fuel_limit {
                if fuel > limit {
                    return Err(VmFault::FuelExhausted { used: fuel, limit });
                }
            }
            let mut next = pc + 1;
            match fop {
                FusedOp::LoadCmpConst { key, cmp, constant } => {
                    let v = ctx.slot(key).load().unwrap_or(0.0);
                    self.stack
                        .push(if cmp.eval(v, constant) { 1.0 } else { 0.0 });
                }
                FusedOp::ArgCmpConst { arg, cmp, constant } => {
                    let v = ctx.args.get(usize::from(arg)).copied().unwrap_or(0.0);
                    self.stack
                        .push(if cmp.eval(v, constant) { 1.0 } else { 0.0 });
                }
                FusedOp::LoadArithConst {
                    key,
                    arith,
                    constant,
                } => {
                    let v = ctx.slot(key).load().unwrap_or(0.0);
                    self.stack.push(arith.eval(v, constant));
                }
                FusedOp::Plain(op) => self.step(op, ctx, &mut next),
            }
            pc = next;
        }
        let value = self.stack.pop().unwrap_or(0.0);
        Ok(EvalResult { value, fuel })
    }

    fn exec_base(
        &mut self,
        program: &Program,
        ctx: &mut EvalCtx<'_>,
        fuel_limit: Option<u64>,
    ) -> Result<EvalResult, VmFault> {
        self.stack.clear();
        let mut fuel = 0u64;
        let mut pc = 0usize;
        let ops = &program.ops;
        while pc < ops.len() {
            let op = ops[pc];
            fuel += op.cost();
            if let Some(limit) = fuel_limit {
                if fuel > limit {
                    return Err(VmFault::FuelExhausted { used: fuel, limit });
                }
            }
            let mut next = pc + 1;
            self.step(op, ctx, &mut next);
            pc = next;
        }
        let value = self.stack.pop().unwrap_or(0.0);
        Ok(EvalResult { value, fuel })
    }

    /// Executes one base op against the stack. `next` arrives as the
    /// fall-through successor index and is overwritten by taken jumps; in
    /// the fused stream, jump operands were rewritten to fused indices at
    /// fusion time, so the same step function serves both loops.
    fn step(&mut self, op: Op, ctx: &mut EvalCtx<'_>, next: &mut usize) {
        match op {
            Op::Push(v) => self.stack.push(v),
            Op::Load(k) => self.stack.push(ctx.slot(k).load().unwrap_or(0.0)),
            Op::Arg(i) => self
                .stack
                .push(ctx.args.get(usize::from(i)).copied().unwrap_or(0.0)),
            Op::Agg {
                kind,
                key,
                window_ns,
            } => self.stack.push(ctx.slot(key).aggregate(
                kind,
                Nanos::from_nanos(window_ns),
                ctx.now,
            )),
            Op::Quantile { key, q, window_ns } => self.stack.push(ctx.slot(key).quantile(
                q,
                Nanos::from_nanos(window_ns),
                ctx.now,
            )),
            Op::Ewma(k) => self.stack.push(ctx.slot(k).ewma()),
            Op::Hist { key, q } => self.stack.push(ctx.slot(key).hist_quantile(q)),
            Op::Delta(k) => {
                let current = ctx.slot(k).load().unwrap_or(0.0);
                let last = ctx.deltas.insert(k, current).unwrap_or(current);
                self.stack.push(current - last);
            }
            Op::Abs => {
                let x = self.pop();
                self.stack.push(x.abs());
            }
            Op::Neg => {
                let x = self.pop();
                self.stack.push(-x);
            }
            Op::Not => {
                let x = self.pop();
                self.stack.push(if x == 0.0 { 1.0 } else { 0.0 });
            }
            Op::Add => self.binary(|a, b| a + b),
            Op::Sub => self.binary(|a, b| a - b),
            Op::Mul => self.binary(|a, b| a * b),
            Op::Div => self.binary(|a, b| if b == 0.0 { 0.0 } else { a / b }),
            Op::Mod => self.binary(|a, b| if b == 0.0 { 0.0 } else { a % b }),
            Op::Clamp => {
                let hi = self.pop();
                let lo = self.pop();
                let x = self.pop();
                self.stack.push(x.clamp(lo, hi.max(lo)));
            }
            Op::Lt => self.compare(|a, b| a < b),
            Op::Le => self.compare(|a, b| a <= b),
            Op::Gt => self.compare(|a, b| a > b),
            Op::Ge => self.compare(|a, b| a >= b),
            Op::Eq => self.compare(|a, b| a == b),
            Op::Ne => self.compare(|a, b| a != b),
            Op::JumpIfFalsePeek(t) => {
                if self.peek() == 0.0 {
                    *next = usize::from(t);
                }
            }
            Op::JumpIfTruePeek(t) => {
                if self.peek() != 0.0 {
                    *next = usize::from(t);
                }
            }
            Op::Pop => {
                self.pop();
            }
        }
    }

    fn pop(&mut self) -> f64 {
        self.stack.pop().expect("verified program cannot underflow")
    }

    fn peek(&self) -> f64 {
        *self
            .stack
            .last()
            .expect("verified program cannot peek empty stack")
    }

    fn binary(&mut self, f: impl Fn(f64, f64) -> f64) {
        let b = self.pop();
        let a = self.pop();
        self.stack.push(f(a, b));
    }

    fn compare(&mut self, f: impl Fn(f64, f64) -> bool) {
        let b = self.pop();
        let a = self.pop();
        // NaN operands make every comparison false, keeping rules total.
        let result = if a.is_nan() || b.is_nan() {
            false
        } else {
            f(a, b)
        };
        self.stack.push(if result { 1.0 } else { 0.0 });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::lower::lower_expr;
    use crate::compile::opt::fold_expr;
    use crate::spec::ast::{AggKind, BinOp, Expr, UnOp};
    use crate::store::FeatureStore;

    fn eval_with(store: &FeatureStore, now: Nanos, args: &[f64], e: &Expr) -> EvalResult {
        let program = lower_expr(&fold_expr(e)).unwrap();
        let slots = store.bind(&program.keys);
        let mut deltas = DeltaState::default();
        Vm::new().run(
            &program,
            &mut EvalCtx {
                slots: &slots,
                now,
                args,
                deltas: &mut deltas,
            },
        )
    }

    fn eval(e: &Expr) -> f64 {
        eval_with(&FeatureStore::new(), Nanos::ZERO, &[], e).value
    }

    fn num(n: f64) -> Expr {
        Expr::Number(n)
    }

    #[test]
    fn arithmetic_is_total() {
        assert_eq!(
            eval(&Expr::bin(BinOp::Div, Expr::Load("x".into()), num(0.0))),
            0.0
        );
        assert_eq!(
            eval(&Expr::bin(BinOp::Mod, Expr::Load("x".into()), num(0.0))),
            0.0
        );
    }

    #[test]
    fn missing_keys_read_zero() {
        let e = Expr::bin(BinOp::Eq, Expr::Load("never_written".into()), num(0.0));
        assert_eq!(eval(&e), 1.0);
    }

    #[test]
    fn short_circuit_skips_rhs() {
        // false && (1/0 == 7) must be false without evaluating nonsense.
        let rhs = Expr::bin(
            BinOp::Eq,
            Expr::bin(BinOp::Div, num(1.0), num(0.0)),
            num(7.0),
        );
        let lhs = Expr::bin(BinOp::Lt, Expr::Load("a".into()), num(-1.0));
        let result = eval(&Expr::bin(BinOp::And, lhs, rhs));
        assert_eq!(result, 0.0);
        // true || x short-circuits to true.
        let lhs = Expr::bin(BinOp::Ge, Expr::Load("a".into()), num(0.0));
        let result = eval(&Expr::bin(BinOp::Or, lhs, Expr::Bool(false)));
        assert_eq!(result, 1.0);
    }

    #[test]
    fn aggregates_read_the_store() {
        let store = FeatureStore::new();
        for (t, v) in [(1u64, 10.0), (2, 20.0), (3, 30.0)] {
            store.record("lat", Nanos::from_secs(t), v);
        }
        let e = Expr::Aggregate {
            kind: AggKind::Avg,
            key: "lat".into(),
            window: Box::new(num(10e9)),
        };
        let r = eval_with(&store, Nanos::from_secs(3), &[], &e);
        assert_eq!(r.value, 20.0);
        assert!(r.fuel >= 16, "aggregate fuel charged");
        let e = Expr::Quantile {
            key: "lat".into(),
            q: Box::new(num(1.0)),
            window: Box::new(num(10e9)),
        };
        assert_eq!(eval_with(&store, Nanos::from_secs(3), &[], &e).value, 30.0);
    }

    #[test]
    fn args_read_with_default_zero() {
        let store = FeatureStore::new();
        let e = Expr::bin(BinOp::Add, Expr::Arg(0), Expr::Arg(5));
        let r = eval_with(&store, Nanos::ZERO, &[3.0, 4.0], &e);
        assert_eq!(r.value, 3.0, "missing arg 5 reads 0");
    }

    #[test]
    fn delta_tracks_change_between_evaluations() {
        let store = FeatureStore::new();
        store.save("errors", 10.0);
        let program = lower_expr(&Expr::Delta("errors".into())).unwrap();
        let slots = store.bind(&program.keys);
        let mut deltas = DeltaState::default();
        let mut vm = Vm::new();
        let mut run = |deltas: &mut DeltaState| {
            vm.run(
                &program,
                &mut EvalCtx {
                    slots: &slots,
                    now: Nanos::ZERO,
                    args: &[],
                    deltas,
                },
            )
            .value
        };
        // First evaluation: no prior value, delta is 0.
        assert_eq!(run(&mut deltas), 0.0);
        store.save("errors", 25.0);
        assert_eq!(run(&mut deltas), 15.0);
        store.save("errors", 25.0);
        assert_eq!(run(&mut deltas), 0.0);
    }

    #[test]
    fn unary_and_clamp() {
        assert_eq!(
            eval(&Expr::Abs(Box::new(Expr::bin(
                BinOp::Sub,
                Expr::Load("z".into()),
                num(3.0)
            )))),
            3.0
        );
        assert_eq!(
            eval(&Expr::Unary(UnOp::Neg, Box::new(Expr::Load("z".into())))),
            -0.0
        );
        let e = Expr::Clamp(
            Box::new(Expr::Load("z".into())),
            Box::new(num(2.0)),
            Box::new(num(5.0)),
        );
        assert_eq!(eval(&e), 2.0);
        let e = Expr::Unary(
            UnOp::Not,
            Box::new(Expr::bin(BinOp::Lt, Expr::Load("z".into()), num(1.0))),
        );
        assert_eq!(eval(&e), 0.0);
    }

    #[test]
    fn hist_quantile_reads() {
        let store = FeatureStore::new();
        for v in [100.0, 200.0, 300.0, 10_000.0] {
            store.hist_observe("fault_lat", v);
        }
        let e = Expr::Hist {
            key: "fault_lat".into(),
            q: Box::new(num(1.0)),
        };
        let r = eval_with(&store, Nanos::ZERO, &[], &e);
        assert_eq!(r.value, 10_000.0);
        // Missing histogram reads 0 (total semantics).
        let e = Expr::Hist {
            key: "missing".into(),
            q: Box::new(num(0.5)),
        };
        assert_eq!(eval_with(&store, Nanos::ZERO, &[], &e).value, 0.0);
    }

    #[test]
    fn ewma_reads() {
        let store = FeatureStore::new();
        store.ewma_update("rate", 10.0, 0.5);
        store.ewma_update("rate", 20.0, 0.5);
        assert_eq!(
            eval_with(&store, Nanos::ZERO, &[], &Expr::Ewma("rate".into())).value,
            15.0
        );
    }

    #[test]
    fn fuel_matches_static_worst_case_for_straightline_code() {
        let e = Expr::bin(BinOp::Le, Expr::Load("x".into()), num(0.05));
        let program = lower_expr(&e).unwrap();
        let store = FeatureStore::new();
        let slots = store.bind(&program.keys);
        let mut deltas = DeltaState::default();
        let r = Vm::new().run(
            &program,
            &mut EvalCtx {
                slots: &slots,
                now: Nanos::ZERO,
                args: &[],
                deltas: &mut deltas,
            },
        );
        assert_eq!(r.fuel, program.worst_case_fuel());
    }

    #[test]
    fn try_run_enforces_the_fuel_limit() {
        let e = Expr::bin(BinOp::Le, Expr::Load("x".into()), num(0.05));
        let program = lower_expr(&e).unwrap();
        let store = FeatureStore::new();
        let slots = store.bind(&program.keys);
        let mut deltas = DeltaState::default();
        let mut vm = Vm::new();
        let mut ctx = EvalCtx {
            slots: &slots,
            now: Nanos::ZERO,
            args: &[],
            deltas: &mut deltas,
        };
        // A generous limit behaves exactly like `run`.
        let ok = vm.try_run(&program, &mut ctx, Some(1_000)).unwrap();
        assert_eq!(ok.fuel, program.worst_case_fuel());
        // A starved limit faults mid-program.
        let fault = vm.try_run(&program, &mut ctx, Some(1)).unwrap_err();
        let VmFault::FuelExhausted { used, limit } = fault;
        assert_eq!(limit, 1);
        assert!(used > limit);
        assert!(fault.to_string().contains("fuel exhausted"));
        // No limit never faults.
        assert!(vm.try_run(&program, &mut ctx, None).is_ok());
    }

    #[test]
    fn fused_stream_matches_base_stream_bit_for_bit() {
        use crate::compile::opt::fuse_program;
        let store = FeatureStore::new();
        store.save("x", 0.2);
        store.save("b", -3.5);
        let cases = [
            Expr::bin(BinOp::Le, Expr::Load("x".into()), num(0.05)),
            Expr::bin(BinOp::Gt, Expr::Arg(0), num(1.0)),
            Expr::bin(
                BinOp::Lt,
                Expr::bin(BinOp::Div, Expr::Load("x".into()), num(4.0)),
                num(0.1),
            ),
            Expr::bin(
                BinOp::And,
                Expr::bin(BinOp::Lt, Expr::Load("x".into()), num(1.0)),
                Expr::bin(BinOp::Lt, Expr::Load("b".into()), num(2.0)),
            ),
            Expr::bin(
                BinOp::Or,
                Expr::bin(BinOp::Ge, Expr::Load("x".into()), num(1.0)),
                Expr::bin(BinOp::Ne, Expr::Arg(1), num(0.0)),
            ),
        ];
        for e in &cases {
            let base = lower_expr(e).unwrap();
            let mut fused = base.clone();
            fused.fused = fuse_program(&base);
            let slots = store.bind(&base.keys);
            assert!(
                !fused.fused.is_empty(),
                "every case exercises the fused loop"
            );
            for args in [&[][..], &[2.0, 5.0][..]] {
                let mut d1 = DeltaState::default();
                let mut d2 = DeltaState::default();
                let r_base = Vm::new().run(
                    &base,
                    &mut EvalCtx {
                        slots: &slots,
                        now: Nanos::ZERO,
                        args,
                        deltas: &mut d1,
                    },
                );
                let r_fused = Vm::new().run(
                    &fused,
                    &mut EvalCtx {
                        slots: &slots,
                        now: Nanos::ZERO,
                        args,
                        deltas: &mut d2,
                    },
                );
                assert_eq!(r_base, r_fused, "for {e:?} with args {args:?}");
            }
        }
    }

    #[test]
    fn fused_stream_faults_exactly_when_base_stream_faults() {
        use crate::compile::opt::fuse_program;
        let e = Expr::bin(
            BinOp::And,
            Expr::bin(BinOp::Lt, Expr::Load("a".into()), num(1.0)),
            Expr::bin(BinOp::Lt, Expr::Load("b".into()), num(2.0)),
        );
        let base = lower_expr(&e).unwrap();
        let mut fused = base.clone();
        fused.fused = fuse_program(&base);
        let store = FeatureStore::new();
        let slots = store.bind(&base.keys);
        for limit in 0..=base.worst_case_fuel() + 1 {
            let mut d1 = DeltaState::default();
            let mut d2 = DeltaState::default();
            let mut ctx1 = EvalCtx {
                slots: &slots,
                now: Nanos::ZERO,
                args: &[],
                deltas: &mut d1,
            };
            let mut ctx2 = EvalCtx {
                slots: &slots,
                now: Nanos::ZERO,
                args: &[],
                deltas: &mut d2,
            };
            let r_base = Vm::new().try_run(&base, &mut ctx1, Some(limit));
            let r_fused = Vm::new().try_run(&fused, &mut ctx2, Some(limit));
            assert_eq!(
                r_base.is_err(),
                r_fused.is_err(),
                "fault parity at limit {limit}"
            );
            if let (Ok(a), Ok(b)) = (r_base, r_fused) {
                assert_eq!(a, b, "result parity at limit {limit}");
            }
        }
    }

    #[test]
    fn short_circuit_uses_less_fuel_than_worst_case() {
        let lhs = Expr::bin(BinOp::Lt, Expr::Load("a".into()), num(-1.0)); // False.
        let rhs = Expr::bin(BinOp::Lt, Expr::Load("b".into()), num(1.0));
        let program = lower_expr(&Expr::bin(BinOp::And, lhs, rhs)).unwrap();
        let store = FeatureStore::new();
        let slots = store.bind(&program.keys);
        let mut deltas = DeltaState::default();
        let r = Vm::new().run(
            &program,
            &mut EvalCtx {
                slots: &slots,
                now: Nanos::ZERO,
                args: &[],
                deltas: &mut deltas,
            },
        );
        assert!(r.fuel < program.worst_case_fuel());
        assert!(!r.as_bool());
    }
}
