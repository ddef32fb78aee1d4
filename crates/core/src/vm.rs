//! The monitor virtual machine.
//!
//! Executes verified [`Program`]s against the feature store, through the
//! store slots the program's key table was bound to. Arithmetic is
//! total (division/modulo by zero yield 0, NaN comparisons are false), and
//! the interpreter charges fuel per instruction so the engine can account
//! monitoring overhead (property P5). A verified program cannot fail:
//! [`Vm::run`] on one always returns a value.

use simkernel::Nanos;

use crate::compile::ir::{clamp, Op, Program};
use crate::compile::verify::Verified;
use crate::store::Slot;

/// Per-program persistent state for `DELTA(key)`: the last value read for
/// each entry of the program's key table, `None` until the first read. A
/// NaN last value still counts as read.
#[derive(Clone, Debug)]
pub struct DeltaState(Box<[Option<f64>]>);

impl DeltaState {
    /// Fresh state for `program`, sized to its key table.
    pub fn for_program(program: &Program) -> Self {
        Self::with_len(program.keys.len())
    }

    /// Fresh state for a key table of `len` entries.
    pub(crate) fn with_len(len: usize) -> Self {
        DeltaState(vec![None; len].into_boxed_slice())
    }

    /// The size of the key table this state covers.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// The keys read so far, as `(key index, last value)` in key order.
    pub(crate) fn seen(&self) -> impl Iterator<Item = (u16, f64)> + '_ {
        self.0
            .iter()
            .enumerate()
            .filter_map(|(k, v)| v.map(|v| (k as u16, v)))
    }

    /// Sets the last value of key index `k`; `false` when `k` is outside
    /// the key table.
    pub(crate) fn set(&mut self, k: u16, value: f64) -> bool {
        match self.0.get_mut(usize::from(k)) {
            Some(entry) => {
                *entry = Some(value);
                true
            }
            None => false,
        }
    }
}

/// Two states are equal when they cover the same key table and have read
/// the same values, bit for bit (so a NaN last value equals itself).
impl PartialEq for DeltaState {
    fn eq(&self, other: &Self) -> bool {
        let bits = |v: &Option<f64>| v.map(f64::to_bits);
        self.0.iter().map(bits).eq(other.0.iter().map(bits))
    }
}

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

    /// Trigger argument `i`, or 0 when the trigger passed fewer.
    #[inline]
    fn arg(&self, i: u8) -> f64 {
        self.args.get(usize::from(i)).copied().unwrap_or(0.0)
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
    #[inline]
    pub fn as_bool(self) -> bool {
        self.value != 0.0
    }
}

/// A fault aborting a [`Vm::try_run`] evaluation.
///
/// Verified programs cannot underflow, overflow the fixed stack or jump out
/// of bounds, but a caller
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

/// The VM's stack size: the most values a verified program holds at once
/// (the verifier rejects a deeper program, whatever its limits say).
pub const STACK_SLOTS: usize = 64;

/// A reusable stack VM.
///
/// # Examples
///
/// ```
/// use guardrails::compile::compile_str;
/// use guardrails::vm::{DeltaState, EvalCtx, Vm};
/// use guardrails::FeatureStore;
/// use simkernel::Nanos;
///
/// let compiled = compile_str(
///     "guardrail g { trigger: { TIMER(0,1s) }, rule: { LOAD(x) <= 0.05 }, action: { REPORT(m) } }",
/// )?;
/// let store = FeatureStore::new();
/// store.save("x", 0.2);
/// let program = &compiled[0].rules[0].program;
/// let slots = store.bind(&program.keys);
/// let mut vm = Vm::new();
/// let mut deltas = DeltaState::for_program(program);
/// let result = vm.run(
///     program,
///     &mut EvalCtx { slots: &slots, now: Nanos::ZERO, args: &[], deltas: &mut deltas },
/// );
/// assert!(!result.as_bool()); // 0.2 > 0.05: the rule does not hold.
/// # Ok::<(), guardrails::GuardrailError>(())
/// ```
#[derive(Debug)]
pub struct Vm {
    /// Boxed, so an engine that holds a VM stays small: with the 512 bytes
    /// inline, the recovery runtime's per-I/O loop (which seldom
    /// evaluates) ran about 2 % slower (ten benchmark pairs on a 2-vCPU
    /// x86 host).
    stack: Box<[f64; STACK_SLOTS]>,
}

impl Default for Vm {
    fn default() -> Self {
        Self::new()
    }
}

/// The stack of one evaluation: the VM's slots and a stack pointer. With
/// `DEPTH` it also tracks the deepest depth reached (compiled out
/// otherwise). Indexing stays bounds-checked: a program the verifier did
/// not prove could only panic here, never read or write past the slots.
struct Stack<'a, const DEPTH: bool> {
    slots: &'a mut [f64; STACK_SLOTS],
    sp: usize,
    deepest: usize,
}

impl<const DEPTH: bool> Stack<'_, DEPTH> {
    #[inline(always)]
    fn push(&mut self, v: f64) {
        self.slots[self.sp] = v;
        self.sp += 1;
        if DEPTH {
            self.deepest = self.deepest.max(self.sp);
        }
    }

    #[inline(always)]
    fn push_bool(&mut self, b: bool) {
        self.push(if b { 1.0 } else { 0.0 });
    }

    #[inline(always)]
    fn pop(&mut self) -> f64 {
        self.sp -= 1;
        self.slots[self.sp]
    }

    #[inline(always)]
    fn peek(&self) -> f64 {
        self.slots[self.sp - 1]
    }

    /// The value a finished program left, 0 for none.
    #[inline(always)]
    fn result(&self) -> f64 {
        match self.sp {
            0 => 0.0,
            sp => self.slots[sp - 1],
        }
    }
}

impl Vm {
    /// Creates a VM with an empty stack.
    pub fn new() -> Self {
        Vm {
            stack: Box::new([0.0; STACK_SLOTS]),
        }
    }

    /// Executes a verified program to completion.
    ///
    /// # Panics
    ///
    /// Panics when `ctx.slots` was not bound from this program's key table.
    pub fn run(&mut self, program: &Verified, ctx: &mut EvalCtx<'_>) -> EvalResult {
        match self.exec::<false>(program, ctx, u64::MAX) {
            Ok((result, _)) => result,
            Err(fault) => unreachable!("{fault} without a fuel limit"),
        }
    }

    /// Executes a verified program under a dynamic fuel budget.
    ///
    /// Returns [`VmFault::FuelExhausted`] when cumulative fuel exceeds
    /// `fuel_limit` before the program finishes; the engine's watchdog uses
    /// this to detect rules that can no longer complete within budget
    /// instead of letting them run unbounded.
    ///
    /// Inlinable, so the engine's batch loop runs a rule without a call.
    #[inline]
    pub fn try_run(
        &mut self,
        program: &Verified,
        ctx: &mut EvalCtx<'_>,
        fuel_limit: Option<u64>,
    ) -> Result<EvalResult, VmFault> {
        let limit = fuel_limit.unwrap_or(u64::MAX);
        self.exec::<false>(program, ctx, limit)
            .map(|(result, _)| result)
    }

    /// [`Vm::try_run`], also returning the deepest stack depth the
    /// evaluation reached: what the verifier's
    /// [`max_stack_depth`](crate::compile::verify::VerifyReport::max_stack_depth)
    /// bounds.
    pub fn try_run_with_depth(
        &mut self,
        program: &Verified,
        ctx: &mut EvalCtx<'_>,
        fuel_limit: Option<u64>,
    ) -> Result<(EvalResult, usize), VmFault> {
        self.exec::<true>(program, ctx, fuel_limit.unwrap_or(u64::MAX))
    }

    /// One loop, one flat `match` over the verified stream, on the fixed
    /// stack; fuel is one compare per instruction. Superinstructions keep
    /// their operands in the instruction and their intermediates in
    /// locals, so the dominant `LOAD(k) <= c` rule is one dispatch and one
    /// stack push; each is charged its full cost before it runs.
    #[inline(always)]
    fn exec<const DEPTH: bool>(
        &mut self,
        program: &Verified,
        ctx: &mut EvalCtx<'_>,
        limit: u64,
    ) -> Result<(EvalResult, usize), VmFault> {
        let mut stack = Stack::<DEPTH> {
            slots: &mut self.stack,
            sp: 0,
            deepest: 0,
        };
        let mut fuel = 0u64;
        let mut pc = 0usize;
        let ops = &program.ops;
        while pc < ops.len() {
            let op = ops[pc];
            fuel += op.cost();
            if fuel > limit {
                return Err(VmFault::FuelExhausted { used: fuel, limit });
            }
            pc += 1;
            match op {
                Op::Push(v) => stack.push(v),
                Op::Load(k) => stack.push(ctx.slot(k).load().unwrap_or(0.0)),
                Op::Arg(i) => stack.push(ctx.arg(i)),
                Op::Agg {
                    kind,
                    key,
                    window_ns,
                } => stack.push(ctx.slot(key).aggregate(
                    kind,
                    Nanos::from_nanos(window_ns),
                    ctx.now,
                )),
                Op::Quantile { key, q, window_ns } => stack.push(ctx.slot(key).quantile(
                    q,
                    Nanos::from_nanos(window_ns),
                    ctx.now,
                )),
                Op::Ewma(k) => stack.push(ctx.slot(k).ewma()),
                Op::Hist { key, q } => stack.push(ctx.slot(key).hist_quantile(q)),
                Op::Delta(k) => {
                    let current = ctx.slot(k).load().unwrap_or(0.0);
                    let last = ctx.deltas.0[usize::from(k)]
                        .replace(current)
                        .unwrap_or(current);
                    stack.push(current - last);
                }
                Op::Abs => {
                    let x = stack.pop();
                    stack.push(x.abs());
                }
                Op::Neg => {
                    let x = stack.pop();
                    stack.push(-x);
                }
                Op::Not => {
                    let x = stack.pop();
                    stack.push_bool(x == 0.0);
                }
                Op::Arith(arith) => {
                    let b = stack.pop();
                    let a = stack.pop();
                    stack.push(arith.eval(a, b));
                }
                Op::Clamp => {
                    let hi = stack.pop();
                    let lo = stack.pop();
                    let x = stack.pop();
                    stack.push(clamp(x, lo, hi));
                }
                Op::Cmp(cmp) => {
                    let b = stack.pop();
                    let a = stack.pop();
                    stack.push_bool(cmp.eval(a, b));
                }
                Op::LoadCmp { key, cmp, constant } => {
                    let v = ctx.slot(key).load().unwrap_or(0.0);
                    stack.push_bool(cmp.eval(v, constant));
                }
                Op::ArgCmp { arg, cmp, constant } => {
                    stack.push_bool(cmp.eval(ctx.arg(arg), constant));
                }
                Op::LoadArith {
                    key,
                    arith,
                    constant,
                } => {
                    let v = ctx.slot(key).load().unwrap_or(0.0);
                    stack.push(arith.eval(v, constant));
                }
                Op::JumpIfFalsePeek(t) => {
                    if stack.peek() == 0.0 {
                        pc = usize::from(t);
                    }
                }
                Op::JumpIfTruePeek(t) => {
                    if stack.peek() != 0.0 {
                        pc = usize::from(t);
                    }
                }
                Op::Pop => {
                    stack.pop();
                }
            }
        }
        let value = stack.result();
        Ok((EvalResult { value, fuel }, stack.deepest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::lower::lower_expr;
    use crate::compile::opt::fold_expr;
    use crate::compile::verify::{verify, ExpectedType, VerifyLimits};
    use crate::spec::ast::{AggKind, BinOp, Expr, UnOp};
    use crate::store::FeatureStore;

    /// `e` lowered (unfolded) and verified.
    fn verified(e: &Expr) -> Verified {
        let lowered = lower_expr(e).map_err(|e| e.to_string());
        let program = lowered.and_then(|p| {
            verify(p, ExpectedType::Either, &VerifyLimits::default()).map_err(|e| e.to_string())
        });
        match program {
            Ok(program) => program,
            Err(e) => panic!("{e}"),
        }
    }

    fn eval_with(store: &FeatureStore, now: Nanos, args: &[f64], e: &Expr) -> EvalResult {
        let program = verified(&fold_expr(e));
        let slots = store.bind(&program.keys);
        let mut deltas = DeltaState::for_program(&program);
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
        let program = verified(&Expr::Delta("errors".into()));
        let slots = store.bind(&program.keys);
        let mut deltas = DeltaState::for_program(&program);
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
        let program = verified(&e);
        let store = FeatureStore::new();
        let slots = store.bind(&program.keys);
        let mut deltas = DeltaState::for_program(&program);
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
        let program = verified(&e);
        let store = FeatureStore::new();
        let slots = store.bind(&program.keys);
        let mut deltas = DeltaState::for_program(&program);
        let mut vm = Vm::new();
        let mut ctx = EvalCtx {
            slots: &slots,
            now: Nanos::ZERO,
            args: &[],
            deltas: &mut deltas,
        };
        // A generous limit behaves exactly like `run`.
        let ok = vm.try_run(&program, &mut ctx, Some(1_000));
        assert_eq!(ok.map(|r| r.fuel), Ok(program.worst_case_fuel()));
        // A starved limit faults mid-program.
        let Err(fault) = vm.try_run(&program, &mut ctx, Some(1)) else {
            panic!("a starved limit must fault");
        };
        let VmFault::FuelExhausted { used, limit } = fault;
        assert_eq!(limit, 1);
        assert!(used > limit);
        assert!(fault.to_string().contains("fuel exhausted"));
        // No limit never faults.
        assert!(vm.try_run(&program, &mut ctx, None).is_ok());
    }

    #[test]
    fn short_circuit_uses_less_fuel_than_worst_case() {
        let lhs = Expr::bin(BinOp::Lt, Expr::Load("a".into()), num(-1.0)); // False.
        let rhs = Expr::bin(BinOp::Lt, Expr::Load("b".into()), num(1.0));
        let program = verified(&Expr::bin(BinOp::And, lhs, rhs));
        let store = FeatureStore::new();
        let slots = store.bind(&program.keys);
        let mut deltas = DeltaState::for_program(&program);
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
