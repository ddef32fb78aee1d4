//! The monitor verifier.
//!
//! The paper's monitors run *inside the kernel*, so — exactly as eBPF does —
//! every program is statically verified before installation. The verifier
//! proves, by abstract interpretation over the (forward-jump-only) bytecode:
//!
//! - the program terminates within a bounded instruction/fuel budget,
//! - the stack never underflows and its depth stays within a fixed bound,
//! - every jump is forward and in bounds (no loops, by construction),
//! - key and argument references are in bounds,
//! - operand types are consistent (no arithmetic on booleans), and
//! - the program leaves exactly one value of the expected type.
//!
//! The verifier checks the one instruction stream the VM executes,
//! superinstructions included, so its bounds describe what runs.
//!
//! A verified program cannot fail at runtime: the VM's arithmetic is total
//! (division by zero yields 0) and every other error class is excluded here.
//! This is the "reason about their correctness and crash-free semantics"
//! property of §4.2. The verifier is the isolation: the VM runs only
//! [`Verified`] programs, which only [`verify`] and [`verify_named`] build,
//! and no runtime guard stands between a rule and the engine.

use std::ops::Deref;

use crate::compile::ir::{Op, Program};
use crate::error::{GuardrailError, Result};
use crate::vm::STACK_SLOTS;

/// Maximum numeric arguments a tracepoint passes to its monitors: `ARG(i)`
/// verifies only for `i` below this.
pub const MAX_TRACE_ARGS: usize = 8;

/// Resource limits the verifier enforces.
#[derive(Clone, Copy, Debug)]
pub struct VerifyLimits {
    /// Maximum number of instructions per program.
    pub max_instrs: usize,
    /// Maximum stack depth. The VM's fixed stack caps it: a program
    /// deeper than [`STACK_SLOTS`] is rejected whatever this says.
    pub max_stack: usize,
    /// Maximum worst-case fuel (static cost sum).
    pub max_fuel: u64,
}

impl Default for VerifyLimits {
    fn default() -> Self {
        VerifyLimits {
            max_instrs: 4096,
            max_stack: STACK_SLOTS,
            max_fuel: 65_536,
        }
    }
}

/// The value type the verifier expects a program to produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExpectedType {
    /// A boolean (rule programs).
    Bool,
    /// A number (action operand programs).
    Num,
    /// Either (e.g. `SAVE` values, where booleans store as 0/1).
    Either,
}

/// Abstract value types tracked on the verifier's stack.
///
/// `Any` covers immediates (`Push`), which are used for both numbers and the
/// 0/1 boolean encoding; it unifies with either concrete type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ty {
    Num,
    Bool,
    Any,
}

impl Ty {
    fn accepts_num(self) -> bool {
        matches!(self, Ty::Num | Ty::Any)
    }

    fn accepts_bool(self) -> bool {
        matches!(self, Ty::Bool | Ty::Any)
    }

    fn merge(self, other: Ty) -> Option<Ty> {
        match (self, other) {
            (a, b) if a == b => Some(a),
            (Ty::Any, x) | (x, Ty::Any) => Some(x),
            _ => None,
        }
    }
}

/// What the verifier proved about a program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerifyReport {
    /// Instruction count.
    pub instrs: usize,
    /// Maximum stack depth reached on any path.
    pub max_stack_depth: usize,
    /// Static worst-case fuel.
    pub worst_case_fuel: u64,
}

/// A program the verifier accepted, with what it proved about it.
///
/// Only [`verify`] and [`verify_named`] build one, and
/// [`crate::vm::Vm::try_run`] takes nothing else, so no unverified program
/// reaches the VM. It dereferences to its [`Program`].
#[derive(Clone, Debug)]
pub struct Verified {
    program: Program,
    report: VerifyReport,
}

impl Verified {
    /// The verified program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// What the verifier proved.
    pub fn report(&self) -> VerifyReport {
        self.report
    }
}

impl Deref for Verified {
    type Target = Program;

    fn deref(&self) -> &Program {
        &self.program
    }
}

/// The program's listing.
impl std::fmt::Display for Verified {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.program.fmt(f)
    }
}

/// Verifies `program`, returning it with its static resource bounds.
pub fn verify(program: Program, expect: ExpectedType, limits: &VerifyLimits) -> Result<Verified> {
    let report = check(&program, expect, limits, "<anonymous>")?;
    Ok(Verified { program, report })
}

/// Verifies `program` under the default [`VerifyLimits`], the ones every
/// compiled guardrail gets, attributing failures to `guardrail` in errors.
pub fn verify_named(program: Program, expect: ExpectedType, guardrail: &str) -> Result<Verified> {
    let report = check(&program, expect, &VerifyLimits::default(), guardrail)?;
    Ok(Verified { program, report })
}

/// The proof itself: what `program` needs at most, or why it is rejected.
fn check(
    program: &Program,
    expect: ExpectedType,
    limits: &VerifyLimits,
    guardrail: &str,
) -> Result<VerifyReport> {
    let err = |msg: String| GuardrailError::verify(guardrail, msg);
    let max_stack = limits.max_stack.min(STACK_SLOTS);
    let n = program.ops.len();
    if n == 0 {
        return Err(err("empty program".into()));
    }
    if n > limits.max_instrs {
        return Err(err(format!(
            "program has {n} instructions, limit is {}",
            limits.max_instrs
        )));
    }
    let fuel = program.worst_case_fuel();
    if fuel > limits.max_fuel {
        return Err(err(format!(
            "worst-case fuel {fuel} exceeds limit {}",
            limits.max_fuel
        )));
    }

    // Abstract stack state per instruction index (`None` = not yet reached).
    // Index `n` is the exit state. Jumps are forward-only, so one linear
    // pass visits every instruction after all of its predecessors.
    let mut states: Vec<Option<Vec<Ty>>> = vec![None; n + 1];
    states[0] = Some(Vec::new());
    let mut max_depth = 0usize;

    for i in 0..n {
        let Some(stack) = states[i].clone() else {
            return Err(err(format!("instruction {i} is unreachable")));
        };
        let op = program.ops[i];
        let mut stack = stack;
        let pop = |stack: &mut Vec<Ty>| -> Result<Ty> {
            stack
                .pop()
                .ok_or_else(|| err(format!("stack underflow at instruction {i} ({op:?})")))
        };
        let mut jump_to: Option<usize> = None;
        match op {
            Op::Push(v) => {
                check_immediate(v, i, &err)?;
                stack.push(Ty::Any);
            }
            Op::Load(k) | Op::Ewma(k) | Op::Delta(k) => {
                check_key(program, k, i, &err)?;
                stack.push(Ty::Num);
            }
            Op::Arg(a) => {
                check_arg(a, i, &err)?;
                stack.push(Ty::Num);
            }
            Op::LoadCmp { key, constant, .. } => {
                check_key(program, key, i, &err)?;
                check_immediate(constant, i, &err)?;
                stack.push(Ty::Bool);
            }
            Op::ArgCmp { arg, constant, .. } => {
                check_arg(arg, i, &err)?;
                check_immediate(constant, i, &err)?;
                stack.push(Ty::Bool);
            }
            Op::LoadArith { key, constant, .. } => {
                check_key(program, key, i, &err)?;
                check_immediate(constant, i, &err)?;
                stack.push(Ty::Num);
            }
            Op::Agg { key, window_ns, .. } => {
                check_key(program, key, i, &err)?;
                if window_ns == 0 {
                    return Err(err(format!("zero aggregate window at instruction {i}")));
                }
                stack.push(Ty::Num);
            }
            Op::Hist { key, q } => {
                check_key(program, key, i, &err)?;
                if !(0.0..=1.0).contains(&q) {
                    return Err(err(format!(
                        "hist quantile {q} outside [0, 1] at instruction {i}"
                    )));
                }
                stack.push(Ty::Num);
            }
            Op::Quantile { key, q, window_ns } => {
                check_key(program, key, i, &err)?;
                if !(0.0..=1.0).contains(&q) {
                    return Err(err(format!(
                        "quantile {q} outside [0, 1] at instruction {i}"
                    )));
                }
                if window_ns == 0 {
                    return Err(err(format!("zero quantile window at instruction {i}")));
                }
                stack.push(Ty::Num);
            }
            Op::Abs | Op::Neg => {
                let t = pop(&mut stack)?;
                if !t.accepts_num() {
                    return Err(err(format!("numeric op on boolean at instruction {i}")));
                }
                stack.push(Ty::Num);
            }
            Op::Not => {
                let t = pop(&mut stack)?;
                if !t.accepts_bool() {
                    return Err(err(format!("'!' applied to a number at instruction {i}")));
                }
                stack.push(Ty::Bool);
            }
            Op::Arith(_) => {
                let b = pop(&mut stack)?;
                let a = pop(&mut stack)?;
                if !a.accepts_num() || !b.accepts_num() {
                    return Err(err(format!("arithmetic on boolean at instruction {i}")));
                }
                stack.push(Ty::Num);
            }
            Op::Clamp => {
                for _ in 0..3 {
                    let t = pop(&mut stack)?;
                    if !t.accepts_num() {
                        return Err(err(format!("CLAMP on boolean at instruction {i}")));
                    }
                }
                stack.push(Ty::Num);
            }
            Op::Cmp(_) => {
                let b = pop(&mut stack)?;
                let a = pop(&mut stack)?;
                if a.merge(b).is_none() {
                    return Err(err(format!(
                        "comparison of mismatched types at instruction {i}"
                    )));
                }
                stack.push(Ty::Bool);
            }
            Op::JumpIfFalsePeek(t) | Op::JumpIfTruePeek(t) => {
                let target = usize::from(t);
                if target <= i {
                    return Err(err(format!(
                        "backward jump at instruction {i} (target {target}); loops are forbidden"
                    )));
                }
                if target > n {
                    return Err(err(format!(
                        "jump target {target} out of bounds at instruction {i}"
                    )));
                }
                let top = *stack
                    .last()
                    .ok_or_else(|| err(format!("jump with empty stack at instruction {i}")))?;
                if !top.accepts_bool() {
                    return Err(err(format!(
                        "conditional jump on a number at instruction {i}"
                    )));
                }
                jump_to = Some(target);
            }
            Op::Pop => {
                pop(&mut stack)?;
            }
        }
        if stack.len() > max_stack {
            return Err(err(format!(
                "stack depth {} exceeds limit {max_stack} at instruction {i}",
                stack.len(),
            )));
        }
        max_depth = max_depth.max(stack.len());
        // Propagate to the jump target (state before the fall-through pop
        // path diverges) and to the fall-through successor.
        if let Some(target) = jump_to {
            merge_state(&mut states[target], &stack, target, &err)?;
        }
        merge_state(&mut states[i + 1], &stack, i + 1, &err)?;
    }

    let exit = states[n]
        .as_ref()
        .ok_or_else(|| err("program exit is unreachable".into()))?;
    if exit.len() != 1 {
        return Err(err(format!(
            "program must leave exactly one result on the stack, leaves {}",
            exit.len()
        )));
    }
    let ok = match expect {
        ExpectedType::Bool => exit[0].accepts_bool(),
        ExpectedType::Num => exit[0].accepts_num(),
        ExpectedType::Either => true,
    };
    if !ok {
        return Err(err(format!(
            "program result type {:?} does not match expected {expect:?}",
            exit[0]
        )));
    }
    Ok(VerifyReport {
        instrs: n,
        max_stack_depth: max_depth,
        worst_case_fuel: fuel,
    })
}

fn check_key(
    program: &Program,
    k: u16,
    i: usize,
    err: &impl Fn(String) -> GuardrailError,
) -> Result<()> {
    if usize::from(k) >= program.keys.len() {
        return Err(err(format!(
            "key index {k} out of bounds at instruction {i}"
        )));
    }
    Ok(())
}

fn check_arg(a: u8, i: usize, err: &impl Fn(String) -> GuardrailError) -> Result<()> {
    if usize::from(a) >= MAX_TRACE_ARGS {
        return Err(err(format!(
            "ARG({a}) exceeds the tracepoint argument budget at instruction {i}"
        )));
    }
    Ok(())
}

fn check_immediate(v: f64, i: usize, err: &impl Fn(String) -> GuardrailError) -> Result<()> {
    if !v.is_finite() {
        return Err(err(format!("non-finite immediate at instruction {i}")));
    }
    Ok(())
}

fn merge_state(
    slot: &mut Option<Vec<Ty>>,
    incoming: &[Ty],
    at: usize,
    err: &impl Fn(String) -> GuardrailError,
) -> Result<()> {
    match slot {
        None => {
            *slot = Some(incoming.to_vec());
            Ok(())
        }
        Some(existing) => {
            if existing.len() != incoming.len() {
                return Err(err(format!(
                    "inconsistent stack depth at join point {at} ({} vs {})",
                    existing.len(),
                    incoming.len()
                )));
            }
            for (e, &inc) in existing.iter_mut().zip(incoming) {
                *e = e
                    .merge(inc)
                    .ok_or_else(|| err(format!("inconsistent stack types at join point {at}")))?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::ir::{ArithKind, CmpKind};
    use crate::compile::lower::lower_expr;
    use crate::spec::ast::{BinOp, Expr};

    fn limits() -> VerifyLimits {
        VerifyLimits::default()
    }

    fn verify_rule(e: &Expr) -> Result<VerifyReport> {
        verify(lower_expr(e).unwrap(), ExpectedType::Bool, &limits()).map(|v| v.report())
    }

    #[test]
    fn listing2_rule_verifies() {
        let e = Expr::bin(
            BinOp::Le,
            Expr::Load("false_submit_rate".into()),
            Expr::Number(0.05),
        );
        let report = verify_rule(&e).unwrap();
        assert_eq!(report.instrs, 1);
        assert_eq!(report.max_stack_depth, 1);
        assert_eq!(report.worst_case_fuel, 6);
    }

    #[test]
    fn short_circuit_join_states_merge() {
        let e = Expr::bin(
            BinOp::And,
            Expr::bin(BinOp::Lt, Expr::Load("a".into()), Expr::Number(1.0)),
            Expr::bin(
                BinOp::Or,
                Expr::bin(BinOp::Lt, Expr::Load("b".into()), Expr::Number(2.0)),
                Expr::Bool(false),
            ),
        );
        assert!(verify_rule(&e).is_ok());
    }

    #[test]
    fn rejects_stack_underflow() {
        let p = Program {
            ops: vec![Op::Arith(ArithKind::Add)],
            keys: vec![],
        };
        let err = verify(p, ExpectedType::Num, &limits()).unwrap_err();
        assert!(format!("{err}").contains("underflow"), "{err}");
    }

    #[test]
    fn rejects_backward_jumps() {
        let p = Program {
            ops: vec![Op::Push(1.0), Op::JumpIfTruePeek(0)],
            keys: vec![],
        };
        let err = verify(p, ExpectedType::Bool, &limits()).unwrap_err();
        assert!(format!("{err}").contains("backward"), "{err}");
    }

    #[test]
    fn rejects_out_of_bounds_key() {
        let p = Program {
            ops: vec![Op::Load(3)],
            keys: vec!["only".into()],
        };
        assert!(verify(p, ExpectedType::Num, &limits()).is_err());
    }

    #[test]
    fn rejects_leftover_stack_values() {
        let p = Program {
            ops: vec![Op::Push(1.0), Op::Push(2.0)],
            keys: vec![],
        };
        let err = verify(p, ExpectedType::Num, &limits()).unwrap_err();
        assert!(format!("{err}").contains("exactly one"), "{err}");
    }

    #[test]
    fn rejects_type_confusion() {
        // Arithmetic on a comparison result.
        let p = Program {
            ops: vec![
                Op::Load(0),
                Op::Load(0),
                Op::Cmp(CmpKind::Lt),
                Op::Load(0),
                Op::Arith(ArithKind::Add),
            ],
            keys: vec!["k".into()],
        };
        let err = verify(p, ExpectedType::Num, &limits()).unwrap_err();
        assert!(format!("{err}").contains("arithmetic on boolean"), "{err}");
        // Not on a number.
        let p = Program {
            ops: vec![Op::Load(0), Op::Not],
            keys: vec!["k".into()],
        };
        assert!(verify(p, ExpectedType::Bool, &limits()).is_err());
    }

    #[test]
    fn rejects_wrong_result_type() {
        let num = Program {
            ops: vec![Op::Load(0)],
            keys: vec!["k".into()],
        };
        assert!(verify(num.clone(), ExpectedType::Bool, &limits()).is_err());
        assert!(verify(num.clone(), ExpectedType::Num, &limits()).is_ok());
        assert!(verify(num, ExpectedType::Either, &limits()).is_ok());
        let boolean = Program {
            ops: vec![Op::Load(0), Op::Push(1.0), Op::Cmp(CmpKind::Lt)],
            keys: vec!["k".into()],
        };
        assert!(verify(boolean.clone(), ExpectedType::Num, &limits()).is_err());
        assert!(verify(boolean, ExpectedType::Bool, &limits()).is_ok());
    }

    #[test]
    fn enforces_instruction_and_fuel_limits() {
        let mut ops = vec![Op::Push(0.0)];
        for _ in 0..100 {
            ops.push(Op::Push(1.0));
            ops.push(Op::Arith(ArithKind::Add));
        }
        let p = Program { ops, keys: vec![] };
        let tight = VerifyLimits {
            max_instrs: 10,
            ..VerifyLimits::default()
        };
        assert!(verify(p.clone(), ExpectedType::Num, &tight).is_err());
        let fuel_tight = VerifyLimits {
            max_fuel: 5,
            ..VerifyLimits::default()
        };
        assert!(verify(p.clone(), ExpectedType::Num, &fuel_tight).is_err());
        assert!(verify(p, ExpectedType::Num, &limits()).is_ok());
    }

    #[test]
    fn enforces_stack_limit() {
        let ops: Vec<Op> = (0..20).map(|_| Op::Push(1.0)).collect();
        let p = Program { ops, keys: vec![] };
        let tight = VerifyLimits {
            max_stack: 4,
            ..VerifyLimits::default()
        };
        let err = verify(p, ExpectedType::Num, &tight).unwrap_err();
        assert!(format!("{err}").contains("stack depth"), "{err}");
        // A looser limit cannot take a program past the VM's fixed stack.
        let mut ops: Vec<Op> = (0..=STACK_SLOTS).map(|_| Op::Push(1.0)).collect();
        ops.extend((0..STACK_SLOTS).map(|_| Op::Arith(ArithKind::Add)));
        let loose = VerifyLimits {
            max_stack: 4 * STACK_SLOTS,
            ..VerifyLimits::default()
        };
        let err = verify(Program { ops, keys: vec![] }, ExpectedType::Num, &loose).unwrap_err();
        assert!(format!("{err}").contains("stack depth"), "{err}");
    }

    #[test]
    fn rejects_bad_quantile_and_window() {
        let p = Program {
            ops: vec![Op::Quantile {
                key: 0,
                q: 1.5,
                window_ns: 1,
            }],
            keys: vec!["k".into()],
        };
        assert!(verify(p, ExpectedType::Num, &limits()).is_err());
        let p = Program {
            ops: vec![Op::Agg {
                kind: crate::spec::ast::AggKind::Avg,
                key: 0,
                window_ns: 0,
            }],
            keys: vec!["k".into()],
        };
        assert!(verify(p, ExpectedType::Num, &limits()).is_err());
    }

    #[test]
    fn rejects_empty_program_and_non_finite_immediates() {
        let p = Program::default();
        assert!(verify(p, ExpectedType::Num, &limits()).is_err());
        let p = Program {
            ops: vec![Op::Push(f64::NAN)],
            keys: vec![],
        };
        assert!(verify(p, ExpectedType::Num, &limits()).is_err());
    }

    #[test]
    fn superinstructions_keep_the_checks_of_their_parts() {
        let one = |op: Op| Program {
            ops: vec![op],
            keys: vec!["k".into()],
        };
        let load_cmp = |key, constant| Op::LoadCmp {
            key,
            cmp: CmpKind::Le,
            constant,
        };
        let arg_cmp = |arg, constant| Op::ArgCmp {
            arg,
            cmp: CmpKind::Gt,
            constant,
        };
        let load_arith = |key, constant| Op::LoadArith {
            key,
            arith: ArithKind::Div,
            constant,
        };
        // Well-formed: comparisons yield booleans, arithmetic a number.
        assert!(verify(one(load_cmp(0, 0.05)), ExpectedType::Bool, &limits()).is_ok());
        assert!(verify(one(arg_cmp(7, 1.0)), ExpectedType::Bool, &limits()).is_ok());
        assert!(verify(one(load_arith(0, 4.0)), ExpectedType::Num, &limits()).is_ok());
        assert!(verify(one(load_cmp(0, 0.05)), ExpectedType::Num, &limits()).is_err());
        assert!(verify(one(load_arith(0, 4.0)), ExpectedType::Bool, &limits()).is_err());
        // Key, argument and immediate checks.
        for (op, expect) in [
            (load_cmp(1, 0.05), ExpectedType::Bool),
            (load_arith(1, 4.0), ExpectedType::Num),
            (arg_cmp(MAX_TRACE_ARGS as u8, 1.0), ExpectedType::Bool),
            (load_cmp(0, f64::NAN), ExpectedType::Bool),
            (arg_cmp(0, f64::INFINITY), ExpectedType::Bool),
            (load_arith(0, f64::NEG_INFINITY), ExpectedType::Num),
        ] {
            assert!(verify(one(op), expect, &limits()).is_err(), "{op:?}");
        }
    }
}
