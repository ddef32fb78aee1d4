//! The bytecode intermediate representation monitors execute.
//!
//! Rules and action operands are lowered to a small stack machine. The design
//! mirrors the constraints of in-kernel execution environments like eBPF:
//! a fixed instruction set, interned key references (no string hashing on
//! the hot path), forward-only jumps, and a static cost model so the
//! verifier can bound worst-case execution time before installation.

use std::fmt;

use crate::spec::ast::AggKind;

/// One bytecode instruction.
///
/// Booleans are represented as `0.0` / `1.0` on the stack; the verifier
/// tracks boolean-ness statically so the encoding never leaks into rule
/// semantics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    /// Push an immediate.
    Push(f64),
    /// Push the scalar at the interned key (missing keys push 0).
    Load(u16),
    /// Push trigger argument `i` (0 when absent, e.g. under TIMER).
    Arg(u8),
    /// Push a windowed aggregate of the series at the interned key.
    Agg {
        /// Which statistic.
        kind: AggKind,
        /// Interned key index.
        key: u16,
        /// Window length in nanoseconds.
        window_ns: u64,
    },
    /// Push a windowed quantile of the series at the interned key.
    Quantile {
        /// Interned key index.
        key: u16,
        /// The quantile in `[0, 1]`.
        q: f64,
        /// Window length in nanoseconds.
        window_ns: u64,
    },
    /// Push the EWMA value at the interned key.
    Ewma(u16),
    /// Push a quantile of the histogram at the interned key.
    Hist {
        /// Interned key index.
        key: u16,
        /// The quantile in `[0, 1]`.
        q: f64,
    },
    /// Push the change in the scalar at the interned key since this
    /// program's previous evaluation (monitor-local state).
    Delta(u16),
    /// `x` → `|x|`.
    Abs,
    /// `x` → `-x`.
    Neg,
    /// Boolean negation (`0.0` ↔ `1.0`).
    Not,
    /// Pop `b`, pop `a`, push `a + b`.
    Add,
    /// Pop `b`, pop `a`, push `a - b`.
    Sub,
    /// Pop `b`, pop `a`, push `a * b`.
    Mul,
    /// Pop `b`, pop `a`, push `a / b` (0 when `b == 0`: total semantics).
    Div,
    /// Pop `b`, pop `a`, push `a % b` (0 when `b == 0`).
    Mod,
    /// Pop `hi`, `lo`, `x`; push `clamp(x, lo, max(lo, hi))`.
    Clamp,
    /// Pop `b`, pop `a`, push `a < b` (NaN compares false).
    Lt,
    /// Pop `b`, pop `a`, push `a <= b`.
    Le,
    /// Pop `b`, pop `a`, push `a > b`.
    Gt,
    /// Pop `b`, pop `a`, push `a >= b`.
    Ge,
    /// Pop `b`, pop `a`, push `a == b`.
    Eq,
    /// Pop `b`, pop `a`, push `a != b`.
    Ne,
    /// Jump to the absolute instruction index if the top of stack is falsy,
    /// *without popping* (short-circuit `&&`). Forward-only.
    JumpIfFalsePeek(u16),
    /// Jump to the absolute instruction index if the top of stack is truthy,
    /// *without popping* (short-circuit `||`). Forward-only.
    JumpIfTruePeek(u16),
    /// Discard the top of stack.
    Pop,
}

impl Op {
    /// The static cost of the instruction in the verifier's fuel model.
    ///
    /// Feature-store reads cost more than ALU operations (a read through the
    /// key's store slot; EWMA and histogram reads take the slot's lock);
    /// windowed aggregates cost the most (they scan samples).
    pub fn cost(self) -> u64 {
        match self {
            Op::Agg { .. } | Op::Quantile { .. } => 16,
            Op::Hist { .. } => 8,
            Op::Load(_) | Op::Ewma(_) | Op::Delta(_) => 4,
            _ => 1,
        }
    }

    /// How the instruction changes stack depth (pushes minus pops).
    pub fn stack_effect(self) -> i32 {
        match self {
            Op::Push(_)
            | Op::Load(_)
            | Op::Arg(_)
            | Op::Agg { .. }
            | Op::Quantile { .. }
            | Op::Ewma(_)
            | Op::Hist { .. }
            | Op::Delta(_) => 1,
            Op::Abs | Op::Neg | Op::Not => 0,
            Op::Add
            | Op::Sub
            | Op::Mul
            | Op::Div
            | Op::Mod
            | Op::Lt
            | Op::Le
            | Op::Gt
            | Op::Ge
            | Op::Eq
            | Op::Ne => -1,
            Op::Clamp => -2,
            Op::JumpIfFalsePeek(_) | Op::JumpIfTruePeek(_) => 0,
            Op::Pop => -1,
        }
    }
}

/// A comparison selector for fused superinstructions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpKind {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl CmpKind {
    /// The stack op this selector stands in for.
    pub fn op(self) -> Op {
        match self {
            CmpKind::Lt => Op::Lt,
            CmpKind::Le => Op::Le,
            CmpKind::Gt => Op::Gt,
            CmpKind::Ge => Op::Ge,
            CmpKind::Eq => Op::Eq,
            CmpKind::Ne => Op::Ne,
        }
    }

    /// Evaluates the comparison with the VM's NaN-is-false semantics.
    #[inline]
    pub fn eval(self, a: f64, b: f64) -> bool {
        if a.is_nan() || b.is_nan() {
            return false;
        }
        match self {
            CmpKind::Lt => a < b,
            CmpKind::Le => a <= b,
            CmpKind::Gt => a > b,
            CmpKind::Ge => a >= b,
            CmpKind::Eq => a == b,
            CmpKind::Ne => a != b,
        }
    }

    /// Maps a comparison stack op to its selector.
    pub fn from_op(op: Op) -> Option<Self> {
        Some(match op {
            Op::Lt => CmpKind::Lt,
            Op::Le => CmpKind::Le,
            Op::Gt => CmpKind::Gt,
            Op::Ge => CmpKind::Ge,
            Op::Eq => CmpKind::Eq,
            Op::Ne => CmpKind::Ne,
            _ => return None,
        })
    }
}

/// An arithmetic selector for fused superinstructions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArithKind {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (total: 0 when the divisor is 0)
    Div,
    /// `%` (total: 0 when the divisor is 0)
    Mod,
}

impl ArithKind {
    /// The stack op this selector stands in for.
    pub fn op(self) -> Op {
        match self {
            ArithKind::Add => Op::Add,
            ArithKind::Sub => Op::Sub,
            ArithKind::Mul => Op::Mul,
            ArithKind::Div => Op::Div,
            ArithKind::Mod => Op::Mod,
        }
    }

    /// Evaluates the operation with the VM's total-arithmetic semantics.
    #[inline]
    pub fn eval(self, a: f64, b: f64) -> f64 {
        match self {
            ArithKind::Add => a + b,
            ArithKind::Sub => a - b,
            ArithKind::Mul => a * b,
            ArithKind::Div => {
                if b == 0.0 {
                    0.0
                } else {
                    a / b
                }
            }
            ArithKind::Mod => {
                if b == 0.0 {
                    0.0
                } else {
                    a % b
                }
            }
        }
    }

    /// Maps an arithmetic stack op to its selector.
    pub fn from_op(op: Op) -> Option<Self> {
        Some(match op {
            Op::Add => ArithKind::Add,
            Op::Sub => ArithKind::Sub,
            Op::Mul => ArithKind::Mul,
            Op::Div => ArithKind::Div,
            Op::Mod => ArithKind::Mod,
            _ => return None,
        })
    }
}

/// One instruction of the fused fast stream (see [`crate::compile::opt::fuse_program`]).
///
/// The dominant rule shapes — `LOAD(key) <= const`, `ARG(i) > const`,
/// `LOAD(key) / const` — each cost three stack dispatches and four stack
/// moves in the base encoding. Superinstructions collapse them into one
/// dispatch whose operands live in the instruction itself (register style:
/// the intermediate values never touch the operand stack). Everything else
/// falls back to [`FusedOp::Plain`], executed by the ordinary stack
/// machinery, so the fast stream is always exactly equivalent to `ops`.
///
/// Each fused instruction charges the *sum* of its constituent ops' fuel,
/// so dynamic fuel accounting (and fuel-limit faulting) is unchanged.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FusedOp {
    /// `Load(key); Push(constant); <cmp>` in one dispatch.
    LoadCmpConst {
        /// Interned key index.
        key: u16,
        /// Which comparison.
        cmp: CmpKind,
        /// The immediate right-hand side.
        constant: f64,
    },
    /// `Arg(arg); Push(constant); <cmp>` in one dispatch.
    ArgCmpConst {
        /// Trigger-argument index.
        arg: u8,
        /// Which comparison.
        cmp: CmpKind,
        /// The immediate right-hand side.
        constant: f64,
    },
    /// `Load(key); Push(constant); <arith>` in one dispatch.
    LoadArithConst {
        /// Interned key index.
        key: u16,
        /// Which operation.
        arith: ArithKind,
        /// The immediate right-hand side.
        constant: f64,
    },
    /// Any other op, executed by the stack fallback path. Jump targets
    /// are rewritten to fused-stream indices.
    Plain(Op),
}

impl FusedOp {
    /// Fuel cost: the sum of the constituent base ops, so the fused stream
    /// charges exactly what the base stream would.
    pub fn cost(self) -> u64 {
        match self {
            FusedOp::LoadCmpConst { cmp, .. } => {
                Op::Load(0).cost() + Op::Push(0.0).cost() + cmp.op().cost()
            }
            FusedOp::ArgCmpConst { cmp, .. } => {
                Op::Arg(0).cost() + Op::Push(0.0).cost() + cmp.op().cost()
            }
            FusedOp::LoadArithConst { arith, .. } => {
                Op::Load(0).cost() + Op::Push(0.0).cost() + arith.op().cost()
            }
            FusedOp::Plain(op) => op.cost(),
        }
    }
}

/// A compiled, executable program: instructions plus an interned key table.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Program {
    /// The instruction stream (executed from index 0 to the end).
    pub ops: Vec<Op>,
    /// The key table: feature-store key names referenced by `Load`/`Agg`/...
    /// indices. Installing the program binds it to store slots
    /// ([`crate::FeatureStore::bind`]); the VM reads only through those.
    pub keys: Vec<String>,
    /// The fused fast stream, derived from `ops` by
    /// [`crate::compile::opt::fuse_program`] *after* verification. Empty
    /// when fusion has not run; the VM then interprets `ops` directly.
    pub fused: Vec<FusedOp>,
}

impl Program {
    /// Looks up an interned key by index.
    pub fn key(&self, idx: u16) -> &str {
        &self.keys[idx as usize]
    }

    /// Static worst-case fuel for one evaluation (sum of instruction costs).
    pub fn worst_case_fuel(&self) -> u64 {
        self.ops.iter().map(|op| op.cost()).sum()
    }

    /// Renders the fused fast stream as a numbered listing, the companion
    /// to the `Display` impl's base-op listing (used by the compiler golden
    /// tests). Returns the empty string when fusion has not run.
    pub fn fused_listing(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for (i, op) in self.fused.iter().enumerate() {
            let rendered = match op {
                FusedOp::LoadCmpConst { key, cmp, constant } => format!(
                    "load.cmp {} {} {constant}",
                    self.key(*key),
                    format!("{:?}", cmp.op()).to_lowercase()
                ),
                FusedOp::ArgCmpConst { arg, cmp, constant } => format!(
                    "arg.cmp {arg} {} {constant}",
                    format!("{:?}", cmp.op()).to_lowercase()
                ),
                FusedOp::LoadArithConst {
                    key,
                    arith,
                    constant,
                } => format!(
                    "load.arith {} {} {constant}",
                    self.key(*key),
                    format!("{:?}", arith.op()).to_lowercase()
                ),
                FusedOp::Plain(op) => format!("plain {op:?}").to_lowercase(),
            };
            let _ = writeln!(out, "{i:4}: {rendered}");
        }
        out
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` for an empty program.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, op) in self.ops.iter().enumerate() {
            let rendered = match op {
                Op::Push(v) => format!("push {v}"),
                Op::Load(k) => format!("load {}", self.key(*k)),
                Op::Arg(i) => format!("arg {i}"),
                Op::Agg {
                    kind,
                    key,
                    window_ns,
                } => format!(
                    "agg.{} {} window={window_ns}ns",
                    kind.name().to_lowercase(),
                    self.key(*key)
                ),
                Op::Quantile { key, q, window_ns } => {
                    format!("quantile {} q={q} window={window_ns}ns", self.key(*key))
                }
                Op::Ewma(k) => format!("ewma {}", self.key(*k)),
                Op::Hist { key, q } => format!("hist {} q={q}", self.key(*key)),
                Op::Delta(k) => format!("delta {}", self.key(*k)),
                Op::JumpIfFalsePeek(t) => format!("jz.peek -> {t}"),
                Op::JumpIfTruePeek(t) => format!("jnz.peek -> {t}"),
                other => format!("{other:?}").to_lowercase(),
            };
            writeln!(f, "{i:4}: {rendered}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_rank_memory_ops_above_alu() {
        assert!(Op::Load(0).cost() > Op::Add.cost());
        assert!(
            Op::Agg {
                kind: AggKind::Avg,
                key: 0,
                window_ns: 1
            }
            .cost()
                > Op::Load(0).cost()
        );
    }

    #[test]
    fn stack_effects_sum_to_one_for_simple_program() {
        // push 1; push 2; add  =>  net effect +1 (the result).
        let net: i32 = [Op::Push(1.0), Op::Push(2.0), Op::Add]
            .iter()
            .map(|op| op.stack_effect())
            .sum();
        assert_eq!(net, 1);
    }

    #[test]
    fn worst_case_fuel_sums_costs() {
        let p = Program {
            ops: vec![Op::Push(1.0), Op::Load(0), Op::Add],
            keys: vec!["k".into()],
            fused: vec![],
        };
        assert_eq!(p.worst_case_fuel(), 1 + 4 + 1);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }

    #[test]
    fn display_renders_disassembly() {
        let p = Program {
            ops: vec![Op::Load(0), Op::Push(0.05), Op::Le],
            keys: vec!["false_submit_rate".into()],
            fused: vec![],
        };
        let text = p.to_string();
        assert!(text.contains("load false_submit_rate"), "{text}");
        assert!(text.contains("push 0.05"), "{text}");
        assert!(text.contains("le"), "{text}");
    }
}
