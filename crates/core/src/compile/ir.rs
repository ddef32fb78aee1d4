//! The bytecode intermediate representation monitors execute.
//!
//! Rules and action operands are lowered to a small stack machine. The design
//! mirrors the constraints of in-kernel execution environments like eBPF:
//! a fixed instruction set, interned key references (no string hashing on
//! the hot path), forward-only jumps, and a static cost model so the
//! verifier can bound worst-case execution time before installation.

use std::fmt;

use crate::spec::ast::{AggKind, BinOp};

/// One bytecode instruction.
///
/// Booleans are represented as `0.0` / `1.0` on the stack; the verifier
/// tracks boolean-ness statically so the encoding never leaks into rule
/// semantics.
///
/// The dominant rule shapes — `LOAD(key) <= c`, `ARG(i) > c`,
/// `LOAD(key) / c` — are chosen at lowering as superinstructions
/// ([`Op::LoadCmp`], [`Op::ArgCmp`], [`Op::LoadArith`]): one dispatch whose
/// operands live in the instruction itself. They are ordinary instructions
/// of the one stream the verifier certifies and the VM runs, and each costs
/// the sum of the load, push and operator it stands for.
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
    /// Pop `b`, pop `a`, push `a <arith> b` ([`ArithKind::eval`]).
    Arith(ArithKind),
    /// Pop `hi`, `lo`, `x`; push [`clamp`]`(x, lo, hi)`.
    Clamp,
    /// Pop `b`, pop `a`, push `a <cmp> b` ([`CmpKind::eval`]).
    Cmp(CmpKind),
    /// Push `LOAD(key) <cmp> constant` (`Load; Push; Cmp` in one dispatch).
    LoadCmp {
        /// Interned key index.
        key: u16,
        /// Which comparison.
        cmp: CmpKind,
        /// The immediate right-hand side.
        constant: f64,
    },
    /// Push `ARG(arg) <cmp> constant` (`Arg; Push; Cmp` in one dispatch).
    ArgCmp {
        /// Trigger-argument index.
        arg: u8,
        /// Which comparison.
        cmp: CmpKind,
        /// The immediate right-hand side.
        constant: f64,
    },
    /// Push `LOAD(key) <arith> constant` (`Load; Push; Arith` in one
    /// dispatch).
    LoadArith {
        /// Interned key index.
        key: u16,
        /// Which operation.
        arith: ArithKind,
        /// The immediate right-hand side.
        constant: f64,
    },
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
    /// windowed aggregates cost the most (they scan samples). A
    /// superinstruction costs the sum of its parts, so choosing one at
    /// lowering never moves a fuel total.
    #[inline]
    pub fn cost(self) -> u64 {
        match self {
            Op::Agg { .. } | Op::Quantile { .. } => 16,
            Op::Hist { .. } => 8,
            // Load (4) + push (1) + operator (1).
            Op::LoadCmp { .. } | Op::LoadArith { .. } => 6,
            Op::Load(_) | Op::Ewma(_) | Op::Delta(_) => 4,
            // Arg (1) + push (1) + compare (1).
            Op::ArgCmp { .. } => 3,
            _ => 1,
        }
    }
}

/// A comparison operator.
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
    /// The comparison a binary operator denotes, if it is one.
    pub fn from_binop(op: BinOp) -> Option<Self> {
        Some(match op {
            BinOp::Lt => CmpKind::Lt,
            BinOp::Le => CmpKind::Le,
            BinOp::Gt => CmpKind::Gt,
            BinOp::Ge => CmpKind::Ge,
            BinOp::Eq => CmpKind::Eq,
            BinOp::Ne => CmpKind::Ne,
            _ => return None,
        })
    }

    /// Evaluates the comparison. A NaN operand makes every comparison —
    /// `!=` included — false, keeping rules total.
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

    /// The listing mnemonic (`lt`, `le`, ...).
    pub fn name(self) -> &'static str {
        match self {
            CmpKind::Lt => "lt",
            CmpKind::Le => "le",
            CmpKind::Gt => "gt",
            CmpKind::Ge => "ge",
            CmpKind::Eq => "eq",
            CmpKind::Ne => "ne",
        }
    }
}

/// An arithmetic operator.
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
    /// The arithmetic operation a binary operator denotes, if it is one.
    pub fn from_binop(op: BinOp) -> Option<Self> {
        Some(match op {
            BinOp::Add => ArithKind::Add,
            BinOp::Sub => ArithKind::Sub,
            BinOp::Mul => ArithKind::Mul,
            BinOp::Div => ArithKind::Div,
            BinOp::Mod => ArithKind::Mod,
            _ => return None,
        })
    }

    /// Evaluates the operation with total semantics: division and modulo
    /// by zero yield 0.
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

    /// The listing mnemonic (`add`, `sub`, ...).
    pub fn name(self) -> &'static str {
        match self {
            ArithKind::Add => "add",
            ArithKind::Sub => "sub",
            ArithKind::Mul => "mul",
            ArithKind::Div => "div",
            ArithKind::Mod => "mod",
        }
    }
}

/// `CLAMP(x, lo, hi)`: `x` limited to `[lo, max(lo, hi)]`, so inverted
/// bounds clamp to `lo`. Total: a NaN `lo` yields NaN (which every
/// enclosing comparison treats as false) where `f64::clamp` would panic.
#[inline]
pub fn clamp(x: f64, lo: f64, hi: f64) -> f64 {
    if lo.is_nan() {
        return f64::NAN;
    }
    x.clamp(lo, hi.max(lo))
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
                Op::Arith(arith) => arith.name().to_string(),
                Op::Cmp(cmp) => cmp.name().to_string(),
                Op::LoadCmp { key, cmp, constant } => {
                    format!("load.cmp {} {} {constant}", self.key(*key), cmp.name())
                }
                Op::ArgCmp { arg, cmp, constant } => {
                    format!("arg.cmp {arg} {} {constant}", cmp.name())
                }
                Op::LoadArith {
                    key,
                    arith,
                    constant,
                } => format!("load.arith {} {} {constant}", self.key(*key), arith.name()),
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
        assert!(Op::Load(0).cost() > Op::Arith(ArithKind::Add).cost());
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
    fn worst_case_fuel_sums_costs() {
        let p = Program {
            ops: vec![Op::Push(1.0), Op::Load(0), Op::Arith(ArithKind::Add)],
            keys: vec!["k".into()],
        };
        assert_eq!(p.worst_case_fuel(), 1 + 4 + 1);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }

    #[test]
    fn display_renders_disassembly() {
        let p = Program {
            ops: vec![
                Op::LoadCmp {
                    key: 0,
                    cmp: CmpKind::Le,
                    constant: 0.05,
                },
                Op::ArgCmp {
                    arg: 0,
                    cmp: CmpKind::Lt,
                    constant: 4096.0,
                },
                Op::LoadArith {
                    key: 0,
                    arith: ArithKind::Div,
                    constant: 4.0,
                },
                Op::Load(0),
                Op::Push(0.05),
                Op::Cmp(CmpKind::Le),
                Op::Arith(ArithKind::Add),
            ],
            keys: vec!["false_submit_rate".into()],
        };
        let text = p.to_string();
        for line in [
            "   0: load.cmp false_submit_rate le 0.05",
            "   1: arg.cmp 0 lt 4096",
            "   2: load.arith false_submit_rate div 4",
            "   3: load false_submit_rate",
            "   4: push 0.05",
            "   5: le",
            "   6: add",
        ] {
            assert!(text.lines().any(|l| l == line), "{line:?} in\n{text}");
        }
    }

    #[test]
    fn clamp_is_total() {
        assert_eq!(clamp(5.0, 0.0, 2.0), 2.0);
        assert_eq!(clamp(-1.0, 0.0, 2.0), 0.0);
        // Inverted bounds clamp to `lo`.
        assert_eq!(clamp(5.0, 3.0, 1.0), 3.0);
        // A NaN `hi` collapses to `lo`; a NaN `x` stays NaN.
        assert_eq!(clamp(5.0, 3.0, f64::NAN), 3.0);
        assert!(clamp(f64::NAN, 0.0, 1.0).is_nan());
        // A NaN `lo` yields NaN instead of panicking.
        assert!(clamp(1.0, f64::NAN, 5.0).is_nan());
    }
}
