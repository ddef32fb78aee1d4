//! Lowering checked expressions to bytecode.

use std::collections::HashMap;

use crate::compile::ir::{ArithKind, CmpKind, Op, Program};
use crate::error::{GuardrailError, Result};
use crate::spec::ast::{BinOp, Expr, UnOp};
use crate::spec::check::const_fold;

/// Lowers one (checked, symbol-free) expression into a [`Program`].
///
/// Short-circuit `&&`/`||` compile to forward peek-jumps; all feature-store
/// keys are interned into the program's key table. `LOAD(k) <cmp> c`,
/// `ARG(i) <cmp> c` and `LOAD(k) <arith> c` lower to one superinstruction
/// each. Jump targets are patched after emission, so no jump can land
/// inside one.
pub fn lower_expr(e: &Expr) -> Result<Program> {
    let mut l = Lowerer {
        ops: Vec::new(),
        keys: Vec::new(),
        key_ids: HashMap::new(),
    };
    l.emit(e)?;
    Ok(Program {
        ops: l.ops,
        keys: l.keys,
    })
}

struct Lowerer {
    ops: Vec<Op>,
    keys: Vec<String>,
    key_ids: HashMap<String, u16>,
}

impl Lowerer {
    fn intern(&mut self, key: &str) -> Result<u16> {
        if let Some(&id) = self.key_ids.get(key) {
            return Ok(id);
        }
        let id = u16::try_from(self.keys.len())
            .map_err(|_| GuardrailError::Config("too many distinct keys in one rule".into()))?;
        self.keys.push(key.to_string());
        self.key_ids.insert(key.to_string(), id);
        Ok(id)
    }

    fn emit(&mut self, e: &Expr) -> Result<()> {
        match e {
            Expr::Number(n) => self.ops.push(Op::Push(*n)),
            Expr::Bool(b) => self.ops.push(Op::Push(if *b { 1.0 } else { 0.0 })),
            Expr::Symbol(s) => {
                return Err(GuardrailError::Config(format!(
                    "internal error: unresolved symbol '{s}' reached lowering"
                )))
            }
            Expr::Load(k) => {
                let id = self.intern(k)?;
                self.ops.push(Op::Load(id));
            }
            Expr::Arg(i) => self.ops.push(Op::Arg(arg_index(*i)?)),
            Expr::Ewma(k) => {
                let id = self.intern(k)?;
                self.ops.push(Op::Ewma(id));
            }
            Expr::Delta(k) => {
                let id = self.intern(k)?;
                self.ops.push(Op::Delta(id));
            }
            Expr::Aggregate { kind, key, window } => {
                let window_ns = const_window(window)?;
                let id = self.intern(key)?;
                self.ops.push(Op::Agg {
                    kind: *kind,
                    key: id,
                    window_ns,
                });
            }
            Expr::Hist { key, q } => {
                let qv = const_fold(q)
                    .ok_or_else(|| GuardrailError::Config("HIST q must be constant".into()))?;
                let id = self.intern(key)?;
                self.ops.push(Op::Hist { key: id, q: qv });
            }
            Expr::Quantile { key, q, window } => {
                let qv = const_fold(q)
                    .ok_or_else(|| GuardrailError::Config("QUANTILE q must be constant".into()))?;
                let window_ns = const_window(window)?;
                let id = self.intern(key)?;
                self.ops.push(Op::Quantile {
                    key: id,
                    q: qv,
                    window_ns,
                });
            }
            Expr::Abs(x) => {
                self.emit(x)?;
                self.ops.push(Op::Abs);
            }
            Expr::Clamp(x, lo, hi) => {
                self.emit(x)?;
                self.emit(lo)?;
                self.emit(hi)?;
                self.ops.push(Op::Clamp);
            }
            Expr::Unary(UnOp::Neg, x) => {
                self.emit(x)?;
                self.ops.push(Op::Neg);
            }
            Expr::Unary(UnOp::Not, x) => {
                self.emit(x)?;
                self.ops.push(Op::Not);
            }
            Expr::Binary(BinOp::And, l, r) => {
                self.emit(l)?;
                let patch = self.ops.len();
                self.ops.push(Op::JumpIfFalsePeek(0)); // Patched below.
                self.ops.push(Op::Pop);
                self.emit(r)?;
                let target = self.jump_target()?;
                self.ops[patch] = Op::JumpIfFalsePeek(target);
            }
            Expr::Binary(BinOp::Or, l, r) => {
                self.emit(l)?;
                let patch = self.ops.len();
                self.ops.push(Op::JumpIfTruePeek(0)); // Patched below.
                self.ops.push(Op::Pop);
                self.emit(r)?;
                let target = self.jump_target()?;
                self.ops[patch] = Op::JumpIfTruePeek(target);
            }
            Expr::Binary(op, l, r) => {
                let cmp = CmpKind::from_binop(*op);
                let arith = ArithKind::from_binop(*op);
                let op = match (&**l, &**r, cmp, arith) {
                    (Expr::Load(k), &Expr::Number(constant), Some(cmp), _) => Op::LoadCmp {
                        key: self.intern(k)?,
                        cmp,
                        constant,
                    },
                    (Expr::Arg(i), &Expr::Number(constant), Some(cmp), _) => Op::ArgCmp {
                        arg: arg_index(*i)?,
                        cmp,
                        constant,
                    },
                    (Expr::Load(k), &Expr::Number(constant), _, Some(arith)) => Op::LoadArith {
                        key: self.intern(k)?,
                        arith,
                        constant,
                    },
                    _ => {
                        self.emit(l)?;
                        self.emit(r)?;
                        match (cmp, arith) {
                            (Some(cmp), _) => Op::Cmp(cmp),
                            (_, Some(arith)) => Op::Arith(arith),
                            _ => unreachable!("&& and || handled above"),
                        }
                    }
                };
                self.ops.push(op);
            }
        }
        Ok(())
    }

    fn jump_target(&self) -> Result<u16> {
        u16::try_from(self.ops.len())
            .map_err(|_| GuardrailError::Config("rule program too large for jump encoding".into()))
    }
}

fn arg_index(i: u32) -> Result<u8> {
    u8::try_from(i)
        .map_err(|_| GuardrailError::Config(format!("ARG index {i} exceeds the argument budget")))
}

fn const_window(e: &Expr) -> Result<u64> {
    let v = const_fold(e)
        .ok_or_else(|| GuardrailError::Config("aggregate window must be constant".into()))?;
    if v.is_nan() || v <= 0.0 {
        return Err(GuardrailError::Config(format!(
            "aggregate window must be positive, got {v}"
        )));
    }
    Ok(v.min(u64::MAX as f64) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ast::AggKind;

    fn load(k: &str) -> Expr {
        Expr::Load(k.into())
    }

    #[test]
    fn lowers_listing2_rule() {
        let e = Expr::bin(BinOp::Le, load("false_submit_rate"), Expr::Number(0.05));
        let p = lower_expr(&e).unwrap();
        assert_eq!(
            p.ops,
            vec![Op::LoadCmp {
                key: 0,
                cmp: CmpKind::Le,
                constant: 0.05
            }]
        );
        assert_eq!(p.keys, vec!["false_submit_rate".to_string()]);
    }

    #[test]
    fn interns_repeated_keys_once() {
        let e = Expr::bin(BinOp::Lt, load("x"), load("x"));
        let p = lower_expr(&e).unwrap();
        assert_eq!(p.keys.len(), 1);
        assert_eq!(p.ops, vec![Op::Load(0), Op::Load(0), Op::Cmp(CmpKind::Lt)]);
    }

    /// Each superinstruction shape lowers to exactly one instruction that
    /// costs what its load/arg, push and operator cost apart; every other
    /// binary shape stays on the plain stack ops.
    #[test]
    fn superinstruction_shapes_lower_to_one_op() {
        let n = Expr::Number;
        let cases: Vec<(Expr, Vec<Op>)> = vec![
            (
                Expr::bin(BinOp::Le, load("rate"), n(0.05)),
                vec![Op::LoadCmp {
                    key: 0,
                    cmp: CmpKind::Le,
                    constant: 0.05,
                }],
            ),
            (
                Expr::bin(BinOp::Gt, Expr::Arg(1), n(10.0)),
                vec![Op::ArgCmp {
                    arg: 1,
                    cmp: CmpKind::Gt,
                    constant: 10.0,
                }],
            ),
            (
                Expr::bin(BinOp::Div, load("k"), n(2.0)),
                vec![Op::LoadArith {
                    key: 0,
                    arith: ArithKind::Div,
                    constant: 2.0,
                }],
            ),
            (
                Expr::bin(BinOp::Lt, load("x"), load("y")),
                vec![Op::Load(0), Op::Load(1), Op::Cmp(CmpKind::Lt)],
            ),
            (
                Expr::bin(BinOp::Lt, n(1.0), load("x")),
                vec![Op::Push(1.0), Op::Load(0), Op::Cmp(CmpKind::Lt)],
            ),
            (
                Expr::bin(BinOp::Add, Expr::Arg(0), n(2.0)),
                vec![Op::Arg(0), Op::Push(2.0), Op::Arith(ArithKind::Add)],
            ),
        ];
        for (e, expected) in cases {
            let p = lower_expr(&e).unwrap();
            assert_eq!(p.ops, expected, "lowering {e:?}");
            if let [single] = p.ops[..] {
                let parts = match single {
                    Op::LoadCmp { cmp, .. } => [Op::Load(0), Op::Push(0.0), Op::Cmp(cmp)],
                    Op::ArgCmp { cmp, .. } => [Op::Arg(0), Op::Push(0.0), Op::Cmp(cmp)],
                    Op::LoadArith { arith, .. } => [Op::Load(0), Op::Push(0.0), Op::Arith(arith)],
                    other => panic!("not a superinstruction: {other:?}"),
                };
                assert_eq!(
                    single.cost(),
                    parts.iter().map(|op| op.cost()).sum::<u64>(),
                    "cost of {single:?}"
                );
            }
        }
    }

    #[test]
    fn and_compiles_to_forward_peek_jump() {
        let lhs = Expr::bin(BinOp::Lt, load("a"), Expr::Number(1.0));
        let rhs = Expr::bin(BinOp::Lt, load("b"), Expr::Number(2.0));
        let p = lower_expr(&Expr::bin(BinOp::And, lhs, rhs)).unwrap();
        // load.cmp a lt 1; jz.peek end; pop; load.cmp b lt 2; end:
        assert_eq!(p.ops[1], Op::JumpIfFalsePeek(4));
        assert_eq!(p.ops[2], Op::Pop);
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn or_compiles_to_jnz() {
        let lhs = Expr::Bool(true);
        let rhs = Expr::bin(BinOp::Lt, load("b"), Expr::Number(2.0));
        let p = lower_expr(&Expr::bin(BinOp::Or, lhs, rhs)).unwrap();
        assert!(matches!(p.ops[1], Op::JumpIfTruePeek(_)));
    }

    #[test]
    fn aggregates_bake_in_window() {
        let e = Expr::Aggregate {
            kind: AggKind::Rate,
            key: "ev".into(),
            window: Box::new(Expr::bin(BinOp::Mul, Expr::Number(2.0), Expr::Number(1e9))),
        };
        let p = lower_expr(&e).unwrap();
        assert_eq!(
            p.ops,
            vec![Op::Agg {
                kind: AggKind::Rate,
                key: 0,
                window_ns: 2_000_000_000
            }]
        );
    }

    #[test]
    fn dynamic_window_is_rejected() {
        let e = Expr::Aggregate {
            kind: AggKind::Avg,
            key: "ev".into(),
            window: Box::new(load("w")),
        };
        assert!(lower_expr(&e).is_err());
    }

    #[test]
    fn unresolved_symbol_is_internal_error() {
        assert!(lower_expr(&Expr::Symbol("start_time".into())).is_err());
    }
}
