//! Compile-time optimization: AST constant folding.
//!
//! [`fold_expr`] runs *before* lowering: constant folding and boolean
//! simplification keep the bytecode minimal, which matters because every
//! monitor evaluation runs on a kernel hot path (property P5). Folding
//! evaluates operators through the same functions the VM uses
//! ([`CmpKind::eval`], [`ArithKind::eval`], [`clamp`]), so a folded rule
//! gives exactly the result the unfolded one would.

use crate::compile::ir::{clamp, ArithKind, CmpKind};
use crate::spec::ast::{BinOp, Expr, UnOp};

/// Recursively folds constant sub-expressions and simplifies boolean logic.
pub fn fold_expr(e: &Expr) -> Expr {
    match e {
        Expr::Abs(x) => match fold_expr(x) {
            Expr::Number(n) => Expr::Number(n.abs()),
            folded => Expr::Abs(Box::new(folded)),
        },
        Expr::Clamp(x, lo, hi) => {
            let (x, lo, hi) = (fold_expr(x), fold_expr(lo), fold_expr(hi));
            if let (Expr::Number(x), Expr::Number(lo), Expr::Number(hi)) = (&x, &lo, &hi) {
                return Expr::Number(clamp(*x, *lo, *hi));
            }
            Expr::Clamp(Box::new(x), Box::new(lo), Box::new(hi))
        }
        Expr::Aggregate { kind, key, window } => Expr::Aggregate {
            kind: *kind,
            key: key.clone(),
            window: Box::new(fold_expr(window)),
        },
        Expr::Quantile { key, q, window } => Expr::Quantile {
            key: key.clone(),
            q: Box::new(fold_expr(q)),
            window: Box::new(fold_expr(window)),
        },
        Expr::Hist { key, q } => Expr::Hist {
            key: key.clone(),
            q: Box::new(fold_expr(q)),
        },
        Expr::Unary(UnOp::Neg, x) => match fold_expr(x) {
            Expr::Number(n) => Expr::Number(-n),
            // --x => x.
            Expr::Unary(UnOp::Neg, inner) => *inner,
            folded => Expr::Unary(UnOp::Neg, Box::new(folded)),
        },
        Expr::Unary(UnOp::Not, x) => match fold_expr(x) {
            Expr::Bool(b) => Expr::Bool(!b),
            // !!x => x.
            Expr::Unary(UnOp::Not, inner) => *inner,
            folded => Expr::Unary(UnOp::Not, Box::new(folded)),
        },
        Expr::Binary(op, l, r) => fold_binary(*op, fold_expr(l), fold_expr(r)),
        other => other.clone(),
    }
}

fn fold_binary(op: BinOp, l: Expr, r: Expr) -> Expr {
    use BinOp::*;
    // Pure constant folding.
    if let (Expr::Number(a), Expr::Number(b)) = (&l, &r) {
        let (a, b) = (*a, *b);
        if let Some(arith) = ArithKind::from_binop(op) {
            return Expr::Number(arith.eval(a, b));
        }
        if let Some(cmp) = CmpKind::from_binop(op) {
            return Expr::Bool(cmp.eval(a, b));
        }
        return Expr::Binary(op, Box::new(l), Box::new(r));
    }
    if let (Expr::Bool(a), Expr::Bool(b)) = (&l, &r) {
        let (a, b) = (*a, *b);
        return match op {
            And => Expr::Bool(a && b),
            Or => Expr::Bool(a || b),
            Eq => Expr::Bool(a == b),
            Ne => Expr::Bool(a != b),
            _ => Expr::Binary(op, Box::new(l), Box::new(r)),
        };
    }
    // Short-circuit simplification with one constant side. The language's
    // expressions are effect-free, so dropping the dynamic side is sound.
    match (op, &l, &r) {
        (And, Expr::Bool(false), _) | (And, _, Expr::Bool(false)) => Expr::Bool(false),
        (And, Expr::Bool(true), _) => r,
        (And, _, Expr::Bool(true)) => l,
        (Or, Expr::Bool(true), _) | (Or, _, Expr::Bool(true)) => Expr::Bool(true),
        (Or, Expr::Bool(false), _) => r,
        (Or, _, Expr::Bool(false)) => l,
        // Arithmetic identities.
        (Add, Expr::Number(z), _) if *z == 0.0 => r,
        (Add, _, Expr::Number(z)) if *z == 0.0 => l,
        (Sub, _, Expr::Number(z)) if *z == 0.0 => l,
        (Mul, Expr::Number(one), _) if *one == 1.0 => r,
        (Mul, _, Expr::Number(one)) if *one == 1.0 => l,
        (Div, _, Expr::Number(one)) if *one == 1.0 => l,
        _ => Expr::Binary(op, Box::new(l), Box::new(r)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(n: f64) -> Expr {
        Expr::Number(n)
    }

    #[test]
    fn folds_arithmetic() {
        let e = Expr::bin(
            BinOp::Add,
            num(1.0),
            Expr::bin(BinOp::Mul, num(2.0), num(3.0)),
        );
        assert_eq!(fold_expr(&e), num(7.0));
        // Total division.
        assert_eq!(
            fold_expr(&Expr::bin(BinOp::Div, num(5.0), num(0.0))),
            num(0.0)
        );
    }

    #[test]
    fn folds_comparisons_to_bools() {
        assert_eq!(
            fold_expr(&Expr::bin(BinOp::Lt, num(1.0), num(2.0))),
            Expr::Bool(true)
        );
        assert_eq!(
            fold_expr(&Expr::bin(BinOp::Ge, num(1.0), num(2.0))),
            Expr::Bool(false)
        );
    }

    #[test]
    fn short_circuits_with_dynamic_side() {
        let dynamic = Expr::bin(BinOp::Lt, Expr::Load("x".into()), num(1.0));
        let e = Expr::bin(BinOp::And, Expr::Bool(true), dynamic.clone());
        assert_eq!(fold_expr(&e), dynamic);
        let e = Expr::bin(BinOp::And, Expr::Bool(false), dynamic.clone());
        assert_eq!(fold_expr(&e), Expr::Bool(false));
        let e = Expr::bin(BinOp::Or, dynamic.clone(), Expr::Bool(true));
        assert_eq!(fold_expr(&e), Expr::Bool(true));
        let e = Expr::bin(BinOp::Or, Expr::Bool(false), dynamic.clone());
        assert_eq!(fold_expr(&e), dynamic);
    }

    #[test]
    fn arithmetic_identities() {
        let x = Expr::Load("x".into());
        assert_eq!(fold_expr(&Expr::bin(BinOp::Add, x.clone(), num(0.0))), x);
        assert_eq!(fold_expr(&Expr::bin(BinOp::Mul, num(1.0), x.clone())), x);
        assert_eq!(fold_expr(&Expr::bin(BinOp::Div, x.clone(), num(1.0))), x);
        assert_eq!(fold_expr(&Expr::bin(BinOp::Sub, x.clone(), num(0.0))), x);
    }

    #[test]
    fn double_negations_cancel() {
        let x = Expr::Load("x".into());
        let e = Expr::Unary(
            UnOp::Neg,
            Box::new(Expr::Unary(UnOp::Neg, Box::new(x.clone()))),
        );
        assert_eq!(fold_expr(&e), x);
        let b = Expr::bin(BinOp::Lt, Expr::Load("x".into()), num(1.0));
        let e = Expr::Unary(
            UnOp::Not,
            Box::new(Expr::Unary(UnOp::Not, Box::new(b.clone()))),
        );
        assert_eq!(fold_expr(&e), b);
    }

    #[test]
    fn folds_inside_builtins() {
        let e = Expr::Aggregate {
            kind: crate::spec::ast::AggKind::Avg,
            key: "k".into(),
            window: Box::new(Expr::bin(BinOp::Mul, num(10.0), num(1e9))),
        };
        match fold_expr(&e) {
            Expr::Aggregate { window, .. } => assert_eq!(*window, num(1e10)),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(fold_expr(&Expr::Abs(Box::new(num(-3.0)))), num(3.0));
        let e = Expr::Clamp(Box::new(num(5.0)), Box::new(num(0.0)), Box::new(num(2.0)));
        assert_eq!(fold_expr(&e), num(2.0));
    }

    #[test]
    fn clamp_with_inverted_bounds_is_total() {
        let e = Expr::Clamp(Box::new(num(5.0)), Box::new(num(3.0)), Box::new(num(1.0)));
        // hi < lo: clamp uses max(lo, hi) so this folds to 3 instead of panicking.
        assert_eq!(fold_expr(&e), num(3.0));
    }
}
