//! Pretty-printing of specifications back to source text.
//!
//! The printer emits canonical source that re-parses to the same AST; the
//! round-trip property is exercised by the property-based tests. It is also
//! how synthesized guardrails (see [`crate::props`]) are rendered for
//! developer review before installation.

use std::fmt::Write as _;

use crate::spec::ast::{ActionStmt, BinOp, Expr, Guardrail, Spec, Trigger, UnOp};

/// Renders a whole spec as canonical source text.
pub fn print_spec(spec: &Spec) -> String {
    let mut out = String::new();
    for (i, g) in spec.guardrails.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        print_guardrail_into(&mut out, g);
    }
    out
}

fn print_guardrail_into(out: &mut String, g: &Guardrail) {
    let _ = writeln!(out, "guardrail {} {{", ident_or_quoted(&g.name));
    let _ = writeln!(out, "    trigger: {{");
    for t in &g.triggers {
        let _ = writeln!(out, "        {}", print_trigger(t));
    }
    let _ = writeln!(out, "    }},");
    let _ = writeln!(out, "    rule: {{");
    for r in &g.rules {
        // The explicit ';' prevents a following rule that starts with '-'
        // or another continuation token from being absorbed into this
        // expression.
        let _ = writeln!(out, "        {};", print_expr(r));
    }
    let _ = writeln!(out, "    }},");
    let _ = writeln!(out, "    action: {{");
    for a in &g.actions {
        let _ = writeln!(out, "        {}", print_action(a));
    }
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out, "}}");
}

fn print_trigger(t: &Trigger) -> String {
    match t {
        Trigger::Timer {
            start,
            interval,
            stop,
        } => match stop {
            Some(stop) => format!(
                "TIMER({}, {}, {})",
                print_expr(start),
                print_expr(interval),
                print_expr(stop)
            ),
            None => format!("TIMER({}, {})", print_expr(start), print_expr(interval)),
        },
        Trigger::Function { hook } => format!("FUNCTION({})", ident_or_quoted(hook)),
    }
}

fn print_action(a: &ActionStmt) -> String {
    match a {
        ActionStmt::Report { message, keys } => {
            let mut s = format!("REPORT({:?}", message);
            for k in keys {
                let _ = write!(s, ", {}", ident_or_quoted(k));
            }
            s.push(')');
            s
        }
        ActionStmt::Replace { slot, variant } => {
            format!(
                "REPLACE({}, {})",
                ident_or_quoted(slot),
                ident_or_quoted(variant)
            )
        }
        ActionStmt::Retrain { model } => format!("RETRAIN({})", ident_or_quoted(model)),
        ActionStmt::Deprioritize { target, steps } => match steps {
            Some(e) => format!(
                "DEPRIORITIZE({}, {})",
                ident_or_quoted(target),
                print_expr(e)
            ),
            None => format!("DEPRIORITIZE({})", ident_or_quoted(target)),
        },
        ActionStmt::Save { key, value } => {
            format!("SAVE({}, {})", ident_or_quoted(key), print_expr(value))
        }
        ActionStmt::Record { key, value } => {
            format!("RECORD({}, {})", ident_or_quoted(key), print_expr(value))
        }
    }
}

/// Quotes a name only when it is not a valid bare identifier.
fn ident_or_quoted(name: &str) -> String {
    let bare = !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
        && name
            .chars()
            .all(|c| c.is_alphanumeric() || c == '_' || c == '-' || c == '.')
        && !name.ends_with('-')
        && !name.ends_with('.')
        && !name.contains("--")
        && !name.contains("..")
        && !name.contains(".-")
        && !name.contains("-.")
        && name != "true"
        && name != "false";
    if bare {
        name.to_string()
    } else {
        format!("{name:?}")
    }
}

/// Renders an expression, parenthesizing compound operands conservatively.
pub fn print_expr(e: &Expr) -> String {
    match e {
        Expr::Number(n) => format_number(*n),
        Expr::Bool(b) => b.to_string(),
        Expr::Symbol(s) => s.clone(),
        Expr::Load(k) => format!("LOAD({})", ident_or_quoted(k)),
        Expr::Arg(i) => format!("ARG({i})"),
        Expr::Ewma(k) => format!("EWMA({})", ident_or_quoted(k)),
        Expr::Delta(k) => format!("DELTA({})", ident_or_quoted(k)),
        Expr::Aggregate { kind, key, window } => format!(
            "{}({}, {})",
            kind.name(),
            ident_or_quoted(key),
            print_expr(window)
        ),
        Expr::Quantile { key, q, window } => format!(
            "QUANTILE({}, {}, {})",
            ident_or_quoted(key),
            print_expr(q),
            print_expr(window)
        ),
        Expr::Hist { key, q } => {
            format!("HIST({}, {})", ident_or_quoted(key), print_expr(q))
        }
        Expr::Abs(x) => format!("ABS({})", print_expr(x)),
        Expr::Clamp(x, lo, hi) => format!(
            "CLAMP({}, {}, {})",
            print_expr(x),
            print_expr(lo),
            print_expr(hi)
        ),
        // A negated literal must print parenthesized: bare `-5` re-parses
        // as the literal -5, not as Neg(5).
        Expr::Unary(UnOp::Neg, x) if matches!(**x, Expr::Number(_)) => {
            format!("-({})", print_expr(x))
        }
        Expr::Unary(UnOp::Neg, x) => format!("-{}", atom(x)),
        Expr::Unary(UnOp::Not, x) => format!("!{}", atom(x)),
        Expr::Binary(op, l, r) => {
            format!("{} {} {}", atom(l), op_str(*op), atom(r))
        }
    }
}

/// Wraps compound expressions in parentheses so precedence is explicit.
fn atom(e: &Expr) -> String {
    match e {
        Expr::Binary(..) => format!("({})", print_expr(e)),
        _ => print_expr(e),
    }
}

fn op_str(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Mod => "%",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
        BinOp::And => "&&",
        BinOp::Or => "||",
    }
}

/// Formats a float so it re-lexes to the same value (no suffix shorthand).
fn format_number(n: f64) -> String {
    if n == n.trunc() && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        // `{:?}` on f64 produces a round-trippable representation.
        format!("{n:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::parser::parse;

    fn round_trip(src: &str) {
        let spec = parse(src).unwrap();
        let printed = print_spec(&spec);
        let reparsed = parse(&printed).unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        assert_eq!(spec, reparsed, "printed:\n{printed}");
    }

    #[test]
    fn listing_2_round_trips() {
        round_trip(
            r#"guardrail low-false-submit {
                trigger: { TIMER(start_time, 1e9) },
                rule: { LOAD(false_submit_rate) <= 0.05 },
                action: { SAVE(ml_enabled, false) }
            }"#,
        );
    }

    #[test]
    fn complex_spec_round_trips() {
        round_trip(
            r#"guardrail g {
                trigger: { TIMER(0, 1s, 10s) FUNCTION(io_submit) },
                rule: {
                    (AVG(lat, 10s) < 2000 || QUANTILE(lat, 0.99, 10s) < 50ms) && !(LOAD(x) == 1)
                    CLAMP(ABS(DELTA(err)), 0, 10) * 2 - 1 <= EWMA(rate) % 7
                    ARG(3) / RATE(ev, 500ms) > -5
                },
                action: {
                    REPORT("hi there, \"world\"", lat, x)
                    REPLACE(slot, variant)
                    RETRAIN(model)
                    DEPRIORITIZE(tgt, 2 + 3)
                    RECORD(k, COUNT(ev, 1s))
                }
            }"#,
        );
    }

    #[test]
    fn negative_numbers_round_trip() {
        round_trip(
            "guardrail g { trigger: { TIMER(0,1) }, rule: { LOAD(x) > -1.5 }, action: { SAVE(y, -2) } }",
        );
    }

    #[test]
    fn quoted_names_when_needed() {
        assert_eq!(ident_or_quoted("ok_name-1"), "ok_name-1");
        assert_eq!(ident_or_quoted("1bad"), "\"1bad\"");
        assert_eq!(ident_or_quoted("has space"), "\"has space\"");
        assert_eq!(ident_or_quoted("true"), "\"true\"");
        assert_eq!(ident_or_quoted(""), "\"\"");
        assert_eq!(ident_or_quoted("bad-"), "\"bad-\"");
    }

    #[test]
    fn number_formatting_is_lossless() {
        assert_eq!(format_number(5.0), "5");
        assert_eq!(format_number(0.05), "0.05");
        let printed = format_number(1e-17);
        assert_eq!(printed.parse::<f64>().unwrap(), 1e-17);
    }
}
