//! The abstract syntax tree for guardrail specifications.

/// A parsed specification: one or more guardrails.
#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    /// The guardrails, in source order.
    pub guardrails: Vec<Guardrail>,
}

/// One `guardrail name { trigger: ..., rule: ..., action: ... }` block.
#[derive(Clone, Debug, PartialEq)]
pub struct Guardrail {
    /// The guardrail's name (may be hyphenated, e.g. `low-false-submit`).
    pub name: String,
    /// When to evaluate the rules (at least one).
    pub triggers: Vec<Trigger>,
    /// What must hold; multiple rules are a conjunction but are reported
    /// individually on violation (at least one).
    pub rules: Vec<Expr>,
    /// What to do on violation (at least one).
    pub actions: Vec<ActionStmt>,
}

/// A trigger determining *when* rules are evaluated (§4.1).
#[derive(Clone, Debug, PartialEq)]
pub enum Trigger {
    /// `TIMER(start, interval[, stop])`: periodic evaluation. All three are
    /// expressions so specs can write `TIMER(start_time, 1e9)` with symbolic
    /// bindings; they must be compile-time constants.
    Timer {
        /// First evaluation time (absolute nanoseconds).
        start: Expr,
        /// Evaluation period in nanoseconds.
        interval: Expr,
        /// Optional last evaluation time.
        stop: Option<Expr>,
    },
    /// `FUNCTION(name)`: evaluate on every firing of the named tracepoint.
    Function {
        /// The tracepoint/function name.
        hook: String,
    },
}

/// A corrective action statement (§3.2, Figure 1 right table).
#[derive(Clone, Debug, PartialEq)]
pub enum ActionStmt {
    /// `REPORT(message, key...)` — A1: log the violation and the listed
    /// feature-store keys for offline analysis.
    Report {
        /// Human-readable message.
        message: String,
        /// Feature-store keys whose current values are recorded.
        keys: Vec<String>,
    },
    /// `REPLACE(slot, variant)` — A2: swap the policy in `slot` to `variant`
    /// (e.g. a known-safe fallback).
    Replace {
        /// The policy slot name.
        slot: String,
        /// The variant to activate.
        variant: String,
    },
    /// `RETRAIN(model)` — A3: enqueue an asynchronous retraining request.
    Retrain {
        /// The model name.
        model: String,
    },
    /// `DEPRIORITIZE(target[, steps])` — A4: demote (or with `steps >= 40`,
    /// kill) the targeted task(s). `target` is a task-selection key the
    /// embedding system interprets (e.g. `heaviest_memory`).
    Deprioritize {
        /// Task-selection key.
        target: String,
        /// Nice-level demotion amount (defaults to 5).
        steps: Option<Expr>,
    },
    /// `SAVE(key, expr)` — write a scalar into the feature store (§4.3).
    Save {
        /// Destination key.
        key: String,
        /// Value expression.
        value: Expr,
    },
    /// `RECORD(key, expr)` — append a sample to a windowed series.
    Record {
        /// Destination series key.
        key: String,
        /// Sample expression.
        value: Expr,
    },
}

/// A binary operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (total: division by zero yields 0, like eBPF).
    Div,
    /// `%` (total: modulo by zero yields 0).
    Mod,
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
    /// `&&` (short-circuit)
    And,
    /// `||` (short-circuit)
    Or,
}

impl BinOp {
    /// Returns `true` for comparison operators (numeric operands, boolean result).
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }

    /// Returns `true` for boolean connectives.
    fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }

    /// Returns `true` for arithmetic operators.
    pub fn is_arithmetic(self) -> bool {
        !self.is_comparison() && !self.is_logical()
    }
}

/// A unary operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Boolean not.
    Not,
}

/// A windowed aggregate over a feature-store series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggKind {
    /// Mean of samples in the window.
    Avg,
    /// Sum of samples in the window.
    Sum,
    /// Number of samples in the window.
    Count,
    /// Minimum sample in the window.
    Min,
    /// Maximum sample in the window.
    Max,
    /// Sample standard deviation over the window.
    StdDev,
    /// Samples per second over the window.
    Rate,
}

impl AggKind {
    /// The spec-language name of the aggregate.
    pub fn name(self) -> &'static str {
        match self {
            AggKind::Avg => "AVG",
            AggKind::Sum => "SUM",
            AggKind::Count => "COUNT",
            AggKind::Min => "MIN",
            AggKind::Max => "MAX",
            AggKind::StdDev => "STDDEV",
            AggKind::Rate => "RATE",
        }
    }
}

/// An expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A numeric literal (durations are normalized to nanoseconds).
    Number(f64),
    /// A boolean literal.
    Bool(bool),
    /// A named symbolic constant in trigger arguments (`start_time`, ...).
    Symbol(String),
    /// `LOAD(key)`: read a scalar from the feature store (missing keys read 0).
    Load(String),
    /// `ARG(i)`: the `i`-th argument of the triggering tracepoint (0 under TIMER).
    Arg(u32),
    /// A windowed aggregate, e.g. `AVG(latency, 10s)`.
    Aggregate {
        /// Which statistic.
        kind: AggKind,
        /// The series key.
        key: String,
        /// Window length in nanoseconds.
        window: Box<Expr>,
    },
    /// `QUANTILE(key, q, window)`.
    Quantile {
        /// The series key.
        key: String,
        /// The quantile in `[0, 1]`.
        q: Box<Expr>,
        /// Window length in nanoseconds.
        window: Box<Expr>,
    },
    /// `EWMA(key)`: the store's exponentially weighted moving average.
    Ewma(String),
    /// `HIST(key, q)`: a quantile of the store's log-bucketed histogram
    /// (O(1) state, unlike windowed `QUANTILE`).
    Hist {
        /// The histogram key.
        key: String,
        /// The quantile in `[0, 1]`.
        q: Box<Expr>,
    },
    /// `DELTA(key)`: change of the scalar since this monitor last evaluated.
    Delta(String),
    /// `ABS(x)`.
    Abs(Box<Expr>),
    /// `CLAMP(x, lo, hi)`.
    Clamp(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Convenience constructor for binary nodes.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary(op, Box::new(lhs), Box::new(rhs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_classification() {
        assert!(BinOp::Le.is_comparison());
        assert!(BinOp::And.is_logical());
        assert!(BinOp::Add.is_arithmetic());
        assert!(!BinOp::Add.is_comparison());
        assert!(!BinOp::Lt.is_arithmetic());
    }

    #[test]
    fn agg_names_round() {
        for k in [
            AggKind::Avg,
            AggKind::Sum,
            AggKind::Count,
            AggKind::Min,
            AggKind::Max,
            AggKind::StdDev,
            AggKind::Rate,
        ] {
            assert!(!k.name().is_empty());
        }
    }
}
