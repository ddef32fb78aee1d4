//! Synthesized guardrail templates for properties P1–P5 of the taxonomy.
//!
//! §3.3: "For learned policies, many of these can be determined
//! automatically, e.g., the performance metric to track can be extracted
//! from the reward function." This module is that synthesis path: given a
//! few parameters, each builder emits canonical guardrail source text (which
//! the developer can review, edit, and install). The builders cover P1–P5;
//! P6's starvation guardrail lives with its subsystem as
//! `schedsim::P6_GUARDRAIL`.
//!
//! §3.3 also suggests deploying "guardrails with relaxed properties and
//! automatically tighten\[ing\] the properties based on system behavior" —
//! [`Calibrator`] implements that: thresholds live in the feature store
//! (rules reference them via `LOAD`), and the calibrator walks them from a
//! relaxed starting point toward observed steady-state behaviour.

use simkernel::Nanos;

use crate::store::FeatureStore;

fn fmt_ns(d: Nanos) -> String {
    format!("{}", d.as_nanos())
}

/// P1: in-distribution inputs. Bounds the PSI score a
/// [`crate::stats::DriftDetector`] publishes under `<model>.input.psi`.
///
/// "All models. Prolonged sequences of out-of-distribution data may indicate
/// domain shift and require retraining" (Figure 1) — hence the default
/// action set: report, then retrain.
pub fn p1_in_distribution(name: &str, model: &str, max_psi: f64, check_every: Nanos) -> String {
    format!(
        r#"guardrail {name} {{
    trigger: {{ TIMER(0, {interval}) }},
    rule: {{ LOAD({model}.input.psi) <= {max_psi} }},
    action: {{
        REPORT("input distribution shifted", {model}.input.psi, {model}.input.oob_fraction)
        RETRAIN({model})
    }}
}}
"#,
        interval = fmt_ns(check_every),
    )
}

/// P2: robustness of decisions. Bounds the sensitivity gain a
/// [`crate::stats::SensitivityProbe`] publishes under `<model>.gain`.
pub fn p2_robustness(name: &str, model: &str, max_gain: f64, check_every: Nanos) -> String {
    format!(
        r#"guardrail {name} {{
    trigger: {{ TIMER(0, {interval}) }},
    rule: {{ LOAD({model}.gain) <= {max_gain} }},
    action: {{
        REPORT("model output is noise-sensitive", {model}.gain)
        RETRAIN({model})
    }}
}}
"#,
        interval = fmt_ns(check_every),
    )
}

/// P3: out-of-bounds outputs. Checks every decision (FUNCTION trigger on the
/// decision tracepoint, output as `ARG(0)`) against `[lo, hi]` and falls
/// back to the safe policy on violation.
pub fn p3_output_bounds(name: &str, hook: &str, slot: &str, lo: f64, hi: f64) -> String {
    format!(
        r#"guardrail {name} {{
    trigger: {{ FUNCTION({hook}) }},
    rule: {{ ARG(0) >= {lo} && ARG(0) <= {hi} }},
    action: {{
        REPORT("out-of-bounds decision")
        REPLACE({slot}, fallback)
    }}
}}
"#,
    )
}

/// P4: decision quality. Requires the model's windowed accuracy (published
/// under `<model>.accuracy`) to beat `min_accuracy` — the paper's example is
/// "accuracy of the classifier > 90% over a time window of a given size".
pub fn p4_decision_quality(
    name: &str,
    model: &str,
    slot: &str,
    min_accuracy: f64,
    window: Nanos,
    check_every: Nanos,
) -> String {
    format!(
        r#"guardrail {name} {{
    trigger: {{ TIMER({window}, {interval}) }},
    rule: {{ AVG({model}.accuracy, {window}) >= {min_accuracy} }},
    action: {{
        REPORT("decision quality below threshold", {model}.accuracy)
        REPLACE({slot}, fallback)
    }}
}}
"#,
        window = fmt_ns(window),
        interval = fmt_ns(check_every),
    )
}

/// P5: decision overhead. Requires windowed inference cost (published under
/// `<model>.inference_ns`) to stay below the windowed gain the policy
/// delivers (published under `<model>.gain_ns`).
pub fn p5_decision_overhead(
    name: &str,
    model: &str,
    slot: &str,
    window: Nanos,
    check_every: Nanos,
) -> String {
    format!(
        r#"guardrail {name} {{
    trigger: {{ TIMER({window}, {interval}) }},
    rule: {{ SUM({model}.inference_ns, {window}) <= SUM({model}.gain_ns, {window}) }},
    action: {{
        REPORT("inference overhead exceeds policy gains")
        REPLACE({slot}, fallback)
    }}
}}
"#,
        window = fmt_ns(window),
        interval = fmt_ns(check_every),
    )
}

/// Auto-tightening of guardrail thresholds (§3.3).
///
/// The threshold lives in the feature store at `threshold_key` (the rule
/// reads it with `LOAD`). Starting relaxed, each [`Calibrator::step`] moves
/// the threshold toward `headroom ×` the observed steady-state value, never
/// tightening past `floor`.
///
/// # Examples
///
/// ```
/// use guardrails::props::Calibrator;
/// use guardrails::FeatureStore;
///
/// let store = FeatureStore::new();
/// let mut cal = Calibrator::new("thr", 100.0, 1.5, 0.5, 0.0);
/// cal.install(&store);
/// assert_eq!(store.load("thr"), Some(100.0));
/// // Observed steady state is ~10, so the threshold walks toward 15.
/// for _ in 0..20 {
///     cal.step(&store, 10.0);
/// }
/// assert!(store.load("thr").unwrap() < 20.0);
/// ```
#[derive(Clone, Debug)]
pub struct Calibrator {
    key: String,
    relaxed: f64,
    headroom: f64,
    rate: f64,
    floor: f64,
}

impl Calibrator {
    /// Creates a calibrator for `threshold_key`.
    ///
    /// - `relaxed`: the safe initial threshold.
    /// - `headroom`: target multiple of the observed value (> 1).
    /// - `rate`: per-step fraction of the gap to close, in `(0, 1]`.
    /// - `floor`: the tightest allowed threshold.
    pub fn new(threshold_key: &str, relaxed: f64, headroom: f64, rate: f64, floor: f64) -> Self {
        Calibrator {
            key: threshold_key.to_string(),
            relaxed,
            headroom: headroom.max(1.0),
            rate: rate.clamp(1e-6, 1.0),
            floor,
        }
    }

    /// Writes the relaxed threshold into the store.
    pub fn install(&self, store: &FeatureStore) {
        store.save(&self.key, self.relaxed);
    }

    /// Moves the threshold toward `headroom × observed`, returning the new
    /// threshold. Only ever tightens (never loosens) and respects the floor.
    pub fn step(&mut self, store: &FeatureStore, observed: f64) -> f64 {
        let current = store.load(&self.key).unwrap_or(self.relaxed);
        let target = (observed * self.headroom).max(self.floor);
        let next = if target < current {
            (current + (target - current) * self.rate).max(self.floor)
        } else {
            current
        };
        store.save(&self.key, next);
        next
    }

    /// The threshold key.
    pub fn key(&self) -> &str {
        &self.key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_str;

    #[test]
    fn all_templates_compile_and_verify() {
        let tick = Nanos::from_secs(1);
        let specs = [
            p1_in_distribution("p1-drift", "io_model", 0.25, tick),
            p2_robustness("p2-robust", "cc_model", 10.0, tick),
            p3_output_bounds("p3-bounds", "alloc_decide", "alloc_policy", 0.0, 4096.0),
            p4_decision_quality(
                "p4-quality",
                "io_model",
                "io_policy",
                0.9,
                Nanos::from_secs(10),
                tick,
            ),
            p5_decision_overhead(
                "p5-overhead",
                "io_model",
                "io_policy",
                Nanos::from_secs(10),
                tick,
            ),
        ];
        for spec in &specs {
            let compiled = compile_str(spec).unwrap_or_else(|e| panic!("{e}\n{spec}"));
            assert_eq!(compiled.len(), 1);
            assert!(!compiled[0].rules.is_empty());
            assert!(!compiled[0].actions.is_empty());
        }
    }

    #[test]
    fn p3_uses_function_trigger() {
        let compiled = compile_str(&p3_output_bounds("g", "decide", "slot", 0.0, 10.0)).unwrap();
        assert_eq!(compiled[0].hooks, vec!["decide".to_string()]);
        assert!(compiled[0].timers.is_empty());
    }

    #[test]
    fn p4_embeds_window_and_threshold() {
        let spec = p4_decision_quality(
            "g",
            "m",
            "s",
            0.9,
            Nanos::from_secs(10),
            Nanos::from_secs(1),
        );
        assert!(spec.contains("AVG(m.accuracy, 10000000000)"), "{spec}");
        assert!(spec.contains(">= 0.9"), "{spec}");
    }

    #[test]
    fn calibrator_only_tightens_and_respects_floor() {
        let store = FeatureStore::new();
        let mut cal = Calibrator::new("t", 100.0, 1.2, 1.0, 8.0);
        cal.install(&store);
        // One full-rate step to the target.
        assert_eq!(cal.step(&store, 10.0), 12.0);
        // Observed spikes above the current threshold: no loosening.
        assert_eq!(cal.step(&store, 1000.0), 12.0);
        // Floor binds.
        assert_eq!(cal.step(&store, 0.0), 8.0);
        assert_eq!(cal.key(), "t");
    }
}
