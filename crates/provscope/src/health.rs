//! The health-rule engine: typed rules evaluated over a [`Registry`]
//! snapshot, producing typed verdicts with the offending values.
//!
//! A long-running provenance service must monitor *itself* — WAL
//! write errors, a sluice queue about to reject, the flight recorder
//! shedding spans.
//! Rather than scattering ad-hoc `if` checks through the cluster
//! poller, rules are data: a [`HealthRule`] names a metric (by
//! *suffix*, so one rule covers `member0.waldo.wal_errors` and
//! `member3.waldo.wal_errors` alike) and a bound, [`evaluate`] runs
//! every rule against a registry snapshot, and the resulting
//! [`HealthReport`] carries one [`HealthViolation`] per offending
//! key — with the rule, the key, the observed value and the limit, so
//! operators (and tests) see *why*, not just *that*.
//!
//! Evaluation is pure and deterministic: registries iterate in key
//! order and rules run in slice order, so the same snapshot always
//! yields the same report.

use crate::metrics::Registry;

/// One typed health rule. Metric names match registry keys by
/// equality or by `.`-separated suffix (`"wal_errors"` matches
/// `"member0.waldo.wal_errors"` but not `"other_wal_errors"`).
#[derive(Clone, Debug, PartialEq)]
pub enum HealthRule {
    /// A counter (or monotone gauge) must not exceed `max`. Checked
    /// against both counter and gauge keys.
    CounterAtMost {
        /// Metric name or suffix.
        metric: String,
        /// Inclusive upper bound.
        max: u64,
    },
    /// A gauge must stay below `percent`% of a companion *budget*
    /// gauge that shares its prefix (e.g. `queue.peak_ops` vs
    /// `queue.budget_ops`). Fires when `value * 100 >= budget *
    /// percent`; keys whose budget gauge is absent or zero are
    /// skipped.
    GaugeBelowPercentOf {
        /// Gauge name or suffix to test.
        metric: String,
        /// Budget gauge name or suffix (resolved on the same prefix).
        budget: String,
        /// Threshold percentage.
        percent: u64,
    },
}

/// True when registry key `key` is the rule metric `metric`, exactly
/// or as a `.`-separated suffix.
fn matches(key: &str, metric: &str) -> bool {
    key == metric
        || (key.len() > metric.len()
            && key.ends_with(metric)
            && key.as_bytes()[key.len() - metric.len() - 1] == b'.')
}

/// One rule firing on one registry key.
#[derive(Clone, Debug, PartialEq)]
pub struct HealthViolation {
    /// The rule that fired.
    pub rule: HealthRule,
    /// The offending registry key.
    pub metric: String,
    /// The observed value.
    pub value: u64,
    /// The effective limit the value broke (for `GaugeBelowPercentOf`,
    /// `budget * percent / 100`).
    pub limit: u64,
    /// Human-readable one-liner.
    pub message: String,
}

/// The outcome of evaluating a rule set against one snapshot.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HealthReport {
    /// Every rule firing, in (rule order, key order).
    pub violations: Vec<HealthViolation>,
    /// Rules evaluated (the whole slice, always).
    pub rules_evaluated: usize,
}

impl HealthReport {
    /// True when no rule fired.
    pub fn healthy(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Evaluates `rules` against a registry snapshot.
pub fn evaluate(rules: &[HealthRule], reg: &Registry) -> HealthReport {
    let mut violations = Vec::new();
    for rule in rules {
        match rule {
            HealthRule::CounterAtMost { metric, max } => {
                let keys = reg
                    .counters()
                    .chain(reg.gauges())
                    .filter(|(k, _)| matches(k, metric));
                for (k, v) in keys {
                    if v > *max {
                        violations.push(HealthViolation {
                            rule: rule.clone(),
                            metric: k.to_string(),
                            value: v,
                            limit: *max,
                            message: format!("{k} = {v} exceeds max {max}"),
                        });
                    }
                }
            }
            HealthRule::GaugeBelowPercentOf {
                metric,
                budget,
                percent,
            } => {
                let hits: Vec<(String, u64)> = reg
                    .gauges()
                    .filter(|(k, _)| matches(k, metric))
                    .map(|(k, v)| (k.to_string(), v))
                    .collect();
                for (k, v) in hits {
                    // Resolve the budget gauge on the same prefix.
                    let prefix = &k[..k.len() - metric.len()];
                    let bkey = format!("{prefix}{budget}");
                    let b = reg.gauge(&bkey);
                    if b == 0 {
                        continue;
                    }
                    if v * 100 >= b * percent {
                        violations.push(HealthViolation {
                            rule: rule.clone(),
                            metric: k.clone(),
                            value: v,
                            limit: b * percent / 100,
                            message: format!("{k} = {v} is at or above {percent}% of {bkey} = {b}"),
                        });
                    }
                }
            }
        }
    }
    HealthReport {
        violations,
        rules_evaluated: rules.len(),
    }
}

/// The default rule set for a polling cluster: no WAL write errors,
/// sluice queue peaks below 90% of their configured budgets, and no
/// flight-recorder span shedding (spans refused at capacity because
/// no completed tree was evictable).
pub fn standard_rules() -> Vec<HealthRule> {
    vec![
        HealthRule::CounterAtMost {
            metric: "wal_errors".to_string(),
            max: 0,
        },
        HealthRule::GaugeBelowPercentOf {
            metric: "queue.peak_ops".to_string(),
            budget: "queue.budget_ops".to_string(),
            percent: 90,
        },
        HealthRule::GaugeBelowPercentOf {
            metric: "queue.peak_bytes".to_string(),
            budget: "queue.budget_bytes".to_string(),
            percent: 90,
        },
        HealthRule::CounterAtMost {
            metric: "provscope.spans_shed".to_string(),
            max: 0,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_rule_matches_by_suffix_and_reports_the_value() {
        let mut r = Registry::new();
        r.add("member0.waldo.wal_errors", 0);
        r.add("member1.waldo.wal_errors", 2);
        r.add("other_wal_errors", 9); // not a dotted suffix match
        let rules = vec![HealthRule::CounterAtMost {
            metric: "wal_errors".to_string(),
            max: 0,
        }];
        let rep = evaluate(&rules, &r);
        assert!(!rep.healthy());
        assert_eq!(rep.rules_evaluated, 1);
        assert_eq!(rep.violations.len(), 1);
        assert_eq!(rep.violations[0].metric, "member1.waldo.wal_errors");
        assert_eq!(rep.violations[0].value, 2);
        assert_eq!(rep.violations[0].limit, 0);
        assert!(rep.violations[0].message.contains("wal_errors = 2"));
    }

    #[test]
    fn counter_rule_also_checks_gauges() {
        let mut r = Registry::new();
        r.set_gauge("provscope.spans_shed", 5);
        let rep = evaluate(&standard_rules(), &r);
        assert_eq!(rep.violations.len(), 1);
        assert_eq!(rep.violations[0].metric, "provscope.spans_shed");
    }

    #[test]
    fn gauge_percent_rule_fires_at_the_threshold() {
        let mut r = Registry::new();
        r.set_gauge("sluice.queue.peak_ops", 89);
        r.set_gauge("sluice.queue.budget_ops", 100);
        let rules = vec![HealthRule::GaugeBelowPercentOf {
            metric: "queue.peak_ops".to_string(),
            budget: "queue.budget_ops".to_string(),
            percent: 90,
        }];
        assert!(evaluate(&rules, &r).healthy());
        r.set_gauge("sluice.queue.peak_ops", 90);
        let rep = evaluate(&rules, &r);
        assert_eq!(rep.violations.len(), 1);
        assert_eq!(rep.violations[0].value, 90);
        assert_eq!(rep.violations[0].limit, 90);
        // A peak with no budget gauge on its prefix is skipped.
        r.set_gauge("lone.queue.peak_ops", 1_000_000);
        assert_eq!(evaluate(&rules, &r).violations.len(), 1);
    }

    #[test]
    fn standard_rules_pass_on_a_clean_snapshot() {
        let mut r = Registry::new();
        r.add("member0.waldo.wal_errors", 0);
        r.set_gauge("sluice.queue.peak_ops", 10);
        r.set_gauge("sluice.queue.budget_ops", 1024);
        r.set_gauge("provscope.spans_shed", 0);
        let rep = evaluate(&standard_rules(), &r);
        assert!(rep.healthy());
        assert_eq!(rep.rules_evaluated, 4);
    }
}
