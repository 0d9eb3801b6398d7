//! Perf-budget engine (`bicord analyze diff-bench`): compares two
//! `BENCH_results.json` files under per-metric threshold rules and turns
//! the perf trajectory into an enforced budget.
//!
//! Records are keyed by `(experiment, quick)`: a quick record diffs
//! against the quick baseline, never against the full-scale one. A file
//! holding two records under one key is an error, since either could be
//! the one compared.
//!
//! The comparison is closed-world: a baseline entry with no counterpart
//! in the current file, or a baseline metric a relative rule gates that
//! the matching current entry lacks, is a breach naming the entry or
//! metric. A run that stops recording something cannot pass by silence.
//!
//! # Budget rules
//!
//! A [`BudgetRule`] selects metrics by substring match on the experiment
//! name and the metric name (with an optional disqualifying substring)
//! and applies one of three checks:
//!
//! * [`RuleKind::MaxRegressionPct`] — lower-is-better latencies: breach
//!   when `current > baseline × (1 + limit/100)`.
//! * [`RuleKind::MaxDropPct`] — higher-is-better throughput/quality
//!   floors: breach when `current < baseline × (1 - limit/100)`.
//! * [`RuleKind::MaxValue`] — absolute ceilings evaluated on the current
//!   file alone (no baseline entry needed), e.g. quarantined-cell counts.
//!
//! The default rule set (see [`default_rules`]) reproduces the historic
//! `bench_compare` gate — +25% on the `_ns` latency metrics of
//! `medium_microbench` / `dense_city_scaling`, `nocull` contrast columns
//! exempt — and adds PDR/utilization floors plus a zero ceiling on
//! `quarantined_cells`. `--rules FILE` replaces it with a JSON list; see
//! `docs/ANALYTICS.md` for the format.

use std::fmt::Write as _;

use bicord_metrics::table::{fmt1, TextTable};
use bicord_sim::json::{self, Json};

/// Default regression threshold for the latency rules, percent.
pub const DEFAULT_THRESHOLD_PCT: f64 = 25.0;

/// Default allowed drop for higher-is-better metrics, percent. The gated
/// quality metrics (PDR, utilization) are deterministic for a seeded run,
/// so any real drop is a behavior change; 5% only absorbs float
/// formatting drift.
pub const DEFAULT_DROP_PCT: f64 = 5.0;

/// One parsed `BENCH_results.json` entry.
#[derive(Debug, Clone)]
pub struct BenchEntry {
    /// Experiment name (`"medium_microbench"`, ...).
    pub experiment: String,
    /// Whether the record came from a `--quick` run.
    pub quick: bool,
    /// The record in the recorder's single-line layout, for `--bless`.
    pub line: String,
    /// The flat metrics map (non-finite values dropped).
    pub metrics: Vec<(String, f64)>,
}

impl BenchEntry {
    /// The `(experiment, quick)` identity used for matching.
    fn key(&self) -> (&str, bool) {
        (&self.experiment, self.quick)
    }

    /// Display label: `experiment`, plus `:quick` for quick-mode
    /// records, so same-experiment rows stay tellable apart in reports.
    fn label(&self) -> String {
        if self.quick {
            format!("{}:quick", self.experiment)
        } else {
            self.experiment.clone()
        }
    }
}

/// Parses a results file: a JSON array of records, as
/// `PerfRecorder::merge_record` writes it. Any valid JSON layout is
/// read; a record lacking `experiment`, `quick` or `metrics`, or with a
/// field of the wrong type, is an error naming the record, and so is a
/// second record with an earlier record's `(experiment, quick)` key.
/// `null` (non-finite) metrics are dropped.
pub fn parse_bench_file(text: &str) -> Result<Vec<BenchEntry>, String> {
    let doc = json::parse(text)?;
    let records = doc.as_array().ok_or("not a JSON array of records")?;
    let mut entries: Vec<BenchEntry> = Vec::with_capacity(records.len());
    for (i, record) in records.iter().enumerate() {
        let entry = bench_entry(record).map_err(|e| format!("record {}: {e}", i + 1))?;
        if entries.iter().any(|e| e.key() == entry.key()) {
            return Err(format!(
                "record {}: duplicate key (experiment \"{}\", quick {})",
                i + 1,
                entry.experiment,
                entry.quick
            ));
        }
        entries.push(entry);
    }
    Ok(entries)
}

fn bench_entry(record: &Json) -> Result<BenchEntry, String> {
    let field = |key: &str| record.get(key).ok_or_else(|| format!("no \"{key}\" field"));
    let experiment = field("experiment")?
        .as_str()
        .ok_or("\"experiment\" is not a string")?;
    let Json::Bool(quick) = field("quick")? else {
        return Err("\"quick\" is not a bool".to_string());
    };
    let metrics = field("metrics")?
        .as_object()
        .ok_or("\"metrics\" is not an object")?
        .iter()
        .filter(|(_, value)| *value != Json::Null)
        .map(|(name, value)| match value.as_f64() {
            Some(v) => Ok((name.clone(), v)),
            None => Err(format!("metric \"{name}\" is not a number")),
        })
        .collect::<Result<_, _>>()?;
    Ok(BenchEntry {
        experiment: experiment.to_string(),
        quick: *quick,
        line: record.to_string(),
        metrics,
    })
}

/// The check a [`BudgetRule`] applies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RuleKind {
    /// Lower-is-better: breach when current exceeds baseline by more
    /// than `limit` percent.
    MaxRegressionPct,
    /// Higher-is-better: breach when current falls below baseline by
    /// more than `limit` percent.
    MaxDropPct,
    /// Absolute ceiling on the current value (baseline not consulted).
    MaxValue,
}

impl RuleKind {
    /// The identifier used in the JSON rules file.
    pub fn name(&self) -> &'static str {
        match self {
            RuleKind::MaxRegressionPct => "max_regression_pct",
            RuleKind::MaxDropPct => "max_drop_pct",
            RuleKind::MaxValue => "max_value",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "max_regression_pct" => Some(RuleKind::MaxRegressionPct),
            "max_drop_pct" => Some(RuleKind::MaxDropPct),
            "max_value" => Some(RuleKind::MaxValue),
            _ => None,
        }
    }
}

/// One per-metric threshold rule.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetRule {
    /// Substring match on the experiment name (empty = any experiment).
    pub experiment: String,
    /// Substring match on the metric name (empty = any metric).
    pub metric: String,
    /// Metrics containing this substring are exempt (empty = none).
    pub exclude: String,
    /// The check to apply.
    pub kind: RuleKind,
    /// The threshold (percent for the relative kinds, absolute for
    /// [`RuleKind::MaxValue`]).
    pub limit: f64,
}

impl BudgetRule {
    fn matches(&self, experiment: &str, metric: &str) -> bool {
        (self.experiment.is_empty() || experiment.contains(&self.experiment))
            && (self.metric.is_empty() || metric.contains(&self.metric))
            && (self.exclude.is_empty() || !metric.contains(&self.exclude))
    }

    /// Human-readable limit, e.g. `"<= +25%"` or `"<= 0"`.
    pub fn limit_text(&self) -> String {
        match self.kind {
            RuleKind::MaxRegressionPct => format!("<= +{:.0}%", self.limit),
            RuleKind::MaxDropPct => format!(">= -{:.0}%", self.limit),
            RuleKind::MaxValue => format!("<= {}", self.limit),
        }
    }
}

/// The built-in rule set. `threshold_pct` overrides the latency
/// regression limit (the historic `--threshold` flag).
pub fn default_rules(threshold_pct: f64) -> Vec<BudgetRule> {
    let latency = |experiment: &str| BudgetRule {
        experiment: experiment.to_string(),
        metric: "_ns".to_string(),
        exclude: "nocull".to_string(),
        kind: RuleKind::MaxRegressionPct,
        limit: threshold_pct,
    };
    vec![
        latency("medium_microbench"),
        latency("dense_city_scaling"),
        BudgetRule {
            experiment: String::new(),
            metric: "pdr".to_string(),
            exclude: String::new(),
            kind: RuleKind::MaxDropPct,
            limit: DEFAULT_DROP_PCT,
        },
        BudgetRule {
            experiment: String::new(),
            metric: "utilization".to_string(),
            exclude: String::new(),
            kind: RuleKind::MaxDropPct,
            limit: DEFAULT_DROP_PCT,
        },
        BudgetRule {
            experiment: String::new(),
            metric: "quarantined_cells".to_string(),
            exclude: String::new(),
            kind: RuleKind::MaxValue,
            limit: 0.0,
        },
    ]
}

/// The keys a rule object may hold.
const RULE_KEYS: [&str; 5] = ["experiment", "metric", "exclude", "rule", "limit"];

/// Parses a JSON rules file: an array of objects with string fields
/// `experiment`, `metric`, optional `exclude`, `rule` (one of
/// `max_regression_pct` / `max_drop_pct` / `max_value`) and a numeric
/// `limit`. Any other key is an error, so a misspelt filter cannot
/// silently gate nothing. See `docs/ANALYTICS.md` for examples.
pub fn parse_rules(text: &str) -> Result<Vec<BudgetRule>, String> {
    let doc = json::parse(text)?;
    let objects = doc.as_array().ok_or("not a JSON array of rule objects")?;
    if objects.is_empty() {
        return Err("rules file holds no rule objects".to_string());
    }
    objects
        .iter()
        .enumerate()
        .map(|(i, rule)| budget_rule(rule).map_err(|e| format!("rule {}: {e}", i + 1)))
        .collect()
}

fn budget_rule(rule: &Json) -> Result<BudgetRule, String> {
    let fields = rule.as_object().ok_or("not a JSON object")?;
    if let Some((key, _)) = fields
        .iter()
        .find(|(k, _)| !RULE_KEYS.contains(&k.as_str()))
    {
        return Err(format!(
            "unknown key \"{key}\" (valid: {})",
            RULE_KEYS.join(", ")
        ));
    }
    let text = |key: &str| match rule.get(key) {
        None => Ok(String::new()),
        Some(Json::Str(s)) => Ok(s.clone()),
        Some(_) => Err(format!("\"{key}\" is not a string")),
    };
    let kind_name = rule
        .get("rule")
        .and_then(Json::as_str)
        .ok_or("rule object lacks a \"rule\" string")?;
    let kind = RuleKind::parse(kind_name).ok_or_else(|| {
        format!(
            "unknown rule kind \"{kind_name}\" (valid: max_regression_pct, \
             max_drop_pct, max_value)"
        )
    })?;
    let limit = rule
        .get("limit")
        .and_then(Json::as_f64)
        .ok_or("rule object lacks a numeric \"limit\" field")?;
    Ok(BudgetRule {
        experiment: text("experiment")?,
        metric: text("metric")?,
        exclude: text("exclude")?,
        kind,
        limit,
    })
}

/// The verdict for one gated metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within budget.
    Ok,
    /// Budget breached.
    Breach,
}

/// One evaluated `(entry, metric)` pair.
#[derive(Debug, Clone)]
pub struct BudgetRow {
    /// `experiment` or `experiment:quick`.
    pub entry: String,
    /// Metric name.
    pub metric: String,
    /// Baseline value (`None` for [`RuleKind::MaxValue`] rows and
    /// missing-entry rows).
    pub baseline: Option<f64>,
    /// Current value (`None` when the current file lacks the baseline's
    /// entry or metric).
    pub current: Option<f64>,
    /// Relative change in percent (`None` for absolute-ceiling rows or a
    /// zero baseline).
    pub delta_pct: Option<f64>,
    /// The applied limit, human-readable.
    pub limit: String,
    /// Pass/fail for this metric.
    pub verdict: Verdict,
}

/// The full budget evaluation.
#[derive(Debug, Clone)]
pub struct BudgetReport {
    /// Every gated metric, in current-file order, then one breach row
    /// per baseline entry or gated baseline metric missing from the
    /// current file, in baseline order.
    pub rows: Vec<BudgetRow>,
    /// The latency threshold in effect (for the title line).
    pub threshold_pct: f64,
    /// Current-file entries with no matching baseline entry.
    pub unmatched: Vec<String>,
}

impl BudgetReport {
    /// The breached rows.
    pub fn breaches(&self) -> Vec<&BudgetRow> {
        self.rows
            .iter()
            .filter(|r| r.verdict == Verdict::Breach)
            .collect()
    }

    /// One-line descriptions of every breach, naming the metric.
    pub fn breach_lines(&self) -> Vec<String> {
        self.breaches()
            .iter()
            .map(|r| match (r.baseline, r.current, r.delta_pct) {
                (None, None, _) => format!("{}: baseline entry missing from current", r.entry),
                (Some(base), None, _) => format!(
                    "{}/{}: baseline {} missing from current (budget {})",
                    r.entry,
                    r.metric,
                    fmt1(base),
                    r.limit
                ),
                (Some(base), Some(cur), Some(delta)) => format!(
                    "{}/{}: {} -> {} ({delta:+.1}%, budget {})",
                    r.entry,
                    r.metric,
                    fmt1(base),
                    fmt1(cur),
                    r.limit
                ),
                (_, Some(cur), _) => format!(
                    "{}/{}: {} (budget {})",
                    r.entry,
                    r.metric,
                    fmt1(cur),
                    r.limit
                ),
            })
            .collect()
    }

    /// Renders the aligned text report with a PASS/FAIL trailer.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let mut table = TextTable::new(vec![
            "entry", "metric", "baseline", "current", "delta %", "budget", "verdict",
        ]);
        table.title(format!(
            "diff-bench — perf budget (latency threshold +{:.0}%)",
            self.threshold_pct
        ));
        for r in &self.rows {
            table.row(row_cells(r));
        }
        let _ = writeln!(out, "{table}");
        for entry in &self.unmatched {
            let _ = writeln!(
                out,
                "diff-bench: note — no baseline entry for {entry}, relative rules skipped"
            );
        }
        let breaches = self.breach_lines();
        if breaches.is_empty() {
            let _ = writeln!(
                out,
                "diff-bench: PASS — {} metric(s) within budget",
                self.rows.len()
            );
        } else {
            let _ = writeln!(
                out,
                "diff-bench: FAIL — {} of {} metric(s) breached the budget:",
                breaches.len(),
                self.rows.len()
            );
            for b in &breaches {
                let _ = writeln!(out, "  {b}");
            }
        }
        out
    }

    /// Renders the report as a markdown document (the CI `perf-budget`
    /// artifact).
    pub fn render_markdown(&self) -> String {
        let mut out = String::from("# Perf budget report\n\n");
        let breaches = self.breach_lines();
        if breaches.is_empty() {
            let _ = writeln!(
                out,
                "**PASS** — {} gated metric(s) within budget.\n",
                self.rows.len()
            );
        } else {
            let _ = writeln!(
                out,
                "**FAIL** — {} of {} gated metric(s) breached the budget:\n",
                breaches.len(),
                self.rows.len()
            );
            for b in &breaches {
                let _ = writeln!(out, "- `{b}`");
            }
            out.push('\n');
        }
        out.push_str("| entry | metric | baseline | current | delta % | budget | verdict |\n");
        out.push_str("|---|---|---|---|---|---|---|\n");
        for r in &self.rows {
            let _ = writeln!(out, "| {} |", row_cells(r).join(" | "));
        }
        if !self.unmatched.is_empty() {
            out.push('\n');
            for entry in &self.unmatched {
                let _ = writeln!(
                    out,
                    "*No baseline entry for `{entry}`; relative rules skipped.*"
                );
            }
        }
        out
    }
}

fn row_cells(r: &BudgetRow) -> Vec<String> {
    vec![
        r.entry.clone(),
        r.metric.clone(),
        r.baseline.map(fmt1).unwrap_or_else(|| "-".to_string()),
        r.current.map(fmt1).unwrap_or_else(|| "missing".to_string()),
        r.delta_pct
            .map(|d| format!("{d:+.1}"))
            .unwrap_or_else(|| "-".to_string()),
        r.limit.clone(),
        match r.verdict {
            Verdict::Ok => "ok".to_string(),
            Verdict::Breach => "BREACH".to_string(),
        },
    ]
}

/// Evaluates `current` against `baseline` under `rules`.
///
/// Every current-file metric is gated by the *first* rule that matches
/// it, so specific rules should precede catch-alls in a custom rules
/// file. A baseline entry absent from `current`, or a baseline metric
/// gated by a relative rule and absent from its current entry, is a
/// breach row.
pub fn evaluate(
    baseline: &[BenchEntry],
    current: &[BenchEntry],
    rules: &[BudgetRule],
    threshold_pct: f64,
) -> BudgetReport {
    let mut rows = Vec::new();
    let mut unmatched = Vec::new();
    for cur in current {
        let base = baseline.iter().find(|b| b.key() == cur.key());
        let mut needed_baseline = false;
        for (metric, cur_v) in &cur.metrics {
            let Some(rule) = rules.iter().find(|r| r.matches(&cur.experiment, metric)) else {
                continue;
            };
            match rule.kind {
                RuleKind::MaxValue => {
                    rows.push(BudgetRow {
                        entry: cur.label(),
                        metric: metric.clone(),
                        baseline: None,
                        current: Some(*cur_v),
                        delta_pct: None,
                        limit: rule.limit_text(),
                        verdict: if *cur_v > rule.limit {
                            Verdict::Breach
                        } else {
                            Verdict::Ok
                        },
                    });
                }
                RuleKind::MaxRegressionPct | RuleKind::MaxDropPct => {
                    let Some(base) = base else {
                        needed_baseline = true;
                        continue;
                    };
                    let Some((_, base_v)) = base.metrics.iter().find(|(n, _)| n == metric) else {
                        continue;
                    };
                    let delta_pct = (*base_v != 0.0).then(|| 100.0 * (cur_v - base_v) / base_v);
                    let breached = match rule.kind {
                        RuleKind::MaxRegressionPct => *cur_v > base_v * (1.0 + rule.limit / 100.0),
                        _ => *cur_v < base_v * (1.0 - rule.limit / 100.0),
                    };
                    rows.push(BudgetRow {
                        entry: cur.label(),
                        metric: metric.clone(),
                        baseline: Some(*base_v),
                        current: Some(*cur_v),
                        delta_pct,
                        limit: rule.limit_text(),
                        verdict: if breached {
                            Verdict::Breach
                        } else {
                            Verdict::Ok
                        },
                    });
                }
            }
        }
        if needed_baseline {
            unmatched.push(cur.label());
        }
    }
    for base in baseline {
        let missing = |metric: String, baseline: Option<f64>, limit: String| BudgetRow {
            entry: base.label(),
            metric,
            baseline,
            current: None,
            delta_pct: None,
            limit,
            verdict: Verdict::Breach,
        };
        let Some(cur) = current.iter().find(|c| c.key() == base.key()) else {
            rows.push(missing("-".to_string(), None, "present".to_string()));
            continue;
        };
        for (metric, base_v) in &base.metrics {
            let relative_rule = rules
                .iter()
                .find(|r| r.matches(&base.experiment, metric))
                .filter(|r| r.kind != RuleKind::MaxValue);
            if let Some(rule) = relative_rule {
                if !cur.metrics.iter().any(|(n, _)| n == metric) {
                    rows.push(missing(metric.clone(), Some(*base_v), rule.limit_text()));
                }
            }
        }
    }
    BudgetReport {
        rows,
        threshold_pct,
        unmatched,
    }
}

/// The `--bless` payload: the current entries worth baselining — those
/// with at least one metric gated by a *relative* rule (absolute-ceiling
/// rules need no baseline).
pub fn blessable<'a>(current: &'a [BenchEntry], rules: &[BudgetRule]) -> Vec<&'a BenchEntry> {
    current
        .iter()
        .filter(|e| {
            e.metrics.iter().any(|(name, _)| {
                rules
                    .iter()
                    .find(|r| r.matches(&e.experiment, name))
                    .is_some_and(|r| r.kind != RuleKind::MaxValue)
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = "{\"experiment\": \"dense_city_scaling\", \"quick\": true, \
         \"threads\": 8, \"cells\": 3, \"wall_ms\": 42.5, \"metrics\": \
         {\"sensed_ns_100\": 236.2, \"sensed_nocull_ns_100\": 485.8, \
         \"broken\": null, \"sensed_flatness\": 1.74}}";

    const MULTI_NODE: &str = "{\"experiment\": \"multi_node\", \"quick\": true, \
         \"threads\": 1, \"cells\": 3, \"wall_ms\": 9.5, \
         \"metrics\": {\"mean_aggregate_pdr\": 0.92, \"quarantined_cells\": 0}}";

    fn file(lines: &[&str]) -> Vec<BenchEntry> {
        parse_bench_file(&format!("[\n{}\n]\n", lines.join(",\n"))).unwrap()
    }

    #[test]
    fn parses_recorder_lines() {
        let entries = file(&[LINE, &LINE.replace("\"quick\": true", "\"quick\": false")]);
        assert_eq!(entries.len(), 2);
        assert!(!entries[1].quick);
        let e = &entries[0];
        assert_eq!(e.experiment, "dense_city_scaling");
        assert!(e.quick);
        // `null` metrics are dropped; finite ones keep their values —
        // including the final metric, right against the closing braces.
        assert_eq!(
            e.metrics,
            vec![
                ("sensed_ns_100".to_string(), 236.2),
                ("sensed_nocull_ns_100".to_string(), 485.8),
                ("sensed_flatness".to_string(), 1.74),
            ]
        );
    }

    #[test]
    fn duplicate_keys_are_errors() {
        let text = |lines: &[&str]| format!("[\n{}\n]\n", lines.join(",\n"));
        let err = parse_bench_file(&text(&[LINE, MULTI_NODE, LINE])).unwrap_err();
        assert!(
            err.contains("record 3") && err.contains("\"dense_city_scaling\", quick true"),
            "{err}"
        );
        // Records an older recorder tagged with a shard share one key.
        let shard = |k: &str| {
            MULTI_NODE.replace("\"threads\"", &format!("\"shard\": \"{k}\", \"threads\""))
        };
        assert!(parse_bench_file(&text(&[&shard("1/2"), &shard("2/2")])).is_err());
        // The same experiment at the other scale is a different key.
        let full = LINE.replace("\"quick\": true", "\"quick\": false");
        let entries = file(&[LINE, &full]);
        assert_eq!(entries[0].label(), "dense_city_scaling:quick");
        assert_eq!(entries[1].label(), "dense_city_scaling");
        assert_ne!(entries[0].key(), entries[1].key());
    }

    #[test]
    fn default_rules_reproduce_the_bench_compare_gate() {
        let rules = default_rules(25.0);
        let gated = |exp: &str, metric: &str| {
            rules
                .iter()
                .find(|r| r.matches(exp, metric))
                .map(|r| r.kind)
        };
        assert_eq!(
            gated("dense_city_scaling", "sensed_ns_100"),
            Some(RuleKind::MaxRegressionPct)
        );
        assert_eq!(
            gated("medium_microbench", "medium_sensed_power_8tx_ns_per_iter"),
            Some(RuleKind::MaxRegressionPct)
        );
        assert_eq!(gated("dense_city_scaling", "sensed_nocull_ns_100"), None);
        assert_eq!(gated("dense_city_scaling", "sensed_flatness"), None);
        assert_eq!(gated("dense_city_scaling", "run_ms_100"), None);
        assert_eq!(
            gated("multi_node", "mean_aggregate_pdr"),
            Some(RuleKind::MaxDropPct)
        );
        assert_eq!(
            gated("robustness_sweep", "worst_rate_utilization"),
            Some(RuleKind::MaxDropPct)
        );
        assert_eq!(
            gated("anything", "quarantined_cells"),
            Some(RuleKind::MaxValue)
        );
    }

    #[test]
    fn latency_regression_breaches_and_names_the_metric() {
        let baseline = file(&[LINE]);
        let current = file(&[&LINE.replace("236.2", "400.0")]);
        let report = evaluate(&baseline, &current, &default_rules(25.0), 25.0);
        let breaches = report.breach_lines();
        assert_eq!(breaches.len(), 1);
        assert!(breaches[0].contains("sensed_ns_100"), "{breaches:?}");
        assert!(breaches[0].contains("+69.3%"), "{breaches:?}");
        assert!(report.render_text().contains("FAIL"));
        assert!(report.render_markdown().contains("**FAIL**"));
    }

    #[test]
    fn improvement_and_nocull_growth_pass() {
        let baseline = file(&[LINE]);
        // Gated metric improves; the exempt nocull column explodes.
        let current = file(&[&LINE.replace("236.2", "100.0").replace("485.8", "9999.0")]);
        let report = evaluate(&baseline, &current, &default_rules(25.0), 25.0);
        assert!(report.breaches().is_empty(), "{:?}", report.breach_lines());
        assert!(report.render_text().contains("PASS"));
    }

    #[test]
    fn throughput_floor_and_quarantine_ceiling() {
        let baseline = file(&[MULTI_NODE]);
        let dropped = MULTI_NODE
            .replace("0.92", "0.80")
            .replace("\"quarantined_cells\": 0", "\"quarantined_cells\": 2");
        let current = file(&[&dropped]);
        let report = evaluate(&baseline, &current, &default_rules(25.0), 25.0);
        let breaches = report.breach_lines();
        assert_eq!(breaches.len(), 2, "{breaches:?}");
        assert!(breaches.iter().any(|b| b.contains("mean_aggregate_pdr")));
        assert!(breaches.iter().any(|b| b.contains("quarantined_cells")));
        // The ceiling row needs no baseline.
        let report = evaluate(&[], &current, &default_rules(25.0), 25.0);
        assert_eq!(report.breach_lines().len(), 1);
        assert!(report.breach_lines()[0].contains("quarantined_cells"));
    }

    #[test]
    fn a_baseline_entry_missing_from_current_breaches_naming_it() {
        let full = LINE.replace("\"quick\": true", "\"quick\": false");
        let baseline = file(&[LINE, &full, MULTI_NODE]);
        // The full-scale record is gone; the other two are unchanged.
        let current = file(&[LINE, MULTI_NODE]);
        let report = evaluate(&baseline, &current, &default_rules(25.0), 25.0);
        let breaches = report.breach_lines();
        assert_eq!(
            breaches,
            vec!["dense_city_scaling: baseline entry missing from current"]
        );
        assert!(report.render_text().contains("FAIL"));
        assert!(report.render_markdown().contains("**FAIL**"));
    }

    #[test]
    fn a_gated_baseline_metric_missing_from_current_breaches_naming_it() {
        let baseline = file(&[LINE]);
        // The gated latency metric and the ungated flatness metric are
        // gone; only the gated one is a gap.
        let current = file(&[&LINE
            .replace("\"sensed_ns_100\": 236.2, ", "")
            .replace(", \"sensed_flatness\": 1.74", "")]);
        let report = evaluate(&baseline, &current, &default_rules(25.0), 25.0);
        let breaches = report.breach_lines();
        assert_eq!(breaches.len(), 1, "{breaches:?}");
        assert!(
            breaches[0].contains("dense_city_scaling:quick/sensed_ns_100")
                && breaches[0].contains("missing"),
            "{breaches:?}"
        );
    }

    #[test]
    fn rules_file_round_trip() {
        let text = r#"[
  {"experiment": "medium_microbench", "metric": "_ns", "exclude": "nocull",
   "rule": "max_regression_pct", "limit": 10},
  {"metric": "quarantined_cells", "rule": "max_value", "limit": 0}
]"#;
        let rules = parse_rules(text).unwrap();
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].kind, RuleKind::MaxRegressionPct);
        assert_eq!(rules[0].limit, 10.0);
        assert_eq!(rules[0].exclude, "nocull");
        assert_eq!(rules[1].kind, RuleKind::MaxValue);
        assert_eq!(rules[1].experiment, "");

        assert!(parse_rules("[]").is_err());
        assert!(parse_rules("[{\"rule\": \"warp\", \"limit\": 1}]").is_err());
        assert!(parse_rules("[{\"metric\": \"x\"}]").is_err());
        let misspelt = parse_rules(
            "[{\"metric\": \"_ns\", \"exlude\": \"nocull\", \
             \"rule\": \"max_value\", \"limit\": 1}]",
        )
        .unwrap_err();
        assert!(
            misspelt.contains("rule 1") && misspelt.contains("exlude"),
            "{misspelt}"
        );
    }

    #[test]
    fn malformed_results_are_errors_not_empty_files() {
        assert!(parse_bench_file("").is_err());
        assert!(parse_bench_file("{}").unwrap_err().contains("array"));
        let no_quick = "[{\"experiment\": \"x\", \"metrics\": {}}]";
        let err = parse_bench_file(no_quick).unwrap_err();
        assert!(err.contains("record 1") && err.contains("quick"), "{err}");
        let text_metric = LINE.replace("236.2", "\"fast\"");
        let err = parse_bench_file(&format!("[{text_metric}]")).unwrap_err();
        assert!(err.contains("sensed_ns_100"), "{err}");
    }

    #[test]
    fn entry_lines_render_in_the_recorder_layout() {
        let compact = MULTI_NODE.replace("\": ", "\":").replace(", \"", ",\"");
        assert_eq!(file(&[&compact])[0].line, MULTI_NODE);
    }

    #[test]
    fn bless_selects_relative_rule_targets_only() {
        let no_gated = "{\"experiment\": \"cti_accuracy\", \"quick\": false, \
             \"threads\": 1, \"cells\": 4, \"wall_ms\": 18.5, \"metrics\": {}}";
        let entries = file(&[LINE, MULTI_NODE, no_gated]);
        let names: Vec<String> = blessable(&entries, &default_rules(25.0))
            .iter()
            .map(|e| e.label())
            .collect();
        assert_eq!(names, vec!["dense_city_scaling:quick", "multi_node:quick"]);
    }
}
