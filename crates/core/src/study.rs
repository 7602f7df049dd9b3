//! The full 36-workload study behind the paper's Figures 5–6 and the
//! Table V model-accuracy evaluation.

use std::collections::BTreeMap;

use ggs_apps::AppKind;
use ggs_model::SystemConfig;

use crate::error::GgsError;
use crate::json::{self, Value};
use crate::runner::{CellReport, CellStatus};
use crate::sweep::figure5_configs;

/// Which configuration set a study sweeps per workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigSet {
    /// The sets shown in Figure 5: 5 configurations for static
    /// workloads, 4 for CC (dominated points omitted, as in the paper).
    Figure5,
    /// Every configuration of the design space: 12 static / 6 dynamic.
    Full,
}

impl ConfigSet {
    /// The configurations this set runs for `app`, in job order.
    pub(crate) fn configs_for(self, app: AppKind) -> Vec<SystemConfig> {
        match self {
            ConfigSet::Figure5 => figure5_configs(app),
            ConfigSet::Full => SystemConfig::all_for(app.algo_profile().traversal),
        }
    }
}

/// Serializable per-configuration result row.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRow {
    /// Configuration code (`SGR`, `TG0`, …).
    pub config: String,
    /// GPU execution time in cycles.
    pub total_cycles: u64,
    /// Stall-class fractions in Figure 5 order
    /// (Busy, Comp, Data, Sync, Idle).
    pub fractions: [f64; 5],
}

impl ResultRow {
    /// Adds the row's `config`, `total_cycles` and `fractions` fields to
    /// `obj`: the one encoding of a row, shared by the study JSON and
    /// the result store's records.
    pub(crate) fn write_fields(&self, obj: &mut BTreeMap<String, Value>) {
        let fractions = self.fractions.iter().map(|&f| Value::Number(f)).collect();
        obj.insert("config".to_owned(), Value::String(self.config.clone()));
        obj.insert(
            "total_cycles".to_owned(),
            Value::Number(self.total_cycles as f64),
        );
        obj.insert("fractions".to_owned(), Value::Array(fractions));
    }

    /// Reads the fields [`ResultRow::write_fields`] wrote into `v`.
    pub(crate) fn read_fields(v: &Value) -> Result<Self, String> {
        let fracs = v
            .get("fractions")
            .and_then(Value::as_array)
            .ok_or("missing array field \"fractions\"")?;
        let mut fractions = [0.0f64; 5];
        if fracs.len() != fractions.len() {
            return Err(format!("expected 5 fractions, got {}", fracs.len()));
        }
        for (slot, frac) in fractions.iter_mut().zip(fracs) {
            *slot = frac.as_f64().ok_or("non-numeric fraction")?;
        }
        Ok(ResultRow {
            config: str_field(v, "config")?,
            total_cycles: v
                .get("total_cycles")
                .and_then(Value::as_u64)
                .ok_or("missing integer field \"total_cycles\"")?,
            fractions,
        })
    }
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

/// Serializable report for one workload (one Figure 5 group).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadReport {
    /// Application mnemonic.
    pub app: String,
    /// Graph mnemonic.
    pub graph: String,
    /// Volume/Reuse/Imbalance class letters (Table II).
    pub classes: String,
    /// Configuration predicted by the full model (Table V).
    pub predicted: String,
    /// Configuration predicted by the partial (no-DRFrlx) model.
    pub predicted_partial: String,
    /// Empirically best configuration in the sweep.
    pub best: String,
    /// The Figure 5 normalization baseline (TG0 / DG1).
    pub baseline: String,
    /// Per-configuration results.
    pub rows: Vec<ResultRow>,
}

impl WorkloadReport {
    /// Cycles of a configuration, if swept.
    pub fn cycles_of(&self, code: &str) -> Option<u64> {
        self.rows
            .iter()
            .find(|r| r.config == code)
            .map(|r| r.total_cycles)
    }

    /// Execution time of `code` normalized to the baseline, or `None`
    /// when either row is missing — which happens in degraded studies
    /// where a cell failed or timed out (see `docs/robustness.md`).
    pub fn normalized(&self, code: &str) -> Option<f64> {
        let base = self.cycles_of(&self.baseline)? as f64;
        Some(self.cycles_of(code)? as f64 / base)
    }

    /// Relative slowdown of the model's prediction versus the empirical
    /// best (0.0 when the model picked the best), or `None` when either
    /// row is missing from a degraded study.
    pub fn prediction_slowdown(&self) -> Option<f64> {
        let best = self.cycles_of(&self.best)? as f64;
        let pred = self.cycles_of(&self.predicted)? as f64;
        Some(pred / best - 1.0)
    }

    /// The default configuration Figure 6 compares against: `SGR` for
    /// static workloads, `DGR` for CC.
    pub fn default_config(&self) -> &'static str {
        if self.app == "CC" {
            "DGR"
        } else {
            "SGR"
        }
    }

    /// Fractional execution-time reduction of BEST versus the default
    /// configuration (Figure 6's headline metric); 0 when the default
    /// is already best, `None` when either row is missing from a
    /// degraded study.
    pub fn best_reduction_vs_default(&self) -> Option<f64> {
        let def = self.cycles_of(self.default_config())? as f64;
        let best = self.cycles_of(&self.best)? as f64;
        Some((1.0 - best / def).max(0.0))
    }

    /// The fastest configuration without DRFrlx hardware (a code not
    /// ending in `R`), or `None` when a degraded study lost every such
    /// row.
    pub fn best_without_drfrlx(&self) -> Option<&str> {
        self.rows
            .iter()
            .filter(|r| !r.config.ends_with('R'))
            .min_by_key(|r| r.total_cycles)
            .map(|r| r.config.as_str())
    }

    /// Whether the best configuration is push (`S*`) with DRFrlx but
    /// pull (`T*`) without it: the push/pull flip of §IV-B.
    pub fn flips_to_pull_without_drfrlx(&self) -> bool {
        self.best.starts_with('S')
            && self
                .best_without_drfrlx()
                .is_some_and(|c| c.starts_with('T'))
    }
}

/// The complete study: every preset × application.
#[derive(Debug, Clone, PartialEq)]
pub struct Study {
    /// Scale the inputs were generated at.
    pub scale: f64,
    /// One report per workload, in (graph, app) order. Workloads whose
    /// every cell failed are absent (see `failures`).
    pub reports: Vec<WorkloadReport>,
    /// Cells that failed or timed out; empty for a clean run (see
    /// [`crate::runner`]). Studies are produced by
    /// [`run_study`](crate::runner::run_study).
    pub failures: Vec<CellReport>,
}

impl Study {
    /// The report for one workload.
    pub fn report(&self, graph: &str, app: &str) -> Option<&WorkloadReport> {
        self.reports
            .iter()
            .find(|r| r.graph == graph && r.app == app)
    }

    /// Number of workloads where the full model picked exactly the
    /// empirical best (the paper reports 28 of 36).
    pub fn exact_predictions(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| r.predicted == r.best)
            .count()
    }

    /// Largest prediction slowdown across all workloads (the paper
    /// reports ≤ 3.5%). Workloads whose best or predicted row is
    /// missing (degraded studies) are skipped rather than panicking.
    pub fn worst_prediction_slowdown(&self) -> f64 {
        self.reports
            .iter()
            .filter_map(WorkloadReport::prediction_slowdown)
            .fold(0.0, f64::max)
    }

    /// Number of workloads whose best configuration flips from push to
    /// pull when DRFrlx is unavailable (the paper reports 7; see
    /// [`WorkloadReport::flips_to_pull_without_drfrlx`]).
    pub fn pull_flips_without_drfrlx(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| r.flips_to_pull_without_drfrlx())
            .count()
    }

    /// The Figure 6 rows: workloads where the default configuration
    /// (SGR, or DGR for CC) is *not* the empirical best, with the
    /// fractional reduction BEST achieves. Workloads whose default or
    /// best row is missing (degraded studies) are skipped.
    pub fn figure6_rows(&self) -> Vec<(&WorkloadReport, f64)> {
        self.reports
            .iter()
            .filter(|r| r.best != r.default_config())
            .filter_map(|r| r.best_reduction_vs_default().map(|red| (r, red)))
            .collect()
    }

    /// Serializes the study as single-line JSON.
    pub fn to_json(&self) -> String {
        self.to_value().to_string_compact()
    }

    /// Serializes the study as indented JSON.
    pub fn to_json_pretty(&self) -> String {
        self.to_value().to_string_pretty()
    }

    fn to_value(&self) -> Value {
        let reports = self
            .reports
            .iter()
            .map(|r| {
                let rows = r
                    .rows
                    .iter()
                    .map(|row| {
                        let mut obj = BTreeMap::new();
                        row.write_fields(&mut obj);
                        Value::Object(obj)
                    })
                    .collect();
                Value::Object(BTreeMap::from([
                    ("app".to_owned(), Value::String(r.app.clone())),
                    ("graph".to_owned(), Value::String(r.graph.clone())),
                    ("classes".to_owned(), Value::String(r.classes.clone())),
                    ("predicted".to_owned(), Value::String(r.predicted.clone())),
                    (
                        "predicted_partial".to_owned(),
                        Value::String(r.predicted_partial.clone()),
                    ),
                    ("best".to_owned(), Value::String(r.best.clone())),
                    ("baseline".to_owned(), Value::String(r.baseline.clone())),
                    ("rows".to_owned(), Value::Array(rows)),
                ]))
            })
            .collect();
        let failures = self
            .failures
            .iter()
            .map(|c| {
                Value::Object(BTreeMap::from([
                    ("app".to_owned(), Value::String(c.app.clone())),
                    ("graph".to_owned(), Value::String(c.graph.clone())),
                    ("config".to_owned(), Value::String(c.config.clone())),
                    (
                        "status".to_owned(),
                        Value::String(c.status.name().to_owned()),
                    ),
                    ("detail".to_owned(), Value::String(c.detail.clone())),
                    ("attempts".to_owned(), Value::Number(f64::from(c.attempts))),
                ]))
            })
            .collect();
        Value::Object(BTreeMap::from([
            ("scale".to_owned(), Value::Number(self.scale)),
            ("reports".to_owned(), Value::Array(reports)),
            ("failures".to_owned(), Value::Array(failures)),
        ]))
    }

    /// Parses a study serialized by [`Study::to_json`] /
    /// [`Study::to_json_pretty`].
    ///
    /// # Errors
    ///
    /// Returns [`GgsError::Json`] on malformed JSON or a
    /// missing/ill-typed field.
    pub fn from_json(text: &str) -> Result<Self, GgsError> {
        Self::from_json_inner(text).map_err(GgsError::Json)
    }

    fn from_json_inner(text: &str) -> Result<Self, String> {
        let root = json::parse(text)?;
        let scale = root
            .get("scale")
            .and_then(Value::as_f64)
            .ok_or("missing number field \"scale\"")?;
        let mut reports = Vec::new();
        for r in root
            .get("reports")
            .and_then(Value::as_array)
            .ok_or("missing array field \"reports\"")?
        {
            let rows = r
                .get("rows")
                .and_then(Value::as_array)
                .ok_or("missing array field \"rows\"")?
                .iter()
                .map(ResultRow::read_fields)
                .collect::<Result<Vec<_>, _>>()?;
            reports.push(WorkloadReport {
                app: str_field(r, "app")?,
                graph: str_field(r, "graph")?,
                classes: str_field(r, "classes")?,
                predicted: str_field(r, "predicted")?,
                predicted_partial: str_field(r, "predicted_partial")?,
                best: str_field(r, "best")?,
                baseline: str_field(r, "baseline")?,
                rows,
            });
        }
        // Absent in pre-robustness serializations; default to a clean
        // run so old files keep loading.
        let mut failures = Vec::new();
        if let Some(list) = root.get("failures").and_then(Value::as_array) {
            for c in list {
                let status_name = str_field(c, "status")?;
                let attempts = c
                    .get("attempts")
                    .and_then(Value::as_u64)
                    .ok_or("missing integer field \"attempts\"")?;
                failures.push(CellReport {
                    app: str_field(c, "app")?,
                    graph: str_field(c, "graph")?,
                    config: str_field(c, "config")?,
                    status: CellStatus::from_name(&status_name)
                        .ok_or_else(|| format!("unknown cell status {status_name:?}"))?,
                    detail: str_field(c, "detail")?,
                    attempts: u32::try_from(attempts)
                        .map_err(|_| format!("field \"attempts\" exceeds u32: {attempts}"))?,
                });
            }
        }
        Ok(Self {
            scale,
            reports,
            failures,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentSpec;
    use crate::runner::{run_study, StudyOptions};
    use ggs_trace::MetricsRegistry;

    fn tiny_study(threads: usize, metrics: &MetricsRegistry) -> Study {
        let spec = ExperimentSpec::builder().scale(0.004).build().unwrap();
        let options = StudyOptions::new(ConfigSet::Figure5, threads);
        run_study(&spec, &options, metrics, &ggs_trace::NOOP)
            .unwrap()
            .study
    }

    /// A tiny smoke study; the full-scale study is exercised by the
    /// repro harness and integration tests.
    #[test]
    fn tiny_study_runs_and_serializes() {
        let study = tiny_study(8, &MetricsRegistry::new());
        assert_eq!(study.reports.len(), 36);
        for r in &study.reports {
            assert!(!r.rows.is_empty());
            assert!(r.cycles_of(&r.best).unwrap() > 0);
            assert!(r.cycles_of(&r.baseline).is_some());
        }
        let json = study.to_json();
        let back = Study::from_json(&json).unwrap();
        // Shortest-roundtrip float formatting makes the whole cycle
        // lossless, so the comparison can be exact.
        assert_eq!(back, study);
        let pretty = Study::from_json(&study.to_json_pretty()).unwrap();
        assert_eq!(pretty, study);
    }

    #[test]
    fn run_with_metrics_records_phases_and_counters() {
        let metrics = MetricsRegistry::new();
        let study = tiny_study(4, &metrics);
        assert_eq!(study.reports.len(), 36);
        assert_eq!(metrics.counter("workloads_simulated"), 36);
        assert!(metrics.counter("configs_simulated") > 36);
        let phases: Vec<String> = metrics.spans().iter().map(|s| s.name.clone()).collect();
        for phase in ["generate_inputs", "simulate", "aggregate"] {
            assert!(phases.contains(&phase.to_string()), "missing phase {phase}");
        }
        let hist = metrics
            .histograms()
            .into_iter()
            .find(|(n, _)| n == "config_total_cycles")
            .expect("cycle histogram recorded")
            .1;
        assert!(hist.count > 0 && hist.min > 0);
        let windows = metrics
            .histograms()
            .into_iter()
            .find(|(n, _)| n == "window_peak_bytes")
            .expect("window bytes recorded")
            .1;
        // One observation per stream group that simulated.
        assert_eq!(windows.count, metrics.counter("streams_built"));
        assert!(windows.min > 0);
    }

    #[test]
    fn from_json_rejects_malformed_input_with_typed_error() {
        let err = Study::from_json("{not json").unwrap_err();
        assert!(matches!(err, crate::error::GgsError::Json(_)));
        let err = Study::from_json("{\"scale\": 1.0}").unwrap_err();
        assert!(err.to_string().contains("reports"));
    }

    #[test]
    fn from_json_rejects_attempts_past_u32() {
        // 2^32 + 1 must not load as 1.
        let failure = |attempts: &str| {
            format!(
                "{{\"scale\": 1.0, \"reports\": [], \"failures\": [{{\"app\": \"PR\", \
                 \"graph\": \"AMZ\", \"config\": \"SGR\", \"status\": \"failed\", \
                 \"detail\": \"x\", \"attempts\": {attempts}}}]}}"
            )
        };
        let study = Study::from_json(&failure("4294967295")).unwrap();
        assert_eq!(study.failures[0].attempts, u32::MAX);
        let err = Study::from_json(&failure("4294967297")).unwrap_err();
        assert!(matches!(err, crate::error::GgsError::Json(_)), "{err}");
        assert!(err.to_string().contains("attempts"), "{err}");
    }

    #[test]
    fn pull_flip_counts_any_pull_config_as_the_restricted_best() {
        let report = |best: &str, rows: &[(&str, u64)]| WorkloadReport {
            app: "PR".into(),
            graph: "RAJ".into(),
            classes: String::new(),
            predicted: best.into(),
            predicted_partial: best.into(),
            best: best.into(),
            baseline: "TG0".into(),
            rows: rows
                .iter()
                .map(|&(config, total_cycles)| ResultRow {
                    config: config.into(),
                    total_cycles,
                    fractions: [0.0; 5],
                })
                .collect(),
        };
        // Figure 5 set: TG0 is the fastest non-DRFrlx bar.
        let fig5 = report("SGR", &[("TG0", 20), ("SG1", 30), ("SGR", 10)]);
        // Full set: a pull config other than TG0 wins without DRFrlx.
        let full = report("SDR", &[("TG1", 20), ("TG0", 25), ("SD1", 30), ("SDR", 10)]);
        // Push stays best without DRFrlx: no flip.
        let stay = report("SGR", &[("TG0", 40), ("SG1", 30), ("SGR", 10)]);
        assert_eq!(full.best_without_drfrlx(), Some("TG1"));
        assert!(fig5.flips_to_pull_without_drfrlx());
        assert!(full.flips_to_pull_without_drfrlx());
        assert!(!stay.flips_to_pull_without_drfrlx());
        let study = Study {
            scale: 1.0,
            reports: vec![fig5, full, stay],
            failures: Vec::new(),
        };
        assert_eq!(study.pull_flips_without_drfrlx(), 2);
    }

    #[test]
    fn report_lookup_and_metrics() {
        let study = tiny_study(8, &MetricsRegistry::new());
        let r = study.report("RAJ", "PR").expect("workload present");
        assert_eq!(r.normalized(&r.baseline), Some(1.0));
        assert!(r.prediction_slowdown().unwrap() >= 0.0);
        assert!(study.exact_predictions() <= 36);
    }
}
