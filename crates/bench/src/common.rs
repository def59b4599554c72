//! Shared experiment plumbing: run options, output capture, and result
//! files (text, CSV, and machine-readable JSON).

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use ksr_core::table::{series_to_csv, Series};
use ksr_core::Json;

/// Options for one experiment run — the single parameter every
/// [`crate::registry::Experiment`] planner receives. `run_all` sets
/// them from its flags ([`crate::cli`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOpts {
    /// Reduced sweeps for CI and tests (`--quick`).
    pub quick: bool,
    /// Perturbation XORed into every machine seed (`--seed N`, default
    /// 0 — i.e. the paper-matching baseline seeds).
    pub seed: u64,
    /// Directory result files are written under (`--results DIR`,
    /// default `results/`).
    pub results_dir: PathBuf,
    /// Verification mode (`--check`): attach a
    /// `ksr-verify` coherence-checking sink to every machine built, run
    /// the race-detector and predictive suites over a traced IS kernel
    /// afterwards, and write `violations.json`. Checking observes the
    /// trace only — cycle counts and result files are bit-identical with
    /// it on or off.
    pub check: bool,
    /// Worker threads the executor schedules jobs over (`--jobs N`;
    /// `run_all`'s default is the host parallelism capped at
    /// [`MAX_DEFAULT_JOBS`]). Results are byte-identical at any value —
    /// every job is a pure (config, seed) → value function and the
    /// reduce reads each value through its handle. Not recorded in
    /// `summary.json` for exactly that reason.
    pub jobs: usize,
}

/// Cap on the jobs default inferred from host parallelism; an explicit
/// `--jobs` value may exceed it.
pub const MAX_DEFAULT_JOBS: usize = 16;

impl Default for RunOpts {
    fn default() -> Self {
        Self {
            quick: false,
            seed: 0,
            results_dir: PathBuf::from("results"),
            check: false,
            jobs: 1,
        }
    }
}

impl RunOpts {
    /// Quick-mode options with default seed and results directory.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            quick: true,
            ..Self::default()
        }
    }

    /// Derive a machine seed from an experiment's baseline seed: the
    /// baseline XORed with [`RunOpts::seed`], so the default (0) leaves
    /// every published measurement untouched while `--seed` perturbs
    /// all of them coherently.
    #[must_use]
    pub fn machine_seed(&self, base: u64) -> u64 {
        base ^ self.seed
    }
}

/// One typed measurement: a named metric, the parameter point it was
/// taken at, and its value. Rows are what `results/<id>.json` carries —
/// the machine-readable counterpart of the rendered text tables.
#[derive(Debug, Clone)]
pub struct MetricRow {
    /// Metric name (e.g. `"barrier_episode_seconds"`).
    pub metric: String,
    /// Parameter point, in insertion order (e.g. `procs = 16`).
    pub params: Vec<(String, Json)>,
    /// Measured value.
    pub value: f64,
    /// Unit label (e.g. `"s"`, `"cycles"`).
    pub unit: String,
}

impl MetricRow {
    /// JSON form: `{"metric": ..., "params": {...}, "value": ..., "unit": ...}`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("metric", Json::from(self.metric.as_str())),
            ("params", Json::Obj(self.params.clone())),
            ("value", Json::from(self.value)),
            ("unit", Json::from(self.unit.as_str())),
        ])
    }
}

/// Output of one experiment (one paper table or figure).
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    /// Experiment id from DESIGN.md (e.g. `"FIG4"`).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Rendered text blocks (tables, analysis notes).
    pub text: String,
    /// Figure series, when the artifact is a figure.
    pub series: Vec<Series>,
    /// Typed measurement rows (the machine-readable results).
    pub rows: Vec<MetricRow>,
}

impl ExperimentOutput {
    /// Start an output block.
    #[must_use]
    pub fn new(id: &'static str, title: &'static str) -> Self {
        Self {
            id,
            title,
            text: String::new(),
            series: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Append a text block.
    pub fn push_text(&mut self, block: &str) {
        self.text.push_str(block);
        if !block.ends_with('\n') {
            self.text.push('\n');
        }
    }

    /// Append a formatted line.
    pub fn line(&mut self, args: std::fmt::Arguments<'_>) {
        let _ = writeln!(self.text, "{args}");
    }

    /// Append one typed measurement row.
    pub fn row(&mut self, metric: &str, params: &[(&str, Json)], value: f64, unit: &str) {
        self.rows.push(MetricRow {
            metric: metric.to_string(),
            params: params
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
            value,
            unit: unit.to_string(),
        });
    }

    /// Derive one row per series point: `metric` at
    /// `{series: <label>, <x_name>: x}`.
    pub fn rows_from_series(&mut self, metric: &str, x_name: &str, unit: &str) {
        for s in &self.series {
            for &(x, y) in &s.points {
                self.rows.push(MetricRow {
                    metric: metric.to_string(),
                    params: vec![
                        ("series".to_string(), Json::from(s.label.as_str())),
                        (x_name.to_string(), Json::from(x)),
                    ],
                    value: y,
                    unit: unit.to_string(),
                });
            }
        }
    }

    /// Full rendering: header, text, and series as CSV.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!("== {} — {} ==\n\n{}", self.id, self.title, self.text);
        if !self.series.is_empty() {
            out.push('\n');
            out.push_str(&series_to_csv(&self.series));
        }
        out
    }

    /// JSON form of the whole output: id, title, rows, and series.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::from(self.id)),
            ("title", Json::from(self.title)),
            (
                "rows",
                Json::Arr(self.rows.iter().map(MetricRow::to_json).collect()),
            ),
            (
                "series",
                Json::Arr(
                    self.series
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("label", Json::from(s.label.as_str())),
                                (
                                    "points",
                                    Json::Arr(
                                        s.points
                                            .iter()
                                            .map(|&(x, y)| {
                                                Json::Arr(vec![Json::from(x), Json::from(y)])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Write `<id>.txt`, `<id>.json`, and (when there are series)
    /// `<id>.csv` under `dir`, creating it if needed.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let stem = self.id.to_lowercase();
        let txt = dir.join(format!("{stem}.txt"));
        fs::write(&txt, self.render())?;
        let mut json = self.to_json().render_pretty();
        json.push('\n');
        fs::write(dir.join(format!("{stem}.json")), json)?;
        if !self.series.is_empty() {
            let csv = dir.join(format!("{stem}.csv"));
            fs::write(csv, series_to_csv(&self.series))?;
        }
        Ok(txt)
    }
}

/// Write `summary.json` under `opts.results_dir`: one entry per
/// experiment (id, title, row/series counts) plus the run options, so a
/// consumer can discover every artifact without globbing.
pub fn write_summary(outputs: &[ExperimentOutput], opts: &RunOpts) -> std::io::Result<PathBuf> {
    fs::create_dir_all(&opts.results_dir)?;
    let experiments = outputs
        .iter()
        .map(|o| {
            Json::obj([
                ("id", Json::from(o.id)),
                ("title", Json::from(o.title)),
                ("file", Json::from(format!("{}.json", o.id.to_lowercase()))),
                ("rows", Json::from(o.rows.len())),
                ("series", Json::from(o.series.len())),
            ])
        })
        .collect();
    let summary = Json::obj([
        ("quick", Json::from(opts.quick)),
        ("seed", Json::from(opts.seed)),
        ("experiments", Json::Arr(experiments)),
    ]);
    let path = opts.results_dir.join("summary.json");
    let mut body = summary.render_pretty();
    body.push('\n');
    fs::write(&path, body)?;
    Ok(path)
}

/// Processor counts for a 32-cell sweep.
#[must_use]
pub fn proc_sweep_32(quick: bool) -> Vec<usize> {
    if quick {
        vec![2, 4, 8]
    } else {
        vec![2, 4, 8, 12, 16, 20, 24, 28, 32]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_header_and_text() {
        let mut o = ExperimentOutput::new("FIGX", "demo");
        o.push_text("hello");
        let r = o.render();
        assert!(r.contains("FIGX"));
        assert!(r.contains("hello\n"));
    }

    #[test]
    fn write_creates_files() {
        let dir = std::env::temp_dir().join(format!("ksr_bench_test_{}", std::process::id()));
        let mut o = ExperimentOutput::new("T1", "t");
        o.push_text("x");
        let mut s = Series::new("a");
        s.push(1.0, 2.0);
        o.series.push(s);
        o.row("metric", &[("procs", Json::from(4u64))], 1.5, "s");
        let p = o.write_to(&dir).unwrap();
        assert!(p.exists());
        assert!(dir.join("t1.csv").exists());
        let json = std::fs::read_to_string(dir.join("t1.json")).unwrap();
        assert!(json.contains("\"metric\": \"metric\""));
        assert!(json.contains("\"procs\": 4"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn sweep_contains_paper_endpoints() {
        let s = proc_sweep_32(false);
        assert!(s.contains(&2) && s.contains(&32));
    }

    #[test]
    fn rows_from_series_expands_every_point() {
        let mut o = ExperimentOutput::new("T2", "t");
        let mut s = Series::new("curve");
        s.push(2.0, 0.5);
        s.push(4.0, 0.25);
        o.series.push(s);
        o.rows_from_series("time_seconds", "procs", "s");
        assert_eq!(o.rows.len(), 2);
        assert_eq!(o.rows[1].value, 0.25);
        assert_eq!(o.rows[1].params[0].1, Json::from("curve"));
    }

    #[test]
    fn summary_names_each_experiment() {
        let dir = std::env::temp_dir().join(format!("ksr_summary_test_{}", std::process::id()));
        let opts = RunOpts {
            quick: true,
            seed: 7,
            results_dir: dir.clone(),
            ..RunOpts::default()
        };
        let outs = [
            ExperimentOutput::new("A1", "a"),
            ExperimentOutput::new("B2", "b"),
        ];
        let p = write_summary(&outs, &opts).unwrap();
        let body = std::fs::read_to_string(p).unwrap();
        assert!(body.contains("\"id\": \"A1\"") && body.contains("\"id\": \"B2\""));
        assert!(body.contains("\"quick\": true") && body.contains("\"seed\": 7"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn machine_seed_defaults_to_base() {
        assert_eq!(RunOpts::default().machine_seed(42), 42);
        let perturbed = RunOpts {
            seed: 1,
            ..RunOpts::default()
        };
        assert_ne!(perturbed.machine_seed(42), 42);
    }
}
