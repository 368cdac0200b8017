//! Executes the manifest: schedules experiments over `exec::Pool`,
//! gathers metrics, applies the tolerance policy, and folds the
//! deterministic results into one digest.
//!
//! Figure rows fan out over the harness pool (`par_map` keeps result
//! order manifest-deterministic); each row's *internal* physics runs on
//! a serial pool, so the whole run is bit-identical at any
//! `--workers` count — the differential suite holds the digest to
//! that. Bench and golden rows run after the figure fan-out: they
//! parallelize internally and their metrics are identity flags, which
//! are worker-count-invariant by construction.

use crate::manifest::{BenchKind, Check, Producer, Row};
use bench::experiments::{self, Metric, Profile};
use dsp::EcoResult;
use exec::Pool;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Instant;

/// Harness mode: CI-scale or paper-scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Reduced grids, minutes total, CI-gated.
    KickTires,
    /// The full committed trajectory.
    Full,
}

impl Mode {
    /// The experiment profile this mode runs figures at.
    #[must_use]
    pub fn profile(self) -> Profile {
        match self {
            Mode::KickTires => Profile::KickTires,
            Mode::Full => Profile::Full,
        }
    }

    /// Report label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Mode::KickTires => "kick-tires",
            Mode::Full => "full",
        }
    }
}

/// One run's configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Kick-tires or full.
    pub mode: Mode,
    /// Harness pool width (scheduling only — results are identical at
    /// any value).
    pub workers: usize,
    /// Artifact root: committed `BENCH_*.json` live here,
    /// fixtures under `tests/fixtures/`.
    pub dir: PathBuf,
    /// Restrict the run to these tags (None = whole manifest).
    pub only: Option<BTreeSet<String>>,
    /// Append the deliberately-wrong canary row.
    pub canary: bool,
    /// Rewrite `BENCH_*.json` and golden fixtures instead of gating
    /// against them.
    pub regen: bool,
}

impl RunConfig {
    /// Kick-tires defaults rooted at `dir`.
    #[must_use]
    pub fn kick_tires(dir: PathBuf) -> Self {
        RunConfig {
            mode: Mode::KickTires,
            workers: Pool::max_parallel().workers(),
            dir,
            only: None,
            canary: false,
            regen: false,
        }
    }
}

/// PASS/FAIL/SKIP of a check or a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Within tolerance.
    Pass,
    /// Out of tolerance, metric missing, or the producer errored.
    Fail,
    /// Scoped out of this mode (full-only check under kick-tires).
    Skip,
}

impl Status {
    /// Report label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Status::Pass => "PASS",
            Status::Fail => "FAIL",
            Status::Skip => "SKIP",
        }
    }
}

/// One check's outcome.
#[derive(Debug, Clone)]
pub struct CheckResult {
    /// Metric name.
    pub metric: String,
    /// Paper reference.
    pub paper: f64,
    /// Simulated value (None = the producer never emitted it).
    pub sim: Option<f64>,
    /// Tolerance label, e.g. `±5%` or `[0.85, 1]`.
    pub tolerance: String,
    /// Signed relative delta in percent, when both sides are usable.
    pub delta_pct: Option<f64>,
    /// The verdict.
    pub status: Status,
}

/// One manifest row's outcome.
#[derive(Debug, Clone)]
pub struct RowResult {
    /// Manifest tag.
    pub tag: String,
    /// Human title.
    pub title: String,
    /// FAIL if any check failed (or the producer errored); SKIP if
    /// every check was scoped out; PASS otherwise.
    pub status: Status,
    /// Producer error, if it failed outright.
    pub error: Option<String>,
    /// Wall-clock spent on the row (informational; excluded from the
    /// digest).
    pub elapsed_ms: f64,
    /// Every metric the producer emitted (digest input).
    pub metrics: Vec<(String, f64)>,
    /// Check verdicts, in manifest order.
    pub checks: Vec<CheckResult>,
}

/// A whole run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Mode the run executed in.
    pub mode: Mode,
    /// Harness pool width used.
    pub workers: usize,
    /// Row results, in manifest order.
    pub rows: Vec<RowResult>,
    /// FNV-1a over every (tag, metric, value-bits) triple — identical
    /// at any worker count.
    pub digest: u64,
}

impl RunReport {
    /// Rows that failed.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.status == Status::Fail)
            .count()
    }

    /// Rows that passed.
    #[must_use]
    pub fn passed(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.status == Status::Pass)
            .count()
    }

    /// Rows that were skipped entirely.
    #[must_use]
    pub fn skipped(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.status == Status::Skip)
            .count()
    }
}

/// Applies the manifest checks to a producer's metrics.
fn judge(checks: &[Check], metrics: &[(String, f64)], mode: Mode) -> Vec<CheckResult> {
    checks
        .iter()
        .map(|check| {
            let sim = metrics
                .iter()
                .find(|(name, _)| name == check.metric)
                .map(|&(_, v)| v);
            let scoped_out = mode == Mode::KickTires && !check.kick;
            let status = if scoped_out {
                Status::Skip
            } else {
                match sim {
                    Some(v) if check.tolerance.passes(check.paper, v) => Status::Pass,
                    _ => Status::Fail,
                }
            };
            let delta_pct = sim.and_then(|v| {
                if check.paper.abs() > 0.0 && v.is_finite() {
                    Some((v - check.paper) / check.paper.abs() * 100.0)
                } else {
                    None
                }
            });
            CheckResult {
                metric: check.metric.to_string(),
                paper: check.paper,
                sim,
                tolerance: check.tolerance.label(),
                delta_pct,
                status,
            }
        })
        .collect()
}

fn row_status(checks: &[CheckResult], producer_error: Option<&String>) -> Status {
    if producer_error.is_some() || checks.iter().any(|c| c.status == Status::Fail) {
        Status::Fail
    } else if checks.iter().all(|c| c.status == Status::Skip) {
        Status::Skip
    } else {
        Status::Pass
    }
}

/// A producer's metrics, plus the message of a gate that failed while
/// the metrics were still produced (e.g. a bench `verify`).
type Produced = (Vec<(String, f64)>, Option<String>);

/// Computes a row's metrics. Everything downstream (judging, digest,
/// report) only sees the resulting name/value pairs.
fn produce(row: &Row, cfg: &RunConfig) -> EcoResult<Produced> {
    let profile = cfg.mode.profile();
    let figure = |tag| {
        Ok((
            name_values(&experiments::metrics(tag, profile, &Pool::serial())?),
            None,
        ))
    };
    match row.producer {
        Producer::Figure => figure(row.tag),
        Producer::Canary => figure("fig13"),
        Producer::Bench(kind) => bench_metrics(kind, cfg),
        Producer::Goldens => Ok((golden_metrics(cfg), None)),
    }
}

fn name_values(metrics: &[Metric]) -> Vec<(String, f64)> {
    metrics
        .iter()
        .map(|m| (m.name.to_string(), m.value))
        .collect()
}

/// Runs one bench producer at smoke (kick-tires) or full scale: the
/// module's `run` and `verify`, a schema check of the freshly rendered
/// JSON, then the committed-JSON schema gate (or a rewrite under
/// `--regen`). A failed `verify` or schema check zeroes `verify_ok` and
/// surfaces its message as the row's error.
fn bench_metrics(kind: BenchKind, cfg: &RunConfig) -> EcoResult<Produced> {
    let smoke = cfg.mode == Mode::KickTires;
    let pool = Pool::max_parallel();
    let (verified, json) = match kind {
        BenchKind::Sweeps => {
            use bench::sweeps::{run_all, to_json, verify, Scale};
            let scale = if smoke { Scale::smoke() } else { Scale::full() };
            let results = run_all(&scale, &pool)?;
            (verify(&results), to_json(&results, &pool, &scale))
        }
        BenchKind::Faults => {
            use bench::faults::{run_matrix, to_json, verify, FaultScale};
            let scale = if smoke {
                FaultScale::smoke()
            } else {
                FaultScale::full()
            };
            let matrix = run_matrix(&scale, &pool)?;
            (verify(&matrix), to_json(&matrix, &pool, &scale))
        }
        BenchKind::Obs => {
            use bench::obs::{run_obs, to_json, verify, ObsScale};
            let scale = if smoke {
                ObsScale::smoke()
            } else {
                ObsScale::full()
            };
            let report = run_obs(&scale, &pool)?;
            (verify(&report), to_json(&report, &pool, &scale))
        }
        BenchKind::Fleet => {
            use bench::fleet::{run_fleet_bench, to_json, verify, FleetScale};
            let scale = if smoke {
                FleetScale::smoke()
            } else {
                FleetScale::full()
            };
            let report = run_fleet_bench(&scale, &pool)?;
            (verify(&report), to_json(&report, &pool, &scale))
        }
        BenchKind::Hotpath => {
            use bench::hotpath::{run_all, to_json, verify, Scale};
            let scale = if smoke { Scale::smoke() } else { Scale::full() };
            let results = run_all(&scale)?;
            (verify(&results), to_json(&results, &scale))
        }
        BenchKind::Campaign => {
            use bench::campaign::{run_campaign_bench, to_json, verify, CampaignScale};
            let scale = if smoke {
                CampaignScale::smoke()
            } else {
                CampaignScale::full()
            };
            let report = run_campaign_bench(&scale, &pool)?;
            (verify(&report), to_json(&report, &pool, &scale))
        }
        BenchKind::Serve => {
            use bench::serve::{run_serve_bench, to_json, verify, ServeScale};
            let scale = if smoke {
                ServeScale::smoke()
            } else {
                ServeScale::full()
            };
            let report = run_serve_bench(&scale, &pool)?;
            (verify(&report), to_json(&report, &pool, &scale))
        }
    };

    let has_schema = |text: &str| {
        crate::json::parse(text).is_ok_and(|doc| {
            doc.get("schema").and_then(crate::json::Value::as_str) == Some(kind.schema())
        })
    };
    let error = match verified {
        Err(e) => Some(e.to_string()),
        Ok(()) if !has_schema(&json) => Some(format!(
            "rendered {} is not valid {} JSON",
            kind.json_file(),
            kind.schema()
        )),
        Ok(()) => None,
    };
    let path = cfg.dir.join(kind.json_file());
    let committed_ok = if cfg.regen {
        std::fs::write(&path, &json).is_ok()
    } else {
        std::fs::read_to_string(&path).is_ok_and(|text| has_schema(&text))
    };
    let metrics = vec![
        ("verify_ok".into(), f64::from(u8::from(error.is_none()))),
        (
            "committed_json_ok".into(),
            f64::from(u8::from(committed_ok)),
        ),
    ];
    Ok((metrics, error))
}

/// Runs the golden-fixture sweep: recompute-and-compare, or
/// recompute-and-rewrite under `--regen`.
fn golden_metrics(cfg: &RunConfig) -> Vec<(String, f64)> {
    let dir = crate::goldens::fixture_dir(&cfg.dir);
    let mut metrics = Vec::new();
    for fixture in crate::goldens::FIXTURES {
        let ok = if cfg.regen {
            crate::goldens::regen(&dir, fixture).is_ok()
        } else {
            crate::goldens::check(&dir, fixture).unwrap_or(false)
        };
        metrics.push((fixture.ok_metric().to_string(), f64::from(u8::from(ok))));
    }
    metrics
}

fn run_row(row: &Row, cfg: &RunConfig) -> RowResult {
    let started = Instant::now();
    let (metrics, error) = produce(row, cfg).unwrap_or_else(|e| (Vec::new(), Some(e.to_string())));
    let checks = judge(&row.checks, &metrics, cfg.mode);
    let status = row_status(&checks, error.as_ref());
    RowResult {
        tag: row.tag.to_string(),
        title: row.title.to_string(),
        status,
        error,
        elapsed_ms: started.elapsed().as_secs_f64() * 1e3,
        metrics,
        checks,
    }
}

/// Executes `rows` under `cfg` and folds the digest.
#[must_use]
pub fn run(rows: &[Row], cfg: &RunConfig) -> RunReport {
    let selected: Vec<&Row> = rows
        .iter()
        .filter(|row| cfg.only.as_ref().is_none_or(|only| only.contains(row.tag)))
        .collect();

    // Figure rows fan out; bench/golden rows keep their own internal
    // parallelism and run one at a time after.
    let (light, heavy): (Vec<&Row>, Vec<&Row>) = selected
        .iter()
        .partition(|row| matches!(row.producer, Producer::Figure | Producer::Canary));

    let pool = if cfg.workers <= 1 {
        Pool::serial()
    } else {
        Pool::new(cfg.workers)
    };
    let mut results: Vec<(usize, RowResult)> = pool
        .par_map(&light, |i, row| (i, run_row(row, cfg)))
        .into_iter()
        .collect();
    let offset = results.len();
    for (i, row) in heavy.iter().enumerate() {
        results.push((offset + i, run_row(row, cfg)));
    }

    // Reassemble in manifest order regardless of scheduling.
    let mut ordered: Vec<RowResult> = Vec::with_capacity(selected.len());
    for row in &selected {
        if let Some(pos) = results.iter().position(|(_, r)| r.tag == row.tag) {
            ordered.push(results.remove(pos).1);
        }
    }

    let digest = digest_rows(&ordered);
    RunReport {
        mode: cfg.mode,
        workers: cfg.workers,
        rows: ordered,
        digest,
    }
}

/// FNV-1a over every (tag, metric, value-bits) triple, in manifest
/// order. Wall-clock fields are deliberately excluded.
#[must_use]
pub fn digest_rows(rows: &[RowResult]) -> u64 {
    let mut words = Vec::new();
    for row in rows {
        words.push(fnv_str(&row.tag));
        for (name, value) in &row.metrics {
            words.push(fnv_str(name));
            words.push(value.to_bits());
        }
    }
    faults::fnv1a64(words.into_iter())
}

fn fnv_str(s: &str) -> u64 {
    faults::fnv1a64(s.bytes().map(u64::from))
}
