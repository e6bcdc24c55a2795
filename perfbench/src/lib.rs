//! End-to-end and per-layer benchmark of the `attrition` binaries.
//!
//! `run.py` builds the binaries and calls the `perfbench` executable;
//! see the README beside this package for the workloads and metrics.

pub mod client;
pub mod direct;
pub mod layers;
pub mod proc;
pub mod session;
pub mod setup;
pub mod stats;
pub mod trace;
pub mod workload;

use session::Tally;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::Workload;

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub toy: bool,
    /// Keep the ingest server's default checkpoint triggers.
    pub checkpoints: bool,
    /// The `attrition` executable under test.
    pub attrition: PathBuf,
    /// Scratch directory for generated inputs and durable state.
    pub work: PathBuf,
    /// Repository root, for the revision in the run metadata.
    pub root: PathBuf,
}

impl Options {
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Options, String> {
        let mut o = Options {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            toy: false,
            checkpoints: true,
            attrition: PathBuf::new(),
            work: PathBuf::from(".perfbench-work"),
            root: PathBuf::from("."),
        };
        let mut args = args.peekable();
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--toy" => {
                    o.toy = true;
                    continue;
                }
                "--no-checkpoint-triggers" => {
                    o.checkpoints = false;
                    continue;
                }
                _ => {}
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
            match flag.as_str() {
                "--workload" => o.workload = value,
                "--seed" => o.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => o.seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    o.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                "--attrition" => o.attrition = PathBuf::from(value),
                "--work" => o.work = PathBuf::from(value),
                "--root" => o.root = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if o.attrition.as_os_str().is_empty() {
            return Err("--attrition <path to the attrition binary> is required".into());
        }
        if o.seconds.is_nan() || o.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(o)
    }
}

/// Everything one run measured.
pub struct RunResult {
    pub tally: Tally,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub meta: String,
}

impl RunResult {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push_str(", ");
            }
            let _ = write!(
                m,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.tally.problems.is_empty(),
            self.tally.attempted.max(1),
            self.tally.failed
        )
    }
}

/// A JSON number; non-finite values (a metric that could not be
/// measured) become `null`.
fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

fn revision(root: &Path) -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Run one workload: set up three times, measure every phase, check
/// every output; with `trace`, then time each layer in process.
pub fn run(o: &Options) -> Result<RunResult, String> {
    let mut w: Workload = workload::by_name(&o.workload, o.toy).ok_or_else(|| {
        format!(
            "unknown workload {:?} (one of {})",
            o.workload,
            workload::NAMES.join(", ")
        )
    })?;
    w.checkpoints = o.checkpoints;
    let work = o.work.join(format!("{}-{}", w.name, o.seed));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;

    // Set-up runs three times; the median is reported and the last
    // inputs are used.
    let mut setup_s = Vec::new();
    let mut inputs: Option<setup::Inputs> = None;
    for round in 0..3 {
        if let Some(old) = inputs.take() {
            let _ = std::fs::remove_dir_all(&old.residents.dir);
        }
        let t = Instant::now();
        inputs = Some(setup::prepare(&o.attrition, &w, o.seed, &work, round)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("set up ran");

    // The measured rounds: every phase once per round, so each median
    // stands on samples taken across the whole run.
    let mut tally = Tally::default();
    let mut offline = session::OfflineOutcome::default();
    let mut restart = session::RestartOutcome::default();
    let mut ingest = session::IngestRun::start(&o.attrition, &inputs, &w, &work, &mut tally)?;
    let per_round = |n: usize| n.div_ceil(setup::ROUNDS);
    let share = |s: f64| s / setup::ROUNDS as f64;
    for r in 0..setup::ROUNDS {
        offline.round(
            &o.attrition,
            &inputs,
            per_round(w.evaluates),
            share(w.evaluate_budget_s),
            &mut tally,
        )?;
        ingest.round(r, &w, share(w.ingest_share * o.seconds), &mut tally)?;
        restart.round(
            &o.attrition,
            &inputs,
            &w,
            per_round(w.restarts),
            share(w.restart_budget_s),
            share(w.score_share * o.seconds),
            &mut tally,
        )?;
    }
    let ingest = ingest.finish(&mut tally)?;
    offline.check(&inputs, &mut tally)?;

    let lat = &ingest.latency_ms;
    let listing: String = lat.iter().map(|ms| format!("{ms}\n")).collect();
    let stem = format!("{}-{}", w.name, o.seed);
    let _ = std::fs::write(o.work.join(format!("open-latency-{stem}.txt")), listing);
    let peak_rss_mb = offline
        .peak_rss_mb
        .max(ingest.peak_rss_mb)
        .max(restart.peak_rss_mb);
    let meta = format!(
        "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"resident_seed\": {}, \"seconds\": {}, \
         \"toy\": {}, \"trace\": {}, \"revision\": \"{}\", \"available_parallelism\": {}, \
         \"sync_policy\": \"always\", \"checkpoint_triggers\": {}, \"connections\": {}, \"population\": {}, \"residents\": {}, \
         \"wal_tail\": {}, \"setup_s\": {:?}, \"pipeline_s\": {:?}, \"restart_s\": {:?}, \
         \"ingest_ops_per_s\": {}, \"open_frames\": {}, \"open_rate\": {}, \"p50_ms\": {}, \
         \"p99_ms\": {}, \"frames_beyond_p99\": {}, \
         \"open_lag_ms_p50\": {}, \"open_lag_ms_max\": {}, \
         \"server_fsyncs_per_op\": {}, \"ingest_slice_rates\": {:?}, \"score_slice_rates\": {:?}, \"problems\": {:?}}}}}",
        w.name,
        o.seed,
        inputs.residents.seed,
        o.seconds,
        o.toy,
        o.trace,
        revision(&o.root),
        client::nproc(),
        w.checkpoints,
        inputs.warmup.len(),
        w.population,
        w.residents,
        w.wal_tail,
        setup_s,
        offline.wall_s,
        restart.restart_s,
        stats::median(&ingest.slices),
        lat.len(),
        w.open_rate,
        stats::percentile(lat, 0.5),
        stats::percentile(lat, 0.99),
        stats::beyond(lat, 0.99),
        stats::median(&ingest.lag_ms),
        ingest.lag_ms.iter().copied().fold(0.0, f64::max),
        ingest.server_fsyncs_per_op,
        ingest.slices.iter().map(|r| r.round()).collect::<Vec<_>>(),
        restart.score_slices.iter().map(|r| r.round()).collect::<Vec<_>>(),
        tally.problems,
    );

    let metrics = if o.trace {
        let spans = o.work.join(format!("spans-{stem}.tsv"));
        layers::measure(&w, o.seed, &inputs, &ingest, &work, &spans)?
    } else {
        vec![
            ("setup_s".into(), stats::median(&setup_s), "s"),
            ("pipeline_s".into(), stats::median(&offline.wall_s), "s"),
            ("restart_s".into(), stats::median(&restart.restart_s), "s"),
            (
                "score_ops_per_s".into(),
                stats::median(&restart.score_slices),
                "ops/s",
            ),
            ("peak_rss_mb".into(), peak_rss_mb, "MiB"),
        ]
    };
    // The generated inputs and durable state run to hundreds of MB; only
    // the records above are kept.
    drop(inputs);
    let _ = std::fs::remove_dir_all(&work);
    Ok(RunResult {
        tally,
        metrics,
        meta,
    })
}
