//! The traced run's per-layer table: the benchmark calls each layer's
//! public functions in process, on the run's own inputs, inside spans.
//!
//! A timed row reports `<name>.busy_s` (seconds inside the call) and
//! `<name>.n` (calls or items). Ratios, sizes and differences are
//! reported under their names alone. Each path ends with the share of
//! its in-process whole that the layer rows leave unaccounted — a
//! report, not a gate.

use crate::client::Frame;
use crate::session::IngestOutcome;
use crate::setup::Inputs;
use crate::stats;
use crate::trace::Tracer;
use crate::workload::Workload;
use attrition_core::{StabilityEngine, StabilityMonitor, StabilityParams};
use attrition_datagen::ScenarioConfig;
use attrition_rfm::{out_of_fold_scores, RfmModel};
use attrition_serve::protocol::{
    format_closed_into, format_score_into, write_ingest_line, ParsedRequest, Request,
};
use attrition_serve::wal::{self, SyncPolicy, Wal, WAL_FILE};
use attrition_serve::{
    checkpoint, BatchScratch, DurabilityConfig, Engine, Service, ShardedMonitor,
};
use attrition_store::{csv_io, project_to_segments, WindowAlignment, WindowSpec, WindowedDatabase};
use attrition_types::{Basket, CustomerId, WindowIndex};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;

/// Shards of the server under test (its default).
const SHARDS: usize = 8;
/// Checkpoint after this many logged requests (the server's default).
const CHECKPOINT_EVERY: u64 = 1024;

type Metrics = Vec<(String, f64, &'static str)>;

fn timed(out: &mut Metrics, tracer: &Tracer, name: &'static str) {
    let (busy, n) = tracer.total(name);
    out.push((format!("{name}.busy_s"), busy, "s"));
    out.push((format!("{name}.n"), n as f64, "count"));
}

fn unaccounted(whole: f64, parts: &[f64]) -> f64 {
    (whole - parts.iter().sum::<f64>()) / whole
}

/// Every per-layer metric of the run, in BENCHMARK.json's order.
pub fn measure(
    w: &Workload,
    seed: u64,
    inputs: &Inputs,
    ingest: &IngestOutcome,
    work: &Path,
    spans: &Path,
) -> Result<Metrics, String> {
    let mut tracer = Tracer::new();
    let mut out = Metrics::new();
    // Metric recording as in the binary: `attrition evaluate` runs with
    // it off, and `attrition serve` turns it on at start.
    attrition_obs::set_enabled(false);
    offline(&mut tracer, &mut out, w, seed, inputs)?;
    attrition_obs::set_enabled(true);
    ingest_path(&mut tracer, &mut out, w, inputs, ingest, work)?;
    restart_path(&mut tracer, &mut out, inputs)?;
    attrition_obs::set_enabled(false);
    tracer
        .write_tsv(spans)
        .map_err(|e| format!("writing {}: {e}", spans.display()))?;
    Ok(out)
}

fn offline(
    tracer: &mut Tracer,
    out: &mut Metrics,
    w: &Workload,
    seed: u64,
    inputs: &Inputs,
) -> Result<(), String> {
    // The generator as `attrition generate --preset paper` configures it.
    let mut cfg = ScenarioConfig::paper_default();
    cfg.seed = seed;
    cfg.n_loyal = (w.population / 2) as usize;
    cfg.n_defectors = (w.population - w.population / 2) as usize;
    cfg.n_months = w.months;
    cfg.onset_month = w.onset;
    tracer.span("datagen.generate", w.population as u64, || {
        black_box(attrition_datagen::generate(&cfg));
    });

    let read = |name: &str| {
        std::fs::read_to_string(inputs.data_dir.join(name)).map_err(|e| format!("{name}: {e}"))
    };
    let (receipts_csv, taxonomy_csv, labels_csv) = (
        read("receipts.csv")?,
        read("taxonomy.csv")?,
        read("labels.csv")?,
    );
    let (defectors, _) = crate::direct::read_labels(&labels_csv)?;
    let params = StabilityParams::PAPER;

    // The sequence `attrition evaluate` runs, call by call.
    let whole = tracer.begin("offline.evaluate", 1);
    let (store, taxonomy) = tracer.span("store.csv_read", 2, || {
        (
            csv_io::receipts_from_csv(&receipts_csv),
            csv_io::taxonomy_from_csv(&taxonomy_csv),
        )
    });
    let (store, taxonomy) = (
        store.map_err(|e| e.to_string())?,
        taxonomy.map_err(|e| e.to_string())?,
    );
    let n_receipts = store.num_receipts() as u64;
    let seg_store = tracer
        .span("store.project", n_receipts, || {
            project_to_segments(&store, &taxonomy)
        })
        .map_err(|e| e.to_string())?;
    let db = tracer.span("store.window", n_receipts, || {
        let (first, _) = seg_store.date_range().expect("receipts exist");
        let spec = WindowSpec::months(first.first_of_month(), 2);
        WindowedDatabase::covering_store(&seg_store, spec, WindowAlignment::Global)
    });
    let customers = db.num_customers() as u64;
    let matrix = tracer.span("core.compute", customers, || {
        StabilityEngine::new(params).compute(&db)
    });
    let rfm = RfmModel::new(1);
    for k in 0..db.num_windows {
        let k = WindowIndex::new(k);
        let pairs = matrix.attrition_scores_at(k);
        let labels: Vec<bool> = pairs
            .iter()
            .map(|(c, _)| defectors.get(&c.raw()).copied().unwrap_or(false))
            .collect();
        let scores: Vec<f64> = pairs.iter().map(|(_, s)| *s).collect();
        tracer.span("eval.auroc", 1, || {
            black_box(attrition_eval::auroc(&labels, &scores))
        });
        let rows = tracer.span("rfm.features", customers, || rfm.features_at(&db, k));
        let features: Vec<_> = rows.iter().map(|(_, f)| *f).collect();
        let positives = labels.iter().filter(|&&l| l).count();
        if positives >= 5 && labels.len() - positives >= 5 {
            let fitted = tracer.span("rfm.fit", customers, || {
                out_of_fold_scores(&features, &labels, 1, 5, 42)
            });
            tracer.span("eval.auroc", 1, || {
                black_box(attrition_eval::auroc(&labels, &fitted))
            });
        }
    }
    tracer.end(whole);

    // The same scoring without explanations: the fold alone.
    tracer.span("core.fold", customers, || {
        black_box(
            StabilityEngine::new(params)
                .with_max_explanations(0)
                .compute(&db),
        );
    });

    let (compute, _) = tracer.total("core.compute");
    let (fold, _) = tracer.total("core.fold");
    timed(out, tracer, "datagen.generate");
    timed(out, tracer, "store.csv_read");
    timed(out, tracer, "store.project");
    timed(out, tracer, "store.window");
    timed(out, tracer, "core.fold");
    out.push(("core.explain".into(), compute - fold, "s"));
    timed(out, tracer, "rfm.features");
    timed(out, tracer, "rfm.fit");
    timed(out, tracer, "eval.auroc");
    let parts: Vec<f64> = [
        "store.csv_read",
        "store.project",
        "store.window",
        "core.compute",
        "rfm.features",
        "rfm.fit",
        "eval.auroc",
    ]
    .iter()
    .map(|n| tracer.total(n).0)
    .collect();
    let (whole, _) = tracer.total("offline.evaluate");
    out.push(("offline.whole_s".into(), whole, "s"));
    out.push((
        "offline.unaccounted".into(),
        unaccounted(whole, &parts),
        "share",
    ));
    Ok(())
}

/// Member lines of a `BATCH` frame.
fn members(frame: &Frame) -> Vec<String> {
    let text = std::str::from_utf8(&frame.bytes).expect("frames are UTF-8");
    text.lines().skip(1).map(str::to_owned).collect()
}

fn fresh_dir(path: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).map_err(|e| format!("creating {}: {e}", path.display()))
}

fn ingest_path(
    tracer: &mut Tracer,
    out: &mut Metrics,
    w: &Workload,
    inputs: &Inputs,
    ingest: &IngestOutcome,
    work: &Path,
) -> Result<(), String> {
    // The frames the measured run sent, in the order it sent them.
    let frames: Vec<Vec<String>> = ingest.sent.iter().map(members).collect();
    let origin = crate::session::date_of(inputs.origin);
    let spec = WindowSpec::months(origin, 2);
    let params = StabilityParams::PAPER;

    // Whole frames through the service `attrition serve --wal-dir` runs:
    // the engine wrapped as a replication primary.
    let dir = work.join("trace-engine");
    fresh_dir(&dir)?;
    let mut durability = DurabilityConfig::new(&dir);
    if !w.checkpoints {
        durability.checkpoint_every_requests = 0;
        durability.checkpoint_every = None;
    }
    let engine = Engine::open(
        ShardedMonitor::new(SHARDS, spec, params, 5),
        None,
        Some(&durability),
        1,
    )
    .map_err(|e| format!("opening the engine: {e}"))?;
    let service = attrition_replica::PrimaryService::open(std::sync::Arc::new(engine), &dir)
        .map_err(|e| format!("opening the primary: {e}"))?;
    let mut scratch = BatchScratch::new();
    let mut reply = String::new();
    for frame in &frames {
        reply.clear();
        tracer.span("engine.frame", frame.len() as u64, || {
            service.respond_batch(frame, &mut scratch, &mut reply)
        });
        if reply.contains("\nERR") {
            return Err(format!("in-process replay answered ERR: {reply:.200}"));
        }
    }
    drop(service);

    // The same frames, layer by layer, with the engine's order: parse
    // all members, log them, one group commit, apply, reply, and a
    // checkpoint once enough requests were logged.
    let dir = work.join("trace-layers");
    fresh_dir(&dir)?;
    let mut log = Wal::open(&dir.join(WAL_FILE), SyncPolicy::Always, 1)
        .map_err(|e| format!("opening the WAL: {e}"))?;
    let monitor = ShardedMonitor::new(SHARDS, spec, params, 5);
    let mut items = Vec::new();
    let mut op = String::new();
    let mut encoded = Vec::new();
    let mut since_checkpoint = 0u64;
    let mut checkpoint_sizes = Vec::new();
    for frame in &frames {
        let n = frame.len() as u64;
        items.clear();
        let parsed: Vec<ParsedRequest> = tracer.span("protocol.parse", n, || {
            frame
                .iter()
                .map(|line| Request::parse_into(line, &mut items).expect("frames parse"))
                .collect()
        });
        let ops: Vec<String> = parsed
            .iter()
            .map(|p| match p {
                ParsedRequest::Ingest(c, d, range) => {
                    op.clear();
                    write_ingest_line(&mut op, *c, *d, &items[range.clone()]);
                    op.clone()
                }
                other => panic!("ingest frames hold only INGEST, got {}", other.verb()),
            })
            .collect();
        tracer.span("wal.encode", n, || {
            for (i, op) in ops.iter().enumerate() {
                wal::encode_record_into(&mut encoded, i as u64, op);
            }
        });
        tracer
            .span("wal.append", n, || {
                ops.iter()
                    .try_for_each(|op| log.append_deferred(op).map(|_| ()))
            })
            .map_err(|e| format!("WAL append: {e}"))?;
        tracer
            .span("wal.commit", 1, || log.commit())
            .map_err(|e| format!("WAL commit: {e}"))?;
        let closed: Vec<_> = tracer.span("shard.apply", n, || {
            parsed
                .iter()
                .map(|p| match p {
                    ParsedRequest::Ingest(c, d, range) => monitor
                        .ingest(*c, *d, &Basket::new(items[range.clone()].to_vec()))
                        .expect("the stream is in order"),
                    _ => unreachable!(),
                })
                .collect()
        });
        let mut text = String::new();
        tracer.span("protocol.reply", n, || {
            let _ = write!(text, "OKBATCH {n}");
            for windows in &closed {
                let _ = write!(text, "\nOK {}", windows.len());
                for window in windows {
                    text.push('\n');
                    format_closed_into(&mut text, window);
                }
            }
        });
        black_box(&text);
        since_checkpoint += n;
        if w.checkpoints && since_checkpoint >= CHECKPOINT_EVERY {
            let lsn = log.last_seq();
            let size = tracer
                .span("checkpoint.write", 1, || {
                    let body = monitor.snapshot_bytes();
                    checkpoint::write_binary(&dir, lsn, &body).map(|_| body.len())
                })
                .map_err(|e| format!("checkpoint: {e}"))?;
            checkpoint_sizes.push(size as f64);
            let _ = checkpoint::prune(&dir, 2);
            log.truncate().map_err(|e| format!("WAL truncate: {e}"))?;
            since_checkpoint = 0;
        }
    }

    timed(out, tracer, "protocol.parse");
    timed(out, tracer, "wal.encode");
    timed(out, tracer, "wal.append");
    timed(out, tracer, "wal.commit");
    // Fsyncs per acknowledged INGEST as the measured server counted them
    // (`serve.wal.fsyncs` ÷ `serve.wal.appends` from its STATS).
    out.push((
        "wal.fsyncs_per_op".into(),
        ingest.server_fsyncs_per_op,
        "fsync/op",
    ));
    timed(out, tracer, "shard.apply");
    timed(out, tracer, "protocol.reply");
    timed(out, tracer, "checkpoint.write");
    let median_size = if checkpoint_sizes.is_empty() {
        0.0
    } else {
        stats::median(&checkpoint_sizes)
    };
    out.push(("checkpoint.bytes".into(), median_size, "bytes"));
    timed(out, tracer, "engine.frame");
    let durations = tracer.durations("engine.frame");
    let frame_ms: Vec<f64> = ingest
        .open_sent
        .iter()
        .map(|&i| durations[i] * 1e3)
        .collect();
    out.push((
        "server.overhead_ms".into(),
        stats::median(&ingest.latency_ms) - stats::median(&frame_ms),
        "ms",
    ));
    // `wal.encode` is work `wal.append` already contains; it is not
    // counted twice.
    let parts: Vec<f64> = [
        "protocol.parse",
        "wal.append",
        "wal.commit",
        "shard.apply",
        "protocol.reply",
        "checkpoint.write",
    ]
    .iter()
    .map(|n| tracer.total(n).0)
    .collect();
    let (whole, _) = tracer.total("engine.frame");
    out.push((
        "ingest.unaccounted".into(),
        unaccounted(whole, &parts),
        "share",
    ));
    Ok(())
}

fn restart_path(tracer: &mut Tracer, out: &mut Metrics, inputs: &Inputs) -> Result<(), String> {
    let residents = &inputs.residents;
    let dir = &residents.dir;
    let (lsn, path) = checkpoint::list(dir)
        .map_err(|e| format!("listing checkpoints: {e}"))?
        .into_iter()
        .next()
        .ok_or("the prepared directory has no checkpoint")?;
    let ckpt = tracer
        .span("checkpoint.read", 1, || checkpoint::read(&path))
        .map_err(|e| format!("reading the checkpoint: {e:?}"))?;
    let mut monitor = tracer
        .span("core.decode", residents.count, || {
            StabilityMonitor::restore_any(&ckpt.body)
        })
        .map_err(|e| format!("decoding the checkpoint: {e}"))?;
    let scan = tracer
        .span("wal.scan", 1, || wal::read_records(&dir.join(WAL_FILE)))
        .map_err(|e| format!("scanning the WAL: {e}"))?;
    let above: Vec<_> = scan.records.iter().filter(|r| r.seq > lsn).collect();
    tracer.span("recovery.replay", above.len() as u64, || {
        for record in &above {
            if let Ok(Request::Ingest(c, d, items)) = Request::parse(&record.op) {
                monitor.ingest(c, d, &Basket::new(items));
            }
        }
    });
    let sharded = tracer.span("shard.partition", residents.count, || {
        ShardedMonitor::from_monitor(monitor, SHARDS)
    });
    let (recovered, stats) = tracer
        .span("recovery.recover", 1, || {
            attrition_serve::recover(dir, None)
        })
        .map_err(|e| format!("recovery: {e}"))?;
    if stats.replayed != residents.tail_records
        || recovered.num_customers() as u64 != residents.count
    {
        return Err(format!(
            "in-process recovery disagrees with the setup: {stats}"
        ));
    }
    drop(recovered);

    // SCORE answers for the targets of the measured SCORE loop.
    let targets: Vec<u64> = inputs.score_targets[0]
        .iter()
        .take(200_000)
        .copied()
        .collect();
    let mut text = String::new();
    for chunk in targets.chunks(64) {
        let points: Vec<_> = tracer.span("shard.preview", chunk.len() as u64, || {
            chunk
                .iter()
                .map(|c| sharded.preview(CustomerId::new(*c)).expect("resident"))
                .collect()
        });
        text.clear();
        tracer.span("protocol.score_reply", chunk.len() as u64, || {
            for (c, point) in chunk.iter().zip(&points) {
                format_score_into(&mut text, CustomerId::new(*c), point);
                text.push('\n');
            }
        });
        black_box(&text);
    }

    timed(out, tracer, "checkpoint.read");
    out.push((
        "checkpoint.read.bytes".into(),
        residents.checkpoint_bytes as f64,
        "bytes",
    ));
    timed(out, tracer, "core.decode");
    timed(out, tracer, "wal.scan");
    timed(out, tracer, "recovery.replay");
    timed(out, tracer, "shard.partition");
    timed(out, tracer, "recovery.recover");
    timed(out, tracer, "shard.preview");
    timed(out, tracer, "protocol.score_reply");
    let parts: Vec<f64> = [
        "checkpoint.read",
        "core.decode",
        "wal.scan",
        "recovery.replay",
    ]
    .iter()
    .map(|n| tracer.total(n).0)
    .collect();
    let (whole, _) = tracer.total("recovery.recover");
    out.push((
        "restart.unaccounted".into(),
        unaccounted(whole, &parts),
        "share",
    ));
    Ok(())
}
