//! The benchmark's own checks must reject wrong output. Each test plants
//! one fault — an AUROC digit off by one, a flipped bit in a SCORE, a
//! dropped WAL record — and expects the check that guards it to fail.
//! The last test runs the toy-sized variant of every workload against
//! the real `attrition` binary with the same checks as a measured run.

use perfbench::direct::{self, Point};
use perfbench::session::{check_fig1_table, check_recovery_log, check_score, Fig1Reference};
use perfbench::setup::{Residents, CHECKPOINT_LSN};
use std::path::{Path, PathBuf};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("perfbench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn table(rows: &[(f64, f64)]) -> String {
    let mut out = String::from("evaluation at segment granularity\n\n");
    out.push_str("window  end month  stability AUROC  RFM AUROC\n");
    out.push_str("---------------------------------------------\n");
    for (k, (stab, rfm)) in rows.iter().enumerate() {
        out.push_str(&format!("{k}  {}  {stab:.3}  {rfm:.3}\n", (k + 1) * 2));
    }
    out.push('\n');
    out
}

#[test]
fn auroc_digit_off_by_one_is_rejected() {
    let reference = Fig1Reference {
        stability_auroc: vec![0.5, 0.49871, 0.81234],
        onset_month: 4,
        w_months: 2,
        n_pos: 1000,
        n_neg: 1000,
    };
    let good = table(&[(0.5, 0.51), (0.49871, 0.49), (0.81234, 0.66)]);
    assert_eq!(check_fig1_table(&good, &reference), Vec::<String>::new());
    let planted = good.replace("0.812", "0.813");
    assert_ne!(planted, good);
    let problems = check_fig1_table(&planted, &reference);
    assert!(
        problems.iter().any(|p| p.contains("window 2")),
        "{problems:?}"
    );
    // RFM before the onset far from chance is caught too.
    let rfm_off = table(&[(0.5, 0.70), (0.49871, 0.49), (0.81234, 0.66)]);
    assert!(!check_fig1_table(&rfm_off, &reference).is_empty());
}

#[test]
fn flipped_bit_in_a_score_is_rejected() {
    let point = direct::stability(&[vec![1, 2, 3], vec![1, 2]], &[1, 3], 2.0);
    let line = |p: Point| format!("SCORE 42 2 {} {} {}", p.value, p.present, p.total);
    assert!(check_score(&line(point), 42, 2, point).is_ok());
    let flipped = Point {
        value: f64::from_bits(point.value.to_bits() ^ 1),
        ..point
    };
    assert!(check_score(&line(flipped), 42, 2, point).is_err());
    assert!(check_score(&line(point), 43, 2, point).is_err());
}

#[test]
fn dropped_wal_record_is_rejected() {
    let dir = scratch("dropped-record");
    let residents = Residents::build(&dir, 7, 300, 200).unwrap();
    let wal_path = dir.join(attrition_serve::wal::WAL_FILE);

    // Recovery of the untouched directory passes both checks.
    let (monitor, stats) = attrition_serve::recover(&dir, None).unwrap();
    assert!(check_recovery_log(&format!("recovery: {stats}"), &residents).is_ok());
    assert_eq!(stats.checkpoint_lsn, Some(CHECKPOINT_LSN));

    // Drop the record of a customer who has only that one in the tail.
    let scan = attrition_serve::wal::read_records(&wal_path).unwrap();
    let victim = scan
        .records
        .iter()
        .position(|r| {
            let customer: u64 = r.op.split(' ').nth(1).unwrap().parse().unwrap();
            scan.records
                .iter()
                .filter(|o| o.op.split(' ').nth(1) == r.op.split(' ').nth(1))
                .count()
                == 1
                && residents.tail.contains_key(&customer)
        })
        .expect("some customer has a single tail record");
    let customer: u64 = scan.records[victim]
        .op
        .split(' ')
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    let (k, expected) = residents.expected(customer);
    let score = |m: &attrition_core::StabilityMonitor| {
        let p = m
            .preview(attrition_types::CustomerId::new(customer))
            .unwrap();
        format!(
            "SCORE {customer} {} {} {} {}",
            p.window.raw(),
            p.value,
            p.present_significance,
            p.total_significance
        )
    };
    assert!(check_score(&score(&monitor), customer, k, expected).is_ok());
    drop(monitor);

    let mut bytes = Vec::new();
    for (i, r) in scan.records.iter().enumerate() {
        if i != victim {
            bytes.extend(attrition_serve::wal::encode_record(r.seq, &r.op));
        }
    }
    std::fs::write(&wal_path, bytes).unwrap();
    let (monitor, stats) = attrition_serve::recover(&dir, None).unwrap();
    assert!(check_recovery_log(&format!("recovery: {stats}"), &residents).is_err());
    assert!(check_score(&score(&monitor), customer, k, expected).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `attrition` binary, built from this checkout.
fn attrition_binary(root: &Path) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join(".bench_build"));
    let target = if target.is_absolute() {
        target
    } else {
        root.join(target)
    };
    let status = std::process::Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "-q",
            "-p",
            "attrition-cli",
            "--bin",
            "attrition",
        ])
        .current_dir(root)
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building attrition failed");
    target.join("release").join("attrition")
}

#[test]
fn toy_workloads_pass_their_checks() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .to_path_buf();
    let attrition = attrition_binary(&root);
    let work = scratch("toy");
    for name in perfbench::workload::NAMES {
        for trace in [false, true] {
            let options = perfbench::Options {
                workload: name.to_owned(),
                seed: 5,
                seconds: 2.0,
                trace,
                toy: true,
                checkpoints: true,
                attrition: attrition.clone(),
                // A directory per run: the library keeps WAL files open
                // per path for the life of the process.
                work: work.join(format!("{name}-{trace}")),
                root: root.clone(),
            };
            let result = perfbench::run(&options).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(result.tally.problems, Vec::<String>::new(), "{name}");
            assert_eq!(result.tally.failed, 0, "{name}");
            assert!(
                result.metrics.iter().all(|(_, v, _)| v.is_finite()),
                "{name}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&work);
}
