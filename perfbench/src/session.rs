//! One measured run: the offline, ingest and restart phases against the
//! real `attrition` binary, each followed by its correctness checks.

use crate::client::{self, Conn, Frame, MemberReply};
use crate::direct::{self, Point, Ymd};
use crate::proc::{self, Server};
use crate::setup::{Frames, Inputs, Residents, CHECKPOINT_LSN};
use crate::workload::Workload;
use attrition_core::{StabilityMonitor, StabilityParams};
use attrition_store::WindowSpec;
use attrition_types::{Basket, CustomerId, Date};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::time::Instant;

/// Operation counts and failed checks, gathered across phases.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    /// Operations the program answered with `ERR` or did not complete.
    pub failed: u64,
    /// Checks that did not hold.
    pub problems: Vec<String>,
}

impl Tally {
    fn problem(&mut self, text: String) {
        if self.problems.len() < 20 {
            self.problems.push(text);
        }
    }
}

// ---------------------------------------------------------------- offline

/// The Figure 1 reference: stability AUROC per window from the generated
/// files, the defector onset month, and the class sizes.
pub struct Fig1Reference {
    pub stability_auroc: Vec<f64>,
    pub onset_month: u32,
    pub w_months: u32,
    pub n_pos: usize,
    pub n_neg: usize,
}

impl Fig1Reference {
    /// From the parsed `receipts.csv` and the data directory's other files.
    pub fn compute(data_dir: &Path, receipts: &[direct::Receipt]) -> Result<Fig1Reference, String> {
        let read = |name: &str| {
            std::fs::read_to_string(data_dir.join(name)).map_err(|e| format!("reading {name}: {e}"))
        };
        let segments = direct::read_segments(&read("taxonomy.csv")?)?;
        let (defectors, onset) = direct::read_labels(&read("labels.csv")?)?;
        let stability_auroc =
            direct::fig1_stability_auroc(receipts, &segments, &defectors, 2.0, 2)?;
        let customers: HashSet<u64> = receipts.iter().map(|r| r.customer).collect();
        let n_pos = customers
            .iter()
            .filter(|c| defectors.get(c).copied().unwrap_or(false))
            .count();
        Ok(Fig1Reference {
            stability_auroc,
            onset_month: onset.ok_or("labels.csv names no defector")?,
            w_months: 2,
            n_pos,
            n_neg: customers.len() - n_pos,
        })
    }
}

/// Whether `printed` is `exact` at three decimals. A value within 1e-9
/// of a rounding boundary may print either way.
pub fn matches_printed(printed: &str, exact: f64) -> bool {
    if exact.is_nan() {
        return printed == "-";
    }
    if format!("{exact:.3}") == printed {
        return true;
    }
    let Ok(p) = printed.parse::<f64>() else {
        return false;
    };
    let scaled = exact * 1000.0;
    let near_boundary = (scaled - scaled.floor() - 0.5).abs() < 1e-6;
    near_boundary && (p - exact).abs() <= 0.0005 + 1e-9
}

/// Check `attrition evaluate`'s table against the reference: every
/// stability AUROC equal at the printed precision; the RFM column near
/// chance before the onset and clear of a floor in the last window.
pub fn check_fig1_table(stdout: &str, reference: &Fig1Reference) -> Vec<String> {
    let mut problems = Vec::new();
    let rows: Vec<Vec<&str>> = stdout
        .lines()
        .skip_while(|l| !l.starts_with("window"))
        .skip(2)
        .take_while(|l| !l.trim().is_empty())
        .map(|l| l.split_whitespace().collect())
        .collect();
    if rows.len() != reference.stability_auroc.len() {
        problems.push(format!(
            "evaluate printed {} windows, the data has {}",
            rows.len(),
            reference.stability_auroc.len()
        ));
        return problems;
    }
    let sd = direct::null_auroc_sd(reference.n_pos, reference.n_neg);
    let floor = if reference.n_pos.min(reference.n_neg) >= 500 {
        0.55
    } else {
        0.5
    };
    for (k, row) in rows.iter().enumerate() {
        if row.len() != 4 || row[0] != k.to_string() {
            problems.push(format!("malformed evaluate row {k}: {row:?}"));
            continue;
        }
        let exact = reference.stability_auroc[k];
        if !matches_printed(row[2], exact) {
            problems.push(format!(
                "window {k}: evaluate printed stability AUROC {}, the definition gives {exact:.6}",
                row[2]
            ));
        }
        let rfm: f64 = row[3].parse().unwrap_or(f64::NAN);
        let end_month = (k as u32 + 1) * reference.w_months;
        let near_chance = (rfm - 0.5).abs() <= 5.0 * sd;
        if end_month <= reference.onset_month && !near_chance {
            problems.push(format!(
                "window {k} precedes the onset but its RFM AUROC {rfm} is not near chance"
            ));
        }
        let clears_floor = rfm >= floor;
        if k + 1 == rows.len() && !clears_floor {
            problems.push(format!(
                "last window's RFM AUROC {rfm} is below the floor {floor}"
            ));
        }
    }
    problems
}

#[derive(Default)]
pub struct OfflineOutcome {
    pub wall_s: Vec<f64>,
    pub peak_rss_mb: f64,
    tables: Vec<String>,
}

impl OfflineOutcome {
    /// One round of `attrition evaluate` runs: at least `min`, and more
    /// until `budget_s` has passed.
    pub fn round(
        &mut self,
        attrition: &Path,
        inputs: &Inputs,
        min: usize,
        budget_s: f64,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let dir = inputs.data_dir.display().to_string();
        let args: Vec<String> = vec![
            "evaluate".to_owned(),
            "--receipts".to_owned(),
            format!("{dir}/receipts.csv"),
            "--taxonomy".to_owned(),
            format!("{dir}/taxonomy.csv"),
            "--labels".to_owned(),
            format!("{dir}/labels.csv"),
        ];
        let started = Instant::now();
        let mut runs = 0;
        while runs < min || started.elapsed().as_secs_f64() < budget_s {
            runs += 1;
            tally.attempted += 1;
            let run = proc::run(attrition, &args)?;
            self.wall_s.push(run.wall_s);
            self.peak_rss_mb = self.peak_rss_mb.max(run.peak_rss_mb);
            self.tables.push(run.stdout);
        }
        Ok(())
    }

    /// Check every printed table against the reference.
    pub fn check(&self, inputs: &Inputs, tally: &mut Tally) -> Result<(), String> {
        let reference = Fig1Reference::compute(&inputs.data_dir, &inputs.receipts)?;
        for table in &self.tables {
            for p in check_fig1_table(table, &reference) {
                tally.problem(p);
            }
        }
        Ok(())
    }
}

// ----------------------------------------------------------------- ingest

/// Slices a closed-loop phase is cut into for its median rate.
const RATE_SLICES: usize = 8;

/// A `SCORE` or `CLOSED` line's numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scored {
    pub customer: u64,
    pub window: u32,
    pub point: Point,
}

/// Parse `SCORE c k value present total` or `CLOSED c k value present
/// total explanation`.
pub fn parse_scored(line: &str) -> Option<Scored> {
    let mut f = line.split(' ');
    let verb = f.next()?;
    if verb != "SCORE" && verb != "CLOSED" {
        return None;
    }
    let customer = f.next()?.parse().ok()?;
    let window = f.next()?.parse().ok()?;
    let value = f.next()?.parse().ok()?;
    let present = f.next()?.parse().ok()?;
    let total = f.next()?.parse().ok()?;
    Some(Scored {
        customer,
        window,
        point: Point {
            value,
            present,
            total,
        },
    })
}

fn same_bits(a: Point, b: Point) -> bool {
    a.value.to_bits() == b.value.to_bits()
        && a.present.to_bits() == b.present.to_bits()
        && a.total.to_bits() == b.total.to_bits()
}

/// Check a SCORE reply against the expected window and point, bit for bit.
pub fn check_score(reply: &str, customer: u64, window: u32, expected: Point) -> Result<(), String> {
    match parse_scored(reply) {
        Some(s) if s.customer == customer && s.window == window && same_bits(s.point, expected) => {
            Ok(())
        }
        _ => Err(format!(
            "SCORE {customer}: got {reply:?}, expected window {window} value {} present {} total {}",
            expected.value, expected.present, expected.total
        )),
    }
}

/// Check one CLOSED line against the definition, within 1e-9 relative.
pub fn check_closed(got: Scored, expected: Point) -> Result<(), String> {
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(f64::MIN_POSITIVE);
    if close(got.point.value, expected.value)
        && close(got.point.present, expected.present)
        && close(got.point.total, expected.total)
    {
        Ok(())
    } else {
        Err(format!(
            "CLOSED {} window {}: got {:?}, the definition gives {:?}",
            got.customer, got.window, got.point, expected
        ))
    }
}

fn server_grid_args(inputs: &Inputs) -> Vec<String> {
    vec![
        "--origin".into(),
        inputs.origin.to_string(),
        "--window".into(),
        "2".into(),
        "--sync-policy".into(),
        "always".into(),
    ]
}

/// Window index of `date` on the ingest server's grid.
fn window_of(origin: Ymd, date: Ymd) -> u32 {
    ((date.month_index() - origin.month_index()) / 2) as u32
}

/// What the ingest server measured over a run.
pub struct IngestOutcome {
    /// Every frame sent, in send order, for the traced replay, and which
    /// of them the open-loop phases sent.
    pub sent: Vec<Frame>,
    pub open_sent: Vec<usize>,
    /// Closed-loop rate in each slice of every round.
    pub slices: Vec<f64>,
    pub latency_ms: Vec<f64>,
    pub lag_ms: Vec<f64>,
    /// `serve.wal.fsyncs` ÷ `serve.wal.appends` from the server's STATS.
    pub server_fsyncs_per_op: f64,
    pub peak_rss_mb: f64,
}

type ClosedIngest = client::ClosedOutcome<Vec<MemberReply>>;

/// The durable-ingest server across the rounds of a run: warmed up once,
/// then per round an open-loop chunk and a closed-loop stretch of that
/// round's stream segment. Replies are kept for the checks in `finish`.
pub struct IngestRun<'a> {
    inputs: &'a Inputs,
    server: Server,
    /// Every acknowledged member, in send order: its receipt and reply.
    acked: Vec<(usize, MemberReply)>,
    out: IngestOutcome,
}

impl<'a> IngestRun<'a> {
    /// Start `attrition serve --wal-dir` on a fresh directory and send the
    /// warm-up stream, closed loop, unmeasured.
    pub fn start(
        attrition: &Path,
        inputs: &'a Inputs,
        w: &Workload,
        work: &Path,
        tally: &mut Tally,
    ) -> Result<IngestRun<'a>, String> {
        let dir = work.join("ingest-wal");
        let _ = std::fs::remove_dir_all(&dir);
        let mut args = vec![
            "--wal-dir".to_owned(),
            dir.display().to_string(),
            "--addr".into(),
            "127.0.0.1:0".into(),
        ];
        args.extend(server_grid_args(inputs));
        if !w.checkpoints {
            args.extend(["--checkpoint-every", "0", "--checkpoint-secs", "0"].map(String::from));
        }
        let mut run = IngestRun {
            inputs,
            server: Server::start(attrition, &args)?,
            acked: Vec::new(),
            out: IngestOutcome {
                sent: Vec::new(),
                open_sent: Vec::new(),
                slices: Vec::new(),
                latency_ms: Vec::new(),
                lag_ms: Vec::new(),
                server_fsyncs_per_op: f64::NAN,
                peak_rss_mb: 0.0,
            },
        };
        let forever = Instant::now() + std::time::Duration::from_secs(3600);
        run.closed(&inputs.warmup, w.window, forever, tally)?;
        Ok(run)
    }

    /// Closed loop over `pools` until `deadline`; returns when it started.
    fn closed(
        &mut self,
        pools: &[Frames],
        window: usize,
        deadline: Instant,
        tally: &mut Tally,
    ) -> Result<(Instant, Vec<ClosedIngest>), String> {
        let streams: Vec<Vec<Frame>> = pools.iter().map(|p| p.frames.clone()).collect();
        let started = Instant::now();
        let outcomes = client::closed_loop(
            &self.server.addr,
            &streams,
            window,
            deadline,
            false,
            &|_, _, r| r,
        )?;
        for (pool, outcome) in pools.iter().zip(&outcomes) {
            tally.attempted += outcome.members_acked as u64;
            self.out
                .sent
                .extend(pool.frames[..outcome.frames_acked].iter().cloned());
            let members = pool.members[..outcome.members_acked].iter().copied();
            self.acked
                .extend(members.zip(outcome.replies.iter().flatten().cloned()));
        }
        Ok((started, outcomes))
    }

    /// Round `r`: the open-loop chunk, then the closed loop for `seconds`.
    pub fn round(
        &mut self,
        r: usize,
        w: &Workload,
        seconds: f64,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let segment = &self.inputs.segments[r];
        tally.attempted += segment.open.members.len() as u64;
        let open = client::open_loop(&self.server.addr, &segment.open.frames, w.open_rate)?;
        self.out.latency_ms.extend(&open.latency_ms);
        self.out.lag_ms.extend(&open.send_lag_ms);
        let at = self.out.sent.len();
        self.out
            .open_sent
            .extend(at..at + segment.open.frames.len());
        self.out.sent.extend(segment.open.frames.iter().cloned());
        let members = segment.open.members.iter().copied();
        self.acked
            .extend(members.zip(open.replies.into_iter().flatten()));

        let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
        let (started, outcomes) = self.closed(&segment.closed, w.window, deadline, tally)?;
        if outcomes.iter().all(|c| c.frames_acked == 0) {
            return Err("a closed-loop ingest round had no frames to send".into());
        }
        let slices = client::slice_rates(&outcomes, started, RATE_SLICES);
        self.out.slices.extend(slices);
        Ok(())
    }

    /// Check every reply: no `ERR`; the sample's SCOREs equal a fold of
    /// the acknowledged members through the library's monitor, bit for
    /// bit; after a FLUSH, each CLOSED window of the sample matches the
    /// definition. Then kill the server.
    pub fn finish(self, tally: &mut Tally) -> Result<IngestOutcome, String> {
        let IngestRun {
            inputs,
            server,
            acked,
            mut out,
        } = self;
        let samples: HashSet<u64> = inputs.samples.iter().copied().collect();
        let mut reference = StabilityMonitor::new(
            WindowSpec::months(date_of(inputs.origin), 2),
            StabilityParams::PAPER,
        )
        .with_max_explanations(5);
        // Per sample customer: item set per window, from acknowledged receipts.
        let mut windows: HashMap<u64, BTreeMap<u32, Vec<u32>>> = HashMap::new();
        let mut closed_lines: Vec<Scored> = Vec::new();
        let mut last_date = inputs.origin;
        for (index, reply) in &acked {
            let receipt = &inputs.receipts[*index];
            if !reply[0].starts_with("OK ") {
                tally.failed += 1;
                tally.problem(format!("INGEST of receipt {index} answered {:?}", reply[0]));
                continue;
            }
            reference.ingest(
                CustomerId::new(receipt.customer),
                date_of(receipt.date),
                &Basket::from_raw(&receipt.items),
            );
            last_date = last_date.max(receipt.date);
            if samples.contains(&receipt.customer) {
                windows
                    .entry(receipt.customer)
                    .or_default()
                    .entry(window_of(inputs.origin, receipt.date))
                    .or_default()
                    .extend(&receipt.items);
                closed_lines.extend(reply[1..].iter().filter_map(|l| parse_scored(l)));
            }
        }

        let mut conn = Conn::new(proc::connect(&server.addr)?);
        let mut seen: Vec<u64> = windows.keys().copied().collect();
        seen.sort_unstable();
        if seen.is_empty() {
            tally.problem("no sample customer was ingested".into());
        } else {
            let lines: Vec<String> = seen.iter().map(|c| format!("SCORE {c}")).collect();
            tally.attempted += lines.len() as u64;
            conn.send(&Frame::batch(&lines).bytes)?;
            for (c, reply) in seen.iter().zip(conn.batch_reply(lines.len())?) {
                let expected = reference
                    .preview(CustomerId::new(*c))
                    .expect("sample customer was ingested");
                let want = Point {
                    value: expected.value,
                    present: expected.present_significance,
                    total: expected.total_significance,
                };
                if let Err(e) = check_score(&reply[0], *c, expected.window.raw(), want) {
                    tally.problem(e);
                }
            }
        }

        // The server's own count of fsyncs per logged request.
        let stats = conn.request("STATS")?;
        let counter = |name: &str| -> Option<f64> {
            let at = stats[0].find(&format!("\"{name}\":"))? + name.len() + 3;
            let digits: String = stats[0][at..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect();
            digits.parse().ok()
        };
        if let (Some(fsyncs), Some(appends)) =
            (counter("serve.wal.fsyncs"), counter("serve.wal.appends"))
        {
            out.server_fsyncs_per_op = fsyncs / appends;
        }

        // Close every open window and check the sample's CLOSED lines.
        let flush_at = inputs
            .origin
            .first_of_month_plus(2 * (window_of(inputs.origin, last_date) as i64 + 1));
        tally.attempted += 1;
        let flushed = conn.request(&format!("FLUSH {flush_at}"))?;
        if !flushed[0].starts_with("OK ") {
            tally.failed += 1;
            tally.problem(format!("FLUSH answered {:?}", flushed[0]));
        }
        closed_lines.extend(
            flushed[1..]
                .iter()
                .filter_map(|l| parse_scored(l))
                .filter(|s| samples.contains(&s.customer)),
        );
        drop(conn);
        out.peak_rss_mb = server.kill()?.1;

        let mut checked: HashSet<(u64, u32)> = HashSet::new();
        for got in &closed_lines {
            let Some(per_window) = windows.get(&got.customer) else {
                tally.problem(format!(
                    "CLOSED line for un-ingested customer {}",
                    got.customer
                ));
                continue;
            };
            let set = |k: u32| direct::item_set(per_window.get(&k).cloned().unwrap_or_default());
            let history: Vec<Vec<u32>> = (0..got.window).map(set).collect();
            let expected = direct::stability(&history, &set(got.window), 2.0);
            if let Err(e) = check_closed(*got, expected) {
                tally.problem(e);
            }
            if !checked.insert((got.customer, got.window)) {
                tally.problem(format!(
                    "window {} of {} closed twice",
                    got.window, got.customer
                ));
            }
        }
        // The flush leaves every window of every sample customer closed: a
        // customer's windows run from 0, the first ones empty.
        let last = window_of(inputs.origin, last_date);
        for c in windows.keys() {
            for k in 0..=last {
                if !checked.contains(&(*c, k)) {
                    tally.problem(format!("window {k} of customer {c} never closed"));
                }
            }
        }
        Ok(out)
    }
}

pub fn date_of(d: Ymd) -> Date {
    Date::from_ymd(d.year, d.month, d.day).expect("dates in the data files are valid")
}

// ---------------------------------------------------------------- restart

/// Parse the server's `recovery:` log line into (replayed, customers).
pub fn parse_recovery_log(log: &str) -> Option<(u64, u64, u64)> {
    let line = log.lines().find(|l| l.starts_with("recovery: "))?;
    let lsn = line
        .split("checkpoint lsn ")
        .nth(1)?
        .split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()?;
    let replayed = line
        .split("replayed ")
        .nth(1)?
        .split(' ')
        .next()?
        .parse()
        .ok()?;
    let customers = line.rsplit("; ").next()?.split(' ').next()?.parse().ok()?;
    Some((lsn, replayed, customers))
}

/// Check the recovery log line against what the setup wrote.
pub fn check_recovery_log(log: &str, residents: &Residents) -> Result<(), String> {
    match parse_recovery_log(log) {
        Some((lsn, replayed, customers))
            if lsn == CHECKPOINT_LSN
                && replayed == residents.tail_records
                && customers == residents.count =>
        {
            Ok(())
        }
        _ => Err(format!(
            "recovery should load lsn {CHECKPOINT_LSN}, replay {} records and hold {} \
             customers; the server logged {:?}",
            residents.tail_records,
            residents.count,
            log.lines()
                .find(|l| l.starts_with("recovery"))
                .unwrap_or(log)
        )),
    }
}

#[derive(Default)]
pub struct RestartOutcome {
    pub restart_s: Vec<f64>,
    /// Closed-loop SCORE rate in each slice of every round.
    pub score_slices: Vec<f64>,
    pub peak_rss_mb: f64,
}

impl RestartOutcome {
    /// One round: restart a server on the prepared directory at least
    /// `min` times and until `budget_s` has passed, timing each from spawn
    /// to its first correct SCORE; on the last server, the closed SCORE
    /// loop for `score_s`. Each server is killed, so the directory is never
    /// rewritten.
    #[allow(clippy::too_many_arguments)]
    pub fn round(
        &mut self,
        attrition: &Path,
        inputs: &Inputs,
        w: &Workload,
        min: usize,
        budget_s: f64,
        score_s: f64,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let residents = &inputs.residents;
        let args = vec![
            "--wal-dir".to_owned(),
            residents.dir.display().to_string(),
            "--addr".into(),
            "127.0.0.1:0".into(),
        ];
        // A customer with WAL-tail records, so the first answer needs replay.
        let probe = *residents
            .tail
            .keys()
            .min()
            .expect("the WAL tail is not empty");
        let (probe_window, probe_point) = residents.expected(probe);
        let started = Instant::now();
        let mut restarts = 0;
        loop {
            restarts += 1;
            tally.attempted += 1;
            let server = Server::start(attrition, &args)?;
            let mut conn = Conn::new(proc::connect(&server.addr)?);
            let reply = conn.request(&format!("SCORE {probe}"))?;
            self.restart_s.push(server.spawned.elapsed().as_secs_f64());
            if let Err(e) = check_score(&reply[0], probe, probe_window, probe_point) {
                tally.problem(format!("after a restart: {e}"));
            }
            drop(conn);
            let last = restarts >= min && started.elapsed().as_secs_f64() >= budget_s;
            if last {
                self.score_loop(&server.addr, inputs, w, score_s, tally)?;
            }
            let (log, peak) = server.kill()?;
            self.peak_rss_mb = self.peak_rss_mb.max(peak);
            if let Err(e) = check_recovery_log(&log, residents) {
                tally.problem(e);
            }
            let wal_len = std::fs::metadata(residents.dir.join(attrition_serve::wal::WAL_FILE))
                .map(|m| m.len())
                .unwrap_or(0);
            if wal_len != residents.wal_len {
                tally.problem(format!(
                    "the prepared WAL changed across a restart ({} → {wal_len} bytes)",
                    residents.wal_len
                ));
            }
            if last {
                return Ok(());
            }
        }
    }

    fn score_loop(
        &mut self,
        addr: &str,
        inputs: &Inputs,
        w: &Workload,
        seconds: f64,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let residents = &inputs.residents;
        // Replies are checked as they arrive only for their customer; one
        // in eight is kept and recomputed from the definition after the
        // loop, so checking does not slow it.
        let check = |conn: usize, frame: usize, replies: Vec<MemberReply>| {
            let pool = &inputs.score_targets[conn];
            let first = (frame * w.score_batch) % pool.len();
            let mut kept = Vec::new();
            let mut failed = Vec::new();
            for (j, reply) in replies.into_iter().enumerate() {
                let c = pool[first + j];
                let line = reply.into_iter().next().unwrap_or_default();
                let named = line
                    .strip_prefix("SCORE ")
                    .and_then(|rest| rest.split(' ').next())
                    .is_some_and(|id| id.parse() == Ok(c));
                if !named {
                    failed.push(format!("SCORE {c} answered {line:?}"));
                } else if c.is_multiple_of(8) {
                    kept.push((c, line));
                }
            }
            (kept, failed)
        };
        let started = Instant::now();
        let deadline = started + std::time::Duration::from_secs_f64(seconds);
        let closed =
            client::closed_loop(addr, &inputs.score_frames, w.window, deadline, true, &check)?;
        self.score_slices
            .extend(client::slice_rates(&closed, started, RATE_SLICES));
        tally.attempted += closed.iter().map(|c| c.members_acked as u64).sum::<u64>();
        for (kept, failed) in closed.iter().flat_map(|c| &c.replies) {
            tally.failed += failed.len() as u64;
            for f in failed {
                tally.problem(f.clone());
            }
            for (c, line) in kept {
                let (k, point) = residents.expected(*c);
                if let Err(e) = check_score(line, *c, k, point) {
                    tally.problem(e);
                }
            }
        }
        Ok(())
    }
}
