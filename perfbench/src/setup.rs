//! Inputs of a run, all made from `--seed`: the generated population
//! (through `attrition generate`), its chronological receipt stream cut
//! into frames, and a prepared durable directory of synthetic residents.

use crate::client::{nproc, Frame};
use crate::direct::{self, Point, Receipt, Ymd};
use crate::workload::Workload;
use attrition_core::{StabilityMonitor, StabilityParams};
use attrition_serve::checkpoint;
use attrition_serve::wal::{SyncPolicy, Wal, WAL_FILE};
use attrition_store::WindowSpec;
use attrition_types::{Basket, CustomerId, Date};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Measured rounds a run is split into: each repeats every phase, so
/// the medians stand on samples spread over the whole run.
pub const ROUNDS: usize = 3;
/// Most receipts one round's ingest segment holds; far above what its
/// closed loop reaches, so the loop ends on its deadline.
const SEGMENT_CAP: usize = 120_000;
/// SCORE members per connection; the closed SCORE loop cycles through them.
const SCORE_POOL: usize = 131_072;
/// Customers whose replies the ingest checks follow.
pub const SAMPLE: usize = 64;

/// A 64-bit mixer (SplitMix64's finaliser): every derived choice in the
/// inputs is a pure function of the seed.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn mix3(a: u64, b: u64, c: u64) -> u64 {
    mix(mix(mix(a) ^ b) ^ c)
}

/// Frames and, for each member in order, the `stream` index of its receipt.
pub struct Frames {
    pub frames: Vec<Frame>,
    pub members: Vec<usize>,
}

impl Frames {
    fn of(stream: &[Receipt], members: Vec<usize>, batch: usize) -> Frames {
        let frames = members
            .chunks(batch)
            .map(|chunk| {
                Frame::batch(
                    &chunk
                        .iter()
                        .map(|&i| ingest_line(&stream[i]))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        Frames { frames, members }
    }

    /// The receipts in `range`, one `Frames` per connection, customers
    /// split by parity so each keeps its own order on one connection.
    fn by_connection(
        stream: &[Receipt],
        range: std::ops::Range<usize>,
        conns: usize,
        batch: usize,
    ) -> Vec<Frames> {
        let mut members = vec![Vec::new(); conns];
        for i in range {
            members[(stream[i].customer % conns as u64) as usize].push(i);
        }
        members
            .into_iter()
            .map(|m| Frames::of(stream, m, batch))
            .collect()
    }
}

/// One round's share of the ingest stream: open-loop frames first, then
/// a closed-loop pool per connection.
pub struct Segment {
    pub open: Frames,
    pub closed: Vec<Frames>,
}

pub struct Inputs {
    pub data_dir: PathBuf,
    /// Grid origin of the ingest server: first of the earliest month.
    pub origin: Ymd,
    /// Every generated receipt in chronological order; the ingest frames
    /// send a prefix of them and refer to them by index.
    pub receipts: Vec<Receipt>,
    /// Closed-loop warm-up per connection, sent before the first round so
    /// the measured rounds see every customer resident.
    pub warmup: Vec<Frames>,
    pub segments: Vec<Segment>,
    /// Customers whose replies the ingest checks follow.
    pub samples: Vec<u64>,
    pub residents: Residents,
    /// Closed-loop SCORE frames per connection and their target customers.
    pub score_frames: Vec<Vec<Frame>>,
    pub score_targets: Vec<Vec<u64>>,
}

/// Generate everything a run needs under `work`. Each set-up `round`
/// builds its durable directory under a new path: the library keeps
/// WAL files open per path for the life of the process.
pub fn prepare(
    attrition: &Path,
    w: &Workload,
    seed: u64,
    work: &Path,
    round: usize,
) -> Result<Inputs, String> {
    let data_dir = work.join("data");
    let _ = std::fs::remove_dir_all(&data_dir);
    let loyal = w.population / 2;
    let args: Vec<String> = [
        "generate",
        "--out",
        &data_dir.display().to_string(),
        "--preset",
        "paper",
        "--loyal",
        &loyal.to_string(),
        "--defectors",
        &(w.population - loyal).to_string(),
        "--months",
        &w.months.to_string(),
        "--onset",
        &w.onset.to_string(),
        "--seed",
        &seed.to_string(),
        "--quiet",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    crate::proc::run(attrition, &args)?;
    // Flush the generated files now, so their write-back does not land
    // on the measured phases' fsyncs.
    for name in ["receipts.csv", "taxonomy.csv", "labels.csv"] {
        std::fs::File::open(data_dir.join(name))
            .and_then(|f| f.sync_all())
            .map_err(|e| format!("syncing {name}: {e}"))?;
    }

    let text = std::fs::read_to_string(data_dir.join("receipts.csv"))
        .map_err(|e| format!("reading generated receipts: {e}"))?;
    let mut receipts = direct::read_receipts(&text)?;
    // Chronological, keeping each customer's own order (the file lists a
    // customer's receipts by date).
    receipts.sort_by_key(|r| r.date);
    let origin = receipts
        .first()
        .ok_or("no receipts generated")?
        .date
        .first_of_month_plus(0);
    let conns = nproc().min(2);
    let warm = (w.population as usize).min(receipts.len() / 4);
    let segment = ((receipts.len() - warm) / ROUNDS).min(SEGMENT_CAP);
    let stream = &receipts[..warm + ROUNDS * segment];
    let warmup = Frames::by_connection(stream, 0..warm, conns, w.ingest_batch);
    let open_per_round = (w.open_frames / ROUNDS * w.open_batch).min(segment / 2);
    let segments = (0..ROUNDS)
        .map(|r| {
            let start = warm + r * segment;
            let split = start + open_per_round;
            Segment {
                open: Frames::of(stream, (start..split).collect(), w.open_batch),
                closed: Frames::by_connection(
                    stream,
                    split..start + segment,
                    conns,
                    w.ingest_batch,
                ),
            }
        })
        .collect();
    let samples = (0..SAMPLE as u64)
        .map(|i| mix3(seed, 0x5A3F, i) % w.population as u64)
        .collect();

    let residents = Residents::build(
        &work.join(format!("residents-{round}")),
        mix3(seed, 0x2E51, 0),
        w.residents,
        w.wal_tail,
    )?;
    // One SCORE connection: its thread and the server worker answering it
    // each keep a core, which holds the rate steadier than two.
    let mut score_frames = Vec::new();
    let mut score_targets = Vec::new();
    for conn in 0..1 {
        let targets: Vec<u64> = (0..SCORE_POOL as u64)
            .map(|i| 1 + mix3(seed, 0x5C0 + conn as u64, i) % w.residents)
            .collect();
        score_frames.push(
            targets
                .chunks(w.score_batch)
                .map(|chunk| {
                    Frame::batch(
                        &chunk
                            .iter()
                            .map(|c| format!("SCORE {c}"))
                            .collect::<Vec<_>>(),
                    )
                })
                .collect(),
        );
        score_targets.push(targets);
    }
    Ok(Inputs {
        data_dir,
        origin,
        receipts,
        warmup,
        segments,
        samples,
        residents,
        score_frames,
        score_targets,
    })
}

pub fn ingest_line(r: &Receipt) -> String {
    let mut line = format!("INGEST {} {}", r.customer, r.date);
    for item in &r.items {
        line.push(' ');
        line.push_str(&item.to_string());
    }
    line
}

/// Windows of history each resident has in the checkpoint.
const HISTORY: u64 = 6;
/// Items a resident buys from, and the catalogue they come from.
const REPERTOIRE: u64 = 24;
const CATALOGUE: u64 = 2_000;
/// LSN the prepared checkpoint covers; the WAL tail continues after it.
pub const CHECKPOINT_LSN: u64 = 1_000;

/// The prepared durable directory: a binary checkpoint of synthetic
/// residents with `HISTORY` two-month windows each, plus a WAL tail of
/// INGEST records in the next window.
pub struct Residents {
    pub dir: PathBuf,
    pub seed: u64,
    pub count: u64,
    pub tail_records: u64,
    /// Per customer with tail records: the items those records carry.
    pub tail: HashMap<u64, Vec<u32>>,
    pub wal_len: u64,
    pub checkpoint_bytes: u64,
}

fn origin() -> Date {
    Date::from_ymd(2012, 5, 1).expect("valid date")
}

impl Residents {
    fn repertoire(&self, customer: u64, j: u64) -> u32 {
        (1 + mix3(self.seed, customer, j) % CATALOGUE) as u32
    }

    /// The resident's item set in history window `w`.
    pub fn basket(&self, customer: u64, w: u64) -> Vec<u32> {
        let mut items: Vec<u32> = (0..REPERTOIRE)
            .filter(|&j| mix3(self.seed ^ 0xB5, customer * HISTORY + w, j) % 100 < 55)
            .map(|j| self.repertoire(customer, j))
            .collect();
        items.push((1 + mix3(self.seed ^ 0xE7, customer, w) % CATALOGUE) as u32);
        direct::item_set(items)
    }

    fn tail_record(&self, r: u64) -> (u64, u32, Vec<u32>) {
        let customer = 1 + mix3(self.seed, 0x7A11, r) % self.count;
        let day = 1 + (r % 28) as u32;
        let items = (0..4)
            .map(|j| self.repertoire(customer, mix3(self.seed, r, j) % REPERTOIRE))
            .collect();
        (customer, day, items)
    }

    pub fn build(
        dir: &Path,
        seed: u64,
        count: u64,
        tail_records: u64,
    ) -> Result<Residents, String> {
        let io = |what: &'static str| {
            move |e: std::io::Error| format!("preparing {} ({what}): {e}", dir.display())
        };
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(io("create"))?;
        let mut residents = Residents {
            dir: dir.to_path_buf(),
            seed,
            count,
            tail_records,
            tail: HashMap::new(),
            wal_len: 0,
            checkpoint_bytes: 0,
        };
        let spec = WindowSpec::months(origin(), 2);
        let mut monitor =
            StabilityMonitor::new(spec, StabilityParams::PAPER).with_max_explanations(5);
        for customer in 1..=count {
            for w in 0..HISTORY {
                let date = origin().add_months(2 * w as i32) + (customer % 28) as i32;
                let basket = Basket::from_raw(&residents.basket(customer, w));
                monitor.ingest(CustomerId::new(customer), date, &basket);
            }
        }
        let body = monitor.snapshot_bytes();
        drop(monitor);
        let path =
            checkpoint::write_binary(dir, CHECKPOINT_LSN, &body).map_err(io("checkpoint"))?;
        residents.checkpoint_bytes = std::fs::metadata(&path).map_err(io("stat"))?.len();
        let wal_path = dir.join(WAL_FILE);
        let mut wal =
            Wal::open(&wal_path, SyncPolicy::Never, CHECKPOINT_LSN + 1).map_err(io("wal"))?;
        let tail_month = origin().add_months(2 * HISTORY as i32);
        for r in 0..tail_records {
            let (customer, day, items) = residents.tail_record(r);
            let date = tail_month + (day as i32 - 1);
            let mut line = format!("INGEST {customer} {date}");
            for item in &items {
                line.push_str(&format!(" {item}"));
            }
            wal.append(&line).map_err(io("append"))?;
            residents.tail.entry(customer).or_default().extend(items);
        }
        wal.sync().map_err(io("sync"))?;
        drop(wal);
        residents.wal_len = std::fs::metadata(&wal_path).map_err(io("stat"))?.len();
        Ok(residents)
    }

    /// The SCORE a correct server gives `customer` after recovery: its
    /// window and stability from the definition.
    pub fn expected(&self, customer: u64) -> (u32, Point) {
        match self.tail.get(&customer) {
            Some(items) => {
                let history: Vec<Vec<u32>> =
                    (0..HISTORY).map(|w| self.basket(customer, w)).collect();
                let current = direct::item_set(items.clone());
                (HISTORY as u32, direct::stability(&history, &current, 2.0))
            }
            None => {
                let history: Vec<Vec<u32>> =
                    (0..HISTORY - 1).map(|w| self.basket(customer, w)).collect();
                let current = self.basket(customer, HISTORY - 1);
                (
                    HISTORY as u32 - 1,
                    direct::stability(&history, &current, 2.0),
                )
            }
        }
    }
}
