//! The workloads and the make-up of their inputs.
//!
//! Every run reports every end-to-end metric, so every workload runs the
//! same user session — evaluate a population offline, ingest its receipt
//! stream into a durable server, restart a server on a prepared durable
//! directory and read scores back. The workloads differ in what the
//! session is made of, which decides the layer that dominates it.

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// Customers of the generated population (half loyal, half defectors).
    pub population: u32,
    /// Observation length and defection onset of the generated population.
    pub months: u32,
    pub onset: u32,
    /// `attrition evaluate` runs per measured run: at least `evaluates`,
    /// and more until `evaluate_budget_s` has passed (median reported).
    pub evaluates: usize,
    pub evaluate_budget_s: f64,
    /// Open-loop ingest phase: frame count, members per frame, offered
    /// frames per second. The count is fixed so the p99 always stands on
    /// at least ten samples.
    pub open_frames: usize,
    pub open_batch: usize,
    pub open_rate: f64,
    /// Closed-loop ingest phase: share of `--seconds`, members per frame,
    /// frames in flight per connection.
    pub ingest_share: f64,
    pub ingest_batch: usize,
    pub window: usize,
    /// Prepared durable directory: resident customers in its checkpoint
    /// and INGEST records in its WAL tail.
    pub residents: u64,
    pub wal_tail: u64,
    /// Server restarts on that directory: at least `restarts`, and more
    /// until `restart_budget_s` has passed (median reported).
    pub restarts: usize,
    pub restart_budget_s: f64,
    /// Closed-loop SCORE phase: share of `--seconds`, members per frame.
    pub score_share: f64,
    pub score_batch: usize,
    /// Whether the ingest server keeps its default checkpoint triggers
    /// (off only for the reference figures, `--no-checkpoint-triggers`).
    pub checkpoints: bool,
}

pub const NAMES: [&str; 3] = ["offline-fig1", "serve-ingest", "restart-score"];

/// The workload `name` at full size, or at toy size for the self-tests.
pub fn by_name(name: &str, toy: bool) -> Option<Workload> {
    let full = match name {
        // The paper's experiment: 28 months, 2-month windows, onset at
        // month 18, at ten thousand customers.
        "offline-fig1" => Workload {
            name: "offline-fig1",
            population: 10_000,
            months: 28,
            onset: 18,
            evaluate_budget_s: 0.0,
            evaluates: 3,
            open_frames: 1_050,
            open_batch: 4,
            open_rate: 200.0,
            ingest_share: 0.3,
            ingest_batch: 64,
            window: 4,
            residents: 20_000,
            wal_tail: 5_000,
            restart_budget_s: 1.5,
            restarts: 3,
            score_share: 0.2,
            score_batch: 256,
            checkpoints: true,
        },
        // Durable ingest with a larger working set: 16k customers whose
        // receipts the server takes over 6 months.
        "serve-ingest" => Workload {
            name: "serve-ingest",
            population: 16_000,
            months: 6,
            onset: 4,
            evaluate_budget_s: 3.0,
            evaluates: 3,
            open_frames: 1_050,
            open_batch: 4,
            open_rate: 200.0,
            ingest_share: 0.5,
            ingest_batch: 64,
            window: 4,
            residents: 20_000,
            wal_tail: 5_000,
            restart_budget_s: 1.5,
            restarts: 3,
            score_share: 0.2,
            score_batch: 256,
            checkpoints: true,
        },
        // Restart of a large resident population with a long WAL tail.
        "restart-score" => Workload {
            name: "restart-score",
            population: 2_000,
            months: 6,
            onset: 4,
            evaluate_budget_s: 2.0,
            evaluates: 3,
            open_frames: 1_050,
            open_batch: 4,
            open_rate: 200.0,
            ingest_share: 0.3,
            ingest_batch: 64,
            window: 4,
            residents: 200_000,
            wal_tail: 100_000,
            restart_budget_s: 0.0,
            restarts: 3,
            score_share: 0.3,
            score_batch: 256,
            checkpoints: true,
        },
        _ => return None,
    };
    Some(if toy { shrink(full) } else { full })
}

/// The same session at a size that runs in seconds.
fn shrink(w: Workload) -> Workload {
    Workload {
        population: 600,
        evaluates: 1,
        evaluate_budget_s: 0.0,
        open_frames: 1_000,
        open_batch: 4,
        open_rate: 400.0,
        residents: w.residents.min(2_000) / if w.name == "restart-score" { 1 } else { 4 },
        wal_tail: 400,
        restarts: 2,
        restart_budget_s: 0.0,
        ..w
    }
}
