//! The experiment harness: one function per experiment of the reproduction
//! (E1–E13), each returning markdown [`Table`]s, plus the machine-readable
//! bench tiers behind `bench_runner`.
//!
//! `cargo run -p dsf-bench --bin paper_tables --release` regenerates every
//! table; `--quick` shrinks sizes and seed counts for smoke runs. The
//! criterion benches in `benches/` wrap the same workloads for wall-clock
//! measurements. `bench_runner` emits the JSON trajectories CI gates on,
//! every tier in the one [`record`] envelope (`dsf-bench/v5`): [`perf`]
//! (executor and solver metrics, plus the `--scale` / `--scale-xl`
//! sharding tiers), [`conformance`] (per-family ratio distribution),
//! [`service`] (server-batch throughput), [`server`] (streaming-server
//! latency under open-loop load), and [`churn`] (delta-repair speedup
//! over from-scratch solves on churn traces).
//!
//! # Invariants
//!
//! Every record separates **deterministic** values (`det`: rounds,
//! messages, activations, ratios — identical on every machine and
//! worker-thread count; CI fails on drift) from **report-only** ones
//! (`wall`: wall-clock, speedups, throughput; `obs`: threads, stealing
//! effort, memory — tracked as artifact trajectories, never gated). The
//! reader is strict: a corrupt baseline fails to parse instead of
//! silently passing a gate.
//!
//! # Example
//!
//! ```
//! use dsf_bench::record::{Record, Report};
//!
//! let record = Record::new("solver/x").det("rounds", 47).wall("mean_ns", 9);
//! let report = Report::new("executor", true, vec![record]);
//! // The emitted JSON round-trips through the strict reader.
//! let parsed = Report::parse(&report.to_json()).unwrap();
//! assert_eq!(parsed, report);
//! ```

mod table;

pub mod alloc_meter;
pub mod churn;
pub mod conformance;
pub mod experiments;
pub mod perf;
pub mod record;
pub mod server;
pub mod service;

pub use table::Table;

/// Runs one experiment by id (`"e1"`..`"e13"`).
///
/// # Panics
///
/// Panics on an unknown id.
pub fn run_experiment(id: &str, quick: bool) -> Vec<Table> {
    match id {
        "e1" => experiments::e1_centralized_two_approx(quick),
        "e2" => experiments::e2_rounded_epsilon(quick),
        "e3" => experiments::e3_deterministic_rounds(quick),
        "e4" => experiments::e4_randomized_vs_khan(quick),
        "e5" => experiments::e5_randomized_quality(quick),
        "e6" => experiments::e6_path_congestion(quick),
        "e7" => experiments::e7_mst_specialization(quick),
        "e8" => experiments::e8_transformations(quick),
        "e9" => experiments::e9_cr_gadget(quick),
        "e10" => experiments::e10_ic_gadget(quick),
        "e11" => experiments::e11_headline(quick),
        "e12" => experiments::e12_growth_phases(quick),
        "e13" => experiments::e13_repetition_ablation(quick),
        other => panic!("unknown experiment id {other:?} (expected e1..e13)"),
    }
}

/// All experiment ids in order.
pub const ALL_EXPERIMENTS: [&str; 13] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13",
];
