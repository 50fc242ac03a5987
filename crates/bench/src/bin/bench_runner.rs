//! Emits the machine-readable perf and conformance trajectories.
//!
//! ```text
//! bench_runner [--quick] [--out PATH] [--check BASELINE]   # executor mode
//! bench_runner --scale [--quick] [--out PATH]              # scale mode
//! bench_runner --scale-xl [--quick] [--out PATH]           # scale-xl mode
//! bench_runner --conformance [--quick] [--out PATH]        # conformance mode
//! bench_runner --service [--quick] [--out PATH]            # service mode
//! bench_runner --server [--quick] [--out PATH]             # server mode
//! bench_runner --churn [--quick] [--out PATH]              # churn mode
//! ```
//!
//! Every mode writes one `dsf-bench/v5` report ([`dsf_bench::record`]):
//! a `tier` (the mode), a `mode` (`quick` or `full`), and one record per
//! workload whose values are split into `det` (identical on every machine
//! and thread count), `wall` (timings), and `obs` (configuration,
//! scheduling and memory facts). The default output is
//! `BENCH_<tier>.json` (`BENCH_scale.json` for both scale modes). The
//! records print as one table, followed by the mode's gate line.
//!
//! **Executor mode** (default) times the execution engines and solvers and
//! writes `BENCH_executor.json`. With `--check BASELINE` the `det` values
//! (n, m, rounds, messages, activations) are compared against the
//! checked-in baseline and any drift exits non-zero; wall-clock, thread
//! count, and speedup are report-only. After an intentional change,
//! regenerate the baseline by copying the fresh output over it.
//!
//! **Scale mode** (`--scale`) runs the dense-gossip scaling tier: large
//! path/grid/clustered graphs (n up to ~100k) plus a skewed RMAT
//! power-law instance through the single-threaded and work-stealing
//! executors at worker-thread counts {1, 2, 4, 8}, asserting
//! bit-identical deterministic metrics and reporting wall-clock speedups
//! (`speedup_milli`) alongside the per-run steal and utilization
//! counters. No baseline gates this mode — wall-clock is the product —
//! so `--check` is rejected here.
//!
//! **Scale-xl mode** (`--scale-xl`) runs the memory-compact tier: RMAT
//! power-law graphs (n=10M at edge factor 2; `--quick` shrinks to
//! n=131k) through the single-threaded and 4-way sharded executors,
//! asserting bit-identical metrics and a bytes-per-node memory budget
//! in-harness, and writing `BENCH_scale.json` with the allocation
//! high-water mark (`mem_peak_bytes`) next to `speedup_milli`. Like
//! `--scale` there is no baseline, so `--check` is rejected.
//!
//! **Conformance mode** (`--conformance`) sweeps the corpus tier through
//! the differential oracle (`dsf_workloads::conformance`), writes
//! `BENCH_conformance.json` (one record per solver × corpus entry),
//! prints the per-family and per-solver ratio summaries derived from the
//! records, and exits non-zero when any solver violates feasibility,
//! determinism, the certified ratio bounds, the CONGEST bandwidth budget,
//! or the beat-the-det condition.
//!
//! **Service mode** (`--service`) benchmarks the batched solver service
//! (`dsf-service`) over the workloads corpus at batch sizes {1, 16, 256}
//! and worker counts {1, 4}, writing `BENCH_service.json` (throughput in
//! solves/sec). Two guarantees are asserted in-harness before any record
//! is emitted: batched results are bit-identical to one-at-a-time solves,
//! and warm sessions allocate no arenas. Like scale mode there is no
//! baseline (`--check` is rejected) — wall-clock is the product.
//!
//! **Server mode** (`--server`) benchmarks the streaming server
//! (`dsf-server`) under open-loop load at offered rates ×{0.5, 1, 2} of
//! measured capacity, writing `BENCH_server.json` (solves/sec plus
//! p50/p99 sojourn latency). In-harness gates: admission-control probes
//! (saturation rejects, cancellations and expired deadlines reported)
//! and per-job bit-identity to direct solves. No baseline (`--check` is
//! rejected).
//!
//! **Churn mode** (`--churn`) replays the seeded arrival/departure/
//! reweight traces (`dsf_workloads::churn`) through the solver service's
//! delta API and writes `BENCH_churn.json` (repair-vs-scratch speedup,
//! moves per delta, deterministic anchor rounds/messages). In-harness
//! gates: every repaired forest passes the churn-differential oracle
//! (feasible, within the certified ratio bound, no heavier than a
//! from-scratch solve, scratch = greedy + `repair::optimize`), the replay is
//! bit-identical across worker-thread counts 1 and 4, and the repair is
//! at least 2× faster than scratch on a strict majority of steps. No
//! baseline (`--check` is rejected).
//!
//! Every mode prints the effective worker-thread count in its header, so
//! a malformed `DSF_THREADS` cannot silently run a gate single-threaded —
//! and, next to it, the process-wide work-stealing observability totals
//! (sharded runs, worker-rounds, slots, steals, idle waits from
//! `dsf_congest::sched_obs_totals`), which are report-only by contract:
//! the deterministic gates are blind to them.
//!
//! Unknown flags are rejected with a usage message (exit code 2).

use std::process::ExitCode;

use dsf_bench::record::{Record, Report};
use dsf_bench::{churn, conformance, perf, server, service};

const USAGE: &str = "\
usage: bench_runner [--quick] [--out PATH] [--check BASELINE]
       bench_runner --scale [--quick] [--out PATH]
       bench_runner --scale-xl [--quick] [--out PATH]
       bench_runner --conformance [--quick] [--out PATH]
       bench_runner --service [--quick] [--out PATH]
       bench_runner --server [--quick] [--out PATH]
       bench_runner --churn [--quick] [--out PATH]

  --quick        CI smoke sizes (quick corpus tier in conformance mode,
                 shrunken graphs in scale mode)
  --out PATH     output JSON path (default BENCH_executor.json,
                 BENCH_scale.json with --scale/--scale-xl,
                 BENCH_conformance.json with --conformance,
                 BENCH_service.json with --service, BENCH_server.json
                 with --server, or BENCH_churn.json with --churn)
  --check PATH   executor mode only: gate deterministic metrics against a
                 checked-in baseline report
  --scale        run the sharded-executor scaling tier (large graphs,
                 thread counts 1/2/4/8, speedup columns) instead of the
                 executor micro-benchmarks
  --scale-xl     run the memory-compact power-law tier (RMAT graphs up to
                 n=10M, thread counts 1/4, mem high-water column, with an
                 in-harness bytes-per-node budget assert)
  --conformance  run the corpus conformance sweep instead of the executor
                 benchmarks
  --service      run the batched solver-service tier (throughput at batch
                 sizes 1/16/256, worker counts 1/4, with in-harness
                 batching-determinism and zero-allocation asserts)
  --server       run the streaming-server tier (open-loop load at x0.5/x1/x2
                 of measured capacity, p50/p99 latency, with in-harness
                 admission-control and bit-identity asserts)
  --churn        run the incremental re-solve tier (delta repairs replayed
                 over seeded churn traces, with in-harness repair-quality,
                 thread-count bit-identity, and majority-2x-speedup gates)";

/// The mode flags and the tier each selects; no flag is `executor`.
const MODES: [(&str, &str); 6] = [
    ("--scale", "scale"),
    ("--scale-xl", "scale-xl"),
    ("--conformance", "conformance"),
    ("--service", "service"),
    ("--server", "server"),
    ("--churn", "churn"),
];

struct Args {
    quick: bool,
    tier: &'static str,
    out: Option<String>,
    check: Option<String>,
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("bench_runner: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn parse(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        tier: "executor",
        out: None,
        check: None,
    };
    let mut modes = 0;
    let mut it = raw.iter();
    // A flag's path value must not itself look like a flag — otherwise
    // `--out --quick` would silently eat the mode switch.
    let path_value = |flag: &str, next: Option<&String>| -> Result<String, String> {
        match next {
            Some(v) if !v.starts_with("--") => Ok(v.clone()),
            _ => Err(format!("{flag} requires a path argument")),
        }
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--out" => args.out = Some(path_value("--out", it.next())?),
            "--check" => args.check = Some(path_value("--check", it.next())?),
            other => {
                let &(_, tier) = MODES
                    .iter()
                    .find(|(flag, _)| *flag == other)
                    .ok_or_else(|| format!("unknown flag {other:?}"))?;
                args.tier = tier;
                modes += 1;
            }
        }
    }
    if args.tier != "executor" && args.check.is_some() {
        return Err("--check applies to executor mode only".into());
    }
    if modes > 1 {
        return Err(
            "--scale, --scale-xl, --conformance, --service, --server, and --churn \
             are mutually exclusive"
                .into(),
        );
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(a) => a,
        Err(e) => return usage_error(&e),
    };
    let default_out = match args.tier {
        "scale" | "scale-xl" => "BENCH_scale.json".to_string(),
        tier => format!("BENCH_{tier}.json"),
    };
    let out_path = args.out.clone().unwrap_or(default_out);
    // Each collect() panics (non-zero exit) when one of its in-harness
    // asserts fails — those are the service, server, churn, and scale
    // gates. Conformance returns its oracle violations instead.
    let quick = args.quick;
    let (report, violations) = match args.tier {
        "scale" => (perf::collect_scale(quick), Vec::new()),
        "scale-xl" => (perf::collect_scale_xl(quick), Vec::new()),
        "conformance" => conformance::collect(quick),
        "service" => (service::collect(quick), Vec::new()),
        "server" => (server::collect(quick), Vec::new()),
        "churn" => (churn::collect(quick), Vec::new()),
        _ => (perf::collect(quick), Vec::new()),
    };
    if let Err(e) = std::fs::write(&out_path, report.to_json()) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }

    println!(
        "# bench_runner {} ({} mode) -> {out_path}\n# {}\n# {}\n",
        report.tier,
        report.mode,
        threads_header(),
        sched_obs_header()
    );
    if report.tier == "conformance" {
        print_conformance(&report.records);
    } else {
        print_records(&report.records);
    }
    match report.tier.as_str() {
        "scale-xl" => println!(
            "\nscale-xl gate: t=1/t=4 metrics bit-identical and peak memory within \
             {} B/node",
            perf::XL_BYTES_PER_NODE_BUDGET
        ),
        "service" => println!(
            "\nservice gate: batched == sequential (bit-identical) and 0 steady-state arena \
             builds"
        ),
        "server" => println!(
            "\nserver gate: admission probes passed (saturation rejects, cancel/deadline \
             reported) and every job bit-identical to its direct solve"
        ),
        "churn" => {
            let fast = report
                .records
                .iter()
                .filter(|r| r.wall.get("speedup_milli").is_some_and(|s| s >= 2000))
                .count();
            println!(
                "\nchurn gate: every repair feasible, within the certified bound, <= scratch \
                 weight; replay bit-identical across thread counts; >=2x speedup on {fast} of \
                 {} steps",
                report.records.len()
            );
        }
        _ => {}
    }

    if report.tier == "conformance" {
        if violations.is_empty() {
            println!("conformance gate: no violations");
        } else {
            eprintln!("\nconformance gate FAILED ({}):", violations.len());
            for v in &violations {
                eprintln!("  {v}");
            }
            return ExitCode::FAILURE;
        }
    }
    match &args.check {
        Some(baseline_path) => check(&report, baseline_path, &out_path),
        None => ExitCode::SUCCESS,
    }
}

/// The effective worker-thread count, printed in every mode's header: a
/// malformed `DSF_THREADS` falls back to 1 (with a one-time diagnostic
/// from `dsf_congest::default_threads`), and this line makes the
/// fallback visible in gate logs instead of silently single-threading a
/// perf run.
fn threads_header() -> String {
    format!(
        "effective worker threads: {} (DSF_THREADS={})",
        dsf_congest::default_threads(),
        std::env::var("DSF_THREADS").map_or_else(|_| "unset".into(), |v| format!("{v:?}")),
    )
}

/// The process-wide work-stealing effort totals, printed in every mode's
/// header after its workloads ran. All counters are report-only
/// scheduling facts — single-threaded modes legitimately print all
/// zeros, and no gate reads them.
fn sched_obs_header() -> String {
    let o = dsf_congest::sched_obs_totals();
    format!(
        "work-stealing obs: {} sharded runs, {} busy worker-rounds, {} slots, \
         {} chunks stolen, {} idle waits",
        o.sharded_runs, o.worker_rounds, o.slots_processed, o.chunks_stolen, o.idle_waits,
    )
}

/// A value as printed in the record table: `_ns` in milliseconds,
/// `_milli` divided by 1000, `_bytes` in MiB, everything else verbatim.
fn cell(key: &str, v: u64) -> String {
    if key.ends_with("_ns") {
        format!("{:.3} ms", v as f64 / 1e6)
    } else if key.ends_with("_milli") {
        format!("{:.3}", v as f64 / 1000.0)
    } else if key.ends_with("_bytes") {
        format!("{:.1} MiB", v as f64 / (1 << 20) as f64)
    } else {
        v.to_string()
    }
}

/// One table over all records: the name, then every key of every class
/// in first-appearance order (`-` where a record lacks the key).
fn print_records(records: &[Record]) {
    // (index into `Record::classes`, key)
    let mut columns: Vec<(usize, &str)> = Vec::new();
    for r in records {
        for (c, (_, fields)) in r.classes().into_iter().enumerate() {
            for (key, _) in fields.iter() {
                if !columns.contains(&(c, key)) {
                    columns.push((c, key));
                }
            }
        }
    }
    let mut rows: Vec<Vec<String>> = vec![std::iter::once("workload")
        .chain(columns.iter().map(|&(_, key)| key))
        .map(str::to_string)
        .collect()];
    for r in records {
        let classes = r.classes();
        rows.push(
            std::iter::once(r.name.clone())
                .chain(columns.iter().map(|&(c, key)| {
                    classes[c]
                        .1
                        .get(key)
                        .map_or_else(|| "-".into(), |v| cell(key, v))
                }))
                .collect(),
        );
    }
    let widths: Vec<usize> = (0..=columns.len())
        .map(|c| rows.iter().map(|row| row[c].len()).max().unwrap_or(0))
        .collect();
    for row in &rows {
        let mut line = format!("{:<w$}", row[0], w = widths[0]);
        for (value, &w) in row.iter().zip(&widths).skip(1) {
            line.push_str(&format!(" {value:>w$}"));
        }
        println!("{line}");
    }
}

/// The conformance summaries, derived from the records: the ratio
/// distribution per family and solver, the per-solver aggregate, and the
/// beat-the-det count.
fn print_conformance(records: &[Record]) {
    println!(
        "{:<28} {:>11} {:>11} {:>11}",
        "family/solver", "min ratio", "mean ratio", "max ratio"
    );
    for (key, min, mean, max) in conformance::family_summary(records) {
        println!(
            "{key:<28} {:>11.3} {:>11.3} {:>11.3}",
            min as f64 / 1000.0,
            mean as f64 / 1000.0,
            max as f64 / 1000.0
        );
    }
    println!(
        "\n{:<22} {:>7} {:>9} {:>11} {:>11} {:>11}",
        "solver", "entries", "families", "mean ratio", "max ratio", "max bound"
    );
    for s in conformance::solver_summaries(records) {
        println!(
            "{:<22} {:>7} {:>9} {:>11.3} {:>11.3} {:>11.3}",
            s.solver,
            s.entries,
            s.families,
            s.mean_ratio_milli as f64 / 1000.0,
            s.max_ratio_milli as f64 / 1000.0,
            s.max_bound_milli as f64 / 1000.0
        );
    }
    let (beaten, compared) = conformance::families_beating_det(records);
    println!(
        "\ngreedy+local_search beats det's mean ratio on {beaten} of {compared} \
         families (gate: >= {})",
        compared.div_ceil(2)
    );
    println!(
        "{} records (ratio = weight / certified upper bound)",
        records.len()
    );
}

/// The `--check` gate: `det` drift against the baseline at `baseline_path`.
fn check(report: &Report, baseline_path: &str, out_path: &str) -> ExitCode {
    let baseline = match std::fs::read_to_string(baseline_path)
        .map_err(|e| e.to_string())
        .and_then(|s| Report::parse(&s))
    {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot load baseline {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let drifts = report.diff_det(&baseline);
    if drifts.is_empty() {
        println!("\nperf gate: no executor-metric drift vs {baseline_path}");
        ExitCode::SUCCESS
    } else {
        eprintln!("\nperf gate FAILED vs {baseline_path}:");
        for d in &drifts {
            eprintln!("  {d}");
        }
        eprintln!(
            "(intentional change? regenerate the baseline: copy {out_path} over {baseline_path})"
        );
        ExitCode::FAILURE
    }
}
