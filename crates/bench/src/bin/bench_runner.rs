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
//! **Executor mode** (default) times the execution engines and solvers and
//! writes `BENCH_executor.json`. With `--check BASELINE` the deterministic
//! metrics (n, m, rounds, messages, activations) are compared against the
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
//! `BENCH_conformance.json` (per-family ratio distribution), and exits
//! non-zero when any solver violates feasibility, determinism, the
//! certified ratio bounds, or the CONGEST bandwidth budget.
//!
//! **Server mode** (`--server`) benchmarks the streaming server
//! (`dsf-server`) under open-loop load at offered rates ×{0.5, 1, 2} of
//! measured capacity, writing `BENCH_server.json` (solves/sec plus
//! p50/p99 sojourn latency). In-harness gates: admission-control probes
//! (saturation rejects, cancellations and expired deadlines reported)
//! and per-job bit-identity to direct solves. No baseline (`--check` is
//! rejected).
//!
//! Every mode prints the effective worker-thread count in its header, so
//! a malformed `DSF_THREADS` cannot silently run a gate single-threaded —
//! and, next to it, the process-wide work-stealing observability totals
//! (sharded runs, worker-rounds, slots, steals, idle waits from
//! `dsf_congest::sched_obs_totals`), which are report-only by contract:
//! the deterministic gates are blind to them.
//!
//! **Service mode** (`--service`) benchmarks the batched solver service
//! (`dsf-service`) over the workloads corpus at batch sizes {1, 16, 256}
//! and worker counts {1, 4}, writing `BENCH_service.json` (throughput in
//! solves/sec). Two guarantees are asserted in-harness before any entry
//! is emitted: batched results are bit-identical to one-at-a-time solves,
//! and warm sessions allocate no arenas. Like scale mode there is no
//! baseline (`--check` is rejected) — wall-clock is the product.
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
//! Unknown flags are rejected with a usage message (exit code 2).

use std::process::ExitCode;

use dsf_bench::churn;
use dsf_bench::conformance;
use dsf_bench::perf::{self, BenchReport};
use dsf_bench::server;
use dsf_bench::service;

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
                 BENCH_scale.json with --scale/--scale-xl, or
                 BENCH_conformance.json with --conformance)
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

struct Args {
    quick: bool,
    scale: bool,
    scale_xl: bool,
    conformance: bool,
    service: bool,
    server: bool,
    churn: bool,
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
        scale: false,
        scale_xl: false,
        conformance: false,
        service: false,
        server: false,
        churn: false,
        out: None,
        check: None,
    };
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
            "--scale" => args.scale = true,
            "--scale-xl" => args.scale_xl = true,
            "--conformance" => args.conformance = true,
            "--service" => args.service = true,
            "--server" => args.server = true,
            "--churn" => args.churn = true,
            "--out" => args.out = Some(path_value("--out", it.next())?),
            "--check" => args.check = Some(path_value("--check", it.next())?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if (args.conformance
        || args.scale
        || args.scale_xl
        || args.service
        || args.server
        || args.churn)
        && args.check.is_some()
    {
        return Err("--check applies to executor mode only".into());
    }
    if [
        args.conformance,
        args.scale,
        args.scale_xl,
        args.service,
        args.server,
        args.churn,
    ]
    .iter()
    .filter(|&&m| m)
    .count()
        > 1
    {
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
    if args.conformance {
        run_conformance(&args)
    } else if args.service {
        run_service(&args)
    } else if args.server {
        run_server(&args)
    } else if args.churn {
        run_churn(&args)
    } else {
        run_executor(&args)
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

fn run_server(args: &Args) -> ExitCode {
    let out_path = args
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_server.json".into());
    // collect() panics (non-zero exit) if an admission-control probe or a
    // bit-identity assert fails — those are this mode's gate.
    let report = server::collect(args.quick);
    if let Err(e) = std::fs::write(&out_path, report.to_json()) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }

    println!(
        "# bench_runner --server ({} mode) -> {out_path}\n# {}\n# {}\n",
        report.mode,
        threads_header(),
        sched_obs_header()
    );
    println!(
        "{:<24} {:>5} {:>3} {:>5} {:>6} {:>9} {:>11} {:>11} {:>11} {:>10}",
        "workload", "jobs", "w", "cap", "rate", "rounds", "messages", "p50", "p99", "solves/s"
    );
    for e in &report.entries {
        let rate = if e.rate_milli_x == 0 {
            "closed".to_string()
        } else {
            format!("x{:.1}", e.rate_milli_x as f64 / 1000.0)
        };
        println!(
            "{:<24} {:>5} {:>3} {:>5} {:>6} {:>9} {:>11} {:>8.3} ms {:>8.3} ms {:>10.3}",
            e.name,
            e.jobs,
            e.workers,
            e.queue_capacity,
            rate,
            e.rounds,
            e.messages,
            e.p50_ns as f64 / 1e6,
            e.p99_ns as f64 / 1e6,
            e.solves_per_sec_milli as f64 / 1000.0,
        );
    }
    println!(
        "\nserver gate: admission probes passed (saturation rejects, cancel/deadline reported) \
         and every job bit-identical to its direct solve"
    );
    ExitCode::SUCCESS
}

fn run_churn(args: &Args) -> ExitCode {
    let out_path = args
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_churn.json".into());
    // collect() panics (non-zero exit) if a repaired forest fails the
    // churn-differential oracle, the replay drifts across thread counts,
    // or the majority-2x-speedup gate is missed — those are this mode's
    // gate.
    let report = churn::collect(args.quick);
    if let Err(e) = std::fs::write(&out_path, report.to_json()) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }

    println!(
        "# bench_runner --churn ({} mode) -> {out_path}\n# {}\n# {}\n",
        report.mode,
        threads_header(),
        sched_obs_header()
    );
    println!(
        "{:<38} {:>2} {:>5} {:>7} {:>9} {:>7} {:>7} {:>9} {:>11} {:>11} {:>11} {:>8}",
        "workload",
        "k",
        "moves",
        "weight",
        "scratch",
        "ratio",
        "bound",
        "rounds",
        "messages",
        "repair",
        "scratch t",
        "speedup"
    );
    for e in &report.entries {
        println!(
            "{:<38} {:>2} {:>5} {:>7} {:>9} {:>7.3} {:>7.3} {:>9} {:>11} {:>8.3} ms {:>8.3} ms {:>7.1}x",
            e.name,
            e.k,
            e.moves,
            e.weight,
            e.scratch_weight,
            e.ratio_milli as f64 / 1000.0,
            e.bound_milli as f64 / 1000.0,
            e.rounds,
            e.messages,
            e.repair_wall_ns as f64 / 1e6,
            e.scratch_wall_ns as f64 / 1e6,
            e.speedup_milli as f64 / 1000.0,
        );
    }
    let fast = report
        .entries
        .iter()
        .filter(|e| e.speedup_milli >= 2000)
        .count();
    println!(
        "\nchurn gate: every repair feasible, within the certified bound, <= scratch weight; \
         replay bit-identical across thread counts; >=2x speedup on {fast} of {} steps",
        report.entries.len()
    );
    ExitCode::SUCCESS
}

fn run_service(args: &Args) -> ExitCode {
    let out_path = args
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_service.json".into());
    // collect() panics (non-zero exit) if a determinism or allocation
    // guarantee is violated — those asserts are this mode's gate.
    let report = service::collect(args.quick);
    if let Err(e) = std::fs::write(&out_path, report.to_json()) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }

    println!(
        "# bench_runner --service ({} mode) -> {out_path}\n# {}\n# {}\n",
        report.mode,
        threads_header(),
        sched_obs_header()
    );
    println!(
        "{:<44} {:>5} {:>3} {:>9} {:>11} {:>7} {:>7} {:>12} {:>10}",
        "workload", "jobs", "w", "rounds", "messages", "reuses", "builds", "wall", "solves/s"
    );
    for e in &report.entries {
        println!(
            "{:<44} {:>5} {:>3} {:>9} {:>11} {:>7} {:>7} {:>9.3} ms {:>10.3}",
            e.name,
            e.jobs,
            e.workers,
            e.rounds,
            e.messages,
            e.arena_reuses,
            e.arena_builds,
            e.wall_ns as f64 / 1e6,
            e.solves_per_sec_milli as f64 / 1000.0,
        );
    }
    println!(
        "\nservice gate: batched == sequential (bit-identical) and 0 steady-state arena builds"
    );
    ExitCode::SUCCESS
}

fn run_conformance(args: &Args) -> ExitCode {
    let out_path = args
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_conformance.json".into());
    let report = conformance::collect(args.quick);
    if let Err(e) = std::fs::write(&out_path, report.to_json()) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }

    println!(
        "# bench_runner --conformance ({} mode) -> {out_path}\n# {}\n# {}\n",
        report.mode,
        threads_header(),
        sched_obs_header()
    );
    println!(
        "{:<28} {:>11} {:>11} {:>11}",
        "family/solver", "min ratio", "mean ratio", "max ratio"
    );
    for (key, min, mean, max) in report.family_summary() {
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
    for s in &report.solvers {
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
    let (beaten, compared) = conformance::families_beating_det(&report.entries);
    println!(
        "\ngreedy+local_search beats det's mean ratio on {beaten} of {compared} \
         families (gate: >= {})",
        compared.div_ceil(2)
    );
    println!(
        "{} records over {} mode corpus (ratio = weight / certified upper bound)",
        report.entries.len(),
        report.mode
    );

    if report.violations.is_empty() {
        println!("conformance gate: no violations");
        ExitCode::SUCCESS
    } else {
        eprintln!("\nconformance gate FAILED ({}):", report.violations.len());
        for v in &report.violations {
            eprintln!("  {v}");
        }
        ExitCode::FAILURE
    }
}

fn run_executor(args: &Args) -> ExitCode {
    let default_out = if args.scale_xl || args.scale {
        "BENCH_scale.json"
    } else {
        "BENCH_executor.json"
    };
    let out_path = args.out.clone().unwrap_or_else(|| default_out.into());
    let report = if args.scale_xl {
        perf::collect_scale_xl(args.quick)
    } else if args.scale {
        perf::collect_scale(args.quick)
    } else {
        perf::collect(args.quick)
    };
    let json = report.to_json();
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }

    println!(
        "# bench_runner ({} mode) -> {out_path}\n# {}\n# {}\n",
        report.mode,
        threads_header(),
        sched_obs_header()
    );
    println!(
        "{:<44} {:>8} {:>9} {:>3} {:>9} {:>11} {:>12} {:>12} {:>8} {:>7} {:>6} {:>10}",
        "workload",
        "n",
        "m",
        "t",
        "rounds",
        "messages",
        "activations",
        "mean wall",
        "speedup",
        "steals",
        "util",
        "mem peak"
    );
    for e in &report.entries {
        let speedup = e
            .speedup_milli
            .map(|s| format!("{:.2}x", s as f64 / 1000.0))
            .unwrap_or_else(|| "-".into());
        let mem = e
            .mem_peak_bytes
            .map(|b| format!("{:.1} MiB", b as f64 / (1 << 20) as f64))
            .unwrap_or_else(|| "-".into());
        let steals = e
            .steals
            .map(|s| s.to_string())
            .unwrap_or_else(|| "-".into());
        let util = e
            .utilization_milli
            .map(|u| format!("{:.0}%", u as f64 / 10.0))
            .unwrap_or_else(|| "-".into());
        println!(
            "{:<44} {:>8} {:>9} {:>3} {:>9} {:>11} {:>12} {:>9.3} ms {:>8} {:>7} {:>6} {:>10}",
            e.name,
            e.n,
            e.m,
            e.threads,
            e.rounds,
            e.messages,
            e.activations,
            e.wall_ns.mean as f64 / 1e6,
            speedup,
            steals,
            util,
            mem,
        );
    }

    if args.scale_xl {
        println!(
            "\nscale-xl gate: t=1/t=4 metrics bit-identical and peak memory within \
             {} B/node",
            perf::XL_BYTES_PER_NODE_BUDGET
        );
    }

    let Some(baseline_path) = &args.check else {
        return ExitCode::SUCCESS;
    };
    let baseline = match std::fs::read_to_string(baseline_path)
        .map_err(|e| e.to_string())
        .and_then(|s| BenchReport::parse(&s))
    {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot load baseline {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let drifts = report.diff_deterministic(&baseline);
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
