//! End-to-end benchmark of the distributed Steiner forest stack.
//!
//! ```text
//! e2ebench --workload <det-large|rand-mid>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from the seed (three times; set-up time
//! is their median), runs timed ops through the public API for the given
//! seconds, checks every output, and prints one line per metric followed
//! by a JSON summary as the last line of standard output. With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! measures half the window untraced and half traced, then replays each
//! layer alone, reports the per-layer metrics, and writes the spans as
//! Chrome trace-event JSON under `traces/`. The exit code is non-zero
//! if any check failed.

mod check;
mod delta_replay;
mod det_large;
mod harness;
mod rand_mid;
mod replay;
mod serve_open;
mod spec;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use harness::{Metrics, Window, Workload};
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 2] = ["det-large", "rand-mid"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What a run reports.
struct Report {
    metrics: Vec<(&'static str, f64)>,
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
    correct: bool,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The end-to-end metrics of one window.
fn end_to_end(
    w: &Window,
    setup_s: f64,
    tail_cap: f64,
    notes: &mut Vec<String>,
) -> Vec<(&'static str, f64)> {
    let lat: Vec<f64> = w.ops.iter().map(|o| ms(o.latency_ns)).collect();
    let tail = stats::tail(&lat, tail_cap);
    let busy_s = w.busy_ns as f64 / 1e9;
    let messages: u64 = w.ops.iter().map(|o| o.messages).sum();
    let (rounds_per_op, messages_per_op) = w.exact.per_op();
    notes.push(format!(
        "latency_ms_tail is p{} over {} samples ({} beyond it)",
        tail.pct, tail.samples, tail.beyond
    ));
    let mut by_kind: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for o in &w.ops {
        by_kind.entry(o.kind).or_default().push(ms(o.latency_ns));
    }
    for (kind, v) in &by_kind {
        notes.push(format!(
            "{kind}: {} ops, p50 {:.3} ms",
            v.len(),
            stats::median(v)
        ));
    }
    notes.push(format!(
        "error_rate = {} failed / {} attempted = {:.4}",
        w.failed,
        w.attempted,
        w.failed as f64 / w.attempted.max(1) as f64
    ));
    vec![
        ("setup_s", setup_s),
        ("latency_ms_p50", stats::median(&lat)),
        ("latency_ms_tail", tail.value),
        ("throughput_ops_per_s", w.ops.len() as f64 / busy_s),
        ("msgs_per_s", messages as f64 / busy_s),
        ("rounds_per_op", rounds_per_op),
        ("messages_per_op", messages_per_op),
        ("weight_ratio_milli", w.exact.ratio_milli()),
        ("mem_peak_mb", w.mem_peak_bytes as f64 / (1u64 << 20) as f64),
    ]
}

/// Mean ms of the spans named `name` among `spans` (0 if none).
fn mean_ms(spans: &[trace::Span], name: &str) -> f64 {
    let v: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| ms(s.end_ns - s.start_ns))
        .collect();
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn run<W: Workload>(a: &Args) -> Report {
    let mut tr = Tracer::new(a.trace);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut workload: Option<W> = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous set-up first, so runs never hold two.
        drop(workload.take());
        let t0 = Instant::now();
        let built = tr.span("harness.setup", None, |tr| W::setup(a.seed, tr));
        setup_s.push(t0.elapsed().as_secs_f64());
        workload = Some(built);
    }
    let mut w = workload.expect("set up at least once");
    let setup_s = stats::median(&setup_s);
    let mut notes = Vec::new();

    if !a.trace {
        let win = w.measure(a.seconds, &mut tr);
        let metrics = end_to_end(&win, setup_s, W::TAIL_CAP, &mut notes);
        return finish(win, metrics, notes);
    }

    // Traced run: half the window untraced, half traced, then replays.
    let setup_spans = tr.spans().len();
    let untraced = w.measure(a.seconds / 2.0, &mut Tracer::new(false));
    let traced_from = tr.spans().len();
    let win = w.measure(a.seconds / 2.0, &mut tr);
    let p50 =
        |w: &Window| stats::median(&w.ops.iter().map(|o| ms(o.latency_ns)).collect::<Vec<_>>());
    let mut layer: Metrics = win.layer.clone();
    layer.insert(
        "harness.trace_overhead_frac".into(),
        p50(&win) / p50(&untraced) - 1.0,
    );
    for (l, ns) in tr.self_ns_by_layer(traced_from) {
        layer.insert(
            format!("{l}.self_ms_per_op"),
            ms(ns) / win.ops.len().max(1) as f64,
        );
    }
    // Per call: set-up generates the networks; certificates are made in
    // set-up (serve-open's job pool) or per op in the checks.
    layer.insert(
        "graph.gen_ms".into(),
        mean_ms(&tr.spans()[..setup_spans], "graph.gen"),
    );
    layer.insert(
        "workloads.certify_ms".into(),
        mean_ms(tr.spans(), "workloads.certify"),
    );
    let replay_errors = tr.span("harness.replay", None, |tr| w.replay(tr, &win, &mut layer));
    notes.push(format!(
        "untraced half: {} ops, p50 {:.3} ms; traced half: {} ops, p50 {:.3} ms",
        untraced.ops.len(),
        p50(&untraced),
        win.ops.len(),
        p50(&win)
    ));
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/traces");
    let path = format!("{dir}/{}-seed{}.json", a.workload, a.seed);
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.chrome_json())) {
        Ok(()) => notes.push(format!("trace: {path} ({} spans)", tr.spans().len())),
        Err(e) => notes.push(format!("trace not written: {e}")),
    }
    let metrics = spec::PER_LAYER
        .iter()
        .map(|(name, _, _)| (*name, layer.get(*name).copied().unwrap_or(0.0)))
        .collect();
    let mut win = win;
    win.attempted += untraced.attempted;
    win.failed += untraced.failed;
    win.valid &= untraced.valid;
    win.errors.extend(untraced.errors);
    win.errors
        .extend(replay_errors.into_iter().map(|e| format!("replay: {e}")));
    finish(win, metrics, notes)
}

fn finish(w: Window, metrics: Vec<(&'static str, f64)>, mut notes: Vec<String>) -> Report {
    let correct = w.failed == 0 && w.errors.is_empty() && w.valid;
    notes.extend(w.errors.iter().take(20).map(|e| format!("ERROR {e}")));
    Report {
        metrics,
        notes,
        attempted: w.attempted,
        failed: w.failed,
        correct,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "det-large" => run::<det_large::DetLarge>(&args),
        _ => run::<rand_mid::RandMid>(&args),
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# {} seed={} seconds={} trace={} threads={threads}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for note in &report.notes {
        println!("# {note}");
    }
    let mut json = String::new();
    for (i, (name, value)) in report.metrics.iter().enumerate() {
        let unit = spec::unit(name).expect("every reported metric is in the spec");
        // JSON has no NaN or infinity; a metric with no samples reads 0.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        println!("{name:<44} {value:>16.4} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
