//! The executor perf harness behind `bench_runner`: deterministic
//! micro-benchmarks of the execution engines plus end-to-end solver
//! timings, emitted as [`crate::record`] reports (tier `executor`, and
//! `scale` / `scale-xl` for the sharded tiers).
//!
//! Every record carries:
//!
//! * `det` — `n`, `m`, `rounds`, `messages`, and `activations` (executor
//!   `round()` invocations; 0 for solver records), identical on every
//!   machine, every run, and every worker-thread count; CI gates on them
//!   (`bench_runner --check`);
//! * `wall` — `min_ns`/`mean_ns`/`max_ns` over the repetitions, plus
//!   `speedup_milli` (1000 × the min-wall speedup of a sharded record
//!   over its single-threaded twin; scale tiers only);
//! * `obs` — `threads` (worker threads the record ran with), and on
//!   sharded scale records `steals` / `utilization_milli`, on `--scale-xl`
//!   records `mem_peak_bytes` (the workload's allocation high-water mark
//!   via [`crate::alloc_meter`]).

use std::time::Instant;

use dsf_baselines::solve_collect_at_root;
use dsf_congest::{
    run_reference, run_sharded, run_with_buffers, CongestConfig, Message, NodeCtx, Outbox,
    Protocol, RoundLedger, RunBuffers, RunMetrics, SchedStats, SimError,
};
use dsf_core::det::{solve_deterministic, DetConfig};
use dsf_core::randomized::{solve_randomized, RandConfig};
use dsf_graph::{generators, NodeId, WeightedGraph};
use dsf_steiner::random_instance;

use crate::record::{Record, Report};

/// The raw-executor micro-workload: a BFS wave from node 0 — the sparse
/// single-source primitive underlying moat growth, where at any round only
/// the frontier has work. This is the workload class the active-set
/// scheduler exists for.
#[derive(Debug, Clone, Copy)]
struct Wave {
    depth: u32,
}

impl Message for Wave {
    fn encoded_bits(&self) -> usize {
        32
    }
}

#[derive(Debug)]
struct WaveNode {
    joined: bool,
}

impl Protocol for WaveNode {
    type Msg = Wave;

    fn init(&mut self, ctx: &NodeCtx, out: &mut Outbox<Wave>) {
        if ctx.id == NodeId(0) {
            self.joined = true;
            out.send_all(ctx, Wave { depth: 0 });
        }
    }

    fn round(&mut self, ctx: &NodeCtx, inbox: &[(NodeId, Wave)], out: &mut Outbox<Wave>) {
        if !self.joined {
            if let Some(&(_, msg)) = inbox.first() {
                self.joined = true;
                out.send_all(
                    ctx,
                    Wave {
                        depth: msg.depth + 1,
                    },
                );
            }
        }
    }

    fn done(&self) -> bool {
        // Idle until a wave message arrives; see the done() contract.
        true
    }
}

struct Timed {
    metrics: RunMetrics,
    stats: SchedStats,
    /// Fastest, mean and slowest repetition, in nanoseconds.
    min_ns: u64,
    mean_ns: u64,
    max_ns: u64,
}

impl Timed {
    /// The record of this run on `g` with `threads` workers: work
    /// metrics in `det`, the repetition timings in `wall`, the thread
    /// count in `obs`.
    fn record(&self, name: String, g: &WeightedGraph, threads: usize) -> Record {
        Record::new(name)
            .det("n", g.n() as u64)
            .det("m", g.m() as u64)
            .det("rounds", self.metrics.rounds)
            .det("messages", self.metrics.messages)
            .det("activations", self.stats.activations)
            .wall("min_ns", self.min_ns)
            .wall("mean_ns", self.mean_ns)
            .wall("max_ns", self.max_ns)
            .obs("threads", threads as u64)
    }
}

/// Runs `f` `reps` times, asserting the deterministic outcome never
/// changes across repetitions.
fn time_reps(
    reps: usize,
    mut f: impl FnMut() -> Result<(RunMetrics, SchedStats), SimError>,
) -> Timed {
    let mut wall = Vec::with_capacity(reps);
    let mut first: Option<(RunMetrics, SchedStats)> = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let out = f().expect("bench workload must run clean");
        wall.push(t0.elapsed().as_nanos() as u64);
        match &first {
            None => first = Some(out),
            Some((m, s)) => assert!(
                *m == out.0 && *s == out.1,
                "bench workload is not deterministic across repetitions"
            ),
        }
    }
    let (metrics, stats) = first.expect("at least one repetition");
    Timed {
        metrics,
        stats,
        min_ns: *wall.iter().min().expect("reps > 0"),
        mean_ns: wall.iter().sum::<u64>() / wall.len() as u64,
        max_ns: *wall.iter().max().expect("reps > 0"),
    }
}

fn wave_nodes(g: &WeightedGraph) -> Vec<WaveNode> {
    g.nodes().map(|_| WaveNode { joined: false }).collect()
}

/// One executor micro-benchmark: the same wave workload through both
/// engines, as two records (`.../event` and `.../reference`).
fn executor_pair(name: &str, g: &WeightedGraph, reps: usize, records: &mut Vec<Record>) {
    let cfg = CongestConfig::for_graph(g);
    let mut buffers = RunBuffers::for_graph(g);
    let event = time_reps(reps, || {
        run_with_buffers(g, wave_nodes(g), &cfg, &mut buffers).map(|r| (r.metrics, r.stats))
    });
    let reference = time_reps(reps, || {
        run_reference(g, wave_nodes(g), &cfg).map(|r| (r.metrics, r.stats))
    });
    assert_eq!(
        event.metrics, reference.metrics,
        "{name}: executors disagree"
    );
    for (suffix, t) in [("event", event), ("reference", reference)] {
        records.push(t.record(format!("{name}/{suffix}"), g, 1));
    }
}

/// One end-to-end solver timing; rounds/messages come from the ledger
/// (`activations` is not tracked for solvers and records as 0).
fn solver_record(
    name: &str,
    g: &WeightedGraph,
    reps: usize,
    records: &mut Vec<Record>,
    mut f: impl FnMut() -> Result<RoundLedger, SimError>,
) {
    let timed = time_reps(reps, || {
        f().map(|ledger| {
            let messages = ledger.entries().iter().map(|e| e.messages).sum();
            (
                RunMetrics {
                    rounds: ledger.total(),
                    messages,
                    ..RunMetrics::default()
                },
                SchedStats::default(),
            )
        })
    });
    // Solvers run through `dsf_congest::run`, which dispatches on the
    // configured thread count — record it so the artifact documents the
    // configuration behind the wall-clock numbers.
    records.push(timed.record(name.to_string(), g, dsf_congest::default_threads()));
}

/// Runs every workload and assembles the report.
///
/// `quick` shrinks sizes and repetition counts for the CI smoke gate; the
/// checked-in baseline (`crates/bench/baselines/executor_quick.json`) is a
/// quick-mode report.
pub fn collect(quick: bool) -> Report {
    let reps = if quick { 3 } else { 7 };
    let mut records = Vec::new();

    // Raw executor micro-benchmarks: one sparse wave per graph family.
    // The 10k path is the headline workload: the reference engine performs
    // n invocations per round for ~n rounds (Θ(n²)), the active-set
    // scheduler ~2 per node total.
    let path_n = if quick { 10_000 } else { 30_000 };
    let g = generators::path(path_n, 1);
    executor_pair(
        &format!("executor/bfs_wave/path/n={path_n}"),
        &g,
        reps,
        &mut records,
    );

    let side = if quick { 100 } else { 160 };
    let g = generators::grid(side, side, 4, 3);
    executor_pair(
        &format!("executor/bfs_wave/grid/n={}", side * side),
        &g,
        reps,
        &mut records,
    );

    let (gn, gp) = if quick {
        (2_000, 0.008)
    } else {
        (4_000, 0.005)
    };
    let g = generators::gnp_connected(gn, gp, 9, 5);
    executor_pair(
        &format!("executor/bfs_wave/gnp/n={gn}"),
        &g,
        reps,
        &mut records,
    );

    // End-to-end solver timings (all protocol stages run through the
    // event-driven engine).
    let (sn, sp) = if quick { (48, 0.12) } else { (96, 0.08) };
    let g = generators::gnp_connected(sn, sp, 9, 7);
    let inst = random_instance(&g, 3, 2, 11);
    solver_record(
        &format!("solver/deterministic/gnp/n={sn}"),
        &g,
        reps,
        &mut records,
        || solve_deterministic(&g, &inst, &DetConfig::default()).map(|o| o.rounds),
    );
    solver_record(
        &format!("solver/randomized/gnp/n={sn}"),
        &g,
        reps,
        &mut records,
        || {
            let cfg = RandConfig {
                seed: 5,
                repetitions: 2,
                ..RandConfig::default()
            };
            solve_randomized(&g, &inst, &cfg).map(|o| o.rounds)
        },
    );
    solver_record(
        &format!("solver/collect_at_root/gnp/n={sn}"),
        &g,
        reps,
        &mut records,
        || solve_collect_at_root(&g, &inst).map(|o| o.rounds),
    );

    Report::new("executor", quick, records)
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The scale-tier workload message: one 64-bit digest per edge per round.
///
/// The payload is [`NonZeroU64`](std::num::NonZeroU64) so that
/// `Option<GossipMsg>` — the slot-arena element type — is 8 bytes instead
/// of 16 (niche optimization): at the `--scale-xl` tier's 40M directed
/// slots that halves the two arena copies. Digest values are arbitrary
/// deterministic bit-soup, so pinning the rare zero digest to a fixed
/// nonzero sentinel loses nothing.
#[derive(Debug, Clone, Copy)]
pub struct GossipMsg(std::num::NonZeroU64);

impl GossipMsg {
    fn of(digest: u64) -> GossipMsg {
        GossipMsg(std::num::NonZeroU64::new(digest).unwrap_or(std::num::NonZeroU64::MAX))
    }
}

impl Message for GossipMsg {
    fn encoded_bits(&self) -> usize {
        64
    }
}

/// The scale-tier workload: dense deterministic gossip. Every node floods
/// a digest to all neighbors for a fixed number of rounds and folds every
/// received digest into its own — so *every* node is active *every*
/// round, the per-round work the sharded executor parallelizes. (The
/// sparse `bfs_wave` workload is the opposite extreme: one active node
/// per round, nothing to parallelize.)
///
/// Exported so the root acceptance test (`tests/executor_scheduling.rs`)
/// times the *same* workload the `--scale` bench tier reports on.
#[derive(Debug, PartialEq, Eq)]
pub struct GossipNode {
    digest: u64,
    rounds_left: u32,
}

impl Protocol for GossipNode {
    type Msg = GossipMsg;

    fn init(&mut self, ctx: &NodeCtx, out: &mut Outbox<GossipMsg>) {
        self.digest = splitmix(u64::from(ctx.id.0));
        out.send_all(ctx, GossipMsg::of(self.digest));
    }

    fn round(&mut self, ctx: &NodeCtx, inbox: &[(NodeId, GossipMsg)], out: &mut Outbox<GossipMsg>) {
        for &(from, m) in inbox {
            self.digest = splitmix(self.digest ^ m.0.get() ^ u64::from(from.0));
        }
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            out.send_all(ctx, GossipMsg::of(self.digest));
        }
    }

    fn done(&self) -> bool {
        self.rounds_left == 0
    }
}

/// Fresh gossip nodes that each flood for `rounds` rounds.
pub fn gossip_nodes(g: &WeightedGraph, rounds: u32) -> Vec<GossipNode> {
    g.nodes()
        .map(|_| GossipNode {
            digest: 0,
            rounds_left: rounds,
        })
        .collect()
}

/// Report-only work-stealing effort summary of one sharded run: total
/// chunks stolen and the worker utilization (worker-rounds that processed
/// at least one chunk over all worker-rounds), ×1000. `None` when the
/// run carried no per-worker observability (single-threaded engines).
fn worker_obs(stats: &SchedStats) -> Option<(u64, u64)> {
    if stats.workers.is_empty() {
        return None;
    }
    let stolen: u64 = stats.workers.iter().map(|w| w.chunks_stolen).sum();
    let busy: u64 = stats.workers.iter().map(|w| w.rounds_participated).sum();
    let idle: u64 = stats.workers.iter().map(|w| w.idle_waits).sum();
    Some((stolen, busy * 1000 / (busy + idle).max(1)))
}

/// A scale-tier record of `timed` at `t` threads: [`Timed::record`]
/// plus, for a sharded run, its min-wall speedup over the
/// single-threaded twin (`wall`) and its work-stealing effort counters
/// (`obs`).
fn scale_record(
    name: String,
    g: &WeightedGraph,
    t: usize,
    timed: &Timed,
    single: &Timed,
) -> Record {
    let mut r = timed.record(name, g, t);
    if t > 1 {
        r = r.wall(
            "speedup_milli",
            single.min_ns.saturating_mul(1000) / timed.min_ns.max(1),
        );
    }
    if let Some((steals, utilization_milli)) = worker_obs(&timed.stats) {
        r = r
            .obs("steals", steals)
            .obs("utilization_milli", utilization_milli);
    }
    r
}

/// One scale workload: the same gossip run through the single-threaded
/// event engine (`t=1`) and the work-stealing engine at the remaining
/// thread counts. Deterministic metrics are asserted identical across all
/// engines; `speedup_milli` records min-wall `t=1` over min-wall `t=k`,
/// and sharded records carry the report-only `steals` /
/// `utilization_milli` effort counters from [`dsf_congest::SchedStats`]'s
/// per-worker observability.
fn scale_family(
    name: &str,
    g: &WeightedGraph,
    rounds: u32,
    threads: &[usize],
    reps: usize,
    records: &mut Vec<Record>,
) {
    let cfg = CongestConfig::for_graph(g);
    let mut buffers = RunBuffers::for_graph(g);
    let single = time_reps(reps, || {
        run_with_buffers(g, gossip_nodes(g, rounds), &cfg, &mut buffers)
            .map(|r| (r.metrics, r.stats))
    });
    records.push(scale_record(format!("{name}/t=1"), g, 1, &single, &single));
    for &t in threads.iter().filter(|&&t| t > 1) {
        let sharded = time_reps(reps, || {
            run_sharded(g, gossip_nodes(g, rounds), &cfg, t).map(|r| (r.metrics, r.stats))
        });
        assert_eq!(
            sharded.metrics, single.metrics,
            "{name}: sharded t={t} metrics diverge"
        );
        assert_eq!(
            sharded.stats, single.stats,
            "{name}: sharded t={t} work counters diverge"
        );
        records.push(scale_record(
            format!("{name}/t={t}"),
            g,
            t,
            &sharded,
            &single,
        ));
    }
}

/// The `--scale` tier: dense gossip on large path/grid/clustered graphs
/// (n up to ~100k) across worker-thread counts {1, 2, 4, 8}, measuring
/// the sharded executor's wall-clock scaling. Deterministic metrics are
/// asserted bit-identical across every thread count before a record is
/// emitted, so the tier cannot "speed up" by drifting; there is no
/// checked-in baseline (wall-clock is the product here), hence no
/// `--check` in this mode.
pub fn collect_scale(quick: bool) -> Report {
    let reps = if quick { 2 } else { 3 };
    let threads = [1usize, 2, 4, 8];
    let mut records = Vec::new();

    // Clusters are internally complete (m ≈ clusters · per_cluster²/2),
    // so keep per_cluster small: the family is here for its skewed degree
    // distribution (stresses the slot-balanced shard partitioning), not
    // for raw edge volume.
    let (path_n, grid_side, clusters, per_cluster, rounds) = if quick {
        (20_000, 140, 500, 40, 10)
    } else {
        (100_000, 316, 2_500, 40, 30)
    };

    let g = generators::path(path_n, 1);
    scale_family(
        &format!("executor/gossip/path/n={path_n}"),
        &g,
        rounds,
        &threads,
        reps,
        &mut records,
    );

    let g = generators::grid(grid_side, grid_side, 4, 3);
    scale_family(
        &format!("executor/gossip/grid/n={}", grid_side * grid_side),
        &g,
        rounds,
        &threads,
        reps,
        &mut records,
    );

    let g = generators::clustered_geometric(clusters, per_cluster, 11);
    scale_family(
        &format!("executor/gossip/clustered/n={}", g.n()),
        &g,
        rounds,
        &threads,
        reps,
        &mut records,
    );

    // Skewed RMAT power-law instance: a few hub-heavy chunks concentrate
    // most of the edge volume — the adversarial case for a static
    // partition and the headline case for work stealing, so this family
    // is where the steal/utilization counters (and the 8-thread speedup)
    // carry the most signal.
    let (rmat_n, rmat_rounds) = if quick { (1 << 14, 8) } else { (1 << 17, 20) };
    let g = generators::rmat(rmat_n, 2, 100, 17);
    scale_family(
        &format!("executor/gossip/rmat/n={rmat_n}"),
        &g,
        rmat_rounds,
        &threads,
        reps,
        &mut records,
    );

    Report::new("scale", quick, records)
}

/// In-harness memory budget of the `--scale-xl` tier, in bytes per node,
/// as metered by [`crate::alloc_meter`] over the whole workload:
/// generation, graph CSR, slot arenas, frontier, protocol states, and
/// the sharded engine's cross-shard mailboxes.
///
/// Measured with the compact layout at edge factor 2: the
/// single-threaded phase peaks around 230 B/node (graph ~85, slot
/// arenas + frontier ~130, protocol states 16); the t=4 work-stealing
/// phase dominates at ~530 B/node because it adds its own topology, the
/// per-chunk arenas, and the double-buffered cross-chunk staging matrix
/// — the chunk grid is finer than the worker count (8 chunks per
/// worker, so stealing has granularity), and power-law hubs make most
/// edges cross chunk boundaries, so the staging cells retain roughly
/// two rounds' worth of cross-chunk message capacity. (See the README
/// "Scale tier" section.) 640 leaves ~20% headroom over the measured
/// peak; a regression that pushes past it — a struct growing, a
/// byte-per-flag vector returning, an arena slot losing its niche —
/// fails the harness loudly.
pub const XL_BYTES_PER_NODE_BUDGET: u64 = 640;

/// One `--scale-xl` workload: RMAT power-law gossip through the
/// single-threaded engine and the 4-way sharded engine, with the
/// allocation high-water mark metered across generation + both runs and
/// asserted against [`XL_BYTES_PER_NODE_BUDGET`]. Deterministic metrics
/// must be bit-identical across the two engines (same contract as
/// [`collect_scale`]).
fn scale_xl_family(
    n: usize,
    edge_factor: usize,
    rounds: u32,
    reps: usize,
    records: &mut Vec<Record>,
) {
    crate::alloc_meter::reset_peak();
    let base = crate::alloc_meter::current_bytes() as u64;
    let g = generators::rmat(n, edge_factor, 100, 42);
    let cfg = CongestConfig::for_graph(&g);
    let single = {
        // Scoped so the single-threaded arena is freed before the sharded
        // engine builds its own — the high-water mark meters one engine's
        // footprint, not both stacked.
        let mut buffers = RunBuffers::for_graph(&g);
        time_reps(reps, || {
            run_with_buffers(&g, gossip_nodes(&g, rounds), &cfg, &mut buffers)
                .map(|r| (r.metrics, r.stats))
        })
    };
    let sharded = time_reps(reps, || {
        run_sharded(&g, gossip_nodes(&g, rounds), &cfg, 4).map(|r| (r.metrics, r.stats))
    });
    assert_eq!(
        sharded.metrics, single.metrics,
        "scale-xl n={n}: sharded t=4 metrics diverge from t=1"
    );
    assert_eq!(
        sharded.stats, single.stats,
        "scale-xl n={n}: sharded t=4 work counters diverge from t=1"
    );
    let peak = (crate::alloc_meter::peak_bytes() as u64).saturating_sub(base);
    let budget = XL_BYTES_PER_NODE_BUDGET * n as u64;
    assert!(
        peak <= budget,
        "scale-xl n={n}: peak {peak} bytes ({} B/node) exceeds the {} B/node budget",
        peak.div_ceil(n as u64),
        XL_BYTES_PER_NODE_BUDGET,
    );
    for (t, timed) in [(1, &single), (4, &sharded)] {
        let name = format!("executor/gossip/power_law/n={n}/t={t}");
        records.push(scale_record(name, &g, t, timed, &single).obs("mem_peak_bytes", peak));
    }
}

/// The `--scale-xl` tier: dense gossip on RMAT power-law graphs up to
/// n=10M (edge factor 2), run at worker-thread counts {1, 4} with
/// bit-identity asserted in-harness, reporting the memory high-water mark
/// next to `speedup_milli` and enforcing [`XL_BYTES_PER_NODE_BUDGET`].
/// Like `--scale` there is no checked-in baseline (wall-clock and bytes
/// are the product), hence no `--check` in this mode.
pub fn collect_scale_xl(quick: bool) -> Report {
    let mut records = Vec::new();
    if quick {
        // CI smoke sizing: big enough that per-node costs dominate the
        // budget arithmetic, small enough for a PR gate.
        scale_xl_family(1 << 17, 2, 3, 2, &mut records);
    } else {
        scale_xl_family(10_000_000, 2, 2, 1, &mut records);
    }
    Report::new("scale-xl", quick, records)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checked-in `--check` baseline.
    const BASELINE: &str = include_str!("../baselines/executor_quick.json");

    #[test]
    fn json_roundtrips() {
        // The baseline is a verbatim `bench_runner --quick` artifact: it
        // parses as an executor quick report and re-emits byte-for-byte.
        let base = Report::parse(BASELINE).unwrap();
        assert_eq!(
            (base.tier.as_str(), base.mode.as_str()),
            ("executor", "quick")
        );
        assert_eq!(base.to_json(), BASELINE);
        // Every record carries the executor layout: work metrics in det,
        // repetition timings in wall, the thread count in obs.
        for r in &base.records {
            let keys = |f: &crate::record::Fields| {
                f.iter().map(|(k, _)| k.to_string()).collect::<Vec<_>>()
            };
            assert_eq!(
                keys(&r.det),
                ["n", "m", "rounds", "messages", "activations"],
                "{}",
                r.name
            );
            assert_eq!(keys(&r.wall), ["min_ns", "mean_ns", "max_ns"], "{}", r.name);
            assert_eq!(keys(&r.obs), ["threads"], "{}", r.name);
        }
    }

    #[test]
    fn corrupt_baseline_cannot_pass_check() {
        let base = Report::parse(BASELINE).unwrap();
        assert!(base.diff_det(&base).is_empty());
        // A mangled metric fails to parse instead of reading as a value
        // that happens to match the live run.
        let corrupt = BASELINE.replacen("\"rounds\": 10000,", "\"rounds\": 10000zzz,", 1);
        assert_ne!(corrupt, BASELINE);
        assert!(Report::parse(&corrupt).is_err());
    }

    #[test]
    fn diff_flags_deterministic_drift_only() {
        let base = Report::parse(BASELINE).unwrap();
        let mut cur = base.clone();
        // A run at another thread count, with other timings, memory and
        // stealing effort, still passes the gate.
        for r in &mut cur.records {
            r.obs.set("threads", 8);
            r.obs.set("steals", 3);
            r.obs.set("mem_peak_bytes", 1);
            r.wall.set("mean_ns", 999_999);
            r.wall.set("speedup_milli", 2000);
        }
        assert!(cur.diff_det(&base).is_empty());
        // Any executor work metric that moves fails it.
        for (i, key) in ["n", "m", "rounds", "messages", "activations"]
            .into_iter()
            .enumerate()
        {
            let was = cur.records[i].det.get(key).unwrap();
            cur.records[i].det.set(key, was + 1);
        }
        assert_eq!(cur.diff_det(&base).len(), 5);
    }

    #[test]
    fn mode_mismatch_is_a_drift() {
        let base = Report::parse(BASELINE).unwrap();
        let full = Report {
            mode: "full".into(),
            ..base.clone()
        };
        assert_eq!(full.diff_det(&base).len(), 1);
    }
}
