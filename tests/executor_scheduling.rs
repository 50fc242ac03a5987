//! Cross-crate guarantees of the event-driven executors: real protocols
//! from the workspace produce bit-identical results under every execution
//! engine (reference, single-threaded active-set, sharded at any thread
//! count), sparse wave workloads see the promised scheduling-work
//! reduction, dense workloads see wall-clock speedup from sharding, and
//! whole solver runs — round ledger included — are invariant under the
//! configured thread count.

use std::time::Instant;

use dsf_bench::perf::gossip_nodes;
use dsf_congest::{
    run, run_reference, run_sharded, with_threads, CongestConfig, Message, NodeCtx, Outbox,
    Protocol,
};
use dsf_core::det::{solve_deterministic, DetConfig};
use dsf_embed::distributed::LeProtocol;
use dsf_embed::random_ranks;
use dsf_graph::{generators, NodeId};
use dsf_steiner::random_instance;

/// A BFS wave: the sparse single-source primitive whose idle majority the
/// active-set scheduler skips.
#[derive(Debug, Clone, Copy)]
struct Wave;

impl Message for Wave {
    fn encoded_bits(&self) -> usize {
        8
    }
}

#[derive(Debug, PartialEq)]
struct WaveNode {
    joined: bool,
}

impl Protocol for WaveNode {
    type Msg = Wave;
    fn init(&mut self, ctx: &NodeCtx, out: &mut Outbox<Wave>) {
        if ctx.id == NodeId(0) {
            self.joined = true;
            out.send_all(ctx, Wave);
        }
    }
    fn round(&mut self, ctx: &NodeCtx, inbox: &[(NodeId, Wave)], out: &mut Outbox<Wave>) {
        if !self.joined && !inbox.is_empty() {
            self.joined = true;
            out.send_all(ctx, Wave);
        }
    }
    fn done(&self) -> bool {
        true // idle until woken by the wave
    }
}

/// The acceptance criterion of the executor rewrite: on a long-path BFS
/// workload, `Protocol::round` invocations drop by at least 5x versus the
/// retained naive reference (in fact by ~n/2), with identical metrics and
/// states.
#[test]
fn wave_on_path_cuts_activations_at_least_5x() {
    let n = 3_000;
    let g = generators::path(n, 1);
    let cfg = CongestConfig::for_graph(&g);
    let mk = || {
        (0..n)
            .map(|_| WaveNode { joined: false })
            .collect::<Vec<_>>()
    };
    let ev = run(&g, mk(), &cfg).unwrap();
    let rf = run_reference(&g, mk(), &cfg).unwrap();
    assert_eq!(ev.metrics, rf.metrics);
    assert_eq!(ev.states, rf.states);
    assert!(ev.states.iter().all(|s| s.joined));
    assert!(
        ev.stats.activations * 5 <= rf.stats.activations,
        "event {} vs reference {} activations",
        ev.stats.activations,
        rf.stats.activations
    );
}

/// The tentpole's wall-clock acceptance criterion: on a dense 50k-node
/// workload (the same gossip protocol the `--scale` bench tier reports
/// on, imported from `dsf_bench::perf`), 4 worker shards beat the
/// single-threaded engine by ≥ 1.5×, with bit-identical metrics and
/// states. Skipped on machines with fewer than 4 cores, where no speedup
/// can exist. Because sibling tests share the machine's cores, the
/// timing section retries a few times and passes on the first attempt
/// that clears the bar — only consistent failure across all attempts
/// (with pauses for transient load to drain) fails the test.
#[test]
fn sharded_speedup_at_least_1_5x_on_dense_gossip_50k() {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    if cores < 4 {
        eprintln!("skipping sharded speedup assertion: {cores} < 4 cores");
        return;
    }
    let side = 224; // n = 50_176 ≥ the 50k acceptance bar
    let g = generators::grid(side, side, 4, 3);
    let cfg = CongestConfig::for_graph(&g);
    let time = |threads: usize| {
        let t0 = Instant::now();
        let res = run_sharded(&g, gossip_nodes(&g, 12), &cfg, threads).unwrap();
        (t0.elapsed().as_nanos() as u64, res)
    };
    let mut ratios = Vec::new();
    for attempt in 0..3 {
        if attempt > 0 {
            // Give concurrently-running sibling tests a chance to drain.
            std::thread::sleep(std::time::Duration::from_millis(500));
        }
        let (single_ns, single) = time(1);
        let (sharded_ns, sharded) = time(4);
        assert_eq!(single.metrics, sharded.metrics);
        assert_eq!(single.states, sharded.states);
        if sharded_ns * 3 <= single_ns * 2 {
            return; // ≥ 1.5× observed
        }
        ratios.push(single_ns as f64 / sharded_ns as f64);
    }
    panic!("sharded speedup stayed below 1.5x across all attempts: {ratios:?}");
}

/// A whole solver run — forest, merge log, and the full round *ledger* —
/// must be bit-identical under any configured thread count: every stage
/// of `solve_deterministic` funnels through `dsf_congest::run`, which
/// dispatches to the sharded executor, and nothing downstream may notice.
/// The thread count is pinned with the scoped, thread-local
/// `with_threads`, so sibling tests in this binary are unaffected.
#[test]
fn solver_ledger_is_thread_count_invariant() {
    let g = generators::gnp_connected(48, 0.12, 9, 7);
    let inst = random_instance(&g, 3, 2, 11);
    let mut outputs = Vec::new();
    for threads in [1usize, 4] {
        outputs.push((
            threads,
            with_threads(threads, || {
                solve_deterministic(&g, &inst, &DetConfig::default()).unwrap()
            }),
        ));
    }
    let (_, base) = &outputs[0];
    for (threads, out) in &outputs[1..] {
        assert_eq!(out.forest, base.forest, "threads {threads}: forest differs");
        assert_eq!(
            out.rounds, base.rounds,
            "threads {threads}: round ledger differs"
        );
        assert_eq!(
            out.rounds.entries(),
            base.rounds.entries(),
            "threads {threads}: ledger entries differ"
        );
        assert_eq!(out.phases, base.phases, "threads {threads}: phase count");
    }
}

/// A production protocol (the LE-list construction whose simulated lists
/// build the randomized solvers' embeddings) through every engine: the
/// event-driven executor and the sharded engine at 4 threads must be
/// observationally invisible, down to each entry's next hop.
#[test]
fn le_list_protocol_is_executor_invariant() {
    for seed in 0..4 {
        for g in [
            generators::gnp_connected(40, 0.12, 12, seed),
            generators::grid(6, 7, 16, seed),
        ] {
            let ranks = random_ranks(g.n(), seed + 9);
            let cfg = CongestConfig::for_graph(&g);
            let mk = || {
                g.nodes()
                    .map(|v| LeProtocol::new(ranks[v.idx()], g.degree(v)))
                    .collect::<Vec<_>>()
            };
            let ev = with_threads(1, || run(&g, mk(), &cfg)).unwrap();
            let sh = with_threads(4, || run(&g, mk(), &cfg)).unwrap();
            let rf = run_reference(&g, mk(), &cfg).unwrap();
            assert_eq!(ev.metrics, rf.metrics, "seed {seed}");
            assert_eq!(sh.metrics, rf.metrics, "seed {seed}, 4 threads");
            for v in g.nodes() {
                let want = rf.states[v.idx()].list().entries();
                assert_eq!(
                    ev.states[v.idx()].list().entries(),
                    want,
                    "seed {seed}, node {v}"
                );
                assert_eq!(
                    sh.states[v.idx()].list().entries(),
                    want,
                    "seed {seed}, node {v}, 4 threads"
                );
            }
            assert!(ev.stats.activations <= rf.stats.activations, "seed {seed}");
        }
    }
}
