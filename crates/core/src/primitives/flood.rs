//! Flood-set dissemination: a set of `O(log n)`-bit items, initially
//! scattered over the nodes, must become known to *every* node.
//!
//! This implements the "broadcast over the BFS tree" steps the paper uses
//! for terminal labels (distributed algorithm Step 1), for the per-phase
//! merge sets `F_c^{(j)}`, and inside the transformations of Lemmas 2.3/2.4.
//! Mechanically it is gossip with per-edge FIFO order and one item per
//! edge per round; on a tree this is exactly pipelined broadcast
//! (`O(D + #items)` rounds), and on general graphs it is never slower.
//!
//! # Node state: a learned log and one cursor per neighbour
//!
//! Each node keeps an append-only *learned log* of `(item, sender)`
//! entries: its initial items first (sorted, deduplicated, no sender),
//! then every new item in the order it arrived, tagged with the neighbour
//! that delivered it. Per neighbour the node keeps only a `u32` cursor
//! into the log. A flush moves each cursor past the entries that
//! neighbour sent, sends the entry it lands on, and skips again, so a
//! node is done exactly when every cursor sits at the end of the log.
//!
//! Items are named by their rank in the flood's *universe*, the sorted
//! union of the initial placement, which all nodes share read-only: a log
//! entry is two `u32`s, and "seen before?" is one binary search in the
//! universe plus one bit of a per-node bitset. The ranks are a storage
//! encoding of the simulator, not knowledge the protocol acts on: a node
//! only sends items it has logged. (A per-node sorted `Vec` of items would
//! also dedup without hashing, but inserting into it is linear, which
//! makes floods of many scattered items, such as the collect baseline's
//! `m + t`, quadratic per node.)
//!
//! The queue of an edge `v → u` in the textbook formulation holds every
//! item `v` learned, in learning order, except those that came from `u`.
//! That is precisely the log filtered by `sender != u`, and the cursor
//! walks that filtered view front to back. Every edge therefore carries
//! the same items in the same FIFO order as with one queue per neighbour,
//! and rounds, messages, bits and activations are unchanged; each learned
//! item is stored once instead of `deg − 1` times.

use dsf_congest::{run, CongestConfig, Message, NodeCtx, Outbox, Protocol, RunMetrics, SimError};
use dsf_graph::{NodeId, WeightedGraph};

/// An item being flooded: an opaque `u128` payload with a declared bit
/// width (checked against the bandwidth budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FloodItem {
    /// Payload bits.
    pub payload: u128,
    /// Number of meaningful bits (must be `O(log n)`).
    pub bits: u16,
}

impl Message for FloodItem {
    fn encoded_bits(&self) -> usize {
        self.bits as usize
    }
}

/// Sender tag of a node's initial items: every neighbour is sent them.
/// Node ids are `< n ≤ u32::MAX`, so no neighbour carries this id.
const NO_SENDER: u32 = u32::MAX;

#[derive(Debug)]
struct FloodNode<'u> {
    /// Every item of this flood, sorted and deduplicated, shared by all
    /// nodes; the log names an item by its rank here.
    universe: &'u [FloodItem],
    /// Every learned item in learning order, as `(rank, sender)`: the id
    /// of the neighbour that delivered it, or [`NO_SENDER`] for initial
    /// items.
    log: Vec<(u32, u32)>,
    /// Per neighbour slot: index of the next log entry to consider for it.
    cursors: Vec<u32>,
    /// Bit `r` is set iff `universe[r]` is in the log.
    seen: Vec<u64>,
}

impl<'u> FloodNode<'u> {
    fn new(universe: &'u [FloodItem], initial: &[FloodItem], degree: usize) -> Self {
        let mut ranks: Vec<u32> = initial.iter().map(|item| rank(universe, item)).collect();
        ranks.sort_unstable();
        ranks.dedup();
        let mut seen = vec![0u64; universe.len().div_ceil(64)];
        for &r in &ranks {
            seen[r as usize / 64] |= 1 << (r % 64);
        }
        FloodNode {
            universe,
            log: ranks.into_iter().map(|r| (r, NO_SENDER)).collect(),
            cursors: vec![0; degree],
            seen,
        }
    }

    /// The learned items, sorted.
    fn items(&self) -> Vec<FloodItem> {
        (0..self.universe.len())
            .filter(|&r| self.seen[r / 64] >> (r % 64) & 1 == 1)
            .map(|r| self.universe[r])
            .collect()
    }

    fn flush(&mut self, ctx: &NodeCtx, out: &mut Outbox<FloodItem>) {
        let log = &self.log;
        let skip = |mut c: usize, nb: u32| {
            while c < log.len() && log[c].1 == nb {
                c += 1;
            }
            c
        };
        for (cursor, &(nb, _)) in self.cursors.iter_mut().zip(ctx.neighbors()) {
            let mut c = skip(*cursor as usize, nb.0);
            if c < log.len() {
                out.send(nb, self.universe[log[c].0 as usize]);
                c = skip(c + 1, nb.0);
            }
            *cursor = c as u32;
        }
    }
}

/// Rank of `item` in the flood's sorted universe.
fn rank(universe: &[FloodItem], item: &FloodItem) -> u32 {
    universe
        .binary_search(item)
        .expect("only items of the initial placement are flooded") as u32
}

/// The sorted, deduplicated union of an initial placement.
fn universe(initial: &[Vec<FloodItem>]) -> Vec<FloodItem> {
    let mut all: Vec<FloodItem> = initial.concat();
    all.sort_unstable();
    all.dedup();
    // Ranks and log cursors are u32.
    assert!(
        all.len() < u32::MAX as usize,
        "too many distinct flood items"
    );
    all
}

impl Protocol for FloodNode<'_> {
    type Msg = FloodItem;

    fn init(&mut self, ctx: &NodeCtx, out: &mut Outbox<FloodItem>) {
        self.flush(ctx, out);
    }

    fn round(&mut self, ctx: &NodeCtx, inbox: &[(NodeId, FloodItem)], out: &mut Outbox<FloodItem>) {
        for &(from, item) in inbox {
            let r = rank(self.universe, &item);
            let (word, bit) = (r as usize / 64, 1u64 << (r % 64));
            if self.seen[word] & bit == 0 {
                self.seen[word] |= bit;
                self.log.push((r, from.0));
            }
        }
        self.flush(ctx, out);
    }

    fn done(&self) -> bool {
        let end = self.log.len() as u32;
        self.cursors.iter().all(|&c| c == end)
    }
}

/// Result of a flood.
#[derive(Debug, Clone)]
pub struct FloodOutcome {
    /// The union of all items (identical at every node on completion;
    /// asserted), sorted.
    pub items: Vec<FloodItem>,
    /// Simulation metrics.
    pub metrics: RunMetrics,
}

/// Floods `initial[v]` (items held by node `v`) until every node knows the
/// union; returns the union.
///
/// # Errors
///
/// Propagates simulator errors (e.g. an item wider than the bandwidth).
pub fn flood_items(
    g: &WeightedGraph,
    initial: Vec<Vec<FloodItem>>,
    cfg: &CongestConfig,
) -> Result<FloodOutcome, SimError> {
    assert_eq!(initial.len(), g.n());
    let universe = universe(&initial);
    let nodes: Vec<FloodNode> = g
        .nodes()
        .map(|v| FloodNode::new(&universe, &initial[v.idx()], g.degree(v)))
        .collect();
    let res = run(g, nodes, cfg)?;
    let items = res.states[0].items();
    for s in &res.states {
        debug_assert_eq!(s.log.len(), items.len(), "flood did not converge");
    }
    Ok(FloodOutcome {
        items,
        metrics: res.metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsf_congest::{run_reference, run_sharded, RunResult, SchedStats};
    use dsf_graph::generators;
    use proptest::prelude::*;
    use std::collections::{HashSet, VecDeque};

    fn item(x: u128) -> FloodItem {
        FloodItem {
            payload: x,
            bits: 32,
        }
    }

    #[test]
    fn all_nodes_learn_everything() {
        let g = generators::gnp_connected(15, 0.2, 5, 1);
        let mut initial = vec![Vec::new(); 15];
        initial[3] = vec![item(100), item(101)];
        initial[9] = vec![item(200)];
        let out = flood_items(&g, initial, &CongestConfig::for_graph(&g)).unwrap();
        assert_eq!(out.items, vec![item(100), item(101), item(200)]);
    }

    #[test]
    fn pipelines_on_a_path() {
        // 40 items at one end of a 20-path: rounds ≈ D + #items, not D·#items.
        let g = generators::path(20, 1);
        let mut initial = vec![Vec::new(); 20];
        initial[0] = (0..40).map(item).collect();
        let out = flood_items(&g, initial, &CongestConfig::for_graph(&g)).unwrap();
        assert_eq!(out.items.len(), 40);
        assert!(
            out.metrics.rounds <= (19 + 40 + 2) as u64,
            "rounds = {} — pipelining broken",
            out.metrics.rounds
        );
    }

    #[test]
    fn empty_flood_is_instant() {
        let g = generators::path(5, 1);
        let out = flood_items(&g, vec![Vec::new(); 5], &CongestConfig::for_graph(&g)).unwrap();
        assert!(out.items.is_empty());
        assert_eq!(out.metrics.rounds, 0);
    }

    /// The textbook flood the learned log replaces: a hash set of known
    /// items and one FIFO queue per neighbour, every learned item pushed
    /// onto all queues but the sender's. Kept only as the differential
    /// oracle for [`FloodNode`].
    #[derive(Debug)]
    struct QueueFloodNode {
        known: HashSet<FloodItem>,
        queues: Vec<VecDeque<FloodItem>>,
    }

    impl QueueFloodNode {
        fn new(initial: Vec<FloodItem>, degree: usize) -> Self {
            QueueFloodNode {
                known: initial.into_iter().collect(),
                queues: vec![VecDeque::new(); degree],
            }
        }

        fn flush(&mut self, ctx: &NodeCtx, out: &mut Outbox<FloodItem>) {
            for (qi, &(nb, _)) in ctx.neighbors().iter().enumerate() {
                if let Some(item) = self.queues[qi].pop_front() {
                    out.send(nb, item);
                }
            }
        }
    }

    impl Protocol for QueueFloodNode {
        type Msg = FloodItem;

        fn init(&mut self, ctx: &NodeCtx, out: &mut Outbox<FloodItem>) {
            let mut initial: Vec<FloodItem> = self.known.iter().copied().collect();
            initial.sort_unstable();
            for q in &mut self.queues {
                q.extend(initial.iter().copied());
            }
            self.flush(ctx, out);
        }

        fn round(
            &mut self,
            ctx: &NodeCtx,
            inbox: &[(NodeId, FloodItem)],
            out: &mut Outbox<FloodItem>,
        ) {
            for &(from, item) in inbox {
                if self.known.insert(item) {
                    for (qi, &(nb, _)) in ctx.neighbors().iter().enumerate() {
                        if nb != from {
                            self.queues[qi].push_back(item);
                        }
                    }
                }
            }
            self.flush(ctx, out);
        }

        fn done(&self) -> bool {
            self.queues.iter().all(VecDeque::is_empty)
        }
    }

    /// Every inbox a node was handed, with its round number.
    type Transcript = Vec<(u64, Vec<(NodeId, FloodItem)>)>;

    /// Wraps a flood protocol and records its delivery transcript.
    #[derive(Debug)]
    struct Recorded<P> {
        inner: P,
        transcript: Transcript,
    }

    impl<P: Protocol<Msg = FloodItem>> Protocol for Recorded<P> {
        type Msg = FloodItem;

        fn init(&mut self, ctx: &NodeCtx, out: &mut Outbox<FloodItem>) {
            self.inner.init(ctx, out);
        }

        fn round(
            &mut self,
            ctx: &NodeCtx,
            inbox: &[(NodeId, FloodItem)],
            out: &mut Outbox<FloodItem>,
        ) {
            self.transcript.push((ctx.round, inbox.to_vec()));
            self.inner.round(ctx, inbox, out);
        }

        fn done(&self) -> bool {
            self.inner.done()
        }
    }

    /// What one run exposes.
    struct Observed {
        transcripts: Vec<Transcript>,
        metrics: RunMetrics,
        stats: SchedStats,
        /// The union node 0 ends up with.
        items: Vec<FloodItem>,
    }

    #[derive(Debug, Clone, Copy)]
    enum Engine {
        Event,
        Reference,
        Sharded(usize),
    }

    fn execute<P>(
        g: &WeightedGraph,
        initial: &[Vec<FloodItem>],
        engine: Engine,
        make: impl Fn(Vec<FloodItem>, usize) -> P,
        union: impl Fn(&P) -> Vec<FloodItem>,
    ) -> Observed
    where
        P: Protocol<Msg = FloodItem> + Send,
    {
        let nodes: Vec<Recorded<P>> = g
            .nodes()
            .map(|v| Recorded {
                inner: make(initial[v.idx()].clone(), g.degree(v)),
                transcript: Vec::new(),
            })
            .collect();
        let cfg = CongestConfig::for_graph(g);
        let res: RunResult<Recorded<P>> = match engine {
            Engine::Event => run(g, nodes, &cfg),
            Engine::Reference => run_reference(g, nodes, &cfg),
            Engine::Sharded(t) => run_sharded(g, nodes, &cfg, t),
        }
        .expect("flood runs within the budget");
        Observed {
            items: union(&res.states[0].inner),
            transcripts: res.states.into_iter().map(|s| s.transcript).collect(),
            metrics: res.metrics,
            stats: res.stats,
        }
    }

    fn splitmix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn graph(family: u8, n: usize, seed: u64) -> WeightedGraph {
        match family {
            0 => generators::gnp_connected(n, 0.15, 9, seed),
            1 => generators::grid(n.div_ceil(6).max(2), 6, 9, seed),
            _ => generators::rmat(n, 4, 9, seed),
        }
    }

    /// Seeded placement over `n` nodes. Shape 0 puts every item at one
    /// root (the `F_c` broadcast); shape 1 scatters a small item pool so
    /// that nodes stay empty and items repeat within and across nodes.
    fn placement(n: usize, shape: u8, items: usize, seed: u64) -> Vec<Vec<FloodItem>> {
        let mut initial = vec![Vec::new(); n];
        let mut s = seed;
        let mut next = |m: u64| {
            s = splitmix(s);
            s % m
        };
        if shape == 0 {
            let root = next(n as u64) as usize;
            initial[root] = (0..items)
                .map(|_| item(u128::from(next(items as u64 + 1))))
                .collect();
        } else {
            let pool = (items as u64 / 2).max(1);
            for _ in 0..items {
                let v = next(n as u64) as usize;
                initial[v].push(item(u128::from(next(pool))));
            }
        }
        initial
    }

    fn queue_union(p: &QueueFloodNode) -> Vec<FloodItem> {
        let mut v: Vec<FloodItem> = p.known.iter().copied().collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn placements_cover_empty_and_duplicate_shapes() {
        let scattered = placement(30, 1, 40, 3);
        assert!(scattered.iter().any(Vec::is_empty));
        let mut all: Vec<FloodItem> = scattered.concat();
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        assert!(all.len() < total, "the pool forces repeats");
        let rooted = placement(30, 0, 40, 3);
        assert_eq!(rooted.iter().filter(|v| !v.is_empty()).count(), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The learned-log flood is observationally the per-neighbour
        /// queue flood: same deliveries per node per round, same metrics,
        /// same scheduler work, same union — under every engine.
        #[test]
        fn learned_log_matches_queue_flood(
            seed in 0u64..1_000_000,
            family in 0u8..3,
            n in 2usize..48,
            shape in 0u8..2,
            items in 0usize..24,
        ) {
            let g = graph(family, n, seed);
            let initial = placement(g.n(), shape, items, seed);
            let universe = universe(&initial);
            let out = flood_items(&g, initial.clone(), &CongestConfig::for_graph(&g)).unwrap();
            let engines = [
                Engine::Event,
                Engine::Reference,
                Engine::Sharded(1),
                Engine::Sharded(4),
            ];
            for engine in engines {
                let new = execute(
                    &g,
                    &initial,
                    engine,
                    |items, deg| FloodNode::new(&universe, &items, deg),
                    FloodNode::items,
                );
                let old = execute(&g, &initial, engine, QueueFloodNode::new, queue_union);
                prop_assert_eq!(&new.metrics, &old.metrics, "metrics differ under {:?}", engine);
                prop_assert_eq!(&new.stats, &old.stats, "sched stats differ under {:?}", engine);
                prop_assert_eq!(&new.items, &old.items, "unions differ under {:?}", engine);
                prop_assert!(
                    new.transcripts == old.transcripts,
                    "transcripts differ under {:?}",
                    engine
                );
                prop_assert_eq!(&out.items, &old.items);
                prop_assert_eq!(&out.metrics, &old.metrics);
            }
        }
    }
}
