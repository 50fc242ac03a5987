//! Golden digests of the randomized solver and the Khan et al. baseline.
//!
//! Pins `solve_randomized` and `solve_khan` output for output: forest
//! edges, the `truncated` flag, `stage1_weight`, `tree_opt_weight`, and
//! every ledger entry's label and `(simulated, charged, messages, bits)`.
//! Each run is folded into one FNV-64 digest, so any change to where the
//! embedding, its LE lists or the graph parameters come from that moves a
//! single edge, round, message or bit shows up here.
//!
//! Inputs: the `rand-mid` end-to-end workload's two networks,
//! `grid(16, 20, 16, 1)` (tie-heavy weights; `s > √n`, so the truncated
//! path runs) and `rmat(360, 4, 16, 1)` (`s ≤ √n`, untruncated); a gnp
//! graph with truncation forced on and off; and the Khan baseline on a
//! gnp graph.

use dsf_baselines::khan::{solve_khan, KhanConfig};
use dsf_congest::RoundLedger;
use dsf_core::randomized::{solve_randomized, RandConfig, RandOutput};
use dsf_graph::generators;
use dsf_steiner::{random_instance, ForestSolution};

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn forest(&mut self, f: &ForestSolution) {
        self.u64(f.edges().len() as u64);
        for e in f.edges() {
            self.u64(u64::from(e.0));
        }
    }

    fn ledger(&mut self, l: &RoundLedger) {
        self.u64(l.entries().len() as u64);
        for e in l.entries() {
            self.str(&e.label);
            for x in [e.simulated, e.charged, e.messages, e.bits] {
                self.u64(x);
            }
        }
    }
}

fn rand_digest(out: &RandOutput) -> u64 {
    let mut h = Fnv::new();
    h.forest(&out.forest);
    h.u64(u64::from(out.truncated));
    h.u64(out.stage1_weight);
    h.u64(out.tree_opt_weight);
    h.ledger(&out.rounds);
    h.0
}

/// `(run, digest)`, in the order the test produces them.
const GOLDEN: &[(&str, u64)] = &[
    ("rand grid(16,20,16,1) k=4", 0x95a3bb2796782fb9),
    ("rand rmat(360,4,16,1) k=8", 0xec49912424a61fb4),
    ("rand gnp(40) forced truncation", 0xd991c27ff42d3921),
    ("rand gnp(40) no truncation", 0xd9af4bea68bae9a7),
    ("khan gnp(30) k=3", 0x0f98d2c2f6a51d91),
];

#[test]
fn randomized_and_khan_outputs_match_golden_digests() {
    let mut got: Vec<(&str, u64)> = Vec::new();

    let grid = generators::grid(16, 20, 16, 1);
    let inst = random_instance(&grid, 4, 2, 11);
    let cfg = RandConfig {
        seed: 3,
        ..RandConfig::default()
    };
    let out = solve_randomized(&grid, &inst, &cfg).unwrap();
    assert!(out.truncated, "rand-mid's grid runs the truncated path");
    got.push(("rand grid(16,20,16,1) k=4", rand_digest(&out)));

    let rmat = generators::rmat(360, 4, 16, 1);
    let inst = random_instance(&rmat, 8, 2, 12);
    let cfg = RandConfig {
        seed: 5,
        ..RandConfig::default()
    };
    let out = solve_randomized(&rmat, &inst, &cfg).unwrap();
    assert!(!out.truncated, "rand-mid's RMAT runs the untruncated path");
    got.push(("rand rmat(360,4,16,1) k=8", rand_digest(&out)));

    let gnp = generators::gnp_connected(40, 0.1, 16, 7);
    let inst = random_instance(&gnp, 3, 3, 13);
    for (name, force) in [
        ("rand gnp(40) forced truncation", true),
        ("rand gnp(40) no truncation", false),
    ] {
        let cfg = RandConfig {
            seed: 9,
            force_truncation: Some(force),
            ..RandConfig::default()
        };
        let out = solve_randomized(&gnp, &inst, &cfg).unwrap();
        assert_eq!(out.truncated, force);
        got.push((name, rand_digest(&out)));
    }

    let g = generators::gnp_connected(30, 0.15, 12, 4);
    let inst = random_instance(&g, 3, 2, 14);
    let out = solve_khan(
        &g,
        &inst,
        &KhanConfig {
            seed: 6,
            repetitions: 2,
        },
    )
    .unwrap();
    let mut h = Fnv::new();
    h.forest(&out.forest);
    h.ledger(&out.rounds);
    got.push(("khan gnp(30) k=3", h.0));

    let table: String = got
        .iter()
        .map(|(r, d)| format!("    ({r:?}, {d:#018x}),\n"))
        .collect();
    assert_eq!(got.len(), GOLDEN.len(), "golden table:\n{table}");
    for (&(r, d), &(gr, gd)) in got.iter().zip(GOLDEN) {
        assert_eq!(r, gr, "golden table:\n{table}");
        assert_eq!(d, gd, "{r}: digest differs; golden table:\n{table}");
    }
}
