//! Golden digests of the deterministic distributed solvers.
//!
//! Pins `solve_deterministic` and `solve_growth` (ε = 1/2, 1/8 and 2)
//! output for output: forest edges, merge log, phase counts, and every
//! ledger entry's `(simulated, charged, messages, bits)` — plus the
//! labels for the deterministic driver. Each run is folded into one
//! FNV-64 digest, so any change to the phase loop that moves a single
//! round, message, bit or merge shows up here. The growth ledger's
//! labels are left out on purpose: they are wording, not behaviour.
//!
//! Inputs: the seven-case suite of the root `tests/cross_algorithm.rs`,
//! experiment E12's `caterpillar(10, 3, 4, 3)` with `k ∈ {2, 4}`, and a
//! two-terminal `path(30, 40)`.

use dsf_core::det::{
    solve_deterministic, solve_growth, DetConfig, DetOutput, GrowthConfig, GrowthOutput,
};
use dsf_graph::dyadic::Dyadic;
use dsf_graph::{generators, NodeId, WeightedGraph};
use dsf_steiner::{random_instance, Instance, InstanceBuilder};

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

    fn dyadic(&mut self, d: Dyadic) {
        let (m, e) = d.raw();
        self.bytes(&m.to_le_bytes());
        self.u64(u64::from(e));
    }
}

fn det_digest(out: &DetOutput) -> u64 {
    let mut h = Fnv::new();
    for forest in [&out.forest, &out.raw] {
        h.u64(forest.edges().len() as u64);
        for e in forest.edges() {
            h.u64(u64::from(e.0));
        }
    }
    h.u64(out.phases as u64);
    h.u64(out.merges.len() as u64);
    for m in &out.merges {
        h.u64(u64::from(m.v.0));
        h.u64(u64::from(m.w.0));
        h.dyadic(m.mu);
        h.u64(m.phase as u64);
        h.u64(u64::from(m.edge.0));
    }
    h.u64(out.rounds.entries().len() as u64);
    for e in out.rounds.entries() {
        h.str(&e.label);
        for x in [e.simulated, e.charged, e.messages, e.bits] {
            h.u64(x);
        }
    }
    h.0
}

fn growth_digest(out: &GrowthOutput) -> u64 {
    let mut h = Fnv::new();
    h.u64(out.forest.edges().len() as u64);
    for e in out.forest.edges() {
        h.u64(u64::from(e.0));
    }
    h.u64(out.merge_phases as u64);
    h.u64(out.growth_phases as u64);
    h.u64(out.merges.len() as u64);
    for &(v, w, mu, phase) in &out.merges {
        h.u64(u64::from(v.0));
        h.u64(u64::from(w.0));
        h.dyadic(mu);
        h.u64(phase as u64);
    }
    h.u64(out.rounds.entries().len() as u64);
    for e in out.rounds.entries() {
        for x in [e.simulated, e.charged, e.messages, e.bits] {
            h.u64(x);
        }
    }
    h.0
}

/// The named inputs, in a fixed order.
fn inputs() -> Vec<(String, WeightedGraph, Instance)> {
    let mut cases = Vec::new();
    // tests/cross_algorithm.rs::suite
    for seed in 0..4u64 {
        let g = generators::gnp_connected(16, 0.25, 10, seed);
        let inst = random_instance(&g, 3, 2, seed + 50);
        cases.push((format!("suite gnp {seed}"), g, inst));
    }
    for seed in 0..2u64 {
        let g = generators::random_geometric(16, 0.4, seed);
        let inst = random_instance(&g, 2, 3, seed);
        cases.push((format!("suite geo {seed}"), g, inst));
    }
    let g = generators::grid(3, 5, 6, 1);
    let inst = random_instance(&g, 2, 2, 9);
    cases.push(("suite grid".to_string(), g, inst));
    // Experiment E12.
    for k in [2usize, 4] {
        let g = generators::caterpillar(10, 3, 4, 3);
        let inst = random_instance(&g, k, 3, 3);
        cases.push((format!("e12 caterpillar k={k}"), g, inst));
    }
    let g = generators::path(30, 40);
    let inst = InstanceBuilder::new(&g)
        .component(&[NodeId(0), NodeId(29)])
        .build()
        .unwrap();
    cases.push(("path(30,40)".to_string(), g, inst));
    cases
}

/// `(input, solver, digest)`, in the order [`inputs`] × solvers.
const GOLDEN: &[(&str, &str, u64)] = &[
    ("suite gnp 0", "det", 0xe8e0bec1cb070c98),
    ("suite gnp 0", "growth eps=1/2", 0x4223b341e47ccf84),
    ("suite gnp 0", "growth eps=1/8", 0x48dd53fd8e0a1553),
    ("suite gnp 0", "growth eps=2", 0x036f33c1d375b02c),
    ("suite gnp 1", "det", 0xfd41dbecbf2348d4),
    ("suite gnp 1", "growth eps=1/2", 0xa49239cf7e195d61),
    ("suite gnp 1", "growth eps=1/8", 0x9b9a22f1023b92c4),
    ("suite gnp 1", "growth eps=2", 0x694fab5d2c6b2b14),
    ("suite gnp 2", "det", 0x616ce2c7728fc4e0),
    ("suite gnp 2", "growth eps=1/2", 0x787dbb57fae784b6),
    ("suite gnp 2", "growth eps=1/8", 0x37844833f0740f65),
    ("suite gnp 2", "growth eps=2", 0xa8a7fc825fba5186),
    ("suite gnp 3", "det", 0x1244d983bae53b2d),
    ("suite gnp 3", "growth eps=1/2", 0x5e9109e6e80fb4d2),
    ("suite gnp 3", "growth eps=1/8", 0x6a1686f41055fd65),
    ("suite gnp 3", "growth eps=2", 0x255fb6113ec4c9f6),
    ("suite geo 0", "det", 0xf693dcfe15a95039),
    ("suite geo 0", "growth eps=1/2", 0x191096a4521940ba),
    ("suite geo 0", "growth eps=1/8", 0x1c66057d19bfeab7),
    ("suite geo 0", "growth eps=2", 0x20ac6053fd498226),
    ("suite geo 1", "det", 0x0434894fb8d6365f),
    ("suite geo 1", "growth eps=1/2", 0x1d457c3e34a02f2e),
    ("suite geo 1", "growth eps=1/8", 0x058c91c9cfe9aee4),
    ("suite geo 1", "growth eps=2", 0x8da9e3dac805c311),
    ("suite grid", "det", 0xcbce5bda3c1f71a1),
    ("suite grid", "growth eps=1/2", 0x71d3c968d4cb70ff),
    ("suite grid", "growth eps=1/8", 0x292b291d303a47ea),
    ("suite grid", "growth eps=2", 0x53c5b50357542d62),
    ("e12 caterpillar k=2", "det", 0x370c5cf548e64a3d),
    ("e12 caterpillar k=2", "growth eps=1/2", 0x73511a706f2099fa),
    ("e12 caterpillar k=2", "growth eps=1/8", 0x9cf53fc5dbae741b),
    ("e12 caterpillar k=2", "growth eps=2", 0x965e6dbe8973260f),
    ("e12 caterpillar k=4", "det", 0x5317f7d555a25ec7),
    ("e12 caterpillar k=4", "growth eps=1/2", 0x56c4807ebd0f4f00),
    ("e12 caterpillar k=4", "growth eps=1/8", 0x66b75468fc2aee0a),
    ("e12 caterpillar k=4", "growth eps=2", 0x583eacd5d900b169),
    ("path(30,40)", "det", 0x750accdf52b5af17),
    ("path(30,40)", "growth eps=1/2", 0xfea3a6ff72257cc7),
    ("path(30,40)", "growth eps=1/8", 0x2cce8d08e8e99ab0),
    ("path(30,40)", "growth eps=2", 0x018ff03c81989448),
];

#[test]
fn det_and_growth_outputs_match_golden_digests() {
    let eps: [(&str, Dyadic); 3] = [
        ("growth eps=1/2", GrowthConfig::default().eps),
        ("growth eps=1/8", Dyadic::new(1, 3)),
        ("growth eps=2", Dyadic::from_int(2)),
    ];
    // One config, re-pointed at each ε.
    let mut cfg = GrowthConfig::default();
    let mut got: Vec<(String, &str, u64)> = Vec::new();
    for (name, g, inst) in inputs() {
        let det = solve_deterministic(&g, &inst, &DetConfig::default()).unwrap();
        got.push((name.clone(), "det", det_digest(&det)));
        for &(solver, eps) in &eps {
            cfg.eps = eps;
            let out = solve_growth(&g, &inst, &cfg).unwrap();
            got.push((name.clone(), solver, growth_digest(&out)));
        }
    }
    let table: String = got
        .iter()
        .map(|(i, s, d)| format!("    ({i:?}, {s:?}, {d:#018x}),\n"))
        .collect();
    assert_eq!(got.len(), GOLDEN.len(), "golden table:\n{table}");
    for ((i, s, d), &(gi, gs, gd)) in got.iter().zip(GOLDEN) {
        assert_eq!((i.as_str(), *s), (gi, gs), "golden table:\n{table}");
        assert_eq!(*d, gd, "{i} / {s}: digest differs; golden table:\n{table}");
    }
}
