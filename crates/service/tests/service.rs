//! Acceptance tests of a single session: request validation, and every
//! solver at the top of the graph weight rule's range. Batch
//! scheduling is tested with the scheduler, in `dsf-server`'s
//! `tests/batch.rs`.

use std::sync::Arc;

use dsf_graph::{generators, Edge, NodeId, Weight, WeightedGraph, INF};
use dsf_service::{SolveRequest, SolverKind, SolverSession};
use dsf_steiner::InstanceBuilder;
use dsf_workloads::conformance;

#[test]
fn mismatched_instance_and_graph_is_a_typed_error_not_a_panic() {
    // The instance was built on a 30-node graph but the request carries a
    // 10-node one: the session rejects it before any solver indexes the
    // instance out of bounds.
    let big = generators::path(30, 1);
    let inst = InstanceBuilder::new(&big)
        .component(&[NodeId(0), NodeId(29)])
        .build()
        .unwrap();
    let small = Arc::new(generators::path(10, 1));
    let bad = SolveRequest::new("bad", small, inst, SolverKind::Deterministic, 0);
    let expected = dsf_congest::SimError::WrongNodeCount {
        expected: 10,
        got: 30,
    };
    let mut session = SolverSession::new();
    assert_eq!(session.solve(&bad).unwrap_err(), expected);
    assert_eq!(session.solves(), 0, "a rejected request is not a solve");
}

#[test]
fn every_solver_is_feasible_when_the_total_weight_nears_inf() {
    // The top of the graph weight rule's range: path(3) with two INF/2
    // edges, whose one path carries the whole total, and a 6x6 grid
    // scaled to a total just below INF.
    let e = |u: u32, v: u32, w: Weight| Edge {
        u: NodeId(u),
        v: NodeId(v),
        w,
    };
    let path = WeightedGraph::from_edges(3, vec![e(0, 1, INF / 2), e(1, 2, INF / 2)]).unwrap();
    let grid = generators::grid(6, 6, 100, 7);
    let total: Weight = grid.edges().iter().map(|ed| ed.w).sum();
    let scale = (INF - 1) / total;
    let heavy: Vec<Edge> = grid
        .edges()
        .iter()
        .map(|ed| Edge {
            w: ed.w * scale,
            ..*ed
        })
        .collect();
    let grid = WeightedGraph::from_edges(36, heavy).unwrap();
    assert!(grid.edges().iter().map(|ed| ed.w).sum::<Weight>() > INF - total);
    let cases = [
        (path, vec![vec![NodeId(0), NodeId(2)]]),
        (
            grid,
            vec![
                vec![NodeId(0), NodeId(35)],
                vec![NodeId(5), NodeId(30), NodeId(14)],
            ],
        ),
    ];
    for (g, comps) in cases {
        let g = Arc::new(g);
        let mut b = InstanceBuilder::new(&g);
        for c in &comps {
            b = b.component(c);
        }
        let inst = b.build().unwrap();
        for kind in SolverKind::ALL {
            let req = SolveRequest::new(kind.name(), g.clone(), inst.clone(), kind, 1);
            let out = SolverSession::new().solve(&req).unwrap();
            let ctx = format!("{} on n={}", kind.name(), g.n());
            conformance::assert_feasible_forest(&g, &inst, &out.forest, &ctx);
            assert_eq!(out.weight, out.forest.weight(&g), "{ctx}");
        }
    }
}
