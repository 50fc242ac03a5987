//! Acceptance tests of a single session's request validation. Batch
//! scheduling is tested with the scheduler, in `dsf-server`'s
//! `tests/batch.rs`.

use std::sync::Arc;

use dsf_graph::{generators, NodeId};
use dsf_service::{SolveRequest, SolverKind, SolverSession};
use dsf_steiner::InstanceBuilder;

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
