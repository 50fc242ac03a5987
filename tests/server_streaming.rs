//! End-to-end streaming-server test through the umbrella crate's public
//! surface: a mixed small/large job stream must come back bit-identical
//! to direct solves, and the control features (priorities, deadlines,
//! cancellation, saturation) must be observable — never silent.

use std::sync::Arc;
use std::time::Duration;

use steiner_forest::prelude::*;

/// A 24-node "small" workload and a 100-node grid "large" workload, with
/// the server's threshold set so the grid takes the sharded large lane.
fn mixed_workloads() -> (
    (Arc<WeightedGraph>, Instance),
    (Arc<WeightedGraph>, Instance),
) {
    let small_g = Arc::new(generators::gnp_connected(24, 0.18, 9, 11));
    let small_inst = InstanceBuilder::new(&small_g)
        .component(&[NodeId(1), NodeId(12), NodeId(22)])
        .component(&[NodeId(5), NodeId(18)])
        .build()
        .unwrap();
    let large_g = Arc::new(generators::grid(10, 10, 8, 1));
    let large_inst = InstanceBuilder::new(&large_g)
        .component(&[NodeId(0), NodeId(99)])
        .component(&[NodeId(9), NodeId(90)])
        .build()
        .unwrap();
    ((small_g, small_inst), (large_g, large_inst))
}

#[test]
fn mixed_stream_is_bit_identical_to_direct_solves() {
    let ((small_g, small_inst), (large_g, large_inst)) = mixed_workloads();
    let mut server = StreamingServer::new(ServerConfig {
        workers: 3,
        large_node_threshold: large_g.n(),
        ..Default::default()
    });

    // Interleave every solver kind over the small graph with two large
    // sharded jobs, all in flight at once.
    let mut requests = Vec::new();
    for (i, kind) in SolverKind::ALL.into_iter().cycle().take(8).enumerate() {
        requests.push(SolveRequest::new(
            format!("small/{}/{i}", kind.name()),
            small_g.clone(),
            small_inst.clone(),
            kind,
            i as u64,
        ));
    }
    for seed in 0..2 {
        requests.push(SolveRequest::new(
            format!("large/det/{seed}"),
            large_g.clone(),
            large_inst.clone(),
            SolverKind::Deterministic,
            seed,
        ));
    }

    let handles: Vec<_> = requests
        .iter()
        .map(|r| server.submit(r.clone()).expect("admitted"))
        .collect();
    for (handle, req) in handles.iter().zip(&requests) {
        let result = handle
            .wait_timeout(Duration::from_secs(120))
            .expect("job drains");
        let reference = SolverSession::new().solve(req).expect("clean solve");
        assert!(
            result
                .status
                .outcome()
                .expect("completed")
                .deterministic_eq(&reference),
            "queued job {} drifted from its direct solve",
            req.id
        );
    }
    server.shutdown();
}

#[test]
fn control_plane_is_observable_end_to_end() {
    let ((g, inst), _) = mixed_workloads();
    let mut server = StreamingServer::new(ServerConfig {
        workers: 1,
        queue_capacity: 2,
        admission: AdmissionPolicy::Reject,
        ..Default::default()
    });
    server.pause();

    let req =
        |id: &str, seed| SolveRequest::new(id, g.clone(), inst.clone(), SolverKind::Khan, seed);
    let doomed = server
        .submit_with(req("doomed", 0), JobOptions::default().with_priority(1))
        .expect("admitted");
    let expired = server
        .submit_with(
            req("expired", 1),
            JobOptions::default().with_deadline_in(Duration::ZERO),
        )
        .expect("admitted");
    // Queue (capacity 2) is now full: saturation is an error, not a hang.
    assert_eq!(
        server.submit(req("overflow", 2)).unwrap_err(),
        ServerError::Saturated { capacity: 2 }
    );
    assert!(doomed.cancel());
    server.resume();

    assert!(matches!(doomed.wait().status, JobStatus::Cancelled));
    assert!(matches!(expired.wait().status, JobStatus::DeadlineExpired));
    server.shutdown();
    // Both control outcomes also reached the shared result stream.
    let mut streamed: Vec<String> = std::iter::from_fn(|| server.try_next_result())
        .map(|r| r.id)
        .collect();
    streamed.sort();
    assert_eq!(streamed, ["doomed", "expired"]);
}

#[test]
fn mismatched_request_fails_typed_and_the_next_job_completes() {
    // An instance built on a 30-node graph, carried with a 10-node graph:
    // before the session validated requests, this panicked the lane's only
    // worker and neither job was ever reported.
    let big = generators::path(30, 1);
    let inst = InstanceBuilder::new(&big)
        .component(&[NodeId(0), NodeId(29)])
        .build()
        .unwrap();
    let small = Arc::new(generators::path(10, 1));
    let bad = SolveRequest::new("bad", small, inst, SolverKind::Deterministic, 0);
    let ((g, good_inst), _) = mixed_workloads();
    let good = SolveRequest::new("good", g, good_inst, SolverKind::Deterministic, 0);

    let mut server = StreamingServer::new(ServerConfig {
        workers: 1,
        ..Default::default()
    });
    let bad_handle = server.submit(bad).expect("admitted");
    let good_handle = server.submit(good.clone()).expect("admitted");
    let bad_result = bad_handle
        .wait_timeout(Duration::from_secs(60))
        .expect("the bad job is reported");
    assert!(
        matches!(
            bad_result.status,
            JobStatus::Failed(steiner_forest::congest::SimError::WrongNodeCount {
                expected: 10,
                got: 30
            })
        ),
        "got {:?}",
        bad_result.status
    );
    let good_result = good_handle
        .wait_timeout(Duration::from_secs(60))
        .expect("the next job is reported");
    let reference = SolverSession::new().solve(&good).expect("clean solve");
    assert!(good_result
        .status
        .outcome()
        .expect("completed")
        .deterministic_eq(&reference));
    server.shutdown();
}
