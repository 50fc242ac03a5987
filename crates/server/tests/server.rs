//! Acceptance tests of the streaming server: admission control must
//! backpressure (never deadlock), every admitted job must be reported
//! exactly once, and queueing must be invisible in the results.

use std::sync::Arc;
use std::time::Duration;

use dsf_graph::{generators, GraphBuilder, NodeId, WeightedGraph};
use dsf_server::{
    AdmissionPolicy, BatchError, JobOptions, JobStatus, ServerConfig, ServerError, StreamingServer,
};
use dsf_service::{SolveRequest, SolverKind, SolverSession};
use dsf_steiner::{Instance, InstanceBuilder};

fn small_case() -> (Arc<WeightedGraph>, Instance) {
    let g = Arc::new(generators::gnp_connected(24, 0.18, 9, 3));
    let inst = InstanceBuilder::new(&g)
        .component(&[NodeId(0), NodeId(11), NodeId(21)])
        .component(&[NodeId(4), NodeId(17)])
        .build()
        .unwrap();
    (g, inst)
}

fn request(id: &str, g: &Arc<WeightedGraph>, inst: &Instance, seed: u64) -> SolveRequest {
    SolveRequest::new(id, g.clone(), inst.clone(), SolverKind::Randomized, seed)
}

#[test]
fn streamed_results_are_bit_identical_to_direct_solves() {
    let (g, inst) = small_case();
    let mut server = StreamingServer::new(ServerConfig {
        workers: 3,
        ..Default::default()
    });
    let requests: Vec<_> = (0..9)
        .map(|s| request(&format!("job-{s}"), &g, &inst, s))
        .collect();
    let handles: Vec<_> = requests
        .iter()
        .map(|r| server.submit(r.clone()).expect("admitted"))
        .collect();
    for (handle, req) in handles.iter().zip(&requests) {
        let result = handle.wait();
        let reference = SolverSession::new().solve(req).expect("clean solve");
        let out = result.status.outcome().expect("completed");
        assert!(
            out.deterministic_eq(&reference),
            "queued job {} drifted from its direct solve",
            result.id
        );
    }
    server.shutdown();
    // The server-wide stream saw every job exactly once.
    let mut seen: Vec<u64> = std::iter::from_fn(|| server.try_next_result())
        .map(|r| r.job_id)
        .collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..9).collect::<Vec<u64>>());
}

#[test]
fn full_queue_rejects_with_saturated_instead_of_deadlocking() {
    let (g, inst) = small_case();
    let server = StreamingServer::new(ServerConfig {
        workers: 1,
        queue_capacity: 3,
        admission: AdmissionPolicy::Reject,
        ..Default::default()
    });
    // Paused: nothing dispatches, so the queue fills deterministically.
    server.pause();
    for s in 0..3 {
        server
            .submit(request(&format!("q-{s}"), &g, &inst, s))
            .expect("under capacity");
    }
    assert_eq!(server.queued(), 3);
    let overflow = server.submit(request("overflow", &g, &inst, 99));
    assert_eq!(
        overflow.unwrap_err(),
        ServerError::Saturated { capacity: 3 },
        "a full queue under Reject must fail fast"
    );
    // Resuming drains the backlog; admission works again (Reject never
    // waits, so retry until the worker frees a slot).
    server.resume();
    let late = loop {
        match server.submit(request("late", &g, &inst, 7)) {
            Ok(handle) => break handle,
            Err(ServerError::Saturated { .. }) => std::thread::yield_now(),
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    };
    assert!(late.wait_timeout(Duration::from_secs(60)).is_some());
}

#[test]
fn blocking_admission_backpressures_the_producer() {
    let (g, inst) = small_case();
    let server = StreamingServer::new(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        admission: AdmissionPolicy::Block,
        ..Default::default()
    });
    // 6 jobs through a 1-deep queue: every submit past the first blocks
    // until the worker frees the slot — completing all of them proves the
    // producer was released each time (bounded memory, no deadlock).
    let handles: Vec<_> = (0..6)
        .map(|s| {
            server
                .submit(request(&format!("bp-{s}"), &g, &inst, s))
                .expect("blocking admission eventually admits")
        })
        .collect();
    for h in handles {
        assert!(h
            .wait_timeout(Duration::from_secs(60))
            .expect("drains")
            .status
            .is_completed());
    }
}

#[test]
fn priorities_order_dispatch_and_ties_stay_fifo() {
    let (g, inst) = small_case();
    let mut server = StreamingServer::new(ServerConfig {
        workers: 1,
        ..Default::default()
    });
    server.pause();
    let prios = [0, 5, -3, 5, 0];
    for (i, &p) in prios.iter().enumerate() {
        server
            .submit_with(
                request(&format!("p{p}-{i}"), &g, &inst, i as u64),
                JobOptions::default().with_priority(p),
            )
            .expect("admitted");
    }
    server.resume();
    let order: Vec<String> = (0..prios.len())
        .map(|_| {
            server
                .next_result_timeout(Duration::from_secs(60))
                .expect("drains")
                .id
        })
        .collect();
    // Highest priority first; equal priorities in submission order.
    assert_eq!(order, ["p5-1", "p5-3", "p0-0", "p0-4", "p-3-2"]);
    server.shutdown();
}

#[test]
fn cancelled_and_expired_jobs_are_reported_not_dropped() {
    let (g, inst) = small_case();
    let mut server = StreamingServer::new(ServerConfig {
        workers: 1,
        ..Default::default()
    });
    server.pause();
    let doomed = server
        .submit(request("doomed", &g, &inst, 1))
        .expect("admitted");
    let expired = server
        .submit_with(
            request("expired", &g, &inst, 2),
            JobOptions::default().with_deadline(std::time::Instant::now()),
        )
        .expect("admitted");
    let survivor = server
        .submit(request("survivor", &g, &inst, 3))
        .expect("admitted");
    assert!(doomed.cancel(), "cancel lands before dispatch");
    server.resume();

    assert!(matches!(doomed.wait().status, JobStatus::Cancelled));
    assert!(matches!(expired.wait().status, JobStatus::DeadlineExpired));
    assert!(survivor.wait().status.is_completed());
    server.shutdown();
    // All three reached the result stream too — nothing silently dropped.
    let mut results = 0;
    while server.try_next_result().is_some() {
        results += 1;
    }
    assert_eq!(results, 3);
}

#[test]
fn graph_with_exactly_threshold_nodes_takes_the_large_lane() {
    let (g, inst) = small_case();
    // Threshold == n: the job is large ("at least this many"), runs on
    // the large lane with the sharded executor, and still matches the
    // direct solve bit for bit.
    let server = StreamingServer::new(ServerConfig {
        workers: 2,
        large_node_threshold: g.n(),
        ..Default::default()
    });
    assert!(server.config().is_large(g.n()));
    let req = request("boundary", &g, &inst, 5);
    let handle = server.submit(req.clone()).expect("admitted");
    let out = handle.wait();
    let reference = SolverSession::new().solve(&req).expect("clean solve");
    assert!(out
        .status
        .outcome()
        .expect("completed")
        .deterministic_eq(&reference));
}

#[test]
fn small_jobs_flow_while_a_large_job_drains() {
    let (small_g, small_inst) = small_case();
    let large_g = Arc::new(generators::grid(10, 10, 8, 1));
    let large_inst = InstanceBuilder::new(&large_g)
        .component(&[NodeId(0), NodeId(99)])
        .build()
        .unwrap();
    let mut server = StreamingServer::new(ServerConfig {
        workers: 2,
        // The 100-node grid is "large", the 24-node gnp stays small.
        large_node_threshold: 100,
        ..Default::default()
    });
    server.pause();
    let large = server
        .submit(SolveRequest::new(
            "large",
            large_g.clone(),
            large_inst.clone(),
            SolverKind::Deterministic,
            0,
        ))
        .expect("admitted");
    let smalls: Vec<_> = (0..6)
        .map(|s| {
            server
                .submit(request(&format!("small-{s}"), &small_g, &small_inst, s))
                .expect("admitted")
        })
        .collect();
    server.resume();
    // Both lanes drain concurrently and every result matches its direct
    // solve (lane choice is invisible in the outcome).
    let large_ref = SolverSession::new()
        .solve(&SolveRequest::new(
            "large",
            large_g,
            large_inst,
            SolverKind::Deterministic,
            0,
        ))
        .expect("clean solve");
    assert!(large
        .wait()
        .status
        .outcome()
        .expect("completed")
        .deterministic_eq(&large_ref));
    for (s, h) in smalls.iter().enumerate() {
        let reference = SolverSession::new()
            .solve(&request(
                &format!("small-{s}"),
                &small_g,
                &small_inst,
                s as u64,
            ))
            .expect("clean solve");
        assert!(h
            .wait()
            .status
            .outcome()
            .expect("completed")
            .deterministic_eq(&reference));
    }
    server.shutdown();
}

#[test]
fn submitting_after_shutdown_errors_and_shutdown_is_idempotent() {
    let (g, inst) = small_case();
    let mut server = StreamingServer::with_defaults();
    let handle = server
        .submit(request("pre", &g, &inst, 0))
        .expect("admitted");
    server.shutdown();
    assert!(handle.is_finished(), "shutdown drains admitted jobs");
    assert_eq!(
        server.submit(request("post", &g, &inst, 1)).unwrap_err(),
        ServerError::ShuttingDown
    );
    assert_eq!(
        server
            .run_batch(&[request("post-batch", &g, &inst, 2)])
            .unwrap_err(),
        BatchError::ShuttingDown
    );
    server.shutdown(); // second call is a no-op
}

#[test]
fn zero_workers_and_zero_capacity_are_clamped_to_one() {
    let server = StreamingServer::new(ServerConfig {
        workers: 0,
        queue_capacity: 0,
        ..Default::default()
    });
    assert_eq!(server.workers(), 1);
    assert_eq!(server.config().queue_capacity, 1);
    // And the clamped server actually works.
    let (g, inst) = small_case();
    let h = server
        .submit(request("clamped", &g, &inst, 0))
        .expect("admitted");
    assert!(h
        .wait_timeout(Duration::from_secs(60))
        .expect("drains")
        .status
        .is_completed());
}

#[test]
fn panicking_job_is_reported_and_the_lane_serves_the_next_job() {
    // A disconnected graph (only `build_unchecked` makes one) violates
    // the model; every solver's BFS panics on it.
    let mut b = GraphBuilder::new(4);
    b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
    b.add_edge(NodeId(2), NodeId(3), 1).unwrap();
    let bad_g = Arc::new(b.build_unchecked());
    let bad_inst = InstanceBuilder::new(&bad_g)
        .component(&[NodeId(0), NodeId(2)])
        .build()
        .unwrap();
    let bad = SolveRequest::new("bad", bad_g, bad_inst, SolverKind::CollectAtRoot, 0);
    let (g, inst) = small_case();
    let good = request("good", &g, &inst, 3);

    // One worker: the valid job queues behind the panicking one on the
    // same lane, so it completes only if the lane survives.
    let mut server = StreamingServer::new(ServerConfig {
        workers: 1,
        ..Default::default()
    });
    let bad_handle = server.submit(bad).expect("admitted");
    let good_handle = server.submit(good.clone()).expect("admitted");
    let bad_result = bad_handle
        .wait_timeout(Duration::from_secs(60))
        .expect("the panicking job is reported");
    assert!(
        matches!(&bad_result.status, JobStatus::Panicked(msg) if msg.contains("disconnected")),
        "{:?}",
        bad_result.status
    );
    let good_result = good_handle
        .wait_timeout(Duration::from_secs(60))
        .expect("the lane serves the next job");
    let reference = SolverSession::new().solve(&good).expect("clean solve");
    assert!(good_result
        .status
        .outcome()
        .expect("completed")
        .deterministic_eq(&reference));
    server.shutdown();
}
