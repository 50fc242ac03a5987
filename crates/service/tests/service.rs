//! Acceptance tests of the batched service: scheduling must be invisible
//! in the results, and warm sessions must stop allocating.

use std::sync::Arc;

use dsf_graph::{generators, NodeId};
use dsf_service::{
    JobOutcome, ServiceConfig, SolveRequest, SolverKind, SolverService, SolverSession,
};
use dsf_steiner::InstanceBuilder;

/// A deterministic mixed batch: two graphs, all four solver kinds, a few
/// seeds.
fn mixed_requests() -> Vec<SolveRequest> {
    let g1 = Arc::new(generators::gnp_connected(24, 0.18, 9, 3));
    let g2 = Arc::new(generators::grid(4, 6, 8, 1));
    let i1 = InstanceBuilder::new(&g1)
        .component(&[NodeId(0), NodeId(11), NodeId(21)])
        .component(&[NodeId(4), NodeId(17)])
        .build()
        .unwrap();
    let i2 = InstanceBuilder::new(&g2)
        .component(&[NodeId(0), NodeId(23)])
        .component(&[NodeId(5), NodeId(18)])
        .build()
        .unwrap();
    let mut reqs = Vec::new();
    for (seed, &solver) in SolverKind::ALL.iter().enumerate().flat_map(|(s, k)| {
        // Two seeds per kind, alternating graphs: 8 jobs.
        [(s as u64, k), (s as u64 + 10, k)]
    }) {
        let (g, inst) = if seed % 2 == 0 {
            (g1.clone(), i1.clone())
        } else {
            (g2.clone(), i2.clone())
        };
        reqs.push(SolveRequest::new(
            format!("{}-{seed}", solver.name()),
            g,
            inst,
            solver,
            seed,
        ));
    }
    reqs
}

/// The one-at-a-time reference: every request on its own fresh session.
fn sequential(requests: &[SolveRequest]) -> Vec<JobOutcome> {
    requests
        .iter()
        .map(|r| SolverSession::new().solve(r).expect("clean solve"))
        .collect()
}

#[test]
fn batched_results_are_bit_identical_to_sequential_at_every_worker_count() {
    let requests = mixed_requests();
    let baseline = sequential(&requests);
    for workers in [1, 2, 4] {
        let mut service = SolverService::new(ServiceConfig {
            workers,
            ..Default::default()
        });
        let report = service.run_batch(&requests).expect("clean batch");
        assert_eq!(report.workers, workers);
        assert_eq!(report.jobs.len(), baseline.len());
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        for (job, reference) in report.jobs.iter().zip(&baseline) {
            assert!(
                job.deterministic_eq(reference),
                "workers={workers}: job {} diverged from the sequential solve",
                job.id
            );
        }
    }
}

#[test]
fn warm_sessions_allocate_no_arenas_in_steady_state() {
    let requests = mixed_requests();
    let mut service = SolverService::new(ServiceConfig {
        workers: 2,
        ..Default::default()
    });
    let warmup = service.run_batch(&requests).expect("clean batch");
    let warm = service.pool_stats();
    assert!(warm.builds > 0, "the cold batch must have built arenas");
    // Steady state: the identical batch again — all arena checkouts must
    // now be in-place reuses, zero new allocations.
    let steady = service.run_batch(&requests).expect("clean batch");
    let stats = service.pool_stats();
    assert_eq!(
        stats.builds, warm.builds,
        "steady-state solves must not allocate arenas"
    );
    assert!(stats.reuses > warm.reuses, "reuse counters must grow");
    // And reuse must not have perturbed any result.
    for (a, b) in warmup.jobs.iter().zip(&steady.jobs) {
        assert!(a.deterministic_eq(b));
    }
}

#[test]
fn large_jobs_take_the_whole_pool_and_still_match_sequential() {
    let requests = mixed_requests();
    let baseline = sequential(&requests);
    // Threshold 1 node: every job is "large" and runs through the sharded
    // whole-pool path.
    let mut service = SolverService::new(ServiceConfig {
        workers: 4,
        large_node_threshold: 1,
    });
    let report = service.run_batch(&requests).expect("clean batch");
    for (job, reference) in report.jobs.iter().zip(&baseline) {
        assert!(
            job.deterministic_eq(reference),
            "sharded large-job path diverged on {}",
            job.id
        );
    }
}

#[test]
fn report_carries_ratios_and_request_order() {
    let g = Arc::new(generators::path(6, 2));
    let inst = InstanceBuilder::new(&g)
        .component(&[NodeId(0), NodeId(5)])
        .build()
        .unwrap();
    // OPT on a weight-2 path of 5 edges is exactly 10.
    let requests: Vec<_> = (0..3)
        .map(|seed| {
            SolveRequest::new(
                format!("p{seed}"),
                g.clone(),
                inst.clone(),
                SolverKind::Deterministic,
                seed,
            )
            .with_cert_upper(10)
        })
        .collect();
    let mut service = SolverService::new(ServiceConfig {
        workers: 2,
        ..Default::default()
    });
    let report = service.run_batch(&requests).expect("clean batch");
    assert_eq!(
        report.total_rounds(),
        report.jobs.iter().map(|j| j.rounds()).sum::<u64>()
    );
    for (i, job) in report.jobs.iter().enumerate() {
        assert_eq!(job.id, format!("p{i}"), "request order preserved");
        assert_eq!(job.weight, 10);
        assert_eq!(job.ratio_milli, Some(1000));
    }
}

#[test]
fn exactly_threshold_nodes_schedules_as_large() {
    // Docs say "at least this many nodes" is large — pin the boundary:
    // a graph with *exactly* threshold nodes must take the sharded
    // large-job path, not the round-robin small path.
    let g = Arc::new(generators::gnp_connected(24, 0.18, 9, 3));
    let cfg = ServiceConfig {
        workers: 2,
        large_node_threshold: g.n(),
    };
    assert!(cfg.is_large(g.n()), "n == threshold is large");
    assert!(!cfg.is_large(g.n() - 1), "n == threshold - 1 is small");

    // And the classification is invisible in the results: the same batch
    // matches sequential solves whether it ran large (threshold == n) or
    // small (threshold == n + 1).
    let inst = InstanceBuilder::new(&g)
        .component(&[NodeId(0), NodeId(11), NodeId(21)])
        .build()
        .unwrap();
    let requests: Vec<_> = (0..3)
        .map(|seed| {
            SolveRequest::new(
                format!("b{seed}"),
                g.clone(),
                inst.clone(),
                SolverKind::Randomized,
                seed,
            )
        })
        .collect();
    let baseline = sequential(&requests);
    for threshold in [g.n(), g.n() + 1] {
        let mut service = SolverService::new(ServiceConfig {
            workers: 2,
            large_node_threshold: threshold,
        });
        let report = service.run_batch(&requests).expect("clean batch");
        for (job, reference) in report.jobs.iter().zip(&baseline) {
            assert!(
                job.deterministic_eq(reference),
                "threshold={threshold} drifted on {}",
                job.id
            );
        }
    }
}

#[test]
fn zero_workers_clamps_to_one() {
    let service = SolverService::new(ServiceConfig {
        workers: 0,
        large_node_threshold: 1000,
    });
    assert_eq!(service.workers(), 1);
    assert_eq!(service.session_stats().len(), 1);
}

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
    assert_eq!(SolverSession::new().solve(&bad).unwrap_err(), expected);

    let mut requests = mixed_requests();
    requests.insert(1, bad);
    for workers in [1, 4] {
        let mut service = SolverService::new(ServiceConfig {
            workers,
            ..Default::default()
        });
        assert_eq!(service.run_batch(&requests).unwrap_err(), expected);
    }
}
