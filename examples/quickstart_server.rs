//! Quickstart for the streaming server: submit a live stream of Steiner
//! forest jobs with priorities and deadlines, watch results arrive as
//! they finish, and cancel a job in flight — all on a bounded queue that
//! backpressures instead of growing without limit.
//!
//! ```text
//! cargo run --release --example quickstart_server
//! ```

use std::sync::Arc;
use std::time::Duration;

use steiner_forest::prelude::*;

fn main() {
    let g = Arc::new(generators::gnp_connected(40, 0.12, 20, 42));
    let inst = InstanceBuilder::new(&g)
        .component(&[NodeId(0), NodeId(7), NodeId(15)])
        .component(&[NodeId(21), NodeId(33)])
        .build()
        .expect("disjoint components");

    // Four workers, a 16-deep admission queue; a full queue makes
    // `submit` block until a slot frees (use `AdmissionPolicy::Reject`
    // to fail fast instead).
    let mut server = StreamingServer::new(ServerConfig {
        workers: 4,
        queue_capacity: 16,
        ..Default::default()
    });

    // A seed sweep at normal priority, plus one urgent job that jumps
    // the queue and one throwaway job we cancel immediately.
    let mut requests = Vec::new();
    let mut handles = Vec::new();
    for seed in 0..8 {
        let req = SolveRequest::new(
            format!("sweep/seed={seed}"),
            g.clone(),
            inst.clone(),
            SolverKind::Randomized,
            seed,
        );
        requests.push(req.clone());
        handles.push(server.submit(req).expect("admitted"));
    }
    let urgent_req = SolveRequest::new(
        "urgent",
        g.clone(),
        inst.clone(),
        SolverKind::Deterministic,
        0,
    );
    requests.push(urgent_req.clone());
    let urgent = server
        .submit_with(
            urgent_req,
            JobOptions::default()
                .with_priority(10)
                .with_deadline_in(Duration::from_secs(30)),
        )
        .expect("admitted");
    let throwaway = server
        .submit(SolveRequest::new(
            "throwaway",
            g.clone(),
            inst.clone(),
            SolverKind::Khan,
            99,
        ))
        .expect("admitted");
    throwaway.cancel();

    // Results stream in completion order; every admitted job — finished,
    // cancelled, or expired — is reported exactly once, and every
    // finished one is bit-identical to solving its request alone.
    let total = handles.len() + 2;
    for _ in 0..total {
        let r = server
            .next_result_timeout(Duration::from_secs(60))
            .expect("server drains");
        match r.status.outcome() {
            Some(out) => {
                let req = requests.iter().find(|q| q.id == r.id).expect("sent");
                let alone = SolverSession::new().solve(req).expect("clean solve");
                assert!(out.deterministic_eq(&alone), "{} drifted", r.id);
                println!(
                    "{:<16} prio {:>2}  weight {:>5}  rounds {:>4}  queued {:>6.2} ms",
                    r.id,
                    r.priority,
                    out.weight,
                    out.ledger.total(),
                    r.queued_ns as f64 / 1e6,
                );
            }
            None => println!("{:<16} prio {:>2}  {:?}", r.id, r.priority, r.status),
        }
    }
    assert!(urgent.is_finished());
    server.shutdown();
}
