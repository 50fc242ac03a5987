//! Quickstart for batches: pose a set of Steiner forest jobs, run them
//! as one batch on the streaming server's warm worker sessions, and read
//! the per-job report — then run the same batch again to see warm
//! sessions solve without allocating a single arena.
//!
//! ```text
//! cargo run --release --example quickstart_service
//! ```

use std::sync::Arc;

use steiner_forest::prelude::*;

fn main() {
    // One recurring network (warm sessions amortize setup across jobs
    // that share a graph) and two demand instances over it.
    let g = Arc::new(generators::gnp_connected(40, 0.12, 20, 42));
    let provisioning = InstanceBuilder::new(&g)
        .component(&[NodeId(0), NodeId(7), NodeId(15)])
        .component(&[NodeId(21), NodeId(33)])
        .build()
        .expect("disjoint components");
    let multicast = InstanceBuilder::new(&g)
        .component(&[NodeId(2), NodeId(18), NodeId(29), NodeId(38)])
        .build()
        .expect("disjoint components");

    // A mixed batch: both instances, three solvers, a seed sweep.
    let mut requests = Vec::new();
    for (inst_name, inst) in [("provisioning", &provisioning), ("multicast", &multicast)] {
        for solver in [
            SolverKind::Deterministic,
            SolverKind::Randomized,
            SolverKind::Khan,
        ] {
            for seed in 0..3 {
                requests.push(SolveRequest::new(
                    format!("{inst_name}/{}/seed={seed}", solver.name()),
                    g.clone(),
                    inst.clone(),
                    solver,
                    seed,
                ));
            }
        }
    }

    let server = StreamingServer::new(ServerConfig {
        workers: 4,
        ..Default::default()
    });

    let report = server.run_batch(&requests).expect("model respected");
    print_report("cold batch", &report);
    let stats = server.pool_stats();
    println!(
        "\npool after cold batch: {} arena builds, {} in-place reuses",
        stats.builds, stats.reuses
    );

    // Steady state: the same workload again — bit-identical results
    // (batching and reuse are invisible), zero new allocations.
    let again = server.run_batch(&requests).expect("model respected");
    assert!(report
        .jobs
        .iter()
        .zip(&again.jobs)
        .all(|(a, b)| a.deterministic_eq(b)));
    let warm = server.pool_stats();
    assert_eq!(warm.builds, stats.builds, "warm batch allocated nothing");
    print_report("warm batch", &again);
    println!(
        "\npool after warm batch: {} arena builds (unchanged), {} in-place reuses",
        warm.builds, warm.reuses
    );
}

fn print_report(label: &str, report: &BatchReport) {
    println!(
        "\n{label}: {} jobs across {} workers, {:.3} ms, {:.1} solves/sec",
        report.jobs.len(),
        report.workers,
        report.wall_ns as f64 / 1e6,
        report.solves_per_sec_milli() as f64 / 1000.0
    );
    println!(
        "{:<34} {:>7} {:>8} {:>10} {:>10}",
        "job", "weight", "rounds", "messages", "wall"
    );
    for job in &report.jobs {
        println!(
            "{:<34} {:>7} {:>8} {:>10} {:>7.2} ms",
            job.id,
            job.weight,
            job.rounds(),
            job.messages(),
            job.wall_ns as f64 / 1e6
        );
    }
    assert!(report.violations.is_empty());
}
