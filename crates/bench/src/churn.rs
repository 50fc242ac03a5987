//! The `bench_runner --churn` mode: the incremental re-solve lab.
//!
//! Replays every seeded churn trace ([`dsf_workloads::churn`]) through
//! `dsf-service`'s delta API — `add_demand` / `remove_demand` /
//! `reweight_edge` repairing the cached forest — and measures the repair
//! against the from-scratch solve of the same post-delta instance
//! (scratch = greedy + `repair::optimize`,
//! [`conformance::scratch_solve`]), emitted as `BENCH_churn.json`.
//!
//! Three gates run in-harness before any entry is emitted; a violation
//! aborts the run (non-zero exit):
//!
//! * **Repair quality** — every repaired forest passes
//!   [`dsf_workloads::conformance::check_repaired`]: feasible on the
//!   post-delta instance, within the certified ratio envelope at
//!   [`conformance::GREEDY_FACTOR`], minimal (no dangling rollback
//!   edges), and never heavier than the from-scratch solve.
//! * **Thread-count bit-identity** — the whole trace is replayed under
//!   worker-thread counts 1 and 4; per step the repaired forest, its
//!   weight, the move count, and the deterministic anchor's
//!   rounds/messages must match bit-for-bit.
//! * **Majority speedup** — across all measured steps of the run, the
//!   repair must be at least 2× faster than the scratch solve on a
//!   strict majority.
//!
//! Each trace opens with [`ChurnTrace::warmup`] cache-seeding arrivals.
//! They are replayed and quality-gated like every other step (a bad seed
//! forest would poison the rest of the trace) but produce no entry and
//! do not count toward the speed gate: the tier measures churn against a
//! warm session, not the cost of first filling the cache.
//!
//! Like the `--scale` and `--service` tiers there is no checked-in
//! baseline (`--check` is rejected): wall-clock is the product and the
//! in-harness asserts are the gate.
//!
//! # Records (tier `churn`)
//!
//! One record per measured step, named
//! `churn/<family>/seed=<s>/step=<i>/<op>`. `det`: `step`, `k`, `moves`,
//! `weight`, `scratch_weight`, `ratio_milli`, `bound_milli`, and the
//! deterministic anchor's `rounds` and `messages` (identical on every
//! machine and thread count). `wall`: `repair_wall_ns`,
//! `scratch_wall_ns`, and `speedup_milli` (`1000 × scratch / repair`).

use std::sync::Arc;
use std::time::Instant;

use dsf_service::{DemandId, SolveRequest, SolverKind, SolverSession};
use dsf_steiner::ForestSolution;
use dsf_workloads::churn::{churn_traces, instance_of, ChurnOp, ChurnTrace};
use dsf_workloads::conformance;
use dsf_workloads::corpus::Tier;
use dsf_workloads::{certify, Certificate};

use crate::record::{Record, Report};

/// The op's name segment in a record name.
fn op_tag(op: &ChurnOp) -> &'static str {
    match op {
        ChurnOp::Add { .. } => "add",
        ChurnOp::Remove { .. } => "remove",
        ChurnOp::Reweight { .. } => "reweight",
    }
}

/// One replayed delta: the repair outcome plus the deterministic anchor
/// solve of the post-delta instance.
struct StepRecord {
    forest: ForestSolution,
    weight: u64,
    moves: u64,
    repair_wall_ns: u64,
    anchor_rounds: u64,
    anchor_messages: u64,
}

/// Replays a whole trace through one incremental session at a fixed
/// worker-thread count, collecting per-step records.
fn replay(trace: &ChurnTrace, threads: usize) -> Vec<StepRecord> {
    let mut session = SolverSession::new();
    let rebuilt = session.install_graph(Arc::new(trace.graph.clone()));
    assert!(rebuilt, "{}: fresh session must build its cache", trace.id);
    let mut anchor_session = SolverSession::new();
    let mut handles: Vec<DemandId> = Vec::new();
    let steps = trace.steps();
    let mut records = Vec::with_capacity(steps.len());
    for (i, step) in steps.iter().enumerate() {
        let outcome = match &step.op {
            ChurnOp::Add { terminals } => {
                let (id, out) = session
                    .add_demand(terminals)
                    .unwrap_or_else(|e| panic!("{}: step {i}: add failed: {e}", trace.id));
                handles.push(id);
                out
            }
            ChurnOp::Remove { slot } => {
                let id = handles.remove(*slot);
                session
                    .remove_demand(id)
                    .unwrap_or_else(|e| panic!("{}: step {i}: remove failed: {e}", trace.id))
            }
            ChurnOp::Reweight { edge, weight } => session
                .reweight_edge(*edge, *weight)
                .unwrap_or_else(|e| panic!("{}: step {i}: reweight failed: {e}", trace.id)),
        };
        // The deterministic anchor ties the step to the paper pipeline:
        // its rounds/messages on the post-delta instance are the
        // schema's deterministic CONGEST columns.
        let req = SolveRequest::new(
            format!("{}/step={i:02}/anchor", trace.id),
            session.cached_graph().expect("graph is installed").clone(),
            instance_of(&step.graph, &step.demands),
            SolverKind::Deterministic,
            0,
        );
        let anchor = anchor_session
            .solve_with_threads(&req, threads)
            .expect("anchor solve runs clean");
        records.push(StepRecord {
            forest: outcome.forest,
            weight: outcome.weight,
            moves: outcome.moves,
            repair_wall_ns: outcome.wall_ns,
            anchor_rounds: anchor.rounds(),
            anchor_messages: anchor.messages(),
        });
    }
    records
}

/// The record of one measured step: repair quality and the anchor's
/// CONGEST columns in `det`, the repair-vs-scratch timings in `wall`.
/// `rec.repair_wall_ns` must already be positive.
fn step_record(
    name: String,
    step: usize,
    k: usize,
    rec: &StepRecord,
    cert: &Certificate,
    scratch_weight: u64,
    scratch_wall_ns: u64,
) -> Record {
    let ratio_milli = (1000 * u128::from(rec.weight)).div_ceil(u128::from(cert.upper.max(1)));
    Record::new(name)
        .det("step", step as u64)
        .det("k", k as u64)
        .det("moves", rec.moves)
        .det("weight", rec.weight)
        .det("scratch_weight", scratch_weight)
        .det("ratio_milli", ratio_milli as u64)
        .det(
            "bound_milli",
            conformance::bound_milli(cert, conformance::GREEDY_FACTOR, 0.0),
        )
        .det("rounds", rec.anchor_rounds)
        .det("messages", rec.anchor_messages)
        .wall("repair_wall_ns", rec.repair_wall_ns)
        .wall("scratch_wall_ns", scratch_wall_ns)
        .wall("speedup_milli", 1000 * scratch_wall_ns / rec.repair_wall_ns)
}

/// Runs every churn trace and assembles the report, enforcing the three
/// in-harness gates (repair quality, thread-count bit-identity, majority
/// 2× speedup).
///
/// `quick` selects the quick trace tier (CI smoke); graphs are full-sized
/// in both modes — only trace count and length shrink.
pub fn collect(quick: bool) -> Report {
    let tier = if quick { Tier::Quick } else { Tier::Full };
    let mut records = Vec::new();
    let mut fast_steps = 0usize;
    let mut total_steps = 0usize;
    // Per-op-kind (fast, total) counters, printed as a diagnostic so a
    // speed-gate trip points at the op family that regressed.
    let mut per_op: std::collections::BTreeMap<&'static str, (usize, usize)> =
        std::collections::BTreeMap::new();
    for trace in churn_traces(tier) {
        // Gate: the replay is bit-identical across worker-thread counts,
        // for the repair path and the deterministic anchor alike.
        let mut base = dsf_congest::with_threads(1, || replay(&trace, 1));
        let alt = dsf_congest::with_threads(4, || replay(&trace, 4));
        assert_eq!(base.len(), alt.len(), "{}: replay length drifted", trace.id);
        for (i, (a, b)) in base.iter_mut().zip(&alt).enumerate() {
            assert!(
                a.forest == b.forest && a.weight == b.weight && a.moves == b.moves,
                "{}: step {i}: repair is not bit-identical across thread counts",
                trace.id
            );
            assert!(
                a.anchor_rounds == b.anchor_rounds && a.anchor_messages == b.anchor_messages,
                "{}: step {i}: anchor metrics drifted across thread counts",
                trace.id
            );
            // The faster of the two replays is the repair's wall time.
            a.repair_wall_ns = a.repair_wall_ns.min(b.repair_wall_ns).max(1);
        }

        for (i, (step, rec)) in trace.steps().iter().zip(&base).enumerate() {
            let inst = instance_of(&step.graph, &step.demands);
            let t0 = Instant::now();
            let scratch = conformance::scratch_solve(&step.graph, &inst);
            let scratch_wall_ns = (t0.elapsed().as_nanos() as u64).max(1);
            let scratch_weight = scratch.weight(&step.graph);

            // Gate: the repaired forest passes the churn-differential
            // oracle against the post-delta certificate. This holds on
            // warm-up steps too — a bad seed forest would poison every
            // measured step after it.
            let cert = certify(&step.graph, &inst);
            let violations =
                conformance::check_repaired(&step.graph, &inst, &cert, &rec.forest, scratch_weight);
            assert!(
                violations.is_empty(),
                "churn gate: {}: step {i}: {violations:?}",
                trace.id
            );

            // Warm-up arrivals seed the cache; the tier measures churn
            // against a warm session, so they produce no record and do
            // not count toward the speed gate.
            if i < trace.warmup {
                continue;
            }
            total_steps += 1;
            let slot = per_op.entry(op_tag(&step.op)).or_insert((0, 0));
            slot.1 += 1;
            if rec.repair_wall_ns * 2 <= scratch_wall_ns {
                fast_steps += 1;
                slot.0 += 1;
            }
            records.push(step_record(
                format!("{}/step={i:02}/{}", trace.id, op_tag(&step.op)),
                i,
                inst.k(),
                rec,
                &cert,
                scratch_weight,
                scratch_wall_ns,
            ));
        }
    }
    for (op, (fast, total)) in &per_op {
        eprintln!("churn speed: {op}: {fast}/{total} steps >=2x faster than scratch");
    }
    // Gate: the repair pays for itself — at least 2× faster than the
    // from-scratch solve on a strict majority of all measured steps.
    assert!(
        fast_steps * 2 > total_steps,
        "churn gate: repair was >=2x faster than scratch on only {fast_steps} of \
         {total_steps} measured steps (need a strict majority)"
    );
    Report::new("churn", quick, records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_schema_and_one_entry_per_line() {
        let rec = StepRecord {
            forest: ForestSolution::empty(),
            weight: 41,
            moves: 2,
            repair_wall_ns: 1,
            anchor_rounds: 310,
            anchor_messages: 6200,
        };
        let cert = Certificate {
            kind: dsf_workloads::CertificateKind::Exact,
            lower: 41.0,
            upper: 41,
        };
        let record = step_record(
            "churn/gnp/seed=0/step=03/add".into(),
            3,
            3,
            &rec,
            &cert,
            41,
            9,
        );
        let det = [
            "step",
            "k",
            "moves",
            "weight",
            "scratch_weight",
            "ratio_milli",
            "bound_milli",
            "rounds",
            "messages",
        ];
        assert_eq!(record.det.iter().map(|(k, _)| k).collect::<Vec<_>>(), det);
        assert_eq!(record.det.get("ratio_milli"), Some(1000));
        assert_eq!(record.det.get("bound_milli"), Some(4000));
        assert_eq!(record.wall.get("speedup_milli"), Some(9000));
        let json = Report::new("churn", true, vec![record]).to_json();
        assert!(json.contains("\"schema\": \"dsf-bench/v5\""));
        assert!(json.contains("\"tier\": \"churn\""));
        assert_eq!(json.lines().filter(|l| l.contains("\"name\"")).count(), 1);
    }

    #[test]
    fn op_tags_cover_every_kind() {
        use dsf_graph::{EdgeId, NodeId};
        assert_eq!(
            op_tag(&ChurnOp::Add {
                terminals: vec![NodeId::from(0usize)]
            }),
            "add"
        );
        assert_eq!(op_tag(&ChurnOp::Remove { slot: 0 }), "remove");
        assert_eq!(
            op_tag(&ChurnOp::Reweight {
                edge: EdgeId(0),
                weight: 1
            }),
            "reweight"
        );
    }
}
