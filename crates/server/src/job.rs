//! Per-job vocabulary of the streaming server: submission options, the
//! terminal [`JobStatus`], and the caller-side [`JobHandle`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use dsf_congest::SimError;
use dsf_service::JobOutcome;

/// Scheduling options attached to one submission.
///
/// The defaults — priority 0, no deadline — make [`JobOptions::default`]
/// equivalent to plain [`crate::StreamingServer::submit`].
#[derive(Debug, Clone, Copy, Default)]
pub struct JobOptions {
    /// Dispatch priority within the job's lane: higher runs sooner; ties
    /// dispatch in submission order (FIFO).
    pub priority: i32,
    /// If set, a job still queued at this instant is never dispatched; it
    /// is reported as [`JobStatus::DeadlineExpired`] instead. A job whose
    /// solve has already started always runs to completion.
    pub deadline: Option<Instant>,
}

impl JobOptions {
    /// Options with the given priority (higher runs sooner).
    #[must_use]
    pub fn with_priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Options with an absolute dispatch deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Options with a deadline `timeout` from now.
    #[must_use]
    pub fn with_deadline_in(self, timeout: Duration) -> Self {
        self.with_deadline(Instant::now() + timeout)
    }
}

/// How a job ended. Every submitted job reaches exactly one of these —
/// cancelled and deadline-expired jobs are *reported*, never silently
/// dropped.
#[derive(Debug, Clone)]
pub enum JobStatus {
    /// The solve ran; deterministic fields of the [`JobOutcome`] are
    /// bit-identical to a direct `solve_*` call (boxed: an outcome carries
    /// the full forest and ledger).
    Completed(Box<JobOutcome>),
    /// The solver raised a model violation.
    Failed(SimError),
    /// The solver panicked; carries the panic message. The panic is
    /// contained at the job boundary: the worker replaces its session
    /// and serves the next job.
    Panicked(String),
    /// [`JobHandle::cancel`] was observed before dispatch.
    Cancelled,
    /// The job was still queued when its [`JobOptions::deadline`] passed.
    DeadlineExpired,
}

impl JobStatus {
    /// The outcome of a completed job, `None` otherwise.
    pub fn outcome(&self) -> Option<&JobOutcome> {
        match self {
            JobStatus::Completed(out) => Some(out),
            _ => None,
        }
    }

    /// Whether the solve ran to completion.
    pub fn is_completed(&self) -> bool {
        matches!(self, JobStatus::Completed(_))
    }
}

/// The terminal report of one submitted job, delivered both through the
/// server's result stream and through the job's [`JobHandle`].
///
/// `queued_ns` and `total_ns` are wall-clock (report-only); everything
/// reachable through [`JobStatus::Completed`] is deterministic except the
/// outcome's own `wall_ns`.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Server-assigned submission number (dense, in submission order).
    pub job_id: u64,
    /// The request's caller-chosen id.
    pub id: String,
    /// The priority the job was submitted with.
    pub priority: i32,
    /// How the job ended.
    pub status: JobStatus,
    /// Time from submission to dispatch decision, in nanoseconds
    /// (report-only).
    pub queued_ns: u64,
    /// Time from submission to this result, in nanoseconds (report-only).
    pub total_ns: u64,
}

/// State shared between a [`JobHandle`] and the worker that eventually
/// finishes the job.
#[derive(Debug, Default)]
pub(crate) struct JobShared {
    /// Set by [`JobHandle::cancel`]; observed by the dispatch path.
    pub(crate) cancel: AtomicBool,
    /// The terminal result, once produced.
    slot: Mutex<Option<JobResult>>,
    done: Condvar,
}

impl JobShared {
    /// Publishes the terminal result and wakes every waiter.
    pub(crate) fn finish(&self, result: JobResult) {
        let mut slot = self.slot.lock().expect("job slot lock");
        debug_assert!(slot.is_none(), "a job finishes exactly once");
        *slot = Some(result);
        self.done.notify_all();
    }

    fn is_finished(&self) -> bool {
        self.slot.lock().expect("job slot lock").is_some()
    }
}

/// The caller's side of one submitted job.
///
/// A handle can be polled ([`JobHandle::try_result`]), blocked on
/// ([`JobHandle::wait`]), or used to request cancellation; dropping it
/// does *not* cancel the job — the result still arrives on the server's
/// result stream.
#[derive(Debug)]
pub struct JobHandle {
    pub(crate) job_id: u64,
    pub(crate) id: String,
    pub(crate) shared: Arc<JobShared>,
}

impl JobHandle {
    /// The server-assigned submission number.
    pub fn job_id(&self) -> u64 {
        self.job_id
    }

    /// The request's caller-chosen id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Requests cancellation. A job still queued is dropped at dispatch
    /// and reported as [`JobStatus::Cancelled`]; a job already running is
    /// not interrupted (its solve completes normally). Returns whether the
    /// request arrived before the job finished — `false` means the result
    /// already exists and cancellation had no effect.
    pub fn cancel(&self) -> bool {
        self.shared.cancel.store(true, Ordering::Release);
        !self.shared.is_finished()
    }

    /// Whether the job has a terminal result.
    pub fn is_finished(&self) -> bool {
        self.shared.is_finished()
    }

    /// The terminal result, if the job already finished.
    pub fn try_result(&self) -> Option<JobResult> {
        self.shared.slot.lock().expect("job slot lock").clone()
    }

    /// Blocks until the job finishes and returns its result.
    pub fn wait(&self) -> JobResult {
        let mut slot = self.shared.slot.lock().expect("job slot lock");
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self.shared.done.wait(slot).expect("job slot lock");
        }
    }

    /// Blocks up to `timeout` for the result; `None` on timeout.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobResult> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.shared.slot.lock().expect("job slot lock");
        loop {
            if let Some(result) = slot.as_ref() {
                return Some(result.clone());
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            let (s, _timed_out) = self
                .shared
                .done
                .wait_timeout(slot, left)
                .expect("job slot lock");
            slot = s;
        }
    }
}
