//! The bounded admission queue feeding the engine's worker pool.
//!
//! This is the backpressure *and scheduling* point of the async front-end:
//! submissions pass through a capacity-bounded queue whose full-queue
//! behaviour is the engine's [`AdmissionPolicy`] and whose dequeue order is
//! strict [`crate::Priority`] classes, earliest deadline first inside each
//! class, and arrival order as the tie break, so requests with no class
//! and no deadline are served in arrival order.
//!
//! Built on `std::sync::{Mutex, Condvar}` (the vendored `parking_lot` stub
//! deliberately exposes only `Mutex`): two condition variables —
//! `not_empty` wakes idle workers, `not_full` wakes blocked submitters —
//! and a closed flag that turns both waits into immediate returns at
//! shutdown. The admitted set is small by construction (at most
//! `capacity` jobs), so dequeue is an O(capacity) scan instead of a heap —
//! no allocation, no ordering invariant to maintain across mid-queue
//! removals.

use crate::request::{RecommendRequest, RecommendResponse, ServeError};
use std::cmp::Ordering;
use std::sync::{mpsc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// What [`crate::Engine::submit`] does when the admission queue is full —
/// the engine's backpressure policy, set by
/// [`crate::EngineBuilder::admission`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Wait for a queue slot: `submit` blocks until a worker drains one
    /// (closed-loop producers; the default, and the policy under which
    /// fan-out batches behave exactly like the blocking batch API).
    #[default]
    Block,
    /// Refuse the new request: `submit` returns
    /// [`ServeError::Overloaded`] without blocking (open-loop producers
    /// that would rather drop than queue).
    Reject,
}

/// One queued unit of work: a request plus the one-shot reply channel its
/// [`crate::PendingResponse`] is waiting on.
pub(crate) struct Job {
    pub(crate) request: RecommendRequest,
    pub(crate) reply: mpsc::Sender<Result<RecommendResponse, ServeError>>,
    /// When the job entered the queue — the base of the per-class latency
    /// histogram (submit → response, queueing included).
    pub(crate) enqueued_at: Instant,
    /// Admission order, assigned by the queue under its lock: the final tie
    /// break of every scheduling comparison.
    pub(crate) seq: u64,
}

impl Job {
    pub(crate) fn new(
        request: RecommendRequest,
        reply: mpsc::Sender<Result<RecommendResponse, ServeError>>,
    ) -> Self {
        Self {
            request,
            reply,
            enqueued_at: Instant::now(),
            seq: 0,
        }
    }

    /// Resolve this job without serving it (cancelled at shutdown). A dead
    /// receiver just means nobody is waiting any more.
    pub(crate) fn refuse(self, error: ServeError) {
        let _ = self.reply.send(Err(error));
    }
}

/// Deadlined jobs before deadline-free ones, earlier deadlines first.
fn deadline_order(a: &Job, b: &Job) -> Ordering {
    match (a.request.deadline, b.request.deadline) {
        (Some(x), Some(y)) => x.cmp(&y),
        (Some(_), None) => Ordering::Less,
        (None, Some(_)) => Ordering::Greater,
        (None, None) => Ordering::Equal,
    }
}

/// Dequeue order: strict priority class, EDF within the class, submission
/// order as the tie break.
fn dequeue_order(a: &Job, b: &Job) -> Ordering {
    a.request
        .priority
        .index()
        .cmp(&b.request.priority.index())
        .then_with(|| deadline_order(a, b))
        .then(a.seq.cmp(&b.seq))
}

struct QueueState {
    jobs: Vec<Job>,
    /// Cleared exactly once, at engine shutdown.
    open: bool,
    /// Next admission sequence number (monotone, assigned under the lock).
    next_seq: u64,
}

/// How a submission entered (or failed to enter) the queue.
pub(crate) enum Admission {
    /// The job is queued; a worker will pick it up in scheduling order.
    Enqueued,
    /// The queue was full and [`AdmissionPolicy::Reject`] refused the job
    /// (dropped here; the submitter still holds the reply receiver).
    Rejected,
    /// The queue is closed (engine shutting down); the job was dropped.
    Closed,
}

/// A closed-capacity scheduling queue of [`Job`]s shared by submitters and
/// workers.
pub(crate) struct JobQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl JobQueue {
    /// An open queue admitting at most `capacity` *waiting* jobs (jobs a
    /// worker has already dequeued don't count against it), dequeued in
    /// [`dequeue_order`].
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity queue could admit nothing");
        Self {
            state: Mutex::new(QueueState {
                jobs: Vec::new(),
                open: true,
                next_seq: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        // Poisoning is impossible in practice (no lock-holding code path
        // panics: request panics are caught inside `execute`, outside any
        // queue lock) — recover the guard rather than propagating.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn enqueue_locked(&self, state: &mut QueueState, mut job: Job) {
        job.seq = state.next_seq;
        state.next_seq += 1;
        state.jobs.push(job);
        self.not_empty.notify_one();
    }

    /// Admit `job` under `policy`. Only [`AdmissionPolicy::Block`] can
    /// block, and only while the queue is open and full.
    pub(crate) fn push(&self, job: Job, policy: AdmissionPolicy) -> Admission {
        let mut state = self.lock();
        loop {
            if !state.open {
                drop(job);
                return Admission::Closed;
            }
            if state.jobs.len() < self.capacity {
                self.enqueue_locked(&mut state, job);
                return Admission::Enqueued;
            }
            match policy {
                AdmissionPolicy::Block => {
                    state = self.not_full.wait(state).unwrap_or_else(|e| e.into_inner());
                }
                AdmissionPolicy::Reject => {
                    drop(job);
                    return Admission::Rejected;
                }
            }
        }
    }

    /// Next job in [`dequeue_order`], blocking while the queue is empty but
    /// open. `None` means the queue is closed and drained: the worker exits.
    pub(crate) fn pop(&self) -> Option<Job> {
        let mut state = self.lock();
        loop {
            let next = state
                .jobs
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| dequeue_order(a, b))
                .map(|(i, _)| i);
            if let Some(idx) = next {
                let job = state.jobs.remove(idx);
                self.not_full.notify_all();
                return Some(job);
            }
            if !state.open {
                return None;
            }
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Close the queue and return every not-yet-started job, waking all
    /// blocked submitters (they observe `Closed`) and all idle workers
    /// (they observe the drained close and exit). This is what makes
    /// engine drop bounded-time: teardown cancels the backlog instead of
    /// serving it.
    pub(crate) fn close_and_drain(&self) -> Vec<Job> {
        let mut state = self.lock();
        state.open = false;
        let drained = state.jobs.drain(..).collect();
        self.not_empty.notify_all();
        self.not_full.notify_all();
        drained
    }

    /// Number of jobs currently waiting (diagnostics / tests).
    pub(crate) fn depth(&self) -> usize {
        self.lock().jobs.len()
    }

    /// Waiting jobs per priority class (indexed by
    /// [`crate::Priority::index`]).
    pub(crate) fn depth_by_class(&self) -> [usize; crate::Priority::COUNT] {
        let state = self.lock();
        let mut depths = [0; crate::Priority::COUNT];
        for job in &state.jobs {
            depths[job.request.priority.index()] += 1;
        }
        depths
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::Priority;
    use std::time::Duration;

    fn job(user: u32) -> (Job, mpsc::Receiver<Result<RecommendResponse, ServeError>>) {
        let (reply, rx) = mpsc::channel();
        (Job::new(RecommendRequest::new("m", user, 1), reply), rx)
    }

    fn job_with(
        request: RecommendRequest,
    ) -> (Job, mpsc::Receiver<Result<RecommendResponse, ServeError>>) {
        let (reply, rx) = mpsc::channel();
        (Job::new(request, reply), rx)
    }

    #[test]
    fn fifo_order_and_capacity() {
        let q = JobQueue::new(2);
        let (a, _ra) = job(0);
        let (b, _rb) = job(1);
        assert!(matches!(
            q.push(a, AdmissionPolicy::Reject),
            Admission::Enqueued
        ));
        assert!(matches!(
            q.push(b, AdmissionPolicy::Reject),
            Admission::Enqueued
        ));
        assert_eq!(q.depth(), 2);
        let (c, _rc) = job(2);
        assert!(matches!(
            q.push(c, AdmissionPolicy::Reject),
            Admission::Rejected
        ));
        assert_eq!(q.pop().unwrap().request.user, 0);
        assert_eq!(q.pop().unwrap().request.user, 1);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn qos_pop_is_strict_priority_then_edf_then_fifo() {
        let q = JobQueue::new(8);
        let far = Instant::now() + Duration::from_secs(3600);
        let near = Instant::now() + Duration::from_secs(60);
        // Arrival order deliberately scrambled against service order.
        let (bg, _r0) =
            job_with(RecommendRequest::new("m", 0, 1).with_priority(Priority::Background));
        let (batch_near, _r1) = job_with(
            RecommendRequest::new("m", 1, 1)
                .with_priority(Priority::Batch)
                .deadline_at(near),
        );
        let (int_far, _r2) = job_with(RecommendRequest::new("m", 2, 1).deadline_at(far));
        let (int_near, _r3) = job_with(RecommendRequest::new("m", 3, 1).deadline_at(near));
        let (int_nodeadline, _r4) = job_with(RecommendRequest::new("m", 4, 1));
        for j in [bg, batch_near, int_far, int_near, int_nodeadline] {
            assert!(matches!(
                q.push(j, AdmissionPolicy::Block),
                Admission::Enqueued
            ));
        }
        // Interactive first (EDF inside: near, far, then no-deadline),
        // then Batch, then Background.
        let order: Vec<u32> = (0..5).map(|_| q.pop().unwrap().request.user).collect();
        assert_eq!(order, vec![3, 2, 4, 1, 0]);
    }

    #[test]
    fn depth_by_class_counts_waiting_jobs() {
        let q = JobQueue::new(8);
        let (a, _ra) = job_with(RecommendRequest::new("m", 0, 1));
        let (b, _rb) = job_with(RecommendRequest::new("m", 1, 1).with_priority(Priority::Batch));
        let (c, _rc) = job_with(RecommendRequest::new("m", 2, 1).with_priority(Priority::Batch));
        q.push(a, AdmissionPolicy::Block);
        q.push(b, AdmissionPolicy::Block);
        q.push(c, AdmissionPolicy::Block);
        assert_eq!(q.depth_by_class(), [1, 2, 0]);
    }

    #[test]
    fn close_drains_and_unblocks() {
        let q = JobQueue::new(1);
        let (a, ra) = job(7);
        assert!(matches!(
            q.push(a, AdmissionPolicy::Block),
            Admission::Enqueued
        ));
        let drained = q.close_and_drain();
        assert_eq!(drained.len(), 1);
        for j in drained {
            j.refuse(ServeError::ShuttingDown);
        }
        assert_eq!(ra.recv().unwrap(), Err(ServeError::ShuttingDown));
        // Closed queue: pop returns None, push observes Closed.
        assert!(q.pop().is_none());
        let (b, _rb) = job(8);
        assert!(matches!(
            q.push(b, AdmissionPolicy::Block),
            Admission::Closed
        ));
    }

    #[test]
    fn blocked_submitter_wakes_when_a_worker_drains() {
        let q = std::sync::Arc::new(JobQueue::new(1));
        let (a, _ra) = job(0);
        assert!(matches!(
            q.push(a, AdmissionPolicy::Block),
            Admission::Enqueued
        ));
        let q2 = std::sync::Arc::clone(&q);
        let submitter = std::thread::spawn(move || {
            let (b, _rb) = job(1);
            matches!(q2.push(b, AdmissionPolicy::Block), Admission::Enqueued)
        });
        // Drain one slot; the blocked submitter must complete.
        assert_eq!(q.pop().unwrap().request.user, 0);
        assert!(submitter.join().unwrap());
        assert_eq!(q.pop().unwrap().request.user, 1);
    }
}
