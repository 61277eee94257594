//! The bounded admission queue feeding the engine's worker pool.
//!
//! This is the backpressure *and scheduling* point of the async front-end:
//! submissions pass through a capacity-bounded queue whose full-queue
//! behaviour is the engine's [`AdmissionPolicy`] and whose dequeue order is
//! strict [`crate::Priority`] classes, earliest deadline first inside each
//! class, and arrival order as the tie break, so requests with no class
//! and no deadline are served in arrival order. An optional per-model
//! admission quota caps how many waiting jobs any one model may hold, so a
//! hot model's burst cannot occupy the whole queue and starve every other
//! model behind it.
//!
//! Built on `std::sync::{Mutex, Condvar}` (the vendored `parking_lot` stub
//! deliberately exposes only `Mutex`): two condition variables —
//! `not_empty` wakes idle workers, `not_full` wakes blocked submitters —
//! and a closed flag that turns both waits into immediate returns at
//! shutdown. The admitted set is small by construction (at most
//! `capacity` jobs), so dequeue and victim selection are O(capacity)
//! scans instead of a heap — no allocation, no ordering invariant to
//! maintain across mid-queue removals.

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
    /// Admit the new request by shedding the queued one most *past caring*
    /// — its deadline already gone or nearest, lowest priority class and
    /// oldest submission as tie breaks — whose [`crate::PendingResponse`]
    /// resolves to [`ServeError::Overloaded`]. `submit` never blocks and
    /// fresh traffic is never refused. When the full queue holds no
    /// deadlines at all, the victim degrades to the oldest queued request.
    ShedOldest,
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

    /// Resolve this job without serving it (shed / cancelled). A dead
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

/// Shed-victim order: the job most past caring first — deadline already
/// gone or nearest (deadline-free jobs only after every deadlined one),
/// then the *lowest* priority class, then the oldest submission. With no
/// deadlines and one class this degrades to plain oldest-first.
fn victim_order(a: &Job, b: &Job) -> Ordering {
    deadline_order(a, b)
        .then_with(|| b.request.priority.index().cmp(&a.request.priority.index()))
        .then(a.seq.cmp(&b.seq))
}

struct QueueState {
    jobs: Vec<Job>,
    /// Cleared exactly once, at engine shutdown.
    open: bool,
    /// Next admission sequence number (monotone, assigned under the lock).
    next_seq: u64,
}

impl QueueState {
    fn model_depth(&self, model: &str) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.request.model == model)
            .count()
    }

    /// Index of the shed victim among `jobs`, restricted to `model`'s jobs
    /// when the binding limit is a per-model quota.
    fn victim_index(&self, model: Option<&str>) -> Option<usize> {
        self.jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| model.is_none_or(|m| j.request.model == m))
            .min_by(|(_, a), (_, b)| victim_order(a, b))
            .map(|(i, _)| i)
    }
}

/// How a submission entered (or failed to enter) the queue.
pub(crate) enum Admission {
    /// The job is queued; a worker will pick it up in scheduling order.
    Enqueued,
    /// The job is queued and the returned victim job was shed to make room
    /// ([`AdmissionPolicy::ShedOldest`]); the caller resolves the victim.
    /// Boxed: a `Job` carries a full request, and the shed path is the
    /// rare one — keeping the other variants a pointer wide keeps every
    /// admission return cheap.
    Shed(Box<Job>),
    /// The queue (or the job's model quota) was full and
    /// [`AdmissionPolicy::Reject`] refused the job (dropped here; the
    /// submitter still holds the reply receiver).
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
    /// Per-model cap on waiting jobs; `None` disables quotas.
    quota: Option<usize>,
}

impl JobQueue {
    /// An open queue admitting at most `capacity` *waiting* jobs (jobs a
    /// worker has already dequeued don't count against it), dequeued in
    /// [`dequeue_order`], with at most `quota` of them per model when set.
    pub(crate) fn new(capacity: usize, quota: Option<usize>) -> Self {
        assert!(capacity > 0, "a zero-capacity queue could admit nothing");
        assert!(
            quota.is_none_or(|q| q > 0),
            "a zero quota could admit nothing for any model"
        );
        Self {
            state: Mutex::new(QueueState {
                jobs: Vec::new(),
                open: true,
                next_seq: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            quota,
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
    /// block, and only while the queue is open and either full or at the
    /// job's model quota.
    pub(crate) fn push(&self, job: Job, policy: AdmissionPolicy) -> Admission {
        let mut state = self.lock();
        loop {
            if !state.open {
                drop(job);
                return Admission::Closed;
            }
            // The per-model quota binds first: a model at its quota is
            // "full" for this job even when the queue has room, so one hot
            // model's burst cannot occupy every slot.
            let over_quota = self
                .quota
                .is_some_and(|q| state.model_depth(&job.request.model) >= q);
            if !over_quota && state.jobs.len() < self.capacity {
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
                AdmissionPolicy::ShedOldest => {
                    // Victim scope is the saturated dimension: the same
                    // model's jobs when its quota binds (evicting another
                    // model would not make this one admissible), the whole
                    // queue otherwise.
                    let scope = over_quota.then_some(job.request.model.as_str());
                    let idx = state
                        .victim_index(scope)
                        .expect("a saturated dimension holds at least one job");
                    let victim = state.jobs.remove(idx);
                    self.enqueue_locked(&mut state, job);
                    // Occupancy is unchanged (one out, one in): no
                    // not_full wakeup.
                    return Admission::Shed(Box::new(victim));
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
                // notify_all, not notify_one: with per-model quotas "room"
                // is model-dependent, and the one blocked submitter a
                // notify_one happens to wake may still be over its quota
                // and sleep again while a different model's submitter
                // could have proceeded.
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
        let q = JobQueue::new(2, None);
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
        // No deadlines, one class: the shed victim degrades to the oldest
        // queued job (user 0) and the new job is admitted.
        let (c, _rc) = job(2);
        let Admission::Shed(victim) = q.push(c, AdmissionPolicy::ShedOldest) else {
            panic!("full queue must shed");
        };
        assert_eq!(victim.request.user, 0);
        assert_eq!(q.pop().unwrap().request.user, 1);
        assert_eq!(q.pop().unwrap().request.user, 2);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn qos_pop_is_strict_priority_then_edf_then_fifo() {
        let q = JobQueue::new(8, None);
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

    /// Regression test for the doc'd ShedOldest contract: the victim is
    /// the job most past caring — deadline gone or nearest — not simply
    /// the FIFO front.
    #[test]
    fn shed_victim_is_nearest_deadline_not_fifo_front() {
        let q = JobQueue::new(3, None);
        let now = Instant::now();
        // Oldest job has the *farthest* deadline; the middle one is
        // already expired.
        let (a, _ra) =
            job_with(RecommendRequest::new("m", 0, 1).deadline_at(now + Duration::from_secs(3600)));
        let (b, _rb) =
            job_with(RecommendRequest::new("m", 1, 1).deadline_at(now - Duration::from_secs(1)));
        let (c, _rc) =
            job_with(RecommendRequest::new("m", 2, 1).deadline_at(now + Duration::from_secs(60)));
        for j in [a, b, c] {
            assert!(matches!(
                q.push(j, AdmissionPolicy::Block),
                Admission::Enqueued
            ));
        }
        let (d, _rd) = job_with(RecommendRequest::new("m", 3, 1));
        let Admission::Shed(victim) = q.push(d, AdmissionPolicy::ShedOldest) else {
            panic!("full queue must shed");
        };
        assert_eq!(
            victim.request.user, 1,
            "the expired job pays, not the front"
        );
        // Next victim: nearest live deadline; deadline-free jobs only last.
        let (e, _re) = job_with(RecommendRequest::new("m", 4, 1));
        let Admission::Shed(victim) = q.push(e, AdmissionPolicy::ShedOldest) else {
            panic!("full queue must shed");
        };
        assert_eq!(victim.request.user, 2, "nearest deadline next");
    }

    #[test]
    fn shed_victim_prefers_lower_class_on_deadline_ties() {
        let q = JobQueue::new(2, None);
        let (a, _ra) = job_with(RecommendRequest::new("m", 0, 1)); // Interactive, older
        let (b, _rb) =
            job_with(RecommendRequest::new("m", 1, 1).with_priority(Priority::Background));
        q.push(a, AdmissionPolicy::Block);
        q.push(b, AdmissionPolicy::Block);
        let (c, _rc) = job_with(RecommendRequest::new("m", 2, 1));
        let Admission::Shed(victim) = q.push(c, AdmissionPolicy::ShedOldest) else {
            panic!("full queue must shed");
        };
        assert_eq!(victim.request.user, 1, "Background pays before Interactive");
    }

    #[test]
    fn model_quota_caps_one_model_without_filling_the_queue() {
        let q = JobQueue::new(8, Some(2));
        let (a, _ra) = job_with(RecommendRequest::new("hot", 0, 1));
        let (b, _rb) = job_with(RecommendRequest::new("hot", 1, 1));
        q.push(a, AdmissionPolicy::Reject);
        q.push(b, AdmissionPolicy::Reject);
        // The hot model is at quota: Reject refuses its next job even
        // though the queue has room…
        let (c, _rc) = job_with(RecommendRequest::new("hot", 2, 1));
        assert!(matches!(
            q.push(c, AdmissionPolicy::Reject),
            Admission::Rejected
        ));
        // …while another model still enters freely.
        let (d, _rd) = job_with(RecommendRequest::new("cold", 3, 1));
        assert!(matches!(
            q.push(d, AdmissionPolicy::Reject),
            Admission::Enqueued
        ));
        assert_eq!(q.depth(), 3);
        // ShedOldest under a binding quota evicts within the same model:
        // the cold model's job survives.
        let (e, _re) = job_with(RecommendRequest::new("hot", 4, 1));
        let Admission::Shed(victim) = q.push(e, AdmissionPolicy::ShedOldest) else {
            panic!("quota-full model must shed its own job");
        };
        assert_eq!(victim.request.model, "hot");
        assert_eq!(victim.request.user, 0, "oldest hot job pays");
        assert_eq!(q.depth(), 3);
    }

    #[test]
    fn quota_blocked_submitter_wakes_when_its_model_drains() {
        let q = std::sync::Arc::new(JobQueue::new(8, Some(1)));
        let (a, _ra) = job_with(RecommendRequest::new("hot", 0, 1));
        assert!(matches!(
            q.push(a, AdmissionPolicy::Block),
            Admission::Enqueued
        ));
        let q2 = std::sync::Arc::clone(&q);
        let submitter = std::thread::spawn(move || {
            let (b, _rb) = job_with(RecommendRequest::new("hot", 1, 1));
            matches!(q2.push(b, AdmissionPolicy::Block), Admission::Enqueued)
        });
        // Popping the hot job frees the quota; the submitter must wake.
        assert_eq!(q.pop().unwrap().request.user, 0);
        assert!(submitter.join().unwrap());
        assert_eq!(q.pop().unwrap().request.user, 1);
    }

    #[test]
    fn depth_by_class_counts_waiting_jobs() {
        let q = JobQueue::new(8, None);
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
        let q = JobQueue::new(1, None);
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
        let q = std::sync::Arc::new(JobQueue::new(1, None));
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
