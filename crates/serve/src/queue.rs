//! The bounded admission queue feeding the worker pool.
//!
//! Admission control happens at [`JobQueue::push`]: each service class
//! ([`Priority`]) has its own bounded budget, so a batch flood fills
//! the batch budget and starts bouncing with `429 queue_full` while
//! interactive admissions keep landing — the queue itself is the first
//! line of class isolation. Workers block in [`JobQueue::pop_batch`],
//! which serves the interactive class strictly before the batch class
//! and, within a class, picks the earliest-deadline job as the batch
//! leader (EDF; deadline-free jobs run FIFO after every deadlined one).
//! The leader then *gathers* other queued jobs with the same
//! [`BatchKey`](crate::BatchKey) — rotating across tenants so one
//! tenant's sweep cannot monopolize a shared batch — up to the batch
//! cap, so one tuner artifact is amortized across the group.

use crate::job::{Priority, RejectReason, ServeError, SolveRequest, SolveResponse};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// A queued request plus everything needed to answer it later.
#[derive(Debug)]
pub struct Job {
    /// Server-assigned id.
    pub id: u64,
    /// Per-request trace id, assigned at admission; rendered as
    /// `{:016x}` on the wire and threaded through every span the
    /// request produces.
    pub trace_id: u64,
    /// The request.
    pub req: SolveRequest,
    /// When admission accepted it.
    pub enqueued: Instant,
    /// Absolute deadline derived from `req.deadline_ms`.
    pub deadline: Option<Instant>,
    /// One-shot reply channel back to the submitter.
    pub tx: mpsc::Sender<Result<SolveResponse, ServeError>>,
    /// Band-frame channel for streamed solves (`POST /solve?stream=1`):
    /// bounded, so a slow consumer exerts backpressure on the solve
    /// itself. `None` for ordinary requests.
    pub stream: Option<mpsc::SyncSender<crate::stream::BandFrame>>,
}

/// One dequeue: the live batch to solve plus the jobs shed because
/// their deadline passed while they sat in the queue.
#[derive(Debug)]
pub struct Popped {
    /// Batch-key-grouped jobs to solve; may be empty when the wake-up
    /// only shed expired work (or a batch-restricted worker timed out
    /// waiting for interactive work).
    pub batch: Vec<Job>,
    /// Jobs whose deadline expired in the queue, in queue order.
    pub expired: Vec<Job>,
}

#[derive(Debug, Default)]
struct QueueState {
    /// One FIFO arrival list per service class, indexed by
    /// [`Priority::index`]. EDF leader selection scans at pop time, so
    /// arrival order is preserved for deadline-free work.
    classes: [VecDeque<Job>; 2],
    open: bool,
}

impl QueueState {
    fn is_empty(&self) -> bool {
        self.classes.iter().all(|c| c.is_empty())
    }
}

/// Bounded MPMC queue with per-class admission budgets, EDF-within-
/// class dequeue, and tenant-fair batch gathering.
#[derive(Debug)]
pub struct JobQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
    /// Per-class admission budgets, indexed by [`Priority::index`].
    budgets: [usize; 2],
}

/// How long a batch-restricted worker naps before re-checking for
/// interactive work (and letting the caller re-evaluate the brownout
/// level).
const RESTRICTED_NAP: Duration = Duration::from_millis(25);

impl JobQueue {
    /// An open queue admitting at most `interactive` interactive-class
    /// and `batch` batch-class jobs.
    pub fn with_budgets(interactive: usize, batch: usize) -> JobQueue {
        JobQueue {
            state: Mutex::new(QueueState {
                classes: [VecDeque::new(), VecDeque::new()],
                open: true,
            }),
            cv: Condvar::new(),
            budgets: [interactive, batch],
        }
    }

    /// Admits `job`, returning the total queue depth after admission —
    /// or the job back with the rejection when the job's class budget
    /// is full or the queue is draining.
    // Returning the job by value on rejection is the point of the API
    // (the caller still owns it and must answer its responder), so the
    // large Err variant is deliberate.
    #[allow(clippy::result_large_err)]
    pub fn push(&self, job: Job) -> Result<usize, (Job, RejectReason)> {
        let mut state = self.state.lock().unwrap();
        if !state.open {
            return Err((job, RejectReason::ShuttingDown));
        }
        let class = job.req.priority.index();
        if state.classes[class].len() >= self.budgets[class] {
            return Err((
                job,
                RejectReason::QueueFull {
                    capacity: self.budgets[class],
                },
            ));
        }
        state.classes[class].push_back(job);
        let depth = state.classes[0].len() + state.classes[1].len();
        drop(state);
        self.cv.notify_one();
        Ok(depth)
    }

    /// Blocks until work is available, then returns a batch led by the
    /// earliest-deadline live job of the highest non-empty class
    /// (interactive strictly before batch) plus up to `max_batch - 1`
    /// same-[`BatchKey`](crate::BatchKey) followers gathered
    /// tenant-fair — and, separately, every queued job whose deadline
    /// expired while it waited. Expired jobs are shed *here*, at pop
    /// time, so they never occupy a solve slot; the caller answers them
    /// with `DeadlineExceeded` (a 504 on the wire) without solving. The
    /// returned batch may be empty when a wake-up only shed expired
    /// work. Returns `None` once the queue is closed *and* empty (drain
    /// complete) — the worker-pool exit signal.
    pub fn pop_batch(&self, max_batch: usize) -> Option<Popped> {
        self.pop_batch_filtered(max_batch, true)
    }

    /// [`JobQueue::pop_batch`] with a class restriction: when
    /// `allow_batch` is false (a brownout concurrency cap) the worker
    /// only takes interactive work. If only batch work is queued it
    /// naps briefly and returns an empty [`Popped`] so the caller can
    /// re-evaluate the restriction; on drain it exits once the
    /// interactive class is empty, leaving batch work to unrestricted
    /// workers.
    pub fn pop_batch_filtered(&self, max_batch: usize, allow_batch: bool) -> Option<Popped> {
        let mut state = self.state.lock().unwrap();
        loop {
            if state.is_empty() {
                if !state.open {
                    return None;
                }
                state = self.cv.wait(state).unwrap();
                continue;
            }
            // Shed expired work from every class — even classes this
            // worker is restricted from solving; shedding is not
            // solving.
            let now = Instant::now();
            let mut expired = Vec::new();
            for class in state.classes.iter_mut() {
                let mut i = 0;
                while i < class.len() {
                    match class[i].deadline {
                        Some(d) if d <= now => {
                            expired.push(class.remove(i).expect("index in range"));
                        }
                        _ => i += 1,
                    }
                }
            }
            if state.is_empty() {
                // This wake only shed dead work; report it without
                // blocking so the caller can answer the expired
                // submitters promptly.
                return Some(Popped {
                    batch: Vec::new(),
                    expired,
                });
            }
            let leader_class = if !state.classes[Priority::Interactive.index()].is_empty() {
                Priority::Interactive.index()
            } else if allow_batch {
                Priority::Batch.index()
            } else {
                // Only batch work remains and this worker may not take
                // it. Hand back any shed work immediately; otherwise
                // nap so a disengaging brownout (or arriving
                // interactive work) is noticed promptly.
                if !expired.is_empty() {
                    return Some(Popped {
                        batch: Vec::new(),
                        expired,
                    });
                }
                if !state.open {
                    return None;
                }
                let (s, _) = self.cv.wait_timeout(state, RESTRICTED_NAP).unwrap();
                state = s;
                if state.classes[Priority::Interactive.index()].is_empty() && state.open {
                    return Some(Popped {
                        batch: Vec::new(),
                        expired: Vec::new(),
                    });
                }
                continue;
            };
            let class = &mut state.classes[leader_class];
            // EDF leader: earliest deadline wins; deadline-free jobs
            // sort after every deadlined one; ties keep arrival order.
            let mut best = 0;
            for i in 1..class.len() {
                let earlier = match (class[i].deadline, class[best].deadline) {
                    (Some(a), Some(b)) => a < b,
                    (Some(_), None) => true,
                    _ => false,
                };
                if earlier {
                    best = i;
                }
            }
            let leader = class.remove(best).expect("index in range");
            let key = leader.req.batch_key();
            let max = max_batch.max(1);
            // Gather same-key followers tenant-fair: each round takes
            // one job from the tenant with the fewest seats so far
            // (the leader's tenant starts at one), so under a skewed
            // arrival mix every tenant with queued work gets an equal
            // share of the batch before anyone gets a second seat.
            let mut groups: Vec<(String, VecDeque<usize>, usize)> =
                vec![(leader.req.tenant.clone(), VecDeque::new(), 1)];
            for (i, job) in class.iter().enumerate() {
                if job.req.batch_key() == key {
                    match groups.iter_mut().find(|(t, _, _)| *t == job.req.tenant) {
                        Some((_, q, _)) => q.push_back(i),
                        None => groups.push((job.req.tenant.clone(), VecDeque::from([i]), 0)),
                    }
                }
            }
            let mut picked: Vec<usize> = Vec::new();
            while 1 + picked.len() < max {
                let next = groups
                    .iter_mut()
                    .filter(|(_, q, _)| !q.is_empty())
                    .min_by_key(|(_, _, seats)| *seats);
                match next {
                    Some((_, q, seats)) => {
                        picked.push(q.pop_front().expect("non-empty"));
                        *seats += 1;
                    }
                    None => break,
                }
            }
            // Remove picked followers (descending index keeps the rest
            // valid), then order the batch by pick order.
            let mut desc = picked.clone();
            desc.sort_unstable_by(|a, b| b.cmp(a));
            let mut removed: Vec<(usize, Job)> = Vec::new();
            for i in desc {
                removed.push((i, class.remove(i).expect("index in range")));
            }
            let mut batch = vec![leader];
            for pi in &picked {
                let pos = removed
                    .iter()
                    .position(|(i, _)| i == pi)
                    .expect("picked index present");
                batch.push(removed.remove(pos).1);
            }
            return Some(Popped { batch, expired });
        }
    }

    /// Stops admission (pushes now reject with `ShuttingDown`) and
    /// wakes every blocked worker so the drain can complete.
    pub fn close(&self) {
        self.state.lock().unwrap().open = false;
        self.cv.notify_all();
    }

    /// Jobs currently queued across every class.
    pub fn depth(&self) -> usize {
        let state = self.state.lock().unwrap();
        state.classes[0].len() + state.classes[1].len()
    }

    /// Jobs currently queued in one service class.
    pub fn class_depth(&self, class: Priority) -> usize {
        self.state.lock().unwrap().classes[class.index()].len()
    }

    /// The admission budget of one service class.
    pub fn class_budget(&self, class: Priority) -> usize {
        self.budgets[class.index()]
    }

    /// The fuller class's queue fill fraction in `[0, 1]` — the
    /// pressure signal the brownout ladder observes.
    pub fn fill(&self) -> f64 {
        let state = self.state.lock().unwrap();
        let mut fill: f64 = 0.0;
        for (class, budget) in state.classes.iter().zip(self.budgets) {
            if budget > 0 {
                fill = fill.max(class.len() as f64 / budget as f64);
            }
        }
        fill
    }

    /// Whether admission is still open.
    pub fn is_open(&self) -> bool {
        self.state.lock().unwrap().open
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lddp_core::schedule::ScheduleParams;

    fn job(
        id: u64,
        problem: &str,
        n: usize,
    ) -> (Job, mpsc::Receiver<Result<SolveResponse, ServeError>>) {
        let (tx, rx) = mpsc::channel();
        (
            Job {
                id,
                trace_id: id.wrapping_mul(0x9e37),
                req: SolveRequest::new(problem, n),
                enqueued: Instant::now(),
                deadline: None,
                tx,
                stream: None,
            },
            rx,
        )
    }

    #[test]
    fn push_rejects_when_full_and_when_closed() {
        let q = JobQueue::with_budgets(2, 2);
        let (a, _ra) = job(1, "lcs", 64);
        let (b, _rb) = job(2, "lcs", 64);
        let (c, _rc) = job(3, "lcs", 64);
        assert_eq!(q.push(a).unwrap(), 1);
        assert_eq!(q.push(b).unwrap(), 2);
        let (back, reason) = q.push(c).unwrap_err();
        assert_eq!(back.id, 3);
        assert_eq!(reason, RejectReason::QueueFull { capacity: 2 });
        assert_eq!(q.depth(), 2);

        q.close();
        assert!(!q.is_open());
        let (d, _rd) = job(4, "lcs", 64);
        let (_, reason) = q.push(d).unwrap_err();
        assert_eq!(reason, RejectReason::ShuttingDown);
    }

    #[test]
    fn class_budgets_are_independent() {
        let q = JobQueue::with_budgets(2, 1);
        let (a, _ra) = job(1, "lcs", 64);
        let (mut b, _rb) = job(2, "lcs", 64);
        b.req.priority = Priority::Batch;
        let (mut c, _rc) = job(3, "lcs", 64);
        c.req.priority = Priority::Batch;
        q.push(a).unwrap();
        q.push(b).unwrap();
        // The batch budget (1) is full; interactive still has room.
        let (_, reason) = q.push(c).unwrap_err();
        assert_eq!(reason, RejectReason::QueueFull { capacity: 1 });
        let (d, _rd) = job(4, "lcs", 64);
        q.push(d).unwrap();
        assert_eq!(q.depth(), 3);
        assert_eq!(q.class_depth(Priority::Interactive), 2);
        assert_eq!(q.class_depth(Priority::Batch), 1);
        assert_eq!(q.class_budget(Priority::Batch), 1);
        // Fill is the fuller class: batch at 1/1.
        assert_eq!(q.fill(), 1.0);
    }

    #[test]
    fn pop_batch_gathers_same_key_and_preserves_leader_order() {
        let q = JobQueue::with_budgets(16, 16);
        let mut rxs = Vec::new();
        for (id, problem, n) in [
            (1, "lcs", 100), // bucket 128
            (2, "dtw", 100), // different problem
            (3, "lcs", 128), // same bucket as 1
            (4, "lcs", 300), // bucket 512 — different
            (5, "lcs", 70),  // bucket 128 — same as 1
        ] {
            let (j, rx) = job(id, problem, n);
            rxs.push(rx);
            q.push(j).unwrap();
        }
        let batch = q.pop_batch(8).unwrap().batch;
        let ids: Vec<u64> = batch.iter().map(|j| j.id).collect();
        assert_eq!(ids, vec![1, 3, 5]);
        let batch = q.pop_batch(8).unwrap().batch;
        assert_eq!(batch[0].id, 2);
        assert_eq!(batch.len(), 1);
        let batch = q.pop_batch(8).unwrap().batch;
        assert_eq!(batch[0].id, 4);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn pop_batch_respects_max_batch() {
        let q = JobQueue::with_budgets(16, 16);
        for id in 0..6 {
            let (j, rx) = job(id, "lcs", 64);
            std::mem::forget(rx);
            q.push(j).unwrap();
        }
        assert_eq!(q.pop_batch(4).unwrap().batch.len(), 4);
        assert_eq!(q.pop_batch(4).unwrap().batch.len(), 2);
        // max_batch 0 is treated as 1.
        let (j, rx) = job(9, "lcs", 64);
        std::mem::forget(rx);
        q.push(j).unwrap();
        assert_eq!(q.pop_batch(0).unwrap().batch.len(), 1);
    }

    #[test]
    fn explicit_params_do_not_batch_with_tuned() {
        let q = JobQueue::with_budgets(16, 16);
        let (a, _ra) = job(1, "lcs", 64);
        let (mut b, _rb) = job(2, "lcs", 64);
        b.req.params = Some(ScheduleParams::new(2, 8));
        q.push(a).unwrap();
        q.push(b).unwrap();
        assert_eq!(q.pop_batch(8).unwrap().batch.len(), 1);
        assert_eq!(q.pop_batch(8).unwrap().batch.len(), 1);
    }

    #[test]
    fn close_drains_then_signals_exit() {
        let q = JobQueue::with_budgets(4, 4);
        let (a, _ra) = job(1, "lcs", 64);
        q.push(a).unwrap();
        q.close();
        // Still drains the queued job…
        assert_eq!(q.pop_batch(4).unwrap().batch.len(), 1);
        // …then reports exhaustion.
        assert!(q.pop_batch(4).is_none());
    }

    #[test]
    fn shutdown_during_drain_serves_queued_and_rejects_new() {
        let q = JobQueue::with_budgets(8, 8);
        let mut rxs = Vec::new();
        for id in 0..5 {
            let (j, rx) = job(id, "lcs", 64);
            rxs.push(rx);
            q.push(j).unwrap();
        }
        q.close();
        // New work is refused mid-drain…
        let (late, _rl) = job(99, "lcs", 64);
        let (_, reason) = q.push(late).unwrap_err();
        assert_eq!(reason, RejectReason::ShuttingDown);
        // …while everything already admitted still drains, in order,
        // with nothing lost and nothing duplicated.
        let mut drained = Vec::new();
        while let Some(p) = q.pop_batch(2) {
            assert!(p.expired.is_empty());
            drained.extend(p.batch.into_iter().map(|j| j.id));
        }
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn expired_jobs_are_shed_at_pop_without_occupying_the_batch() {
        let q = JobQueue::with_budgets(8, 8);
        let (mut dead, _rd) = job(1, "lcs", 64);
        dead.deadline = Some(Instant::now());
        let (live, _rl) = job(2, "lcs", 64);
        q.push(dead).unwrap();
        q.push(live).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let p = q.pop_batch(8).unwrap();
        assert_eq!(p.expired.len(), 1);
        assert_eq!(p.expired[0].id, 1);
        assert_eq!(p.batch.len(), 1);
        assert_eq!(p.batch[0].id, 2);
    }

    #[test]
    fn all_expired_pop_returns_empty_batch_not_a_block() {
        let q = JobQueue::with_budgets(8, 8);
        let (mut dead, _rd) = job(7, "lcs", 64);
        dead.deadline = Some(Instant::now());
        q.push(dead).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let p = q.pop_batch(8).unwrap();
        assert!(p.batch.is_empty());
        assert_eq!(p.expired.len(), 1);
        assert_eq!(q.depth(), 0);
    }

    // Deterministic sweep standing in for a property test: across a
    // mixed population of expired and live jobs, every job comes out
    // exactly once, expired ones only via the shed path and live ones
    // only via batches.
    #[test]
    fn deadline_sweep_conserves_jobs_and_separates_populations() {
        let q = JobQueue::with_budgets(64, 64);
        let mut rxs = Vec::new();
        for id in 0..32u64 {
            // Vary problems so batching has real grouping work to do.
            let problem = ["lcs", "dtw", "sw"][(id % 3) as usize];
            let (mut j, rx) = job(id, problem, 64 + (id as usize % 4) * 64);
            if id % 2 == 0 {
                j.deadline = Some(Instant::now());
            }
            rxs.push(rx);
            q.push(j).unwrap();
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
        q.close();
        let (mut shed, mut solved) = (Vec::new(), Vec::new());
        while let Some(p) = q.pop_batch(3) {
            shed.extend(p.expired.into_iter().map(|j| j.id));
            solved.extend(p.batch.into_iter().map(|j| j.id));
        }
        shed.sort_unstable();
        solved.sort_unstable();
        let evens: Vec<u64> = (0..32).filter(|i| i % 2 == 0).collect();
        let odds: Vec<u64> = (0..32).filter(|i| i % 2 == 1).collect();
        assert_eq!(shed, evens, "every expired job shed exactly once");
        assert_eq!(solved, odds, "every live job batched exactly once");
    }

    #[test]
    fn blocked_worker_wakes_on_close() {
        let q = std::sync::Arc::new(JobQueue::with_budgets(4, 4));
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.pop_batch(4));
        std::thread::sleep(std::time::Duration::from_millis(50));
        q.close();
        assert!(t.join().unwrap().is_none());
    }

    #[test]
    fn edf_orders_within_class_with_fifo_for_deadline_free() {
        let q = JobQueue::with_budgets(16, 16);
        let mut rxs = Vec::new();
        let now = Instant::now();
        // Different problems so nothing gathers into one batch.
        for (id, problem, deadline_ms) in [
            (1u64, "lcs", None),
            (2, "dtw", Some(300u64)),
            (3, "sw", Some(100)),
            (4, "nw", None),
            (5, "levenshtein", Some(200)),
        ] {
            let (mut j, rx) = job(id, problem, 64);
            j.deadline = deadline_ms.map(|ms| now + Duration::from_millis(ms));
            rxs.push(rx);
            q.push(j).unwrap();
        }
        let mut order = Vec::new();
        for _ in 0..5 {
            order.push(q.pop_batch(1).unwrap().batch[0].id);
        }
        // Earliest deadline first (3, 5, 2); deadline-free jobs after,
        // in arrival order (1, 4).
        assert_eq!(order, vec![3, 5, 2, 1, 4]);
    }

    #[test]
    fn interactive_always_leads_batch_no_inversion() {
        let q = JobQueue::with_budgets(16, 16);
        let mut rxs = Vec::new();
        let now = Instant::now();
        // A batch job with an urgent deadline arrives first…
        let (mut bg, rb) = job(1, "lcs", 64);
        bg.req.priority = Priority::Batch;
        bg.deadline = Some(now + Duration::from_millis(50));
        rxs.push(rb);
        q.push(bg).unwrap();
        // …but a deadline-free interactive job still pops first: EDF
        // never crosses the class boundary.
        let (fg, rf) = job(2, "dtw", 64);
        rxs.push(rf);
        q.push(fg).unwrap();
        assert_eq!(q.pop_batch(4).unwrap().batch[0].id, 2);
        assert_eq!(q.pop_batch(4).unwrap().batch[0].id, 1);
    }

    #[test]
    fn batch_gathering_is_tenant_fair_under_skew() {
        let q = JobQueue::with_budgets(64, 64);
        let mut rxs = Vec::new();
        // Two tenants, 9:1 arrival skew, all one batch key. The heavy
        // tenant's nine arrive first.
        for id in 1..=9u64 {
            let (mut j, rx) = job(id, "lcs", 64);
            j.req.tenant = "heavy".into();
            rxs.push(rx);
            q.push(j).unwrap();
        }
        let (mut light, rx) = job(100, "lcs", 64);
        light.req.tenant = "light".into();
        rxs.push(rx);
        q.push(light).unwrap();
        let batch = q.pop_batch(4).unwrap().batch;
        let tenants: Vec<&str> = batch.iter().map(|j| j.req.tenant.as_str()).collect();
        // Leader is heavy's first arrival; the light tenant gets a seat
        // before heavy gets a third — not crowded out by arrival order.
        assert_eq!(batch.len(), 4);
        assert!(
            tenants.contains(&"light"),
            "light tenant crowded out: {tenants:?}"
        );
        let heavy_seats = tenants.iter().filter(|t| **t == "heavy").count();
        assert_eq!(heavy_seats, 3, "{tenants:?}");
        // With both tenants queued and an 8-wide batch, seats split
        // 4/4 even though arrivals were 9:1.
        let q2 = JobQueue::with_budgets(64, 64);
        let mut rxs2 = Vec::new();
        for id in 1..=9u64 {
            let (mut j, rx) = job(id, "lcs", 64);
            j.req.tenant = "heavy".into();
            rxs2.push(rx);
            q2.push(j).unwrap();
        }
        for id in 100..104u64 {
            let (mut j, rx) = job(id, "lcs", 64);
            j.req.tenant = "light".into();
            rxs2.push(rx);
            q2.push(j).unwrap();
        }
        let batch = q2.pop_batch(8).unwrap().batch;
        let heavy = batch.iter().filter(|j| j.req.tenant == "heavy").count();
        let light = batch.iter().filter(|j| j.req.tenant == "light").count();
        assert_eq!((heavy, light), (4, 4));
    }

    #[test]
    fn restricted_worker_skips_batch_work_and_times_out_empty() {
        let q = JobQueue::with_budgets(16, 16);
        let (mut bg, _rb) = job(1, "lcs", 64);
        bg.req.priority = Priority::Batch;
        q.push(bg).unwrap();
        // A restricted pop cannot take the only (batch) job: it naps
        // and hands back an empty batch so the caller re-evaluates.
        let p = q.pop_batch_filtered(4, false).unwrap();
        assert!(p.batch.is_empty());
        assert!(p.expired.is_empty());
        assert_eq!(q.class_depth(Priority::Batch), 1);
        // Interactive work is taken immediately even while restricted.
        let (fg, _rf) = job(2, "dtw", 64);
        q.push(fg).unwrap();
        let p = q.pop_batch_filtered(4, false).unwrap();
        assert_eq!(p.batch.len(), 1);
        assert_eq!(p.batch[0].id, 2);
        // An unrestricted pop drains the batch job.
        assert_eq!(q.pop_batch(4).unwrap().batch[0].id, 1);
        // On drain, a restricted worker exits once interactive is empty.
        q.close();
        let (mut late, _rl) = job(3, "lcs", 64);
        late.req.priority = Priority::Batch;
        assert!(q.push(late).is_err());
        assert!(q.pop_batch_filtered(4, false).is_none());
    }

    #[test]
    fn restricted_worker_still_sheds_expired_batch_jobs() {
        let q = JobQueue::with_budgets(16, 16);
        let (mut dead, _rd) = job(1, "lcs", 64);
        dead.req.priority = Priority::Batch;
        dead.deadline = Some(Instant::now());
        q.push(dead).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let p = q.pop_batch_filtered(4, false).unwrap();
        assert!(p.batch.is_empty());
        assert_eq!(p.expired.len(), 1);
        assert_eq!(q.depth(), 0);
    }
}
