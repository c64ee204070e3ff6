//! The central job scheduler: one bounded queue shared by every worker,
//! priorities, per-client fairness, a per-job deadline watchdog and a
//! latency-SLO admission controller.
//!
//! Every connection submits its batch jobs here instead of owning
//! threads, and every worker takes its next job from the one queue, a
//! [`FairQueue`]:
//!
//! * **priorities** — levels `0..=9` are strict: a queued job at a
//!   higher level always runs before any lower-level job (the usual
//!   starvation caveat applies and is the operator's knob, not a bug);
//! * **per-client fairness** — within a level, clients are served
//!   round-robin, one job per turn, so a tenant with a 10k-job batch
//!   and a tenant with a 2-job batch interleave instead of the small
//!   batch waiting out the large one; a client that joins mid-rotation
//!   takes its turn after everyone already waiting.
//!
//! Admission control is batch-atomic: [`Scheduler::submit_jobs`] either
//! enqueues *all* jobs of a batch or — when the queue would exceed
//! `queue_depth` — enqueues none and reports the occupancy, which the
//! server turns into a structured `busy` frame instead of a silent
//! stall. On top of the depth bound sits the **SLO controller**: the
//! queue tracks a p95 EWMA of job sojourn latency (enqueue →
//! completion, over the last 16 completions); when that p95 exceeds the
//! configured SLO, low-priority batches are shed first — the further
//! over the SLO, the higher the shed cutoff — and the rejection carries
//! the observed p95 so clients can back off intelligently. Priority 9 is
//! never shed.
//!
//! The **watchdog** guards executing jobs: a job that overruns the
//! configured deadline gets its `on_timeout` callback fired (at most
//! once) so the submitter can synthesize a structured timeout record
//! while the other workers keep serving. The stuck closure itself
//! cannot be killed — it still occupies its worker until it returns —
//! but it no longer wedges the batch waiting on it. Cancellation
//! ([`Scheduler::cancel_client`]) purges a client's queued jobs and
//! frees its fairness lanes; jobs already executing finish (their cache
//! writes are still useful).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Stable identity of one submitting client (the server allocates one
/// per connection).
pub type ClientId = u64;

/// A unit of scheduled work.
pub type Task = Box<dyn FnOnce() + Send + 'static>;

/// Sojourn-latency samples the queue keeps for its p95 window.
const LATENCY_WINDOW: usize = 16;

/// One job handed to the scheduler: the work closure and an optional
/// timeout callback.
pub struct JobTask {
    /// The work closure.
    pub run: Task,
    /// Fired by the watchdog (at most once) if the job is still
    /// executing when the scheduler's deadline elapses. The job itself
    /// keeps running — the submitter arbitrates which of the two
    /// deliveries (completion vs. timeout) wins.
    pub on_timeout: Option<Task>,
}

impl JobTask {
    /// A plain task without a timeout callback.
    #[must_use]
    pub fn new(run: Task) -> Self {
        Self {
            run,
            on_timeout: None,
        }
    }
}

/// One queued job, stamped with its admission time so completion can
/// report the sojourn latency.
struct Entry {
    run: Task,
    on_timeout: Option<Task>,
    deadline: Option<Duration>,
    enqueued: Instant,
}

/// One strict-priority level: a round-robin ring of the clients with
/// queued jobs, plus each one's queue (its lane).
struct Level<T> {
    ring: VecDeque<ClientId>,
    lanes: HashMap<ClientId, VecDeque<T>>,
}

impl<T> Level<T> {
    fn new() -> Self {
        Self {
            ring: VecDeque::new(),
            lanes: HashMap::new(),
        }
    }

    /// Round-robin pop: the front client's next job, after which that
    /// client moves to the back of the ring, or leaves it when its lane
    /// is empty.
    fn pop(&mut self) -> Option<T> {
        let client = self.ring.pop_front()?;
        let lane = self.lanes.get_mut(&client).expect("lane for ring entry");
        let job = lane.pop_front().expect("ring entries have queued jobs");
        if lane.is_empty() {
            self.lanes.remove(&client);
        } else {
            self.ring.push_back(client);
        }
        Some(job)
    }
}

/// The job queue: strict priority levels over fair client lanes.
/// Kept free of locks and threads so the scheduling policy is unit
/// testable in isolation.
pub(crate) struct FairQueue<T> {
    levels: BTreeMap<u8, Level<T>>,
    len: usize,
}

impl<T> FairQueue<T> {
    pub(crate) fn new() -> Self {
        Self {
            levels: BTreeMap::new(),
            len: 0,
        }
    }

    /// Queued jobs.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Live fairness lanes (distinct `(priority, client)` pairs holding
    /// queued jobs) — drained and cancelled clients must not leak any.
    pub(crate) fn lanes(&self) -> usize {
        self.levels.values().map(|l| l.lanes.len()).sum()
    }

    /// Enqueues one job for `client` at `priority`.
    pub(crate) fn push(&mut self, client: ClientId, priority: u8, job: T) {
        let level = self.levels.entry(priority).or_insert_with(Level::new);
        let lane = level.lanes.entry(client).or_insert_with(|| {
            level.ring.push_back(client);
            VecDeque::new()
        });
        lane.push_back(job);
        self.len += 1;
    }

    /// Dequeues the next job: highest priority level first, fair within
    /// the level.
    pub(crate) fn pop(&mut self) -> Option<T> {
        let mut level = self.levels.last_entry()?;
        let job = level.get_mut().pop().expect("levels in the map hold jobs");
        if level.get().ring.is_empty() {
            level.remove();
        }
        self.len -= 1;
        Some(job)
    }

    /// Drops every queued job of `client` (all levels) and frees its
    /// lanes; returns how many jobs were purged.
    pub(crate) fn cancel_client(&mut self, client: ClientId) -> usize {
        let mut purged = 0;
        self.levels.retain(|_, level| {
            if let Some(lane) = level.lanes.remove(&client) {
                purged += lane.len();
                level.ring.retain(|c| *c != client);
            }
            !level.ring.is_empty()
        });
        self.len -= purged;
        purged
    }
}

/// A point-in-time snapshot of the queue, for the stats the serve
/// summary reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueueStats {
    /// Jobs handed to a worker so far.
    pub executed: u64,
    /// Jobs purged from the queue by client cancellation.
    pub purged: u64,
    /// Jobs the watchdog declared stuck (deadline overrun).
    pub timed_out: u64,
    /// Jobs currently queued.
    pub queued: usize,
    /// High-water mark of the queue.
    pub peak_queued: usize,
    /// p95 EWMA of job sojourn latency (ms); `0` until jobs complete.
    pub p95_ms: f64,
}

struct QueueState {
    queue: FairQueue<Entry>,
    executed: u64,
    purged: u64,
    timed_out: u64,
    peak_queued: usize,
    /// Sojourn latencies (ms) of the last [`LATENCY_WINDOW`] completions.
    latencies: VecDeque<f64>,
    /// EWMA-blended p95 of the latency window; the SLO signal.
    p95_ewma: f64,
    shutdown: bool,
}

impl QueueState {
    /// Folds one completed job's sojourn latency into the window and
    /// re-blends the p95 EWMA (70 % history, 30 % current window), so
    /// one slow straggler raises the signal gradually and a run of fast
    /// warm jobs decays it back down.
    fn note_latency(&mut self, ms: f64) {
        if self.latencies.len() == LATENCY_WINDOW {
            self.latencies.pop_front();
        }
        self.latencies.push_back(ms);
        let mut window: Vec<f64> = self.latencies.iter().copied().collect();
        window.sort_by(f64::total_cmp);
        let idx = ((window.len() - 1) as f64 * 0.95).round() as usize;
        let window_p95 = window[idx];
        self.p95_ewma = if self.p95_ewma == 0.0 {
            window_p95
        } else {
            0.7 * self.p95_ewma + 0.3 * window_p95
        };
    }
}

struct Queue {
    state: Mutex<QueueState>,
    work: Condvar,
}

/// A pending deadline the watchdog is tracking for one executing job.
struct WatchdogEntry {
    due: Instant,
    seq: u64,
    on_timeout: Option<Task>,
}

struct WatchdogState {
    entries: Vec<WatchdogEntry>,
    seq: u64,
    shutdown: bool,
}

/// The deadline watchdog: workers register an executing job's deadline,
/// the watchdog thread fires `on_timeout` for overruns, completion
/// cancels the entry. Registration and cancellation are O(pending
/// entries) — bounded by the worker count, not the queue depth.
struct Watchdog {
    state: Mutex<WatchdogState>,
    tick: Condvar,
}

impl Watchdog {
    fn new() -> Self {
        Self {
            state: Mutex::new(WatchdogState {
                entries: Vec::new(),
                seq: 0,
                shutdown: false,
            }),
            tick: Condvar::new(),
        }
    }

    fn register(&self, due: Instant, on_timeout: Task) -> u64 {
        let mut state = self.state.lock().expect("watchdog lock");
        state.seq += 1;
        let seq = state.seq;
        state.entries.push(WatchdogEntry {
            due,
            seq,
            on_timeout: Some(on_timeout),
        });
        self.tick.notify_all();
        seq
    }

    /// Forgets a pending entry (the job completed in time). A no-op if
    /// the watchdog already fired it.
    fn cancel(&self, seq: u64) {
        let mut state = self.state.lock().expect("watchdog lock");
        if let Some(pos) = state.entries.iter().position(|e| e.seq == seq) {
            state.entries.swap_remove(pos);
        }
    }
}

/// The watchdog thread body: sleep until the earliest pending deadline,
/// fire every overrun entry's `on_timeout` (outside the lock), repeat.
fn watchdog_loop(watchdog: &Watchdog, queue: &Queue) {
    let mut state = watchdog.state.lock().expect("watchdog lock");
    loop {
        if state.shutdown {
            return;
        }
        let now = Instant::now();
        let mut fired = Vec::new();
        let mut i = 0;
        while i < state.entries.len() {
            if state.entries[i].due <= now {
                fired.push(state.entries.swap_remove(i));
            } else {
                i += 1;
            }
        }
        if !fired.is_empty() {
            drop(state);
            for mut entry in fired {
                queue.state.lock().expect("queue lock").timed_out += 1;
                if let Some(on_timeout) = entry.on_timeout.take() {
                    // A panicking timeout callback must not kill the
                    // watchdog — every other deadline still needs it.
                    if let Err(panic) =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(on_timeout))
                    {
                        eprintln!(
                            "serve: watchdog timeout callback panicked: {}",
                            panic_message(panic.as_ref())
                        );
                    }
                }
            }
            state = watchdog.state.lock().expect("watchdog lock");
            continue;
        }
        let next_due = state.entries.iter().map(|e| e.due).min();
        state = match next_due {
            Some(due) => {
                let wait = due
                    .saturating_duration_since(now)
                    .max(Duration::from_millis(1));
                watchdog
                    .tick
                    .wait_timeout(state, wait)
                    .expect("watchdog lock")
                    .0
            }
            None => watchdog.tick.wait(state).expect("watchdog lock"),
        };
    }
}

/// The worker pool and its queue. Dropping it drains: queued jobs still
/// run, workers exit once the queue is empty.
pub struct Scheduler {
    queue: Arc<Queue>,
    workers: Vec<std::thread::JoinHandle<()>>,
    watchdog: Arc<Watchdog>,
    watchdog_thread: Option<std::thread::JoinHandle<()>>,
    queue_depth: usize,
    threads: usize,
    /// Execution deadline applied to every job; `None` disables the
    /// watchdog.
    deadline: Option<Duration>,
    /// p95 sojourn-latency SLO in ms; `None` disables shedding.
    slo_ms: Option<f64>,
    /// Batches shed by the SLO controller.
    shed: AtomicU64,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("threads", &self.threads)
            .field("queue_depth", &self.queue_depth)
            .field("deadline", &self.deadline)
            .field("slo_ms", &self.slo_ms)
            .finish()
    }
}

/// Why a batch was not admitted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rejected {
    /// Jobs queued at rejection time.
    pub queued: usize,
    /// The queue capacity (`queue_depth`).
    pub capacity: usize,
    /// The observed p95 sojourn latency (ms) when the SLO controller
    /// shed the batch; `None` for a plain queue-depth rejection.
    pub p95_ms: Option<f64>,
    /// The SLO (ms) that p95 exceeded; `None` for a plain queue-depth
    /// rejection.
    pub slo_ms: Option<f64>,
}

/// A successfully admitted batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admitted {
    /// Jobs that were queued ahead of this batch.
    pub ahead: usize,
}

impl Scheduler {
    /// Starts `threads` workers (`0` = one per CPU) that share one
    /// queue. `queue_depth` bounds its queued (not yet running) jobs, so
    /// `0` admits no job. `deadline` arms the per-job execution
    /// watchdog, `slo_ms` the p95-latency admission controller.
    #[must_use]
    pub fn new(
        threads: usize,
        queue_depth: usize,
        deadline: Option<Duration>,
        slo_ms: Option<f64>,
    ) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            threads
        };
        let queue = Arc::new(Queue {
            state: Mutex::new(QueueState {
                queue: FairQueue::new(),
                executed: 0,
                purged: 0,
                timed_out: 0,
                peak_queued: 0,
                latencies: VecDeque::with_capacity(LATENCY_WINDOW),
                p95_ewma: 0.0,
                shutdown: false,
            }),
            work: Condvar::new(),
        });
        let watchdog = Arc::new(Watchdog::new());
        let watchdog_thread = {
            let watchdog = Arc::clone(&watchdog);
            let queue = Arc::clone(&queue);
            Some(std::thread::spawn(move || {
                watchdog_loop(&watchdog, &queue);
            }))
        };
        let workers = (0..threads)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let watchdog = Arc::clone(&watchdog);
                std::thread::spawn(move || worker(&queue, &watchdog))
            })
            .collect();
        Self {
            queue,
            workers,
            watchdog,
            watchdog_thread,
            queue_depth,
            threads,
            deadline,
            slo_ms,
            shed: AtomicU64::new(0),
        }
    }

    /// Total worker threads.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Batches the SLO controller refused to admit.
    #[must_use]
    pub fn shed_batches(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// The per-job execution deadline, if the watchdog is armed.
    #[must_use]
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Admits a whole batch or nothing: if the queue would exceed
    /// `queue_depth`, no job is enqueued and the occupancy comes back
    /// as [`Rejected`] for the server's `busy` frame.
    ///
    /// When an SLO is configured and the p95 sojourn latency exceeds
    /// it, low-priority batches are shed first: the cutoff rises with
    /// the overshoot
    /// (`((p95/slo − 1) × 4)` levels, capped at 8), so mild pressure
    /// sheds only priority 0 while a 3× overshoot sheds everything
    /// below 9. Priority 9 is never shed — the operator's escape hatch
    /// always gets through (subject to queue depth) — and neither is a
    /// batch without jobs.
    ///
    /// # Errors
    ///
    /// Returns [`Rejected`] when the queue is full, or — with `p95_ms`
    /// populated — when the SLO controller sheds the batch.
    pub fn submit_jobs(
        &self,
        client: ClientId,
        priority: u8,
        tasks: Vec<JobTask>,
    ) -> Result<Admitted, Rejected> {
        let enqueued = Instant::now();
        let mut state = self.queue.state.lock().expect("queue lock");
        let queued = state.queue.len();
        if let Some(slo) = self.slo_ms {
            let p95 = state.p95_ewma;
            if priority < 9 && !tasks.is_empty() && p95 > slo {
                let cutoff = ((p95 / slo - 1.0) * 4.0).clamp(0.0, 8.0) as u8;
                if priority <= cutoff {
                    self.shed.fetch_add(1, Ordering::Relaxed);
                    return Err(Rejected {
                        queued,
                        capacity: self.queue_depth,
                        p95_ms: Some(p95),
                        slo_ms: Some(slo),
                    });
                }
            }
        }
        if queued + tasks.len() > self.queue_depth {
            return Err(Rejected {
                queued,
                capacity: self.queue_depth,
                p95_ms: None,
                slo_ms: None,
            });
        }
        for task in tasks {
            let entry = Entry {
                run: task.run,
                on_timeout: task.on_timeout,
                deadline: self.deadline,
                enqueued,
            };
            state.queue.push(client, priority, entry);
        }
        state.peak_queued = state.peak_queued.max(state.queue.len());
        self.queue.work.notify_all();
        Ok(Admitted { ahead: queued })
    }

    /// Purges every queued job of `client` (their task closures are
    /// dropped unexecuted) and frees the client's fairness lanes. Jobs
    /// already running finish normally.
    pub fn cancel_client(&self, client: ClientId) -> usize {
        let mut state = self.queue.state.lock().expect("queue lock");
        let purged = state.queue.cancel_client(client);
        state.purged += purged as u64;
        purged
    }

    /// Point-in-time queue counters.
    #[must_use]
    pub fn stats(&self) -> QueueStats {
        let state = self.queue.state.lock().expect("queue lock");
        QueueStats {
            executed: state.executed,
            purged: state.purged,
            timed_out: state.timed_out,
            queued: state.queue.len(),
            peak_queued: state.peak_queued,
            p95_ms: state.p95_ewma,
        }
    }

    /// Live fairness lanes — `0` when nothing is queued (leak check for
    /// disconnect tests).
    #[must_use]
    pub fn client_lanes(&self) -> usize {
        self.queue.state.lock().expect("queue lock").queue.lanes()
    }
}

impl Drop for Scheduler {
    /// Drains: queued jobs still run; workers exit once the queue is
    /// empty. The watchdog outlives the workers so deadlines armed
    /// during the drain still fire.
    fn drop(&mut self) {
        self.queue.state.lock().expect("queue lock").shutdown = true;
        self.queue.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        self.watchdog.state.lock().expect("watchdog lock").shutdown = true;
        self.watchdog.tick.notify_all();
        if let Some(handle) = self.watchdog_thread.take() {
            let _ = handle.join();
        }
    }
}

fn worker(queue: &Queue, watchdog: &Watchdog) {
    loop {
        let entry = {
            let mut state = queue.state.lock().expect("queue lock");
            loop {
                if let Some(entry) = state.queue.pop() {
                    state.executed += 1;
                    break Some(entry);
                }
                if state.shutdown {
                    break None;
                }
                state = queue.work.wait(state).expect("queue lock");
            }
        };
        match entry {
            // A panicking task must not kill the worker: it is part of
            // the server's lifetime capacity. Submitters that need the
            // panic surfaced catch it themselves (the server converts it
            // into a per-job error record).
            Some(mut entry) => {
                let ticket = match (entry.deadline, entry.on_timeout.take()) {
                    (Some(deadline), Some(on_timeout)) => {
                        Some(watchdog.register(Instant::now() + deadline, on_timeout))
                    }
                    _ => None,
                };
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(entry.run));
                if let Some(seq) = ticket {
                    watchdog.cancel(seq);
                }
                let sojourn_ms = entry.enqueued.elapsed().as_secs_f64() * 1000.0;
                queue
                    .state
                    .lock()
                    .expect("queue lock")
                    .note_latency(sojourn_ms);
                if let Err(panic) = outcome {
                    eprintln!(
                        "serve: worker task panicked: {}",
                        panic_message(panic.as_ref())
                    );
                }
            }
            None => return,
        }
    }
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Plain tasks as jobs without timeout callbacks.
    fn jobs(tasks: Vec<Task>) -> Vec<JobTask> {
        tasks.into_iter().map(JobTask::new).collect()
    }

    #[test]
    fn fair_queue_interleaves_clients_round_robin() {
        let mut q = FairQueue::new();
        for i in 0..6 {
            q.push(1, 1, format!("a{i}"));
        }
        q.push(2, 1, "b0".to_string());
        q.push(2, 1, "b1".to_string());
        let order: Vec<String> = std::iter::from_fn(|| q.pop()).collect();
        // The 2-job client is done after at most 4 pops despite arriving
        // behind a 6-job burst.
        let b1 = order.iter().position(|j| j == "b1").unwrap();
        assert!(b1 <= 3, "small client starved: {order:?}");
        assert_eq!(order.len(), 8);
        assert_eq!(q.lanes(), 0, "drained queue leaks no lanes");
    }

    #[test]
    fn fair_queue_serves_a_client_joining_mid_rotation_in_its_turn() {
        let mut q = FairQueue::new();
        for i in 0..4 {
            q.push(1, 1, format!("a{i}"));
        }
        for i in 0..4 {
            q.push(2, 1, format!("b{i}"));
        }
        let first: Vec<String> = (0..3).filter_map(|_| q.pop()).collect();
        assert_eq!(first, ["a0", "b0", "a1"]);
        q.push(3, 1, "c0".to_string());
        let next: Vec<String> = (0..3).filter_map(|_| q.pop()).collect();
        // c waits for the clients already queued, one job each, no more.
        assert_eq!(next, ["b1", "a2", "c0"]);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn fair_queue_priorities_are_strict() {
        let mut q = FairQueue::new();
        q.push(1, 0, "low");
        q.push(1, 9, "high");
        q.push(2, 4, "mid");
        assert_eq!(q.pop(), Some("high"));
        assert_eq!(q.pop(), Some("mid"));
        assert_eq!(q.pop(), Some("low"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fair_queue_cancel_purges_only_that_client() {
        let mut q = FairQueue::new();
        for i in 0..4 {
            q.push(1, 1, format!("a{i}"));
            q.push(2, 5, format!("b{i}"));
        }
        assert_eq!(q.cancel_client(2), 4);
        assert_eq!(q.len(), 4);
        assert_eq!(q.lanes(), 1);
        let rest: Vec<String> = std::iter::from_fn(|| q.pop()).collect();
        assert!(rest.iter().all(|j| j.starts_with('a')), "{rest:?}");
        assert_eq!(q.len(), 0);
        assert_eq!(q.cancel_client(7), 0, "unknown clients purge nothing");
    }

    #[test]
    fn scheduler_runs_every_admitted_task_and_drains_on_drop() {
        let s = Scheduler::new(4, 64, None, None);
        assert_eq!(s.threads(), 4);
        let count = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<Task> = (0..32)
            .map(|_| {
                let count = Arc::clone(&count);
                Box::new(move || {
                    count.fetch_add(1, Ordering::SeqCst);
                }) as Task
            })
            .collect();
        s.submit_jobs(1, 1, jobs(tasks)).expect("fits");
        drop(s); // drains
        assert_eq!(count.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn admission_is_batch_atomic_and_reports_occupancy() {
        // Every worker shares the one queue, so its depth is the whole
        // capacity whatever the worker count.
        for workers in [1, 4] {
            // Every worker paused on a barrier so queued jobs stay queued.
            let s = Scheduler::new(workers, 4, None, None);
            let gate = Arc::new(std::sync::Barrier::new(workers + 1));
            let blockers: Vec<Task> = (0..workers)
                .map(|_| {
                    let g = Arc::clone(&gate);
                    Box::new(move || {
                        g.wait();
                    }) as Task
                })
                .collect();
            s.submit_jobs(1, 1, jobs(blockers)).expect("admitted");
            // Wait until every worker picked a blocker up.
            while s.stats().executed < workers as u64 {
                std::thread::yield_now();
            }
            // 4 queued jobs fill the depth exactly.
            let fill: Vec<Task> = (0..4).map(|_| Box::new(|| {}) as Task).collect();
            let admitted = s.submit_jobs(1, 1, jobs(fill)).expect("fills the queue");
            assert_eq!(admitted.ahead, 0);
            // A 2-job batch must be rejected whole, not half-enqueued.
            let over: Vec<Task> = (0..2).map(|_| Box::new(|| {}) as Task).collect();
            let rejected = s.submit_jobs(2, 1, jobs(over)).expect_err("over depth");
            assert_eq!(rejected.queued, 4, "{workers} workers");
            assert_eq!(rejected.capacity, 4, "capacity is queue_depth");
            assert_eq!(rejected.p95_ms, None, "depth rejection, not an SLO shed");
            assert_eq!(s.stats().queued, 4, "rejected batch left nothing behind");
            gate.wait(); // release the blockers, let the drop drain
        }
    }

    #[test]
    fn cancel_client_purges_queued_jobs_and_frees_lanes() {
        let s = Scheduler::new(1, 64, None, None);
        let gate = Arc::new(std::sync::Barrier::new(2));
        let g = Arc::clone(&gate);
        let ran = Arc::new(AtomicUsize::new(0));
        let blocker: Task = Box::new(move || {
            g.wait();
        });
        s.submit_jobs(9, 1, vec![JobTask::new(blocker)])
            .expect("admitted");
        while s.stats().executed == 0 {
            std::thread::yield_now();
        }
        for client in [1u64, 2] {
            let tasks: Vec<Task> = (0..5)
                .map(|_| {
                    let ran = Arc::clone(&ran);
                    Box::new(move || {
                        ran.fetch_add(1, Ordering::SeqCst);
                    }) as Task
                })
                .collect();
            s.submit_jobs(client, 1, jobs(tasks)).expect("admitted");
        }
        assert_eq!(s.cancel_client(1), 5);
        assert_eq!(s.client_lanes(), 1, "client 2's lane survives");
        gate.wait();
        drop(s);
        assert_eq!(ran.load(Ordering::SeqCst), 5, "only client 2's jobs ran");
    }

    #[test]
    fn a_panicking_task_does_not_kill_its_worker() {
        let s = Scheduler::new(1, 64, None, None);
        let done = Arc::new(AtomicUsize::new(0));
        let mut tasks: Vec<Task> = vec![Box::new(|| panic!("boom"))];
        for _ in 0..4 {
            let done = Arc::clone(&done);
            tasks.push(Box::new(move || {
                done.fetch_add(1, Ordering::SeqCst);
            }));
        }
        s.submit_jobs(1, 1, jobs(tasks)).expect("admitted");
        drop(s);
        assert_eq!(done.load(Ordering::SeqCst), 4, "worker survived the panic");
    }

    #[test]
    fn panic_messages_are_extracted() {
        let caught = std::panic::catch_unwind(|| panic!("static str")).expect_err("panics");
        assert_eq!(panic_message(caught.as_ref()), "static str");
        let caught = std::panic::catch_unwind(|| panic!("formatted {}", 7)).expect_err("panics");
        assert_eq!(panic_message(caught.as_ref()), "formatted 7");
    }

    #[test]
    fn watchdog_times_out_a_stuck_job_and_the_worker_survives() {
        let s = Scheduler::new(1, 64, Some(Duration::from_millis(30)), None);
        let timed_out = Arc::new(AtomicUsize::new(0));
        let t = Arc::clone(&timed_out);
        let stuck = JobTask {
            run: Box::new(|| std::thread::sleep(Duration::from_millis(200))),
            on_timeout: Some(Box::new(move || {
                t.fetch_add(1, Ordering::SeqCst);
            })),
        };
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        let follower = JobTask {
            run: Box::new(move || {
                d.fetch_add(1, Ordering::SeqCst);
            }),
            on_timeout: Some(Box::new(|| panic!("follower must not time out"))),
        };
        s.submit_jobs(1, 1, vec![stuck, follower])
            .expect("admitted");
        // The watchdog fires while the stuck job is still sleeping.
        let start = Instant::now();
        while timed_out.load(Ordering::SeqCst) == 0 {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "watchdog never fired"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(s.stats().timed_out, 1, "overrun counted on the queue");
        drop(s); // drains: the follower still runs after the overrun
        assert_eq!(
            done.load(Ordering::SeqCst),
            1,
            "the worker survived the stuck job"
        );
        assert_eq!(
            timed_out.load(Ordering::SeqCst),
            1,
            "timeout fired exactly once"
        );
    }

    #[test]
    fn fast_jobs_never_trip_the_watchdog() {
        let s = Scheduler::new(1, 64, Some(Duration::from_secs(10)), None);
        let tasks: Vec<JobTask> = (0..8)
            .map(|_| JobTask {
                run: Box::new(|| {}),
                on_timeout: Some(Box::new(|| panic!("must not fire"))),
            })
            .collect();
        s.submit_jobs(1, 1, tasks).expect("admitted");
        drop(s);
        // The panicking callbacks never ran (they would have printed and
        // been swallowed, but the timed_out counter gives it away).
    }

    #[test]
    fn slo_controller_sheds_low_priority_first_and_reports_p95() {
        // Absurdly tight SLO: any completed work trips it.
        let slo = 0.000_001;
        let s = Scheduler::new(1, 64, None, Some(slo));
        assert_eq!(s.shed_batches(), 0);
        // Before any completion the latency window is empty — everything
        // is admitted.
        s.submit_jobs(1, 0, jobs(vec![Box::new(|| {})]))
            .expect("no latency signal yet");
        // Wait for the completion to populate the window.
        let start = Instant::now();
        while s.stats().p95_ms == 0.0 {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "latency never noted"
            );
            std::thread::yield_now();
        }
        let rejected = s
            .submit_jobs(1, 0, jobs(vec![Box::new(|| {})]))
            .expect_err("p95 over SLO sheds priority 0");
        assert!(rejected.p95_ms.is_some(), "shed carries the observed p95");
        assert!(rejected.p95_ms.unwrap() > 0.0);
        // … and the sub-millisecond SLO it exceeded, untruncated, beside
        // the queue's own capacity.
        assert_eq!(rejected.slo_ms, Some(slo));
        assert_eq!(rejected.capacity, 64, "capacity is queue_depth");
        assert_eq!(s.shed_batches(), 1);
        // Priority 9 is never shed.
        s.submit_jobs(1, 9, jobs(vec![Box::new(|| {})]))
            .expect("priority 9 always admitted");
        drop(s);
    }

    #[test]
    fn slo_shed_cutoff_spares_priorities_above_it() {
        // A huge overshoot (tiny SLO) drives the cutoff to its cap of 8:
        // priorities 0..=8 shed, 9 admitted — checked above. Here check
        // the arithmetic of the cutoff itself.
        let cutoff = |p95: f64, slo: f64| ((p95 / slo - 1.0) * 4.0).clamp(0.0, 8.0) as u8;
        assert_eq!(cutoff(10.0, 10.0), 0, "at the SLO nothing extra sheds");
        assert_eq!(cutoff(12.5, 10.0), 1, "25% over sheds 0..=1");
        assert_eq!(cutoff(20.0, 10.0), 4, "2x over sheds 0..=4");
        assert_eq!(cutoff(1000.0, 10.0), 8, "cap: priority 9 survives any p95");
    }
}
