//! The shared worker pool: a fixed set of OS threads that every operation
//! process of every in-flight query is multiplexed onto.
//!
//! The paper maps join operation processes onto a *fixed pool of
//! processors* (§4) — it is the scarcity of workers, not of operators,
//! that drives the SP/RD/FP trade-off. The seed engine instead spawned one
//! OS thread per operator instance per query, so physical concurrency was
//! accidental and a second in-flight query doubled the thread count. Here,
//! operator instances are cooperative [`Task`]s, and like the paper's
//! data-driven operation processes they run only when there is something
//! to do:
//!
//! * a task [`step`](Task::step)s for a bounded quantum and returns
//!   [`Step::Progress`], keeping its place in the run queue;
//! * a task that cannot progress (its input stream is empty, its output
//!   stream is full) registers the [`Waker`] it was stepped with on exactly
//!   what it waits for and returns [`Step::Blocked`]: it **leaves the run
//!   queue** and its worker picks up another task, so a bounded pool can
//!   run arbitrarily many concurrent dataflows without deadlocking on its
//!   own thread count. Whatever unblocks it — a message sent or received on
//!   that stream edge, a peer hanging up, its query's cancel / abort /
//!   early-stop token — wakes it back into the rotation. Nobody polls a
//!   blocked task, and a worker with nothing runnable waits (see below)
//!   until a submission, a wake, a socket edge or a timer;
//! * a finished task returns [`Step::Done`] and is dropped, releasing its
//!   channel endpoints.
//!
//! A task's waker is backed by a per-task slot whose state runs
//! `QUEUED` → `RUNNING` → `PARKED` (or back to `QUEUED`). A wake that lands
//! while the task is mid-step marks it `NOTIFIED`, and the worker then
//! requeues the task instead of parking it — so a wake that arrives between
//! the task deciding it is blocked and the worker parking it is never lost.
//!
//! Like the paper's operation process, which is allocated to a processor
//! and stays there (§4), a task keeps its worker: every worker has its own
//! run queue, and a task stepped or requeued goes back onto the queue of
//! the worker that stepped it, so its hash tables and batches stay in that
//! core's caches. A task woken on a worker goes onto that worker's queue,
//! where the batch it waited for was just written (a pipeline's tasks
//! gather on the worker that drives it); one woken from outside the pool
//! goes back to the worker that last stepped it. Work from outside the
//! pool (a query's first wave, submitted from a client or connection
//! thread) enters a shared injector; work a worker submits (the
//! coordinator starting the next wave from a completion report) goes onto
//! its own queue. A worker takes the injector first, so a new query starts
//! within one step — but never twice in a row while its own queue waits,
//! so a stream of arrivals cannot starve a running query. Then it takes
//! its own queue, and only when both are empty does it steal, from the
//! longest other queue, the task queued there last: a task that just ran
//! a quantum behind a busy worker's rotation, such as a short query's,
//! moves rather than waits. A sleeping worker is woken only for work the
//! adding worker will not run next: the owner of the queue if it sleeps,
//! else any sleeper when the owner has something else to run first.
//!
//! Tasks are submitted with a priority (the engine uses the right-deep
//! segmentation's topological wave index from
//! `Segmentation::node_waves`): a new task is inserted into its queue ahead
//! of queued tasks of later waves, so pipelines fill bottom-up — but once a
//! task has been stepped (or woken) it rejoins the **back** of its worker's
//! rotation, making each queue a fair round-robin. Independent segments of
//! one wave, and tasks of different queries, therefore interleave on the
//! pool as the §4 schedule on a fixed processor set prescribes, and a woken
//! early-wave task can never starve the later-wave consumer it feeds on the
//! same worker (strict priority lanes would livelock exactly there).
//!
//! A thread outside the pool that waits for a query (a client draining
//! its result stream, or taking its outcome) uses the same wakers, through
//! `block_on_spinning`. Resuming a parked thread costs a processor wake
//! (about 7 µs on a two-vCPU VM), most of what the client of a short query
//! waited after its last batch. So while the query's pool leaves a worker
//! idle, and for at most a short window, the client retries, yielding its
//! processor between attempts, before it parks; when every worker is
//! stepping a task it parks at once and takes no processor from them.
//!
//! The pool also keeps time (`WorkerPool::run_at`): a worker runs due
//! callbacks before it pops its next task and waits no longer than until
//! the earliest one, so a busy pool runs a due callback within one step.
//!
//! And it watches sockets (`WorkerPool::register`): every registered
//! socket sits in one edge-triggered `epoll` set of the pool's, beside an
//! `eventfd`, the bell. A worker with nothing to run waits in that set, if
//! no other worker does; to the nanosecond (`epoll_pwait2`) until the next
//! timer. A socket's edge so wakes it straight from the kernel, and the
//! task it wakes goes onto its own queue: a server's request is read,
//! executed and answered on the worker the kernel woke for it. Any other
//! idle worker waits on its own condition variable behind it, because a
//! ring of the bell reaches whichever thread waits in the set, and a task
//! woken from outside the pool must reach the very worker whose queue it
//! went back to. So a wake reaches the worker in the set by the bell and
//! any other by its condition variable; a wake that needs no particular
//! worker goes to one behind the set, which keeps the set watched; and the
//! worker in the set, once it has a task to step, wakes one behind it to
//! take its place. While every worker is busy nobody waits in the set:
//! then a worker looks at it between two steps, without waiting, at most
//! once per `LOOK_EVERY`, so an edge waits no longer than that plus the
//! step in progress.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::os::fd::RawFd;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard, PoisonError, Weak};
use std::task::{Wake, Waker};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

use crate::poll::Poller;
pub use crate::poll::{Registration, EDGE_HUNG_UP, EDGE_READABLE};

/// Locks a std mutex, tolerating poison: the one way this crate locks.
/// What it guards is never left half-mutated by the panicking code paths
/// (the pool's queue state is a plain set of `VecDeque`s, and task panics
/// are contained *outside* its lock), so recovering the inner guard is
/// always sound — and a single panicked thread must not take the whole
/// engine down with `PoisonError` panics on every other thread.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    unpoisoned(mutex.lock())
}

/// The guard of a lock or of a condition-variable wait, poisoned or not.
fn unpoisoned<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// On a worker thread: its pool (the address of the pool's `Shared`)
    /// and its index there.
    static WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// How long a client of a query waits by yielding its processor, while
/// the query's pool leaves a worker idle, before it parks. A parked thread
/// resumes only once its processor is woken for it (about 7 µs on a
/// two-vCPU VM, whatever the wait), which was most of the time the client
/// of a short query spent between its last batch and its outcome.
const SPIN: Duration = Duration::from_micros(200);

/// How often a busy worker looks at the readiness set between its steps,
/// while no worker waits in it: an edge that arrives while every worker is
/// busy waits at most this long plus the step in progress. Measured on a
/// two-vCPU VM: a look (one `epoll_pwait2` that does not wait) costs
/// ~0.25 µs, and a `join_heavy` query on two workers takes ~600 steps of
/// 10–25 µs and ~120 looks, ~30 µs of its 8–15 ms of CPU.
const LOOK_EVERY: Duration = Duration::from_micros(50);

/// `Shared::in_set` while no worker waits in the readiness set.
const NOBODY: usize = usize::MAX;

/// The outcome of one cooperative scheduling step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// The task used its quantum and has more to do; reschedule it.
    Progress,
    /// The task cannot advance until something it registered its waker on
    /// happens (a stream edge it waits for, its query's tokens). It leaves
    /// the run queue until that wake.
    Blocked,
    /// The task completed (successfully or not) and can be dropped.
    Done,
}

/// A cooperatively scheduled unit of work — one operator instance.
///
/// Implementations must never block the calling thread: stream operations
/// inside `step` use the non-blocking forms, and a task that has to wait
/// registers `waker` on what it waits for and reports [`Step::Blocked`].
/// A task that reports `Blocked` without arranging a wake stays parked
/// until the pool is dropped. Completion (including errors) is reported out
/// of band by the task itself (the engine's tasks run their query's
/// coordination on the reporting thread).
pub trait Task: Send {
    /// Runs one bounded quantum; `waker` puts this task back into the run
    /// queue after it reported `Blocked`.
    fn step(&mut self, waker: &Waker) -> Step;
}

// A task's place, as its slot records it. Only the worker that popped a
// task moves it out of `RUNNING`/`NOTIFIED`; only a wake moves it out of
// `PARKED`.
/// In a run queue, or popped and about to run.
const QUEUED: u8 = 0;
/// A worker is stepping it.
const RUNNING: u8 = 1;
/// Woken while a worker was stepping it: it is requeued, never parked.
const NOTIFIED: u8 = 2;
/// In the parked set, waiting for a wake.
const PARKED: u8 = 3;

/// What a task's [`Waker`] points at: the task's state and where to find
/// it. The task itself lives in a run queue or the parked set, never
/// here, so a waker left registered on an edge keeps no task alive.
struct Slot {
    id: u64,
    state: AtomicU8,
    pool: Weak<Shared>,
}

impl Wake for Slot {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        // SeqCst throughout: the caller changed what the task waits for
        // (an edge, a token) before waking, and a task found `QUEUED` here
        // must see that change when its worker marks it `RUNNING` and steps
        // it.
        let mut state = self.state.load(Ordering::SeqCst);
        loop {
            let next = match state {
                RUNNING => NOTIFIED,
                PARKED => QUEUED,
                // Queued or already notified: it steps again anyway.
                _ => return,
            };
            match self
                .state
                .compare_exchange(state, next, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => break,
                Err(seen) => state = seen,
            }
        }
        if state == PARKED {
            if let Some(shared) = self.pool.upgrade() {
                shared.unpark(self.id);
            }
        }
    }
}

/// One task with its scheduling identity.
struct Queued {
    task: Box<dyn Task>,
    priority: usize,
    /// The queue it rotates onto: the worker that last stepped it, or
    /// the one that last woke it (meaningless before its first step).
    home: usize,
    slot: Arc<Slot>,
    waker: Waker,
}

/// A callback armed with `WorkerPool::run_at`: it returns when it wants
/// to run again, if ever.
type Timer = Box<dyn FnMut() -> Option<Instant> + Send>;

/// Inserts a new task after the last queued task of the same or an earlier
/// wave, so lower waves start first. O(n), but submission is bursty (query
/// start, op completion) and queues are short relative to the tuple work
/// behind each entry.
fn insert_by_wave(queue: &mut VecDeque<Queued>, q: Queued) {
    let at = queue
        .iter()
        .rposition(|e| e.priority <= q.priority)
        .map_or(0, |i| i + 1);
    queue.insert(at, q);
}

/// Run-queue state behind the pool mutex: the injector and one rotation
/// per worker (each priority-ordered at admission, FIFO thereafter), which
/// workers wait for work and which of them waits in the readiness set,
/// the parked tasks by slot id, and the armed timers by instant (and
/// arming order, for equal instants).
struct QueueState {
    /// Tasks submitted from outside the pool.
    injector: VecDeque<Queued>,
    /// Per worker, its own rotation.
    local: Vec<VecDeque<Queued>>,
    /// Per worker, whether it waits for work (in the readiness set or on
    /// its condition variable) with no notification on the way.
    sleeping: Vec<bool>,
    /// The worker that waits in the readiness set, chosen or not.
    in_set: Option<usize>,
    parked: HashMap<u64, Queued>,
    timers: BTreeMap<(Instant, u64), Timer>,
    armed: u64,
    shutdown: bool,
}

impl QueueState {
    fn new(workers: usize) -> Self {
        QueueState {
            injector: VecDeque::new(),
            local: (0..workers).map(|_| VecDeque::new()).collect(),
            sleeping: vec![false; workers],
            in_set: None,
            parked: HashMap::new(),
            timers: BTreeMap::new(),
            armed: 0,
            shutdown: false,
        }
    }

    /// The next task for worker `me`: the injector's first or its own
    /// queue's first, in the order `injector_first` says, else one stolen.
    fn pop(&mut self, me: usize, injector_first: bool) -> Option<Queued> {
        let (first, second) = if injector_first {
            (&mut self.injector, &mut self.local[me])
        } else {
            (&mut self.local[me], &mut self.injector)
        };
        first
            .pop_front()
            .or_else(|| second.pop_front())
            .or_else(|| self.steal(me))
    }

    /// The task queued last on the longest other worker's queue.
    fn steal(&mut self, me: usize) -> Option<Queued> {
        let (_, victim) = self
            .local
            .iter_mut()
            .enumerate()
            .filter(|&(w, _)| w != me)
            .max_by_key(|(_, queue)| queue.len())?;
        victim.pop_back()
    }

    /// Admits a new task: onto the submitting worker's own queue when a
    /// worker submits it (`by`), else onto the injector. Returns the
    /// sleeping worker to wake for it, if any.
    fn admit(&mut self, q: Queued, by: Option<usize>) -> Option<usize> {
        match by {
            Some(w) => insert_by_wave(&mut self.local[w], q),
            None => insert_by_wave(&mut self.injector, q),
        }
        self.sleeper_for(by)
    }

    /// Returns a stepped or woken task to the back of its worker's
    /// rotation (fairness: no task queued there is ever more than one full
    /// rotation from its next step). Returns the sleeping worker to wake
    /// for it, if any.
    fn requeue(&mut self, q: Queued) -> Option<usize> {
        q.slot.state.store(QUEUED, Ordering::SeqCst);
        let home = q.home;
        self.local[home].push_back(q);
        self.sleeper_for(Some(home))
    }

    /// Who to wake for work just added to worker `owner`'s queue (or the
    /// injector): the owner if it sleeps; else, when the owner has
    /// something to run before it, any sleeper, to steal — one on its
    /// condition variable before the one in the readiness set, which
    /// keeps watching the sockets. The chosen worker counts as awake from
    /// here on, so a second addition wakes another.
    fn sleeper_for(&mut self, owner: Option<usize>) -> Option<usize> {
        if let Some(w) = owner {
            if self.sleeping[w] {
                self.sleeping[w] = false;
                return Some(w);
            }
            if self.local[w].len() <= 1 {
                return None;
            }
        }
        let w = (0..self.sleeping.len())
            .filter(|&w| self.sleeping[w])
            .min_by_key(|&w| self.in_set == Some(w))?;
        self.sleeping[w] = false;
        Some(w)
    }

    /// Who to wake to wait in the readiness set, now that the worker that
    /// waited there is about to step a task: a worker asleep on its
    /// condition variable, if one is.
    fn set_keeper(&mut self) -> Option<usize> {
        if self.in_set.is_some() {
            return None;
        }
        let w = self.sleeping.iter().position(|&s| s)?;
        self.sleeping[w] = false;
        Some(w)
    }

    fn arm(&mut self, at: Instant, timer: Timer) {
        self.armed += 1;
        self.timers.insert((at, self.armed), timer);
    }

    /// The instant the earliest armed timer is due.
    fn next_timer(&self) -> Option<Instant> {
        self.timers.first_key_value().map(|(&(at, _), _)| at)
    }

    /// Takes the earliest timer if it is due. Reads the clock only while a
    /// timer is armed.
    fn pop_due(&mut self) -> Option<Timer> {
        if self.next_timer()? > Instant::now() {
            return None;
        }
        self.timers.pop_first().map(|(_, timer)| timer)
    }

    fn len(&self) -> usize {
        self.injector.len() + self.local.iter().map(VecDeque::len).sum::<usize>()
    }
}

struct Shared {
    queue: Mutex<QueueState>,
    /// Per worker, where it waits for work when another worker waits in
    /// the readiness set (all under `queue`'s mutex).
    ready: Vec<Condvar>,
    /// The readiness set: every registered socket, and the bell that
    /// wakes the worker waiting in it.
    poller: Arc<Poller>,
    /// `QueueState::in_set`, or [`NOBODY`], readable without the lock: a
    /// wake reads it to reach its worker, a busy worker to decide whether
    /// to look at the set.
    in_set: AtomicUsize,
    /// Looks at the readiness set between steps (diagnostics).
    looks: AtomicU64,
    /// Tasks ever submitted (diagnostics; also each task's slot id).
    submitted: AtomicU64,
    /// Steps executed across all workers (diagnostics).
    steps: AtomicU64,
    /// Workers currently inside a task step (`EngineStats::workers_busy`;
    /// workers waiting on their condvar or requeueing are idle).
    busy: AtomicU64,
    /// Workers waiting on their condvar that no wake has chosen yet,
    /// readable without the lock (a query's client consults it before it
    /// yields instead of parking).
    asleep: AtomicU64,
    /// Task panics the pool's backstop `catch_unwind` contained
    /// (diagnostics; the task layer normally contains its own panics
    /// before they ever reach the worker loop).
    panics: AtomicU64,
}

impl Shared {
    /// This pool's index of the calling thread, if it is one of its
    /// workers.
    fn current_worker(&self) -> Option<usize> {
        let me = self as *const Shared as usize;
        WORKER.get().and_then(|(pool, w)| (pool == me).then_some(w))
    }

    /// Wakes the worker a queue change chose (outside the lock), which no
    /// longer counts as asleep: by the bell if it waits in the readiness
    /// set, else on its condition variable. A worker that moved between
    /// the choice and this wake was awake, and found the work itself.
    fn notify(&self, worker: Option<usize>) {
        if let Some(w) = worker {
            self.asleep.fetch_sub(1, Ordering::Relaxed);
            if self.in_set.load(Ordering::SeqCst) == w {
                self.poller.ring();
            } else {
                self.ready[w].notify_one();
            }
        }
    }

    /// Wakes the owner of every socket with an edge, without waiting:
    /// what a busy worker does between steps while no worker waits in the
    /// readiness set. It leaves the bell alone, whose rings are for the
    /// next worker to wait there.
    fn look(&self) {
        self.looks.fetch_add(1, Ordering::Relaxed);
        let events = self.poller.wait(Some(Duration::ZERO));
        self.poller.dispatch(&events);
    }

    /// Waits in the readiness set as worker `me`, which the caller has
    /// recorded there, for up to `timeout`; then leaves it and wakes the
    /// owners of the sockets that had an edge, which go onto `me`'s own
    /// queue.
    fn wait_in_set(&self, me: usize, timeout: Option<Duration>) {
        let events = self.poller.wait(timeout);
        if events.rang() {
            // Every ring so far was for this worker: it still holds the set.
            self.poller.clear();
        }
        let mut queue = lock(&self.queue);
        queue.in_set = None;
        self.in_set.store(NOBODY, Ordering::SeqCst);
        if queue.sleeping[me] {
            // Back by an edge or a timeout: nobody chose it.
            queue.sleeping[me] = false;
            self.asleep.fetch_sub(1, Ordering::Relaxed);
        }
        drop(queue);
        self.poller.dispatch(&events);
    }

    /// Parks a task that reported `Blocked` — unless it was woken while it
    /// ran, in which case it goes straight back into the rotation. The
    /// state change and the insertion share the queue lock, so a wake that
    /// sees `PARKED` always finds the task in the parked set.
    fn park(&self, q: Queued) {
        let mut queue = lock(&self.queue);
        let parked =
            q.slot
                .state
                .compare_exchange(RUNNING, PARKED, Ordering::SeqCst, Ordering::SeqCst);
        if parked.is_ok() {
            queue.parked.insert(q.slot.id, q);
            return;
        }
        let wake = queue.requeue(q);
        drop(queue);
        self.notify(wake);
    }

    /// Moves a woken task from the parked set back into a rotation: the
    /// waking worker's, which just wrote what the task waits for, or, for
    /// a wake from outside the pool, the one of the worker that last
    /// stepped it. A task a shutting-down worker already took is gone:
    /// nothing to do.
    fn unpark(&self, id: u64) {
        let mut queue = lock(&self.queue);
        if let Some(mut q) = queue.parked.remove(&id) {
            if let Some(w) = self.current_worker() {
                q.home = w;
            }
            let wake = queue.requeue(q);
            drop(queue);
            self.notify(wake);
        }
    }

    /// Requeues a task that used its quantum.
    fn rotate(&self, q: Queued) {
        let wake = lock(&self.queue).requeue(q);
        self.notify(wake);
    }
}

/// A fixed-size pool of worker threads executing [`Task`]s cooperatively.
///
/// The pool is created once (per engine) and shared by every query; its
/// thread count never changes. Dropping the pool shuts it down: workers
/// finish their current step, drop every still-queued and parked task
/// (releasing their channel endpoints; their `Drop` reports
/// non-completion) and every pending timer, and exit.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    workers: usize,
}

impl WorkerPool {
    /// Spawns a pool of `workers` threads (at least one).
    pub fn new(workers: usize) -> Arc<Self> {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState::new(workers)),
            ready: (0..workers).map(|_| Condvar::new()).collect(),
            poller: Poller::new().expect("epoll set for the worker pool"),
            in_set: AtomicUsize::new(NOBODY),
            looks: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            steps: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            asleep: AtomicU64::new(0),
            panics: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("mj-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn worker thread")
            })
            .collect();
        Arc::new(WorkerPool {
            shared,
            handles: Mutex::new(handles),
            workers,
        })
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Worker threads currently owned by this pool — constant from
    /// construction to shutdown, however many tasks are submitted or timers
    /// armed.
    pub fn threads(&self) -> usize {
        lock(&self.handles).len()
    }

    /// Enqueues a task at `priority` (lower waves start first): onto the
    /// calling worker's own queue when one of this pool's workers submits
    /// it, else onto the shared injector (see the module docs for the
    /// rotation discipline).
    pub fn submit(&self, priority: usize, task: Box<dyn Task>) {
        let by = self.shared.current_worker();
        let q = self.entry(task, priority, by);
        let wake = lock(&self.shared.queue).admit(q, by);
        self.shared.notify(wake);
    }

    /// Enqueues `tasks` at `priority` as [`submit`](Self::submit) does
    /// each, in one push: one hold of the queue lock, and the wakes they
    /// call for decided together and made after it — a process group's
    /// instances start together, however the submitting thread is
    /// scheduled between them.
    pub(crate) fn submit_all(&self, priority: usize, tasks: Vec<Box<dyn Task>>) {
        let by = self.shared.current_worker();
        // Each admission wakes a different sleeper, if any: the first
        // needs no vector.
        let (mut first, mut more) = (None, Vec::new());
        {
            let mut queue = lock(&self.shared.queue);
            for task in tasks {
                let wake = queue.admit(self.entry(task, priority, by), by);
                match (first, wake) {
                    (None, _) => first = wake,
                    (Some(_), Some(w)) => more.push(w),
                    (Some(_), None) => {}
                }
            }
        }
        self.shared.notify(first);
        for w in more {
            self.shared.notify(Some(w));
        }
    }

    /// `task` with a fresh slot and waker, submitted by worker `by` (none:
    /// from outside the pool).
    fn entry(&self, task: Box<dyn Task>, priority: usize, by: Option<usize>) -> Queued {
        let slot = Arc::new(Slot {
            id: self.shared.submitted.fetch_add(1, Ordering::Relaxed),
            state: AtomicU8::new(QUEUED),
            pool: Arc::downgrade(&self.shared),
        });
        Queued {
            task,
            priority,
            home: by.unwrap_or(0),
            waker: Waker::from(slot.clone()),
            slot,
        }
    }

    /// Runs `callback` on a worker once `at` has passed, and again at
    /// whatever instant it returns, until it returns `None`. A worker runs
    /// due callbacks before it pops its next task, outside the queue lock,
    /// so a callback may wake or submit tasks; it must not block. Dropping
    /// the pool drops pending callbacks without running them.
    pub fn run_at(&self, at: Instant, callback: Box<dyn FnMut() -> Option<Instant> + Send>) {
        let mut queue = lock(&self.shared.queue);
        queue.arm(at, callback);
        // An idle worker may be waiting for a later timer, or for none; a
        // worker that is awake checks the timers before its next task.
        let wake = queue.sleeper_for(None);
        drop(queue);
        self.shared.notify(wake);
    }

    /// Adds socket `fd` to the pool's readiness set, edge-triggered: from
    /// then on every edge on it wakes `waker`, straight from the kernel
    /// when a worker waits in the set, else at a busy worker's next look
    /// between steps. `waker` is published before the socket is added, so
    /// an edge that is already there wakes it. Dropping the registration
    /// takes the socket out; drop it before closing the socket.
    pub fn register(&self, fd: RawFd, waker: &Waker) -> std::io::Result<Registration> {
        self.shared.poller.register(fd, waker)
    }

    /// Wakes the owner of every socket registered with the pool.
    pub fn wake_registered(&self) {
        self.shared.poller.wake_all();
    }

    /// Times a busy worker has looked at the readiness set between steps.
    pub fn looks(&self) -> u64 {
        self.shared.looks.load(Ordering::Relaxed)
    }

    /// Callbacks armed with `run_at` that wait for their instant.
    pub fn timers(&self) -> usize {
        lock(&self.shared.queue).timers.len()
    }

    /// Tasks ever submitted to this pool.
    pub fn submitted(&self) -> u64 {
        self.shared.submitted.load(Ordering::Relaxed)
    }

    /// Scheduling steps executed so far.
    pub fn steps(&self) -> u64 {
        self.shared.steps.load(Ordering::Relaxed)
    }

    /// Workers currently executing a task step (the rest are idle —
    /// waiting for work or shuffling the run queues). A point-in-time
    /// gauge: any value in `0..=workers()`.
    pub fn busy(&self) -> u64 {
        self.shared.busy.load(Ordering::Relaxed)
    }

    /// Whether some worker waits for work that no wake has chosen: its
    /// processor is idle and stays so.
    pub(crate) fn has_idle_worker(&self) -> bool {
        self.shared.asleep.load(Ordering::Relaxed) > 0
    }

    /// Tasks currently queued, on the injector and every worker's queue
    /// (excluding those mid-step on a worker).
    pub fn queued(&self) -> usize {
        lock(&self.shared.queue).len()
    }

    /// Tasks currently parked, waiting for a wake.
    pub fn parked(&self) -> usize {
        lock(&self.shared.queue).parked.len()
    }

    /// Task panics contained by the pool's backstop `catch_unwind` (the
    /// worker thread survived each one).
    pub fn panics_contained(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut queue = lock(&self.shared.queue);
            queue.shutdown = true;
        }
        for ready in &self.shared.ready {
            ready.notify_all();
        }
        self.shared.poller.ring();
        for h in lock(&self.handles).drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, me: usize) {
    WORKER.set(Some((shared as *const Shared as usize, me)));
    // Alternates with the worker's own queue after a task from the
    // injector, so arrivals cannot starve the tasks already running here.
    let mut injector_first = true;
    // When this worker may next look at the readiness set between steps.
    let mut next_look = Instant::now();
    loop {
        let (mut queued, keeper) = {
            let mut queue = lock(&shared.queue);
            loop {
                if queue.shutdown {
                    // Drop every task still queued or parked, and every
                    // pending timer unrun, outside the lock: their Drop
                    // impls release channel endpoints (waking peers) and
                    // report non-completion (which may submit more).
                    // Repeat until nothing is left.
                    let mut left: Vec<Queued> = queue.injector.drain(..).collect();
                    for local in &mut queue.local {
                        left.extend(local.drain(..));
                    }
                    left.extend(std::mem::take(&mut queue.parked).into_values());
                    let timers = std::mem::take(&mut queue.timers);
                    if left.is_empty() && timers.is_empty() {
                        return;
                    }
                    drop(queue);
                    drop((left, timers));
                    queue = lock(&shared.queue);
                    continue;
                }
                if let Some(mut timer) = queue.pop_due() {
                    // Outside the lock, since a callback may wake tasks;
                    // one that is done or panicked is dropped there too.
                    drop(queue);
                    let again = std::panic::catch_unwind(std::panic::AssertUnwindSafe(&mut timer));
                    let rearm = again.ok().flatten().map(|at| (at, timer));
                    queue = lock(&shared.queue);
                    if let Some((at, timer)) = rearm {
                        queue.arm(at, timer);
                    }
                    continue;
                }
                let arrivals = queue.injector.len();
                if let Some(q) = queue.pop(me, injector_first) {
                    injector_first = queue.injector.len() == arrivals;
                    break (q, queue.set_keeper());
                }
                queue.sleeping[me] = true;
                shared.asleep.fetch_add(1, Ordering::Relaxed);
                let timeout = queue
                    .next_timer()
                    .map(|at| at.saturating_duration_since(Instant::now()));
                if queue.in_set.is_none() {
                    queue.in_set = Some(me);
                    shared.in_set.store(me, Ordering::SeqCst);
                    drop(queue);
                    shared.wait_in_set(me, timeout);
                    queue = lock(&shared.queue);
                    continue;
                }
                let ready = &shared.ready[me];
                queue = match timeout {
                    Some(timeout) => unpoisoned(ready.wait_timeout(queue, timeout)).0,
                    None => unpoisoned(ready.wait(queue)),
                };
                if queue.sleeping[me] {
                    // Back by a timeout or spuriously: nobody chose it.
                    queue.sleeping[me] = false;
                    shared.asleep.fetch_sub(1, Ordering::Relaxed);
                }
            }
        };

        // Nobody waits in the readiness set while this worker steps: one
        // that sleeps goes there.
        shared.notify(keeper);
        queued.home = me;
        queued.slot.state.store(RUNNING, Ordering::SeqCst);
        shared.busy.fetch_add(1, Ordering::Relaxed);
        let Queued { task, waker, .. } = &mut queued;
        let step = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task.step(waker)));
        shared.busy.fetch_sub(1, Ordering::Relaxed);
        shared.steps.fetch_add(1, Ordering::Relaxed);
        match step {
            Ok(Step::Progress) => shared.rotate(queued),
            Ok(Step::Blocked) => shared.park(queued),
            Ok(Step::Done) => drop(queued),
            Err(_panic) => {
                // A panicking task is dropped (its Drop reports the
                // failure to its query); the worker itself survives.
                shared.panics.fetch_add(1, Ordering::Relaxed);
                drop(queued);
            }
        }
        // Relaxed: a stale read costs one look, or puts one off by a step.
        if shared.in_set.load(Ordering::Relaxed) == NOBODY {
            let now = Instant::now();
            if now >= next_look {
                next_look = now + LOOK_EVERY;
                shared.look();
            }
        }
    }
}

/// Unparks one thread: the waker of a caller that waits outside the pool
/// (a client draining its result stream, a unit test driving a task).
struct ThreadWaker(Thread);

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.0.unpark();
    }
}

/// A waker that unparks the calling thread.
pub(crate) fn thread_waker() -> Waker {
    Waker::from(Arc::new(ThreadWaker(std::thread::current())))
}

/// [`block_on_spinning`] that parks at once (unit tests).
#[cfg(test)]
pub(crate) fn block_on<R>(attempt: impl FnMut(&Waker) -> Option<R>) -> R {
    block_on_spinning(|| false, attempt)
}

/// Runs `attempt` until it returns `Some`, parking the calling thread
/// between attempts: the same wake protocol as a pooled task, for a caller
/// outside the pool (a query's client). `attempt` must register the waker
/// it is given on whatever it found not ready. The first attempt runs with
/// a no-op waker, so a caller whose answer is already there builds no
/// waker. For up to [`SPIN`], and only while `idle_worker` says the
/// query's pool leaves a worker idle (so the client takes no processor a
/// task could use), it retries, yielding its processor between attempts,
/// and parks only after that.
pub(crate) fn block_on_spinning<R>(
    idle_worker: impl Fn() -> bool,
    mut attempt: impl FnMut(&Waker) -> Option<R>,
) -> R {
    if let Some(r) = attempt(Waker::noop()) {
        return r;
    }
    let waker = thread_waker();
    let since = Instant::now();
    loop {
        if let Some(r) = attempt(&waker) {
            return r;
        }
        if since.elapsed() < SPIN && idle_worker() {
            std::thread::yield_now();
        } else {
            std::thread::park();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::time::Duration;

    /// Counts down `n` steps, optionally reporting Blocked in between.
    struct Countdown {
        left: usize,
        block_every: usize,
        counter: Arc<AtomicUsize>,
    }

    impl Task for Countdown {
        fn step(&mut self, waker: &Waker) -> Step {
            if self.left == 0 {
                return Step::Done;
            }
            if self.block_every > 0 && self.left.is_multiple_of(self.block_every) {
                // What it waits for is already there: it wakes itself.
                self.left -= 1;
                waker.wake_by_ref();
                return Step::Blocked;
            }
            self.left -= 1;
            self.counter.fetch_add(1, Ordering::Relaxed);
            Step::Progress
        }
    }

    fn wait_for(counter: &AtomicUsize, target: usize) {
        let mut spins = 0;
        while counter.load(Ordering::Relaxed) < target {
            std::thread::sleep(Duration::from_millis(1));
            spins += 1;
            assert!(spins < 10_000, "pool failed to finish tasks");
        }
    }

    #[test]
    fn pool_runs_many_tasks_on_few_threads() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.workers(), 2);
        assert_eq!(pool.threads(), 2);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            pool.submit(
                0,
                Box::new(Countdown {
                    left: 10,
                    block_every: 3,
                    counter: counter.clone(),
                }),
            );
        }
        // 10 steps each, ~1/3 blocked: 50 tasks x (10 - 3) progress steps.
        wait_for(&counter, 50 * 7);
        assert_eq!(pool.submitted(), 50);
        assert_eq!(
            pool.threads(),
            2,
            "task count must not grow the thread count"
        );
    }

    #[test]
    fn blocked_tasks_do_not_starve_the_pool() {
        // One permanently blocked task must not stop others from running.
        struct Stuck {
            unblock: Arc<AtomicUsize>,
        }
        impl Task for Stuck {
            fn step(&mut self, _: &Waker) -> Step {
                if self.unblock.load(Ordering::Relaxed) > 0 {
                    Step::Done
                } else {
                    Step::Blocked
                }
            }
        }
        let pool = WorkerPool::new(1);
        let unblock = Arc::new(AtomicUsize::new(0));
        // Stuck registers nothing: it parks until the pool drops it.
        let counter = Arc::new(AtomicUsize::new(0));
        pool.submit(
            0,
            Box::new(Stuck {
                unblock: unblock.clone(),
            }),
        );
        pool.submit(
            0,
            Box::new(Countdown {
                left: 20,
                block_every: 0,
                counter: counter.clone(),
            }),
        );
        wait_for(&counter, 20);
        unblock.store(1, Ordering::Relaxed);
        // Pool drop drops the parked stuck task and joins cleanly.
    }

    /// A task that does nothing (queue-discipline tests step the queue by
    /// hand, so the task body never runs).
    struct Inert;
    impl Task for Inert {
        fn step(&mut self, _: &Waker) -> Step {
            Step::Done
        }
    }

    fn queued(priority: usize) -> Queued {
        let slot = Arc::new(Slot {
            id: 0,
            state: AtomicU8::new(QUEUED),
            pool: Weak::new(),
        });
        Queued {
            task: Box::new(Inert),
            priority,
            home: 0,
            waker: Waker::from(slot.clone()),
            slot,
        }
    }

    /// The priorities worker `me` pops, in order, until nothing is left.
    fn drain(q: &mut QueueState, me: usize) -> Vec<usize> {
        std::iter::from_fn(|| q.pop(me, true).map(|e| e.priority)).collect()
    }

    #[test]
    fn admission_orders_by_wave() {
        // Admission is priority-ordered and stable, on the injector and on
        // a worker's own queue alike: later-submitted early-wave tasks
        // overtake queued later-wave tasks, so pipelines fill bottom-up
        // regardless of submission order.
        for by in [None, Some(1)] {
            let mut q = QueueState::new(2);
            for priority in [1, 0, 2, 1, 0] {
                q.admit(queued(priority), by);
            }
            let own = by.map_or(0, |w| q.local[w].len());
            assert_eq!(own, if by.is_some() { 5 } else { 0 }, "{by:?}");
            assert_eq!(drain(&mut q, by.unwrap_or(0)), vec![0, 0, 1, 1, 2]);
        }
    }

    #[test]
    fn requeue_rotates_instead_of_restoring_priority() {
        // Once stepped, a task rejoins the back of its worker's rotation
        // even if its wave is earlier — a blocked wave-0 producer must not
        // starve the wave-1 consumer it is waiting on.
        let mut q = QueueState::new(2);
        q.admit(queued(0), Some(1));
        q.admit(queued(1), Some(1));
        let mut first = q.pop(1, true).unwrap();
        assert_eq!(first.priority, 0);
        first.home = 1;
        q.requeue(first); // e.g. it reported Blocked
        assert_eq!(q.local[1].len(), 2, "back on the worker that stepped it");
        assert_eq!(
            drain(&mut q, 1),
            vec![1, 0],
            "the wave-1 task now runs first"
        );
    }

    #[test]
    fn a_thief_takes_the_task_queued_last_on_the_longest_queue() {
        let mut q = QueueState::new(3);
        q.admit(queued(0), Some(1));
        q.admit(queued(1), Some(2));
        q.admit(queued(2), Some(2));
        assert_eq!(q.pop(0, true).map(|e| e.priority), Some(2));
        let mut rest = drain(&mut q, 0);
        rest.sort_unstable();
        assert_eq!(rest, vec![0, 1], "then whatever is left anywhere");
    }

    #[test]
    fn only_work_its_adder_will_not_run_next_wakes_a_sleeper() {
        let mut q = QueueState::new(2);
        q.sleeping[1] = true;
        // Worker 0's first own task: it runs it next.
        assert_eq!(q.admit(queued(0), Some(0)), None);
        // Its second: the sleeper comes to steal, once.
        assert_eq!(q.admit(queued(0), Some(0)), Some(1));
        assert_eq!(q.admit(queued(0), Some(0)), None, "nobody else sleeps");
        // A task woken onto a sleeping worker's queue wakes that worker,
        // and an arrival any sleeper.
        q.sleeping = vec![true, true];
        let mut woken = queued(0);
        woken.home = 1;
        assert_eq!(q.requeue(woken), Some(1));
        assert_eq!(q.admit(queued(0), None), Some(0));
        assert_eq!(q.admit(queued(0), None), None);
    }

    /// Records the thread of every step. Every fourth step it blocks and
    /// hands its waker out, to be woken from outside the pool.
    struct Records {
        left: usize,
        threads: Arc<Mutex<Vec<std::thread::ThreadId>>>,
        wakers: std::sync::mpsc::Sender<Waker>,
    }
    impl Task for Records {
        fn step(&mut self, waker: &Waker) -> Step {
            lock(&self.threads).push(std::thread::current().id());
            self.left -= 1;
            if self.left == 0 {
                return Step::Done;
            }
            if self.left.is_multiple_of(4) {
                let _ = self.wakers.send(waker.clone());
                return Step::Blocked;
            }
            Step::Progress
        }
    }

    #[test]
    fn a_lone_task_keeps_its_worker_across_quanta() {
        // Rotated after a quantum, or woken from outside while every
        // worker idles, it goes back onto the worker that stepped it.
        let pool = WorkerPool::new(2);
        // Both workers asleep first, so none is still starting up, looking
        // for work to steal, when the task first rotates.
        let mut spins = 0;
        while !lock(&pool.shared.queue).sleeping.iter().all(|&s| s) {
            std::thread::sleep(Duration::from_micros(100));
            spins += 1;
            assert!(spins < 100_000, "workers never went to sleep");
        }
        let threads = Arc::new(Mutex::new(Vec::new()));
        let (tx, rx) = std::sync::mpsc::channel();
        let task = Records {
            left: 200,
            threads: threads.clone(),
            wakers: tx,
        };
        pool.submit(0, Box::new(task));
        // Ends when the finished task drops its sender.
        for waker in rx.iter() {
            let mut spins = 0;
            while pool.parked() == 0 {
                std::thread::sleep(Duration::from_micros(100));
                spins += 1;
                assert!(spins < 100_000, "task never parked");
            }
            waker.wake();
        }
        let threads = lock(&threads);
        assert_eq!(threads.len(), 200);
        let moved = threads.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(moved, 0, "the task changed workers {moved} times");
    }

    #[test]
    fn a_task_woken_on_a_worker_goes_onto_that_workers_queue() {
        /// Records the worker of each of its two steps; parks after the
        /// first, handing its waker out.
        struct Twice {
            names: Arc<Mutex<Vec<String>>>,
            wakers: std::sync::mpsc::Sender<Waker>,
        }
        impl Task for Twice {
            fn step(&mut self, waker: &Waker) -> Step {
                let mut names = lock(&self.names);
                names.push(std::thread::current().name().unwrap_or("").to_string());
                if names.len() == 2 {
                    return Step::Done;
                }
                let _ = self.wakers.send(waker.clone());
                Step::Blocked
            }
        }
        let pool = WorkerPool::new(2);
        let names = Arc::new(Mutex::new(Vec::new()));
        let (tx, rx) = std::sync::mpsc::channel();
        let task = Twice {
            names: names.clone(),
            wakers: tx,
        };
        pool.submit(0, Box::new(task));
        let waker = rx.recv_timeout(LONG).expect("the task stepped");
        // Parked, and both workers asleep, so the one that stepped it is
        // not still looking for work to steal when the wake lands.
        let mut spins = 0;
        while pool.parked() == 0 || !lock(&pool.shared.queue).sleeping.iter().all(|&s| s) {
            std::thread::sleep(Duration::from_micros(100));
            spins += 1;
            assert!(spins < 100_000, "task never parked");
        }
        // Wakes it as the worker that did not step it would, from inside
        // a step of its own.
        let first = lock(&names)[0].clone();
        let other = usize::from(first == "mj-worker-0");
        WORKER.set(Some((Arc::as_ptr(&pool.shared) as usize, other)));
        waker.wake();
        WORKER.set(None);
        while lock(&names).len() < 2 {
            std::thread::sleep(Duration::from_micros(100));
            spins += 1;
            assert!(spins < 100_000, "the woken task never ran");
        }
        assert_eq!(lock(&names)[1], format!("mj-worker-{other}"));
    }

    #[test]
    fn two_tasks_submitted_from_outside_run_at_once_on_two_workers() {
        /// Spins in its one step until the other has started too (or a
        /// second has passed: then they did not run at once).
        struct Meets {
            started: Arc<AtomicUsize>,
            met: Arc<AtomicUsize>,
        }
        impl Task for Meets {
            fn step(&mut self, _: &Waker) -> Step {
                self.started.fetch_add(1, Ordering::SeqCst);
                let until = Instant::now() + Duration::from_secs(1);
                while Instant::now() < until {
                    if self.started.load(Ordering::SeqCst) == 2 {
                        self.met.fetch_add(1, Ordering::SeqCst);
                        break;
                    }
                    std::hint::spin_loop();
                }
                Step::Done
            }
        }
        let pool = WorkerPool::new(2);
        let (started, met) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        for _ in 0..2 {
            let (started, met) = (started.clone(), met.clone());
            pool.submit(0, Box::new(Meets { started, met }));
        }
        let mut spins = 0;
        while pool.steps() < 2 {
            std::thread::sleep(Duration::from_millis(1));
            spins += 1;
            assert!(spins < 10_000, "tasks never finished");
        }
        assert_eq!(met.load(Ordering::SeqCst), 2, "they ran one after another");
    }

    /// Makes progress, a millisecond a step, until told to stop.
    struct Busy(Arc<AtomicUsize>);
    impl Task for Busy {
        fn step(&mut self, _: &Waker) -> Step {
            if self.0.load(Ordering::SeqCst) > 0 {
                return Step::Done;
            }
            std::thread::sleep(Duration::from_millis(1));
            Step::Progress
        }
    }

    #[test]
    fn an_arrival_starts_within_one_step_per_worker() {
        // Four busy tasks settle two to a worker, each rotating its own;
        // a task submitted from outside then starts before either worker
        // has finished more than the step it was in.
        let pool = WorkerPool::new(2);
        let stop = Arc::new(AtomicUsize::new(0));
        for _ in 0..4 {
            pool.submit(0, Box::new(Busy(stop.clone())));
        }
        let mut spins = 0;
        while pool.steps() < 40 {
            std::thread::sleep(Duration::from_millis(1));
            spins += 1;
            assert!(spins < 10_000, "the busy tasks never ran");
        }
        /// Reads the pool's step count when it starts.
        struct Probe(Arc<WorkerPool>, std::sync::mpsc::Sender<u64>);
        impl Task for Probe {
            fn step(&mut self, _: &Waker) -> Step {
                let _ = self.1.send(self.0.steps());
                Step::Done
            }
        }
        let (tx, rx) = std::sync::mpsc::channel();
        let before = pool.steps();
        pool.submit(0, Box::new(Probe(pool.clone(), tx)));
        let started = rx.recv_timeout(LONG).expect("the arrival ran");
        stop.store(1, Ordering::SeqCst);
        assert!(
            started - before <= 2,
            "{} steps ran before the arrival",
            started - before
        );
    }

    #[test]
    fn a_long_task_finishes_while_short_tasks_keep_arriving() {
        // One worker, and a one-step task arriving whenever fewer than 16
        // wait: the injector never empties, yet the long task's own queue
        // gets every other step.
        let pool = WorkerPool::new(1);
        let counter = Arc::new(AtomicUsize::new(0));
        let long = Countdown {
            left: 100,
            block_every: 0,
            counter: counter.clone(),
        };
        pool.submit(0, Box::new(long));
        let deadline = Instant::now() + LONG;
        while counter.load(Ordering::Relaxed) < 100 {
            assert!(Instant::now() < deadline, "the long task starved");
            if pool.queued() < 16 {
                pool.submit(0, Box::new(Inert));
            } else {
                std::thread::yield_now();
            }
        }
    }

    struct NotifyOnDrop {
        dropped: Arc<AtomicUsize>,
    }
    impl Task for NotifyOnDrop {
        fn step(&mut self, _: &Waker) -> Step {
            Step::Blocked
        }
    }
    impl Drop for NotifyOnDrop {
        fn drop(&mut self) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn shutdown_drops_queued_tasks() {
        let dropped = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(1);
            for _ in 0..4 {
                pool.submit(
                    0,
                    Box::new(NotifyOnDrop {
                        dropped: dropped.clone(),
                    }),
                );
            }
            // Give the worker a moment to step (and park) some of them.
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(dropped.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn shutdown_drops_parked_tasks() {
        // Tasks blocked on a wake that never comes are not leaked: pool
        // drop releases them like queued ones.
        let dropped = Arc::new(AtomicUsize::new(0));
        let pool = WorkerPool::new(2);
        for _ in 0..4 {
            pool.submit(
                0,
                Box::new(NotifyOnDrop {
                    dropped: dropped.clone(),
                }),
            );
        }
        let mut spins = 0;
        while pool.parked() < 4 {
            std::thread::sleep(Duration::from_millis(1));
            spins += 1;
            assert!(spins < 10_000, "tasks never parked");
        }
        assert_eq!((pool.queued(), dropped.load(Ordering::Relaxed)), (0, 0));
        drop(pool);
        assert_eq!(dropped.load(Ordering::Relaxed), 4);
    }

    /// Blocks once, wakes itself in the same step before returning, and is
    /// done on its next step.
    struct WakesWhileRunning {
        stepped: usize,
        counter: Arc<AtomicUsize>,
    }
    impl Task for WakesWhileRunning {
        fn step(&mut self, waker: &Waker) -> Step {
            self.stepped += 1;
            if self.stepped == 1 {
                waker.wake_by_ref();
                return Step::Blocked;
            }
            self.counter.fetch_add(1, Ordering::Relaxed);
            Step::Done
        }
    }

    #[test]
    fn a_wake_between_blocked_and_the_park_requeues_the_task() {
        // The wake lands while the worker still holds the task (it is
        // `RUNNING`): the worker must requeue it, not park it, or the task
        // would wait for a wake that already happened.
        let pool = WorkerPool::new(1);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            pool.submit(
                0,
                Box::new(WakesWhileRunning {
                    stepped: 0,
                    counter: counter.clone(),
                }),
            );
        }
        wait_for(&counter, 8);
        assert_eq!(pool.parked(), 0);
    }

    #[test]
    fn a_parked_task_runs_again_when_woken() {
        // Registers its waker where the test can reach it and blocks until
        // the test has released it.
        struct Waits {
            released: Arc<AtomicUsize>,
            waker: Arc<Mutex<Option<Waker>>>,
            counter: Arc<AtomicUsize>,
        }
        impl Task for Waits {
            fn step(&mut self, waker: &Waker) -> Step {
                let mut slot = lock(&self.waker);
                if self.released.load(Ordering::SeqCst) == 0 {
                    *slot = Some(waker.clone());
                    return Step::Blocked;
                }
                self.counter.fetch_add(1, Ordering::Relaxed);
                Step::Done
            }
        }
        let pool = WorkerPool::new(1);
        let (released, waker) = (Arc::new(AtomicUsize::new(0)), Arc::new(Mutex::new(None)));
        let counter = Arc::new(AtomicUsize::new(0));
        pool.submit(
            0,
            Box::new(Waits {
                released: released.clone(),
                waker: waker.clone(),
                counter: counter.clone(),
            }),
        );
        let mut spins = 0;
        while pool.parked() == 0 {
            std::thread::sleep(Duration::from_millis(1));
            spins += 1;
            assert!(spins < 10_000, "task never parked");
        }
        let steps = pool.steps();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(pool.steps(), steps, "a parked task is not polled");
        // Release, then wake — in that order, under the task's own lock.
        let registered = {
            let mut slot = lock(&waker);
            released.store(1, Ordering::SeqCst);
            slot.take().expect("registered before parking")
        };
        registered.wake();
        wait_for(&counter, 1);
    }

    #[test]
    fn panicking_task_does_not_kill_the_worker() {
        struct Panics;
        impl Task for Panics {
            fn step(&mut self, _: &Waker) -> Step {
                panic!("task bug");
            }
        }
        let pool = WorkerPool::new(1);
        let counter = Arc::new(AtomicUsize::new(0));
        pool.submit(0, Box::new(Panics));
        pool.submit(
            0,
            Box::new(Countdown {
                left: 5,
                block_every: 0,
                counter: counter.clone(),
            }),
        );
        wait_for(&counter, 5);
        assert_eq!(pool.panics_contained(), 1, "backstop counter ticks");
    }

    /// A callback that sends the instant it ran and does not run again.
    fn fire_once(fired: std::sync::mpsc::Sender<Instant>) -> impl FnMut() -> Option<Instant> {
        move || {
            let _ = fired.send(Instant::now());
            None
        }
    }

    const LONG: Duration = Duration::from_secs(10);

    #[test]
    fn a_timer_fires_no_earlier_than_its_instant() {
        let pool = WorkerPool::new(2);
        let (tx, rx) = std::sync::mpsc::channel();
        let at = Instant::now() + Duration::from_millis(30);
        pool.run_at(at, Box::new(fire_once(tx)));
        assert_eq!(pool.timers(), 1);
        let fired = rx.recv_timeout(LONG).expect("the timer fired");
        assert!(fired >= at, "fired {:?} early", at - fired);
        assert_eq!(pool.timers(), 0);
    }

    #[test]
    fn a_timer_armed_earlier_than_a_waiting_one_fires_on_time() {
        // The idle worker waits for the first timer's instant; arming an
        // earlier one must cut that wait short.
        let pool = WorkerPool::new(1);
        let (late_tx, late_rx) = std::sync::mpsc::channel();
        pool.run_at(Instant::now() + LONG * 6, Box::new(fire_once(late_tx)));
        // Lets the worker settle into that wait. The assertions hold either
        // way; without the pause the test may only miss the case it is for.
        std::thread::sleep(Duration::from_millis(10));
        let (tx, rx) = std::sync::mpsc::channel();
        let at = Instant::now() + Duration::from_millis(20);
        pool.run_at(at, Box::new(fire_once(tx)));
        let fired = rx.recv_timeout(LONG).expect("the earlier timer fired");
        assert!(fired >= at);
        assert!(late_rx.try_recv().is_err(), "the later one still waits");
        assert_eq!(pool.timers(), 1);
    }

    #[test]
    fn timers_fire_while_every_worker_is_busy() {
        let pool = WorkerPool::new(2);
        let stop = Arc::new(AtomicUsize::new(0));
        for _ in 0..4 {
            pool.submit(0, Box::new(Busy(stop.clone())));
        }
        // Fires three times, 5 ms apart, then stops the tasks.
        let (tx, rx) = std::sync::mpsc::channel();
        let (mut left, done) = (3, stop.clone());
        let at = Instant::now() + Duration::from_millis(5);
        pool.run_at(
            at,
            Box::new(move || {
                let _ = tx.send(Instant::now());
                left -= 1;
                if left == 0 {
                    done.store(1, Ordering::SeqCst);
                    return None;
                }
                Some(Instant::now() + Duration::from_millis(5))
            }),
        );
        for _ in 0..3 {
            rx.recv_timeout(LONG).expect("fired on a busy pool");
        }
        assert!(pool.steps() > 0);
    }

    #[test]
    fn pool_drop_runs_no_pending_callback() {
        let ran = Arc::new(AtomicUsize::new(0));
        let dropped = Arc::new(AtomicUsize::new(0));
        let pool = WorkerPool::new(1);
        let count = ran.clone();
        let held = NotifyOnDrop {
            dropped: dropped.clone(),
        };
        let at = Instant::now() + Duration::from_millis(50);
        pool.run_at(
            at,
            Box::new(move || {
                let _ = &held;
                count.fetch_add(1, Ordering::SeqCst);
                None
            }),
        );
        drop(pool);
        assert_eq!(ran.load(Ordering::SeqCst), 0, "never ran");
        assert_eq!(dropped.load(Ordering::SeqCst), 1, "dropped with the pool");
    }

    #[test]
    fn a_worker_counts_as_idle_only_while_it_sleeps_unchosen() {
        /// Rotates until released.
        struct Held(Arc<AtomicBool>);
        impl Task for Held {
            fn step(&mut self, _: &Waker) -> Step {
                if self.0.load(Ordering::SeqCst) {
                    Step::Done
                } else {
                    Step::Progress
                }
            }
        }
        let pool = WorkerPool::new(1);
        let asleep = |pool: &WorkerPool| {
            let deadline = Instant::now() + LONG;
            while !pool.has_idle_worker() {
                assert!(Instant::now() < deadline, "the worker never slept");
                std::thread::sleep(Duration::from_micros(100));
            }
        };
        asleep(&pool);
        let release = Arc::new(AtomicBool::new(false));
        pool.submit(0, Box::new(Held(release.clone())));
        // Chosen by the submission's wake: busy from here on, before it
        // has even resumed.
        assert!(!pool.has_idle_worker());
        std::thread::sleep(Duration::from_millis(5));
        assert!(!pool.has_idle_worker(), "stepping its task");
        release.store(true, Ordering::SeqCst);
        asleep(&pool);
    }

    /// Returns once one of `pool`'s workers waits in the readiness set.
    fn await_in_set(pool: &WorkerPool) {
        let deadline = Instant::now() + LONG;
        while lock(&pool.shared.queue).in_set.is_none() {
            assert!(Instant::now() < deadline, "no worker waits in the set");
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    #[test]
    fn a_worker_waiting_in_the_set_wakes_for_an_outside_submit() {
        let pool = WorkerPool::new(1);
        await_in_set(&pool);
        assert!(pool.has_idle_worker(), "waiting in the set counts as idle");
        struct Sends(std::sync::mpsc::Sender<()>);
        impl Task for Sends {
            fn step(&mut self, _: &Waker) -> Step {
                let _ = self.0.send(());
                Step::Done
            }
        }
        let (tx, rx) = std::sync::mpsc::channel();
        pool.submit(0, Box::new(Sends(tx)));
        rx.recv_timeout(LONG).expect("the rung worker ran the task");
    }

    #[test]
    fn a_worker_waiting_in_the_set_wakes_for_a_timer() {
        let pool = WorkerPool::new(1);
        let (tx, rx) = std::sync::mpsc::channel();
        let at = Instant::now() + Duration::from_millis(30);
        pool.run_at(at, Box::new(fire_once(tx)));
        // It waits in the set until the timer's instant, not on a condvar.
        await_in_set(&pool);
        let fired = rx.recv_timeout(LONG).expect("the timer fired");
        assert!(fired >= at, "fired {:?} early", at - fired);
    }

    #[test]
    fn a_wait_in_the_set_keeps_a_sub_millisecond_timeout() {
        // `epoll_wait` would round 300 µs up to 1 ms.
        let t = crate::poll::timespec(Duration::from_micros(300));
        assert_eq!((t.tv_sec, t.tv_nsec), (0, 300_000));
        let t = crate::poll::timespec(Duration::new(2, 5));
        assert_eq!((t.tv_sec, t.tv_nsec), (2, 5));
    }

    /// Counts its wakes.
    struct Count(AtomicUsize);
    impl Wake for Count {
        fn wake(self: Arc<Self>) {
            self.wake_by_ref();
        }
        fn wake_by_ref(self: &Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn wait_for_wakes(count: &Count, at_least: usize) {
        let deadline = Instant::now() + LONG;
        while count.0.load(Ordering::SeqCst) < at_least {
            assert!(Instant::now() < deadline, "no wake");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn an_edge_wakes_the_sockets_owner_until_it_deregisters() {
        use std::io::{Read, Write};
        use std::os::fd::AsRawFd;
        use std::os::unix::net::UnixStream;

        let pool = WorkerPool::new(1);
        let (mut peer, socket) = UnixStream::pair().unwrap();
        socket.set_nonblocking(true).unwrap();
        let count = Arc::new(Count(AtomicUsize::new(0)));
        let registration = pool
            .register(socket.as_raw_fd(), &Waker::from(count.clone()))
            .unwrap();
        // Writable at once: the edge of being added.
        wait_for_wakes(&count, 1);
        await_in_set(&pool);
        let before = count.0.load(Ordering::SeqCst);
        peer.write_all(b"x").unwrap();
        wait_for_wakes(&count, before + 1);

        drop(registration);
        let after = count.0.load(Ordering::SeqCst);
        peer.write_all(b"y").unwrap();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(count.0.load(Ordering::SeqCst), after, "deregistered");
        drop(pool);
        // Read side untouched by the pool: both bytes wait.
        let mut buf = [0u8; 4];
        assert_eq!((&socket).read(&mut buf).unwrap(), 2);
    }

    #[test]
    fn a_mutex_poisoned_by_a_panicking_holder_still_locks() {
        let mutex = Mutex::new(1);
        let held = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = lock(&mutex);
            panic!("the holder panics");
        }));
        assert!(held.is_err() && mutex.is_poisoned());
        *lock(&mutex) += 1;
        assert_eq!(*lock(&mutex), 2);
    }

    #[test]
    fn a_client_yields_before_parking_only_while_a_worker_is_idle() {
        // The answer comes from another thread, which wakes the registered
        // waker. The first attempt runs with a no-op waker and the second
        // registers the thread's; a third before any wake can only follow
        // an idle answer, since a client told "busy" parks until woken.
        const LONG: Duration = Duration::from_secs(10);
        for idle in [false, true] {
            // A wake left over from an earlier wait would end a park early.
            std::thread::park_timeout(Duration::ZERO);
            let answer: Arc<Mutex<(Option<u32>, Option<Waker>)>> = Arc::default();
            let (failed, asked) = (Arc::new(AtomicUsize::new(0)), AtomicUsize::new(0));
            let (giver, seen) = (answer.clone(), failed.clone());
            let give = std::thread::spawn(move || {
                // Busy: answer after the two attempts before its question.
                // Idle: only once it has attempted again, unwoken, after
                // an idle answer; a client that parked instead is woken at
                // the timeout, too late.
                let wanted = if idle { 3 } else { 2 };
                let since = Instant::now();
                while seen.load(Ordering::SeqCst) < wanted && since.elapsed() < LONG {
                    std::thread::sleep(Duration::from_micros(50));
                }
                let mut state = lock(&giver);
                state.0 = Some(7);
                if let Some(waker) = state.1.take() {
                    waker.wake();
                }
                since.elapsed() < LONG
            });
            let got = block_on_spinning(
                || {
                    asked.fetch_add(1, Ordering::SeqCst);
                    idle
                },
                |waker| {
                    let mut state = lock(&answer);
                    state.1 = Some(waker.clone());
                    let got = state.0;
                    if got.is_none() {
                        failed.fetch_add(1, Ordering::SeqCst);
                    }
                    got
                },
            );
            let in_time = give.join().unwrap();
            assert_eq!(got, 7);
            let (failed, asked) = (failed.load(Ordering::SeqCst), asked.load(Ordering::SeqCst));
            if idle {
                // A client slowed past the window before its first
                // question parks without asking, which is allowed.
                assert!(
                    in_time || asked == 0,
                    "attempted again after an idle answer before parking"
                );
            } else {
                assert!(asked <= 1, "asked {asked} times");
                assert_eq!(failed, 2, "parked until woken once told busy");
            }
        }
        // An answer already there: nothing to ask.
        let got = block_on_spinning(|| unreachable!("no wait"), |_| Some(3));
        assert_eq!(got, 3);
    }
}
