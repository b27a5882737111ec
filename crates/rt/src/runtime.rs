//! The hand-rolled executor: per-worker run queues, a shared injector,
//! work stealing, and a condvar park loop.
//!
//! No `unsafe`, no dependencies: tasks are `Arc`-shared state machines
//! whose wakers come from [`std::task::Wake`], and workers are plain
//! [`std::thread`]s. The design is the classic small work-stealing
//! executor:
//!
//! - every task has a **home queue** (round-robin at spawn), so steady
//!   load spreads without coordination;
//! - a worker pops its own queue first (FIFO), then the shared
//!   **injector** (tasks woken from outside the pool land there), then
//!   **steals** from the back of sibling queues;
//! - an idle worker parks on a condvar tied to the injector lock; every
//!   push notifies under that lock, so wakeups cannot be lost.
//!
//! Scheduling state per task is one atomic (`Idle / Queued / Running /
//! Notified / Done`): a wake during a poll moves `Running → Notified`,
//! and the polling worker re-queues the task instead of dropping the
//! wake — the standard protocol for never losing a wakeup without
//! holding a lock across `poll`.
//!
//! A task that panics is contained at its poll boundary: the panic is
//! caught, the task completes with it, and [`JoinHandle::join`] (or
//! awaiting the handle) re-raises it in the joiner. The worker thread
//! survives and keeps serving the other tasks.

use std::collections::VecDeque;
use std::future::Future;
use std::panic::AssertUnwindSafe;
use std::pin::{pin, Pin};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Wake, Waker};

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// Task scheduling states (the one-atomic wake protocol).
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const NOTIFIED: u8 = 3;
const DONE: u8 = 4;

/// One spawned future plus its scheduling state. `Arc<Task>` doubles as
/// the waker (via [`Wake`]).
struct Task {
    /// The future; taken while a worker polls it, restored on `Pending`.
    future: Mutex<Option<BoxFuture>>,
    state: AtomicU8,
    /// Preferred worker queue (round-robin at spawn).
    home: usize,
    shared: Arc<Shared>,
}

impl Task {
    /// Polls the task once. Called by a worker that dequeued it.
    fn run(self: &Arc<Self>) {
        if self
            .state
            .compare_exchange(QUEUED, RUNNING, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            // Completed (or never queued) — a stale queue entry.
            return;
        }
        let Some(mut future) = self.future.lock().expect("task future poisoned").take() else {
            self.state.store(DONE, Ordering::Release);
            return;
        };
        let waker = Waker::from(Arc::clone(self));
        let mut cx = Context::from_waker(&waker);
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(()) => {
                self.state.store(DONE, Ordering::Release);
            }
            Poll::Pending => {
                // Restore the future *before* leaving `Running`, so a
                // re-queued task always finds it.
                *self.future.lock().expect("task future poisoned") = Some(future);
                if self
                    .state
                    .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    // A wake arrived mid-poll (`Running → Notified`):
                    // honour it by re-queueing ourselves.
                    self.state.store(QUEUED, Ordering::Release);
                    self.shared.push(Arc::clone(self));
                }
            }
        }
    }
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        loop {
            match self.state.load(Ordering::Acquire) {
                IDLE => {
                    if self
                        .state
                        .compare_exchange(IDLE, QUEUED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        let shared = Arc::clone(&self.shared);
                        shared.push(self);
                        return;
                    }
                }
                RUNNING => {
                    if self
                        .state
                        .compare_exchange(RUNNING, NOTIFIED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return;
                    }
                }
                // Already queued / notified / done: the wake coalesces.
                _ => return,
            }
        }
    }
}

/// State shared between the [`Runtime`] handle and its workers.
struct Shared {
    /// Per-worker run queues. Owner pops the front; thieves pop the back.
    queues: Vec<Mutex<VecDeque<Arc<Task>>>>,
    /// Overflow / external-wake queue, also the sleep lock: idle workers
    /// park on [`Shared::idle`] holding this mutex, and every push
    /// notifies under it, which is what makes lost wakeups impossible.
    injector: Mutex<VecDeque<Arc<Task>>>,
    idle: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    /// Queues a task on its home queue and wakes one sleeper.
    fn push(&self, task: Arc<Task>) {
        let home = task.home % self.queues.len();
        self.queues[home]
            .lock()
            .expect("run queue poisoned")
            .push_back(task);
        // Touch the injector lock so the notify synchronizes with any
        // worker deciding to sleep (see `worker_loop`).
        let _guard = self.injector.lock().expect("injector poisoned");
        self.idle.notify_one();
    }

    /// Pop order: own queue front, injector front, then steal one task
    /// from the back of each sibling queue.
    fn find_work(&self, index: usize) -> Option<Arc<Task>> {
        if let Some(task) = self.queues[index]
            .lock()
            .expect("run queue poisoned")
            .pop_front()
        {
            return Some(task);
        }
        if let Some(task) = self.injector.lock().expect("injector poisoned").pop_front() {
            return Some(task);
        }
        let n = self.queues.len();
        for off in 1..n {
            let victim = (index + off) % n;
            if let Some(task) = self.queues[victim]
                .lock()
                .expect("run queue poisoned")
                .pop_back()
            {
                return Some(task);
            }
        }
        None
    }

    /// Any task anywhere? Called under the injector lock before parking.
    fn any_queued(&self, guard: &VecDeque<Arc<Task>>) -> bool {
        !guard.is_empty()
            || self
                .queues
                .iter()
                .any(|q| !q.lock().expect("run queue poisoned").is_empty())
    }
}

/// A worker's main loop: run until shutdown, parking when idle.
fn worker_loop(shared: &Arc<Shared>, index: usize) {
    loop {
        if let Some(task) = shared.find_work(index) {
            task.run();
            continue;
        }
        let guard = shared.injector.lock().expect("injector poisoned");
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Re-check under the lock: a producer that pushed after our
        // `find_work` miss is either visible now, or is blocked on this
        // lock and will notify once we wait.
        if shared.any_queued(&guard) {
            continue;
        }
        let _unused = shared.idle.wait(guard).expect("injector poisoned");
    }
}

/// A handle whose task completed (or will): await it inside another task,
/// or [`join`](JoinHandle::join) it from a plain thread.
///
/// Dropping the handle detaches the task (it keeps running).
#[derive(Debug)]
pub struct JoinHandle<T> {
    state: Arc<JoinState<T>>,
}

struct JoinState<T> {
    slot: Mutex<JoinSlot<T>>,
    done: Condvar,
}

impl<T> std::fmt::Debug for JoinState<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("JoinState { .. }")
    }
}

enum JoinSlot<T> {
    /// Not finished; holds the waker of an awaiting task, if any.
    Pending(Option<Waker>),
    /// Finished; the output (or the task's panic) waits to be taken.
    Ready(Option<std::thread::Result<T>>),
}

impl<T> JoinState<T> {
    fn complete(&self, value: std::thread::Result<T>) {
        let mut slot = self.slot.lock().expect("join slot poisoned");
        let waker = match std::mem::replace(&mut *slot, JoinSlot::Ready(Some(value))) {
            JoinSlot::Pending(waker) => waker,
            JoinSlot::Ready(_) => unreachable!("task completed twice"),
        };
        drop(slot);
        self.done.notify_all();
        if let Some(waker) = waker {
            waker.wake();
        }
    }
}

/// The task's output, or its panic resumed in the caller (with the
/// slot's lock already released, so the unwind poisons nothing).
fn unwrap_output<T>(value: Option<std::thread::Result<T>>) -> T {
    match value.expect("join handle output already taken") {
        Ok(output) => output,
        Err(panic) => std::panic::resume_unwind(panic),
    }
}

impl<T> JoinHandle<T> {
    /// Blocks the calling thread until the task finishes, returning its
    /// output.
    ///
    /// # Panics
    ///
    /// Re-raises the task's panic if the task panicked. Panics if the
    /// output was already taken (the handle was polled to completion and
    /// then joined).
    pub fn join(self) -> T {
        let mut slot = self.state.slot.lock().expect("join slot poisoned");
        let value = loop {
            match &mut *slot {
                JoinSlot::Ready(value) => break value.take(),
                JoinSlot::Pending(_) => {
                    slot = self.state.done.wait(slot).expect("join slot poisoned");
                }
            }
        };
        drop(slot);
        unwrap_output(value)
    }

    /// Whether the task has finished (non-blocking).
    pub fn is_finished(&self) -> bool {
        matches!(
            &*self.state.slot.lock().expect("join slot poisoned"),
            JoinSlot::Ready(_)
        )
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut slot = self.state.slot.lock().expect("join slot poisoned");
        match &mut *slot {
            JoinSlot::Ready(value) => {
                let value = value.take();
                drop(slot);
                Poll::Ready(unwrap_output(value))
            }
            JoinSlot::Pending(waker) => {
                *waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

/// The work-stealing runtime: `N` worker threads serving spawned tasks
/// from per-worker queues with stealing.
///
/// Dropping the runtime shuts the workers down after they finish the
/// tasks they are currently polling; tasks still queued are dropped
/// unpolled (a [`JoinHandle`] for one would never resolve). Join what
/// you need before dropping.
pub struct Runtime {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Round-robin home-queue cursor for spawns.
    next_home: AtomicUsize,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl Runtime {
    /// Starts `workers` worker threads (clamped to at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            idle: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let threads = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sampcert-rt-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn runtime worker")
            })
            .collect();
        Runtime {
            shared,
            workers: threads,
            next_home: AtomicUsize::new(0),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Spawns a future onto the runtime, returning a handle to its
    /// output. The task starts on a round-robin home queue and may be
    /// stolen by any worker.
    pub fn spawn<F>(&self, future: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let state = Arc::new(JoinState {
            slot: Mutex::new(JoinSlot::Pending(None)),
            done: Condvar::new(),
        });
        let completion = Arc::clone(&state);
        let wrapped = async move {
            // The poll boundary: a panic inside the task's own poll is
            // caught here and completes the join slot, so the worker
            // keeps serving and the joiner sees the panic.
            let mut future = pin!(future);
            let value = std::future::poll_fn(|cx| {
                match std::panic::catch_unwind(AssertUnwindSafe(|| future.as_mut().poll(cx))) {
                    Ok(Poll::Ready(value)) => Poll::Ready(Ok(value)),
                    Ok(Poll::Pending) => Poll::Pending,
                    Err(panic) => Poll::Ready(Err(panic)),
                }
            })
            .await;
            completion.complete(value);
        };
        let task = Arc::new(Task {
            future: Mutex::new(Some(Box::pin(wrapped))),
            state: AtomicU8::new(QUEUED),
            home: self.next_home.fetch_add(1, Ordering::Relaxed),
            shared: Arc::clone(&self.shared),
        });
        self.shared.push(task);
        JoinHandle { state }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _guard = self.shared.injector.lock().expect("injector poisoned");
            self.idle_notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Runtime {
    fn idle_notify_all(&self) {
        self.shared.idle.notify_all();
    }
}

/// A [`Wake`] that unparks a parked thread — the waker behind
/// [`block_on`].
struct Unparker {
    thread: std::thread::Thread,
    notified: AtomicBool,
}

impl Wake for Unparker {
    fn wake(self: Arc<Self>) {
        self.notified.store(true, Ordering::Release);
        self.thread.unpark();
    }
}

/// Drives a future to completion on the calling thread, parking between
/// polls. This is how synchronous code consumes `answer_async` futures
/// and [`JoinHandle`]s without a second runtime.
pub fn block_on<F: Future>(future: F) -> F::Output {
    let mut future = Box::pin(future);
    let unparker = Arc::new(Unparker {
        thread: std::thread::current(),
        notified: AtomicBool::new(false),
    });
    let waker = Waker::from(Arc::clone(&unparker));
    let mut cx = Context::from_waker(&waker);
    loop {
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(value) => return value,
            Poll::Pending => {
                while !unparker.notified.swap(false, Ordering::Acquire) {
                    std::thread::park();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_and_join_many() {
        let rt = Runtime::new(4);
        let handles: Vec<_> = (0..64u64).map(|i| rt.spawn(async move { i * i })).collect();
        let total: u64 = handles.into_iter().map(JoinHandle::join).sum();
        assert_eq!(total, (0..64u64).map(|i| i * i).sum());
    }

    #[test]
    fn block_on_drives_pending_futures() {
        // A future that goes Pending once and is woken from another
        // thread — exercises the park/unpark loop.
        struct YieldOnce {
            woken: bool,
        }
        impl Future for YieldOnce {
            type Output = u32;
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<u32> {
                if self.woken {
                    Poll::Ready(7)
                } else {
                    self.woken = true;
                    let waker = cx.waker().clone();
                    std::thread::spawn(move || waker.wake());
                    Poll::Pending
                }
            }
        }
        assert_eq!(block_on(YieldOnce { woken: false }), 7);
    }

    #[test]
    fn tasks_migrate_across_workers() {
        // All tasks get home queue 0 via a single spawner, but a blocked
        // worker cannot serve them all: completing every task within the
        // timeout requires stealing.
        let rt = Runtime::new(4);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let blocker = {
            let gate = Arc::clone(&gate);
            rt.spawn(async move {
                let (lock, cv) = &*gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            })
        };
        let handles: Vec<_> = (0..32u32).map(|i| rt.spawn(async move { i + 1 })).collect();
        let sum: u32 = handles.into_iter().map(JoinHandle::join).sum();
        assert_eq!(sum, (1..=32).sum());
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        blocker.join();
    }

    #[test]
    fn join_handle_awaits_inside_a_task() {
        let rt = Runtime::new(2);
        let inner = rt.spawn(async { 21u64 });
        let outer = rt.spawn(async move { inner.await * 2 });
        assert_eq!(outer.join(), 42);
    }

    #[test]
    fn a_panicking_task_is_contained_and_the_worker_keeps_serving() {
        let rt = Runtime::new(1);
        let doomed = rt.spawn(async {
            panic!("task failure");
        });
        let healthy = rt.spawn(async { 7u32 });
        // The single worker must survive the panic to serve this task.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(healthy.join()));
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(10)),
            Ok(7),
            "the worker died with the panicking task"
        );
        let panic = std::panic::catch_unwind(AssertUnwindSafe(|| doomed.join()))
            .expect_err("join must re-raise the task's panic");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"task failure"));
        // Awaiting the handle re-raises too, inside the awaiting task —
        // which is itself contained.
        let inner = rt.spawn(async { panic!("inner failure") });
        let outer = rt.spawn(inner);
        let panic = std::panic::catch_unwind(AssertUnwindSafe(|| outer.join()))
            .expect_err("the awaiting task sees the panic");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"inner failure"));
        assert_eq!(rt.spawn(async { 1u8 }).join(), 1);
    }
}
