//! Cooperative ready-queue scheduler: every peer is a state-machine
//! *task* with a mailbox, not an OS thread.
//!
//! The shape is the classic actor scheduler: a task is IDLE until a
//! message lands in its mailbox or one of its timers fires, at which
//! point it is enqueued on a shared ready queue (enqueue-once — a task
//! appears at most once no matter how many events arrive). Worker
//! threads pop tasks and run them for a bounded step budget
//! ([`STEP_BUDGET`] events), then yield the task back: either to IDLE
//! (drained) or straight back onto the queue (more work pending). This
//! is what lets one box host thousands of live peers — the thread count
//! is the worker pool size, not the peer count.
//!
//! Outbound messages are not sent inline: each `Runtime::send` appends
//! to a per-run outbox which the worker flushes once per task step
//! through an [`OutboxSink`] — on the live plane that flush is a single
//! `sendmmsg` burst (see [`crate::live`]), so a protocol fan-out from
//! `send_coord_batch` maps onto one batched syscall.
//!
//! Timers live in one shared min-heap ([`TimerService`]) drained by the
//! poll thread; per-task generation-stamped [`TimerSlots`] give
//! `cancel_timer` exact take-semantics (no tombstone growth), the same
//! scheme as the simulator's `TimerTable`.

use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use mss_core::msg::Msg;
use mss_sim::event::{ActorId, TimerId};
use mss_sim::metrics::{self, Metrics};
use mss_sim::rng::SimRng;
use mss_sim::time::{SimDuration, SimTime};
use mss_sim::world::{Actor, Runtime, SimMessage};

use crate::sys::EventFd;

/// Shared shutdown/completion state for one live session: the watched
/// task raises `done` the moment the session's completion condition
/// holds (the leaf finished streaming), and the orchestrator waits on
/// *done-or-deadline* instead of sleeping out the whole wall timeout.
/// `stop` is the hard cutoff the poll loop and workers check.
#[derive(Default)]
pub(crate) struct SessionControl {
    stop: AtomicBool,
    done: Mutex<bool>,
    cv: Condvar,
}

impl SessionControl {
    /// Raise the hard stop flag; hosting loops exit at their next check.
    pub(crate) fn request_stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        // Wake an orchestrator still blocked in `wait_done`.
        self.cv.notify_all();
    }

    /// True once `request_stop` has been called.
    pub(crate) fn should_stop(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Mark the completion condition as reached and wake the
    /// orchestrator. Idempotent.
    pub(crate) fn signal_done(&self) {
        let mut done = self.done.lock().expect("session control poisoned");
        if !*done {
            *done = true;
            self.cv.notify_all();
        }
    }

    /// Block until the session signals done or `timeout` elapses.
    /// Returns true when completion (not the deadline) ended the wait.
    pub(crate) fn wait_done(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut done = self.done.lock().expect("session control poisoned");
        while !*done && !self.should_stop() {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(done, deadline - now)
                .expect("session control poisoned");
            done = guard;
        }
        *done
    }
}

/// Completion predicate evaluated against the watched task after each
/// step that processed events; its first `true` raises
/// [`SessionControl::signal_done`].
pub(crate) type WatchFn = dyn Fn(&dyn Actor<Msg>) -> bool + Send + Sync;

/// Events (messages + timers) one task may process per scheduling turn
/// before it must yield the worker to other ready tasks.
pub(crate) const STEP_BUDGET: usize = 64;

// Task scheduling states (one AtomicU8 per task).
const IDLE: u8 = 0; // no pending work, not queued
const QUEUED: u8 = 1; // on the ready queue
const RUNNING: u8 = 2; // a worker is stepping it
const RUNNING_DIRTY: u8 = 3; // running, and new work arrived meanwhile

/// The mutable half of a task a worker needs exclusive access to while
/// stepping it. Kept in one mutex so the poll thread never contends on
/// it (the poll thread only touches `mailbox`/`due`).
struct TaskBody {
    actor: Box<dyn Actor<Msg>>,
    rng: SimRng,
    timers: TimerSlots,
    started: bool,
}

/// One peer task.
struct TaskCell {
    state: AtomicU8,
    /// Inbound messages, pushed by the poll thread.
    mailbox: Mutex<VecDeque<(ActorId, Msg)>>,
    /// Timers that reached their deadline, pushed by the poll thread;
    /// generation-checked against [`TimerSlots`] when the task runs.
    due: Mutex<Vec<(TimerId, u64)>>,
    body: Mutex<Option<TaskBody>>,
}

impl TaskCell {
    /// Record that new work exists; returns true when the caller must
    /// push the task onto the ready queue (IDLE → QUEUED edge).
    fn notify(&self) -> bool {
        loop {
            match self.state.compare_exchange_weak(
                IDLE,
                QUEUED,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(QUEUED) | Err(RUNNING_DIRTY) => return false,
                Err(RUNNING) => {
                    if self
                        .state
                        .compare_exchange_weak(
                            RUNNING,
                            RUNNING_DIRTY,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        return false;
                    }
                }
                Err(_) => std::hint::spin_loop(),
            }
        }
    }
}

/// Generation-stamped per-task timer slots: a [`TimerId`] packs
/// `slot << 32 | generation`, so cancel/fire of a stale id is a cheap
/// mismatch instead of a tombstone that must be remembered forever.
#[derive(Default)]
pub(crate) struct TimerSlots {
    gens: Vec<u32>,
    live: Vec<bool>,
    free: Vec<u32>,
}

impl TimerSlots {
    /// Claim a slot for a newly armed timer.
    pub(crate) fn arm(&mut self) -> TimerId {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.gens.push(0);
            self.live.push(false);
            (self.gens.len() - 1) as u32
        }) as usize;
        self.live[slot] = true;
        TimerId(((slot as u64) << 32) | u64::from(self.gens[slot]))
    }

    /// Consume a timer id (cancel or fire). True exactly once per armed
    /// id: stale/double takes return false.
    pub(crate) fn take(&mut self, t: TimerId) -> bool {
        let slot = (t.0 >> 32) as usize;
        let gen = t.0 as u32;
        if self.live.get(slot).copied() == Some(true) && self.gens[slot] == gen {
            self.live[slot] = false;
            self.gens[slot] = self.gens[slot].wrapping_add(1);
            self.free.push(slot as u32);
            true
        } else {
            false
        }
    }
}

/// One pending timer in the [`TimerService`] min-heap:
/// `(deadline_nanos, task, timer, tag)` under `Reverse` ordering.
type TimerEntry = std::cmp::Reverse<(u64, u32, u64, u64)>;

/// A watched task: `(task index, completion predicate)`; the predicate
/// raising true signals session done.
pub(crate) type Watch = (u32, Box<WatchFn>);

/// The session-wide timer plane: one min-heap of
/// `(deadline_nanos, task, timer, tag)` drained by the poll thread,
/// with an eventfd wake so arming an *earlier* deadline interrupts the
/// poller's sleep.
pub(crate) struct TimerService {
    heap: Mutex<BinaryHeap<TimerEntry>>,
    /// The deadline the poller is currently sleeping toward
    /// (`u64::MAX` = no timers, 0 = poller awake and recomputing).
    next_wake: AtomicU64,
    wake: EventFd,
}

impl TimerService {
    fn new() -> std::io::Result<TimerService> {
        Ok(TimerService {
            heap: Mutex::new(BinaryHeap::new()),
            next_wake: AtomicU64::new(0),
            wake: EventFd::new()?,
        })
    }

    /// Register a timer; wakes the poller when this deadline precedes
    /// the one it is sleeping toward.
    fn arm(&self, deadline: u64, task: u32, timer: TimerId, tag: u64) {
        self.heap
            .lock()
            .expect("timer heap poisoned")
            .push(std::cmp::Reverse((deadline, task, timer.0, tag)));
        if deadline < self.next_wake.load(Ordering::Acquire) {
            self.wake.signal();
        }
    }

    /// Pop every deadline `<= now` into `out`; returns the next pending
    /// deadline, if any. Poll-thread only.
    fn pop_due(&self, now: u64, out: &mut Vec<(u32, TimerId, u64)>) -> Option<u64> {
        let mut heap = self.heap.lock().expect("timer heap poisoned");
        while let Some(std::cmp::Reverse((d, task, timer, tag))) = heap.peek().copied() {
            if d > now {
                return Some(d);
            }
            heap.pop();
            out.push((task, TimerId(timer), tag));
        }
        None
    }

    /// Publish the deadline the poller is about to sleep toward, then
    /// re-check the heap: an `arm` racing between the heap read and
    /// this store saw the stale `next_wake` and may not have signaled,
    /// so a now-earlier head means "don't sleep, recompute".
    fn publish_sleep(&self, target: u64) -> bool {
        self.next_wake.store(target, Ordering::Release);
        let heap = self.heap.lock().expect("timer heap poisoned");
        match heap.peek() {
            Some(std::cmp::Reverse((d, ..))) => *d >= target,
            None => true,
        }
    }

    /// Mark the poller awake (arms stop signaling) and drain the wake fd.
    fn mark_awake(&self) {
        self.next_wake.store(0, Ordering::Release);
        self.wake.drain();
    }

    pub(crate) fn wake_fd(&self) -> &EventFd {
        &self.wake
    }
}

/// Where a task step's outbound messages go. The live plane encodes and
/// `sendmmsg`-bursts them; tests can loop them straight back into the
/// scheduler.
pub(crate) trait OutboxSink {
    /// Deliver every `(to, msg)` pair, draining `out`.
    fn flush(&mut self, from: ActorId, out: &mut Vec<(ActorId, Msg)>, metrics: &mut Metrics);
}

/// The blocking ready queue shared by all workers.
struct ReadyQueue {
    q: Mutex<VecDeque<u32>>,
    cv: Condvar,
}

/// The scheduler: task table + ready queue + timer plane for one live
/// session. Shared by the poll thread and every worker via `Arc`.
pub(crate) struct Scheduler {
    cells: Vec<TaskCell>,
    queue: ReadyQueue,
    pub(crate) timers: TimerService,
    epoch: Instant,
    /// Completion predicate for one watched task (the leaf).
    watch: Option<Watch>,
    ctl: Arc<SessionControl>,
}

/// The [`Runtime`] a task sees while being stepped: sends buffer into
/// the worker's outbox, timers go to the shared [`TimerService`].
struct RqRuntime<'a> {
    me: ActorId,
    task: u32,
    epoch: Instant,
    n_actors: usize,
    outbox: &'a mut Vec<(ActorId, Msg)>,
    timers: &'a mut TimerSlots,
    svc: &'a TimerService,
    rng: &'a mut SimRng,
    metrics: &'a mut Metrics,
}

impl Runtime<Msg> for RqRuntime<'_> {
    fn id(&self) -> ActorId {
        self.me
    }

    fn now(&self) -> SimTime {
        SimTime(self.epoch.elapsed().as_nanos() as u64)
    }

    fn actor_count(&self) -> usize {
        self.n_actors
    }

    fn is_alive(&self, _actor: ActorId) -> bool {
        true // live runtimes have no failure oracle
    }

    fn send(&mut self, to: ActorId, msg: Msg) {
        self.metrics.incr_id(metrics::NET_SENT_ID);
        self.metrics
            .add_id(metrics::NET_BYTES_SENT_ID, msg.wire_size() as u64);
        self.outbox.push((to, msg));
    }

    fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        let deadline = self.now().as_nanos().saturating_add(delay.as_nanos());
        let id = self.timers.arm();
        self.svc.arm(deadline, self.task, id, tag);
        id
    }

    fn cancel_timer(&mut self, timer: TimerId) {
        self.timers.take(timer);
    }

    fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    fn metrics(&mut self) -> &mut Metrics {
        self.metrics
    }

    fn send_batch(&mut self, batch: &mut Vec<(ActorId, Msg)>) {
        // One counter pass for the whole fan-out; the actual wire burst
        // happens when the worker flushes the outbox after this step.
        let mut bytes = 0u64;
        for (_, msg) in batch.iter() {
            bytes += msg.wire_size() as u64;
        }
        self.metrics
            .add_id(metrics::NET_SENT_ID, batch.len() as u64);
        self.metrics.add_id(metrics::NET_BYTES_SENT_ID, bytes);
        self.outbox.append(batch);
    }
}

impl Scheduler {
    /// Build the task table. `actors[i]` becomes task `i` with actor id
    /// `ActorId(i)` and its own RNG stream forked from `seed`.
    pub(crate) fn new(
        actors: Vec<Box<dyn Actor<Msg>>>,
        seed: u64,
        epoch: Instant,
        ctl: Arc<SessionControl>,
        watch: Option<Watch>,
    ) -> std::io::Result<Scheduler> {
        let cells = actors
            .into_iter()
            .enumerate()
            .map(|(i, actor)| TaskCell {
                state: AtomicU8::new(IDLE),
                mailbox: Mutex::new(VecDeque::new()),
                due: Mutex::new(Vec::new()),
                body: Mutex::new(Some(TaskBody {
                    actor,
                    rng: SimRng::new(seed).fork(0x4E45_5452_544D ^ (i as u64)),
                    timers: TimerSlots::default(),
                    started: false,
                })),
            })
            .collect();
        Ok(Scheduler {
            cells,
            queue: ReadyQueue {
                q: Mutex::new(VecDeque::new()),
                cv: Condvar::new(),
            },
            timers: TimerService::new()?,
            epoch,
            watch,
            ctl,
        })
    }

    pub(crate) fn task_count(&self) -> usize {
        self.cells.len()
    }

    /// Nanoseconds since the session epoch.
    pub(crate) fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Put `task` on the ready queue if it is not already scheduled.
    pub(crate) fn schedule(&self, task: u32) {
        if self.cells[task as usize].notify() {
            self.queue
                .q
                .lock()
                .expect("ready queue poisoned")
                .push_back(task);
            self.queue.cv.notify_one();
        }
    }

    /// Enqueue every task once so `on_start` runs.
    pub(crate) fn seed_all(&self) {
        for t in 0..self.cells.len() as u32 {
            self.schedule(t);
        }
    }

    /// Deliver one inbound message to `task`'s mailbox and schedule it.
    /// Returns the mailbox depth after the push (for high-water stats).
    pub(crate) fn deliver(&self, task: u32, from: ActorId, msg: Msg) -> usize {
        let Some(cell) = self.cells.get(task as usize) else {
            return 0;
        };
        let depth = {
            let mut mb = cell.mailbox.lock().expect("mailbox poisoned");
            mb.push_back((from, msg));
            mb.len()
        };
        self.schedule(task);
        depth
    }

    /// Poll-thread timer pump: move every due timer into its task's due
    /// list and schedule the task. Returns the next pending deadline.
    pub(crate) fn fire_due(&self, now: u64, scratch: &mut Vec<(u32, TimerId, u64)>) -> Option<u64> {
        scratch.clear();
        let next = self.timers.pop_due(now, scratch);
        for &(task, timer, tag) in scratch.iter() {
            if let Some(cell) = self.cells.get(task as usize) {
                cell.due
                    .lock()
                    .expect("due list poisoned")
                    .push((timer, tag));
                self.schedule(task);
            }
        }
        next
    }

    /// See [`TimerService::publish_sleep`]: false means "recompute, do
    /// not sleep".
    pub(crate) fn publish_sleep(&self, target: u64) -> bool {
        self.timers.publish_sleep(target)
    }

    /// Mark the poll thread awake and drain its wake fd.
    pub(crate) fn mark_awake(&self) {
        self.timers.mark_awake();
    }

    /// Worker-side blocking pop. Returns `None` once the session stops.
    pub(crate) fn next_task(&self) -> Option<u32> {
        let mut q = self.queue.q.lock().expect("ready queue poisoned");
        loop {
            if self.ctl.should_stop() {
                return None;
            }
            if let Some(t) = q.pop_front() {
                return Some(t);
            }
            // Short wait + recheck keeps shutdown responsive without a
            // second wake channel.
            let (guard, _) = self
                .queue
                .cv
                .wait_timeout(q, Duration::from_millis(10))
                .expect("ready queue poisoned");
            q = guard;
        }
    }

    /// Wake every worker blocked in [`Scheduler::next_task`] (shutdown).
    pub(crate) fn wake_workers(&self) {
        self.queue.cv.notify_all();
    }

    /// Run one scheduling turn of `task`: fire its due timers, drain up
    /// to [`STEP_BUDGET`] mailbox messages, flush the outbox through
    /// `sink`, then yield (back to IDLE, or re-queued when work
    /// remains). Returns the number of events processed.
    pub(crate) fn run_step(
        &self,
        task: u32,
        sink: &mut dyn OutboxSink,
        metrics: &mut Metrics,
        outbox: &mut Vec<(ActorId, Msg)>,
    ) -> usize {
        let cell = &self.cells[task as usize];
        cell.state.store(RUNNING, Ordering::Release);

        let me = ActorId(task);
        let n_actors = self.cells.len();
        let mut events = 0usize;
        {
            let mut body_slot = cell.body.lock().expect("task body poisoned");
            let body = body_slot.as_mut().expect("task body taken mid-session");
            let TaskBody {
                actor,
                rng,
                timers,
                started,
            } = body;

            macro_rules! rt {
                () => {
                    RqRuntime {
                        me,
                        task,
                        epoch: self.epoch,
                        n_actors,
                        outbox: &mut *outbox,
                        timers: &mut *timers,
                        svc: &self.timers,
                        rng: &mut *rng,
                        metrics: &mut *metrics,
                    }
                };
            }

            if !*started {
                *started = true;
                actor.on_start(&mut rt!());
                events += 1;
            }

            // Due timers first (they are few; all of them count against
            // the budget but are never deferred — a deferred deadline
            // would just re-fire immediately anyway).
            let due: Vec<(TimerId, u64)> =
                std::mem::take(&mut *cell.due.lock().expect("due list poisoned"));
            for (tid, tag) in due {
                if timers.take(tid) {
                    actor.on_timer(&mut rt!(), tid, tag);
                    events += 1;
                }
            }

            // Mailbox, up to the step budget.
            while events < STEP_BUDGET {
                let next = cell.mailbox.lock().expect("mailbox poisoned").pop_front();
                let Some((from, msg)) = next else { break };
                actor.on_message(&mut rt!(), from, msg);
                events += 1;
            }

            if let Some((watched, pred)) = &self.watch {
                if *watched == task && events > 0 && pred(actor.as_ref()) {
                    self.ctl.signal_done();
                }
            }
        }

        // One burst per scheduling turn: the whole fan-out of this step
        // leaves in a single batched flush.
        if !outbox.is_empty() {
            sink.flush(me, outbox, metrics);
        }

        // Yield: IDLE when drained, otherwise straight back on the queue.
        let pending = {
            !cell.mailbox.lock().expect("mailbox poisoned").is_empty()
                || !cell.due.lock().expect("due list poisoned").is_empty()
        };
        if pending {
            cell.state.store(QUEUED, Ordering::Release);
            self.queue
                .q
                .lock()
                .expect("ready queue poisoned")
                .push_back(task);
            self.queue.cv.notify_one();
        } else if cell
            .state
            .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            // New work arrived while running (RUNNING_DIRTY): requeue.
            cell.state.store(QUEUED, Ordering::Release);
            self.queue
                .q
                .lock()
                .expect("ready queue poisoned")
                .push_back(task);
            self.queue.cv.notify_one();
        }
        events
    }

    /// Remove a task's actor after shutdown (for report extraction).
    pub(crate) fn take_actor(&self, task: u32) -> Option<Box<dyn Actor<Msg>>> {
        self.cells
            .get(task as usize)?
            .body
            .lock()
            .expect("task body poisoned")
            .take()
            .map(|b| b.actor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_sim::impl_as_any;

    #[test]
    fn timer_slots_take_exactly_once() {
        let mut s = TimerSlots::default();
        let a = s.arm();
        let b = s.arm();
        assert!(s.take(a));
        assert!(!s.take(a), "double take must miss");
        let c = s.arm(); // reuses a's slot with a bumped generation
        assert!(s.take(b));
        assert!(s.take(c));
        assert!(!s.take(a), "stale generation must miss");
    }

    /// An actor that counts everything and echoes each message back.
    struct Echo {
        got: usize,
        timers: usize,
    }
    impl Actor<Msg> for Echo {
        fn on_start(&mut self, rt: &mut dyn Runtime<Msg>) {
            rt.set_timer(SimDuration::from_millis(1), 7);
        }
        fn on_message(&mut self, _rt: &mut dyn Runtime<Msg>, _from: ActorId, _msg: Msg) {
            self.got += 1;
        }
        fn on_timer(&mut self, _rt: &mut dyn Runtime<Msg>, _t: TimerId, tag: u64) {
            assert_eq!(tag, 7);
            self.timers += 1;
        }
        impl_as_any!();
    }

    /// Sink that drops everything (Echo never sends anyway).
    struct NullSink;
    impl OutboxSink for NullSink {
        fn flush(&mut self, _f: ActorId, out: &mut Vec<(ActorId, Msg)>, _m: &mut Metrics) {
            out.clear();
        }
    }

    #[test]
    fn mailbox_and_timers_drive_a_task() {
        let ctl = Arc::new(SessionControl::default());
        let sched = Scheduler::new(
            vec![Box::new(Echo { got: 0, timers: 0 })],
            1,
            Instant::now(),
            Arc::clone(&ctl),
            None,
        )
        .unwrap();
        sched.seed_all();
        let mut m = Metrics::new();
        let mut out = Vec::new();
        // First turn runs on_start (arms the 1 ms timer).
        let t = sched.next_task().unwrap();
        sched.run_step(t, &mut NullSink, &mut m, &mut out);

        // Deliver two messages; the task must be scheduled exactly once.
        let probe = |wave| {
            Msg::Reply(mss_core::msg::ProbeReply {
                from: mss_overlay::PeerId(0),
                accept: true,
                wave,
            })
        };
        sched.deliver(0, ActorId(0), probe(1));
        sched.deliver(0, ActorId(0), probe(2));
        let t = sched.next_task().unwrap();
        sched.run_step(t, &mut NullSink, &mut m, &mut out);

        // Pump the timer plane past the deadline.
        std::thread::sleep(Duration::from_millis(3));
        let mut scratch = Vec::new();
        sched.fire_due(sched.now(), &mut scratch);
        let t = sched.next_task().unwrap();
        sched.run_step(t, &mut NullSink, &mut m, &mut out);

        let actor = sched.take_actor(0).unwrap();
        let echo: &Echo = actor.as_any().downcast_ref().unwrap();
        assert_eq!(echo.got, 2);
        assert_eq!(echo.timers, 1);
    }
}
