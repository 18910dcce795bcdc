//! The event kernel: a priority queue of timed events plus a set of
//! cooperative simulated processes.
//!
//! Every simulated process is a stackful coroutine ([`crate::coro`]), and
//! all of them run on the one OS thread that calls [`Simulation::run`], so
//! **exactly one** of them runs at any instant. Event ordering is
//! `(time, insertion sequence)`, so identical programs produce identical
//! schedules — the whole simulation is a deterministic function of its
//! inputs.
//!
//! ## Dispatch model: one scheduler loop
//!
//! [`Simulation::run`] is a plain loop on the caller's stack. It pops the
//! next event under the state lock, then — with the lock released —
//! either runs the device callbacks ([`Event::Call`]) inline, batching
//! runs of same-timestamp callbacks under a single lock acquisition, or,
//! for an [`Event::Wake`], switches into that process's coroutine. The
//! process runs until it parks ([`Proc`]'s blocking calls all end in a
//! switch back to the loop) or its body ends. A wake therefore costs two
//! user-space register switches and no OS scheduling at all.
//!
//! ## Inline wake
//!
//! A process that calls [`Proc::advance`] while every queued event is
//! strictly later than its target time (or the queue is empty) would be
//! woken by the very next pop. [`KernelState::try_inline_wake`] skips that
//! round trip: under the state lock it does exactly the bookkeeping push +
//! pop + dispatch would do — `seq`, `max_queue_depth` as if pushed, the
//! clock and its mirror, `events_processed`, `wakes_executed` and the
//! schedule-hash fold — and `advance` returns without switching. A wake
//! tied on time with a queued event, a run at its event limit and a run in
//! teardown all take the queue, so every count and `schedule_hash` is the
//! same as without the shortcut.
//!
//! Panics never unwind across a switch: a process body runs under
//! `catch_unwind` on its own stack, and the loop runs each callback batch
//! under `catch_unwind` on the caller's. Either kind of panic ends the run
//! with [`SimError::ProcPanic`].
//!
//! Hot-path state ([`KernelState`]) sits behind a mutex because handles
//! are `Send` and may be used from any thread before `run`; during a run
//! it is uncontended by construction. The loop never holds the guard
//! across a switch — a std mutex re-locked on one thread deadlocks.
//!
//! ## Teardown
//!
//! Once the outcome is decided, every unfinished process is resumed with
//! [`Go::Shutdown`], one at a time in spawn order: the loop keeps resuming
//! the same process (each park returns `Shutdown` again) until its body
//! ends, and only then moves to the next. A process that parks while
//! unwinding therefore never hands the thread — and with it the
//! thread-local "panicking" flag that `Drop` impls consult — to another
//! process.
//!
//! ## Clock monotonicity
//!
//! Virtual time never moves backwards. [`KernelState::push_event`] clamps
//! past-stamped events to `now` and counts them (`sched_past`); the
//! dispatch loop asserts monotonicity in all build profiles. (The previous
//! kernel only `debug_assert`ed, so a release build could silently rewind
//! the clock and corrupt every latency measurement downstream.)

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::coro::{Coroutine, Outcome};
use crate::handle::SimHandle;
use crate::proc::{Proc, ShutdownUnwind};
use crate::queue::{default_queue_kind, EventQueue, QueueKind};
use crate::sync::Mutex;
use crate::time::Time;

/// Identifies a simulated process.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ProcId(pub(crate) u32);

impl ProcId {
    /// Dense index of this process (spawn order).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ProcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "proc#{}", self.0)
    }
}

/// Command handed to a parked process when it is woken.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum Go {
    Run = 0,
    Shutdown = 1,
}

impl Go {
    /// Decode the value a coroutine switch carried (`Go as usize`).
    pub(crate) fn from_raw(raw: usize) -> Go {
        if raw == Go::Run as usize {
            Go::Run
        } else {
            Go::Shutdown
        }
    }
}

/// Why a parked process is parked. Used by the termination logic: when the
/// event queue is empty no process can be parked on a timer.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum ParkKind {
    /// Not parked (running, or never started).
    Running,
    /// Waiting for a `Wake` already in the event queue (e.g. `advance`).
    Timer,
    /// Waiting for a [`crate::Signal`] with the given id.
    Signal(u64),
}

pub(crate) type CallFn = Box<dyn FnOnce(&SimHandle) + Send>;

pub(crate) enum Event {
    Wake(ProcId),
    Call(CallFn),
}

pub(crate) struct ProcSlot {
    pub name: String,
    pub daemon: bool,
    pub finished: bool,
    pub park: ParkKind,
    /// The process's execution context; dropped once the body has ended.
    pub coro: Option<Arc<Coroutine>>,
}

impl ProcSlot {
    fn coro_ptr(&self) -> *const Coroutine {
        Arc::as_ptr(
            self.coro
                .as_ref()
                .expect("unfinished process has a coroutine"),
        )
    }
}

/// Chunked slab for [`ProcSlot`]s: pushes never move existing slots, so
/// spawn-heavy churn workloads (thousands of short-lived ranks) stop
/// paying reallocation copies of the whole process table.
pub(crate) struct ProcArena {
    chunks: Vec<Vec<ProcSlot>>,
    len: usize,
}

const ARENA_CHUNK: usize = 128;

impl ProcArena {
    fn new() -> ProcArena {
        ProcArena {
            chunks: Vec::new(),
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn push(&mut self, slot: ProcSlot) -> usize {
        if self.chunks.last().is_none_or(|c| c.len() == ARENA_CHUNK) {
            self.chunks.push(Vec::with_capacity(ARENA_CHUNK));
        }
        self.chunks.last_mut().unwrap().push(slot);
        self.len += 1;
        self.len - 1
    }

    #[inline]
    pub(crate) fn get(&self, idx: usize) -> &ProcSlot {
        &self.chunks[idx / ARENA_CHUNK][idx % ARENA_CHUNK]
    }

    #[inline]
    pub(crate) fn get_mut(&mut self, idx: usize) -> &mut ProcSlot {
        &mut self.chunks[idx / ARENA_CHUNK][idx % ARENA_CHUNK]
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &ProcSlot)> {
        self.chunks.iter().flatten().enumerate()
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut ProcSlot> {
        self.chunks.iter_mut().flatten()
    }
}

/// FNV-1a offset basis / prime for the schedule hash.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Schedule-hash tags, one per dispatch category.
const HASH_CALL: u64 = 1;
const HASH_WAKE: u64 = 2;
const HASH_STALE: u64 = 3;

pub(crate) struct KernelState {
    pub now: Time,
    pub seq: u64,
    pub queue: EventQueue,
    pub procs: ProcArena,
    /// Daemons are being shut down; waits observe `Wait::Shutdown`.
    pub shutdown: bool,
    /// The run outcome is decided; no further event is dispatched.
    pub teardown: bool,
    pub result: Option<Result<Report, SimError>>,
    pub events_processed: u64,
    pub event_limit: u64,
    pub next_signal_id: u64,
    /// High-water mark of the event-queue length (profiling).
    pub max_queue_depth: usize,
    /// Process wakeups executed (vs. device-callback events).
    pub wakes_executed: u64,
    /// Device-callback closures executed (the `Event::Call` category).
    pub calls_executed: u64,
    /// Wakes popped for already-finished processes (skipped, and excluded
    /// from the headline events/s figure).
    pub stale_wakes: u64,
    /// Events whose requested timestamp was in the past and was clamped to
    /// `now` instead of rewinding the clock.
    pub sched_past: u64,
    /// Running FNV-1a fold of every dispatched event `(time, kind, proc)` —
    /// the determinism fingerprint compared across queue implementations.
    pub schedule_hash: u64,
}

impl KernelState {
    /// Queue `ev` at `at` (clamped to `now`: the virtual clock is monotone
    /// as a hard invariant, and a past-stamped event is counted in
    /// `sched_past` rather than silently rewinding time). Returns the
    /// unique `(time, seq)` key of the queued event.
    pub(crate) fn push_event(&mut self, at: Time, ev: Event) -> (Time, u64) {
        let at = if at < self.now {
            self.sched_past += 1;
            self.now
        } else {
            at
        };
        let key = (at, self.seq);
        self.seq += 1;
        self.queue.insert(at, key.1, ev);
        self.max_queue_depth = self.max_queue_depth.max(self.queue.len());
        key
    }

    /// Dispatch the wake of `pid` at `at` in place when it is provably the
    /// next event (see "Inline wake" in the module docs). Returns false,
    /// with nothing changed, when the wake must be queued instead.
    pub(crate) fn try_inline_wake(&mut self, now_ns: &AtomicU64, at: Time, pid: ProcId) -> bool {
        if self.teardown
            || self.events_processed >= self.event_limit
            || self.queue.peek_time().is_some_and(|next| next <= at)
        {
            return false;
        }
        self.seq += 1;
        self.max_queue_depth = self.max_queue_depth.max(self.queue.len() + 1);
        self.now = at;
        now_ns.store(at.as_ns(), Ordering::Release);
        self.events_processed += 1;
        self.wakes_executed += 1;
        self.fold_hash(at, HASH_WAKE, pid.0 as u64);
        true
    }

    #[inline]
    fn fold_hash(&mut self, t: Time, tag: u64, pid: u64) {
        let mut h = self.schedule_hash;
        for v in [t.as_ns(), (tag << 32) | pid] {
            h ^= v;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.schedule_hash = h;
    }

    /// Decide the run outcome (first decision wins) and stop dispatching.
    fn finish(&mut self, result: Result<Report, SimError>) {
        if self.result.is_none() {
            self.result = Some(result);
        }
        self.teardown = true;
    }

    fn report(&self) -> Report {
        Report {
            end_time: self.now,
            events_processed: self.events_processed,
            procs_spawned: self.procs.len(),
            max_queue_depth: self.max_queue_depth,
            wakes_executed: self.wakes_executed,
            calls_executed: self.calls_executed,
            stale_wakes: self.stale_wakes,
            sched_past: self.sched_past,
            schedule_hash: self.schedule_hash,
            wall_ns: 0, // filled in by `run`
        }
    }
}

pub(crate) struct Shared {
    pub state: Mutex<KernelState>,
    /// Mirror of `state.now` for lock-free clock reads (`SimHandle::now`).
    pub now_ns: AtomicU64,
}

/// The `proc` of a [`SimError::ProcPanic`] raised by a device callback
/// rather than by a process body.
pub const CALLBACK_PROC: &str = "<device callback>";

/// Error terminating a simulation run.
#[derive(Debug)]
pub enum SimError {
    /// A simulated process panicked.
    ProcPanic {
        /// Name the process was spawned with, or [`CALLBACK_PROC`] when a
        /// device callback panicked.
        proc: String,
        /// The panic payload, stringified.
        message: String,
    },
    /// The event queue drained while non-daemon processes were still parked.
    Deadlock {
        /// Names of the parked processes.
        parked: Vec<String>,
    },
    /// More events were processed than the configured limit (runaway guard).
    EventLimit {
        /// The configured event limit.
        limit: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::ProcPanic { proc, message } => {
                write!(f, "simulated process `{proc}` panicked: {message}")
            }
            SimError::Deadlock { parked } => write!(
                f,
                "simulation deadlock: event queue empty but processes parked: {}",
                parked.join(", ")
            ),
            SimError::EventLimit { limit } => {
                write!(f, "simulation exceeded event limit of {limit}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Summary of a completed run, including the kernel-level profile the
/// telemetry layer surfaces next to per-endpoint metrics.
#[derive(Debug, Clone)]
pub struct Report {
    /// Virtual time at which the last event executed.
    pub end_time: Time,
    /// Number of events the kernel dispatched (including skipped stale
    /// wakes, matching the event-limit accounting).
    pub events_processed: u64,
    /// Total simulated processes created over the run.
    pub procs_spawned: usize,
    /// High-water mark of event-queue occupancy over the run.
    pub max_queue_depth: usize,
    /// Process wakeups actually executed (stale wakes for finished
    /// processes are *not* counted here — they are `stale_wakes`).
    pub wakes_executed: u64,
    /// Device-callback events among the executed events.
    pub calls_executed: u64,
    /// Wakes popped for already-finished processes: skipped, counted
    /// separately, and excluded from [`Report::events_per_sec`].
    pub stale_wakes: u64,
    /// Events scheduled with a past timestamp and clamped to `now`.
    pub sched_past: u64,
    /// FNV-1a fold of the full dispatch schedule `(time, kind, proc)`;
    /// equal hashes mean bit-identical schedules.
    pub schedule_hash: u64,
    /// Wall-clock time the kernel spent driving the run, in nanoseconds.
    pub wall_ns: u64,
}

impl Report {
    /// Simulated events executed per wall-clock second — the headline
    /// throughput figure for the simulator itself. Stale wakes (skipped
    /// no-ops) are excluded so the figure counts only real work.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            let executed = self.events_processed - self.stale_wakes;
            executed as f64 * 1e9 / self.wall_ns as f64
        }
    }
}

/// What the scheduler loop does next, decided under the state lock.
enum Step {
    /// Run the batch of same-timestamp callbacks just collected.
    Calls,
    /// Switch into a process with the given command. The pointer comes
    /// from the process's slot, whose `Arc` keeps the coroutine alive until
    /// [`resume`] sees it finish.
    Resume(ProcId, *const Coroutine, Go),
    /// The run outcome is decided.
    Ended,
}

/// Pop the next event(s) and decide the next [`Step`]. Callbacks are moved
/// into `calls`; the guard is released before anything runs.
fn next_step(shared: &Shared, calls: &mut Vec<CallFn>) -> Step {
    let mut st = shared.state.lock();
    if st.teardown {
        return Step::Ended;
    }
    loop {
        if st.events_processed >= st.event_limit {
            let limit = st.event_limit;
            st.finish(Err(SimError::EventLimit { limit }));
            return Step::Ended;
        }
        let Some((t, _seq, ev)) = st.queue.pop() else {
            // Queue drained: completion, daemon shutdown, or deadlock.
            // Every unfinished process is parked (only the loop runs).
            let mut parked_nondaemon = Vec::new();
            let mut first_daemon = None;
            for (idx, slot) in st.procs.iter() {
                if slot.finished {
                    continue;
                }
                if slot.daemon {
                    if first_daemon.is_none() {
                        first_daemon = Some(idx);
                    }
                } else {
                    parked_nondaemon.push(slot.name.clone());
                }
            }
            if !parked_nondaemon.is_empty() {
                st.finish(Err(SimError::Deadlock {
                    parked: parked_nondaemon,
                }));
                return Step::Ended;
            }
            let Some(idx) = first_daemon else {
                let report = st.report();
                st.finish(Ok(report));
                return Step::Ended;
            };
            // Shut daemons down one at a time, in spawn order; each one
            // finishing brings the loop back here for the next.
            st.shutdown = true;
            let slot = st.procs.get_mut(idx);
            slot.park = ParkKind::Running;
            return Step::Resume(ProcId(idx as u32), slot.coro_ptr(), Go::Shutdown);
        };
        // Hard invariant in every build profile: the virtual clock is
        // monotone (push_event clamps, so this can only fire on a kernel
        // bug).
        assert!(t >= st.now, "virtual clock would move backwards");
        st.now = t;
        shared.now_ns.store(t.as_ns(), Ordering::Release);
        st.events_processed += 1;
        match ev {
            Event::Call(f) => {
                st.calls_executed += 1;
                st.fold_hash(t, HASH_CALL, 0);
                calls.push(f);
                // Batch-drain the run of same-timestamp callbacks without
                // re-locking between them.
                while st.events_processed < st.event_limit && st.queue.next_is_call_at(t) {
                    let Some((_, _, Event::Call(f2))) = st.queue.pop() else {
                        unreachable!("probe said next is a call");
                    };
                    st.events_processed += 1;
                    st.calls_executed += 1;
                    st.fold_hash(t, HASH_CALL, 0);
                    calls.push(f2);
                }
                return Step::Calls;
            }
            Event::Wake(pid) => {
                let slot = st.procs.get_mut(pid.index());
                if slot.finished {
                    // A stale wake (e.g. the leftover timer of a wait that
                    // raced its signal): skip it, and keep it out of the
                    // headline throughput.
                    st.stale_wakes += 1;
                    st.fold_hash(t, HASH_STALE, pid.0 as u64);
                    continue;
                }
                slot.park = ParkKind::Running;
                let coro = slot.coro_ptr();
                st.wakes_executed += 1;
                st.fold_hash(t, HASH_WAKE, pid.0 as u64);
                return Step::Resume(pid, coro, Go::Run);
            }
        }
    }
}

/// Switch into `pid` until it parks or finishes; on finish, mark it done
/// and record a real panic as the run outcome.
fn resume(shared: &Shared, pid: ProcId, coro: *const Coroutine, go: Go) {
    // SAFETY: see `Step::Resume`; only this function takes the `Arc` out
    // of the slot, after the coroutine has finished, and the kernel-state
    // guard is not held across the switch.
    let Some(outcome) = unsafe { &*coro }.resume(go) else {
        return;
    };
    let panic_msg = panic_message(outcome);
    let mut st = shared.state.lock();
    let slot = st.procs.get_mut(pid.index());
    slot.finished = true;
    slot.coro = None;
    if let Some(message) = panic_msg {
        let proc = slot.name.clone();
        st.finish(Err(SimError::ProcPanic { proc, message }));
    }
}

/// The message of a real panic; `None` for a clean return or the forced
/// unwind of teardown.
fn panic_message(outcome: Outcome) -> Option<String> {
    let payload = outcome.err()?;
    if payload.is::<ShutdownUnwind>() {
        return None;
    }
    Some(payload_to_string(&*payload))
}

pub(crate) fn spawn_proc(
    shared: &Arc<Shared>,
    name: &str,
    daemon: bool,
    f: impl FnOnce(Proc) + Send + 'static,
) -> ProcId {
    let mut st = shared.state.lock();
    let pid = ProcId(st.procs.len() as u32);
    let shared2 = shared.clone();
    let coro = Coroutine::new(Box::new(move |coro| f(Proc::new(pid, shared2, coro))));
    st.procs.push(ProcSlot {
        name: name.to_string(),
        daemon,
        finished: false,
        park: ParkKind::Timer, // will be woken by the spawn event
        coro: Some(coro),
    });
    let at = st.now;
    st.push_event(at, Event::Wake(pid));
    pid
}

fn payload_to_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// A whole simulation: build, spawn root processes, then [`Simulation::run`].
pub struct Simulation {
    shared: Arc<Shared>,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    /// A fresh simulation at t = 0 with an empty event queue, using the
    /// process-global default queue kind (see
    /// [`crate::set_default_queue_kind`]).
    pub fn new() -> Self {
        Self::with_queue(default_queue_kind())
    }

    /// A fresh simulation using a specific event-queue implementation.
    pub fn with_queue(kind: QueueKind) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(KernelState {
                now: Time::ZERO,
                seq: 0,
                queue: EventQueue::new(kind),
                procs: ProcArena::new(),
                shutdown: false,
                teardown: false,
                result: None,
                events_processed: 0,
                event_limit: u64::MAX,
                next_signal_id: 0,
                max_queue_depth: 0,
                wakes_executed: 0,
                calls_executed: 0,
                stale_wakes: 0,
                sched_past: 0,
                schedule_hash: FNV_OFFSET,
            }),
            now_ns: AtomicU64::new(0),
        });
        Simulation { shared }
    }

    /// Guard against runaway simulations (e.g. a polling loop that never
    /// advances time correctly would still consume events).
    pub fn set_event_limit(&self, limit: u64) {
        self.shared.state.lock().event_limit = limit;
    }

    /// Handle usable by device models and test scaffolding.
    pub fn handle(&self) -> SimHandle {
        SimHandle::new(self.shared.clone())
    }

    /// Spawn a root (non-daemon) simulated process starting at t=0.
    pub fn spawn(&self, name: &str, f: impl FnOnce(Proc) + Send + 'static) -> ProcId {
        spawn_proc(&self.shared, name, false, f)
    }

    /// Spawn a daemon process: the run ends once all non-daemon processes
    /// finish; parked daemons then observe `Wait::Shutdown`.
    pub fn spawn_daemon(&self, name: &str, f: impl FnOnce(Proc) + Send + 'static) -> ProcId {
        spawn_proc(&self.shared, name, true, f)
    }

    /// Drive the simulation to completion on the calling thread.
    pub fn run(self) -> Result<Report, SimError> {
        let started = std::time::Instant::now();
        let shared = &*self.shared;
        let handle = self.handle();
        let mut calls: Vec<CallFn> = Vec::new();
        loop {
            match next_step(shared, &mut calls) {
                Step::Calls => {
                    let batch = catch_unwind(AssertUnwindSafe(|| {
                        for f in calls.drain(..) {
                            f(&handle);
                        }
                    }));
                    if let Err(payload) = batch {
                        let message = payload_to_string(&*payload);
                        shared.state.lock().finish(Err(SimError::ProcPanic {
                            proc: CALLBACK_PROC.to_string(),
                            message,
                        }));
                    }
                }
                Step::Resume(pid, coro, go) => resume(shared, pid, coro, go),
                Step::Ended => break,
            }
        }
        // Teardown: resume each unfinished process with `Shutdown` until
        // its body ends (it may park again while unwinding), in spawn
        // order. Processes spawned during teardown join the end of the
        // scan.
        let mut idx = 0;
        loop {
            let coro = {
                let st = shared.state.lock();
                if idx == st.procs.len() {
                    break;
                }
                let slot = st.procs.get(idx);
                (!slot.finished).then(|| slot.coro_ptr())
            };
            match coro {
                Some(coro) => resume(shared, ProcId(idx as u32), coro, Go::Shutdown),
                None => idx += 1,
            }
        }
        let result = shared
            .state
            .lock()
            .result
            .take()
            .expect("run ended without a result");
        result.map(|mut report| {
            report.wall_ns = started.elapsed().as_nanos() as u64;
            report
        })
    }
}

impl Drop for Simulation {
    fn drop(&mut self) {
        // A simulation dropped without `run` still owns its unstarted
        // process bodies; drop them now (outside the lock, since their
        // captures may touch the kernel) rather than leaving them in a
        // cycle with any handle they captured.
        let coros: Vec<Arc<Coroutine>> = {
            let mut st = self.shared.state.lock();
            st.procs.iter_mut().filter_map(|s| s.coro.take()).collect()
        };
        drop(coros);
    }
}
