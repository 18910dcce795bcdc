//! [`Proc`] — the handle a simulated process uses to interact with virtual
//! time: advancing the clock, creating and waiting on signals, spawning
//! further processes.
//!
//! Every blocking call ends in [`Proc::park`]'s switch from the process's
//! coroutine back to the scheduler loop in [`crate::Simulation::run`];
//! the value the loop resumes it with says whether to carry on or to shut
//! down. The one exception is [`Proc::advance`] whose wake would be the
//! very next event: the kernel dispatches that wake inline (the *inline
//! wake*, see the kernel module docs) and the process never parks.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::coro::Coroutine;
use crate::handle::SimHandle;
use crate::kernel::{spawn_proc, Event, Go, ParkKind, ProcId, Shared};
use crate::signal::{Signal, SignalInner, TimedWait, Wait};
use crate::time::{Dur, Time};

/// Per-process handle. Not `Clone`: it belongs to the body of exactly one
/// process, and its blocking calls may only be made from that body.
pub struct Proc {
    pid: ProcId,
    shared: Arc<Shared>,
    coro: Arc<Coroutine>,
}

impl Proc {
    pub(crate) fn new(pid: ProcId, shared: Arc<Shared>, coro: Arc<Coroutine>) -> Self {
        Proc { pid, shared, coro }
    }

    /// This process's id.
    pub fn id(&self) -> ProcId {
        self.pid
    }

    /// A sharable handle for scheduling device callbacks.
    pub fn sim(&self) -> SimHandle {
        SimHandle::new(self.shared.clone())
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        Time::from_ns(self.shared.now_ns.load(Ordering::Acquire))
    }

    /// Model `d` of computation: the process gives up control and resumes
    /// once virtual time has advanced by `d`.
    ///
    /// When this wake is the next event anyway (nothing queued at or before
    /// the target time), the kernel dispatches it in place and the call
    /// returns without switching to the scheduler loop.
    pub fn advance(&self, d: Dur) {
        let target = {
            let mut st = self.shared.state.lock();
            let at = st.now + d;
            if st.try_inline_wake(&self.shared.now_ns, at, self.pid) {
                return;
            }
            st.push_event(at, Event::Wake(self.pid));
            st.procs.get_mut(self.pid.index()).park = ParkKind::Timer;
            at
        };
        loop {
            match self.park() {
                Go::Run => {
                    // The clock mirror is exact here: the scheduler stores
                    // it before every dispatch.
                    if self.now() >= target {
                        return;
                    }
                    let mut st = self.shared.state.lock();
                    // A stale wake (e.g. the leftover timer of an earlier
                    // `wait_timeout` that raced its signal): our own wake is
                    // still queued, so just park again until it arrives.
                    st.procs.get_mut(self.pid.index()).park = ParkKind::Timer;
                }
                // Forced shutdown while sleeping: unwind this process. The
                // kernel treats the unwind as process completion during
                // teardown.
                Go::Shutdown => std::panic::panic_any(ShutdownUnwind),
            }
        }
    }

    /// Create a signal owned by this process.
    pub fn signal(&self) -> Signal {
        let mut st = self.shared.state.lock();
        let id = st.next_signal_id;
        st.next_signal_id += 1;
        Signal {
            inner: Arc::new(SignalInner {
                id,
                owner: self.pid,
                pending: AtomicBool::new(false),
            }),
        }
    }

    /// Block until `s` is (or already was) notified.
    pub fn wait(&self, s: &Signal) -> Wait {
        assert_eq!(
            s.inner.owner, self.pid,
            "a process may only wait on signals it owns"
        );
        loop {
            {
                let mut st = self.shared.state.lock();
                if s.inner
                    .pending
                    .swap(false, std::sync::atomic::Ordering::Relaxed)
                {
                    return Wait::Signaled;
                }
                if st.shutdown {
                    return Wait::Shutdown;
                }
                st.procs.get_mut(self.pid.index()).park = ParkKind::Signal(s.inner.id);
            }
            match self.park() {
                Go::Run => continue,
                Go::Shutdown => return Wait::Shutdown,
            }
        }
    }

    /// Block until `s` is notified or `timeout` of virtual time elapses,
    /// whichever happens first.
    ///
    /// Used by progress watchdogs: the queued timeout event keeps the kernel
    /// from declaring deadlock while the owner is blocked, and on
    /// [`TimedWait::TimedOut`] the caller gets control back to inspect why
    /// no progress happened. On early return (signal or shutdown) the queued
    /// timer event is cancelled so it cannot later wake the process
    /// spuriously.
    pub fn wait_timeout(&self, s: &Signal, timeout: Dur) -> TimedWait {
        assert_eq!(
            s.inner.owner, self.pid,
            "a process may only wait on signals it owns"
        );
        let key = {
            let mut st = self.shared.state.lock();
            if s.inner
                .pending
                .swap(false, std::sync::atomic::Ordering::Relaxed)
            {
                return TimedWait::Signaled;
            }
            if st.shutdown {
                return TimedWait::Shutdown;
            }
            let at = st.now + timeout;
            st.push_event(at, Event::Wake(self.pid))
        };
        loop {
            {
                let mut st = self.shared.state.lock();
                if s.inner
                    .pending
                    .swap(false, std::sync::atomic::Ordering::Relaxed)
                {
                    st.queue.cancel(key);
                    return TimedWait::Signaled;
                }
                if st.shutdown {
                    st.queue.cancel(key);
                    return TimedWait::Shutdown;
                }
                if !st.queue.contains(key) {
                    // Our timer fired and nothing else woke us up.
                    return TimedWait::TimedOut;
                }
                st.procs.get_mut(self.pid.index()).park = ParkKind::Signal(s.inner.id);
            }
            match self.park() {
                Go::Run => continue,
                Go::Shutdown => {
                    self.shared.state.lock().queue.cancel(key);
                    return TimedWait::Shutdown;
                }
            }
        }
    }

    /// Wait with a modelled cost added once the signal fires (e.g. the cost
    /// of detecting a host event word after it is written).
    pub fn wait_then(&self, s: &Signal, detect_cost: Dur) -> Wait {
        let w = self.wait(s);
        if w == Wait::Signaled && detect_cost > Dur::ZERO {
            self.advance(detect_cost);
        }
        w
    }

    /// Spawn a sibling (non-daemon) process that starts at the current time.
    pub fn spawn(&self, name: &str, f: impl FnOnce(Proc) + Send + 'static) -> ProcId {
        spawn_proc(&self.shared, name, false, f)
    }

    /// Spawn a daemon process (e.g. an asynchronous progress thread).
    pub fn spawn_daemon(&self, name: &str, f: impl FnOnce(Proc) + Send + 'static) -> ProcId {
        spawn_proc(&self.shared, name, true, f)
    }

    /// Schedule a device callback after `delay`.
    pub fn call_after(&self, delay: Dur, f: impl FnOnce(&SimHandle) + Send + 'static) {
        self.sim().call_after(delay, f);
    }

    /// Give up control: switch back to the scheduler loop until it resumes
    /// this process. Callers must have dropped the kernel-state guard.
    fn park(&self) -> Go {
        self.coro.suspend()
    }
}

/// Panic payload used to unwind a process during forced shutdown.
pub(crate) struct ShutdownUnwind;

impl std::fmt::Debug for Proc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Proc({})", self.pid)
    }
}
