//! Virtual-time synchronization helpers built on [`Signal`]: a single-owner
//! mailbox (used for out-of-band control messages) and a rendezvous cell —
//! plus the [`Mutex`] the whole stack uses for host-side shared state.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::handle::SimHandle;
use crate::proc::Proc;
use crate::signal::{Signal, Wait};
use crate::time::Dur;

/// Guard returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

/// A `parking_lot`-style mutex over `std::sync::Mutex`: `lock()` returns the
/// guard directly, and poisoning is ignored rather than propagated — a
/// panicking simulated process unwinds through kernel teardown and must not
/// wedge every other rank's endpoint state behind a `PoisonError`.
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// A new mutex holding `value`.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking the calling OS thread. Simulated
    /// processes share one thread, so a guard must never be held across a
    /// blocking [`Proc`] call: another process locking it would deadlock.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.inner.try_lock() {
            Ok(g) => f.debug_tuple("Mutex").field(&&*g).finish(),
            Err(_) => f.write_str("Mutex(<locked>)"),
        }
    }
}

struct MailboxInner<T> {
    queue: Mutex<VecDeque<T>>,
    signal: Signal,
}

/// Receiving side of a virtual-time mailbox; owned by one process.
pub struct Mailbox<T> {
    inner: Arc<MailboxInner<T>>,
}

/// Sending side; freely cloneable across processes and device callbacks.
pub struct MailboxTx<T> {
    inner: Arc<MailboxInner<T>>,
}

impl<T> Clone for MailboxTx<T> {
    fn clone(&self) -> Self {
        MailboxTx {
            inner: self.inner.clone(),
        }
    }
}

impl<T: Send + 'static> Mailbox<T> {
    /// Create a mailbox owned by `proc`.
    pub fn new(proc: &Proc) -> (MailboxTx<T>, Mailbox<T>) {
        let inner = Arc::new(MailboxInner {
            queue: Mutex::new(VecDeque::new()),
            signal: proc.signal(),
        });
        (
            MailboxTx {
                inner: inner.clone(),
            },
            Mailbox { inner },
        )
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<T> {
        self.inner.queue.lock().pop_front()
    }

    /// Block (in virtual time) until a message is available.
    pub fn recv(&self, proc: &Proc) -> Result<T, Wait> {
        loop {
            if let Some(v) = self.try_recv() {
                return Ok(v);
            }
            match proc.wait(&self.inner.signal) {
                Wait::Signaled => continue,
                Wait::Shutdown => return Err(Wait::Shutdown),
            }
        }
    }

    /// Messages currently queued.
    pub fn len(&self) -> usize {
        self.inner.queue.lock().len()
    }

    /// True when no message is queued.
    pub fn is_empty(&self) -> bool {
        self.inner.queue.lock().is_empty()
    }
}

impl<T: Send + 'static> MailboxTx<T> {
    /// Deliver immediately (at the current virtual instant).
    pub fn send(&self, sim: &SimHandle, value: T) {
        self.inner.queue.lock().push_back(value);
        self.inner.signal.notify(sim);
    }

    /// Deliver after `delay` of virtual time (models a control-network hop).
    pub fn send_after(&self, sim: &SimHandle, delay: Dur, value: T) {
        let inner = self.inner.clone();
        sim.call_after(delay, move |sim| {
            inner.queue.lock().push_back(value);
            inner.signal.notify(sim);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Simulation;
    use crate::time::Time;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn mailbox_delivers_in_order_and_in_time() {
        let sim = Simulation::new();
        let got = Arc::new(Mutex::new(Vec::new()));
        let got2 = got.clone();
        #[allow(clippy::type_complexity)]
        let (tx_slot, rx_slot): (
            Arc<Mutex<Option<MailboxTx<u32>>>>,
            Arc<Mutex<Option<MailboxTx<u32>>>>,
        ) = {
            let s = Arc::new(Mutex::new(None));
            (s.clone(), s)
        };

        sim.spawn("receiver", move |p| {
            let (tx, rx) = Mailbox::<u32>::new(&p);
            *rx_slot.lock() = Some(tx);
            for _ in 0..3 {
                let v = rx.recv(&p).unwrap();
                got2.lock().push((v, p.now()));
            }
        });
        let tx_slot2 = tx_slot.clone();
        sim.spawn("sender", move |p| {
            // Let the receiver run first and publish its tx.
            p.advance(Dur::from_ns(10));
            let tx = tx_slot2.lock().clone().unwrap();
            tx.send(&p.sim(), 1);
            tx.send_after(&p.sim(), Dur::from_us(5), 3);
            tx.send_after(&p.sim(), Dur::from_us(2), 2);
        });
        sim.run().unwrap();
        let got = got.lock();
        assert_eq!(got[0].0, 1);
        assert_eq!(got[1].0, 2);
        assert_eq!(got[2].0, 3);
        assert_eq!(got[1].1, Time::from_ns(2_010));
        assert_eq!(got[2].1, Time::from_ns(5_010));
    }

    #[test]
    fn daemon_mailbox_sees_shutdown() {
        let sim = Simulation::new();
        let woke = Arc::new(AtomicU64::new(0));
        let woke2 = woke.clone();
        sim.spawn_daemon("progress", move |p| {
            let (_tx, rx) = Mailbox::<u32>::new(&p);
            match rx.recv(&p) {
                Err(Wait::Shutdown) => {
                    woke2.store(1, Ordering::SeqCst);
                }
                other => panic!("unexpected: {other:?}"),
            }
        });
        sim.spawn("main", |p| {
            p.advance(Dur::from_us(1));
        });
        sim.run().unwrap();
        assert_eq!(woke.load(Ordering::SeqCst), 1);
    }
}
