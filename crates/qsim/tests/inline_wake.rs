//! The inline wake: `Proc::advance` whose wake is provably the next event
//! is dispatched in place instead of through the queue. These tests pin
//! that the shortcut is invisible — the same counts, queue depth and
//! schedule hash as the queued round trip (golden values recorded before
//! the shortcut existed) — and that the event limit and teardown still
//! stop a process that would take it.

use qsim::{Dur, QueueKind, Report, SimError, Simulation};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// `(schedule_hash, events, wakes, calls, max_queue_depth, end_time_ns)`.
type Golden = (u64, u64, u64, u64, usize, u64);

/// Recorded with every wake going through the queue.
const LONE_ADVANCE_GOLDEN: Golden = (0x64f3_6a2b_da88_0035, 4042, 4041, 1, 2, 1_000_000);

fn golden(r: &Report) -> Golden {
    (
        r.schedule_hash,
        r.events_processed,
        r.wakes_executed,
        r.calls_executed,
        r.max_queue_depth,
        r.end_time.as_ns(),
    )
}

/// One process advancing alone beside one far-future callback: before the
/// callback every wake is inline-eligible, at 500 µs one ties with it (the
/// queued path, callback first), and afterwards the queue is empty.
/// Zero-length advances are mixed in.
fn lone_advance(kind: QueueKind) -> Report {
    let sim = Simulation::with_queue(kind);
    let fired_at = Arc::new(AtomicU64::new(0));
    let f2 = fired_at.clone();
    sim.spawn("lone", move |p| {
        p.call_after(Dur::from_us(500), move |s| {
            f2.store(s.now().as_ns(), Ordering::SeqCst)
        });
        for i in 0..4000u64 {
            p.advance(Dur::from_ns(250));
            if i % 100 == 0 {
                p.advance(Dur::ZERO);
            }
        }
        assert_eq!(p.now().as_ns(), 1_000_000);
    });
    let report = sim.run().unwrap();
    assert_eq!(fired_at.load(Ordering::SeqCst), 500_000);
    report
}

#[test]
fn lone_advance_matches_the_queued_schedule_on_both_queues() {
    let cal = lone_advance(QueueKind::Calendar);
    let bt = lone_advance(QueueKind::BTree);
    assert_eq!(golden(&cal), LONE_ADVANCE_GOLDEN, "calendar schedule moved");
    assert_eq!(golden(&bt), LONE_ADVANCE_GOLDEN, "BTree schedule moved");
    assert_eq!((cal.stale_wakes, cal.sched_past), (0, 0));
}

#[test]
fn event_limit_inside_an_inline_advance_stops_at_the_same_count() {
    const LIMIT: u64 = 1000;
    let done = Arc::new(AtomicU64::new(0));
    let d2 = done.clone();
    let sim = Simulation::new();
    sim.set_event_limit(LIMIT);
    sim.spawn("spinner", move |p| loop {
        p.advance(Dur::from_ns(10));
        d2.fetch_add(1, Ordering::SeqCst);
    });
    match sim.run() {
        Err(SimError::EventLimit { limit }) => assert_eq!(limit, LIMIT),
        other => panic!("expected the event limit, got {other:?}"),
    }
    // The spawn wake is event 1; advances 1..LIMIT-1 complete, and the
    // next one is refused.
    assert_eq!(done.load(Ordering::SeqCst), LIMIT - 1);
}

/// Sets its flag when dropped while the process unwinds.
struct UnwindGuard(Arc<AtomicBool>);

impl Drop for UnwindGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::SeqCst);
        }
    }
}

#[test]
fn daemon_parked_in_advance_unwinds_at_teardown() {
    // After `main` returns the daemon is alone, so every advance is
    // inline-eligible until the event limit ends the run; teardown must
    // still find it parked and unwind it.
    let unwound = Arc::new(AtomicBool::new(false));
    let u2 = unwound.clone();
    let sim = Simulation::new();
    sim.set_event_limit(500);
    sim.spawn("main", |p| p.advance(Dur::from_us(5)));
    sim.spawn_daemon("ticker", move |p| {
        let _guard = UnwindGuard(u2);
        loop {
            p.advance(Dur::from_us(1));
        }
    });
    match sim.run() {
        Err(SimError::EventLimit { limit }) => assert_eq!(limit, 500),
        other => panic!("expected the event limit, got {other:?}"),
    }
    assert!(unwound.load(Ordering::SeqCst), "daemon was not unwound");
}

#[test]
fn daemon_parked_in_advance_unwinds_when_another_process_panics() {
    let unwound = Arc::new(AtomicBool::new(false));
    let u2 = unwound.clone();
    let sim = Simulation::new();
    sim.spawn("main", |p| {
        p.advance(Dur::from_ns(5_500));
        panic!("main fails");
    });
    sim.spawn_daemon("ticker", move |p| {
        let _guard = UnwindGuard(u2);
        loop {
            p.advance(Dur::from_us(1));
        }
    });
    match sim.run() {
        Err(SimError::ProcPanic { proc, message }) => {
            assert_eq!(proc, "main");
            assert!(message.contains("main fails"), "got: {message}");
        }
        other => panic!("expected main's panic, got {other:?}"),
    }
    assert!(unwound.load(Ordering::SeqCst), "daemon was not unwound");
}
