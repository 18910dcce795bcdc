//! The process backend: every simulated process is a coroutine on the
//! thread that calls `Simulation::run`. These tests pin down what that
//! promises — thread identity, panics from device callbacks, teardown of
//! processes that park while unwinding, unstarted bodies, and scale.

use qsim::{Dur, Proc, SimError, Simulation, Time, Wait};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Run `build`'s simulation on a helper thread so that a hang fails the
/// test (after `limit`) instead of wedging the whole suite. A hung helper
/// cannot be joined, so only then is it left detached.
fn run_with_deadline(
    limit: Duration,
    build: impl FnOnce(&Simulation) + Send + 'static,
) -> Result<qsim::Report, SimError> {
    let (tx, rx) = mpsc::channel();
    let helper = std::thread::spawn(move || {
        let sim = Simulation::new();
        build(&sim);
        let _ = tx.send(sim.run());
    });
    let result = rx
        .recv_timeout(limit)
        .expect("Simulation::run did not return within the deadline");
    helper.join().expect("the helper thread panicked");
    result
}

#[test]
fn callback_panic_after_its_process_returned_ends_the_run() {
    // Regression: the callback used to run on the finished process's own
    // OS thread outside any `catch_unwind`, so nobody ever woke `run`.
    let result = run_with_deadline(Duration::from_secs(30), |sim| {
        sim.spawn("p", |p| {
            p.call_after(Dur::from_us(1), |_| panic!("late callback fault"))
        });
    });
    match result {
        Err(SimError::ProcPanic { message, .. }) => {
            assert!(message.contains("late callback fault"), "got: {message}");
        }
        other => panic!("expected the callback's panic, got {other:?}"),
    }
}

#[test]
fn every_process_runs_on_the_run_callers_thread() {
    let sim = Simulation::new();
    let seen = Arc::new(qsim::Mutex::new(Vec::new()));
    for i in 0..4u64 {
        let seen = seen.clone();
        sim.spawn(&format!("p{i}"), move |p| {
            seen.lock().push(std::thread::current().id());
            p.advance(Dur::from_ns(10 * (i + 1)));
            let s = p.signal();
            s.notify(&p.sim());
            p.wait(&s).expect_signaled();
            seen.lock().push(std::thread::current().id());
        });
    }
    sim.run().unwrap();
    let me = std::thread::current().id();
    let seen = seen.lock();
    assert_eq!(seen.len(), 8);
    assert!(seen.iter().all(|&id| id == me), "a process ran elsewhere");
}

/// Parks from its `Drop` (sleeping first if `sleep` is set), then records
/// whether the thread was unwinding.
struct ParkOnDrop<'a> {
    p: &'a Proc,
    who: &'static str,
    sleep: Option<Dur>,
    seen: Arc<qsim::Mutex<Vec<(&'static str, bool)>>>,
}

impl Drop for ParkOnDrop<'_> {
    fn drop(&mut self) {
        if let Some(d) = self.sleep {
            self.p.advance(d);
        }
        let s = self.p.signal();
        assert_eq!(self.p.wait(&s), Wait::Shutdown);
        self.seen.lock().push((self.who, std::thread::panicking()));
    }
}

#[test]
fn daemon_that_parks_in_drop_during_shutdown_still_finishes() {
    let sim = Simulation::new();
    let seen = Arc::new(qsim::Mutex::new(Vec::new()));
    let s2 = seen.clone();
    sim.spawn_daemon("d", move |p| {
        let _g = ParkOnDrop {
            p: &p,
            who: "d",
            sleep: Some(Dur::from_us(1)),
            seen: s2,
        };
        let s = p.signal();
        assert_eq!(p.wait(&s), Wait::Shutdown);
    });
    sim.spawn("main", |p| p.advance(Dur::from_us(2)));
    let report = sim
        .run()
        .expect("shutdown with a lingering daemon is a clean run");
    assert_eq!(*seen.lock(), vec![("d", false)]);
    // The daemon's `advance` in its `Drop` still ran in virtual time.
    assert_eq!(report.end_time, Time::from_ns(3_000));
}

#[test]
fn teardown_finishes_one_process_before_resuming_the_next() {
    // At the event limit, "spinner" is unwound out of `advance` and parks
    // again in a `Drop`; "sleeper" is told to shut down afterwards. Had
    // teardown resumed "sleeper" while "spinner" was still unwinding, the
    // thread-wide panicking flag would leak into "sleeper".
    let sim = Simulation::new();
    sim.set_event_limit(50);
    let seen = Arc::new(qsim::Mutex::new(Vec::new()));
    let s2 = seen.clone();
    sim.spawn("spinner", move |p| {
        let _g = ParkOnDrop {
            p: &p,
            who: "spinner",
            sleep: None,
            seen: s2,
        };
        loop {
            p.advance(Dur::from_ns(1));
        }
    });
    let s3 = seen.clone();
    sim.spawn("sleeper", move |p| {
        let _g = ParkOnDrop {
            p: &p,
            who: "sleeper",
            sleep: None,
            seen: s3,
        };
        let s = p.signal();
        assert_eq!(p.wait(&s), Wait::Shutdown);
    });
    match sim.run() {
        Err(SimError::EventLimit { limit }) => assert_eq!(limit, 50),
        other => panic!("expected the event limit, got {other:?}"),
    }
    assert_eq!(*seen.lock(), vec![("spinner", true), ("sleeper", false)]);
}

#[test]
fn dropping_unrun_simulation_drops_unstarted_bodies() {
    let token = Arc::new(());
    let sim = Simulation::new();
    for i in 0..3 {
        let t = token.clone();
        let h = sim.handle();
        sim.spawn(&format!("p{i}"), move |p| {
            let _keep = (&t, &h);
            p.advance(Dur::from_us(1));
        });
    }
    assert_eq!(Arc::strong_count(&token), 4);
    drop(sim);
    assert_eq!(Arc::strong_count(&token), 1);
}

#[test]
fn thousands_of_processes_advance_round_robin() {
    // With one OS thread per process this was 4096 thread spawns.
    const PROCS: u64 = 4096;
    const ROUNDS: u64 = 4;
    let sim = Simulation::new();
    let order = Arc::new(qsim::Mutex::new(Vec::new()));
    let sum = Arc::new(AtomicU64::new(0));
    for i in 0..PROCS {
        let (order, sum) = (order.clone(), sum.clone());
        sim.spawn(&format!("p{i}"), move |p| {
            for _ in 0..ROUNDS {
                p.advance(Dur::from_ns(100));
                if i < 3 {
                    order.lock().push((p.now().as_ns(), i));
                }
            }
            sum.fetch_add(p.now().as_ns(), Ordering::Relaxed);
        });
    }
    let report = sim.run().unwrap();
    assert_eq!(report.procs_spawned, PROCS as usize);
    assert_eq!(report.wakes_executed, PROCS * (ROUNDS + 1));
    assert_eq!(report.end_time, Time::from_ns(100 * ROUNDS));
    assert_eq!(sum.load(Ordering::Relaxed), PROCS * 100 * ROUNDS);
    // Equal wake times dispatch in spawn order, round after round.
    let expect: Vec<(u64, u64)> = (1..=ROUNDS)
        .flat_map(|r| (0..3).map(move |i| (100 * r, i)))
        .collect();
    assert_eq!(*order.lock(), expect);
}
