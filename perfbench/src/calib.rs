//! Calibration micro-runs: what one `qsim` process wake and one scheduled
//! call cost on this host, built only from the kernel's public API, and
//! what the host itself charges for the thread handoff underneath a wake.
//! Together with a workload's wake and call counts they bound how much of
//! its run time is kernel overhead.

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use qsim::{Dur, SimHandle, Simulation};

use crate::stats::median;

/// Wakes per calibration run, spread evenly over the processes.
const WAKES: u64 = 6_000;
/// Calls per calibration run.
const CALLS: u64 = 60_000;
/// Runs per figure; the median is reported.
const REPEATS: usize = 3;

/// Host ns per process wake with `procs` processes taking turns: each one
/// loops on `Proc::advance`, so every wake hands the kernel to another
/// process.
pub fn wake_ns(procs: usize) -> Result<f64, String> {
    let per_proc = (WAKES / procs as u64).max(1);
    let runs = (0..REPEATS)
        .map(|_| {
            let sim = Simulation::new();
            for i in 0..procs {
                sim.spawn(&format!("calib{i}"), move |p| {
                    for _ in 0..per_proc {
                        p.advance(Dur::from_ns(1));
                    }
                });
            }
            let r = sim.run().map_err(|e| format!("calibration failed: {e}"))?;
            Ok(r.wall_ns as f64 / r.wakes_executed.max(1) as f64)
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(median(&runs))
}

/// Host ns per scheduled call: one chain of `SimHandle::call_after`
/// closures, each scheduling the next.
pub fn call_ns() -> Result<f64, String> {
    fn chain(h: &SimHandle, left: u64) {
        if left > 0 {
            h.call_after(Dur::from_ns(1), move |h| chain(h, left - 1));
        }
    }
    let runs = (0..REPEATS)
        .map(|_| {
            let sim = Simulation::new();
            chain(&sim.handle(), CALLS);
            let r = sim.run().map_err(|e| format!("calibration failed: {e}"))?;
            if r.calls_executed != CALLS {
                return Err(format!("{} of {CALLS} calls ran", r.calls_executed));
            }
            Ok(r.wall_ns as f64 / r.calls_executed as f64)
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(median(&runs))
}

/// Host ns per handoff between two plain OS threads (no `qsim`) taking
/// turns through `park`/`unpark` on the calling thread's CPUs. This is the
/// host's own price for what the thread backend does on every process
/// wake; it rises and falls with the machine's load, so a run time divided
/// by it cancels the host's slow periods.
pub fn os_handoff_ns() -> f64 {
    const ROUNDS: u32 = 10_000;
    let turn = AtomicU32::new(0);
    let turn = &turn;
    let main = std::thread::current();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let peer = s.spawn(move || {
            for _ in 0..ROUNDS {
                while turn.load(Ordering::SeqCst) != 1 {
                    std::thread::park();
                }
                turn.store(0, Ordering::SeqCst);
                main.unpark();
            }
        });
        for _ in 0..ROUNDS {
            turn.store(1, Ordering::SeqCst);
            peer.thread().unpark();
            while turn.load(Ordering::SeqCst) != 0 {
                std::thread::park();
            }
        }
    });
    t0.elapsed().as_nanos() as f64 / f64::from(2 * ROUNDS)
}
