//! One simulated MPI world, driven from outside through the public API and
//! timed on both clocks: host wall time for the simulator, virtual time for
//! the modelled cluster.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use elan4::{ClusterStats, HostBuf, NicConfig};
use openmpi_core::{
    Communicator, Metrics, Mpi, Placement, ReduceOp, Request, StackConfig, Status, TraceLog,
    Transports, Universe,
};
use qsnet::{CongestionReport, FabricConfig, FabricStats, LinkTotals};

/// Ring capacity per rank for traced runs: large enough that no workload
/// here evicts an event (the benchmark checks `trace.dropped == 0`).
const TRACE_CAPACITY: usize = 1 << 22;
/// Busy windows kept per endpoint link for the critical-path cross-check.
const BUSY_WINDOWS: usize = 1 << 20;

/// The machine, stack and job shape of one run.
#[derive(Clone)]
pub struct WorldSpec {
    pub fabric: FabricConfig,
    pub stack: StackConfig,
    pub ranks: usize,
    pub placement: Placement,
}

/// What a traced run keeps from each rank after its timed section.
pub struct RankCapture {
    pub rank: u32,
    pub metrics: Metrics,
    pub trace: TraceLog,
    pub ej_busy: Vec<(u64, u64)>,
    pub ej_totals: LinkTotals,
}

/// Cluster-wide state read after a traced run.
pub struct MachineCapture {
    pub ranks: Vec<RankCapture>,
    pub nic: ClusterStats,
    pub fabric: FabricStats,
    pub congestion: CongestionReport,
}

/// Everything one run of a workload measured.
pub struct RunOut {
    /// `Universe::new`.
    pub universe_s: f64,
    /// `launch_world`.
    pub spawn_s: f64,
    /// From the start of the run until the last rank entered the workload.
    pub init_s: f64,
    /// From the start of the run until the first rank began its timed
    /// section (universe, spawn, world init and warm-up), less payload
    /// bookkeeping.
    pub setup_s: f64,
    /// From the first rank beginning its timed section until the last rank
    /// ended it, less payload bookkeeping.
    pub run_s: f64,
    /// Host time spent making and checking payloads, already left out of
    /// `setup_s` and `run_s`.
    pub aside_s: f64,
    /// Virtual time at which the last rank entered the workload.
    pub init_ns: u64,
    pub report: qsim::Report,
    pub attempted: u64,
    pub failed: u64,
    /// Virtual ns each rank spent blocked in each MPI call, by call name.
    pub spans: BTreeMap<&'static str, Vec<u64>>,
    /// Per-operation virtual durations of the timed section: the time from
    /// the previous operation's completion on the slowest rank to this
    /// one's, grouped by operation name.
    pub ops: BTreeMap<&'static str, Vec<u64>>,
    /// Workload-defined virtual samples (ns).
    pub samples: BTreeMap<&'static str, Vec<u64>>,
    pub machine: Option<MachineCapture>,
}

#[derive(Default)]
struct Shared {
    entered: Vec<(Instant, u64)>,
    timed_start: Vec<Instant>,
    timed_end: Vec<Instant>,
    spans: BTreeMap<&'static str, Vec<u64>>,
    samples: BTreeMap<&'static str, Vec<u64>>,
    /// Per rank, in program order.
    op_logs: Vec<(usize, Vec<OpRecord>)>,
    captures: Vec<RankCapture>,
}

/// One operation as one rank saw it: name, entry (virtual ns; `None` on
/// the non-root ranks of a rooted operation) and completion.
type OpRecord = (&'static str, Option<u64>, u64);

struct Probe {
    attempted: AtomicU64,
    failed: AtomicU64,
    /// Host ns ranks spent generating and checking payloads, before and
    /// after their timed start.
    aside_ns: [AtomicU64; 2],
    shared: Mutex<Shared>,
}

impl Probe {
    fn lock(&self) -> std::sync::MutexGuard<'_, Shared> {
        self.shared.lock().expect("a rank panicked while recording")
    }
}

/// One rank's view of the run: the MPI handle plus the recording helpers
/// every call the workload makes goes through.
pub struct Rank {
    pub mpi: Mpi,
    probe: Arc<Probe>,
    spans: BTreeMap<&'static str, Vec<u64>>,
    samples: BTreeMap<&'static str, Vec<u64>>,
    ops: Vec<OpRecord>,
    timed: bool,
}

impl Rank {
    pub fn rank(&self) -> usize {
        self.mpi.rank()
    }

    pub fn now_ns(&self) -> u64 {
        self.mpi.now().as_ns()
    }

    /// Count one MPI operation, failed unless `ok`.
    pub fn check(&self, ok: bool) {
        self.probe.attempted.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.probe.failed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Count `n` operations of which `bad` failed.
    pub fn check_many(&self, n: u64, bad: u64) {
        self.probe.attempted.fetch_add(n, Ordering::Relaxed);
        self.probe.failed.fetch_add(bad, Ordering::Relaxed);
    }

    pub fn sample(&mut self, name: &'static str, ns: u64) {
        self.samples.entry(name).or_default().push(ns);
    }

    /// Record that operation `name`, entered at `entered` (virtual ns),
    /// just completed on this rank. A rooted operation passes `None` on
    /// every rank but its root, so that it is timed from the root's entry.
    pub fn done(&mut self, name: &'static str, entered: Option<u64>) {
        let now = self.now_ns();
        self.ops.push((name, entered, now));
    }

    /// Run benchmark bookkeeping (making or checking payloads) and keep
    /// its host time out of `setup_s` and `run_s`. It costs no virtual time.
    pub fn aside<T>(&mut self, f: impl FnOnce(&Mpi) -> T) -> T {
        let t0 = Instant::now();
        let out = f(&self.mpi);
        let ns = t0.elapsed().as_nanos() as u64;
        self.probe.aside_ns[self.timed as usize].fetch_add(ns, Ordering::Relaxed);
        out
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&Mpi) -> T) -> T {
        let t0 = self.mpi.now();
        let out = f(&self.mpi);
        let dt = (self.mpi.now() - t0).as_ns();
        self.spans.entry(name).or_default().push(dt);
        out
    }

    /// Warm-up is over: everything from here to [`Rank::timed_end`] is the
    /// timed section. Every rank calls it right after a barrier.
    pub fn timed_start(&mut self) {
        self.timed = true;
        self.probe.lock().timed_start.push(Instant::now());
    }

    pub fn timed_end(&mut self) {
        self.probe.lock().timed_end.push(Instant::now());
    }

    /// Blocking send; false when the stack completed it with an error.
    pub fn send(
        &mut self,
        c: &Communicator,
        dst: usize,
        tag: i32,
        buf: &HostBuf,
        len: usize,
    ) -> bool {
        self.span("send", |m| {
            let r = m.isend(c, dst, tag, buf, len);
            m.wait_result(r).is_ok()
        })
    }

    /// Blocking receive; `None` when the stack completed it with an error.
    pub fn recv(
        &mut self,
        c: &Communicator,
        src: i32,
        tag: i32,
        buf: &HostBuf,
        len: usize,
    ) -> Option<Status> {
        self.span("recv", |m| {
            let r = m.irecv(c, src, tag, buf, len);
            let st = m.wait_status(r);
            st.error.is_none().then_some(st)
        })
    }

    pub fn isend(
        &mut self,
        c: &Communicator,
        dst: usize,
        tag: i32,
        buf: &HostBuf,
        len: usize,
    ) -> Request {
        self.span("isend", |m| m.isend(c, dst, tag, buf, len))
    }

    pub fn irecv(
        &mut self,
        c: &Communicator,
        src: i32,
        tag: i32,
        buf: &HostBuf,
        len: usize,
    ) -> Request {
        self.span("irecv", |m| m.irecv(c, src, tag, buf, len))
    }

    /// Wait for every request; returns how many completed with an error.
    pub fn waitall(&mut self, reqs: Vec<Request>) -> u64 {
        self.span("waitall", |m| match m.waitall_result(reqs) {
            Ok(()) => 0,
            Err(errs) => errs.iter().filter(|e| e.is_some()).count() as u64,
        })
    }

    pub fn barrier(&mut self, c: &Communicator) {
        self.span("barrier", |m| m.barrier(c));
    }

    pub fn bcast(&mut self, c: &Communicator, root: usize, buf: &HostBuf, len: usize) {
        self.span("bcast", |m| m.bcast(c, root, buf, len));
    }

    pub fn allreduce(&mut self, c: &Communicator, op: ReduceOp, buf: &HostBuf, len: usize) {
        self.span("allreduce", |m| m.allreduce(c, op, buf, len));
    }

    fn finish(self, traced: bool) {
        let mut capture = None;
        if traced {
            let ep = self.mpi.endpoint();
            let fabric = ep.cluster.fabric();
            let (_, ej_busy) = fabric.node_busy_intervals(ep.node);
            let (_, ej_totals) = fabric.node_link_totals(ep.node);
            capture = Some(RankCapture {
                rank: self.rank() as u32,
                metrics: ep.metrics_snapshot(),
                trace: ep.trace.lock().clone(),
                ej_busy,
                ej_totals,
            });
        }
        let rank = self.rank();
        let mut sh = self.probe.lock();
        for (k, v) in self.spans {
            sh.spans.entry(k).or_default().extend(v);
        }
        for (k, v) in self.samples {
            sh.samples.entry(k).or_default().extend(v);
        }
        sh.op_logs.push((rank, self.ops));
        sh.captures.extend(capture);
    }
}

/// Build the universe, launch the world, run it to completion, and collect
/// both clocks' measurements. `traced` turns on the stack's trace ring and
/// metrics plus fabric busy-window recording.
pub fn run(
    spec: &WorldSpec,
    traced: bool,
    body: impl Fn(&mut Rank) + Send + Sync + 'static,
) -> Result<RunOut, String> {
    let mut stack = spec.stack.clone();
    if traced {
        stack.trace = true;
        stack.trace_capacity = TRACE_CAPACITY;
        stack.metrics = true;
    }
    let probe = Arc::new(Probe {
        attempted: AtomicU64::new(0),
        failed: AtomicU64::new(0),
        aside_ns: [AtomicU64::new(0), AtomicU64::new(0)],
        shared: Mutex::new(Shared::default()),
    });

    let t0 = Instant::now();
    let uni = Universe::new(
        NicConfig::default(),
        spec.fabric.clone(),
        stack,
        Transports::default(),
    );
    let universe_s = t0.elapsed().as_secs_f64();
    if traced {
        uni.cluster.fabric().record_intervals(BUSY_WINDOWS);
    }
    let sim = qsim::Simulation::new();
    let t1 = Instant::now();
    let p2 = probe.clone();
    uni.launch_world(&sim, spec.ranks, spec.placement.clone(), move |mpi| {
        let v = mpi.now().as_ns();
        p2.lock().entered.push((Instant::now(), v));
        let mut rank = Rank {
            mpi,
            probe: p2.clone(),
            spans: BTreeMap::new(),
            samples: BTreeMap::new(),
            ops: Vec::new(),
            timed: false,
        };
        body(&mut rank);
        rank.finish(traced);
    });
    let spawn_s = t1.elapsed().as_secs_f64();
    let report = sim.run().map_err(|e| format!("simulation failed: {e}"))?;

    let mut sh = std::mem::take(&mut *probe.lock());
    if sh.timed_start.len() != spec.ranks || sh.timed_end.len() != spec.ranks {
        return Err(format!(
            "{} of {} ranks reached the timed section",
            sh.timed_end.len(),
            spec.ranks
        ));
    }
    let since = |t: Instant| t.duration_since(t0).as_secs_f64();
    let init_s = sh.entered.iter().map(|e| since(e.0)).fold(0.0, f64::max);
    let init_ns = sh.entered.iter().map(|e| e.1).max().unwrap_or(0);
    let setup_s = sh
        .timed_start
        .iter()
        .map(|&t| since(t))
        .fold(f64::INFINITY, f64::min);
    let end_s = sh.timed_end.iter().map(|&t| since(t)).fold(0.0, f64::max);
    let ops = op_durations(&mut sh.op_logs)?;
    let aside = |i: usize| probe.aside_ns[i].load(Ordering::Relaxed) as f64 / 1e9;

    let machine = traced.then(|| {
        sh.captures.sort_by_key(|c| c.rank);
        let fabric = uni.cluster.fabric();
        MachineCapture {
            ranks: std::mem::take(&mut sh.captures),
            nic: uni.cluster.stats(),
            fabric: fabric.stats(),
            congestion: fabric.congestion_report(report.end_time, 1),
        }
    });
    Ok(RunOut {
        universe_s,
        spawn_s,
        init_s,
        setup_s: setup_s - aside(0),
        run_s: end_s - setup_s - aside(1),
        aside_s: aside(0) + aside(1),
        init_ns,
        report,
        attempted: probe.attempted.load(Ordering::Relaxed),
        failed: probe.failed.load(Ordering::Relaxed),
        spans: sh.spans,
        ops,
        samples: sh.samples,
        machine,
    })
}

/// Fold every rank's log into per-operation durations: the k-th operation
/// starts when the last rank entering it does (for a rooted operation, when
/// the root does) and ends when the slowest rank completes it. Every rank
/// must log the same operations in the same order.
fn op_durations(
    logs: &mut [(usize, Vec<OpRecord>)],
) -> Result<BTreeMap<&'static str, Vec<u64>>, String> {
    logs.sort_by_key(|l| l.0);
    let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let Some((_, first)) = logs.first() else {
        return Ok(out);
    };
    for (k, &(name, ..)) in first.iter().enumerate() {
        let (mut start, mut end) = (None, 0);
        for (rank, log) in logs.iter() {
            match log.get(k) {
                Some(&(n, s, e)) if n == name => {
                    start = start.max(s);
                    end = end.max(e);
                }
                _ => return Err(format!("rank {rank} diverged at operation {k} ({name})")),
            }
        }
        let start = start.ok_or(format!("no rank entered operation {k} ({name})"))?;
        out.entry(name).or_default().push(end.saturating_sub(start));
    }
    if logs.iter().any(|(_, l)| l.len() != first.len()) {
        return Err("ranks logged different numbers of operations".into());
    }
    Ok(out)
}

/// Deterministic payload bytes for `(seed, stream, index)`: a different
/// word at every 8-byte position, so misplaced data is caught too.
pub fn pattern(seed: u64, stream: u64, index: u64, len: usize) -> Vec<u8> {
    let base = mix(seed ^ mix(stream ^ mix(index)));
    let mut out = vec![0u8; len];
    for (i, chunk) in out.chunks_mut(8).enumerate() {
        let x = base.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        chunk.copy_from_slice(&(x ^ (x >> 29)).to_le_bytes()[..chunk.len()]);
    }
    out
}

/// SplitMix64 finaliser.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_durations_run_from_last_entry_to_slowest_exit() {
        let mut logs = vec![
            (1, vec![("a", Some(10), 15), ("root", None, 30)]),
            (0, vec![("a", Some(8), 12), ("root", Some(13), 40)]),
        ];
        let ops = op_durations(&mut logs).unwrap();
        assert_eq!(ops["a"], vec![5]);
        assert_eq!(ops["root"], vec![27]);
        let mut bad = vec![(0, vec![("a", Some(0), 1)]), (1, vec![("b", Some(0), 1)])];
        assert!(op_durations(&mut bad).is_err());
        let mut rootless = vec![(0, vec![("a", None, 1)])];
        assert!(op_durations(&mut rootless).is_err());
    }

    #[test]
    fn pattern_depends_on_every_input() {
        let p = pattern(1, 2, 3, 33);
        assert_eq!(p.len(), 33);
        assert_eq!(p, pattern(1, 2, 3, 33));
        assert_ne!(p, pattern(2, 2, 3, 33));
        assert_ne!(p, pattern(1, 3, 3, 33));
        assert_ne!(p, pattern(1, 2, 4, 33));
    }
}
