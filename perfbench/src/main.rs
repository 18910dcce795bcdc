//! End-to-end and per-layer benchmark of the simulated Open MPI / Elan4
//! stack and of the `qsim` simulator underneath it.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pingpong|coll256|incast --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs the workload again and again for `S` seconds, checks every output,
//! and prints a table followed by one JSON line. With `--trace 0` the JSON
//! holds the end-to-end metrics of untraced runs; with `--trace 1` it holds
//! the per-layer metrics of traced runs (plus untraced runs for the tracing
//! overhead). See `perfbench/README.md`.

mod calib;
mod layers;
mod stats;
mod workloads;
mod world;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use stats::{median, tail, Args, Workload};
use world::RunOut;

/// End-to-end metric names and units, in output order. `BENCHMARK.json`
/// lists exactly these under `end_to_end`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("paper_err_pct", "%"),
    ("vt1_us", "us"),
    ("vt2_us", "us"),
    ("vt3_us", "us"),
    ("vt4_us", "us"),
];

/// Host seconds are reported as on a machine whose OS thread handoff
/// (`calib::os_handoff_ns`) takes this long: each run's wall times are
/// scaled by this over the handoff cost measured just before it. The host
/// has slow periods of minutes in which every handoff, and so the thread
/// backend, runs up to 1.6x slower; the scaling cancels them.
const NOMINAL_HANDOFF_NS: f64 = 1000.0;

/// Runs of each kind a measurement needs at least, however short
/// `--seconds` is: two, so that the determinism guard compares something.
const MIN_RUNS: usize = 2;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match stats::parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload pingpong|coll256|incast --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = settle_process() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    match bench(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// The part of one run kept after the run: its host timings and the
/// fingerprint of everything deterministic it produced.
struct Kept {
    setup_s: f64,
    run_s: f64,
    /// Host ns of one OS thread handoff, measured just before the run.
    handoff_ns: f64,
    rte_s: (f64, f64, f64),
    sim_wall_ns: f64,
    fingerprint: u64,
    attempted: u64,
    failed: u64,
}

impl Kept {
    fn of(out: &RunOut, handoff_ns: f64, fingerprint: u64) -> Kept {
        Kept {
            setup_s: out.setup_s,
            run_s: out.run_s,
            handoff_ns,
            rte_s: (out.universe_s, out.spawn_s, out.init_s),
            sim_wall_ns: out.report.wall_ns as f64 - out.aside_s * 1e9,
            fingerprint,
            attempted: out.attempted,
            failed: out.failed,
        }
    }
}

fn bench(args: &Args) -> Result<bool, String> {
    let w = args.workload;

    // Measure: untraced runs, alternating with traced ones under --trace 1.
    let deadline = Duration::from_secs(args.seconds);
    let t0 = Instant::now();
    let (mut plain, mut traced): (Vec<Kept>, Vec<Kept>) = (Vec::new(), Vec::new());
    let (mut first_plain, mut first_traced): (Option<RunOut>, Option<RunOut>) = (None, None);
    loop {
        let trace_this = args.trace && traced.len() < plain.len();
        let handoff_ns = calib::os_handoff_ns();
        let out = workloads::run(w, args.seed, trace_this)?;
        let kept = Kept::of(&out, handoff_ns, fingerprint(&out));
        if trace_this {
            traced.push(kept);
            first_traced.get_or_insert(out);
        } else {
            plain.push(kept);
            first_plain.get_or_insert(out);
        }
        let enough = plain.len() >= MIN_RUNS && (!args.trace || traced.len() >= MIN_RUNS);
        if enough && t0.elapsed() >= deadline {
            break;
        }
    }
    let first = first_plain.expect("at least one untraced run");
    let headline = workloads::headline(w, &first)?;

    // Correctness: every operation checked, every run of this seed
    // identical on the virtual clock, traced or not, in this process and
    // in earlier ones of the same build.
    let mut problems = Vec::new();
    let all: Vec<&Kept> = plain.iter().chain(&traced).collect();
    let attempted: u64 = all.iter().map(|k| k.attempted).sum();
    let failed: u64 = all.iter().map(|k| k.failed).sum();
    if failed > 0 {
        problems.push(format!(
            "{failed} of {attempted} MPI operations failed or returned wrong data"
        ));
    }
    let fp = all[0].fingerprint;
    if all.iter().any(|k| k.fingerprint != fp) {
        let fps: Vec<String> = all
            .iter()
            .map(|k| format!("{:016x}", k.fingerprint))
            .collect();
        problems.push(format!(
            "runs of seed {} disagree: {}",
            args.seed,
            fps.join(" ")
        ));
    }
    if let Err(e) = check_record(w, args.seed, fp) {
        problems.push(e);
    }

    let mut metrics: BTreeMap<String, f64> = BTreeMap::new();
    let catalog = if args.trace {
        let host = layers::HostFigures {
            run_s: (med(&plain, |k| k.run_s), med(&traced, |k| k.run_s)),
            os_handoff_ns: med(&plain, |k| k.handoff_ns),
            rte_s: (
                med(&plain, |k| k.rte_s.0),
                med(&plain, |k| k.rte_s.1),
                med(&plain, |k| k.rte_s.2),
            ),
            sim_wall_ns: med(&plain, |k| k.sim_wall_ns),
            wake_ns: [calib::wake_ns(2)?, calib::wake_ns(8)?, calib::wake_ns(256)?],
            call_ns: calib::call_ns()?,
        };
        let tr = first_traced.expect("at least one traced run");
        match layers::per_layer(&tr, &host, workloads::spec(w, args.seed).ranks) {
            Ok(m) => metrics = m,
            Err(e) => problems.push(e),
        }
        if metrics.get("trace.dropped").is_some_and(|&d| d != 0.0) {
            problems.push("trace ring dropped events; raise its capacity".into());
        }
        layers::PER_LAYER
    } else {
        let scale = |k: &Kept| NOMINAL_HANDOFF_NS / k.handoff_ns;
        metrics.insert("setup_s".into(), med(&plain, |k| k.setup_s * scale(k)));
        metrics.insert("run_s".into(), med(&plain, |k| k.run_s * scale(k)));
        metrics.insert("peak_rss_mb".into(), peak_rss_mb()?);
        metrics.insert("paper_err_pct".into(), paper_err_pct());
        for (i, v) in headline.vt_us.iter().enumerate() {
            metrics.insert(format!("vt{}_us", i + 1), *v);
        }
        END_TO_END
    };

    print_table(args, &plain, &traced, &headline, fp);
    println!(
        "  {:<26} {:>14.6}       {failed} of {attempted}",
        "ops_failed_frac",
        failed as f64 / attempted.max(1) as f64
    );
    for (name, unit) in catalog {
        if let Some(v) = metrics.get(*name) {
            println!("  {name:<26} {v:>14.6} {unit}");
        }
    }
    for p in &problems {
        println!("FAILED: {p}");
    }
    let correct = problems.is_empty();
    println!(
        "{}",
        result_json(correct, attempted, failed, catalog, &metrics)?
    );
    Ok(correct)
}

/// Median of one figure over runs.
fn med(runs: &[Kept], f: impl Fn(&Kept) -> f64) -> f64 {
    median(&runs.iter().map(f).collect::<Vec<_>>())
}

/// Make host timings repeatable before any simulation thread exists.
///
/// The simulator runs one simulated process (one OS thread) at a time, so
/// the process is confined to the CPU it starts on: a second CPU only adds
/// cross-core handoffs, which on a small shared host both dominate and
/// scatter wall time. For the same reason one malloc arena suffices; with
/// the default one-per-thread-ish arenas, peak RSS of the 256-rank
/// workload wanders by several percent from run to run.
fn settle_process() -> Result<(), String> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: sched_getcpu takes no arguments and only reads kernel state.
    let cpu = unsafe { sched_getcpu() };
    let word = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_string())? / 64;
    // A glibc cpu_set_t: 1024 bits.
    let mut mask = [0u64; 16];
    *mask
        .get_mut(word)
        .ok_or(format!("cpu {cpu} beyond a 1024-bit cpu set"))? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised 128-byte buffer, exactly the
    // size passed, and pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity to cpu {cpu} failed"));
    }
    // SAFETY: mallopt only sets an allocator tunable; no other thread is
    // allocating yet.
    if unsafe { mallopt(M_ARENA_MAX, 1) } != 1 {
        return Err("mallopt(M_ARENA_MAX, 1) failed".into());
    }
    Ok(())
}

/// Mean absolute relative error of the regenerated paper anchors, in %.
fn paper_err_pct() -> f64 {
    let anchors = ompi_bench::compare::anchors();
    let sum: f64 = anchors.iter().map(|a| a.rel_err().abs()).sum();
    100.0 * sum / anchors.len() as f64
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// FNV-1a over everything a run produced on the virtual clock: the
/// kernel's schedule hash and counts, every operation duration, sample and
/// span, and the operation tallies. Host timings are left out.
fn fingerprint(out: &RunOut) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let r = &out.report;
    for v in [
        r.schedule_hash,
        r.events_processed,
        r.wakes_executed,
        r.calls_executed,
        r.stale_wakes,
        r.sched_past,
        r.max_queue_depth as u64,
        r.end_time.as_ns(),
        out.init_ns,
        out.attempted,
        out.failed,
    ] {
        eat(v);
    }
    for map in [&out.ops, &out.samples, &out.spans] {
        for (name, vals) in map {
            name.bytes().for_each(|b| eat(b as u64));
            let mut v = vals.clone();
            v.sort_unstable();
            eat(v.len() as u64);
            v.into_iter().for_each(&mut eat);
        }
    }
    h
}

/// Compare this run's fingerprint with the one an earlier process of the
/// same executable recorded for the same workload and seed, then record
/// it. Records live next to the executable, so a rebuild starts afresh.
fn check_record(w: Workload, seed: u64, fp: u64) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let meta = std::fs::metadata(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    let mtime = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    let build = format!("{}-{}", meta.len(), mtime);
    let dir = exe
        .parent()
        .ok_or("executable has no parent directory")?
        .join("perfbench-det");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-{seed}", w.name()));
    let line = format!("{build} {fp:016x}");
    if let Ok(prev) = std::fs::read_to_string(&path) {
        if let Some(old) = prev.trim().strip_prefix(&format!("{build} ")) {
            if old != format!("{fp:016x}") {
                return Err(format!(
                    "seed {seed} fingerprint {fp:016x} differs from {old} recorded by an earlier run"
                ));
            }
            return Ok(());
        }
    }
    std::fs::write(&path, line).map_err(|e| format!("{}: {e}", path.display()))
}

/// The run summary and the host timings with their spread, then the
/// workload's virtual headline figures under their own names.
fn print_table(
    args: &Args,
    plain: &[Kept],
    traced: &[Kept],
    headline: &workloads::Headline,
    fp: u64,
) {
    println!(
        "perfbench {} seed {}: {} untraced + {} traced runs in {} s, fingerprint {fp:016x}",
        args.workload.name(),
        args.seed,
        plain.len(),
        traced.len(),
        args.seconds
    );
    let timing = |name: &str, unit: &str, xs: Vec<f64>| {
        let (p, t) = tail(&xs);
        println!(
            "  {name:<26} {:>14.6} {unit:<5} median; p{p} {t:.6}; n={}; quartile spread {:.3}",
            median(&xs),
            xs.len(),
            stats::quartile_spread(&xs)
        );
    };
    timing(
        "setup_s (wall)",
        "s",
        plain.iter().map(|k| k.setup_s).collect(),
    );
    timing("run_s (wall)", "s", plain.iter().map(|k| k.run_s).collect());
    timing(
        "os_handoff_ns",
        "ns",
        plain.iter().map(|k| k.handoff_ns).collect(),
    );
    if !traced.is_empty() {
        timing(
            "run_s (wall, traced)",
            "s",
            traced.iter().map(|k| k.run_s).collect(),
        );
    }
    for (name, v, unit) in &headline.named {
        println!("  {name:<26} {v:>14.6} {unit:<5} virtual");
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// `catalog` with its unit.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalog: &[(&str, &str)],
    metrics: &BTreeMap<String, f64>,
) -> Result<String, String> {
    let mut fields = Vec::new();
    for (name, unit) in catalog {
        if !stats::valid_metric_name(name) || !stats::valid_unit(unit) {
            return Err(format!("bad metric name or unit: {name} ({unit})"));
        }
        let v = match metrics.get(*name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => return Err(format!("metric {name} is {v}")),
            // A traced run whose critical path failed to reconcile has no
            // per-layer metrics; it reports zeros and `correct: false`.
            None if !correct => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        fields.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
    }
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        fields.join(",")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// this program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_catalogs() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let compact: String = text.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(layers::PER_LAYER) {
            assert!(stats::valid_metric_name(name), "{name}");
            assert!(stats::valid_unit(unit), "{unit}");
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "{name} ({unit}) missing");
        }
        let listed = compact.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + layers::PER_LAYER.len());
    }

    #[test]
    fn result_json_shape() {
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), 1.5);
        let j = result_json(true, 3, 0, &[("a", "s")], &m).unwrap();
        assert_eq!(
            j,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"a\":{\"value\":1.5,\"unit\":\"s\"}}}"
        );
        assert!(result_json(true, 3, 0, &[("b", "s")], &m).is_err());
    }
}
