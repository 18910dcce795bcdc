//! Experiment harness: regenerate the paper's tables and figures, and run
//! the self-gating benchmark and observability modes CI depends on.
//!
//! ```text
//! cargo run --release -p ompi-bench --bin harness -- <experiment>... | all | paper | compare
//! cargo run --release -p ompi-bench --bin harness -- fig10a --csv
//! cargo run --release -p ompi-bench --bin harness -- --reg-bench --bench-out BENCH_regcache.json
//! ```
//!
//! Every mode is one row of [`MODES`]: its flag, a one-line help text, the
//! sub-flags it owns, and the function that runs it and returns an
//! [`Outcome`]. `main` parses the command line against that table, runs
//! the selected experiments and then the selected modes in table order,
//! prints each document and writes it to the mode's output file, and turns
//! failed gates into the exit code. Run the binary with no arguments for
//! the usage generated from the table.
//!
//! Exit codes: 0 when every gate passed, 1 when a gate failed or an output
//! file could not be written, 2 on a usage error — an unknown flag or
//! experiment, a missing or malformed value, a sub-flag without its mode,
//! one output flag shared by two selected modes, or `--loss` together with
//! `--introspect-out`.

use std::collections::BTreeMap;
use std::time::Instant;

use ompi_bench::measure::{self, Setup};
use ompi_bench::{
    apps_scaling, coll_bcast, compare, fig10a, fig10b, fig10c, fig10d, fig7a, fig7b, fig8, fig9,
    io_scaling, multinet, multirail, onesided, overlap, scale, sweep_irq_cost,
    sweep_rndv_threshold, table1, Table,
};
use openmpi_core::{StackConfig, Transports};

#[allow(clippy::type_complexity)]
const EXPERIMENTS: &[(&str, fn() -> Table)] = &[
    ("fig7a", fig7a as fn() -> Table),
    ("fig7b", fig7b),
    ("fig8", fig8),
    ("fig9", fig9),
    ("table1", table1),
    ("fig10a", fig10a),
    ("fig10b", fig10b),
    ("fig10c", fig10c),
    ("fig10d", fig10d),
    ("multirail", multirail),
    ("multinet", multinet),
    ("coll-bcast", coll_bcast),
    ("onesided", onesided),
    ("apps", apps_scaling),
    ("overlap", overlap),
    ("scale", scale),
    ("io", io_scaling),
    ("sweep-rndv", sweep_rndv_threshold),
    ("sweep-irq", sweep_irq_cost),
];

/// The experiments that appear in the paper's evaluation (`paper`).
const PAPER: &[&str] = &[
    "fig7a", "fig7b", "fig8", "fig9", "table1", "fig10a", "fig10b", "fig10c", "fig10d",
];

/// What the value of a flag is.
#[derive(Clone, Copy)]
enum Arg {
    File,
    Count,
    Rate,
}

impl Arg {
    fn metavar(self) -> &'static str {
        match self {
            Arg::File => "FILE",
            Arg::Count => "N",
            Arg::Rate => "EVENTS_PER_SEC",
        }
    }
}

/// The one value flag no mode owns: it collects the `section` documents
/// of every selected mode into one JSON object.
const METRICS_OUT: (&str, Arg) = ("--metrics-out", Arg::File);

/// Sub-flags that select different runs of the same mode.
const CONFLICTS: &[(&str, &str)] = &[("--loss", "--introspect-out")];

/// One bench mode: a flag that runs a measurement, prints its document and
/// gates on it.
struct Mode {
    flag: &'static str,
    help: &'static str,
    /// The sub-flags this mode reads, with their values. A sub-flag given
    /// needs exactly one selected mode that owns it.
    owns: &'static [(&'static str, Arg)],
    /// The owned flag naming the file the document is written to.
    out: Option<&'static str>,
    /// Key of the document in the `--metrics-out` object.
    section: Option<&'static str>,
    run: fn(&Opts) -> Outcome,
}

/// Every mode, in run order.
const MODES: &[Mode] = &[
    Mode {
        flag: "--emit-metrics",
        help: "instrumented ping-pong metrics JSON; --loss N: TCP-only with N FIN_ACKs lost",
        owns: &[
            ("--trace-out", Arg::File),
            ("--introspect-out", Arg::File),
            ("--watchdog", Arg::Count),
            ("--loss", Arg::Count),
        ],
        out: None,
        section: Some("telemetry"),
        run: emit_metrics,
    },
    Mode {
        flag: "--congestion-report",
        help: "8-rank incast per-link congestion table; fails if it is empty",
        owns: &[],
        out: None,
        section: Some("congestion"),
        run: congestion_report,
    },
    Mode {
        flag: "--sim-bench",
        help: "kernel events/s on a reference ping-pong; fails on divergence or below floor",
        owns: &[("--sim-floor", Arg::Rate), ("--bench-out", Arg::File)],
        out: Some("--bench-out"),
        section: None,
        run: sim_bench,
    },
    Mode {
        flag: "--rank-sweep",
        help: "barriers at 64..1024 ranks; fails past budget (default 60000 ms) or below floor",
        owns: &[
            ("--sweep-budget-ms", Arg::Count),
            ("--sweep-floor", Arg::Rate),
            ("--bench-out", Arg::File),
        ],
        out: Some("--bench-out"),
        section: None,
        run: rank_sweep,
    },
    Mode {
        flag: "--coll-curve",
        help: "host vs NIC collectives; fails unless NIC wins at 256 and 1024 ranks",
        owns: &[("--bench-out", Arg::File)],
        out: Some("--bench-out"),
        section: None,
        run: coll_curve,
    },
    Mode {
        flag: "--stall-demo",
        help: "forced rendezvous stall; fails unless the watchdog dumps the flight ring",
        owns: &[("--flight-out", Arg::File)],
        out: Some("--flight-out"),
        section: None,
        run: stall_demo,
    },
    Mode {
        flag: "--critpath",
        help: "1 MiB rendezvous stage breakdown; fails unless stages sum to the total",
        owns: &[("--critpath-out", Arg::File)],
        out: Some("--critpath-out"),
        section: Some("critpath"),
        run: critpath,
    },
    Mode {
        flag: "--timeline",
        help: "8-rank incast pvar time series; fails unless the victim queue ramps",
        owns: &[("--timeline-out", Arg::File)],
        out: Some("--timeline-out"),
        section: Some("timeline"),
        run: timeline,
    },
    Mode {
        flag: "--list-introspect",
        help: "cvar/pvar registry as JSON; fails if it is empty",
        owns: &[],
        out: None,
        section: None,
        run: list_introspect,
    },
    Mode {
        flag: "--bw-curve",
        help: "pipelined vs monolithic vs MPICH bandwidth; fails unless pipelined wins",
        owns: &[("--bench-out", Arg::File)],
        out: Some("--bench-out"),
        section: None,
        run: bw_curve,
    },
    Mode {
        flag: "--flow-bench",
        help: "flow control off vs on under congestion; fails unless on pays off",
        owns: &[("--bench-out", Arg::File)],
        out: Some("--bench-out"),
        section: None,
        run: flow_bench,
    },
    Mode {
        flag: "--reg-bench",
        help: "registration cache off vs on; fails unless on is faster with hits",
        owns: &[("--bench-out", Arg::File)],
        out: Some("--bench-out"),
        section: None,
        run: reg_bench,
    },
];

/// A parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Opts {
    csv: bool,
    md: bool,
    /// `compare`: print the paper-vs-measured anchors.
    compare: bool,
    /// Experiments to regenerate, `all` and `paper` expanded.
    experiments: Vec<&'static str>,
    /// Selected mode flags; they run in table order.
    modes: Vec<&'static str>,
    /// Every value flag given, with its value.
    values: BTreeMap<&'static str, String>,
}

impl Opts {
    fn file(&self, flag: &str) -> Option<&str> {
        self.values.get(flag).map(String::as_str)
    }

    /// A numeric flag's value, or `default` when it was not given.
    fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> T {
        self.values.get(flag).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| unreachable!("checked by parse"))
        })
    }
}

/// What one mode produced.
#[derive(Default)]
struct Outcome {
    /// Human-readable text printed on stdout ahead of the document.
    text: String,
    /// The JSON document: printed on stdout, written to the mode's output
    /// file and to its `--metrics-out` section.
    doc: String,
    /// Further files to write, `(path, contents)`.
    files: Vec<(String, String)>,
    /// One-line summary for stderr.
    summary: String,
    /// The gates that did not hold.
    failures: Vec<String>,
}

impl Outcome {
    fn new(doc: String, summary: String) -> Outcome {
        Outcome {
            doc,
            summary,
            ..Default::default()
        }
    }

    /// Record a gate: `msg` is the failure when `ok` does not hold.
    fn gate(&mut self, ok: bool, msg: impl Into<String>) {
        if !ok {
            self.failures.push(msg.into());
        }
    }
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts::default();
    let mut positional = Vec::new();
    let mut args = args.iter();
    while let Some(a) = args.next() {
        let owned = MODES.iter().flat_map(|m| m.owns);
        if let Some(&(flag, arg)) = owned.chain([&METRICS_OUT]).find(|(f, _)| f == a) {
            let what = arg.metavar();
            let v = args
                .next()
                .ok_or(format!("`{flag}` needs a {what} value"))?;
            let valid = match arg {
                Arg::File => true,
                Arg::Count => v.parse::<u64>().is_ok(),
                Arg::Rate => v.parse::<f64>().is_ok(),
            };
            if !valid {
                return Err(format!("`{flag}` needs a {what} value, not `{v}`"));
            }
            o.values.insert(flag, v.clone());
        } else if let Some(m) = MODES.iter().find(|m| m.flag == a) {
            o.modes.push(m.flag);
        } else if a == "--csv" {
            o.csv = true;
        } else if a == "--md" {
            o.md = true;
        } else if a.starts_with("--") {
            return Err(format!("unknown flag `{a}`"));
        } else {
            positional.push(a.as_str());
        }
    }
    match positional[..] {
        ["compare"] => o.compare = true,
        ["all"] => o.experiments = EXPERIMENTS.iter().map(|(n, _)| *n).collect(),
        ["paper"] => o.experiments = PAPER.to_vec(),
        _ => {
            for name in positional {
                let Some((known, _)) = EXPERIMENTS.iter().find(|(n, _)| *n == name) else {
                    return Err(format!("unknown experiment `{name}`"));
                };
                o.experiments.push(known);
            }
        }
    }
    for &flag in o.values.keys() {
        let owners: Vec<&str> = MODES
            .iter()
            .filter(|m| m.owns.iter().any(|(f, _)| *f == flag))
            .map(|m| m.flag)
            .collect();
        let selected: Vec<&str> = owners
            .iter()
            .copied()
            .filter(|f| o.modes.contains(f))
            .collect();
        if !owners.is_empty() && selected.is_empty() {
            return Err(format!("`{flag}` needs {}", owners.join(" or ")));
        }
        if selected.len() > 1 {
            return Err(format!(
                "`{flag}` would be shared by {}: run them separately",
                selected.join(" and ")
            ));
        }
    }
    for (a, b) in CONFLICTS {
        if o.values.contains_key(a) && o.values.contains_key(b) {
            return Err(format!("`{a}` and `{b}` select different runs: give one"));
        }
    }
    if o.modes.is_empty() && o.experiments.is_empty() && !o.compare {
        return Err("nothing to run".to_string());
    }
    Ok(o)
}

fn usage() -> String {
    let mut s = String::from(
        "usage: harness [--csv|--md] [--metrics-out FILE] [MODE [SUB-FLAG VALUE]...]... \
         [<experiment>... | all | paper | compare]\n\nmodes, run in this order after any \
         experiments:\n",
    );
    for m in MODES {
        s.push_str(&format!("  {}", m.flag));
        for (flag, arg) in m.owns {
            s.push_str(&format!(" [{flag} {}]", arg.metavar()));
        }
        s.push_str(&format!("\n      {}\n", m.help));
    }
    let sections: Vec<&str> = MODES
        .iter()
        .filter(|m| m.section.is_some())
        .map(|m| m.flag)
        .collect();
    s.push_str(&format!(
        "--metrics-out FILE writes the documents of {} as one JSON object.\n\
         --csv / --md print experiment tables as CSV / markdown.\n\
         exit status: 0 every gate passed, 1 a gate failed or a file could not be written, \
         2 usage error.\nexperiments (`paper`: fig7a..fig10d; `all`: every one):\n",
        sections.join(", ")
    ));
    for (name, _) in EXPERIMENTS {
        s.push_str(&format!("  {name}\n"));
    }
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse(&args).unwrap_or_else(|e| {
        eprintln!("harness: {e}\n\n{}", usage());
        std::process::exit(2);
    });
    let tables = (opts.compare || !opts.experiments.is_empty()).then_some(("experiments", None));
    let selected = MODES.iter().filter(|m| opts.modes.contains(&m.flag));
    let modes = selected.map(|m| (&m.flag[2..], Some(m)));
    let mut sections = Vec::new();
    let mut failed = false;
    for (name, mode) in tables.into_iter().chain(modes) {
        let start = Instant::now();
        let out = mode.map_or_else(|| experiments(&opts), |m| (m.run)(&opts));
        print!("{}", out.text);
        if !out.doc.is_empty() {
            println!("{}", out.doc);
        }
        let mut files = out.files;
        if let Some(path) = mode.and_then(|m| m.out).and_then(|f| opts.file(f)) {
            files.push((path.to_string(), out.doc.clone()));
        }
        if let Some(section) = mode.and_then(|m| m.section) {
            sections.push(format!("\"{section}\":{}", out.doc));
        }
        for (path, body) in &files {
            failed |= !write(name, path, body);
        }
        eprintln!(
            "[{name}: {}, in {:.1?} wall time]",
            out.summary,
            start.elapsed()
        );
        for f in &out.failures {
            eprintln!("{name} FAILED: {f}");
        }
        failed |= !out.failures.is_empty();
    }
    if let Some(path) = opts.file(METRICS_OUT.0) {
        failed |= !write("metrics", path, &format!("{{{}}}", sections.join(",")));
    }
    std::process::exit(i32::from(failed));
}

/// Write one output file; a failure is reported, not a panic.
fn write(name: &str, path: &str, body: &str) -> bool {
    match std::fs::write(path, body) {
        Ok(()) => {
            eprintln!("[{name}: written to {path}]");
            true
        }
        Err(e) => {
            eprintln!("harness: writing {path}: {e}");
            false
        }
    }
}

fn experiments(o: &Opts) -> Outcome {
    if o.compare {
        return Outcome {
            text: compare::render(&compare::anchors()),
            summary: "paper-vs-measured anchors".to_string(),
            ..Default::default()
        };
    }
    let mut text = String::new();
    for name in &o.experiments {
        let (_, f) = EXPERIMENTS
            .iter()
            .find(|(n, _)| n == name)
            .expect("parse checked it");
        let table = f();
        text.push_str(&if o.csv {
            format!("# {}\n{}", table.title, table.to_csv())
        } else if o.md {
            format!("### {}\n{}", table.title, table.to_markdown())
        } else {
            table.render()
        });
    }
    Outcome {
        text,
        summary: format!("regenerated {}", o.experiments.join(", ")),
        ..Default::default()
    }
}

fn emit_metrics(o: &Opts) -> Outcome {
    let setup = Setup::paper(StackConfig::default());
    let loss = o.num("--loss", 0);
    let introspect_out = o.file("--introspect-out");
    let (telemetry, introspect) = if loss > 0 {
        // One 64 KiB rendezvous round trip per dropped FIN_ACK, plus one
        // clean round.
        measure::instrumented_pingpong(&setup, 2, 64 << 10, loss as usize + 1, None, loss)
    } else {
        // 4 ranks, 16 KiB messages: well past the eager limit, so the
        // rendezvous histograms and RDMA counters all light up.
        let watchdog = introspect_out.map(|_| o.num("--watchdog", 64));
        measure::instrumented_pingpong(&setup, 4, 16 << 10, 8, watchdog, 0)
    };
    let mut out = Outcome::new(telemetry.to_json(), "telemetry captured".to_string());
    if let (Some(path), Some(report)) = (introspect_out, introspect) {
        out.files.push((path.to_string(), report.to_json()));
        let straggler = report.cluster.straggler;
        out.summary += &format!(", {} stalls, straggler {straggler:?}", report.stalls);
    }
    if loss > 0 {
        let healed: u64 = telemetry
            .per_rank
            .iter()
            .map(|m| m.counters.retransmits)
            .sum();
        out.summary += &format!(", {loss} FIN_ACK(s) dropped, {healed} retransmission(s) healed");
    }
    if let Some(path) = o.file("--trace-out") {
        out.files.push((path.to_string(), telemetry.chrome_trace()));
    }
    // A non-zero drop count means the timeline is missing its oldest
    // events — surfaced loudly instead of silently truncating.
    for (rank, log) in telemetry.traces.iter().filter(|(_, log)| log.dropped() > 0) {
        eprintln!(
            "[warning: rank {rank} trace ring dropped {} event(s); \
             raise telemetry.trace_capacity for a complete timeline]",
            log.dropped()
        );
    }
    out
}

fn congestion_report(_: &Opts) -> Outcome {
    // 8 ranks on the default QS-8A fat tree: ranks 1..8 flood rank 0 with
    // eager-sized messages, so every sender's traffic funnels into one
    // ejection link — the congestion the report must name.
    let c = measure::incast_congestion(&Setup::paper(StackConfig::default()), 8, 1 << 10, 32, 16);
    let hot_link = c.hot_link().unwrap_or_else(|| "none".to_string());
    let active = c.congestion.links_active;
    let mut out = Outcome::new(
        c.to_json(),
        format!(
            "hot rank {} via link {hot_link}, {active} active link(s)",
            c.hot_rank
        ),
    );
    out.text = c.congestion.render();
    out.gate(!c.congestion.links.is_empty(), "empty link table");
    out
}

fn sim_bench(o: &Opts) -> Outcome {
    // Fixed reference workload: the event count is deterministic, so
    // events/s tracks only the kernel's wall-clock speed.
    let b = measure::sim_bench(&Setup::paper(StackConfig::default()), 8, 16 << 10, 16);
    let r = &b.report;
    let (eps, floor) = (r.events_per_sec(), o.num("--sim-floor", 0.0));
    let mut out = Outcome::new(
        b.to_json(),
        format!(
            "{} events ({} calls, {} wakes, {} stale) at {eps:.0} events/s, determinism {}",
            r.events_processed,
            r.calls_executed,
            r.wakes_executed,
            r.stale_wakes,
            if b.determinism_ok { "ok" } else { "BROKEN" }
        ),
    );
    let empty = r.events_processed == 0 || r.wall_ns == 0;
    out.gate(!empty, "kernel profile came up empty");
    out.gate(
        b.determinism_ok,
        "schedule fingerprints diverged across repeat runs / queue implementations",
    );
    out.gate(
        floor <= 0.0 || eps >= floor,
        format!("{eps:.0} events/s is below the floor of {floor:.0}"),
    );
    out
}

fn rank_sweep(o: &Opts) -> Outcome {
    // Scaling sweep up to a 1024-rank collective: 4 barrier rounds per
    // world size, the whole sweep budgeted in wall clock.
    let budget_ms = o.num("--sweep-budget-ms", 60_000);
    let setup = Setup::paper(StackConfig::default());
    let r = measure::rank_sweep(&setup, &[64, 256, 1024], 4, budget_ms);
    let points: Vec<String> = r
        .points
        .iter()
        .map(|p| {
            format!(
                "{} ranks {:.0} events/s in {:.1} ms",
                p.ranks,
                p.report.events_per_sec(),
                p.report.wall_ns as f64 / 1e6
            )
        })
        .collect();
    let (total_ms, points) = (r.total_wall_ms, points.join(", "));
    let mut out = Outcome::new(
        r.to_json(),
        format!("{points}; total {total_ms:.1} ms against a {budget_ms} ms budget"),
    );
    let empty = r.points.iter().any(|p| p.report.events_processed == 0);
    out.gate(!empty, "a point came up empty");
    out.gate(
        r.within_budget(),
        format!("{total_ms:.1} ms exceeds the {budget_ms} ms wall budget"),
    );
    // Per-point throughput floor: the 1024-rank point is the binding one —
    // smaller worlds only run faster.
    let floor = o.num("--sweep-floor", 0.0);
    for p in &r.points {
        let eps = p.report.events_per_sec();
        out.gate(
            floor <= 0.0 || eps >= floor,
            format!(
                "{} ranks ran at {eps:.0} events/s, below the floor of {floor:.0}",
                p.ranks
            ),
        );
    }
    out
}

fn coll_curve(_: &Opts) -> Outcome {
    // Barrier / bcast / allreduce at growing world sizes, 512-byte payloads
    // (inside the NIC event-program ceiling), each timed host-driven and
    // NIC-offloaded on an identical fabric.
    let setup = Setup::paper(StackConfig::default());
    let r = measure::coll_curve(&setup, &[64, 256, 1024], 512, 8);
    let colls = ["barrier", "bcast", "allreduce"];
    let speedups: Vec<String> = colls
        .iter()
        .filter_map(|c| r.point(1024, c))
        .map(|p| format!("{} {:.2}x", p.coll, p.speedup()))
        .collect();
    let mut out = Outcome::new(
        r.to_json(),
        format!(
            "{} cells, NIC/host speedup at 1024 ranks: {}",
            r.points.len(),
            speedups.join(", ")
        ),
    );
    // The gate: once the tree is deep enough that host wakeups dominate —
    // 256 ranks and up — the NIC-resident program must win outright for
    // every collective.
    for ranks in [256, 1024] {
        for coll in colls {
            let p = r
                .point(ranks, coll)
                .expect("gate cells are on the measured grid");
            out.gate(
                p.nic_us < p.host_us,
                format!(
                    "NIC-offloaded {coll} ({:.1}us) not faster than host-driven ({:.1}us) \
                     at {ranks} ranks",
                    p.nic_us, p.host_us
                ),
            );
        }
    }
    out
}

fn stall_demo(_: &Opts) -> Outcome {
    eprintln!(
        "[stall-demo: forcing a rendezvous stall — the panic below is the watchdog firing, \
         not a harness bug]"
    );
    let demo = measure::stall_flight_demo();
    let (diags, dumps) = (demo.diagnostics.len(), demo.flight_dumps.len());
    let mut out = Outcome::new(
        demo.to_json(),
        format!("{diags} diagnostic(s), {dumps} flight dump(s)"),
    );
    out.gate(dumps > 0, "no flight-recorder dump produced");
    out
}

fn critpath(_: &Opts) -> Outcome {
    // 1 MiB messages: past the pipeline floor, so each send runs the full
    // chunked rendezvous whose stages the report decomposes.
    let c = measure::critpath_pingpong(&Setup::paper(StackConfig::default()), 1 << 20, 4);
    let (msgs, buckets) = (c.report.msgs.len(), c.report.buckets.len());
    let mut out = Outcome::new(
        c.to_json(),
        format!("{msgs} message(s) decomposed across {buckets} size bucket(s)"),
    );
    out.text = c.report.render();
    // The gates: a 1 MiB rendezvous must decompose into at least four named
    // stages that reconcile with the measured total, and the merged Chrome
    // trace must link the two ranks with flow arrows.
    let big: Vec<_> = c
        .report
        .msgs
        .iter()
        .filter(|m| !m.eager && m.len == 1 << 20)
        .collect();
    out.gate(!big.is_empty(), "no 1 MiB rendezvous message in the report");
    for m in big {
        let nonzero = m.stages.iter().filter(|(_, ns)| *ns > 0).count();
        out.gate(
            nonzero >= 4,
            format!(
                "gid {:#x} decomposed into only {nonzero} nonzero stage(s): {:?}",
                m.gid, m.stages
            ),
        );
        let (sum, total) = (m.stage_sum_ns(), m.total_ns);
        out.gate(
            sum.abs_diff(total) * 20 <= total,
            format!(
                "gid {:#x} stages sum to {sum}ns, total is {total}ns (off by more than 5%)",
                m.gid
            ),
        );
    }
    let chrome = c.chrome_trace();
    out.gate(
        chrome.contains("\"ph\":\"s\"") && chrome.contains("\"ph\":\"f\""),
        "merged Chrome trace has no cross-rank flow events",
    );
    out
}

fn timeline(_: &Opts) -> Outcome {
    // 8 ranks, eager-sized messages: the senders flood without waiting for
    // a handshake, so every packet converges on rank 0's ejection link at
    // once and the periodic sampler sees its queue depth ramp while the
    // incast is in full swing.
    let c = measure::timeline_incast(&Setup::paper(StackConfig::default()), 8, 1 << 10, 32);
    let (samples, peak) = (c.victim_samples().len(), c.victim_max_ej_queue());
    let mut out = Outcome::new(
        c.to_json(),
        format!("{samples} sample(s) on the victim, peak ej queue {peak}"),
    );
    out.gate(samples > 0, "sampler produced no samples on the victim");
    out.gate(
        peak >= 2,
        "victim ejection queue never exceeded 1 (no congestion ramp visible)",
    );
    out
}

fn list_introspect(_: &Opts) -> Outcome {
    // A 1-rank world is enough: the registry is per-endpoint and the values
    // reported are the live ones after config application.
    let json = measure::introspect_registry(&Setup::paper(StackConfig::default()));
    let full = json.contains("\"cvars\":[{") && json.contains("\"pvars\":[{");
    let mut out = Outcome::new(json, "registry dumped".to_string());
    out.gate(full, "registry dump came up empty");
    out
}

fn bw_curve(_: &Opts) -> Outcome {
    // Rendezvous-sized messages from just below the pipeline floor (16 KiB)
    // up to multi-megabyte streams (4 MiB). Window 1: each message's
    // registration sits on the critical path, which is what the pipeline
    // attacks. Two rails: Open MPI stripes across both (pipelined chunks
    // round-robin, the monolithic path splits per-rail) while the
    // MPICH-QsNet Tport rides one rail, so the Open MPI series overtake the
    // baseline once striping outweighs their per-message registration cost
    // — the crossover the curve reports.
    let sizes: Vec<usize> = (14..=22).map(|shift| 1 << shift).collect();
    let mut setup = Setup::paper(StackConfig::default());
    setup.fabric.rails = 2;
    setup.transports = Transports {
        elan_rails: 2,
        tcp: false,
    };
    let r = measure::bw_curve(&setup, &sizes, 1, 8);
    let (pipe, mono) = (r.crossover(true), r.crossover(false));
    let mut out = Outcome::new(
        r.to_json(),
        format!("crossover vs mpich at {pipe:?} pipelined / {mono:?} monolithic"),
    );
    // The gate: with registration charged, chunking must win once the map
    // cost is large enough to hide — 256 KiB and up.
    for len in [256 << 10, 1 << 20] {
        let p = r.point(len).expect("gate sizes are on the measured grid");
        out.gate(
            p.pipelined > p.monolithic,
            format!(
                "pipelined ({:.1} MB/s) not faster than monolithic ({:.1} MB/s) at {len} bytes",
                p.pipelined, p.monolithic
            ),
        );
    }
    out
}

fn flow_bench(_: &Opts) -> Outcome {
    // Three congestion scenarios with flow control off and on, plus the
    // uncongested ping-pong pricing the credit machinery's overhead.
    let r = measure::flow_bench(&Setup::paper(StackConfig::default()));
    let (off, on) = &r.incast;
    let mut out = Outcome::new(
        r.to_json(),
        format!(
            "incast {:.0}us (off) vs {:.0}us (on), victim ej peak {} -> {}, \
             pool fallbacks {} -> {}, pingpong ratio {:.3}",
            off.completion_ns as f64 / 1_000.0,
            on.completion_ns as f64 / 1_000.0,
            off.victim_ej_queue_peak,
            on.victim_ej_queue_peak,
            off.pool_fallbacks,
            on.pool_fallbacks,
            r.pingpong_ratio()
        ),
    );
    // The gates: flow-on must pay for itself under congestion and cost
    // nothing measurable without it.
    let (t_off, t_on) = (off.completion_ns, on.completion_ns);
    out.gate(
        t_on < t_off,
        format!("flow-on incast ({t_on}ns) not faster than flow-off ({t_off}ns)"),
    );
    let (q_off, q_on) = (off.victim_ej_queue_peak, on.victim_ej_queue_peak);
    out.gate(
        q_on < q_off,
        format!("flow-on victim ejection peak ({q_on}) not below flow-off ({q_off})"),
    );
    out.gate(
        r.pingpong_ratio() <= 1.05,
        format!(
            "flow-on ping-pong ({:.3}us) regresses flow-off ({:.3}us) by more than 5%",
            r.pingpong_on_us, r.pingpong_off_us
        ),
    );
    out
}

fn reg_bench(_: &Opts) -> Outcome {
    // 64 KiB messages, well past the eager limit, reusing the same buffers
    // every round — the workload the pin-down cache targets.
    let r = measure::reg_cache_compare(&Setup::paper(StackConfig::default()), 64 << 10, 16);
    let (off, on, hits) = (r.off.latency_us, r.on.latency_us, r.on.stats.hits);
    let mut out = Outcome::new(
        r.to_json(),
        format!(
            "{off:.3}us (cache off) vs {on:.3}us (cache on), {:.2}x, {hits} hits",
            r.speedup()
        ),
    );
    out.gate(on < off, "cache-on latency is not strictly lower");
    out.gate(hits > 0, "cache reported zero hits");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Opts, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    fn opts(modes: &[&'static str], values: &[(&'static str, &str)]) -> Opts {
        Opts {
            modes: modes.to_vec(),
            values: values.iter().map(|(f, v)| (*f, v.to_string())).collect(),
            ..Default::default()
        }
    }

    #[test]
    fn check_script_command_lines_parse_to_their_modes_and_values() {
        let cases = [
            (
                "--reg-bench --bench-out BENCH_regcache.json",
                opts(&["--reg-bench"], &[("--bench-out", "BENCH_regcache.json")]),
            ),
            (
                "--bw-curve --bench-out BENCH_pipeline.json",
                opts(&["--bw-curve"], &[("--bench-out", "BENCH_pipeline.json")]),
            ),
            (
                "--flow-bench --bench-out BENCH_flow.json",
                opts(&["--flow-bench"], &[("--bench-out", "BENCH_flow.json")]),
            ),
            (
                "--sim-bench --sim-floor 593480 --bench-out BENCH_sim.json",
                opts(
                    &["--sim-bench"],
                    &[("--sim-floor", "593480"), ("--bench-out", "BENCH_sim.json")],
                ),
            ),
            (
                "--rank-sweep --sweep-budget-ms 60000 --sweep-floor 150000 \
                 --bench-out BENCH_sweep.json",
                opts(
                    &["--rank-sweep"],
                    &[
                        ("--sweep-budget-ms", "60000"),
                        ("--sweep-floor", "150000"),
                        ("--bench-out", "BENCH_sweep.json"),
                    ],
                ),
            ),
            (
                "--coll-curve --bench-out BENCH_coll.json",
                opts(&["--coll-curve"], &[("--bench-out", "BENCH_coll.json")]),
            ),
            (
                "--congestion-report --metrics-out congestion.json",
                opts(
                    &["--congestion-report"],
                    &[("--metrics-out", "congestion.json")],
                ),
            ),
            (
                "--stall-demo --flight-out flight_dump.json",
                opts(&["--stall-demo"], &[("--flight-out", "flight_dump.json")]),
            ),
            (
                "--critpath --critpath-out critpath.json",
                opts(&["--critpath"], &[("--critpath-out", "critpath.json")]),
            ),
            (
                "--timeline --timeline-out timeline.json",
                opts(&["--timeline"], &[("--timeline-out", "timeline.json")]),
            ),
            ("--list-introspect", opts(&["--list-introspect"], &[])),
        ];
        for (line, want) in cases {
            assert_eq!(parse_line(line), Ok(want), "{line}");
        }
        let sim = parse_line("--sim-bench --sim-floor 593480").unwrap();
        assert_eq!(sim.num("--sim-floor", 0.0), 593_480.0);
        let sweep =
            parse_line("--rank-sweep --sweep-budget-ms 60000 --sweep-floor 150000").unwrap();
        assert_eq!(sweep.num("--sweep-budget-ms", 0), 60_000);
        assert_eq!(sweep.num("--sweep-floor", 0.0), 150_000.0);
    }

    #[test]
    fn documented_command_lines_still_parse() {
        let ins = parse_line("--emit-metrics --introspect-out F --watchdog 64").unwrap();
        assert_eq!(ins.modes, ["--emit-metrics"]);
        assert_eq!(ins.file("--introspect-out"), Some("F"));
        assert_eq!(ins.num("--watchdog", 0), 64);
        assert_eq!(
            parse_line("--emit-metrics --loss 1")
                .unwrap()
                .num("--loss", 0),
            1
        );
        let trace = parse_line("--emit-metrics --trace-out trace.json").unwrap();
        assert_eq!(trace.file("--trace-out"), Some("trace.json"));
        let csv = parse_line("fig7a --csv --emit-metrics").unwrap();
        assert_eq!((csv.csv, &csv.experiments[..]), (true, &["fig7a"][..]));
        assert_eq!(
            parse_line("all").unwrap().experiments.len(),
            EXPERIMENTS.len()
        );
        assert_eq!(parse_line("paper").unwrap().experiments, PAPER);
        assert!(parse_line("compare").unwrap().compare);
    }

    #[test]
    fn bad_command_lines_are_usage_errors() {
        for line in [
            "",
            "--bogus",
            "--reg-bench --bench-out",
            "--sim-bench --sim-floor fast",
            "--sim-floor 5",
            "--trace-out t.json",
            "--bw-curve --reg-bench --bench-out x.json",
            "--emit-metrics --loss 2 --introspect-out f.json",
            "fig99",
            "compare fig7a",
        ] {
            assert!(parse_line(line).is_err(), "`{line}` must be rejected");
        }
        let err = parse_line("--bw-curve --reg-bench --bench-out x.json").unwrap_err();
        assert!(
            err.contains("--bw-curve") && err.contains("--reg-bench"),
            "{err}"
        );
        let err = parse_line("--sim-floor 5").unwrap_err();
        assert!(
            err.contains("--sim-floor") && err.contains("--sim-bench"),
            "{err}"
        );
    }

    #[test]
    fn usage_lists_every_sub_flag_with_its_value() {
        assert!(
            usage().contains("--rank-sweep [--sweep-budget-ms N] [--sweep-floor EVENTS_PER_SEC]")
        );
        assert!(usage().contains("--stall-demo [--flight-out FILE]"));
    }
}
