//! MPI_T-style introspection: the cvar registry (read, validated write,
//! runtime effect), the pvar snapshot/aggregation plane, and a clean
//! watchdog-armed run producing zero stalls with pvar totals that agree
//! with the metrics plane.

use std::sync::Arc;

use openmpi_core::{CvarValue, Placement, StackConfig, Universe};

/// Every registry entry is readable, defaults mirror the config, and bad
/// writes (unknown name, read-only target, type mismatch, invalid value)
/// fail with a diagnostic instead of corrupting the stack.
#[test]
fn cvar_registry_reads_defaults_and_validates_writes() {
    let cfg = StackConfig::best();
    let eager = cfg.eager_limit as u64;
    let uni = Universe::paper_testbed(cfg);
    uni.run_world(1, Placement::RoundRobin, move |mpi| {
        let ep = mpi.endpoint();

        let json = openmpi_core::cvars_json(ep);
        for name in [
            "pml.eager_limit",
            "pml.rdma_scheme",
            "ptl.completion_mode",
            "telemetry.metrics",
            "watchdog.interval",
            "watchdog.grace",
        ] {
            assert!(json.contains(&format!("\"{name}\"")), "{name} in {json}");
        }

        assert_eq!(
            openmpi_core::cvar_read(ep, "pml.eager_limit"),
            Some(CvarValue::U64(eager))
        );
        assert_eq!(
            openmpi_core::cvar_read(ep, "telemetry.metrics"),
            Some(CvarValue::Bool(false))
        );
        assert_eq!(openmpi_core::cvar_read(ep, "no.such.var"), None);

        // Unknown variable.
        assert!(openmpi_core::cvar_write(ep, "no.such.var", CvarValue::U64(1)).is_err());
        // Read-only variable.
        assert!(
            openmpi_core::cvar_write(ep, "pml.rdma_scheme", CvarValue::Str("write".into()))
                .is_err()
        );
        // Type mismatch on a writable variable.
        assert!(openmpi_core::cvar_write(ep, "pml.eager_limit", CvarValue::Bool(true)).is_err());
        // Out-of-range value.
        assert!(openmpi_core::cvar_write(ep, "pml.eager_limit", CvarValue::U64(1 << 30)).is_err());
        assert!(openmpi_core::cvar_write(ep, "watchdog.grace", CvarValue::U64(0)).is_err());

        // A valid write takes effect immediately and reads back.
        openmpi_core::cvar_write(ep, "watchdog.grace", CvarValue::U64(9)).unwrap();
        assert_eq!(
            openmpi_core::cvar_read(ep, "watchdog.grace"),
            Some(CvarValue::U64(9))
        );
        openmpi_core::cvar_write(ep, "telemetry.metrics", CvarValue::Bool(true)).unwrap();
        assert_eq!(
            openmpi_core::cvar_read(ep, "telemetry.metrics"),
            Some(CvarValue::Bool(true))
        );
    });
}

/// A writable cvar's name, a valid non-default value, and the values its
/// range rejects, each with the exact error text.
type WriteRule = (&'static str, CvarValue, Vec<(u64, String)>);

/// How each writable cvar takes writes on a default endpoint; the rejected
/// values are the boundaries of its range.
fn write_rules() -> Vec<WriteRule> {
    use CvarValue::{Bool, U64};
    let pool = StackConfig::default().flow_bounce_pool as u64;
    let at_least = |name: &str, min: u64, text: &str| -> Vec<(u64, String)> {
        (0..min)
            .map(|v| (v, format!("{name} must be {text}")))
            .collect()
    };
    vec![
        (
            "pml.eager_limit",
            U64(1024),
            [1985, u64::MAX]
                .iter()
                .map(|v| {
                    let e = format!("pml.eager_limit {v} exceeds the QDMA inline maximum 1984");
                    (*v, e)
                })
                .collect(),
        ),
        ("telemetry.metrics", Bool(true), vec![]),
        ("telemetry.trace", Bool(true), vec![]),
        ("flight.enable", Bool(false), vec![]),
        ("watchdog.interval", U64(16), vec![]),
        (
            "watchdog.grace",
            U64(9),
            at_least("watchdog.grace", 1, ">= 1"),
        ),
        (
            "tcp.retransmit_timeout_ns",
            U64(123_000),
            at_least("tcp.retransmit_timeout_ns", 1, "> 0"),
        ),
        (
            "tcp.retransmit_backoff",
            U64(3),
            at_least("tcp.retransmit_backoff", 1, ">= 1"),
        ),
        ("tcp.max_retries", U64(0), vec![]),
        ("reg.cache", Bool(false), vec![]),
        (
            "reg.cache_bytes",
            U64(1 << 20),
            at_least("reg.cache_bytes", 1, "> 0"),
        ),
        (
            "reg.cache_entries",
            U64(7),
            at_least("reg.cache_entries", 1, "> 0"),
        ),
        ("pipe.enable", Bool(false), vec![]),
        ("pipe.chunk", U64(4096), at_least("pipe.chunk", 1, "> 0")),
        ("pipe.depth", U64(2), at_least("pipe.depth", 1, ">= 1")),
        ("pipe.min_len", U64(0), vec![]),
        ("flow.enable", Bool(true), vec![]),
        (
            "flow.credits",
            U64(pool),
            vec![
                (
                    0,
                    "flow.credits must be >= 1 (0 auto-scales at init only)".into(),
                ),
                (
                    pool + 1,
                    format!(
                        "flow.credits {} exceeds the bounce pool ({pool} slots)",
                        pool + 1
                    ),
                ),
            ],
        ),
        ("flow.dma_cap", U64(0), vec![]),
        ("coll.nic_offload", Bool(true), vec![]),
        (
            "coll.tree_radix",
            U64(8),
            at_least("coll.tree_radix", 2, ">= 2"),
        ),
        ("coll.hw_bcast", Bool(false), vec![]),
        ("timeline.interval_ns", U64(5_000), vec![]),
    ]
}

/// Every row of the cvar table, driven from the table itself: defaults
/// match a fresh default endpoint, read-only rows refuse writes, and each
/// writable row accepts a valid value, rejects a type mismatch and
/// rejects every boundary value outside its range with today's exact
/// text, changing nothing.
#[test]
fn every_cvar_row_reads_writes_and_validates() {
    use openmpi_core::introspect::{cvar_default, CVARS};
    use openmpi_core::{cvar_read, cvar_write};

    let rules = write_rules();
    for (name, ..) in &rules {
        let def = CVARS.iter().find(|d| d.name == *name);
        assert!(
            def.is_some_and(|d| d.writable()),
            "{name} is a writable row"
        );
    }
    let cfg = StackConfig::default();
    assert_eq!(cvar_default("no.such.cvar"), None);
    assert_eq!(
        cvar_default("pml.eager_limit"),
        Some(CvarValue::U64(cfg.eager_limit as u64))
    );
    assert_eq!(
        cvar_default("timeline.interval_ns"),
        Some(CvarValue::U64(cfg.timeline_interval.as_ns()))
    );

    let uni = Universe::paper_testbed(cfg);
    uni.run_world(1, Placement::RoundRobin, move |mpi| {
        let ep = mpi.endpoint();
        // Fresh endpoint: every live value is the row's default.
        for d in CVARS {
            let live = cvar_read(ep, d.name).expect("every row reads");
            assert_eq!(cvar_default(d.name), Some(live), "{} default", d.name);
        }
        for d in CVARS {
            let before = cvar_read(ep, d.name).unwrap();
            if !d.writable() {
                assert_eq!(
                    cvar_write(ep, d.name, before.clone()),
                    Err(format!("cvar {} is read-only", d.name))
                );
                assert_eq!(cvar_read(ep, d.name), Some(before));
                continue;
            }
            let (_, valid, rejected) = rules
                .iter()
                .find(|(n, ..)| *n == d.name)
                .unwrap_or_else(|| panic!("writable cvar {} has no write rule", d.name));
            let mismatch = match before {
                CvarValue::Bool(_) => CvarValue::U64(1),
                _ => CvarValue::Bool(true),
            };
            assert_eq!(
                cvar_write(ep, d.name, mismatch.clone()),
                Err(format!("cvar {}: type mismatch (got {mismatch:?})", d.name))
            );
            for (v, err) in rejected {
                assert_eq!(
                    cvar_write(ep, d.name, CvarValue::U64(*v)).as_ref(),
                    Err(err)
                );
            }
            assert_eq!(
                cvar_read(ep, d.name),
                Some(before),
                "rejected writes change nothing"
            );
            cvar_write(ep, d.name, valid.clone()).unwrap();
            assert_eq!(
                cvar_read(ep, d.name).as_ref(),
                Some(valid),
                "{} reads back",
                d.name
            );
        }
        // The reg.* rows live in the registration cache itself.
        let reg = ep.reg.lock();
        assert!(!reg.enabled());
        assert_eq!((reg.cap_bytes(), reg.cap_entries()), (1 << 20, 7));
    });
}

/// Writing `pml.eager_limit` mid-run changes protocol selection for the
/// very next send: the same message length goes eager before the write and
/// rendezvous after it.
#[test]
fn eager_limit_write_flips_protocol_at_runtime() {
    let stack = StackConfig {
        metrics: true,
        ..StackConfig::best()
    };
    let uni = Universe::paper_testbed(stack);
    let metrics: Arc<qsim::Mutex<Vec<openmpi_core::Metrics>>> =
        Arc::new(qsim::Mutex::new(Vec::new()));
    let m2 = metrics.clone();
    uni.run_world(2, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        let len = 1024; // below the default eager limit
        let buf = mpi.alloc(len);
        if mpi.rank() == 0 {
            mpi.send(&w, 1, 0, &buf, len);
            openmpi_core::cvar_write(mpi.endpoint(), "pml.eager_limit", CvarValue::U64(0)).unwrap();
            mpi.send(&w, 1, 1, &buf, len);
            m2.lock().push(mpi.endpoint().metrics_snapshot());
        } else {
            mpi.recv(&w, 0, 0, &buf, len);
            mpi.recv(&w, 0, 1, &buf, len);
        }
        mpi.free(buf);
    });
    let m = metrics.lock();
    assert_eq!(m.len(), 1);
    assert_eq!(m[0].counters.eager_sent, 1, "first send below the limit");
    assert_eq!(m[0].counters.rndv_sent, 1, "second send after limit drop");
}

/// A clean watchdog-armed run: no stalls, and the cluster-wide pvar
/// aggregation agrees exactly with the per-rank metrics totals from the
/// same run.
#[test]
fn clean_run_zero_stalls_and_pvar_totals_match_metrics() {
    use ompi_bench::measure::{instrumented_pingpong, Setup};

    let setup = Setup::paper(StackConfig::default());
    let (telemetry, Some(report)) = instrumented_pingpong(&setup, 4, 16 << 10, 6, Some(32), 0)
    else {
        panic!("an armed watchdog yields an introspection report");
    };

    assert_eq!(report.stalls, 0, "clean run must not stall");
    assert!(report.diagnostics.is_empty());
    assert_eq!(report.cluster.ranks, 4);
    assert_eq!(report.snapshots.len(), 4);

    // The aggregation and the metrics plane come from the same run: sums
    // must agree counter for counter.
    type Counter = fn(&openmpi_core::Metrics) -> u64;
    let checks: [(&str, Counter); 5] = [
        ("pml.eager_sent", |m| m.counters.eager_sent),
        ("pml.rndv_sent", |m| m.counters.rndv_sent),
        ("pml.recvs_posted", |m| m.counters.recvs_posted),
        ("rdma.bytes", |m| m.counters.rdma_bytes),
        ("progress.iterations", |m| m.counters.progress_iterations),
    ];
    for (pvar, counter) in checks {
        let agg = report.cluster.get(pvar).unwrap_or_else(|| {
            panic!("{pvar} aggregated");
        });
        let expect: u64 = telemetry.per_rank.iter().map(counter).sum();
        assert_eq!(agg.sum, expect, "{pvar} cluster sum");
        let max: u64 = telemetry.per_rank.iter().map(counter).max().unwrap();
        let min: u64 = telemetry.per_rank.iter().map(counter).min().unwrap();
        assert_eq!(agg.max, max, "{pvar} cluster max");
        assert_eq!(agg.min, min, "{pvar} cluster min");
    }

    // Per-rank snapshots match the per-rank metrics too.
    for (rank, snap) in report.snapshots.iter().enumerate() {
        assert_eq!(snap.rank, rank);
        assert_eq!(
            snap.get("pml.rndv_sent").unwrap(),
            telemetry.per_rank[rank].counters.rndv_sent,
            "rank {rank} snapshot"
        );
        assert_eq!(snap.get("watchdog.stalls_detected"), Some(0));
        assert!(snap.get("watchdog.scans").unwrap() > 0, "watchdog armed");
    }

    // Rank 0 drives three peers in this ping-pong; it must surface as the
    // straggler of the aggregation.
    assert_eq!(report.cluster.straggler, Some(0));

    // The emitted JSON document carries the headline numbers.
    let json = report.to_json();
    assert!(json.contains("\"stalls\":0"));
    assert!(json.contains("\"straggler\":0"));
}
