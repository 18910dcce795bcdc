//! Per-layer metrics of a traced run, named after the repository's
//! modules. Each layer's counts are read where the layer keeps them
//! (endpoint metrics, cluster and fabric statistics, the kernel report);
//! MPI-call spans are recorded by the benchmark around each call it makes.

use std::collections::BTreeMap;

use openmpi_core::metrics::{CollOp, Counters};

use crate::stats::{median, tail};
use crate::workloads::ns;
use crate::world::{MachineCapture, RunOut};

/// Per-layer metric names and units, in output order. `BENCHMARK.json`
/// lists exactly these under `per_layer`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("qsim.events", "count"),
    ("qsim.wakes", "count"),
    ("qsim.calls", "count"),
    ("qsim.stale_wakes", "count"),
    ("qsim.max_queue_depth", "count"),
    ("qsim.schedule_hash", "hash48"),
    ("qsim.events_per_s", "1/s"),
    ("qsim.ns_per_event", "ns"),
    ("qsim.wake_ns.p2", "ns"),
    ("qsim.wake_ns.p8", "ns"),
    ("qsim.wake_ns.p256", "ns"),
    ("qsim.call_ns", "ns"),
    ("qsim.wake_share", "ratio"),
    ("qsim.os_handoff_ns", "ns"),
    ("qsim.run_wall_s", "s"),
    ("rte.universe_s", "s"),
    ("rte.spawn_s", "s"),
    ("rte.init_s", "s"),
    ("rte.init_us", "us"),
    ("mpi.send.calls", "count"),
    ("mpi.send.p50_us", "us"),
    ("mpi.send.tail_us", "us"),
    ("mpi.recv.calls", "count"),
    ("mpi.recv.p50_us", "us"),
    ("mpi.recv.tail_us", "us"),
    ("mpi.isend.calls", "count"),
    ("mpi.isend.p50_us", "us"),
    ("mpi.isend.tail_us", "us"),
    ("mpi.waitall.calls", "count"),
    ("mpi.waitall.p50_us", "us"),
    ("mpi.waitall.tail_us", "us"),
    ("mpi.barrier.calls", "count"),
    ("mpi.barrier.p50_us", "us"),
    ("mpi.barrier.tail_us", "us"),
    ("mpi.bcast.calls", "count"),
    ("mpi.bcast.p50_us", "us"),
    ("mpi.bcast.tail_us", "us"),
    ("mpi.allreduce.calls", "count"),
    ("mpi.allreduce.p50_us", "us"),
    ("mpi.allreduce.tail_us", "us"),
    ("pml.eager_sent", "count"),
    ("pml.rndv_sent", "count"),
    ("pml.matches", "count"),
    ("pml.unexpected_total", "count"),
    ("pml.unexpected_hwm", "count"),
    ("pml.control_sent", "count"),
    ("pml.unexpected_ratio", "ratio"),
    ("pml.progress_per_match", "ratio"),
    ("critpath.msgs", "count"),
    ("critpath.total_ns", "ns"),
    ("critpath.queued_ns", "ns"),
    ("critpath.match_wait_ns", "ns"),
    ("critpath.handshake_ns", "ns"),
    ("critpath.wire_ns", "ns"),
    ("critpath.registration_ns", "ns"),
    ("critpath.host_gap_ns", "ns"),
    ("critpath.fin_wait_ns", "ns"),
    ("critpath.delivery_ns", "ns"),
    ("reg.hits", "count"),
    ("reg.misses", "count"),
    ("reg.hit_ratio", "ratio"),
    ("reg.evictions", "count"),
    ("pipe.started", "count"),
    ("pipe.chunks", "count"),
    ("pipe.depth_hwm", "count"),
    ("pipe.reg_overlap_ns", "ns"),
    ("flow.sends_queued", "count"),
    ("flow.queued_ns", "ns"),
    ("flow.credit_frames", "count"),
    ("flow.grant_deferrals", "count"),
    ("flow.piggyback_ratio", "ratio"),
    ("flow.pool_hit_ratio", "ratio"),
    ("coll.entered.barrier", "count"),
    ("coll.entered.bcast", "count"),
    ("coll.entered.allreduce", "count"),
    ("coll.nic_offloaded", "count"),
    ("coll.nic_fallbacks", "count"),
    ("coll.hw_bcasts", "count"),
    ("coll.offload_ratio", "ratio"),
    ("coll.programs_per_call", "ratio"),
    ("elan4.qdmas", "count"),
    ("elan4.rdmas", "count"),
    ("elan4.rdma_bytes", "B"),
    ("elan4.chained_launches", "count"),
    ("elan4.event_writes", "count"),
    ("elan4.interrupts", "count"),
    ("elan4.queue_overflows", "count"),
    ("elan4.overflow_ratio", "ratio"),
    ("qsnet.hot_link_busy_frac", "ratio"),
    ("qsnet.ej_queue_peak", "count"),
    ("qsnet.packets", "count"),
    ("qsnet.retries", "count"),
    ("qsnet.wire_over_payload", "ratio"),
    ("trace.events", "count"),
    ("trace.dropped", "count"),
    ("trace.overhead_s", "s"),
];

/// The MPI calls the benchmark records spans for.
const MPI_CALLS: [&str; 7] = [
    "send",
    "recv",
    "isend",
    "waitall",
    "barrier",
    "bcast",
    "allreduce",
];

/// Host-side figures that come from untraced runs and calibration, not
/// from the traced run itself.
pub struct HostFigures {
    /// Median wall `run_s` of the untraced and the traced runs.
    pub run_s: (f64, f64),
    /// Median host ns of one OS thread handoff, measured before each
    /// untraced run.
    pub os_handoff_ns: f64,
    /// Median `(universe_s, spawn_s, init_s)` of the untraced runs.
    pub rte_s: (f64, f64, f64),
    /// Median simulator wall ns of the untraced runs, less payload
    /// bookkeeping.
    pub sim_wall_ns: f64,
    /// `qsim.wake_ns` at 2, 8 and 256 processes.
    pub wake_ns: [f64; 3],
    pub call_ns: f64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Every per-layer metric of one traced run, plus whether the
/// critical-path stages reconciled exactly with each message's latency.
pub fn per_layer(
    traced: &RunOut,
    host: &HostFigures,
    procs: usize,
) -> Result<BTreeMap<String, f64>, String> {
    let m: &MachineCapture = traced.machine.as_ref().ok_or("run was not traced")?;
    let mut out = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        out.insert(k.to_string(), v);
    };

    // qsim
    let r = &traced.report;
    put("qsim.events", r.events_processed as f64);
    put("qsim.wakes", r.wakes_executed as f64);
    put("qsim.calls", r.calls_executed as f64);
    put("qsim.stale_wakes", r.stale_wakes as f64);
    put("qsim.max_queue_depth", r.max_queue_depth as f64);
    put(
        "qsim.schedule_hash",
        (r.schedule_hash & ((1 << 48) - 1)) as f64,
    );
    let executed = (r.events_processed - r.stale_wakes) as f64;
    put("qsim.events_per_s", executed * 1e9 / host.sim_wall_ns);
    put("qsim.ns_per_event", host.sim_wall_ns / executed);
    put("qsim.wake_ns.p2", host.wake_ns[0]);
    put("qsim.wake_ns.p8", host.wake_ns[1]);
    put("qsim.wake_ns.p256", host.wake_ns[2]);
    put("qsim.call_ns", host.call_ns);
    let wake_ns = match procs {
        0..=2 => host.wake_ns[0],
        3..=8 => host.wake_ns[1],
        _ => host.wake_ns[2],
    };
    put(
        "qsim.wake_share",
        r.wakes_executed as f64 * wake_ns / host.sim_wall_ns,
    );
    put("qsim.os_handoff_ns", host.os_handoff_ns);
    put("qsim.run_wall_s", host.run_s.0);

    // rte
    put("rte.universe_s", host.rte_s.0);
    put("rte.spawn_s", host.rte_s.1);
    put("rte.init_s", host.rte_s.2);
    put("rte.init_us", traced.init_ns as f64 / 1e3);

    // MPI calls, from the benchmark's own spans.
    for call in MPI_CALLS {
        let samples = traced.spans.get(call).map(|v| ns(v)).unwrap_or_default();
        let (p50, tl) = if samples.is_empty() {
            (0.0, 0.0)
        } else {
            (median(&samples) / 1e3, tail(&samples).1 / 1e3)
        };
        put(&format!("mpi.{call}.calls"), samples.len() as f64);
        put(&format!("mpi.{call}.p50_us"), p50);
        put(&format!("mpi.{call}.tail_us"), tl);
    }

    // PML, registration cache, pipeline, flow control, collectives: the
    // endpoints' counters summed over ranks (high-water marks: max).
    let sum =
        |f: fn(&Counters) -> u64| -> u64 { m.ranks.iter().map(|c| f(&c.metrics.counters)).sum() };
    let max = |f: fn(&Counters) -> u64| -> u64 {
        m.ranks
            .iter()
            .map(|c| f(&c.metrics.counters))
            .max()
            .unwrap_or(0)
    };
    let matches = sum(|c| c.matches);
    let unexpected = sum(|c| c.unexpected_total);
    put("pml.eager_sent", sum(|c| c.eager_sent) as f64);
    put("pml.rndv_sent", sum(|c| c.rndv_sent) as f64);
    put("pml.matches", matches as f64);
    put("pml.unexpected_total", unexpected as f64);
    put("pml.unexpected_hwm", max(|c| c.unexpected_hwm) as f64);
    put(
        "pml.control_sent",
        sum(|c| c.control_sent.iter().sum()) as f64,
    );
    put("pml.unexpected_ratio", ratio(unexpected, matches));
    put(
        "pml.progress_per_match",
        ratio(sum(|c| c.progress_iterations), matches),
    );

    let (hits, misses) = (sum(|c| c.reg_hits), sum(|c| c.reg_misses));
    put("reg.hits", hits as f64);
    put("reg.misses", misses as f64);
    put("reg.hit_ratio", ratio(hits, hits + misses));
    put("reg.evictions", sum(|c| c.reg_evictions) as f64);

    put("pipe.started", sum(|c| c.pipe_started) as f64);
    put("pipe.chunks", sum(|c| c.pipe_chunks_issued) as f64);
    put("pipe.depth_hwm", max(|c| c.pipe_depth_hwm) as f64);
    put("pipe.reg_overlap_ns", sum(|c| c.pipe_reg_overlap_ns) as f64);

    put("flow.sends_queued", sum(|c| c.flow_sends_queued) as f64);
    put("flow.queued_ns", sum(|c| c.flow_queued_ns) as f64);
    put("flow.credit_frames", sum(|c| c.flow_credit_frames) as f64);
    put(
        "flow.grant_deferrals",
        sum(|c| c.flow_grant_deferrals) as f64,
    );
    put(
        "flow.piggyback_ratio",
        ratio(
            sum(|c| c.flow_piggybacked),
            sum(|c| c.flow_credits_returned),
        ),
    );
    let pool_hits = sum(|c| c.flow_pool_hits);
    put(
        "flow.pool_hit_ratio",
        ratio(pool_hits, pool_hits + sum(|c| c.flow_pool_fallbacks)),
    );

    let entered = |op: CollOp| -> u64 {
        m.ranks
            .iter()
            .map(|c| c.metrics.counters.coll[op as usize])
            .sum()
    };
    let offloaded = sum(|c| c.coll_nic_offloaded);
    let fallbacks = sum(|c| c.coll_nic_fallbacks);
    put("coll.entered.barrier", entered(CollOp::Barrier) as f64);
    put(
        "coll.entered.bcast",
        (entered(CollOp::Bcast) + entered(CollOp::BcastHw)) as f64,
    );
    put("coll.entered.allreduce", entered(CollOp::Allreduce) as f64);
    put("coll.nic_offloaded", offloaded as f64);
    put("coll.nic_fallbacks", fallbacks as f64);
    put("coll.hw_bcasts", sum(|c| c.coll_hw_bcasts) as f64);
    put(
        "coll.offload_ratio",
        ratio(offloaded, offloaded + fallbacks),
    );
    put(
        "coll.programs_per_call",
        ratio(sum(|c| c.coll_nic_programs), offloaded),
    );

    // elan4: the cluster's NIC statistics.
    put("elan4.qdmas", m.nic.qdmas as f64);
    put("elan4.rdmas", m.nic.rdmas as f64);
    put("elan4.rdma_bytes", m.nic.rdma_bytes as f64);
    put("elan4.chained_launches", m.nic.chained_launches as f64);
    put("elan4.event_writes", m.nic.event_writes as f64);
    put("elan4.interrupts", m.nic.interrupts as f64);
    put("elan4.queue_overflows", m.nic.queue_overflows as f64);
    put(
        "elan4.overflow_ratio",
        ratio(m.nic.queue_overflows, m.nic.qdmas),
    );

    // qsnet: the fabric's link accounting.
    let hot = m
        .congestion
        .hottest()
        .map(|l| l.occupancy(m.congestion.at_ns))
        .unwrap_or(0.0);
    put("qsnet.hot_link_busy_frac", hot);
    put(
        "qsnet.ej_queue_peak",
        m.ranks
            .iter()
            .map(|c| c.ej_totals.queue_peak)
            .max()
            .unwrap_or(0) as f64,
    );
    put("qsnet.packets", m.fabric.packets as f64);
    put("qsnet.retries", m.fabric.retries as f64);
    put(
        "qsnet.wire_over_payload",
        ratio(m.fabric.wire_bytes, m.fabric.payload_bytes),
    );

    // trace
    put(
        "trace.events",
        m.ranks.iter().map(|c| c.trace.len() as u64).sum::<u64>() as f64,
    );
    put(
        "trace.dropped",
        m.ranks.iter().map(|c| c.trace.dropped()).sum::<u64>() as f64,
    );
    put("trace.overhead_s", host.run_s.1 - host.run_s.0);

    critpath(m, &mut put)?;
    Ok(out)
}

/// Fold the merged trace rings and ejection busy windows into per-message
/// stage decompositions, check that every message's stages sum exactly to
/// its latency, and report stage totals over all messages.
fn critpath(m: &MachineCapture, put: &mut impl FnMut(&str, f64)) -> Result<(), String> {
    let logs: Vec<_> = m.ranks.iter().map(|c| (c.rank, &c.trace)).collect();
    let busy: Vec<_> = m
        .ranks
        .iter()
        .map(|c| (c.rank, c.ej_busy.clone()))
        .collect();
    let report = openmpi_core::critpath::analyze(&logs, &busy);
    const STAGES: [&str; 8] = [
        "queued",
        "match_wait",
        "handshake",
        "wire",
        "registration",
        "host_gap",
        "fin_wait",
        "delivery",
    ];
    let mut totals = [0u64; 8];
    let mut total_ns = 0;
    for msg in &report.msgs {
        if msg.stage_sum_ns() != msg.total_ns {
            return Err(format!(
                "critpath: message {:#x} stages sum to {} ns, latency is {} ns",
                msg.gid,
                msg.stage_sum_ns(),
                msg.total_ns
            ));
        }
        if let Some((name, _)) = msg.stages.iter().find(|(n, _)| !STAGES.contains(n)) {
            return Err(format!("critpath: unknown stage {name}"));
        }
        for (t, s) in totals.iter_mut().zip(STAGES) {
            *t += msg.stage_ns(s);
        }
        total_ns += msg.total_ns;
    }
    if totals.iter().sum::<u64>() != total_ns {
        return Err("critpath: stage totals do not sum to the total latency".into());
    }
    put("critpath.msgs", report.msgs.len() as f64);
    put("critpath.total_ns", total_ns as f64);
    for (t, s) in totals.iter().zip(STAGES) {
        put(&format!("critpath.{s}_ns"), *t as f64);
    }
    Ok(())
}
