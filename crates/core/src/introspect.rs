//! MPI_T-style runtime introspection: control variables (cvars),
//! performance variables (pvars), and a deterministic progress watchdog.
//!
//! Open MPI's MCA tools interface lets operators read and tune a *running*
//! stack and pull live performance readouts without stopping it. This module
//! is that control plane for the simulated stack:
//!
//! - **cvars** ([`cvar_read`] / [`cvar_write`] / [`CVARS`]): every
//!   [`crate::StackConfig`] knob is a named, typed, runtime-readable
//!   variable, declared once as a row of [`CVARS`]; the safe subset
//!   (eager threshold, telemetry gates, watchdog tuning, ...) is
//!   runtime-writable through the endpoint's [`Tunables`].
//! - **pvars** ([`pvar_snapshot`]): live readouts of the
//!   [`crate::metrics::Metrics`] counters and histograms plus queue depths
//!   and in-flight DMA state, snapshottable as JSON mid-run. Counter pvars
//!   read straight from `Metrics`, so a pvar can never disagree with the
//!   `--emit-metrics` JSON.
//! - **watchdog** ([`watchdog_tick`]): driven from the progress loop on the
//!   sim clock (deterministic), it fingerprints every live request and, when
//!   one makes no state transition for a configured number of scans, records
//!   and raises a structured [`StallDiagnostic`] naming the protocol phase
//!   each stuck request is wedged in.

use qsim::fxhash::FxHashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use qsim::{Proc, Time};

use crate::config::{CompletionMode, ProgressMode, RdmaScheme, StackConfig};
use crate::endpoint::Endpoint;
use crate::regcache::RegCache;
use crate::state::{DmaRole, PendingDma};
use crate::trace::{Ring, TraceEvent};

// ---------------------------------------------------------------------------
// cvar registry: one table row per control variable
// ---------------------------------------------------------------------------

/// A typed control-variable value.
#[derive(Clone, PartialEq, Debug)]
pub enum CvarValue {
    /// Boolean knob.
    Bool(bool),
    /// Numeric knob (byte counts, depths, intervals, durations in ns).
    U64(u64),
    /// Enumerated knob, rendered by name.
    Str(String),
}

impl CvarValue {
    /// JSON rendering of the value.
    pub fn to_json(&self) -> String {
        match self {
            CvarValue::Bool(b) => b.to_string(),
            CvarValue::U64(v) => v.to_string(),
            CvarValue::Str(s) => format!("\"{s}\""),
        }
    }
}

/// A cvar's type, with how its value is read from a [`StackConfig`]. The
/// one reader gives the cvar's default (applied to
/// [`StackConfig::default`]), the live value of a read-only cvar (applied
/// to the endpoint's config) and the initial value of a writable one.
#[derive(Clone, Copy)]
pub enum CvarGet {
    /// Boolean knob.
    Bool(fn(&StackConfig) -> bool),
    /// Numeric knob (byte counts, depths, intervals, durations in ns).
    U64(fn(&StackConfig) -> u64),
    /// Enumerated knob, rendered by name; never writable.
    Enum(fn(&StackConfig) -> &'static str),
}

impl CvarGet {
    /// The cvar's value under `cfg`.
    fn value(self, cfg: &StackConfig) -> CvarValue {
        match self {
            CvarGet::Bool(f) => CvarValue::Bool(f(cfg)),
            CvarGet::U64(f) => CvarValue::U64(f(cfg)),
            CvarGet::Enum(f) => CvarValue::Str(f(cfg).to_string()),
        }
    }

    /// Type name in the registry JSON.
    fn type_name(self) -> &'static str {
        match self {
            CvarGet::Bool(_) => "bool",
            CvarGet::U64(_) => "u64",
            CvarGet::Enum(_) => "enum",
        }
    }

    /// `v` as the raw word a writable cvar stores, if it has this type.
    fn raw(self, v: &CvarValue) -> Option<u64> {
        match (self, v) {
            (CvarGet::Bool(_), CvarValue::Bool(b)) => Some(*b as u64),
            (CvarGet::U64(_), CvarValue::U64(n)) => Some(*n),
            _ => None,
        }
    }

    /// A stored raw word as a value of this type.
    fn typed(self, raw: u64) -> CvarValue {
        match self {
            CvarGet::Bool(_) => CvarValue::Bool(raw != 0),
            CvarGet::U64(_) => CvarValue::U64(raw),
            CvarGet::Enum(_) => unreachable!("enumerated cvars are read-only"),
        }
    }
}

/// The values a writable cvar accepts; any other write is rejected.
#[derive(Clone, Copy)]
pub enum Range {
    /// Every value of the cvar's type.
    Any,
    /// At least the bound; a lower write fails with "NAME must be TEXT".
    AtLeast(u64, &'static str),
    /// At most the QDMA inline payload, [`crate::hdr::MAX_INLINE`].
    InlineMax,
    /// A per-peer credit window: from 1 up to the bounce pool's slots.
    CreditWindow,
}

impl Range {
    /// Accept or reject a write of `v` to cvar `name` of an endpoint
    /// configured by `cfg`.
    fn check(self, name: &str, v: u64, cfg: &StackConfig) -> Result<(), String> {
        let max_inline = crate::hdr::MAX_INLINE;
        match self {
            Range::AtLeast(min, text) if v < min => Err(format!("{name} must be {text}")),
            Range::InlineMax if v as usize > max_inline => Err(format!(
                "{name} {v} exceeds the QDMA inline maximum {max_inline}"
            )),
            Range::CreditWindow if v == 0 => {
                Err(format!("{name} must be >= 1 (0 auto-scales at init only)"))
            }
            Range::CreditWindow if v as usize > cfg.flow_bounce_pool => Err(format!(
                "{name} {v} exceeds the bounce pool ({} slots)",
                cfg.flow_bounce_pool
            )),
            _ => Ok(()),
        }
    }

    /// A configured value raised to the lower bound, so a knob seeded from
    /// a config that never enabled its feature still reads in range.
    fn floor(self, v: u64) -> u64 {
        match self {
            Range::AtLeast(min, _) => v.max(min),
            _ => v,
        }
    }
}

/// Where a cvar's live value lives.
#[derive(Clone, Copy)]
pub enum Live {
    /// Read-only: the endpoint's frozen config, read through the row's
    /// [`CvarGet`].
    Fixed,
    /// Writable: a [`Tunables`] knob seeded from the config at init.
    Tunable(Knob, Range),
    /// Writable: a registration-cache setting, by getter and setter.
    Reg(fn(&RegCache) -> u64, fn(&mut RegCache, u64), Range),
}

/// One control variable, declared once.
pub struct CvarDef {
    /// Dotted MPI_T-style name, e.g. `pml.eager_limit`.
    pub name: &'static str,
    /// One-line description.
    pub desc: &'static str,
    /// Type, and how the value is read from a config.
    pub get: CvarGet,
    /// Where the live value lives and, if writable, what it accepts.
    pub live: Live,
}

impl CvarDef {
    /// Writable at runtime via [`cvar_write`]?
    pub fn writable(&self) -> bool {
        !matches!(self.live, Live::Fixed)
    }

    /// The cvar's live value on `ep`.
    fn read(&self, ep: &Endpoint) -> CvarValue {
        match self.live {
            Live::Fixed => self.get.value(&ep.cfg),
            Live::Tunable(k, _) => self.get.typed(ep.tunables.get(k)),
            Live::Reg(get, _, _) => self.get.typed(get(&ep.reg.lock())),
        }
    }

    /// Type-check and range-check a write, returning the raw word to store.
    fn accept(&self, v: &CvarValue, range: Range, cfg: &StackConfig) -> Result<u64, String> {
        let raw = self
            .get
            .raw(v)
            .ok_or_else(|| format!("cvar {}: type mismatch (got {v:?})", self.name))?;
        range.check(self.name, raw, cfg)?;
        Ok(raw)
    }
}

/// The cvar registry: every stack knob, with its type, config source,
/// live home and range.
pub const CVARS: &[CvarDef] = {
    use CvarGet::{Bool, Enum, U64};
    use Live::{Fixed, Reg, Tunable};
    use Range::{Any, AtLeast, CreditWindow, InlineMax};
    &[
        CvarDef {
            name: "pml.eager_limit",
            desc: "messages at most this long (bytes) go eagerly in one QDMA",
            get: U64(|c| c.eager_limit as u64),
            live: Tunable(Knob::EagerLimit, InlineMax),
        },
        CvarDef {
            name: "pml.rdma_scheme",
            desc: "long-message scheme: write (RDMA-write+FIN) or read (RDMA-read+FIN_ACK)",
            get: Enum(|c| scheme_name(c.scheme)),
            live: Fixed,
        },
        CvarDef {
            name: "pml.inline_first_frag",
            desc: "carry payload inside the rendezvous packet",
            get: Bool(|c| c.inline_first_frag),
            live: Fixed,
        },
        CvarDef {
            name: "pml.chained_fin",
            desc: "NIC fires FIN/FIN_ACK chained to the final RDMA",
            get: Bool(|c| c.chained_fin),
            live: Fixed,
        },
        CvarDef {
            name: "pml.force_rendezvous",
            desc: "route every message through the rendezvous path",
            get: Bool(|c| c.force_rendezvous),
            live: Fixed,
        },
        CvarDef {
            name: "ptl.completion_mode",
            desc: "RDMA completion strategy: poll_event, shared_combined, shared_separate",
            get: Enum(|c| completion_name(c.completion)),
            live: Fixed,
        },
        CvarDef {
            name: "ptl.progress_mode",
            desc: "progress engine: polling, interrupt, one_thread, two_threads",
            get: Enum(|c| progress_name(c.progress)),
            live: Fixed,
        },
        CvarDef {
            name: "ptl.qslots",
            desc: "receive-queue depth (QSLOTS)",
            get: U64(|c| c.qslots as u64),
            live: Fixed,
        },
        CvarDef {
            name: "ptl.integrity_check",
            desc: "end-to-end Fletcher-16 payload checking",
            get: Bool(|c| c.integrity_check),
            live: Fixed,
        },
        CvarDef {
            name: "telemetry.metrics",
            desc: "per-endpoint counters and histograms",
            get: Bool(|c| c.metrics),
            live: Tunable(Knob::Metrics, Any),
        },
        CvarDef {
            name: "telemetry.trace",
            desc: "protocol event trace ring",
            get: Bool(|c| c.trace),
            live: Tunable(Knob::Trace, Any),
        },
        CvarDef {
            name: "telemetry.trace_capacity",
            desc: "trace ring capacity (events)",
            get: U64(|c| c.trace_capacity as u64),
            live: Fixed,
        },
        CvarDef {
            name: "flight.enable",
            desc: "always-on post-mortem flight recorder (dumped on stall or request failure)",
            get: Bool(|c| c.flight_recorder),
            live: Tunable(Knob::FlightEnable, Any),
        },
        CvarDef {
            name: "flight.capacity",
            desc: "flight-recorder ring capacity (events)",
            get: U64(|c| c.flight_capacity as u64),
            live: Fixed,
        },
        CvarDef {
            name: "watchdog.interval",
            desc: "progress ticks between watchdog scans; 0 disables",
            get: U64(|c| c.watchdog_interval),
            live: Tunable(Knob::WatchdogInterval, Any),
        },
        CvarDef {
            name: "watchdog.grace",
            desc: "consecutive stale scans before a request is declared stalled",
            get: U64(|c| c.watchdog_grace as u64),
            live: Tunable(Knob::WatchdogGrace, AtLeast(1, ">= 1")),
        },
        CvarDef {
            name: "watchdog.tick_ns",
            desc: "virtual-time bound on blocked waits while the watchdog is armed",
            get: U64(|c| c.watchdog_tick.as_ns()),
            live: Fixed,
        },
        CvarDef {
            name: "tcp.reliability",
            desc: "sequence-stamp TCP control frames and retransmit until acknowledged",
            get: Bool(|c| c.tcp_reliability),
            live: Fixed,
        },
        CvarDef {
            name: "tcp.retransmit_timeout_ns",
            desc: "initial timeout before an unacknowledged control frame is resent",
            get: U64(|c| c.tcp_retransmit_timeout.as_ns()),
            live: Tunable(Knob::RetransmitTimeoutNs, AtLeast(1, "> 0")),
        },
        CvarDef {
            name: "tcp.retransmit_backoff",
            desc: "timeout multiplier applied after each retry (exponential backoff)",
            get: U64(|c| c.tcp_retransmit_backoff as u64),
            live: Tunable(Knob::RetransmitBackoff, AtLeast(1, ">= 1")),
        },
        CvarDef {
            name: "tcp.max_retries",
            desc: "retransmissions before the frame is abandoned and the peer declared failed",
            get: U64(|c| c.tcp_max_retries as u64),
            live: Tunable(Knob::MaxRetries, Any),
        },
        // Disabling stops new insertions; existing entries drain through
        // the normal release/eviction path.
        CvarDef {
            name: "reg.cache",
            desc: "registration (pin-down) cache: reuse rendezvous/RMA mappings across requests",
            get: Bool(|c| c.reg_cache),
            live: Reg(|r| r.enabled() as u64, |r, v| r.set_enabled(v != 0), Any),
        },
        CvarDef {
            name: "reg.cache_bytes",
            desc: "byte capacity of the registration cache (evicts idle LRU mappings beyond it)",
            get: U64(|c| c.reg_cache_bytes as u64),
            live: Reg(
                |r| r.cap_bytes() as u64,
                |r, v| r.set_cap_bytes(v as usize),
                AtLeast(1, "> 0"),
            ),
        },
        CvarDef {
            name: "reg.cache_entries",
            desc: "entry capacity of the registration cache",
            get: U64(|c| c.reg_cache_entries as u64),
            live: Reg(
                |r| r.cap_entries() as u64,
                |r, v| r.set_cap_entries(v as usize),
                AtLeast(1, "> 0"),
            ),
        },
        CvarDef {
            name: "pipe.enable",
            desc: "pipelined chunked-RDMA rendezvous (overlap registration with transfer)",
            get: Bool(|c| c.pipeline_enable),
            live: Tunable(Knob::PipeEnable, Any),
        },
        CvarDef {
            name: "pipe.chunk",
            desc: "pipeline chunk size in bytes",
            get: U64(|c| c.pipeline_chunk as u64),
            live: Tunable(Knob::PipeChunk, AtLeast(1, "> 0")),
        },
        CvarDef {
            name: "pipe.depth",
            desc: "pipeline chunks allowed in flight per rail",
            get: U64(|c| c.pipeline_depth as u64),
            live: Tunable(Knob::PipeDepth, AtLeast(1, ">= 1")),
        },
        CvarDef {
            name: "pipe.min_len",
            desc: "Elan shares below this many bytes keep the monolithic RDMA path",
            get: U64(|c| c.pipeline_min_len as u64),
            live: Tunable(Knob::PipeMinLen, Any),
        },
        CvarDef {
            name: "flow.enable",
            desc: "end-to-end injection flow control: per-peer eager credits + DMA cap",
            get: Bool(|c| c.flow_enable),
            live: Tunable(Knob::FlowEnable, Any),
        },
        // A configured 0 is resolved against the job size at endpoint init.
        CvarDef {
            name: "flow.credits",
            desc: "per-peer eager credit window (config 0 auto-scales to the job size at init)",
            get: U64(|c| c.flow_credits as u64),
            live: Tunable(Knob::FlowCredits, CreditWindow),
        },
        CvarDef {
            name: "flow.dma_cap",
            desc: "endpoint-wide outstanding RDMA descriptor cap; 0 = uncapped",
            get: U64(|c| c.flow_dma_cap as u64),
            live: Tunable(Knob::FlowDmaCap, Any),
        },
        CvarDef {
            name: "flow.bounce_pool",
            desc: "preallocated bounce-buffer pool slots for unexpected-message staging",
            get: U64(|c| c.flow_bounce_pool as u64),
            live: Fixed,
        },
        // Armed programs are keyed by communicator/shape, so flipping this
        // mid-run only steers *future* collectives; it must still be set
        // uniformly across the job before the next collective.
        CvarDef {
            name: "coll.nic_offload",
            desc: "compile barrier/bcast/allreduce into NIC-resident chained event programs",
            get: Bool(|c| c.coll_nic_offload),
            live: Tunable(Knob::CollNicOffload, Any),
        },
        CvarDef {
            name: "coll.tree_radix",
            desc: "fan-out of the NIC-offloaded collective tree (>= 2)",
            get: U64(|c| c.coll_tree_radix as u64),
            live: Tunable(Knob::CollTreeRadix, AtLeast(2, ">= 2")),
        },
        CvarDef {
            name: "coll.hw_bcast",
            desc: "let eligible broadcasts use the hardware broadcast rail",
            get: Bool(|c| c.coll_hw_bcast),
            live: Tunable(Knob::CollHwBcast, Any),
        },
        CvarDef {
            name: "timeline.interval_ns",
            desc: "virtual-time gap between time-series telemetry samples; 0 disables",
            get: U64(|c| c.timeline_interval.as_ns()),
            live: Tunable(Knob::TimelineIntervalNs, Any),
        },
        CvarDef {
            name: "timeline.capacity",
            desc: "timeline sample-ring capacity",
            get: U64(|c| c.timeline_capacity as u64),
            live: Fixed,
        },
    ]
};

fn scheme_name(s: RdmaScheme) -> &'static str {
    match s {
        RdmaScheme::Write => "write",
        RdmaScheme::Read => "read",
    }
}

fn completion_name(c: CompletionMode) -> &'static str {
    match c {
        CompletionMode::PollEvent => "poll_event",
        CompletionMode::SharedQueueCombined => "shared_combined",
        CompletionMode::SharedQueueSeparate => "shared_separate",
    }
}

fn progress_name(p: ProgressMode) -> &'static str {
    match p {
        ProgressMode::Polling => "polling",
        ProgressMode::Interrupt => "interrupt",
        ProgressMode::OneThread => "one_thread",
        ProgressMode::TwoThreads => "two_threads",
    }
}

/// The registry row named `name`, if any.
fn cvar_def(name: &str) -> Option<&'static CvarDef> {
    CVARS.iter().find(|d| d.name == name)
}

/// Read a control variable by name; `None` for unknown names.
pub fn cvar_read(ep: &Endpoint, name: &str) -> Option<CvarValue> {
    cvar_def(name).map(|d| d.read(ep))
}

/// Write a runtime-writable control variable. Rejects unknown names,
/// read-only cvars, type mismatches, and out-of-range values.
pub fn cvar_write(ep: &Endpoint, name: &str, value: CvarValue) -> Result<(), String> {
    let d = cvar_def(name).ok_or_else(|| format!("unknown cvar {name}"))?;
    match d.live {
        Live::Fixed => return Err(format!("cvar {name} is read-only")),
        Live::Tunable(k, range) => ep.tunables.set(k, d.accept(&value, range, &ep.cfg)?),
        Live::Reg(_, set, range) => set(&mut ep.reg.lock(), d.accept(&value, range, &ep.cfg)?),
    }
    Ok(())
}

/// All cvars of an endpoint as one JSON object
/// (`name -> {value, writable, desc}`).
pub fn cvars_json(ep: &Endpoint) -> String {
    let rows: Vec<String> = CVARS
        .iter()
        .map(|d| {
            format!(
                "\"{}\":{{\"value\":{},\"writable\":{},\"desc\":\"{}\"}}",
                d.name,
                d.read(ep).to_json(),
                d.writable(),
                d.desc
            )
        })
        .collect();
    format!("{{{}}}", rows.join(","))
}

/// The value a cvar takes under [`StackConfig::default`]; `None` for
/// unknown names. Lets tooling show how far a running stack has been tuned
/// away from stock.
pub fn cvar_default(name: &str) -> Option<CvarValue> {
    cvar_def(name).map(|d| d.get.value(&StackConfig::default()))
}

/// The full introspection registry of one endpoint as JSON: every cvar
/// (name, type, default, writability, live value, description) and every
/// pvar (name, live value). This is the `--list-introspect` document — the
/// MPI_T equivalent of `ompi_info --all`.
pub fn registry_json(ep: &Endpoint) -> String {
    let defaults = StackConfig::default();
    let cvars: Vec<String> = CVARS
        .iter()
        .map(|d| {
            format!(
                "{{\"name\":\"{}\",\"type\":\"{}\",\"default\":{},\"writable\":{},\
                 \"value\":{},\"desc\":\"{}\"}}",
                d.name,
                d.get.type_name(),
                d.get.value(&defaults).to_json(),
                d.writable(),
                d.read(ep).to_json(),
                d.desc
            )
        })
        .collect();
    let pvars: Vec<String> = pvar_snapshot(ep)
        .vars
        .iter()
        .map(|(n, v)| format!("{{\"name\":\"{n}\",\"type\":\"u64\",\"value\":{v}}}"))
        .collect();
    format!(
        "{{\"rank\":{},\"cvars\":[{}],\"pvars\":[{}]}}",
        ep.name.rank,
        cvars.join(","),
        pvars.join(",")
    )
}

// ---------------------------------------------------------------------------
// tunables: the live values of the writable cvars
// ---------------------------------------------------------------------------

/// A runtime-writable knob: one slot of [`Tunables`]. Each variant is the
/// live home of exactly one [`CVARS`] row and is named after it.
#[allow(missing_docs)]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Knob {
    EagerLimit,
    Metrics,
    Trace,
    FlightEnable,
    WatchdogInterval,
    WatchdogGrace,
    RetransmitTimeoutNs,
    RetransmitBackoff,
    MaxRetries,
    PipeEnable,
    PipeChunk,
    PipeDepth,
    PipeMinLen,
    FlowEnable,
    FlowCredits,
    FlowDmaCap,
    CollNicOffload,
    CollTreeRadix,
    CollHwBcast,
    TimelineIntervalNs,
}

/// Number of [`Knob`]s: the last variant's index + 1.
const KNOBS: usize = Knob::TimelineIntervalNs as usize + 1;

/// The live values of the writable cvars, seeded from [`StackConfig`] and
/// read by the hot path instead of the frozen config copy. Every read is
/// one `Relaxed` load: the simulation runs one process at a time.
pub struct Tunables {
    knobs: [AtomicU64; KNOBS],
    /// Virtual time of the last timeline sample; `u64::MAX` = never sampled,
    /// so the first due check fires immediately once sampling is enabled.
    timeline_last_ns: AtomicU64,
    /// Progress ticks seen (progress passes + watchdog-timeout expiries).
    /// Lives here rather than in `Metrics` so the watchdog works with
    /// telemetry off.
    ticks: AtomicU64,
}

impl Tunables {
    /// Seed every knob from its row's config reader, raised to the row's
    /// lower bound.
    pub fn from_config(cfg: &StackConfig) -> Self {
        let t = Tunables {
            knobs: std::array::from_fn(|_| AtomicU64::new(0)),
            timeline_last_ns: AtomicU64::new(u64::MAX),
            ticks: AtomicU64::new(0),
        };
        for d in CVARS {
            if let Live::Tunable(k, range) = d.live {
                let raw = d.get.raw(&d.get.value(cfg)).expect("knobs are bool or u64");
                t.set(k, range.floor(raw));
            }
        }
        t
    }

    /// A knob's current value.
    #[inline]
    pub fn get(&self, k: Knob) -> u64 {
        self.knobs[k as usize].load(Ordering::Relaxed)
    }

    /// A boolean knob's current value.
    #[inline]
    pub fn on(&self, k: Knob) -> bool {
        self.get(k) != 0
    }

    /// A size or count knob's current value.
    #[inline]
    pub fn get_usize(&self, k: Knob) -> usize {
        self.get(k) as usize
    }

    /// Store a knob (writes go through [`cvar_write`], which checks them).
    pub(crate) fn set(&self, k: Knob, v: u64) {
        self.knobs[k as usize].store(v, Ordering::Relaxed);
    }

    /// Is a timeline sample due at `now_ns`? Updates the last-sample stamp
    /// when it is, so each interval yields exactly one sample.
    pub fn timeline_due(&self, now_ns: u64) -> bool {
        let interval = self.get(Knob::TimelineIntervalNs);
        if interval == 0 {
            return false;
        }
        let last = self.timeline_last_ns.load(Ordering::Relaxed);
        if last != u64::MAX && now_ns.saturating_sub(last) < interval {
            return false;
        }
        self.timeline_last_ns.store(now_ns, Ordering::Relaxed);
        true
    }

    /// Count one progress tick; returns the new total.
    pub fn next_tick(&self) -> u64 {
        self.ticks.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Progress ticks counted so far.
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// pvar registry
// ---------------------------------------------------------------------------

/// One rank's performance variables at an instant: a flat, ordered list of
/// `(name, value)` scalars, cheap to aggregate across ranks.
#[derive(Clone, Debug)]
pub struct PvarSnapshot {
    /// The rank the snapshot came from.
    pub rank: usize,
    /// `(name, value)` rows in registry order.
    pub vars: Vec<(String, u64)>,
}

impl PvarSnapshot {
    /// Look a variable up by name.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.vars.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// JSON object rendering (`{"rank":r,"vars":{name:value,...}}`).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .vars
            .iter()
            .map(|(n, v)| format!("\"{n}\":{v}"))
            .collect();
        format!("{{\"rank\":{},\"vars\":{{{}}}}}", self.rank, rows.join(","))
    }
}

fn hist_vars(out: &mut Vec<(String, u64)>, name: &str, h: &crate::metrics::Histogram) {
    out.push((format!("hist.{name}.count"), h.count()));
    out.push((format!("hist.{name}.sum_ns"), h.sum_ns()));
    out.push((format!("hist.{name}.max_ns"), h.max_ns().unwrap_or(0)));
    out.push((
        format!("hist.{name}.p50_ns"),
        h.quantile_ns(0.5).unwrap_or(0),
    ));
    out.push((
        format!("hist.{name}.p99_ns"),
        h.quantile_ns(0.99).unwrap_or(0),
    ));
}

fn ring_vars<T>(out: &mut Vec<(String, u64)>, name: &str, ring: &Ring<T>) {
    out.push((format!("{name}.retained"), ring.len() as u64));
    out.push((format!("{name}.dropped"), ring.dropped()));
}

/// Snapshot every pvar of `ep` without stopping the stack.
///
/// Counter pvars read directly from the endpoint's [`crate::metrics::Metrics`]
/// (the single source of truth), queue pvars from live
/// [`crate::state::EpState`], and watchdog pvars from the introspection
/// state.
pub fn pvar_snapshot(ep: &Endpoint) -> PvarSnapshot {
    let mut vars: Vec<(String, u64)> = Vec::with_capacity(64);

    // Live protocol state (under the state lock, released before metrics).
    {
        let st = ep.state.lock();
        let send_live = st.send_reqs.values().filter(|r| !r.done).count();
        let recv_live = st.recv_reqs.values().filter(|r| !r.done).count();
        let posted: usize = st.comms.values().map(|c| c.posted.len()).sum();
        let unexpected: usize = st.comms.values().map(|c| c.unexpected.len()).sum();
        let dma_bytes: usize = st
            .pending_dmas
            .iter()
            .map(|p| DmaSummary::of(p).bytes)
            .sum();
        vars.push(("queues.send_reqs_live".into(), send_live as u64));
        vars.push(("queues.recv_reqs_live".into(), recv_live as u64));
        vars.push(("queues.posted_depth".into(), posted as u64));
        vars.push(("queues.unexpected_depth".into(), unexpected as u64));
        vars.push(("queues.pending_dmas".into(), st.pending_dmas.len() as u64));
        vars.push(("queues.pending_dma_bytes".into(), dma_bytes as u64));
        vars.push(("queues.comms".into(), st.comms.len() as u64));
        vars.push(("queues.ctl_inflight".into(), st.ctl_inflight.len() as u64));
        vars.push(("queues.failed_peers".into(), st.failed_peers.len() as u64));
        vars.push(("queues.pipelines_live".into(), st.pipelines.len() as u64));
        vars.push(("queues.tcp_pushes_live".into(), st.tcp_pushes.len() as u64));
        let credits_avail: usize = st.flow.values().map(|fp| fp.credits).sum();
        let pending_ret: usize = st.flow.values().map(|fp| fp.pending_return).sum();
        vars.push(("queues.flow_queued".into(), st.flow_queued_total() as u64));
        vars.push(("flow.credits_available".into(), credits_avail as u64));
        vars.push(("flow.pending_return".into(), pending_ret as u64));
        vars.push(("flow.pool_in_use".into(), st.bounce_pool.in_use() as u64));
        vars.push((
            "flow.pool_capacity".into(),
            st.bounce_pool.capacity() as u64,
        ));
    }

    // Telemetry counters: read from Metrics, never a second tally.
    {
        let m = ep.metrics.lock();
        let c = &m.counters;
        for (name, v) in [
            ("pml.eager_sent", c.eager_sent),
            ("pml.rndv_sent", c.rndv_sent),
            ("pml.recvs_posted", c.recvs_posted),
            ("pml.matches", c.matches),
            ("pml.unexpected_total", c.unexpected_total),
            ("pml.unexpected_hwm", c.unexpected_hwm),
            ("pml.frags_sent", c.frags_sent),
            ("rdma.descriptors", c.rdma_descriptors),
            ("rdma.bytes", c.rdma_bytes),
            ("rdma.read_batches", c.rdma_read_batches),
            ("rdma.write_batches", c.rdma_write_batches),
            ("rdma.chained_completions", c.chained_completions),
            ("progress.iterations", c.progress_iterations),
            ("rel.retransmits", c.retransmits),
            ("rel.dup_suppressed", c.dup_suppressed),
            ("rel.gave_up", c.gave_up),
            ("rel.corrupt_frames", c.corrupt_frames),
            ("rel.ctl_acks_sent", c.ctl_acks_sent),
            ("rel.reqs_failed", c.reqs_failed),
            ("rel.errs_surfaced", c.errs_surfaced),
            ("pipe.started", c.pipe_started),
            ("pipe.fallback", c.pipe_fallback),
            ("pipe.chunks_issued", c.pipe_chunks_issued),
            ("pipe.chunks_landed", c.pipe_chunks_landed),
            ("pipe.depth_hwm", c.pipe_depth_hwm),
            ("pipe.reg_overlap_ns", c.pipe_reg_overlap_ns),
            ("flow.sends_queued", c.flow_sends_queued),
            ("flow.queued_ns", c.flow_queued_ns),
            ("flow.credits_consumed", c.flow_credits_consumed),
            ("flow.credits_returned", c.flow_credits_returned),
            ("flow.credit_frames", c.flow_credit_frames),
            ("flow.piggybacked", c.flow_piggybacked),
            ("flow.grant_deferrals", c.flow_grant_deferrals),
            ("flow.dma_waits", c.flow_dma_waits),
            ("flow.pool_hits", c.flow_pool_hits),
            ("flow.pool_fallbacks", c.flow_pool_fallbacks),
            ("coll.nic_programs", c.coll_nic_programs),
            ("coll.nic_offloaded", c.coll_nic_offloaded),
            ("coll.nic_fallbacks", c.coll_nic_fallbacks),
            ("coll.hw_bcasts", c.coll_hw_bcasts),
        ] {
            vars.push((name.to_string(), v));
        }
        for (kind, v) in crate::metrics::CONTROL_KINDS.iter().zip(c.control_sent) {
            vars.push((format!("control.{kind}"), v));
        }
        for (op, v) in crate::metrics::COLL_OPS.iter().zip(c.coll) {
            vars.push((format!("coll.ops.{}", op.name()), v));
        }
        hist_vars(&mut vars, "match_time", &m.match_time);
        hist_vars(&mut vars, "rndv_handshake", &m.rndv_handshake);
        hist_vars(&mut vars, "completion_time", &m.completion_time);
    }

    // Registration cache: authoritative stats live in the cache itself
    // (counted even with telemetry off), not the Metrics tally.
    {
        let r = ep.reg_stats();
        vars.push(("reg.hits".into(), r.hits));
        vars.push(("reg.misses".into(), r.misses));
        vars.push(("reg.evictions".into(), r.evictions));
        vars.push(("reg.mapped_bytes".into(), r.mapped_bytes));
        vars.push(("reg.entries".into(), r.entries));
    }

    // Watchdog state.
    {
        let ins = ep.introspect.lock();
        vars.push(("watchdog.ticks".into(), ep.tunables.ticks()));
        vars.push(("watchdog.scans".into(), ins.scans));
        vars.push(("watchdog.stalls_detected".into(), ins.stalls_detected));
        vars.push(("flight.dumps".into(), ins.flight_dumps.len() as u64));
    }

    // Ring health: a non-zero `trace.dropped` means the chrome trace is
    // missing its oldest events.
    ring_vars(&mut vars, "trace", &ep.trace.lock());
    ring_vars(&mut vars, "flight", &ep.flight.lock());
    ring_vars(&mut vars, "timeline", &ep.timeline.lock());

    // Fabric link occupancy for this rank's own endpoint links (injection
    // and ejection), summed across rails. Switch-internal links are global
    // shared state and are reported by the fabric's congestion report, not
    // duplicated per rank.
    {
        let (inj, ej) = ep.cluster.fabric().node_link_totals(ep.node);
        for (stage, t) in [("inj", inj), ("ej", ej)] {
            vars.push((format!("fab.{stage}.busy_ns"), t.busy_ns));
            vars.push((format!("fab.{stage}.payload_bytes"), t.payload_bytes));
            vars.push((format!("fab.{stage}.wire_bytes"), t.wire_bytes));
            vars.push((format!("fab.{stage}.packets"), t.packets));
            vars.push((format!("fab.{stage}.retries"), t.retries));
            vars.push((format!("fab.{stage}.queue_peak"), t.queue_peak));
        }
    }

    PvarSnapshot {
        rank: ep.name.rank,
        vars,
    }
}

// ---------------------------------------------------------------------------
// time-series telemetry: the periodic pvar sampler
// ---------------------------------------------------------------------------

/// One periodic snapshot of the stack's hot gauges, taken on the simulated
/// clock by [`timeline_tick`]. A row in the timeline, not an event: queue
/// *depths* and cumulative link occupancy at an instant, so plotting
/// consecutive samples shows ramps (e.g. an incast victim's ejection queue
/// building) that endpoint-lifetime aggregates average away.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TimelineSample {
    /// Virtual time of the sample (ns).
    pub t_ns: u64,
    /// Posted-receive depth summed over communicators.
    pub posted_depth: u64,
    /// Unexpected-queue depth summed over communicators.
    pub unexpected_depth: u64,
    /// DMA descriptors in flight (host has not reaped completion).
    pub pending_dmas: u64,
    /// Chunked-rendezvous pipelines live.
    pub pipelines_live: u64,
    /// Reliability-tracked control frames awaiting CTL_ACK.
    pub ctl_inflight: u64,
    /// Cumulative injection-link busy time across rails (ns).
    pub inj_busy_ns: u64,
    /// Cumulative ejection-link busy time across rails (ns).
    pub ej_busy_ns: u64,
    /// Packets queued at this node's injection links right now.
    pub inj_queue: u64,
    /// Packets queued at this node's ejection links right now.
    pub ej_queue: u64,
}

impl TimelineSample {
    /// One sample as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"t_ns\":{},\"posted_depth\":{},\"unexpected_depth\":{},\
             \"pending_dmas\":{},\"pipelines_live\":{},\"ctl_inflight\":{},\
             \"inj_busy_ns\":{},\"ej_busy_ns\":{},\"inj_queue\":{},\"ej_queue\":{}}}",
            self.t_ns,
            self.posted_depth,
            self.unexpected_depth,
            self.pending_dmas,
            self.pipelines_live,
            self.ctl_inflight,
            self.inj_busy_ns,
            self.ej_busy_ns,
            self.inj_queue,
            self.ej_queue
        )
    }
}

/// Bounded ring of [`TimelineSample`]s, guarded by the endpoint's timeline
/// lock (a leaf lock, like the flight recorder's). When full, the oldest
/// sample is evicted and counted, keeping the most recent history.
pub type Timeline = Ring<TimelineSample>;

impl Timeline {
    /// The retained timeline as one JSON document:
    /// `{"rank":r,"dropped":n,"samples":[...]}`.
    pub fn to_json(&self, rank: usize) -> String {
        let rows: Vec<String> = self.iter().map(|s| s.to_json()).collect();
        format!(
            "{{\"rank\":{},\"dropped\":{},\"samples\":[{}]}}",
            rank,
            self.dropped(),
            rows.join(",")
        )
    }
}

/// Take a timeline sample if one is due (`timeline.interval_ns` of virtual
/// time elapsed since the last). Called from every progress pass and timer
/// tick; a cheap atomic check when sampling is off. Locks: state, then
/// fabric, then timeline — each taken and released in turn, none nested.
pub fn timeline_tick(proc: &Proc, ep: &Arc<Endpoint>) {
    let now = proc.now();
    if !ep.tunables.timeline_due(now.as_ns()) {
        return;
    }
    let (posted, unexpected, dmas, pipes, ctl) = {
        let st = ep.state.lock();
        (
            st.comms.values().map(|c| c.posted.len()).sum::<usize>(),
            st.comms.values().map(|c| c.unexpected.len()).sum::<usize>(),
            st.pending_dmas.len(),
            st.pipelines.len(),
            st.ctl_inflight.len(),
        )
    };
    let fabric = ep.cluster.fabric();
    let (inj, ej) = fabric.node_link_totals(ep.node);
    let (inj_queue, ej_queue) = fabric.node_queue_now(ep.node, now);
    ep.timeline.lock().push(TimelineSample {
        t_ns: now.as_ns(),
        posted_depth: posted as u64,
        unexpected_depth: unexpected as u64,
        pending_dmas: dmas as u64,
        pipelines_live: pipes as u64,
        ctl_inflight: ctl as u64,
        inj_busy_ns: inj.busy_ns,
        ej_busy_ns: ej.busy_ns,
        inj_queue,
        ej_queue,
    });
}

// ---------------------------------------------------------------------------
// progress watchdog
// ---------------------------------------------------------------------------

/// Watchdog bookkeeping plus recorded stall diagnostics, guarded by the
/// endpoint's introspect lock (may be taken while holding the state lock,
/// never the reverse — same rule as the metrics lock).
#[derive(Default)]
pub struct IntrospectState {
    /// Per-request `(fingerprint, consecutive stale scans)`.
    marks: FxHashMap<u64, (u64, u64)>,
    /// Watchdog scans performed.
    pub scans: u64,
    /// Requests ever declared stalled.
    pub stalls_detected: u64,
    /// Structured diagnostics recorded on stall detection.
    pub diagnostics: Vec<StallDiagnostic>,
    /// Flight-recorder dumps (JSON) emitted on stall or request failure.
    pub flight_dumps: Vec<String>,
}

/// One stuck request inside a [`StallDiagnostic`].
#[derive(Clone, Debug)]
pub struct StuckReq {
    /// Request id.
    pub id: u64,
    /// Global message id ([`crate::hdr::msg_gid`]); 0 when the request never
    /// progressed far enough to be attributed (e.g. an unmatched receive).
    pub gid: u64,
    /// `"send"` or `"recv"`.
    pub kind: &'static str,
    /// Peer description (destination rank for sends, source for receives).
    pub peer: String,
    /// MPI tag (selector for receives; `None` rendered as `any`).
    pub tag: String,
    /// Bytes confirmed/received so far.
    pub bytes_done: usize,
    /// Total message length (0 when unknown, i.e. unmatched receives).
    pub bytes_total: usize,
    /// Protocol phase the request is wedged in.
    pub phase: String,
    /// Lifecycle stage that never completed, inferred from the message's
    /// causal event chain in the flight recorder.
    pub stalled_stage: String,
    /// The message's reconstructed lifecycle: every flight-recorder event
    /// carrying this gid, as a JSON array of timestamped events.
    pub lifecycle: String,
    /// Consecutive scans without a state transition.
    pub stale_scans: u64,
}

/// Infer which lifecycle stage a stalled message is wedged in from its
/// retained flight events (this rank's view of the causal chain). Byte
/// accounting beats last-event order: DMA completions may interleave with
/// later issues, so the question is whether issued bytes all landed.
fn stalled_stage(evs: &[&TraceEvent]) -> String {
    let (mut issued, mut landed) = (0usize, 0usize);
    let (mut sent, mut matched, mut rdma, mut complete) = (false, false, false, false);
    for e in evs {
        match e {
            TraceEvent::SendPosted { .. } => sent = true,
            TraceEvent::Matched { .. } => matched = true,
            TraceEvent::RdmaIssued { bytes, .. } => {
                rdma = true;
                issued += bytes;
            }
            TraceEvent::DmaDone { bytes, .. } => landed += bytes,
            TraceEvent::Completed { .. } => complete = true,
            _ => {}
        }
    }
    if complete {
        "complete: lifecycle finished on this rank (peer side stalled)".to_string()
    } else if rdma && landed < issued {
        format!(
            "wire: RDMA issued, {}/{} bytes never landed",
            landed, issued
        )
    } else if rdma {
        "fin-wait: payload landed, final control exchange never arrived".to_string()
    } else if matched {
        "handshake: matched, bulk transfer never started".to_string()
    } else if sent {
        "match-wait: posted, peer never matched or acknowledged".to_string()
    } else {
        "unattributed: no lifecycle events retained for this message".to_string()
    }
}

/// A pending DMA descriptor summarized for a diagnostic.
#[derive(Clone, Debug)]
pub struct DmaSummary {
    /// Completion token.
    pub token: u64,
    /// `"read"` or `"write"`.
    pub role: &'static str,
    /// Bytes the descriptor moves.
    pub bytes: usize,
}

impl DmaSummary {
    /// Summarize one pending descriptor.
    fn of(p: &PendingDma) -> DmaSummary {
        let (role, bytes) = match &p.role {
            DmaRole::Read { bytes, .. } => ("read", *bytes),
            DmaRole::Write { bytes, .. } => ("write", *bytes),
            DmaRole::Chunk {
                bytes,
                is_read: true,
                ..
            } => ("chunk_read", *bytes),
            DmaRole::Chunk { bytes, .. } => ("chunk_write", *bytes),
        };
        DmaSummary {
            token: p.token,
            role,
            bytes,
        }
    }
}

/// An unexpected-queue entry summarized for a diagnostic.
#[derive(Clone, Debug)]
pub struct UnexpectedSummary {
    /// Communicator context id.
    pub ctx: u32,
    /// Sender's rank in that communicator.
    pub src_rank: u32,
    /// Fragment tag.
    pub tag: i32,
    /// Total message length the fragment announces.
    pub msg_len: usize,
}

/// The structured per-rank dump emitted when the watchdog fires.
#[derive(Clone, Debug)]
pub struct StallDiagnostic {
    /// The stalled rank.
    pub rank: usize,
    /// Virtual time of detection (ns).
    pub at_ns: u64,
    /// Requests that made no state transition for the grace period.
    pub stuck: Vec<StuckReq>,
    /// Depth of the posted-receive queues.
    pub posted_depth: usize,
    /// Contents of the unexpected queues.
    pub unexpected: Vec<UnexpectedSummary>,
    /// In-flight DMA descriptors the host has not reaped.
    pub pending_dmas: Vec<DmaSummary>,
    /// Flight-recorder contents at detection time (JSON array of events).
    pub flight: String,
}

impl StallDiagnostic {
    /// JSON rendering of the full diagnostic.
    pub fn to_json(&self) -> String {
        let stuck: Vec<String> = self
            .stuck
            .iter()
            .map(|s| {
                format!(
                    "{{\"id\":{},\"gid\":{},\"kind\":\"{}\",\"peer\":\"{}\",\"tag\":\"{}\",\
                     \"bytes_done\":{},\"bytes_total\":{},\"phase\":\"{}\",\
                     \"stalled_stage\":\"{}\",\"lifecycle\":{},\
                     \"stale_scans\":{}}}",
                    s.id,
                    s.gid,
                    s.kind,
                    s.peer,
                    s.tag,
                    s.bytes_done,
                    s.bytes_total,
                    s.phase,
                    crate::trace::escape_json(&s.stalled_stage),
                    if s.lifecycle.is_empty() {
                        "[]"
                    } else {
                        &s.lifecycle
                    },
                    s.stale_scans
                )
            })
            .collect();
        let unexpected: Vec<String> = self
            .unexpected
            .iter()
            .map(|u| {
                format!(
                    "{{\"ctx\":{},\"src_rank\":{},\"tag\":{},\"msg_len\":{}}}",
                    u.ctx, u.src_rank, u.tag, u.msg_len
                )
            })
            .collect();
        let dmas: Vec<String> = self
            .pending_dmas
            .iter()
            .map(|d| {
                format!(
                    "{{\"token\":{},\"role\":\"{}\",\"bytes\":{}}}",
                    d.token, d.role, d.bytes
                )
            })
            .collect();
        format!(
            "{{\"rank\":{},\"at_ns\":{},\"stuck\":[{}],\"posted_depth\":{},\
             \"unexpected\":[{}],\"pending_dmas\":[{}],\"flight\":{}}}",
            self.rank,
            self.at_ns,
            stuck.join(","),
            self.posted_depth,
            unexpected.join(","),
            dmas.join(","),
            if self.flight.is_empty() {
                "[]"
            } else {
                &self.flight
            }
        )
    }

    /// Human-readable rendering (the watchdog's panic message).
    pub fn render(&self) -> String {
        let mut out = format!(
            "progress watchdog: rank {} stalled at t={}ns; {} stuck request(s):",
            self.rank,
            self.at_ns,
            self.stuck.len()
        );
        for s in &self.stuck {
            out.push_str(&format!(
                "\n  {} req {} (gid {:#x}) -> peer {} tag {}: {}/{} bytes, phase [{}], \
                 stalled at [{}], no transition for {} scans",
                s.kind,
                s.id,
                s.gid,
                s.peer,
                s.tag,
                s.bytes_done,
                s.bytes_total,
                s.phase,
                s.stalled_stage,
                s.stale_scans
            ));
        }
        out.push_str(&format!(
            "\n  posted receives: {}; unexpected queue: {} entries; pending DMAs: {}",
            self.posted_depth,
            self.unexpected.len(),
            self.pending_dmas.len()
        ));
        if !self.flight.is_empty() && self.flight != "[]" {
            out.push_str("\n  flight recorder dumped (see JSON diagnostic)");
        }
        out
    }
}

/// Phase a not-yet-done send is wedged in, by rendezvous scheme and
/// handshake state.
fn send_phase(scheme: RdmaScheme, rndv_acked: bool) -> String {
    let wire = wire_name(scheme);
    if rndv_acked {
        format!("{wire}: handshake done, awaiting delivery confirmation")
    } else {
        format!("{wire}: rendezvous posted, awaiting first receiver contact")
    }
}

/// Phase a not-yet-done receive is wedged in.
fn recv_phase(scheme: RdmaScheme, matched: bool, eager_limit: usize, msg_len: usize) -> String {
    if !matched {
        return "unmatched: posted, no first fragment (eager or rendezvous) arrived".to_string();
    }
    if msg_len <= eager_limit {
        return "eager: matched, inline payload incomplete".to_string();
    }
    format!("{}: matched, awaiting remaining payload", wire_name(scheme))
}

/// The long-message protocol a scheme runs, as named in phases.
fn wire_name(scheme: RdmaScheme) -> &'static str {
    match scheme {
        RdmaScheme::Write => "rdma-write+fin",
        RdmaScheme::Read => "rdma-read+fin_ack",
    }
}

fn pack_fingerprint(done: bool, flag: bool, bytes: usize) -> u64 {
    (bytes as u64) << 2 | (flag as u64) << 1 | done as u64
}

/// One watchdog scan over every live request. Returns the diagnostic if any
/// request exceeded the grace period, after recording it in the endpoint's
/// introspect state. Locks: state, then introspect (never the reverse).
fn watchdog_scan(ep: &Endpoint, now: Time) -> Option<StallDiagnostic> {
    let grace = ep.tunables.get(Knob::WatchdogGrace);
    let st = ep.state.lock();
    let mut ins = ep.introspect.lock();
    ins.scans += 1;

    let mut live: Vec<(u64, u64)> = Vec::new(); // (id, fingerprint)
    for r in st.send_reqs.values().filter(|r| !r.done) {
        live.push((
            r.id,
            pack_fingerprint(r.done, r.rndv_acked, r.bytes_confirmed),
        ));
    }
    for r in st.recv_reqs.values().filter(|r| !r.done) {
        live.push((
            r.id,
            pack_fingerprint(r.done, r.matched.is_some(), r.bytes_received),
        ));
    }

    // Requests no longer live stop being tracked.
    let live_ids: qsim::fxhash::FxHashSet<u64> = live.iter().map(|(id, _)| *id).collect();
    ins.marks.retain(|id, _| live_ids.contains(id));

    let mut stalled: Vec<(u64, u64)> = Vec::new(); // (id, stale scans)
    for (id, fp) in live {
        let e = ins.marks.entry(id).or_insert((fp, 0));
        if e.0 == fp {
            e.1 += 1;
            if e.1 >= grace {
                stalled.push((id, e.1));
            }
        } else {
            *e = (fp, 0);
        }
    }
    if stalled.is_empty() {
        return None;
    }

    // Build the structured dump. Reconstruct each stuck message's causal
    // chain from the flight ring (leaf lock: snapshot and release) so the
    // diagnostic names the exact stage that never completed, not just the
    // request's current protocol phase.
    let flight_events: Vec<(Time, TraceEvent)> = ep.flight.lock().events().cloned().collect();
    let lifecycle_of = |gid: u64| -> (String, String) {
        let evs: Vec<&(Time, TraceEvent)> = flight_events
            .iter()
            .filter(|(_, e)| e.gid() == Some(gid))
            .collect();
        let stage = stalled_stage(&evs.iter().map(|(_, e)| e).collect::<Vec<_>>());
        let rows: Vec<String> = evs.iter().map(|(t, e)| e.to_json(*t)).collect();
        (stage, format!("[{}]", rows.join(",")))
    };
    let mut stuck = Vec::new();
    for (id, stale) in &stalled {
        if let Some(r) = st.send_reqs.get(id) {
            let (stage, lifecycle) = lifecycle_of(r.gid);
            stuck.push(StuckReq {
                id: *id,
                gid: r.gid,
                kind: "send",
                peer: format!("rank {}", r.dst_rank),
                tag: r.tag.to_string(),
                bytes_done: r.bytes_confirmed,
                bytes_total: r.msg_len,
                phase: send_phase(ep.cfg.scheme, r.rndv_acked),
                stalled_stage: stage,
                lifecycle,
                stale_scans: *stale,
            });
        } else if let Some(r) = st.recv_reqs.get(id) {
            let (peer, tag, total) = match &r.matched {
                Some(m) => (format!("rank {}", m.src_rank), m.tag.to_string(), m.msg_len),
                None => (
                    r.src_sel
                        .map(|s| format!("rank {s}"))
                        .unwrap_or_else(|| "any".to_string()),
                    r.tag_sel
                        .map(|t| t.to_string())
                        .unwrap_or_else(|| "any".to_string()),
                    0,
                ),
            };
            let gid = r.matched.as_ref().map(|m| m.gid).unwrap_or(0);
            let (stage, lifecycle) = lifecycle_of(gid);
            stuck.push(StuckReq {
                id: *id,
                gid,
                kind: "recv",
                peer,
                tag,
                bytes_done: r.bytes_received,
                bytes_total: total,
                phase: recv_phase(
                    ep.cfg.scheme,
                    r.matched.is_some(),
                    ep.tunables.get_usize(Knob::EagerLimit),
                    r.matched.as_ref().map(|m| m.msg_len).unwrap_or(0),
                ),
                stalled_stage: stage,
                lifecycle,
                stale_scans: *stale,
            });
        }
    }
    // Snapshot the flight recorder for the post-mortem: first record the
    // stall itself, then freeze the ring's contents into the diagnostic.
    // The trace and flight locks are leaf locks, safe under state +
    // introspect.
    ep.trace(
        now,
        TraceEvent::Stall {
            stuck: stalled.len(),
        },
    );
    let flight = ep.flight.lock().events_json();
    let diag = StallDiagnostic {
        rank: ep.name.rank,
        at_ns: now.as_ns(),
        stuck,
        posted_depth: st.comms.values().map(|c| c.posted.len()).sum(),
        unexpected: st
            .comms
            .values()
            .flat_map(|c| c.unexpected.iter())
            .map(|f| UnexpectedSummary {
                ctx: f.hdr.ctx,
                src_rank: f.hdr.src_rank,
                tag: f.hdr.tag,
                msg_len: f.hdr.msg_len as usize,
            })
            .collect(),
        pending_dmas: st.pending_dmas.iter().map(DmaSummary::of).collect(),
        flight,
    };
    ins.stalls_detected += stalled.len() as u64;
    ins.flight_dumps.push(
        ep.flight
            .lock()
            .dump_json(ep.name.rank, "watchdog stall", now),
    );
    ins.diagnostics.push(diag.clone());
    Some(diag)
}

/// Count one progress tick and, every `watchdog.interval` ticks, scan for
/// stalled requests. Panics with the rendered [`StallDiagnostic`] when one
/// is found — under qsim this surfaces deterministically as
/// `SimError::ProcPanic` naming the stalled rank.
///
/// No-op when the watchdog is disabled (`watchdog.interval == 0`).
pub fn watchdog_tick(proc: &Proc, ep: &Arc<Endpoint>) {
    let interval = ep.tunables.get(Knob::WatchdogInterval);
    if interval == 0 {
        return;
    }
    let t = ep.tunables.next_tick();
    if !t.is_multiple_of(interval) {
        return;
    }
    // Scan (and record) under the locks, then panic outside them so the
    // teardown path never observes a poisoned endpoint.
    let diag = watchdog_scan(ep, proc.now());
    if let Some(d) = diag {
        panic!("{}", d.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_cover_schemes_and_states() {
        assert!(send_phase(RdmaScheme::Read, false).contains("rdma-read+fin_ack"));
        assert!(send_phase(RdmaScheme::Write, true).contains("rdma-write+fin"));
        assert!(recv_phase(RdmaScheme::Read, false, 1984, 0).contains("unmatched"));
        assert!(recv_phase(RdmaScheme::Read, true, 1984, 100).contains("eager"));
        assert!(recv_phase(RdmaScheme::Write, true, 1984, 10_000).contains("rdma-write+fin"));
    }

    #[test]
    fn fingerprint_distinguishes_transitions() {
        let a = pack_fingerprint(false, false, 100);
        let b = pack_fingerprint(false, true, 100);
        let c = pack_fingerprint(false, true, 200);
        let d = pack_fingerprint(true, true, 200);
        assert!(a != b && b != c && c != d);
    }

    #[test]
    fn stall_diagnostic_json_and_render_shape() {
        let d = StallDiagnostic {
            rank: 3,
            at_ns: 12_345,
            stuck: vec![StuckReq {
                id: 7,
                gid: 0x0100_0000_0000_0007,
                kind: "send",
                peer: "rank 1".to_string(),
                tag: "42".to_string(),
                bytes_done: 1984,
                bytes_total: 100_000,
                phase: send_phase(RdmaScheme::Read, true),
                stalled_stage: "wire: RDMA issued, 1984/100000 bytes never landed".to_string(),
                lifecycle: "[{\"t_ns\":1,\"ev\":\"send_posted\"}]".to_string(),
                stale_scans: 4,
            }],
            posted_depth: 1,
            unexpected: vec![UnexpectedSummary {
                ctx: 0,
                src_rank: 2,
                tag: 9,
                msg_len: 64,
            }],
            pending_dmas: vec![DmaSummary {
                token: 5,
                role: "read",
                bytes: 4096,
            }],
            flight: "[]".to_string(),
        };
        let j = d.to_json();
        assert!(j.contains("\"rank\":3"));
        assert!(j.contains("rdma-read+fin_ack"));
        assert!(j.contains("\"pending_dmas\":[{\"token\":5"));
        assert!(j.contains("\"gid\":72057594037927943"));
        assert!(j.contains("\"stalled_stage\":\"wire: RDMA issued"));
        assert!(j.contains("\"lifecycle\":[{\"t_ns\":1,\"ev\":\"send_posted\"}]"));
        let r = d.render();
        assert!(r.contains("rank 3 stalled"));
        assert!(r.contains("peer rank 1"));
        assert!(r.contains("phase [rdma-read+fin_ack"));
        assert!(r.contains("stalled at [wire: RDMA issued"));
    }

    #[test]
    fn stalled_stage_orders_lifecycle_inferences() {
        let send = TraceEvent::SendPosted {
            req: 1,
            gid: 9,
            coll: 0,
            dst: 1,
            tag: 0,
            len: 100,
            eager: false,
        };
        let mtch = TraceEvent::Matched {
            req: 2,
            gid: 9,
            src: 0,
            tag: 0,
            len: 100,
        };
        let rdma = TraceEvent::RdmaIssued {
            gid: 9,
            read: true,
            bytes: 100,
        };
        let done = TraceEvent::DmaDone { gid: 9, bytes: 100 };
        let comp = TraceEvent::Completed {
            req: 2,
            gid: 9,
            send: false,
        };
        assert!(stalled_stage(&[]).contains("unattributed"));
        assert!(stalled_stage(&[&send]).contains("match-wait"));
        assert!(stalled_stage(&[&send, &mtch]).contains("handshake"));
        assert!(stalled_stage(&[&send, &mtch, &rdma]).contains("wire"));
        assert!(stalled_stage(&[&send, &mtch, &rdma, &done]).contains("fin-wait"));
        assert!(stalled_stage(&[&send, &mtch, &rdma, &done, &comp]).contains("complete"));
    }

    #[test]
    fn cvar_table_declares_each_name_and_knob_once() {
        let names: qsim::fxhash::FxHashSet<&str> = CVARS.iter().map(|d| d.name).collect();
        assert_eq!(names.len(), CVARS.len(), "duplicate cvar name");
        let mut owners = [0usize; KNOBS];
        for d in CVARS {
            if let Live::Tunable(k, _) = d.live {
                owners[k as usize] += 1;
            }
        }
        assert_eq!(
            owners, [1; KNOBS],
            "every knob is seeded by exactly one row"
        );
    }

    #[test]
    fn timeline_ring_bounds_and_serializes() {
        let mut tl = Timeline::with_capacity(2);
        for i in 0..3u64 {
            tl.push(TimelineSample {
                t_ns: i * 1000,
                ej_queue: i,
                ..Default::default()
            });
        }
        assert_eq!(tl.len(), 2);
        assert_eq!(tl.dropped(), 1);
        let j = tl.to_json(4);
        assert!(j.starts_with("{\"rank\":4,\"dropped\":1,\"samples\":["));
        assert!(j.contains("\"t_ns\":1000"));
        assert!(j.contains("\"t_ns\":2000"));
        assert!(!j.contains("\"t_ns\":0,"));
        assert!(j.contains("\"ej_queue\":2"));
    }
}
