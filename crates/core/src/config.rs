//! Protocol and host-cost configuration for the Open MPI stack.
//!
//! Every design choice the paper evaluates is a knob here, so each figure's
//! series is just a different [`StackConfig`].

use ompi_datatype::CopyModel;
use qsim::Dur;

/// Which long-message scheme the Elan4 PTL uses (paper §4.2, Figs. 3 & 4).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum RdmaScheme {
    /// Sender RDMA-writes after the ACK, then sends FIN.
    Write,
    /// Receiver RDMA-reads after the match, then sends FIN_ACK.
    Read,
}

/// How the host learns that its own RDMA descriptors completed (paper §4.3).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CompletionMode {
    /// Poll each descriptor's host event word.
    PollEvent,
    /// Chain a small QDMA to every RDMA, funneling completions into the
    /// *existing* receive queue (the one-queue strategy).
    SharedQueueCombined,
    /// Same, but into a dedicated second queue (the two-queue strategy).
    SharedQueueSeparate,
}

/// How pending communication is progressed (paper §3, dual-mode progress).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ProgressMode {
    /// The application thread polls inside blocking MPI calls.
    Polling,
    /// The application thread blocks on NIC interrupts directly ("not really
    /// workable" per the paper — measured for Table 1).
    Interrupt,
    /// One asynchronous progress thread services the (combined) queue.
    OneThread,
    /// Two threads: one for incoming messages, one for the separate
    /// completion queue.
    TwoThreads,
}

/// Configuration of the whole communication stack for one run.
#[derive(Clone, Debug)]
pub struct StackConfig {
    /// Long-message scheme.
    pub scheme: RdmaScheme,
    /// Carry up to `first_frag_payload` bytes inside the rendezvous packet.
    /// Disabling this is the paper's §6.1 optimization.
    pub inline_first_frag: bool,
    /// Chain the FIN / FIN_ACK QDMA to the final RDMA (vs. the host sending
    /// it after polling the completion).
    pub chained_fin: bool,
    /// Completion-notification strategy for RDMA descriptors.
    pub completion: CompletionMode,
    /// Progress engine.
    pub progress: ProgressMode,
    /// Messages at most this long (packed) go eagerly in one QDMA.
    /// The 2 KB QDMA limit minus the 64-byte match header = 1984.
    pub eager_limit: usize,
    /// Force every message through the rendezvous/RDMA path (Fig. 7 studies
    /// the RDMA path in isolation).
    pub force_rendezvous: bool,
    /// Route data through the datatype convertor instead of the memcpy fast
    /// path (the "DTP" series of Fig. 7).
    pub use_datatype_engine: bool,
    /// Receive-queue depth (QSLOTS).
    pub qslots: usize,
    /// End-to-end payload integrity checking (Fletcher-16 in the header;
    /// LA-MPI heritage, paper §3). Detection is fail-stop: a corrupt
    /// payload aborts the rank. Recovery/retransmission is future work in
    /// the paper (§8) and here.
    pub integrity_check: bool,
    /// Record every protocol transition in the endpoint's
    /// [`crate::trace::TraceLog`].
    pub trace: bool,
    /// Ring capacity of the trace log; when full, the oldest events are
    /// evicted and counted in [`crate::trace::TraceLog::dropped`].
    pub trace_capacity: usize,
    /// Keep per-endpoint telemetry ([`crate::metrics::Metrics`]): protocol
    /// counters and latency histograms. Off by default so the fast path
    /// does no extra locking.
    pub metrics: bool,
    /// Post-mortem flight recorder: a second, small always-on
    /// [`crate::trace::TraceLog`] of recent protocol events (the subset
    /// [`crate::trace::TraceEvent::in_flight_recorder`] keeps), dumped as JSON when
    /// the watchdog declares a stall or a request fails with an MPI error
    /// class. On by default — it is far cheaper than full tracing.
    pub flight_recorder: bool,
    /// Ring capacity of the flight recorder.
    pub flight_capacity: usize,
    /// Progress watchdog: scan for stalled requests every this many progress
    /// ticks. `0` (the default) disables the watchdog entirely.
    pub watchdog_interval: u64,
    /// Consecutive watchdog scans a request must survive without any state
    /// transition before it is declared stalled.
    pub watchdog_grace: u32,
    /// Virtual-time bound on blocked waits while the watchdog is armed; each
    /// expiry counts as a progress tick, so a wedged rank keeps ticking (and
    /// eventually diagnosing) instead of deadlocking silently.
    pub watchdog_tick: Dur,
    /// Reliability layer for TCP-routed control frames (ACK/FIN/FIN_ACK):
    /// sequence-stamp them, buffer them for retransmission, and suppress
    /// duplicates on receipt. A lost control frame then costs one retransmit
    /// timeout instead of stranding the rendezvous (the watchdog stays the
    /// last-resort detector).
    pub tcp_reliability: bool,
    /// Initial retransmission timeout for an unacknowledged control frame.
    pub tcp_retransmit_timeout: Dur,
    /// Multiplier applied to the timeout after each retransmission
    /// (exponential backoff).
    pub tcp_retransmit_backoff: u32,
    /// Retransmissions attempted before the frame is abandoned, the peer is
    /// marked failed, and the affected request completes with an error
    /// status.
    pub tcp_max_retries: u32,
    /// Registration (pin-down) cache: keep rendezvous/RMA MMU mappings
    /// alive after their request completes and reuse them for repeated
    /// buffers, deferring the charged unmap to LRU eviction
    /// ([`crate::regcache`]).
    pub reg_cache: bool,
    /// Byte capacity of the registration cache.
    pub reg_cache_bytes: usize,
    /// Entry capacity of the registration cache.
    pub reg_cache_entries: usize,
    /// Pipelined rendezvous: the DMA-issuing side splits its bulk share
    /// into `pipeline_chunk`-sized pieces and registers chunk *i+1* while
    /// chunk *i*'s RDMA is in flight, hiding the pin-down cost behind the
    /// transfer (the MPICH2-over-InfiniBand optimization).
    pub pipeline_enable: bool,
    /// Bytes per pipeline chunk.
    pub pipeline_chunk: usize,
    /// Chunks allowed in flight per rail.
    pub pipeline_depth: usize,
    /// Elan shares shorter than this keep the monolithic single-RDMA path
    /// (chunking overhead would outweigh the registration overlap).
    pub pipeline_min_len: usize,
    /// End-to-end credit-based flow control for eager/unexpected messages
    /// (the MPICH2-over-InfiniBand scheme): each peer grants
    /// `flow_credits` sends up front, every eager send consumes one, and
    /// credits travel back piggybacked on ACK/FIN_ACK frames (an explicit
    /// CREDIT_RETURN frame fires only when the receiver is hoarding).
    /// Senders out of credits queue locally instead of flooding the
    /// victim's receive queue. Off by default: the paper's stack has no
    /// end-to-end limit, and the incast benchmarks compare both settings.
    pub flow_enable: bool,
    /// Per-peer initial credit grant. `0` (the default) auto-scales at
    /// `Endpoint::init` so the whole job's worst-case in-flight eager
    /// traffic fits the receiver's bounce pool:
    /// `clamp(flow_bounce_pool / max(1, nprocs - 1), 2, 16)`.
    pub flow_credits: usize,
    /// Slots in the preallocated receive-side bounce pool (each slot is
    /// one QDMA payload, [`crate::hdr::SLOT_LEN`] bytes). Unexpected
    /// eager payloads stage here instead of a per-message allocation;
    /// when the pool is dry the fallback allocation is charged
    /// [`HostConfig::bounce_alloc`].
    pub flow_bounce_pool: usize,
    /// Endpoint-wide cap on outstanding RDMA descriptors (all rails, all
    /// requests). `0` means uncapped. Only enforced while `flow_enable`
    /// is on — the GASNet elan-conduit NETWORKDEPTH throttle.
    pub flow_dma_cap: usize,
    /// Defer credit grants while the local ejection-link queue is at
    /// least this deep (fabric feedback into the credit loop). `0`
    /// disables the feedback.
    pub flow_ej_backoff: usize,
    /// Compile barrier/bcast/allreduce into NIC-resident chained event
    /// programs: once every rank has armed the program, each inter-hop
    /// transfer is NIC→NIC (a child's arriving QDMA decrements the parent's
    /// counted event, which fires the next chained QDMA) with exactly one
    /// host wakeup per rank at completion. Falls back to the host-driven
    /// trees for TCP-only routes, non-commutative reduce ops, payloads over
    /// the QDMA limit, and communicators without hardware-collective
    /// support. Must be set uniformly across the job.
    pub coll_nic_offload: bool,
    /// Fan-out of the NIC-offloaded reduction/broadcast tree (>= 2).
    pub coll_tree_radix: usize,
    /// Let eligible broadcasts use the hardware broadcast rail
    /// (`ElanCtx::hw_bcast`) when the communicator spans a full
    /// rail-connected set; off, they take the binomial point-to-point tree.
    pub coll_hw_bcast: bool,
    /// Time-series sampler: snapshot queue depths / link occupancy into the
    /// endpoint's [`crate::introspect::Timeline`] every this much simulated
    /// time. `Dur::ZERO` (the default) disables sampling.
    pub timeline_interval: Dur,
    /// Ring capacity of the timeline sampler; when full, the oldest samples
    /// are evicted and counted.
    pub timeline_capacity: usize,
    /// Host-side layer costs.
    pub host: HostConfig,
    /// Copy-engine cost model.
    pub copy: CopyModel,
}

/// Host CPU costs of the Open MPI layers.
#[derive(Clone, Debug)]
pub struct HostConfig {
    /// One matching attempt in the PML (walk posted/unexpected lists).
    pub pml_match: Dur,
    /// Building a 64-byte match/control header.
    pub hdr_build: Dur,
    /// Parsing an incoming header + dispatch.
    pub hdr_parse: Dur,
    /// Request allocation / completion bookkeeping.
    pub req_bookkeep: Dur,
    /// PML scheduling decision (choose PTL, slice message).
    pub sched: Dur,
    /// Fixed sender-side cost of staging payload through the pre-allocated
    /// send buffers (charged whenever a fragment carries data). Calibrated
    /// so the paper's no-inline rendezvous optimization wins above the
    /// threshold (§6.1).
    pub inline_copy_setup: Dur,
    /// Fixed receiver-side cost of copying payload out of a queue slot.
    pub unpack_setup: Dur,
    /// Allocating (and first-touching) a bounce region for an unexpected
    /// payload when the preallocated pool is exhausted — the cost the
    /// GASNet elan-conduit avoids by preallocating its bounce buffers.
    /// Charged only on the pool-miss path.
    pub bounce_alloc: Dur,
    /// Progress-thread to application-thread wakeup (condvar handoff).
    pub thread_handoff: Dur,
    /// Extra per-wakeup penalty when two progress threads contend for CPU
    /// and memory (paper §6.4: two-thread progress is slower).
    pub thread_contention: Dur,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            pml_match: Dur::from_ns(250),
            hdr_build: Dur::from_ns(150),
            hdr_parse: Dur::from_ns(100),
            req_bookkeep: Dur::from_ns(100),
            sched: Dur::from_ns(100),
            inline_copy_setup: Dur::from_ns(600),
            unpack_setup: Dur::from_ns(150),
            bounce_alloc: Dur::from_ns(2_000),
            thread_handoff: Dur::from_ns(4_000),
            thread_contention: Dur::from_ns(2_300),
        }
    }
}

impl Default for StackConfig {
    fn default() -> Self {
        StackConfig {
            scheme: RdmaScheme::Read,
            inline_first_frag: false,
            chained_fin: true,
            completion: CompletionMode::PollEvent,
            progress: ProgressMode::Polling,
            eager_limit: crate::hdr::MAX_INLINE,
            force_rendezvous: false,
            use_datatype_engine: false,
            qslots: 128,
            integrity_check: false,
            trace: false,
            trace_capacity: crate::trace::DEFAULT_TRACE_CAPACITY,
            metrics: false,
            flight_recorder: true,
            flight_capacity: crate::trace::DEFAULT_FLIGHT_CAPACITY,
            watchdog_interval: 0,
            watchdog_grace: 4,
            watchdog_tick: Dur::from_us(200),
            tcp_reliability: true,
            tcp_retransmit_timeout: Dur::from_us(500),
            tcp_retransmit_backoff: 2,
            tcp_max_retries: 4,
            reg_cache: true,
            reg_cache_bytes: 32 << 20,
            reg_cache_entries: 128,
            pipeline_enable: true,
            pipeline_chunk: 32 << 10,
            pipeline_depth: 4,
            pipeline_min_len: 256 << 10,
            flow_enable: false,
            flow_credits: 0,
            flow_bounce_pool: 64,
            flow_dma_cap: 32,
            flow_ej_backoff: 0,
            coll_nic_offload: false,
            coll_tree_radix: 4,
            coll_hw_bcast: true,
            timeline_interval: Dur::ZERO,
            timeline_capacity: 1024,
            host: HostConfig::default(),
            copy: CopyModel::default(),
        }
    }
}

impl StackConfig {
    /// The paper's best-performing configuration (used for Fig. 10):
    /// chained FIN, polling progress, no shared completion queue, rendezvous
    /// without inlined data.
    pub fn best() -> Self {
        StackConfig::default()
    }

    /// Sanity-check mode combinations.
    pub fn validate(&self) {
        match self.progress {
            ProgressMode::OneThread => assert!(
                self.completion == CompletionMode::SharedQueueCombined,
                "one-thread progress requires the combined shared completion queue"
            ),
            ProgressMode::TwoThreads => assert!(
                self.completion == CompletionMode::SharedQueueSeparate,
                "two-thread progress requires the separate completion queue"
            ),
            _ => {}
        }
        assert!(self.eager_limit <= crate::hdr::MAX_INLINE);
        assert!(self.qslots >= 2);
        assert!(
            self.trace_capacity >= 1,
            "trace ring needs at least one slot"
        );
        if self.flight_recorder {
            assert!(
                self.flight_capacity >= 1,
                "flight recorder needs at least one slot"
            );
        }
        if self.watchdog_interval > 0 {
            assert!(self.watchdog_grace >= 1, "watchdog grace must be >= 1");
            assert!(
                self.watchdog_tick > Dur::ZERO,
                "watchdog tick must be a positive duration"
            );
        }
        if self.tcp_reliability {
            assert!(
                self.tcp_retransmit_timeout > Dur::ZERO,
                "retransmit timeout must be a positive duration"
            );
            assert!(
                self.tcp_retransmit_backoff >= 1,
                "retransmit backoff multiplier must be >= 1"
            );
        }
        if self.reg_cache {
            assert!(
                self.reg_cache_bytes > 0 && self.reg_cache_entries > 0,
                "registration cache capacities must be positive when enabled"
            );
        }
        if self.pipeline_enable {
            assert!(
                self.pipeline_chunk > 0,
                "pipeline chunk size must be positive when pipelining is enabled"
            );
            assert!(
                self.pipeline_depth >= 1,
                "pipeline depth must be >= 1 when pipelining is enabled"
            );
        }
        if self.flow_enable {
            assert!(
                self.flow_bounce_pool >= 1,
                "flow control needs at least one bounce-pool slot"
            );
            assert!(
                self.flow_credits <= self.flow_bounce_pool,
                "per-peer flow credits cannot exceed the bounce pool (one sender could overrun it)"
            );
        }
        assert!(
            self.coll_tree_radix >= 2,
            "collective tree radix must be >= 2"
        );
        if self.timeline_interval > Dur::ZERO {
            assert!(
                self.timeline_capacity >= 1,
                "timeline ring needs at least one slot when sampling is enabled"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_paper_best() {
        let c = StackConfig::best();
        c.validate();
        assert_eq!(c.scheme, RdmaScheme::Read);
        assert!(c.chained_fin);
        assert!(!c.inline_first_frag);
        assert_eq!(c.eager_limit, 1984);
        assert!(c.tcp_reliability);
        assert!(c.tcp_retransmit_timeout > Dur::ZERO);
        assert!(c.tcp_retransmit_backoff >= 1);
        assert!(c.reg_cache);
        assert!(c.reg_cache_bytes > 0 && c.reg_cache_entries > 0);
        assert!(c.pipeline_enable);
        assert!(c.pipeline_chunk > 0 && c.pipeline_depth >= 1);
        assert!(c.pipeline_min_len >= c.pipeline_chunk);
    }

    #[test]
    #[should_panic(expected = "pipeline depth must be >= 1")]
    fn zero_pipeline_depth_rejected() {
        let c = StackConfig {
            pipeline_depth: 0,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "pipeline chunk size must be positive")]
    fn zero_pipeline_chunk_rejected() {
        let c = StackConfig {
            pipeline_chunk: 0,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    fn flow_defaults_are_off_but_sized() {
        let c = StackConfig::default();
        assert!(!c.flow_enable);
        assert_eq!(c.flow_credits, 0, "0 means auto-scale at init");
        assert!(c.flow_bounce_pool >= 1);
        let on = StackConfig {
            flow_enable: true,
            ..Default::default()
        };
        on.validate();
    }

    #[test]
    #[should_panic(expected = "bounce-pool slot")]
    fn zero_bounce_pool_rejected_when_flow_on() {
        let c = StackConfig {
            flow_enable: true,
            flow_bounce_pool: 0,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "cannot exceed the bounce pool")]
    fn oversubscribed_credits_rejected() {
        let c = StackConfig {
            flow_enable: true,
            flow_credits: 65,
            flow_bounce_pool: 64,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    fn coll_defaults_are_conservative() {
        let c = StackConfig::default();
        assert!(!c.coll_nic_offload, "offload is opt-in");
        assert_eq!(c.coll_tree_radix, 4);
        assert!(c.coll_hw_bcast);
    }

    #[test]
    #[should_panic(expected = "collective tree radix must be >= 2")]
    fn degenerate_tree_radix_rejected() {
        let c = StackConfig {
            coll_tree_radix: 1,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "registration cache capacities")]
    fn zero_reg_cache_capacity_rejected() {
        let c = StackConfig {
            reg_cache_bytes: 0,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "retransmit backoff multiplier")]
    fn zero_backoff_rejected() {
        let c = StackConfig {
            tcp_retransmit_backoff: 0,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "one-thread progress requires")]
    fn invalid_combo_rejected() {
        let c = StackConfig {
            progress: ProgressMode::OneThread,
            ..Default::default()
        };
        c.validate();
    }
}
