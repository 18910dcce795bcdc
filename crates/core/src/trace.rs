//! Protocol event tracing.
//!
//! When [`crate::StackConfig::trace`] is on, every protocol transition is
//! recorded with its virtual timestamp: request posting, matching,
//! unexpected arrivals, RDMA issue/completion, and control messages. The
//! trace is the tool for understanding *why* a latency number looks the way
//! it does — a per-rank, virtual-time view of Figs. 2–4 of the paper.
//!
//! Two additions serve the telemetry stack: multi-event *spans* (a
//! rendezvous handshake or an RDMA burst has a begin and an end, correlated
//! by id), and a [Chrome trace-event] exporter so a run's per-rank timeline
//! can be loaded straight into `chrome://tracing` or Perfetto.
//!
//! The same events also feed the always-on post-mortem *flight recorder*:
//! a second, small [`TraceLog`] per endpoint that keeps only the events
//! [`TraceEvent::in_flight_recorder`] selects and is dumped as JSON when
//! the watchdog declares a stall or a request fails with an MPI error
//! class ([`TraceLog::dump_json`]).
//!
//! [Chrome trace-event]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::collections::VecDeque;

use qsim::Time;

/// Default ring capacity of a [`TraceLog`]; see
/// [`crate::StackConfig::trace_capacity`].
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// Default ring capacity of the flight recorder; see
/// [`crate::StackConfig::flight_capacity`].
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// One recorded protocol event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A send request was posted (`eager` tells the path taken).
    SendPosted {
        /// Request id.
        req: u64,
        /// Global message id ([`crate::hdr::msg_gid`]).
        gid: u64,
        /// Enclosing collective-operation id on this rank; 0 when the send
        /// was posted outside any collective.
        coll: u64,
        /// Destination rank.
        dst: u32,
        /// MPI tag.
        tag: i32,
        /// Packed length.
        len: usize,
        /// Eager (true) or rendezvous (false).
        eager: bool,
    },
    /// A receive request was posted.
    RecvPosted {
        /// Request id.
        req: u64,
    },
    /// An incoming first fragment matched a posted receive.
    Matched {
        /// The receive request.
        req: u64,
        /// Global message id, computed from the fragment's origin.
        gid: u64,
        /// Sender rank.
        src: u32,
        /// Matched tag.
        tag: i32,
        /// Total message length.
        len: usize,
    },
    /// A first fragment arrived with no matching receive posted.
    Unexpected {
        /// Sender rank.
        src: u32,
        /// Tag of the fragment.
        tag: i32,
    },
    /// A buffer region was registered (pinned) for a message's transfer.
    Registered {
        /// Global message id the registration serves.
        gid: u64,
        /// Bytes covered by the mapping.
        bytes: usize,
        /// Virtual nanoseconds the registration cost (0 on a cache hit);
        /// the pin occupied `[t - cost_ns, t]`.
        cost_ns: u64,
    },
    /// RDMA descriptors were issued for a message's remainder.
    RdmaIssued {
        /// Global message id the batch serves.
        gid: u64,
        /// Read (receiver pulls) or write (sender pushes).
        read: bool,
        /// Bytes covered by the batch.
        bytes: usize,
    },
    /// A local DMA completion was observed by the host.
    DmaDone {
        /// Global message id the descriptor served.
        gid: u64,
        /// Bytes credited.
        bytes: usize,
    },
    /// A pipelined-rendezvous chunk was handed to the NIC.
    PipeChunk {
        /// The request the pipeline serves.
        req: u64,
        /// Global message id the pipeline serves.
        gid: u64,
        /// Chunk offset within the bulk share.
        off: usize,
        /// Chunk length in bytes.
        len: usize,
        /// The final chunk (carries the FIN/FIN_ACK).
        last: bool,
    },
    /// A control message was sent (ACK/FIN/FIN_ACK), by header kind name.
    ControlSent {
        /// Global message id the control frame belongs to; 0 when the
        /// frame serves no single message.
        gid: u64,
        /// `"Ack"`, `"Fin"` or `"FinAck"`.
        kind: &'static str,
    },
    /// A request completed.
    Completed {
        /// The request id.
        req: u64,
        /// Global message id.
        gid: u64,
        /// Send (true) or receive (false).
        send: bool,
    },
    /// The reliability layer re-sent an unacknowledged control frame.
    CtlRetransmit {
        /// Control kind name (`"Ack"`, `"Fin"`, `"FinAck"`, `"Completion"`).
        kind: &'static str,
        /// Reliability sequence number of the frame.
        rel_seq: u32,
        /// Retransmission attempt number (1 = first re-send).
        attempt: u32,
    },
    /// A redelivered control frame was suppressed as a duplicate.
    CtlDuplicate {
        /// Control kind name.
        kind: &'static str,
        /// Reliability sequence number of the duplicate.
        rel_seq: u32,
    },
    /// Retransmission retries were exhausted; the peer is now marked failed.
    CtlGaveUp {
        /// Control kind name.
        kind: &'static str,
        /// Reliability sequence number of the abandoned frame.
        rel_seq: u32,
    },
    /// A request completed with an error status instead of a payload.
    ReqFailed {
        /// The request id.
        req: u64,
        /// Send (true) or receive (false).
        send: bool,
        /// MPI error-class name.
        err: &'static str,
    },
    /// An incoming frame was dropped because its header failed to decode.
    CorruptFrame {
        /// Raw frame length in bytes.
        len: usize,
    },
    /// An eager send parked in the flow-control queue: the peer's credit
    /// window was exhausted (or older sends were already waiting).
    FlowQueued {
        /// The send request id.
        req: u64,
        /// Global message id.
        gid: u64,
    },
    /// A previously parked send went on the wire after credits returned.
    FlowSent {
        /// The send request id.
        req: u64,
        /// Global message id.
        gid: u64,
    },
    /// A NIC-resident collective event program was compiled and armed on
    /// this rank (chained counted events + QDMAs; see docs/COLLECTIVES.md).
    NicProgArmed {
        /// Program id, unique per endpoint.
        prog: u64,
        /// `"barrier"`, `"bcast"` or `"allreduce"`.
        kind: &'static str,
        /// Tree fan-out the program was compiled with.
        radix: usize,
        /// Communicator size the program spans.
        members: usize,
    },
    /// A collective completed on a NIC-resident program: the single host
    /// wakeup of this rank for the whole operation.
    NicCollComplete {
        /// Program id from the matching [`TraceEvent::NicProgArmed`].
        prog: u64,
        /// Collective-operation id on this rank (pairs with the `coll`
        /// field of [`TraceEvent::SendPosted`]).
        coll: u64,
        /// `"barrier"`, `"bcast"` or `"allreduce"`.
        kind: &'static str,
    },
    /// The progress watchdog declared a stall on this rank.
    Stall {
        /// Number of stuck requests.
        stuck: usize,
    },
    /// A multi-event interval opened (rendezvous handshake, RDMA burst).
    SpanBegin {
        /// Correlates with the matching [`TraceEvent::SpanEnd`]. Unique per
        /// (cat, id) among concurrently open spans.
        id: u64,
        /// Span category, e.g. `"rndv"` or `"rdma"`.
        cat: &'static str,
        /// Human-readable span name.
        name: &'static str,
    },
    /// The matching interval closed.
    SpanEnd {
        /// Id from the corresponding [`TraceEvent::SpanBegin`].
        id: u64,
        /// Category from the begin event.
        cat: &'static str,
        /// Name from the begin event.
        name: &'static str,
    },
}

impl TraceEvent {
    /// Short display name for timeline views.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::SendPosted { .. } => "send_posted",
            TraceEvent::RecvPosted { .. } => "recv_posted",
            TraceEvent::Matched { .. } => "matched",
            TraceEvent::Unexpected { .. } => "unexpected",
            TraceEvent::Registered { .. } => "registered",
            TraceEvent::RdmaIssued { .. } => "rdma_issued",
            TraceEvent::DmaDone { .. } => "dma_done",
            TraceEvent::PipeChunk { .. } => "pipe_chunk",
            TraceEvent::ControlSent { .. } => "control_sent",
            TraceEvent::Completed { .. } => "completed",
            TraceEvent::CtlRetransmit { .. } => "ctl_retransmit",
            TraceEvent::CtlDuplicate { .. } => "ctl_duplicate",
            TraceEvent::CtlGaveUp { .. } => "ctl_gave_up",
            TraceEvent::ReqFailed { .. } => "req_failed",
            TraceEvent::CorruptFrame { .. } => "corrupt_frame",
            TraceEvent::FlowQueued { .. } => "flow_queued",
            TraceEvent::FlowSent { .. } => "flow_sent",
            TraceEvent::NicProgArmed { .. } => "nic_prog_armed",
            TraceEvent::NicCollComplete { .. } => "nic_coll_complete",
            TraceEvent::Stall { .. } => "stall",
            TraceEvent::SpanBegin { name, .. } | TraceEvent::SpanEnd { name, .. } => name,
        }
    }

    /// The global message id an event is attributed to, when it carries one
    /// and it is non-zero. Reconstructs a single message's lifecycle out of
    /// a ring (critical path, stall diagnostics).
    pub fn gid(&self) -> Option<u64> {
        match self {
            TraceEvent::SendPosted { gid, .. }
            | TraceEvent::Matched { gid, .. }
            | TraceEvent::Registered { gid, .. }
            | TraceEvent::RdmaIssued { gid, .. }
            | TraceEvent::PipeChunk { gid, .. }
            | TraceEvent::DmaDone { gid, .. }
            | TraceEvent::ControlSent { gid, .. }
            | TraceEvent::FlowQueued { gid, .. }
            | TraceEvent::FlowSent { gid, .. }
            | TraceEvent::Completed { gid, .. } => (*gid != 0).then_some(*gid),
            _ => None,
        }
    }

    /// Does the flight recorder keep this event? High-volume or
    /// bookkeeping-only events (pipeline chunks, registrations, duplicate
    /// suppressions, flow parking, NIC programs, spans) would wash its
    /// small ring out.
    pub fn in_flight_recorder(&self) -> bool {
        !matches!(
            self,
            TraceEvent::PipeChunk { .. }
                | TraceEvent::Registered { .. }
                | TraceEvent::CtlDuplicate { .. }
                | TraceEvent::FlowQueued { .. }
                | TraceEvent::FlowSent { .. }
                | TraceEvent::NicProgArmed { .. }
                | TraceEvent::NicCollComplete { .. }
                | TraceEvent::SpanBegin { .. }
                | TraceEvent::SpanEnd { .. }
        )
    }

    /// One event as a flat JSON object, timestamped:
    /// `{"t_ns":t,"ev":name,<args fields>}`.
    pub fn to_json(&self, at: Time) -> String {
        // Every args object has at least one field, so its body spliced
        // after a comma stays valid JSON.
        let args = self.args_json();
        format!(
            "{{\"t_ns\":{},\"ev\":\"{}\",{}",
            at.as_ns(),
            escape_json(self.name()),
            &args[1..]
        )
    }

    /// Event payload as a JSON object for the exporter's `args` field.
    fn args_json(&self) -> String {
        match self {
            TraceEvent::SendPosted {
                req,
                gid,
                coll,
                dst,
                tag,
                len,
                eager,
            } => format!(
                "{{\"req\":{req},\"gid\":{gid},\"coll\":{coll},\"dst\":{dst},\
                 \"tag\":{tag},\"len\":{len},\"eager\":{eager}}}"
            ),
            TraceEvent::RecvPosted { req } => format!("{{\"req\":{req}}}"),
            TraceEvent::Matched {
                req,
                gid,
                src,
                tag,
                len,
            } => {
                format!("{{\"req\":{req},\"gid\":{gid},\"src\":{src},\"tag\":{tag},\"len\":{len}}}")
            }
            TraceEvent::Unexpected { src, tag } => format!("{{\"src\":{src},\"tag\":{tag}}}"),
            TraceEvent::Registered {
                gid,
                bytes,
                cost_ns,
            } => {
                format!("{{\"gid\":{gid},\"bytes\":{bytes},\"cost_ns\":{cost_ns}}}")
            }
            TraceEvent::RdmaIssued { gid, read, bytes } => {
                format!("{{\"gid\":{gid},\"read\":{read},\"bytes\":{bytes}}}")
            }
            TraceEvent::DmaDone { gid, bytes } => format!("{{\"gid\":{gid},\"bytes\":{bytes}}}"),
            TraceEvent::PipeChunk {
                req,
                gid,
                off,
                len,
                last,
            } => {
                format!(
                    "{{\"req\":{req},\"gid\":{gid},\"off\":{off},\"len\":{len},\"last\":{last}}}"
                )
            }
            TraceEvent::ControlSent { gid, kind } => {
                format!("{{\"gid\":{gid},\"kind\":\"{}\"}}", escape_json(kind))
            }
            TraceEvent::Completed { req, gid, send } => {
                format!("{{\"req\":{req},\"gid\":{gid},\"send\":{send}}}")
            }
            TraceEvent::CtlRetransmit {
                kind,
                rel_seq,
                attempt,
            } => format!(
                "{{\"kind\":\"{}\",\"rel_seq\":{rel_seq},\"attempt\":{attempt}}}",
                escape_json(kind)
            ),
            TraceEvent::CtlDuplicate { kind, rel_seq } => {
                format!(
                    "{{\"kind\":\"{}\",\"rel_seq\":{rel_seq}}}",
                    escape_json(kind)
                )
            }
            TraceEvent::CtlGaveUp { kind, rel_seq } => {
                format!(
                    "{{\"kind\":\"{}\",\"rel_seq\":{rel_seq}}}",
                    escape_json(kind)
                )
            }
            TraceEvent::ReqFailed { req, send, err } => {
                format!(
                    "{{\"req\":{req},\"send\":{send},\"err\":\"{}\"}}",
                    escape_json(err)
                )
            }
            TraceEvent::CorruptFrame { len } => format!("{{\"len\":{len}}}"),
            TraceEvent::FlowQueued { req, gid } | TraceEvent::FlowSent { req, gid } => {
                format!("{{\"req\":{req},\"gid\":{gid}}}")
            }
            TraceEvent::NicProgArmed {
                prog,
                kind,
                radix,
                members,
            } => format!(
                "{{\"prog\":{prog},\"kind\":\"{}\",\"radix\":{radix},\"members\":{members}}}",
                escape_json(kind)
            ),
            TraceEvent::NicCollComplete { prog, coll, kind } => {
                format!(
                    "{{\"prog\":{prog},\"coll\":{coll},\"kind\":\"{}\"}}",
                    escape_json(kind)
                )
            }
            TraceEvent::Stall { stuck } => format!("{{\"stuck\":{stuck}}}"),
            TraceEvent::SpanBegin { id, .. } | TraceEvent::SpanEnd { id, .. } => {
                format!("{{\"span\":{id}}}")
            }
        }
    }
}

/// A bounded ring. When full, the oldest entry is evicted and counted in
/// [`Ring::dropped`], so a long run with a small capacity keeps the *tail*
/// of its history. The trace log, the flight recorder and the timeline
/// sampler are all rings.
#[derive(Clone)]
pub struct Ring<T> {
    items: VecDeque<T>,
    capacity: usize,
    dropped: u64,
}

impl<T> Ring<T> {
    /// An empty ring holding at most `capacity` entries (min 1).
    pub fn with_capacity(capacity: usize) -> Ring<T> {
        Ring {
            items: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Append one entry, evicting the oldest when full.
    pub fn push(&mut self, item: T) {
        if self.items.len() == self.capacity {
            self.items.pop_front();
            self.dropped += 1;
        }
        self.items.push_back(item);
    }

    /// Retained entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Number of entries currently retained.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Maximum entries retained before eviction starts.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// A per-endpoint trace buffer: a [`Ring`] of timestamped events.
pub type TraceLog = Ring<(Time, TraceEvent)>;

impl Default for TraceLog {
    fn default() -> Self {
        TraceLog::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceLog {
    /// Record one event at `now`, evicting the oldest when full.
    pub fn record(&mut self, now: Time, ev: TraceEvent) {
        self.push((now, ev));
    }

    /// Retained events in record order.
    pub fn events(&self) -> impl Iterator<Item = &(Time, TraceEvent)> {
        self.iter()
    }

    /// Render the trace as aligned text lines.
    pub fn dump(&self) -> Vec<String> {
        self.iter()
            .map(|(t, e)| format!("{:>12} {:?}", format!("{t}"), e))
            .collect()
    }

    /// Count events matching a predicate.
    pub fn count(&self, f: impl Fn(&TraceEvent) -> bool) -> usize {
        self.iter().filter(|(_, e)| f(e)).count()
    }

    /// The retained events as a JSON array of [`TraceEvent::to_json`] rows.
    pub fn events_json(&self) -> String {
        let rows: Vec<String> = self.iter().map(|(t, e)| e.to_json(*t)).collect();
        format!("[{}]", rows.join(","))
    }

    /// A post-mortem dump document for one rank:
    /// `{"rank":r,"reason":"...","at_ns":t,"dropped":n,"events":[...]}`.
    pub fn dump_json(&self, rank: usize, reason: &str, at: Time) -> String {
        format!(
            "{{\"rank\":{},\"reason\":\"{}\",\"at_ns\":{},\"dropped\":{},\"events\":{}}}",
            rank,
            escape_json(reason),
            at.as_ns(),
            self.dropped,
            self.events_json()
        )
    }
}

/// Escape a string for inclusion inside a JSON string literal: quotes,
/// backslashes, and control characters (the trace exporter must emit valid
/// JSON whatever ends up in an event name).
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Namespace an async span id by the rank that recorded it: ranks allocate
/// span ids independently (request ids, DMA tokens), so a merged multi-rank
/// export would otherwise pair a begin on rank 0 with an end on rank 1 that
/// happens to share the `(cat, id)`. 16 bits of rank above 48 bits of local
/// id — the same packing the reliability layer uses for `rel` span ids.
fn rank_span_id(rank: u32, id: u64) -> u64 {
    ((rank as u64) << 48) | (id & 0xFFFF_FFFF_FFFF)
}

/// Render per-rank trace logs as one Chrome trace-event JSON document.
///
/// Point events become instants (`ph:"i"`); spans become async begin/end
/// pairs (`ph:"b"`/`"e"`) correlated by category + id (namespaced per rank
/// by [`rank_span_id`]), which Perfetto and `chrome://tracing` draw as bars
/// on the rank's timeline. Gid-carrying lifecycle events additionally emit
/// *flow* events (`ph:"s"`/`"t"`/`"f"`, cat `msgflow`, id = gid), so a
/// merged multi-rank trace draws an arrow from the sender's post through
/// the receiver's match to the receiver's completion. Timestamps are
/// virtual microseconds; `pid` and `tid` are the rank.
pub fn chrome_trace_json(logs: &[(u32, &TraceLog)]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let push = |s: String, first: &mut bool, out: &mut String| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&s);
    };
    for (rank, log) in logs {
        for (t, ev) in log.events() {
            let ts = t.as_ns() as f64 / 1000.0;
            match ev {
                TraceEvent::SpanBegin { id, cat, name } => push(
                    format!(
                        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"b\",\"id\":{},\
                         \"ts\":{ts},\"pid\":{rank},\"tid\":{rank}}}",
                        escape_json(name),
                        escape_json(cat),
                        rank_span_id(*rank, *id)
                    ),
                    &mut first,
                    &mut out,
                ),
                TraceEvent::SpanEnd { id, cat, name } => push(
                    format!(
                        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"e\",\"id\":{},\
                         \"ts\":{ts},\"pid\":{rank},\"tid\":{rank}}}",
                        escape_json(name),
                        escape_json(cat),
                        rank_span_id(*rank, *id)
                    ),
                    &mut first,
                    &mut out,
                ),
                _ => {
                    push(
                        format!(
                            "{{\"name\":\"{}\",\"cat\":\"proto\",\"ph\":\"i\",\"s\":\"t\",\
                             \"ts\":{ts},\"pid\":{rank},\"tid\":{rank},\"args\":{}}}",
                            escape_json(ev.name()),
                            ev.args_json()
                        ),
                        &mut first,
                        &mut out,
                    );
                    // Cross-rank causality: the sender's post starts a flow
                    // on the message's gid, the receiver's match steps it,
                    // and the receiver's completion finishes it.
                    let flow = match ev {
                        TraceEvent::SendPosted { gid, .. } if *gid != 0 => Some(("s", "", *gid)),
                        TraceEvent::Matched { gid, .. } if *gid != 0 => Some(("t", "", *gid)),
                        TraceEvent::Completed {
                            gid, send: false, ..
                        } if *gid != 0 => Some(("f", ",\"bp\":\"e\"", *gid)),
                        _ => None,
                    };
                    if let Some((ph, extra, gid)) = flow {
                        push(
                            format!(
                                "{{\"name\":\"msg\",\"cat\":\"msgflow\",\"ph\":\"{ph}\"{extra},\
                                 \"id\":{gid},\"ts\":{ts},\"pid\":{rank},\"tid\":{rank}}}"
                            ),
                            &mut first,
                            &mut out,
                        );
                    }
                }
            }
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_dump() {
        let mut log = TraceLog::default();
        assert!(log.is_empty());
        log.record(
            Time::from_ns(1500),
            TraceEvent::SendPosted {
                req: 1,
                gid: 0x0100_0000_0001,
                coll: 0,
                dst: 1,
                tag: 0,
                len: 64,
                eager: true,
            },
        );
        log.record(
            Time::from_ns(2500),
            TraceEvent::Completed {
                req: 1,
                gid: 0x0100_0000_0001,
                send: true,
            },
        );
        assert_eq!(log.len(), 2);
        let lines = log.dump();
        assert!(lines[0].contains("SendPosted"));
        assert!(lines[0].contains("1.500us"));
        assert_eq!(log.count(|e| matches!(e, TraceEvent::Completed { .. })), 1);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut log = TraceLog::with_capacity(3);
        for i in 0..5u64 {
            log.record(Time::from_ns(i * 100), TraceEvent::RecvPosted { req: i });
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 2);
        let reqs: Vec<u64> = log
            .events()
            .map(|(_, e)| match e {
                TraceEvent::RecvPosted { req } => *req,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(reqs, vec![2, 3, 4]);
    }

    #[test]
    fn flight_predicate_keeps_protocol_events_and_drops_noise() {
        let send = TraceEvent::SendPosted {
            req: 9,
            gid: 77,
            coll: 0,
            dst: 1,
            tag: 5,
            len: 4096,
            eager: false,
        };
        assert!(send.in_flight_recorder());
        assert_eq!(send.gid(), Some(77));
        assert!(TraceEvent::ReqFailed {
            req: 2,
            send: true,
            err: "MPI_ERR_PROC_FAILED"
        }
        .in_flight_recorder());
        assert!(TraceEvent::Stall { stuck: 1 }.in_flight_recorder());
        for noise in [
            TraceEvent::PipeChunk {
                req: 1,
                gid: 77,
                off: 0,
                len: 8192,
                last: false,
            },
            TraceEvent::Registered {
                gid: 77,
                bytes: 8192,
                cost_ns: 100,
            },
            TraceEvent::SpanBegin {
                id: 1,
                cat: "rndv",
                name: "x",
            },
        ] {
            assert!(!noise.in_flight_recorder(), "{noise:?}");
        }
        assert_eq!(TraceEvent::DmaDone { gid: 0, bytes: 1 }.gid(), None);
    }

    #[test]
    fn dump_renders_flat_timestamped_rows() {
        let mut log = TraceLog::with_capacity(DEFAULT_FLIGHT_CAPACITY);
        log.record(
            Time::from_ns(100),
            TraceEvent::ControlSent {
                gid: 5,
                kind: "FinAck",
            },
        );
        log.record(Time::from_ns(200), TraceEvent::Stall { stuck: 2 });
        let dump = log.dump_json(3, "watchdog stall", Time::from_ns(250));
        assert_eq!(
            dump,
            "{\"rank\":3,\"reason\":\"watchdog stall\",\"at_ns\":250,\"dropped\":0,\"events\":[\
             {\"t_ns\":100,\"ev\":\"control_sent\",\"gid\":5,\"kind\":\"FinAck\"},\
             {\"t_ns\":200,\"ev\":\"stall\",\"stuck\":2}]}"
        );
    }

    #[test]
    fn chrome_export_pairs_spans() {
        let mut log = TraceLog::default();
        log.record(
            Time::from_ns(1000),
            TraceEvent::SpanBegin {
                id: 7,
                cat: "rndv",
                name: "rndv_handshake",
            },
        );
        log.record(
            Time::from_ns(2000),
            TraceEvent::DmaDone {
                gid: 0,
                bytes: 4096,
            },
        );
        log.record(
            Time::from_ns(3000),
            TraceEvent::SpanEnd {
                id: 7,
                cat: "rndv",
                name: "rndv_handshake",
            },
        );
        let json = chrome_trace_json(&[(0, &log)]);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"ph\":\"b\",\"id\":7"));
        assert!(json.contains("\"ph\":\"e\",\"id\":7"));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ts\":1"));
    }

    #[test]
    fn chrome_export_namespaces_span_ids_per_rank() {
        // Two ranks opening spans with the same local (cat, id) must not
        // pair up in a merged export.
        let mut a = TraceLog::default();
        a.record(
            Time::from_ns(100),
            TraceEvent::SpanBegin {
                id: 7,
                cat: "rdma",
                name: "rdma_burst",
            },
        );
        let mut b = TraceLog::default();
        b.record(
            Time::from_ns(200),
            TraceEvent::SpanEnd {
                id: 7,
                cat: "rdma",
                name: "rdma_burst",
            },
        );
        let json = chrome_trace_json(&[(0, &a), (1, &b)]);
        let id0 = rank_span_id(0, 7);
        let id1 = rank_span_id(1, 7);
        assert_ne!(id0, id1);
        assert!(
            json.contains(&format!("\"ph\":\"b\",\"id\":{id0}")),
            "{json}"
        );
        assert!(
            json.contains(&format!("\"ph\":\"e\",\"id\":{id1}")),
            "{json}"
        );
        // The raw colliding id appears under neither rank's begin/end.
        assert_eq!(json.matches(&format!("\"id\":{id0}")).count(), 1);
    }

    #[test]
    fn chrome_export_emits_cross_rank_flow_events() {
        let gid = crate::hdr::msg_gid(0, 0, 1);
        let mut sender = TraceLog::default();
        sender.record(
            Time::from_ns(100),
            TraceEvent::SendPosted {
                req: 1,
                gid,
                coll: 0,
                dst: 1,
                tag: 5,
                len: 1 << 20,
                eager: false,
            },
        );
        let mut receiver = TraceLog::default();
        receiver.record(
            Time::from_ns(900),
            TraceEvent::Matched {
                req: 2,
                gid,
                src: 0,
                tag: 5,
                len: 1 << 20,
            },
        );
        receiver.record(
            Time::from_ns(5000),
            TraceEvent::Completed {
                req: 2,
                gid,
                send: false,
            },
        );
        let json = chrome_trace_json(&[(0, &sender), (1, &receiver)]);
        assert!(
            json.contains(&format!(
                "\"cat\":\"msgflow\",\"ph\":\"s\",\"id\":{gid},\"ts\":0.1,\"pid\":0"
            )),
            "{json}"
        );
        assert!(
            json.contains(&format!(
                "\"cat\":\"msgflow\",\"ph\":\"t\",\"id\":{gid},\"ts\":0.9,\"pid\":1"
            )),
            "{json}"
        );
        assert!(
            json.contains(&format!(
                "\"cat\":\"msgflow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{gid},\"ts\":5,\"pid\":1"
            )),
            "{json}"
        );
    }

    #[test]
    fn escape_json_handles_quotes_backslashes_and_controls() {
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(escape_json("a\"b"), "a\\\"b");
        assert_eq!(escape_json("a\\b"), "a\\\\b");
        assert_eq!(escape_json("a\nb\tc"), "a\\nb\\tc");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn chrome_export_escapes_span_names() {
        let mut log = TraceLog::default();
        log.record(
            Time::from_ns(10),
            TraceEvent::SpanBegin {
                id: 1,
                cat: "odd\"cat",
                name: "bad\nname",
            },
        );
        let json = chrome_trace_json(&[(0, &log)]);
        assert!(json.contains("bad\\nname"));
        assert!(json.contains("odd\\\"cat"));
        assert!(!json.contains("bad\nname"));
    }
}
