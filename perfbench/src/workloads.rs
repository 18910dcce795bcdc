//! The three workloads. Each is one closed loop in one simulation: every
//! rank issues its next operation only after the previous one completed.
//! The seed sets payload bytes everywhere, where the job lands on the
//! machine, and the incast senders' start skew; the stack sees only those
//! generated inputs.

use openmpi_core::{Mpi, Placement, ReduceOp, StackConfig, ANY_SOURCE};
use qsim::Dur;
use qsnet::FabricConfig;

use crate::stats::{median, tail, Workload};
use crate::world::{mix, pattern, Rank, RunOut, WorldSpec};

/// A workload's headline virtual-time results for one run.
pub struct Headline {
    /// The four end-to-end virtual metrics, µs, in `vt1_us..vt4_us` order.
    pub vt_us: [f64; 4],
    /// The same numbers (and derived ones) under their own names, for the
    /// human-readable table: `(name, value, unit)`.
    pub named: Vec<(String, f64, &'static str)>,
}

pub fn spec(w: Workload, seed: u64) -> WorldSpec {
    match w {
        Workload::PingPong => {
            // Two distinct nodes of the paper's 8-node testbed: the pair's
            // distance in the fat tree (same leaf switch or not) is part of
            // the input.
            let a = (mix(seed) % 8) as usize;
            let b = (a + 1 + (mix(seed ^ 1) % 7) as usize) % 8;
            WorldSpec {
                fabric: FabricConfig::default(),
                stack: StackConfig::default(),
                ranks: 2,
                placement: Placement::Nodes(vec![a, b]),
            }
        }
        Workload::Coll256 => {
            let stack = StackConfig {
                coll_nic_offload: true,
                ..StackConfig::default()
            };
            // Rank r runs on node (r + offset) mod 256, the offset a whole
            // number of leaf switches.
            let offset = 4 * (mix(seed) % (COLL_RANKS / 4) as u64) as usize;
            WorldSpec {
                fabric: FabricConfig {
                    nodes: COLL_RANKS,
                    ..FabricConfig::default()
                },
                stack,
                ranks: COLL_RANKS,
                placement: Placement::Nodes(
                    (0..COLL_RANKS).map(|r| (r + offset) % COLL_RANKS).collect(),
                ),
            }
        }
        Workload::Incast => WorldSpec {
            fabric: FabricConfig::default(),
            stack: StackConfig {
                flow_enable: true,
                ..StackConfig::default()
            },
            ranks: INCAST_RANKS,
            placement: Placement::RoundRobin,
        },
    }
}

/// Run one workload once.
pub fn run(w: Workload, seed: u64, traced: bool) -> Result<RunOut, String> {
    let spec = spec(w, seed);
    match w {
        Workload::PingPong => crate::world::run(&spec, traced, move |r| pingpong(r, seed)),
        Workload::Coll256 => crate::world::run(&spec, traced, move |r| coll256(r, seed)),
        Workload::Incast => crate::world::run(&spec, traced, move |r| incast(r, seed)),
    }
}

// ---------------------------------------------------------------- pingpong

const PP_WARMUP: usize = 4;
const PP_SMALL: (usize, usize) = (1, 800);
const PP_MID: (usize, usize) = (64 << 10, 120);
const PP_LARGE: (usize, usize) = (1 << 20, 12);
const STREAM_LEN: usize = 1 << 20;
const STREAM_WINDOW: usize = 8;
const STREAM_WINDOWS: usize = 8;

fn pingpong(r: &mut Rank, seed: u64) {
    let w = r.mpi.world();
    let phases = [
        ("pp_1b", PP_SMALL.0, PP_SMALL.1, 1u64),
        ("pp_64k", PP_MID.0, PP_MID.1, 2),
        ("pp_1m", PP_LARGE.0, PP_LARGE.1, 3),
    ];
    let bufs: Vec<_> = phases
        .iter()
        .map(|p| (r.mpi.alloc(p.1), r.mpi.alloc(p.1)))
        .collect();
    let stream: Vec<_> = (0..STREAM_WINDOW)
        .map(|_| r.mpi.alloc(STREAM_LEN))
        .collect();
    let ack = r.mpi.alloc(1);

    for timed in [false, true] {
        if timed {
            r.barrier(&w);
            r.timed_start();
        }
        for (p, (sbuf, rbuf)) in phases.iter().zip(&bufs) {
            let (name, len, iters, id) = *p;
            let iters = if timed { iters } else { PP_WARMUP };
            for i in 0..iters as u64 {
                // Stream ids keep warm-up and timed payloads distinct.
                let id = id + 16 * timed as u64;
                let t = r.now_ns();
                for turn in 0..2u64 {
                    let idx = 2 * i + turn;
                    if r.rank() as u64 == turn {
                        r.aside(|m| m.write(sbuf, 0, &pattern(seed, id, idx, len)));
                        let ok = r.send(&w, 1 - r.rank(), 0, sbuf, len);
                        r.check(ok);
                    } else {
                        let st = r.recv(&w, (1 - r.rank()) as i32, 0, rbuf, len);
                        let ok = st.is_some_and(|s| s.len == len)
                            && r.aside(|m| m.read(rbuf, 0, len) == pattern(seed, id, idx, len));
                        r.check(ok);
                    }
                }
                if timed {
                    r.done(name, Some(t));
                }
            }
        }
        let windows = if timed { STREAM_WINDOWS } else { 1 };
        for wdx in 0..windows as u64 {
            let id = 4 + 16 * timed as u64;
            let msg = |k: usize| wdx * STREAM_WINDOW as u64 + k as u64;
            let t = r.now_ns();
            if r.rank() == 0 {
                let mut reqs = Vec::new();
                for (k, b) in stream.iter().enumerate() {
                    r.aside(|m| m.write(b, 0, &pattern(seed, id, msg(k), STREAM_LEN)));
                    reqs.push(r.isend(&w, 1, 1, b, STREAM_LEN));
                }
                let bad = r.waitall(reqs);
                r.check_many(STREAM_WINDOW as u64, bad);
                let st = r.recv(&w, 1, 2, &ack, 0);
                r.check(st.is_some());
            } else {
                let reqs: Vec<_> = stream
                    .iter()
                    .map(|b| r.irecv(&w, 0, 1, b, STREAM_LEN))
                    .collect();
                let mut bad = r.waitall(reqs);
                for (k, b) in stream.iter().enumerate() {
                    let want =
                        |m: &Mpi| m.read(b, 0, STREAM_LEN) == pattern(seed, id, msg(k), STREAM_LEN);
                    bad += !r.aside(want) as u64;
                }
                r.check_many(STREAM_WINDOW as u64, bad);
                let ok = r.send(&w, 0, 2, &ack, 0);
                r.check(ok);
            }
            if timed {
                r.done("pp_stream", Some(t));
            }
        }
    }
    r.timed_end();
}

fn pingpong_headline(out: &RunOut) -> Headline {
    let half_us = |op: &str| median(&ns(&out.ops[op])) / 2.0 / 1e3;
    let per_msg_us = median(&ns(&out.ops["pp_stream"])) / STREAM_WINDOW as f64 / 1e3;
    let vt_us = [
        half_us("pp_1b"),
        half_us("pp_64k"),
        half_us("pp_1m"),
        per_msg_us,
    ];
    let named = vec![
        ("lat_1b_us".into(), vt_us[0], "us"),
        ("lat_64k_us".into(), vt_us[1], "us"),
        ("lat_1m_us".into(), vt_us[2], "us"),
        // bytes per µs == MB/s
        ("bw_1m_mbs".into(), STREAM_LEN as f64 / per_msg_us, "MB/s"),
    ];
    Headline { vt_us, named }
}

// ----------------------------------------------------------------- coll256

const COLL_RANKS: usize = 256;
const COLL_ROUNDS: usize = 12;
const COLL_BIG: usize = 4;
const BCAST_LEN: usize = 1 << 10;
const SMALL_AR_LEN: usize = 64;
/// Over the NIC program's payload limit: runs the host tree through PML
/// rendezvous.
const BIG_AR_LEN: usize = 16 << 10;

fn coll256(r: &mut Rank, seed: u64) {
    let w = r.mpi.world();
    let root = 0;
    let bbuf = r.mpi.alloc(BCAST_LEN);
    let small = r.mpi.alloc(SMALL_AR_LEN);
    let big = r.mpi.alloc(BIG_AR_LEN);

    for timed in [false, true] {
        if timed {
            r.barrier(&w);
            r.timed_start();
        }
        let (rounds, bigs) = if timed {
            (COLL_ROUNDS, COLL_BIG)
        } else {
            (1, 1)
        };
        for i in 0..rounds as u64 {
            let id = i + 1000 * timed as u64;
            let t = r.now_ns();
            r.barrier(&w);
            r.check(true);
            if timed {
                r.done("barrier", Some(t));
            }

            let want = r.aside(|_| pattern(seed, 5, id, BCAST_LEN));
            if r.rank() == root {
                r.aside(|m| m.write(&bbuf, 0, &want));
            }
            let t = r.now_ns();
            r.bcast(&w, root, &bbuf, BCAST_LEN);
            let ok = r.aside(|m| m.read(&bbuf, 0, BCAST_LEN) == want);
            r.check(ok);
            if timed {
                r.done("bcast_1k", (r.rank() == root).then_some(t));
            }

            let t = r.now_ns();
            let ok = checked_allreduce(r, &small, SMALL_AR_LEN, seed ^ mix(id));
            r.check(ok);
            if timed {
                r.done("allreduce_64b", Some(t));
            }
        }
        for j in 0..bigs as u64 {
            let id = 500 + j + 1000 * timed as u64;
            let t = r.now_ns();
            let ok = checked_allreduce(r, &big, BIG_AR_LEN, seed ^ mix(id));
            r.check(ok);
            if timed {
                r.done("allreduce_16k", Some(t));
            }
        }
    }
    r.timed_end();
}

/// Allreduce of u64 lanes where rank r contributes `base + r * (lane + 1)`;
/// the sum over n ranks is `n * base + (lane + 1) * n (n - 1) / 2`.
fn checked_allreduce(r: &mut Rank, buf: &elan4::HostBuf, len: usize, key: u64) -> bool {
    let n = r.mpi.size() as u64;
    let me = r.rank() as u64;
    let base = mix(key);
    let lanes = len / 8;
    r.aside(|m| {
        let mine: Vec<u8> = (0..lanes as u64)
            .flat_map(|l| base.wrapping_add(me.wrapping_mul(l + 1)).to_le_bytes())
            .collect();
        m.write(buf, 0, &mine)
    });
    r.allreduce(&r.mpi.world(), ReduceOp::SumU64, buf, len);
    r.aside(|m| {
        m.read(buf, 0, len)
            .chunks_exact(8)
            .enumerate()
            .all(|(l, c)| {
                let want = n
                    .wrapping_mul(base)
                    .wrapping_add((l as u64 + 1).wrapping_mul(n * (n - 1) / 2));
                u64::from_le_bytes(c.try_into().expect("8-byte lane")) == want
            })
    })
}

fn coll_headline(out: &RunOut) -> Headline {
    let us = |op: &str| median(&ns(&out.ops[op])) / 1e3;
    let vt_us = [
        us("barrier"),
        us("bcast_1k"),
        us("allreduce_64b"),
        us("allreduce_16k"),
    ];
    let names = [
        "barrier_us",
        "bcast_1k_us",
        "allreduce_64b_us",
        "allreduce_16k_us",
    ];
    let named = names
        .iter()
        .zip(vt_us)
        .map(|(n, v)| (n.to_string(), v, "us"))
        .collect();
    Headline { vt_us, named }
}

// ------------------------------------------------------------------ incast

const INCAST_RANKS: usize = 8;
const INCAST_LEN: usize = 1 << 10;
const INCAST_BURST: usize = 32;
const INCAST_ROUNDS: usize = 40;
/// Upper bound of each sender's seeded start skew per round.
const INCAST_SKEW_NS: u64 = 8_000;
const STAMP: usize = 32;

fn incast(r: &mut Rank, seed: u64) {
    let w = r.mpi.world();
    let senders = r.mpi.size() - 1;
    let bufs: Vec<_> = (0..INCAST_BURST).map(|_| r.mpi.alloc(INCAST_LEN)).collect();
    let body = |round: u64, sender: u64, seq: u64| {
        pattern(
            seed,
            6,
            (round << 32) | (sender << 16) | seq,
            INCAST_LEN - STAMP,
        )
    };

    for timed in [false, true] {
        if timed {
            r.barrier(&w);
            r.timed_start();
        }
        let rounds = if timed { INCAST_ROUNDS } else { 1 };
        for i in 0..rounds as u64 {
            let round = i + 1000 * timed as u64;
            let t0 = r.now_ns();
            if r.rank() == 0 {
                let mut seen = vec![vec![false; INCAST_BURST]; senders + 1];
                for _ in 0..senders * INCAST_BURST {
                    let st = r.recv(&w, ANY_SOURCE, 0, &bufs[0], INCAST_LEN);
                    let now = r.now_ns();
                    let (ok, posted) = r.aside(|m| {
                        let got = m.read(&bufs[0], 0, INCAST_LEN);
                        let word = |k: usize| {
                            u64::from_le_bytes(
                                got[8 * k..8 * k + 8].try_into().expect("8-byte word"),
                            )
                        };
                        let (src, seq, posted, rnd) =
                            (word(0) as usize, word(1) as usize, word(2), word(3));
                        let ok = st.is_some_and(|s| s.source == src && s.len == INCAST_LEN)
                            && (1..=senders).contains(&src)
                            && seq < INCAST_BURST
                            && rnd == round
                            && !std::mem::replace(&mut seen[src][seq], true)
                            && got[STAMP..] == body(round, src as u64, seq as u64)[..];
                        (ok, posted)
                    });
                    r.check(ok);
                    if timed && ok {
                        r.sample("incast_msg", now - posted);
                    }
                }
                if timed {
                    let drain = r.now_ns() - t0;
                    r.sample("incast_drain", drain);
                }
            } else {
                let me = r.rank() as u64;
                let skew = mix(seed ^ mix(round << 8 | me)) % INCAST_SKEW_NS;
                r.mpi.compute(Dur::from_ns(skew));
                let mut reqs = Vec::new();
                for (seq, b) in bufs.iter().enumerate() {
                    let posted = r.now_ns();
                    r.aside(|m| {
                        let mut msg = Vec::with_capacity(INCAST_LEN);
                        for v in [me, seq as u64, posted, round] {
                            msg.extend_from_slice(&v.to_le_bytes());
                        }
                        msg.extend(body(round, me, seq as u64));
                        m.write(b, 0, &msg)
                    });
                    reqs.push(r.isend(&w, 0, 0, b, INCAST_LEN));
                }
                let bad = r.waitall(reqs);
                r.check_many(INCAST_BURST as u64, bad);
            }
            r.barrier(&w);
            if timed {
                r.done("incast_round", Some(t0));
            }
        }
    }
    r.timed_end();
}

fn incast_headline(out: &RunOut) -> Result<Headline, String> {
    let msgs = ns(out
        .samples
        .get("incast_msg")
        .ok_or("no incast message delivered")?);
    let want = INCAST_ROUNDS * INCAST_BURST * (INCAST_RANKS - 1);
    if msgs.len() != want {
        return Err(format!(
            "{} of {want} incast messages delivered intact",
            msgs.len()
        ));
    }
    let (pct, tail_ns) = tail(&msgs);
    let vt_us = [
        median(&msgs) / 1e3,
        tail_ns / 1e3,
        median(&ns(&out.samples["incast_drain"])) / 1e3,
        median(&ns(&out.ops["incast_round"])) / 1e3,
    ];
    let named = vec![
        ("incast_msg_p50_us".into(), vt_us[0], "us"),
        (format!("incast_msg_p{pct}_us"), vt_us[1], "us"),
        ("incast_drain_us".into(), vt_us[2], "us"),
        ("incast_round_us".into(), vt_us[3], "us"),
    ];
    Ok(Headline { vt_us, named })
}

pub fn headline(w: Workload, out: &RunOut) -> Result<Headline, String> {
    match w {
        Workload::PingPong => Ok(pingpong_headline(out)),
        Workload::Coll256 => Ok(coll_headline(out)),
        Workload::Incast => incast_headline(out),
    }
}

pub fn ns(v: &[u64]) -> Vec<f64> {
    v.iter().map(|&x| x as f64).collect()
}
