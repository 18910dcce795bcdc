//! Peer addressing published through the RTE modex at init time.
//!
//! Each rank publishes one `PeerInfo` describing how every PTL component can
//! reach it; serialization is a small hand-rolled byte format (the real
//! modex likewise ships opaque per-component blobs).

use std::ops::Index;
use std::sync::Arc;

use elan4::{QueueId, Vpid};
use ompi_rte::ProcName;
use qsim::fxhash::FxHashMap;

/// Elan4 PTL addressing for one peer.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ElanPeer {
    /// Network address of the peer's context.
    pub vpid: Vpid,
    /// Main receive queue.
    pub main_q: QueueId,
    /// Separate shared-completion queue (two-queue strategy), if created.
    pub comp_q: Option<QueueId>,
    /// Rails this peer listens on.
    pub rails: u8,
}

/// TCP PTL addressing (node id stands in for an IP address).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TcpPeer {
    /// Node id (stands in for an IP address).
    pub node: u32,
}

/// How to reach one process over every transport it exposes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeerInfo {
    /// The process this record describes.
    pub name: ProcName,
    /// Elan4 addressing, if it activated that PTL.
    pub elan: Option<ElanPeer>,
    /// TCP addressing, if it activated that PTL.
    pub tcp: Option<TcpPeer>,
}

impl PeerInfo {
    /// Serialize for the modex.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(32);
        v.extend_from_slice(&self.name.job.0.to_le_bytes());
        v.extend_from_slice(&(self.name.rank as u64).to_le_bytes());
        match &self.elan {
            Some(e) => {
                v.push(1);
                v.extend_from_slice(&e.vpid.raw().to_le_bytes());
                v.extend_from_slice(&e.main_q.0.to_le_bytes());
                match e.comp_q {
                    Some(q) => {
                        v.push(1);
                        v.extend_from_slice(&q.0.to_le_bytes());
                    }
                    None => {
                        v.push(0);
                        v.extend_from_slice(&0u16.to_le_bytes());
                    }
                }
                v.push(e.rails);
            }
            None => {
                v.push(0);
                v.extend_from_slice(&[0u8; 10]);
            }
        }
        match &self.tcp {
            Some(t) => {
                v.push(1);
                v.extend_from_slice(&t.node.to_le_bytes());
            }
            None => {
                v.push(0);
                v.extend_from_slice(&[0u8; 4]);
            }
        }
        v
    }

    /// Parse a modex blob.
    pub fn from_bytes(b: &[u8]) -> PeerInfo {
        let job = u32::from_le_bytes(b[0..4].try_into().unwrap());
        let rank = u64::from_le_bytes(b[4..12].try_into().unwrap()) as usize;
        let mut o = 12;
        let elan = if b[o] == 1 {
            let vpid = Vpid(u32::from_le_bytes(b[o + 1..o + 5].try_into().unwrap()));
            let main_q = QueueId(u16::from_le_bytes(b[o + 5..o + 7].try_into().unwrap()));
            let has_comp = b[o + 7] == 1;
            let comp = QueueId(u16::from_le_bytes(b[o + 8..o + 10].try_into().unwrap()));
            let rails = b[o + 10];
            Some(ElanPeer {
                vpid,
                main_q,
                comp_q: has_comp.then_some(comp),
                rails,
            })
        } else {
            None
        };
        o += 11;
        let tcp = if b[o] == 1 {
            Some(TcpPeer {
                node: u32::from_le_bytes(b[o + 1..o + 5].try_into().unwrap()),
            })
        } else {
            None
        };
        PeerInfo {
            name: ProcName {
                job: ompi_rte::JobId(job),
                rank,
            },
            elan,
            tcp,
        }
    }
}

/// Resolved addressing for every peer one endpoint knows.
///
/// Peers in the endpoint's own job live in one rank-indexed table, decoded
/// once per job from the bulk modex fetch and shared by all of the job's
/// endpoints, so same-job addressing costs O(1) memory per rank. Peers in
/// other jobs (a spawning parent, spawned children) are resolved one at a
/// time and kept per endpoint.
#[derive(Default)]
pub struct PeerTable {
    job: Arc<[PeerInfo]>,
    others: FxHashMap<ProcName, PeerInfo>,
}

impl PeerTable {
    /// A table over one job's shared addressing, indexed by rank.
    pub fn new(job: Arc<[PeerInfo]>) -> Self {
        PeerTable {
            job,
            others: FxHashMap::default(),
        }
    }

    /// The job-wide table this endpoint shares with its job.
    pub fn job_table(&self) -> &Arc<[PeerInfo]> {
        &self.job
    }

    /// Addressing for `who`, if known.
    pub fn get(&self, who: &ProcName) -> Option<&PeerInfo> {
        match self.job.get(who.rank) {
            Some(info) if info.name == *who => Some(info),
            _ => self.others.get(who),
        }
    }

    /// Whether `who` is known.
    pub fn contains_key(&self, who: &ProcName) -> bool {
        self.get(who).is_some()
    }

    /// Record addressing for a peer outside this endpoint's job.
    pub fn insert(&mut self, who: ProcName, info: PeerInfo) {
        self.others.insert(who, info);
    }
}

impl Index<&ProcName> for PeerTable {
    type Output = PeerInfo;

    fn index(&self, who: &ProcName) -> &PeerInfo {
        self.get(who)
            .unwrap_or_else(|| panic!("no addressing for peer {who:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_full() {
        let p = PeerInfo {
            name: ProcName {
                job: ompi_rte::JobId(3),
                rank: 17,
            },
            elan: Some(ElanPeer {
                vpid: Vpid(442),
                main_q: QueueId(0),
                comp_q: Some(QueueId(1)),
                rails: 2,
            }),
            tcp: Some(TcpPeer { node: 5 }),
        };
        assert_eq!(PeerInfo::from_bytes(&p.to_bytes()), p);
    }

    #[test]
    fn roundtrip_sparse() {
        let p = PeerInfo {
            name: ProcName {
                job: ompi_rte::JobId(0),
                rank: 0,
            },
            elan: Some(ElanPeer {
                vpid: Vpid(0),
                main_q: QueueId(0),
                comp_q: None,
                rails: 1,
            }),
            tcp: None,
        };
        assert_eq!(PeerInfo::from_bytes(&p.to_bytes()), p);
        let q = PeerInfo {
            name: ProcName {
                job: ompi_rte::JobId(9),
                rank: 1,
            },
            elan: None,
            tcp: Some(TcpPeer { node: 1 }),
        };
        assert_eq!(PeerInfo::from_bytes(&q.to_bytes()), q);
    }
}
