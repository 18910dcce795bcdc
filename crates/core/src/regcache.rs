//! Registration (pin-down) cache for Elan4 MMU mappings.
//!
//! Every rendezvous request expands its memory descriptor with an Elan4
//! mapping (paper §4.2), and [`elan4::ElanCtx::map`] charges real time for
//! it: pinning plus per-page MMU loads on map, a TLB shootdown on unmap.
//! Applications reuse communication buffers, so the classic optimization —
//! MPICH2-over-InfiniBand's registration cache — applies: keep mappings
//! alive after the request completes and reuse them when the same buffer
//! comes around again, unmapping only when capacity pressure evicts them.
//!
//! The cache is an LRU keyed by `(buffer base, len)` with both a byte and
//! an entry capacity (`reg.*` cvars). Entries are reference-counted:
//! in-flight requests hold a reference, so eviction only considers idle
//! entries and an active mapping can never be torn down under a DMA. Idle
//! entries are also indexed by their last-use stamp, so the LRU victim is
//! the first entry of that index rather than the result of a scan.
//! Releases of mappings the cache does not own (bounce buffers, cache
//! disabled at acquire time) fall through to a direct charged unmap, which
//! keeps the failure paths ([`crate::proto`]'s `fail_request`) leak-safe
//! without per-request bookkeeping.
//!
//! Locking: the cache lock is never held across `map`/`unmap` (both advance
//! virtual time). Lookups lock, decide, unlock; misses map outside the lock
//! and then publish, tolerating a concurrent insert of the same key by the
//! progress thread.

use elan4::{E4Addr, HostBuf};
use qsim::fxhash::FxHashMap;
use qsim::Proc;
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::endpoint::Endpoint;

/// Live counters of one endpoint's registration cache. Always maintained
/// (independent of the `telemetry.metrics` gate) so `reg.*` pvars and the
/// bench harness read true totals.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RegStats {
    /// Acquires served from a live mapping.
    pub hits: u64,
    /// Acquires that had to create a mapping.
    pub misses: u64,
    /// Idle mappings torn down by capacity pressure.
    pub evictions: u64,
    /// Bytes currently covered by cached mappings.
    pub mapped_bytes: u64,
    /// Cached mappings currently alive.
    pub entries: u64,
}

#[derive(Debug)]
struct Entry {
    e4: E4Addr,
    len: usize,
    /// In-flight requests holding this mapping; eviction needs 0.
    refs: u32,
    /// Monotonic LRU stamp (bumped on every touch); unique per entry.
    last_use: u64,
}

/// The pin-down cache proper: plain data behind the endpoint's `reg` lock.
#[derive(Debug)]
pub struct RegCache {
    enabled: bool,
    cap_bytes: usize,
    cap_entries: usize,
    /// Keyed by `(host base offset, len)`; the owning node is fixed per
    /// endpoint, so it is not part of the key.
    entries: FxHashMap<(usize, usize), Entry>,
    /// The idle (`refs == 0`) entries by `last_use`, oldest first: the
    /// eviction order. Every change of `refs` across zero updates it.
    idle: BTreeMap<u64, (usize, usize)>,
    cur_bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl RegCache {
    /// An empty cache with the given capacities.
    pub fn new(enabled: bool, cap_bytes: usize, cap_entries: usize) -> RegCache {
        RegCache {
            enabled,
            cap_bytes,
            cap_entries,
            entries: FxHashMap::default(),
            idle: BTreeMap::new(),
            cur_bytes: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Current counters.
    pub fn stats(&self) -> RegStats {
        RegStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            mapped_bytes: self.cur_bytes as u64,
            entries: self.entries.len() as u64,
        }
    }

    /// Is the cache accepting new entries?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Byte capacity.
    pub fn cap_bytes(&self) -> usize {
        self.cap_bytes
    }

    /// Entry capacity.
    pub fn cap_entries(&self) -> usize {
        self.cap_entries
    }

    /// Turn the cache on or off. Existing entries stay owned by the cache
    /// (their releases still resolve here) but no new entries are admitted
    /// while off.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Resize the byte capacity; the next acquire/release evicts down to it.
    pub fn set_cap_bytes(&mut self, bytes: usize) {
        self.cap_bytes = bytes;
    }

    /// Resize the entry capacity; the next acquire/release evicts down to it.
    pub fn set_cap_entries(&mut self, n: usize) {
        self.cap_entries = n;
    }

    fn over_capacity(&self) -> bool {
        self.cur_bytes > self.cap_bytes || self.entries.len() > self.cap_entries
    }

    /// Pop LRU idle entries until within capacity; returns the mappings the
    /// caller must unmap (outside the cache lock).
    fn collect_victims(&mut self) -> Vec<E4Addr> {
        let mut victims = Vec::new();
        while self.over_capacity() {
            // Everything still referenced: stay over capacity for now.
            let Some((_, key)) = self.idle.pop_first() else {
                break;
            };
            victims.push(self.remove(key));
            self.evictions += 1;
        }
        victims
    }

    /// Drop the entry at `key` (already out of `idle`); returns its mapping.
    fn remove(&mut self, key: (usize, usize)) -> E4Addr {
        let e = self.entries.remove(&key).expect("indexed entry exists");
        self.cur_bytes -= e.len;
        e.e4
    }

    /// The acquire lookup: on a hit, take a reference and touch the entry.
    /// Counts the hit or (cache on) the miss.
    fn lookup(&mut self, key: (usize, usize)) -> Option<E4Addr> {
        if !self.enabled {
            return None;
        }
        self.tick += 1;
        let tick = self.tick;
        let Some(e) = self.entries.get_mut(&key) else {
            self.misses += 1;
            return None;
        };
        if e.refs == 0 {
            self.idle.remove(&e.last_use);
        }
        e.refs += 1;
        e.last_use = tick;
        self.hits += 1;
        Some(e.e4)
    }

    /// Publish the fresh mapping `e4` of a missed `key`. Returns the mapping
    /// the caller should use and the ones it must unmap: capacity victims,
    /// or `e4` itself if another acquire published the same key meanwhile
    /// (its entry is shared instead).
    fn publish(&mut self, key: (usize, usize), e4: E4Addr) -> (E4Addr, Vec<E4Addr>) {
        if !self.enabled {
            return (e4, Vec::new());
        }
        if let Some(e) = self.entries.get_mut(&key) {
            if e.refs == 0 {
                self.idle.remove(&e.last_use);
            }
            e.refs += 1;
            return (e.e4, vec![e4]);
        }
        self.tick += 1;
        let entry = Entry {
            e4,
            len: key.1,
            refs: 1,
            last_use: self.tick,
        };
        self.entries.insert(key, entry);
        self.cur_bytes += key.1;
        (e4, self.collect_victims())
    }

    /// Drop a request's reference to `(key, e4)`. `None` if the cache does
    /// not own that mapping; otherwise the capacity victims to unmap.
    fn release_ref(&mut self, key: (usize, usize), e4: E4Addr) -> Option<Vec<E4Addr>> {
        let e = self.entries.get_mut(&key).filter(|e| e.e4 == e4)?;
        debug_assert!(e.refs > 0, "registration cache refcount underflow");
        e.refs = e.refs.saturating_sub(1);
        if e.refs == 0 {
            self.idle.insert(e.last_use, key);
        }
        Some(self.collect_victims())
    }

    /// Remove every idle entry, oldest first; returns their mappings.
    fn drain_idle(&mut self) -> Vec<E4Addr> {
        std::mem::take(&mut self.idle)
            .into_values()
            .map(|key| self.remove(key))
            .collect()
    }
}

/// Map `region` for an RDMA, going through the endpoint's registration
/// cache. A hit reuses the live mapping (no charged time beyond the
/// lookup); a miss pays the full [`elan4::NicConfig::map_cost`] and inserts
/// the mapping, evicting idle LRU entries past capacity. With the cache
/// disabled this degenerates to a plain charged `map`.
pub fn acquire(proc: &Proc, ep: &Arc<Endpoint>, region: &HostBuf) -> E4Addr {
    let key = (region.addr.off, region.len);
    if let Some(e4) = ep.reg.lock().lookup(key) {
        return e4;
    }
    // Miss (or cache off): register outside the cache lock — mapping
    // advances virtual time.
    let e4 = ep.ectx.map(proc, region);
    let (out, stale) = ep.reg.lock().publish(key, e4);
    for v in stale {
        ep.ectx.unmap(proc, v);
    }
    out
}

/// Release the mapping a request held. If the cache owns `(region, e4)`,
/// the unmap is deferred: the entry just drops a reference and becomes
/// evictable (the common case costs nothing). Anything the cache does not
/// own — bounce-buffer mappings, mappings made while the cache was off —
/// is unmapped directly with the shootdown charged.
pub fn release(proc: &Proc, ep: &Arc<Endpoint>, region: &HostBuf, e4: E4Addr) {
    let key = (region.addr.off, region.len);
    let victims = ep.reg.lock().release_ref(key, e4);
    let owned = victims.is_some();
    for v in victims.into_iter().flatten() {
        ep.ectx.unmap(proc, v);
    }
    if !owned {
        ep.ectx.unmap(proc, e4);
    }
}

/// Tear down every idle cache entry (finalize path), oldest first, charging
/// each unmap. Entries still referenced are left alone — by finalize time
/// there are none, which [`crate::endpoint::Endpoint::finalize`] asserts via
/// `mapping_count()`.
pub fn drain(proc: &Proc, ep: &Arc<Endpoint>) {
    let victims = ep.reg.lock().drain_idle();
    for v in victims {
        ep.ectx.unmap(proc, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elan4::{HostAddr, Vpid};
    use qsim::rng::Pcg32;

    fn entry(va: u64, len: usize, refs: u32, last_use: u64) -> Entry {
        Entry {
            e4: E4Addr::from_raw(Vpid(0), va),
            len,
            refs,
            last_use,
        }
    }

    /// Plant an entry directly, keeping the idle index consistent.
    fn plant(c: &mut RegCache, key: (usize, usize), e: Entry) {
        if e.refs == 0 {
            c.idle.insert(e.last_use, key);
        }
        c.entries.insert(key, e);
    }

    #[test]
    fn lru_evicts_oldest_idle_entry_first() {
        let mut c = RegCache::new(true, 100, 16);
        plant(&mut c, (40, 40), entry(0x2000, 40, 0, 2));
        plant(&mut c, (0, 40), entry(0x1000, 40, 0, 1));
        plant(&mut c, (80, 40), entry(0x3000, 40, 0, 3));
        c.cur_bytes = 120;
        let victims = c.collect_victims();
        assert_eq!(victims, vec![E4Addr::from_raw(Vpid(0), 0x1000)]);
        assert_eq!(c.cur_bytes, 80);
        assert_eq!(c.evictions, 1);
    }

    #[test]
    fn referenced_entries_are_never_evicted() {
        let mut c = RegCache::new(true, 10, 16);
        plant(&mut c, (0, 40), entry(0x1000, 40, 1, 1));
        c.cur_bytes = 40;
        assert!(c.collect_victims().is_empty());
        assert_eq!(c.entries.len(), 1);
    }

    #[test]
    fn entry_capacity_also_triggers_eviction() {
        let mut c = RegCache::new(true, usize::MAX, 1);
        plant(&mut c, (0, 8), entry(0x1000, 8, 0, 1));
        plant(&mut c, (8, 8), entry(0x2000, 8, 0, 2));
        c.cur_bytes = 16;
        let victims = c.collect_victims();
        assert_eq!(victims.len(), 1);
        assert_eq!(c.entries.len(), 1);
        assert!(c.entries.contains_key(&(8, 8)), "LRU entry must go first");
    }

    fn buf(off: usize, len: usize) -> HostBuf {
        HostBuf {
            addr: HostAddr { node: 0, off },
            len,
        }
    }

    #[test]
    fn stats_track_current_footprint() {
        let mut c = RegCache::new(true, 100, 4);
        plant(&mut c, (0, 60), entry(0x1000, 60, 0, 1));
        c.cur_bytes = 60;
        c.hits = 5;
        c.misses = 2;
        let s = c.stats();
        assert_eq!(s.hits, 5);
        assert_eq!(s.misses, 2);
        assert_eq!(s.mapped_bytes, 60);
        assert_eq!(s.entries, 1);
        // Keys are (base, len): the same base with a different length is a
        // different registration.
        assert_ne!(
            (buf(0, 60).addr.off, buf(0, 60).len),
            (buf(0, 61).addr.off, buf(0, 61).len)
        );
    }

    #[test]
    fn drain_unmaps_idle_entries_oldest_first() {
        let mut c = RegCache::new(true, usize::MAX, 16);
        plant(&mut c, (0, 8), entry(0x1000, 8, 0, 7));
        plant(&mut c, (8, 8), entry(0x2000, 8, 1, 3));
        plant(&mut c, (16, 8), entry(0x3000, 8, 0, 2));
        plant(&mut c, (24, 8), entry(0x4000, 8, 0, 5));
        c.cur_bytes = 32;
        let e4 = |va| E4Addr::from_raw(Vpid(0), va);
        assert_eq!(c.drain_idle(), vec![e4(0x3000), e4(0x4000), e4(0x1000)]);
        assert_eq!((c.entries.len(), c.cur_bytes), (1, 8));
        assert!(c.idle.is_empty());
    }

    /// The pre-index cache: a plain map, with the victim found by scanning
    /// every idle entry for the smallest `last_use`.
    #[derive(Default)]
    struct ScanLru {
        enabled: bool,
        cap_bytes: usize,
        cap_entries: usize,
        entries: BTreeMap<(usize, usize), Entry>,
        cur_bytes: usize,
        tick: u64,
        hits: u64,
        misses: u64,
        evictions: u64,
    }

    impl ScanLru {
        fn victims(&mut self) -> Vec<E4Addr> {
            let mut out = Vec::new();
            while self.cur_bytes > self.cap_bytes || self.entries.len() > self.cap_entries {
                let Some((&key, _)) = self
                    .entries
                    .iter()
                    .filter(|(_, e)| e.refs == 0)
                    .min_by_key(|(_, e)| e.last_use)
                else {
                    break;
                };
                let e = self.entries.remove(&key).unwrap();
                self.cur_bytes -= e.len;
                self.evictions += 1;
                out.push(e.e4);
            }
            out
        }

        fn lookup(&mut self, key: (usize, usize)) -> Option<E4Addr> {
            if !self.enabled {
                return None;
            }
            self.tick += 1;
            let tick = self.tick;
            match self.entries.get_mut(&key) {
                Some(e) => {
                    e.refs += 1;
                    e.last_use = tick;
                    self.hits += 1;
                    Some(e.e4)
                }
                None => {
                    self.misses += 1;
                    None
                }
            }
        }

        fn publish(&mut self, key: (usize, usize), e4: E4Addr) -> (E4Addr, Vec<E4Addr>) {
            if !self.enabled {
                return (e4, Vec::new());
            }
            if let Some(e) = self.entries.get_mut(&key) {
                e.refs += 1;
                return (e.e4, vec![e4]);
            }
            self.tick += 1;
            let e = Entry {
                e4,
                len: key.1,
                refs: 1,
                last_use: self.tick,
            };
            self.entries.insert(key, e);
            self.cur_bytes += key.1;
            (e4, self.victims())
        }

        fn release_ref(&mut self, key: (usize, usize), e4: E4Addr) -> Option<Vec<E4Addr>> {
            let e = self.entries.get_mut(&key).filter(|e| e.e4 == e4)?;
            e.refs -= 1;
            Some(self.victims())
        }
    }

    /// 10k seeded acquires (split into lookup and publish, so that two
    /// acquires of one buffer can interleave), releases, capacity changes
    /// and on/off toggles: every returned mapping, victim list and counter
    /// must equal the scanning reference's.
    #[test]
    fn indexed_lru_matches_full_scan_reference() {
        let mut rng = Pcg32::new(0x04E6_CACE);
        let mut c = RegCache::new(true, 96 * 1024, 12);
        let mut r = ScanLru {
            enabled: true,
            cap_bytes: 96 * 1024,
            cap_entries: 12,
            ..Default::default()
        };
        let mut next_va = 0x10_0000u64;
        let mut pending: Vec<(usize, usize)> = Vec::new();
        let mut held: Vec<((usize, usize), E4Addr)> = Vec::new();
        let mut shared = 0u32;
        for op in 0..10_000 {
            let key = (
                rng.index(12) * 16 * 1024,
                [8 * 1024, 16 * 1024][rng.index(2)],
            );
            match rng.index(100) {
                0..=34 => {
                    let got = c.lookup(key);
                    assert_eq!(got, r.lookup(key), "op {op}: lookup {key:?}");
                    match got {
                        Some(e4) => held.push((key, e4)),
                        None => pending.push(key),
                    }
                }
                35..=54 if !pending.is_empty() => {
                    let key = pending.swap_remove(rng.index(pending.len()));
                    let e4 = E4Addr::from_raw(Vpid(0), next_va);
                    next_va += 0x1_0000;
                    let got = c.publish(key, e4);
                    assert_eq!(got, r.publish(key, e4), "op {op}: publish {key:?}");
                    shared += u32::from(got.1.first() == Some(&e4));
                    held.push((key, got.0));
                }
                55..=89 if !held.is_empty() => {
                    let (key, e4) = held.swap_remove(rng.index(held.len()));
                    assert_eq!(
                        c.release_ref(key, e4),
                        r.release_ref(key, e4),
                        "op {op}: release {key:?}"
                    );
                }
                90..=94 => {
                    let bytes = rng.range(16, 160) * 1024;
                    c.set_cap_bytes(bytes);
                    r.cap_bytes = bytes;
                }
                95..=97 => {
                    let n = rng.range(1, 20);
                    c.set_cap_entries(n);
                    r.cap_entries = n;
                }
                98..=99 => {
                    let on = rng.chance(0.7);
                    c.set_enabled(on);
                    r.enabled = on;
                }
                _ => {}
            }
            let s = c.stats();
            assert_eq!(
                (s.hits, s.misses, s.evictions, s.mapped_bytes, s.entries),
                (
                    r.hits,
                    r.misses,
                    r.evictions,
                    r.cur_bytes as u64,
                    r.entries.len() as u64
                ),
                "op {op}: counters diverged"
            );
            let idle = r.entries.values().filter(|e| e.refs == 0).count();
            assert_eq!(c.idle.len(), idle, "op {op}: idle index out of step");
        }
        assert!(
            c.evictions > 300,
            "too few evictions to trust: {}",
            c.evictions
        );
        assert!(c.hits > 300, "too few hits to trust: {}", c.hits);
        assert!(
            shared > 20,
            "too few interleaved acquires to trust: {shared}"
        );
    }
}
