//! The object table.
//!
//! Every space has one: it maps wireReps to the local instance of the
//! corresponding network object. For objects this space owns, the entry is
//! a *concrete entry* holding a strong reference (the object table is a
//! root for the local collector while remote references exist) together
//! with the object's **dirty set** and **transient set**. For objects owned
//! elsewhere, the entry is an *import slot* tracking the surrogate's life
//! cycle — the `⊥ / nil / OK / ccit / ccitnil` states of the collector's
//! formal specification.
//!
//! # Locking
//!
//! Each half of the table is one mutex, so every dirty, clean and
//! transient-pin step is atomic, as in the formal model: an export entry,
//! the per-client footprints it is charged to, and its removal all change
//! in one critical section. The import half pairs its map with one condvar
//! that blocked unmarshal threads wait on. No operation holds both halves.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Weak};
use std::time::Instant;

use netobj_rpc::ResourceBudget;
use netobj_transport::Endpoint;
use netobj_wire::{ObjIx, SpaceId, TypeList, WireRep};
use parking_lot::{Condvar, Mutex};

use crate::handle::SurrogateCore;
use crate::obj::NetObject;

/// What the owner knows about one client's claim on an object.
#[derive(Debug, Clone)]
pub(crate) struct DirtyInfo {
    /// Highest sequence number seen from this client for this object.
    pub last_seqno: u64,
    /// Where the client can be pinged, if it told us.
    pub client_ep: Option<Endpoint>,
    /// Last time the entry was created or renewed (lease mode).
    pub renewed: Instant,
}

/// Owner-side entry: a concrete object plus its reference listing.
pub(crate) struct ConcreteEntry {
    /// Strong reference pinning the object while remotely referenced.
    pub obj: Arc<dyn NetObject>,
    /// Interface ancestry sent with marshaled references.
    pub types: TypeList,
    /// Explicitly exported entries are never auto-removed (bootstrap roots
    /// registered with the agent must survive empty dirty sets).
    pub pinned: bool,
    /// The dirty set: clients known to hold surrogates.
    pub dirty: HashMap<SpaceId, DirtyInfo>,
    /// The paper's `seqno(O, P)`: the largest sequence number seen from
    /// each client on a dirty *or clean* call. Kept independently of dirty
    /// membership so that a clean (in particular a *strong* clean after an
    /// ambiguous dirty failure) permanently outranks any delayed dirty
    /// still in flight.
    pub seqno_floor: HashMap<SpaceId, u64>,
    /// Transient dirty entries: in-flight transmissions of this reference.
    pub transient: HashSet<u64>,
}

impl ConcreteEntry {
    fn new(obj: &Arc<dyn NetObject>, types: TypeList, pinned: bool) -> ConcreteEntry {
        ConcreteEntry {
            obj: Arc::clone(obj),
            types,
            pinned,
            dirty: HashMap::new(),
            seqno_floor: HashMap::new(),
            transient: HashSet::new(),
        }
    }

    /// True when nothing protects the entry: it may leave the table.
    fn removable(&self) -> bool {
        !self.pinned && self.dirty.is_empty() && self.transient.is_empty()
    }
}

/// Client-side surrogate life-cycle state (the formal model's `rec_T`).
///
/// `⊥` (pre-existence / reclaimed) is represented by the slot's absence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ImportState {
    /// `nil`: reference received, dirty call not yet acknowledged.
    Creating,
    /// `OK`: registered with the owner; usable.
    Live,
    /// `ccit`: clean call in transit.
    CleanWait,
    /// `ccitnil`: clean in transit but a new copy arrived — resurrect once
    /// the clean acknowledgement lands.
    CleanWaitResurrect,
}

/// Client-side entry for an imported reference.
pub(crate) struct ImportSlot {
    pub owner_ep: Endpoint,
    pub types: TypeList,
    pub state: ImportState,
    /// Bumped whenever a new surrogate core is installed; unreachability
    /// notices carrying an older epoch are stale and ignored.
    pub epoch: u64,
    /// Live surrogate core, if any handle still holds it.
    pub weak: Weak<SurrogateCore>,
    /// Threads blocked waiting for this slot to become usable.
    pub waiters: u32,
    /// Set when registration failed; waiters give up instead of retrying.
    pub failed: bool,
}

/// The two halves of a space's object table.
pub(crate) struct ObjectTable {
    pub exports: ExportTable,
    pub imports: ImportTable,
}

impl ObjectTable {
    pub fn new() -> ObjectTable {
        ObjectTable {
            exports: ExportTable::new(),
            imports: ImportTable::new(),
        }
    }
}

/// What one client currently costs this owner in table bookkeeping.
///
/// `dirty` counts the objects the client holds dirty registrations on
/// (its *export slots*); `floors` counts its seqno-floor entries. Floors
/// outlive cleans by design — a strong clean must permanently outrank any
/// delayed dirty — which makes them the one piece of per-client state a
/// peer can grow without holding anything, so the dirty-entry budget
/// bounds `dirty + floors`, not `dirty` alone.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ClientFootprint {
    /// Objects on which the client is currently in the dirty set.
    pub dirty: usize,
    /// Seqno-floor entries recorded for the client.
    pub floors: usize,
}

impl ClientFootprint {
    fn is_empty(&self) -> bool {
        self.dirty == 0 && self.floors == 0
    }
}

/// Subtracts from `client`'s footprint, dropping the record once empty.
fn release(
    counts: &mut HashMap<SpaceId, ClientFootprint>,
    client: SpaceId,
    dirty: usize,
    floors: usize,
) {
    if let Some(fp) = counts.get_mut(&client) {
        fp.dirty = fp.dirty.saturating_sub(dirty);
        fp.floors = fp.floors.saturating_sub(floors);
        if fp.is_empty() {
            counts.remove(&client);
        }
    }
}

/// Owner-side table state, guarded as a whole by [`ExportTable`]'s lock.
struct Exports {
    next_ix: u64,
    /// Pin ids are only ever compared for equality.
    next_pin: u64,
    /// Object pointer → index, so re-marshaling the same object reuses its
    /// wireRep ("there is at most one entry per concrete object").
    by_ptr: HashMap<usize, u64>,
    entries: HashMap<u64, ConcreteEntry>,
    /// Per-client footprint, maintained alongside every dirty-set and
    /// floor mutation. Records exist only while the footprint is nonzero,
    /// so refused or stale calls from never-seen clients cannot grow this
    /// map.
    counts: HashMap<SpaceId, ClientFootprint>,
}

fn ptr_key(obj: &Arc<dyn NetObject>) -> usize {
    Arc::as_ptr(obj) as *const () as usize
}

impl Exports {
    /// Finds or creates the (unpinned) entry for `obj`; the flag is true
    /// when this call created it.
    fn entry_for(&mut self, obj: &Arc<dyn NetObject>) -> (u64, &mut ConcreteEntry, bool) {
        let key = ptr_key(obj);
        let (ix, created) = match self.by_ptr.get(&key) {
            Some(&ix) => (ix, false),
            None => {
                let ix = self.next_ix;
                self.next_ix += 1;
                self.by_ptr.insert(key, ix);
                self.entries
                    .insert(ix, ConcreteEntry::new(obj, obj.type_list(), false));
                (ix, true)
            }
        };
        let entry = self.entries.get_mut(&ix).expect("by_ptr and entries agree");
        (ix, entry, created)
    }

    fn unpin(&mut self, ix: u64) -> bool {
        match self.entries.get_mut(&ix) {
            Some(e) => e.pinned = false,
            None => return false,
        }
        self.collect_if_removable(ix)
    }

    /// Removes the entry if nothing protects it; true if removed. Called in
    /// the same critical section as the change that may have made the
    /// entry removable.
    fn collect_if_removable(&mut self, ix: u64) -> bool {
        if !self.entries.get(&ix).is_some_and(ConcreteEntry::removable) {
            return false;
        }
        let entry = self.entries.remove(&ix).expect("checked present");
        // Removable ⇒ the dirty set is empty; only the entry's floor
        // entries still weigh on client footprints. Release them.
        for &client in entry.seqno_floor.keys() {
            release(&mut self.counts, client, 0, 1);
        }
        let key = ptr_key(&entry.obj);
        if self.by_ptr.get(&key) == Some(&ix) {
            self.by_ptr.remove(&key);
        }
        true
    }
}

/// Owner-side half of the object table.
pub(crate) struct ExportTable {
    inner: Mutex<Exports>,
}

impl ExportTable {
    pub fn new() -> ExportTable {
        ExportTable {
            inner: Mutex::new(Exports {
                next_ix: ObjIx::FIRST_USER.0,
                next_pin: 1,
                by_ptr: HashMap::new(),
                entries: HashMap::new(),
                counts: HashMap::new(),
            }),
        }
    }

    /// Finds or creates the entry for `obj`, returning its index and
    /// whether the entry was created by this call (a fresh export, which
    /// the trace layer records as `ExportCreated`).
    pub fn export(&self, obj: &Arc<dyn NetObject>, pinned: bool) -> (ObjIx, TypeList, bool) {
        let mut ex = self.inner.lock();
        let (ix, entry, created) = ex.entry_for(obj);
        entry.pinned |= pinned;
        (ObjIx(ix), entry.types.clone(), created)
    }

    /// Marshal-path export: finds or creates the entry and adds a
    /// transient pin in the same critical section, so the entry cannot be
    /// collected between the two steps. Returns (index, types, pin,
    /// created).
    pub fn export_transient(&self, obj: &Arc<dyn NetObject>) -> (ObjIx, TypeList, u64, bool) {
        let mut ex = self.inner.lock();
        let pin = ex.next_pin;
        ex.next_pin += 1;
        let (ix, entry, created) = ex.entry_for(obj);
        entry.transient.insert(pin);
        (ObjIx(ix), entry.types.clone(), pin, created)
    }

    /// Installs an object at a reserved index (agent bootstrap).
    pub fn export_at(&self, ix: ObjIx, obj: Arc<dyn NetObject>) {
        let types = obj.type_list();
        let mut ex = self.inner.lock();
        ex.by_ptr.insert(ptr_key(&obj), ix.0);
        ex.entries
            .insert(ix.0, ConcreteEntry::new(&obj, types, true));
    }

    /// Looks up the index for an already-exported object.
    pub fn lookup(&self, obj: &Arc<dyn NetObject>) -> Option<ObjIx> {
        self.inner
            .lock()
            .by_ptr
            .get(&ptr_key(obj))
            .map(|&ix| ObjIx(ix))
    }

    /// Returns the concrete object at `ix`, if present.
    pub fn get(&self, ix: ObjIx) -> Option<(Arc<dyn NetObject>, TypeList)> {
        self.inner
            .lock()
            .entries
            .get(&ix.0)
            .map(|e| (Arc::clone(&e.obj), e.types.clone()))
    }

    /// Adds a transient pin to `ix`, returning the pin id.
    ///
    /// Returns `None` if no entry exists. Production marshaling uses the
    /// atomic [`ExportTable::export_transient`]; this entry point remains
    /// for tests exercising pin/collect interleavings directly.
    #[cfg(test)]
    pub fn add_transient(&self, ix: ObjIx) -> Option<u64> {
        let mut ex = self.inner.lock();
        let pin = ex.next_pin;
        ex.entries.get_mut(&ix.0)?.transient.insert(pin);
        ex.next_pin += 1;
        Some(pin)
    }

    /// Releases a transient pin; returns true if the entry was collected.
    pub fn remove_transient(&self, ix: ObjIx, pin: u64) -> bool {
        let mut ex = self.inner.lock();
        let Some(entry) = ex.entries.get_mut(&ix.0) else {
            return false;
        };
        entry.transient.remove(&pin);
        ex.collect_if_removable(ix.0)
    }

    /// Applies a dirty call from `client` with `seqno`, charging the
    /// client's footprint against `budget`.
    ///
    /// Stale or over-budget calls are rejected **without mutating
    /// anything** — in particular without creating a floor entry — so the
    /// validation path itself cannot be used to exhaust owner memory.
    /// Renewals (the client is already in the dirty set) never hit the
    /// quota checks: they acquire nothing new.
    pub fn apply_dirty(
        &self,
        ix: ObjIx,
        client: SpaceId,
        seqno: u64,
        client_ep: Option<Endpoint>,
        now: Instant,
        budget: &ResourceBudget,
    ) -> DirtyOutcome {
        let mut ex = self.inner.lock();
        let Exports {
            entries, counts, ..
        } = &mut *ex;
        let Some(entry) = entries.get_mut(&ix.0) else {
            return DirtyOutcome::NoSuchObject;
        };
        if seqno <= entry.seqno_floor.get(&client).copied().unwrap_or(0) {
            return DirtyOutcome::Stale;
        }
        let new_dirty = !entry.dirty.contains_key(&client);
        let new_floor = !entry.seqno_floor.contains_key(&client);
        if new_dirty {
            let held = counts.get(&client).copied().unwrap_or_default();
            if let Some(max) = budget.max_export_slots {
                if held.dirty >= max {
                    return DirtyOutcome::QuotaExceeded("export slots");
                }
            }
            if let Some(max) = budget.max_dirty_entries {
                if held.dirty + held.floors + 1 + usize::from(new_floor) > max {
                    return DirtyOutcome::QuotaExceeded("dirty entries");
                }
            }
            let fp = counts.entry(client).or_default();
            fp.dirty += 1;
            if new_floor {
                fp.floors += 1;
            }
        }
        entry.seqno_floor.insert(client, seqno);
        match entry.dirty.get_mut(&client) {
            Some(info) => {
                info.last_seqno = seqno;
                info.renewed = now;
                if client_ep.is_some() {
                    info.client_ep = client_ep;
                }
            }
            None => {
                entry.dirty.insert(
                    client,
                    DirtyInfo {
                        last_seqno: seqno,
                        client_ep,
                        renewed: now,
                    },
                );
            }
        }
        DirtyOutcome::Applied(entry.types.clone())
    }

    /// Applies a clean call; returns whether the table entry was collected.
    ///
    /// A clean for an unknown object or an absent client is a no-op (the
    /// paper: "if it is not in the set, the clean call is a no-op"). A
    /// stale sequence number is likewise a no-op, but a clean records its
    /// seqno so that a *delayed* dirty it raced past cannot re-add the
    /// client afterwards — this is what makes strong cleans final.
    pub fn apply_clean(&self, ix: ObjIx, client: SpaceId, seqno: u64) -> CleanOutcome {
        let mut ex = self.inner.lock();
        let Exports {
            entries, counts, ..
        } = &mut *ex;
        let Some(entry) = entries.get_mut(&ix.0) else {
            return CleanOutcome::NoOp;
        };
        if seqno <= entry.seqno_floor.get(&client).copied().unwrap_or(0) {
            // Stale: reject without touching the floor map, so replayed
            // cleans leave no per-client state behind.
            return CleanOutcome::Stale;
        }
        let new_floor = entry.seqno_floor.insert(client, seqno).is_none();
        let dropped = entry.dirty.remove(&client).is_some();
        if new_floor {
            // Cleans are release operations and are never refused for
            // quota — but the floor entry a previously-unknown client's
            // clean leaves behind (required so a delayed dirty cannot
            // outrank it) still counts against its footprint.
            counts.entry(client).or_default().floors += 1;
        }
        if !dropped {
            // Unknown client: a no-op, but the floor update above still
            // blocks any delayed dirty with a lower seqno.
            return CleanOutcome::NoOp;
        }
        release(counts, client, 1, 0);
        if ex.collect_if_removable(ix.0) {
            CleanOutcome::Collected
        } else {
            CleanOutcome::Removed
        }
    }

    /// Removes `client` from every dirty set (presumed-dead client).
    /// Returns the number of entries collected as a result.
    pub fn purge_client(&self, client: SpaceId) -> u64 {
        let mut ex = self.inner.lock();
        let affected: Vec<u64> = ex
            .entries
            .iter_mut()
            .filter_map(|(&ix, e)| e.dirty.remove(&client).map(|_| ix))
            .collect();
        release(&mut ex.counts, client, affected.len(), 0);
        affected
            .into_iter()
            .filter(|&ix| ex.collect_if_removable(ix))
            .count() as u64
    }

    /// Removes dirty entries older than `expiry`; returns (expired entries,
    /// collected objects). Lease mode only.
    pub fn expire_leases(&self, expiry: Instant) -> (u64, u64) {
        let mut ex = self.inner.lock();
        let mut affected = Vec::new();
        let mut dropped: HashMap<SpaceId, usize> = HashMap::new();
        for (&ix, e) in ex.entries.iter_mut() {
            let before = e.dirty.len();
            e.dirty.retain(|&c, info| {
                let keep = info.renewed >= expiry;
                if !keep {
                    *dropped.entry(c).or_insert(0) += 1;
                }
                keep
            });
            if e.dirty.len() < before {
                affected.push(ix);
            }
        }
        let expired = dropped.values().sum::<usize>() as u64;
        for (c, n) in dropped {
            release(&mut ex.counts, c, n, 0);
        }
        let collected = affected
            .into_iter()
            .filter(|&ix| ex.collect_if_removable(ix))
            .count() as u64;
        (expired, collected)
    }

    /// Every (client, endpoint) pair present in some dirty set; the ping
    /// demon's worklist.
    pub fn dirty_clients(&self) -> Vec<(SpaceId, Option<Endpoint>)> {
        let mut seen: HashMap<SpaceId, Option<Endpoint>> = HashMap::new();
        for e in self.inner.lock().entries.values() {
            for (&client, info) in &e.dirty {
                let slot = seen.entry(client).or_insert(None);
                if slot.is_none() {
                    *slot = info.client_ep.clone();
                }
            }
        }
        seen.into_iter().collect()
    }

    /// Marks an explicit export removable again; returns true if collected.
    #[cfg(test)]
    pub fn unpin(&self, ix: ObjIx) -> bool {
        self.inner.lock().unpin(ix.0)
    }

    /// Atomically looks up `obj` and unpins its entry (explicit
    /// unexport). Returns the index and whether the entry was collected.
    pub fn unexport(&self, obj: &Arc<dyn NetObject>) -> Option<(ObjIx, bool)> {
        let mut ex = self.inner.lock();
        let ix = *ex.by_ptr.get(&ptr_key(obj))?;
        Some((ObjIx(ix), ex.unpin(ix)))
    }

    /// Total dirty-set entries (gauge).
    pub fn dirty_entry_count(&self) -> u64 {
        self.inner
            .lock()
            .entries
            .values()
            .map(|e| e.dirty.len() as u64)
            .sum()
    }

    /// Per-client footprint snapshot, sorted by client id (gauges and
    /// introspection).
    pub fn client_footprints(&self) -> Vec<(SpaceId, ClientFootprint)> {
        let mut v: Vec<_> = self
            .inner
            .lock()
            .counts
            .iter()
            .map(|(&c, &fp)| (c, fp))
            .collect();
        v.sort_by_key(|(c, _)| *c);
        v
    }

    /// Recomputes every client's footprint from a full table scan and
    /// compares it with the maintained counts (test observability).
    #[cfg(test)]
    pub fn counts_match_scan(&self) -> bool {
        let ex = self.inner.lock();
        let mut scanned: HashMap<SpaceId, (usize, usize)> = HashMap::new();
        for e in ex.entries.values() {
            for &c in e.dirty.keys() {
                scanned.entry(c).or_default().0 += 1;
            }
            for &c in e.seqno_floor.keys() {
                scanned.entry(c).or_default().1 += 1;
            }
        }
        ex.counts.len() == scanned.len()
            && ex
                .counts
                .iter()
                .all(|(c, fp)| scanned.get(c) == Some(&(fp.dirty, fp.floors)))
    }

    /// Number of live concrete entries at non-reserved indices (built-ins
    /// at reserved indices live forever and would otherwise make every
    /// listening space report a nonzero count).
    pub fn exported_count(&self) -> usize {
        self.inner
            .lock()
            .entries
            .keys()
            .filter(|&&ix| !ObjIx(ix).is_reserved())
            .count()
    }

    /// Number of live concrete entries (test observability).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }
}

/// Client-side half of the object table.
pub(crate) struct ImportTable {
    pub map: Mutex<HashMap<WireRep, ImportSlot>>,
    /// Signals import-slot state changes to blocked unmarshal threads.
    pub cv: Condvar,
}

impl ImportTable {
    pub fn new() -> ImportTable {
        ImportTable {
            map: Mutex::new(HashMap::new()),
            cv: Condvar::new(),
        }
    }

    /// Number of import slots (gauge).
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }
}

/// Result of applying a dirty call at the owner.
pub(crate) enum DirtyOutcome {
    /// The client is now listed; carries the object's type list.
    Applied(TypeList),
    /// Sequence number not newer than the last seen: ignored.
    Stale,
    /// The object is gone from the table.
    NoSuchObject,
    /// The client's footprint is at its budget; nothing was mutated. The
    /// static string names the exhausted limit.
    QuotaExceeded(&'static str),
}

/// Result of applying a clean call at the owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CleanOutcome {
    /// Client removed; entry survives (other claims remain).
    Removed,
    /// Client removed and the entry left the table.
    Collected,
    /// Nothing to do (unknown object or client not listed).
    NoOp,
    /// Sequence number not newer than the last seen: ignored.
    Stale,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::NetResult;
    use crate::obj::MarshaledResult;
    use crate::space::Space;

    struct Dummy;
    impl NetObject for Dummy {
        fn type_list(&self) -> TypeList {
            TypeList::from_names(&["test.Dummy"])
        }
        fn dispatch(&self, _s: &Space, _m: u32, _a: &[u8]) -> NetResult<MarshaledResult> {
            Ok(MarshaledResult::plain(Vec::new()))
        }
    }

    fn dummy() -> Arc<dyn NetObject> {
        Arc::new(Dummy)
    }

    fn fresh() -> ExportTable {
        ExportTable::new()
    }

    fn client(n: u128) -> SpaceId {
        SpaceId::from_raw(n)
    }

    fn open() -> ResourceBudget {
        ResourceBudget::unlimited()
    }

    #[test]
    fn export_reuses_index_for_same_object() {
        let e = fresh();
        let obj = dummy();
        let (ix1, _, _) = e.export(&obj, false);
        let (ix2, _, _) = e.export(&obj, false);
        assert_eq!(ix1, ix2);
        assert_eq!(e.len(), 1);
        let other = dummy();
        let (ix3, _, _) = e.export(&other, false);
        assert_ne!(ix1, ix3);
    }

    #[test]
    fn unprotected_entry_collects_on_transient_release() {
        let e = fresh();
        let obj = dummy();
        let (ix, _, _) = e.export(&obj, false);
        let pin = e.add_transient(ix).unwrap();
        assert_eq!(e.len(), 1);
        assert!(e.remove_transient(ix, pin));
        assert_eq!(e.len(), 0);
    }

    #[test]
    fn export_transient_is_atomic_and_reuses_index() {
        let e = fresh();
        let obj = dummy();
        let (ix1, _, pin1, created1) = e.export_transient(&obj);
        assert!(created1);
        let (ix2, _, pin2, created2) = e.export_transient(&obj);
        assert!(!created2);
        assert_eq!(ix1, ix2);
        assert_ne!(pin1, pin2);
        assert!(!e.remove_transient(ix1, pin1));
        assert!(e.remove_transient(ix1, pin2));
        assert_eq!(e.len(), 0);
        // A fresh marshal after collection allocates a new index.
        let (ix3, _, _, created3) = e.export_transient(&obj);
        assert!(created3);
        assert_ne!(ix1, ix3);
    }

    #[test]
    fn pinned_entry_survives_until_unpinned() {
        let e = fresh();
        let obj = dummy();
        let (ix, _, _) = e.export(&obj, true);
        let pin = e.add_transient(ix).unwrap();
        assert!(!e.remove_transient(ix, pin));
        assert_eq!(e.len(), 1);
        assert!(e.unpin(ix));
        assert_eq!(e.len(), 0);
    }

    #[test]
    fn dirty_then_clean_collects() {
        let e = fresh();
        let obj = dummy();
        let (ix, _, _) = e.export(&obj, false);
        let pin = e.add_transient(ix).unwrap();
        let now = Instant::now();
        assert!(matches!(
            e.apply_dirty(ix, client(1), 1, None, now, &open()),
            DirtyOutcome::Applied(_)
        ));
        // Transient released: dirty entry still protects.
        assert!(!e.remove_transient(ix, pin));
        assert_eq!(e.apply_clean(ix, client(1), 2), CleanOutcome::Collected);
        assert_eq!(e.len(), 0);
    }

    #[test]
    fn stale_dirty_ignored() {
        let e = fresh();
        let obj = dummy();
        let (ix, _, _) = e.export(&obj, true);
        let now = Instant::now();
        assert!(matches!(
            e.apply_dirty(ix, client(1), 5, None, now, &open()),
            DirtyOutcome::Applied(_)
        ));
        assert!(matches!(
            e.apply_dirty(ix, client(1), 5, None, now, &open()),
            DirtyOutcome::Stale
        ));
        assert!(matches!(
            e.apply_dirty(ix, client(1), 4, None, now, &open()),
            DirtyOutcome::Stale
        ));
        assert!(matches!(
            e.apply_dirty(ix, client(1), 6, None, now, &open()),
            DirtyOutcome::Applied(_)
        ));
    }

    #[test]
    fn delayed_dirty_after_strong_clean_is_stale() {
        // The failure-handling scenario: dirty(7) is delayed in the
        // network; the client gives up and sends strong clean(8); the
        // dirty finally arrives and must NOT resurrect the entry.
        let e = fresh();
        let obj = dummy();
        let (ix, _, _) = e.export(&obj, true);
        let now = Instant::now();
        assert!(matches!(
            e.apply_dirty(ix, client(1), 5, None, now, &open()),
            DirtyOutcome::Applied(_)
        ));
        assert_eq!(e.apply_clean(ix, client(1), 8), CleanOutcome::Removed);
        // The delayed dirty(7) finally arrives: the seqno floor left by the
        // strong clean(8) must block it.
        assert!(matches!(
            e.apply_dirty(ix, client(1), 7, None, now, &open()),
            DirtyOutcome::Stale
        ));
        // And a genuinely newer dirty (a fresh import) is accepted.
        assert!(matches!(
            e.apply_dirty(ix, client(1), 9, None, now, &open()),
            DirtyOutcome::Applied(_)
        ));
    }

    #[test]
    fn clean_for_unknown_is_noop() {
        let e = fresh();
        assert_eq!(e.apply_clean(ObjIx(99), client(1), 1), CleanOutcome::NoOp);
        let obj = dummy();
        let (ix, _, _) = e.export(&obj, true);
        assert_eq!(e.apply_clean(ix, client(1), 1), CleanOutcome::NoOp);
    }

    #[test]
    fn purge_client_empties_all_sets() {
        let e = fresh();
        let a = dummy();
        let b = dummy();
        let (ia, _, _) = e.export(&a, false);
        let (ib, _, _) = e.export(&b, false);
        let now = Instant::now();
        e.apply_dirty(ia, client(1), 1, None, now, &open());
        e.apply_dirty(ib, client(1), 2, None, now, &open());
        e.apply_dirty(ib, client(2), 3, None, now, &open());
        assert_eq!(e.purge_client(client(1)), 1); // a collected, b survives
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn lease_expiry() {
        let e = fresh();
        let obj = dummy();
        let (ix, _, _) = e.export(&obj, false);
        let old = Instant::now() - std::time::Duration::from_secs(100);
        e.apply_dirty(ix, client(1), 1, None, old, &open());
        let (expired, collected) =
            e.expire_leases(Instant::now() - std::time::Duration::from_secs(10));
        assert_eq!((expired, collected), (1, 1));
    }

    #[test]
    fn dirty_clients_lists_endpoints() {
        let e = fresh();
        let obj = dummy();
        let (ix, _, _) = e.export(&obj, true);
        let now = Instant::now();
        e.apply_dirty(ix, client(1), 1, Some(Endpoint::sim("c1")), now, &open());
        e.apply_dirty(ix, client(2), 2, None, now, &open());
        let mut clients = e.dirty_clients();
        clients.sort_by_key(|(s, _)| *s);
        assert_eq!(clients.len(), 2);
        assert_eq!(clients[0].1, Some(Endpoint::sim("c1")));
        assert_eq!(clients[1].1, None);
    }

    #[test]
    fn export_slot_quota_refuses_new_registrations_only() {
        let e = fresh();
        let budget = ResourceBudget {
            max_export_slots: Some(2),
            ..ResourceBudget::unlimited()
        };
        let objs: Vec<_> = (0..3).map(|_| dummy()).collect();
        let ixs: Vec<_> = objs.iter().map(|o| e.export(o, true).0).collect();
        let now = Instant::now();
        assert!(matches!(
            e.apply_dirty(ixs[0], client(1), 1, None, now, &budget),
            DirtyOutcome::Applied(_)
        ));
        assert!(matches!(
            e.apply_dirty(ixs[1], client(1), 2, None, now, &budget),
            DirtyOutcome::Applied(_)
        ));
        // A third distinct object exceeds the slot budget...
        assert!(matches!(
            e.apply_dirty(ixs[2], client(1), 3, None, now, &budget),
            DirtyOutcome::QuotaExceeded("export slots")
        ));
        // ...and the refusal left no floor entry behind: the same seqno
        // succeeds once a slot frees up.
        assert!(matches!(
            e.apply_dirty(ixs[0], client(1), 4, None, now, &budget),
            DirtyOutcome::Applied(_)
        ));
        // Another client has its own budget.
        assert!(matches!(
            e.apply_dirty(ixs[2], client(2), 1, None, now, &budget),
            DirtyOutcome::Applied(_)
        ));
        assert_eq!(e.apply_clean(ixs[0], client(1), 5), CleanOutcome::Removed);
        assert!(matches!(
            e.apply_dirty(ixs[2], client(1), 3, None, now, &budget),
            DirtyOutcome::Applied(_)
        ));
        assert!(e.counts_match_scan());
    }

    #[test]
    fn dirty_entry_quota_counts_lingering_floors() {
        let e = fresh();
        // Floors persist after cleans on pinned entries, so a churned
        // client accumulates floor entries that count against this limit.
        let budget = ResourceBudget {
            max_dirty_entries: Some(4),
            ..ResourceBudget::unlimited()
        };
        let objs: Vec<_> = (0..4).map(|_| dummy()).collect();
        let ixs: Vec<_> = objs.iter().map(|o| e.export(o, true).0).collect();
        let now = Instant::now();
        // Dirty+clean the first two objects: 0 dirty, 2 floors.
        for (n, &ix) in ixs[..2].iter().enumerate() {
            assert!(matches!(
                e.apply_dirty(ix, client(1), 2 * n as u64 + 1, None, now, &budget),
                DirtyOutcome::Applied(_)
            ));
            assert_eq!(
                e.apply_clean(ix, client(1), 2 * n as u64 + 2),
                CleanOutcome::Removed
            );
        }
        // A fresh object costs dirty+floor = 2: 1 dirty, 3 floors = 4. OK.
        assert!(matches!(
            e.apply_dirty(ixs[2], client(1), 1, None, now, &budget),
            DirtyOutcome::Applied(_)
        ));
        // The next would need 2 more: refused without mutation.
        assert!(matches!(
            e.apply_dirty(ixs[3], client(1), 1, None, now, &budget),
            DirtyOutcome::QuotaExceeded("dirty entries")
        ));
        // Unpinning the cleaned entries collects them and releases their
        // floors (2 of the 4 budget units), making room for the refused
        // dirty's floor+dirty pair.
        assert!(e.unpin(ixs[0]));
        assert!(e.unpin(ixs[1]));
        assert!(matches!(
            e.apply_dirty(ixs[3], client(1), 1, None, now, &budget),
            DirtyOutcome::Applied(_)
        ));
        assert!(e.counts_match_scan());
    }

    #[test]
    fn refused_and_stale_calls_leave_no_footprint() {
        let e = fresh();
        let obj = dummy();
        let (ix, _, _) = e.export(&obj, true);
        let now = Instant::now();
        // A seqno-0 dirty from a never-seen client is stale (the floor
        // starts at 0) and must not create any per-client state.
        assert!(matches!(
            e.apply_dirty(ix, client(9), 0, None, now, &open()),
            DirtyOutcome::Stale
        ));
        assert!(e.client_footprints().is_empty());
        // Same for an over-quota client that was never admitted.
        let zero = ResourceBudget {
            max_export_slots: Some(0),
            ..ResourceBudget::unlimited()
        };
        assert!(matches!(
            e.apply_dirty(ix, client(9), 1, None, now, &zero),
            DirtyOutcome::QuotaExceeded(_)
        ));
        assert!(e.client_footprints().is_empty());
        // A stale clean replay likewise records nothing...
        assert_eq!(e.apply_clean(ix, client(9), 0), CleanOutcome::Stale);
        assert!(e.client_footprints().is_empty());
        // ...but an unknown client's *advancing* clean leaves the floor
        // entry the protocol requires, and it is accounted for.
        assert_eq!(e.apply_clean(ix, client(9), 3), CleanOutcome::NoOp);
        let fp = e.client_footprints();
        assert_eq!(fp.len(), 1);
        assert_eq!((fp[0].1.dirty, fp[0].1.floors), (0, 1));
        assert!(e.counts_match_scan());
    }

    #[test]
    fn footprints_survive_purge_expiry_and_collection() {
        let e = fresh();
        let now = Instant::now();
        let objs: Vec<_> = (0..6).map(|_| dummy()).collect();
        let ixs: Vec<_> = objs.iter().map(|o| e.export(o, false).0).collect();
        for (n, &ix) in ixs.iter().enumerate() {
            e.apply_dirty(ix, client(1), 1, None, now, &open());
            if n % 2 == 0 {
                e.apply_dirty(ix, client(2), 1, None, now, &open());
            }
        }
        assert!(e.counts_match_scan());
        // Purge client 1: the objects only it held collect (releasing
        // their floors); on objects shared with client 2 the entry
        // survives, and with it client 1's floor entries.
        e.purge_client(client(1));
        assert!(e.counts_match_scan());
        let fps = e.client_footprints();
        assert_eq!(fps.len(), 2);
        assert_eq!(
            (fps[0].0, fps[0].1.dirty, fps[0].1.floors),
            (client(1), 0, 3)
        );
        assert_eq!(fps[1].0, client(2));
        // Expire client 2's leases: everything collects, counts drain.
        let (expired, _) = e.expire_leases(now + std::time::Duration::from_secs(1));
        assert_eq!(expired, 3);
        assert!(e.client_footprints().is_empty());
        assert!(e.counts_match_scan());
        assert_eq!(e.len(), 0);
    }

    #[test]
    fn whole_table_scans_see_every_entry() {
        let e = fresh();
        let objs: Vec<_> = (0..64).map(|_| dummy()).collect();
        let now = Instant::now();
        for obj in &objs {
            let (ix, _, _) = e.export(obj, false);
            e.apply_dirty(ix, client(7), 1, None, now, &open());
        }
        assert_eq!(e.len(), 64);
        assert_eq!(e.dirty_entry_count(), 64);
        assert_eq!(e.purge_client(client(7)), 64);
        assert_eq!(e.len(), 0);
    }
}
