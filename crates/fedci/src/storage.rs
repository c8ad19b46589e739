//! Per-endpoint data stores.
//!
//! Each endpoint fronts a cluster with a shared filesystem: once a file has
//! been staged there (or produced by a task running there), every worker on
//! that endpoint can read it without further transfers. The data manager
//! consults these stores to compute how many bytes a candidate placement
//! would actually move — the quantity the Locality scheduler minimizes.

use crate::endpoint::EndpointId;

/// Identifier of a data object (a task's output file or an external input).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DataId(pub u64);

/// Endpoints a [`DataStore`] can place replicas on: an object's replica
/// set is one `u64` bitmask, so endpoint ids must be below this.
pub const MAX_ENDPOINTS: usize = 64;

/// Highest replica-set generation an object may reach: a [`SourceMemo`]
/// entry packs a generation (26 bits) and a source endpoint (6 bits) into
/// one `u32`.
const MAX_GENERATION: u32 = (1 << 26) - 1;

/// Location and size bookkeeping for every data object in a workflow run.
///
/// Objects live in a `Vec` indexed by [`DataId`], so every lookup is an
/// indexed load. That relies on ids being dense: the runtime gives task `t`
/// the ids `2t` (external input) and `2t + 1` (output), see
/// `unifaas::sched::{external_input_id, output_id}`, so a run of `n` tasks
/// spans ids `0..2n`. An id costs a slot whether or not it is registered.
/// Replica sets are bitmasks, so every endpoint id must be below
/// [`MAX_ENDPOINTS`].
#[derive(Clone, Debug, Default)]
pub struct DataStore {
    slots: Vec<Slot>,
    len: usize,
}

#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    bytes: u64,
    /// Bit `e` is set when endpoint `e` holds a replica; 0 when the id is
    /// not registered (a registered object always keeps its home).
    present: u64,
    /// 1 at registration, +1 on every change of `present`.
    generation: u32,
    home: u16,
}

/// The bit of `ep` in a replica mask; 0 for ids no mask can hold.
fn bit(ep: EndpointId) -> u64 {
    1u64.checked_shl(u32::from(ep.0)).unwrap_or(0)
}

/// The bit of `ep`, which the store is about to record as a replica.
///
/// # Panics
///
/// Panics if `ep` is not below [`MAX_ENDPOINTS`].
fn storable_bit(ep: EndpointId) -> u64 {
    assert!(
        ep.index() < MAX_ENDPOINTS,
        "endpoint {ep:?} is beyond the data store's {MAX_ENDPOINTS} endpoints"
    );
    bit(ep)
}

impl Slot {
    fn bump(&mut self) {
        assert!(
            self.generation < MAX_GENERATION,
            "replica set of one object changed {MAX_GENERATION} times"
        );
        self.generation += 1;
    }
}

impl DataStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        DataStore::default()
    }

    fn get(&self, id: DataId) -> Option<&Slot> {
        self.slots.get(id.0 as usize).filter(|s| s.present != 0)
    }

    fn slot(&self, id: DataId) -> &Slot {
        self.get(id).expect("unknown data object")
    }

    fn slot_mut(&mut self, id: DataId) -> Option<&mut Slot> {
        self.slots.get_mut(id.0 as usize).filter(|s| s.present != 0)
    }

    /// Registers a new object produced/pinned at `home`.
    ///
    /// # Panics
    ///
    /// Panics if the object was already registered (object ids are unique
    /// per run) or `home` is not below [`MAX_ENDPOINTS`].
    pub fn register(&mut self, id: DataId, bytes: u64, home: EndpointId) {
        let present = storable_bit(home);
        let i = usize::try_from(id.0).expect("data id fits in memory");
        if self.slots.len() <= i {
            self.slots.resize(i + 1, Slot::default());
        }
        let slot = &mut self.slots[i];
        assert!(slot.present == 0, "data object {id:?} registered twice");
        *slot = Slot {
            bytes,
            present,
            generation: 1,
            home: home.0,
        };
        self.len += 1;
    }

    /// Records that `id` now also exists at `ep` (a transfer completed).
    /// Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or `ep` is not below [`MAX_ENDPOINTS`].
    pub fn add_replica(&mut self, id: DataId, ep: EndpointId) {
        let b = storable_bit(ep);
        let slot = self.slot_mut(id).expect("unknown data object");
        if slot.present & b == 0 {
            slot.present |= b;
            slot.bump();
        }
    }

    /// Replica-set generation of `id`: 1 at registration, and it changes
    /// exactly when the set of endpoints holding `id` does. Two equal
    /// generations of one object guarantee identical placement, so a memo
    /// stamped with one stays valid as long as it is current. 0 for an
    /// unregistered id.
    pub fn generation(&self, id: DataId) -> u32 {
        self.slots.get(id.0 as usize).map_or(0, |s| s.generation)
    }

    /// Size of an object in bytes.
    pub fn bytes(&self, id: DataId) -> u64 {
        self.slot(id).bytes
    }

    /// True if `ep` holds a replica of `id`.
    pub fn present_at(&self, id: DataId, ep: EndpointId) -> bool {
        self.slots
            .get(id.0 as usize)
            .is_some_and(|s| s.present & bit(ep) != 0)
    }

    /// All endpoints holding `id`: the home first, then the others in
    /// ascending id order.
    pub fn replicas(&self, id: DataId) -> impl Iterator<Item = EndpointId> {
        let s = self.slot(id);
        let home = EndpointId(s.home);
        let mut rest = s.present & !bit(home);
        std::iter::once(home).chain(std::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            let ep = EndpointId(rest.trailing_zeros() as u16);
            rest &= rest - 1;
            Some(ep)
        }))
    }

    /// Whether the object exists at all.
    pub fn contains(&self, id: DataId) -> bool {
        self.get(id).is_some()
    }

    /// Bytes that would need to move if a task consuming `inputs` ran at
    /// `ep` — the Locality scheduler's objective ("computes the amount of
    /// data transferred if placed on a specific endpoint").
    pub fn missing_bytes(&self, inputs: &[DataId], ep: EndpointId) -> u64 {
        inputs
            .iter()
            .filter(|id| !self.present_at(**id, ep))
            .map(|id| self.bytes(*id))
            .sum()
    }

    /// Drops all replicas of an object except its home (e.g. scratch
    /// clean-up between experiments). No-op for unknown objects.
    pub fn evict_non_home(&mut self, id: DataId) {
        if let Some(slot) = self.slot_mut(id) {
            let home = bit(EndpointId(slot.home));
            if slot.present != home {
                slot.present = home;
                slot.bump();
            }
        }
    }

    /// Number of registered objects.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no objects are registered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A memo of the best source replica per (object, destination), for a
/// cost model fixed by its owner (link bandwidth, a predictor).
///
/// A best source depends only on the object's replicas and size, the
/// destination and the cost model. Each entry is stamped with the object's
/// replica-set generation ([`DataStore::generation`]), so a hit is exact:
/// a replica change of one object forgets that object's entries and no
/// other. The owner drops the memo when its cost model changes. One packed
/// `u32` per (object, destination endpoint), indexed densely like the
/// store. The default memo has no destinations; size it with
/// [`SourceMemo::new`] before use.
#[derive(Clone, Debug, Default)]
pub struct SourceMemo {
    /// Destinations per object: the endpoint count.
    width: usize,
    /// `generation << 6 | source`; 0 = empty (a registered object's
    /// generation is at least 1).
    entries: Vec<u32>,
}

impl SourceMemo {
    /// An empty memo for destinations `0..n_endpoints`.
    ///
    /// # Panics
    ///
    /// Panics if `n_endpoints` exceeds [`MAX_ENDPOINTS`].
    pub fn new(n_endpoints: usize) -> Self {
        assert!(
            n_endpoints <= MAX_ENDPOINTS,
            "{n_endpoints} endpoints exceed the data store's {MAX_ENDPOINTS}"
        );
        SourceMemo {
            width: n_endpoints,
            entries: Vec::new(),
        }
    }

    /// Destinations per object this memo was sized for.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The memoized best source of `id` at `dst` if it was computed under
    /// the object's current replica set, otherwise `best()`, remembered.
    pub fn get_or_insert_with(
        &mut self,
        store: &DataStore,
        id: DataId,
        dst: EndpointId,
        best: impl FnOnce() -> EndpointId,
    ) -> EndpointId {
        assert!(
            dst.index() < self.width,
            "destination {dst:?} outside a memo of {} endpoints",
            self.width
        );
        let i = id.0 as usize * self.width + dst.index();
        let generation = store.generation(id);
        if let Some(&e) = self.entries.get(i) {
            if e != 0 && e >> 6 == generation {
                return EndpointId((e & 63) as u16);
            }
        }
        let src = best();
        if self.entries.len() <= i {
            self.entries.resize((id.0 as usize + 1) * self.width, 0);
        }
        self.entries[i] = generation << 6 | u32::from(src.0);
        src
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(i: u16) -> EndpointId {
        EndpointId(i)
    }

    fn replicas(ds: &DataStore, id: DataId) -> Vec<EndpointId> {
        ds.replicas(id).collect()
    }

    #[test]
    fn register_and_replicate() {
        let mut ds = DataStore::new();
        ds.register(DataId(1), 100, ep(0));
        assert!(ds.present_at(DataId(1), ep(0)));
        assert!(!ds.present_at(DataId(1), ep(1)));
        ds.add_replica(DataId(1), ep(1));
        assert!(ds.present_at(DataId(1), ep(1)));
        assert_eq!(replicas(&ds, DataId(1)), [ep(0), ep(1)]);
        assert_eq!(ds.bytes(DataId(1)), 100);
        assert_eq!(ds.len(), 1);
        assert!(!ds.contains(DataId(0)), "a lower id is not registered");
    }

    #[test]
    fn replicas_list_home_first_then_ascending() {
        let mut ds = DataStore::new();
        ds.register(DataId(0), 1, ep(5));
        for e in [63, 2, 7] {
            ds.add_replica(DataId(0), ep(e));
        }
        assert_eq!(replicas(&ds, DataId(0)), [ep(5), ep(2), ep(7), ep(63)]);
    }

    #[test]
    fn add_replica_idempotent() {
        let mut ds = DataStore::new();
        ds.register(DataId(1), 10, ep(0));
        ds.add_replica(DataId(1), ep(1));
        ds.add_replica(DataId(1), ep(1));
        assert_eq!(ds.replicas(DataId(1)).count(), 2);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn double_register_panics() {
        let mut ds = DataStore::new();
        ds.register(DataId(1), 10, ep(0));
        ds.register(DataId(1), 20, ep(1));
    }

    #[test]
    #[should_panic(expected = "beyond the data store's 64 endpoints")]
    fn replica_beyond_the_mask_panics() {
        let mut ds = DataStore::new();
        ds.register(DataId(1), 10, ep(0));
        ds.add_replica(DataId(1), ep(64));
    }

    #[test]
    fn missing_bytes_counts_only_absent_inputs() {
        let mut ds = DataStore::new();
        ds.register(DataId(1), 100, ep(0));
        ds.register(DataId(2), 50, ep(1));
        ds.register(DataId(3), 7, ep(0));
        ds.add_replica(DataId(3), ep(1));
        let inputs = [DataId(1), DataId(2), DataId(3)];
        assert_eq!(ds.missing_bytes(&inputs, ep(0)), 50); // only id 2 absent
        assert_eq!(ds.missing_bytes(&inputs, ep(1)), 100); // only id 1 absent
        assert_eq!(ds.missing_bytes(&inputs, ep(2)), 157); // everything
        assert_eq!(ds.missing_bytes(&[], ep(2)), 0);
    }

    #[test]
    fn evict_non_home_keeps_origin() {
        let mut ds = DataStore::new();
        ds.register(DataId(9), 5, ep(2));
        ds.add_replica(DataId(9), ep(0));
        ds.evict_non_home(DataId(9));
        assert_eq!(replicas(&ds, DataId(9)), [ep(2)]);
        ds.evict_non_home(DataId(404)); // unknown: no-op
    }

    #[test]
    fn presence_of_unknown_object_is_false() {
        let ds = DataStore::new();
        assert!(!ds.present_at(DataId(1), ep(0)));
        assert!(!ds.present_at(DataId(1), ep(u16::MAX)));
        assert!(!ds.contains(DataId(1)));
        assert_eq!(ds.generation(DataId(1)), 0);
        assert!(ds.is_empty());
    }

    #[test]
    fn memo_forgets_only_the_object_whose_replicas_changed() {
        let mut ds = DataStore::new();
        ds.register(DataId(0), 1, ep(0));
        ds.register(DataId(1), 1, ep(0));
        let mut memo = SourceMemo::new(3);
        // (best source at ep2 = highest replica id, whether it was computed)
        let mut best = |ds: &DataStore, id: DataId| {
            let mut computed = false;
            let src = memo.get_or_insert_with(ds, id, ep(2), || {
                computed = true;
                ds.replicas(id).max().expect("home")
            });
            (src, computed)
        };
        assert_eq!(best(&ds, DataId(0)), (ep(0), true));
        assert_eq!(best(&ds, DataId(1)), (ep(0), true));
        assert_eq!(best(&ds, DataId(1)), (ep(0), false));
        ds.add_replica(DataId(1), ep(1));
        assert_eq!(best(&ds, DataId(0)), (ep(0), false), "object 0 hits");
        assert_eq!(best(&ds, DataId(1)), (ep(1), true), "object 1 recomputes");
        ds.evict_non_home(DataId(1));
        assert_eq!(best(&ds, DataId(1)), (ep(0), true), "eviction recomputes");
    }
}
