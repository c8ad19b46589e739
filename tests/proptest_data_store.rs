//! Property test: the id-indexed [`DataStore`] agrees with a hash-map
//! reference model under arbitrary operation sequences.
//!
//! The model keeps `(bytes, replicas)` per object in a `HashMap` keyed by
//! id, the store's layout before it became a `Vec` of bitmask slots. The
//! driver registers objects (ids drawn from a range, so lookups of unknown
//! ids happen throughout), adds replicas (repeats included) on endpoints up
//! to the store's limit, and evicts non-home replicas (unknown ids
//! included). After every step every query must agree, and each object's
//! replica-set generation must change exactly when its replica set did.

use fedci::endpoint::EndpointId;
use fedci::storage::{DataId, DataStore, MAX_ENDPOINTS};
use proptest::prelude::*;
use std::collections::HashMap;

/// Ids the driver draws from; about half stay unregistered at any time.
const IDS: u64 = 24;

#[derive(Clone, Debug)]
enum Op {
    Register { id: u64, bytes: u64, home: u16 },
    AddReplica { id: u64, ep: u16 },
    Evict { id: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let ep = 0u16..MAX_ENDPOINTS as u16;
    prop_oneof![
        (0..IDS, 1u64..u64::MAX / IDS, ep.clone()).prop_map(|(id, bytes, home)| Op::Register {
            id,
            bytes,
            home
        }),
        (0..IDS, ep.clone()).prop_map(|(id, ep)| Op::AddReplica { id, ep }),
        (0..IDS, ep).prop_map(|(id, ep)| Op::AddReplica { id, ep: ep % 4 }),
        (0..IDS).prop_map(|id| Op::Evict { id }),
    ]
}

type Model = HashMap<DataId, (u64, Vec<EndpointId>)>;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn data_store_matches_hash_map_model(
        ops in proptest::collection::vec(op_strategy(), 1..160),
        probe_eps in proptest::collection::vec(0u16..MAX_ENDPOINTS as u16, 1..6),
    ) {
        let mut store = DataStore::new();
        let mut model = Model::new();
        for op in ops {
            let before: Vec<(u32, Option<Vec<EndpointId>>)> = (0..IDS)
                .map(|i| {
                    let id = DataId(i);
                    let mut set = model.get(&id).map(|(_, r)| r.clone());
                    if let Some(s) = set.as_mut() {
                        s.sort();
                    }
                    (store.generation(id), set)
                })
                .collect();
            match op {
                Op::Register { id, bytes, home } => {
                    let id = DataId(id);
                    if model.contains_key(&id) {
                        continue; // registering twice panics by contract
                    }
                    store.register(id, bytes, EndpointId(home));
                    model.insert(id, (bytes, vec![EndpointId(home)]));
                }
                Op::AddReplica { id, ep } => {
                    let id = DataId(id);
                    let Some((_, replicas)) = model.get_mut(&id) else {
                        continue; // unknown ids panic by contract
                    };
                    let ep = EndpointId(ep);
                    store.add_replica(id, ep);
                    if !replicas.contains(&ep) {
                        replicas.push(ep);
                    }
                }
                Op::Evict { id } => {
                    let id = DataId(id);
                    store.evict_non_home(id);
                    if let Some((_, replicas)) = model.get_mut(&id) {
                        replicas.truncate(1);
                    }
                }
            }

            prop_assert_eq!(store.len(), model.len());
            prop_assert_eq!(store.is_empty(), model.is_empty());
            for i in 0..IDS + 2 {
                let id = DataId(i);
                let entry = model.get(&id);
                prop_assert_eq!(store.contains(id), entry.is_some(), "contains {:?}", id);
                for e in 0..MAX_ENDPOINTS as u16 + 2 {
                    let ep = EndpointId(e);
                    let want = entry.is_some_and(|(_, r)| r.contains(&ep));
                    prop_assert_eq!(store.present_at(id, ep), want, "present_at {:?} {:?}", id, ep);
                }
                prop_assert!(!store.present_at(id, EndpointId(u16::MAX)));
                if let Some((bytes, replicas)) = entry {
                    prop_assert_eq!(store.bytes(id), *bytes);
                    let got: Vec<EndpointId> = store.replicas(id).collect();
                    prop_assert_eq!(got[0], replicas[0], "home first for {:?}", id);
                    let (mut got, mut want) = (got, replicas.clone());
                    got.sort();
                    want.sort();
                    prop_assert_eq!(got, want, "replica set of {:?}", id);
                }
            }
            for (i, (gen_before, set_before)) in before.into_iter().enumerate() {
                let id = DataId(i as u64);
                let mut set_after = model.get(&id).map(|(_, r)| r.clone());
                if let Some(s) = set_after.as_mut() {
                    s.sort();
                }
                let generation = store.generation(id);
                prop_assert_eq!(
                    generation != gen_before,
                    set_after != set_before,
                    "generation of {:?} must change exactly with its replica set", id
                );
                prop_assert_eq!(generation == 0, set_after.is_none());
            }
            let inputs: Vec<DataId> = model.keys().copied().collect();
            for &e in &probe_eps {
                let ep = EndpointId(e);
                let want: u64 = inputs
                    .iter()
                    .filter(|id| !model[id].1.contains(&ep))
                    .map(|id| model[id].0)
                    .sum();
                prop_assert_eq!(store.missing_bytes(&inputs, ep), want);
            }
        }
    }
}
