//! Property tests for the storage substrate: codecs are bijections,
//! pages never lose live records, heaps and tables round-trip through
//! persistence.

use bytes::BytesMut;
use proptest::prelude::*;

use nf2_core::schema::NestOrder;
use nf2_core::tuple::{FlatTuple, NfTuple, ValueSet};
use nf2_core::value::Atom;
use nf2_storage::codec::{
    decode_flat_tuple, decode_nf_tuple, encode_flat_tuple, encode_nf_tuple, get_varint, put_varint,
};
use nf2_storage::{HeapFile, NfTable, Page, SharedDictionary};

fn arb_nf_tuple() -> impl Strategy<Value = NfTuple> {
    proptest::collection::vec(proptest::collection::btree_set(0u32..10_000, 1..12), 1..5).prop_map(
        |comps| {
            NfTuple::new(
                comps
                    .into_iter()
                    .map(|s| ValueSet::new(s.into_iter().map(Atom).collect()).unwrap())
                    .collect(),
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn varint_round_trips(v in any::<u64>()) {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, v);
        let mut slice: &[u8] = &buf;
        prop_assert_eq!(get_varint(&mut slice).unwrap(), v);
        prop_assert!(slice.is_empty());
    }

    #[test]
    fn nf_tuple_codec_round_trips(t in arb_nf_tuple()) {
        let mut buf = BytesMut::new();
        encode_nf_tuple(&t, &mut buf);
        let mut slice: &[u8] = &buf;
        let decoded = decode_nf_tuple(&mut slice, t.arity()).unwrap();
        prop_assert_eq!(decoded, t);
        prop_assert!(slice.is_empty());
    }

    #[test]
    fn flat_tuple_codec_round_trips(vals in proptest::collection::vec(0u32..100_000, 1..8)) {
        let t: FlatTuple = vals.into_iter().map(Atom).collect();
        let mut buf = BytesMut::new();
        encode_flat_tuple(&t, &mut buf);
        let mut slice: &[u8] = &buf;
        prop_assert_eq!(decode_flat_tuple(&mut slice, t.len()).unwrap(), t);
    }

    /// Any insert/delete interleaving on a page keeps exactly the live
    /// records readable, and serialization preserves them.
    #[test]
    fn page_tracks_live_records(
        ops in proptest::collection::vec((any::<bool>(), 1usize..200), 1..40)
    ) {
        let mut page = Page::new(1);
        let mut live: Vec<(u16, Vec<u8>)> = Vec::new();
        let mut counter = 0u8;
        for (is_insert, len) in ops {
            if is_insert || live.is_empty() {
                counter = counter.wrapping_add(1);
                let rec = vec![counter; len];
                if page.fits(rec.len()) {
                    let slot = page.insert(&rec).unwrap();
                    live.retain(|(s, _)| *s != slot);
                    live.push((slot, rec));
                }
            } else {
                let (slot, _) = live.remove(0);
                page.delete(slot).unwrap();
            }
        }
        for (slot, rec) in &live {
            prop_assert_eq!(page.get(*slot).unwrap(), rec.as_slice());
        }
        prop_assert_eq!(page.live_count(), live.len());
        // Round-trip through bytes.
        let restored = Page::from_bytes(&page.to_bytes()).unwrap();
        for (slot, rec) in &live {
            prop_assert_eq!(restored.get(*slot).unwrap(), rec.as_slice());
        }
        // Compaction preserves content too.
        let mut compacted = page.clone();
        compacted.compact();
        for (slot, rec) in &live {
            prop_assert_eq!(compacted.get(*slot).unwrap(), rec.as_slice());
        }
    }

    /// Heap files keep every inserted record addressable until deleted.
    #[test]
    fn heap_file_is_a_faithful_multimap(
        recs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..300), 1..30),
        delete_mask in any::<u32>(),
    ) {
        let mut heap = HeapFile::new();
        let rids: Vec<_> = recs.iter().map(|r| heap.insert(r).unwrap()).collect();
        let mut expected = Vec::new();
        for (i, (rid, rec)) in rids.iter().zip(&recs).enumerate() {
            if delete_mask & (1 << (i % 32)) != 0 {
                heap.delete(*rid).unwrap();
            } else {
                expected.push((*rid, rec.clone()));
            }
        }
        prop_assert_eq!(heap.record_count(), expected.len());
        for (rid, rec) in &expected {
            prop_assert_eq!(heap.get(*rid).unwrap(), rec.as_slice());
        }
    }
}

/// Non-proptest: a randomized end-to-end table persistence cycle, kept
/// deterministic by a fixed seed.
#[test]
fn table_checkpoint_cycle_is_lossless() {
    let dir = std::env::temp_dir().join("nf2_proptest_storage");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let dict = SharedDictionary::new();
    let t = NfTable::create("p", &["A", "B", "C"], NestOrder::identity(3), dict).unwrap();
    let mut state = 0x5eedu64;
    for _ in 0..150 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let row = [
            format!("a{}", (state >> 10) % 9),
            format!("b{}", (state >> 20) % 7),
            format!("c{}", (state >> 30) % 5),
        ];
        let refs: Vec<&str> = row.iter().map(String::as_str).collect();
        if state.is_multiple_of(4) {
            let _ = t.delete_row(&refs).unwrap();
        } else {
            let _ = t.insert_row(&refs).unwrap();
        }
    }
    t.checkpoint(&dir).unwrap();
    let restored = NfTable::open(&dir, "p", SharedDictionary::new()).unwrap();
    assert_eq!(restored.relation(), t.relation());
}
