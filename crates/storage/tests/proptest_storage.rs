//! Property tests for the storage substrate: codecs are bijections and
//! tables round-trip through persistence.

use bytes::BytesMut;
use proptest::prelude::*;

use nf2_core::schema::NestOrder;
use nf2_core::tuple::{FlatTuple, NfTuple, ValueSet};
use nf2_core::value::Atom;
use nf2_storage::codec::{
    decode_flat_tuple, decode_nf_tuple, encode_flat_tuple, encode_nf_tuple, get_varint, put_varint,
};
use nf2_storage::{NfTable, SharedDictionary};

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
        encode_nf_tuple(t.as_ref(), &mut buf);
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
    assert_eq!(restored.snapshot().canonical(), t.snapshot().canonical());
}
