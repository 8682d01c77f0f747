//! Binary encoding of tuples.
//!
//! NF² tuples serialize compactly: for each component, a varint value
//! count followed by delta-encoded varint atom ids (components are sorted,
//! so deltas are small). Flat tuples are the singleton special case. The
//! encoding is self-delimiting, so a checkpoint stores a shard's tuples
//! back to back with nothing between them. FNV-1a 64-bit hashes guard
//! the checkpoint: one over the meta file, one over each shard's tuples.

use bytes::{Buf, BufMut, BytesMut};

use nf2_core::tuple::{FlatTuple, NfTuple, TupleRef, ValueSet};
use nf2_core::value::Atom;

use crate::error::{Result, StorageError};

/// Writes a u64 as LEB128.
pub fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Reads a LEB128 u64.
pub fn get_varint(buf: &mut &[u8]) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        if buf.is_empty() {
            return Err(StorageError::Corrupt("varint truncated".into()));
        }
        let byte = buf.get_u8();
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(StorageError::Corrupt("varint overflow".into()));
        }
    }
}

/// Encodes an NF² tuple — an owned one ([`NfTuple::as_ref`]) or one read
/// in place from its chunk, to the same bytes.
pub fn encode_nf_tuple(t: TupleRef<'_>, out: &mut BytesMut) {
    for comp in t.components() {
        put_varint(out, comp.len() as u64);
        let mut prev = 0u32;
        for (i, a) in comp.iter().enumerate() {
            let delta = if i == 0 { a.0 } else { a.0 - prev };
            put_varint(out, u64::from(delta));
            prev = a.0;
        }
    }
}

/// Decodes an NF² tuple of the given arity.
pub fn decode_nf_tuple(buf: &mut &[u8], arity: usize) -> Result<NfTuple> {
    let mut comps = Vec::with_capacity(arity);
    for attr in 0..arity {
        let count = get_varint(buf)? as usize;
        if count == 0 {
            return Err(StorageError::Corrupt(format!(
                "empty component for attribute {attr}"
            )));
        }
        let mut values = Vec::with_capacity(count);
        let mut prev = 0u32;
        for i in 0..count {
            let raw = get_varint(buf)?;
            let delta = u32::try_from(raw)
                .map_err(|_| StorageError::Corrupt("atom id exceeds u32".into()))?;
            let v = if i == 0 {
                delta
            } else {
                prev.checked_add(delta)
                    .ok_or_else(|| StorageError::Corrupt("atom id overflow".into()))?
            };
            values.push(Atom(v));
            prev = v;
        }
        comps.push(
            ValueSet::new(values)
                .ok_or_else(|| StorageError::Corrupt("component decoded empty".into()))?,
        );
    }
    Ok(NfTuple::new(comps))
}

/// Encodes a flat tuple (singleton components, counts omitted).
pub fn encode_flat_tuple(t: &[Atom], out: &mut BytesMut) {
    for a in t {
        put_varint(out, u64::from(a.0));
    }
}

/// Decodes a flat tuple of the given arity.
pub fn decode_flat_tuple(buf: &mut &[u8], arity: usize) -> Result<FlatTuple> {
    let mut t = Vec::with_capacity(arity);
    for _ in 0..arity {
        let raw = get_varint(buf)?;
        let v =
            u32::try_from(raw).map_err(|_| StorageError::Corrupt("atom id exceeds u32".into()))?;
        t.push(Atom(v));
    }
    Ok(t)
}

/// FNV-1a 64-bit hash: the meta checksum and each shard's digest.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut hash = 0xcbf29ce484222325;
    for &b in data {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vs(ids: &[u32]) -> ValueSet {
        ValueSet::new(ids.iter().map(|&i| Atom(i)).collect()).unwrap()
    }

    #[test]
    fn varint_round_trips() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let mut slice: &[u8] = &buf;
            assert_eq!(get_varint(&mut slice).unwrap(), v);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn varint_rejects_truncation() {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, 1 << 40);
        let truncated = &buf[..buf.len() - 1];
        let mut slice = truncated;
        assert!(get_varint(&mut slice).is_err());
    }

    #[test]
    fn varint_rejects_overflow() {
        let bytes = [0xffu8; 11];
        let mut slice: &[u8] = &bytes;
        assert!(get_varint(&mut slice).is_err());
    }

    #[test]
    fn nf_tuple_round_trips() {
        let t = NfTuple::new(vec![vs(&[5, 100, 101]), vs(&[7]), vs(&[0, 1_000_000])]);
        let mut buf = BytesMut::new();
        encode_nf_tuple(t.as_ref(), &mut buf);
        let mut slice: &[u8] = &buf;
        let decoded = decode_nf_tuple(&mut slice, 3).unwrap();
        assert_eq!(decoded, t);
        assert!(slice.is_empty());
    }

    #[test]
    fn delta_encoding_is_compact() {
        // Dense sorted ids should encode in ~1 byte per value.
        let t = NfTuple::new(vec![vs(&(0..64).collect::<Vec<u32>>())]);
        let mut buf = BytesMut::new();
        encode_nf_tuple(t.as_ref(), &mut buf);
        assert!(
            buf.len() <= 66,
            "64 dense values should fit ~66 bytes, got {}",
            buf.len()
        );
    }

    #[test]
    fn flat_tuple_round_trips() {
        let t: FlatTuple = vec![Atom(1), Atom(2_000_000), Atom(3)];
        let mut buf = BytesMut::new();
        encode_flat_tuple(&t, &mut buf);
        let mut slice: &[u8] = &buf;
        assert_eq!(decode_flat_tuple(&mut slice, 3).unwrap(), t);
    }

    #[test]
    fn decode_rejects_zero_count() {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, 0); // component count 0 is invalid
        let mut slice: &[u8] = &buf;
        assert!(decode_nf_tuple(&mut slice, 1).is_err());
    }

    #[test]
    fn fnv_is_stable_and_sensitive() {
        let h1 = fnv1a64(b"nf2");
        assert_eq!(h1, fnv1a64(b"nf2"));
        assert_ne!(h1, fnv1a64(b"nf3"));
        assert_ne!(fnv1a64(b""), 0);
    }
}
