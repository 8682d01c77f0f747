//! The 1NF baseline E9 measures the realization view against: one
//! encoded record per flat row, lookups by full scan, probes counted the
//! way `NfTable`'s scans count them.

use std::cell::Cell;

use bytes::BytesMut;

use nf2_core::relation::FlatRelation;
use nf2_core::schema::AttrId;
use nf2_core::tuple::FlatTuple;
use nf2_core::value::Atom;
use nf2_storage::codec::{decode_flat_tuple, encode_flat_tuple};

use crate::page::page_bytes;

/// A 1NF relation stored as encoded records.
#[derive(Debug)]
pub struct FlatTable {
    arity: usize,
    records: Vec<BytesMut>,
    lookups: Cell<u64>,
    units_probed: Cell<u64>,
}

impl FlatTable {
    /// Stores every row of an existing 1NF relation.
    pub fn from_flat(flat: &FlatRelation) -> Self {
        let records = flat
            .rows()
            .map(|row| {
                let mut record = BytesMut::new();
                encode_flat_tuple(row, &mut record);
                record
            })
            .collect();
        Self {
            arity: flat.schema().arity(),
            records,
            lookups: Cell::new(0),
            units_probed: Cell::new(0),
        }
    }

    /// Row count.
    pub fn row_count(&self) -> usize {
        self.records.len()
    }

    /// Bytes the rows occupy in slotted pages ([`page_bytes`]).
    pub fn size_bytes(&self) -> usize {
        page_bytes(self.records.iter().map(|record| record.len()))
    }

    /// Bytes of the rows' encodings, without page overhead.
    pub fn payload_bytes(&self) -> usize {
        self.records.iter().map(|record| record.len()).sum()
    }

    /// Number of [`lookup_scan`](Self::lookup_scan) calls so far.
    pub fn lookups(&self) -> u64 {
        self.lookups.get()
    }

    /// Rows examined by those lookups.
    pub fn units_probed(&self) -> u64 {
        self.units_probed.get()
    }

    /// Scan lookup: rows whose `attr` equals `value`. Probes every row.
    pub fn lookup_scan(&self, attr: AttrId, value: Atom) -> Vec<FlatTuple> {
        self.lookups.set(self.lookups.get() + 1);
        let mut hits = Vec::new();
        for record in &self.records {
            self.units_probed.set(self.units_probed.get() + 1);
            let mut slice = &record[..];
            if let Ok(row) = decode_flat_tuple(&mut slice, self.arity) {
                if row[attr] == value {
                    hits.push(row);
                }
            }
        }
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_SIZE;
    use nf2_core::schema::Schema;

    #[test]
    fn flat_table_baseline_probes_every_row() {
        let schema = Schema::new("sc", &["Student", "Course"]).unwrap();
        let rows = [[0u32, 10], [1, 10], [0, 11], [2, 12]];
        let flat = FlatRelation::from_rows(schema, rows.map(|r| r.map(Atom).to_vec())).unwrap();
        let ft = FlatTable::from_flat(&flat);
        assert_eq!(ft.row_count(), 4);
        assert_eq!(ft.lookup_scan(1, Atom(10)).len(), 2);
        assert_eq!((ft.lookups(), ft.units_probed()), (1, 4));
        assert_eq!((ft.payload_bytes(), ft.size_bytes()), (8, PAGE_SIZE));
    }
}
