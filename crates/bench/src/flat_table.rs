//! The 1NF baseline E9 measures the realization view against: one heap
//! record per flat row, lookups by full scan, probes counted the way
//! `NfTable`'s scans count them.

use std::cell::Cell;

use bytes::BytesMut;

use nf2_core::relation::FlatRelation;
use nf2_core::schema::AttrId;
use nf2_core::tuple::FlatTuple;
use nf2_core::value::Atom;
use nf2_storage::codec::{decode_flat_tuple, encode_flat_tuple};
use nf2_storage::{HeapFile, Result};

/// A 1NF relation stored as heap records.
#[derive(Debug)]
pub struct FlatTable {
    arity: usize,
    rows: usize,
    heap: HeapFile,
    lookups: Cell<u64>,
    units_probed: Cell<u64>,
}

impl FlatTable {
    /// Stores every row of an existing 1NF relation.
    pub fn from_flat(flat: &FlatRelation) -> Result<Self> {
        let mut heap = HeapFile::new();
        let mut buf = BytesMut::new();
        for row in flat.rows() {
            buf.clear();
            encode_flat_tuple(row, &mut buf);
            heap.insert(&buf)?;
        }
        Ok(Self {
            arity: flat.schema().arity(),
            rows: flat.len(),
            heap,
            lookups: Cell::new(0),
            units_probed: Cell::new(0),
        })
    }

    /// Row count.
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// Bytes occupied by heap pages.
    pub fn size_bytes(&self) -> usize {
        self.heap.size_bytes()
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
        for (_, rec) in self.heap.iter() {
            self.units_probed.set(self.units_probed.get() + 1);
            let mut slice = rec;
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
    use nf2_core::schema::Schema;

    #[test]
    fn flat_table_baseline_probes_every_row() {
        let schema = Schema::new("sc", &["Student", "Course"]).unwrap();
        let rows = [[0u32, 10], [1, 10], [0, 11], [2, 12]];
        let flat = FlatRelation::from_rows(schema, rows.map(|r| r.map(Atom).to_vec())).unwrap();
        let ft = FlatTable::from_flat(&flat).unwrap();
        assert_eq!(ft.row_count(), 4);
        assert_eq!(ft.lookup_scan(1, Atom(10)).len(), 2);
        assert_eq!((ft.lookups(), ft.units_probed()), (1, 4));
        assert!(ft.size_bytes() >= nf2_storage::PAGE_SIZE);
    }
}
