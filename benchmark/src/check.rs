//! Answer checking: a row count plus a checksum that does not depend on the
//! order rows (or columns) come back in, so plans with different join orders
//! compare equal exactly when they return the same multiset of rows.

use bqo_core::exec::Batch;
use bqo_core::storage::Column;

/// What an operation must return to count as correct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub rows: u64,
    pub checksum: u64,
}

/// splitmix64 finalizer: a cheap bijective mixer.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over `bytes`, continuing from `seed`.
pub fn hash_bytes(seed: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(seed, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Hash of one typed cell under its column's identity `salt`. The type tag
/// keeps `1i64`, `1.0f64`, `true` and `"1"` apart.
fn cell_hash(column: &Column, row: usize, salt: u64) -> u64 {
    let typed = match column {
        Column::Int64(v) => mix(v[row] as u64 ^ 0x11),
        Column::Float64(v) => mix(v[row].to_bits() ^ 0x22),
        Column::Utf8(v) => mix(hash_bytes(0x33, v[row].as_bytes())),
        Column::Bool(v) => mix(u64::from(v[row]) ^ 0x44),
    };
    mix(typed ^ salt)
}

/// Row count and order-independent checksum of `batch`: every row hashes
/// its typed cells (each salted with its `relation.column` identity, summed
/// so column order is irrelevant), and the mixed row hashes are summed
/// wrapping so row order is irrelevant.
pub fn answer_of(batch: &Batch) -> Answer {
    let rows = batch.num_rows();
    let mut row_hashes = vec![0u64; rows];
    for (column_ref, column) in batch.schema().iter().zip(batch.columns()) {
        let salt = hash_bytes(
            mix(column_ref.relation.0 as u64),
            column_ref.column.as_bytes(),
        );
        for (logical, hash) in row_hashes.iter_mut().enumerate() {
            *hash = hash.wrapping_add(cell_hash(column, batch.physical_row(logical), salt));
        }
    }
    Answer {
        rows: rows as u64,
        checksum: row_hashes
            .into_iter()
            .fold(0u64, |sum, h| sum.wrapping_add(mix(h))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqo_core::plan::{ColumnRef, RelId};

    fn batch(order: &[usize], swap_columns: bool) -> Batch {
        let ids = [1i64, 2, 3, 4];
        let names = ["a", "b", "c", "a"];
        let mut schema = vec![
            ColumnRef::new(RelId(0), "id"),
            ColumnRef::new(RelId(1), "name"),
        ];
        let mut columns = vec![
            Column::Int64(order.iter().map(|&i| ids[i]).collect()),
            Column::Utf8(order.iter().map(|&i| names[i].to_string()).collect()),
        ];
        if swap_columns {
            schema.swap(0, 1);
            columns.swap(0, 1);
        }
        Batch::new(schema, columns)
    }

    #[test]
    fn checksum_ignores_row_and_column_order() {
        let reference = answer_of(&batch(&[0, 1, 2, 3], false));
        assert_eq!(reference.rows, 4);
        assert_eq!(answer_of(&batch(&[3, 1, 0, 2], false)), reference);
        assert_eq!(answer_of(&batch(&[2, 3, 1, 0], true)), reference);
    }

    #[test]
    fn checksum_sees_changed_duplicated_and_recombined_rows() {
        let reference = answer_of(&batch(&[0, 1, 2, 3], false));
        // A duplicated row in place of another one.
        assert_ne!(answer_of(&batch(&[0, 1, 2, 2], false)), reference);
        // Same cells, recombined into different rows: (1,"b"),(2,"a").
        let recombined = Batch::new(
            vec![
                ColumnRef::new(RelId(0), "id"),
                ColumnRef::new(RelId(1), "name"),
            ],
            vec![
                Column::Int64(vec![1, 2, 3, 4]),
                Column::Utf8(vec!["b".into(), "a".into(), "c".into(), "a".into()]),
            ],
        );
        assert_ne!(answer_of(&recombined), reference);
    }

    #[test]
    fn checksum_respects_selection_vectors() {
        let dense = batch(&[0, 2], false);
        let selected = batch(&[0, 1, 2, 3], false).with_selection(vec![0, 2]);
        assert_eq!(answer_of(&selected), answer_of(&dense));
    }

    #[test]
    fn typed_cells_do_not_collide_across_types() {
        let as_int = Column::Int64(vec![1]);
        let as_float = Column::Float64(vec![f64::from_bits(1)]);
        let as_bool = Column::Bool(vec![true]);
        assert_ne!(cell_hash(&as_int, 0, 7), cell_hash(&as_float, 0, 7));
        assert_ne!(cell_hash(&as_int, 0, 7), cell_hash(&as_bool, 0, 7));
    }
}
