//! Byte-level encoding shared by the writer and the reader.
//!
//! Everything is little-endian and self-describing only through the footer:
//! chunk payloads are raw value runs (`Int64`/`Float64` as 8-byte words,
//! `Utf8` as `u32` length-prefixed bytes, `Bool` as one byte per value)
//! whose type and row count come from the schema and chunk directory. Values
//! embedded in the footer (zone-map bounds) carry a one-byte type tag so a
//! decoder can validate them independently.

use crate::layout::MAX_ZONE_STRING_LEN;
use bqo_storage::{Column, DataType, Value};

/// A little-endian byte cursor with bounds-checked reads; every decode
/// failure is a `String` detail the caller wraps into a `FormatError`.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl std::fmt::Debug for Cursor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cursor")
            .field("len", &self.bytes.len())
            .field("at", &self.at)
            .finish()
    }
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, at: 0 }
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "need {n} bytes, {} left at offset {}",
                self.remaining(),
                self.at
            ));
        }
        let slice = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    #[expect(
        clippy::unwrap_used,
        reason = "infallible: `take(N)?` returned exactly N bytes; the conversion to [u8; N] cannot fail"
    )]
    pub(crate) fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    #[expect(
        clippy::unwrap_used,
        reason = "infallible: `take(N)?` returned exactly N bytes; the conversion to [u8; N] cannot fail"
    )]
    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    #[expect(
        clippy::unwrap_used,
        reason = "infallible: `take(N)?` returned exactly N bytes; the conversion to [u8; N] cannot fail"
    )]
    pub(crate) fn i64(&mut self) -> Result<i64, String> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `u64` that must fit in `usize` and stay below `limit` (structural
    /// sanity bound so corrupt counts cannot drive huge allocations).
    pub(crate) fn bounded_len(&mut self, limit: usize, what: &str) -> Result<usize, String> {
        let v = self.u64()?;
        // CAST-OK: usize widens losslessly into u64 on supported targets
        if v > limit as u64 {
            return Err(format!("{what} {v} exceeds limit {limit}"));
        }
        Ok(v as usize) // CAST-OK: v <= limit (a usize), checked above
    }

    pub(crate) fn string(&mut self, limit: usize) -> Result<String, String> {
        let len = self.u32()? as usize; // CAST-OK: u32 fits usize on supported targets
        if len > limit {
            return Err(format!("string length {len} exceeds limit {limit}"));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| format!("invalid UTF-8: {e}"))
    }
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32); // CAST-OK: u32 length field; readers cap strings far below it
    out.extend_from_slice(s.as_bytes());
}

/// One-byte tag for a [`DataType`].
pub(crate) fn type_code(dt: DataType) -> u8 {
    match dt {
        DataType::Int64 => 0,
        DataType::Float64 => 1,
        DataType::Utf8 => 2,
        DataType::Bool => 3,
    }
}

pub(crate) fn type_from_code(code: u8) -> Result<DataType, String> {
    match code {
        0 => Ok(DataType::Int64),
        1 => Ok(DataType::Float64),
        2 => Ok(DataType::Utf8),
        3 => Ok(DataType::Bool),
        other => Err(format!("unknown type code {other}")),
    }
}

/// Appends the encoded run of `column[start..end]` to `out`.
pub(crate) fn encode_column_range(column: &Column, start: usize, end: usize, out: &mut Vec<u8>) {
    match column {
        Column::Int64(v) => {
            for &x in &v[start..end] {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        Column::Float64(v) => {
            for &x in &v[start..end] {
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        }
        Column::Utf8(v) => {
            for s in &v[start..end] {
                put_string(out, s);
            }
        }
        Column::Bool(v) => {
            for &b in &v[start..end] {
                out.push(u8::from(b));
            }
        }
    }
}

/// Decodes a run of `rows` values of type `dt` from `bytes`, which must be
/// consumed exactly.
///
/// `rows` comes from the file's footer, so it is checked against the length
/// of the run before anything is allocated for it.
pub(crate) fn decode_column(dt: DataType, rows: usize, bytes: &[u8]) -> Result<Column, String> {
    match dt {
        DataType::Int64 => Ok(Column::Int64(
            words(rows, bytes)?.map(i64::from_le_bytes).collect(),
        )),
        DataType::Float64 => Ok(Column::Float64(
            words(rows, bytes)?
                .map(|word| f64::from_bits(u64::from_le_bytes(word)))
                .collect(),
        )),
        DataType::Bool => {
            if rows != bytes.len() {
                return Err(run_length_mismatch(rows, 1, bytes.len()));
            }
            if let Some(b) = bytes.iter().find(|&&b| b > 1) {
                return Err(format!("invalid bool byte {b}"));
            }
            Ok(Column::Bool(bytes.iter().map(|&b| b == 1).collect()))
        }
        DataType::Utf8 => {
            // Every value carries a 4-byte length.
            if rows > bytes.len() / 4 {
                return Err(format!(
                    "{rows} strings need at least 4 bytes each, run has {}",
                    bytes.len()
                ));
            }
            let mut cur = Cursor::new(bytes);
            let mut v = Vec::with_capacity(rows);
            for _ in 0..rows {
                v.push(cur.string(bytes.len())?);
            }
            if cur.remaining() != 0 {
                return Err(format!(
                    "{} trailing bytes after column run",
                    cur.remaining()
                ));
            }
            Ok(Column::Utf8(v))
        }
    }
}

/// The `rows` little-endian 8-byte words that make up all of `bytes`.
fn words(rows: usize, bytes: &[u8]) -> Result<impl Iterator<Item = [u8; 8]> + '_, String> {
    let (words, rest) = bytes.as_chunks::<8>();
    if words.len() != rows || !rest.is_empty() {
        return Err(run_length_mismatch(rows, 8, bytes.len()));
    }
    Ok(words.iter().copied())
}

fn run_length_mismatch(rows: usize, width: usize, len: usize) -> String {
    format!("{rows} values of {width} bytes do not make a run of {len} bytes")
}

/// Appends a type-tagged [`Value`] (zone-map bound) to `out`.
pub(crate) fn encode_value(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Int64(v) => {
            out.push(type_code(DataType::Int64));
            out.extend_from_slice(&v.to_le_bytes());
        }
        Value::Float64(v) => {
            out.push(type_code(DataType::Float64));
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        Value::Utf8(s) => {
            out.push(type_code(DataType::Utf8));
            put_string(out, s);
        }
        Value::Bool(b) => {
            out.push(type_code(DataType::Bool));
            out.push(u8::from(*b));
        }
    }
}

/// Decodes a type-tagged [`Value`].
pub(crate) fn decode_value(cur: &mut Cursor<'_>) -> Result<Value, String> {
    match type_from_code(cur.u8()?)? {
        DataType::Int64 => Ok(Value::Int64(cur.i64()?)),
        DataType::Float64 => Ok(Value::Float64(cur.f64()?)),
        DataType::Utf8 => Ok(Value::Utf8(cur.string(MAX_ZONE_STRING_LEN)?)),
        DataType::Bool => {
            let b = cur.u8()?;
            if b > 1 {
                return Err(format!("invalid bool byte {b}"));
            }
            Ok(Value::Bool(b == 1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_round_trip_all_types() {
        let columns = [
            Column::Int64(vec![i64::MIN, -1, 0, 42, i64::MAX]),
            Column::Float64(vec![f64::NEG_INFINITY, -0.0, 1.5, f64::NAN]),
            Column::Utf8(vec!["".into(), "a".into(), "héllo".into()]),
            Column::Bool(vec![true, false, true]),
        ];
        for column in columns {
            let mut bytes = Vec::new();
            encode_column_range(&column, 0, column.len(), &mut bytes);
            let decoded = decode_column(column.data_type(), column.len(), &bytes).unwrap();
            // NaN round-trips by bits, so compare via the value encoding.
            let mut a = Vec::new();
            let mut b = Vec::new();
            encode_column_range(&column, 0, column.len(), &mut a);
            encode_column_range(&decoded, 0, decoded.len(), &mut b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn sub_range_encoding_matches_take() {
        let column = Column::Int64((0..100).collect());
        let mut range_bytes = Vec::new();
        encode_column_range(&column, 10, 20, &mut range_bytes);
        let taken = column.take(&(10..20).collect::<Vec<_>>());
        let mut take_bytes = Vec::new();
        encode_column_range(&taken, 0, taken.len(), &mut take_bytes);
        assert_eq!(range_bytes, take_bytes);
    }

    #[test]
    fn decode_rejects_malformed_runs() {
        // Truncated.
        assert!(decode_column(DataType::Int64, 2, &[0u8; 8]).is_err());
        // Trailing garbage.
        assert!(decode_column(DataType::Int64, 1, &[0u8; 16]).is_err());
        // Bool byte out of range.
        assert!(decode_column(DataType::Bool, 1, &[2u8]).is_err());
        // Utf8 length past the payload.
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 100);
        assert!(decode_column(DataType::Utf8, 1, &bytes).is_err());
        // Invalid UTF-8.
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 2);
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert!(decode_column(DataType::Utf8, 1, &bytes).is_err());
    }

    /// A row count far beyond what the run can hold (the footer's counts are
    /// only bounded by `usize::MAX / 2`) is an error, not an allocation.
    #[test]
    fn decode_rejects_row_counts_the_run_cannot_hold() {
        let huge = [usize::MAX / 2, usize::MAX / 8 + 1, 1 << 40];
        for dt in [
            DataType::Int64,
            DataType::Float64,
            DataType::Utf8,
            DataType::Bool,
        ] {
            for rows in huge {
                assert!(decode_column(dt, rows, &[0u8; 8]).is_err(), "{dt:?} {rows}");
                assert!(decode_column(dt, rows, &[]).is_err(), "{dt:?} {rows}");
            }
            // One row too many or too few for a run of zeros.
            let run = [0u8; 16];
            let exact = match dt {
                DataType::Int64 | DataType::Float64 => 2,
                DataType::Utf8 => 4,
                DataType::Bool => 16,
            };
            assert_eq!(decode_column(dt, exact, &run).map(|c| c.len()), Ok(exact));
            assert!(decode_column(dt, exact + 1, &run).is_err(), "{dt:?}");
            assert!(decode_column(dt, exact - 1, &run).is_err(), "{dt:?}");
        }
        // 3 strings cannot fit in 8 bytes even when all are empty.
        assert!(decode_column(DataType::Utf8, 3, &[0u8; 8]).is_err());
        assert_eq!(
            decode_column(DataType::Utf8, 2, &[0u8; 8]).unwrap(),
            Column::Utf8(vec![String::new(), String::new()])
        );
    }

    #[test]
    fn value_round_trip_and_rejection() {
        for v in [
            Value::Int64(-7),
            Value::Float64(2.5),
            Value::Utf8("zone".into()),
            Value::Bool(true),
        ] {
            let mut bytes = Vec::new();
            encode_value(&v, &mut bytes);
            let mut cur = Cursor::new(&bytes);
            let decoded = decode_value(&mut cur).unwrap();
            assert_eq!(decoded, v);
            assert_eq!(cur.remaining(), 0);
        }
        let mut cur = Cursor::new(&[9u8]);
        assert!(decode_value(&mut cur).is_err());
    }

    #[test]
    fn cursor_bounds_are_enforced() {
        let mut cur = Cursor::new(&[1, 2, 3]);
        assert!(cur.u64().is_err());
        assert_eq!(cur.u8().unwrap(), 1);
        assert!(cur.bounded_len(10, "count").is_err());
        let bytes = 100u64.to_le_bytes();
        let mut cur = Cursor::new(&bytes);
        assert!(cur.bounded_len(10, "count").is_err());
    }
}
