//! Serialization of tables into row-oriented (CSV) and column-oriented
//! ("parquet-like") byte layouts.
//!
//! The paper studies compression on two physical layouts: CSV files as the
//! row-store example and Parquet as the column-store example. The codecs in
//! `scope-compress` operate on raw bytes, so the only thing that matters
//! for reproducing the layout effect is *byte adjacency*: row layout
//! interleaves values of different columns, column layout keeps each
//! column's values together and (like Parquet) applies lightweight
//! dictionary / run-length encodings before general-purpose compression.

use crate::column::{format_date, ColumnData, Table};
use bytes::{BufMut, Bytes, BytesMut};

/// Physical layout used when serializing a table to bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataLayout {
    /// Row-oriented CSV text.
    Csv,
    /// Column-oriented binary layout with per-column encodings
    /// (a simplified Parquet).
    Columnar,
}

impl DataLayout {
    /// Short name used in reports ("csv" / "parquet").
    pub fn name(&self) -> &'static str {
        match self {
            DataLayout::Csv => "csv",
            DataLayout::Columnar => "parquet",
        }
    }
}

/// Serialize a table as CSV (with a header line).
pub(crate) fn to_csv(table: &Table) -> Bytes {
    let mut out = BytesMut::with_capacity(table.n_rows() * table.n_columns() * 8 + 64);
    // Header.
    let names = table.schema().names();
    out.put_slice(names.join(",").as_bytes());
    out.put_u8(b'\n');
    for row in 0..table.n_rows() {
        for (i, col) in (0..table.n_columns())
            .map(|c| (c, table.column(c)))
            .collect::<Vec<_>>()
        {
            if i > 0 {
                out.put_u8(b',');
            }
            out.put_slice(cell_string(col, row).as_bytes());
        }
        out.put_u8(b'\n');
    }
    out.freeze()
}

fn cell_string(col: &ColumnData, row: usize) -> String {
    match col {
        ColumnData::Int(v) => v[row].to_string(),
        ColumnData::Float(v) => format!("{:.2}", v[row]),
        ColumnData::Text(v) => v[row].clone(),
        ColumnData::Date(v) => format_date(v[row]),
    }
}

/// Serialize a table in the simplified columnar layout.
///
/// Layout per column: a 1-byte encoding tag, a little-endian u64 value
/// count, then the encoded values. Encodings:
///
/// * `0` plain: fixed-width little-endian values (ints/floats/dates) or
///   length-prefixed UTF-8 (text),
/// * `1` dictionary: u32 dictionary size, length-prefixed dictionary
///   entries, then u32 codes per row,
/// * `2` run-length: pairs of (u32 run length, value).
///
/// Like Parquet's writer, it dictionary-encodes a text column whose
/// distinct values number under half its rows, and run-length encodes an
/// int/date column whose runs average at least two values.
pub(crate) fn to_columnar(table: &Table) -> Bytes {
    let mut out = BytesMut::with_capacity(table.n_rows() * table.n_columns() * 8 + 64);
    out.put_slice(b"SCOLv1\0");
    out.put_u32_le(table.n_columns() as u32);
    out.put_u64_le(table.n_rows() as u64);
    for c in 0..table.n_columns() {
        write_column(&mut out, table.column(c));
    }
    out.freeze()
}

fn write_column(out: &mut BytesMut, col: &ColumnData) {
    match col {
        ColumnData::Float(v) => {
            out.put_u8(0);
            out.put_u64_le(v.len() as u64);
            for x in v {
                out.put_f64_le(*x);
            }
        }
        ColumnData::Int(v) | ColumnData::Date(v) => {
            if worth_rle(v) {
                out.put_u8(2);
                out.put_u64_le(v.len() as u64);
                write_rle(out, v);
            } else {
                out.put_u8(0);
                out.put_u64_le(v.len() as u64);
                for x in v {
                    out.put_i64_le(*x);
                }
            }
        }
        ColumnData::Text(v) => {
            // BTreeSet: dictionary order must not depend on hash seeds.
            let distinct: std::collections::BTreeSet<&String> = v.iter().collect();
            if !v.is_empty() && distinct.len() * 2 < v.len() {
                out.put_u8(1);
                out.put_u64_le(v.len() as u64);
                // The set iterates in sorted order, so the dictionary is
                // deterministic by construction.
                let dict: Vec<&String> = distinct.into_iter().collect();
                let index: std::collections::HashMap<&String, u32> = dict
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (*s, i as u32))
                    .collect();
                out.put_u32_le(dict.len() as u32);
                for entry in &dict {
                    out.put_u32_le(entry.len() as u32);
                    out.put_slice(entry.as_bytes());
                }
                for s in v {
                    out.put_u32_le(index[s]);
                }
            } else {
                out.put_u8(0);
                out.put_u64_le(v.len() as u64);
                for s in v {
                    out.put_u32_le(s.len() as u32);
                    out.put_slice(s.as_bytes());
                }
            }
        }
    }
}

/// RLE pays off when the average run length is at least 2.
fn worth_rle(values: &[i64]) -> bool {
    if values.len() < 8 {
        return false;
    }
    let mut runs = 1usize;
    for w in values.windows(2) {
        if w[0] != w[1] {
            runs += 1;
        }
    }
    runs * 2 <= values.len()
}

fn write_rle(out: &mut BytesMut, values: &[i64]) {
    let mut i = 0;
    while i < values.len() {
        let mut run = 1u32;
        while i + (run as usize) < values.len()
            && values[i + run as usize] == values[i]
            && run < u32::MAX
        {
            run += 1;
        }
        out.put_u32_le(run);
        out.put_i64_le(values[i]);
        i += run as usize;
    }
}

/// Serialize a table in the requested layout.
pub fn serialize(table: &Table, layout: DataLayout) -> Bytes {
    match layout {
        DataLayout::Csv => to_csv(table),
        DataLayout::Columnar => to_columnar(table),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, ColumnType, Schema};

    fn table_with_repetition() -> Table {
        let n = 200;
        let schema = Schema::new(vec![
            ColumnDef::new("id", ColumnType::Int),
            ColumnDef::new("status", ColumnType::Text),
            ColumnDef::new("price", ColumnType::Float),
            ColumnDef::new("flag", ColumnType::Int),
        ]);
        Table::new(
            "t",
            schema,
            vec![
                ColumnData::Int((0..n as i64).collect()),
                ColumnData::Text(
                    (0..n)
                        .map(|i| if i % 3 == 0 { "OPEN" } else { "CLOSED" }.to_string())
                        .collect(),
                ),
                ColumnData::Float((0..n).map(|i| i as f64 * 0.5).collect()),
                ColumnData::Int(vec![7; n]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn csv_has_header_and_one_line_per_row() {
        let t = table_with_repetition();
        let bytes = to_csv(&t);
        let text = std::str::from_utf8(&bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 201);
        assert_eq!(lines[0], "id,status,price,flag");
        assert!(lines[1].starts_with("0,OPEN,0.00,7"));
    }

    #[test]
    fn columnar_layout_has_magic_and_is_smaller_with_encodings() {
        let t = table_with_repetition();
        let encoded = to_columnar(&t);
        assert!(encoded.starts_with(b"SCOLv1\0"));
        // The plain encoding: a 19-byte header, then per column its tag and
        // count and 8 bytes per number or a length-prefixed string per text
        // value.
        let plain_len = 19
            + (0..t.n_columns())
                .map(|c| match t.column(c) {
                    ColumnData::Text(v) => 9 + v.iter().map(|s| 4 + s.len()).sum::<usize>(),
                    _ => 9 + 8 * t.n_rows(),
                })
                .sum::<usize>();
        // The low-cardinality text column and the constant int column make
        // dictionary + RLE encoding strictly smaller than the raw bytes.
        assert!(encoded.len() < plain_len);
        // A column that repeats nothing is written plain, byte for byte.
        let distinct = Table::new(
            "d",
            Schema::from_pairs(&[("id", ColumnType::Int), ("name", ColumnType::Text)]),
            vec![
                ColumnData::Int((0..20).collect()),
                ColumnData::Text((0..20).map(|i| format!("n{i}")).collect()),
            ],
        )
        .unwrap();
        let text_bytes: usize = (0..20).map(|i| 4 + format!("n{i}").len()).sum();
        assert_eq!(
            to_columnar(&distinct).len(),
            19 + 9 + 8 * 20 + 9 + text_bytes
        );
    }

    #[test]
    fn rle_detection_requires_runs() {
        assert!(worth_rle(&[5; 100]));
        let distinct: Vec<i64> = (0..100).collect();
        assert!(!worth_rle(&distinct));
        assert!(!worth_rle(&[1, 1, 1])); // too short
    }

    #[test]
    fn layout_names() {
        assert_eq!(DataLayout::Csv.name(), "csv");
        assert_eq!(DataLayout::Columnar.name(), "parquet");
    }

    #[test]
    fn serialize_dispatches_on_layout() {
        let t = table_with_repetition();
        assert_eq!(serialize(&t, DataLayout::Csv), to_csv(&t));
        assert_eq!(serialize(&t, DataLayout::Columnar), to_columnar(&t));
    }

    #[test]
    fn empty_table_serializes() {
        let schema = Schema::from_pairs(&[("a", ColumnType::Int)]);
        let t = Table::new("empty", schema, vec![ColumnData::Int(vec![])]).unwrap();
        let csv = to_csv(&t);
        assert_eq!(std::str::from_utf8(&csv).unwrap(), "a\n");
        let col = to_columnar(&t);
        assert!(col.starts_with(b"SCOLv1\0"));
    }
}
