//! Typed column storage and the in-memory [`Table`].

use crate::error::TableError;
use crate::schema::{ColumnType, Schema};

/// Column values, stored column-major.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// 64-bit integers.
    Int(Vec<i64>),
    /// 64-bit floats.
    Float(Vec<f64>),
    /// Text values.
    Text(Vec<String>),
    /// Dates as days since epoch.
    Date(Vec<i64>),
}

impl ColumnData {
    /// Number of values in the column.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Text(v) => v.len(),
            ColumnData::Date(v) => v.len(),
        }
    }

    /// True when the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The logical type of this column data.
    pub fn column_type(&self) -> ColumnType {
        match self {
            ColumnData::Int(_) => ColumnType::Int,
            ColumnData::Float(_) => ColumnType::Float,
            ColumnData::Text(_) => ColumnType::Text,
            ColumnData::Date(_) => ColumnType::Date,
        }
    }

    /// Render the value at `row` as a string (the CSV cell representation).
    pub fn value_string(&self, row: usize) -> String {
        match self {
            ColumnData::Int(v) => v[row].to_string(),
            ColumnData::Float(v) => format!("{:.2}", v[row]),
            ColumnData::Text(v) => v[row].clone(),
            ColumnData::Date(v) => format_date(v[row]),
        }
    }

    /// Select a subset of rows by index, preserving order.
    pub fn take(&self, rows: &[usize]) -> ColumnData {
        match self {
            ColumnData::Int(v) => ColumnData::Int(rows.iter().map(|&r| v[r]).collect()),
            ColumnData::Float(v) => ColumnData::Float(rows.iter().map(|&r| v[r]).collect()),
            ColumnData::Text(v) => ColumnData::Text(rows.iter().map(|&r| v[r].clone()).collect()),
            ColumnData::Date(v) => ColumnData::Date(rows.iter().map(|&r| v[r]).collect()),
        }
    }

    /// Select a contiguous row range `[start, end)`.
    pub fn slice(&self, start: usize, end: usize) -> ColumnData {
        match self {
            ColumnData::Int(v) => ColumnData::Int(v[start..end].to_vec()),
            ColumnData::Float(v) => ColumnData::Float(v[start..end].to_vec()),
            ColumnData::Text(v) => ColumnData::Text(v[start..end].to_vec()),
            ColumnData::Date(v) => ColumnData::Date(v[start..end].to_vec()),
        }
    }

    /// Compare rows `a` and `b` for sorting.
    fn compare(&self, a: usize, b: usize) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match self {
            ColumnData::Int(v) => v[a].cmp(&v[b]),
            ColumnData::Date(v) => v[a].cmp(&v[b]),
            ColumnData::Float(v) => v[a].partial_cmp(&v[b]).unwrap_or(Ordering::Equal),
            ColumnData::Text(v) => v[a].cmp(&v[b]),
        }
    }
}

/// Render a day-number as an ISO-ish date string (YYYY-MM-DD), treating the
/// epoch as 1992-01-01 (the start of the TPC-H date range) and using a
/// simplified 365-day year / 30-day month calendar. The goal is realistic
/// looking, realistic-entropy date strings, not calendrical accuracy.
pub fn format_date(days_since_epoch: i64) -> String {
    let year = 1992 + days_since_epoch / 365;
    let rem = days_since_epoch % 365;
    let month = (rem / 30).min(11) + 1;
    let day = (rem % 30) + 1;
    format!("{year:04}-{month:02}-{day:02}")
}

/// An in-memory table: a schema plus column-major data.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table name (e.g. "lineitem").
    pub name: String,
    schema: Schema,
    columns: Vec<ColumnData>,
    n_rows: usize,
}

impl Table {
    /// Create a table from a schema and matching column data.
    pub fn new(
        name: impl Into<String>,
        schema: Schema,
        columns: Vec<ColumnData>,
    ) -> Result<Self, TableError> {
        let name = name.into();
        if schema.len() != columns.len() {
            return Err(TableError::InvalidOption(format!(
                "schema has {} columns but {} column arrays were provided",
                schema.len(),
                columns.len()
            )));
        }
        let n_rows = columns.first().map(|c| c.len()).unwrap_or(0);
        for (def, col) in schema.columns().iter().zip(&columns) {
            if col.len() != n_rows {
                return Err(TableError::ColumnLengthMismatch {
                    column: def.name.clone(),
                    expected: n_rows,
                    found: col.len(),
                });
            }
            if col.column_type() != def.column_type {
                return Err(TableError::TypeMismatch {
                    column: def.name.clone(),
                    expected: def.column_type.name(),
                    found: col.column_type().name(),
                });
            }
        }
        Ok(Table {
            name,
            schema,
            columns,
            n_rows,
        })
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_columns(&self) -> usize {
        self.columns.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Column data by index.
    pub fn column(&self, idx: usize) -> &ColumnData {
        &self.columns[idx]
    }

    /// Column data by name.
    pub(crate) fn column_by_name(&self, name: &str) -> Result<&ColumnData, TableError> {
        let idx = self
            .schema
            .index_of(name)
            .ok_or_else(|| TableError::UnknownColumn(name.to_string()))?;
        Ok(&self.columns[idx])
    }

    /// Render one row as CSV cell strings.
    #[cfg(test)]
    fn row_strings(&self, row: usize) -> Result<Vec<String>, TableError> {
        if row >= self.n_rows {
            return Err(TableError::RowOutOfBounds {
                row,
                len: self.n_rows,
            });
        }
        Ok(self.columns.iter().map(|c| c.value_string(row)).collect())
    }

    /// A new table containing only the given rows (in the given order).
    pub fn take_rows(&self, rows: &[usize]) -> Result<Table, TableError> {
        if let Some(&bad) = rows.iter().find(|&&r| r >= self.n_rows) {
            return Err(TableError::RowOutOfBounds {
                row: bad,
                len: self.n_rows,
            });
        }
        Ok(Table {
            name: self.name.clone(),
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.take(rows)).collect(),
            n_rows: rows.len(),
        })
    }

    /// A new table containing the contiguous row range `[start, end)`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Result<Table, TableError> {
        let end = end.min(self.n_rows);
        if start > end {
            return Err(TableError::RowOutOfBounds {
                row: start,
                len: self.n_rows,
            });
        }
        Ok(Table {
            name: self.name.clone(),
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.slice(start, end)).collect(),
            n_rows: end - start,
        })
    }

    /// A new table sorted (stably) by the named column ascending. Used for
    /// the "sorting data" study of the compression predictor.
    pub fn sort_by(&self, column: &str) -> Result<Table, TableError> {
        let col = self.column_by_name(column)?;
        let mut order: Vec<usize> = (0..self.n_rows).collect();
        order.sort_by(|&a, &b| col.compare(a, b));
        self.take_rows(&order)
    }

    /// Split the table into consecutive "files" of at most `rows_per_file`
    /// rows each. This models how a dataset is physically laid out as many
    /// parquet files in the data lake, which is the unit the partitioner
    /// (DATAPART) works with.
    pub fn split_into_files(&self, rows_per_file: usize) -> Result<Vec<Table>, TableError> {
        if rows_per_file == 0 {
            return Err(TableError::InvalidOption(
                "rows_per_file must be > 0".to_string(),
            ));
        }
        let mut files = Vec::new();
        let mut start = 0;
        let mut index = 0usize;
        while start < self.n_rows {
            let end = (start + rows_per_file).min(self.n_rows);
            let mut t = self.slice_rows(start, end)?;
            t.name = format!("{}-file-{:04}", self.name, index);
            files.push(t);
            start = end;
            index += 1;
        }
        Ok(files)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;

    fn small_table() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::new("id", ColumnType::Int),
            ColumnDef::new("price", ColumnType::Float),
            ColumnDef::new("name", ColumnType::Text),
            ColumnDef::new("ship", ColumnType::Date),
        ]);
        Table::new(
            "orders",
            schema,
            vec![
                ColumnData::Int(vec![3, 1, 2]),
                ColumnData::Float(vec![9.5, 2.25, 7.0]),
                ColumnData::Text(vec!["c".into(), "a".into(), "b".into()]),
                ColumnData::Date(vec![10, 400, 35]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_lengths_and_types() {
        let schema = Schema::from_pairs(&[("a", ColumnType::Int), ("b", ColumnType::Float)]);
        let bad_len = Table::new(
            "t",
            schema.clone(),
            vec![ColumnData::Int(vec![1, 2]), ColumnData::Float(vec![1.0])],
        );
        assert!(matches!(
            bad_len,
            Err(TableError::ColumnLengthMismatch { .. })
        ));
        let bad_type = Table::new(
            "t",
            schema.clone(),
            vec![ColumnData::Int(vec![1]), ColumnData::Int(vec![1])],
        );
        assert!(matches!(bad_type, Err(TableError::TypeMismatch { .. })));
        let bad_count = Table::new("t", schema, vec![ColumnData::Int(vec![1])]);
        assert!(bad_count.is_err());
    }

    #[test]
    fn row_strings_and_date_formatting() {
        let t = small_table();
        let row = t.row_strings(0).unwrap();
        assert_eq!(row, vec!["3", "9.50", "c", "1992-01-11"]);
        assert!(t.row_strings(5).is_err());
        assert_eq!(format_date(0), "1992-01-01");
        assert_eq!(format_date(365), "1993-01-01");
    }

    #[test]
    fn take_slice_project_sort() {
        let t = small_table();
        let taken = t.take_rows(&[2, 0]).unwrap();
        assert_eq!(taken.n_rows(), 2);
        assert_eq!(taken.row_strings(0).unwrap()[0], "2");

        let sliced = t.slice_rows(1, 3).unwrap();
        assert_eq!(sliced.n_rows(), 2);
        assert_eq!(sliced.row_strings(0).unwrap()[0], "1");

        let sorted = t.sort_by("id").unwrap();
        let ids: Vec<String> = (0..3)
            .map(|r| sorted.row_strings(r).unwrap()[0].clone())
            .collect();
        assert_eq!(ids, vec!["1", "2", "3"]);
        assert!(t.sort_by("nope").is_err());
    }

    #[test]
    fn out_of_bounds_take_is_rejected() {
        let t = small_table();
        assert!(t.take_rows(&[0, 99]).is_err());
        assert!(t.slice_rows(3, 2).is_err());
    }

    #[test]
    fn split_into_files_covers_all_rows() {
        let t = small_table();
        let files = t.split_into_files(2).unwrap();
        assert_eq!(files.len(), 2);
        assert_eq!(files[0].n_rows(), 2);
        assert_eq!(files[1].n_rows(), 1);
        assert!(files[0].name.contains("file-0000"));
        assert!(t.split_into_files(0).is_err());
    }

    #[test]
    fn column_lookup_by_name() {
        let t = small_table();
        assert_eq!(t.column_by_name("price").unwrap().len(), 3);
        assert!(t.column_by_name("missing").is_err());
        assert_eq!(t.column(0).column_type(), ColumnType::Int);
    }
}
