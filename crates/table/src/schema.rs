//! Column types, column definitions and table schemas.

use serde::{Deserialize, Serialize};

/// Logical type of a column.
///
/// The COMPREDICT weighted-entropy features are computed *per data type*
/// present in a partition (`H(P, d)` with `d ∈ D`), so the type taxonomy
/// here deliberately matches the paper's "int, float, object" grouping plus
/// dates, which TPC-H uses heavily.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ColumnType {
    /// 64-bit signed integers.
    Int,
    /// 64-bit floats (prices, discounts, quantities).
    Float,
    /// Variable-length text ("object" dtype in the paper's terms).
    Text,
    /// Dates stored as days since an epoch.
    Date,
}

impl ColumnType {
    /// Short lowercase name used in feature names and reports.
    pub fn name(&self) -> &'static str {
        match self {
            ColumnType::Int => "int",
            ColumnType::Float => "float",
            ColumnType::Text => "object",
            ColumnType::Date => "date",
        }
    }

    /// All column types, in a stable order (used to build fixed-width
    /// feature vectors).
    pub fn all() -> [ColumnType; 4] {
        [
            ColumnType::Int,
            ColumnType::Float,
            ColumnType::Text,
            ColumnType::Date,
        ]
    }
}

impl std::fmt::Display for ColumnType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A named, typed column in a schema.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Column type.
    pub column_type: ColumnType,
}

impl ColumnDef {
    /// Create a column definition.
    pub fn new(name: impl Into<String>, column_type: ColumnType) -> Self {
        ColumnDef {
            name: name.into(),
            column_type,
        }
    }
}

/// An ordered list of column definitions.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Schema {
    columns: Vec<ColumnDef>,
}

impl Schema {
    /// Create a schema from column definitions.
    pub fn new(columns: Vec<ColumnDef>) -> Self {
        Schema { columns }
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn from_pairs(pairs: &[(&str, ColumnType)]) -> Self {
        Schema {
            columns: pairs.iter().map(|(n, t)| ColumnDef::new(*n, *t)).collect(),
        }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Ordered column definitions.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Index of a column by name.
    pub(crate) fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Type of a named column.
    pub fn column_type(&self, name: &str) -> Option<ColumnType> {
        self.index_of(name).map(|i| self.columns[i].column_type)
    }

    /// Names of all columns, in order.
    pub fn names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_lookup() {
        let s = Schema::from_pairs(&[
            ("id", ColumnType::Int),
            ("price", ColumnType::Float),
            ("comment", ColumnType::Text),
        ]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.index_of("price"), Some(1));
        assert_eq!(s.index_of("missing"), None);
        assert_eq!(s.column_type("comment"), Some(ColumnType::Text));
        assert_eq!(s.names(), vec!["id", "price", "comment"]);
        assert!(!s.is_empty());
    }

    #[test]
    fn column_type_names_are_stable() {
        assert_eq!(ColumnType::Int.name(), "int");
        assert_eq!(ColumnType::Text.name(), "object");
        assert_eq!(ColumnType::all().len(), 4);
        assert_eq!(format!("{}", ColumnType::Date), "date");
    }
}
