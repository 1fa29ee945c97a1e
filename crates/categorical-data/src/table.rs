use serde::{Deserialize, Serialize};

use crate::{DataError, Schema, MISSING};

/// A dense, row-major table of categorical value codes — the paper's data
/// set `X = {x_1, …, x_n}` with `x_i ∈ dom(F_1) × … × dom(F_d)`.
///
/// Every entry is a `u32` code into the corresponding [`Schema`] domain, or
/// [`MISSING`](crate::MISSING). Storage is a single contiguous `Vec<u32>`
/// so row access is cache-friendly in the clustering inner loops.
///
/// # Example
///
/// ```
/// use categorical_data::{CategoricalTable, Schema};
///
/// let mut table = CategoricalTable::new(Schema::uniform(2, 3));
/// table.push_row(&[0, 2])?;
/// table.push_row(&[1, 1])?;
/// assert_eq!(table.row(0), &[0, 2]);
/// assert_eq!(table.column(1).collect::<Vec<_>>(), vec![2, 1]);
/// # Ok::<(), categorical_data::DataError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CategoricalTable {
    schema: Schema,
    data: Vec<u32>,
    n_rows: usize,
}

impl CategoricalTable {
    /// Creates an empty table over `schema`.
    pub fn new(schema: Schema) -> Self {
        CategoricalTable { schema, data: Vec::new(), n_rows: 0 }
    }

    /// Creates an empty table and pre-allocates space for `capacity` rows.
    pub fn with_capacity(schema: Schema, capacity: usize) -> Self {
        let d = schema.n_features();
        CategoricalTable { schema, data: Vec::with_capacity(capacity * d), n_rows: 0 }
    }

    /// Builds a table from a flat row-major code buffer.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::RowArity`] if `data.len()` is not a multiple of
    /// the schema arity, and [`DataError::CodeOutOfDomain`] if any code is
    /// neither in-domain nor [`MISSING`](crate::MISSING).
    pub fn from_flat(schema: Schema, data: Vec<u32>) -> Result<Self, DataError> {
        let table = CategoricalTable::from_coded(schema, data)?;
        table.validate()?;
        Ok(table)
    }

    /// [`from_flat`](CategoricalTable::from_flat) for a buffer whose codes a
    /// caller in this crate coded through the schema's own domains: only
    /// the shape is checked, the codes only in debug builds.
    pub(crate) fn from_coded(schema: Schema, data: Vec<u32>) -> Result<Self, DataError> {
        let d = schema.n_features();
        if d == 0 || !data.len().is_multiple_of(d) {
            return Err(DataError::RowArity { expected: d, found: data.len() % d.max(1) });
        }
        let n_rows = data.len() / d;
        let table = CategoricalTable { schema, data, n_rows };
        debug_assert!(table.validate().is_ok(), "a coded buffer holds only domain codes");
        Ok(table)
    }

    /// Builds a table by copying rows of codes.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CategoricalTable::push_row`].
    pub fn from_rows<'a, I>(schema: Schema, rows: I) -> Result<Self, DataError>
    where
        I: IntoIterator<Item = &'a [u32]>,
    {
        let mut table = CategoricalTable::new(schema);
        for row in rows {
            table.push_row(row)?;
        }
        Ok(table)
    }

    fn validate(&self) -> Result<(), DataError> {
        for i in 0..self.n_rows {
            self.validate_row(self.row(i))?;
        }
        Ok(())
    }

    /// Checks that `row` is admissible under this table's schema: correct
    /// arity, and every code either in its feature's domain or
    /// [`MISSING`](crate::MISSING). This is the single validation gate used
    /// by [`push_row`](CategoricalTable::push_row) and
    /// [`replace_row`](CategoricalTable::replace_row), exposed so callers
    /// holding untrusted rows can vet them without mutating the table.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::RowArity`] on arity mismatch and
    /// [`DataError::CodeOutOfDomain`] for the first code that is neither
    /// in-domain nor [`MISSING`](crate::MISSING).
    pub fn validate_row(&self, row: &[u32]) -> Result<(), DataError> {
        let d = self.schema.n_features();
        if row.len() != d {
            return Err(DataError::RowArity { expected: d, found: row.len() });
        }
        for (r, &code) in row.iter().enumerate() {
            let m = self.schema.domain(r).cardinality();
            if code != MISSING && code >= m {
                return Err(DataError::CodeOutOfDomain { feature: r, code, cardinality: m });
            }
        }
        Ok(())
    }

    /// Appends one row of codes.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::RowArity`] on arity mismatch and
    /// [`DataError::CodeOutOfDomain`] if a code is neither in-domain nor
    /// [`MISSING`](crate::MISSING).
    pub fn push_row(&mut self, row: &[u32]) -> Result<(), DataError> {
        self.validate_row(row)?;
        self.data.extend_from_slice(row);
        self.n_rows += 1;
        Ok(())
    }

    /// Overwrites row `i` with `row` (used by bounded streaming reservoirs
    /// that evict retained rows in place).
    ///
    /// # Errors
    ///
    /// Returns [`DataError::RowArity`] on arity mismatch and
    /// [`DataError::CodeOutOfDomain`] if a code is neither in-domain nor
    /// [`MISSING`](crate::MISSING).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.n_rows()`.
    pub fn replace_row(&mut self, i: usize, row: &[u32]) -> Result<(), DataError> {
        assert!(i < self.n_rows, "row index out of bounds");
        self.validate_row(row)?;
        let d = self.schema.n_features();
        self.data[i * d..(i + 1) * d].copy_from_slice(row);
        Ok(())
    }

    /// Number of data objects (the paper's `n`).
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of features (the paper's `d`).
    pub fn n_features(&self) -> usize {
        self.schema.n_features()
    }

    /// `true` when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// The schema describing the features.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The codes of object `i` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.n_rows()`.
    pub fn row(&self, i: usize) -> &[u32] {
        let d = self.schema.n_features();
        &self.data[i * d..(i + 1) * d]
    }

    /// The code of object `i` in feature `r` (the paper's `x_{ir}`).
    ///
    /// # Panics
    ///
    /// Panics if `i` or `r` is out of bounds.
    pub fn value(&self, i: usize, r: usize) -> u32 {
        debug_assert!(r < self.schema.n_features());
        self.data[i * self.schema.n_features() + r]
    }

    /// Iterates over all rows in order.
    pub fn rows(&self) -> RowsIter<'_> {
        RowsIter { table: self, next: 0 }
    }

    /// Iterates over the codes of column `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.n_features()`.
    pub fn column(&self, r: usize) -> impl Iterator<Item = u32> + '_ {
        assert!(r < self.schema.n_features(), "column index out of bounds");
        (0..self.n_rows).map(move |i| self.value(i, r))
    }

    /// The flat row-major code buffer.
    pub fn as_flat(&self) -> &[u32] {
        &self.data
    }

    /// Returns a new table containing the rows selected by `indices`
    /// (in the given order, duplicates allowed).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> CategoricalTable {
        let d = self.schema.n_features();
        let mut data = Vec::with_capacity(indices.len() * d);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        CategoricalTable { schema: self.schema.clone(), data, n_rows: indices.len() }
    }

    /// Returns the indices of rows containing at least one
    /// [`MISSING`](crate::MISSING) entry.
    pub fn rows_with_missing(&self) -> Vec<usize> {
        (0..self.n_rows).filter(|&i| self.row(i).contains(&MISSING)).collect()
    }

    /// Removes all rows containing missing entries, returning how many were
    /// dropped. Mirrors the paper's preprocessing ("data objects with missing
    /// values are omitted").
    pub fn drop_missing(&mut self) -> usize {
        let d = self.schema.n_features();
        let mut kept = Vec::with_capacity(self.data.len());
        let mut kept_rows = 0;
        for i in 0..self.n_rows {
            let row = &self.data[i * d..(i + 1) * d];
            if !row.contains(&MISSING) {
                kept.extend_from_slice(row);
                kept_rows += 1;
            }
        }
        let dropped = self.n_rows - kept_rows;
        self.data = kept;
        self.n_rows = kept_rows;
        dropped
    }
}

/// Iterator over table rows created by [`CategoricalTable::rows`].
#[derive(Debug, Clone)]
pub struct RowsIter<'a> {
    table: &'a CategoricalTable,
    next: usize,
}

impl<'a> Iterator for RowsIter<'a> {
    type Item = &'a [u32];

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.table.n_rows {
            return None;
        }
        let row = self.table.row(self.next);
        self.next += 1;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.table.n_rows - self.next;
        (rem, Some(rem))
    }
}

impl<'a> ExactSizeIterator for RowsIter<'a> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_2x3() -> CategoricalTable {
        let mut t = CategoricalTable::new(Schema::uniform(3, 4));
        t.push_row(&[0, 1, 2]).unwrap();
        t.push_row(&[3, 3, 3]).unwrap();
        t
    }

    #[test]
    fn push_and_access() {
        let t = table_2x3();
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.n_features(), 3);
        assert_eq!(t.row(0), &[0, 1, 2]);
        assert_eq!(t.value(1, 2), 3);
    }

    #[test]
    fn push_row_rejects_wrong_arity() {
        let mut t = CategoricalTable::new(Schema::uniform(3, 4));
        let err = t.push_row(&[0, 1]).unwrap_err();
        assert_eq!(err, DataError::RowArity { expected: 3, found: 2 });
    }

    #[test]
    fn push_row_rejects_out_of_domain_code() {
        let mut t = CategoricalTable::new(Schema::uniform(2, 2));
        let err = t.push_row(&[0, 2]).unwrap_err();
        assert!(matches!(err, DataError::CodeOutOfDomain { feature: 1, code: 2, .. }));
    }

    #[test]
    fn validate_row_checks_without_mutating() {
        let t = table_2x3();
        assert_eq!(t.validate_row(&[0, 0, 0]), Ok(()));
        assert_eq!(t.validate_row(&[MISSING, 0, MISSING]), Ok(()));
        assert_eq!(t.validate_row(&[0, 0]), Err(DataError::RowArity { expected: 3, found: 2 }));
        assert_eq!(
            t.validate_row(&[0, 4, 0]),
            Err(DataError::CodeOutOfDomain { feature: 1, code: 4, cardinality: 4 })
        );
        assert_eq!(t.n_rows(), 2);
    }

    #[test]
    fn missing_codes_are_accepted() {
        let mut t = CategoricalTable::new(Schema::uniform(2, 2));
        t.push_row(&[MISSING, 1]).unwrap();
        assert_eq!(t.rows_with_missing(), vec![0]);
    }

    #[test]
    fn drop_missing_removes_only_offending_rows() {
        let mut t = CategoricalTable::new(Schema::uniform(2, 2));
        t.push_row(&[0, 0]).unwrap();
        t.push_row(&[MISSING, 1]).unwrap();
        t.push_row(&[1, 1]).unwrap();
        assert_eq!(t.drop_missing(), 1);
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.row(1), &[1, 1]);
    }

    #[test]
    fn from_flat_round_trips() {
        let t = table_2x3();
        let t2 = CategoricalTable::from_flat(t.schema().clone(), t.as_flat().to_vec()).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn from_flat_rejects_ragged_buffer() {
        let err = CategoricalTable::from_flat(Schema::uniform(3, 4), vec![0, 1]).unwrap_err();
        assert!(matches!(err, DataError::RowArity { .. }));
    }

    #[test]
    fn select_rows_copies_in_order() {
        let t = table_2x3();
        let sel = t.select_rows(&[1, 0, 1]);
        assert_eq!(sel.n_rows(), 3);
        assert_eq!(sel.row(0), &[3, 3, 3]);
        assert_eq!(sel.row(1), &[0, 1, 2]);
    }

    #[test]
    fn rows_iterator_is_exact_size() {
        let t = table_2x3();
        let it = t.rows();
        assert_eq!(it.len(), 2);
        assert_eq!(it.count(), 2);
    }

    #[test]
    fn column_iterates_values() {
        let t = table_2x3();
        assert_eq!(t.column(0).collect::<Vec<_>>(), vec![0, 3]);
    }
}
