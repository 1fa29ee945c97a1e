use std::fs;
use std::io::{BufWriter, Write};
use std::path::Path;

use crate::{CategoricalTable, DataError, Dataset, FeatureDomain, Schema, MISSING};

/// Which column carries the ground-truth class label.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum LabelColumn {
    /// No label column — produces an unlabeled table wrapped in a dataset
    /// with a single pseudo-class.
    #[default]
    None,
    /// The first column is the class label.
    First,
    /// The last column is the class label (the UCI convention).
    Last,
    /// A 0-based column index is the class label.
    Index(usize),
}

/// Options controlling [`read_csv`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvOptions {
    /// Field delimiter; `,` by default.
    pub delimiter: char,
    /// Whether the first record is a header of feature names.
    pub has_header: bool,
    /// Which column (if any) holds the class label.
    pub label: LabelColumn,
    /// Tokens treated as missing values (UCI uses `?`).
    pub missing_tokens: Vec<String>,
    /// Drop rows containing missing values, as the paper's preprocessing does.
    pub drop_missing: bool,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            delimiter: ',',
            has_header: false,
            label: LabelColumn::Last,
            missing_tokens: vec!["?".to_owned(), "".to_owned()],
            drop_missing: true,
        }
    }
}

/// Reads a delimiter-separated categorical data file from `path`.
///
/// The text is read in one pass. Each field is trimmed, coded through its
/// feature's [`FeatureDomain`] and written straight into the table. No field
/// is copied into an allocation of its own: only a label met for the first
/// time is stored, and a label already seen is looked up without allocating.
/// A line holding `"` is unquoted into one buffer reused from line to line
/// (`"` toggles quoting anywhere in a field, `""` inside quotes is a literal
/// quote).
///
/// Blank lines are skipped but still counted in line numbers. The header,
/// when [`CsvOptions::has_header`] is set, is the first non-blank line, and
/// the first data record fixes the width every record must have. A row
/// dropped for a missing value leaves no trace in any domain: the values it
/// was first to show are forgotten again, and its class label is never
/// interned, so label codes do not depend on which column holds the label.
///
/// # Errors
///
/// Returns [`DataError::Io`] if the file cannot be read,
/// [`DataError::EmptyTable`] if it has no data record, and
/// [`DataError::Parse`] for the first defective line in line order: an
/// unterminated quote, a label column out of range for the first data
/// record, or a record whose width differs from the first data record's.
/// A table the rows cannot form (for instance a label as the only column)
/// gives [`DataError::RowArity`] once every line has been read.
///
/// # Example
///
/// ```no_run
/// use categorical_data::io::{read_csv, CsvOptions};
///
/// let ds = read_csv("data/mushroom.data", &CsvOptions::default())?;
/// println!("{} objects, {} features", ds.n_rows(), ds.n_features());
/// # Ok::<(), categorical_data::DataError>(())
/// ```
pub fn read_csv(path: impl AsRef<Path>, options: &CsvOptions) -> Result<Dataset, DataError> {
    let path = path.as_ref();
    let text = fs::read_to_string(path)?;
    let name =
        path.file_stem().map_or_else(|| "csv".to_owned(), |s| s.to_string_lossy().into_owned());
    read_csv_named(&name, &text, options)
}

/// Reads a delimiter-separated categorical data set from a string.
///
/// # Errors
///
/// Same conditions as [`read_csv`], minus IO.
pub fn read_csv_str(text: &str, options: &CsvOptions) -> Result<Dataset, DataError> {
    read_csv_named("csv", text, options)
}

fn read_csv_named(name: &str, text: &str, options: &CsvOptions) -> Result<Dataset, DataError> {
    let mut coder = Coder::new(options, text);
    let mut unquoted = Unquoted::default();
    // A text without `"` needs no quote test line by line.
    let quoted = text.contains('"');
    // A predicate, not the `char` itself: `str::split(char)` compares a
    // delimiter known only at run time through a call per field, where the
    // predicate's test inlines (half the split's cost on short fields).
    let delimiter = |c: char| c == options.delimiter;
    for (line_no, line) in (1..).zip(text.lines()) {
        if trim(line).is_empty() {
            continue;
        }
        // `Coder::record` is generic, so the common unquoted line gets a
        // loop of its own over fields split in place.
        if quoted && line.contains('"') {
            coder.record(unquoted.split(line, options.delimiter, line_no)?, line_no)?;
        } else {
            coder.record(line.split(delimiter), line_no)?;
        }
    }
    coder.finish(name)
}

/// The reader's state from one record to the next.
struct Coder<'o> {
    options: &'o CsvOptions,
    text: &'o str,
    expect_header: bool,
    header: Vec<String>,
    /// Fixed by the first data record: its width and the label column.
    layout: Option<(usize, Option<usize>)>,
    columns: Vec<Column>,
    label_column: Column,
    codes: Vec<u32>,
    labels: Vec<usize>,
}

impl<'o> Coder<'o> {
    fn new(options: &'o CsvOptions, text: &'o str) -> Self {
        Coder {
            options,
            text,
            expect_header: options.has_header,
            header: Vec::new(),
            layout: None,
            columns: Vec::new(),
            label_column: Column::new(FeatureDomain::new("class")),
            codes: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Takes one non-blank line's fields: the header, or a record coded
    /// straight into the table. Kept out of the line loop: inlined there,
    /// the parse ran 2–5% slower.
    #[inline(never)]
    fn record<'a>(
        &mut self,
        fields: impl Iterator<Item = &'a str> + Clone,
        line_no: usize,
    ) -> Result<(), DataError> {
        if self.expect_header {
            self.expect_header = false;
            self.header = fields.map(str::to_owned).collect();
            return Ok(());
        }
        let (width, label_idx) = match self.layout {
            Some(layout) => layout,
            None => {
                let width = fields.clone().count();
                let label_idx = label_index(self.options.label, width, line_no)?;
                self.columns = feature_columns(&self.header, width, label_idx);
                let rows = max_records(self.text, width);
                self.codes.reserve(rows * self.columns.len());
                self.labels.reserve(rows);
                *self.layout.insert((width, label_idx))
            }
        };
        // No field index reaches `usize::MAX`, so without a label column
        // every field is a feature.
        let label = label_idx.unwrap_or(usize::MAX);
        let missing = self.options.missing_tokens.as_slice();
        let drop_missing = self.options.drop_missing;
        let columns = self.columns.as_mut_slice();
        let codes = &mut self.codes;

        let row_start = codes.len();
        let mut label_field = "";
        let mut missing_seen = false;
        let mut found = 0;
        for field in fields {
            if found < width {
                let field = trim(field);
                if found == label {
                    label_field = field;
                } else {
                    let code =
                        columns[found - usize::from(found > label)].code(field, missing, line_no);
                    missing_seen |= code == MISSING;
                    codes.push(code);
                }
            }
            found += 1;
        }
        // Past the width only the count matters: the row is an error.
        if found != width {
            return Err(DataError::Parse {
                line: line_no,
                message: format!("expected {width} fields, found {found}"),
            });
        }
        let kept = !(missing_seen && drop_missing);
        if kept {
            let class = label_idx.map_or(0, |_| self.label_column.code(label_field, &[], line_no));
            self.labels.push(class as usize);
        } else {
            self.codes.truncate(row_start);
            for column in &mut self.columns {
                column.forget_from(line_no);
            }
        }
        Ok(())
    }

    fn finish(self, name: &str) -> Result<Dataset, DataError> {
        if self.layout.is_none() {
            return Err(DataError::EmptyTable);
        }
        let schema = Schema::new(self.columns.into_iter().map(|column| column.domain).collect());
        // Every code is one `Column::code` returned: interned, or MISSING.
        let table = CategoricalTable::from_coded(schema, self.codes)?;
        Dataset::new(name, table, self.labels)
    }
}

/// Resolves `label` against a `width`-field record on line `line`.
fn label_index(label: LabelColumn, width: usize, line: usize) -> Result<Option<usize>, DataError> {
    let index = match label {
        LabelColumn::None => return Ok(None),
        LabelColumn::First => 0,
        LabelColumn::Last => width - 1,
        LabelColumn::Index(i) => i,
    };
    if index >= width {
        return Err(DataError::Parse {
            line,
            message: format!("label column {index} out of range for {width}-field records"),
        });
    }
    Ok(Some(index))
}

/// One empty column per feature, named from `header` with the label column
/// skipped, or `f{r}` where the header has no name for it.
fn feature_columns(header: &[String], width: usize, label_idx: Option<usize>) -> Vec<Column> {
    let mut names: Vec<&String> = header.iter().collect();
    if let Some(i) = label_idx.filter(|&i| i < names.len()) {
        names.remove(i);
    }
    let d = if label_idx.is_some() { width - 1 } else { width };
    (0..d)
        .map(|r| {
            let name = names.get(r).map_or_else(|| format!("f{r}"), |name| (*name).clone());
            Column::new(FeatureDomain::new(name))
        })
        .collect()
}

/// Upper bound on the `width`-field records in `text`, for reserving the
/// table once: its line count, but never more than `text` has bytes for,
/// since every record but the last takes at least `width` bytes with its
/// newline (so blank lines cannot inflate the reservation). The newlines
/// are tallied in byte-wide counters, 255 bytes at a time, so the count
/// vectorizes.
fn max_records(text: &str, width: usize) -> usize {
    let chunk_count =
        |chunk: &[u8]| chunk.iter().fold(0u8, |n, &b| n + u8::from(b == b'\n')) as usize;
    let lines = text.as_bytes().chunks(255).map(chunk_count).sum::<usize>() + 1;
    lines.min(text.len() / width + 1)
}

/// `field.trim()`, without the Unicode whitespace test when both ends are
/// visible ASCII (which no trim removes). Only that test is inlined into
/// the per-field loop.
#[inline(always)]
fn trim(field: &str) -> &str {
    let bytes = field.as_bytes();
    if bytes.first().is_some_and(u8::is_ascii_graphic)
        && bytes.last().is_some_and(u8::is_ascii_graphic)
    {
        field
    } else {
        unicode_trim(field)
    }
}

#[inline(never)]
fn unicode_trim(field: &str) -> &str {
    field.trim()
}

/// Slots in a [`Column`]'s memo of recent codes (a power of two).
const RECENT: usize = 64;

/// Labels of at most this many bytes are held whole in a memo key.
const INLINE: usize = 15;

/// A field's memo key: a label of at most [`INLINE`] bytes whole, zero
/// padded, with its length in the top byte, so two such keys are equal
/// exactly when the labels are. A longer label keeps its first 8 and last 7
/// bytes and a length byte above `INLINE`; its key can be shared, so a hit
/// on it is confirmed against the domain.
fn memo_key(field: &str) -> [u64; 2] {
    let b = field.as_bytes();
    let len = b.len();
    let word = |at: usize| u64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"));
    let half =
        |at: usize| u64::from(u32::from_le_bytes(b[at..at + 4].try_into().expect("4 bytes")));
    let (lo, hi) = match len {
        0 => (0, 0),
        // Bytes 0, len/2 and len-1 cover every byte of a 1–3-byte label.
        1..=3 => {
            let byte = |i: usize| u64::from(b[i]) << (8 * i);
            (byte(0) | byte(len / 2) | byte(len - 1), 0)
        }
        // Two overlapping 4-byte loads; the second keeps bytes 4..len.
        4..=7 => (half(0) | (half(len - 4) >> (8 * (8 - len))) << 32, 0),
        // Two overlapping 8-byte loads; the second keeps bytes 8..len, or
        // the last 7 bytes of a longer label.
        _ => (word(0), (word(len - 8) >> 8) >> (8 * (INLINE - len.min(INLINE)))),
    };
    [lo, hi | (len.min(255) as u64) << 56]
}

/// The memo slot of `key`: the top bits of a multiplicative hash.
fn memo_slot(key: [u64; 2]) -> usize {
    let mix = (key[0] ^ key[1]).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (mix >> (64 - RECENT.trailing_zeros())) as usize
}

/// One memo slot: a key and the code it was last seen with. `EMPTY`'s key
/// needs `0xFF` bytes, which no UTF-8 text holds, so it never hits.
#[derive(Clone, Copy)]
struct Slot {
    key: [u64; 2],
    code: u32,
}

impl Slot {
    const EMPTY: Slot = Slot { key: [u64::MAX; 2], code: MISSING };
}

/// One column's domain, with a direct-mapped memo from [`memo_key`] to the
/// code (or [`MISSING`], for a missing token) last seen under that key. A
/// hit on a label of at most [`INLINE`] bytes is two integer comparisons; a
/// longer label's hit is confirmed against the domain's label. A miss (a new
/// key, or two keys sharing a slot) falls back to the missing tokens and
/// [`FeatureDomain::intern`] with its keyed `HashMap`, so no input makes a
/// lookup much dearer than that.
struct Column {
    domain: FeatureDomain,
    memo: [Slot; RECENT],
    /// The line whose record interned the domain's newest label (0: none),
    /// so a record dropped later on that line can forget it again.
    newest_from: usize,
}

impl Column {
    fn new(domain: FeatureDomain) -> Self {
        Column { domain, memo: [Slot::EMPTY; RECENT], newest_from: 0 }
    }

    /// The code of `field`, met in the record on line `line_no`: [`MISSING`]
    /// if it is one of `missing`, else its domain code.
    #[inline(always)]
    fn code(&mut self, field: &str, missing: &[String], line_no: usize) -> u32 {
        let key = memo_key(field);
        let slot = memo_slot(key);
        let Slot { key: held, code } = self.memo[slot];
        if held == key && (field.len() <= INLINE || self.domain.label(code) == Some(field)) {
            return code;
        }
        self.miss(field, key, slot, missing, line_no)
    }

    /// [`Column::code`] past the memo: codes `field` and stores it in `slot`.
    #[inline(never)]
    fn miss(
        &mut self,
        field: &str,
        key: [u64; 2],
        slot: usize,
        missing: &[String],
        line_no: usize,
    ) -> u32 {
        let code = if missing.iter().any(|t| t == field) {
            MISSING
        } else {
            let fresh = self.domain.cardinality();
            let code = self.domain.intern(field);
            if code == fresh {
                self.newest_from = line_no;
            }
            code
        };
        self.memo[slot] = Slot { key, code };
        code
    }

    /// Forgets the label the record on line `line_no` was first to show, if
    /// any, with every memo slot holding its code (which the next new label
    /// takes). One value per column per record means it can only be the
    /// domain's newest.
    fn forget_from(&mut self, line_no: usize) {
        if self.newest_from != line_no {
            return;
        }
        self.newest_from = 0;
        self.domain.forget_newest();
        let code = self.domain.cardinality();
        for slot in self.memo.iter_mut().filter(|slot| slot.code == code) {
            *slot = Slot::EMPTY;
        }
    }
}

/// A buffer that quoted lines are unquoted into, reused from line to line,
/// with each field's end offset in `ends`.
#[derive(Default)]
struct Unquoted {
    text: String,
    ends: Vec<usize>,
}

impl Unquoted {
    /// Splits `line`: `"` toggles quoting anywhere, `""` inside quotes is a
    /// literal quote, and the delimiter inside quotes is text.
    fn split<'a>(
        &'a mut self,
        line: &str,
        delimiter: char,
        line_no: usize,
    ) -> Result<impl Iterator<Item = &'a str> + Clone, DataError> {
        self.text.clear();
        self.ends.clear();
        let mut in_quotes = false;
        let mut chars = line.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '"' if in_quotes && chars.peek() == Some(&'"') => {
                    chars.next();
                    self.text.push('"');
                }
                '"' => in_quotes = !in_quotes,
                c if c == delimiter && !in_quotes => self.ends.push(self.text.len()),
                c => self.text.push(c),
            }
        }
        if in_quotes {
            return Err(DataError::Parse {
                line: line_no,
                message: "unterminated quoted field".into(),
            });
        }
        self.ends.push(self.text.len());
        let text = self.text.as_str();
        Ok(self.ends.iter().scan(0, move |start, &end| {
            let field = &text[*start..end];
            *start = end;
            Some(field)
        }))
    }
}

/// Writes `dataset` as CSV with the class label in the last column.
///
/// A value holding `,` or `"` is written quoted, with `"` doubled, so the
/// file reads back through [`read_csv`] with the default options.
///
/// # Errors
///
/// Returns [`DataError::UnwritableLabel`], before creating the file, for the
/// first domain label that would not read back as itself: one equal to a
/// default missing token (`?` or empty), with leading or trailing
/// whitespace, or holding a line break. Returns [`DataError::Io`] if the
/// file cannot be written.
pub fn write_csv(dataset: &Dataset, path: impl AsRef<Path>) -> Result<(), DataError> {
    let table = dataset.table();
    let missing = CsvOptions::default().missing_tokens;
    for (feature, domain) in table.schema().iter().enumerate() {
        if let Some((_, label)) = domain.iter().find(|&(_, label)| {
            missing.iter().any(|t| t == label)
                || label.trim() != label
                || label.contains(['\n', '\r'])
        }) {
            return Err(DataError::UnwritableLabel { feature, label: label.to_owned() });
        }
    }
    let mut out = BufWriter::new(fs::File::create(path)?);
    for (row, label) in table.rows().zip(dataset.labels()) {
        for (r, &code) in row.iter().enumerate() {
            let field = if code == MISSING {
                "?"
            } else {
                table.schema().domain(r).label(code).unwrap_or("?")
            };
            write_field(&mut out, field)?;
            out.write_all(b",")?;
        }
        writeln!(out, "c{label}")?;
    }
    out.flush()?;
    Ok(())
}

/// Writes one field, quoted when it holds the delimiter or a quote.
fn write_field(out: &mut impl Write, field: &str) -> std::io::Result<()> {
    if !field.contains([',', '"']) {
        return out.write_all(field.as_bytes());
    }
    out.write_all(b"\"")?;
    for (i, part) in field.split('"').enumerate() {
        if i > 0 {
            out.write_all(b"\"\"")?;
        }
        out.write_all(part.as_bytes())?;
    }
    out.write_all(b"\"")
}

#[cfg(test)]
mod tests {
    use proptest::test_runner::TestRng;

    use super::super::csv_reference;
    use super::*;

    #[test]
    fn parses_simple_csv_with_last_label() {
        let ds = read_csv_str("a,x,yes\nb,y,no\na,y,yes\n", &CsvOptions::default()).unwrap();
        assert_eq!(ds.n_rows(), 3);
        assert_eq!(ds.n_features(), 2);
        assert_eq!(ds.k_true(), 2);
        assert_eq!(ds.table().value(2, 0), 0); // "a" interned first
    }

    #[test]
    fn drops_missing_rows_by_default() {
        let ds = read_csv_str("a,x,yes\n?,y,no\nb,z,no\n", &CsvOptions::default()).unwrap();
        assert_eq!(ds.n_rows(), 2);
    }

    #[test]
    fn keeps_missing_when_requested() {
        let options = CsvOptions { drop_missing: false, ..CsvOptions::default() };
        let ds = read_csv_str("a,x,yes\n?,y,no\n", &options).unwrap();
        assert_eq!(ds.n_rows(), 2);
        assert_eq!(ds.table().value(1, 0), MISSING);
    }

    #[test]
    fn header_names_features() {
        let options = CsvOptions { has_header: true, ..CsvOptions::default() };
        let ds = read_csv_str("color,shape,class\nred,round,a\nblue,square,b\n", &options).unwrap();
        assert_eq!(ds.table().schema().domain(0).name(), "color");
        assert_eq!(ds.table().schema().domain(1).name(), "shape");
    }

    #[test]
    fn quoted_fields_with_embedded_delimiters() {
        let ds = read_csv_str("\"a,b\",x,yes\nc,y,no\n", &CsvOptions::default()).unwrap();
        assert_eq!(ds.table().schema().domain(0).label(0), Some("a,b"));
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        let err = read_csv_str("\"abc,x,yes\n", &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, DataError::Parse { line: 1, .. }));
    }

    #[test]
    fn ragged_rows_are_an_error() {
        let err = read_csv_str("a,x,yes\nb,no\n", &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, DataError::Parse { line: 2, .. }));
    }

    #[test]
    fn first_and_index_label_columns() {
        let options = CsvOptions { label: LabelColumn::First, ..CsvOptions::default() };
        let ds = read_csv_str("yes,a,x\nno,b,y\n", &options).unwrap();
        assert_eq!(ds.k_true(), 2);
        assert_eq!(ds.table().schema().domain(0).label(0), Some("a"));

        let options = CsvOptions { label: LabelColumn::Index(1), ..CsvOptions::default() };
        let ds = read_csv_str("a,yes,x\nb,no,y\n", &options).unwrap();
        assert_eq!(ds.k_true(), 2);
        assert_eq!(ds.n_features(), 2);
    }

    #[test]
    fn no_label_column_gives_single_class() {
        let options = CsvOptions { label: LabelColumn::None, ..CsvOptions::default() };
        let ds = read_csv_str("a,x\nb,y\n", &options).unwrap();
        assert_eq!(ds.k_true(), 1);
        assert_eq!(ds.n_features(), 2);
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(matches!(read_csv_str("", &CsvOptions::default()), Err(DataError::EmptyTable)));
    }

    #[test]
    fn round_trip_through_file() {
        let ds = read_csv_str(
            "\"a,b\",x,yes\nc,\"say \"\"hi\"\"\",no\na,x,no\n",
            &CsvOptions::default(),
        )
        .unwrap();
        assert_eq!(ds.table().schema().domain(1).label(1), Some("say \"hi\""));
        let dir = std::env::temp_dir().join("categorical-data-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round_trip.csv");
        write_csv(&ds, &path).unwrap();
        let back = read_csv(&path, &CsvOptions::default()).unwrap();
        assert_eq!(back.table(), ds.table());
        assert_eq!(back.labels(), ds.labels());
        assert_eq!(back.k_true(), 2);
    }

    #[test]
    fn label_codes_do_not_depend_on_the_label_column() {
        let first = CsvOptions { label: LabelColumn::First, ..CsvOptions::default() };
        let first = read_csv_str("yes,a,x\nmaybe,?,y\nno,b,z\n", &first).unwrap();
        let last = read_csv_str("a,x,yes\n?,y,maybe\nb,z,no\n", &CsvOptions::default()).unwrap();
        assert_eq!(first.labels(), &[0, 1]);
        assert_eq!(first.labels(), last.labels());
        assert_eq!(first.k_true(), last.k_true());
    }

    #[test]
    fn the_first_defect_by_line_is_reported() {
        let err = read_csv_str("a,x,yes\nb,no\n\"c,y,no\n", &CsvOptions::default()).unwrap_err();
        assert_eq!(err, DataError::Parse { line: 2, message: "expected 3 fields, found 2".into() });
        let options = CsvOptions { label: LabelColumn::Index(5), ..CsvOptions::default() };
        let err = read_csv_str("\n a,x,yes\n\"b,y,no\n", &options).unwrap_err();
        assert!(matches!(err, DataError::Parse { line: 2, .. }), "{err:?}");
    }

    #[test]
    fn a_dropped_row_forgets_the_values_it_was_first_to_show() {
        let ds = read_csv_str("a,x,yes\nb,?,no\nc,z,no", &CsvOptions::default()).unwrap();
        assert_eq!(ds.n_rows(), 2);
        assert_eq!(domain_labels(&ds, 0), ["a", "c"]);
        assert_eq!(domain_labels(&ds, 1), ["x", "z"]);
        assert_eq!((ds.table().value(0, 0), ds.table().value(1, 0)), (0, 1));
        // A value seen before the dropped row stays, and one the dropped row
        // shows again after a forget is coded afresh.
        let ds = read_csv_str("a,x,y\nb,?,n\nb,a,y\na,?,n", &CsvOptions::default()).unwrap();
        assert_eq!(domain_labels(&ds, 0), ["a", "b"]);
        assert_eq!(domain_labels(&ds, 1), ["x", "a"]);
    }

    fn domain_labels(ds: &Dataset, r: usize) -> Vec<String> {
        ds.table().schema().domain(r).iter().map(|(_, l)| l.to_owned()).collect()
    }

    #[test]
    fn write_csv_rejects_labels_that_cannot_read_back() {
        let write = |labels: &[&str]| {
            let schema = Schema::new(vec![FeatureDomain::with_labels("f", labels.iter().copied())]);
            let table = CategoricalTable::from_flat(schema, (0..labels.len() as u32).collect());
            let ds = Dataset::new("unwritable", table.unwrap(), vec![0; labels.len()]).unwrap();
            let path = std::env::temp_dir().join("categorical-data-unwritable.csv");
            let _ = std::fs::remove_file(&path);
            let result = write_csv(&ds, &path);
            assert!(!path.exists(), "nothing is written for a rejected dataset");
            result.map_err(|e| match e {
                DataError::UnwritableLabel { feature: 0, label } => label,
                other => panic!("{other:?}"),
            })
        };
        // `?` would read back as a missing value (dropping its row) and
        // ` pad` trimmed to `pad`.
        assert_eq!(write(&["?", " pad", "ok"]), Err("?".to_owned()));
        for label in [" pad", "pad ", "", "a\nb"] {
            assert_eq!(write(&["ok", label]), Err(label.to_owned()));
        }
    }

    #[test]
    fn memo_slot_collisions_fall_back_to_the_domain() {
        // A one-byte label sharing the slot of "a".
        let slot = |label: &str| memo_slot(memo_key(label));
        let other = (b'!'..=b'~')
            .map(|b| char::from(b).to_string())
            .find(|label| label != "a" && slot(label) == slot("a"))
            .expect("a printable byte shares the slot of \"a\"");
        let mut column = Column::new(FeatureDomain::new("f"));
        let labels = ["a", &other, "a", "b", &other, &other, "a", "b"];
        let codes: Vec<u32> = labels.iter().map(|l| column.code(l, &[], 1)).collect();
        assert_eq!(codes, [0, 1, 0, 2, 1, 1, 0, 2]);
        assert_eq!(column.domain, FeatureDomain::with_labels("f", ["a", &other, "b"]));
    }

    #[test]
    fn memo_keys_tell_inline_labels_apart_and_confirm_longer_ones() {
        let labels = [
            "",
            "a",
            "a\0",
            "ab",
            "abc",
            "abcd",
            "abcdefg",
            "abcdefgh",
            "abcdefghi",
            "fifteen_bytes_x",
            "fifteen_bytes_y",
            "fourteen_bytes\u{e9}",
            "fourteen_bytes\u{e8}",
        ];
        for (i, a) in labels.iter().enumerate() {
            for b in &labels[i + 1..] {
                assert_ne!(memo_key(a), memo_key(b), "{a:?} vs {b:?}");
            }
        }
        // Longer labels with the same first 8 and last 7 bytes share a key,
        // so a hit on one is checked against the domain.
        let (x, y) = ("abcdefgh-1-klmnopq", "abcdefgh-2-klmnopq");
        assert_eq!(memo_key(x), memo_key(y));
        let mut column = Column::new(FeatureDomain::new("f"));
        let codes: Vec<u32> = [x, y, x, y].iter().map(|l| column.code(l, &[], 1)).collect();
        assert_eq!(codes, [0, 1, 0, 1]);
    }

    #[test]
    fn a_forgotten_code_is_cleared_from_the_memo() {
        let missing = ["?".to_owned()];
        let mut column = Column::new(FeatureDomain::new("f"));
        assert_eq!(column.code("a", &missing, 1), 0);
        // Line 2 is dropped: "z" was first shown there.
        assert_eq!(column.code("z", &missing, 2), 1);
        column.forget_from(2);
        // A kept row's new label takes the forgotten code ...
        assert_eq!(column.code("y", &missing, 3), 1);
        // ... so "z" must not hit its stale slot.
        assert_eq!(column.code("z", &missing, 4), 2);
        assert_eq!(column.code("?", &missing, 5), MISSING);
        assert_eq!(column.domain, FeatureDomain::with_labels("f", ["a", "y", "z"]));

        let text = "a,x,c1\nz,?,c2\ny,x,c1\nz,x,c2\n";
        let ds = read_csv_str(text, &CsvOptions::default()).unwrap();
        assert_eq!(domain_labels(&ds, 0), ["a", "y", "z"]);
        assert_eq!(ds.table().column(0).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(Ok(ds), csv_reference::read_csv_str(text, &CsvOptions::default()));
    }

    /// Generated CSV text with at most one defect, and options to read it
    /// with: quoting (also mid-field), `""` escapes, LF or CRLF, blank lines,
    /// padding, missing tokens, a header, every label column, and ASCII and
    /// multi-byte delimiters.
    fn generated_case(rng: &mut TestRng) -> (String, CsvOptions) {
        const VALUES: [&str; 18] = [
            "a",
            "b",
            "v1",
            "\u{e9}t\u{e9}",
            "  a ",
            "?",
            "",
            " ? ",
            "x y",
            "a,b",
            "say \"hi\"",
            "NA",
            // Longer than a memo key holds whole, and a pair sharing the
            // key of such a label (first 8 and last 7 bytes).
            "abcdefgh-1-klmnopq",
            "abcdefgh-2-klmnopq",
            // The whole inline prefix of a longer label, and multi-byte
            // characters straddling its end.
            "fifteen_bytes_x",
            "fifteen_bytes_x;\u{e9}",
            "fourteen_bytes\u{e9}",
            "fourteen_bytes\u{e8}\u{a6}",
        ];
        let pick = |rng: &mut TestRng, n: usize| rng.below(n as u64) as usize;
        let delimiter = [',', ';', '\t', '\u{a6}'][pick(rng, 4)];
        let width = 1 + pick(rng, 4);
        let n_rows = pick(rng, 8);
        // 0: none, 1: ragged row, 2: unterminated quote, 3: label out of range.
        let defect = if pick(rng, 3) == 0 { 1 + pick(rng, 3) } else { 0 };
        let label = match (defect, pick(rng, 4)) {
            (3, _) => LabelColumn::Index(width + pick(rng, 2)),
            (_, 0) => LabelColumn::None,
            (_, 1) => LabelColumn::First,
            (_, 2) => LabelColumn::Last,
            _ => LabelColumn::Index(pick(rng, width)),
        };
        let mut missing_tokens = vec!["?".to_owned(), "".to_owned()];
        if pick(rng, 2) == 0 {
            missing_tokens.push("NA".to_owned());
        }
        let options = CsvOptions {
            delimiter,
            has_header: pick(rng, 2) == 0,
            label,
            missing_tokens,
            drop_missing: pick(rng, 2) == 0,
        };

        let encode = |rng: &mut TestRng, value: &str| {
            let mut padding = || {
                let padding = ["", " ", "\t ", "\u{3000}"][pick(rng, 4)];
                if delimiter == '\t' {
                    padding.trim_start()
                } else {
                    padding
                }
            };
            let (lead, trail) = (padding(), padding());
            let body = if value.contains([delimiter, '"']) || pick(rng, 6) == 0 {
                format!("\"{}\"", value.replace('"', "\"\""))
            } else if value.len() > 1 && pick(rng, 8) == 0 {
                let (head, tail) = value.split_at(value.chars().next().unwrap().len_utf8());
                format!("{head}\"{tail}\"")
            } else {
                value.to_owned()
            };
            format!("{lead}{body}{trail}")
        };
        let mut lines: Vec<String> = Vec::new();
        if options.has_header {
            let names: Vec<String> = (0..width).map(|c| encode(rng, &format!("h{c}"))).collect();
            lines.push(names.join(&delimiter.to_string()));
        }
        for _ in 0..n_rows {
            let fields: Vec<String> = (0..width)
                .map(|_| {
                    let value = VALUES[pick(rng, VALUES.len())];
                    encode(rng, value)
                })
                .collect();
            lines.push(fields.join(&delimiter.to_string()));
        }
        let first_row = usize::from(options.has_header);
        match defect {
            // Not the first data record, which sets the width.
            1 if n_rows >= 2 => {
                let line = &mut lines[first_row + 1 + pick(rng, n_rows - 1)];
                if width > 1 && pick(rng, 2) == 0 {
                    let cut = line.rfind(delimiter).unwrap();
                    line.truncate(cut);
                } else {
                    line.push(delimiter);
                    line.push('z');
                }
            }
            2 if !lines.is_empty() => {
                let i = pick(rng, lines.len());
                lines[i].push_str("\"open");
            }
            _ => {}
        }
        let newline = if pick(rng, 2) == 0 { "\n" } else { "\r\n" };
        let mut text = String::new();
        for line in &lines {
            for _ in 0..pick(rng, 4).saturating_sub(2) {
                text.push_str(["", "  ", "\t"][pick(rng, 3)]);
                text.push_str(newline);
            }
            text.push_str(line);
            text.push_str(newline);
        }
        if pick(rng, 4) == 0 {
            text.truncate(text.len().saturating_sub(newline.len()));
        }
        (text, options)
    }

    /// One large generated file per delimiter and `drop_missing` setting:
    /// enough rows and distinct labels (1–24 bytes, ASCII and multi-byte)
    /// to reuse every memo slot many times over, as a real file does.
    #[test]
    fn a_large_file_matches_the_reference_reader() {
        const ROWS: usize = 3000;
        const WIDTH: usize = 6;
        let mut rng = TestRng::new(0x1A46_E5F0);
        let pick = |rng: &mut TestRng, n: usize| rng.below(n as u64) as usize;
        let alphabet: Vec<char> = "abcxyz019_-\u{e9}\u{df}\u{20ac}\u{a6}".chars().collect();
        for delimiter in [',', ';', '\t', '\u{a6}'] {
            // Per column, 120 labels of 1–24 bytes without the delimiter.
            let pools: Vec<Vec<String>> = (0..WIDTH)
                .map(|_| {
                    let mut pool = Vec::new();
                    while pool.len() < 120 {
                        let bytes = 1 + pick(&mut rng, 24);
                        let mut label = String::new();
                        while label.len() < bytes {
                            let c = alphabet[pick(&mut rng, alphabet.len())];
                            if c != delimiter && label.len() + c.len_utf8() <= bytes {
                                label.push(c);
                            } else if label.len() < bytes {
                                label.push('q');
                            }
                        }
                        pool.push(label);
                    }
                    pool
                })
                .collect();
            let mut text = String::new();
            for _ in 0..ROWS {
                let fields: Vec<&str> = pools
                    .iter()
                    .map(|pool| match pick(&mut rng, 200) {
                        0 => "?",
                        1 => "",
                        // A skewed draw, so some labels recur often.
                        _ => {
                            let upto = 1 + pick(&mut rng, pool.len());
                            &pool[pick(&mut rng, upto)]
                        }
                    })
                    .collect();
                text.push_str(&fields.join(&delimiter.to_string()));
                text.push('\n');
            }
            for drop_missing in [true, false] {
                let options = CsvOptions { delimiter, drop_missing, ..CsvOptions::default() };
                let got = read_csv_str(&text, &options);
                let want = csv_reference::read_csv_str(&text, &options);
                assert_eq!(got, want, "{options:?}");
                let ds = got.unwrap();
                assert!(ds.n_rows() > ROWS / 2, "{options:?}: {} rows", ds.n_rows());
                assert!(ds.table().schema().domain(0).cardinality() > 100);
            }
        }
    }

    #[test]
    fn streaming_reader_matches_the_reference_reader() {
        let mut rng = TestRng::new(0x5EED_C5F0);
        let mut outcomes = std::collections::BTreeMap::new();
        for case in 0..4000 {
            let (text, options) = generated_case(&mut rng);
            let got = read_csv_str(&text, &options);
            let want = csv_reference::read_csv_str(&text, &options);
            assert_eq!(got, want, "case {case}: {options:?}\n{text:?}");
            let outcome = match &got {
                Ok(_) => "ok",
                Err(DataError::Parse { message, .. }) if message.starts_with("expected") => "arity",
                Err(DataError::Parse { message, .. }) if message.starts_with("label") => "label",
                Err(DataError::Parse { .. }) => "quote",
                Err(DataError::EmptyTable) => "empty",
                Err(_) => "other",
            };
            *outcomes.entry(outcome).or_insert(0) += 1;
        }
        for outcome in ["ok", "arity", "label", "quote", "empty", "other"] {
            assert!(outcomes.get(outcome).is_some_and(|&n| n >= 20), "{outcomes:?}");
        }
    }
}
