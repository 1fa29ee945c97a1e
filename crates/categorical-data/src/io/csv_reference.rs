//! The two-phase reader the streaming [`read_csv_str`](super::read_csv_str)
//! replaced, kept as the reference the differential tests compare against.
//!
//! It splits every line into owned fields first, then codes the records.
//! It differs from the reader it replaced in one way: a row dropped for a
//! missing value interns nothing, neither its feature values nor its class
//! label, so no domain holds a label only dropped rows show.

use crate::{CategoricalTable, DataError, Dataset, FeatureDomain, Schema, MISSING};

use super::{CsvOptions, LabelColumn};

pub(super) fn read_csv_str(text: &str, options: &CsvOptions) -> Result<Dataset, DataError> {
    let mut records = Vec::new();
    for (line_no, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        records.push((line_no + 1, split_record(line, options.delimiter, line_no + 1)?));
    }
    if records.is_empty() {
        return Err(DataError::EmptyTable);
    }

    let header: Option<Vec<String>> =
        if options.has_header { Some(records.remove(0).1) } else { None };
    if records.is_empty() {
        return Err(DataError::EmptyTable);
    }

    let width = records[0].1.len();
    let label_idx = match options.label {
        LabelColumn::None => None,
        LabelColumn::First => Some(0),
        LabelColumn::Last => Some(width - 1),
        LabelColumn::Index(i) => Some(i),
    };
    if let Some(i) = label_idx {
        if i >= width {
            return Err(DataError::Parse {
                line: records[0].0,
                message: format!("label column {i} out of range for {width}-field records"),
            });
        }
    }

    let d = if label_idx.is_some() { width - 1 } else { width };
    let mut domains: Vec<FeatureDomain> = (0..d)
        .map(|r| {
            let fallback = format!("f{r}");
            let feature_name = header
                .as_ref()
                .map(|h| {
                    let mut cols: Vec<&String> = h.iter().collect();
                    if let Some(i) = label_idx {
                        if i < cols.len() {
                            cols.remove(i);
                        }
                    }
                    cols.get(r).map_or(fallback.clone(), |s| (*s).clone())
                })
                .unwrap_or(fallback);
            FeatureDomain::new(feature_name)
        })
        .collect();

    let mut label_domain = FeatureDomain::new("class");
    let mut codes: Vec<u32> = Vec::with_capacity(records.len() * d);
    let mut labels: Vec<usize> = Vec::with_capacity(records.len());

    for (line_no, fields) in &records {
        if fields.len() != width {
            return Err(DataError::Parse {
                line: *line_no,
                message: format!("expected {width} fields, found {}", fields.len()),
            });
        }
        let dropped = options.drop_missing
            && fields.iter().enumerate().any(|(col, field)| {
                Some(col) != label_idx && options.missing_tokens.iter().any(|t| t == field.trim())
            });
        if dropped {
            continue;
        }
        let mut row = Vec::with_capacity(d);
        let mut r = 0usize;
        let mut label_field = "";
        for (col, field) in fields.iter().enumerate() {
            let field = field.trim();
            if Some(col) == label_idx {
                label_field = field;
                continue;
            }
            if options.missing_tokens.iter().any(|t| t == field) {
                row.push(MISSING);
            } else {
                row.push(domains[r].intern(field));
            }
            r += 1;
        }
        codes.extend_from_slice(&row);
        labels.push(if label_idx.is_some() {
            label_domain.intern(label_field) as usize
        } else {
            0
        });
    }

    let schema = Schema::new(domains);
    let table = CategoricalTable::from_flat(schema, codes)?;
    Dataset::new("csv", table, labels)
}

/// Splits one CSV record, honouring double-quoted fields with `""` escapes.
fn split_record(line: &str, delimiter: char, line_no: usize) -> Result<Vec<String>, DataError> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    in_quotes = false;
                }
            } else {
                field.push(c);
            }
        } else if c == '"' {
            in_quotes = true;
        } else if c == delimiter {
            fields.push(std::mem::take(&mut field));
        } else {
            field.push(c);
        }
    }
    if in_quotes {
        return Err(DataError::Parse {
            line: line_no,
            message: "unterminated quoted field".into(),
        });
    }
    fields.push(field);
    Ok(fields)
}
