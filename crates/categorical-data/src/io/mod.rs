//! Loading and saving categorical data sets.
//!
//! The loader is dependency-free and understands the comma/semicolon-separated
//! layouts the UCI repository ships its categorical sets in, so the real
//! Car/Mushroom/Nursery/… files can be dropped into `data/` and used in place
//! of the synthetic stand-ins.

mod csv;
#[cfg(test)]
mod csv_reference;

pub use csv::{read_csv, read_csv_str, write_csv, CsvOptions, LabelColumn};
