//! The Table II evaluation data sets.
//!
//! When a data directory containing the real UCI files is supplied (as
//! `<dir>/<abbrev-without-dot>.csv`, e.g. `data/mus.csv`, label in the last
//! column), those are loaded; otherwise the calibrated synthetic stand-ins
//! of [`categorical_data::synth::uci`] are generated (DESIGN.md §3). A real
//! file that is present but cannot be read is an error, never a silent
//! fall-back to its stand-in.

use std::fmt;
use std::path::{Path, PathBuf};

use categorical_data::io::{read_csv, CsvOptions};
use categorical_data::synth::uci;
use categorical_data::{DataError, Dataset};

/// A Table II data file that exists but could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataFileError {
    /// The offending file.
    pub path: PathBuf,
    /// Why reading it failed.
    pub error: DataError,
}

impl fmt::Display for DataFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.error)
    }
}

impl std::error::Error for DataFileError {}

/// Loads or generates all eight Table II data sets, in table order, each
/// with its Table II abbreviation (`Car.`, `Con.`, …).
///
/// `seed` parameterizes the synthetic stand-ins; real files (when found in
/// `data_dir`) are returned as-is, named after the file, so the
/// abbreviation is the one stable key for a row of a printed table.
///
/// # Errors
///
/// Returns [`DataFileError`] naming the first real file that is present but
/// cannot be read or parsed.
pub fn table_ii(
    seed: u64,
    data_dir: Option<&Path>,
) -> Result<Vec<(&'static str, Dataset)>, DataFileError> {
    uci::ALL
        .iter()
        .map(|profile| {
            if let Some(dir) = data_dir {
                let stem = profile.abbrev.trim_end_matches('.').to_ascii_lowercase();
                for ext in ["csv", "data"] {
                    let path = dir.join(format!("{stem}.{ext}"));
                    if path.exists() {
                        return read_csv(&path, &CsvOptions::default())
                            .map(|ds| (profile.abbrev, ds))
                            .map_err(|error| DataFileError { path, error });
                    }
                }
            }
            Ok((profile.abbrev, profile.generate_dataset(seed)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stand_ins_cover_all_eight() {
        let sets = table_ii(3, None).unwrap();
        assert_eq!(sets.len(), 8);
        assert_eq!(sets[3].1.name(), "Mushroom");
        assert_eq!(sets[3].1.n_rows(), 8124);
    }

    #[test]
    fn missing_data_dir_falls_back_to_synthetic() {
        let sets = table_ii(3, Some(Path::new("/nonexistent"))).unwrap();
        assert_eq!(sets.len(), 8);
    }

    #[test]
    fn real_files_take_precedence() {
        let dir = std::env::temp_dir().join("mcdc-bench-data-test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("car.csv"), "a,x,c0\nb,y,c1\na,y,c0\nb,x,c1\n").unwrap();
        let sets = table_ii(3, Some(&dir)).unwrap();
        assert_eq!(sets[0].1.n_rows(), 4, "car should load from the real file");
        assert_eq!(sets[1].1.n_rows(), 435, "con still synthetic");
    }

    #[test]
    fn abbreviations_travel_with_their_data_sets() {
        let dir = std::env::temp_dir().join("mcdc-bench-abbrev-test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("bal.csv"), "a,x,c0\nb,y,c1\n").unwrap();
        let sets = table_ii(3, Some(&dir)).unwrap();
        let abbrevs: Vec<&str> = sets.iter().map(|(abbrev, _)| *abbrev).collect();
        assert_eq!(abbrevs, uci::ALL.map(|p| p.abbrev));
        // The real file is named after its stem, yet keeps its own row label.
        assert!(sets.iter().any(|(abbrev, ds)| (*abbrev, ds.name()) == ("Bal.", "bal")));
    }

    #[test]
    fn malformed_real_files_are_reported_by_path() {
        let dir = std::env::temp_dir().join("mcdc-bench-malformed-data-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("con.data");
        std::fs::write(&path, "a,x,c0\nb,c1\n").unwrap();
        let err = table_ii(3, Some(&dir)).unwrap_err();
        assert_eq!(err.path, path);
        assert!(matches!(err.error, DataError::Parse { line: 2, .. }), "{err}");
        assert!(err.to_string().starts_with(&path.display().to_string()), "{err}");
    }
}
