use std::collections::HashMap;

use serde::{Deserialize, Serialize};

/// The value domain of one categorical feature: an ordered set of qualitative
/// labels, each addressed by a dense `u32` code.
///
/// Codes are stable: the code of a label is its insertion order. This is what
/// lets every algorithm in the workspace index frequency tables by
/// `(feature, code)` without hashing strings in inner loops.
///
/// # Example
///
/// ```
/// use categorical_data::FeatureDomain;
///
/// let mut domain = FeatureDomain::new("gpu_type");
/// let a = domain.intern("A");
/// let b = domain.intern("B");
/// assert_eq!((a, b), (0, 1));
/// assert_eq!(domain.intern("A"), 0); // idempotent
/// assert_eq!(domain.label(1), Some("B"));
/// assert_eq!(domain.cardinality(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeatureDomain {
    name: String,
    labels: Vec<String>,
    #[serde(skip)]
    index: HashMap<String, u32>,
}

impl FeatureDomain {
    /// Creates an empty domain for a feature called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        FeatureDomain { name: name.into(), labels: Vec::new(), index: HashMap::new() }
    }

    /// Creates a domain pre-populated with `labels` in order.
    ///
    /// Duplicate labels collapse onto the first occurrence's code.
    pub fn with_labels<I, S>(name: impl Into<String>, labels: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut domain = FeatureDomain::new(name);
        for label in labels {
            domain.intern(&label.into());
        }
        domain
    }

    /// Creates an anonymous domain of `cardinality` synthetic labels
    /// `"v0" .. "v{cardinality-1}"`, as used by the synthetic generators.
    pub fn anonymous(name: impl Into<String>, cardinality: u32) -> Self {
        let mut domain = FeatureDomain::new(name);
        for v in 0..cardinality {
            domain.intern(&format!("v{v}"));
        }
        domain
    }

    /// The feature's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of distinct values in the domain (the paper's `m_r`).
    pub fn cardinality(&self) -> u32 {
        self.labels.len() as u32
    }

    /// Returns the code for `label`, interning it if new.
    pub fn intern(&mut self, label: &str) -> u32 {
        if let Some(&code) = self.index.get(label) {
            return code;
        }
        let code = self.labels.len() as u32;
        self.labels.push(label.to_owned());
        self.index.insert(label.to_owned(), code);
        code
    }

    /// Removes the most recently interned label (a no-op on an empty
    /// domain); every other code keeps its label.
    pub(crate) fn forget_newest(&mut self) {
        if let Some(label) = self.labels.pop() {
            self.index.remove(&label);
        }
    }

    /// Returns the code for `label` without interning, or `None` if absent.
    pub fn code(&self, label: &str) -> Option<u32> {
        self.index.get(label).copied()
    }

    /// Returns the label for `code`, or `None` if out of domain.
    pub fn label(&self, code: u32) -> Option<&str> {
        self.labels.get(code as usize).map(String::as_str)
    }

    /// Iterates over `(code, label)` pairs in code order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.labels.iter().enumerate().map(|(code, label)| (code as u32, label.as_str()))
    }

    /// Rebuilds the label→code index (needed after deserialization).
    pub(crate) fn rebuild_index(&mut self) {
        self.index = self
            .labels
            .iter()
            .enumerate()
            .map(|(code, label)| (label.clone(), code as u32))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_assigns_dense_codes() {
        let mut d = FeatureDomain::new("f");
        assert_eq!(d.intern("x"), 0);
        assert_eq!(d.intern("y"), 1);
        assert_eq!(d.intern("x"), 0);
        assert_eq!(d.cardinality(), 2);
    }

    #[test]
    fn with_labels_collapses_duplicates() {
        let d = FeatureDomain::with_labels("f", ["a", "b", "a", "c"]);
        assert_eq!(d.cardinality(), 3);
        assert_eq!(d.code("c"), Some(2));
    }

    #[test]
    fn anonymous_domains_are_named_v0_onwards() {
        let d = FeatureDomain::anonymous("f", 3);
        assert_eq!(d.label(0), Some("v0"));
        assert_eq!(d.label(2), Some("v2"));
        assert_eq!(d.label(3), None);
    }

    #[test]
    fn code_lookup_does_not_intern() {
        let d = FeatureDomain::with_labels("f", ["a"]);
        assert_eq!(d.code("zzz"), None);
        assert_eq!(d.cardinality(), 1);
    }

    #[test]
    fn iter_yields_in_code_order() {
        let d = FeatureDomain::with_labels("f", ["a", "b"]);
        let pairs: Vec<_> = d.iter().collect();
        assert_eq!(pairs, vec![(0, "a"), (1, "b")]);
    }
}
