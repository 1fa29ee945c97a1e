//! The retired cross-fit scratch arena (DESIGN.md §4).
//!
//! Every fit now owns its scratch: `Mgcpl::fit` and `Came::fit` allocate
//! their pass buffers once per fit and reuse them across that fit's passes
//! and stages. Reusing them across fits measured as a no-win, so the arena
//! and its growth counting are gone; only the empty type remains.

/// An empty placeholder for the deleted scratch arena.
///
/// It holds nothing and changes nothing:
/// [`Mgcpl::fit_with`](crate::Mgcpl::fit_with) and
/// [`Came::fit_with`](crate::Came::fit_with) ignore it and call `fit`.
/// Kept until the benchmark stops using it (ROADMAP item 12).
#[derive(Debug, Default)]
pub struct Workspace {}

impl Workspace {
    /// Creates the (empty) workspace.
    pub fn new() -> Workspace {
        Workspace::default()
    }
}
