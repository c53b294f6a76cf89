//! The retained-cell set with dominance-filtered insertion.
//!
//! A [`Frontier`] stores every cell the sparse sweep has *settled*
//! (assigned a final value), indexed two ways: a hash map from the cell
//! key to its [`CellInfo`] for O(1) value lookups, and per-anti-diagonal
//! buckets for dominance scans. The bucketing exploits that a dominator
//! `u ≥ w` has level `Σuᵢ ≥ Σwᵢ`, so [`Frontier::is_dominated`] only
//! scans buckets at the candidate's level and above — and within the
//! *same* level `u ≥ w` forces `u = w`, which the settled map already
//! answered, so equal-level buckets never need scanning at all.
//!
//! Insertion is **one-directional**: retained cells are never evicted.
//! The sweep inserts candidates in descending-level order, so any
//! candidate dominated by another candidate of the same value layer finds
//! its dominator (or a transitive dominator of that dominator) already
//! retained.

use std::collections::{BTreeMap, HashMap};

/// Retained `(cell, value)` pairs of one anti-diagonal level.
type LevelBucket = Vec<(Box<[u32]>, u32)>;

/// What the frontier knows about one settled cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellInfo {
    /// The cell's exact `OPT` value (its value layer).
    pub value: u32,
    /// The machine configuration whose addition discovered the cell;
    /// `None` only for the origin. Walking `via` chains from `N` back to
    /// the origin yields one configuration per machine of an optimal
    /// packing.
    pub via: Option<Box<[u32]>>,
}

/// Outcome of a dominance-filtered insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insert {
    /// The cell was new and undominated: it is now retained.
    Retained,
    /// The cell was already settled (idempotent no-op).
    AlreadySettled,
    /// A retained cell `u ≥ cell` with `value(u) ≤ value` exists; the
    /// candidate was dropped.
    Dominated,
}

/// The dominance-pruned set of settled cells.
#[derive(Debug, Clone, Default)]
pub struct Frontier {
    ndim: usize,
    /// Retained `(cell, value)` pairs bucketed by anti-diagonal level
    /// `Σᵢ cellᵢ`; values are duplicated here so dominance scans never
    /// touch the hash map.
    levels: BTreeMap<usize, LevelBucket>,
    settled: HashMap<Box<[u32]>, CellInfo>,
}

/// Anti-diagonal level of a cell.
#[inline]
pub(crate) fn level_of(cell: &[u32]) -> usize {
    cell.iter().map(|&c| c as usize).sum()
}

impl Frontier {
    /// An empty frontier over `ndim`-dimensional cells.
    pub fn new(ndim: usize) -> Self {
        Self {
            ndim,
            levels: BTreeMap::new(),
            settled: HashMap::new(),
        }
    }

    /// Dimensionality of the cells.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.ndim
    }

    /// Number of retained cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.settled.len()
    }

    /// Whether nothing has been retained yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.settled.is_empty()
    }

    /// The settled value of `cell`, if retained.
    #[inline]
    pub fn value_of(&self, cell: &[u32]) -> Option<u32> {
        self.settled.get(cell).map(|info| info.value)
    }

    /// Full info of a settled cell.
    #[inline]
    pub fn get(&self, cell: &[u32]) -> Option<&CellInfo> {
        self.settled.get(cell)
    }

    /// Whether some retained `u ≥ cell` (componentwise, `u ≠ cell`)
    /// with `value(u) ≤ value` exists. Only levels strictly above the
    /// candidate's can hold such a `u`.
    pub fn is_dominated(&self, cell: &[u32], value: u32) -> bool {
        debug_assert_eq!(cell.len(), self.ndim);
        let level = level_of(cell);
        for (_, bucket) in self.levels.range(level + 1..) {
            for (u, uval) in bucket {
                if *uval <= value && u.iter().zip(cell).all(|(&a, &b)| a >= b) {
                    return true;
                }
            }
        }
        false
    }

    /// Dominance-filtered insertion. Settled cells and dominated
    /// candidates are rejected; retained cells are permanent.
    pub fn insert(&mut self, cell: &[u32], value: u32, via: Option<&[u32]>) -> Insert {
        debug_assert_eq!(cell.len(), self.ndim);
        if self.settled.contains_key(cell) {
            return Insert::AlreadySettled;
        }
        if self.is_dominated(cell, value) {
            return Insert::Dominated;
        }
        let key: Box<[u32]> = cell.into();
        self.levels
            .entry(level_of(cell))
            .or_default()
            .push((key.clone(), value));
        self.settled.insert(
            key,
            CellInfo {
                value,
                via: via.map(Into::into),
            },
        );
        Insert::Retained
    }

    /// Iterates over every retained `(cell, info)` in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u32], &CellInfo)> {
        self.settled.iter().map(|(k, v)| (k.as_ref(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_retains_then_idempotent() {
        let mut f = Frontier::new(2);
        assert_eq!(f.insert(&[0, 0], 0, None), Insert::Retained);
        assert_eq!(f.insert(&[0, 0], 0, None), Insert::AlreadySettled);
        assert_eq!(f.len(), 1);
        assert_eq!(f.value_of(&[0, 0]), Some(0));
    }

    #[test]
    fn dominated_candidates_are_dropped() {
        let mut f = Frontier::new(2);
        f.insert(&[2, 3], 1, None);
        // (1,2) ≤ (2,3) at the same or larger value: dominated.
        assert!(f.is_dominated(&[1, 2], 1));
        assert!(f.is_dominated(&[1, 2], 5));
        assert_eq!(f.insert(&[1, 2], 1, None), Insert::Dominated);
        // A *cheaper* small cell is not dominated by a costlier big one.
        assert!(!f.is_dominated(&[1, 2], 0));
        assert_eq!(f.insert(&[1, 2], 0, None), Insert::Retained);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn incomparable_cells_coexist() {
        let mut f = Frontier::new(2);
        assert_eq!(f.insert(&[3, 0], 1, None), Insert::Retained);
        assert_eq!(f.insert(&[0, 3], 1, None), Insert::Retained);
        assert_eq!(f.insert(&[2, 2], 1, None), Insert::Retained);
        assert_eq!(f.len(), 3);
    }

    #[test]
    fn equal_level_never_dominates() {
        let mut f = Frontier::new(2);
        f.insert(&[2, 1], 1, None);
        assert!(!f.is_dominated(&[1, 2], 1));
    }

    #[test]
    fn via_chain_is_preserved() {
        let mut f = Frontier::new(2);
        f.insert(&[0, 0], 0, None);
        f.insert(&[1, 1], 1, Some(&[1, 1]));
        let info = f.get(&[1, 1]).unwrap();
        assert_eq!(info.via.as_deref(), Some(&[1u32, 1][..]));
        assert!(f.get(&[0, 0]).unwrap().via.is_none());
    }
}
