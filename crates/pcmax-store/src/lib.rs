#![warn(missing_docs)]

//! Paged memory management for higher-dimensional DP tables.
//!
//! The paper's data-partitioning scheme (Algorithm 4) reorganises the DP
//! table block-major precisely so that blocks are contiguous,
//! independently transferable units. This crate treats those blocks as
//! *pages* and manages where they live:
//!
//! * [`Page`] — a run of logical-`u32` cells packed at a [`CellWidth`]
//!   (u8/u16/u32) chosen from the table's value upper bound, so byte
//!   density multiplies the effective RAM budget;
//! * [`PageStore`] — the tier interface: put/get/remove pages by id;
//! * [`RamTier`] — resident pages, packed-byte-accounted;
//! * [`DiskTier`] — spill files under a configurable directory, one
//!   checksummed file per page, rebuilt by scanning on reopen;
//! * [`TieredStore`] — RAM over optional disk under a hard **byte**
//!   budget ([`StoreBudget`]), with pressure-driven RAM→disk demotion in
//!   bounded second-chance-clock order (write-behind on eviction,
//!   read-through on fault), plus the overlap primitives the paged
//!   sweep's background streams use: [`TieredStore::prefetch`] (reads
//!   ahead into a fixed [`STAGED_PAGES_MAX`]-page staging ring without
//!   touching residents, so a hit removes a stall and a miss costs
//!   nothing) and resident-page [`TieredStore::write_behind`]. Without
//!   a disk tier the budget is a hard wall: exceeding it is a
//!   structured [`StoreError::BudgetExceeded`], never an abort;
//! * [`ScratchDir`] — an RAII guard removing a per-solve spill
//!   directory on drop, so aborted solves never orphan page files;
//! * [`WarmLog`] — a tiny manifest + checksummed append log mapping
//!   opaque keys to opaque values, used by `pcmax-serve` to persist its
//!   DP-solution cache across restarts (the warm-start tier). Records
//!   carry monotonic sequence numbers so `pcmax-warmsync` can ship only
//!   the suffix a peer is missing; re-appends are last-write-wins and
//!   the log compacts itself (generation rewrite + atomic manifest
//!   rename) when dead bytes outweigh live ones.
//!
//! Observability: each store owns its counters. [`TieredStore::stats`]
//! reports faults, demotions, prefetches and write-behind writes, and
//! [`WarmLog`] counts its own rehydrated entries and compactions. Nothing is copied into a
//! process-global registry, so two stores in one process never mix.

pub mod page;
pub mod scratch;
pub mod tier;
pub mod tiered;
pub mod warm;

pub use page::{
    decode_page, decode_page_packed, encode_page, encode_page_packed, packed_page_bytes,
    page_bytes, CellWidth, Page, INFEASIBLE_CELL, PAGE_HEADER_BYTES,
};
pub use scratch::ScratchDir;
pub use tier::{DiskTier, PageStore, RamTier};
pub use tiered::{StoreStats, TieredStore, STAGED_PAGES_MAX};
pub use warm::{WarmEntry, WarmLog};

use std::fmt;
use std::path::PathBuf;

/// A hard byte budget for resident (RAM-tier) pages or cache entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreBudget {
    /// The budget in bytes.
    pub bytes: u64,
}

impl StoreBudget {
    /// A budget of exactly `bytes` bytes.
    pub const fn bytes(bytes: u64) -> Self {
        Self { bytes }
    }

    /// Parses `"4096"`, `"64K"`, `"16M"`, `"1G"` (binary multiples).
    pub fn parse(text: &str) -> Result<Self, String> {
        let text = text.trim();
        let (digits, multiplier) = match text.as_bytes().last() {
            Some(b'K' | b'k') => (&text[..text.len() - 1], 1u64 << 10),
            Some(b'M' | b'm') => (&text[..text.len() - 1], 1u64 << 20),
            Some(b'G' | b'g') => (&text[..text.len() - 1], 1u64 << 30),
            _ => (text, 1),
        };
        let n: u64 = digits
            .parse()
            .map_err(|_| format!("invalid byte budget: {text:?}"))?;
        n.checked_mul(multiplier)
            .map(Self::bytes)
            .ok_or_else(|| format!("byte budget overflows u64: {text:?}"))
    }
}

impl Default for StoreBudget {
    /// 64 MiB — roomy for every paper-scale table while still bounding a
    /// burst of large-`k` requests.
    fn default() -> Self {
        Self::bytes(64 << 20)
    }
}

impl fmt::Display for StoreBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}B", self.bytes)
    }
}

/// How a [`TieredStore`] is provisioned.
#[derive(Debug, Clone, Default)]
pub struct StoreConfig {
    /// RAM-tier byte budget.
    pub budget: StoreBudget,
    /// Spill directory. `None` disables the disk tier: the budget then
    /// fails fast instead of demoting.
    pub spill_dir: Option<PathBuf>,
}

/// Structured store failure. Everything the paging layer can hit is
/// represented here — callers degrade or surface, never abort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The RAM budget cannot hold the working set and no disk tier is
    /// configured to demote into.
    BudgetExceeded {
        /// Bytes the store would need resident.
        needed: u64,
        /// The configured budget.
        budget: u64,
    },
    /// An I/O operation on the spill directory or warm log failed.
    Io {
        /// Path the operation touched.
        path: String,
        /// The underlying error, stringified.
        detail: String,
    },
    /// A page or log record failed its checksum or framing.
    Corrupt {
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BudgetExceeded { needed, budget } => write!(
                f,
                "store budget exceeded: need {needed} bytes resident, budget {budget} (spill disabled)"
            ),
            Self::Io { path, detail } => write!(f, "store io error at {path}: {detail}"),
            Self::Corrupt { detail } => write!(f, "store corruption: {detail}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl StoreError {
    pub(crate) fn io(path: &std::path::Path, err: std::io::Error) -> Self {
        Self::Io {
            path: path.display().to_string(),
            detail: err.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_parses_suffixes() {
        assert_eq!(StoreBudget::parse("4096").unwrap().bytes, 4096);
        assert_eq!(StoreBudget::parse("64K").unwrap().bytes, 64 << 10);
        assert_eq!(StoreBudget::parse("16m").unwrap().bytes, 16 << 20);
        assert_eq!(StoreBudget::parse("1G").unwrap().bytes, 1 << 30);
        assert!(StoreBudget::parse("lots").is_err());
        assert!(StoreBudget::parse("99999999999999999999G").is_err());
    }

    #[test]
    fn errors_render_their_fields() {
        let e = StoreError::BudgetExceeded {
            needed: 100,
            budget: 10,
        };
        let text = e.to_string();
        assert!(text.contains("100"), "{text}");
        assert!(text.contains("10"), "{text}");
    }
}
