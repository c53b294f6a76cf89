//! On-disk page format: a checksummed header followed by little-endian
//! cells packed at the narrowest width that can hold the table.
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "PCPG"
//! 4       4     format version (2)
//! 8       4     cell count
//! 12      4     cell width (bytes)
//! 16      8     FNV-1a 64 of payload
//! 24      w·n   cells, LE at width w
//! ```
//!
//! Cells are logically `u32` with [`INFEASIBLE_CELL`] (`u32::MAX`) as the
//! infeasible sentinel. A page packed at width `w < 4` stores each cell
//! in `w` bytes and maps the sentinel to the width's all-ones value, so a
//! table whose largest finite value fits the narrow width round-trips
//! exactly. Width selection is the caller's job ([`CellWidth::for_max_value`]
//! picks the narrowest safe width from an upper bound on the finite
//! cells); [`Page::pack`] panics on a finite cell that does not fit, so a
//! mis-selected width is a loud bug, never silent truncation.
//!
//! The workspace's `serde` is a no-op shim (no registry access), so the
//! format is hand-rolled and self-verifying: a torn or bit-flipped spill
//! file decodes to [`StoreError::Corrupt`], never to wrong cell values.
//! Only the current version decodes: spill pages live in per-solve
//! scratch directories and never outlive the process that wrote them.

use crate::StoreError;

/// Magic bytes opening every page file.
pub const PAGE_MAGIC: [u8; 4] = *b"PCPG";
/// Current page format version (packed cells).
pub const PAGE_VERSION: u32 = 2;
/// Bytes of header preceding the cell payload in the current format.
pub const PAGE_HEADER_BYTES: usize = 24;
/// The logical infeasible sentinel: pages store `u32` cells and this
/// value (like `pcmax_ptas::dp::INFEASIBLE`) means "no packing exists".
pub const INFEASIBLE_CELL: u32 = u32::MAX;

/// FNV-1a 64-bit, the workspace's standalone checksum.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// How many bytes each cell occupies on a page.
///
/// Cells are logically `u32`; narrower widths are a storage encoding.
/// The widest width is `U32` because the DP's machine counts are `u32`
/// (`OPT(N) ≤ N ≤ u32 range`) — there is no u64 cell to pack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CellWidth {
    /// 1 byte per cell; finite values must stay below `0xFF`.
    U8,
    /// 2 bytes per cell; finite values must stay below `0xFFFF`.
    U16,
    /// 4 bytes per cell — the unpacked representation.
    U32,
}

impl CellWidth {
    /// Bytes per cell at this width.
    pub const fn bytes(self) -> usize {
        match self {
            Self::U8 => 1,
            Self::U16 => 2,
            Self::U32 => 4,
        }
    }

    /// The width's all-ones value, reserved as the packed encoding of
    /// [`INFEASIBLE_CELL`].
    pub const fn sentinel(self) -> u32 {
        match self {
            Self::U8 => u8::MAX as u32,
            Self::U16 => u16::MAX as u32,
            Self::U32 => u32::MAX,
        }
    }

    /// The narrowest width whose sentinel stays above every finite cell
    /// value — i.e. `max_finite < sentinel`, so finite cells and the
    /// infeasible sentinel never collide.
    pub fn for_max_value(max_finite: u64) -> Self {
        if max_finite < u8::MAX as u64 {
            Self::U8
        } else if max_finite < u16::MAX as u64 {
            Self::U16
        } else {
            Self::U32
        }
    }

    fn from_code(code: u32) -> Result<Self, StoreError> {
        match code {
            1 => Ok(Self::U8),
            2 => Ok(Self::U16),
            4 => Ok(Self::U32),
            other => Err(StoreError::Corrupt {
                detail: format!("unsupported cell width {other}"),
            }),
        }
    }
}

/// A page: a run of logical-`u32` cells packed at a [`CellWidth`].
///
/// Immutable once built. `get` unpacks one cell (sentinel-mapped back to
/// [`INFEASIBLE_CELL`]); `packed_bytes` is both the serialized size and
/// the RAM-tier accounting unit, so narrower widths directly multiply
/// how many pages a byte budget holds resident.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    width: CellWidth,
    len: usize,
    data: Vec<u8>,
}

impl Page {
    /// Packs cells at `width`.
    ///
    /// # Panics
    ///
    /// Panics if a finite cell does not fit the width — width selection
    /// via [`CellWidth::for_max_value`] over a sound upper bound makes
    /// that unreachable, so hitting it is a caller bug worth a loud stop.
    pub fn pack(cells: &[u32], width: CellWidth) -> Self {
        let w = width.bytes();
        let sentinel = width.sentinel();
        let mut data = Vec::with_capacity(w * cells.len());
        for &c in cells {
            let packed = if c == INFEASIBLE_CELL {
                sentinel
            } else {
                assert!(
                    c < sentinel,
                    "cell {c} does not fit width {w}B (sentinel {sentinel})"
                );
                c
            };
            data.extend_from_slice(&packed.to_le_bytes()[..w]);
        }
        Self {
            width,
            len: cells.len(),
            data,
        }
    }

    /// An unpacked (`u32`-width) page — the pre-packing representation,
    /// used by callers with no width information.
    pub fn from_cells(cells: &[u32]) -> Self {
        Self::pack(cells, CellWidth::U32)
    }

    /// The cell width this page is packed at.
    pub fn width(&self) -> CellWidth {
        self.width
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the page holds no cells.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Unpacks cell `i` (sentinel mapped back to [`INFEASIBLE_CELL`]).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        assert!(i < self.len, "cell {i} out of page of {}", self.len);
        let w = self.width.bytes();
        let at = i * w;
        let mut le = [0u8; 4];
        le[..w].copy_from_slice(&self.data[at..at + w]);
        let v = u32::from_le_bytes(le);
        if v == self.width.sentinel() {
            INFEASIBLE_CELL
        } else {
            v
        }
    }

    /// Unpacks the whole page.
    pub fn to_cells(&self) -> Vec<u32> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// Serialized size (header + packed payload) — the accounting unit
    /// shared by the RAM budget and the spill files.
    pub fn packed_bytes(&self) -> u64 {
        PAGE_HEADER_BYTES as u64 + self.data.len() as u64
    }
}

/// Total serialized size of an *unpacked* (`u32`-width) page of `cells`
/// cells — the dense-representation accounting unit used by budget
/// estimates that have no width information.
pub fn page_bytes(cells: usize) -> u64 {
    packed_page_bytes(cells, CellWidth::U32)
}

/// Total serialized size of a page of `cells` cells packed at `width`.
pub fn packed_page_bytes(cells: usize, width: CellWidth) -> u64 {
    PAGE_HEADER_BYTES as u64 + (width.bytes() * cells) as u64
}

/// Serializes a page into the checksummed v2 format.
pub fn encode_page_packed(page: &Page) -> Vec<u8> {
    let mut out = Vec::with_capacity(PAGE_HEADER_BYTES + page.data.len());
    out.extend_from_slice(&PAGE_MAGIC);
    out.extend_from_slice(&PAGE_VERSION.to_le_bytes());
    out.extend_from_slice(&(page.len as u32).to_le_bytes());
    out.extend_from_slice(&(page.width.bytes() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a(&page.data).to_le_bytes());
    out.extend_from_slice(&page.data);
    out
}

/// Serializes unpacked cells (convenience wrapper over
/// [`encode_page_packed`] at `u32` width).
pub fn encode_page(cells: &[u32]) -> Vec<u8> {
    encode_page_packed(&Page::from_cells(cells))
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

/// Deserializes and verifies a page.
pub fn decode_page_packed(bytes: &[u8]) -> Result<Page, StoreError> {
    if bytes.len() < PAGE_HEADER_BYTES {
        return Err(StoreError::Corrupt {
            detail: format!("page truncated: {} bytes < header", bytes.len()),
        });
    }
    if bytes[..4] != PAGE_MAGIC {
        return Err(StoreError::Corrupt {
            detail: "bad page magic".into(),
        });
    }
    let version = read_u32(bytes, 4);
    if version != PAGE_VERSION {
        return Err(StoreError::Corrupt {
            detail: format!("unsupported page version {version}"),
        });
    }
    let cells = read_u32(bytes, 8) as usize;
    let width = CellWidth::from_code(read_u32(bytes, 12))?;
    let payload = &bytes[PAGE_HEADER_BYTES..];
    if payload.len() != width.bytes() * cells {
        return Err(StoreError::Corrupt {
            detail: format!(
                "page payload {} bytes, header promises {} cells at {}B",
                payload.len(),
                cells,
                width.bytes()
            ),
        });
    }
    let checksum = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    if fnv1a(payload) != checksum {
        return Err(StoreError::Corrupt {
            detail: "page checksum mismatch".into(),
        });
    }
    Ok(Page {
        width,
        len: cells,
        data: payload.to_vec(),
    })
}

/// Deserializes and verifies a page, returning its unpacked cells.
pub fn decode_page(bytes: &[u8]) -> Result<Vec<u32>, StoreError> {
    Ok(decode_page_packed(bytes)?.to_cells())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_cells() {
        for cells in [vec![], vec![0u32], vec![1, u32::MAX, 7, 0, 42]] {
            let bytes = encode_page(&cells);
            assert_eq!(bytes.len() as u64, page_bytes(cells.len()));
            assert_eq!(decode_page(&bytes).unwrap(), cells);
        }
    }

    #[test]
    fn packed_pages_roundtrip_at_every_width() {
        for width in [CellWidth::U8, CellWidth::U16, CellWidth::U32] {
            let cells = vec![0u32, 1, 42, 200, INFEASIBLE_CELL, 7];
            let page = Page::pack(&cells, width);
            assert_eq!(page.width(), width);
            assert_eq!(page.len(), cells.len());
            assert_eq!(page.to_cells(), cells);
            for (i, &c) in cells.iter().enumerate() {
                assert_eq!(page.get(i), c, "width {width:?} cell {i}");
            }
            let bytes = encode_page_packed(&page);
            assert_eq!(bytes.len() as u64, page.packed_bytes());
            assert_eq!(bytes.len() as u64, packed_page_bytes(cells.len(), width));
            assert_eq!(decode_page_packed(&bytes).unwrap(), page);
        }
    }

    #[test]
    fn width_selection_is_narrowest_safe() {
        assert_eq!(CellWidth::for_max_value(0), CellWidth::U8);
        assert_eq!(CellWidth::for_max_value(254), CellWidth::U8);
        assert_eq!(CellWidth::for_max_value(255), CellWidth::U16);
        assert_eq!(CellWidth::for_max_value(65534), CellWidth::U16);
        assert_eq!(CellWidth::for_max_value(65535), CellWidth::U32);
        assert_eq!(CellWidth::for_max_value(u64::MAX), CellWidth::U32);
    }

    #[test]
    #[should_panic(expected = "does not fit width")]
    fn packing_an_oversized_finite_cell_is_a_loud_bug() {
        Page::pack(&[300], CellWidth::U8);
    }

    #[test]
    fn detects_corruption_anywhere() {
        let page = Page::pack(&[3, 1, 4, 1, 5], CellWidth::U16);
        let bytes = encode_page_packed(&page);
        let mut inputs: Vec<(String, Vec<u8>)> = (0..bytes.len())
            .map(|i| {
                let mut bad = bytes.clone();
                bad[i] ^= 0x40;
                (format!("flip at byte {i}"), bad)
            })
            .collect();
        // The retired unpacked format's version number is no longer read.
        let mut v1 = bytes.clone();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        inputs.push(("version-1 header".into(), v1));
        for (what, bad) in inputs {
            assert!(
                matches!(decode_page_packed(&bad), Err(StoreError::Corrupt { .. })),
                "{what} undetected"
            );
        }
    }

    #[test]
    fn detects_truncation() {
        let bytes = encode_page(&[9, 9, 9]);
        for len in 0..bytes.len() {
            assert!(decode_page(&bytes[..len]).is_err(), "truncate to {len}");
        }
    }

    #[test]
    fn narrow_widths_cut_page_bytes() {
        let n = 1000;
        let header = PAGE_HEADER_BYTES as u64;
        assert_eq!(packed_page_bytes(n, CellWidth::U32) - header, 4000);
        assert_eq!(packed_page_bytes(n, CellWidth::U16) - header, 2000);
        assert_eq!(packed_page_bytes(n, CellWidth::U8) - header, 1000);
    }
}
