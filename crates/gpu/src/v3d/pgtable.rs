//! v3d flat page table.
//!
//! A single-level array of 32-bit PTEs covering a 28-bit (256 MiB) GPU
//! virtual address space with 4 KiB pages: 65 536 entries = 64 contiguous
//! physical pages. Unlike Mali there is **no executable bit** — which is
//! why the paper's v3d recorder must conservatively dump more pages and
//! follow control-list pointers instead (§6.2).
//!
//! PTE layout: bits `[31:4]` = page frame number (PA ≫ 12), bit 1 = WRITE,
//! bit 0 = VALID.

use gr_soc::{FrameAllocator, MemError, SharedMem, PAGE_SIZE};

/// v3d GPU virtual address bits.
pub const VA_SPACE_BITS: u32 = 28;
/// Highest valid VA + 1 (256 MiB).
pub const VA_SPACE_SIZE: u64 = 1 << VA_SPACE_BITS;
/// Entries in the flat table.
pub const PT_ENTRIES: usize = (VA_SPACE_SIZE as usize) / PAGE_SIZE;
/// Pages occupied by the table itself (contiguous).
pub const PT_PAGES: usize = PT_ENTRIES * 4 / PAGE_SIZE;

/// Decoded v3d page attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct V3dPteFlags {
    /// Mapping present.
    pub valid: bool,
    /// GPU may write.
    pub write: bool,
}

impl V3dPteFlags {
    /// Read-write mapping.
    pub fn rw() -> Self {
        V3dPteFlags {
            valid: true,
            write: true,
        }
    }

    /// Read-only mapping.
    pub fn ro() -> Self {
        V3dPteFlags {
            valid: true,
            write: false,
        }
    }
}

/// Builds a PTE word.
pub fn encode_pte(pa: u64, flags: V3dPteFlags) -> u32 {
    debug_assert_eq!(pa % PAGE_SIZE as u64, 0);
    let pfn = (pa >> 12) as u32;
    (pfn << 4) | (u32::from(flags.write) << 1) | u32::from(flags.valid)
}

/// Splits a PTE word; `None` when invalid.
pub fn decode_pte(pte: u32) -> Option<(u64, V3dPteFlags)> {
    if pte & 1 == 0 {
        return None;
    }
    let pa = u64::from(pte >> 4) << 12;
    Some((
        pa,
        V3dPteFlags {
            valid: true,
            write: pte & 2 != 0,
        },
    ))
}

/// Errors from flat-table manipulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum V3dPgtableError {
    /// Table access outside DRAM.
    Mem(MemError),
    /// Could not allocate the contiguous table.
    OutOfFrames,
    /// VA outside the 28-bit space or unaligned.
    BadVa(u64),
    /// Mapping already present.
    AlreadyMapped(u64),
}

impl std::fmt::Display for V3dPgtableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            V3dPgtableError::Mem(e) => write!(f, "v3d page table memory error: {e}"),
            V3dPgtableError::OutOfFrames => write!(f, "no contiguous frames for v3d page table"),
            V3dPgtableError::BadVa(va) => write!(f, "va {va:#x} outside v3d address space"),
            V3dPgtableError::AlreadyMapped(va) => write!(f, "va {va:#x} already mapped"),
        }
    }
}

impl std::error::Error for V3dPgtableError {}

impl From<MemError> for V3dPgtableError {
    fn from(e: MemError) -> Self {
        V3dPgtableError::Mem(e)
    }
}

fn check_va(va: u64) -> Result<(), V3dPgtableError> {
    if va >= VA_SPACE_SIZE || va % PAGE_SIZE as u64 != 0 {
        Err(V3dPgtableError::BadVa(va))
    } else {
        Ok(())
    }
}

/// Allocates and zeroes the flat table, returning its base PA.
///
/// # Errors
///
/// Fails when a contiguous run of [`PT_PAGES`] frames is unavailable.
pub fn alloc_table(mem: &SharedMem, alloc: &mut FrameAllocator) -> Result<u64, V3dPgtableError> {
    let base = alloc
        .alloc_contig(PT_PAGES)
        .ok_or(V3dPgtableError::OutOfFrames)?;
    for i in 0..PT_PAGES {
        mem.zero_page(base + (i * PAGE_SIZE) as u64)?;
    }
    Ok(base)
}

/// Maps `va → pa` with `flags`.
///
/// # Errors
///
/// Fails on bad VA or an existing mapping.
pub fn map_page(
    mem: &SharedMem,
    table_pa: u64,
    va: u64,
    pa: u64,
    flags: V3dPteFlags,
) -> Result<(), V3dPgtableError> {
    check_va(va)?;
    let entry_pa = table_pa + (va >> 12) * 4;
    if mem.read_u32(entry_pa)? & 1 != 0 {
        return Err(V3dPgtableError::AlreadyMapped(va));
    }
    mem.write_u32(entry_pa, encode_pte(pa, flags))?;
    Ok(())
}

/// Clears the mapping at `va`, returning its old PA.
///
/// # Errors
///
/// Fails on bad VA.
pub fn unmap_page(mem: &SharedMem, table_pa: u64, va: u64) -> Result<Option<u64>, V3dPgtableError> {
    check_va(va)?;
    let entry_pa = table_pa + (va >> 12) * 4;
    let pte = mem.read_u32(entry_pa)?;
    match decode_pte(pte) {
        Some((pa, _)) => {
            mem.write_u32(entry_pa, 0)?;
            Ok(Some(pa))
        }
        None => Ok(None),
    }
}

/// Translates `va` (any alignment).
pub fn translate(mem: &SharedMem, table_pa: u64, va: u64) -> Option<(u64, V3dPteFlags)> {
    if va >= VA_SPACE_SIZE {
        return None;
    }
    let pte = mem.read_u32(table_pa + (va >> 12) * 4).ok()?;
    let (page_pa, flags) = decode_pte(pte)?;
    Some((page_pa + (va & (PAGE_SIZE as u64 - 1)), flags))
}

/// Physical address of the PTE word mapping `va` (for fault injection).
pub fn pte_address(table_pa: u64, va: u64) -> Option<u64> {
    if va >= VA_SPACE_SIZE {
        return None;
    }
    Some(table_pa + (va >> 12) * 4)
}

/// Invokes `f(va, pa, flags)` for every valid mapping.
pub fn walk(mem: &SharedMem, table_pa: u64, mut f: impl FnMut(u64, u64, V3dPteFlags)) {
    for idx in 0..PT_ENTRIES as u64 {
        let Ok(pte) = mem.read_u32(table_pa + idx * 4) else {
            continue;
        };
        if let Some((pa, flags)) = decode_pte(pte) {
            f(idx << 12, pa, flags);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gr_soc::PhysMem;

    fn mk() -> (SharedMem, FrameAllocator) {
        let mem = SharedMem::new(PhysMem::new(0x8000_0000, 256 * PAGE_SIZE));
        let alloc = FrameAllocator::new(0x8000_0000, 256);
        (mem, alloc)
    }

    #[test]
    fn table_is_contiguous_and_sized() {
        assert_eq!(PT_ENTRIES, 65536);
        assert_eq!(PT_PAGES, 64);
        let (mem, mut alloc) = mk();
        let base = alloc_table(&mem, &mut alloc).unwrap();
        assert_eq!(alloc.used(), PT_PAGES);
        // Entire table zeroed.
        assert_eq!(mem.read_u32(base).unwrap(), 0);
        assert_eq!(
            mem.read_u32(base + (PT_PAGES * PAGE_SIZE) as u64 - 4)
                .unwrap(),
            0
        );
    }

    #[test]
    fn map_translate_unmap() {
        let (mem, mut alloc) = mk();
        let table = alloc_table(&mem, &mut alloc).unwrap();
        let pa = alloc.alloc().unwrap();
        let va = 0x0080_0000u64;
        map_page(&mem, table, va, pa, V3dPteFlags::rw()).unwrap();
        let (got, flags) = translate(&mem, table, va + 7).unwrap();
        assert_eq!(got, pa + 7);
        assert!(flags.write);
        assert_eq!(
            map_page(&mem, table, va, pa, V3dPteFlags::rw()),
            Err(V3dPgtableError::AlreadyMapped(va))
        );
        assert_eq!(unmap_page(&mem, table, va).unwrap(), Some(pa));
        assert!(translate(&mem, table, va).is_none());
    }

    #[test]
    fn readonly_flag_roundtrips() {
        let pte = encode_pte(0x1234_5000, V3dPteFlags::ro());
        let (pa, flags) = decode_pte(pte).unwrap();
        assert_eq!(pa, 0x1234_5000);
        assert!(!flags.write);
        assert_eq!(decode_pte(0), None);
    }

    #[test]
    fn bad_va_rejected() {
        let (mem, mut alloc) = mk();
        let table = alloc_table(&mem, &mut alloc).unwrap();
        assert!(matches!(
            map_page(&mem, table, VA_SPACE_SIZE, 0, V3dPteFlags::rw()),
            Err(V3dPgtableError::BadVa(_))
        ));
        assert!(translate(&mem, table, VA_SPACE_SIZE + 1).is_none());
        assert_eq!(pte_address(table, VA_SPACE_SIZE), None);
    }

    #[test]
    fn walk_and_corruption() {
        let (mem, mut alloc) = mk();
        let table = alloc_table(&mem, &mut alloc).unwrap();
        let pa = alloc.alloc().unwrap();
        map_page(&mem, table, 0x1000, pa, V3dPteFlags::rw()).unwrap();
        let mut count = 0;
        walk(&mem, table, |va, p, _| {
            assert_eq!(va, 0x1000);
            assert_eq!(p, pa);
            count += 1;
        });
        assert_eq!(count, 1);
        let pte_pa = pte_address(table, 0x1000).unwrap();
        let pte = mem.read_u32(pte_pa).unwrap();
        mem.write_u32(pte_pa, pte & !1).unwrap();
        assert!(translate(&mem, table, 0x1000).is_none());
    }
}
