//! Simulated shared DRAM.
//!
//! Integrated GPUs share DRAM with the CPU (paper §2.1, footnote 2: "GPU
//! memory" is part of shared DRAM). [`PhysMem`] is that DRAM: a flat,
//! byte-addressable region at a fixed physical base. Both the CPU-side
//! stack and the GPU device model operate on the same [`SharedMem`] handle;
//! GPU page tables, job binaries, and tensors all live here.

use std::fmt;
use std::mem;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::dirty::{DirtyLog, DirtyMark, DirtyVerdict};

/// Page/frame size used throughout the machine (both GPU MMU formats map
/// 4 KiB pages, like Mali's and v3d's smallest granule).
pub const PAGE_SIZE: usize = 4096;

/// Most scrubbed backings [`SPARES`] keeps, at most one per size.
const MAX_SPARES: usize = 4;

/// A backing whose ever-written pages exceed this many bytes is released
/// on drop instead of kept: scrubbed pages stay resident on the host.
const MAX_SPARE_RESIDENT: usize = 16 << 20;

/// Backings of dropped DRAMs, all zero, for the next [`PhysMem::new`] of
/// the same size: a new machine then starts on pages the host has already
/// faulted in, as target DRAM never faults.
static SPARES: SparePool = SparePool::new();

/// The storage behind one [`PhysMem`]: bytes plus its per-page bitmaps.
struct Backing {
    bytes: Vec<u8>,
    /// Pages written since their last scrub (see [`PhysMem::zero_page`]).
    written: Vec<u64>,
    /// Pages ever written while this backing lived, so resident on the
    /// host (folded in whenever a `written` bit is cleared). Never cleared.
    resident: Vec<u64>,
}

impl Backing {
    fn zeroed(size: usize) -> Self {
        let words = (size / PAGE_SIZE).div_ceil(64);
        Backing {
            bytes: vec![0; size],
            written: vec![0; words],
            resident: vec![0; words],
        }
    }

    /// Zeroes every page written since its last scrub, so the whole
    /// backing reads zero and every `written` bit is clear.
    fn scrub(&mut self) {
        for (w, (written, resident)) in self.written.iter_mut().zip(&mut self.resident).enumerate()
        {
            *resident |= *written;
            while *written != 0 {
                let off = (w * 64 + written.trailing_zeros() as usize) * PAGE_SIZE;
                self.bytes[off..off + PAGE_SIZE].fill(0);
                *written &= *written - 1;
            }
        }
    }
}

/// A bounded list of zeroed [`Backing`]s shared by every thread.
struct SparePool {
    spares: Mutex<Vec<Backing>>,
}

impl SparePool {
    const fn new() -> Self {
        SparePool {
            spares: Mutex::new(Vec::new()),
        }
    }

    /// Every update under the lock is one `push` or `swap_remove`, so the
    /// list is valid even after a panic elsewhere poisoned it.
    fn lock(&self) -> MutexGuard<'_, Vec<Backing>> {
        self.spares.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A free slot for a backing of `size` bytes: the list is not full
    /// and holds no spare of that size yet.
    fn has_room(spares: &[Backing], size: usize) -> bool {
        spares.len() < MAX_SPARES && spares.iter().all(|s| s.bytes.len() != size)
    }

    fn take(&self, size: usize) -> Option<Backing> {
        let mut spares = self.lock();
        let i = spares.iter().position(|s| s.bytes.len() == size)?;
        Some(spares.swap_remove(i))
    }

    /// Scrubs `b` and keeps it when a slot is free and its resident pages
    /// do not exceed the cap; otherwise releases it unscrubbed. The scrub
    /// runs outside the lock, so the slot is checked again after it.
    fn give(&self, mut b: Backing) {
        let size = b.bytes.len();
        if !Self::has_room(&self.lock(), size) {
            return;
        }
        let resident: u32 = b
            .written
            .iter()
            .zip(&b.resident)
            .map(|(w, r)| (w | r).count_ones())
            .sum();
        if resident as usize * PAGE_SIZE > MAX_SPARE_RESIDENT {
            return;
        }
        b.scrub();
        let mut spares = self.lock();
        if Self::has_room(&spares, size) {
            spares.push(b);
        }
    }
}

/// Error raised by out-of-range physical accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemError {
    /// Faulting physical address.
    pub pa: u64,
    /// Access length in bytes.
    pub len: usize,
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "physical access out of range: pa={:#x} len={}",
            self.pa, self.len
        )
    }
}

impl std::error::Error for MemError {}

/// Flat simulated DRAM starting at a fixed physical base address.
///
/// # Example
///
/// ```
/// use gr_soc::{PhysMem, PAGE_SIZE};
///
/// let mut mem = PhysMem::new(0x1000, 2 * PAGE_SIZE);
/// mem.write(0x1004, &[1, 2, 3])?;
/// let mut buf = [0u8; 3];
/// mem.read(0x1004, &mut buf)?;
/// assert_eq!(buf, [1, 2, 3]);
/// # Ok::<(), gr_soc::MemError>(())
/// ```
pub struct PhysMem {
    base: u64,
    bytes: Vec<u8>,
    /// Write-interval log: every mutation path records here, so warm-
    /// residency consumers can prove ranges unchanged between replays.
    dirty: DirtyLog,
    /// One bit per page, set by the same mutation paths that feed
    /// `dirty` and cleared by [`PhysMem::zero_page`]: a clear bit means
    /// the page is all zero, so scrubbing it again can be skipped.
    written: Vec<u64>,
    /// See [`Backing::resident`].
    resident: Vec<u64>,
    /// Where the backing goes on drop.
    pool: &'static SparePool,
}

impl fmt::Debug for PhysMem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PhysMem")
            .field("base", &format_args!("{:#x}", self.base))
            .field("size", &self.bytes.len())
            .finish()
    }
}

impl PhysMem {
    /// Creates `size` bytes of zeroed DRAM at physical address `base`.
    ///
    /// The storage of a dropped DRAM of the same size is reused when one
    /// is spare; it was scrubbed on drop, so it reads zero like a fresh
    /// allocation and no earlier machine's bytes survive (§5.1).
    ///
    /// # Panics
    ///
    /// Panics if `size` is not page-aligned or `base + size` overflows.
    pub fn new(base: u64, size: usize) -> Self {
        Self::new_in(&SPARES, base, size)
    }

    fn new_in(pool: &'static SparePool, base: u64, size: usize) -> Self {
        assert!(size % PAGE_SIZE == 0, "DRAM size must be page aligned");
        assert!(base.checked_add(size as u64).is_some(), "address overflow");
        let Backing {
            bytes,
            written,
            resident,
        } = pool.take(size).unwrap_or_else(|| Backing::zeroed(size));
        PhysMem {
            base,
            bytes,
            dirty: DirtyLog::default(),
            written,
            resident,
            pool,
        }
    }

    /// Marks every page overlapping `[off, off+len)` (DRAM offsets) as
    /// possibly non-zero and logs the write. Every mutation path ends here.
    fn note_write(&mut self, pa: u64, off: usize, len: usize) {
        if len == 0 {
            return;
        }
        for page in off / PAGE_SIZE..=(off + len - 1) / PAGE_SIZE {
            self.written[page / 64] |= 1 << (page % 64);
        }
        self.dirty.record(pa, len);
    }

    /// Zero-fills the page at `pa` unless it is already known to be all
    /// zero: a page nothing has written since DRAM was created or since
    /// its last scrub is skipped without touching it (a never-written
    /// page is never faulted in on the host). Frames handed out as
    /// "zeroed" (§5.1) go through here.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when `pa` is not the page-aligned start of a
    /// page inside DRAM.
    pub fn zero_page(&mut self, pa: u64) -> Result<(), MemError> {
        let off = self.offset(pa, PAGE_SIZE)?;
        if off % PAGE_SIZE != 0 {
            return Err(MemError { pa, len: PAGE_SIZE });
        }
        let (page, bit) = (off / PAGE_SIZE / 64, 1 << (off / PAGE_SIZE % 64));
        if self.written[page] & bit != 0 {
            self.bytes[off..off + PAGE_SIZE].fill(0);
            self.dirty.record(pa, PAGE_SIZE);
            self.written[page] &= !bit;
            self.resident[page] |= bit;
        }
        Ok(())
    }

    /// The DRAM's dirty-range log (read-only view).
    pub fn dirty(&self) -> &DirtyLog {
        &self.dirty
    }

    /// Mutable access to the dirty log (epoch bumps, cap tuning).
    pub fn dirty_mut(&mut self) -> &mut DirtyLog {
        &mut self.dirty
    }

    /// First valid physical address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Size in bytes.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// One past the last valid physical address.
    pub fn end(&self) -> u64 {
        self.base + self.bytes.len() as u64
    }

    /// `true` when `[pa, pa+len)` lies inside DRAM.
    pub fn contains(&self, pa: u64, len: usize) -> bool {
        pa >= self.base && pa.saturating_add(len as u64) <= self.end()
    }

    fn offset(&self, pa: u64, len: usize) -> Result<usize, MemError> {
        if self.contains(pa, len) {
            Ok((pa - self.base) as usize)
        } else {
            Err(MemError { pa, len })
        }
    }

    /// Copies DRAM content at `pa` into `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when the range is out of bounds.
    pub fn read(&self, pa: u64, buf: &mut [u8]) -> Result<(), MemError> {
        let off = self.offset(pa, buf.len())?;
        buf.copy_from_slice(&self.bytes[off..off + buf.len()]);
        Ok(())
    }

    /// Copies `data` into DRAM at `pa`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when the range is out of bounds.
    pub fn write(&mut self, pa: u64, data: &[u8]) -> Result<(), MemError> {
        let off = self.offset(pa, data.len())?;
        self.bytes[off..off + data.len()].copy_from_slice(data);
        self.note_write(pa, off, data.len());
        Ok(())
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when out of bounds.
    pub fn read_u32(&self, pa: u64) -> Result<u32, MemError> {
        let mut b = [0u8; 4];
        self.read(pa, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Writes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when out of bounds.
    pub fn write_u32(&mut self, pa: u64, val: u32) -> Result<(), MemError> {
        self.write(pa, &val.to_le_bytes())
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when out of bounds.
    pub fn read_u64(&self, pa: u64) -> Result<u64, MemError> {
        let mut b = [0u8; 8];
        self.read(pa, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when out of bounds.
    pub fn write_u64(&mut self, pa: u64, val: u64) -> Result<(), MemError> {
        self.write(pa, &val.to_le_bytes())
    }

    /// Fills `[pa, pa+len)` with `byte`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when out of bounds.
    pub fn fill(&mut self, pa: u64, len: usize, byte: u8) -> Result<(), MemError> {
        let off = self.offset(pa, len)?;
        self.bytes[off..off + len].fill(byte);
        self.note_write(pa, off, len);
        Ok(())
    }

    /// Borrow of the raw range (used by hashing/dump code on hot paths).
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when out of bounds.
    pub fn slice(&self, pa: u64, len: usize) -> Result<&[u8], MemError> {
        let off = self.offset(pa, len)?;
        Ok(&self.bytes[off..off + len])
    }

    /// Mutable borrow of the raw range (zero-copy writers; pair with
    /// [`SharedMem::write_guard`]).
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when out of bounds.
    pub fn slice_mut(&mut self, pa: u64, len: usize) -> Result<&mut [u8], MemError> {
        let off = self.offset(pa, len)?;
        // Conservative: the whole borrowed range counts as written.
        self.note_write(pa, off, len);
        Ok(&mut self.bytes[off..off + len])
    }
}

impl Drop for PhysMem {
    /// Hands the backing to the spare list, which scrubs it if it keeps it.
    fn drop(&mut self) {
        self.pool.give(Backing {
            bytes: mem::take(&mut self.bytes),
            written: mem::take(&mut self.written),
            resident: mem::take(&mut self.resident),
        });
    }
}

/// Cheap-to-clone shared handle to the machine's DRAM.
///
/// Uses a read/write lock: the GPU device model, drivers, recorder, and
/// replayer all hold clones.
#[derive(Debug, Clone)]
pub struct SharedMem {
    inner: Arc<RwLock<PhysMem>>,
}

impl SharedMem {
    /// Wraps `mem` for sharing.
    pub fn new(mem: PhysMem) -> Self {
        SharedMem {
            inner: Arc::new(RwLock::new(mem)),
        }
    }

    /// DRAM base address.
    pub fn base(&self) -> u64 {
        self.inner.read().base()
    }

    /// DRAM size in bytes.
    pub fn size(&self) -> usize {
        self.inner.read().size()
    }

    /// One past the last valid physical address.
    pub fn end(&self) -> u64 {
        self.inner.read().end()
    }

    /// `true` when `[pa, pa+len)` lies inside DRAM.
    pub fn contains(&self, pa: u64, len: usize) -> bool {
        self.inner.read().contains(pa, len)
    }

    /// See [`PhysMem::read`].
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when out of bounds.
    pub fn read(&self, pa: u64, buf: &mut [u8]) -> Result<(), MemError> {
        self.inner.read().read(pa, buf)
    }

    /// See [`PhysMem::write`].
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when out of bounds.
    pub fn write(&self, pa: u64, data: &[u8]) -> Result<(), MemError> {
        self.inner.write().write(pa, data)
    }

    /// See [`PhysMem::read_u32`].
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when out of bounds.
    pub fn read_u32(&self, pa: u64) -> Result<u32, MemError> {
        self.inner.read().read_u32(pa)
    }

    /// See [`PhysMem::write_u32`].
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when out of bounds.
    pub fn write_u32(&self, pa: u64, val: u32) -> Result<(), MemError> {
        self.inner.write().write_u32(pa, val)
    }

    /// See [`PhysMem::read_u64`].
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when out of bounds.
    pub fn read_u64(&self, pa: u64) -> Result<u64, MemError> {
        self.inner.read().read_u64(pa)
    }

    /// See [`PhysMem::write_u64`].
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when out of bounds.
    pub fn write_u64(&self, pa: u64, val: u64) -> Result<(), MemError> {
        self.inner.write().write_u64(pa, val)
    }

    /// See [`PhysMem::fill`].
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when out of bounds.
    pub fn fill(&self, pa: u64, len: usize, byte: u8) -> Result<(), MemError> {
        self.inner.write().fill(pa, len, byte)
    }

    /// See [`PhysMem::zero_page`].
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when `pa` is not a page start inside DRAM.
    pub fn zero_page(&self, pa: u64) -> Result<(), MemError> {
        self.inner.write().zero_page(pa)
    }

    /// Copies out `[pa, pa+len)` as a fresh vector (dump capture).
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when out of bounds.
    pub fn read_vec(&self, pa: u64, len: usize) -> Result<Vec<u8>, MemError> {
        let g = self.inner.read();
        Ok(g.slice(pa, len)?.to_vec())
    }

    /// Runs `f` over the raw bytes of `[pa, pa+len)` without copying.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when out of bounds.
    pub fn with_slice<R>(
        &self,
        pa: u64,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, MemError> {
        let g = self.inner.read();
        Ok(f(g.slice(pa, len)?))
    }

    /// `true` when both handles refer to the same DRAM.
    pub fn same_memory(&self, other: &SharedMem) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Acquires shared read access held across a whole multi-chunk
    /// transfer, instead of re-taking the lock per chunk.
    ///
    /// Lock-amortization contract: callers must finish all address
    /// translation *before* taking a guard and must not call any other
    /// `SharedMem` method while holding one (the underlying lock is not
    /// reentrant).
    pub fn read_guard(&self) -> MemReadGuard<'_> {
        MemReadGuard {
            guard: self.inner.read(),
        }
    }

    /// Acquires exclusive write access held across a whole multi-chunk
    /// transfer. Same contract as [`SharedMem::read_guard`].
    pub fn write_guard(&self) -> MemWriteGuard<'_> {
        MemWriteGuard {
            guard: self.inner.write(),
        }
    }

    /// A [`DirtyMark`] covering every DRAM write from now on.
    pub fn dirty_mark(&self) -> DirtyMark {
        self.inner.read().dirty().mark()
    }

    /// Current dirty-log epoch (bumped on GPU reset / AS switch).
    pub fn dirty_epoch(&self) -> u64 {
        self.inner.read().dirty().epoch()
    }

    /// Was physical `[pa, pa+len)` written since `mark`? See
    /// [`DirtyVerdict`] for the `Unknown` fallback semantics.
    pub fn dirty_since(&self, mark: DirtyMark, pa: u64, len: usize) -> DirtyVerdict {
        self.inner.read().dirty().dirty_since(mark, pa, len)
    }

    /// The written subranges of physical `[pa, pa+len)` since `mark`
    /// (see [`DirtyLog::dirty_intervals_since`]).
    pub fn dirty_intervals_since(
        &self,
        mark: DirtyMark,
        pa: u64,
        len: usize,
    ) -> Option<Vec<(u64, u64)>> {
        self.inner
            .read()
            .dirty()
            .dirty_intervals_since(mark, pa, len)
    }

    /// Invalidates every outstanding [`DirtyMark`]. The GPU device models
    /// call this on soft reset and address-space switches, alongside their
    /// `SoftTlb` flushes.
    pub fn bump_dirty_epoch(&self) {
        self.inner.write().dirty_mut().bump_epoch();
    }

    /// Bounds the dirty log's retained intervals (tests use a tiny cap to
    /// force the `Unknown` → compare-fallback path).
    pub fn set_dirty_log_cap(&self, cap: usize) {
        self.inner.write().dirty_mut().set_cap(cap);
    }
}

/// Shared access to the DRAM behind a [`SharedMem`], for bulk transfers
/// that would otherwise pay one lock acquisition per 4-KiB chunk.
///
/// Dereferences to [`PhysMem`], so all read accessors are available.
pub struct MemReadGuard<'a> {
    guard: RwLockReadGuard<'a, PhysMem>,
}

impl Deref for MemReadGuard<'_> {
    type Target = PhysMem;

    fn deref(&self) -> &PhysMem {
        &self.guard
    }
}

/// Exclusive access to the DRAM behind a [`SharedMem`], for bulk
/// transfers. Dereferences (mutably) to [`PhysMem`].
pub struct MemWriteGuard<'a> {
    guard: RwLockWriteGuard<'a, PhysMem>,
}

impl Deref for MemWriteGuard<'_> {
    type Target = PhysMem;

    fn deref(&self) -> &PhysMem {
        &self.guard
    }
}

impl DerefMut for MemWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut PhysMem {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rw_roundtrip() {
        let mut m = PhysMem::new(0x8000_0000, 4 * PAGE_SIZE);
        m.write(0x8000_0010, b"hello").unwrap();
        let mut buf = [0u8; 5];
        m.read(0x8000_0010, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn scalar_accessors_are_little_endian() {
        let mut m = PhysMem::new(0, PAGE_SIZE);
        m.write_u32(0, 0x0102_0304).unwrap();
        assert_eq!(m.slice(0, 4).unwrap(), &[4, 3, 2, 1]);
        m.write_u64(8, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(m.read_u64(8).unwrap(), 0x1122_3344_5566_7788);
    }

    #[test]
    fn out_of_range_is_an_error_not_a_panic() {
        let mut m = PhysMem::new(0x1000, PAGE_SIZE);
        assert_eq!(m.read_u32(0xfff), Err(MemError { pa: 0xfff, len: 4 }));
        assert!(m.write(0x1000 + PAGE_SIZE as u64 - 2, &[0; 4]).is_err());
        // Address arithmetic near u64::MAX must not overflow.
        assert!(m.read_u32(u64::MAX - 1).is_err());
    }

    #[test]
    fn fill_and_slice() {
        let mut m = PhysMem::new(0, PAGE_SIZE);
        m.fill(16, 8, 0xAB).unwrap();
        assert_eq!(m.slice(16, 8).unwrap(), &[0xAB; 8]);
        assert_eq!(m.slice(15, 1).unwrap(), &[0]);
    }

    #[test]
    fn shared_handles_alias() {
        let shared = SharedMem::new(PhysMem::new(0x4000, 2 * PAGE_SIZE));
        let clone = shared.clone();
        shared.write_u32(0x4000, 7).unwrap();
        assert_eq!(clone.read_u32(0x4000).unwrap(), 7);
        assert!(shared.same_memory(&clone));
        assert_eq!(shared.read_vec(0x4000, 4).unwrap(), vec![7, 0, 0, 0]);
        let sum = shared
            .with_slice(0x4000, 4, |s| s.iter().map(|&b| u32::from(b)).sum::<u32>())
            .unwrap();
        assert_eq!(sum, 7);
        assert!(shared.contains(0x4000, PAGE_SIZE));
        assert_eq!(shared.end(), 0x4000 + 2 * PAGE_SIZE as u64);
    }

    #[test]
    fn zero_page_skips_clean_pages_and_scrubs_written_ones() {
        let mut m = PhysMem::new(0x1000, 3 * PAGE_SIZE);
        let mark = m.dirty().mark();
        // Never written: nothing to scrub, nothing logged.
        m.zero_page(0x1000).unwrap();
        assert_eq!(
            m.dirty().dirty_since(mark, 0x1000, PAGE_SIZE),
            DirtyVerdict::Clean
        );
        // A write straddling pages 1 and 2 makes both scrub.
        m.write(0x1000 + 2 * PAGE_SIZE as u64 - 2, &[7; 4]).unwrap();
        let mark = m.dirty().mark();
        m.zero_page(0x1000 + PAGE_SIZE as u64).unwrap();
        m.zero_page(0x1000 + 2 * PAGE_SIZE as u64).unwrap();
        assert!(m
            .slice(0x1000, 3 * PAGE_SIZE)
            .unwrap()
            .iter()
            .all(|&b| b == 0));
        assert_eq!(
            m.dirty().dirty_since(mark, 0x1000, PAGE_SIZE),
            DirtyVerdict::Clean
        );
        assert_eq!(
            m.dirty()
                .dirty_since(mark, 0x1000 + PAGE_SIZE as u64, PAGE_SIZE),
            DirtyVerdict::Dirty
        );
        // A scrubbed page is known zero again until the next write.
        let mark = m.dirty().mark();
        m.zero_page(0x1000 + PAGE_SIZE as u64).unwrap();
        assert_eq!(
            m.dirty().dirty_since(mark, 0x1000, 3 * PAGE_SIZE),
            DirtyVerdict::Clean
        );
        // Only page starts inside DRAM are accepted.
        assert!(m.zero_page(0x1001).is_err());
        assert!(m.zero_page(0x1000 + 3 * PAGE_SIZE as u64).is_err());
        assert!(m.zero_page(0).is_err());
    }

    proptest::proptest! {
        #[test]
        fn zero_page_leaves_every_page_zero_after_any_write_mix(
            ops in proptest::collection::vec(
                (proptest::prelude::any::<u8>(), (proptest::prelude::any::<u64>(), proptest::prelude::any::<u16>())),
                1..40,
            ),
            scrub_between in proptest::prelude::any::<u64>(),
        ) {
            const PAGES: usize = 4;
            const BASE: u64 = 0x8000;
            let shared = SharedMem::new(PhysMem::new(BASE, PAGES * PAGE_SIZE));
            for (i, &(kind, (at, len))) in ops.iter().enumerate() {
                let off = at % (PAGES * PAGE_SIZE) as u64;
                let len = (len as usize % (2 * PAGE_SIZE)).min(PAGES * PAGE_SIZE - off as usize);
                let byte = (at >> 56) as u8 | 1;
                let pa = BASE + off;
                match kind % 7 {
                    0 => shared.write(pa, &vec![byte; len]).unwrap(),
                    1 => {
                        let _ = shared.write_u32(pa, u32::from(byte) << 8 | 1);
                    }
                    2 => {
                        let _ = shared.write_u64(pa, u64::from(byte) << 40 | 1);
                    }
                    3 => shared.fill(pa, len, byte).unwrap(),
                    4 => shared.write_guard().slice_mut(pa, len).unwrap().fill(byte),
                    5 => {
                        let mut g = shared.write_guard();
                        let _ = g.write_u32(pa, 0xFFFF_FFFF);
                        g.write(pa, &vec![byte; len]).unwrap();
                    }
                    _ => {
                        let page = off / PAGE_SIZE as u64 * PAGE_SIZE as u64;
                        shared.zero_page(BASE + page).unwrap();
                    }
                }
                // Scrub a random page now and then, so clean and scrubbed
                // pages mix with written ones.
                if scrub_between >> (i % 64) & 1 == 1 {
                    let page = (at >> 20) % PAGES as u64;
                    shared.zero_page(BASE + page * PAGE_SIZE as u64).unwrap();
                    let zero = shared
                        .with_slice(BASE + page * PAGE_SIZE as u64, PAGE_SIZE, |s| s.iter().all(|&b| b == 0))
                        .unwrap();
                    assert!(zero, "page {page} not zero right after zero_page");
                }
            }
            for page in 0..PAGES as u64 {
                shared.zero_page(BASE + page * PAGE_SIZE as u64).unwrap();
            }
            let all_zero = shared
                .with_slice(BASE, PAGES * PAGE_SIZE, |s| s.iter().all(|&b| b == 0))
                .unwrap();
            assert!(all_zero, "zero_page left data behind");
        }
    }

    /// Address of a DRAM's backing bytes.
    fn backing_ptr(mem: &PhysMem) -> usize {
        mem.bytes.as_ptr() as usize
    }

    /// `(size, address)` of every spare `pool` holds.
    fn spares(pool: &SparePool) -> Vec<(usize, usize)> {
        pool.lock()
            .iter()
            .map(|s| (s.bytes.len(), s.bytes.as_ptr() as usize))
            .collect()
    }

    /// The state a fresh allocation starts in: every byte zero, every
    /// "written since last scrub" bit clear.
    fn assert_like_new(mem: &PhysMem) {
        assert!(mem.bytes.iter().all(|&b| b == 0), "old bytes survived");
        assert!(mem.written.iter().all(|&w| w == 0), "page bit survived");
    }

    /// Applies one write of each kind that goes through the mutation
    /// funnel. `slice_mut` alone writes page 4, so a missed page bit there
    /// leaves it unscrubbed.
    fn poison(shared: &SharedMem, base: u64) {
        let page = PAGE_SIZE as u64;
        shared.write(base + 3, b"secret").unwrap();
        shared.write_u32(base + page + 8, 0xDEAD_BEEF).unwrap();
        shared.write_u64(base + 2 * page - 4, u64::MAX).unwrap();
        shared.fill(base + 3 * page, 17, 0x5A).unwrap();
        shared
            .write_guard()
            .slice_mut(base + 4 * page + 100, 8)
            .unwrap()
            .fill(0xC3);
        shared.write_guard().write_u32(base + 5 * page, 9).unwrap();
    }

    #[test]
    fn dropped_dram_is_reused_scrubbed() {
        static POOL: SparePool = SparePool::new();
        let size = 6 * PAGE_SIZE;
        let shared = SharedMem::new(PhysMem::new_in(&POOL, 0x1000, size));
        poison(&shared, 0x1000);
        let ptr = backing_ptr(&shared.read_guard());
        drop(shared);
        // The spare holds the backing, so no fresh allocation can land at
        // its address: an equal pointer below proves reuse.
        assert_eq!(spares(&POOL), vec![(size, ptr)]);
        let mem = PhysMem::new_in(&POOL, 0x8000_0000, size);
        assert_eq!(backing_ptr(&mem), ptr);
        assert!(spares(&POOL).is_empty());
        assert_like_new(&mem);
        assert_eq!(mem.base(), 0x8000_0000);
        assert_eq!(
            mem.dirty()
                .dirty_since(mem.dirty().mark(), 0x8000_0000, size),
            DirtyVerdict::Clean
        );
        // Every page `poison` wrote stays counted as resident.
        assert_eq!(mem.resident[0], 0b11_1111);
    }

    #[test]
    fn zero_page_scrubs_count_as_resident_across_reuse() {
        static POOL: SparePool = SparePool::new();
        let pages = MAX_SPARE_RESIDENT / PAGE_SIZE + 1;
        let size = pages * PAGE_SIZE;
        // First life: write and scrub every page but the last. Kept.
        let mut mem = PhysMem::new_in(&POOL, 0, size);
        for page in 0..pages - 1 {
            let pa = (page * PAGE_SIZE) as u64;
            mem.write_u32(pa, 1).unwrap();
            mem.zero_page(pa).unwrap();
        }
        let ptr = backing_ptr(&mem);
        drop(mem);
        assert_eq!(spares(&POOL), vec![(size, ptr)]);
        // Second life writes only the last page, but the backing now has
        // more resident pages than the cap: it is released, not kept.
        let mut mem = PhysMem::new_in(&POOL, 0, size);
        assert_eq!(backing_ptr(&mem), ptr);
        mem.write_u32(((pages - 1) * PAGE_SIZE) as u64, 1).unwrap();
        drop(mem);
        assert!(spares(&POOL).is_empty());
    }

    #[test]
    fn dram_over_the_resident_cap_is_released() {
        static POOL: SparePool = SparePool::new();
        let pages = MAX_SPARE_RESIDENT / PAGE_SIZE;
        let mut mem = PhysMem::new_in(&POOL, 0, (pages + 1) * PAGE_SIZE);
        for page in 0..pages {
            mem.write_u32((page * PAGE_SIZE) as u64, 1).unwrap();
        }
        // Exactly at the cap: kept.
        drop(mem);
        assert_eq!(spares(&POOL).len(), 1);
        let mut mem = PhysMem::new_in(&POOL, 0, (pages + 1) * PAGE_SIZE);
        mem.write_u32((pages * PAGE_SIZE) as u64, 1).unwrap();
        drop(mem);
        assert!(spares(&POOL).is_empty());
    }

    #[test]
    fn spares_never_change_size() {
        static POOL: SparePool = SparePool::new();
        let mut mem = PhysMem::new_in(&POOL, 0, 2 * PAGE_SIZE);
        mem.fill(0, 2 * PAGE_SIZE, 0xFF).unwrap();
        let ptr = backing_ptr(&mem);
        drop(mem);
        for pages in [1, 3] {
            let other = PhysMem::new_in(&POOL, 0, pages * PAGE_SIZE);
            assert_ne!(backing_ptr(&other), ptr);
            assert_eq!(other.size(), pages * PAGE_SIZE);
            assert_eq!(spares(&POOL)[0], (2 * PAGE_SIZE, ptr));
            // Dropping `other` adds a spare of its own size.
        }
        let mut sizes: Vec<usize> = spares(&POOL).iter().map(|s| s.0).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, [PAGE_SIZE, 2 * PAGE_SIZE, 3 * PAGE_SIZE]);
    }

    #[test]
    fn full_spare_list_keeps_a_fixed_number() {
        static POOL: SparePool = SparePool::new();
        // Two of one size: the second finds its size taken.
        let a = PhysMem::new_in(&POOL, 0, PAGE_SIZE);
        let b = PhysMem::new_in(&POOL, 0, PAGE_SIZE);
        let kept = backing_ptr(&a);
        drop(a);
        drop(b);
        assert_eq!(spares(&POOL), vec![(PAGE_SIZE, kept)]);
        // Live at once, then dropped: one more size than there are slots.
        let mems: Vec<PhysMem> = (1..=MAX_SPARES + 1)
            .map(|pages| PhysMem::new_in(&POOL, 0, pages * PAGE_SIZE))
            .collect();
        drop(mems);
        let held = spares(&POOL);
        assert_eq!(held.len(), MAX_SPARES);
        assert!(held.contains(&(PAGE_SIZE, kept)));
        assert!(held.iter().all(|&(size, _)| size <= MAX_SPARES * PAGE_SIZE));
    }

    #[test]
    fn threads_never_see_each_others_bytes() {
        static POOL: SparePool = SparePool::new();
        const BASE: u64 = 0x4000;
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4u8 {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    for _ in 0..200 {
                        let shared = SharedMem::new(PhysMem::new_in(&POOL, BASE, 6 * PAGE_SIZE));
                        assert_like_new(&shared.read_guard());
                        poison(&shared, BASE);
                        shared.write(BASE + 7, &[t + 1; 64]).unwrap();
                    }
                });
            }
        });
        assert_eq!(spares(&POOL).len(), 1);
        assert_like_new(&PhysMem::new_in(&POOL, BASE, 6 * PAGE_SIZE));
    }

    proptest::proptest! {
        #[test]
        fn reused_dram_is_zero_after_any_write_mix(
            ops in proptest::collection::vec(
                (proptest::prelude::any::<u8>(), (proptest::prelude::any::<u64>(), proptest::prelude::any::<u16>())),
                0..40,
            ),
        ) {
            static POOL: SparePool = SparePool::new();
            const PAGES: usize = 5;
            const BASE: u64 = 0x10_0000;
            let shared = SharedMem::new(PhysMem::new_in(&POOL, BASE, PAGES * PAGE_SIZE));
            for &(kind, (at, len)) in &ops {
                let off = at % (PAGES * PAGE_SIZE) as u64;
                let len = (len as usize % (2 * PAGE_SIZE)).min(PAGES * PAGE_SIZE - off as usize);
                let byte = (at >> 56) as u8 | 1;
                let pa = BASE + off;
                match kind % 6 {
                    0 => shared.write(pa, &vec![byte; len]).unwrap(),
                    1 => {
                        let _ = shared.write_u32(pa, u32::from(byte) << 8 | 1);
                    }
                    2 => {
                        let _ = shared.write_u64(pa, u64::from(byte) << 40 | 1);
                    }
                    3 => shared.fill(pa, len, byte).unwrap(),
                    4 => shared.write_guard().slice_mut(pa, len).unwrap().fill(byte),
                    _ => {
                        let _ = shared.write_guard().write_u64(pa, u64::MAX);
                    }
                }
            }
            let ptr = backing_ptr(&shared.read_guard());
            drop(shared);
            let mem = PhysMem::new_in(&POOL, BASE, PAGES * PAGE_SIZE);
            assert_eq!(backing_ptr(&mem), ptr);
            assert_like_new(&mem);
        }
    }

    #[test]
    #[should_panic(expected = "page aligned")]
    fn unaligned_size_panics() {
        let _ = PhysMem::new(0, 100);
    }

    #[test]
    fn guards_amortize_locking_across_chunks() {
        let shared = SharedMem::new(PhysMem::new(0, 4 * PAGE_SIZE));
        {
            let mut g = shared.write_guard();
            g.write(0, b"abc").unwrap();
            g.write(PAGE_SIZE as u64, b"def").unwrap();
        }
        let g = shared.read_guard();
        let mut buf = [0u8; 3];
        g.read(0, &mut buf).unwrap();
        assert_eq!(&buf, b"abc");
        g.read(PAGE_SIZE as u64, &mut buf).unwrap();
        assert_eq!(&buf, b"def");
        assert!(g.read(4 * PAGE_SIZE as u64, &mut buf).is_err());
    }
}
