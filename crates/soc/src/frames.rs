//! Physical page-frame allocation.
//!
//! Both the full GPU driver and the replayer's nano driver need physical
//! pages to back GPU virtual mappings. The replayer additionally promises
//! (§5.1) that "allocated physical pages contain no sensitive data", so
//! [`FrameAllocator::alloc_zeroed`] scrubs frames through the shared DRAM
//! handle before returning them. The scrub skips pages DRAM knows are
//! still all zero ([`SharedMem::zero_page`]).

use crate::mem::{MemError, SharedMem, PAGE_SIZE};

/// A bitmap allocator over a contiguous physical frame range.
///
/// # Example
///
/// ```
/// use gr_soc::{FrameAllocator, PAGE_SIZE};
///
/// let mut alloc = FrameAllocator::new(0x8000_0000, 8);
/// let f = alloc.alloc().unwrap();
/// assert_eq!(f, 0x8000_0000);
/// alloc.free(f).unwrap();
/// assert_eq!(alloc.used(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    base: u64,
    used: Vec<bool>,
    in_use: usize,
    cursor: usize,
}

/// Error returned by [`FrameAllocator::free`] for addresses that were not
/// live allocations from this allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameFreeError {
    /// The rejected physical address.
    pub pa: u64,
}

impl std::fmt::Display for FrameFreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid frame free: pa={:#x}", self.pa)
    }
}

impl std::error::Error for FrameFreeError {}

impl FrameAllocator {
    /// Creates an allocator managing `frames` page frames starting at
    /// physical address `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not page-aligned.
    pub fn new(base: u64, frames: usize) -> Self {
        assert!(
            base % PAGE_SIZE as u64 == 0,
            "frame base must be page aligned"
        );
        FrameAllocator {
            base,
            used: vec![false; frames],
            in_use: 0,
            cursor: 0,
        }
    }

    /// Total frames managed.
    pub fn capacity(&self) -> usize {
        self.used.len()
    }

    /// Frames currently allocated.
    pub fn used(&self) -> usize {
        self.in_use
    }

    /// Frames still free.
    pub fn free_count(&self) -> usize {
        self.capacity() - self.in_use
    }

    /// Allocates one frame, returning its physical address.
    ///
    /// Returns `None` when DRAM is exhausted. Uses a rotating cursor so
    /// freed frames are not immediately reused — this catches stale-pointer
    /// bugs in dump loading the same way real allocators shake out
    /// use-after-free.
    pub fn alloc(&mut self) -> Option<u64> {
        let n = self.used.len();
        if self.in_use == n {
            return None;
        }
        for probe in 0..n {
            let idx = (self.cursor + probe) % n;
            if !self.used[idx] {
                self.used[idx] = true;
                self.in_use += 1;
                self.cursor = (idx + 1) % n;
                return Some(self.base + (idx * PAGE_SIZE) as u64);
            }
        }
        None
    }

    /// Allocates `count` *contiguous* frames (needed for multi-page register
    /// save areas and checkpoint buffers), returning the first address.
    pub fn alloc_contig(&mut self, count: usize) -> Option<u64> {
        if count == 0 || count > self.used.len() {
            return None;
        }
        let n = self.used.len();
        let mut run = 0;
        for idx in 0..n {
            if self.used[idx] {
                run = 0;
            } else {
                run += 1;
                if run == count {
                    let start = idx + 1 - count;
                    for i in start..=idx {
                        self.used[i] = true;
                    }
                    self.in_use += count;
                    return Some(self.base + (start * PAGE_SIZE) as u64);
                }
            }
        }
        None
    }

    /// Allocates one frame and scrubs it through `mem` (see
    /// [`SharedMem::zero_page`]).
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if the frame lies outside `mem` (a machine
    /// wiring bug).
    pub fn alloc_zeroed(&mut self, mem: &SharedMem) -> Result<Option<u64>, MemError> {
        match self.alloc() {
            Some(pa) => {
                mem.zero_page(pa)?;
                Ok(Some(pa))
            }
            None => Ok(None),
        }
    }

    /// Returns a frame to the pool.
    ///
    /// # Errors
    ///
    /// Returns [`FrameFreeError`] if `pa` is unaligned, out of range, or not
    /// currently allocated.
    pub fn free(&mut self, pa: u64) -> Result<(), FrameFreeError> {
        let err = FrameFreeError { pa };
        if pa < self.base || (pa - self.base) % PAGE_SIZE as u64 != 0 {
            return Err(err);
        }
        let idx = ((pa - self.base) / PAGE_SIZE as u64) as usize;
        if idx >= self.used.len() || !self.used[idx] {
            return Err(err);
        }
        self.used[idx] = false;
        self.in_use -= 1;
        Ok(())
    }

    /// `true` if `pa` is a currently-allocated frame of this allocator.
    pub fn is_allocated(&self, pa: u64) -> bool {
        if pa < self.base || (pa - self.base) % PAGE_SIZE as u64 != 0 {
            return false;
        }
        let idx = ((pa - self.base) / PAGE_SIZE as u64) as usize;
        idx < self.used.len() && self.used[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::PhysMem;

    #[test]
    fn alloc_free_cycle() {
        let mut a = FrameAllocator::new(0x1000, 4);
        let f0 = a.alloc().unwrap();
        let f1 = a.alloc().unwrap();
        assert_ne!(f0, f1);
        assert_eq!(a.used(), 2);
        assert!(a.is_allocated(f0));
        a.free(f0).unwrap();
        assert!(!a.is_allocated(f0));
        assert_eq!(a.free_count(), 3);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut a = FrameAllocator::new(0, 2);
        assert!(a.alloc().is_some());
        assert!(a.alloc().is_some());
        assert_eq!(a.alloc(), None);
        assert_eq!(a.alloc_contig(1), None);
    }

    #[test]
    fn contig_runs_are_contiguous() {
        let mut a = FrameAllocator::new(0, 8);
        let first = a.alloc().unwrap(); // occupy frame 0
        let run = a.alloc_contig(3).unwrap();
        assert_eq!(run, first + PAGE_SIZE as u64);
        for i in 0..3 {
            assert!(a.is_allocated(run + (i * PAGE_SIZE) as u64));
        }
        assert_eq!(a.alloc_contig(5), None, "only 4 frames left");
        assert_eq!(a.alloc_contig(0), None);
    }

    #[test]
    fn double_free_and_foreign_free_rejected() {
        let mut a = FrameAllocator::new(0x1000, 2);
        let f = a.alloc().unwrap();
        a.free(f).unwrap();
        assert_eq!(a.free(f), Err(FrameFreeError { pa: f }));
        assert!(a.free(0x500).is_err(), "below base");
        assert!(a.free(0x1001).is_err(), "unaligned");
        assert!(
            a.free(0x1000 + 10 * PAGE_SIZE as u64).is_err(),
            "beyond range"
        );
    }

    #[test]
    fn zeroed_alloc_scrubs_previous_content() {
        let mem = SharedMem::new(PhysMem::new(0, 4 * PAGE_SIZE));
        let mut a = FrameAllocator::new(0, 4);
        let f = a.alloc().unwrap();
        mem.fill(f, PAGE_SIZE, 0xEE).unwrap();
        a.free(f).unwrap();
        // Cursor rotation means we may get a different frame; force reuse by
        // draining the pool.
        let mut got = Vec::new();
        while let Some(pa) = a.alloc_zeroed(&mem).unwrap() {
            got.push(pa);
        }
        assert_eq!(got.len(), 4);
        for pa in got {
            let v = mem.read_vec(pa, PAGE_SIZE).unwrap();
            assert!(v.iter().all(|&b| b == 0), "frame {pa:#x} not scrubbed");
        }
    }

    #[test]
    fn cursor_rotates_so_frees_are_not_immediately_reused() {
        let mut a = FrameAllocator::new(0, 4);
        let f0 = a.alloc().unwrap();
        a.free(f0).unwrap();
        let f1 = a.alloc().unwrap();
        assert_ne!(f0, f1, "rotating cursor should avoid immediate reuse");
    }
}
