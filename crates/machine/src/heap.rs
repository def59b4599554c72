//! A bump allocator over the System Virtual Address space.
//!
//! Experiments allocate their shared data structures before the simulation
//! runs (matching the paper's methodology of setting up arrays and then
//! timing the access phases). Sub-page alignment matters: §3.2.2 notes "we
//! have aligned (whenever possible) mutually exclusive parts of shared
//! data structures on separate cache lines so that there is no false
//! sharing" — allocators therefore default to 128 B alignment for
//! synchronization variables.

use std::ops::Range;

use ksr_core::{Error, Result};
use ksr_mem::SUBPAGE_BYTES;

/// Upper bound of the simulated SVA space: 1 TB, far beyond any
/// experiment; exists only to catch runaway allocation loops.
const SVA_LIMIT: u64 = 1 << 40;

/// Bump allocator handing out SVA ranges.
#[derive(Debug, Clone)]
pub struct Heap {
    next: u64,
}

impl Default for Heap {
    fn default() -> Self {
        Self::new()
    }
}

impl Heap {
    /// Fresh heap. Address 0 is left unmapped so that a zero address can
    /// serve as a sentinel in simulated programs.
    #[must_use]
    pub fn new() -> Self {
        Self {
            next: SUBPAGE_BYTES,
        }
    }

    /// Allocate `bytes` with the given power-of-two alignment.
    pub fn alloc(&mut self, bytes: u64, align: u64) -> Result<u64> {
        if bytes == 0 {
            return Err(Error::Config("zero-sized allocation".into()));
        }
        if !align.is_power_of_two() {
            return Err(Error::Config(format!(
                "alignment {align} is not a power of two"
            )));
        }
        let base = self.next.next_multiple_of(align);
        let end = base
            .checked_add(bytes)
            .filter(|&e| e <= SVA_LIMIT)
            .ok_or(Error::OutOfMemory { requested: bytes })?;
        self.next = end;
        Ok(base)
    }

    /// Allocate `words` 8-byte words, 8-byte aligned.
    pub fn alloc_words(&mut self, words: u64) -> Result<u64> {
        self.alloc(words * 8, 8)
    }

    /// Allocate on a fresh 128 B sub-page (and round the size up to whole
    /// sub-pages) so the object shares its coherence unit with nothing —
    /// the paper's false-sharing-avoidance discipline.
    pub fn alloc_subpage_aligned(&mut self, bytes: u64) -> Result<u64> {
        let rounded = bytes.next_multiple_of(SUBPAGE_BYTES);
        self.alloc(rounded, SUBPAGE_BYTES)
    }

    /// Bytes allocated so far.
    #[must_use]
    pub fn used(&self) -> u64 {
        self.next
    }

    /// The addresses handed out so far: from the end of the unmapped
    /// zero sub-page up to [`Self::used`].
    #[must_use]
    pub fn mapped(&self) -> Range<u64> {
        SUBPAGE_BYTES..self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_do_not_overlap() {
        let mut h = Heap::new();
        let a = h.alloc(100, 8).unwrap();
        let b = h.alloc(100, 8).unwrap();
        assert!(b >= a + 100);
    }

    #[test]
    fn alignment_respected() {
        let mut h = Heap::new();
        h.alloc(3, 1).unwrap();
        let a = h.alloc(8, 64).unwrap();
        assert_eq!(a % 64, 0);
        let b = h.alloc_subpage_aligned(1).unwrap();
        assert_eq!(b % 128, 0);
    }

    #[test]
    fn subpage_aligned_rounds_size_up() {
        let mut h = Heap::new();
        let a = h.alloc_subpage_aligned(1).unwrap();
        let b = h.alloc(1, 1).unwrap();
        assert!(b >= a + 128, "next object must not share the sub-page");
    }

    #[test]
    fn zero_and_bad_align_rejected() {
        let mut h = Heap::new();
        assert!(h.alloc(0, 8).is_err());
        assert!(h.alloc(8, 3).is_err());
    }

    #[test]
    fn mapped_range_covers_every_allocation() {
        let mut h = Heap::new();
        assert!(h.mapped().is_empty());
        let a = h.alloc(8, 8).unwrap();
        let b = h.alloc_subpage_aligned(1).unwrap();
        assert_eq!(h.mapped(), SUBPAGE_BYTES..b + SUBPAGE_BYTES);
        assert!(h.mapped().contains(&a) && !h.mapped().contains(&0));
    }

    #[test]
    fn address_zero_never_returned() {
        let mut h = Heap::new();
        assert_ne!(h.alloc(8, 8).unwrap(), 0);
    }

    #[test]
    fn oom_on_absurd_request() {
        let mut h = Heap::new();
        assert!(h.alloc(u64::MAX - 100, 8).is_err());
    }
}
