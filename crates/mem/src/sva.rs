//! System Virtual Address space — the data plane.
//!
//! In a real COMA machine data lives *only* in the caches; the ALLCACHE
//! engine guarantees the last copy of a sub-page is never lost. The
//! simulator gets the same guarantee more cheaply: a sparse page-granular
//! backing store holds the authoritative bytes, while the caches hold only
//! residency/coherence metadata. Because the coordinator serializes
//! conflicting accesses in virtual-time order (sequential consistency, as
//! the KSR-1 provides), a single authoritative value per address is exact.

use std::ops::Range;

use ksr_core::{Error, FxHashMap, Result};

use crate::geometry::PAGE_BYTES;

/// Sparse byte store keyed by 16 KB page, over the mapped address range.
#[derive(Debug, Clone, Default)]
pub struct SvaStore {
    pages: FxHashMap<u64, Box<[u8]>>,
    /// Addresses a program may touch (empty until [`Self::set_mapped`]).
    mapped: Range<u64>,
}

impl SvaStore {
    /// Empty store with nothing mapped.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Map `range`: accesses outside it fail with [`Error::BadAddress`].
    /// The machine maps its heap's range after every allocation.
    pub fn set_mapped(&mut self, range: Range<u64>) {
        self.mapped = range;
    }

    /// Byte offset of the `u64` at `addr` within its page, once `addr` is
    /// known to be mapped and 8-byte aligned (so it cannot straddle a
    /// page boundary).
    fn word_offset(&self, addr: u64) -> Result<usize> {
        if !self.mapped.contains(&addr) {
            return Err(Error::BadAddress(addr));
        }
        if !addr.is_multiple_of(8) {
            return Err(Error::Misaligned { addr, required: 8 });
        }
        Ok((addr % PAGE_BYTES) as usize)
    }

    /// Read a `u64`. A page never written reads as zeros and stays
    /// unmaterialized.
    pub fn read_u64(&self, addr: u64) -> Result<u64> {
        let off = self.word_offset(addr)?;
        Ok(self.pages.get(&(addr / PAGE_BYTES)).map_or(0, |p| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&p[off..off + 8]);
            u64::from_le_bytes(b)
        }))
    }

    /// Write a `u64`, materializing its page on first write.
    pub fn write_u64(&mut self, addr: u64, val: u64) -> Result<()> {
        let off = self.word_offset(addr)?;
        let p = self
            .pages
            .entry(addr / PAGE_BYTES)
            .or_insert_with(|| vec![0u8; PAGE_BYTES as usize].into_boxed_slice());
        p[off..off + 8].copy_from_slice(&val.to_le_bytes());
        Ok(())
    }

    /// Read an `f64` through its bit pattern.
    pub fn read_f64(&self, addr: u64) -> Result<f64> {
        Ok(f64::from_bits(self.read_u64(addr)?))
    }

    /// Write an `f64` through its bit pattern.
    pub fn write_f64(&mut self, addr: u64, val: f64) -> Result<()> {
        self.write_u64(addr, val.to_bits())
    }

    /// Number of materialized pages (diagnostics).
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A store with its first 16 MB mapped.
    fn store() -> SvaStore {
        let mut s = SvaStore::new();
        s.set_mapped(0..16 * 1024 * 1024);
        s
    }

    #[test]
    fn zero_initialised() {
        let s = store();
        assert_eq!(s.read_u64(0).unwrap(), 0);
        assert_eq!(s.read_u64(8 * 1024 * 1024).unwrap(), 0);
    }

    #[test]
    fn u64_roundtrip() {
        let mut s = store();
        s.write_u64(64, 0xDEAD_BEEF_0123_4567).unwrap();
        assert_eq!(s.read_u64(64).unwrap(), 0xDEAD_BEEF_0123_4567);
    }

    #[test]
    fn f64_roundtrip_preserves_bits() {
        let mut s = store();
        for v in [0.0, -0.0, 1.5, f64::INFINITY, f64::MIN_POSITIVE] {
            s.write_f64(128, v).unwrap();
            assert_eq!(s.read_f64(128).unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn misalignment_rejected() {
        let mut s = store();
        assert!(matches!(s.read_u64(4), Err(Error::Misaligned { .. })));
        assert!(matches!(s.write_u64(9, 1), Err(Error::Misaligned { .. })));
    }

    #[test]
    fn unmapped_addresses_rejected() {
        let mut s = SvaStore::new();
        assert_eq!(s.read_u64(0), Err(Error::BadAddress(0)), "nothing mapped");
        s.set_mapped(128..1024);
        for addr in [0, 120, 1024, u64::MAX - 7] {
            assert_eq!(s.read_u64(addr), Err(Error::BadAddress(addr)));
            assert_eq!(s.write_u64(addr, 1), Err(Error::BadAddress(addr)));
        }
        s.write_u64(1016, 5).unwrap();
        assert_eq!(s.read_u64(1016).unwrap(), 5);
        assert_eq!(s.read_u64(128).unwrap(), 0);
    }

    #[test]
    fn pages_materialize_lazily() {
        let mut s = store();
        assert_eq!(s.resident_pages(), 0);
        s.write_u64(0, 1).unwrap();
        s.write_u64(PAGE_BYTES, 1).unwrap();
        s.write_u64(PAGE_BYTES + 8, 1).unwrap();
        assert_eq!(s.resident_pages(), 2);
    }

    #[test]
    fn reading_an_unwritten_page_materializes_nothing() {
        let mut s = store();
        for addr in [0, 8, PAGE_BYTES, 3 * PAGE_BYTES + 64] {
            assert_eq!(s.read_u64(addr).unwrap(), 0);
        }
        assert_eq!(s.resident_pages(), 0);
        s.write_u64(3 * PAGE_BYTES + 64, 9).unwrap();
        assert_eq!(s.read_u64(3 * PAGE_BYTES + 64).unwrap(), 9);
        assert_eq!(s.read_u64(3 * PAGE_BYTES + 72).unwrap(), 0);
        assert_eq!(s.resident_pages(), 1);
    }

    #[test]
    fn adjacent_words_do_not_clobber() {
        let mut s = store();
        s.write_u64(0, u64::MAX).unwrap();
        s.write_u64(8, 0x1111).unwrap();
        assert_eq!(s.read_u64(0).unwrap(), u64::MAX);
        assert_eq!(s.read_u64(8).unwrap(), 0x1111);
    }
}
