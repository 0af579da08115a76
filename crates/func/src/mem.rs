//! Sparse, paged simulated memory.

use std::collections::HashMap;

use rsr_isa::Addr;

/// Page size in bytes (4 KiB).
pub const PAGE_BYTES: u64 = 4096;

/// Entries in the direct-mapped software TLB (must be a power of two).
/// 2048 entries translate an 8 MiB working set — sized to cover the
/// largest bundled workload footprint (mcf touches ~6 MiB), because a
/// thrashing TLB sends every load through the `HashMap` fallback and
/// the cold functional pass is load-bound.
const TLB_ENTRIES: usize = 2048;

type Page = [u8; PAGE_BYTES as usize];

/// Host cache-line prefetch hint; a no-op on architectures without a
/// stable prefetch intrinsic.
#[inline(always)]
fn prefetch_line(p: &u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is an architectural hint with no memory or
    // register effects; any address value is allowed, and `p` is a live
    // reference besides.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
            p as *const u8 as *const i8,
        )
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// One software-TLB entry: `tag` is `page_no + 1` so the all-zero reset
/// state can never match a real page (page 0 exists), and `slot` indexes
/// `Memory::pages`. Slots only ever grow (pages are never deallocated and
/// never move), so a filled entry stays valid for the life of the memory
/// image — no invalidation path exists or is needed.
#[derive(Copy, Clone, Default)]
struct TlbEntry {
    tag: u64,
    slot: u32,
}

/// A sparse 64-bit byte-addressable memory.
///
/// Pages are allocated on first touch and zero-filled, so every address is
/// readable; there is no notion of an unmapped fault (the functional
/// simulator catches runaway programs at fetch instead, via the text-segment
/// bounds and the invalid all-zero instruction word).
///
/// A direct-mapped software TLB ([`TLB_ENTRIES`] entries of
/// `(page number, slot)`) short-circuits the `HashMap` page lookup. The
/// predecessor design kept only the *last* translation, which an
/// alternating-page access pattern (mcf's pointer chasing walks nodes on
/// one page and arc arrays on another) defeats on every access; indexing
/// by the low page-number bits keeps all of a working set's hot pages
/// translated at once, which matters because the functional cold pass —
/// the baseline every warm-up cost is measured against — spends most of
/// its non-ALU time here.
#[derive(Clone)]
pub struct Memory {
    /// Page number → slot in `pages`.
    index: HashMap<u64, usize>,
    /// Page frames, stored inline so a clone (a checkpoint scout's CPU
    /// copy) is one contiguous memcpy instead of one heap allocation per
    /// resident page.
    pages: Vec<Page>,
    /// Direct-mapped translation cache, indexed by the low bits of the
    /// page number. Boxed (32 KiB) so moving a `Memory` stays cheap.
    /// Cloned with the pages, so a clone's cached `page → slot` mappings
    /// describe its own page table.
    tlb: Box<[TlbEntry]>,
}

impl Default for Memory {
    fn default() -> Memory {
        Memory {
            index: HashMap::new(),
            pages: Vec::new(),
            tlb: vec![TlbEntry::default(); TLB_ENTRIES].into_boxed_slice(),
        }
    }
}

impl std::fmt::Debug for Memory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memory").field("resident_pages", &self.pages.len()).finish()
    }
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Reserves frames for `pages` more pages, so a program load grows the
    /// frame vector once instead of by repeated doubling, each step of
    /// which copies every resident page (a 6 MiB image peaked at 10 MiB
    /// that way). Touches no page: [`Memory::resident_pages`] and every
    /// byte read back are unchanged.
    pub fn reserve_pages(&mut self, pages: usize) {
        self.pages.reserve_exact(pages);
        self.index.reserve(pages);
    }

    /// Number of currently resident (touched) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Page numbers of all resident pages, ascending. Intended for
    /// consumers that compare or enumerate whole memory images (the
    /// functional-equivalence suite, checkpoint diffing in tests).
    pub fn resident_page_nos(&self) -> Vec<u64> {
        let mut nos: Vec<u64> = self.index.keys().copied().collect();
        nos.sort_unstable();
        nos
    }

    /// Hints the host prefetcher at the line backing simulated address
    /// `val`, treating `val` as a pointer about to be chased, and chains
    /// one level deeper: if the first 8 bytes at the hinted address are
    /// themselves a resident pointer, that line is hinted too. Called on
    /// 64-bit load results, this software-pipelines dependent pointer
    /// chases (mcf's dominant pattern) two hops ahead — the host miss for
    /// hop `i+1` overlaps the interpretation of hop `i` instead of
    /// serializing after it. The chain read feeding the second hop is a
    /// plain load off the critical path; out-of-order hardware overlaps
    /// it with the interpreter. (A third hop measures *slower* here: its
    /// chain read serializes behind the second hop's miss and the extra
    /// in-flight traffic crowds the load ports.)
    ///
    /// Purely a performance hint: translation is probe-only (no TLB fill,
    /// no page allocation, no `HashMap` fallback), so architectural state
    /// and the TLB are untouched and non-pointer values simply miss the
    /// probe. Never changes any observable result.
    #[inline]
    pub fn prefetch_pointer(&self, val: u64) {
        let mut addr = val;
        for _ in 0..2 {
            let Some((slot, off)) = self.probe(addr) else { return };
            let page = &self.pages[slot];
            prefetch_line(&page[off]);
            if off + 8 > PAGE_BYTES as usize {
                return;
            }
            let mut word = [0u8; 8];
            word.copy_from_slice(&page[off..off + 8]);
            addr = u64::from_le_bytes(word);
        }
    }

    /// Probe-only translation: TLB hit or nothing. Used by the prefetch
    /// hint, which must not perturb the TLB or fall back to the page
    /// index (a `HashMap` lookup costs more than the hint saves).
    #[inline]
    fn probe(&self, addr: Addr) -> Option<(usize, usize)> {
        let page_no = addr / PAGE_BYTES;
        let e = self.tlb[(page_no as usize) & (TLB_ENTRIES - 1)];
        (e.tag == page_no + 1).then_some((e.slot as usize, (addr % PAGE_BYTES) as usize))
    }

    /// Slot of the page containing `addr`, if resident.
    #[inline]
    fn slot(&mut self, addr: Addr) -> Option<usize> {
        let page_no = addr / PAGE_BYTES;
        let way = (page_no as usize) & (TLB_ENTRIES - 1);
        let e = self.tlb[way];
        if e.tag == page_no + 1 {
            return Some(e.slot as usize);
        }
        let slot = *self.index.get(&page_no)?;
        self.tlb[way] = TlbEntry { tag: page_no + 1, slot: slot as u32 };
        Some(slot)
    }

    /// Slot of the page containing `addr`, allocating it if absent.
    #[inline]
    fn slot_or_alloc(&mut self, addr: Addr) -> usize {
        let page_no = addr / PAGE_BYTES;
        let way = (page_no as usize) & (TLB_ENTRIES - 1);
        let e = self.tlb[way];
        if e.tag == page_no + 1 {
            return e.slot as usize;
        }
        let slot = match self.index.get(&page_no) {
            Some(&s) => s,
            None => {
                let s = self.pages.len();
                self.pages.push([0; PAGE_BYTES as usize]);
                self.index.insert(page_no, s);
                s
            }
        };
        self.tlb[way] = TlbEntry { tag: page_no + 1, slot: slot as u32 };
        slot
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&mut self, addr: Addr) -> u8 {
        match self.slot(addr) {
            Some(s) => self.pages[s][(addr % PAGE_BYTES) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: Addr, value: u8) {
        let s = self.slot_or_alloc(addr);
        self.pages[s][(addr % PAGE_BYTES) as usize] = value;
    }

    /// Reads `N` little-endian bytes starting at `addr`.
    #[inline]
    fn read_bytes<const N: usize>(&mut self, addr: Addr) -> [u8; N] {
        let off = (addr % PAGE_BYTES) as usize;
        let mut out = [0u8; N];
        if off + N <= PAGE_BYTES as usize {
            if let Some(s) = self.slot(addr) {
                out.copy_from_slice(&self.pages[s][off..off + N]);
            }
            return out;
        }
        // Page-crossing slow path: one run per page (N <= 8 < PAGE_BYTES,
        // so at most one boundary is crossed).
        let split = PAGE_BYTES as usize - off;
        if let Some(s) = self.slot(addr) {
            out[..split].copy_from_slice(&self.pages[s][off..]);
        }
        if let Some(s) = self.slot(addr + split as u64) {
            out[split..].copy_from_slice(&self.pages[s][..N - split]);
        }
        out
    }

    /// Out of line on purpose: every store in the interpreter reaches
    /// this, and inlining it (both page paths) into the superblock
    /// dispatch loop bloats the loop that fused logging sinks monomorphize
    /// into. The out-of-line call measured faster on mcf's logged cold
    /// pass.
    #[inline(never)]
    fn write_bytes(&mut self, addr: Addr, bytes: &[u8]) {
        let off = (addr % PAGE_BYTES) as usize;
        if off + bytes.len() <= PAGE_BYTES as usize {
            let s = self.slot_or_alloc(addr);
            self.pages[s][off..off + bytes.len()].copy_from_slice(bytes);
            return;
        }
        // Page-crossing slow path: copy one per-page run at a time.
        // Loader data segments and checkpoint overlays come through here,
        // so this is a bulk path, not just a spilled 8-byte access.
        let mut i = 0;
        while i < bytes.len() {
            let a = addr + i as u64;
            let off = (a % PAGE_BYTES) as usize;
            let run = (PAGE_BYTES as usize - off).min(bytes.len() - i);
            let s = self.slot_or_alloc(a);
            self.pages[s][off..off + run].copy_from_slice(&bytes[i..i + run]);
            i += run;
        }
    }

    /// Reads a little-endian `u16` (unaligned and page-crossing allowed).
    #[inline]
    pub fn read_u16(&mut self, addr: Addr) -> u16 {
        u16::from_le_bytes(self.read_bytes(addr))
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn read_u32(&mut self, addr: Addr) -> u32 {
        u32::from_le_bytes(self.read_bytes(addr))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn read_u64(&mut self, addr: Addr) -> u64 {
        u64::from_le_bytes(self.read_bytes(addr))
    }

    /// Writes a little-endian `u16`.
    #[inline]
    pub fn write_u16(&mut self, addr: Addr, value: u16) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    #[inline]
    pub fn write_u32(&mut self, addr: Addr, value: u32) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    #[inline]
    pub fn write_u64(&mut self, addr: Addr, value: u64) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Copies a byte slice into memory at `addr`.
    pub fn write_slice(&mut self, addr: Addr, bytes: &[u8]) {
        self.write_bytes(addr, bytes);
    }

    /// Reads `len` bytes starting at `addr` into a fresh vector, one
    /// per-page run at a time (absent pages read as zero). Checkpoint
    /// capture reads whole 4 KiB pages through here, so the per-byte
    /// formulation this replaces was a measurable slice of scout time.
    pub fn read_vec(&mut self, addr: Addr, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        let mut i = 0;
        while i < len {
            let a = addr + i as u64;
            let off = (a % PAGE_BYTES) as usize;
            let run = (PAGE_BYTES as usize - off).min(len - i);
            if let Some(s) = self.slot(a) {
                out[i..i + run].copy_from_slice(&self.pages[s][off..off + run]);
            }
            i += run;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserving_touches_no_page() {
        let mut m = Memory::new();
        m.reserve_pages(64);
        assert_eq!(m.resident_pages(), 0);
        assert_eq!(m.read_u64(0x5000), 0);
        m.write_u64(0x5000, 7);
        assert_eq!((m.resident_pages(), m.read_u64(0x5000)), (1, 7));
    }

    #[test]
    fn zero_filled_by_default() {
        let mut m = Memory::new();
        assert_eq!(m.read_u64(0x1234), 0);
        assert_eq!(m.read_u8(u64::MAX - 8), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn roundtrip_all_widths() {
        let mut m = Memory::new();
        m.write_u8(10, 0xab);
        m.write_u16(20, 0xbeef);
        m.write_u32(30, 0xdead_beef);
        m.write_u64(40, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u8(10), 0xab);
        assert_eq!(m.read_u16(20), 0xbeef);
        assert_eq!(m.read_u32(30), 0xdead_beef);
        assert_eq!(m.read_u64(40), 0x0123_4567_89ab_cdef);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new();
        m.write_u32(0, 0x0403_0201);
        assert_eq!(m.read_u8(0), 1);
        assert_eq!(m.read_u8(3), 4);
    }

    #[test]
    fn page_crossing_access() {
        let mut m = Memory::new();
        let addr = PAGE_BYTES - 3;
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn page_crossing_read_with_absent_halves() {
        let mut m = Memory::new();
        // Only the first page resident: the tail reads as zero.
        m.write_u8(PAGE_BYTES - 1, 0xaa);
        assert_eq!(m.read_u64(PAGE_BYTES - 1), 0xaa);
        assert_eq!(m.resident_pages(), 1);
        // Only the second page resident.
        let mut m = Memory::new();
        m.write_u8(2 * PAGE_BYTES, 0xbb);
        assert_eq!(m.read_u64(2 * PAGE_BYTES - 1), 0xbb00);
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn write_slice_and_read_vec() {
        let mut m = Memory::new();
        let data: Vec<u8> = (0..=255).collect();
        let base = PAGE_BYTES - 100;
        m.write_slice(base, &data);
        assert_eq!(m.read_vec(base, 256), data);
    }

    #[test]
    fn multi_page_slice_roundtrip() {
        let mut m = Memory::new();
        let data: Vec<u8> = (0..3 * PAGE_BYTES as usize + 77).map(|i| i as u8).collect();
        let base = 5 * PAGE_BYTES - 13;
        m.write_slice(base, &data);
        assert_eq!(m.read_vec(base, data.len()), data);
        assert_eq!(m.resident_pages(), 5);
        // A read spanning resident and absent pages zero-fills the holes.
        let mut probe = m.read_vec(base - PAGE_BYTES, PAGE_BYTES as usize + 4);
        assert_eq!(probe.split_off(PAGE_BYTES as usize), data[..4].to_vec());
        assert!(probe.iter().all(|&b| b == 0));
    }

    #[test]
    fn sparse_pages_allocated_on_write_only() {
        let mut m = Memory::new();
        let _ = m.read_u64(123 * PAGE_BYTES);
        assert_eq!(m.resident_pages(), 0);
        m.write_u8(123 * PAGE_BYTES, 1);
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn translation_cache_stays_coherent() {
        let mut m = Memory::new();
        // Alternate between two pages; the cache must follow.
        for k in 0..100u64 {
            m.write_u64(k % 2 * PAGE_BYTES + 8 * k, k);
        }
        for k in 0..100u64 {
            assert_eq!(m.read_u64(k % 2 * PAGE_BYTES + 8 * k), k);
        }
        // Read of a missing page must not poison the cache.
        assert_eq!(m.read_u8(999 * PAGE_BYTES), 0);
        assert_eq!(m.read_u64(16), 2); // k = 2 wrote page 0, offset 16
    }

    #[test]
    fn tlb_conflict_aliases_resolve() {
        let mut m = Memory::new();
        // Pages 0 and TLB_ENTRIES map to the same direct-mapped way; an
        // alternating pattern must keep reading each page's own bytes.
        let stride = TLB_ENTRIES as u64 * PAGE_BYTES;
        for k in 0..50u64 {
            m.write_u64((k % 2) * stride + 8 * k, k | 0x100);
        }
        for k in 0..50u64 {
            assert_eq!(m.read_u64((k % 2) * stride + 8 * k), k | 0x100);
        }
    }

    #[test]
    fn clone_from_carries_translations_for_the_new_image() {
        let mut a = Memory::new();
        a.write_u64(3 * PAGE_BYTES, 7);
        let mut b = Memory::new();
        // Touch pages in a different order so b's slots diverge from a's.
        b.write_u64(9 * PAGE_BYTES, 1);
        b.write_u64(3 * PAGE_BYTES, 2);
        b.clone_from(&a);
        assert_eq!(b.read_u64(3 * PAGE_BYTES), 7);
        assert_eq!(b.read_u64(9 * PAGE_BYTES), 0);
        assert_eq!(b.resident_pages(), 1);
    }

    #[test]
    fn resident_page_nos_sorted() {
        let mut m = Memory::new();
        for p in [9u64, 2, 5] {
            m.write_u8(p * PAGE_BYTES, 1);
        }
        assert_eq!(m.resident_page_nos(), vec![2, 5, 9]);
    }
}
