use std::collections::HashMap;

use crate::wire::{WireError, WireReader, WireWriter};

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const OFFSET_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// Sparse byte-addressable functional memory.
///
/// Pages are allocated on demand and zero-filled, so programs may touch any
/// address. Accesses that straddle a page boundary are handled bytewise.
#[derive(Debug, Clone, Default)]
pub struct Memory {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>>,
}

impl Memory {
    /// Creates an empty memory in which every byte reads as zero.
    #[must_use]
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Number of pages that have been materialized.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Reads one byte.
    #[must_use]
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(page) => page[(addr & OFFSET_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte, materializing the page if needed.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let page = self
            .pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
        page[(addr & OFFSET_MASK) as usize] = value;
    }

    /// Reads a little-endian 4-byte value.
    #[must_use]
    pub fn read_u32(&self, addr: u64) -> u32 {
        let mut bytes = [0u8; 4];
        self.read_bytes(addr, &mut bytes);
        u32::from_le_bytes(bytes)
    }

    /// Reads a little-endian 8-byte value.
    #[must_use]
    pub fn read_u64(&self, addr: u64) -> u64 {
        let mut bytes = [0u8; 8];
        self.read_bytes(addr, &mut bytes);
        u64::from_le_bytes(bytes)
    }

    /// Writes a little-endian 4-byte value.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Writes a little-endian 8-byte value.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Copies `buf.len()` bytes starting at `addr` into `buf`.
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) {
        // Fast path: access within a single page.
        let off = (addr & OFFSET_MASK) as usize;
        if off + buf.len() <= PAGE_SIZE {
            match self.pages.get(&(addr >> PAGE_SHIFT)) {
                Some(page) => buf.copy_from_slice(&page[off..off + buf.len()]),
                None => buf.fill(0),
            }
            return;
        }
        for (i, b) in buf.iter_mut().enumerate() {
            *b = self.read_u8(addr + i as u64);
        }
    }

    /// Order-independent digest of the memory's *semantic* contents.
    ///
    /// Two memories digest equal iff every byte address reads the same
    /// value in both: zero-filled words are skipped, so a page that was
    /// materialized by writing zeroes digests identically to an
    /// untouched page. Used by the fault-injection engine to classify
    /// silent data corruption against a golden run.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut page_ids: Vec<u64> = self.pages.keys().copied().collect();
        page_ids.sort_unstable();
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
        let mix = |h: &mut u64, v: u64| {
            for b in v.to_le_bytes() {
                *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for id in page_ids {
            let page = &self.pages[&id];
            for (word_idx, chunk) in page.chunks_exact(8).enumerate() {
                let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
                if word != 0 {
                    mix(&mut h, (id << PAGE_SHIFT) + 8 * word_idx as u64);
                    mix(&mut h, word);
                }
            }
        }
        h
    }

    /// Serializes the resident pages (sorted by page id, so equal
    /// memories encode to equal bytes).
    pub fn encode(&self, w: &mut WireWriter) {
        let mut page_ids: Vec<u64> = self.pages.keys().copied().collect();
        page_ids.sort_unstable();
        w.seq(page_ids, |w, id| {
            w.u64(id);
            w.bytes(&self.pages[&id][..]);
        });
    }

    /// Decodes a memory image written by [`Memory::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncated input.
    pub fn decode(r: &mut WireReader<'_>) -> Result<Memory, WireError> {
        let pages = r.seq(8 + PAGE_SIZE, |r| {
            let id = r.u64()?;
            let bytes = r.bytes(PAGE_SIZE)?;
            let page: Box<[u8; PAGE_SIZE]> =
                Box::new(bytes.try_into().expect("exact page-size slice"));
            Ok((id, page))
        })?;
        Ok(Memory {
            pages: pages.into_iter().collect(),
        })
    }

    /// Writes `buf` starting at `addr`.
    pub fn write_bytes(&mut self, addr: u64, buf: &[u8]) {
        let off = (addr & OFFSET_MASK) as usize;
        if off + buf.len() <= PAGE_SIZE {
            let page = self
                .pages
                .entry(addr >> PAGE_SHIFT)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
            page[off..off + buf.len()].copy_from_slice(buf);
            return;
        }
        for (i, b) in buf.iter().enumerate() {
            self.write_u8(addr + i as u64, *b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let mem = Memory::new();
        assert_eq!(mem.read_u64(0xdead_beef), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn round_trips_values() {
        let mut mem = Memory::new();
        mem.write_u64(0x1000, 0x0102_0304_0506_0708);
        assert_eq!(mem.read_u64(0x1000), 0x0102_0304_0506_0708);
        assert_eq!(mem.read_u32(0x1000), 0x0506_0708);
        mem.write_u32(0x2000, 0xAABB_CCDD);
        assert_eq!(mem.read_u32(0x2000), 0xAABB_CCDD);
        assert_eq!(mem.read_u64(0x2000), 0xAABB_CCDD);
    }

    #[test]
    fn cross_page_access_works() {
        let mut mem = Memory::new();
        let addr = (PAGE_SIZE as u64) - 3;
        mem.write_u64(addr, u64::MAX);
        assert_eq!(mem.read_u64(addr), u64::MAX);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn digest_tracks_semantic_contents() {
        let mut a = Memory::new();
        let mut b = Memory::new();
        assert_eq!(a.digest(), b.digest(), "empty memories digest equal");
        a.write_u64(0x1000, 7);
        assert_ne!(a.digest(), b.digest());
        b.write_u64(0x1000, 7);
        assert_eq!(a.digest(), b.digest());
        // Materializing a page with zeroes is semantically a no-op.
        b.write_u64(0x9_0000, 0);
        assert_eq!(a.digest(), b.digest());
        // Same value at a different address must differ.
        let mut c = Memory::new();
        c.write_u64(0x1008, 7);
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn encode_round_trips_and_rejects_corrupt_counts() {
        use crate::wire::{WireReader, WireWriter};
        let mut mem = Memory::new();
        mem.write_u64(0x1000, 7);
        mem.write_u64(0x9_0000, 0xABCD);
        let mut w = WireWriter::new();
        mem.encode(&mut w);
        let bytes = w.into_bytes();
        let decoded = Memory::decode(&mut WireReader::new(&bytes)).unwrap();
        assert_eq!(decoded.digest(), mem.digest());

        // A corrupt page count must fail cleanly, not abort allocating.
        let mut w = WireWriter::new();
        w.u64(u64::MAX / 2);
        let corrupt = w.into_bytes();
        assert!(Memory::decode(&mut WireReader::new(&corrupt)).is_err());
    }

    #[test]
    fn little_endian_layout() {
        let mut mem = Memory::new();
        mem.write_u32(0x10, 0x0403_0201);
        assert_eq!(mem.read_u8(0x10), 1);
        assert_eq!(mem.read_u8(0x13), 4);
    }
}
