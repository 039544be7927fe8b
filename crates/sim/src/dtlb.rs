//! Fully-associative data TLB timing model with LRU replacement.

use avf_isa::wire::{WireError, WireReader, WireWriter};

/// Result of a TLB lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbResult {
    /// Whether the translation was resident.
    pub hit: bool,
    /// Virtual page number evicted to make room, if any.
    pub evicted: Option<u64>,
}

/// Fully-associative TLB (timing state only).
#[derive(Debug, Clone)]
pub struct Dtlb {
    entries: Vec<(u64, u64)>, // (vpn, lru tick)
    capacity: usize,
    page_shift: u32,
    tick: u64,
    /// Total translations.
    pub accesses: u64,
    /// Total misses.
    pub misses: u64,
    /// VPN whose entry carries an injected fault (tag corruption).
    poisoned: Option<u64>,
    /// Whether a translation consumed the poisoned entry.
    tripped: bool,
}

impl Dtlb {
    /// Creates a TLB with `capacity` entries for `page_bytes`-byte pages.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is not a power of two or `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize, page_bytes: u64) -> Dtlb {
        assert!(capacity > 0, "TLB needs at least one entry");
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        Dtlb {
            entries: Vec::with_capacity(capacity),
            capacity,
            page_shift: page_bytes.trailing_zeros(),
            tick: 0,
            accesses: 0,
            misses: 0,
            poisoned: None,
            tripped: false,
        }
    }

    /// Virtual page number of `addr`.
    #[inline]
    #[must_use]
    pub fn vpn(&self, addr: u64) -> u64 {
        addr >> self.page_shift
    }

    /// Translates `addr`, filling on a miss.
    pub fn translate(&mut self, addr: u64) -> TlbResult {
        self.tick += 1;
        self.accesses += 1;
        let vpn = self.vpn(addr);
        if let Some(e) = self.entries.iter_mut().find(|(v, _)| *v == vpn) {
            e.1 = self.tick;
            if self.poisoned == Some(vpn) {
                // Consuming a tag-corrupted entry yields a wrong
                // translation: the injection engine classifies this as a
                // detected unrecoverable error.
                self.tripped = true;
            }
            return TlbResult {
                hit: true,
                evicted: None,
            };
        }
        self.misses += 1;
        let mut evicted = None;
        if self.entries.len() == self.capacity {
            let (idx, _) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, lru))| *lru)
                .expect("non-empty");
            let victim = self.entries.swap_remove(idx).0;
            if self.poisoned == Some(victim) {
                // The fault left the machine with the entry: refills are
                // clean.
                self.poisoned = None;
            }
            evicted = Some(victim);
        }
        self.entries.push((vpn, self.tick));
        TlbResult {
            hit: false,
            evicted,
        }
    }

    /// Injects a tag fault into the `idx`-th resident entry, returning
    /// its VPN, or `None` if that entry slot is vacant. A later
    /// [`Dtlb::translate`] hit on the entry sets the tripped flag; an
    /// eviction clears the fault.
    pub fn poison_entry(&mut self, idx: usize) -> Option<u64> {
        let vpn = self.entries.get(idx)?.0;
        self.poisoned = Some(vpn);
        self.tripped = false;
        Some(vpn)
    }

    /// Whether a translation consumed a poisoned entry since injection.
    #[must_use]
    pub fn poison_tripped(&self) -> bool {
        self.tripped
    }

    /// Number of resident translations.
    #[must_use]
    pub fn resident(&self) -> usize {
        self.entries.len()
    }

    /// Miss rate over the run so far.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Serializes the TLB state for checkpoint snapshots.
    pub(crate) fn encode(&self, w: &mut WireWriter) {
        w.seq(&self.entries, |w, &(vpn, lru)| {
            w.u64(vpn);
            w.u64(lru);
        });
        w.u64(self.tick);
        w.u64(self.accesses);
        w.u64(self.misses);
        w.opt(self.poisoned, WireWriter::u64);
        w.bool(self.tripped);
    }

    /// Decodes state written by [`Dtlb::encode`] for a TLB of `capacity`
    /// entries over `page_bytes`-byte pages.
    pub(crate) fn decode(
        r: &mut WireReader<'_>,
        capacity: usize,
        page_bytes: u64,
    ) -> Result<Dtlb, WireError> {
        let mut tlb = Dtlb::new(capacity, page_bytes);
        let entries = r.seq(8 + 8, |r| Ok((r.u64()?, r.u64()?)))?;
        if entries.len() > capacity {
            return Err(WireError::Invalid("TLB residency exceeds capacity"));
        }
        tlb.entries.extend(entries);
        tlb.tick = r.u64()?;
        tlb.accesses = r.u64()?;
        tlb.misses = r.u64()?;
        tlb.poisoned = r.opt(WireReader::u64)?;
        tlb.tripped = r.bool()?;
        Ok(tlb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut t = Dtlb::new(4, 8192);
        assert!(!t.translate(0x0).hit);
        assert!(t.translate(0x1FFF).hit, "same 8 kB page");
        assert!(!t.translate(0x2000).hit, "next page");
    }

    #[test]
    fn lru_eviction_when_full() {
        let mut t = Dtlb::new(2, 8192);
        t.translate(0x0000); // page 0
        t.translate(0x2000); // page 1
        t.translate(0x0000); // page 0 now MRU
        let r = t.translate(0x4000); // page 2 evicts page 1
        assert_eq!(r.evicted, Some(1));
        assert_eq!(t.resident(), 2);
    }

    #[test]
    fn covering_working_set_has_no_steady_state_misses() {
        let mut t = Dtlb::new(8, 8192);
        for _ in 0..4 {
            for p in 0..8u64 {
                t.translate(p * 8192);
            }
        }
        assert_eq!(t.misses, 8, "only compulsory misses");
    }

    #[test]
    fn vpn_computation() {
        let t = Dtlb::new(4, 8192);
        assert_eq!(t.vpn(0x0), 0);
        assert_eq!(t.vpn(8192), 1);
        assert_eq!(t.vpn(8192 * 3 + 7), 3);
    }
}
