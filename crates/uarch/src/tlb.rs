//! A simple set-associative translation lookaside buffer.

/// TLB geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of entries.
    pub entries: usize,
    /// Associativity (entries per set). `entries` must be divisible by it
    /// and the set count must be a power of two.
    pub associativity: usize,
    /// Page size in bytes (power of two; 4 KiB on the paper's platform).
    pub page_bytes: usize,
}

impl Default for TlbConfig {
    fn default() -> Self {
        // Sandy-Bridge-era DTLB: 64 entries, 4-way, 4 KiB pages.
        TlbConfig {
            entries: 64,
            associativity: 4,
            page_bytes: 4096,
        }
    }
}

/// TLB statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Translations requested.
    pub accesses: u64,
    /// Translations served from the TLB.
    pub hits: u64,
    /// Page-walks (misses).
    pub misses: u64,
}

impl TlbStats {
    /// Miss ratio in `[0, 1]`.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// A set-associative, LRU TLB.
///
/// Like [`Cache`](crate::cache::Cache), the entries are flat and
/// set-major: way `w` of set `s` is slot `s * associativity + w` of the
/// page-number and stamp arrays, and a stamp of 0 marks an empty slot.
///
/// # Examples
///
/// ```
/// use scnn_uarch::tlb::{Tlb, TlbConfig};
///
/// let mut tlb = Tlb::new(TlbConfig::default());
/// assert!(!tlb.translate(0x1234));        // cold miss
/// assert!(tlb.translate(0x1234 + 100));   // same page
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    ways: usize,
    /// Virtual page number per slot.
    pages: Vec<u64>,
    /// LRU timestamp per slot; 0 marks an empty slot.
    stamps: Vec<u64>,
    /// The last page translated and its slot, while that slot still
    /// holds it. Every fill and flush replaces or clears it.
    memo: Option<(u64, usize)>,
    stats: TlbStats,
    clock: u64,
    page_shift: u32,
    set_mask: u64,
}

impl Tlb {
    /// Builds the TLB.
    ///
    /// # Panics
    ///
    /// Panics when the geometry is inconsistent (zero fields, entry count
    /// not divisible by associativity, non-power-of-two sets or page size).
    pub fn new(config: TlbConfig) -> Self {
        assert!(
            config.entries > 0 && config.associativity > 0 && config.page_bytes > 0,
            "TLB geometry fields must be non-zero"
        );
        assert!(
            config.entries.is_multiple_of(config.associativity),
            "entries must divide evenly into ways"
        );
        assert!(
            config.page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        let sets = config.entries / config.associativity;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Tlb {
            config,
            ways: config.associativity,
            pages: vec![0; config.entries],
            stamps: vec![0; config.entries],
            memo: None,
            stats: TlbStats::default(),
            clock: 0,
            page_shift: config.page_bytes.trailing_zeros(),
            set_mask: (sets - 1) as u64,
        }
    }

    /// Translates `addr`, returning `true` on a TLB hit. Misses install the
    /// page with LRU replacement.
    #[inline]
    pub fn translate(&mut self, addr: u64) -> bool {
        self.clock += 1;
        self.stats.accesses += 1;
        let vpn = addr >> self.page_shift;
        if let Some((page, slot)) = self.memo {
            if page == vpn {
                self.stamps[slot] = self.clock;
                self.stats.hits += 1;
                return true;
            }
        }
        let base = (vpn & self.set_mask) as usize * self.ways;
        let pages = &self.pages[base..base + self.ways];
        let stamps = &self.stamps[base..base + self.ways];
        let (slot, hit) = match pages
            .iter()
            .zip(stamps)
            .position(|(&p, &stamp)| p == vpn && stamp != 0)
        {
            Some(way) => (base + way, true),
            None => {
                // Empty slots stamp 0, so the first empty way is taken
                // before the least recently used entry.
                let way = stamps
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &stamp)| stamp)
                    .map(|(way, _)| way)
                    .expect("associativity > 0");
                (base + way, false)
            }
        };
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
            self.pages[slot] = vpn;
        }
        self.stamps[slot] = self.clock;
        self.memo = Some((vpn, slot));
        hit
    }

    /// Invalidates every entry (context switch without PCID).
    pub fn flush(&mut self) {
        self.stamps.fill(0);
        self.memo = None;
    }

    /// Statistics so far.
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    /// Resets statistics, keeping translations.
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    /// The configured geometry.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_page_hits() {
        let mut tlb = Tlb::new(TlbConfig::default());
        assert!(!tlb.translate(0));
        assert!(tlb.translate(4095));
        assert!(!tlb.translate(4096));
        assert_eq!(tlb.stats().accesses, 3);
        assert_eq!(tlb.stats().hits, 1);
    }

    #[test]
    fn capacity_eviction() {
        let cfg = TlbConfig {
            entries: 4,
            associativity: 2,
            page_bytes: 4096,
        };
        let mut tlb = Tlb::new(cfg);
        // Pages 0, 2, 4 all map to set 0 (2 sets). Third fill evicts LRU.
        tlb.translate(0);
        tlb.translate(2 * 4096);
        tlb.translate(0); // refresh page 0
        tlb.translate(4 * 4096); // evicts page 2
        assert!(tlb.translate(0), "page 0 kept");
        assert!(!tlb.translate(2 * 4096), "page 2 evicted");
    }

    #[test]
    fn flush_forgets_everything() {
        let mut tlb = Tlb::new(TlbConfig::default());
        tlb.translate(0);
        tlb.flush();
        assert!(!tlb.translate(0));
    }

    #[test]
    fn stats_consistency() {
        let mut tlb = Tlb::new(TlbConfig::default());
        for i in 0..500u64 {
            tlb.translate(i * 512);
        }
        let s = *tlb.stats();
        assert_eq!(s.hits + s.misses, s.accesses);
        assert!(s.miss_ratio() > 0.0);
    }

    #[test]
    fn one_byte_pages_hit_at_the_top_of_the_address_space() {
        let mut tlb = Tlb::new(TlbConfig {
            entries: 4,
            associativity: 4,
            page_bytes: 1,
        });
        for addr in [u64::MAX, u64::MAX - 1] {
            assert!(!tlb.translate(addr));
            assert!(tlb.translate(addr), "repeat of {addr:#x}");
        }
        assert!(tlb.translate(u64::MAX));
    }

    #[test]
    #[should_panic]
    fn rejects_bad_geometry() {
        Tlb::new(TlbConfig {
            entries: 5,
            associativity: 2,
            page_bytes: 4096,
        });
    }
}
