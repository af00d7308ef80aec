//! A three-level data-cache hierarchy with DRAM backing and an optional
//! mid-level prefetcher.
//!
//! The perf events of the paper map onto this structure the way Intel maps
//! them: `cache-references` counts accesses that reach the last-level
//! cache, `cache-misses` counts LLC misses (DRAM fills).

use crate::cache::{Cache, CacheConfig, CacheConfigError, CacheStats};
use crate::prefetch::{Prefetcher, PrefetcherKind};

/// Which level ultimately served a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// Level-1 data cache.
    L1,
    /// Unified level-2 cache.
    L2,
    /// Last-level cache.
    L3,
    /// Main memory.
    Dram,
}

/// Access latencies per level, in core cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// L1 hit latency.
    pub l1: u64,
    /// L2 hit latency.
    pub l2: u64,
    /// LLC hit latency.
    pub l3: u64,
    /// DRAM access latency.
    pub dram: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        // Representative Sandy-Bridge-EP numbers.
        LatencyModel {
            l1: 4,
            l2: 12,
            l3: 36,
            dram: 200,
        }
    }
}

impl LatencyModel {
    /// Latency of an access served by `level`.
    pub fn for_level(&self, level: ServedBy) -> u64 {
        match level {
            ServedBy::L1 => self.l1,
            ServedBy::L2 => self.l2,
            ServedBy::L3 => self.l3,
            ServedBy::Dram => self.dram,
        }
    }
}

/// Geometry of the whole hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// L2 geometry.
    pub l2: CacheConfig,
    /// LLC geometry.
    pub l3: CacheConfig,
    /// Latency model.
    pub latency: LatencyModel,
    /// Mid-level prefetcher.
    pub prefetcher: PrefetcherKind,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        // Scaled-down Xeon-class hierarchy (see `CoreConfig` presets for
        // the full-size E5-2690 geometry).
        HierarchyConfig {
            l1d: CacheConfig::new(32 * 1024, 8, 64),
            l2: CacheConfig::new(256 * 1024, 8, 64),
            l3: CacheConfig::new(2 * 1024 * 1024, 16, 64),
            latency: LatencyModel::default(),
            prefetcher: PrefetcherKind::Stride,
        }
    }
}

/// Aggregated statistics of the hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// L1 data cache statistics.
    pub l1d: CacheStats,
    /// L2 statistics (demand + prefetch fills).
    pub l2: CacheStats,
    /// LLC statistics.
    pub l3: CacheStats,
    /// Demand accesses that reached the LLC (`cache-references` in perf
    /// terms).
    pub llc_references: u64,
    /// Demand accesses that missed the LLC (`cache-misses`).
    pub llc_misses: u64,
    /// Prefetch requests issued.
    pub prefetches: u64,
    /// Total memory latency accumulated by demand accesses, in cycles.
    pub demand_cycles: u64,
}

/// The three-level memory hierarchy.
///
/// # Examples
///
/// ```
/// use scnn_uarch::hierarchy::{HierarchyConfig, MemoryHierarchy, ServedBy};
///
/// # fn main() -> Result<(), scnn_uarch::cache::CacheConfigError> {
/// let mut mem = MemoryHierarchy::new(HierarchyConfig::default())?;
/// assert_eq!(mem.access(0x1000, false, 0), ServedBy::Dram); // cold
/// assert_eq!(mem.access(0x1000, false, 0), ServedBy::L1);   // warm
/// # Ok(())
/// # }
/// ```
pub struct MemoryHierarchy {
    l1d: Cache,
    l2: Cache,
    l3: Cache,
    latency: LatencyModel,
    prefetcher: Option<Box<dyn Prefetcher + Send>>,
    /// Reused buffer the prefetcher writes its targets into.
    prefetch_targets: Vec<u64>,
    stats_llc_references: u64,
    stats_llc_misses: u64,
    stats_prefetches: u64,
    stats_demand_cycles: u64,
}

impl std::fmt::Debug for MemoryHierarchy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryHierarchy")
            .field("l1d", self.l1d.stats())
            .field("l2", self.l2.stats())
            .field("l3", self.l3.stats())
            .field("llc_references", &self.stats_llc_references)
            .field("llc_misses", &self.stats_llc_misses)
            .finish_non_exhaustive()
    }
}

impl MemoryHierarchy {
    /// Builds the hierarchy.
    ///
    /// # Errors
    ///
    /// Returns [`CacheConfigError`] when any level's geometry is invalid.
    pub fn new(config: HierarchyConfig) -> Result<Self, CacheConfigError> {
        Ok(MemoryHierarchy {
            l1d: Cache::new(config.l1d)?,
            l2: Cache::new(config.l2)?,
            l3: Cache::new(config.l3)?,
            latency: config.latency,
            prefetcher: config.prefetcher.build(config.l2.line_bytes),
            prefetch_targets: Vec::new(),
            stats_llc_references: 0,
            stats_llc_misses: 0,
            stats_prefetches: 0,
            stats_demand_cycles: 0,
        })
    }

    /// A demand access from the core. `pc` identifies the load/store site
    /// for the prefetcher. Returns the level that served the access.
    #[inline]
    pub fn access(&mut self, addr: u64, write: bool, pc: u64) -> ServedBy {
        let l1 = self.l1d.access(addr, write);
        let served = if l1.hit {
            ServedBy::L1
        } else {
            self.below_l1(addr, l1.writeback)
        };
        self.stats_demand_cycles += self.latency.for_level(served);

        // Prefetcher observes the demand stream and fills L2/L3. A
        // prefetch that misses the LLC still fetches the line from DRAM,
        // so it counts toward `cache-misses` exactly as on real PMUs —
        // prefetching hides *latency*, not *traffic*.
        if let Some(pf) = self.prefetcher.as_mut() {
            self.prefetch_targets.clear();
            pf.observe(pc, addr, !l1.hit, &mut self.prefetch_targets);
            for &t in &self.prefetch_targets {
                self.stats_prefetches += 1;
                self.stats_llc_references += 1;
                let l3 = self.l3.access(t, false);
                if !l3.hit {
                    self.stats_llc_misses += 1;
                }
                self.l2.access(t, false);
            }
        }
        served
    }

    /// The rest of a demand access that missed L1: looks the line up in
    /// L2, then the LLC, and lands L1's dirty victim (`writeback`) in L2.
    #[inline(never)]
    fn below_l1(&mut self, addr: u64, writeback: Option<u64>) -> ServedBy {
        let served = if self.l2.access(addr, false).hit {
            ServedBy::L2
        } else {
            self.stats_llc_references += 1;
            if self.l3.access(addr, false).hit {
                ServedBy::L3
            } else {
                self.stats_llc_misses += 1;
                ServedBy::Dram
            }
        };
        // Writebacks of dirty L1 victims land in L2 (write-back,
        // write-allocate); model as an L2 store.
        if let Some(wb) = writeback {
            self.l2.access(wb, true);
        }
        served
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1d: *self.l1d.stats(),
            l2: *self.l2.stats(),
            l3: *self.l3.stats(),
            llc_references: self.stats_llc_references,
            llc_misses: self.stats_llc_misses,
            prefetches: self.stats_prefetches,
            demand_cycles: self.stats_demand_cycles,
        }
    }

    /// Flushes every level (cold start).
    pub fn flush(&mut self) {
        self.l1d.flush();
        self.l2.flush();
        self.l3.flush();
    }

    /// Pollutes all levels as a co-runner / context switch would:
    /// `fraction` of L1 and L2 lines and `fraction / 4` of LLC lines are
    /// invalidated (the LLC is bigger and loses proportionally less).
    pub fn pollute(&mut self, fraction: f64, seed: u64) {
        self.l1d.pollute(fraction, seed ^ 0x1111);
        self.l2.pollute(fraction, seed ^ 0x2222);
        self.l3.pollute(fraction / 4.0, seed ^ 0x3333);
    }

    /// Resets statistics without touching cache contents.
    pub fn reset_stats(&mut self) {
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.l3.reset_stats();
        self.stats_llc_references = 0;
        self.stats_llc_misses = 0;
        self.stats_prefetches = 0;
        self.stats_demand_cycles = 0;
    }

    /// Immutable access to the L1 data cache (for tests and inspection).
    pub fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// Immutable access to the LLC.
    pub fn l3(&self) -> &Cache {
        &self.l3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy(prefetcher: PrefetcherKind) -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig {
            prefetcher,
            ..HierarchyConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn cold_access_walks_all_levels() {
        let mut m = hierarchy(PrefetcherKind::None);
        assert_eq!(m.access(0, false, 0), ServedBy::Dram);
        let s = m.stats();
        assert_eq!(s.l1d.misses, 1);
        assert_eq!(s.l2.misses, 1);
        assert_eq!(s.l3.misses, 1);
        assert_eq!(s.llc_references, 1);
        assert_eq!(s.llc_misses, 1);
        assert_eq!(s.demand_cycles, LatencyModel::default().dram);
    }

    #[test]
    fn warm_access_hits_l1() {
        let mut m = hierarchy(PrefetcherKind::None);
        m.access(0, false, 0);
        assert_eq!(m.access(0, false, 0), ServedBy::L1);
        assert_eq!(m.stats().llc_references, 1, "second access never left L1");
    }

    #[test]
    fn l1_eviction_then_l2_hit() {
        let mut m = hierarchy(PrefetcherKind::None);
        // Fill far more than L1 (32 KiB = 512 lines), then revisit: lines
        // fall out of L1 but stay in L2 (256 KiB = 4096 lines).
        for i in 0..2048u64 {
            m.access(i * 64, false, 0);
        }
        let served = m.access(0, false, 0);
        assert_eq!(served, ServedBy::L2);
    }

    #[test]
    fn llc_miss_count_tracks_unique_lines_cold() {
        let mut m = hierarchy(PrefetcherKind::None);
        for i in 0..100u64 {
            m.access(i * 64, false, 0);
            m.access(i * 64 + 8, false, 0); // same line, L1 hit
        }
        let s = m.stats();
        assert_eq!(s.llc_misses, 100, "one DRAM fill per unique line");
        assert_eq!(s.l1d.hits, 100);
    }

    #[test]
    fn prefetcher_reduces_dram_hits_on_streaming() {
        let run = |kind: PrefetcherKind| {
            let mut m = hierarchy(kind);
            let mut dram = 0;
            for i in 0..4000u64 {
                if m.access(i * 64, false, 0x40) == ServedBy::Dram {
                    dram += 1;
                }
            }
            (dram, m.stats().prefetches)
        };
        let (dram_none, pf_none) = run(PrefetcherKind::None);
        let (dram_stride, pf_stride) = run(PrefetcherKind::Stride);
        assert_eq!(pf_none, 0);
        assert!(pf_stride > 0);
        assert!(
            dram_stride < dram_none / 2,
            "stride prefetcher should absorb most of a streaming scan: {dram_stride} vs {dram_none}"
        );
    }

    #[test]
    fn dirty_writeback_reaches_l2() {
        let mut m = hierarchy(PrefetcherKind::None);
        // Dirty a line, then push it out of L1 with conflicting fills.
        m.access(0, true, 0);
        // L1: 64 sets, 8 ways. Lines mapping to set 0 are 64*64 bytes apart.
        let set_stride = 64 * 64;
        for i in 1..=8u64 {
            m.access(i * set_stride, false, 0);
        }
        let s = m.stats();
        assert!(s.l2.accesses > s.l1d.misses, "writeback added an L2 access");
    }

    #[test]
    fn flush_makes_cold_again() {
        let mut m = hierarchy(PrefetcherKind::None);
        m.access(0, false, 0);
        m.flush();
        assert_eq!(m.access(0, false, 0), ServedBy::Dram);
    }

    #[test]
    fn pollute_is_milder_on_llc() {
        let mut m = hierarchy(PrefetcherKind::None);
        for i in 0..512u64 {
            m.access(i * 64, false, 0);
        }
        let l1_before = m.l1d().occupancy();
        let l3_before = m.l3().occupancy();
        m.pollute(0.8, 99);
        let l1_lost = l1_before - m.l1d().occupancy();
        let l3_lost = l3_before - m.l3().occupancy();
        assert!(l1_lost > 0);
        assert!(
            (l3_lost as f64) < (l3_before as f64) * 0.4,
            "LLC should lose ≲20%: lost {l3_lost} of {l3_before}"
        );
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut m = hierarchy(PrefetcherKind::None);
        m.access(0, false, 0);
        m.reset_stats();
        assert_eq!(m.stats().llc_references, 0);
        assert_eq!(m.access(0, false, 0), ServedBy::L1, "still warm");
    }
}
