//! Hardware prefetcher models.
//!
//! A prefetcher watches the demand-miss stream and proposes line addresses
//! to pull into the cache ahead of use. The hierarchy decides where the
//! prefetched lines land (L2 in this model, matching Intel's MLC
//! prefetchers).

/// Prefetcher selection for the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrefetcherKind {
    /// No prefetching.
    None,
    /// Fetch line N+1 on a miss to line N.
    NextLine,
    /// Per-PC stride detection (IP-stride prefetcher), degree 2.
    #[default]
    Stride,
}

impl PrefetcherKind {
    /// Every prefetcher kind, in config-file order.
    pub const ALL: [PrefetcherKind; 3] = [
        PrefetcherKind::None,
        PrefetcherKind::NextLine,
        PrefetcherKind::Stride,
    ];

    /// The stable config-file name of this prefetcher kind.
    pub fn name(self) -> &'static str {
        match self {
            PrefetcherKind::None => "none",
            PrefetcherKind::NextLine => "next-line",
            PrefetcherKind::Stride => "stride",
        }
    }

    /// Looks a prefetcher kind up by its [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// A prefetcher that proposes addresses to preload.
pub trait Prefetcher {
    /// Observes a demand access (`pc` identifies the load site) and
    /// appends the byte addresses the hierarchy should prefetch to
    /// `targets` (a buffer the caller owns and reuses, so the per-access
    /// path allocates nothing).
    fn observe(&mut self, pc: u64, addr: u64, miss: bool, targets: &mut Vec<u64>);

    /// Number of prefetches issued so far.
    fn issued(&self) -> u64;
}

/// Trivial next-line prefetcher.
#[derive(Debug, Clone, Copy, Default)]
pub struct NextLinePrefetcher {
    line_bytes: u64,
    issued: u64,
}

impl NextLinePrefetcher {
    /// Creates the prefetcher for a given line size.
    pub fn new(line_bytes: usize) -> Self {
        NextLinePrefetcher {
            line_bytes: line_bytes as u64,
            issued: 0,
        }
    }
}

impl Prefetcher for NextLinePrefetcher {
    fn observe(&mut self, _pc: u64, addr: u64, miss: bool, targets: &mut Vec<u64>) {
        if miss {
            self.issued += 1;
            targets.push((addr & !(self.line_bytes - 1)) + self.line_bytes);
        }
    }

    fn issued(&self) -> u64 {
        self.issued
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct StrideEntry {
    pc: u64,
    last_addr: u64,
    stride: i64,
    confidence: u8,
    valid: bool,
}

/// IP-stride prefetcher: learns a per-load-site stride and, once confident,
/// prefetches `degree` strides ahead.
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    table: Vec<StrideEntry>,
    mask: u64,
    degree: usize,
    issued: u64,
}

impl StridePrefetcher {
    /// Creates a stride prefetcher with `2^index_bits` tracking entries and
    /// the given prefetch degree.
    ///
    /// # Panics
    ///
    /// Panics when `index_bits` is 0 or `degree` is 0.
    pub fn new(index_bits: u32, degree: usize) -> Self {
        assert!(index_bits > 0 && degree > 0);
        let size = 1usize << index_bits;
        StridePrefetcher {
            table: vec![StrideEntry::default(); size],
            mask: (size - 1) as u64,
            degree,
            issued: 0,
        }
    }
}

impl Prefetcher for StridePrefetcher {
    fn observe(&mut self, pc: u64, addr: u64, _miss: bool, targets: &mut Vec<u64>) {
        let idx = (pc & self.mask) as usize;
        let e = &mut self.table[idx];
        if !e.valid || e.pc != pc {
            *e = StrideEntry {
                pc,
                last_addr: addr,
                stride: 0,
                confidence: 0,
                valid: true,
            };
            return;
        }
        let stride = addr as i64 - e.last_addr as i64;
        if stride == e.stride && stride != 0 {
            e.confidence = (e.confidence + 1).min(3);
        } else {
            e.stride = stride;
            e.confidence = 0;
        }
        e.last_addr = addr;
        if e.confidence >= 2 {
            for d in 1..=self.degree {
                let target = addr as i64 + e.stride * d as i64;
                if target >= 0 {
                    targets.push(target as u64);
                    self.issued += 1;
                }
            }
        }
    }

    fn issued(&self) -> u64 {
        self.issued
    }
}

impl PrefetcherKind {
    /// Builds the prefetcher for a cache with the given line size.
    pub fn build(self, line_bytes: usize) -> Option<Box<dyn Prefetcher + Send>> {
        match self {
            PrefetcherKind::None => None,
            PrefetcherKind::NextLine => Some(Box::new(NextLinePrefetcher::new(line_bytes))),
            PrefetcherKind::Stride => Some(Box::new(StridePrefetcher::new(8, 2))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The targets one observation appends to an empty buffer.
    fn observe(p: &mut impl Prefetcher, pc: u64, addr: u64, miss: bool) -> Vec<u64> {
        let mut targets = Vec::new();
        p.observe(pc, addr, miss, &mut targets);
        targets
    }

    #[test]
    fn next_line_on_miss_only() {
        let mut p = NextLinePrefetcher::new(64);
        assert_eq!(observe(&mut p, 0, 100, false), Vec::<u64>::new());
        assert_eq!(observe(&mut p, 0, 100, true), vec![128]);
        assert_eq!(p.issued(), 1);
    }

    #[test]
    fn stride_learns_sequential() {
        let mut p = StridePrefetcher::new(4, 2);
        let pc = 0x40;
        // Accesses with stride 64: needs 3 observations to gain confidence.
        assert!(observe(&mut p, pc, 0, true).is_empty());
        assert!(observe(&mut p, pc, 64, true).is_empty());
        assert!(observe(&mut p, pc, 128, true).is_empty());
        let out = observe(&mut p, pc, 192, true);
        assert_eq!(out, vec![256, 320]);
        assert_eq!(p.issued(), 2);
    }

    #[test]
    fn stride_resets_on_pattern_change() {
        let mut p = StridePrefetcher::new(4, 1);
        let pc = 0x40;
        for i in 0..5u64 {
            observe(&mut p, pc, i * 64, true);
        }
        assert!(p.issued() > 0);
        let before = p.issued();
        // Random jumps: confidence collapses, no more prefetches.
        assert!(observe(&mut p, pc, 10_000, true).is_empty());
        assert!(observe(&mut p, pc, 3, true).is_empty());
        assert_eq!(p.issued(), before);
    }

    #[test]
    fn stride_zero_never_prefetches() {
        let mut p = StridePrefetcher::new(4, 2);
        for _ in 0..10 {
            assert!(observe(&mut p, 0x40, 512, true).is_empty());
        }
    }

    #[test]
    fn distinct_pcs_tracked_separately() {
        let mut p = StridePrefetcher::new(4, 1);
        for i in 0..4u64 {
            observe(&mut p, 0x40, i * 64, true);
            observe(&mut p, 0x41, i * 128, true);
        }
        let a = observe(&mut p, 0x40, 4 * 64, true);
        let b = observe(&mut p, 0x41, 4 * 128, true);
        assert_eq!(a, vec![5 * 64]);
        assert_eq!(b, vec![5 * 128]);
    }

    #[test]
    fn kind_builders() {
        assert!(PrefetcherKind::None.build(64).is_none());
        assert!(PrefetcherKind::NextLine.build(64).is_some());
        assert!(PrefetcherKind::Stride.build(64).is_some());
    }
}
