//! A single set-associative cache with pluggable replacement policy.

use std::error::Error;
use std::fmt;

/// Replacement policy for a cache set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplacementPolicy {
    /// Evict the least recently used line (true LRU).
    #[default]
    Lru,
    /// Evict the oldest-filled line regardless of use.
    Fifo,
    /// Tree pseudo-LRU (as implemented by most real L1s).
    TreePlru,
    /// Evict a deterministic pseudo-random line (xorshift over an internal
    /// seed, so simulations stay reproducible).
    Random,
}

impl ReplacementPolicy {
    /// Every policy, in the order used by config files and error
    /// messages.
    pub const ALL: [ReplacementPolicy; 4] = [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::TreePlru,
        ReplacementPolicy::Random,
    ];

    /// The stable config-file name of this policy.
    pub fn name(self) -> &'static str {
        match self {
            ReplacementPolicy::Lru => "lru",
            ReplacementPolicy::Fifo => "fifo",
            ReplacementPolicy::TreePlru => "tree-plru",
            ReplacementPolicy::Random => "random",
        }
    }

    /// Looks a policy up by its [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// How stores interact with the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WritePolicy {
    /// Write-back with write-allocate: stores fill the line and dirty it;
    /// dirty victims are written back on eviction (the policy of every
    /// level of a modern x86 data hierarchy).
    #[default]
    WriteBackAllocate,
    /// Write-through with no-write-allocate: stores that miss go straight
    /// to the next level without filling; hits update in place and
    /// propagate. Simpler embedded caches use this.
    WriteThroughNoAllocate,
}

impl WritePolicy {
    /// Every write policy, in config-file order.
    pub const ALL: [WritePolicy; 2] = [
        WritePolicy::WriteBackAllocate,
        WritePolicy::WriteThroughNoAllocate,
    ];

    /// The stable config-file name of this write policy.
    pub fn name(self) -> &'static str {
        match self {
            WritePolicy::WriteBackAllocate => "write-back-allocate",
            WritePolicy::WriteThroughNoAllocate => "write-through-no-allocate",
        }
    }

    /// Looks a write policy up by its [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// Geometry and behaviour of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub associativity: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Replacement policy.
    pub policy: ReplacementPolicy,
    /// Store handling.
    pub write_policy: WritePolicy,
}

impl CacheConfig {
    /// Creates a config with LRU replacement.
    pub fn new(size_bytes: usize, associativity: usize, line_bytes: usize) -> Self {
        CacheConfig {
            size_bytes,
            associativity,
            line_bytes,
            policy: ReplacementPolicy::Lru,
            write_policy: WritePolicy::WriteBackAllocate,
        }
    }

    /// Returns the same config with a different replacement policy.
    pub fn with_policy(mut self, policy: ReplacementPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Returns the same config with a different write policy.
    pub fn with_write_policy(mut self, write_policy: WritePolicy) -> Self {
        self.write_policy = write_policy;
        self
    }

    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> usize {
        self.size_bytes / (self.associativity * self.line_bytes)
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`CacheConfigError`] when sizes are zero, not powers of two
    /// where required, or inconsistent.
    pub fn validate(&self) -> Result<(), CacheConfigError> {
        if self.size_bytes == 0 || self.associativity == 0 || self.line_bytes == 0 {
            return Err(CacheConfigError::Zero);
        }
        if !self.line_bytes.is_power_of_two() {
            return Err(CacheConfigError::LineNotPowerOfTwo(self.line_bytes));
        }
        if !self
            .size_bytes
            .is_multiple_of(self.associativity * self.line_bytes)
        {
            return Err(CacheConfigError::Indivisible {
                size: self.size_bytes,
                assoc: self.associativity,
                line: self.line_bytes,
            });
        }
        if !self.num_sets().is_power_of_two() {
            return Err(CacheConfigError::SetsNotPowerOfTwo(self.num_sets()));
        }
        Ok(())
    }
}

/// Error describing an invalid [`CacheConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheConfigError {
    /// Some field is zero.
    Zero,
    /// Line size is not a power of two.
    LineNotPowerOfTwo(usize),
    /// Capacity is not divisible by way size.
    Indivisible {
        /// Total capacity.
        size: usize,
        /// Associativity.
        assoc: usize,
        /// Line size.
        line: usize,
    },
    /// The derived set count is not a power of two (index bits undefined).
    SetsNotPowerOfTwo(usize),
}

impl fmt::Display for CacheConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheConfigError::Zero => write!(f, "cache geometry fields must be non-zero"),
            CacheConfigError::LineNotPowerOfTwo(l) => {
                write!(f, "line size {l} is not a power of two")
            }
            CacheConfigError::Indivisible { size, assoc, line } => write!(
                f,
                "capacity {size} not divisible by associativity {assoc} × line {line}"
            ),
            CacheConfigError::SetsNotPowerOfTwo(s) => {
                write!(f, "derived set count {s} is not a power of two")
            }
        }
    }
}

impl Error for CacheConfigError {}

/// Outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the line was already present.
    pub hit: bool,
    /// Address of a dirty line that was evicted to make room, if any
    /// (aligned to the line base).
    pub writeback: Option<u64>,
}

/// Running statistics for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses (loads + stores + fills routed through `access`).
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Misses.
    pub misses: u64,
    /// Lines evicted (clean or dirty).
    pub evictions: u64,
    /// Dirty evictions (writebacks).
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]`; `0.0` when no accesses happened.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// One set-associative cache level.
///
/// Addresses are byte-granular; the cache derives line and set with
/// shifts from the configured geometry.
///
/// The state is flat and set-major: way `w` of set `s` is slot
/// `s * associativity + w` of three parallel arrays — the resident line
/// address, the replacement stamp and the dirty bit. A slot is empty
/// exactly when its stamp is 0. The clock advances before every access,
/// so every fill stamps at least 1 and no line address is reserved as an
/// "empty" marker (a 1-byte-line cache can hold line `u64::MAX`).
///
/// # Examples
///
/// ```
/// use scnn_uarch::cache::{Cache, CacheConfig};
///
/// # fn main() -> Result<(), scnn_uarch::cache::CacheConfigError> {
/// let mut c = Cache::new(CacheConfig::new(32 * 1024, 8, 64))?;
/// assert!(!c.access(0x1000, false).hit); // cold miss
/// assert!(c.access(0x1000, false).hit);  // now resident
/// assert_eq!(c.stats().misses, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    ways: usize,
    /// Resident line address (`addr >> line_shift`) per slot.
    lines: Vec<u64>,
    /// LRU timestamp or FIFO fill order per slot; 0 marks an empty slot.
    stamps: Vec<u64>,
    dirty: Vec<bool>,
    /// PLRU tree bits, one word per set (supports associativity ≤ 64).
    plru: Vec<u64>,
    /// Sets filled since the last flush, each listed once; `listed[s]`
    /// says whether set `s` is in the list. Only these sets can hold a
    /// resident line or non-zero PLRU bits, so `flush` resets only them.
    touched: Vec<usize>,
    listed: Vec<bool>,
    /// The last line accessed and its slot, while that slot still holds
    /// it. Every fill, flush and pollute replaces or clears it.
    memo: Option<(u64, usize)>,
    /// Per set, the slot most recently hit or filled: the first slot a
    /// lookup checks. A hint only — the slot's line and stamp are
    /// checked, so a stale hint costs a scan, never a wrong answer.
    mru: Vec<usize>,
    stats: CacheStats,
    clock: u64,
    line_shift: u32,
    set_mask: u64,
    rng_state: u64,
}

impl Cache {
    /// Builds a cache from a validated config.
    ///
    /// # Errors
    ///
    /// Returns [`CacheConfigError`] when the geometry is invalid.
    pub fn new(config: CacheConfig) -> Result<Self, CacheConfigError> {
        config.validate()?;
        let sets = config.num_sets();
        let slots = sets * config.associativity;
        Ok(Cache {
            config,
            ways: config.associativity,
            lines: vec![0; slots],
            stamps: vec![0; slots],
            dirty: vec![false; slots],
            plru: vec![0; sets],
            touched: Vec::new(),
            listed: vec![false; sets],
            memo: None,
            mru: (0..sets).map(|set| set * config.associativity).collect(),
            stats: CacheStats::default(),
            clock: 0,
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: (sets - 1) as u64,
            rng_state: 0x9E37_79B9_7F4A_7C15,
        })
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Running statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Accesses `addr`; `write` marks the line dirty under write-back.
    /// Fills on miss, except for write misses under
    /// [`WritePolicy::WriteThroughNoAllocate`].
    #[inline(always)]
    pub fn access(&mut self, addr: u64, write: bool) -> AccessOutcome {
        self.clock += 1;
        self.stats.accesses += 1;
        let line = addr >> self.line_shift;
        if let Some((memo_line, slot)) = self.memo {
            if memo_line == line {
                return self.hit(line, slot, write);
            }
        }
        let set = (line & self.set_mask) as usize;
        match self.lookup(set, line) {
            Some(slot) => {
                self.mru[set] = slot;
                self.hit(line, slot, write)
            }
            None => self.miss(set, line, write),
        }
    }

    #[inline(always)]
    fn hit(&mut self, line: u64, slot: usize, write: bool) -> AccessOutcome {
        self.stats.hits += 1;
        self.memo = Some((line, slot));
        // FIFO must not refresh recency on hit; LRU must.
        match self.config.policy {
            ReplacementPolicy::Fifo => {}
            ReplacementPolicy::TreePlru => {
                self.stamps[slot] = self.clock;
                self.touch_plru(slot);
            }
            _ => self.stamps[slot] = self.clock,
        }
        let mut writeback = None;
        if write {
            // Write-through lines are never dirty: the store is forwarded
            // to the next level immediately.
            if self.config.write_policy == WritePolicy::WriteThroughNoAllocate {
                writeback = Some(line << self.line_shift);
            } else {
                self.dirty[slot] = true;
            }
        }
        AccessOutcome {
            hit: true,
            writeback,
        }
    }

    #[inline(never)]
    fn miss(&mut self, set: usize, line: u64, write: bool) -> AccessOutcome {
        self.stats.misses += 1;

        // No-write-allocate: a write miss bypasses the cache entirely and
        // the store goes straight down (reported via `writeback`).
        if write && self.config.write_policy == WritePolicy::WriteThroughNoAllocate {
            return AccessOutcome {
                hit: false,
                writeback: Some(line << self.line_shift),
            };
        }

        // Choose a victim and fill.
        let slot = set * self.ways + self.choose_victim(set);
        let mut writeback = None;
        if self.stamps[slot] != 0 {
            self.stats.evictions += 1;
            if self.dirty[slot] {
                self.stats.writebacks += 1;
                writeback = Some(self.lines[slot] << self.line_shift);
            }
        } else if !self.listed[set] {
            self.listed[set] = true;
            self.touched.push(set);
        }
        self.lines[slot] = line;
        self.stamps[slot] = self.clock;
        self.dirty[slot] = write;
        self.mru[set] = slot;
        self.memo = Some((line, slot));
        if self.config.policy == ReplacementPolicy::TreePlru {
            self.touch_plru(slot);
        }
        AccessOutcome {
            hit: false,
            writeback,
        }
    }

    /// The slot of `set` holding `line`, if it is resident.
    #[inline(always)]
    fn lookup(&self, set: usize, line: u64) -> Option<usize> {
        let mru = self.mru[set];
        if self.lines[mru] == line && self.stamps[mru] != 0 {
            return Some(mru);
        }
        let base = set * self.ways;
        let lines = &self.lines[base..base + self.ways];
        let stamps = &self.stamps[base..base + self.ways];
        lines
            .iter()
            .zip(stamps)
            .position(|(&l, &stamp)| l == line && stamp != 0)
            .map(|way| base + way)
    }

    /// True when `addr`'s line is currently resident (does not perturb
    /// statistics or replacement state — an observer, used by tests and by
    /// the noise model).
    pub fn probe_resident(&self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        self.lookup((line & self.set_mask) as usize, line).is_some()
    }

    /// Invalidates every line (models a flush; dirty data is dropped).
    ///
    /// Only the sets filled since the previous flush can hold a line or
    /// PLRU state, so only those are reset.
    pub fn flush(&mut self) {
        for &set in &self.touched {
            let slots = set * self.ways..(set + 1) * self.ways;
            self.stamps[slots.clone()].fill(0);
            self.dirty[slots].fill(false);
            self.plru[set] = 0;
            self.listed[set] = false;
        }
        self.touched.clear();
        self.memo = None;
    }

    /// Invalidates a deterministic pseudo-random selection of roughly
    /// `fraction` of all lines — models cache pollution by a co-running
    /// process or a context switch. One draw is taken per way, in
    /// set-major, way-minor order, whether or not the way is occupied.
    pub fn pollute(&mut self, fraction: f64, seed: u64) {
        let fraction = fraction.clamp(0.0, 1.0);
        let threshold = (fraction * u32::MAX as f64) as u32;
        let mut state = seed | 1;
        for (stamp, dirty) in self.stamps.iter_mut().zip(&mut self.dirty) {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let draw = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as u32;
            if *stamp != 0 && draw < threshold {
                *stamp = 0;
                *dirty = false;
            }
        }
        self.memo = None;
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.stamps.iter().filter(|&&stamp| stamp != 0).count()
    }

    /// Resets statistics without touching cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn choose_victim(&mut self, set: usize) -> usize {
        let stamps = &self.stamps[set * self.ways..(set + 1) * self.ways];
        match self.config.policy {
            // For LRU the stamp is updated on every touch; for FIFO only
            // on fill — victim selection is identical. Empty slots stamp
            // 0, so the first empty way wins before any resident line.
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => stamps
                .iter()
                .enumerate()
                .min_by_key(|&(_, &stamp)| stamp)
                .map(|(way, _)| way)
                .expect("associativity > 0 by validation"),
            _ => {
                // Empty way first, regardless of policy.
                if let Some(way) = stamps.iter().position(|&stamp| stamp == 0) {
                    return way;
                }
                if self.config.policy == ReplacementPolicy::Random {
                    self.rng_state ^= self.rng_state >> 12;
                    self.rng_state ^= self.rng_state << 25;
                    self.rng_state ^= self.rng_state >> 27;
                    return (self.rng_state.wrapping_mul(0x2545_F491_4F6C_DD1D) as usize)
                        % self.ways;
                }
                // Tree PLRU: walk the tree away from recently used halves.
                let bits = self.plru[set];
                let mut node = 0usize; // root at index 0 of implicit tree
                let mut lo = 0usize;
                let mut hi = self.ways;
                while hi - lo > 1 {
                    let bit = (bits >> node) & 1;
                    let mid = (lo + hi) / 2;
                    if bit == 0 {
                        // 0 means left half was recently used → go right.
                        node = 2 * node + 2;
                        lo = mid;
                    } else {
                        node = 2 * node + 1;
                        hi = mid;
                    }
                }
                lo
            }
        }
    }

    fn touch_plru(&mut self, slot: usize) {
        let set = slot / self.ways;
        let way = slot % self.ways;
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.ways;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if way < mid {
                // Used left half: set bit to 0 (left recently used).
                self.plru[set] &= !(1 << node);
                node = 2 * node + 1;
                hi = mid;
            } else {
                self.plru[set] |= 1 << node;
                node = 2 * node + 2;
                lo = mid;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_lru() -> Cache {
        // 4 sets × 2 ways × 64 B = 512 B.
        Cache::new(CacheConfig::new(512, 2, 64)).unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(CacheConfig::new(32 * 1024, 8, 64).validate().is_ok());
        assert!(matches!(
            CacheConfig::new(0, 8, 64).validate(),
            Err(CacheConfigError::Zero)
        ));
        assert!(matches!(
            CacheConfig::new(1024, 8, 48).validate(),
            Err(CacheConfigError::LineNotPowerOfTwo(48))
        ));
        assert!(matches!(
            CacheConfig::new(1000, 8, 64).validate(),
            Err(CacheConfigError::Indivisible { .. })
        ));
        // 3 sets → not a power of two.
        assert!(matches!(
            CacheConfig::new(3 * 2 * 64, 2, 64).validate(),
            Err(CacheConfigError::SetsNotPowerOfTwo(3))
        ));
    }

    #[test]
    fn cold_then_warm() {
        let mut c = small_lru();
        assert!(!c.access(0, false).hit);
        assert!(c.access(0, false).hit);
        assert!(c.access(63, false).hit, "same line");
        assert!(!c.access(64, false).hit, "next line");
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small_lru();
        // Set 0 holds lines whose line-address ≡ 0 (mod 4): 0, 1024, 2048…
        c.access(0, false);
        c.access(1024, false);
        c.access(0, false); // refresh line 0 → LRU victim is 1024
        c.access(2048, false); // evicts 1024
        assert!(c.probe_resident(0));
        assert!(!c.probe_resident(1024));
        assert!(c.probe_resident(2048));
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut c =
            Cache::new(CacheConfig::new(512, 2, 64).with_policy(ReplacementPolicy::Fifo)).unwrap();
        c.access(0, false);
        c.access(1024, false);
        c.access(0, false); // touch must NOT refresh under FIFO
        c.access(2048, false); // evicts the oldest fill: line 0
        assert!(!c.probe_resident(0));
        assert!(c.probe_resident(1024));
    }

    #[test]
    fn writeback_on_dirty_eviction() {
        let mut c = small_lru();
        c.access(0, true); // dirty
        c.access(1024, false);
        let out = c.access(2048, false); // evicts dirty line 0
        assert_eq!(out.writeback, Some(0));
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn clean_eviction_no_writeback() {
        let mut c = small_lru();
        c.access(0, false);
        c.access(1024, false);
        let out = c.access(2048, false);
        assert_eq!(out.writeback, None);
        assert_eq!(c.stats().writebacks, 0);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn write_through_no_allocate() {
        let mut c = Cache::new(
            CacheConfig::new(512, 2, 64).with_write_policy(WritePolicy::WriteThroughNoAllocate),
        )
        .unwrap();
        // Write miss: bypasses the cache, store forwarded downstream.
        let out = c.access(0, true);
        assert!(!out.hit);
        assert_eq!(out.writeback, Some(0), "store forwarded");
        assert!(!c.probe_resident(0), "no-write-allocate must not fill");
        // Read miss still fills.
        c.access(0, false);
        assert!(c.probe_resident(0));
        // Write hit: updates in place and forwards; never dirties.
        let out = c.access(0, true);
        assert!(out.hit);
        assert_eq!(out.writeback, Some(0));
        // Evicting the line must not produce a (second) writeback.
        c.access(1024, false);
        let out = c.access(2048, false);
        assert_eq!(out.writeback, None, "write-through lines are clean");
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn hits_plus_misses_equals_accesses() {
        let mut c = small_lru();
        for i in 0..1000u64 {
            c.access((i * 37) % 4096, i % 3 == 0);
        }
        let s = *c.stats();
        assert_eq!(s.hits + s.misses, s.accesses);
    }

    #[test]
    fn occupancy_bounded_by_capacity() {
        let mut c = small_lru();
        for i in 0..100u64 {
            c.access(i * 64, false);
        }
        assert!(c.occupancy() <= 8, "4 sets × 2 ways");
        assert_eq!(c.occupancy(), 8);
    }

    #[test]
    fn flush_empties() {
        let mut c = small_lru();
        c.access(0, true);
        c.flush();
        assert_eq!(c.occupancy(), 0);
        assert!(!c.probe_resident(0));
    }

    #[test]
    fn pollute_removes_roughly_fraction() {
        let mut c = Cache::new(CacheConfig::new(64 * 1024, 8, 64)).unwrap();
        for i in 0..1024u64 {
            c.access(i * 64, false);
        }
        assert_eq!(c.occupancy(), 1024);
        c.pollute(0.5, 12345);
        let occ = c.occupancy();
        assert!(
            (300..=724).contains(&occ),
            "expected roughly half remaining, got {occ}"
        );
        // Deterministic per seed.
        let mut c2 = Cache::new(CacheConfig::new(64 * 1024, 8, 64)).unwrap();
        for i in 0..1024u64 {
            c2.access(i * 64, false);
        }
        c2.pollute(0.5, 12345);
        assert_eq!(occ, c2.occupancy());
    }

    #[test]
    fn plru_covers_all_ways() {
        let mut c =
            Cache::new(CacheConfig::new(8 * 64, 8, 64).with_policy(ReplacementPolicy::TreePlru))
                .unwrap();
        // Single set, 8 ways: fill 8 distinct lines then 8 more; every
        // access must stay functional and occupancy must stay at 8.
        for i in 0..16u64 {
            c.access(i * 64, false);
        }
        assert_eq!(c.occupancy(), 8);
        let s = *c.stats();
        assert_eq!(s.misses, 16);
    }

    #[test]
    fn random_policy_deterministic() {
        let mk = || {
            let mut c =
                Cache::new(CacheConfig::new(512, 2, 64).with_policy(ReplacementPolicy::Random))
                    .unwrap();
            for i in 0..64u64 {
                c.access((i * 7919) % 8192, false);
            }
            *c.stats()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut c = small_lru();
        // 16 lines mapped into 8-line cache, cyclic: mostly misses.
        for round in 0..10 {
            for i in 0..16u64 {
                c.access(i * 64, false);
            }
            let _ = round;
        }
        assert!(c.stats().miss_ratio() > 0.9);
    }

    #[test]
    fn one_byte_lines_hit_at_the_top_of_the_address_space() {
        // A single set of 1-byte lines: every address is its own line and
        // its own tag, up to u64::MAX. No tag value may mean "empty".
        let mut c = Cache::new(CacheConfig::new(4, 4, 1)).unwrap();
        for addr in [u64::MAX, u64::MAX - 1] {
            assert!(!c.access(addr, false).hit);
            assert!(c.access(addr, false).hit, "repeat of {addr:#x}");
            assert!(c.probe_resident(addr));
        }
        assert!(c.access(u64::MAX, true).hit);
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn miss_ratio_empty() {
        let c = small_lru();
        assert_eq!(c.stats().miss_ratio(), 0.0);
    }
}
