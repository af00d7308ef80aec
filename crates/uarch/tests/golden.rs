//! Golden guard for the simulator: pinned digests of every count the
//! simulator exposes, taken after seeded load/store streams.
//!
//! The digests cover `CounterSnapshot`, `HierarchyStats`, `TlbStats`,
//! per-access outcomes and `occupancy()` over every replacement policy ×
//! write policy × prefetcher kind, over the four zoo presets and
//! `CoreConfig::tiny()`, with `cold_start`, `reset_counters`, `flush` and
//! `pollute` between measurement windows. Any change to the simulator's
//! data layout or hot path must keep every digest: a moved value means a
//! counter the experiments read has changed.
//!
//! On a mismatch the assertion prints the new value. Only re-pin it for a
//! deliberate, documented change of simulated behaviour.

use scnn_rng::{ChaCha8Rng, Rng, SeedableRng};
use scnn_uarch::cache::{Cache, CacheConfig, ReplacementPolicy, WritePolicy};
use scnn_uarch::hierarchy::{HierarchyConfig, LatencyModel, MemoryHierarchy};
use scnn_uarch::{CoreConfig, CoreSim, PrefetcherKind, Probe, Tlb, TlbConfig};

/// FNV-1a over the `Debug` rendering of every value fed in.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, value: &impl std::fmt::Debug) {
        for b in format!("{value:?}").bytes().chain([b';']) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One memory access of a generated stream.
#[derive(Debug, Clone, Copy)]
struct Access {
    addr: u64,
    write: bool,
    pc: u64,
}

/// A seeded stream mixing the patterns the CNN kernels and the noise
/// model produce: strided scans from one PC (prefetcher training), a hot
/// working set, random accesses over 64 MiB, and same-set conflicts
/// 1 MiB apart (evictions in every level up to a 20 MiB LLC).
fn stream(rng: &mut ChaCha8Rng, len: usize) -> Vec<Access> {
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let pc = 0x400 + rng.gen_range(0u64..24) * 4;
        let run = rng.gen_range(16usize..400);
        match rng.gen_range(0u32..5) {
            0 => {
                let stride = [4i64, 8, 64, 128, -64, 192][rng.gen_range(0usize..6)];
                let mut addr = rng.gen_range(1u64 << 22..1 << 26) as i64;
                for _ in 0..run {
                    let write = rng.gen_range(0u32..10) < 2;
                    out.push(Access {
                        addr: addr as u64,
                        write,
                        pc,
                    });
                    addr += stride;
                }
            }
            1 => {
                for _ in 0..run {
                    out.push(Access {
                        addr: 0x10_0000 + rng.gen_range(0u64..16 * 1024),
                        write: rng.gen_range(0u32..10) < 4,
                        pc,
                    });
                }
            }
            2 => {
                for _ in 0..run {
                    out.push(Access {
                        addr: rng.gen_range(0u64..1 << 26),
                        write: rng.gen_range(0u32..10) < 3,
                        pc: 0x400 + rng.gen_range(0u64..24) * 4,
                    });
                }
            }
            3 => {
                let base = rng.gen_range(0u64..1 << 20);
                for _ in 0..run {
                    out.push(Access {
                        addr: base + rng.gen_range(0u64..48) * (1 << 20),
                        write: rng.gen_range(0u32..10) < 3,
                        pc,
                    });
                }
            }
            _ => {
                // Two interleaved streams from two PCs.
                let mut a = rng.gen_range(0u64..1 << 24);
                let mut b = rng.gen_range(1u64 << 24..1 << 25);
                for _ in 0..run / 2 {
                    out.push(Access {
                        addr: a,
                        write: false,
                        pc,
                    });
                    out.push(Access {
                        addr: b,
                        write: true,
                        pc: pc + 0x1000,
                    });
                    a += 64;
                    b += 4;
                }
            }
        }
    }
    out.truncate(len);
    out
}

fn geometries(policy: ReplacementPolicy, write: WritePolicy) -> Vec<CacheConfig> {
    [
        CacheConfig::new(512, 2, 64),
        CacheConfig::new(4 * 1024, 4, 32),
        CacheConfig::new(32 * 1024, 8, 64),
        CacheConfig::new(8 * 64, 8, 64),
        CacheConfig::new(20 * 1024 * 1024 / 64, 20, 64),
        CacheConfig::new(256, 4, 1),
    ]
    .into_iter()
    .map(|c| c.with_policy(policy).with_write_policy(write))
    .collect()
}

#[test]
fn cache_policy_matrix_is_pinned() {
    let mut digest = Digest::new();
    let mut rng = ChaCha8Rng::seed_from_u64(0x601d_0001);
    for policy in ReplacementPolicy::ALL {
        for write in WritePolicy::ALL {
            for config in geometries(policy, write) {
                let mut cache = Cache::new(config).unwrap();
                for window in 0..6u64 {
                    let accesses = stream(&mut rng, 3_000);
                    for a in &accesses {
                        digest.feed(&cache.access(a.addr, a.write));
                    }
                    digest.feed(cache.stats());
                    digest.feed(&cache.occupancy());
                    for a in accesses.iter().step_by(97) {
                        digest.feed(&cache.probe_resident(a.addr));
                    }
                    match window % 3 {
                        0 => cache.pollute(0.3, window * 7 + 1),
                        1 => cache.flush(),
                        _ => cache.reset_stats(),
                    }
                    digest.feed(&cache.occupancy());
                }
            }
        }
    }
    assert_eq!(
        digest.0, 0x49ba_333f_c070_ef8e,
        "cache digest moved: {:#018x}",
        digest.0
    );
}

#[test]
fn hierarchy_matrix_is_pinned() {
    let mut digest = Digest::new();
    let mut rng = ChaCha8Rng::seed_from_u64(0x601d_0002);
    for policy in ReplacementPolicy::ALL {
        for write in WritePolicy::ALL {
            for prefetcher in PrefetcherKind::ALL {
                let level = |size, assoc| {
                    CacheConfig::new(size, assoc, 64)
                        .with_policy(policy)
                        .with_write_policy(write)
                };
                let mut mem = MemoryHierarchy::new(HierarchyConfig {
                    l1d: level(2 * 1024, 4),
                    l2: level(16 * 1024, 8),
                    l3: level(128 * 1024, 16),
                    latency: LatencyModel::default(),
                    prefetcher,
                })
                .unwrap();
                for window in 0..6u64 {
                    for a in stream(&mut rng, 4_000) {
                        digest.feed(&mem.access(a.addr, a.write, a.pc));
                    }
                    digest.feed(&mem.stats());
                    digest.feed(&(mem.l1d().occupancy(), mem.l3().occupancy()));
                    match window % 3 {
                        0 => mem.pollute(0.5, window + 11),
                        1 => mem.flush(),
                        _ => mem.reset_stats(),
                    }
                    digest.feed(&(mem.l1d().occupancy(), mem.l3().occupancy()));
                }
            }
        }
    }
    assert_eq!(
        digest.0, 0x8f80_0f6c_9a80_2c62,
        "hierarchy digest moved: {:#018x}",
        digest.0
    );
}

#[test]
fn tlb_matrix_is_pinned() {
    let mut digest = Digest::new();
    let mut rng = ChaCha8Rng::seed_from_u64(0x601d_0003);
    for config in [
        TlbConfig::default(),
        TlbConfig {
            entries: 8,
            associativity: 2,
            page_bytes: 4096,
        },
        TlbConfig {
            entries: 16,
            associativity: 16,
            page_bytes: 64,
        },
        TlbConfig {
            entries: 4,
            associativity: 4,
            page_bytes: 1,
        },
    ] {
        let mut tlb = Tlb::new(config);
        for window in 0..6 {
            for a in stream(&mut rng, 3_000) {
                digest.feed(&tlb.translate(a.addr));
            }
            digest.feed(tlb.stats());
            if window % 2 == 0 {
                tlb.flush();
            } else {
                tlb.reset_stats();
            }
        }
    }
    assert_eq!(
        digest.0, 0x8ff2_5447_d478_7d31,
        "TLB digest moved: {:#018x}",
        digest.0
    );
}

/// Drives `core` through measurement windows the way `scnn-hpc` does:
/// cold start or pollution between windows, counters reset per window.
fn core_windows(core: &mut CoreSim, rng: &mut ChaCha8Rng, digest: &mut Digest) {
    for window in 0..6u64 {
        match window % 3 {
            0 => core.cold_start(),
            1 => core.pollute(0.5, window * 0x9E37_79B9),
            _ => {}
        }
        core.reset_counters();
        for (i, a) in stream(rng, 8_000).into_iter().enumerate() {
            if a.write {
                core.store(a.addr, a.pc);
            } else {
                core.load(a.addr, a.pc);
            }
            if i % 3 == 0 {
                core.branch(a.pc ^ 0x80, a.addr & 0x40 != 0);
            }
            if i % 5 == 0 {
                core.alu(a.addr % 7);
            }
        }
        digest.feed(&core.snapshot());
        let h = core.hierarchy();
        digest.feed(&h.stats());
        digest.feed(&(h.l1d().occupancy(), h.l3().occupancy()));
    }
}

#[test]
fn zoo_presets_and_tiny_core_are_pinned() {
    let mut digest = Digest::new();
    let mut rng = ChaCha8Rng::seed_from_u64(0x601d_0004);
    let mut configs: Vec<CoreConfig> = scnn_core::zoo::zoo().iter().map(|u| u.core).collect();
    configs.push(CoreConfig::tiny());
    assert_eq!(configs.len(), 5);
    for config in configs {
        let mut core = CoreSim::new(config).unwrap();
        core_windows(&mut core, &mut rng, &mut digest);
    }
    assert_eq!(
        digest.0, 0x2df5_6d70_24bd_9d1b,
        "core digest moved: {:#018x}",
        digest.0
    );
}
