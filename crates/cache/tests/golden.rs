//! Golden pins of the cache kernel's full statistics.
//!
//! Every figure below was captured from the reference `Vec<Vec<Line>>`
//! kernel (per-set `swap_remove` + `push`, footprint set updated on every
//! access). Any rewrite of `Cache::access` must reproduce them exactly:
//! `Replacement::Random` picks its victim by position within a set, so
//! these pins also prove that the order of lines within a set is kept.

use mocktails_cache::{Cache, CacheConfig, CacheHierarchy, CacheStats, Replacement};
use mocktails_trace::fnv1a;
use mocktails_trace::rng::{Prng, Rng};
use mocktails_trace::{Op, Request, Trace};

/// A seeded mix of reads and writes: half hot-set reuse (24 KiB), a
/// quarter streaming scan over 512 KiB, a quarter cold 4 MiB scatter.
/// Sizes include block-spanning requests.
fn mixed_trace(seed: u64, n: u64) -> Trace {
    let mut rng = Prng::seed_from_u64(seed);
    let mut scan = 0u64;
    let reqs = (0..n)
        .map(|t| {
            let addr = match rng.gen_range(0..4u32) {
                0 | 1 => rng.gen_range(0..24u64 << 10),
                2 => {
                    scan += 64;
                    (1 << 20) + scan % (512 << 10)
                }
                _ => rng.gen_range(0..4u64 << 20),
            };
            let op = if rng.gen_bool(0.35) {
                Op::Write
            } else {
                Op::Read
            };
            let size = [4u32, 8, 16, 64, 100][rng.gen_range(0..5usize)];
            Request::new(t, addr, op, size)
        })
        .collect();
    Trace::from_requests(reqs)
}

/// accesses, hits, misses, replacements, write-backs, footprint bytes.
fn counters(s: &CacheStats) -> [u64; 6] {
    [
        s.accesses,
        s.hits,
        s.misses,
        s.replacements,
        s.write_backs,
        s.footprint_bytes,
    ]
}

/// (policy, L1 bytes, L1 ways, L1 counters, L2 counters) over a 256 KiB
/// 8-way L2 with the same policy.
type GoldenRow = (Replacement, u64, usize, [u64; 6], [u64; 6]);

#[rustfmt::skip]
const HIERARCHY_GOLDEN: [GoldenRow; 9] = [
    (Replacement::Lru, 16 << 10, 1, [59471, 12884, 46587, 46331, 18880, 1334656], [65467, 40476, 24991, 20895, 7953, 1334656]),
    (Replacement::Lru, 32 << 10, 4, [59471, 21090, 38381, 37869, 16626, 1334656], [55007, 30009, 24998, 20902, 7924, 1334656]),
    (Replacement::Lru, 64 << 10, 8, [59471, 30094, 29377, 28353, 12169, 1334656], [41546, 15933, 25613, 21517, 8388, 1334656]),
    (Replacement::Fifo, 16 << 10, 1, [59471, 12884, 46587, 46331, 18880, 1334656], [65467, 38457, 27010, 22914, 10005, 1334656]),
    (Replacement::Fifo, 32 << 10, 4, [59471, 18795, 40676, 40164, 17651, 1334656], [58327, 31323, 27004, 22908, 9984, 1334656]),
    (Replacement::Fifo, 64 << 10, 8, [59471, 25072, 34399, 33375, 15572, 1334656], [49971, 22969, 27002, 22906, 9967, 1334656]),
    (Replacement::Random, 16 << 10, 1, [59471, 12884, 46587, 46331, 18880, 1334656], [65467, 38382, 27085, 22989, 9599, 1334656]),
    (Replacement::Random, 32 << 10, 4, [59471, 18769, 40702, 40190, 17344, 1334656], [58046, 30626, 27420, 23324, 9572, 1334656]),
    (Replacement::Random, 64 << 10, 8, [59471, 25112, 34359, 33335, 14904, 1334656], [49263, 21212, 28051, 23955, 9416, 1334656]),
];

#[test]
fn hierarchy_stats_match_reference_kernel() {
    let trace = mixed_trace(0x601D_CAC4, 40_000);
    for (policy, bytes, ways, l1, l2) in HIERARCHY_GOLDEN {
        let mut h = CacheHierarchy::new(
            CacheConfig::new(bytes, ways, 64).with_replacement(policy),
            CacheConfig::new(256 << 10, 8, 64).with_replacement(policy),
        );
        let stats = h.run_trace(&trace);
        assert_eq!(
            counters(&stats.l1),
            l1,
            "L1 {policy:?} {bytes} B {ways}-way"
        );
        assert_eq!(
            counters(&stats.l2),
            l2,
            "L2 {policy:?} {bytes} B {ways}-way"
        );
    }
}

#[test]
fn per_access_outcomes_match_reference_kernel() {
    // FNV-1a over every (hit, evicted block, dirty) outcome of a single
    // 4 KiB 4-way level fed unaligned addresses: pins each victim choice,
    // not just the totals.
    let trace = mixed_trace(0x601D_CAC4, 40_000);
    for (policy, digest) in [
        (Replacement::Lru, 0x9f15_1931_fcad_6525_u64),
        (Replacement::Fifo, 0x4f38_69c5_daff_3e30),
        (Replacement::Random, 0x3992_bb1b_b5d5_9a68),
    ] {
        let mut cache = Cache::new(CacheConfig::new(4 << 10, 4, 64).with_replacement(policy));
        let mut log = Vec::new();
        for r in trace.iter() {
            let out = cache.access(r.address, r.op);
            let (victim, dirty) = out.evicted.unwrap_or((u64::MAX, false));
            log.push(u8::from(out.hit));
            log.extend_from_slice(&victim.to_le_bytes());
            log.push(u8::from(dirty));
        }
        assert_eq!(fnv1a(&log), digest, "{policy:?} outcome digest");
    }
}
