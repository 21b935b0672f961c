//! Regression tests for edge cases of the cache simulator.

use mocktails_cache::{Cache, CacheConfig, CacheHierarchy};
use mocktails_trace::Op;

#[test]
fn request_ending_past_the_address_space_touches_its_last_block() {
    // `u64::MAX - 3` + 8 bytes runs past the top of the address space.
    // The end address saturates, so the request touches exactly the last
    // block rather than overflowing (a panic in debug builds, a silent
    // zero-access request in release builds).
    let mut h = CacheHierarchy::paper_config(32 << 10, 4);
    h.access(u64::MAX - 3, 8, Op::Write);
    let stats = h.stats();
    assert_eq!(stats.l1.accesses, 1);
    assert_eq!(stats.l1.misses, 1);
    assert_eq!(stats.l1.footprint_bytes, 64);

    let cache = Cache::new(CacheConfig::new(32 << 10, 4, 64));
    let blocks: Vec<u64> = cache.blocks_of(u64::MAX - 3, 8).collect();
    assert_eq!(blocks, vec![!63]);
}

#[test]
fn top_block_round_trips_through_eviction() {
    // The highest block's tag uses every upper address bit; evicting it
    // must reconstruct the original block address.
    let mut cache = Cache::new(CacheConfig::new(512, 1, 64));
    let top = !63u64;
    cache.access(top, Op::Write);
    let out = cache.access(top - 512, Op::Read); // same set, 1 way
    assert_eq!(out.evicted, Some((top, true)));
}
