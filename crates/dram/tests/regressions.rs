//! Regression tests for edge cases of the DRAM model.

use mocktails_dram::{DramConfig, MemorySystem};
use mocktails_trace::{Request, Trace};

#[test]
fn request_ending_past_the_address_space_makes_its_last_burst() {
    // `u64::MAX - 3` + 8 bytes runs past the top of the address space.
    // The end address saturates, so the request makes exactly the last
    // burst rather than overflowing (a panic in debug builds, a silent
    // zero-burst request in release builds).
    let trace = Trace::from_requests(vec![Request::read(0, u64::MAX - 3, 8)]);
    let stats = MemorySystem::new(DramConfig::default()).run_trace(&trace);
    assert_eq!(stats.total_read_bursts(), 1);
    assert_eq!(stats.total_write_bursts(), 0);
    assert_eq!(stats.total_read_row_hits(), 0);
}

#[test]
fn burst_walk_saturates_at_the_top_burst() {
    let m = DramConfig::default().mapping();
    let bursts: Vec<u64> = m.bursts(u64::MAX - 3, 8).collect();
    assert_eq!(bursts, vec![!31]);
    let bursts: Vec<u64> = m.bursts(u64::MAX - 40, 64).collect();
    assert_eq!(bursts, vec![!63, !31]);
}
