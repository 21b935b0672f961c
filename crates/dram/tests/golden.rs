//! Golden pins of the DRAM controller's full statistics.
//!
//! Every figure below was captured from the reference controller (one
//! `Vec` of burst addresses per request, a same-bank `Vec` collected for
//! the open-adaptive check on every serviced burst, a `BTreeMap` entry per
//! burst for the port counters). A rewrite of the kernel must reproduce
//! them exactly. The digests are FNV-1a over the `Debug` form of
//! [`DramStats`], so they pin every `ChannelStats` field: burst and
//! per-bank counts, row hits and misses, both queue histograms, every
//! turnaround, latency sums, refreshes and the per-port map.
//!
//! The row-interleaved mapping is not nameable outside the crate; its pins
//! live in the unit tests of `src/system.rs`.

use mocktails_core::{HierarchyConfig, Profile};
use mocktails_dram::{DramConfig, DramStats, MemorySystem, PagePolicy, SchedulingPolicy};
use mocktails_trace::fnv1a;
use mocktails_trace::rng::{Prng, Rng};
use mocktails_trace::{Op, Request, Trace};

/// A seeded mix of reads and writes: a streaming scan, a hot 64 KiB region
/// and a cold 16 MiB scatter, with bursty and idle gaps (so queues fill,
/// drains trigger and refreshes land) and sizes that span bursts.
fn mixed_trace(seed: u64, n: u64, base: u64) -> Trace {
    let mut rng = Prng::seed_from_u64(seed);
    let mut t = 0u64;
    let mut scan = 0u64;
    let reqs = (0..n)
        .map(|_| {
            t += match rng.gen_range(0..16u32) {
                0..=11 => rng.gen_range(0..3u64),
                12..=14 => rng.gen_range(3..32u64),
                _ => rng.gen_range(200..5_000u64),
            };
            let addr = match rng.gen_range(0..4u32) {
                0 => {
                    scan += 64;
                    scan % (4 << 20)
                }
                1 => rng.gen_range(0..64u64 << 10),
                _ => rng.gen_range(0..16u64 << 20),
            };
            let op = if rng.gen_bool(0.4) {
                Op::Write
            } else {
                Op::Read
            };
            let size = [4u32, 16, 32, 64, 100, 128, 256][rng.gen_range(0..7usize)];
            Request::new(t, base + addr, op, size)
        })
        .collect();
    Trace::from_requests(reqs)
}

fn digest(stats: &DramStats) -> u64 {
    fnv1a(format!("{stats:?}").as_bytes())
}

/// (page policy, scheduling, stall cycles, `Debug` digest) on the default
/// channel-interleaved mapping.
#[rustfmt::skip]
const POLICY_GOLDEN: [(PagePolicy, SchedulingPolicy, u64, u64); 6] = [
    (PagePolicy::OpenAdaptive, SchedulingPolicy::FrFcfs, 3660, 0xdf29_0627_c1e5_6c23),
    (PagePolicy::OpenAdaptive, SchedulingPolicy::Fcfs, 4967, 0xae9a_589f_aee4_c126),
    (PagePolicy::Open, SchedulingPolicy::FrFcfs, 3933, 0xd63b_71aa_f175_8d5b),
    (PagePolicy::Open, SchedulingPolicy::Fcfs, 5557, 0xc197_6d47_f40b_a9d2),
    (PagePolicy::Closed, SchedulingPolicy::FrFcfs, 6795, 0xe8f1_024e_678f_0837),
    (PagePolicy::Closed, SchedulingPolicy::Fcfs, 6795, 0xe8f1_024e_678f_0837),
];

#[test]
fn replay_stats_match_reference_controller() {
    let trace = mixed_trace(0xD4A1_601D, 20_000, 0);
    let got: Vec<_> = POLICY_GOLDEN
        .iter()
        .map(|&(page_policy, scheduling, _, _)| {
            let config = DramConfig {
                page_policy,
                scheduling,
                ..DramConfig::default()
            };
            let stats = MemorySystem::new(config).run_trace(&trace);
            (page_policy, scheduling, stats.stall_cycles, digest(&stats))
        })
        .collect();
    assert_eq!(got, POLICY_GOLDEN);
}

#[test]
fn default_config_headline_counters_match_reference_controller() {
    // Readable pins of the paper's default configuration, so a digest
    // mismatch names the counter that moved.
    let trace = mixed_trace(0xD4A1_601D, 20_000, 0);
    let stats = MemorySystem::new(DramConfig::default()).run_trace(&trace);
    let got = [
        stats.total_read_bursts(),
        stats.total_write_bursts(),
        stats.total_read_row_hits(),
        stats.total_write_row_hits(),
        stats.channels().iter().map(|c| c.refreshes).sum(),
        stats
            .channels()
            .iter()
            .map(|c| c.turnarounds.len() as u64)
            .sum(),
        stats.channels().iter().map(|c| c.read_latency_sum).sum(),
        stats.channels().iter().map(|c| c.write_latency_sum).sum(),
    ];
    assert_eq!(
        got,
        [41823, 27936, 16371, 10716, 3488, 3531, 13_219_093, 13_556_032]
    );
}

#[test]
fn two_port_replay_matches_reference_controller() {
    let a = mixed_trace(0xD4A1_0A0A, 8_000, 0);
    let b = mixed_trace(0xD4A1_0B0B, 8_000, 1 << 30);
    let stats = MemorySystem::new(DramConfig::default()).run_traces(&[&a, &b]);
    let ports: Vec<(u16, [u64; 3])> = stats
        .port_stats()
        .into_iter()
        .map(|(p, s)| (p, [s.read_bursts, s.write_bursts, s.latency_sum]))
        .collect();
    assert_eq!(
        (ports, stats.stall_cycles, digest(&stats)),
        (
            vec![
                (0, [16704, 11063, 13_439_994]),
                (1, [16753, 11066, 14_682_890]),
            ],
            12293,
            0xd302_84fc_34cb_3328
        )
    );
}

#[test]
fn coupled_synthesizer_matches_reference_controller() {
    // Compressed in time so the synthetic stream fills the queues and the
    // feedback carries queue stalls as well as link waits.
    let dense: Vec<Request> = mixed_trace(0xD4A1_C0C0, 8_000, 0)
        .iter()
        .map(|r| Request {
            timestamp: r.timestamp / 8,
            ..*r
        })
        .collect();
    let trace = Trace::from_requests(dense);
    let profile = Profile::fit(&trace, &HierarchyConfig::two_level_ts(100_000));
    let mut synth = profile.synthesizer(5);
    let stats = MemorySystem::new(DramConfig::default()).run_synthesizer(&mut synth);
    assert_eq!(
        (
            stats.stall_cycles,
            synth.accumulated_delay(),
            digest(&stats)
        ),
        (21312, 35438, 0x736e_cb68_475c_ef91)
    );
}
