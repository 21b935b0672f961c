//! Micro-benchmarks of the Mocktails pipeline stages: partitioning,
//! model fitting, synthesis, DRAM simulation, the STM baseline and cache
//! replay.
//!
//! Hand-rolled harness (no external bench crate, so the workspace builds
//! hermetically): each stage runs for a fixed number of timed iterations
//! after a short warm-up and reports the mean wall time per iteration.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mocktails_baselines::StmProfile;
use mocktails_cache::CacheHierarchy;
use mocktails_core::partition::spatial;
use mocktails_core::{HierarchyConfig, Profile};
use mocktails_dram::{DramConfig, MemorySystem};
use mocktails_trace::DecodeOptions;
use mocktails_workloads::{catalog, spec};

const WARMUP_ITERS: u32 = 3;
const TIMED_ITERS: u32 = 20;

fn bench<T>(name: &str, mut f: impl FnMut() -> T) -> Duration {
    for _ in 0..WARMUP_ITERS {
        black_box(f());
    }
    let start = Instant::now();
    for _ in 0..TIMED_ITERS {
        black_box(f());
    }
    let per_iter = start.elapsed() / TIMED_ITERS;
    println!("{name:<40} {per_iter:>12.2?}/iter ({TIMED_ITERS} iters)");
    per_iter
}

fn main() {
    let trace = catalog::by_name("FBC-Linear1")
        .expect("catalog trace")
        .generate()
        .truncate_to(20_000);
    let config = HierarchyConfig::two_level_ts(500_000);
    let profile = Profile::fit(&trace, &config);

    bench("dynamic_spatial_partitioning_20k", || {
        spatial::dynamic(trace.requests(), true)
    });

    bench("profile_fit_20k", || Profile::fit(&trace, &config));

    bench("synthesize_20k", || profile.synthesize(1));

    let mut buf = Vec::new();
    profile.write(&mut buf).expect("profile encodes");
    bench("profile_decode", || {
        Profile::read(&mut buf.as_slice(), &DecodeOptions::trusted()).expect("round trip")
    });

    // The §IV DRAM and STM stages on a full-length many-leaf GPU trace
    // (T-Rex1: 23 040 requests, 4 521 leaves, long write queues) rather
    // than a truncated streaming one.
    let trex = catalog::by_name("T-Rex1")
        .expect("catalog trace")
        .generate();
    let per_iter = bench("dram_replay_trex1", || {
        MemorySystem::new(DramConfig::default()).run_trace(&trex)
    });
    println!(
        "{:<40} {:>12.1} ns/request ({} requests)",
        "dram_replay_per_request",
        per_iter.as_nanos() as f64 / trex.len() as f64,
        trex.len()
    );
    bench("stm_fit_synthesize_trex1", || {
        StmProfile::fit(&trex, &config).synthesize(1)
    });

    // The §V cache stage: a full-length SPEC-like trace through the
    // paper's 32 KiB 4-way L1 over the 256 KiB 8-way L2.
    let gobmk = spec::generate("gobmk", 1).expect("gobmk is a SPEC-like benchmark");
    let replay = || CacheHierarchy::paper_config(32 << 10, 4).run_trace(&gobmk);
    let l1_accesses = replay().l1.accesses;
    let per_iter = bench("cache_replay_gobmk_120k", replay);
    println!(
        "{:<40} {:>12.1} ns/L1 access ({l1_accesses} accesses)",
        "cache_replay_per_access",
        per_iter.as_nanos() as f64 / l1_accesses as f64
    );
}
