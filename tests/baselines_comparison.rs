//! Integration tests of the comparative claims: Mocktails vs. STM at the
//! DRAM controller (§IV) and Mocktails vs. HRD at the caches (§V).

use mocktails::baselines::{HrdModel, StmProfile};
use mocktails::cache::CacheHierarchy;
use mocktails::sim::error::pct_error;
use mocktails::trace::Trace;
use mocktails::workloads::spec;
use mocktails::{HierarchyConfig, Profile};

fn l1_miss_rate(trace: &Trace, bytes: u64, ways: usize) -> f64 {
    CacheHierarchy::paper_config(bytes, ways)
        .run_trace(trace)
        .l1
        .miss_rate()
}

#[test]
fn dynamic_beats_fixed_4k_on_cache_miss_rate() {
    // §V: dynamic regions hug the touched bytes; 4 KiB blocks let strides
    // wander over untouched space. Aggregate over several benchmarks.
    let mut dynamic_err = 0.0;
    let mut fixed_err = 0.0;
    for name in ["h264ref", "gobmk", "soplex", "milc"] {
        let trace = spec::generate_n(name, 1, 20_000).unwrap();
        let base = l1_miss_rate(&trace, 32 << 10, 4);
        let dyn_cfg = HierarchyConfig::two_level_requests_dynamic(5_000);
        let fix_cfg = HierarchyConfig::two_level_requests_fixed(5_000, 4096);
        let dyn_trace = Profile::fit(&trace, &dyn_cfg).synthesize(1);
        let fix_trace = Profile::fit(&trace, &fix_cfg).synthesize(1);
        dynamic_err += pct_error(base, l1_miss_rate(&dyn_trace, 32 << 10, 4));
        fixed_err += pct_error(base, l1_miss_rate(&fix_trace, 32 << 10, 4));
    }
    assert!(
        dynamic_err <= fixed_err + 5.0,
        "dynamic {dynamic_err:.1} vs fixed {fixed_err:.1} (summed %)"
    );
}

/// Largest |Δ L1 miss rate| from 2 to 16 ways that still counts as a
/// *flat* Fig. 15 trend. libquantum's streaming scan measures exactly 0
/// here (baseline and synthetic, generator seeds 1–3 × synthesis seeds
/// 2–4); gobmk and zeusmp move by ~0.56 and ~0.48, so the bound separates
/// the three shapes by more than an order of magnitude on either side.
const FLAT_TREND_BOUND: f64 = 0.01;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trend {
    Falls,
    Flat,
    Rises,
}

fn trend_of(delta: f64) -> Trend {
    if delta.abs() < FLAT_TREND_BOUND {
        Trend::Flat
    } else if delta > 0.0 {
        Trend::Rises
    } else {
        Trend::Falls
    }
}

#[test]
fn mocktails_tracks_associativity_trends_like_hrd() {
    // Fig. 15's three trends must be preserved by Mocktails(Dynamic).
    for (name, expected) in [
        ("gobmk", Trend::Falls),
        ("libquantum", Trend::Flat),
        ("zeusmp", Trend::Rises),
    ] {
        let trace = spec::generate_n(name, 1, 24_000).unwrap();
        let profile = Profile::fit(&trace, &HierarchyConfig::two_level_requests_dynamic(6_000));
        let synth = profile.synthesize(2);
        let delta = |t: &Trace| {
            let low = l1_miss_rate(t, 32 << 10, 2);
            let high = l1_miss_rate(t, 32 << 10, 16);
            high - low
        };
        let base_delta = delta(&trace);
        let synth_delta = delta(&synth);
        assert_eq!(
            trend_of(base_delta),
            expected,
            "{name} baseline trend {base_delta:.4}"
        );
        assert_eq!(
            trend_of(synth_delta),
            expected,
            "{name} synthetic trend {synth_delta:.4}"
        );
    }
}

#[test]
fn hrd_captures_miss_rate_but_mocktails_is_closer_on_writebacks() {
    // §V: HRD has a reuse model so miss rates track well; Mocktails still
    // captures write-backs despite its simpler op model. Check both stay
    // in the right ballpark on a mixed benchmark.
    let trace = spec::generate_n("bzip2", 1, 20_000).unwrap();
    let base = CacheHierarchy::paper_config(32 << 10, 4).run_trace(&trace);
    let hrd = HrdModel::fit(&trace).synthesize(1);
    let hrd_stats = CacheHierarchy::paper_config(32 << 10, 4).run_trace(&hrd);
    let mock =
        Profile::fit(&trace, &HierarchyConfig::two_level_requests_dynamic(5_000)).synthesize(1);
    let mock_stats = CacheHierarchy::paper_config(32 << 10, 4).run_trace(&mock);

    let base_mr = base.l1.miss_rate();
    assert!(
        (hrd_stats.l1.miss_rate() - base_mr).abs() < 0.12,
        "HRD miss rate {:.3} vs base {:.3}",
        hrd_stats.l1.miss_rate(),
        base_mr
    );
    assert!(
        (mock_stats.l1.miss_rate() - base_mr).abs() < 0.12,
        "Mocktails miss rate {:.3} vs base {:.3}",
        mock_stats.l1.miss_rate(),
        base_mr
    );
    let wb_err = pct_error(base.l1.write_backs as f64, mock_stats.l1.write_backs as f64);
    assert!(wb_err < 40.0, "Mocktails write-back error {wb_err:.1}%");
}

#[test]
fn stm_and_mocktails_agree_on_strict_totals() {
    let trace = spec::generate_n("gcc", 1, 10_000).unwrap();
    let config = HierarchyConfig::two_level_requests_dynamic(2_500);
    let mcc = Profile::fit(&trace, &config).synthesize(5);
    let stm = StmProfile::fit(&trace, &config).synthesize(5);
    assert_eq!(mcc.len(), trace.len());
    assert_eq!(stm.len(), trace.len());
    assert_eq!(mcc.reads(), trace.reads());
    assert_eq!(stm.reads(), trace.reads());
}

#[test]
fn hrd_footprint_matches_baseline() {
    let trace = spec::generate_n("hmmer", 1, 15_000).unwrap();
    let base = CacheHierarchy::paper_config(32 << 10, 4).run_trace(&trace);
    let synth = HrdModel::fit(&trace).synthesize(3);
    let got = CacheHierarchy::paper_config(32 << 10, 4).run_trace(&synth);
    let err = pct_error(
        base.l1.footprint_bytes as f64,
        got.l1.footprint_bytes as f64,
    );
    assert!(err < 5.0, "footprint error {err:.1}%");
}
