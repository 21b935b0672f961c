//! Golden pins of the STM baseline's fitted tables and synthetic draws.
//!
//! Captured from the reference stride table (a `BTreeMap` keyed by owned
//! history `Vec`s, one entry per stride × history length, backing off from
//! the longest matching key) on full-length catalog traces under the
//! paper's 2L-TS hierarchy. Any rewrite of the table or the generators
//! must reproduce every draw: the fingerprint covers each synthesized
//! request's timestamp, address, operation and size, in order.

use mocktails_baselines::stm::StrideTable;
use mocktails_baselines::StmProfile;
use mocktails_core::partition::hierarchy;
use mocktails_core::HierarchyConfig;
use mocktails_trace::rng::{Prng, Rng};
use mocktails_trace::{fingerprint, fnv1a};
use mocktails_workloads::catalog;

/// (trace, leaves, summed stride-table contexts, fingerprint of the
/// seed-1 synthesis, fingerprint of the seed-7 synthesis).
#[rustfmt::skip]
const STM_GOLDEN: [(&str, usize, usize, u64, u64); 3] = [
    ("Crypto1", 1748, 17833, 0x7188_d955_25dc_e6ea, 0x6d37_24d4_baca_4457),
    ("T-Rex1", 4521, 27013, 0x560d_0a99_7e92_9739, 0x9b11_056c_8b23_8332),
    ("HEVC1", 850, 12572, 0xc118_7347_876a_8bfa, 0x7568_b0b3_49da_007c),
];

#[test]
fn stm_tables_and_draws_match_reference_model() {
    let config = HierarchyConfig::two_level_ts(500_000);
    let got: Vec<_> = STM_GOLDEN
        .iter()
        .map(|&(name, ..)| {
            let spec = catalog::by_name(name).expect("catalog trace");
            let trace = spec.generate();
            let profile = StmProfile::fit(&trace, &config);
            // The same per-leaf tables `StmLeaf::fit` builds.
            let contexts: usize = hierarchy::partition(&trace, &config)
                .iter()
                .filter_map(|p| StrideTable::fit(&p.strides()))
                .map(|t| t.contexts())
                .sum();
            let a = profile.synthesize(1);
            assert_eq!(a.len(), trace.len(), "{name}");
            (
                name,
                profile.leaves().len(),
                contexts,
                fingerprint(&a),
                fingerprint(&profile.synthesize(7)),
            )
        })
        .collect();
    assert_eq!(got, STM_GOLDEN);
}

#[test]
fn stride_back_off_matches_reference_table() {
    // Strides from a small alphabet, so contexts of every length repeat,
    // then queries whose histories mix seen and unseen strides at every
    // length from 0 to past MAX_HISTORY: every back-off depth, including
    // the order-0 fallback, is drawn from.
    let mut rng = Prng::seed_from_u64(0x57B1_0FF5);
    let alphabet = [-128i64, -64, 0, 32, 64, 64, 64, 4096];
    let strides: Vec<i64> = (0..5_000)
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
        .collect();
    let table = StrideTable::fit(&strides).expect("non-empty strides");
    let mut log = Vec::new();
    for _ in 0..4_000 {
        let len = rng.gen_range(0..11usize);
        let history: Vec<i64> = (0..len)
            .map(|_| {
                if rng.gen_range(0..6u32) == 0 {
                    7 // never observed
                } else {
                    alphabet[rng.gen_range(0..alphabet.len())]
                }
            })
            .collect();
        log.extend_from_slice(&table.sample(&history, &mut rng).to_le_bytes());
    }
    assert_eq!(
        (table.contexts(), fnv1a(&log)),
        (18068, 0x8b6e_ff54_bf21_4845)
    );
}
