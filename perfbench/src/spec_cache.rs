//! `spec-cache`: a Fig. 14/15-style sweep. Each Fig. 15 SPEC-like trace
//! gets its Mocktails(Dynamic), Mocktails(4KB) and HRD recreations, then
//! all four traces replay through the L1/L2 hierarchy at every L1
//! size/associativity point. No DRAM model and no STM.

use mocktails_baselines::HrdModel;
use mocktails_cache::{CacheHierarchy, HierarchyStats};
use mocktails_core::HierarchyConfig;
use mocktails_pool::Parallelism;
use mocktails_sim::harness::{self, CacheEvalOptions, CacheTraceSet};
use mocktails_trace::{fingerprint, Trace};

use crate::inputs;
use crate::offline::{self, Counters, Pipeline, Window};
use crate::soc_dram::{mcc_traced, read_row_hits, row_hit_err_pct};
use crate::spans::{Ctx, Tracer};
use crate::{digest, mean, setup_repeated, Outcome};

/// L1 (bytes, ways) points of the sweep: Fig. 14's 32 KiB 4-way plus the
/// Fig. 15 associativity axis at three capacities.
const POINTS: [(u64, usize); 12] = [
    (16 << 10, 1),
    (16 << 10, 2),
    (16 << 10, 4),
    (16 << 10, 8),
    (32 << 10, 1),
    (32 << 10, 2),
    (32 << 10, 4),
    (32 << 10, 8),
    (64 << 10, 1),
    (64 << 10, 2),
    (64 << 10, 4),
    (64 << 10, 8),
];

/// Base, Dynamic, 4KB and HRD statistics at every sweep point.
type Stats = Vec<[HierarchyStats; 4]>;

struct SpecCache {
    traces: Vec<(&'static str, Trace)>,
    options: CacheEvalOptions,
    dynamic: HierarchyConfig,
    fixed4k: HierarchyConfig,
}

impl SpecCache {
    fn recreate(&self, name: &'static str, base: &Trace) -> CacheTraceSet {
        let seed = self.options.seed;
        CacheTraceSet {
            name,
            base: base.clone(),
            dynamic: harness::fit_and_synthesize(base, &self.dynamic, seed),
            fixed4k: harness::fit_and_synthesize(base, &self.fixed4k, seed),
            hrd: HrdModel::fit(base).synthesize(seed),
        }
    }
}

impl Pipeline for SpecCache {
    type Item = (&'static str, Trace);
    type Out = Stats;

    fn items(&self) -> &[(&'static str, Trace)] {
        &self.traces
    }

    fn requests(&self, item: &(&'static str, Trace)) -> u64 {
        item.1.len() as u64
    }

    fn evaluate(&self, (name, base): &(&'static str, Trace)) -> Self::Out {
        let set = self.recreate(name, base);
        POINTS
            .iter()
            .map(|&(l1_bytes, l1_ways)| {
                let options = CacheEvalOptions {
                    l1_bytes,
                    l1_ways,
                    ..self.options.clone()
                };
                let e = harness::evaluate_cache_set(&set, &options);
                [e.base, e.dynamic, e.fixed4k, e.hrd]
            })
            .collect()
    }

    fn evaluate_traced(
        &self,
        (_, base): &(&'static str, Trace),
        ctx: Ctx<'_>,
        counters: &Counters,
    ) -> Self::Out {
        let seed = self.options.seed;
        let dynamic = mcc_traced(base, &self.dynamic, seed, ctx, counters);
        let fixed4k = mcc_traced(base, &self.fixed4k, seed, ctx, counters);
        let hrd = ctx.span("baselines.hrd", |_| HrdModel::fit(base).synthesize(seed));
        POINTS
            .iter()
            .map(|&(l1_bytes, l1_ways)| {
                [base, &dynamic, &fixed4k, &hrd].map(|trace| {
                    let stats = ctx.span("cache.replay", |_| {
                        CacheHierarchy::paper_config(l1_bytes, l1_ways).run_trace(trace)
                    });
                    Counters::add(&counters.cache_accesses, stats.l1.accesses);
                    stats
                })
            })
            .collect()
    }
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, threads: usize, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let traces = setup_repeated(&mut out, tracer, || {
        tracer
            .root()
            .span("workloads.generate", |_| inputs::spec_traces(seed))
    });
    let options = CacheEvalOptions {
        seed: inputs::derive(seed, 2),
        ..CacheEvalOptions::default()
    };
    let pipeline = SpecCache {
        dynamic: HierarchyConfig::two_level_requests_dynamic(options.requests_per_phase),
        fixed4k: HierarchyConfig::two_level_requests_fixed(options.requests_per_phase, 4096),
        traces,
        options,
    };
    let window = offline::run_window(&pipeline, seconds, threads, tracer, &mut out.metrics);
    out.record_window(&window);
    tracer.root().span("bench.check", |_| {
        check(&mut out, &pipeline, &window, threads)
    });
    out
}

/// Untimed checks and fidelity after the window.
fn check(out: &mut Outcome, pipeline: &SpecCache, window: &Window<Stats>, threads: usize) {
    // A one-thread pass reproduces the window's statistics, and the
    // recreations are identical at 1 and `threads` threads.
    let (one_thread, _, _) = offline::pass(pipeline, 1);
    out.check_items("one-thread pass", &one_thread, &window.reference);
    let recreate = |threads: usize| {
        Parallelism::new(threads).map(&pipeline.traces, |(name, base)| {
            pipeline.recreate(name, base)
        })
    };
    let sets = recreate(threads);
    let fingerprints = |sets: &[CacheTraceSet]| -> Vec<u64> {
        sets.iter()
            .flat_map(|s| [&s.dynamic, &s.fixed4k, &s.hrd].map(fingerprint))
            .collect()
    };
    out.digests(
        digest(&window.reference, &fingerprints(&sets)),
        digest(&one_thread, &fingerprints(&recreate(1))),
    );

    // Fidelity: Dynamic vs base L1 miss rate over every sweep point, and
    // read row hits of all three recreations through the DRAM model
    // (Dynamic alone matches base row hits within ~0.1%, too close to
    // zero for a steady relative figure).
    let miss_pp: Vec<f64> = window
        .reference
        .iter()
        .flatten()
        .map(|[base, dynamic, _, _]| (dynamic.l1.miss_rate() - base.l1.miss_rate()).abs() * 100.0)
        .collect();
    out.metrics.set("cache_miss_err_pp", mean(&miss_pp));
    let row_hits = Parallelism::new(threads).map(&sets, |s| {
        let base = read_row_hits(&s.base);
        [&s.dynamic, &s.fixed4k, &s.hrd].map(|t| (base, read_row_hits(t)))
    });
    out.metrics.set(
        "dram_rowhit_err_pct",
        row_hit_err_pct(row_hits.into_iter().flatten()),
    );
}
