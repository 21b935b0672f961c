//! `soc-dram`: the Fig. 6/9 Option A DRAM validation over all 18 Table II
//! traces — McC and STM fit/synthesize, then DRAM replay of the base, McC
//! and STM traces — fanned out one trace per task.

use mocktails_baselines::StmProfile;
use mocktails_cache::CacheHierarchy;
use mocktails_core::partition::hierarchy;
use mocktails_core::{HierarchyConfig, LeafModel, Profile};
use mocktails_dram::{DramConfig, DramStats, MemorySystem};
use mocktails_pool::Parallelism;
use mocktails_sim::harness::{self, EvalOptions};
use mocktails_trace::{fingerprint, Trace};

use crate::inputs::{self, SocTrace};
use crate::measure::{ratio, Metrics};
use crate::offline::{self, Counters, Pipeline, Window};
use crate::spans::{Ctx, Tracer};
use crate::{digest, mean, setup_repeated, Outcome};

struct SocDram {
    traces: Vec<SocTrace>,
    options: EvalOptions,
    config: HierarchyConfig,
}

impl Pipeline for SocDram {
    type Item = SocTrace;
    /// Base, McC and STM DRAM statistics.
    type Out = [DramStats; 3];

    fn items(&self) -> &[SocTrace] {
        &self.traces
    }

    fn requests(&self, item: &SocTrace) -> u64 {
        item.trace.len() as u64
    }

    fn evaluate(&self, item: &SocTrace) -> [DramStats; 3] {
        let eval = harness::evaluate_dram_trace(item.name, item.device, &item.trace, &self.options);
        [eval.base, eval.mcc, eval.stm]
    }

    fn evaluate_traced(
        &self,
        item: &SocTrace,
        ctx: Ctx<'_>,
        counters: &Counters,
    ) -> [DramStats; 3] {
        let seed = self.options.seed;
        let mcc = mcc_traced(&item.trace, &self.config, seed, ctx, counters);
        let stm = ctx.span("baselines.stm", |_| {
            StmProfile::fit(&item.trace, &self.config).synthesize(seed)
        });
        [&item.trace, &mcc, &stm].map(|trace| {
            Counters::add(&counters.dram_requests, trace.len() as u64);
            ctx.span("dram.replay", |_| {
                MemorySystem::new(self.options.dram).run_trace(trace)
            })
        })
    }
}

/// `Profile::fit` (sequential), one traced call per step: partition, then
/// per-leaf McC fit.
pub fn fit_traced(
    trace: &Trace,
    config: &HierarchyConfig,
    ctx: Ctx<'_>,
    counters: &Counters,
) -> Profile {
    let partitions = ctx.span("core.partition", |_| hierarchy::partition(trace, config));
    let leaves = ctx.span("core.fit", |_| {
        Parallelism::sequential().map(&partitions, LeafModel::fit)
    });
    Counters::add(&counters.leaves, leaves.len() as u64);
    Profile::from_parts(config.clone(), leaves)
}

/// `harness::fit_and_synthesize`, one traced call per step: partition,
/// per-leaf McC fit, validated synthesis.
pub fn mcc_traced(
    trace: &Trace,
    config: &HierarchyConfig,
    seed: u64,
    ctx: Ctx<'_>,
    counters: &Counters,
) -> Trace {
    let profile = fit_traced(trace, config, ctx, counters);
    let synthetic = ctx
        .span("core.synth", |_| profile.try_synthesize(seed))
        .expect("fitted profiles validate by construction");
    Counters::add(&counters.synth_records, synthetic.len() as u64);
    synthetic
}

/// Mean |model − base| read row hits over traces, in percent of the mean
/// base read row hits.
pub fn row_hit_err_pct(pairs: impl Iterator<Item = (u64, u64)>) -> f64 {
    let (diff, base) = pairs.fold((0u64, 0u64), |(diff, total), (base, model)| {
        (diff + base.abs_diff(model), total + base)
    });
    ratio(diff as f64, base as f64) * 100.0
}

/// Syntheses per trace the fidelity figures average over.
const FIDELITY_SEEDS: u64 = 6;

/// Read row hits of `trace` replayed through the Table III DRAM system.
pub fn read_row_hits(trace: &Trace) -> u64 {
    MemorySystem::new(DramConfig::default())
        .run_trace(trace)
        .total_read_row_hits()
}

/// Fidelity of [`FIDELITY_SEEDS`] syntheses of `profile` against `base`:
/// for each, the (base, synthetic) read row hits and the |synthetic −
/// base| L1 miss rate in percentage points.
pub fn fidelity(base: &Trace, profile: &Profile, seed: u64) -> Vec<((u64, u64), f64)> {
    let (base_hits, base_miss) = (read_row_hits(base), l1_miss_rate(base));
    (0..FIDELITY_SEEDS)
        .map(|k| {
            let synthetic = profile
                .try_synthesize(inputs::derive(seed, k))
                .expect("fitted profiles validate by construction");
            (
                (base_hits, read_row_hits(&synthetic)),
                (l1_miss_rate(&synthetic) - base_miss).abs() * 100.0,
            )
        })
        .collect()
}

/// Records `dram_rowhit_err_pct` and `cache_miss_err_pp` from [`fidelity`]
/// results.
pub fn set_fidelity(metrics: &mut Metrics, fidelity: &[((u64, u64), f64)]) {
    metrics.set(
        "dram_rowhit_err_pct",
        row_hit_err_pct(fidelity.iter().map(|f| f.0)),
    );
    metrics.set(
        "cache_miss_err_pp",
        mean(&fidelity.iter().map(|f| f.1).collect::<Vec<_>>()),
    );
}

/// L1 miss rate of `trace` in the §V configuration (32 KiB 4-way L1).
pub fn l1_miss_rate(trace: &Trace) -> f64 {
    CacheHierarchy::paper_config(32 << 10, 4)
        .run_trace(trace)
        .l1
        .miss_rate()
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, threads: usize, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let traces = setup_repeated(&mut out, tracer, || {
        tracer
            .root()
            .span("workloads.generate", |_| inputs::soc_traces(seed))
    });
    let options = EvalOptions {
        seed: inputs::derive(seed, 1),
        ..EvalOptions::default()
    };
    let pipeline = SocDram {
        config: HierarchyConfig::two_level_ts(options.cycles_per_phase),
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
fn check(out: &mut Outcome, pipeline: &SocDram, window: &Window<[DramStats; 3]>, threads: usize) {
    // A one-thread pass reproduces the window's statistics, and the
    // synthesized traces are identical at 1 and `threads` threads.
    let (one_thread, _, _) = offline::pass(pipeline, 1);
    out.check_items("one-thread pass", &one_thread, &window.reference);
    let synthesize = |threads: usize| -> Vec<u64> {
        Parallelism::new(threads)
            .map(&pipeline.traces, |t| {
                let seed = pipeline.options.seed;
                let mcc = harness::fit_and_synthesize(&t.trace, &pipeline.config, seed);
                let stm = StmProfile::fit(&t.trace, &pipeline.config).synthesize(seed);
                [fingerprint(&mcc), fingerprint(&stm)]
            })
            .concat()
    };
    out.digests(
        digest(&window.reference, &synthesize(threads)),
        digest(&one_thread, &synthesize(1)),
    );

    // Fidelity, deterministic per seed: McC vs base, over several
    // syntheses of every trace.
    let fidelity = Parallelism::new(threads)
        .map(&pipeline.traces, |t| {
            let profile = Profile::fit(&t.trace, &pipeline.config);
            fidelity(&t.trace, &profile, pipeline.options.seed)
        })
        .concat();
    set_fidelity(&mut out.metrics, &fidelity);
}
