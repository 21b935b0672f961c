//! The pass loop shared by the two paper-pipeline workloads (`soc-dram`,
//! `spec-cache`): timed passes over a fixed input set, fanned out with
//! `Parallelism::map`, through the harness API (untraced) or through a
//! per-crate decomposition of the same calls (traced).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use mocktails_pool::Parallelism;

use crate::measure::{mismatches, ratio, secs_since, Metrics, Samples};
use crate::spans::{Ctx, Span, Summary, Tracer};

/// Work counts the traced decomposition accumulates at the layer
/// boundaries, so per-unit rates are measured where the work happens.
#[derive(Debug, Default)]
pub struct Counters {
    /// Leaf models fitted.
    pub leaves: AtomicU64,
    /// Requests synthesized (McC, STM, HRD).
    pub synth_records: AtomicU64,
    /// Requests replayed through the DRAM model.
    pub dram_requests: AtomicU64,
    /// L1 accesses performed by the cache model.
    pub cache_accesses: AtomicU64,
}

impl Counters {
    /// Adds `n` to `counter`.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    fn get(counter: &AtomicU64) -> f64 {
        counter.load(Ordering::Relaxed) as f64
    }
}

/// One paper pipeline: a set of independent items (traces), each
/// evaluated end to end.
pub trait Pipeline: Sync {
    /// One operation's input.
    type Item: Sync;
    /// One operation's simulated statistics.
    type Out: Send + Clone + PartialEq + std::fmt::Debug;

    /// The items of one pass.
    fn items(&self) -> &[Self::Item];
    /// Input trace requests an item validates.
    fn requests(&self, item: &Self::Item) -> u64;
    /// Evaluates `item` through the harness API. The harness options
    /// carry the process-wide (sequential) parallelism, so the fan-out
    /// over items is the only one.
    fn evaluate(&self, item: &Self::Item) -> Self::Out;
    /// The same evaluation as [`Pipeline::evaluate`], decomposed into
    /// one traced call per crate; it must return identical statistics.
    fn evaluate_traced(&self, item: &Self::Item, ctx: Ctx<'_>, counters: &Counters) -> Self::Out;
}

/// What one window of passes measured.
#[derive(Debug)]
pub struct Window<O> {
    /// The first untraced pass's statistics (the reference every other
    /// pass must reproduce exactly).
    pub reference: Vec<O>,
    /// Operations (item evaluations) run.
    pub attempted: u64,
    /// Operations whose statistics differed from the reference.
    pub failed: u64,
    /// Spans of the traced passes.
    pub spans: Vec<Span>,
}

/// One pass: returns the statistics, the pass wall time and each item's
/// latency.
pub fn pass<P: Pipeline>(p: &P, threads: usize) -> (Vec<P::Out>, f64, Vec<f64>) {
    let start = Instant::now();
    let results = Parallelism::new(threads).map(p.items(), |item| {
        let t = Instant::now();
        let out = p.evaluate(item);
        (out, secs_since(t))
    });
    let wall = secs_since(start);
    let (outs, latencies) = results.into_iter().unzip();
    (outs, wall, latencies)
}

fn traced_pass<P: Pipeline>(
    p: &P,
    threads: usize,
    tracer: &Tracer,
    counters: &Counters,
) -> (Vec<P::Out>, f64, f64) {
    let start = Instant::now();
    let results = tracer.root().span("pool.map", |ctx| {
        Parallelism::new(threads).map(p.items(), |item| {
            let t = Instant::now();
            let out = ctx
                .new_op()
                .span("bench.item", |c| p.evaluate_traced(item, c, counters));
            (out, secs_since(t))
        })
    });
    let wall = secs_since(start);
    let longest = results.iter().map(|r| r.1).fold(0.0, f64::max);
    (results.into_iter().map(|r| r.0).collect(), wall, longest)
}

/// Root span of each untraced pass of a traced run. It counts toward the
/// run's coverage but not toward the per-pass layer figures.
const UNTRACED_PASS: &str = "bench.untraced_pass";

/// Runs passes for `seconds`. With tracing off every pass is untraced;
/// with tracing on, untraced and traced passes alternate, so the overhead
/// ratio compares passes run side by side. Every pass is compared item by
/// item with the first. Records the end-to-end metrics (untraced passes)
/// and, when tracing, the per-layer metrics (traced passes).
pub fn run_window<P: Pipeline>(
    p: &P,
    seconds: f64,
    threads: usize,
    tracer: &Tracer,
    metrics: &mut Metrics,
) -> Window<P::Out> {
    let per_pass_requests: u64 = p.items().iter().map(|i| p.requests(i)).sum();
    let items = p.items().len() as u64;
    let counters = Counters::default();
    let [mut kreq, mut ops, mut p50, mut p90, mut walls, mut traced_walls, mut straggler] =
        std::array::from_fn::<Samples, 7, _>(|_| Samples::default());
    let mut reference: Option<Vec<P::Out>> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    while reference.is_none()
        || secs_since(start) < seconds
        || (tracer.enabled() && traced_walls.len() == 0)
    {
        attempted += items;
        if tracer.enabled() && reference.is_some() && walls.len() > traced_walls.len() {
            let (outs, wall, longest) = traced_pass(p, threads, tracer, &counters);
            failed += mismatches(&outs, reference.as_deref().unwrap_or(&[]));
            traced_walls.push(wall);
            straggler.push(longest / wall);
            continue;
        }
        let (outs, wall, latencies) = tracer.root().span(UNTRACED_PASS, |_| pass(p, threads));
        match &reference {
            Some(want) => failed += mismatches(&outs, want),
            None => reference = Some(outs),
        }
        kreq.push(per_pass_requests as f64 / wall / 1e3);
        ops.push(items as f64 / wall);
        walls.push(wall);
        // Item latencies cluster by trace, so a quantile over all passes
        // would sit on a cluster boundary; each pass's quantile is stable.
        let mut latency = Samples::default();
        latencies.iter().for_each(|s| latency.push(s * 1e3));
        p50.push(latency.median());
        p90.push(latency.quantile(0.9));
    }
    metrics.set("pipeline_kreq_per_s", kreq.median());
    metrics.set("ops_per_s", ops.median());
    metrics.set("op_p50_ms", p50.median());
    metrics.set("op_p90_ms", p90.median());
    metrics.set("bench.op_samples", (walls.len() as u64 * items) as f64);

    let spans = tracer.take();
    if tracer.enabled() {
        let passes = traced_walls.len() as f64;
        let traced: Vec<Span> = spans
            .iter()
            .filter(|s| s.name != UNTRACED_PASS)
            .cloned()
            .collect();
        let summary = Summary::of(&traced);
        stage_metrics(metrics, &summary, Some(passes), &counters);
        self_time_metrics(metrics, &summary, passes);
        metrics.set(
            "pool.busy_share",
            summary.secs("bench.item") / (threads as f64 * traced_walls.sum()),
        );
        metrics.set("pool.straggler_share", straggler.median());
        metrics.set(
            "bench.trace_overhead_ratio",
            traced_walls.median() / walls.median(),
        );
    }
    Window {
        reference: reference.unwrap_or_default(),
        attempted,
        failed,
        spans,
    }
}

/// The layers whose self time the benchmark reports (crate names, plus
/// `bench` for the benchmark's own code between spans).
pub const LAYERS: [&str; 10] = [
    "workloads",
    "core",
    "baselines",
    "dram",
    "cache",
    "pool",
    "trace",
    "store",
    "serve",
    "bench",
];

/// Stage seconds and work rates from traced spans and counters: per pass
/// over `Some(passes)` passes, or per call (each span name's mean) when
/// `passes` is `None`.
pub fn stage_metrics(
    metrics: &mut Metrics,
    summary: &Summary,
    passes: Option<f64>,
    counters: &Counters,
) {
    for (metric, span) in [
        ("core.partition_s", "core.partition"),
        ("core.fit_s", "core.fit"),
        ("core.synth_s", "core.synth"),
        ("baselines.stm_s", "baselines.stm"),
        ("baselines.hrd_s", "baselines.hrd"),
        ("dram.replay_s", "dram.replay"),
        ("cache.replay_s", "cache.replay"),
    ] {
        let calls = passes.unwrap_or(summary.count(span) as f64);
        metrics.set(metric, ratio(summary.secs(span), calls));
    }
    let fits = passes.unwrap_or(summary.count("core.fit") as f64);
    metrics.set("core.leaves", ratio(Counters::get(&counters.leaves), fits));
    metrics.set(
        "core.synth_rec_per_s",
        ratio(
            Counters::get(&counters.synth_records),
            summary.secs("core.synth"),
        ),
    );
    metrics.set(
        "dram.ns_per_req",
        ratio(
            summary.secs("dram.replay") * 1e9,
            Counters::get(&counters.dram_requests),
        ),
    );
    metrics.set(
        "cache.ns_per_access",
        ratio(
            summary.secs("cache.replay") * 1e9,
            Counters::get(&counters.cache_accesses),
        ),
    );
}

/// Self time of every layer, per pass over `passes` passes.
pub fn self_time_metrics(metrics: &mut Metrics, summary: &Summary, passes: f64) {
    for layer in LAYERS {
        let secs = summary.self_by_layer.get(layer).copied().unwrap_or(0.0);
        metrics.set(&format!("{layer}.self_s"), secs / passes);
    }
}
