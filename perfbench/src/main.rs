//! The repository benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload soc-dram|spec-cache|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints an environment line, a metric table, the workload's output
//! digest (checked equal at one thread and at every core), and as its
//! last line one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See `perfbench/README.md`.

mod inputs;
mod measure;
mod offline;
mod serve_mix;
mod soc_dram;
mod spans;
mod spec_cache;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use mocktails_pool::Parallelism;
use mocktails_trace::fnv1a;

use measure::{mismatches, peak_rss_mb, ratio, secs_since, Json, Metrics, Samples};
use offline::Window;
use spans::{Span, Summary, Tracer};

/// End-to-end metrics (tracing off), every workload.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pipeline_kreq_per_s", "kreq/s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("dram_rowhit_err_pct", "%"),
    ("cache_miss_err_pp", "pp"),
];

/// Per-layer metrics (traced run), every workload; a layer a workload
/// does not exercise reads 0.
const PER_LAYER: [(&str, &str); 56] = [
    ("workloads.generate_s", "s"),
    ("core.partition_s", "s"),
    ("core.fit_s", "s"),
    ("core.leaves", "count"),
    ("core.synth_s", "s"),
    ("core.synth_rec_per_s", "1/s"),
    ("baselines.stm_s", "s"),
    ("baselines.hrd_s", "s"),
    ("dram.replay_s", "s"),
    ("dram.ns_per_req", "ns"),
    ("cache.replay_s", "s"),
    ("cache.ns_per_access", "ns"),
    ("pool.busy_share", "ratio"),
    ("pool.straggler_share", "ratio"),
    ("trace.decode_mb_per_s", "MB/s"),
    ("store.put_ms", "ms"),
    ("store.open_s", "s"),
    ("serve.first_chunk_ms", "ms"),
    ("serve.ack_gap_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.fit_compute_ms", "ms"),
    ("serve.synth_compute_ms", "ms"),
    ("serve.wakeups_per_op", "ratio"),
    ("serve.wakeups", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_hits", "count"),
    ("serve.cache_lookups", "count"),
    ("serve.busy_ratio", "ratio"),
    ("serve.busy_rejections", "count"),
    ("serve.requests", "count"),
    ("serve.fit_p50_ms", "ms"),
    ("serve.fit_p90_ms", "ms"),
    ("serve.stream_p50_ms", "ms"),
    ("serve.stream_p90_ms", "ms"),
    ("serve.couple_p50_ms", "ms"),
    ("serve.couple_p90_ms", "ms"),
    ("serve.connect_p50_ms", "ms"),
    ("serve.connect_p90_ms", "ms"),
    ("serve.fit_samples", "count"),
    ("serve.stream_samples", "count"),
    ("serve.couple_samples", "count"),
    ("serve.connect_samples", "count"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.run_s", "s"),
    ("bench.uncovered_s", "s"),
    ("bench.op_samples", "count"),
    ("workloads.self_s", "s"),
    ("core.self_s", "s"),
    ("baselines.self_s", "s"),
    ("dram.self_s", "s"),
    ("cache.self_s", "s"),
    ("pool.self_s", "s"),
    ("trace.self_s", "s"),
    ("store.self_s", "s"),
    ("serve.self_s", "s"),
    ("bench.self_s", "s"),
];

/// How many times set-up runs; `setup_s` is the median.
const SETUP_REPEATS: usize = 9;

/// Where spans and scratch state go, relative to the working directory.
const OUT_DIR: &str = ".perfbench-out";

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every metric recorded (end-to-end and per-layer).
    pub metrics: Metrics,
    /// Operations attempted, all kinds.
    pub attempted: u64,
    /// Operations that failed or produced wrong output, all kinds.
    pub failed: u64,
    /// Attempted and failed operations per kind.
    pub kinds: Vec<(String, u64, u64)>,
    /// Correctness failures that are not operations (digest mismatch).
    pub problems: Vec<String>,
    /// Output digest at `threads` threads and at one thread.
    pub digest: Option<(u64, u64)>,
    /// Every recorded span.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Counts `attempted` operations of `kind`, `failed` of them bad.
    pub fn count(&mut self, kind: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        match self.kinds.iter_mut().find(|k| k.0 == kind) {
            Some(k) => {
                k.1 += attempted;
                k.2 += failed;
            }
            None => self.kinds.push((kind.to_string(), attempted, failed)),
        }
    }

    /// Folds in an offline window's operations and spans, and the peak
    /// memory the run reached by its end.
    pub fn record_window<O>(&mut self, window: &Window<O>) {
        self.count("evaluate", window.attempted, window.failed);
        self.spans.extend(window.spans.iter().cloned());
        self.metrics.set("peak_rss_mb", peak_rss_mb());
    }

    /// Checks `got` item by item against `want`, as operations of `kind`.
    pub fn check_items<O: PartialEq>(&mut self, kind: &str, got: &[O], want: &[O]) {
        self.count(kind, got.len() as u64, mismatches(got, want));
    }

    /// Records the output digest at `threads` threads and at one thread.
    pub fn digests(&mut self, at_threads: u64, at_one: u64) {
        if at_threads != at_one {
            self.problems.push(format!(
                "digest differs: {at_threads:#018x} vs one thread {at_one:#018x}"
            ));
        }
        self.digest = Some((at_threads, at_one));
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.digest.is_some()
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times, records the median as `setup_s`
/// (and, when tracing, the set-up layers' per-set-up times), and returns
/// the last result; earlier results are dropped untimed.
pub fn setup_repeated<T>(out: &mut Outcome, tracer: &Tracer, mut setup: impl FnMut() -> T) -> T {
    let mut times = Samples::default();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        times.push(secs_since(start));
    }
    out.metrics.set("setup_s", times.median());
    if tracer.enabled() {
        let spans = tracer.take();
        let summary = Summary::of(&spans);
        let repeats = SETUP_REPEATS as f64;
        let m = &mut out.metrics;
        m.set(
            "workloads.generate_s",
            summary.secs("workloads.generate") / repeats,
        );
        m.set("store.open_s", summary.secs("store.open") / repeats);
        let puts = summary.count("store.put") as f64;
        m.set("store.put_ms", ratio(summary.secs("store.put") * 1e3, puts));
        out.spans.extend(spans);
    }
    last.expect("SETUP_REPEATS is at least one")
}

/// One digest over simulated statistics (their exact `Debug` rendering)
/// and trace fingerprints.
pub fn digest(stats: &impl std::fmt::Debug, fingerprints: &[u64]) -> u64 {
    let mut bytes = format!("{stats:?}").into_bytes();
    fingerprints
        .iter()
        .for_each(|f| bytes.extend_from_slice(&f.to_le_bytes()));
    fnv1a(&bytes)
}

/// Arithmetic mean (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|e| bad(&e))? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0).max(0.1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Fan-outs run at `threads`; everything nested inside them (leaf
    // fitting in `Profile::fit`, store recovery) runs sequentially, so the
    // process never uses more worker threads than cores.
    Parallelism::sequential().make_current();
    let environment = Json::obj()
        .with("available_parallelism", Json::Int(threads as u64))
        .with("threads", Json::Int(threads as u64))
        .with(
            "mocktails_threads_env",
            Json::Str(std::env::var("MOCKTAILS_THREADS").unwrap_or_default()),
        )
        .with("seed", Json::Int(args.seed))
        .with("seconds", Json::Num(args.seconds))
        .with("trace", Json::Bool(args.trace))
        .with("workload", Json::Str(args.workload.clone()))
        .with(
            "build_profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        );
    let tracer = Tracer::new(args.trace);
    let mut outcome = match args.workload.as_str() {
        "soc-dram" => soc_dram::run(args.seed, args.seconds, threads, &tracer),
        "spec-cache" => spec_cache::run(args.seed, args.seconds, threads, &tracer),
        "serve-mix" => match serve_mix::run(args.seed, args.seconds, threads, &tracer) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("perfbench: serve-mix: {e}");
                return ExitCode::from(1);
            }
        },
        other => {
            eprintln!("perfbench: unknown workload {other} (soc-dram, spec-cache, serve-mix)");
            return ExitCode::from(2);
        }
    };

    if args.trace {
        // The whole traced run, from the tracer's start to the end of the
        // checks, against every root span the run recorded.
        outcome.spans.extend(tracer.take());
        let run_ns = tracer.elapsed_ns();
        let m = &mut outcome.metrics;
        m.set("bench.run_s", run_ns as f64 * 1e-9);
        m.set(
            "bench.uncovered_s",
            (run_ns - spans::root_coverage_ns(&outcome.spans, run_ns)) as f64 * 1e-9,
        );
    }

    println!(
        "{}",
        Json::obj()
            .with("environment", environment.clone())
            .render()
    );
    println!(
        "end-to-end ({}):\n{}",
        args.workload,
        outcome.metrics.table(&END_TO_END)
    );
    if args.trace {
        println!(
            "per-layer ({}):\n{}",
            args.workload,
            outcome.metrics.table(&PER_LAYER)
        );
        let path =
            PathBuf::from(OUT_DIR).join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        match spans::write_spans(&path, &environment, &outcome.spans) {
            Ok(()) => println!(
                "spans: {} written to {}",
                outcome.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    for (kind, attempted, failed) in &outcome.kinds {
        let share = ratio(*attempted as f64, outcome.attempted as f64) * 100.0;
        println!("ops {kind}: attempted {attempted} ({share:.1}% of all), failed {failed}");
    }
    if let Some((at_threads, at_one)) = outcome.digest {
        println!(
            "digest {}: {at_threads:#018x} at {threads} threads, {at_one:#018x} at 1 thread",
            args.workload
        );
    }
    for problem in &outcome.problems {
        println!("problem: {problem}");
    }
    let spec: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let result = Json::obj()
        .with("correct", Json::Bool(outcome.correct()))
        .with("attempted", Json::Int(outcome.attempted.max(1)))
        .with("failed", Json::Int(outcome.failed))
        .with("metrics", outcome.metrics.select(spec));
    println!("{}", result.render());
    ExitCode::SUCCESS
}
