//! `serve-mix`: the served path over loopback. An in-process `Server`
//! with a profile store and one worker per core; one closed-loop client
//! connection per core, each waiting on every reply, runs a seeded mix of
//! fit-uploads of fresh traces (decode, fit, WAL append + fsync),
//! `Synthesize` by fingerprint (cache hit, streamed chunk with ack),
//! `CoupledSynthesize` (DRAM-paced stream) and reconnect + handshake.
//! Every stream is byte-compared with offline synthesis; every fit is
//! re-fitted offline after the window and compared byte for byte.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mocktails_core::{HierarchyConfig, InjectionFeedback, LayerSpec, Profile};
use mocktails_dram::{DramConfig, MemorySystem};
use mocktails_pool::Parallelism;
use mocktails_serve::{
    Client, CoupledStream, MonotonicClock, ProfileSource, ServeError, ServeMetrics, Server,
    ServerConfig, SynthStream,
};
use mocktails_store::ProfileStore;
use mocktails_trace::codec::{write_trace, write_u64, CODEC_VERSION, TRACE_MAGIC};
use mocktails_trace::rng::{Prng, Rng};
use mocktails_trace::{fingerprint, fnv1a, transform, DecodeOptions, Trace};

use crate::inputs::SERVE_FAMILIES;
use crate::measure::{peak_rss_mb, ratio, secs_since, Metrics, Samples};
use crate::offline::{self, Counters};
use crate::soc_dram::{fidelity, fit_traced, set_fidelity};
use crate::spans::{Ctx, Summary, Tracer};
use crate::{digest, inputs, mean, setup_repeated, Outcome, OUT_DIR};

/// Base traces profiled at set-up (and shifted into fresh uploads), at
/// twice their generators' default lengths: about 17 000 to 76 000
/// requests. Every operation crosses between the client, the reactor and
/// a worker a few times, and on a loaded virtual machine each crossing
/// can wait on the hypervisor. Long operations keep that wait a small
/// share of their latency: with traces cut to 3000 requests most of an
/// operation's latency was the reactor's 1 ms park tick, and at the
/// default lengths with three-chunk streams run-to-run spreads were
/// still about twice as wide.
const POOL: usize = 16;
/// Temporal window of every fit (the server's 2L-TS shape).
const CYCLES: u64 = 500_000;
/// Synthesis seeds per profile the streams draw from.
const SEEDS: usize = 2;
/// Requests per streamed chunk: more than any base trace holds, so a
/// stream is one chunk and one ack, the fewest crossings the protocol
/// allows.
const CHUNK: u32 = 1 << 17;
/// Address shift between successive fresh variants of a base trace.
const SHIFT: i64 = 1 << 24;
/// Equal rounds the window is cut into; the throughput figures are the
/// median over rounds, as the pipelines' are the median over passes.
const ROUNDS: usize = 10;

// No measured traffic for the server exists to take the mix from: the
// loopback soak test and the `serve_scale` bench each drive one operation
// kind. So the mix below is an assumption, and each kind's share of the
// measured operations is printed with every run.

/// Fresh fit-uploads each client sends per second (an assumption; about
/// one operation in ten). Writes are paced, not closed-loop: every
/// fitted profile stays in the store's memory, so a fixed write count
/// keeps peak memory independent of server speed. At this rate a 25 s
/// window holds 100 fits per client.
const FITS_PER_SEC: f64 = 4.0;

/// The closed-loop reads, drawn with equal probability: the neutral
/// split, for want of a measured one.
const READS: [Kind; 3] = [Kind::Connect, Kind::Stream, Kind::Couple];

/// An operation kind; its discriminant indexes the per-kind arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Connect,
    Stream,
    Couple,
    Fit,
}

impl Kind {
    const ALL: [Kind; 4] = [Kind::Connect, Kind::Stream, Kind::Couple, Kind::Fit];

    fn name(self) -> &'static str {
        match self {
            Kind::Connect => "connect",
            Kind::Stream => "stream",
            Kind::Couple => "couple",
            Kind::Fit => "fit",
        }
    }
}

/// The hierarchy the server fits with (`TemporalCycleCount` then
/// `SpatialDynamic`), so offline fits compare byte for byte.
fn fit_config() -> HierarchyConfig {
    HierarchyConfig::builder()
        .layer(LayerSpec::TemporalCycleCount(CYCLES))
        .layer(LayerSpec::SpatialDynamic)
        .build()
        .expect("the 2L-TS shape is a valid hierarchy")
}

fn encode(trace: &Trace) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_trace(&mut bytes, trace).expect("encoding to memory cannot fail");
    bytes
}

/// The Option B run the server performs per coupled stream: every DRAM
/// stall is fed back into the synthesizer before the next draw.
fn offline_coupled(profile: &Profile, seed: u64) -> Trace {
    let mut synth = profile.synthesizer(seed);
    let mut mem = MemorySystem::new(DramConfig::default());
    let mut paced = Vec::new();
    while let Some(request) = synth.next_request() {
        let stall = mem.inject(&request);
        if stall > 0 {
            synth.add_delay(stall);
        }
        paced.push(request);
    }
    Trace::from_sorted_requests(paced)
}

/// Fits every base trace (the priming fits), one fan-out task each.
fn fit_pool(
    base: &[Trace],
    par: Parallelism,
    ctx: Ctx<'_>,
    counters: &Counters,
) -> Vec<Arc<Profile>> {
    let config = fit_config();
    par.map(base, |trace| {
        Arc::new(fit_traced(trace, &config, ctx.new_op(), counters))
    })
}

/// Inputs and their offline references.
#[derive(Debug)]
struct Inputs {
    base: Vec<Trace>,
    seeds: [u64; SEEDS],
    profiles: Vec<Arc<Profile>>,
    fingerprints: Vec<u64>,
    /// `[base][seed]` offline synthesized trace.
    synth: Vec<Vec<Trace>>,
    /// `[base][seed]` encoding of `synth`.
    synth_bytes: Vec<Vec<Vec<u8>>>,
    /// `[base][seed]` encoding of the offline coupled run.
    coupled_bytes: Vec<Vec<Vec<u8>>>,
}

impl Inputs {
    /// Synthesizes and runs coupled every profile of the base traces, one
    /// fan-out task per profile.
    fn build(
        base: Vec<Trace>,
        profiles: Vec<Arc<Profile>>,
        seeds: [u64; SEEDS],
        par: Parallelism,
        ctx: Ctx<'_>,
        counters: &Counters,
    ) -> Self {
        let per_base = par.map(&profiles, |profile| {
            let ctx = ctx.new_op();
            let synth: Vec<Trace> = seeds
                .iter()
                .map(|&s| ctx.span("core.synth", |_| profile.synthesize(s)))
                .collect();
            let coupled: Vec<Vec<u8>> = seeds
                .iter()
                .map(|&s| encode(&ctx.span("dram.replay", |_| offline_coupled(profile, s))))
                .collect();
            for t in &synth {
                Counters::add(&counters.synth_records, t.len() as u64);
                Counters::add(&counters.dram_requests, t.len() as u64);
            }
            (synth, coupled)
        });
        let mut inputs = Inputs {
            base,
            seeds,
            fingerprints: profiles.iter().map(|p| p.content_fingerprint()).collect(),
            profiles,
            synth: Vec::new(),
            synth_bytes: Vec::new(),
            coupled_bytes: Vec::new(),
        };
        for (synth, coupled) in per_base {
            inputs.synth_bytes.push(synth.iter().map(encode).collect());
            inputs.synth.push(synth);
            inputs.coupled_bytes.push(coupled);
        }
        inputs
    }

    /// Fresh upload `v`: base trace `v % POOL` shifted to a new address
    /// range, so every upload fits a profile the server has not seen.
    fn variant(&self, v: u64) -> Trace {
        let b = (v % POOL as u64) as usize;
        transform::rebase_address(&self.base[b], (v / POOL as u64 + 1) as i64 * SHIFT)
    }

    /// Digest over every deterministic reference output.
    fn digest(&self) -> u64 {
        let fps: Vec<u64> = self
            .synth
            .iter()
            .flatten()
            .map(fingerprint)
            .chain(self.coupled_bytes.iter().flatten().map(|b| fnv1a(b)))
            .collect();
        digest(&self.fingerprints, &fps)
    }
}

/// A server running on its own thread; dropping it shuts it down, joins
/// the thread and removes the store directory.
struct Running {
    addr: String,
    metrics: Arc<ServeMetrics>,
    thread: Option<JoinHandle<Result<(), ServeError>>>,
    dir: PathBuf,
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Ok(mut client) = Client::connect(&self.addr) {
            let _ = client.shutdown();
        }
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What a set-up leaves behind: the pool, its profiles and the server.
struct Primed {
    base: Vec<Trace>,
    profiles: Vec<Arc<Profile>>,
    server: Running,
}

/// Set-up: generate the pool, fit it (the priming fits), prime a fresh
/// store with the profiles, bind the server on it (the server recovers
/// the store and warms its cache from it).
fn setup(seed: u64, threads: usize, tracer: &Tracer, rep: usize) -> Result<Primed, String> {
    let root = tracer.root();
    let base = root.span("workloads.generate", |_| inputs::serve_pool(seed, POOL));
    let profiles = fit_pool(&base, Parallelism::new(threads), root, &Counters::default());

    let dir = PathBuf::from(OUT_DIR).join(format!("store-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = root
        .span("store.open", |_| ProfileStore::open(&dir))
        .map_err(|e| format!("store open: {e}"))?;
    for profile in &profiles {
        root.span("store.put", |_| store.put_profile(profile, None))
            .map_err(|e| format!("store put: {e}"))?;
    }
    drop(store);

    let config = ServerConfig::builder()
        .workers(threads)
        .queue_cap(64)
        .cache_capacity(1 << 14)
        .store_dir(&dir)
        .build()
        .map_err(|e| format!("server config: {e}"))?;
    let server = root
        .span("serve.bind", |_| {
            Server::bind("127.0.0.1:0", config, Arc::new(MonotonicClock::new()))
        })
        .map_err(|e| format!("bind: {e}"))?;
    let running = Running {
        addr: server.local_addr().to_string(),
        metrics: server.metrics(),
        dir,
        thread: Some(std::thread::spawn(move || server.run())),
    };
    Ok(Primed {
        base,
        profiles,
        server: running,
    })
}

/// What one client connection did during a window.
#[derive(Debug, Default)]
struct Log {
    /// `[kind][family]` latencies, family of the trace streamed or
    /// uploaded (a connect's is drawn like a stream's and means nothing).
    latency_ms: [[Samples; SERVE_FAMILIES]; 4],
    attempted: [u64; 4],
    failed: [u64; 4],
    /// (variant, fingerprint, digest of the returned profile bytes).
    fits: Vec<(u64, u64, u64)>,
    /// Seconds into the window at which each operation completed, and
    /// the trace requests it uploaded or streamed (every one byte-checked).
    done: Vec<(f64, u64)>,
    errors: Vec<String>,
}

/// A chunked stream whose acks the client sends.
trait Chunks {
    fn next_records(&mut self) -> Result<Option<Vec<u8>>, ServeError>;
    fn send_ack(&mut self) -> Result<(), ServeError>;
    fn totals(&self) -> Result<(u64, u64), ServeError>;
}

impl Chunks for SynthStream<'_> {
    fn next_records(&mut self) -> Result<Option<Vec<u8>>, ServeError> {
        self.next_chunk()
    }
    fn send_ack(&mut self) -> Result<(), ServeError> {
        self.ack()
    }
    fn totals(&self) -> Result<(u64, u64), ServeError> {
        self.end()
    }
}

impl Chunks for CoupledStream<'_> {
    fn next_records(&mut self) -> Result<Option<Vec<u8>>, ServeError> {
        Ok(self.next_chunk()?.map(|chunk| chunk.records))
    }
    fn send_ack(&mut self) -> Result<(), ServeError> {
        self.ack()
    }
    fn totals(&self) -> Result<(u64, u64), ServeError> {
        self.end()
    }
}

/// Drains a stream, acking every chunk; returns the whole-trace encoding
/// (header + records) and the request count.
fn drain<S: Chunks>(
    ctx: Ctx<'_>,
    begin: impl FnOnce() -> Result<S, ServeError>,
) -> Result<(Vec<u8>, u64), ServeError> {
    let (mut stream, mut chunk) = ctx.span("serve.first_chunk", |_| {
        let mut stream = begin()?;
        let first = stream.next_records()?;
        Ok::<_, ServeError>((stream, first))
    })?;
    let mut records = Vec::new();
    while let Some(bytes) = chunk {
        records.extend_from_slice(&bytes);
        stream.send_ack()?;
        chunk = ctx.span("serve.ack_gap", |_| stream.next_records())?;
    }
    let (total, _) = stream.totals()?;
    let mut trace_bytes = Vec::with_capacity(records.len() + 16);
    trace_bytes.extend_from_slice(&TRACE_MAGIC);
    trace_bytes.push(CODEC_VERSION);
    write_u64(&mut trace_bytes, total).expect("writing to memory cannot fail");
    trace_bytes.extend_from_slice(&records);
    Ok((trace_bytes, total))
}

/// One closed-loop client: runs seeded operations from `start` until
/// `until`.
fn client_loop(
    inputs: &Inputs,
    addr: &str,
    start: Instant,
    until: Instant,
    rng_seed: u64,
    tracer: &Tracer,
    variants: &AtomicU64,
) -> Log {
    let mut log = Log::default();
    let mut rng = Prng::seed_from_u64(rng_seed);
    let mut client = Client::connect(addr).ok();
    let fit_every = Duration::from_secs_f64(1.0 / FITS_PER_SEC);
    let mut next_fit = Instant::now() + fit_every.mul_f64(rng.gen_f64());
    loop {
        let now = Instant::now();
        if now >= until {
            break;
        }
        let read = READS[rng.gen_range(0..READS.len() as u64) as usize];
        let kind = if now >= next_fit {
            next_fit += fit_every;
            Kind::Fit
        } else {
            read
        };
        let b = rng.gen_range(0..POOL as u64) as usize;
        let s = rng.gen_range(0..SEEDS as u64) as usize;
        let ctx = tracer.root();
        // Fresh uploads are built before the clock starts.
        let upload = (kind == Kind::Fit).then(|| {
            let v = variants.fetch_add(1, Ordering::Relaxed);
            let trace = inputs.variant(v);
            (v, trace.len() as u64, encode(&trace))
        });
        let family = upload.as_ref().map_or(b, |u| (u.0 % POOL as u64) as usize) % SERVE_FAMILIES;
        let began = Instant::now();
        let result: Result<u64, String> = match (kind, client.as_mut(), upload) {
            (Kind::Connect, _, _) => match ctx.span("serve.connect", |_| Client::connect(addr)) {
                Ok(fresh) => {
                    client = Some(fresh);
                    Ok(0)
                }
                Err(e) => Err(e.to_string()),
            },
            (_, None, _) => Err("no connection".into()),
            (Kind::Fit, Some(c), Some((v, n, bytes))) => ctx
                .span("serve.fit", |_| c.fit(CYCLES, bytes))
                .map(|outcome| {
                    log.fits
                        .push((v, outcome.fingerprint, fnv1a(&outcome.profile_bytes)));
                    n
                })
                .map_err(|e| e.to_string()),
            (Kind::Fit, Some(_), None) => Err("fit without an upload".into()),
            (Kind::Stream, Some(c), _) => {
                let (seed, fp) = (inputs.seeds[s], inputs.fingerprints[b]);
                ctx.span("serve.stream", |ctx| {
                    drain(ctx, || {
                        c.begin_synthesize(seed, CHUNK, ProfileSource::Fingerprint(fp))
                    })
                })
                .map_err(|e| e.to_string())
                .and_then(|(bytes, n)| match bytes == inputs.synth_bytes[b][s] {
                    true => Ok(n),
                    false => Err("stream differs from offline synthesis".into()),
                })
            }
            (Kind::Couple, Some(c), _) => {
                let (seed, fp) = (inputs.seeds[s], inputs.fingerprints[b]);
                ctx.span("serve.couple", |ctx| {
                    drain(ctx, || {
                        c.begin_couple(seed, CHUNK, ProfileSource::Fingerprint(fp))
                    })
                })
                .map_err(|e| e.to_string())
                .and_then(|(bytes, n)| {
                    match bytes == inputs.coupled_bytes[b][s] {
                        true => Ok(n),
                        false => Err("coupled stream differs from the offline coupled run".into()),
                    }
                })
            }
        };
        let ms = secs_since(began) * 1e3;
        let k = kind as usize;
        log.attempted[k] += 1;
        match result {
            Ok(records) => {
                log.latency_ms[k][family].push(ms);
                log.done.push((secs_since(start), records));
            }
            Err(e) => {
                log.failed[k] += 1;
                if log.errors.len() < 4 {
                    log.errors.push(format!("{}: {e}", kind.name()));
                }
                // The connection may be mid-exchange: start over.
                client = Client::connect(addr).ok();
            }
        }
    }
    log
}

/// Runs `clients` closed-loop clients for `seconds`.
fn drive(
    inputs: &Inputs,
    addr: &str,
    clients: usize,
    seconds: f64,
    seed: u64,
    tracer: &Tracer,
    variants: &AtomicU64,
) -> (Vec<Log>, f64) {
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let rng_seed = inputs::derive(seed, 900 + c as u64);
                scope.spawn(move || {
                    client_loop(inputs, addr, start, until, rng_seed, tracer, variants)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    (logs, secs_since(start))
}

/// Counters of the server's metric registry that the benchmark reads.
#[derive(Debug, Clone, Copy, Default)]
struct Snapshot {
    requests: u64,
    wakeups: u64,
    hits: u64,
    misses: u64,
    busy: u64,
    queue_wait: (u64, u64),
    fit: (u64, u64),
    synth: (u64, u64),
}

impl Snapshot {
    fn of(m: &ServeMetrics) -> Self {
        let get = |c: &AtomicU64| c.load(Ordering::SeqCst);
        Self {
            requests: get(&m.requests_total),
            wakeups: get(&m.reactor_wakeups_total),
            hits: get(&m.cache_hits_total),
            misses: get(&m.cache_misses_total),
            busy: get(&m.busy_rejections_total),
            queue_wait: (
                m.queue_wait_micros.sum_micros(),
                m.queue_wait_micros.count(),
            ),
            fit: (
                m.fit_latency_micros.sum_micros(),
                m.fit_latency_micros.count(),
            ),
            synth: (
                m.synth_latency_micros.sum_micros(),
                m.synth_latency_micros.count(),
            ),
        }
    }
}

/// Mean milliseconds of a histogram between two snapshots.
fn delta_mean_ms(after: (u64, u64), before: (u64, u64)) -> f64 {
    ratio((after.0 - before.0) as f64, (after.1 - before.1) as f64) / 1e3
}

/// Records a window's client-side metrics; returns the operations
/// completed.
///
/// `op_p50_ms` and `op_p90_ms` are means over the four kinds of each
/// kind's percentile, itself the mean over the four trace families of the
/// family's percentile. Latencies cluster by kind (a connect takes about
/// a millisecond, a coupled stream tens) and, within a kind, by family,
/// so a percentile pooled over either would sit on a boundary between
/// clusters and move with the shares the draws happened to give them.
fn record_logs(out: &mut Outcome, logs: &[Log], wall: f64) -> usize {
    let (mut ops, mut p50, mut p90) = (0, 0.0, 0.0);
    let m = &mut out.metrics;
    for kind in Kind::ALL {
        let (k, name) = (kind as usize, kind.name());
        let (mut pooled, mut family_p50, mut family_p90) = (Samples::default(), vec![], vec![]);
        for family in 0..SERVE_FAMILIES {
            let mut samples = Samples::default();
            logs.iter()
                .for_each(|l| samples.extend(&l.latency_ms[k][family]));
            if samples.len() > 0 {
                family_p50.push(samples.median());
                family_p90.push(samples.quantile(0.9));
            }
            pooled.extend(&samples);
        }
        ops += pooled.len();
        p50 += mean(&family_p50) / Kind::ALL.len() as f64;
        p90 += mean(&family_p90) / Kind::ALL.len() as f64;
        m.set(&format!("serve.{name}_p50_ms"), pooled.median());
        m.set(&format!("serve.{name}_p90_ms"), pooled.quantile(0.9));
        m.set(&format!("serve.{name}_samples"), pooled.len() as f64);
    }
    // Operations and trace requests completed per second in each round.
    let round = wall / ROUNDS as f64;
    let mut per_round = [[0.0; 2]; ROUNDS];
    for &(at, records) in logs.iter().flat_map(|l| &l.done) {
        let r = ((at / round) as usize).min(ROUNDS - 1);
        per_round[r][0] += 1.0 / round;
        per_round[r][1] += records as f64 / round / 1e3;
    }
    let [mut ops_per_s, mut kreq_per_s] = [Samples::default(), Samples::default()];
    for [o, k] in per_round {
        ops_per_s.push(o);
        kreq_per_s.push(k);
    }
    m.set("pipeline_kreq_per_s", kreq_per_s.median());
    m.set("ops_per_s", ops_per_s.median());
    m.set("op_p50_ms", p50);
    m.set("op_p90_ms", p90);
    m.set("bench.op_samples", ops as f64);
    for kind in Kind::ALL {
        let k = kind as usize;
        let attempted = logs.iter().map(|l| l.attempted[k]).sum();
        let failed = logs.iter().map(|l| l.failed[k]).sum();
        out.count(kind.name(), attempted, failed);
    }
    out.problems
        .extend(logs.iter().flat_map(|l| l.errors.iter().cloned()).take(4));
    ops
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, threads: usize, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rep = 0;
    let Primed {
        base,
        profiles,
        server,
    } = setup_repeated(&mut out, tracer, || {
        rep += 1;
        setup(seed, threads, tracer, rep)
    })?;
    // The offline references the streams are compared with, built after
    // the timed set-up.
    let inputs = tracer.root().span("bench.references", |ctx| {
        let seeds = [inputs::derive(seed, 11), inputs::derive(seed, 12)];
        let par = Parallelism::new(threads);
        Inputs::build(base, profiles, seeds, par, ctx, &Counters::default())
    });
    let variants = AtomicU64::new(0);
    let untraced = Tracer::new(false);
    let half = if tracer.enabled() {
        seconds / 2.0
    } else {
        seconds
    };
    let (logs, wall) = tracer.root().span("bench.untraced_window", |_| {
        drive(
            &inputs,
            &server.addr,
            threads,
            half,
            seed,
            &untraced,
            &variants,
        )
    });
    let untraced_rate = record_logs(&mut out, &logs, wall) as f64 / wall;
    out.metrics.set("peak_rss_mb", peak_rss_mb());
    out.spans.extend(tracer.take());
    let mut fits: Vec<(u64, u64, u64)> = logs.into_iter().flat_map(|l| l.fits).collect();

    if tracer.enabled() {
        let before = Snapshot::of(&server.metrics);
        let (logs, wall) = drive(
            &inputs,
            &server.addr,
            threads,
            half,
            seed ^ 1,
            tracer,
            &variants,
        );
        let after = Snapshot::of(&server.metrics);
        // Client-side latencies of the traced half are not end-to-end
        // figures: keep the untraced half's.
        let mut traced = Outcome::default();
        let traced_ops = record_logs(&mut traced, &logs, wall) as f64;
        for (kind, attempted, failed) in &traced.kinds {
            out.count(kind, *attempted, *failed);
        }
        out.problems.extend(traced.problems);
        fits.extend(logs.into_iter().flat_map(|l| l.fits));
        let spans = tracer.take();
        let summary = Summary::of(&spans);
        server_metrics(&mut out.metrics, &summary, &after, &before, traced_ops);
        out.metrics.set(
            "bench.trace_overhead_ratio",
            untraced_rate / (traced_ops / wall),
        );
        offline::self_time_metrics(&mut out.metrics, &summary, 1.0);
        out.spans.extend(spans);
    }

    // Untimed checks, traced when tracing: every fit is re-fitted offline
    // and compared; the references, built with a fan-out over `threads`,
    // are rebuilt on one thread and their digests compared.
    let counters = Counters::default();
    let decoded_bytes = tracer.root().span("bench.check", |ctx| {
        let decoded = verify_fits(&mut out, &inputs, &fits, threads, ctx, &counters);
        let one = Parallelism::sequential();
        let profiles = fit_pool(&inputs.base, one, ctx, &counters);
        let rebuilt = Inputs::build(
            inputs.base.clone(),
            profiles,
            inputs.seeds,
            one,
            ctx,
            &counters,
        );
        out.digests(inputs.digest(), rebuilt.digest());
        decoded
    });
    if tracer.enabled() {
        let spans = tracer.take();
        let summary = Summary::of(&spans);
        offline::stage_metrics(&mut out.metrics, &summary, None, &counters);
        let secs = summary.secs("trace.decode");
        out.metrics.set(
            "trace.decode_mb_per_s",
            ratio(decoded_bytes as f64 / 1e6, secs),
        );
        out.spans.extend(spans);
    }

    // Fidelity of the profiles the server streams from: each base trace
    // against several syntheses of its profile.
    tracer.root().span("bench.check", |_| {
        let pairs: Vec<(&Trace, &Arc<Profile>)> =
            inputs.base.iter().zip(&inputs.profiles).collect();
        let fidelity = Parallelism::new(threads)
            .map(&pairs, |&(base, profile)| {
                fidelity(base, profile, inputs.seeds[0])
            })
            .concat();
        set_fidelity(&mut out.metrics, &fidelity);
    });
    tracer.root().span("serve.shutdown", |_| drop(server));
    Ok(out)
}

/// Per-layer serve metrics of the traced half: client-observed stream
/// phases from spans, server-side means and ratios from the metric
/// registry's deltas.
fn server_metrics(
    m: &mut Metrics,
    summary: &Summary,
    after: &Snapshot,
    before: &Snapshot,
    ops: f64,
) {
    let mean_ms = |name: &str| ratio(summary.secs(name) * 1e3, summary.count(name) as f64);
    m.set("serve.first_chunk_ms", mean_ms("serve.first_chunk"));
    m.set("serve.ack_gap_ms", mean_ms("serve.ack_gap"));
    m.set(
        "serve.queue_wait_ms",
        delta_mean_ms(after.queue_wait, before.queue_wait),
    );
    m.set("serve.fit_compute_ms", delta_mean_ms(after.fit, before.fit));
    m.set(
        "serve.synth_compute_ms",
        delta_mean_ms(after.synth, before.synth),
    );
    let wakeups = after.wakeups - before.wakeups;
    m.set("serve.wakeups", wakeups as f64);
    m.set("serve.wakeups_per_op", ratio(wakeups as f64, ops));
    let hits = after.hits - before.hits;
    let lookups = hits + after.misses - before.misses;
    m.set("serve.cache_hits", hits as f64);
    m.set("serve.cache_lookups", lookups as f64);
    m.set("serve.cache_hit_ratio", ratio(hits as f64, lookups as f64));
    let (busy, requests) = (after.busy - before.busy, after.requests - before.requests);
    m.set("serve.busy_rejections", busy as f64);
    m.set("serve.requests", requests as f64);
    m.set("serve.busy_ratio", ratio(busy as f64, requests as f64));
}

/// Re-fits every uploaded variant offline — decode the uploaded bytes,
/// partition, fit, encode — and compares fingerprint and profile bytes
/// with what the server returned; a mismatch is a failed fit. Returns the
/// bytes decoded.
fn verify_fits(
    out: &mut Outcome,
    inputs: &Inputs,
    fits: &[(u64, u64, u64)],
    threads: usize,
    ctx: Ctx<'_>,
    counters: &Counters,
) -> usize {
    let config = fit_config();
    let checks = Parallelism::new(threads).map(fits, |&(v, fp, profile_digest)| {
        let ctx = ctx.new_op();
        let bytes = encode(&inputs.variant(v));
        let decoded = ctx.span("trace.decode", |_| {
            Trace::read(&mut bytes.as_slice(), &DecodeOptions::default())
        });
        let Ok(trace) = decoded else {
            return (bytes.len(), false);
        };
        let profile = fit_traced(&trace, &config, ctx, counters);
        let mut encoded = Vec::new();
        let same = profile.write(&mut encoded).is_ok()
            && profile.content_fingerprint() == fp
            && fnv1a(&encoded) == profile_digest;
        (bytes.len(), same)
    });
    let bad = checks.iter().filter(|c| !c.1).count() as u64;
    out.count("fit", 0, bad);
    if bad > 0 {
        out.problems
            .push(format!("{bad} fits differ from the offline fit"));
    }
    checks.iter().map(|c| c.0).sum()
}
