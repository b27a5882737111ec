//! The four workloads, each run as one phase: set up (timed, several
//! times), warm up, measure for a fixed time, then check every answer
//! and every charge.
//!
//! Inputs are absolute — rates, sizes and outstanding counts are
//! constants below and the seed is an argument — so two commits always
//! serve identical inputs. Load comes from this process's own thread
//! (producer or caller) plus, where the rt is on the path, the one
//! worker of `Runtime::new(1)`: two threads, matching a two-core host.

use crate::harness::{
    cpu_jiffies, digest, fixed_schedule, host_ref_ms, now_ns, spin_until, steal_frac,
    zipf_sequence, Samples, SplitMix, DIGEST_INIT,
};
use crate::trace::{self, Layer, Span, TracedInline, TracedStorage, COUNTERS};
use sampcert_core::{
    count_query, AbstractDp, AdmissionPolicy, DurableOptions, DurableRegistry, Executor,
    FileStorage, Inline, JournalError, JournalStorage, Ledger, MemStorage, Private, PureDp,
    RegistryView, Request, Session, SpawnExecutor, Zcdp,
};
use sampcert_mechanisms::{histogram_request, Bins};
use sampcert_rt::{block_on, Ingress, Runtime};
use sampcert_slang::{SplitSeed, Value};
use std::future::Future;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Arrival rate of `count_open`, requests per second.
const COUNT_RATE: f64 = 50_000.0;
/// Arrival rate of `durable_zipf`, requests per second.
const DURABLE_RATE: f64 = 4_000.0;
/// Ingress capacity and admission depth bound on every rt-served
/// workload. Large enough that no request is shed: 2.6 s of `count_open`
/// arrivals, while a shared host can stall the consumer for more than
/// 20 ms (1024 arrivals at 50k/s), so a smaller queue would make the
/// failure count follow the host.
const QUEUE_CAP: usize = 1 << 17;
/// Requests kept outstanding by `count_saturate`.
const OUTSTANDING: u64 = 64;
/// Rows in the count table.
const COUNT_ROWS: usize = 256;
/// Rows in the histogram table.
const HIST_ROWS: usize = 10_000;
/// Histogram bins (σ = 256 per bin at total ρ = 1).
const HIST_BINS: usize = 256;
/// Principals `durable_zipf` draws from, zipf(s = 1).
const PRINCIPALS: u64 = 10_000;
/// Charges pre-written to the `durable_zipf` journal.
const PREFILL: usize = 100_000;
/// Warm-up before each measured phase, seconds.
const WARMUP_S: f64 = 0.5;
/// Ledger budgets far above any run's spend: nothing is refused for
/// budget, so every failure is a shed or an error.
const LEDGER_BUDGET: f64 = 1e15;
const PRINCIPAL_BUDGET: f64 = 1e12;
/// Latency buffer capacity per measured second on the closed loops, over
/// twice their serving rates (~420k/s and ~400/s on a 2-vCPU Xeon VM).
/// Samples beyond it are counted in the diagnostics, not stored.
const CLOSED_SAMPLES_PER_S: f64 = 1e6;
const HIST_SAMPLES_PER_S: f64 = 1e4;
/// Set-ups timed back to back in each block. The in-memory workloads
/// time three blocks: before serving, after serving and after the checks.
/// On a shared VM the same set-up runs at one of two speeds for
/// stretches of milliseconds to seconds (~14 or ~20 µs for the count's),
/// and three moments seconds apart rarely all fall in a slow one (see
/// `setup_s` in `report.rs`). `durable_zipf` times one
/// block of journal recoveries (~60 ms each) before serving; after the
/// run its journal no longer holds the same 10⁵ charges.
const SETUPS: usize = 101;
const DURABLE_SETUPS: usize = 21;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open loop, 50k/s unit-ε Laplace counts through rt to a ledger.
    CountOpen,
    /// Closed loop, 64 outstanding, same request and path.
    CountSaturate,
    /// Open loop, 4k/s counts to zipf principals on a durable registry.
    DurableZipf,
    /// Closed loop, one caller, 256-bin Gaussian histograms, no rt.
    HistogramBulk,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::CountOpen,
        Workload::CountSaturate,
        Workload::DurableZipf,
        Workload::HistogramBulk,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CountOpen => "count_open",
            Workload::CountSaturate => "count_saturate",
            Workload::DurableZipf => "durable_zipf",
            Workload::HistogramBulk => "histogram_bulk",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether arrivals follow a schedule (open loop).
    pub fn open_loop(self) -> bool {
        matches!(self, Workload::CountOpen | Workload::DurableZipf)
    }

    /// One traced request in this many: enough spans for stable
    /// percentiles without a buffer the size of the run.
    fn sample_every(self) -> u32 {
        match self {
            Workload::CountOpen => 4,
            Workload::CountSaturate => 64,
            Workload::DurableZipf | Workload::HistogramBulk => 1,
        }
    }
}

/// One correctness check and its outcome.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The compared values.
    pub detail: String,
}

fn check(name: &'static str, ok: bool, detail: String) -> Check {
    Check { name, ok, detail }
}

/// Everything one phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Each set-up's time, s, in the order timed.
    pub setup_s: Vec<f64>,
    /// Latencies of answered measured requests, ns, ascending.
    pub lat: Vec<u32>,
    /// Latency samples that did not fit the preallocated buffer.
    pub lat_dropped: u64,
    /// Generator lateness of measured arrivals, ns, ascending (open
    /// loops only).
    pub late: Vec<u32>,
    /// Measured requests attempted, answered and failed.
    pub attempted: u64,
    /// See [`attempted`](Self::attempted).
    pub answered: u64,
    /// See [`attempted`](Self::attempted).
    pub failed: u64,
    /// Failures during warm-up (not in `failed`).
    pub warm_failed: u64,
    /// First error message, if any request failed.
    pub first_error: Option<String>,
    /// Answers completed per second of the measured phase.
    pub served_ops: f64,
    /// Host steal share over the measured phase.
    pub steal: Option<f64>,
    /// The reference loop's time just before the phase, ms.
    pub host_ref_ms: f64,
    /// Correctness checks; all must hold.
    pub checks: Vec<Check>,
    /// Answers served in the whole phase (warm-up included).
    pub answers_total: u64,
    /// Spans of sampled requests (traced phases only).
    pub spans: Vec<Span>,
    /// `Ingress::len` before each sampled push, ascending (traced rt
    /// phases only).
    pub depths: Vec<u32>,
    /// Entropy bytes drawn (traced phases only).
    pub draw_bytes: u64,
    /// Journal syncs and appended bytes (traced phases only).
    pub syncs: u64,
    /// See [`syncs`](Self::syncs).
    pub append_bytes: u64,
    /// Time reading the journal during the last set-up, ms.
    pub read_ms: f64,
    /// The rest of the journal open during the last set-up, ms.
    pub replay_ms: f64,
    /// Spans lost to full buffers.
    pub spans_dropped: u64,
}

/// A queued request: the harness's own record of it. All requests of a
/// workload are the same `Request`, so the job carries only what
/// differs.
#[derive(Debug, Clone, Copy)]
struct Job {
    seq: u32,
    /// Due time (open loop) or submit time (closed loop), ns.
    due: u64,
    /// When `try_push` was called, ns.
    push: u64,
    principal: u32,
    measured: bool,
    sampled: bool,
}

/// A session behind the rt: how one popped job is answered.
trait Server: Send + 'static {
    fn serve<'a>(
        &'a mut self,
        principal: u32,
        db: &'a [u32],
    ) -> impl Future<Output = Result<i64, String>> + Send + 'a;
}

/// A ledger session serving the one count request.
struct LedgerServer<E> {
    session: Session<PureDp, f64, Ledger<PureDp, f64>, E>,
    req: Request<PureDp, u32, i64>,
}

impl<E: Executor + Send + 'static> Server for LedgerServer<E> {
    fn serve<'a>(
        &'a mut self,
        _principal: u32,
        db: &'a [u32],
    ) -> impl Future<Output = Result<i64, String>> + Send + 'a {
        let answer = self.session.answer_async(&self.req, db);
        async move { answer.await.map_err(|e| e.to_string()) }
    }
}

/// A durable per-principal session serving the one count request.
struct DurableServer<S: JournalStorage, E> {
    session: Session<PureDp, f64, DurableRegistry<PureDp, f64, S>, E>,
    req: Request<PureDp, u32, i64>,
}

impl<S: JournalStorage, E: Executor + Send + 'static> Server for DurableServer<S, E> {
    fn serve<'a>(
        &'a mut self,
        principal: u32,
        db: &'a [u32],
    ) -> impl Future<Output = Result<i64, String>> + Send + 'a {
        let answer = self
            .session
            .answer_for_async(u64::from(principal), &self.req, db);
        async move { answer.await.map_err(|e| e.to_string()) }
    }
}

/// A session behind its ingress queue, ready for load. The rt worker is
/// spawned by [`drive`], outside the timed set-up: `Runtime::new(1)` is
/// one OS thread spawn, ~90% of the count's set-up, and on a shared
/// 2-vCPU VM a bare `std::thread::spawn` took ~14 µs for stretches and
/// ~20 µs for tens of minutes at a time, so a set-up time that held it
/// followed the host.
struct Stack<S> {
    queue: Ingress<Job>,
    server: S,
    db: Vec<u32>,
}

fn count_request() -> Request<PureDp, u32, i64> {
    let q: Private<PureDp, u32, i64> = Private::noised_query(&count_query(), 1, 1);
    Request::from_private(&q, "count")
}

fn table(seed: u64, rows: usize) -> Vec<u32> {
    let mut rng = SplitMix::new(seed, 3);
    (0..rows).map(|_| rng.next_u64() as u32).collect()
}

fn admission() -> AdmissionPolicy {
    AdmissionPolicy::open().max_queue_depth(QUEUE_CAP)
}

/// Times `setup` `reps` times back to back; keeps the last result and
/// returns every time.
fn timed_setups<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t0 = Instant::now();
        let built = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    Ok((last.expect("at least one set-up"), times))
}

fn ledger_stack<E: SpawnExecutor + Send + 'static>(seed: u64) -> Stack<LedgerServer<E>> {
    let queue = Ingress::bounded(QUEUE_CAP);
    let session = Session::<PureDp>::builder()
        .ledger(LEDGER_BUDGET)
        .seeded(seed)
        .admission(admission())
        .ingress(queue.gauge())
        .executor::<E>(1)
        .build();
    Stack {
        queue,
        server: LedgerServer {
            session,
            req: count_request(),
        },
        db: table(seed, COUNT_ROWS),
    }
}

/// Whether request `seq` is traced, given one traced request in `sample`.
fn is_sampled(seq: u32, sample: Option<u32>) -> bool {
    sample.is_some_and(|k| seq.is_multiple_of(k))
}

/// How load is offered to an rt stack.
#[derive(Debug, Clone, Copy)]
enum Load {
    /// Fixed-interval arrivals at this rate per second.
    Open(f64),
    /// This many requests outstanding at all times.
    Closed(u64),
}

/// What the rt consumer hands back when the queue closes.
struct Served<S> {
    server: S,
    lat: Samples,
    answered: u64,
    failed: u64,
    warm_failed: u64,
    first_error: Option<String>,
    answers_total: u64,
    digest: u64,
    last_done: u64,
    per_principal: Vec<u32>,
    spans: Vec<Span>,
}

/// Spawns the rt worker and drives `stack` with `load` for `seconds` after
/// the warm-up, filling in the phase's load fields, and returns the
/// consumer's tally.
fn drive<S: Server>(
    stack: Stack<S>,
    load: Load,
    seconds: f64,
    principals: &[u32],
    sample_every: Option<u32>,
    phase: &mut Phase,
) -> Served<S> {
    let Stack { queue, server, db } = stack;
    let runtime = Runtime::new(1);
    let n_principals = if principals.is_empty() {
        0
    } else {
        PRINCIPALS as usize
    };
    let open = matches!(load, Load::Open(_));
    // Measured samples, and every job including the warm-up's.
    let (cap, jobs) = match load {
        Load::Open(rate) => {
            let (warm, n) = arrivals(rate, seconds);
            (n - warm, n)
        }
        Load::Closed(_) => {
            let cap = (CLOSED_SAMPLES_PER_S * seconds) as usize;
            (cap, cap + (CLOSED_SAMPLES_PER_S * WARMUP_S) as usize)
        }
    };
    let lat = Samples::with_capacity(cap);
    let mut late = Samples::with_capacity(if open { cap } else { 0 });
    // Room for every sampled request, warm-up included: at most 8 spans
    // each on the consumer, 2 on the producer.
    let sampled_cap = sample_every.map_or(0, |k| jobs / k as usize + 1);
    let span_cap = sampled_cap * 8;
    let mut depths = Samples::with_capacity(sampled_cap);
    trace::reserve(sampled_cap * 2);
    let completed = Arc::new(AtomicU64::new(0));

    let consumer = {
        let queue = queue.clone();
        let completed = Arc::clone(&completed);
        runtime.spawn(async move {
            trace::reserve(span_cap);
            let mut s = Served {
                server,
                lat,
                answered: 0,
                failed: 0,
                warm_failed: 0,
                first_error: None,
                answers_total: 0,
                digest: DIGEST_INIT,
                last_done: 0,
                per_principal: vec![0; n_principals],
                spans: Vec::new(),
            };
            while let Some(job) = queue.pop() {
                // Separate stamps for the queue's end and the answer's
                // start, so the harness's own time between layers shows
                // as the request's uncovered residual.
                let (popped, start) = if job.sampled {
                    let popped = now_ns();
                    trace::set_current(Some(job.seq));
                    (popped, now_ns())
                } else {
                    (0, 0)
                };
                let r = s.server.serve(job.principal, &db).await;
                let done = now_ns();
                if job.sampled {
                    trace::set_current(None);
                    trace::record(job.seq, Layer::Queue, job.push, popped);
                    trace::record(job.seq, Layer::Answer, start, done);
                    trace::record(job.seq, Layer::Request, job.due, done);
                }
                match r {
                    Ok(v) => {
                        s.digest = digest(s.digest, &[v]);
                        s.answers_total += 1;
                        if let Some(c) = s.per_principal.get_mut(job.principal as usize) {
                            *c += 1;
                        }
                        if job.measured {
                            s.lat.push(done - job.due);
                            s.answered += 1;
                            s.last_done = done;
                        }
                    }
                    Err(e) => {
                        if job.measured {
                            s.failed += 1;
                        } else {
                            s.warm_failed += 1;
                        }
                        s.first_error.get_or_insert(e);
                    }
                }
                completed.fetch_add(1, Ordering::Release);
            }
            s.spans = trace::take();
            s
        })
    };

    let ref0 = host_ref_ms();
    let mut shed = 0u64;
    let mut warm_shed = 0u64;
    let mut attempted = 0u64;
    let mut push = |job: Job, now: u64, shed: &mut u64, warm_shed: &mut u64| {
        if job.sampled {
            depths.push(queue.len() as u64);
        }
        let r = queue.try_push(job);
        if job.sampled {
            trace::record(job.seq, Layer::Door, now, now_ns());
            if open {
                trace::record(job.seq, Layer::Late, job.due, now);
            }
        }
        if r.is_err() {
            if job.measured {
                *shed += 1;
            } else {
                *warm_shed += 1;
            }
        }
    };
    let (t_meas, jiffies0);
    match load {
        Load::Open(rate) => {
            let (warm, n) = arrivals(rate, seconds);
            let start = now_ns() + 1_000_000;
            let due = fixed_schedule(start, rate, n);
            t_meas = due[warm];
            let mut j0 = None;
            for (i, &d) in due.iter().enumerate() {
                let now = spin_until(d);
                let measured = i >= warm;
                if i == warm {
                    j0 = cpu_jiffies();
                }
                let seq = i as u32;
                let job = Job {
                    seq,
                    due: d,
                    push: now,
                    principal: principals.get(i).copied().unwrap_or(0),
                    measured,
                    sampled: is_sampled(seq, sample_every),
                };
                if measured {
                    late.push(now - d);
                    attempted += 1;
                }
                push(job, now, &mut shed, &mut warm_shed);
            }
            jiffies0 = j0;
        }
        Load::Closed(outstanding) => {
            let start = now_ns();
            t_meas = start + (WARMUP_S * 1e9) as u64;
            let t_end = t_meas + (seconds * 1e9) as u64;
            let mut j0 = None;
            let mut seq = 0u32;
            loop {
                let now = now_ns();
                if now >= t_end {
                    break;
                }
                if u64::from(seq) - completed.load(Ordering::Acquire) >= outstanding {
                    std::hint::spin_loop();
                    continue;
                }
                let measured = now >= t_meas;
                if measured {
                    if j0.is_none() {
                        j0 = cpu_jiffies();
                    }
                    attempted += 1;
                }
                let job = Job {
                    seq,
                    due: now,
                    push: now,
                    principal: 0,
                    measured,
                    sampled: is_sampled(seq, sample_every),
                };
                push(job, now, &mut shed, &mut warm_shed);
                seq += 1;
            }
            jiffies0 = j0;
        }
    }
    let jiffies1 = cpu_jiffies();
    queue.close();
    let mut served = block_on(consumer);
    drop(runtime);
    served.spans.extend(trace::take());

    phase.host_ref_ms = ref0;
    phase.steal = steal_frac(jiffies0, jiffies1);
    let lat = std::mem::replace(&mut served.lat, Samples::with_capacity(0));
    phase.lat_dropped = lat.dropped();
    phase.lat = lat.into_sorted();
    phase.late = late.into_sorted();
    phase.attempted = attempted;
    phase.answered = served.answered;
    phase.failed = shed + served.failed;
    phase.warm_failed = warm_shed + served.warm_failed;
    phase.first_error = served.first_error.take();
    phase.answers_total = served.answers_total;
    phase.served_ops = served_ops(served.answered, t_meas, served.last_done);
    phase.depths = depths.into_sorted();
    phase.spans = std::mem::take(&mut served.spans);
    served
}

/// Warm-up arrivals and all arrivals of an open loop at `rate` per second.
fn arrivals(rate: f64, seconds: f64) -> (usize, usize) {
    let warm = (rate * WARMUP_S) as usize;
    (warm, warm + (rate * seconds) as usize)
}

fn served_ops(answered: u64, t_meas: u64, last_done: u64) -> f64 {
    if answered == 0 || last_done <= t_meas {
        return 0.0;
    }
    answered as f64 / ((last_done - t_meas) as f64 / 1e9)
}

/// Answers the digest check folds, one per answer type.
trait Answer {
    fn fold(&self, h: u64) -> u64;
}

impl Answer for i64 {
    fn fold(&self, h: u64) -> u64 {
        digest(h, &[*self])
    }
}

impl Answer for Vec<i64> {
    fn fold(&self, h: u64) -> u64 {
        digest(h, self)
    }
}

/// The digest of `n` answers drawn sequentially by the request's own
/// mechanism from the seed's stream 0 — what a session seeded with
/// `seed` must have released, in serve order.
fn replay_digest<D: AbstractDp, U: Value + Answer>(
    req: &Request<D, u32, U>,
    db: &[u32],
    seed: u64,
    n: u64,
) -> u64 {
    let mut src = SplitSeed::new(seed).stream(0);
    (0..n).fold(DIGEST_INIT, |h, _| {
        req.mechanism().run(db, &mut src).fold(h)
    })
}

fn digest_check(served: u64, replayed: u64, answers: u64) -> Check {
    check(
        "answers equal a sequential replay",
        served == replayed,
        format!("{answers} answers, digest {served:016x} vs replay {replayed:016x}"),
    )
}

fn spend_check(spent: f64, answers: u64, gamma_each: f64) -> Check {
    let expected = answers as f64 * gamma_each;
    check(
        "ledger spend equals answered x gamma",
        spent == expected,
        format!("spent {spent} vs {answers} x {gamma_each} = {expected}"),
    )
}

fn traced_counts(phase: &mut Phase) {
    phase.draw_bytes = COUNTERS.draw_bytes.load(Ordering::Relaxed);
    phase.syncs = COUNTERS.syncs.load(Ordering::Relaxed);
    phase.append_bytes = COUNTERS.append_bytes.load(Ordering::Relaxed);
    phase.spans_dropped = COUNTERS.spans_dropped.load(Ordering::Relaxed);
}

/// Runs one phase of `workload`, through the traced executor and storage
/// when `traced`.
pub fn run_phase(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    tmp: &Path,
) -> Result<Phase, String> {
    let sample = traced.then(|| workload.sample_every());
    COUNTERS.reset();
    let mut phase = match workload {
        Workload::CountOpen | Workload::CountSaturate => {
            let load = if workload == Workload::CountOpen {
                Load::Open(COUNT_RATE)
            } else {
                Load::Closed(OUTSTANDING)
            };
            if traced {
                count_phase::<TracedInline>(seed, seconds, load, sample)?
            } else {
                count_phase::<Inline>(seed, seconds, load, sample)?
            }
        }
        Workload::DurableZipf => durable_phase(seed, seconds, sample, tmp)?,
        Workload::HistogramBulk => {
            if traced {
                histogram_phase::<TracedInline>(seed, seconds, sample)?
            } else {
                histogram_phase::<Inline>(seed, seconds, sample)?
            }
        }
    };
    if traced {
        traced_counts(&mut phase);
    }
    Ok(phase)
}

fn count_phase<E: SpawnExecutor + Send + 'static>(
    seed: u64,
    seconds: f64,
    load: Load,
    sample: Option<u32>,
) -> Result<Phase, String> {
    let setup = || Ok(ledger_stack::<E>(seed));
    let (stack, setup_s) = timed_setups(SETUPS, setup)?;
    let mut phase = Phase {
        setup_s,
        ..Phase::default()
    };
    let served = drive(stack, load, seconds, &[], sample, &mut phase);
    phase.setup_s.extend(timed_setups(SETUPS, setup)?.1);
    let LedgerServer { session, req } = served.server;
    phase.checks.push(spend_check(
        session.accountant().spent(),
        served.answers_total,
        req.gamma_each(),
    ));
    let db = table(seed, COUNT_ROWS);
    let replayed = replay_digest(&req, &db, seed, served.answers_total);
    phase
        .checks
        .push(digest_check(served.digest, replayed, served.answers_total));
    phase.setup_s.extend(timed_setups(SETUPS, setup)?.1);
    Ok(phase)
}

fn histogram_phase<E: SpawnExecutor>(
    seed: u64,
    seconds: f64,
    sample: Option<u32>,
) -> Result<Phase, String> {
    let build = || {
        let session = Session::<Zcdp>::builder()
            .ledger(LEDGER_BUDGET)
            .seeded(seed)
            .executor::<E>(1)
            .build();
        let bins = Bins::new(HIST_BINS, |row: &u32| (*row as usize) % HIST_BINS);
        let req = histogram_request::<Zcdp, u32>(&bins, 1, 1);
        Ok((session, req, table(seed, HIST_ROWS)))
    };
    let ((mut session, req, db), setup_s) = timed_setups(SETUPS, build)?;
    let mut phase = Phase {
        setup_s,
        ..Phase::default()
    };
    let mut lat = Samples::with_capacity((HIST_SAMPLES_PER_S * seconds) as usize);
    if sample.is_some() {
        trace::reserve((HIST_SAMPLES_PER_S * seconds) as usize * 3);
    }
    let mut h = DIGEST_INIT;
    phase.host_ref_ms = host_ref_ms();
    let t_meas = now_ns() + (WARMUP_S * 1e9) as u64;
    let t_end = t_meas + (seconds * 1e9) as u64;
    let (mut seq, mut last_done, mut jiffies0) = (0u32, 0u64, None);
    loop {
        let submit = now_ns();
        if submit >= t_end {
            break;
        }
        let measured = submit >= t_meas;
        if measured {
            if jiffies0.is_none() {
                jiffies0 = cpu_jiffies();
            }
            phase.attempted += 1;
        }
        let sampled = is_sampled(seq, sample);
        let start = if sampled {
            trace::set_current(Some(seq));
            now_ns()
        } else {
            0
        };
        let r = session.answer(&req, &db);
        let done = now_ns();
        if sampled {
            trace::set_current(None);
            trace::record(seq, Layer::Answer, start, done);
            trace::record(seq, Layer::Request, submit, done);
        }
        match r {
            Ok(v) => {
                h = v.fold(h);
                phase.answers_total += 1;
                if measured {
                    lat.push(done - submit);
                    phase.answered += 1;
                    last_done = done;
                }
            }
            Err(e) => {
                if measured {
                    phase.failed += 1;
                } else {
                    phase.warm_failed += 1;
                }
                phase.first_error.get_or_insert_with(|| e.to_string());
            }
        }
        seq += 1;
    }
    phase.steal = steal_frac(jiffies0, cpu_jiffies());
    phase.served_ops = served_ops(phase.answered, t_meas, last_done);
    phase.lat_dropped = lat.dropped();
    phase.lat = lat.into_sorted();
    phase.spans = trace::take();
    phase.setup_s.extend(timed_setups(SETUPS, build)?.1);
    phase.checks.push(spend_check(
        session.accountant().spent(),
        phase.answers_total,
        req.gamma_each(),
    ));
    let answers = phase.answers_total;
    let replayed = replay_digest(&req, &db, seed, answers);
    phase.checks.push(digest_check(h, replayed, answers));
    phase.setup_s.extend(timed_setups(SETUPS, build)?.1);
    Ok(phase)
}

/// The pre-written `durable_zipf` journal: 10⁵ unit charges to zipf
/// principals, built through `DurableRegistry` over memory. Returns the
/// journal bytes and each principal's prefilled spend.
fn prefill(seed: u64) -> Result<(Vec<u8>, Vec<u32>), String> {
    let storage = MemStorage::new();
    let registry =
        DurableRegistry::<PureDp, f64, MemStorage>::create(PRINCIPAL_BUDGET, 16, storage.clone())
            .map_err(|e| format!("prefill: {e}"))?;
    let mut counts = vec![0u32; PRINCIPALS as usize];
    for p in zipf_sequence(seed, 2, PRINCIPALS, 1.0, PREFILL) {
        registry
            .charge(u64::from(p), 1.0)
            .map_err(|e| format!("prefill charge: {e}"))?;
        counts[p as usize] += 1;
    }
    drop(registry);
    Ok((storage.contents(), counts))
}

/// Writes the journal and makes it durable before anything is timed, so
/// its writeback does not land in the timed set-ups or the run.
fn write_journal(path: &Path, bytes: &[u8]) -> Result<(), String> {
    use std::io::Write;
    let mut f = std::fs::File::create(path).map_err(|e| format!("create journal: {e}"))?;
    f.write_all(bytes)
        .and_then(|()| f.sync_all())
        .map_err(|e| format!("write journal: {e}"))
}

fn durable_phase(
    seed: u64,
    seconds: f64,
    sample: Option<u32>,
    tmp: &Path,
) -> Result<Phase, String> {
    std::fs::create_dir_all(tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    let path = tmp.join(format!("durable_zipf-{}.journal", std::process::id()));
    let result = durable_phase_at(seed, seconds, sample, &path);
    let _ = std::fs::remove_file(&path);
    result
}

fn durable_phase_at(
    seed: u64,
    seconds: f64,
    sample: Option<u32>,
    path: &Path,
) -> Result<Phase, String> {
    let (journal, prefilled) = prefill(seed)?;
    let principals = zipf_sequence(
        seed,
        1,
        PRINCIPALS,
        1.0,
        ((WARMUP_S + seconds) * DURABLE_RATE) as usize + 1,
    );
    let inputs = DurableInputs {
        seed,
        seconds,
        path,
        journal: &journal,
        prefilled: &prefilled,
        principals: &principals,
    };
    let open = |p: &Path| FileStorage::open(p).map(Unflushed);
    match sample {
        Some(_) => durable_run::<_, TracedInline>(&inputs, sample, |p| open(p).map(TracedStorage)),
        None => durable_run::<_, Inline>(&inputs, None, open),
    }
}

/// The `durable_zipf` journal: a `FileStorage` whose `sync` returns
/// without flushing the device. Appends, reads, truncation and
/// replacement go to the file; the journal still asks for every sync
/// it would (`journal.syncs_per_answer` counts them).
///
/// The flush is left out because its latency belongs to the host's disk
/// and drifts over minutes whatever the program does: on a shared 2-vCPU
/// VM, a bare 4k/s append-and-`sync_data` loop had a p50 between 79 and
/// 124 µs across 5 s windows of a 10-minute probe, and the spread of its
/// p50 between windows (IQR over median) was 0.09 for 15 s windows and
/// 0.11 for 30 s ones. With the flush on the path, `p50_us` of ten runs
/// spread by 0.26 in one set, past any bound the benchmark may set.
#[derive(Debug)]
struct Unflushed(FileStorage);

impl JournalStorage for Unflushed {
    fn append(&mut self, bytes: &[u8]) -> Result<(), JournalError> {
        self.0.append(bytes)
    }

    fn sync(&mut self) -> Result<(), JournalError> {
        Ok(())
    }

    fn read_all(&mut self) -> Result<Vec<u8>, JournalError> {
        self.0.read_all()
    }

    fn truncate(&mut self, len: u64) -> Result<(), JournalError> {
        self.0.truncate(len)
    }

    fn replace_with(&mut self, bytes: &[u8]) -> Result<(), JournalError> {
        self.0.replace_with(bytes)
    }

    fn len(&mut self) -> Result<u64, JournalError> {
        self.0.len()
    }
}

struct DurableInputs<'a> {
    seed: u64,
    seconds: f64,
    path: &'a Path,
    journal: &'a [u8],
    prefilled: &'a [u32],
    principals: &'a [u32],
}

/// Sets up over storage from `open` (what `durable_with_policy` does
/// with a `FileStorage`), serves, and checks.
fn durable_run<S: JournalStorage, E: SpawnExecutor + Send + 'static>(
    inputs: &DurableInputs<'_>,
    sample: Option<u32>,
    open: impl Fn(&Path) -> Result<S, JournalError>,
) -> Result<Phase, String> {
    let seed = inputs.seed;
    // Recovering an intact journal only reads it, so every set-up opens
    // the same file, written and synced once.
    write_journal(inputs.path, inputs.journal)?;
    let setup = || {
        // Zeroed per set-up, so the read time is the last set-up's.
        COUNTERS.reset();
        let queue = Ingress::bounded(QUEUE_CAP);
        let o0 = Instant::now();
        let storage = open(inputs.path).map_err(|e| format!("open journal: {e}"))?;
        let builder = Session::<PureDp>::builder()
            .registry(PRINCIPAL_BUDGET)
            .durable_with_options(storage, DurableOptions::default())
            .map_err(|e| format!("recover journal: {e}"))?;
        let open_ms = o0.elapsed().as_secs_f64() * 1e3;
        let session = builder
            .seeded(seed)
            .admission(admission())
            .ingress(queue.gauge())
            .executor::<E>(1)
            .build_per_principal();
        let stack = Stack {
            queue,
            server: DurableServer {
                session,
                req: count_request(),
            },
            db: table(seed, COUNT_ROWS),
        };
        Ok((stack, open_ms))
    };
    let ((stack, open_ms), setup_s) = timed_setups(DURABLE_SETUPS, setup)?;
    let read_ms = COUNTERS.read_ns.load(Ordering::Relaxed) as f64 / 1e6;
    let mut phase = Phase {
        setup_s,
        read_ms,
        replay_ms: open_ms - read_ms,
        ..Phase::default()
    };
    COUNTERS.reset();
    let served = drive(
        stack,
        Load::Open(DURABLE_RATE),
        inputs.seconds,
        inputs.principals,
        sample,
        &mut phase,
    );
    let DurableServer { session, req } = served.server;
    drop(session);
    let storage = FileStorage::open(inputs.path).map_err(|e| format!("reopen journal: {e}"))?;
    let (registry, _) =
        DurableRegistry::<PureDp, f64, FileStorage>::open(PRINCIPAL_BUDGET, 16, storage)
            .map_err(|e| format!("reopen journal: {e}"))?;
    phase.checks.push(journal_check(
        &registry.registry(),
        inputs.prefilled,
        &served.per_principal,
    ));
    let db = table(seed, COUNT_ROWS);
    let replayed = replay_digest(&req, &db, seed, phase.answers_total);
    phase
        .checks
        .push(digest_check(served.digest, replayed, phase.answers_total));
    Ok(phase)
}

/// Each principal's recovered spend must be its prefill plus the answers
/// the harness saw served to it: the journal neither under- nor
/// over-reports.
fn journal_check(
    view: &RegistryView<'_, PureDp, f64>,
    prefilled: &[u32],
    answered: &[u32],
) -> Check {
    let expected = |p: usize| f64::from(prefilled[p]) + f64::from(answered[p]);
    let bad: Vec<usize> = (0..PRINCIPALS as usize)
        .filter(|&p| view.spent(p as u64) != expected(p))
        .collect();
    let first = bad.first().map_or(String::new(), |&p| {
        format!(
            ", first {p}: journal {} vs {}",
            view.spent(p as u64),
            expected(p)
        )
    });
    check(
        "journal spend equals prefill plus answered, per principal",
        bad.is_empty(),
        format!("{} of {PRINCIPALS} principals differ{first}", bad.len()),
    )
}

/// The temp directory a run keeps its journal in, inside the working
/// directory.
pub const TMP_DIR: &str = ".perfbench_tmp";
