//! Micro-benchmarks of the concurrent serving engine, with a JSON
//! emitter.
//!
//! This is the measurement set behind `BENCH_serve.json`:
//!
//! - `serve_gauss64_det_t{1,2,4,8}`: σ = 64 Gaussian noise served through
//!   a [`NoiseServer`] at 1/2/4/8 workers with the deterministic
//!   split-seed backend — the throughput-vs-thread-count curve;
//! - `serve_gauss64_os_t{1,8}`: the same serving with per-worker OS
//!   entropy — the seed-backend attribution;
//! - `metered_sharded_f64_t{1,8}` vs `metered_mutex_f64_t{1,8}`: a
//!   request loop (512-draw requests, each charged before serving)
//!   metered by a [`ShardedLedger`] (lock-free local charges) vs a global
//!   `Mutex<Ledger>` (every worker takes the same lock per request) — the
//!   accounting-architecture attribution;
//! - `metered_sharded_dyadic_t8`: the sharded loop on the exact dyadic
//!   carrier — what exact metering costs on the same path;
//! - `charge_perdraw_sharded_f64_t8` vs `charge_perdraw_mutex_f64_t8`:
//!   the accounting hot path isolated — per-draw charges (no sampling)
//!   through a shard handle vs through the global mutex. This attribution
//!   is visible even on a 1-core host: the shard handle's charge is two
//!   carrier operations on worker-owned memory, the mutex path pays a
//!   lock/unlock (and, with real parallelism, contention) per charge;
//! - `charge_registry_dyadic_t4` vs `charge_durable_mem_dyadic_t4` vs
//!   `charge_durable_fsync_t1`: the per-principal charge path with
//!   journaling off vs on — a plain [`BudgetRegistry`] (lock-sharded,
//!   no I/O), a [`DurableRegistry`] over in-memory storage (WAL framing
//!   plus the single journal lock, no disk), and a `DurableRegistry`
//!   over a real file with fsync-per-charge (the full durability price;
//!   the absolute number is dominated by the host's fsync latency);
//! - `charge_durable_fsync_t8` vs `charge_durable_group_t8`: the same
//!   file-backed durable charge from 8 concurrent threads, serially
//!   fsynced per charge vs group-committed (one leader fsync per batch,
//!   followers acknowledged at their stable LSN) — the group-commit
//!   speedup the durability tier ships with;
//! - `charge_durable_group_time_t8`: the same group commit with the
//!   time-based adaptive gather window (`GatherWindow::Adaptive`,
//!   200 µs ceiling) instead of the yield-counted default — the two
//!   gather strategies measured side by side at t = 8;
//! - `charge_registry_1m` + `registry_1m_build_ns_per_principal` +
//!   `registry_1m_rss_bytes_per_principal`: the million-principal
//!   capacity tier — zipfian-skewed concurrent charges against a fully
//!   populated 10⁶-principal book, with the book's build cost and
//!   resident-memory footprint per principal;
//! - `journal_precompact_bytes` vs `journal_compacted_bytes`: journal
//!   file size before and after `compact_now` (byte rows, not timings)
//!   — evidence that compaction bounds the log by snapshot size, not
//!   total history;
//! - `journal_recover_1e5_ms`: one recovery (`DurableRegistry::recover`)
//!   of a journal holding 10⁵ unit charges to zipf(s = 1) principals over
//!   10⁴, with the default checkpoint cadence (one full-registry
//!   checkpoint every 1024 charges, ~14.5 MB of log) over `MemStorage`
//!   — the restart cost of a busy accountant, without the disk;
//! - `journal_crc_mb_per_s`: throughput of the frame checksum
//!   ([`crc32`]) over that same log, in MB/s — the part of recovery
//!   that is linear in log bytes whatever the checkpoints;
//! - `host_parallelism`: `std::thread::available_parallelism()` at
//!   measurement time. **Read the scaling rows against this.** Thread
//!   scaling is bounded by the cores the host actually grants: on a
//!   multi-core host the `t8/t1` ratio tracks core count; on a 1-core
//!   container every `t>1` row collapses onto `t1` (modulo scheduling
//!   overhead) and only the lock-contention attribution remains visible;
//! - `degenerate_scaling`: `1.00` exactly when `host_parallelism == 1` —
//!   an explicit machine-readable flag that the run's thread-scaling rows
//!   are degenerate, so downstream consumers don't have to re-derive the
//!   condition.
//!
//! Unit: ns per served sample (ops/s = 1e9 / ns). Rows are measured with
//! whole-request wall time — threads, locks, chunk rebalances included —
//! not per-draw microtiming, because the object under test *is* the
//! fan-out machinery.

use sampcert_arith::Nat;
use sampcert_core::{
    crc32, Budget, BudgetRegistry, DurableRegistry, Dyadic, FileStorage, GatherWindow, Ledger,
    MemStorage, PureDp, ShardedLedger,
};
use sampcert_mechanisms::{NoiseServer, SeedBackend, ServeConfig};
use sampcert_samplers::{discrete_gaussian_many_into, LaplaceAlg};
use sampcert_slang::SplitSeed;
use std::sync::Mutex;
use std::time::Instant;

/// Draws per request in the metered rows — the serving-loop granularity
/// the ledger architectures are compared at.
const REQUEST: usize = 512;

/// σ of the Gaussian noise served in every row.
const SIGMA: u64 = 64;

/// Per-draw ε charged in the metered rows (budget is set far above the
/// session total, so no row ever hits a refusal path).
const GAMMA_EACH: f64 = 1e-6;

/// Total samples per measured serve call.
fn samples_per_call(quick: bool) -> usize {
    if quick {
        REQUEST * 16
    } else {
        REQUEST * 256
    }
}

/// Times `serve(n)` end to end, returning ns per sample (median of
/// `reps`, after one warm-up call).
fn ns_per_sample(n: usize, reps: usize, mut serve: impl FnMut(usize)) -> f64 {
    serve(n / 4);
    let mut runs: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            serve(n);
            start.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs[runs.len() / 2]
}

/// Raw serving throughput through a [`NoiseServer`].
fn serve_row(workers: usize, seed: SeedBackend, n: usize, reps: usize) -> f64 {
    let mut server = NoiseServer::new(ServeConfig { workers, seed });
    let num = Nat::from(SIGMA);
    let den = Nat::one();
    ns_per_sample(n, reps, move |k| {
        let out = server.gaussian_noise_many(&num, &den, LaplaceAlg::Switched, k);
        std::hint::black_box(out.len());
    })
}

/// The sharded metered request loop: each worker owns a shard handle and
/// a split-seed stream, charges each 512-draw request on its shard
/// (lock-free unless the allowance needs a refill), then serves it.
fn metered_sharded_row<B>(workers: usize, n: usize, reps: usize) -> f64
where
    B: sampcert_core::Budget,
{
    let num = Nat::from(SIGMA);
    let den = Nat::one();
    ns_per_sample(n, reps, move |k| {
        let ledger: ShardedLedger<PureDp, B> = ShardedLedger::new(1e9, workers);
        let root = SplitSeed::new(0xAB);
        std::thread::scope(|scope| {
            for w in 0..workers {
                let mut handle = ledger.handle(w);
                let num = &num;
                let den = &den;
                let mut src = root.stream(w as u64);
                scope.spawn(move || {
                    let mut buf = Vec::new();
                    let mut served = 0usize;
                    while served < k / workers {
                        handle
                            .charge_batch(GAMMA_EACH, REQUEST as u64)
                            .expect("budget is ample");
                        buf.clear();
                        discrete_gaussian_many_into(
                            num,
                            den,
                            LaplaceAlg::Switched,
                            REQUEST,
                            &mut src,
                            &mut buf,
                        );
                        served += REQUEST;
                    }
                    std::hint::black_box(served);
                });
            }
        });
    })
}

/// The global-mutex metered request loop: identical serving, but every
/// worker charges the one shared `Mutex<Ledger>` per request.
fn metered_mutex_row(workers: usize, n: usize, reps: usize) -> f64 {
    let num = Nat::from(SIGMA);
    let den = Nat::one();
    ns_per_sample(n, reps, move |k| {
        let ledger: Mutex<Ledger<PureDp>> = Mutex::new(Ledger::new(1e9));
        let root = SplitSeed::new(0xAB);
        std::thread::scope(|scope| {
            for w in 0..workers {
                let ledger = &ledger;
                let num = &num;
                let den = &den;
                let mut src = root.stream(w as u64);
                scope.spawn(move || {
                    let mut buf = Vec::new();
                    let mut served = 0usize;
                    while served < k / workers {
                        ledger
                            .lock()
                            .expect("ledger poisoned")
                            .charge_batch("req", GAMMA_EACH, REQUEST as u64)
                            .expect("budget is ample");
                        buf.clear();
                        discrete_gaussian_many_into(
                            num,
                            den,
                            LaplaceAlg::Switched,
                            REQUEST,
                            &mut src,
                            &mut buf,
                        );
                        served += REQUEST;
                    }
                    std::hint::black_box(served);
                });
            }
        });
    })
}

/// The accounting hot path alone, sharded: per-draw charges on
/// worker-owned shard handles — no lock unless the allowance refills.
fn charge_perdraw_sharded_row(workers: usize, n: usize, reps: usize) -> f64 {
    ns_per_sample(n, reps, move |k| {
        let ledger: ShardedLedger<PureDp> = ShardedLedger::new(1e9, workers);
        std::thread::scope(|scope| {
            for w in 0..workers {
                let mut handle = ledger.handle(w);
                scope.spawn(move || {
                    for _ in 0..k / workers {
                        handle.charge(GAMMA_EACH).expect("budget is ample");
                    }
                    std::hint::black_box(handle.charges());
                });
            }
        });
    })
}

/// The accounting hot path alone, global mutex: every per-draw charge
/// takes the one shared lock.
fn charge_perdraw_mutex_row(workers: usize, n: usize, reps: usize) -> f64 {
    ns_per_sample(n, reps, move |k| {
        let ledger: Mutex<Ledger<PureDp>> = Mutex::new(Ledger::new(1e9));
        std::thread::scope(|scope| {
            for w in 0..workers {
                let ledger = &ledger;
                scope.spawn(move || {
                    for i in 0..k / workers {
                        ledger
                            .lock()
                            .expect("ledger poisoned")
                            .charge("q", GAMMA_EACH)
                            .expect("budget is ample");
                        std::hint::black_box((w, i));
                    }
                });
            }
        });
    })
}

/// The per-principal charge path with journaling **off**: `workers`
/// threads hammer a plain [`BudgetRegistry`] on the exact dyadic
/// carrier, each charging its own principal (distinct lock shards on the
/// common path).
fn charge_registry_dyadic_row(workers: usize, n: usize, reps: usize) -> f64 {
    ns_per_sample(n, reps, move |k| {
        let registry: BudgetRegistry<PureDp, Dyadic> = BudgetRegistry::new(1e9, workers);
        std::thread::scope(|scope| {
            for w in 0..workers {
                let registry = &registry;
                scope.spawn(move || {
                    for _ in 0..k / workers {
                        registry
                            .charge(w as u64, GAMMA_EACH)
                            .expect("budget is ample");
                    }
                    std::hint::black_box(registry.spent(w as u64));
                });
            }
        });
    })
}

/// The same workload with journaling **on** over in-memory storage: every
/// charge serializes on the journal lock and pays WAL framing +
/// checksumming, but no disk I/O — the pure journaling-machinery
/// overhead against [`charge_registry_dyadic_row`].
fn charge_durable_mem_dyadic_row(workers: usize, n: usize, reps: usize) -> f64 {
    ns_per_sample(n, reps, move |k| {
        let registry: DurableRegistry<PureDp, Dyadic, MemStorage> =
            DurableRegistry::create(1e9, workers, MemStorage::new()).expect("fault-free storage");
        std::thread::scope(|scope| {
            for w in 0..workers {
                let registry = &registry;
                scope.spawn(move || {
                    for _ in 0..k / workers {
                        registry
                            .charge(w as u64, GAMMA_EACH)
                            .expect("budget is ample");
                    }
                    std::hint::black_box(registry.registry().spent(w as u64));
                });
            }
        });
    })
}

/// Journaling **on** over a real file, single thread: each charge is an
/// append **plus an fsync** before it is acknowledged — the full price
/// of the durability contract. Absolute values are dominated by the
/// host's fsync latency (tmpfs vs a real disk differ by orders of
/// magnitude), so read this row per-host, not across hosts.
fn charge_durable_fsync_row(n: usize, reps: usize) -> f64 {
    let dir = std::env::temp_dir().join(format!("sampcert-bench-journal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ns = ns_per_sample(n, reps, |k| {
        let path = dir.join("bench.scjl");
        let _ = std::fs::remove_file(&path);
        let storage = FileStorage::open(&path).expect("open journal file");
        let registry: DurableRegistry<PureDp, Dyadic, FileStorage> =
            DurableRegistry::create(1e9, 1, storage).expect("create journal");
        for _ in 0..k {
            registry.charge(0, GAMMA_EACH).expect("budget is ample");
        }
        std::hint::black_box(registry.registry().spent(0));
    });
    let _ = std::fs::remove_dir_all(&dir);
    ns
}

/// Durable charges from `workers` concurrent threads over a real file,
/// group commit on or off. Serial mode pays one fsync **per charge**;
/// group mode elects one enqueuing thread leader per batch, which
/// appends every queued record and pays one fsync for the whole batch
/// while the rest block for their stable LSN. The ratio of these two
/// rows is the committed group-commit speedup — visible even on a
/// 1-core host, because the fsync wait is time the other threads spend
/// enqueuing rather than idling.
fn charge_durable_file_row(
    workers: usize,
    group: bool,
    gather: Option<GatherWindow>,
    n: usize,
    reps: usize,
) -> f64 {
    let dir = std::env::temp_dir().join(format!(
        "sampcert-bench-group-{}-{group}-{}",
        std::process::id(),
        gather.is_some(),
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ns = ns_per_sample(n, reps, |k| {
        let path = dir.join("bench.scjl");
        let _ = std::fs::remove_file(&path);
        let storage = FileStorage::open(&path).expect("open journal file");
        let mut registry: DurableRegistry<PureDp, Dyadic, FileStorage> =
            DurableRegistry::create(1e9, workers, storage)
                .expect("create journal")
                .with_group_commit(group);
        if let Some(window) = gather {
            registry = registry.with_gather_window(window);
        }
        std::thread::scope(|scope| {
            for w in 0..workers {
                let registry = &registry;
                scope.spawn(move || {
                    for _ in 0..k / workers {
                        registry
                            .charge(w as u64, GAMMA_EACH)
                            .expect("budget is ample");
                    }
                    std::hint::black_box(registry.registry().spent(w as u64));
                });
            }
        });
    });
    let _ = std::fs::remove_dir_all(&dir);
    ns
}

/// Resident-set size from `/proc/self/status`, in bytes; `None` off
/// Linux or if the field is missing (the row then records 0.0).
fn rss_bytes() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0)
}

/// The million-principal capacity tier: build a full book of registered
/// principals (outside the timed region), record build cost and memory
/// footprint per principal, then measure zipfian-skewed concurrent
/// charges against it. `quick` shrinks the book for smoke runs; the
/// committed `BENCH_serve.json` rows come from the full-size run.
fn registry_1m_rows(quick: bool, n: usize, reps: usize) -> Vec<(&'static str, f64)> {
    let principals: u64 = if quick { 1 << 17 } else { 1_000_000 };
    let base = <Dyadic as Budget>::charge_from_f64(GAMMA_EACH);
    let rss_before = rss_bytes();
    let registry: BudgetRegistry<PureDp, Dyadic> = BudgetRegistry::new(1e9, 64);
    let start = Instant::now();
    for p in 0..principals {
        registry.apply_unchecked(p, &base);
    }
    let build_ns = start.elapsed().as_nanos() as f64 / principals as f64;
    let rss_per_principal = match (rss_before, rss_bytes()) {
        (Some(before), Some(after)) if after > before => (after - before) / principals as f64,
        _ => 0.0,
    };

    let workers = 4;
    let charge_ns = ns_per_sample(n, reps, |k| {
        std::thread::scope(|scope| {
            for w in 0..workers {
                let registry = &registry;
                scope.spawn(move || {
                    let mut state = (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                    let mut rnd = move || {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state
                    };
                    for _ in 0..k / workers {
                        // Zipf-ish: geometric trailing-zero count halves
                        // the candidate range, so the head is hot and the
                        // whole book stays reachable.
                        let z = rnd().trailing_zeros().min(19);
                        let principal = rnd() % (principals >> z).max(1);
                        registry
                            .charge(principal, GAMMA_EACH)
                            .expect("budget is ample");
                    }
                });
            }
        });
    });
    vec![
        ("registry_1m_build_ns_per_principal", build_ns),
        ("registry_1m_rss_bytes_per_principal", rss_per_principal),
        ("charge_registry_1m", charge_ns),
    ]
}

/// Journal size before and after `compact_now` on a real file — the
/// committed evidence that compaction bounds the log by snapshot size
/// rather than total history. Byte rows, not timings.
fn journal_compaction_rows(quick: bool) -> Vec<(&'static str, f64)> {
    let dir = std::env::temp_dir().join(format!("sampcert-bench-compact-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("bench.scjl");
    let _ = std::fs::remove_file(&path);
    let storage = FileStorage::open(&path).expect("open journal file");
    let registry: DurableRegistry<PureDp, Dyadic, FileStorage> =
        DurableRegistry::create(1e9, 8, storage)
            .expect("create journal")
            .with_checkpoint_every(u64::MAX)
            .with_group_commit(true);
    let charges = if quick { 2_048u64 } else { 16_384 };
    std::thread::scope(|scope| {
        for w in 0..4u64 {
            let registry = &registry;
            scope.spawn(move || {
                for i in 0..charges / 4 {
                    registry
                        .charge((w * 16 + i % 16) % 64, GAMMA_EACH)
                        .expect("budget is ample");
                }
            });
        }
    });
    let before = registry.journal_bytes() as f64;
    registry.compact_now().expect("fault-free compaction");
    let after = registry.journal_bytes() as f64;
    let _ = std::fs::remove_dir_all(&dir);
    vec![
        ("journal_precompact_bytes", before),
        ("journal_compacted_bytes", after),
    ]
}

/// Principals the recovery journal's charges are drawn from.
const RECOVER_PRINCIPALS: u64 = 10_000;
/// Charges in the recovery journal.
const RECOVER_CHARGES: usize = 100_000;

/// `count` zipf(s = 1) draws over `0..n`, by inverse CDF on a
/// deterministic xorshift stream.
fn zipf_principals(n: u64, count: usize) -> Vec<u64> {
    let mut cdf = Vec::with_capacity(n as usize);
    let mut total = 0.0;
    for k in 1..=n {
        total += 1.0 / k as f64;
        cdf.push(total);
    }
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    (0..count)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u = (state >> 11) as f64 / (1u64 << 53) as f64 * total;
            cdf.partition_point(|&c| c <= u).min(n as usize - 1) as u64
        })
        .collect()
}

/// Recovery of a 10⁵-charge zipf journal with default checkpoints over
/// `MemStorage` (median ms of `reps`), and the frame checksum's
/// throughput over the same bytes (median MB/s).
fn journal_recovery_rows(reps: usize) -> Vec<(&'static str, f64)> {
    let storage = MemStorage::new();
    let registry: DurableRegistry<PureDp, f64, MemStorage> =
        DurableRegistry::create(1e12, 16, storage.clone()).expect("create journal");
    for principal in zipf_principals(RECOVER_PRINCIPALS, RECOVER_CHARGES) {
        registry.charge(principal, 1.0).expect("budget is ample");
    }
    drop(registry);
    let median = |mut runs: Vec<f64>| {
        runs.sort_by(f64::total_cmp);
        runs[runs.len() / 2]
    };
    let recover_ms = median(
        (0..reps.max(1))
            .map(|_| {
                let start = Instant::now();
                let (back, _) =
                    DurableRegistry::<PureDp, f64, _>::recover(1e12, 16, storage.reopen())
                        .expect("intact journal recovers");
                let ms = start.elapsed().as_secs_f64() * 1e3;
                assert!(
                    back.spent_exact(0) >= 1.0,
                    "the hottest principal was charged"
                );
                ms
            })
            .collect(),
    );
    let log = storage.contents();
    let crc_mb_per_s = median(
        (0..reps.max(1))
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(crc32(std::hint::black_box(&log)));
                log.len() as f64 / 1e6 / start.elapsed().as_secs_f64()
            })
            .collect(),
    );
    vec![
        ("journal_recover_1e5_ms", recover_ms),
        ("journal_crc_mb_per_s", crc_mb_per_s),
    ]
}

/// Runs the whole serving measurement set, returning `(name, ns_per_op)`
/// rows (plus the `host_parallelism` and `degenerate_scaling` context
/// rows). `quick` shrinks the per-call sample count for CI smoke runs.
pub fn measure_all(quick: bool) -> Vec<(&'static str, f64)> {
    let n = samples_per_call(quick);
    let reps = if quick { 3 } else { 5 };
    let det = |t| SeedBackend::Deterministic(0xD15C0 ^ t as u64);
    let host_parallelism = std::thread::available_parallelism().map_or(1.0, |p| p.get() as f64);
    vec![
        ("host_parallelism", host_parallelism),
        // 1.00 = measured on a single-core host: every thread-scaling row
        // collapses onto its t1 twin by construction, so `t8/t1` ratios
        // from this run are meaningless — only the lock-architecture
        // attribution rows (sharded vs mutex charging) carry signal.
        // Readers and tooling should gate on this flag instead of
        // re-deriving the condition from `host_parallelism`.
        (
            "degenerate_scaling",
            if host_parallelism <= 1.0 { 1.0 } else { 0.0 },
        ),
        ("serve_gauss64_det_t1", serve_row(1, det(1), n, reps)),
        ("serve_gauss64_det_t2", serve_row(2, det(2), n, reps)),
        ("serve_gauss64_det_t4", serve_row(4, det(4), n, reps)),
        ("serve_gauss64_det_t8", serve_row(8, det(8), n, reps)),
        (
            "serve_gauss64_os_t1",
            serve_row(1, SeedBackend::OsEntropy, n, reps),
        ),
        (
            "serve_gauss64_os_t8",
            serve_row(8, SeedBackend::OsEntropy, n, reps),
        ),
        (
            "metered_sharded_f64_t1",
            metered_sharded_row::<f64>(1, n, reps),
        ),
        (
            "metered_sharded_f64_t8",
            metered_sharded_row::<f64>(8, n, reps),
        ),
        ("metered_mutex_f64_t1", metered_mutex_row(1, n, reps)),
        ("metered_mutex_f64_t8", metered_mutex_row(8, n, reps)),
        (
            "metered_sharded_dyadic_t8",
            metered_sharded_row::<sampcert_core::Dyadic>(8, n, reps),
        ),
        (
            "charge_perdraw_sharded_f64_t8",
            charge_perdraw_sharded_row(8, n * 8, reps),
        ),
        (
            "charge_perdraw_mutex_f64_t8",
            charge_perdraw_mutex_row(8, n * 8, reps),
        ),
        (
            "charge_registry_dyadic_t4",
            charge_registry_dyadic_row(4, n * 8, reps),
        ),
        (
            "charge_durable_mem_dyadic_t4",
            charge_durable_mem_dyadic_row(4, n * 8, reps),
        ),
        // fsync-per-charge is ~10^3–10^6 ns on real hardware: keep the
        // charge count small so the row stays a smoke measurement.
        (
            "charge_durable_fsync_t1",
            charge_durable_fsync_row(n / 16, reps),
        ),
        // Group-commit attribution: the same file-backed durable charges
        // from 8 threads with one-fsync-per-charge vs one-fsync-per-batch.
        // `fsync_t8 / group_t8` is the committed group-commit speedup.
        (
            "charge_durable_fsync_t8",
            charge_durable_file_row(8, false, None, n / 16, reps),
        ),
        (
            "charge_durable_group_t8",
            charge_durable_file_row(8, true, None, n / 16, reps),
        ),
        // The same group commit with the time-based adaptive gather
        // window instead of the yield-counted one: the leader keeps
        // gathering followers against a wall-clock deadline, trading a
        // bounded latency slice for fuller batches.
        (
            "charge_durable_group_time_t8",
            charge_durable_file_row(
                8,
                true,
                Some(GatherWindow::Adaptive { max_micros: 200 }),
                n / 16,
                reps,
            ),
        ),
    ]
    .into_iter()
    .chain(registry_1m_rows(quick, n * 8, reps))
    .chain(journal_compaction_rows(quick))
    .chain(journal_recovery_rows(reps))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_measure_and_are_positive() {
        let rows = measure_all(true);
        assert_eq!(rows.len(), 28);
        for (name, v) in &rows {
            // Two rows may legitimately read zero: the degenerate-scaling
            // flag on a multi-core host, and the RSS delta when the
            // platform exposes no /proc (or the allocator reused pages).
            let may_be_zero = matches!(
                *name,
                "degenerate_scaling" | "registry_1m_rss_bytes_per_principal"
            );
            assert!(*v > 0.0 || may_be_zero, "{name} = {v}");
        }
        assert!(rows.iter().any(|(n, _)| *n == "host_parallelism"));
        // The degenerate-scaling flag is always emitted and is consistent
        // with the recorded parallelism.
        let get = |n: &str| rows.iter().find(|(name, _)| *name == n).unwrap().1;
        assert_eq!(
            get("degenerate_scaling") == 1.0,
            get("host_parallelism") <= 1.0
        );
    }

    #[test]
    fn sharded_and_mutex_loops_serve_the_same_count() {
        // Liveness check of both request loops at 2 workers: neither
        // panics, both finish (the measurement asserts nothing about
        // relative speed — that is what the committed JSON records).
        let _ = metered_sharded_row::<f64>(2, REQUEST * 4, 1);
        let _ = metered_mutex_row(2, REQUEST * 4, 1);
        let _ = metered_sharded_row::<sampcert_core::Dyadic>(2, REQUEST * 4, 1);
    }
}
