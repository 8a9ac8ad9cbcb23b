//! The server workloads: one client keeps one batch of 8192 requests in
//! flight against `ServeConfig::bench()` (16 shards) on a `dg-par` pool
//! of one worker per available CPU.
//!
//! * `serve-query` — get-or-insert `Query` traffic over
//!   `WorkloadSpec::bench()` (Zipf α = 0.9): nearly every request is an
//!   exact hit.
//! * `serve-churn` — 75% `Get` / 25% `Put` over
//!   `WorkloadSpec::bench_adversarial()` (uniform over ~8× the tag
//!   capacity): mostly misses, insertions and evictions.
//!
//! Requests are generated and responses checked outside the timed
//! region, between batches, as the client of a closed loop would.

use std::time::{Duration, Instant};

use dg_mem::{ApproxRegion, BlockAddr};
use dg_par::Pool;
use dg_serve::{
    Request, Response, ServeConfig, ServeStats, Server, SimilarityWorkload, WorkloadSpec,
};
use doppelganger::{DoppelgangerCache, MapSpace, WriteStatus};

use crate::trace::Tracer;
use crate::{calm, median, quantile, Digest, Outcome, Probe};

/// Requests per batch.
pub const BATCH: usize = 8192;

/// Consecutive batches per window. The digest and the hit rate cover
/// the first window; throughput and batch-time percentiles are the calm
/// figures ([`crate::calm`]) over the windows, each window calibrated by
/// the [`Probe`] samples around it. The measured phase always runs at
/// least one window.
pub const WINDOW: usize = 100;

/// Batches each path of the ledger replays.
const LEDGER_BATCHES: usize = 32;

/// Traffic mix of a server workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// `serve-query`.
    Query,
    /// `serve-churn`.
    Churn,
}

impl Mix {
    /// The mix of workload `name`, if it is a server workload.
    pub fn of(name: &str) -> Option<Mix> {
        match name {
            "serve-query" => Some(Mix::Query),
            "serve-churn" => Some(Mix::Churn),
            _ => None,
        }
    }

    fn spec(self, seed: u64) -> WorkloadSpec {
        match self {
            Mix::Query => WorkloadSpec::bench(),
            Mix::Churn => WorkloadSpec::bench_adversarial(),
        }
        .with_seed(seed)
    }

    /// Warm-up batches before measuring: enough to bring the hit rate
    /// to its steady state (`Query`) or to fill the tag arrays
    /// (`Churn`: ~2× the aggregate tag capacity in `Put`s).
    fn warmup_batches(self) -> usize {
        match self {
            Mix::Query => 64,
            Mix::Churn => 256,
        }
    }

    fn next(self, gen: &mut SimilarityWorkload) -> Vec<Request> {
        match self {
            Mix::Query => gen.batch(BATCH),
            Mix::Churn => gen.batch_mixed(BATCH, 0.25),
        }
    }
}

/// The expected map of each key's block: the map of the last block put
/// or offered for it.
struct Oracle {
    last: Vec<u64>,
    map_space: MapSpace,
    region: ApproxRegion,
}

const NEVER_WRITTEN: u64 = u64::MAX;

impl Oracle {
    fn new(universe: u64, cfg: &ServeConfig) -> Self {
        Oracle {
            last: vec![NEVER_WRITTEN; universe as usize],
            map_space: cfg.cache.map_space,
            region: cfg.region(),
        }
    }

    fn map(&self, block: &dg_mem::BlockData) -> u64 {
        self.map_space.map_block(block, &self.region).0
    }

    /// Record the blocks `reqs` put or offer.
    fn observe(&mut self, reqs: &[Request]) {
        for r in reqs {
            if let Request::Put(k, b) | Request::Query(k, b) = r {
                self.last[*k as usize] = self.map(b);
            }
        }
    }

    /// Check `resps` against `reqs` in submission order (the order each
    /// key's requests are served in), recording what they put or offer.
    /// Returns the failed requests' descriptions.
    fn check(&mut self, reqs: &[Request], resps: &[Response]) -> Vec<String> {
        let mut bad = Vec::new();
        for (r, resp) in reqs.iter().zip(resps) {
            let k = r.key() as usize;
            if let Request::Put(_, b) | Request::Query(_, b) = r {
                self.last[k] = self.map(b);
            }
            let ok = match (r, resp) {
                (Request::Get(_), Response::Miss) => true,
                (Request::Get(_) | Request::Query(..), Response::Hit(b))
                | (Request::Query(..), Response::SimilarHit(b)) => {
                    self.last[k] != NEVER_WRITTEN && self.map(b) == self.last[k]
                }
                (Request::Query(..), Response::Miss) => true,
                (Request::Put(..), Response::Inserted { .. } | Response::Updated { .. }) => true,
                _ => false,
            };
            if !ok {
                bad.push(format!("{r:?} -> {resp:?}"));
            }
        }
        bad
    }
}

fn digest_responses(d: &mut Digest, resps: &[Response]) {
    for resp in resps {
        match resp {
            Response::Hit(b) => {
                d.bytes(&[0]);
                d.bytes(b.as_bytes());
            }
            Response::SimilarHit(b) => {
                d.bytes(&[1]);
                d.bytes(b.as_bytes());
            }
            Response::Miss => d.bytes(&[2]),
            Response::Inserted { deduped } => d.bytes(&[3, u8::from(*deduped)]),
            Response::Updated { moved } => d.bytes(&[4, u8::from(*moved)]),
        }
    }
}

/// A warmed server with its request generator and response oracle.
pub struct Rig {
    server: Server,
    gen: SimilarityWorkload,
    mix: Mix,
    oracle: Oracle,
}

/// Build and warm a server. Returns the rig and its set-up time, which
/// excludes the oracle's bookkeeping.
pub fn setup(mix: Mix, seed: u64, tr: &mut Tracer) -> (Rig, Duration) {
    let t0 = Instant::now();
    let cfg = ServeConfig::bench();
    let server = tr.span("dg-serve/Server::new", |_| {
        Server::new(cfg).expect("bench config")
    });
    let spec = mix.spec(seed);
    let mut gen = tr.span("dg-serve/SimilarityWorkload::new", |_| {
        SimilarityWorkload::new(spec, &cfg)
    });
    let mut oracle = Oracle::new(spec.universe, &cfg);
    let mut bookkeeping = Duration::ZERO;
    for _ in 0..mix.warmup_batches() {
        let reqs = tr.span("setup/SimilarityWorkload::batch", |_| mix.next(&mut gen));
        tr.span("setup/Server::run_batch", |_| server.run_batch(&reqs));
        let b0 = Instant::now();
        oracle.observe(&reqs);
        bookkeeping += b0.elapsed();
    }
    server.reset_stats();
    (
        Rig {
            server,
            gen,
            mix,
            oracle,
        },
        t0.elapsed() - bookkeeping,
    )
}

/// What a measured phase produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Requests served.
    pub requests: u64,
    /// Host time inside `run_batch`, seconds.
    pub busy_s: f64,
    /// Service time of each batch, milliseconds.
    pub batch_ms: Vec<f64>,
    /// Requests whose response failed its check.
    pub failed: u64,
    /// Digest of the first [`WINDOW`] batches' responses.
    pub digest: u64,
    /// Hits and lookups over the first [`WINDOW`] batches.
    pub window: (u64, u64),
    /// How much slower than calm the host ran before the first batch and
    /// after each full window, by the [`Probe`].
    pub slowdown: Vec<f64>,
    /// Failure descriptions (first few).
    pub errors: Vec<String>,
}

/// Closed loop for `dur` (and at least [`WINDOW`] batches): generate a
/// batch, serve it (timed), check it; sample `probe` before the first
/// batch and after every window, outside the timing.
pub fn measure(rig: &mut Rig, dur: Duration, tr: &mut Tracer, probe: &mut Probe) -> Phase {
    let mut ph = Phase {
        slowdown: vec![probe.sample()],
        ..Phase::default()
    };
    let mut digest = Digest::default();
    let start = Instant::now();
    while ph.batch_ms.len() < WINDOW || start.elapsed() < dur {
        let reqs = tr.span("phase/SimilarityWorkload::batch", |_| {
            rig.mix.next(&mut rig.gen)
        });
        let t0 = Instant::now();
        let resps = tr.span("phase/Server::run_batch", |_| rig.server.run_batch(&reqs));
        let took = t0.elapsed().as_secs_f64();
        ph.busy_s += took;
        ph.batch_ms.push(took * 1e3);
        ph.requests += reqs.len() as u64;
        tr.span("phase/check", |_| {
            let bad = rig.oracle.check(&reqs, &resps);
            ph.failed += bad.len() as u64;
            ph.errors
                .extend(bad.into_iter().take(8usize.saturating_sub(ph.errors.len())));
            if ph.batch_ms.len() <= WINDOW {
                digest_responses(&mut digest, &resps);
                for (r, resp) in reqs.iter().zip(&resps) {
                    if !matches!(r, Request::Put(..)) {
                        ph.window.1 += 1;
                        ph.window.0 += u64::from(resp.is_hit());
                    }
                }
            }
        });
        if ph.batch_ms.len().is_multiple_of(WINDOW) {
            ph.slowdown.push(probe.sample());
        }
    }
    ph.digest = digest.0;
    ph
}

/// End-to-end metrics of a measured phase (all but `setup_s` and
/// `peak_rss_mib`).
pub fn end_to_end(ph: &Phase, out: &mut Outcome) {
    out.attempted += ph.requests;
    out.failed += ph.failed;
    out.digest = ph.digest;
    let raw: Vec<Vec<f64>> = ph
        .batch_ms
        .chunks_exact(WINDOW)
        .map(<[f64]>::to_vec)
        .collect();
    assert!(ph.slowdown.len() > raw.len(), "one probe per window");
    let figures = |windows: &[Vec<f64>]| {
        let per_window =
            |f: &dyn Fn(&[f64]) -> f64| calm(&windows.iter().map(|w| f(w)).collect::<Vec<_>>());
        [
            (WINDOW * BATCH) as f64 / per_window(&|w| w.iter().sum()) / 1e3,
            per_window(&|w| quantile(w, 0.5)),
            per_window(&|w| quantile(w, 0.9)),
        ]
    };
    // Each window's batch times divided by the mean slowdown of the
    // probes just before and just after it.
    let windows: Vec<Vec<f64>> = raw
        .iter()
        .zip(ph.slowdown.windows(2))
        .map(|(w, s)| w.iter().map(|&t| Probe::calibrate(t, s)).collect())
        .collect();
    let [throughput, p50, p90] = figures(&windows);
    out.set("throughput_mops", throughput);
    out.set("batch_p50_ms", p50);
    out.set("batch_p90_ms", p90);
    let uncalibrated = figures(&raw);
    out.note(format!(
        "host slowdown {:.4} over {} probes; uncalibrated throughput_mops {:.4} \
         batch_p50_ms {:.4} batch_p90_ms {:.4}",
        ph.slowdown.iter().sum::<f64>() / ph.slowdown.len() as f64,
        ph.slowdown.len(),
        uncalibrated[0],
        uncalibrated[1],
        uncalibrated[2],
    ));
    out.set("hit_rate", ph.window.0 as f64 / ph.window.1.max(1) as f64);
    let n = ph.batch_ms.len();
    out.note(format!(
        "batches {n} of {BATCH} in {} windows of {WINDOW} (p90 has {} beyond in each) \
         digest {:016x} over the first window",
        raw.len(),
        WINDOW - (0.9 * WINDOW as f64).ceil() as usize,
        ph.digest
    ));
    let deciles: Vec<String> = (1..10)
        .map(|d| format!("{:.3}", quantile(&ph.batch_ms, d as f64 / 10.0)))
        .collect();
    out.note(format!("batch_ms deciles {}", deciles.join(" ")));
    for e in &ph.errors {
        out.note(format!("FAILED: {e}"));
    }
}

/// Serve one request against a bare cache: the same state machine a
/// shard runs under its lock, without the lock and the routing.
fn apply(cache: &mut DoppelgangerCache, req: Request, region: &ApproxRegion) -> Response {
    let mut emit = |d| {
        std::hint::black_box(d);
    };
    match req {
        Request::Get(k) => cache
            .read(BlockAddr(k))
            .map_or(Response::Miss, Response::Hit),
        Request::Put(k, block) => {
            let addr = BlockAddr(k);
            if cache.contains(addr) {
                let moved = matches!(
                    cache.write_with(addr, block, Some(region), &mut emit),
                    WriteStatus::Moved { .. }
                );
                Response::Updated { moved }
            } else {
                let deduped = cache.insert_approx_with(addr, block, region, &mut emit);
                Response::Inserted { deduped }
            }
        }
        Request::Query(k, block) => {
            let addr = BlockAddr(k);
            if let Some(b) = cache.read(addr) {
                Response::Hit(b)
            } else if cache.insert_approx_with(addr, block, region, &mut emit) {
                Response::SimilarHit(cache.peek(addr).expect("just inserted"))
            } else {
                Response::Miss
            }
        }
    }
}

/// Server half of the layer ledger: the pooled server, a serial twin
/// fed through `Server::execute`, and bare per-shard caches replaying
/// each shard's suborder are warmed alike and then replay the same
/// batches. Every path must return the pooled server's responses.
pub fn ledger(mix: Mix, seed: u64, tr: &mut Tracer, out: &mut Outcome) {
    let cfg = ServeConfig::bench();
    let region = cfg.region();
    let pooled = Server::new(cfg).expect("bench config");
    let twin = Server::with_pool(cfg, Pool::with_workers(1)).expect("bench config");
    let mut bare: Vec<DoppelgangerCache> = (0..cfg.shards)
        .map(|_| DoppelgangerCache::new(cfg.cache))
        .collect();
    let mut gen = SimilarityWorkload::new(mix.spec(seed), &cfg);

    // Partition by shard, outside every timed span.
    let split = |reqs: &[Request]| {
        let mut parts: Vec<Vec<u32>> = vec![Vec::new(); cfg.shards];
        for (i, r) in reqs.iter().enumerate() {
            parts[pooled.shard_of(r.key())].push(i as u32);
        }
        parts
    };
    let replay_bare = |bare: &mut [DoppelgangerCache], reqs: &[Request], parts: &[Vec<u32>]| {
        let mut resps = vec![Response::Miss; reqs.len()];
        for (shard, part) in bare.iter_mut().zip(parts) {
            for &i in part {
                resps[i as usize] = apply(shard, reqs[i as usize], &region);
            }
        }
        resps
    };
    tr.span("ledger/warmup", |_| {
        for _ in 0..mix.warmup_batches() {
            let reqs = mix.next(&mut gen);
            pooled.run_batch(&reqs);
            twin.run_batch(&reqs);
            replay_bare(&mut bare, &reqs, &split(&reqs));
        }
    });
    pooled.reset_stats();

    // Each path replays every batch before the next path starts, so
    // each runs on its own warm state rather than on caches the other
    // paths just evicted.
    let batches: Vec<Vec<Request>> = (0..LEDGER_BATCHES)
        .map(|_| {
            let reqs = tr.span("dg-serve/SimilarityWorkload::batch", |_| mix.next(&mut gen));
            tr.count("dg-serve/SimilarityWorkload::batch", reqs.len() as f64);
            reqs
        })
        .collect();
    for reqs in &batches {
        tr.span("dg-serve/Server::shard_of", |tr| {
            let mut acc = 0usize;
            for r in reqs {
                acc ^= pooled.shard_of(std::hint::black_box(r.key()));
            }
            std::hint::black_box(acc);
            tr.count("dg-serve/Server::shard_of", reqs.len() as f64);
        });
    }
    let parts: Vec<_> = batches.iter().map(|reqs| split(reqs)).collect();
    let touched: usize = parts.iter().flatten().filter(|p| !p.is_empty()).count();
    let served: Vec<Vec<Response>> = batches
        .iter()
        .map(|reqs| {
            tr.count("dg-serve/Server::run_batch", reqs.len() as f64);
            tr.span("dg-serve/Server::run_batch", |_| pooled.run_batch(reqs))
        })
        .collect();
    let mut mismatches = 0u64;
    for (reqs, want) in batches.iter().zip(&served) {
        tr.count("dg-serve/Server::execute", reqs.len() as f64);
        let serial: Vec<Response> = tr.span("dg-serve/Server::execute", |_| {
            reqs.iter().map(|&r| twin.execute(r)).collect()
        });
        mismatches += want.iter().zip(&serial).filter(|(a, b)| a != b).count() as u64;
    }
    for ((reqs, part), want) in batches.iter().zip(&parts).zip(&served) {
        tr.count("doppelganger/apply", reqs.len() as f64);
        let replayed = tr.span("doppelganger/apply", |_| replay_bare(&mut bare, reqs, part));
        mismatches += want.iter().zip(&replayed).filter(|(a, b)| a != b).count() as u64;
    }
    let requests = (LEDGER_BATCHES * BATCH) as u64;
    out.attempted += requests;
    out.failed += mismatches;
    out.note(format!(
        "ledger: {LEDGER_BATCHES} batches, {mismatches} twin/bare response mismatches"
    ));

    // Fixed cost of one pool dispatch at the server's worker count.
    let pool = Pool::with_workers(pooled.workers());
    let spawn_us: Vec<f64> = (0..200)
        .map(|_| {
            tr.span("dg-par/Pool::run_report", |_| {
                let jobs: Vec<_> = (0..cfg.shards).map(|_| || ()).collect();
                pool.run_report(jobs).1.elapsed.as_secs_f64() * 1e6
            })
        })
        .collect();

    let st: ServeStats = pooled.stats();
    let shard_ops: Vec<f64> = pooled
        .shard_stats()
        .iter()
        .map(|s| s.ops() as f64)
        .collect();
    let mean_ops = shard_ops.iter().sum::<f64>() / shard_ops.len() as f64;
    let max_ops = shard_ops.iter().copied().fold(0.0, f64::max);
    let route = tr.ns_per("dg-serve/Server::shard_of");
    let execute = tr.ns_per("dg-serve/Server::execute");
    let apply = tr.ns_per("doppelganger/apply");
    let lookups = st.lookups().max(1) as f64;
    out.set("apply_ns_per_req", apply);
    out.set(
        "map_generations_per_req",
        pooled.cache_stats().map_generations as f64 / st.ops().max(1) as f64,
    );
    out.set(
        "gen_ns_per_req",
        tr.ns_per("dg-serve/SimilarityWorkload::batch"),
    );
    out.set("route_ns_per_req", route);
    out.set("execute_ns_per_req", execute);
    out.set("batch_ns_per_req", tr.ns_per("dg-serve/Server::run_batch"));
    out.set(
        "batch_overhead_ns_per_req",
        tr.ns_per("dg-serve/Server::run_batch") - execute,
    );
    out.set("lock_ns_per_req", execute - route - apply);
    out.set("shards_per_batch", touched as f64 / LEDGER_BATCHES as f64);
    out.set("shard_imbalance", max_ops / mean_ops.max(1.0));
    out.set(
        "exact_hit_share",
        (st.get_hits + st.query_exact_hits) as f64 / lookups,
    );
    out.set("similar_hit_share", st.query_similar_hits as f64 / lookups);
    out.set(
        "displaced_per_op",
        st.displaced as f64 / st.ops().max(1) as f64,
    );
    out.set(
        "put_moved_share",
        st.put_moved as f64 / st.puts.max(1) as f64,
    );
    out.set("spawn_join_us", median(&spawn_us));
}
