//! The simulator workloads: `sim-detailed` (every access through the
//! hierarchy, one configuration per LLC organization) and `sim-sampled`
//! (the committed interval-sampled reproduction configuration).
//!
//! Jobs run serially on the calling thread, so host time measures the
//! simulator and not the scheduler. Each job is a pure function of the
//! seed, so every pass over the job list must reproduce the first
//! pass's digest exactly.

use std::time::{Duration, Instant};

use dg_bench::check::check_configs;
use dg_bench::experiments::{suite_with_seed, Scale, SEED};
use dg_bench::sampled::sampling_params;
use dg_cache::CompStats;
use dg_compress::bdi;
use dg_mem::{BlockAddr, TraceStream};
use dg_sample::{profile, SampleSchedule};
use dg_system::{
    evaluate_and_snapshots, evaluate_with_golden, golden_output, run_sampled, EvalResult, LlcKind,
    SystemConfig,
};
use dg_workloads::{prepare, Kernel, KernelSource};
use doppelganger::{DoppStats, DoppelgangerCache};

use crate::trace::Tracer;
use crate::{quantile, Digest, Outcome, Probe, ORGS};

/// Problem size of both simulator workloads.
pub const SCALE: Scale = Scale::Medium;

/// Representative intervals per kernel on `sim-sampled`.
pub const K: usize = 8;

/// Simulated worker threads of every kernel run.
fn threads() -> usize {
    SCALE.threads()
}

/// One configuration per LLC organization, labelled as in [`ORGS`].
pub fn detailed_configs() -> Vec<(&'static str, SystemConfig)> {
    vec![
        (ORGS[0], SCALE.baseline()),
        (ORGS[1], SCALE.split(14, 1, 4)),
        (ORGS[2], SCALE.unified(1, 2)),
        (ORGS[3], SCALE.compressed(4)),
    ]
}

/// The kernel suite with everything a measured pass needs.
pub struct Suite {
    kernels: Vec<Box<dyn Kernel>>,
    goldens: Vec<Vec<f64>>,
    /// Per-kernel `(profiled accesses, schedule)`, built for
    /// `sim-sampled` (or on demand by the ledger).
    schedules: Vec<(u64, SampleSchedule)>,
}

/// Build the suite: kernels, their golden outputs and, when `sampled`,
/// one profile and one K-interval schedule per kernel.
pub fn setup(seed: u64, sampled: bool, tr: &mut Tracer) -> Suite {
    let kernels = tr.span("dg-bench/suite_with_seed", |_| suite_with_seed(SCALE, seed));
    let goldens = kernels
        .iter()
        .map(|k| {
            tr.span("dg-system/golden_output", |_| {
                golden_output(k.as_ref(), threads())
            })
        })
        .collect();
    let mut suite = Suite {
        kernels,
        goldens,
        schedules: Vec::new(),
    };
    if sampled {
        suite.build_schedules(tr);
    }
    suite
}

impl Suite {
    fn build_schedules(&mut self, tr: &mut Tracer) {
        let cores = SCALE.baseline().cores;
        let (interval_len, warmup_len) = sampling_params(SCALE);
        self.schedules = self
            .kernels
            .iter()
            .map(|k| {
                let p = tr.span("dg-sample/profile", |_| {
                    profile(
                        &mut KernelSource::new(k.as_ref(), threads(), cores),
                        interval_len,
                    )
                });
                // The interval selection seed is the reproduction's own,
                // as in `repro_all --sampled`; only the inputs vary.
                let s = tr.span("dg-sample/schedule", |_| {
                    SampleSchedule::build(&p, K, warmup_len, SEED)
                });
                (p.total_accesses, s)
            })
            .collect();
    }
}

/// Per-organization totals over one pass.
#[derive(Clone, Debug, Default)]
pub struct OrgTotals {
    accesses: u64,
    lookups: u64,
    hits: u64,
    off_chip: u64,
    dopp: DoppStats,
    comp: CompStats,
}

impl OrgTotals {
    fn add(&mut self, r: &EvalResult) {
        self.accesses += r.accesses;
        self.lookups += r.llc.lookups;
        self.hits += r.llc.hits;
        self.off_chip += r.off_chip_blocks;
        self.dopp += r.llc.dopp;
        self.comp += r.llc.comp;
    }
}

/// What a measured phase produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Represented simulated accesses over every pass.
    pub ops: u64,
    /// Host time inside the simulator calls, seconds.
    pub busy_s: f64,
    /// Host time of each job, milliseconds.
    pub job_ms: Vec<f64>,
    /// How much slower than calm the host ran before the first job and
    /// after each job, by the [`Probe`] (empty when no probe ran).
    pub slowdown: Vec<f64>,
    /// Jobs run and jobs whose output check failed.
    pub attempted: u64,
    /// Jobs whose check failed (or whose pass digest diverged).
    pub failed: u64,
    /// Digest of the first pass.
    pub digest: u64,
    /// Passes run.
    pub passes: u64,
    /// First pass: per-organization totals (`sim-detailed`), in
    /// [`detailed_configs`] order.
    pub orgs: Vec<OrgTotals>,
    /// First pass: accesses simulated in detail and represented
    /// accesses (`sim-sampled`).
    pub detailed: (u64, u64),
    /// First pass: LLC hits and lookups.
    pub llc: (u64, u64),
    /// Failure descriptions (first few).
    pub errors: Vec<String>,
}

impl Phase {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }
}

/// Output checks shared by both workloads: the baseline is exact, and
/// every error is a finite fraction.
fn check_error(label: &str, r: &EvalResult) -> Result<(), String> {
    if label == ORGS[0] && r.output_error != 0.0 {
        return Err(format!(
            "baseline {} output_error {} != 0",
            r.kernel, r.output_error
        ));
    }
    if !(r.output_error.is_finite() && (0.0..=1.0).contains(&r.output_error)) {
        return Err(format!(
            "{label} {} output_error {} outside [0, 1]",
            r.kernel, r.output_error
        ));
    }
    Ok(())
}

/// One simulation job: its result, its check and the accesses it
/// simulated in detail.
type Job = fn(&Suite, usize, &str, SystemConfig, &mut Tracer, &mut Digest) -> JobOutcome;
type JobOutcome = (EvalResult, Result<(), String>, u64);

/// One `run_sampled` job: its outcome as an [`EvalResult`], its check
/// and the accesses it simulated in detail.
fn sampled_job(
    suite: &Suite,
    i: usize,
    label: &str,
    cfg: SystemConfig,
    tr: &mut Tracer,
    digest: &mut Digest,
) -> JobOutcome {
    let (total, sched) = &suite.schedules[i];
    let o = tr.span("dg-system/run_sampled", |_| {
        run_sampled(
            suite.kernels[i].as_ref(),
            cfg,
            threads(),
            sched,
            &suite.goldens[i],
        )
    });
    tr.count("dg-system/run_sampled", o.result.accesses as f64);
    digest.bytes(format!("{label}{o:?}").as_bytes());
    let e = &o.estimates;
    let finite = [
        e.miss_rate.value,
        e.miss_rate.ci,
        e.dopp_hit_rate.value,
        e.dopp_hit_rate.ci,
        e.output_error.value,
        e.output_error.ci,
        e.simulated_fraction,
    ]
    .iter()
    .all(|v| v.is_finite());
    // Value-exact organizations execute the profiled stream access for
    // access. Under approximate ones a kernel whose control flow reads
    // approximate values (canneal's move acceptance) runs a slightly
    // different stream, in full runs too; there the run must still
    // reach and measure every selected interval, the profile's tail
    // included.
    let exact = matches!(cfg.llc, LlcKind::Baseline | LlcKind::Compressed(_));
    let kernel = o.result.kernel;
    let check = check_error(label, &o.result).and_then(|()| {
        if exact && o.result.accesses != *total {
            Err(format!(
                "{label} {kernel} covered {} of {total} profiled accesses",
                o.result.accesses
            ))
        } else if e.measured_intervals != sched.intervals.len() {
            Err(format!(
                "{label} {kernel} measured {} of {} selected intervals",
                e.measured_intervals,
                sched.intervals.len()
            ))
        } else if !finite {
            Err(format!("{label} {kernel} has a non-finite estimate"))
        } else {
            Ok(())
        }
    });
    (o.result, check, o.detailed_accesses)
}

/// One `evaluate_with_golden` job and its check.
fn detailed_job(
    suite: &Suite,
    i: usize,
    label: &str,
    cfg: SystemConfig,
    tr: &mut Tracer,
    digest: &mut Digest,
) -> JobOutcome {
    let name = format!("dg-system/evaluate_with_golden/{label}");
    let r = tr.span(&name, |_| {
        evaluate_with_golden(suite.kernels[i].as_ref(), cfg, threads(), &suite.goldens[i])
    });
    tr.count(&name, r.accesses as f64);
    digest.bytes(format!("{label}{r:?}").as_bytes());
    let check = check_error(label, &r);
    (r, check, 0)
}

/// One pass over every (configuration, kernel) job, appended to `ph`,
/// sampling `probe` after every job, outside its timing.
fn pass(
    suite: &Suite,
    sampled: bool,
    tr: &mut Tracer,
    ph: &mut Phase,
    mut probe: Option<&mut Probe>,
) {
    let first = ph.passes == 0;
    let mut digest = Digest::default();
    let (configs, job): (_, Job) = if sampled {
        (check_configs(SCALE), sampled_job)
    } else {
        (detailed_configs(), detailed_job)
    };
    for (label, cfg) in configs {
        let mut org = OrgTotals::default();
        for i in 0..suite.kernels.len() {
            let t0 = Instant::now();
            let (result, check, detailed) = job(suite, i, label, cfg, tr, &mut digest);
            let took = t0.elapsed().as_secs_f64();
            ph.attempted += 1;
            ph.ops += result.accesses;
            ph.busy_s += took;
            ph.job_ms.push(took * 1e3);
            if let Some(p) = probe.as_deref_mut() {
                ph.slowdown.push(p.sample());
            }
            if let Err(why) = check {
                ph.fail(why);
            }
            if first {
                org.add(&result);
                if sampled {
                    ph.detailed.0 += detailed;
                    ph.detailed.1 += result.accesses;
                }
                ph.llc.0 += result.llc.hits;
                ph.llc.1 += result.llc.lookups;
            }
        }
        if first && !sampled {
            ph.orgs.push(org);
        }
    }
    if first {
        ph.digest = digest.0;
    } else if digest.0 != ph.digest {
        ph.fail(format!(
            "pass {} digest {:016x} != first pass {:016x}",
            ph.passes, digest.0, ph.digest
        ));
    }
    ph.passes += 1;
}

/// Run whole passes until `dur` has elapsed (at least one pass),
/// sampling `probe` before the first job and after every job.
pub fn measure(
    suite: &Suite,
    sampled: bool,
    dur: Duration,
    tr: &mut Tracer,
    probe: &mut Probe,
) -> Phase {
    let mut ph = Phase {
        slowdown: vec![probe.sample()],
        ..Phase::default()
    };
    let start = Instant::now();
    while ph.passes == 0 || start.elapsed() < dur {
        pass(suite, sampled, tr, &mut ph, Some(probe));
    }
    ph
}

/// End-to-end metrics of a measured phase (all but `setup_s` and
/// `peak_rss_mib`).
pub fn end_to_end(ph: &Phase, out: &mut Outcome) {
    out.attempted += ph.attempted;
    out.failed += ph.failed;
    out.digest = ph.digest;
    // Rates and percentiles over every job of every pass (a few passes
    // fit in a run, too few for the calm value of each job to settle),
    // each job's time divided by the mean slowdown of the probes just
    // before and just after it.
    assert_eq!(ph.slowdown.len(), ph.job_ms.len() + 1, "one probe per job");
    let samples = ph.job_ms.len();
    let job_ms: Vec<f64> = ph
        .job_ms
        .iter()
        .zip(ph.slowdown.windows(2))
        .map(|(&t, s)| Probe::calibrate(t, s))
        .collect();
    let calibrated_ms: f64 = job_ms.iter().sum();
    out.set("throughput_mops", ph.ops as f64 / calibrated_ms / 1e3);
    out.set("batch_p50_ms", quantile(&job_ms, 0.5));
    out.set("batch_p90_ms", quantile(&job_ms, 0.9));
    out.note(format!(
        "host slowdown {:.4} over {} probes; uncalibrated throughput_mops {:.4} \
         batch_p50_ms {:.4} batch_p90_ms {:.4}",
        ph.busy_s * 1e3 / calibrated_ms,
        ph.slowdown.len(),
        ph.ops as f64 / ph.busy_s / 1e6,
        quantile(&ph.job_ms, 0.5),
        quantile(&ph.job_ms, 0.9),
    ));
    out.set("hit_rate", ph.llc.0 as f64 / ph.llc.1.max(1) as f64);
    out.note(format!(
        "passes {} jobs {samples} (p90 has {} beyond) digest {:016x}",
        ph.passes,
        samples - (0.9 * samples as f64).ceil() as usize,
        ph.digest
    ));
    for e in &ph.errors {
        out.note(format!("FAILED: {e}"));
    }
}

/// Simulator half of the layer ledger. `suite` is the workload's own
/// suite; `phase` is its traced phase, whose spans and first-pass
/// totals are reused where they exist. Missing passes run once here.
pub fn ledger(suite: &mut Suite, phase: Option<&Phase>, tr: &mut Tracer, out: &mut Outcome) {
    for k in &suite.kernels {
        tr.span("dg-workloads/prepare", |_| prepare(k.as_ref()));
    }
    let cores = SCALE.baseline().cores;
    for k in &suite.kernels {
        tr.span("dg-mem/TraceStream::visit", |tr| {
            let mut n = 0u64;
            KernelSource::new(k.as_ref(), threads(), cores)
                .visit(0, u64::MAX, &mut |_, chunk| n += chunk.len() as u64);
            tr.count("dg-mem/TraceStream::visit", n as f64);
        });
    }

    // Per-organization runs: from the traced phase, or one pass here.
    let own;
    let orgs = match phase {
        Some(ph) if !ph.orgs.is_empty() => &ph.orgs,
        _ => {
            let mut ph = Phase::default();
            pass(suite, false, tr, &mut ph, None);
            fold_failures(&ph, out);
            own = ph.orgs;
            &own
        }
    };
    tr.count("dg-system/golden_output", orgs[0].accesses as f64);
    let kernel_ns = tr.ns_per("dg-system/golden_output");
    let run_ns: Vec<f64> = ORGS
        .iter()
        .map(|o| tr.ns_per(&format!("dg-system/evaluate_with_golden/{o}")))
        .collect();

    // Sampled runs: from the traced phase, or one pass here.
    if suite.schedules.is_empty() {
        suite.build_schedules(tr);
    }
    let detailed = match phase {
        Some(ph) if ph.detailed.1 > 0 => ph.detailed,
        _ => {
            let mut ph = Phase::default();
            pass(suite, true, tr, &mut ph, None);
            fold_failures(&ph, out);
            ph.detailed
        }
    };
    let sampled_ns = tr.ns_per("dg-system/run_sampled");

    // Micro-calls on the approximate blocks the baseline LLC held.
    let baseline = SCALE.baseline();
    let blocks: Vec<_> = suite
        .kernels
        .iter()
        .zip(&suite.goldens)
        .flat_map(|(k, g)| {
            tr.span("dg-system/evaluate_and_snapshots", |_| {
                evaluate_and_snapshots(k.as_ref(), baseline, threads(), g).1
            })
        })
        .flatten()
        .collect();
    let LlcKind::Split(dopp) = SCALE.split(14, 1, 4).llc else {
        unreachable!("split config")
    };
    const REPS: usize = 20;
    for _ in 0..REPS {
        tr.span("doppelganger/MapSpace::map_block", |tr| {
            let mut acc = 0u64;
            for (b, region) in &blocks {
                acc ^= dopp.map_space.map_block(b, region).0;
            }
            std::hint::black_box(acc);
            tr.count("doppelganger/MapSpace::map_block", blocks.len() as f64);
        });
        let mut cache = DoppelgangerCache::new(dopp);
        tr.span("doppelganger/insert_approx_with", |tr| {
            for (i, (b, region)) in blocks.iter().enumerate() {
                cache.insert_approx_with(BlockAddr(i as u64), *b, region, &mut |d| {
                    std::hint::black_box(d);
                });
            }
            tr.count("doppelganger/insert_approx_with", blocks.len() as f64);
        });
        tr.span("doppelganger/read", |tr| {
            let mut found = 0u64;
            for i in 0..blocks.len() {
                found += u64::from(cache.read(BlockAddr(i as u64)).is_some());
            }
            std::hint::black_box(found);
            tr.count("doppelganger/read", blocks.len() as f64);
        });
        tr.span("dg-compress/bdi::compress", |tr| {
            for (b, _) in &blocks {
                std::hint::black_box(bdi::compress(b));
            }
            tr.count("dg-compress/bdi::compress", blocks.len() as f64);
        });
    }
    out.note(format!("snapshot blocks {} x {REPS} reps", blocks.len()));

    let LlcKind::Compressed(comp) = detailed_configs()[3].1.llc else {
        unreachable!("compressed config")
    };
    out.set("prepare_s", tr.self_s("dg-workloads/prepare"));
    out.set("kernel_ns_per_access", kernel_ns);
    out.set(
        "stream_ns_per_access",
        tr.ns_per("dg-mem/TraceStream::visit"),
    );
    out.set("profile_s", tr.self_s("dg-sample/profile"));
    out.set("schedule_s", tr.self_s("dg-sample/schedule"));
    out.set(
        "detailed_share",
        detailed.0 as f64 / detailed.1.max(1) as f64,
    );
    for (o, ns) in ORGS.iter().zip(&run_ns) {
        out.set(format!("run_ns_per_access.{o}"), *ns);
    }
    for (o, ns) in ORGS.iter().zip(&run_ns) {
        out.set(format!("hierarchy_ns_per_access.{o}"), ns - kernel_ns);
    }
    out.set("sampled_ns_per_access", sampled_ns);
    out.set("skip_overhead_ns_per_access", sampled_ns - kernel_ns);
    for (o, t) in ORGS.iter().zip(orgs) {
        out.set(format!("llc_lookups.{o}"), t.lookups as f64);
    }
    for (o, t) in ORGS.iter().zip(orgs) {
        out.set(
            format!("llc_hit_rate.{o}"),
            t.hits as f64 / t.lookups.max(1) as f64,
        );
    }
    for (o, t) in ORGS.iter().zip(orgs) {
        out.set(format!("off_chip_blocks.{o}"), t.off_chip as f64);
    }
    out.set("split_extra_ns_per_access", run_ns[1] - run_ns[0]);
    out.set("unified_extra_ns_per_access", run_ns[2] - run_ns[0]);
    out.set("map_ns", tr.ns_per("doppelganger/MapSpace::map_block"));
    out.set("insert_ns", tr.ns_per("doppelganger/insert_approx_with"));
    out.set("read_ns", tr.ns_per("doppelganger/read"));
    for i in [1, 2] {
        out.set(
            format!("map_generations.{}", ORGS[i]),
            orgs[i].dopp.map_generations as f64,
        );
    }
    for i in [1, 2] {
        out.set(
            format!("data_evictions.{}", ORGS[i]),
            orgs[i].dopp.data_evictions as f64,
        );
    }
    for i in [1, 2] {
        let d = &orgs[i].dopp;
        let allocations = d.insertions.saturating_sub(d.shared_insertions).max(1);
        out.set(
            format!("sharing_factor.{}", ORGS[i]),
            d.insertions as f64 / allocations as f64,
        );
    }
    out.set("compressed_extra_ns_per_access", run_ns[3] - run_ns[0]);
    out.set("bdi_ns", tr.ns_per("dg-compress/bdi::compress"));
    out.set(
        "comp_stored_fraction",
        orgs[3].comp.stored_fraction(comp.segment_bytes),
    );
}

fn fold_failures(ph: &Phase, out: &mut Outcome) {
    out.attempted += ph.attempted;
    out.failed += ph.failed;
    for e in &ph.errors {
        out.note(format!("FAILED: {e}"));
    }
}
