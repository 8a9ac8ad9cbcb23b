//! End-to-end and per-layer benchmark of the two products built on the
//! Doppelgänger machinery: the simulator that reproduces the paper's
//! approximate LLC, and the `dg-serve` similarity cache.
//!
//! A run measures one named workload from one seed ([`Args`]). The
//! untraced run reports the end-to-end metrics ([`END_TO_END`]); the
//! traced run times calls into each crate's public functions from this
//! package's own code ([`trace::Tracer`]) and reports the per-layer
//! ledger ([`PER_LAYER`]). Instrumentation inside the program stays off
//! (`dg_obs::Level::Off`) in both.

pub mod report;
pub mod serve;
pub mod sim;
pub mod trace;

use std::time::Duration;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["sim-detailed", "sim-sampled", "serve-query", "serve-churn"];

/// One reported metric: name, unit and which direction is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
}

const fn m(name: &'static str, unit: &'static str, higher_is_better: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
    }
}

/// End-to-end metrics every untraced run reports.
///
/// A *batch* is one served batch of 8192 requests on `serve-*` and one
/// (configuration, kernel) simulation job on `sim-*`; an *op* is a
/// served request or a represented simulated core access.
pub const END_TO_END: &[MetricDef] = &[
    m("throughput_mops", "Mops/s", true),
    m("setup_s", "s", false),
    m("peak_rss_mib", "MiB", false),
    m("batch_p50_ms", "ms", false),
    m("batch_p90_ms", "ms", false),
    m("hit_rate", "fraction", true),
];

/// The four LLC organizations of `sim-detailed`, as metric suffixes.
pub const ORGS: [&str; 4] = ["baseline", "split", "unified", "compressed"];

/// Per-layer metrics every traced run reports, grouped by crate.
pub const PER_LAYER: &[MetricDef] = &[
    // dg-workloads
    m("prepare_s", "s", false),
    m("kernel_ns_per_access", "ns", false),
    // dg-mem
    m("stream_ns_per_access", "ns", false),
    // dg-sample
    m("profile_s", "s", false),
    m("schedule_s", "s", false),
    m("detailed_share", "fraction", false),
    // dg-system
    m("run_ns_per_access.baseline", "ns", false),
    m("run_ns_per_access.split", "ns", false),
    m("run_ns_per_access.unified", "ns", false),
    m("run_ns_per_access.compressed", "ns", false),
    m("hierarchy_ns_per_access.baseline", "ns", false),
    m("hierarchy_ns_per_access.split", "ns", false),
    m("hierarchy_ns_per_access.unified", "ns", false),
    m("hierarchy_ns_per_access.compressed", "ns", false),
    m("sampled_ns_per_access", "ns", false),
    m("skip_overhead_ns_per_access", "ns", false),
    m("llc_lookups.baseline", "count", false),
    m("llc_lookups.split", "count", false),
    m("llc_lookups.unified", "count", false),
    m("llc_lookups.compressed", "count", false),
    m("llc_hit_rate.baseline", "fraction", true),
    m("llc_hit_rate.split", "fraction", true),
    m("llc_hit_rate.unified", "fraction", true),
    m("llc_hit_rate.compressed", "fraction", true),
    m("off_chip_blocks.baseline", "count", false),
    m("off_chip_blocks.split", "count", false),
    m("off_chip_blocks.unified", "count", false),
    m("off_chip_blocks.compressed", "count", false),
    // doppelganger
    m("split_extra_ns_per_access", "ns", false),
    m("unified_extra_ns_per_access", "ns", false),
    m("map_ns", "ns", false),
    m("insert_ns", "ns", false),
    m("read_ns", "ns", false),
    m("apply_ns_per_req", "ns", false),
    m("map_generations.split", "count", false),
    m("map_generations.unified", "count", false),
    m("data_evictions.split", "count", false),
    m("data_evictions.unified", "count", false),
    m("sharing_factor.split", "ratio", true),
    m("sharing_factor.unified", "ratio", true),
    m("map_generations_per_req", "ratio", false),
    // dg-cache / dg-compress
    m("compressed_extra_ns_per_access", "ns", false),
    m("bdi_ns", "ns", false),
    m("comp_stored_fraction", "fraction", false),
    // dg-serve
    m("gen_ns_per_req", "ns", false),
    m("route_ns_per_req", "ns", false),
    m("execute_ns_per_req", "ns", false),
    m("batch_ns_per_req", "ns", false),
    m("batch_overhead_ns_per_req", "ns", false),
    m("lock_ns_per_req", "ns", false),
    m("shards_per_batch", "count", false),
    m("shard_imbalance", "ratio", false),
    m("exact_hit_share", "fraction", true),
    m("similar_hit_share", "fraction", true),
    m("displaced_per_op", "ratio", false),
    m("put_moved_share", "fraction", false),
    // dg-par
    m("spawn_join_us", "us", false),
    // the benchmark's own tracer
    m("trace_overhead", "fraction", false),
];

/// Parsed command line of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Workload name, or `all`.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run (per-layer ledger) instead of the end-to-end run.
    pub trace: bool,
}

impl Args {
    /// Usage message printed on a parse error.
    pub const USAGE: &'static str = "usage: perfbench --workload <sim-detailed|sim-sampled|\
serve-query|serve-churn|all> --seed <n> --seconds <s> --trace <0|1>";

    /// Parse the arguments after the program name. Every flag is
    /// required once; anything else is an error.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let slot_taken = match flag.as_str() {
                "--workload" => workload.replace(value.clone()).is_some(),
                "--seed" => seed
                    .replace(
                        value
                            .parse::<u64>()
                            .map_err(|_| format!("bad seed '{value}'"))?,
                    )
                    .is_some(),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|_| format!("bad seconds '{value}'"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("seconds must be positive, got '{value}'"));
                    }
                    seconds.replace(s).is_some()
                }
                "--trace" => {
                    let t = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("trace must be 0 or 1, got '{value}'")),
                    };
                    trace.replace(t).is_some()
                }
                _ => return Err(format!("unknown argument '{flag}'")),
            };
            if slot_taken {
                return Err(format!("{flag} given twice"));
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload '{workload}'"));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }

    /// The measured-phase length.
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What one workload run produced.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcome {
    /// Operations attempted (requests served or simulation jobs run).
    pub attempted: u64,
    /// Attempted operations whose output check failed.
    pub failed: u64,
    /// Metric values as recorded: `(name, value)`.
    pub metrics: Vec<(String, f64)>,
    /// Digest of the run's simulated or served behaviour.
    pub digest: u64,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a metric value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// Append a note line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// The run-level figure of repeated timings of the same work: their
/// lower quartile. Host interference on a shared machine only ever
/// slows work down, and it comes in bursts that can last seconds, so
/// the faster quarter of the samples tracks the program's own speed
/// with less spread between runs than their median does.
pub fn calm(times: &[f64]) -> f64 {
    quantile(times, 0.25)
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank `q`-quantile of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// A fixed piece of the benchmark's own memory-bound work, timed between
/// simulation jobs or windows of served batches to gauge how fast the
/// shared host runs at the moment.
///
/// Both products spend their time walking caches and tables that
/// overflow a core's private caches, so their speed follows how much of
/// the host's shared last-level cache and memory bandwidth other tenants
/// leave them; that swings by 20-50% over seconds to minutes. Random
/// read-modify-writes over a table of a few MiB slow down with it,
/// while the program under test never touches the probe, so a change to
/// the program moves the probe-calibrated figures and most of the
/// host's swings cancel out of them.
pub struct Probe {
    table: Vec<u64>,
    state: u64,
}

impl Probe {
    /// Size of the probe's table: in the range of a simulator job's
    /// working set, and taken out of `peak_rss_mib`.
    pub const BYTES: usize = 4 << 20;

    /// Random read-modify-writes per sample.
    const STEPS: usize = 1 << 16;

    /// Seconds one sample takes on a calm host of the reference machine
    /// (a 2-vCPU Intel Xeon 4th-generation KVM guest), so calibrated
    /// figures read close to raw ones there.
    pub const NOMINAL_S: f64 = 650e-6;

    /// A probe with its table in memory.
    pub fn new() -> Self {
        Probe {
            table: (0..(Self::BYTES / 8) as u64).collect(),
            state: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Time one sample: how much slower than calm the host runs now, as
    /// its time over [`Probe::NOMINAL_S`].
    pub fn sample(&mut self) -> f64 {
        let mask = self.table.len() - 1;
        let t0 = std::time::Instant::now();
        let (mut x, mut acc) = (self.state, 0u64);
        for _ in 0..Self::STEPS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let i = (x >> 40) as usize & mask;
            acc = acc.wrapping_add(self.table[i] ^ (acc >> 7));
            self.table[i] = acc;
        }
        let took = t0.elapsed().as_secs_f64();
        self.state = std::hint::black_box(x);
        took / Self::NOMINAL_S
    }

    /// `time` divided by the mean of the slowdowns sampled just before
    /// and just after it (`around`, a window of two samples).
    pub fn calibrate(time: f64, around: &[f64]) -> f64 {
        time * 2.0 / (around[0] + around[1])
    }
}

impl Default for Probe {
    fn default() -> Self {
        Self::new()
    }
}

/// 64-bit FNV-1a: the behaviour digest of a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold `bytes` into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// CPU time the hypervisor took from this machine's CPUs so far, in
/// `USER_HZ` ticks (the `steal` column of `/proc/stat`), if readable.
/// Stolen time stalls a measurement without being the program's cost.
pub fn host_steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload serve-query --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, "serve-query");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for bad in [
            "",
            "--workload serve-query --seed 7 --seconds 10",
            "--workload nope --seed 7 --seconds 10 --trace 0",
            "--workload all --seed -1 --seconds 10 --trace 0",
            "--workload all --seed 1 --seconds 0 --trace 0",
            "--workload all --seed 1 --seconds 10 --trace 2",
            "--workload all --seed 1 --seed 2 --seconds 10 --trace 0",
            "--workload all --seed 1 --seconds 10 --trace 0 --extra",
        ] {
            assert!(args(bad).is_err(), "accepted '{bad}'");
        }
    }

    #[test]
    fn probe_calibrates_by_the_samples_around_a_time() {
        assert_eq!(Probe::calibrate(10.0, &[1.0, 3.0]), 5.0);
        assert_eq!(Probe::calibrate(4.0, &[1.0, 1.0]), 4.0);
        let mut probe = Probe::new();
        let s = probe.sample();
        assert!(s.is_finite() && s > 0.0, "slowdown {s}");
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
        assert_eq!(median(&[]), 0.0);
    }
}
