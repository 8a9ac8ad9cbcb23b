//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and the end-to-end metrics (untraced)
//! or the per-layer metrics (traced). `--workload all` runs every
//! workload untraced and traced, each in its own process, and prints
//! one document with a row per workload.

use std::process::{Command, ExitCode};
use std::time::Instant;

use dg_bench::experiments::Scale;
use dg_bench::meta::RunMeta;
use perfbench::report::{self, Row};
use perfbench::serve::{self, Mix};
use perfbench::sim;
use perfbench::trace::Tracer;
use perfbench::{
    host_steal_ticks, median, peak_rss_mib, Args, Outcome, Probe, END_TO_END, PER_LAYER, WORKLOADS,
};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", Args::USAGE);
            return ExitCode::from(2);
        }
    };
    // Instrumentation inside the program stays off: every span below is
    // the benchmark's own.
    dg_obs::set_level(dg_obs::Level::Off);
    if args.workload == "all" {
        return run_all(&args);
    }
    println!(
        "perfbench {} seed {} seconds {} trace {} workers {} meta {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        dg_par::default_workers(),
        RunMeta::capture(Scale::Medium)
            .to_json(0)
            .replace('\n', " ")
    );
    let (out, defs) = if args.trace {
        (traced(&args), PER_LAYER)
    } else {
        (untraced(&args), END_TO_END)
    };
    for line in &out.notes {
        println!("{line}");
    }
    println!("digest {:016x}", out.digest);
    match report::result_line(&out, defs) {
        Ok(line) => {
            println!("{line}");
            if out.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Set up `SETUP_REPS` times (keeping the last), then measure. Every
/// set-up is timed between two probe samples, like the measured work.
fn untraced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    // Allocated first, so that it is resident through the whole run and
    // its table is exactly what is taken out of the peak memory.
    let mut probe = Probe::new();
    let mut slowdown = vec![probe.sample()];
    let off = &mut Tracer::off();
    if let Some(mix) = Mix::of(&args.workload) {
        let mut rig = None;
        for _ in 0..SETUP_REPS {
            drop(rig.take());
            let (r, took) = serve::setup(mix, args.seed, off);
            setups.push(took.as_secs_f64());
            slowdown.push(probe.sample());
            rig = Some(r);
        }
        let (steal, t0) = (host_steal_ticks(), Instant::now());
        let ph = serve::measure(
            rig.as_mut().expect("set up"),
            args.duration(),
            off,
            &mut probe,
        );
        out.note(steal_note(steal, t0));
        serve::end_to_end(&ph, &mut out);
    } else {
        let sampled = args.workload == "sim-sampled";
        let mut suite = None;
        for _ in 0..SETUP_REPS {
            drop(suite.take());
            let t0 = Instant::now();
            suite = Some(sim::setup(args.seed, sampled, off));
            setups.push(t0.elapsed().as_secs_f64());
            slowdown.push(probe.sample());
        }
        let (steal, t0) = (host_steal_ticks(), Instant::now());
        let ph = sim::measure(
            suite.as_ref().expect("set up"),
            sampled,
            args.duration(),
            off,
            &mut probe,
        );
        out.note(steal_note(steal, t0));
        sim::end_to_end(&ph, &mut out);
    }
    let calibrated: Vec<f64> = setups
        .iter()
        .zip(slowdown.windows(2))
        .map(|(&t, s)| Probe::calibrate(t, s))
        .collect();
    out.note(format!(
        "setup_s reps {setups:?}, calibrated {calibrated:?}"
    ));
    out.set("setup_s", median(&calibrated));
    match peak_rss_mib() {
        Ok(mib) => out.set("peak_rss_mib", mib - Probe::BYTES as f64 / (1 << 20) as f64),
        Err(e) => out.note(format!("peak_rss_mib unavailable: {e}")),
    }
    out
}

/// The share of CPU time the hypervisor stole since `t0`, when it was
/// `ticks` (`USER_HZ` = 100 ticks per second per CPU).
fn steal_note(ticks: Option<u64>, t0: Instant) -> String {
    match (ticks, host_steal_ticks()) {
        (Some(a), Some(b)) => {
            let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
            let cpu_ticks = t0.elapsed().as_secs_f64() * 100.0 * cpus as f64;
            format!(
                "host steal during the measured phase: {:.1}% of CPU time",
                100.0 * b.saturating_sub(a) as f64 / cpu_ticks
            )
        }
        _ => "host steal unknown".to_string(),
    }
}

/// Half the measured time untraced, half traced (from the same state,
/// which must give the same digest), then the layer ledger of both
/// products. Spans go to `perfbench-out/`.
fn traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let half = args.duration() / 2;
    let mut tr = Tracer::on();
    let wall = Instant::now();
    let root = tr.open("perfbench/traced-run");
    let off = &mut Tracer::off();
    let probe = &mut Probe::new();
    let (untraced_ns, traced_ns, digests) = if let Some(mix) = Mix::of(&args.workload) {
        let (mut rig, _) = serve::setup(mix, args.seed, off);
        let u = serve::measure(&mut rig, half, off, probe);
        drop(rig);
        let (mut rig, _) = serve::setup(mix, args.seed, &mut tr);
        let t = tr.span("phase", |tr| serve::measure(&mut rig, half, tr, probe));
        drop(rig);
        for ph in [&u, &t] {
            out.attempted += ph.requests;
            out.failed += ph.failed;
            out.notes
                .extend(ph.errors.iter().map(|e| format!("FAILED: {e}")));
        }
        serve::ledger(mix, args.seed, &mut tr, &mut out);
        let mut suite = sim::setup(args.seed, false, &mut tr);
        sim::ledger(&mut suite, None, &mut tr, &mut out);
        (
            u.busy_s / u.requests as f64,
            t.busy_s / t.requests as f64,
            (u.digest, t.digest),
        )
    } else {
        let sampled = args.workload == "sim-sampled";
        let mut suite = sim::setup(args.seed, sampled, &mut tr);
        let u = sim::measure(&suite, sampled, half, off, probe);
        let t = tr.span("phase", |tr| sim::measure(&suite, sampled, half, tr, probe));
        for ph in [&u, &t] {
            out.attempted += ph.attempted;
            out.failed += ph.failed;
            out.notes
                .extend(ph.errors.iter().map(|e| format!("FAILED: {e}")));
        }
        sim::ledger(&mut suite, Some(&t), &mut tr, &mut out);
        serve::ledger(Mix::Churn, args.seed, &mut tr, &mut out);
        (
            u.busy_s / u.ops as f64,
            t.busy_s / t.ops as f64,
            (u.digest, t.digest),
        )
    };
    out.digest = digests.0;
    if digests.0 != digests.1 {
        out.failed += 1;
        out.note(format!(
            "FAILED: traced digest {:016x} != untraced {:016x}",
            digests.1, digests.0
        ));
    }
    out.set("trace_overhead", traced_ns / untraced_ns - 1.0);
    tr.close(root);
    if let Err(e) = tr.check(wall.elapsed().as_nanos() as u64) {
        out.failed += 1;
        out.note(format!("FAILED: trace {e}"));
    }
    let path = format!(
        "perfbench-out/trace-{}-seed{}.json",
        args.workload, args.seed
    );
    match std::fs::create_dir_all("perfbench-out")
        .and_then(|()| std::fs::write(&path, tr.to_json()))
    {
        Ok(()) => out.note(format!("{} spans written to {path}", tr.spans().len())),
        Err(e) => out.note(format!("spans not written to {path}: {e}")),
    }
    out
}

/// Run every workload untraced and traced, each in its own process, and
/// print one document.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut rows = Vec::new();
    let mut ok = true;
    for w in WORKLOADS {
        let mut results = Vec::new();
        let mut digests = Vec::new();
        for trace in ["0", "1"] {
            let seed = args.seed.to_string();
            let seconds = args.seconds.to_string();
            let t0 = Instant::now();
            let child = Command::new(&exe)
                .args([
                    "--workload",
                    w,
                    "--seed",
                    &seed,
                    "--seconds",
                    &seconds,
                    "--trace",
                    trace,
                ])
                .output();
            let stdout = match child {
                Ok(o) => {
                    ok &= o.status.success();
                    eprint!("{}", String::from_utf8_lossy(&o.stderr));
                    String::from_utf8_lossy(&o.stdout).into_owned()
                }
                Err(e) => {
                    eprintln!("perfbench: cannot run {w}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            print!("{stdout}");
            println!("({w} trace {trace}: {:.1} s)", t0.elapsed().as_secs_f64());
            let lines: Vec<&str> = stdout.lines().collect();
            results.push(lines.last().copied().unwrap_or("null").to_string());
            digests.push(
                lines
                    .iter()
                    .rev()
                    .find_map(|l| l.strip_prefix("digest "))
                    .unwrap_or("")
                    .to_string(),
            );
        }
        let digests_agree = !digests[0].is_empty() && digests[0] == digests[1];
        ok &= digests_agree;
        rows.push(Row {
            workload: w.to_string(),
            untraced: results[0].clone(),
            traced: results[1].clone(),
            digests_agree,
        });
    }
    let meta = RunMeta::capture(Scale::Medium)
        .to_json(0)
        .replace('\n', " ");
    let doc = report::document(&meta, &rows);
    if let Err(e) = report::validate_document(&doc) {
        eprintln!("perfbench: malformed document: {e}");
        ok = false;
    }
    println!("{doc}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
