//! End-to-end benchmark of the paths people run: the bare tuner
//! line-up (`lineup`), the same line-up checkpointed and killed as the
//! `racd` worker runs it (`lineup-ckpt`), and offline policy
//! initialization (`policy-init`).
//!
//! ```sh
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload lineup --seed 42 --seconds 30 --trace 0
//! ```
//!
//! Run from the repository root. Each run is one process doing one
//! fixed, seeded pass of work, checking its outputs, and printing one
//! JSON line: the end-to-end metrics untraced (`--trace 0`) or the
//! per-layer metrics of a traced run (`--trace 1`). See
//! `e2ebench/README.md`.

mod init;
mod lineup;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};
use std::path::PathBuf;
use std::time::Instant;

use spans::Ledger;

/// Seed used when `--seed` is absent; the stored reference digests are
/// for this seed (it is also the bundled scenarios' own seed).
pub const DEFAULT_SEED: u64 = 42;
/// Scratch directory, relative to the repository root. Each build of
/// the benchmark works in a subdirectory named by its binary's digest.
const WORK_DIR: &str = ".bench_work";
/// Largest share of a traced run's wall time the layer self-times may
/// leave unaccounted for.
pub const LEDGER_TOLERANCE_PCT: f64 = 5.0;

/// End-to-end metrics, printed by untraced runs (never zero).
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("iter_per_s", "1/s"),
    ("iter_ms_p50", "ms"),
    ("iter_ms_p95", "ms"),
    ("recovery_ms_p50", "ms"),
    ("init_s_per_context", "s"),
    ("peak_rss_mb", "MiB"),
    ("rac_mean_rt_ms", "ms"),
    ("rac_sla_viol_pct", "%"),
];

/// Per-layer metrics, printed by traced runs; a layer idle on a
/// workload reports 0.
const PER_LAYER: [(&str, &str); 34] = [
    ("websim.interval_ms_p50", "ms"),
    ("websim.requests_per_interval", "count"),
    ("websim.ns_per_request", "ns"),
    ("websim.share_pct", "%"),
    ("agent.decide_ms_p50", "ms"),
    ("agent.decide_ms_p95", "ms"),
    ("agent.decisions", "count"),
    ("agent.sweep_updates_per_decision", "count"),
    ("agent.share_pct", "%"),
    ("ckpt.boundary_extra_ms_p50", "ms"),
    ("ckpt.encode_ms", "ms"),
    ("ckpt.write_ms_mean", "ms"),
    ("ckpt.bytes_per_snapshot", "bytes"),
    ("ckpt.library_bytes_pct", "%"),
    ("ckpt.load_ms", "ms"),
    ("ckpt.restore_ms", "ms"),
    ("ckpt.replay_ms", "ms"),
    ("ckpt.share_pct", "%"),
    ("trace.prefix_bytes", "bytes"),
    ("runner.sampling_s", "s"),
    ("runner.jobs", "count"),
    ("runner.cache_hit_pct", "%"),
    ("runner.parallel_eff_pct", "%"),
    ("init.fit_sweep_s", "s"),
    ("rl.offline_passes", "count"),
    ("rl.offline_updates_per_s", "1/s"),
    ("init.fit_sweep_share_pct", "%"),
    ("ledger.residual_pct", "%"),
    ("ledger.tolerance_pct", "%"),
    ("bench.tracing_overhead_pct", "%"),
    ("bench.failed_ops_pct", "%"),
    ("bench.iter_samples", "count"),
    ("bench.recoveries", "count"),
    ("bench.threads", "count"),
];

const WORKLOADS: [&str; 3] = ["lineup", "lineup-ckpt", "policy-init"];

const REFERENCE: &str = include_str!("../reference.txt");

/// The reference digest of one output (`<workload> <name> <digest>`
/// lines of `reference.txt`), for [`DEFAULT_SEED`].
pub fn reference_digest(workload: &str, name: &str) -> Option<&'static str> {
    REFERENCE.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        (f.next() == Some(workload) && f.next() == Some(name))
            .then(|| f.next())
            .flatten()
    })
}

/// One benchmark invocation.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    /// Nominal run length; the work itself is fixed, see the README.
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory of this build of the benchmark: every record
    /// and cache in it was written by the code being measured.
    pub work_dir: PathBuf,
}

impl Run {
    /// Where a passing untraced run records its time per unit of work
    /// for this workload and seed.
    fn untraced_record(&self) -> PathBuf {
        self.work_dir
            .join(format!("untraced-{}-{}.txt", self.workload, self.seed))
    }

    /// The recorded untraced time per unit of work.
    fn untraced_base(&self) -> Option<f64> {
        std::fs::read_to_string(self.untraced_record())
            .ok()
            .and_then(|s| s.trim().parse().ok())
    }
}

/// Metrics and operation counts of one run.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn set(&mut self, table: &[(&'static str, &str)], name: &str, value: f64) {
        let key = table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown metric {name}"))
            .0;
        self.values.insert(key, value);
    }

    /// Records an end-to-end metric.
    pub fn put(&mut self, name: &str, value: f64) {
        self.set(&END_TO_END, name, value);
    }

    /// Records a per-layer metric.
    pub fn put_layer(&mut self, name: &str, value: f64) {
        self.set(&PER_LAYER, name, value);
    }

    /// Counts one checked operation; a failure is logged to stderr.
    pub fn op(&mut self, ok: bool, what: impl Display) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {what}");
        }
    }

    /// Counts `n` operations that completed without error.
    pub fn ops(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    /// Whether every operation so far passed.
    pub fn passing(&self) -> bool {
        self.failed == 0
    }

    /// A passing untraced run records its wall time per unit of work so
    /// a traced run of the same workload and seed can report its
    /// slowdown.
    pub fn note_untraced_wall(&mut self, run: &Run, secs_per_unit: f64) {
        if !run.trace && self.passing() {
            let path = run.untraced_record();
            if let Err(e) = std::fs::write(&path, format!("{secs_per_unit}\n")) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            }
        }
    }

    /// Reports the ledger of a traced run and checks its residual.
    pub fn ledger(&mut self, run: &Run, ledger: &Ledger, secs_per_unit: f64) {
        let residual = ledger.residual_pct();
        for (layer, secs) in &ledger.layers {
            eprintln!(
                "ledger {layer:<12} {secs:>9.3} s {:>6.2} %",
                100.0 * secs / ledger.wall
            );
        }
        eprintln!(
            "ledger {:<12} {:>9.3} s {residual:>6.2} % (wall {:.3} s)",
            "(residual)", ledger.residual, ledger.wall
        );
        self.put_layer("ledger.residual_pct", residual);
        self.put_layer("ledger.tolerance_pct", LEDGER_TOLERANCE_PCT);
        self.op(
            residual <= LEDGER_TOLERANCE_PCT,
            format!("ledger residual {residual:.2}% exceeds {LEDGER_TOLERANCE_PCT}%"),
        );
        match run.untraced_base() {
            Some(base) => self.put_layer(
                "bench.tracing_overhead_pct",
                stats::Ratio::new(secs_per_unit - base, base).pct(),
            ),
            None => self.op(false, "no passing untraced run to compare with"),
        }
    }

    fn to_json(&self, trace: bool) -> Result<String, String> {
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            debug_assert!(stats::valid_metric_name(name));
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() || (!trace && value <= 0.0) {
                return Err(format!("metric {name} is {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        ))
    }
}

fn usage() -> String {
    format!(
        "usage: e2ebench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Run, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("bad --seconds {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag} {value}")),
        }
    }
    Ok(Run {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        work_dir: build_work_dir()?,
    })
}

/// `.bench_work/<digest of this binary>`: a library cache, output
/// record or untraced base found there was written by this very build,
/// so a checkout that builds two versions never mixes their files.
fn build_work_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    Ok(PathBuf::from(WORK_DIR).join(stats::digest(&bytes)))
}

/// Pins the process environment the program reads on first use: the
/// metrics registry on (its counters feed the per-layer metrics) and
/// `RAC_THREADS` at most the host's core count.
fn pin_environment() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = std::env::var(rac::runner::THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| (1..=cores).contains(&n))
        .unwrap_or(cores);
    std::env::set_var(obs::ENV, "metrics");
    std::env::set_var(rac::runner::THREADS_ENV, threads.to_string());
    threads
}

fn run_workload(run: &Run, report: &mut Report) {
    match run.workload.as_str() {
        "lineup" => lineup::lineup(run, report),
        "lineup-ckpt" => lineup::lineup_ckpt(run, report),
        _ => init::policy_init(run, report),
    }
}

fn main() {
    let mut run = match parse_args() {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let threads = pin_environment();
    if let Err(e) = std::fs::create_dir_all(&run.work_dir) {
        eprintln!("cannot create {}: {e}", run.work_dir.display());
        std::process::exit(2);
    }
    if run.trace && run.untraced_base().is_none() {
        // The tracing overhead needs an untraced base.
        run.trace = false;
        run_workload(&run, &mut Report::default());
        run.trace = true;
    }
    let mut report = Report::default();
    let t = Instant::now();
    run_workload(&run, &mut report);
    eprintln!(
        "{}: {:.1} s with set-up (nominal --seconds {})",
        run.workload,
        t.elapsed().as_secs_f64(),
        run.seconds
    );
    if run.trace {
        report.put_layer("bench.threads", threads as f64);
        report.put_layer(
            "bench.failed_ops_pct",
            stats::Ratio::new(report.failed as f64, report.attempted as f64).pct(),
        );
    } else {
        match stats::peak_rss_mb() {
            Some(mb) => report.put("peak_rss_mb", mb),
            None => report.op(false, "cannot read VmHWM from /proc/self/status"),
        }
    }
    match report.to_json(run.trace) {
        Ok(line) => {
            println!("{line}");
            if report.failed > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}
