//! `figures bench`: the perf-trajectory suite.

use std::path::PathBuf;
use std::time::Instant;

use obs::Console;
use rac::Runner;
use rac_bench::perfsuite;

use crate::{Args, Failure, Options};

/// `figures bench [--quick] [--out <path>] [--check <committed.json>]`.
///
/// Default mode runs the perf-trajectory suite and writes the
/// `BENCH_<n>.json` report (full repeats unless `--quick`). `--check`
/// mode instead compares the fresh medians against a previously
/// committed report and exits 1 if any benchmark's median fell below
/// the regression floor — nothing is written, so the committed file
/// stays the authoritative trajectory point. Quick and full mode use
/// identical problem sizes (quick only repeats less), which is what
/// makes a quick-mode check against a full-mode file meaningful.
pub(crate) fn run(args: &Args, opts: &Options, console: &Console) -> Result<(), Failure> {
    // Read the committed report before the suite: a bad path must not
    // cost a full suite run to find out.
    let check = match args.get::<PathBuf>("--check") {
        Some(path) => {
            let committed = std::fs::read_to_string(&path)
                .map_err(|e| Failure::new(2, format!("cannot read {}: {e}", path.display())))?;
            let medians = perfsuite::parse_medians(&committed)
                .map_err(|e| Failure::new(2, format!("cannot parse {}: {e}", path.display())))?;
            Some((path, medians))
        }
        None => None,
    };
    let out = args
        .get::<PathBuf>("--out")
        .unwrap_or_else(|| PathBuf::from(perfsuite::DEFAULT_OUTPUT));
    let quick = opts.quick;
    console.note(format!(
        "bench: perf-trajectory suite, {} mode, {} worker thread(s) [RAC_THREADS]",
        if quick { "quick" } else { "full" },
        Runner::global().threads()
    ));
    let started = Instant::now();
    let report = perfsuite::run_suite(&perfsuite::SuiteOptions { quick });
    console.note(format!(
        "bench: suite finished in {:.1}s",
        started.elapsed().as_secs_f64()
    ));
    if let Some(s) = report.event_queue_speedup() {
        console.note(format!("bench: calendar queue {s:.2}x over heap baseline"));
    }
    if let Some(s) = report.qsweep_speedup() {
        console.note(format!("bench: optimized sweep {s:.2}x over naive loop"));
    }
    match check {
        Some((path, medians)) => {
            let failures =
                perfsuite::check_regressions(&medians, &report, perfsuite::REGRESSION_FLOOR);
            if !failures.is_empty() {
                return Err(Failure::new(
                    1,
                    format!(
                        "bench regression vs {}:\n  {}",
                        path.display(),
                        failures.join("\n  ")
                    ),
                ));
            }
            println!(
                "bench check OK: all medians within {}x of {}",
                perfsuite::REGRESSION_FLOOR,
                path.display()
            );
        }
        None => {
            if let Some(dir) = out.parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir).ok();
                }
            }
            std::fs::write(&out, report.to_json())
                .map_err(|e| Failure::new(2, format!("cannot write {}: {e}", out.display())))?;
            println!("wrote {}", out.display());
        }
    }
    Ok(())
}
