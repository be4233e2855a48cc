//! `figures scenario` and `figures profile`: the standard tuner line-up
//! on bundled or `.scn` scenarios.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use obs::{Console, TraceWriter};

use rac::lineup::{CheckpointOptions, LineupOutcome};
use rac::{response_series, series_mean, standard_policy_library, PolicyLibrary, SLA_MS};
use rac_bench::output::ascii_chart;
use scenario::Scenario;

use crate::{
    banner, load_resume_snapshot, load_snapshot, save, save_trace, traced, Args, Failure, Options,
};

/// Resolves a scenario operand (bundled name or `.scn` path), with
/// `--quick` compressing its timeline 3x.
fn resolve_operand(arg: &str, quick: bool) -> Result<Scenario, Failure> {
    let scn = rac_bench::scenario::resolve(arg).map_err(|e| Failure::new(2, e.to_string()))?;
    Ok(if quick { scn.scaled(1, 3) } else { scn })
}

/// `figures scenario`: lists the bundled scenarios or runs each operand
/// (bundled name or `.scn` path) through the standard tuner line-up,
/// writing `results/scenario-<name>.csv` per run. With
/// `--checkpoint`/`--resume`, the line-up persists and restores itself
/// through `rac::lineup`.
///
/// Scenario runs are sequential end to end — the series must be a pure
/// function of (spec, scenario, seed), bit-identical at any
/// `RAC_THREADS` — so unlike the figure jobs there is no fan-out here.
///
/// With `--serve`, the growing trace is additionally flushed to its
/// final path as each tuner session completes, so
/// `inspect_trace --follow` can tail the run; the flushes are prefixes
/// of the final byte-identical file.
pub(crate) fn run(args: &Args, opts: &Options, console: &Console) -> Result<(), Failure> {
    let stop_after = args.stop_after()?;
    let resume_path = args.get::<PathBuf>("--resume");
    if resume_path.is_some() && args.operands.len() != 1 {
        return Err(args.misuse("--resume continues exactly one scenario run"));
    }
    if args.has("--list") {
        println!("bundled scenarios:");
        for (name, src) in scenario::bundled::all() {
            let scn = Scenario::parse(src).expect("bundled scenario parses");
            println!(
                "  {name}: {} iterations of {:.0}s, {} directives",
                scn.iterations(),
                scn.interval.as_secs_f64(),
                scn.directives.len()
            );
        }
        return Ok(());
    }
    if args.operands.is_empty() {
        return Err(args.misuse(format!(
            "scenario needs a bundled name ({}) or a .scn file",
            rac_bench::scenario::bundled_names().join(" ")
        )));
    }
    let scenarios = args
        .operands
        .iter()
        .map(|arg| resolve_operand(arg, opts.quick))
        .collect::<Result<Vec<_>, _>>()?;

    let library = match args.get::<PathBuf>("--warm-start") {
        Some(path) => {
            let snap = load_snapshot(&path, "warm-start")?;
            // The checked variant turns a snapshot trained on a
            // different lattice into a typed mismatch here, at the
            // seeding boundary, instead of a panic mid-run.
            let lib = rac::library_from_snapshot_checked(
                &snap,
                rac::standard_lattice().num_states(),
                rac::Action::COUNT,
            )
            .map_err(|e| {
                Failure::new(2, format!("cannot warm-start from {}: {e}", path.display()))
            })?;
            console.note(format!(
                "  warm start: {} policies from {}",
                lib.len(),
                path.display()
            ));
            lib
        }
        None => standard_policy_library(&opts.cache_dir()),
    };
    let resume = resume_path
        .as_deref()
        .map(load_resume_snapshot)
        .transpose()?;
    let every = args.get("--checkpoint-every").unwrap_or(5);
    let checkpoint_dir = args.get::<PathBuf>("--checkpoint");
    let live = args.has("--serve") && obs::tracing_enabled();
    let started = Instant::now();
    for scn in &scenarios {
        // Resume continues the checkpoint file it came from; a fresh
        // checkpointed run gets one file per scenario under the dir.
        let ckpt_path = match (&resume_path, &checkpoint_dir) {
            (Some(path), _) => Some(path.clone()),
            (None, Some(dir)) => Some(dir.join(format!("scenario-{}.ckpt", scn.name))),
            (None, None) => None,
        };
        let ckpt_plan = ckpt_path.map(|path| CheckpointOptions {
            path,
            every,
            stop_after,
        });
        let trace_path = opts
            .results_dir
            .join(format!("scenario-{}.trace.jsonl", scn.name));
        // Live runs flush the growing trace between tuner sessions so
        // followers see events mid-run (never for checkpointed runs,
        // whose stop-after contract is "no trace file").
        let live_trace = (live && ckpt_plan.is_none()).then_some(trace_path.as_path());
        let mut out = String::new();
        let t0 = Instant::now();
        // Failures must still flush telemetry — the failed run is
        // exactly the one you want data from — so panics are caught and
        // the trace written before the process dies.
        let (outcome, writer) = traced(|| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                scenario_figure(
                    scn,
                    &library,
                    opts,
                    ckpt_plan.as_ref(),
                    resume.as_ref(),
                    live_trace,
                    &mut out,
                )
            }))
        });
        print!("{out}");
        let completed = match outcome {
            Ok(Ok(completed)) => completed,
            Ok(Err(e)) => {
                flush_failed_trace(scn, writer.as_deref(), opts, console);
                return Err(Failure::new(
                    2,
                    format!("scenario {}: checkpoint error: {e}", scn.name),
                ));
            }
            Err(payload) => {
                eprintln!("scenario {}: run panicked; flushing telemetry", scn.name);
                flush_failed_trace(scn, writer.as_deref(), opts, console);
                std::panic::resume_unwind(payload);
            }
        };
        // An interrupted (`--stop-after`) run writes neither CSV nor
        // trace: its outputs exist only to be byte-compared against an
        // uninterrupted run once resumed to completion.
        if let (true, Some(writer)) = (completed, &writer) {
            save_trace(writer, &trace_path, console, "");
        }
        console.note(format!(
            "  [scenario {}: {:.1}s wall-clock]",
            scn.name,
            t0.elapsed().as_secs_f64()
        ));
    }
    console.note(format!(
        "\ntotal: {:.1}s wall-clock over {} scenario(s)",
        started.elapsed().as_secs_f64(),
        scenarios.len()
    ));
    Ok(())
}

/// A failing scenario run still writes its buffered trace, under a
/// `.failed.` name so partial output can never masquerade as a
/// completed run's artifact.
fn flush_failed_trace(
    scn: &Scenario,
    writer: Option<&TraceWriter>,
    opts: &Options,
    console: &Console,
) {
    if let Some(writer) = writer {
        let path = opts
            .results_dir
            .join(format!("scenario-{}.failed.trace.jsonl", scn.name));
        save_trace(writer, &path, console, ", partial");
    }
}

/// Runs one scenario through RAC, trial-and-error, and the static
/// default, then reports the series table, chart, and summary stats.
/// Returns `Ok(false)` when a checkpointed run stopped early
/// (`--stop-after`) — the caller then skips the CSV and trace artifacts
/// — and `Err` on checkpoint I/O or validation failures, so the caller
/// can flush telemetry before exiting.
fn scenario_figure(
    scn: &Scenario,
    library: &PolicyLibrary,
    opts: &Options,
    ckpt_plan: Option<&CheckpointOptions>,
    resume: Option<&ckpt::Snapshot>,
    live_trace: Option<&Path>,
    out: &mut String,
) -> Result<bool, ckpt::CkptError> {
    banner(
        out,
        &format!(
            "Scenario {}: {} iterations of {:.0}s ({} timeline events)",
            scn.name,
            scn.iterations(),
            scn.interval.as_secs_f64(),
            scn.compile().len()
        ),
    );
    let series = match ckpt_plan {
        None => match live_trace {
            // Live run: flush the (prefix-stable) trace after each
            // tuner session so followers see it grow mid-run.
            Some(path) => rac::lineup::run_tuners_with(scn, library, |_| {
                if let Some(text) = obs::trace::snapshot_serialized() {
                    let _ = std::fs::write(path, text);
                }
            }),
            None => rac::lineup::run_tuners(scn, library),
        },
        Some(plan) => match rac::lineup::run_tuners_checkpointed(scn, library, plan, resume)? {
            LineupOutcome::Complete(series) => series,
            LineupOutcome::Interrupted { global_iterations } => {
                let _ = writeln!(
                    out,
                    "  stopped after {global_iterations} line-up iterations \
                     (checkpoint: {})",
                    plan.path.display()
                );
                let _ = writeln!(
                    out,
                    "  resume with: figures scenario {} --resume {}",
                    scn.name,
                    plan.path.display()
                );
                return Ok(false);
            }
        },
    };
    let t = rac::lineup::scenario_table(scn, &series);
    let _ = write!(out, "{t}");
    let chart: Vec<(&str, Vec<f64>)> = series
        .iter()
        .map(|(n, s)| (*n, response_series(s)))
        .collect();
    let _ = write!(out, "{}", ascii_chart(&chart, 14));
    for (name, s) in &series {
        let finite: Vec<f64> = response_series(s)
            .into_iter()
            .filter(|x| x.is_finite())
            .collect();
        let worst = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let violations = finite.iter().filter(|&&rt| rt > SLA_MS).count();
        let dropped = s.len() - finite.len();
        let _ = writeln!(
            out,
            "  {name}: mean {:.0} ms, worst {worst:.0} ms, SLA violations {violations}/{}, dropped intervals {dropped}",
            series_mean(s),
            s.len()
        );
    }
    save(&t, opts, &format!("scenario-{}.csv", scn.name), out);
    Ok(true)
}

/// `figures profile <scenario>` — one checkpointed line-up run with the
/// self-profiler on, reported as a self-time table plus a
/// flamegraph-compatible folded-stack file. The run is checkpointed
/// (to a throwaway snapshot, deleted afterwards) so the `checkpoint`
/// phase shows up in the attribution alongside measure/tuner/sweep.
pub(crate) fn profile(args: &Args, opts: &Options, console: &Console) -> Result<(), Failure> {
    let [arg] = args.operands.as_slice() else {
        return Err(args.misuse("profile takes exactly one scenario"));
    };
    let scn = resolve_operand(arg, opts.quick)?;

    obs::profile::set_enabled(true);
    obs::profile::reset();
    let library = standard_policy_library(&opts.cache_dir());
    let ckpt_path = opts.results_dir.join(format!("profile-{}.ckpt", scn.name));
    let plan = CheckpointOptions {
        path: ckpt_path.clone(),
        every: 5,
        stop_after: None,
    };
    console.note(format!(
        "profiling scenario {}: {} iterations of {:.0}s per tuner",
        scn.name,
        scn.iterations(),
        scn.interval.as_secs_f64()
    ));
    let t0 = Instant::now();
    let outcome = rac::lineup::run_tuners_checkpointed(&scn, &library, &plan, None);
    let _ = std::fs::remove_file(&ckpt_path);
    match outcome {
        Ok(LineupOutcome::Complete(_)) => {}
        Ok(LineupOutcome::Interrupted { .. }) => unreachable!("stop_after is None"),
        Err(e) => {
            return Err(Failure::new(
                2,
                format!("profile {}: checkpoint error: {e}", scn.name),
            ))
        }
    }
    console.note(format!(
        "  [profile {}: {:.1}s wall-clock]",
        scn.name,
        t0.elapsed().as_secs_f64()
    ));

    let snapshot = obs::profile::snapshot();
    print!("{}", rac_bench::profile::self_time_table(&snapshot));
    let folded_path = opts
        .results_dir
        .join(format!("profile-{}.folded", scn.name));
    rac_bench::profile::write_folded(&folded_path)
        .map_err(|e| Failure::new(2, format!("cannot write {}: {e}", folded_path.display())))?;
    println!(
        "wrote {} ({} call paths)",
        folded_path.display(),
        snapshot.len()
    );
    Ok(())
}
