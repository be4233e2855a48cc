//! `figures chaos` and `figures crashdrill`: seeded fault and crash
//! drills with pass/fail exit codes.

use std::fmt::Write as _;
use std::time::Instant;

use obs::Console;
use rac::SLA_MS;

use crate::{banner, save, save_trace, traced, Args, Failure, Options};

/// `figures chaos` — the deterministic chaos harness: for each seed,
/// generate a randomized fault schedule, run a cold-started RAC agent
/// through it, write `results/chaos-<seed>.csv` (and a trace under
/// `RAC_OBS=trace`), and check the guardrail invariants. Exits 1 if any
/// invariant is violated, so CI can gate on it.
pub(crate) fn chaos(args: &Args, opts: &Options, console: &Console) -> Result<(), Failure> {
    let mut seeds: Vec<u64> = args.parsed();
    if seeds.is_empty() {
        seeds = rac_bench::chaos::PINNED_SEEDS.to_vec();
    }
    let iterations = args
        .get("--iterations")
        .unwrap_or(rac_bench::chaos::DEFAULT_ITERATIONS);
    let started = Instant::now();
    let mut violation_count = 0usize;
    for &seed in &seeds {
        let scn = rac_bench::chaos::chaos_scenario(seed, iterations);
        let t0 = Instant::now();
        let (series, trace) = traced(|| rac_bench::chaos::run_chaos(&scn));
        let mut out = String::new();
        banner(
            &mut out,
            &format!(
                "Chaos seed {seed}: {} iterations of {:.0}s, {} directives",
                scn.iterations(),
                scn.interval.as_secs_f64(),
                scn.directives.len()
            ),
        );
        let t = rac_bench::chaos::chaos_table(&series);
        let _ = write!(out, "{t}");
        let finite: Vec<f64> = series
            .iter()
            .map(|r| r.response_ms)
            .filter(|x| x.is_finite())
            .collect();
        let worst = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let sla_misses = finite.iter().filter(|&&rt| rt > SLA_MS).count();
        let _ = writeln!(
            out,
            "  worst {worst:.0} ms, SLA misses {sla_misses}/{}, lost intervals {}",
            series.len(),
            series.len() - finite.len()
        );
        let violations = rac_bench::chaos::check_invariants(&scn, &series);
        if violations.is_empty() {
            let _ = writeln!(out, "  invariants hold");
        }
        for v in &violations {
            let _ = writeln!(out, "  INVARIANT VIOLATED: {v}");
        }
        violation_count += violations.len();
        save(&t, opts, &format!("chaos-{seed}.csv"), &mut out);
        print!("{out}");
        if let Some(writer) = &trace {
            let path = opts.results_dir.join(format!("chaos-{seed}.trace.jsonl"));
            save_trace(writer, &path, console, "");
        }
        console.note(format!(
            "  [chaos {seed}: {:.1}s wall-clock]",
            t0.elapsed().as_secs_f64()
        ));
    }
    console.note(format!(
        "\ntotal: {:.1}s wall-clock over {} seed(s)",
        started.elapsed().as_secs_f64(),
        seeds.len()
    ));
    if violation_count > 0 {
        return Err(Failure::new(
            1,
            format!("chaos: {violation_count} invariant violation(s)"),
        ));
    }
    Ok(())
}

/// `figures crashdrill`: SIGKILLs a live racd daemon at seeded points
/// and asserts byte-identical convergence after recovery. Exits 1 on
/// any failed drill.
pub(crate) fn crashdrill(args: &Args, opts: &Options, console: &Console) -> Result<(), Failure> {
    let mut seeds: Vec<u64> = args.parsed();
    if seeds.is_empty() {
        seeds = rac_bench::crashdrill::DEFAULT_SEEDS.to_vec();
    }
    let iterations = args
        .get("--iterations")
        .unwrap_or(rac_bench::chaos::DEFAULT_ITERATIONS);
    let racd = rac_bench::crashdrill::find_racd()
        .map_err(|e| Failure::new(2, format!("crashdrill: {e}")))?;
    console.note(format!("crashdrill: daemon binary {}", racd.display()));
    let drill_opts = rac_bench::crashdrill::DrillOptions {
        out_dir: opts.results_dir.clone(),
        iterations,
    };
    let started = Instant::now();
    let mut failure_count = 0usize;
    for &seed in &seeds {
        let t0 = Instant::now();
        match rac_bench::crashdrill::run_drill(&racd, seed, &drill_opts) {
            Ok(report) => {
                println!("crashdrill seed {seed}:");
                for k in &report.kills {
                    println!("  {k}");
                }
                if report.failures.is_empty() {
                    println!(
                        "  converged byte-identically after {} kill(s)",
                        report.kills.len()
                    );
                } else {
                    for f in &report.failures {
                        println!("  FAILED: {f}");
                    }
                    failure_count += report.failures.len();
                }
                console.note(format!(
                    "  [crashdrill {seed}: {:.1}s wall-clock]",
                    t0.elapsed().as_secs_f64()
                ));
            }
            Err(e) => {
                eprintln!("crashdrill seed {seed}: {e}");
                failure_count += 1;
            }
        }
    }
    console.note(format!(
        "\ntotal: {:.1}s wall-clock over {} seed(s)",
        started.elapsed().as_secs_f64(),
        seeds.len()
    ));
    if failure_count > 0 {
        return Err(Failure::new(
            1,
            format!("crashdrill: {failure_count} failure(s)"),
        ));
    }
    Ok(())
}
