//! `figures fleet`: multi-tenant runs with cross-tenant policy transfer.

use std::path::PathBuf;
use std::time::Instant;

use obs::Console;
use rac::{Runner, ONLINE_LEVELS};

use crate::{load_resume_snapshot, load_snapshot, Args, Failure, Options};

/// `figures fleet`: generates the tenant roster, runs every tenant's
/// RAC experiment sharded over the global runner with nearest-neighbor
/// policy transfer, and writes the per-tenant, aggregate, and scaling
/// CSVs under `results/`.
pub(crate) fn run(args: &Args, opts: &Options, console: &Console) -> Result<(), Failure> {
    let stop_after = args.stop_after()?;
    let resume = args.get::<PathBuf>("--resume");
    let warm_start = args.get::<PathBuf>("--warm-start");
    if resume.is_some() && warm_start.is_some() {
        return Err(args.misuse(
            "--resume restores the transfer store from the checkpoint; --warm-start \
             only applies to a fresh fleet",
        ));
    }
    let tenants = args.parsed().first().copied().unwrap_or(200);
    let cold = args.get("--cold").unwrap_or_else(|| (tenants / 4).max(1));
    let config = fleet::FleetConfig {
        tenants,
        seed: args.get("--seed").unwrap_or(42),
        cold,
        chunk: args.get("--chunk").unwrap_or(25),
        // Bundled scenarios span 7200 s; compress the timeline (same
        // iteration count, shorter intervals) so a 200-tenant fleet
        // finishes in minutes. `--quick` compresses 3x harder.
        scale_den: if opts.quick { 15 } else { 5 },
        online_levels: ONLINE_LEVELS,
        control: !args.has("--no-control"),
        radius: args.get("--radius").unwrap_or(0.005),
    };

    if args.has("--list") {
        let roster = fleet::generate(config.tenants, config.seed);
        println!(
            "fleet roster: {} tenants from seed {}",
            config.tenants, config.seed
        );
        print!("{}", rac_bench::fleet::roster_table(&roster));
        return Ok(());
    }

    let fail = |msg: String| Failure::new(2, msg);
    let mut run = if let Some(path) = &resume {
        let snap = load_resume_snapshot(path)?;
        let run = fleet::FleetRun::resume(config.clone(), &snap)
            .map_err(|e| fail(format!("cannot resume from {}: {e}", path.display())))?;
        console.note(format!(
            "  resume: {}/{} tenants already finished ({} donors)",
            run.done(),
            tenants,
            run.store().len()
        ));
        run
    } else if let Some(path) = &warm_start {
        let snap = load_snapshot(path, "warm-start")?;
        let run = fleet::FleetRun::with_library(config.clone(), &snap)
            .map_err(|e| fail(format!("cannot warm-start from {}: {e}", path.display())))?;
        console.note(format!(
            "  warm start: {} library donor(s) from {}",
            run.store().len(),
            path.display()
        ));
        run
    } else {
        fleet::FleetRun::new(config.clone()).map_err(|e| fail(format!("{e}")))?
    };

    let ckpt_path = match (resume, args.get::<PathBuf>("--checkpoint")) {
        (Some(path), _) => Some(path),
        (None, Some(dir)) => Some(dir.join("fleet.ckpt")),
        (None, None) => None,
    };

    let runner = Runner::global();
    console.note(format!(
        "fleet: {} tenants (cold wave {}, chunks of {}), seed {}, {} worker thread(s) [RAC_THREADS]",
        tenants,
        config.cold,
        config.chunk,
        config.seed,
        runner.threads()
    ));
    let started = Instant::now();
    let mut milestones: Vec<(usize, f64)> = Vec::new();
    while !run.is_complete() {
        run.step(runner)
            .map_err(|e| fail(format!("fleet step failed: {e}")))?;
        milestones.push((run.done(), started.elapsed().as_secs_f64()));
        console.note(format!(
            "  fleet: {}/{} tenants, {} donor(s), {:.1}s",
            run.done(),
            tenants,
            run.store().len(),
            started.elapsed().as_secs_f64()
        ));
        if let Some(path) = &ckpt_path {
            if let Some(dir) = path.parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir).ok();
                }
            }
            let mut snap = ckpt::SnapshotWriter::new();
            run.save(&mut snap);
            snap.write_atomic(path)
                .map_err(|e| fail(format!("cannot checkpoint to {}: {e}", path.display())))?;
        }
        if let Some(stop) = stop_after {
            if run.done() >= stop && !run.is_complete() {
                // Interrupted runs write no CSVs: their outputs exist to
                // be byte-compared once resumed to completion.
                console.note(format!(
                    "  fleet: stopping after {} tenants (checkpointed; resume with --resume)",
                    run.done()
                ));
                return Ok(());
            }
        }
    }

    let stats = rac_bench::fleet::aggregate(&run);
    let table = rac_bench::fleet::aggregate_table(&stats);
    println!(
        "fleet: {} tenants, seed {} — SLA attainment by cohort",
        tenants, config.seed
    );
    print!("{table}");
    let [cold_stats, warm_stats, control_stats, _] = &stats;
    if control_stats.tenants > 0 {
        // The matched-pair comparison: the same tenants, warm vs cold.
        // (warm vs the cold *wave* compares different tenants and mostly
        // measures roster composition.)
        println!(
            "policy transfer: warm-started tenants reached SLA in {:.1} iterations (mean) vs \
             {:.1} for their matched cold controls — {:.1}% fewer",
            warm_stats.mean_iters_to_sla,
            control_stats.mean_iters_to_sla,
            100.0 * (1.0 - warm_stats.mean_iters_to_sla / control_stats.mean_iters_to_sla)
        );
    } else if warm_stats.tenants > 0 && cold_stats.tenants > 0 {
        println!(
            "policy transfer: warm cohort mean {:.1} iterations to SLA vs cold wave {:.1} \
             (unmatched cohorts — rerun without --no-control for the paired comparison)",
            warm_stats.mean_iters_to_sla, cold_stats.mean_iters_to_sla
        );
    }

    std::fs::create_dir_all(&opts.results_dir).ok();
    for (file, text) in [
        ("fleet-tenants.csv", rac_bench::fleet::tenants_csv(&run)),
        ("fleet-aggregate.csv", table.render_csv()),
        (
            "fleet-scaling.csv",
            rac_bench::fleet::scaling_csv(runner.threads(), &milestones),
        ),
    ] {
        let path = opts.results_dir.join(file);
        match std::fs::write(&path, text) {
            Ok(()) => println!("  -> {}", path.display()),
            Err(e) => eprintln!("  could not write {}: {e}", path.display()),
        }
    }
    console.note(format!(
        "\ntotal: {:.1}s wall-clock over {} tenants ({:.2} tenants/s)",
        started.elapsed().as_secs_f64(),
        tenants,
        tenants as f64 / started.elapsed().as_secs_f64().max(1e-9)
    ));
    Ok(())
}
