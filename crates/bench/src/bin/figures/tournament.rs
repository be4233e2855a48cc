//! `figures tournament`: the tuner line-up across generated scenarios.

use std::path::PathBuf;
use std::time::Instant;

use obs::Console;
use rac::Runner;

use crate::{Args, Failure, Options};

/// `figures tournament [N] [--seed S] [--profile P] [--out D]` — RAC vs
/// trial-and-error vs static default across N generated scenarios,
/// sharded over the global runner. The scoreboard is a pure function of
/// (seed, N): byte-identical CSVs at any `RAC_THREADS`.
pub(crate) fn run(args: &Args, opts: &Options, console: &Console) -> Result<(), Failure> {
    let defaults = rac_bench::tournament::TournamentOptions::default();
    let topts = rac_bench::tournament::TournamentOptions {
        scenarios: args.parsed().first().copied().unwrap_or(defaults.scenarios),
        seed: args.get("--seed").unwrap_or(defaults.seed),
        quick: opts.quick,
        profile: args
            .get::<String>("--profile")
            .and_then(|p| scenario::Difficulty::by_name(&p)),
    };
    let out_dir = args
        .get::<PathBuf>("--out")
        .unwrap_or_else(|| opts.results_dir.clone());

    let runner = Runner::global();
    console.note(format!(
        "tournament: {} scenarios from seed {}, {} difficulty, {} worker thread(s) [RAC_THREADS]",
        topts.scenarios,
        topts.seed,
        topts
            .profile
            .map(|d| d.label())
            .unwrap_or("cycling calm/brisk/stormy"),
        runner.threads()
    ));
    let started = Instant::now();
    let matchups = rac_bench::tournament::run(&topts);
    let elapsed = started.elapsed().as_secs_f64();
    let rows = rac_bench::tournament::scoreboard(&matchups);
    let table = rac_bench::tournament::scoreboard_table(&rows);
    println!(
        "tournament: {} scenarios, seed {} — per-arm scoreboard",
        topts.scenarios, topts.seed
    );
    print!("{table}");
    std::fs::create_dir_all(&out_dir).ok();
    for (file, t) in [
        (
            "tournament-matchups.csv",
            rac_bench::tournament::matchups_table(&matchups),
        ),
        ("tournament-scoreboard.csv", table),
    ] {
        let path = out_dir.join(file);
        match t.write_csv(&path) {
            Ok(()) => println!("  -> {}", path.display()),
            Err(e) => eprintln!("  could not write {}: {e}", path.display()),
        }
    }
    console.note(format!(
        "\ntotal: {elapsed:.1}s wall-clock over {} scenario(s) ({:.2} scenarios/s)",
        topts.scenarios,
        topts.scenarios as f64 / elapsed.max(1e-9)
    ));
    Ok(())
}
