//! The paper's tables and figures: the default `figures` command.

use std::fmt::Write as _;
use std::time::Instant;

use obs::Console;

use rac::{
    convergence_iteration, grouping, maxclients_sweep, paper_contexts, paper_system_spec,
    response_series, series_mean, standard_policy_library, standard_settings, Experiment,
    IterationRecord, MeasureJob, PolicyLibrary, RacAgent, RacSettings, Runner, SimMeasurer,
    StaticDefault, TrialAndError, ONLINE_LEVELS,
};
use rac_bench::output::{ascii_chart, TextTable};
use tpcw::Mix;
use vmstack::ResourceLevel;
use websim::{Param, ServerConfig, SystemSpec};

use crate::{banner, save, save_trace, traced, Args, Failure, Options};

pub(crate) const EXPERIMENTS: [&str; 12] = [
    "table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "fig10",
];

fn needs_library(cmd: &str) -> bool {
    matches!(cmd, "fig5" | "fig6" | "fig7" | "fig8" | "fig9" | "fig10")
}

/// Runs the named tables and figures (all of them when none or `all`
/// is named).
pub(crate) fn run(args: &Args, opts: &Options, console: &Console) -> Result<(), Failure> {
    let selected: Vec<&str> =
        if args.operands.is_empty() || args.operands.iter().any(|c| c == "all") {
            EXPERIMENTS.to_vec()
        } else {
            args.operands.iter().map(String::as_str).collect()
        };

    // The policy library feeds six figures; build it once before the
    // fan-out so concurrent jobs share it (and the disk cache sees a
    // single writer).
    let library = if selected.iter().any(|c| needs_library(c)) {
        Some(standard_policy_library(&opts.cache_dir()))
    } else {
        None
    };

    let runner = Runner::global();
    console.note(format!(
        "figures: {} job(s) across {} worker thread(s) [RAC_THREADS]",
        selected.len(),
        runner.threads()
    ));
    let started = Instant::now();
    let reports = runner.run_tasks(selected.len(), |i| {
        let cmd = selected[i];
        let _span = obs::Span::start("figure");
        let mut out = String::new();
        let t0 = Instant::now();
        // Each figure gets its own trace scope: the scope is
        // thread-local and the figure job is single-threaded (its
        // measurement fan-out happens in untraced workers), so the
        // JSONL is deterministic per figure at any RAC_THREADS.
        let ((), trace) = traced(|| run_figure(cmd, opts, library.as_ref(), &mut out));
        (out, t0.elapsed().as_secs_f64(), trace)
    });
    for (cmd, (out, secs, trace)) in selected.iter().zip(&reports) {
        print!("{out}");
        if let Some(writer) = trace {
            let path = opts.results_dir.join(format!("{cmd}.trace.jsonl"));
            save_trace(writer, &path, console, "");
        }
        console.note(format!("  [{cmd}: {secs:.1}s wall-clock]"));
    }
    let stats = runner.cache_stats();
    console.note(format!(
        "\ntotal: {:.1}s wall-clock, {:.1}s summed over jobs ({} simulations, {} cache hits)",
        started.elapsed().as_secs_f64(),
        reports.iter().map(|(_, s, _)| s).sum::<f64>(),
        stats.misses,
        stats.hits
    ));
    Ok(())
}

fn run_figure(cmd: &str, opts: &Options, library: Option<&PolicyLibrary>, out: &mut String) {
    let library = || library.expect("library prebuilt for fig5..fig10");
    match cmd {
        "table1" => table1(opts, out),
        "table2" => table2(opts, out),
        "fig1" => fig1(opts, out),
        "fig2" => fig2(opts, out),
        "fig3" => fig3(opts, out),
        "fig4" => fig4(opts, out),
        "fig5" => fig5(opts, library(), out),
        "fig6" => fig6(opts, library(), out),
        "fig7" => fig7(opts, library(), out),
        "fig8" => fig8(opts, library(), out),
        "fig9" => fig9(opts, library(), out),
        "fig10" => fig10(opts, library(), out),
        other => unreachable!("checked by the parser: {other}"),
    }
}

// --------------------------------------------------------------------
// Tables
// --------------------------------------------------------------------

fn table1(opts: &Options, out: &mut String) {
    banner(out, "Table 1: tunable performance-critical parameters");
    let mut t = TextTable::new(&["tier", "parameter", "range", "default"]);
    for p in Param::ALL {
        let (lo, hi) = p.range();
        t.row(&[
            p.tier().to_string(),
            p.name().to_string(),
            format!("[{lo}, {hi}]"),
            p.default_value().to_string(),
        ]);
    }
    let _ = write!(out, "{t}");
    save(&t, opts, "table1.csv", out);
}

fn table2(opts: &Options, out: &mut String) {
    banner(out, "Table 2: example system contexts");
    let mut t = TextTable::new(&["context", "workload mix", "VM resources"]);
    for (i, c) in paper_contexts().iter().enumerate() {
        t.row(&[
            format!("Context-{}", i + 1),
            c.mix.to_string(),
            c.level.to_string(),
        ]);
    }
    let _ = write!(out, "{t}");
    save(&t, opts, "table2.csv", out);
}

// --------------------------------------------------------------------
// Motivation figures (Section 2)
// --------------------------------------------------------------------

/// Finds the best configuration for a context by measuring the coarse
/// grouped sampling plan (the paper's "best out of our test cases") —
/// one parallel, cached batch through the global runner.
fn best_config_for(spec: &SystemSpec, opts: &Options) -> (ServerConfig, f64) {
    let plan = grouping::sampling_plan(3);
    let configs: Vec<ServerConfig> = plan.iter().map(|(_, config)| *config).collect();
    let measurer = SimMeasurer::new(spec.clone(), opts.warmup(), opts.interval());
    let samples = measurer.sample_batch(&configs);
    configs
        .into_iter()
        .zip(samples)
        .map(|(config, s)| (config, s.mean_response_ms))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty sampling plan")
}

fn fig1(opts: &Options, out: &mut String) {
    banner(
        out,
        "Figure 1: performance under configurations tuned for different workloads",
    );
    let spec = paper_system_spec();
    let mixes = [Mix::Ordering, Mix::Shopping, Mix::Browsing];
    let tuned: Vec<(Mix, ServerConfig)> = mixes
        .iter()
        .map(|&mix| {
            let (cfg, _) = best_config_for(&spec.clone().with_mix(mix), opts);
            (mix, cfg)
        })
        .collect();

    // The full run-mix x tuned-config cross, as one parallel batch.
    let jobs: Vec<MeasureJob> = mixes
        .iter()
        .flat_map(|&run_mix| tuned.iter().map(move |&(_, cfg)| (run_mix, cfg)))
        .map(|(run_mix, cfg)| {
            MeasureJob::new(
                spec.clone().with_mix(run_mix),
                cfg,
                opts.warmup(),
                opts.interval(),
            )
        })
        .collect();
    let samples = Runner::global().run(&jobs);

    let mut t = TextTable::new(&[
        "workload",
        "ordering-best cfg",
        "shopping-best cfg",
        "browsing-best cfg",
    ]);
    for (r, &run_mix) in mixes.iter().enumerate() {
        let mut cells = vec![run_mix.to_string()];
        for c in 0..tuned.len() {
            cells.push(format!(
                "{:.0}",
                samples[r * tuned.len() + c].mean_response_ms
            ));
        }
        t.row(&cells);
    }
    let _ = write!(out, "{t}");
    let _ = writeln!(out, "(rows: workload actually run; columns: whose best configuration; cells: mean response time in ms)");
    save(&t, opts, "fig1.csv", out);
}

fn fig2(opts: &Options, out: &mut String) {
    banner(
        out,
        "Figure 2: effect of MaxClients under different VM configurations",
    );
    let sweep: Vec<u32> = vec![5, 50, 100, 150, 200, 250, 300, 350, 400, 450, 500, 550, 600];
    let rows = maxclients_sweep(
        &paper_system_spec(),
        &ResourceLevel::ALL,
        &sweep,
        opts.warmup(),
        opts.interval(),
    );
    let mut t = TextTable::new(&["MaxClients", "Level-1", "Level-2", "Level-3"]);
    let mut series: Vec<(&str, Vec<f64>)> = vec![
        ("Level-1", Vec::new()),
        ("Level-2", Vec::new()),
        ("Level-3", Vec::new()),
    ];
    for (m, &mc) in sweep.iter().enumerate() {
        let mut cells = vec![mc.to_string()];
        for (i, _) in ResourceLevel::ALL.iter().enumerate() {
            let (_, _, s) = rows[i * sweep.len() + m];
            cells.push(format!("{:.0}", s.mean_response_ms));
            series[i].1.push(s.mean_response_ms);
        }
        t.row(&cells);
    }
    let _ = write!(out, "{t}");
    let _ = write!(out, "{}", ascii_chart(&series, 12));
    for (name, values) in &series {
        let (best_idx, best) = values
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty sweep");
        let _ = writeln!(
            out,
            "  preferred MaxClients on {name}: {} ({best:.0} ms)",
            sweep[best_idx]
        );
    }
    save(&t, opts, "fig2.csv", out);
}

fn fig3(opts: &Options, out: &mut String) {
    banner(
        out,
        "Figure 3: performance under configurations tuned for different VM levels",
    );
    let spec = paper_system_spec();
    let tuned: Vec<(ResourceLevel, ServerConfig)> = ResourceLevel::ALL
        .iter()
        .map(|&level| {
            let (cfg, _) = best_config_for(&spec.clone().with_level(level), opts);
            (level, cfg)
        })
        .collect();

    let jobs: Vec<MeasureJob> = ResourceLevel::ALL
        .iter()
        .flat_map(|&run_level| tuned.iter().map(move |&(_, cfg)| (run_level, cfg)))
        .map(|(run_level, cfg)| {
            MeasureJob::new(
                spec.clone().with_level(run_level),
                cfg,
                opts.warmup(),
                opts.interval(),
            )
        })
        .collect();
    let samples = Runner::global().run(&jobs);

    let mut t = TextTable::new(&[
        "platform",
        "level1-best cfg",
        "level2-best cfg",
        "level3-best cfg",
    ]);
    for (r, &run_level) in ResourceLevel::ALL.iter().enumerate() {
        let mut cells = vec![run_level.to_string()];
        for c in 0..tuned.len() {
            cells.push(format!(
                "{:.0}",
                samples[r * tuned.len() + c].mean_response_ms
            ));
        }
        t.row(&cells);
    }
    let _ = write!(out, "{t}");
    save(&t, opts, "fig3.csv", out);
}

fn fig4(opts: &Options, out: &mut String) {
    banner(
        out,
        "Figure 4: concave upward effect of MaxClients and regression",
    );
    let sweep: Vec<u32> = (0..=11).map(|i| 50 + i * 50).collect();
    let spec = paper_system_spec();
    let configs: Vec<ServerConfig> = sweep
        .iter()
        .map(|&mc| {
            ServerConfig::default()
                .with(Param::MaxClients, mc)
                .expect("in range")
        })
        .collect();
    let measurer = SimMeasurer::new(spec, opts.warmup(), opts.interval());
    let samples = measurer.sample_batch(&configs);
    let xs: Vec<Vec<f64>> = sweep.iter().map(|&mc| vec![mc as f64]).collect();
    let ys: Vec<f64> = samples.iter().map(|s| s.mean_response_ms).collect();
    // Winsorize exactly like the initialization pipeline: the choked
    // low-MaxClients corner is orders of magnitude off-scale and would
    // dominate the least-squares fit.
    let mut sorted = ys.clone();
    sorted.sort_by(f64::total_cmp);
    let cap = sorted[sorted.len() / 2] * 25.0;
    let fit_ys: Vec<f64> = ys.iter().map(|y| y.min(cap)).collect();
    let model = numerics::PolynomialModel::fit(&xs, &fit_ys).expect("quadratic fit");
    let mut t = TextTable::new(&["MaxClients", "measured (ms)", "regression (ms)"]);
    let mut measured = Vec::new();
    let mut fitted = Vec::new();
    for (x, y) in xs.iter().zip(&ys) {
        let pred = model.predict(x);
        t.row(&[
            format!("{}", x[0] as u32),
            format!("{y:.0}"),
            format!("{pred:.0}"),
        ]);
        measured.push(*y);
        fitted.push(pred);
    }
    let _ = write!(out, "{t}");
    let _ = write!(
        out,
        "{}",
        ascii_chart(&[("measured", measured), ("regression", fitted)], 12)
    );
    let _ = writeln!(
        out,
        "  fit: r² = {:.3}, rmse = {:.1} ms",
        model.quality().r_squared,
        model.quality().rmse
    );
    save(&t, opts, "fig4.csv", out);
}

// --------------------------------------------------------------------
// Online-learning figures (Section 5)
// --------------------------------------------------------------------

/// Band of the "driven to a stable state" test: a series has converged
/// once it stays within 20% of its final plateau.
const CONVERGENCE_BAND: f64 = 0.2;

fn experiment_123(opts: &Options) -> Experiment {
    let contexts = paper_contexts();
    let n = opts.iters(30);
    Experiment::new(paper_system_spec())
        .with_interval(opts.interval())
        .with_warmup(opts.warmup())
        .then(contexts[0], n)
        .then(contexts[1], n)
        .then(contexts[2], n)
}

fn series_table(
    opts: &Options,
    file: &str,
    named: &[(&str, &Vec<IterationRecord>)],
    out: &mut String,
) {
    let mut headers = vec!["iteration"];
    headers.extend(named.iter().map(|(n, _)| *n));
    let mut t = TextTable::new(&headers);
    let len = named.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
    for i in 0..len {
        let mut cells = vec![i.to_string()];
        for (_, s) in named {
            cells.push(
                s.get(i)
                    .map(|r| format!("{:.0}", r.response_ms))
                    .unwrap_or_default(),
            );
        }
        t.row(&cells);
    }
    save(&t, opts, file, out);
    let chart: Vec<(&str, Vec<f64>)> = named
        .iter()
        .map(|(n, s)| (*n, response_series(s)))
        .collect();
    let _ = write!(out, "{}", ascii_chart(&chart, 14));
}

fn fig5(opts: &Options, library: &PolicyLibrary, out: &mut String) {
    banner(
        out,
        "Figure 5: performance due to different auto-configuration policies",
    );
    let exp = experiment_123(opts);

    let mut rac_agent = RacAgent::with_policy_library(standard_settings(), library.clone());
    let rac_series = exp.run(&mut rac_agent);
    let mut tae = TrialAndError::new(ONLINE_LEVELS);
    let tae_series = exp.run(&mut tae);
    let mut dflt = StaticDefault::new();
    let dflt_series = exp.run(&mut dflt);

    series_table(
        opts,
        "fig5.csv",
        &[
            ("RAC", &rac_series),
            ("trial-and-error", &tae_series),
            ("static default", &dflt_series),
        ],
        out,
    );

    let (m_rac, m_tae, m_dflt) = (
        series_mean(&rac_series),
        series_mean(&tae_series),
        series_mean(&dflt_series),
    );
    let _ = writeln!(out, "  mean response time: RAC {m_rac:.0} ms | trial-and-error {m_tae:.0} ms | default {m_dflt:.0} ms");
    let _ = writeln!(
        out,
        "  RAC improvement: {:.0}% vs trial-and-error, {:.0}% vs static default",
        100.0 * (m_tae - m_rac) / m_tae,
        100.0 * (m_dflt - m_rac) / m_dflt
    );
    let n = exp.total_iterations() / 3;
    for (phase, label) in [(0, "context-1"), (1, "context-2"), (2, "context-3")] {
        let slice = &response_series(&rac_series)[phase * n..(phase + 1) * n];
        match convergence_iteration(slice, CONVERGENCE_BAND) {
            Some(it) => {
                let _ = writeln!(out, "  RAC stabilized in {label} after {it} iterations");
            }
            None => {
                let _ = writeln!(out, "  RAC did not stabilize in {label}");
            }
        }
    }
    let _ = writeln!(
        out,
        "  RAC policy switches: {}",
        rac_agent.policy_switches()
    );
}

fn fig6(opts: &Options, library: &PolicyLibrary, out: &mut String) {
    banner(out, "Figure 6: effect of online training");
    let context = paper_contexts()[0];
    let policy = library
        .for_context(context)
        .expect("context-1 policy")
        .clone();
    let exp = Experiment::new(paper_system_spec())
        .with_interval(opts.interval())
        .with_warmup(opts.warmup())
        .then(context, opts.iters(40));

    let mut with_ol = RacAgent::with_initial_policy(standard_settings(), &policy);
    let with_series = exp.run(&mut with_ol);
    let mut without_ol = RacAgent::with_initial_policy(
        RacSettings {
            online_learning: false,
            ..standard_settings()
        },
        &policy,
    );
    let without_series = exp.run(&mut without_ol);

    series_table(
        opts,
        "fig6.csv",
        &[
            ("w/ online learning", &with_series),
            ("w/o online learning", &without_series),
        ],
        out,
    );
    let tail = with_series.len().saturating_sub(10);
    let _ = writeln!(
        out,
        "  stable performance: w/ online learning {:.0} ms | w/o {:.0} ms",
        series_mean(&with_series[tail..]),
        series_mean(&without_series[tail..])
    );
}

fn fig7(opts: &Options, library: &PolicyLibrary, out: &mut String) {
    banner(
        out,
        "Figure 7: performance with and without policy initialization",
    );
    for (sub, ctx_index) in [("a", 1usize), ("b", 3usize)] {
        let context = paper_contexts()[ctx_index];
        let _ = writeln!(out, "-- Figure 7({sub}): context-{}", ctx_index + 1);
        let policy = library
            .for_context(context)
            .expect("Table-2 context")
            .clone();
        let exp = Experiment::new(paper_system_spec())
            .with_interval(opts.interval())
            .with_warmup(opts.warmup())
            .then(context, opts.iters(30));

        let mut with_init = RacAgent::with_initial_policy(standard_settings(), &policy);
        let with_series = exp.run(&mut with_init);
        let mut without_init = RacAgent::new(standard_settings());
        let without_series = exp.run(&mut without_init);

        series_table(
            opts,
            &format!("fig7{sub}.csv"),
            &[
                ("w/ init policy", &with_series),
                ("w/o init policy", &without_series),
            ],
            out,
        );
        let _ = writeln!(
            out,
            "  mean: w/ init {:.0} ms | w/o init {:.0} ms | stable-after: {:?}",
            series_mean(&with_series),
            series_mean(&without_series),
            convergence_iteration(&response_series(&with_series), CONVERGENCE_BAND)
        );
    }
}

fn fig8(opts: &Options, library: &PolicyLibrary, out: &mut String) {
    banner(out, "Figure 8: effect of online exploration rates");
    let context = paper_contexts()[0];
    let policy = library
        .for_context(context)
        .expect("context-1 policy")
        .clone();
    let exp = Experiment::new(paper_system_spec())
        .with_interval(opts.interval())
        .with_warmup(opts.warmup())
        .then(context, opts.iters(50));

    let mut all = Vec::new();
    for epsilon in [0.05, 0.1, 0.3] {
        // The paper's experiment uses plain (unguarded) ε-greedy — the
        // whole point is to see what raw exploration costs online.
        let mut agent = RacAgent::with_initial_policy(
            RacSettings {
                epsilon,
                exploration_guard: f64::INFINITY,
                ..standard_settings()
            },
            &policy,
        );
        all.push((format!("rate {epsilon}"), exp.run(&mut agent)));
    }
    let named: Vec<(&str, &Vec<IterationRecord>)> =
        all.iter().map(|(n, s)| (n.as_str(), s)).collect();
    series_table(opts, "fig8.csv", &named, out);
    for (name, series) in &all {
        let rts = response_series(series);
        let median = {
            let mut v: Vec<f64> = rts.iter().copied().filter(|x| x.is_finite()).collect();
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let spikes = rts.iter().filter(|&&rt| rt > 2.0 * median).count();
        let _ = writeln!(
            out,
            "  {name}: mean {:.0} ms, spikes (>2x median): {spikes}",
            series_mean(series)
        );
    }
}

fn fig9(opts: &Options, library: &PolicyLibrary, out: &mut String) {
    banner(
        out,
        "Figure 9: performance with static and adaptive policy initialization",
    );
    let static_policy = library
        .for_context(paper_contexts()[1])
        .expect("context-2")
        .clone();
    for (sub, ctx_index) in [("a", 4usize), ("b", 5usize)] {
        let context = paper_contexts()[ctx_index];
        let _ = writeln!(out, "-- Figure 9({sub}): context-{}", ctx_index + 1);
        let exp = Experiment::new(paper_system_spec())
            .with_interval(opts.interval())
            .with_warmup(opts.warmup())
            .then(context, opts.iters(40));

        let mut adaptive = RacAgent::with_policy_library(standard_settings(), library.clone());
        let adaptive_series = exp.run(&mut adaptive);
        let mut static_agent = RacAgent::with_initial_policy(standard_settings(), &static_policy);
        let static_series = exp.run(&mut static_agent);

        series_table(
            opts,
            &format!("fig9{sub}.csv"),
            &[
                ("adaptive init policy", &adaptive_series),
                ("static init policy", &static_series),
            ],
            out,
        );
        let _ = writeln!(
            out,
            "  mean: adaptive {:.0} ms | static {:.0} ms | static stable-after {:?}",
            series_mean(&adaptive_series),
            series_mean(&static_series),
            convergence_iteration(&response_series(&static_series), CONVERGENCE_BAND)
        );
    }
}

fn fig10(opts: &Options, library: &PolicyLibrary, out: &mut String) {
    banner(out, "Figure 10: performance due to different RL policies");
    let static_policy = library
        .for_context(paper_contexts()[1])
        .expect("context-2")
        .clone();
    let exp = experiment_123(opts);

    let mut adaptive = RacAgent::with_policy_library(standard_settings(), library.clone());
    let adaptive_series = exp.run(&mut adaptive);
    let mut static_agent = RacAgent::with_initial_policy(standard_settings(), &static_policy);
    let static_series = exp.run(&mut static_agent);
    let mut cold = RacAgent::new(standard_settings());
    let cold_series = exp.run(&mut cold);

    series_table(
        opts,
        "fig10.csv",
        &[
            ("adaptive init", &adaptive_series),
            ("static init", &static_series),
            ("w/o init", &cold_series),
        ],
        out,
    );
    let (ma, ms, mc) = (
        series_mean(&adaptive_series),
        series_mean(&static_series),
        series_mean(&cold_series),
    );
    let _ = writeln!(
        out,
        "  mean response time: adaptive {ma:.0} ms | static {ms:.0} ms | w/o init {mc:.0} ms"
    );
    let _ = writeln!(
        out,
        "  static-vs-adaptive loss: {:.0}%",
        100.0 * (ms - ma) / ma
    );
}
