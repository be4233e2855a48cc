//! The `policy-init` workload: offline training of Table-2 contexts
//! from an empty cache (Algorithm 2: parallel coarse sampling through
//! `rac::runner`, regression fit, serial offline RL sweep), each policy
//! stored to the on-disk policy cache as `figures` stores it.

use std::cell::RefCell;
use std::path::Path;
use std::time::Instant;

use rac::{
    train_initial_policy, ConfigLattice, ConfigMdp, InitialPolicy, Measure, Runner, SimMeasurer,
    SlaReward, SystemContext,
};
use rac_bench::cache;
use rl::Environment;
use websim::ServerConfig;

use crate::spans::Spans;
use crate::stats::{self, Ratio};
use crate::{Report, Run};

/// Table-2 contexts trained per run (Context-1, -3 and -6: all three
/// mixes, two resource levels), a subset that keeps a run near 25 s.
const CONTEXTS: [usize; 3] = [0, 2, 5];
/// Times the set-up of every trained context is repeated; its median
/// is reported.
const SETUP_REPS: usize = 1001;
/// Retrains per context behind `recovery_ms_p50`. A retrain's time
/// depends on where its fresh tables land in memory, so one per context
/// is too few for a steady median.
const RETRAINS: usize = 2;

/// A forwarding [`Measure`] that times each batch it hands on.
struct TimedMeasure<'a> {
    inner: SimMeasurer,
    batches: &'a RefCell<Vec<(Instant, Instant)>>,
}

impl Measure for TimedMeasure<'_> {
    fn measure(&mut self, config: &ServerConfig) -> f64 {
        self.measure_batch(std::slice::from_ref(config))[0]
    }

    fn measure_batch(&mut self, configs: &[ServerConfig]) -> Vec<f64> {
        let start = Instant::now();
        let out = self.inner.measure_batch(configs);
        self.batches.borrow_mut().push((start, Instant::now()));
        out
    }
}

/// One trained context.
struct Trained {
    policy: InitialPolicy,
    /// Training plus storing, seconds.
    secs: f64,
    digest: String,
    /// Each retrain from the warm measurement cache, seconds.
    retrain_secs: Vec<f64>,
    /// Offline sweep passes of the retrains.
    retrain_passes: usize,
    /// Whether the stored policy reloads, and the retrained policy
    /// stores to the same bytes.
    reproduced: bool,
}

fn policy_path(dir: &Path, index: usize) -> std::path::PathBuf {
    dir.join(format!(
        "policy-ctx{}-L{}.bin",
        index + 1,
        rac_bench::ONLINE_LEVELS
    ))
}

/// Prepares an empty policy cache and checks that no context is
/// found in it (outside the timed work).
fn empty_cache(dir: &Path, lattice: &ConfigLattice) -> bool {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).is_ok()
        && CONTEXTS
            .iter()
            .all(|&i| cache::load_policy(&policy_path(dir, i), lattice).is_none())
}

/// What training a context needs before its first sample: the lattice,
/// and a measurer on the seeded testbed spec narrowed to the context.
fn training_setup(seed: u64, context: SystemContext) -> (ConfigLattice, SimMeasurer) {
    let lattice = rac_bench::standard_lattice();
    let options = rac_bench::standard_training_options();
    let spec = rac_bench::paper_system_spec()
        .with_seed(seed)
        .with_mix(context.mix)
        .with_level(context.level);
    let measurer = SimMeasurer::new(spec, options.warmup, options.measure);
    (lattice, measurer)
}

/// Trains one context from an empty measurement cache and stores it,
/// then retrains it [`RETRAINS`] times. The calls are those of
/// `rac::train_policy_for_context` (a [`SimMeasurer`] for the context's
/// mix and level, then `train_initial_policy`), with the measurer
/// behind a forwarding [`TimedMeasure`] so sampling is timed apart from
/// the fit and sweep.
///
/// A retrain is what a build restarted inside the same process (as
/// `racd` restarts its workers) pays to recover a lost context: the
/// runner's measurement cache survives, so sampling is all cache hits
/// and the fit and sweep run again.
fn train(
    seed: u64,
    index: usize,
    dir: &Path,
    spans: &mut Spans,
    batches: &RefCell<Vec<(Instant, Instant)>>,
) -> Result<Trained, String> {
    let context: SystemContext = rac::paper_contexts()[index];
    let train_once = |spans: &mut Spans| {
        spans.enter("rl");
        let (lattice, inner) = training_setup(seed, context);
        let measurer = TimedMeasure { inner, batches };
        let reward = SlaReward::new(rac_bench::SLA_MS);
        let settings = rac_bench::standard_training_options().settings;
        let policy = train_initial_policy(&lattice, reward, settings, measurer)
            .map_err(|e| format!("context {}: {e}", index + 1));
        spans.exit();
        policy
    };
    Runner::global().clear_cache();
    let t = Instant::now();
    let policy = train_once(spans)?;
    let path = policy_path(dir, index);
    spans.enter("cache");
    cache::store_policy(&path, &policy).map_err(|e| format!("{}: {e}", path.display()))?;
    let secs = t.elapsed().as_secs_f64();
    let lattice = rac_bench::standard_lattice();
    let read = |p: &Path| std::fs::read(p).map_err(|e| format!("{}: {e}", p.display()));
    let bytes = read(&path)?;
    let mut reproduced =
        cache::load_policy(&path, &lattice).is_some_and(|p| p.perf_ms == policy.perf_ms);
    spans.exit();

    let mut retrain_secs = Vec::with_capacity(RETRAINS);
    let mut retrain_passes = 0;
    for _ in 0..RETRAINS {
        let t = Instant::now();
        let retrained = train_once(spans)?;
        retrain_secs.push(t.elapsed().as_secs_f64());
        retrain_passes += retrained.passes;
        spans.enter("cache");
        let again = dir.join("retrained.bin");
        cache::store_policy(&again, &retrained)
            .map_err(|e| format!("{}: {e}", again.display()))?;
        reproduced &= read(&again)? == bytes;
        spans.exit();
    }
    Ok(Trained {
        policy,
        secs,
        digest: stats::digest(&bytes),
        retrain_secs,
        retrain_passes,
        reproduced,
    })
}

/// Predicted response time at the state the policy's greedy walk from
/// the default configuration settles in: what RAC expects to reach
/// when it starts online from this policy.
fn greedy_end_rt(policy: &InitialPolicy, lattice: &ConfigLattice, mdp: &ConfigMdp) -> f64 {
    let mut s = lattice.state_of(&ServerConfig::default());
    for _ in 0..lattice.num_states() {
        let next = mdp.transition(s, policy.qtable.best_action(s));
        if next == s {
            break;
        }
        s = next;
    }
    policy.predicted_perf(s)
}

/// The `policy-init` workload.
pub fn policy_init(run: &Run, report: &mut Report) {
    let dir = run.work_dir.join(format!("init-{}", std::process::id()));
    let lattice = rac_bench::standard_lattice();
    report.op(
        empty_cache(&dir, &lattice),
        format!("cannot prepare an empty cache in {}", dir.display()),
    );
    // The simulator seed is the workload seed (the default seed is the
    // standard testbed's own, so the default run retrains the standard
    // library's contexts).
    let contexts = rac::paper_contexts();
    let mut setup = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        for &index in &CONTEXTS {
            std::hint::black_box(training_setup(run.seed, contexts[index]));
        }
        setup.push(t.elapsed().as_secs_f64());
    }
    report.put("setup_s", stats::median(&setup).expect("setup ran"));

    let batches = RefCell::new(Vec::new());
    let stats0 = Runner::global().cache_stats();
    let job_ms0 = obs::Registry::global()
        .histogram("rac_runner_job_ms")
        .sum_ms();
    let mut spans = Spans::new("bench");
    let mut trained: Vec<Trained> = Vec::new();
    for &index in &CONTEXTS {
        match train(run.seed, index, &dir, &mut spans, &batches) {
            Ok(t) => trained.push(t),
            Err(e) => report.op(false, e),
        }
    }
    let t_end = Instant::now();
    check(run, &trained, report);

    let per_context: Vec<f64> = trained.iter().map(|t| t.secs).collect();
    let total: f64 = per_context.iter().sum();
    let ms: Vec<f64> = per_context.iter().map(|s| s * 1e3).collect();
    let secs_per_context = total / trained.len().max(1) as f64;
    report.put("iter_per_s", trained.len() as f64 / total);
    report.put("iter_ms_p50", stats::percentile(&ms, 50.0).unwrap_or(0.0));
    report.put("iter_ms_p95", stats::percentile(&ms, 95.0).unwrap_or(0.0));
    report.put_layer("bench.iter_samples", ms.len() as f64);
    report.put("init_s_per_context", secs_per_context);

    let mut retrain_ms = Vec::new();
    for (t, index) in trained.iter().zip(CONTEXTS) {
        retrain_ms.extend(t.retrain_secs.iter().map(|s| s * 1e3));
        report.op(
            t.reproduced,
            format!(
                "context {}: stored policy does not reload, or retraining changed it",
                index + 1
            ),
        );
    }
    report.put(
        "recovery_ms_p50",
        stats::percentile(&retrain_ms, 50.0).unwrap_or(0.0),
    );

    let mdp = ConfigMdp::new(&lattice, SlaReward::new(rac_bench::SLA_MS));
    let end_rt: Vec<f64> = trained
        .iter()
        .map(|t| greedy_end_rt(&t.policy, &lattice, &mdp))
        .collect();
    report.put(
        "rac_mean_rt_ms",
        end_rt.iter().sum::<f64>() / end_rt.len().max(1) as f64,
    );
    let over: usize = trained
        .iter()
        .map(|t| {
            t.policy
                .perf_ms
                .iter()
                .filter(|&&p| f64::from(p) > rac_bench::SLA_MS)
                .count()
        })
        .sum();
    report.put(
        "rac_sla_viol_pct",
        Ratio::new(
            over as f64,
            (trained.len() * lattice.num_states()) as f64,
        )
        .pct(),
    );
    let _ = std::fs::remove_dir_all(&dir);
    report.note_untraced_wall(run, secs_per_context);

    if run.trace {
        spans.exit_at(spans.at(t_end));
        for &(s, e) in batches.borrow().iter() {
            // Sampling batches nest inside their context's `rl` span.
            spans.nest("rac::runner", spans.at(s), spans.at(e));
        }
        let ledger = spans.finish();
        let wall = ledger.wall;
        let sampling = ledger.self_s("rac::runner");
        let fit_sweep = ledger.self_s("rl");
        let stats1 = Runner::global().cache_stats();
        let hits = stats1.hits - stats0.hits;
        let misses = stats1.misses - stats0.misses;
        let job_ms = obs::Registry::global()
            .histogram("rac_runner_job_ms")
            .sum_ms()
            - job_ms0;
        let threads = Runner::global().threads() as f64;
        let passes_total: usize = trained
            .iter()
            .map(|t| t.policy.passes + t.retrain_passes)
            .sum();
        report.put_layer("runner.sampling_s", sampling);
        report.put_layer("runner.jobs", (hits + misses) as f64);
        report.put_layer(
            "runner.cache_hit_pct",
            Ratio::new(hits as f64, (hits + misses) as f64).pct(),
        );
        report.put_layer(
            "runner.parallel_eff_pct",
            Ratio::new(job_ms / 1e3, sampling * threads).pct(),
        );
        report.put_layer("websim.share_pct", Ratio::new(sampling, wall).pct());
        report.put_layer("init.fit_sweep_s", fit_sweep);
        report.put_layer("rl.offline_passes", passes_total as f64);
        let updates = passes_total as f64 * (lattice.num_states() * rac::Action::COUNT) as f64;
        report.put_layer("rl.offline_updates_per_s", updates / fit_sweep);
        report.put_layer(
            "init.fit_sweep_share_pct",
            Ratio::new(fit_sweep, wall).pct(),
        );
        report.ledger(run, &ledger, secs_per_context);
    }
}

/// Output check: every policy is well formed and, for the default
/// seed, each stored policy file matches its reference digest.
fn check(run: &Run, trained: &[Trained], report: &mut Report) {
    let samples = rac::grouping::sampling_plan(rac::OfflineSettings::default().group_levels).len();
    for (t, index) in trained.iter().zip(CONTEXTS) {
        let name = format!("context-{}", index + 1);
        eprintln!("digest policy-init {name} {}", t.digest);
        let p = &t.policy;
        report.op(
            p.samples == samples
                && p.passes < rac::OfflineSettings::default().max_passes
                && p.fit.r_squared.is_finite()
                && p.perf_ms.iter().all(|x| x.is_finite() && *x > 0.0),
            format!("policy-init {name}: malformed policy"),
        );
        if run.seed == crate::DEFAULT_SEED {
            let want = crate::reference_digest("policy-init", &name);
            report.op(
                want == Some(t.digest.as_str()),
                format!(
                    "policy-init {name}: digest {}, reference {want:?}",
                    t.digest
                ),
            );
        }
    }
}
