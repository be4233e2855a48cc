//! The `lineup` and `lineup-ckpt` workloads: the standard three-tuner
//! line-up (RAC seeded from the six-context library, trial-and-error,
//! static default) driven closed-loop, one interval after another, on
//! a single thread — bare as `figures scenario` runs it, or through the
//! checkpointed path `racd` runs, with seeded kills and resumes.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use ckpt::Snapshot;
use obs::{Histogram, Registry, TraceWriter};
use rac::{
    Experiment, IterationRecord, PolicyLibrary, RacAgent, StaticDefault, TrialAndError, Tuner,
};
use rac_bench::checkpoint::{
    run_tuners_checkpointed_with, CheckpointOptions, LineupCommand, LineupOutcome,
};
use scenario::gen::Difficulty;
use scenario::Scenario;
use simkernel::Pcg64;
use websim::{PerfSample, ServerConfig};

use crate::spans::{Ledger, Spans};
use crate::stats::{self, Ratio};
use crate::{Report, Run};

/// Bundled scenarios of the bare line-up, in run order.
const LINEUP_BUNDLED: [&str; 3] = ["flash-crowd", "diurnal", "degrade"];
/// Generated scenarios of the bare line-up: one draw per difficulty.
const LINEUP_DRAWN: [Difficulty; 3] = [Difficulty::Calm, Difficulty::Brisk, Difficulty::Stormy];
/// Scenarios of the checkpointed line-up: a subset, so a run of the 4×
/// slower path stays short while it still has ≥ 210 boundaries (the
/// heavy-tail and fault regimes are the brisk and stormy draws).
const CKPT_BUNDLED: [&str; 2] = ["flash-crowd", "degrade"];
const CKPT_DRAWN: [Difficulty; 2] = [Difficulty::Brisk, Difficulty::Stormy];
/// Flush period of the checkpointed line-up, as `racd` runs it.
const CKPT_EVERY: usize = 5;
/// Times the set-up is repeated; its median is reported.
const SETUP_REPS: usize = 9;

type Series = Vec<(&'static str, Vec<IterationRecord>)>;

/// What a line-up hands to the output check: one entry per scenario.
struct Output {
    name: String,
    csv: String,
    trace: String,
}

impl Output {
    /// Digests of the CSV and of the trace.
    fn digests(&self) -> (String, String) {
        (
            stats::digest(self.csv.as_bytes()),
            stats::digest(self.trace.as_bytes()),
        )
    }
}

/// Where a `lineup` run records its outputs' digests for its seed.
fn outputs_record(run: &Run) -> PathBuf {
    run.work_dir
        .join(format!("lineup-outputs-{}.txt", run.seed))
}

/// Records the digests of a passing bare line-up's outputs, merged with
/// those already recorded for the seed by this build.
fn write_outputs_record(run: &Run, outputs: &[Output]) {
    let mut record = read_outputs_record(run);
    record.extend(outputs.iter().map(|o| (o.name.clone(), o.digests())));
    let text: String = record
        .iter()
        .map(|(name, (csv, trace))| format!("{name} {csv} {trace}\n"))
        .collect();
    if let Err(e) = std::fs::write(outputs_record(run), text) {
        eprintln!("warning: cannot record line-up outputs: {e}");
    }
}

fn read_outputs_record(run: &Run) -> BTreeMap<String, (String, String)> {
    let text = std::fs::read_to_string(outputs_record(run)).unwrap_or_default();
    text.lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let name = f.next()?.to_string();
            Some((name, (f.next()?.to_string(), f.next()?.to_string())))
        })
        .collect()
}

/// The seeded scenario list: the bundled scenarios with their simulator
/// seed taken from the workload seed (the benchmark's default seed is
/// the bundles' own), plus one generated scenario per difficulty given.
fn scenarios(seed: u64, bundled: &[&str], drawn: &[Difficulty]) -> Vec<Scenario> {
    let mut out: Vec<Scenario> = bundled
        .iter()
        .map(|name| {
            let mut scn = rac_bench::scenario::resolve(name).expect("bundled scenario parses");
            scn.seed = Some(seed);
            scn
        })
        .collect();
    out.extend(drawn.iter().map(|&d| scenario::gen::generate(seed, d)));
    out
}

/// Loads the policy library from the benchmark's cache (training it on
/// first use, untimed) and compiles the scenarios; the timed part is
/// repeated and its median reported as `setup_s`.
fn setup(
    run: &Run,
    bundled: &[&str],
    drawn: &[Difficulty],
    report: &mut Report,
) -> (PolicyLibrary, Vec<Scenario>) {
    let cache = run.work_dir.join("cache");
    drop(rac_bench::standard_policy_library(&cache));
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut loaded = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let library = rac_bench::standard_policy_library(&cache);
        let scns = scenarios(run.seed, bundled, drawn);
        for scn in &scns {
            std::hint::black_box(scn.compile());
        }
        times.push(t.elapsed().as_secs_f64());
        loaded = Some((library, scns));
    }
    report.put("setup_s", stats::median(&times).expect("setup ran"));
    loaded.expect("setup ran")
}

/// Per-iteration timestamps from the forwarding tuner.
struct Probe {
    /// The program's `measure` span histogram (one record per simulated
    /// interval, warm-up excluded).
    measure: Histogram,
    /// Its sum, ms, when the scenario started.
    measure_ms0: f64,
    /// Its sum, ms, at each boundary.
    measure_ms: Vec<f64>,
    /// Instant each interval's simulation ended (the tuner is told
    /// whether the channel is degraded right after it).
    sim_end: Vec<Instant>,
    /// `(start, end, is RAC)` of each decision, by iteration.
    decide: Vec<Option<(Instant, Instant, bool)>>,
    /// Requests the simulator handled in each decided interval.
    requests: Vec<u64>,
}

/// A forwarding [`Tuner`] that timestamps the loop around the wrapped
/// tuner without changing what it sees or returns.
struct Timed<'a> {
    inner: &'a mut dyn Tuner,
    probe: &'a mut Probe,
    is_rac: bool,
}

impl Tuner for Timed<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_config(&mut self, observed: &PerfSample) -> ServerConfig {
        let start = Instant::now();
        let next = self.inner.next_config(observed);
        let end = Instant::now();
        if let Some(slot) = self.probe.decide.last_mut() {
            *slot = Some((start, end, self.is_rac));
        }
        self.probe
            .requests
            .push(observed.completed + observed.refused);
        next
    }

    fn set_degraded(&mut self, degraded: bool) {
        self.probe.sim_end.push(Instant::now());
        self.probe.measure_ms.push(self.probe.measure.sum_ms());
        self.probe.decide.push(None);
        self.inner.set_degraded(degraded);
    }
}

/// Timing of one bare scenario line-up.
struct BareRun {
    start: Instant,
    /// Session start instants (one per tuner).
    sessions: Vec<Instant>,
    probe: Probe,
    trace_s: (Instant, Instant),
}

impl Probe {
    fn new() -> Self {
        let measure = Registry::global().histogram("rac_span_ms_measure");
        Probe {
            measure_ms0: measure.sum_ms(),
            measure,
            measure_ms: Vec::new(),
            sim_end: Vec::new(),
            decide: Vec::new(),
            requests: Vec::new(),
        }
    }

    /// The program's `measure` time of each interval, ms.
    fn interval_ms(&self) -> Vec<f64> {
        let mut prev = self.measure_ms0;
        self.measure_ms
            .iter()
            .map(|&sum| {
                let ms = sum - prev;
                prev = sum;
                ms
            })
            .collect()
    }
}

impl BareRun {
    /// Boundary instants: the end of each iteration's decision, or of
    /// its simulation when the breaker skipped the tuner.
    fn boundaries(&self) -> Vec<Instant> {
        self.probe
            .sim_end
            .iter()
            .zip(&self.probe.decide)
            .map(|(s, d)| d.map_or(*s, |(_, e, _)| e))
            .collect()
    }

    /// Seconds the RAC session's first decision took.
    fn first_rac_decision_s(&self) -> Option<f64> {
        self.probe
            .decide
            .iter()
            .flatten()
            .find(|d| d.2)
            .map(|(s, e, _)| e.duration_since(*s).as_secs_f64())
    }

    /// Host time from one boundary to the next, ms (the first from the
    /// scenario's start).
    fn gaps_ms(&self) -> Vec<f64> {
        let mut prev = self.start;
        self.boundaries()
            .into_iter()
            .map(|b| {
                let gap = b.duration_since(prev).as_secs_f64() * 1e3;
                prev = b;
                gap
            })
            .collect()
    }
}

/// Runs the line-up through one scenario exactly as
/// [`rac_bench::scenario::run_tuners`] does, with each tuner behind a
/// [`Timed`] wrapper and the decision trace on.
fn run_bare(scn: &Scenario, library: &PolicyLibrary) -> (Series, String, BareRun) {
    let start = Instant::now();
    let writer = Arc::new(TraceWriter::new());
    let mut probe = Probe::new();
    let mut sessions = Vec::new();
    let series = obs::trace::with_writer(&writer, || {
        let exp = Experiment::for_scenario(rac_bench::paper_system_spec(), scn);
        let mut rac_agent =
            RacAgent::with_policy_library(rac_bench::standard_settings(), library.clone());
        let mut tae = TrialAndError::new(rac_bench::ONLINE_LEVELS);
        let mut dflt = StaticDefault::new();
        let tuners: [(&'static str, &mut dyn Tuner); 3] = [
            ("RAC", &mut rac_agent),
            ("trial-and-error", &mut tae),
            ("static default", &mut dflt),
        ];
        tuners
            .into_iter()
            .map(|(name, inner)| {
                sessions.push(Instant::now());
                let mut timed = Timed {
                    inner,
                    probe: &mut probe,
                    is_rac: name == "RAC",
                };
                (name, exp.run_scenario(scn, &mut timed))
            })
            .collect::<Series>()
    });
    let t0 = Instant::now();
    let trace = writer.serialize();
    let t1 = Instant::now();
    let run = BareRun {
        start,
        sessions,
        probe,
        trace_s: (t0, t1),
    };
    (series, trace, run)
}

fn csv_of(scn: &Scenario, series: &Series) -> String {
    let named: Vec<(&str, Vec<IterationRecord>)> =
        series.iter().map(|(n, s)| (*n, s.clone())).collect();
    rac_bench::scenario::scenario_table(scn, &named).render_csv()
}

/// RAC's mean response time and SLA-violation share over the bundled
/// scenarios (the generated draws vary too much between seeds for a
/// steady figure; they are covered by the output check).
fn rac_outcome(bundled: usize, all: &[Series], report: &mut Report) {
    let rac: Vec<&IterationRecord> = all[..bundled]
        .iter()
        .flat_map(|series| series[0].1.iter())
        .collect();
    let finite: Vec<f64> = rac
        .iter()
        .map(|r| r.response_ms)
        .filter(|x| x.is_finite())
        .collect();
    report.put(
        "rac_mean_rt_ms",
        finite.iter().sum::<f64>() / finite.len() as f64,
    );
    let over = rac
        .iter()
        .filter(|r| r.response_ms > rac_bench::SLA_MS || r.response_ms.is_nan())
        .count();
    report.put(
        "rac_sla_viol_pct",
        Ratio::new(over as f64, rac.len() as f64).pct(),
    );
}

/// Boundary-gap metrics shared by both line-ups.
fn iteration_metrics(gaps: &[f64], report: &mut Report) {
    let total_s: f64 = gaps.iter().sum::<f64>() / 1e3;
    report.put("iter_per_s", gaps.len() as f64 / total_s);
    report.put("iter_ms_p50", stats::percentile(gaps, 50.0).unwrap_or(0.0));
    report.put("iter_ms_p95", stats::percentile(gaps, 95.0).unwrap_or(0.0));
    report.put_layer("bench.iter_samples", gaps.len() as f64);
    report.op(
        stats::percentile_resolved(gaps.len(), 95.0),
        "iter_ms_p95 needs at least 200 boundaries",
    );
}

/// `init_s_per_context` of a line-up: policy initialization as the
/// online agent pays it. Each RAC session starts from the library's
/// first policy; its first decision detects the context, adopts that
/// context's policy when it differs, and sweeps once. Median over the
/// bundled scenarios: their contexts are fixed, while a generated
/// draw's context, and so whether the first decision switches policy,
/// changes with the seed.
fn first_decision_metric(first_s: &[f64], report: &mut Report) {
    report.put(
        "init_s_per_context",
        stats::median(first_s).unwrap_or(0.0),
    );
}

/// Checks a line-up's outputs against the stored reference digests
/// (default seed only) and counts one operation per scenario.
fn check_reference(run: &Run, workload: &str, outputs: &[Output], report: &mut Report) {
    for o in outputs {
        let got = stats::digest(format!("{}{}", o.csv, o.trace).as_bytes());
        eprintln!("digest {workload} {} {got}", o.name);
        if run.seed == crate::DEFAULT_SEED {
            let want = crate::reference_digest(workload, &o.name);
            report.op(
                want == Some(got.as_str()),
                format!("{workload} {}: digest {got}, reference {want:?}", o.name),
            );
        }
    }
}

/// Registry sums read at a point in time, for deltas.
#[derive(Clone, Copy, Default)]
struct Sums {
    measure_ms: f64,
    tuner_ms: f64,
    checkpoint_ms: f64,
    restore_ms: f64,
    write_ms: f64,
    writes: u64,
    sweep_updates: u64,
}

impl Sums {
    fn now() -> Self {
        let r = Registry::global();
        Sums {
            measure_ms: r.histogram("rac_span_ms_measure").sum_ms(),
            tuner_ms: r.histogram("rac_span_ms_tuner").sum_ms(),
            checkpoint_ms: r.histogram("rac_span_ms_checkpoint").sum_ms(),
            restore_ms: r.histogram("rac_ckpt_restore_us").sum_ms(),
            write_ms: r.histogram("rac_ckpt_write_us").sum_ms(),
            writes: r.histogram("rac_ckpt_write_us").count(),
            sweep_updates: r.counter("rac_agent_sweep_updates_total").get(),
        }
    }

    fn since(self, before: Sums) -> Sums {
        Sums {
            measure_ms: self.measure_ms - before.measure_ms,
            tuner_ms: self.tuner_ms - before.tuner_ms,
            checkpoint_ms: self.checkpoint_ms - before.checkpoint_ms,
            restore_ms: self.restore_ms - before.restore_ms,
            write_ms: self.write_ms - before.write_ms,
            writes: self.writes - before.writes,
            sweep_updates: self.sweep_updates - before.sweep_updates,
        }
    }
}

/// The `lineup` workload.
pub fn lineup(run: &Run, report: &mut Report) {
    let (library, scns) = setup(run, &LINEUP_BUNDLED, &LINEUP_DRAWN, report);
    let sums0 = Sums::now();
    let mut spans = Spans::new("bench");
    let t0 = Instant::now();
    let mut gaps = Vec::new();
    let mut runs = Vec::new();
    let mut outputs = Vec::new();
    let mut all_series = Vec::new();
    for scn in &scns {
        let (series, trace, timing) = run_bare(scn, &library);
        gaps.extend(timing.gaps_ms());
        outputs.push(Output {
            name: scn.name.clone(),
            csv: csv_of(scn, &series),
            trace,
        });
        report.op(
            series.iter().all(|(_, s)| s.len() == scn.iterations()),
            format!("lineup {}: short series", scn.name),
        );
        report.ops(series.iter().map(|(_, s)| s.len()).sum());
        runs.push(timing);
        all_series.push(series);
    }
    let t_end = Instant::now();
    let wall = t_end.duration_since(t0).as_secs_f64();
    check_reference(run, "lineup", &outputs, report);
    if report.passing() {
        write_outputs_record(run, &outputs);
    }
    iteration_metrics(&gaps, report);
    let first: Vec<f64> = runs[..LINEUP_BUNDLED.len()]
        .iter()
        .filter_map(BareRun::first_rac_decision_s)
        .collect();
    first_decision_metric(&first, report);
    report.put(
        "recovery_ms_p50",
        stats::percentile(&session_openings(&runs), 50.0).unwrap_or(0.0),
    );
    rac_outcome(LINEUP_BUNDLED.len(), &all_series, report);
    report.note_untraced_wall(run, wall / gaps.len() as f64);

    if run.trace {
        for r in &runs {
            bare_spans(&mut spans, r);
        }
        spans.exit_at(spans.at(t_end));
        let sums = Sums::now().since(sums0);
        let ledger = spans.finish();
        LoopTimes::of_bare(&runs).report(sums.sweep_updates, report);
        report.put_layer(
            "websim.share_pct",
            Ratio::new(ledger.self_s("websim"), ledger.wall).pct(),
        );
        report.put_layer(
            "agent.share_pct",
            Ratio::new(ledger.self_s("rac::agent"), ledger.wall).pct(),
        );
        report.put_layer(
            "trace.prefix_bytes",
            outputs.last().map_or(0, |o| o.trace.len()) as f64,
        );
        report.ledger(run, &ledger, wall / gaps.len() as f64);
    }
}

/// Host time from each tuner session's start to the end of its first
/// simulated interval, ms, over the bundled scenarios: what a restart
/// costs the bare line-up (rebuilding the simulator, its warm-up and
/// one interval) before the tuner sees its first observation.
fn session_openings(runs: &[BareRun]) -> Vec<f64> {
    let mut out = Vec::new();
    for r in &runs[..LINEUP_BUNDLED.len()] {
        let per = r.probe.sim_end.len() / r.sessions.len().max(1);
        for (k, s) in r.sessions.iter().enumerate() {
            if let Some(end) = r.probe.sim_end.get(k * per) {
                out.push(end.duration_since(*s).as_secs_f64() * 1e3);
            }
        }
    }
    out
}

/// Rebuilds one bare scenario's spans. `websim` is the program's own
/// `measure` time of each interval, placed just before its boundary,
/// plus each tuner session's opening up to its first boundary (building
/// the simulator and its warm-up, which no program span covers);
/// `rac::agent` is each decision as the forwarding tuner timed it, and
/// `obs::trace` the final trace serialization. What lies between them
/// is left to the residual.
fn bare_spans(spans: &mut Spans, r: &BareRun) {
    let p = &r.probe;
    let per_session = p.sim_end.len() / r.sessions.len().max(1);
    let interval_ms = p.interval_ms();
    for (i, (sim_end, decide)) in p.sim_end.iter().zip(&p.decide).enumerate() {
        let end = spans.at(*sim_end);
        let start = match r.sessions.get(i / per_session.max(1)) {
            Some(session) if i % per_session.max(1) == 0 => spans.at(*session),
            _ => end - interval_ms[i] / 1e3,
        };
        spans.enter_at("websim", start);
        spans.exit_at(end);
        if let Some((s, e, _)) = decide {
            spans.enter_at("rac::agent", spans.at(*s));
            spans.exit_at(spans.at(*e));
        }
    }
    spans.enter_at("obs::trace", spans.at(r.trace_s.0));
    spans.exit_at(spans.at(r.trace_s.1));
}

/// Per-iteration loop times of a line-up: the program's `measure` time
/// of each simulated interval, RAC decisions, and the requests each
/// decided interval handled.
#[derive(Default)]
struct LoopTimes {
    interval_ms: Vec<f64>,
    decide_ms: Vec<f64>,
    requests: Vec<u64>,
}

impl LoopTimes {
    fn of_bare<'a>(runs: impl IntoIterator<Item = &'a BareRun>) -> Self {
        let mut t = LoopTimes::default();
        for r in runs {
            let p = &r.probe;
            t.requests.extend(&p.requests);
            t.interval_ms.extend(p.interval_ms());
            for (s, e, _) in p.decide.iter().flatten().filter(|d| d.2) {
                t.decide_ms.push(e.duration_since(*s).as_secs_f64() * 1e3);
            }
        }
        t
    }

    fn report(&self, sweep_updates: u64, report: &mut Report) {
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        let requests: Vec<f64> = self.requests.iter().map(|&n| n as f64).collect();
        let p = |xs: &[f64], q| stats::percentile(xs, q).unwrap_or(0.0);
        report.put_layer("websim.interval_ms_p50", p(&self.interval_ms, 50.0));
        report.put_layer("websim.requests_per_interval", mean(&requests));
        report.put_layer(
            "websim.ns_per_request",
            mean(&self.interval_ms) * 1e6 / mean(&requests),
        );
        report.put_layer("agent.decide_ms_p50", p(&self.decide_ms, 50.0));
        report.put_layer("agent.decide_ms_p95", p(&self.decide_ms, 95.0));
        report.put_layer("agent.decisions", self.decide_ms.len() as f64);
        report.put_layer(
            "agent.sweep_updates_per_decision",
            sweep_updates as f64 / self.decide_ms.len().max(1) as f64,
        );
    }
}

/// Seeded kill points of a bundled scenario's checkpointed line-up: one
/// per tuner session, 1 to 4 boundaries (drawn from the seed) after the
/// flush nearest the session's middle. The replay a recovery pays is
/// thus the same for every seed; the work lost before the kill is not.
fn kill_points(seed: u64, scenario_index: usize, per_session: usize) -> Vec<usize> {
    let mut rng = Pcg64::seed_from_u64(seed ^ 0x6b69_6c6c ^ ((scenario_index as u64) << 32));
    (0..3)
        .map(|session| {
            let base = session * per_session;
            let flush = ((base + per_session / 2) / CKPT_EVERY * CKPT_EVERY).max(CKPT_EVERY);
            let last = base + per_session - 1;
            (flush + 1 + (rng.next_u64() % 4) as usize).min(last)
        })
        .collect()
}

/// Timing of one checkpointed scenario line-up, with its recoveries.
#[derive(Default)]
struct CkptRun {
    /// Host time between live boundaries, ms.
    gaps_ms: Vec<f64>,
    /// `(global iteration, gap ms)` of the first, never-killed attempt.
    first_attempt: Vec<(usize, f64)>,
    /// Load-to-first-live-boundary time per recovery, ms.
    recovery_ms: Vec<f64>,
    /// The RAC session's first decision, s.
    first_decide_s: Option<f64>,
    load_ms: Vec<f64>,
    restore_ms: Vec<f64>,
    replay_ms: Vec<f64>,
    bytes: Vec<f64>,
    trace_prefix_bytes: usize,
    /// Wall time of the attempts and loads, s.
    wall_s: f64,
    /// Time charged to layers from registry deltas, s.
    websim_s: f64,
    agent_s: f64,
    ckpt_s: f64,
    sweep_updates: u64,
    write_ms: f64,
    writes: u64,
    last_snapshot: Option<PathBuf>,
    /// Simulated-interval and RAC-decision time per live boundary, ms.
    loop_times: LoopTimes,
}

/// Runs one scenario through the checkpointed line-up, killing it at
/// `kills` (an [`LineupCommand::Abort`]: nothing is written) and
/// resuming each time from the last flushed file in a fresh trace
/// scope, as a relaunched process would.
fn run_ckpt(
    scn: &Scenario,
    library: &PolicyLibrary,
    dir: &Path,
    kills: &[usize],
    out: &mut CkptRun,
) -> Result<(Series, String), String> {
    let path = dir.join(format!("{}.ckpt", scn.name));
    let _ = std::fs::remove_file(&path);
    let options = CheckpointOptions {
        path: path.clone(),
        every: CKPT_EVERY,
        stop_after: None,
    };
    let total = 3 * scn.iterations();
    let mut pending_kills: Vec<usize> = kills.to_vec();
    let mut resume: Option<Snapshot> = None;
    let mut load_start: Option<Instant> = None;
    let mut first_attempt = true;
    let start = Instant::now();
    loop {
        let writer = Arc::new(TraceWriter::new());
        let attempt_start = load_start.unwrap_or(start);
        let call_start = Instant::now();
        let before = Sums::now();
        let mut prev = attempt_start;
        let mut first_boundary = true;
        let mut at_prev = Sums::default();
        let outcome = obs::trace::with_writer(&writer, || {
            run_tuners_checkpointed_with(scn, library, &options, resume.as_ref(), |s| {
                let now = Instant::now();
                let gap = now.duration_since(prev).as_secs_f64() * 1e3;
                prev = now;
                let sums = Sums::now().since(before);
                if first_boundary && load_start.is_some() {
                    out.recovery_ms.push(gap);
                    let replay = now.duration_since(call_start).as_secs_f64() * 1e3
                        - sums.restore_ms
                        - sums.measure_ms
                        - sums.tuner_ms;
                    out.replay_ms.push(replay);
                    out.restore_ms.push(sums.restore_ms);
                } else {
                    out.gaps_ms.push(gap);
                    if first_attempt {
                        out.first_attempt.push((s.global_iteration, gap));
                    }
                }
                first_boundary = false;
                out.loop_times
                    .interval_ms
                    .push(sums.measure_ms - at_prev.measure_ms);
                if s.tuner_index == 0 && !s.breaker_open {
                    let decide_ms = sums.tuner_ms - at_prev.tuner_ms;
                    out.loop_times.decide_ms.push(decide_ms);
                    if first_attempt && s.tuner_iteration == 1 {
                        out.first_decide_s = Some(decide_ms / 1e3);
                    }
                }
                at_prev = sums;
                if s.global_iteration == total {
                    out.trace_prefix_bytes =
                        obs::trace::snapshot_serialized().map_or(0, |t| t.len());
                }
                if pending_kills.first() == Some(&s.global_iteration) {
                    pending_kills.remove(0);
                    LineupCommand::Abort
                } else {
                    LineupCommand::Continue
                }
            })
        });
        let d = Sums::now().since(before);
        out.websim_s += d.measure_ms / 1e3;
        out.agent_s += d.tuner_ms / 1e3;
        // Encode + write at boundaries, plus the final flush and restore.
        // The final flush after the last boundary runs outside the
        // sink's span unless that boundary was on the flush schedule.
        let final_flush = if total.is_multiple_of(CKPT_EVERY) {
            0.0
        } else {
            d.write_ms - at_prev.write_ms
        };
        out.ckpt_s += (d.checkpoint_ms + d.restore_ms + final_flush) / 1e3;
        out.sweep_updates += d.sweep_updates;
        out.write_ms += d.write_ms;
        out.writes += d.writes;
        first_attempt = false;
        match outcome {
            Ok(LineupOutcome::Complete(series)) => {
                out.wall_s += start.elapsed().as_secs_f64();
                out.ckpt_s += out.replay_ms.iter().sum::<f64>() / 1e3;
                out.last_snapshot = Some(path);
                return Ok((series, writer.serialize()));
            }
            Ok(LineupOutcome::Interrupted { .. }) => {
                let t = Instant::now();
                let snap = Snapshot::load(&path).map_err(|e| format!("{}: {e}", scn.name))?;
                out.load_ms.push(t.elapsed().as_secs_f64() * 1e3);
                out.ckpt_s += t.elapsed().as_secs_f64();
                out.bytes.push(
                    std::fs::metadata(&path)
                        .map(|m| m.len() as f64)
                        .unwrap_or(0.0),
                );
                resume = Some(snap);
                load_start = Some(t);
            }
            Err(e) => return Err(format!("{}: {e}", scn.name)),
        }
    }
}

/// Drops the `checkpoint` events — the only records checkpointing adds
/// to the decision trace — and closes the gaps they leave in the
/// emission counter (`seq`: each remaining value becomes its rank), so
/// the rest compares byte for byte with a bare line-up's trace.
fn without_checkpoint_events(trace: &str) -> String {
    const KEY: &str = ",\"seq\":";
    let split = |line: &str| -> Option<(usize, usize, u64)> {
        let value = line.find(KEY)? + KEY.len();
        let end = line[value..].find(',').map_or(line.len(), |n| value + n);
        Some((value, end, line[value..end].parse().ok()?))
    };
    let kept: Vec<&str> = trace
        .lines()
        .filter(|l| !l.contains("\"kind\":\"checkpoint\""))
        .collect();
    let mut seqs: Vec<u64> = kept.iter().filter_map(|l| split(l)).map(|s| s.2).collect();
    seqs.sort_unstable();
    let mut out = String::with_capacity(trace.len());
    for line in kept {
        match split(line) {
            Some((value, end, seq)) => {
                let rank = seqs.binary_search(&seq).expect("seq collected above");
                out.push_str(&line[..value]);
                out.push_str(&rank.to_string());
                out.push_str(&line[end..]);
            }
            None => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

/// The `lineup-ckpt` workload.
pub fn lineup_ckpt(run: &Run, report: &mut Report) {
    let (library, scns) = setup(run, &CKPT_BUNDLED, &CKPT_DRAWN, report);
    let dir = run.work_dir.join(format!("ckpt-{}", std::process::id()));
    // The output reference is the bare line-up of the same scenarios:
    // the digests a passing bare line-up of this build and seed
    // recorded, or else (and always when traced, for the per-iteration
    // base of the checkpoint overhead) a bare run here, outside the
    // measured time.
    let mut refs = read_outputs_record(run);
    let mut bare = Vec::new();
    if run.trace || !scns.iter().all(|s| refs.contains_key(&s.name)) {
        let mut outputs = Vec::new();
        for scn in &scns {
            let (series, trace, timing) = run_bare(scn, &library);
            outputs.push(Output {
                name: scn.name.clone(),
                csv: csv_of(scn, &series),
                trace,
            });
            bare.push(timing);
        }
        check_reference(run, "lineup", &outputs, report);
        if report.passing() {
            write_outputs_record(run, &outputs);
        }
        refs.extend(outputs.iter().map(|o| (o.name.clone(), o.digests())));
    }

    let t0 = Instant::now();
    let mut runs: Vec<CkptRun> = Vec::new();
    let mut all_series = Vec::new();
    for (i, scn) in scns.iter().enumerate() {
        let total = 3 * scn.iterations();
        let kills = if i < CKPT_BUNDLED.len() {
            kill_points(run.seed, i, scn.iterations())
        } else {
            Vec::new()
        };
        let mut timing = CkptRun::default();
        match run_ckpt(scn, &library, &dir, &kills, &mut timing) {
            Ok((series, trace)) => {
                let got = Output {
                    name: scn.name.clone(),
                    csv: csv_of(scn, &series),
                    trace: without_checkpoint_events(&trace),
                }
                .digests();
                let want = refs.get(&scn.name);
                report.op(
                    want.map(|w| &w.0) == Some(&got.0),
                    format!(
                        "lineup-ckpt {}: CSV differs from the bare line-up",
                        scn.name
                    ),
                );
                report.op(
                    want.map(|w| &w.1) == Some(&got.1),
                    format!(
                        "lineup-ckpt {}: trace differs from the bare line-up",
                        scn.name
                    ),
                );
                report.ops(total);
                all_series.push(series);
            }
            Err(e) => report.op(false, format!("lineup-ckpt {e}")),
        }
        report.ops(timing.writes as usize + timing.recovery_ms.len());
        runs.push(timing);
    }
    let wall = t0.elapsed().as_secs_f64();

    let gaps: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.gaps_ms.iter().copied())
        .collect();
    iteration_metrics(&gaps, report);
    let first: Vec<f64> = runs[..CKPT_BUNDLED.len()]
        .iter()
        .filter_map(|r| r.first_decide_s)
        .collect();
    first_decision_metric(&first, report);
    let recovery: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.recovery_ms.iter().copied())
        .collect();
    report.put(
        "recovery_ms_p50",
        stats::percentile(&recovery, 50.0).unwrap_or(0.0),
    );
    report.put_layer("bench.recoveries", recovery.len() as f64);
    if all_series.len() == scns.len() {
        rac_outcome(CKPT_BUNDLED.len(), &all_series, report);
    }
    report.note_untraced_wall(run, wall / gaps.len() as f64);

    if run.trace {
        ckpt_layer_metrics(run, &bare, &runs, wall, gaps.len(), report);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn ckpt_layer_metrics(
    run: &Run,
    bare: &[BareRun],
    runs: &[CkptRun],
    wall: f64,
    boundaries: usize,
    report: &mut Report,
) {
    let collect = |f: fn(&CkptRun) -> &Vec<f64>| -> Vec<f64> {
        runs.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    // Checkpoint cost per boundary: the same iteration's bare gap
    // subtracted from the first (never-killed) attempt's gap.
    let mut extra = Vec::new();
    for (r, b) in runs.iter().zip(bare) {
        let base = b.gaps_ms();
        for &(g, gap) in &r.first_attempt {
            if let Some(b) = base.get(g - 1) {
                extra.push(gap - b);
            }
        }
    }
    let p50 = |xs: &[f64]| stats::percentile(xs, 50.0).unwrap_or(0.0);
    report.put_layer("ckpt.boundary_extra_ms_p50", p50(&extra));
    report.put_layer("ckpt.load_ms", p50(&collect(|r| &r.load_ms)));
    report.put_layer("ckpt.restore_ms", p50(&collect(|r| &r.restore_ms)));
    report.put_layer("ckpt.replay_ms", p50(&collect(|r| &r.replay_ms)));
    report.put_layer("ckpt.bytes_per_snapshot", p50(&collect(|r| &r.bytes)));
    let writes: u64 = runs.iter().map(|r| r.writes).sum();
    let write_ms: f64 = runs.iter().map(|r| r.write_ms).sum();
    report.put_layer("ckpt.write_ms_mean", write_ms / writes.max(1) as f64);
    report.put_layer(
        "trace.prefix_bytes",
        runs.last().map_or(0, |r| r.trace_prefix_bytes) as f64,
    );
    if let Some(path) = runs.iter().rev().find_map(|r| r.last_snapshot.clone()) {
        encode_probe(&path, report);
    }

    let websim: f64 = runs.iter().map(|r| r.websim_s).sum();
    let agent: f64 = runs.iter().map(|r| r.agent_s).sum();
    let ckpt_s: f64 = runs.iter().map(|r| r.ckpt_s).sum();
    // The simulation is the bare line-up's, request for request.
    let mut times = LoopTimes {
        requests: LoopTimes::of_bare(bare).requests,
        ..LoopTimes::default()
    };
    for r in runs {
        times.interval_ms.extend(&r.loop_times.interval_ms);
        times.decide_ms.extend(&r.loop_times.decide_ms);
    }
    let updates: u64 = runs.iter().map(|r| r.sweep_updates).sum();
    times.report(updates, report);
    let ledger_wall: f64 = runs.iter().map(|r| r.wall_s).sum();
    let layers = std::collections::BTreeMap::from([
        ("websim", websim),
        ("rac::agent", agent),
        ("ckpt", ckpt_s),
    ]);
    let ledger = Ledger {
        wall: ledger_wall,
        residual: ledger_wall - websim - agent - ckpt_s,
        layers,
    };
    for (name, layer) in [
        ("websim.share_pct", "websim"),
        ("agent.share_pct", "rac::agent"),
        ("ckpt.share_pct", "ckpt"),
    ] {
        report.put_layer(name, Ratio::new(ledger.self_s(layer), ledger.wall).pct());
    }
    report.ledger(run, &ledger, wall / boundaries as f64);
}

/// Re-encodes the last snapshot's restored state the way the
/// checkpoint sink does at every boundary, and sizes the library
/// section against the whole file.
fn encode_probe(path: &Path, report: &mut Report) {
    let Ok(snap) = Snapshot::load(path) else {
        report.op(false, format!("cannot reload {}", path.display()));
        return;
    };
    let section_bytes = |name: &str| snap.section(name).map_or(0, |r| r.remaining());
    let total: usize = snap.section_names().map(section_bytes).sum();
    let library: usize = snap
        .section_names()
        .filter(|n| n.ends_with(".library"))
        .map(section_bytes)
        .sum();
    report.put_layer(
        "ckpt.library_bytes_pct",
        Ratio::new(library as f64, total as f64).pct(),
    );
    let agent = RacAgent::restore(&snap).ok();
    let tae = TrialAndError::restore(&snap).ok();
    let library = match &agent {
        Some(_) => None,
        None => match rac::library_from_snapshot(&snap) {
            Ok(lib) => Some(lib),
            Err(e) => {
                report.op(false, format!("snapshot library: {e}"));
                return;
            }
        },
    };
    let mut times = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let mut w = ckpt::SnapshotWriter::new();
        if let Some(agent) = &agent {
            agent.save_state(&mut w);
        }
        if let Some(tae) = &tae {
            tae.save_state(&mut w);
        }
        if let Some(lib) = &library {
            rac::library_to_snapshot(&mut w, lib);
        }
        std::hint::black_box(w.to_bytes());
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    report.put_layer("ckpt.encode_ms", stats::median(&times).unwrap_or(0.0));
}
