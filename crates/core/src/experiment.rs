//! The experiment runner: drives a tuner against the simulated
//! three-tier system through a schedule of system contexts, recording
//! the per-iteration series the paper's figures plot.
//!
//! Tuning sessions ([`Experiment::run`]) are inherently sequential —
//! each decision depends on the previous interval. The `MaxClients`
//! sweep of the paper's Figure 2 ([`maxclients_sweep`]) is a batch of
//! independent measurements, so it fans out across the global parallel
//! [`Runner`](crate::Runner) and returns deterministic,
//! submission-ordered results.

use obs::{trace, Event, Span};
use scenario::Scenario;
use simkernel::SimDuration;
use vmstack::ResourceLevel;
use websim::{Param, PerfSample, ServerConfig, SystemSpec, ThreeTierSystem};

use crate::agent::Tuner;
use crate::checkpoint::{BoundaryAction, ScenarioRunOutcome};
use crate::context::SystemContext;
use crate::runner::{MeasureJob, Runner};

/// One phase of an experiment: a system context held for a number of
/// measurement iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContextPhase {
    /// The workload mix and VM level during this phase.
    pub context: SystemContext,
    /// Number of measurement intervals before the next phase.
    pub iterations: usize,
}

impl ContextPhase {
    /// Creates a phase.
    pub fn new(context: SystemContext, iterations: usize) -> Self {
        ContextPhase {
            context,
            iterations,
        }
    }
}

/// What happened during one measurement iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationRecord {
    /// Zero-based iteration number across the whole experiment.
    pub iteration: usize,
    /// Index of the active phase.
    pub phase: usize,
    /// Mean response time observed during the interval (ms).
    pub response_ms: f64,
    /// 95th-percentile response time (ms).
    pub p95_ms: f64,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// The configuration the system ran during this interval.
    pub config: ServerConfig,
}

/// An experiment: a base system specification, a measurement interval,
/// and a schedule of context phases.
///
/// # Example
///
/// ```
/// use rac::{paper_contexts, ContextPhase, Experiment, StaticDefault};
/// use simkernel::SimDuration;
/// use websim::SystemSpec;
///
/// let contexts = paper_contexts();
/// let exp = Experiment::new(SystemSpec::default().with_clients(60))
///     .with_interval(SimDuration::from_secs(60))
///     .with_warmup(SimDuration::from_secs(30))
///     .with_phase(ContextPhase::new(contexts[0], 3));
/// let series = exp.run(&mut StaticDefault::new());
/// assert_eq!(series.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    spec: SystemSpec,
    interval: SimDuration,
    warmup: SimDuration,
    phases: Vec<ContextPhase>,
}

impl Experiment {
    /// Creates an experiment with the paper's 5-minute measurement
    /// interval, a 10-minute warm-up, and an empty schedule.
    pub fn new(spec: SystemSpec) -> Self {
        Experiment {
            spec,
            interval: SimDuration::from_secs(300),
            warmup: SimDuration::from_secs(600),
            phases: Vec::new(),
        }
    }

    /// Sets the measurement interval.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn with_interval(mut self, interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "interval must be positive");
        self.interval = interval;
        self
    }

    /// Sets the warm-up run before the first iteration (under the
    /// default configuration; discarded from the series).
    pub fn with_warmup(mut self, warmup: SimDuration) -> Self {
        self.warmup = warmup;
        self
    }

    /// Appends a phase to the schedule.
    pub fn with_phase(mut self, phase: ContextPhase) -> Self {
        self.phases.push(phase);
        self
    }

    /// Appends `iterations` of `context`.
    pub fn then(self, context: SystemContext, iterations: usize) -> Self {
        self.with_phase(ContextPhase::new(context, iterations))
    }

    /// The measurement interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// The base system specification.
    pub fn spec(&self) -> &SystemSpec {
        &self.spec
    }

    /// The warm-up run length.
    pub fn warmup(&self) -> SimDuration {
        self.warmup
    }

    /// Total scheduled iterations.
    pub fn total_iterations(&self) -> usize {
        self.phases.iter().map(|p| p.iterations).sum()
    }

    /// Runs the tuner through the schedule and returns the series.
    ///
    /// The system starts at [`ServerConfig::default`]; at each iteration
    /// the observed sample is handed to the tuner and its decision is
    /// applied before the next interval. Context changes take effect at
    /// phase boundaries, exactly like the paper's workload/VM switches.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is empty.
    pub fn run(&self, tuner: &mut dyn Tuner) -> Vec<IterationRecord> {
        assert!(
            !self.phases.is_empty(),
            "experiment needs at least one phase"
        );
        // Each tuning session is one trace *run*: the sim clock restarts
        // at zero, and the run counter keeps events from back-to-back
        // sessions (several tuners per figure) in session order.
        if trace::scoped() {
            trace::begin_run();
            trace::set_sim_time_us(0);
            trace::emit(|| {
                Event::new("experiment")
                    .field("tuner", tuner.name())
                    .field("phases", self.phases.len() as u64)
                    .field("iterations", self.total_iterations() as u64)
                    .field("interval_s", self.interval.as_secs_f64())
                    .field("warmup_s", self.warmup.as_secs_f64())
            });
        }
        let first = self.phases[0].context;
        let spec = self
            .spec
            .clone()
            .with_mix(first.mix)
            .with_level(first.level);
        let mut system = ThreeTierSystem::new(spec);
        let mut config = ServerConfig::default();
        system.set_config(config);
        if !self.warmup.is_zero() {
            let _ = system.run_interval(self.warmup);
        }

        let mut series = Vec::with_capacity(self.total_iterations());
        let mut iteration = 0;
        let mut sim_us = self.warmup.as_micros();
        for (phase_idx, phase) in self.phases.iter().enumerate() {
            trace::set_sim_time_us(sim_us);
            trace::emit(|| {
                Event::new("phase")
                    .field("phase", phase_idx as u64)
                    .field("context", phase.context.to_string())
                    .field("iterations", phase.iterations as u64)
            });
            system.set_workload(system.clients(), phase.context.mix);
            system.set_resource_level(phase.context.level);
            for _ in 0..phase.iterations {
                // Wall-clock spans attribute time to phases of the
                // iteration (metrics/profile only — never the trace).
                let sample: PerfSample = {
                    let _measure = Span::start("measure");
                    system.run_interval(self.interval)
                };
                // Decisions are stamped with the *end* of the interval
                // they observed, so the trace orders by simulated time.
                sim_us = sim_us.saturating_add(self.interval.as_micros());
                trace::set_sim_time_us(sim_us);
                series.push(IterationRecord {
                    iteration,
                    phase: phase_idx,
                    response_ms: sample.mean_response_ms,
                    p95_ms: sample.p95_response_ms,
                    throughput_rps: sample.throughput_rps,
                    config,
                });
                if obs::enabled() {
                    obs::health::global()
                        .set_progress(iteration as u64 + 1, self.total_iterations() as u64);
                }
                let next = {
                    let _tuner = Span::start("tuner");
                    tuner.next_config(&sample)
                };
                if next != config {
                    trace::emit(|| {
                        Event::new("reconfigure")
                            .field("iter", (iteration + 1) as u64)
                            .field("from", config.to_string())
                            .field("to", next.to_string())
                    });
                    system.set_config(next);
                    config = next;
                }
                iteration += 1;
            }
        }
        series
    }

    /// Builds the experiment a scenario prescribes: the scenario's
    /// interval and warm-up, its starting mix and VM level, and its
    /// `clients`/`seed` overrides applied to `base`. The schedule stays
    /// empty — drive it with [`Experiment::run_scenario`].
    pub fn for_scenario(base: SystemSpec, scn: &Scenario) -> Experiment {
        let mut spec = base.with_mix(scn.mix).with_level(scn.level);
        if let Some(clients) = scn.clients {
            spec = spec.with_clients(clients);
        }
        if let Some(seed) = scn.seed {
            spec = spec.with_seed(seed);
        }
        Experiment::new(spec)
            .with_interval(scn.interval)
            .with_warmup(scn.warmup)
    }

    /// Runs the tuner through a compiled scenario timeline and returns
    /// the series.
    ///
    /// Each timeline event is applied at the start of the measurement
    /// interval containing it (events are authored relative to the end
    /// of warm-up); the interval is then simulated, measurement faults
    /// (outlier corruption, dropped intervals) are applied to the
    /// observed sample, and the possibly-corrupted sample is what the
    /// tuner sees — exactly the feedback a live monitor would deliver.
    ///
    /// The run is sequential and uses no shared state, so the series is
    /// a pure function of (spec, scenario) and bit-identical at any
    /// `RAC_THREADS` setting. It is the loop of
    /// [`run_scenario_resumable`](Experiment::run_scenario_resumable)
    /// with no resume and no stops.
    pub fn run_scenario(&self, scn: &Scenario, tuner: &mut dyn Tuner) -> Vec<IterationRecord> {
        let outcome = self.scenario_loop(scn, tuner, None, |_, _| Ok(BoundaryAction::Continue));
        let Ok(ScenarioRunOutcome::Complete(series)) = outcome else {
            unreachable!("a fresh run that never stops always completes");
        };
        series
    }
}

/// Summary statistics over (part of) a series.
///
/// # Example
///
/// ```
/// use rac::series_mean;
///
/// // (used with `IterationRecord` slices in practice)
/// assert_eq!(series_mean(&[]), f64::INFINITY);
/// ```
pub fn series_mean(records: &[IterationRecord]) -> f64 {
    let finite: Vec<f64> = records
        .iter()
        .map(|r| r.response_ms)
        .filter(|rt| rt.is_finite())
        .collect();
    if finite.is_empty() {
        return f64::INFINITY;
    }
    finite.iter().sum::<f64>() / finite.len() as f64
}

/// Sweeps `MaxClients` (the paper's single most sensitive parameter,
/// Figure 2) across the given values at each of the given resource
/// levels — the full `levels × values` grid submitted as one parallel
/// batch. Rows come back grouped by level, values in the given order.
///
/// # Panics
///
/// Panics if any value is outside the `MaxClients` parameter range.
pub fn maxclients_sweep(
    spec: &SystemSpec,
    levels: &[ResourceLevel],
    values: &[u32],
    warmup: SimDuration,
    measure: SimDuration,
) -> Vec<(ResourceLevel, u32, PerfSample)> {
    let points: Vec<(ResourceLevel, u32)> = levels
        .iter()
        .flat_map(|&level| values.iter().map(move |&v| (level, v)))
        .collect();
    let jobs: Vec<MeasureJob> = points
        .iter()
        .map(|&(level, v)| {
            let config = ServerConfig::default()
                .with(Param::MaxClients, v)
                .expect("MaxClients value in range");
            MeasureJob::new(spec.clone().with_level(level), config, warmup, measure)
        })
        .collect();
    let samples = Runner::global().run(&jobs);
    points
        .into_iter()
        .zip(samples)
        .map(|((level, v), s)| (level, v, s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::StaticDefault;
    use crate::context::paper_contexts;
    use tpcw::Mix;
    use vmstack::ResourceLevel;

    fn quick_experiment() -> Experiment {
        Experiment::new(SystemSpec::default().with_clients(60).with_seed(3))
            .with_interval(SimDuration::from_secs(60))
            .with_warmup(SimDuration::from_secs(60))
    }

    #[test]
    fn runs_the_scheduled_iterations() {
        let contexts = paper_contexts();
        let exp = quick_experiment().then(contexts[0], 4).then(contexts[1], 3);
        let series = exp.run(&mut StaticDefault::new());
        assert_eq!(series.len(), 7);
        assert_eq!(exp.total_iterations(), 7);
        assert_eq!(series[3].phase, 0);
        assert_eq!(series[4].phase, 1);
        assert!(series.iter().all(|r| r.response_ms.is_finite()));
        assert!((0..7).all(|i| series[i].iteration == i));
    }

    #[test]
    fn static_default_config_never_changes() {
        let contexts = paper_contexts();
        let exp = quick_experiment().then(contexts[0], 3);
        let series = exp.run(&mut StaticDefault::new());
        assert!(series.iter().all(|r| r.config == ServerConfig::default()));
    }

    #[test]
    fn context_change_shifts_performance() {
        // Strong VM vs weak VM with a heavier client load.
        let strong = SystemContext::new(Mix::Shopping, ResourceLevel::Level1);
        let weak = SystemContext::new(Mix::Shopping, ResourceLevel::Level3);
        let exp = Experiment::new(SystemSpec::default().with_clients(400).with_seed(5))
            .with_interval(SimDuration::from_secs(120))
            .with_warmup(SimDuration::from_secs(600))
            .then(strong, 3)
            .then(weak, 3);
        let series = exp.run(&mut StaticDefault::new());
        let strong_mean = series_mean(&series[..3]);
        let weak_mean = series_mean(&series[3..]);
        assert!(
            weak_mean > strong_mean,
            "Level-3 should be slower: {strong_mean:.0} vs {weak_mean:.0}"
        );
    }

    #[test]
    fn series_mean_skips_infinite() {
        let r = |rt: f64| IterationRecord {
            iteration: 0,
            phase: 0,
            response_ms: rt,
            p95_ms: rt,
            throughput_rps: 0.0,
            config: ServerConfig::default(),
        };
        assert_eq!(series_mean(&[r(100.0), r(f64::INFINITY), r(300.0)]), 200.0);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_schedule_panics() {
        quick_experiment().run(&mut StaticDefault::new());
    }

    fn mini_scenario(faults: bool) -> Scenario {
        let fault_lines = if faults {
            "fault at 120s drop\nfault at 180s outlier 4\n"
        } else {
            ""
        };
        let src = format!(
            "name mini\nduration 240s\ninterval 60s\nwarmup 60s\nclients 60\nseed 3\n\
             at 60s intensity 1.5\n{fault_lines}"
        );
        Scenario::parse(&src).unwrap()
    }

    #[test]
    fn scenario_run_is_deterministic_and_applies_measurement_faults() {
        let scn = mini_scenario(true);
        let exp = Experiment::for_scenario(SystemSpec::default(), &scn);
        let a = exp.run_scenario(&scn, &mut StaticDefault::new());
        let b = exp.run_scenario(&scn, &mut StaticDefault::new());
        assert_eq!(a, b, "scenario runs must be reproducible");
        assert_eq!(a.len(), 4);
        assert!((0..4).all(|i| a[i].iteration == i));

        // Measurement faults never touch the system itself, so a run of
        // the same scenario minus the faults sees identical raw
        // samples; the faults only corrupt what the tuner/series sees.
        let clean_scn = mini_scenario(false);
        let clean = Experiment::for_scenario(SystemSpec::default(), &clean_scn)
            .run_scenario(&clean_scn, &mut StaticDefault::new());
        assert!(a[2].response_ms.is_infinite(), "dropped interval");
        assert!(clean[2].response_ms.is_finite());
        assert!(
            (a[3].response_ms - 4.0 * clean[3].response_ms).abs() < 1e-9,
            "outlier corruption: {} vs 4 x {}",
            a[3].response_ms,
            clean[3].response_ms
        );
        assert_eq!(a[0].response_ms, clean[0].response_ms);
        assert_eq!(a[1].response_ms, clean[1].response_ms);
    }

    #[test]
    fn for_scenario_applies_header_overrides() {
        let scn = Scenario::parse(
            "name o\nduration 600s\ninterval 300s\nclients 123\nseed 77\nmix ordering\nlevel 3\n",
        )
        .unwrap();
        let exp = Experiment::for_scenario(SystemSpec::default(), &scn);
        assert_eq!(exp.spec.clients, 123);
        assert_eq!(exp.spec.seed, 77);
        assert_eq!(exp.spec.mix, Mix::Ordering);
        assert_eq!(exp.spec.appdb_level, ResourceLevel::Level3);
        assert_eq!(exp.interval(), SimDuration::from_secs(300));
    }

    #[test]
    fn maxclients_sweep_covers_the_grid_in_order() {
        let spec = SystemSpec::default().with_clients(40).with_seed(13);
        let values = [5, 300, 600];
        let rows = maxclients_sweep(
            &spec,
            &[ResourceLevel::Level1, ResourceLevel::Level2],
            &values,
            SimDuration::from_secs(10),
            SimDuration::from_secs(30),
        );
        assert_eq!(rows.len(), 6);
        for (i, &(level, v, _)) in rows.iter().enumerate() {
            assert_eq!(level, [ResourceLevel::Level1, ResourceLevel::Level2][i / 3]);
            assert_eq!(v, values[i % 3]);
        }
    }
}
