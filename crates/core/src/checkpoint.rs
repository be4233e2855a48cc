//! The scenario interval loop, with boundary callbacks for periodic
//! snapshots and deterministic resume by replay. Plain
//! [`Experiment::run_scenario`] is the same loop with no resume and no
//! stops.
//!
//! A full discrete-event-simulator state dump would be enormous and
//! fragile; instead a checkpoint records only the *learned* state (the
//! tuner, via [`PersistTuner`]) plus the run's recorded series
//! ([`ScenarioProgress`]). Resuming rebuilds the simulated system from
//! its spec and deterministically replays the completed intervals —
//! applying timeline events and the recorded configuration transitions
//! in the exact order of the live run, with no tuner calls and no trace
//! emissions — then hands control back to the restored tuner. Because
//! the simulator is a pure function of (spec, inputs), the replayed
//! system is bit-identical to the one the interrupted run had, and the
//! continued run produces byte-identical series and trace output to an
//! uninterrupted one.

use ckpt::wire::{Reader, Writer};
use ckpt::{CkptError, SnapshotWriter};
use obs::{trace, Event, Span};
use scenario::{EventKind, Scenario};
use websim::{PerfSample, ServerConfig, ThreeTierSystem};

use crate::agent::{RacAgent, Tuner};
use crate::baseline::{StaticDefault, TrialAndError};
use crate::experiment::{Experiment, IterationRecord};
use crate::measure::{note_acquisition, MeasurementChannel};

/// A tuner whose complete decision-relevant state can be serialized
/// into a snapshot. Restoration is type-specific (each tuner has its
/// own `restore` constructor); this trait covers the saving side so a
/// checkpoint sink can snapshot whatever tuner it is driving.
pub trait PersistTuner: Tuner {
    /// Writes the tuner's state into the snapshot under construction.
    fn save_state(&self, snap: &mut SnapshotWriter);
}

impl PersistTuner for RacAgent {
    fn save_state(&self, snap: &mut SnapshotWriter) {
        RacAgent::save_state(self, snap);
    }
}

impl PersistTuner for TrialAndError {
    fn save_state(&self, snap: &mut SnapshotWriter) {
        TrialAndError::save_state(self, snap);
    }
}

impl PersistTuner for StaticDefault {
    fn save_state(&self, _snap: &mut SnapshotWriter) {
        // Stateless: a fresh StaticDefault is already fully restored.
    }
}

/// How far a scenario run has progressed: everything the resume replay
/// needs besides the tuner's own state.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioProgress {
    /// Number of completed measurement iterations.
    pub iterations_done: usize,
    /// The records of those iterations, in order.
    pub series: Vec<IterationRecord>,
    /// The configuration the *next* interval will run under (the
    /// tuner's last decision, already applied to the system).
    pub next_config: ServerConfig,
    /// The measurement channel (circuit breaker) state at the
    /// boundary. Resume rebuilds the channel by replay and validates it
    /// against this record, so a kill inside an open-breaker window
    /// resumes exactly where it left off.
    pub channel: MeasurementChannel,
}

/// Serializes an iteration series (shared by [`ScenarioProgress`] and
/// the whole-lineup checkpoint of [`crate::lineup`], which stores the
/// series of every already-finished tuner).
pub fn encode_series(w: &mut Writer, series: &[IterationRecord]) {
    w.put_usize(series.len());
    for rec in series {
        w.put_usize(rec.iteration);
        w.put_usize(rec.phase);
        w.put_f64(rec.response_ms);
        w.put_f64(rec.p95_ms);
        w.put_f64(rec.throughput_rps);
        crate::persist::encode_config(w, &rec.config);
    }
}

/// Restores a series written by [`encode_series`].
///
/// # Errors
///
/// Returns [`CkptError::Corrupt`] when the records are not numbered
/// `0..len` (a scenario series always is).
pub fn decode_series(r: &mut Reader<'_>) -> Result<Vec<IterationRecord>, CkptError> {
    let len = r.get_usize()?;
    let mut series = Vec::with_capacity(len.min(1 << 20));
    for i in 0..len {
        let rec = IterationRecord {
            iteration: r.get_usize()?,
            phase: r.get_usize()?,
            response_ms: r.get_f64()?,
            p95_ms: r.get_f64()?,
            throughput_rps: r.get_f64()?,
            config: crate::persist::decode_config(r)?,
        };
        if rec.iteration != i {
            return Err(CkptError::Corrupt {
                detail: format!("record {i} carries iteration number {}", rec.iteration),
            });
        }
        series.push(rec);
    }
    Ok(series)
}

impl ScenarioProgress {
    /// Serializes the progress record.
    pub fn encode(&self, w: &mut Writer) {
        w.put_usize(self.iterations_done);
        encode_series(w, &self.series);
        crate::persist::encode_config(w, &self.next_config);
        self.channel.encode(w);
    }

    /// Restores a progress record written by [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// Returns [`CkptError::Corrupt`] when the series is internally
    /// inconsistent (length or iteration numbering).
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        let iterations_done = r.get_usize()?;
        let series = decode_series(r)?;
        if series.len() != iterations_done {
            return Err(CkptError::Corrupt {
                detail: format!(
                    "progress says {iterations_done} iterations but has {} records",
                    series.len()
                ),
            });
        }
        let next_config = crate::persist::decode_config(r)?;
        let channel = MeasurementChannel::decode(r)?;
        Ok(ScenarioProgress {
            iterations_done,
            series,
            next_config,
            channel,
        })
    }
}

/// What the boundary callback tells the runner to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryAction {
    /// Keep running.
    Continue,
    /// Stop cleanly after this iteration (the caller has persisted the
    /// progress it needs to resume later).
    Stop,
}

/// How a resumable scenario run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioRunOutcome {
    /// The full timeline ran; the complete series is returned.
    Complete(Vec<IterationRecord>),
    /// The boundary callback requested a stop; the progress describes
    /// the prefix that ran.
    Interrupted(ScenarioProgress),
}

impl Experiment {
    /// [`run_scenario`](Experiment::run_scenario) with checkpoint
    /// hooks: `on_boundary` is called after every completed iteration
    /// with the progress so far and the tuner (to snapshot), and may
    /// stop the run; `resume` continues a previous run's progress by
    /// deterministic replay.
    ///
    /// A run that is stopped at a boundary and later resumed produces
    /// byte-identical series and trace output to one that ran straight
    /// through, provided the caller restored the trace buffer and run
    /// counter before resuming (the line-up checkpoint sink in
    /// [`crate::lineup`] does both).
    ///
    /// # Errors
    ///
    /// Returns [`CkptError::Mismatch`] when `resume` does not fit this
    /// scenario (more iterations recorded than the timeline has), and
    /// propagates errors from `on_boundary`.
    pub fn run_scenario_resumable(
        &self,
        scn: &Scenario,
        tuner: &mut dyn PersistTuner,
        resume: Option<ScenarioProgress>,
        mut on_boundary: impl FnMut(
            &ScenarioProgress,
            &dyn PersistTuner,
        ) -> Result<BoundaryAction, CkptError>,
    ) -> Result<ScenarioRunOutcome, CkptError> {
        self.scenario_loop(scn, tuner, resume, |p, t| on_boundary(p, t))
    }

    /// The one scenario interval loop behind both
    /// [`run_scenario`](Experiment::run_scenario) and
    /// [`run_scenario_resumable`](Experiment::run_scenario_resumable):
    /// replay the resumed prefix silently, then measure, let the tuner
    /// decide, and reconfigure, once per interval.
    pub(crate) fn scenario_loop<T: Tuner + ?Sized>(
        &self,
        scn: &Scenario,
        tuner: &mut T,
        resume: Option<ScenarioProgress>,
        mut on_boundary: impl FnMut(&ScenarioProgress, &T) -> Result<BoundaryAction, CkptError>,
    ) -> Result<ScenarioRunOutcome, CkptError> {
        let timeline = scn.compile();
        let iterations = scn.iterations();
        let mut progress = match resume {
            Some(p) => {
                if p.iterations_done > iterations {
                    return Err(CkptError::Mismatch {
                        detail: format!(
                            "checkpoint has {} iterations, scenario only runs {iterations}",
                            p.iterations_done
                        ),
                    });
                }
                p
            }
            None => {
                // Fresh run: each tuning session is one trace *run*.
                if trace::scoped() {
                    trace::begin_run();
                    trace::set_sim_time_us(0);
                    trace::emit(|| {
                        Event::new("experiment")
                            .field("tuner", tuner.name())
                            .field("phases", 1u64)
                            .field("iterations", iterations as u64)
                            .field("interval_s", self.interval().as_secs_f64())
                            .field("warmup_s", self.warmup().as_secs_f64())
                    });
                    trace::emit(|| {
                        Event::new("phase")
                            .field("phase", 0u64)
                            .field("context", format!("scenario {}", scn.name))
                            .field("iterations", iterations as u64)
                    });
                }
                ScenarioProgress {
                    iterations_done: 0,
                    series: Vec::with_capacity(iterations),
                    next_config: ServerConfig::default(),
                    channel: MeasurementChannel::default(),
                }
            }
        };

        let mut system = ThreeTierSystem::new(self.spec().clone());
        let mut config = ServerConfig::default();
        system.set_config(config);
        if !self.warmup().is_zero() {
            let _ = system.run_interval(self.warmup());
        }

        let warmup_us = self.warmup().as_micros();
        let interval_us = self.interval().as_micros();
        let mut next_event = 0usize;
        let mut outlier: Option<f64> = None;
        let mut drop_next = false;
        let mut channel = MeasurementChannel::default();

        // Replay the completed prefix: identical system mutations in
        // identical order, but silently — no tuner calls (its state
        // came from the snapshot) and no trace emissions (the restored
        // trace buffer already holds these iterations' events).
        for iteration in 0..progress.iterations_done {
            let start_us = iteration as u64 * interval_us;
            while let Some(ev) = timeline.events().get(next_event) {
                if ev.t.as_micros() > start_us {
                    break;
                }
                apply_event(
                    &mut system,
                    &ev.kind,
                    &mut outlier,
                    &mut drop_next,
                    &mut channel,
                );
                next_event += 1;
            }
            // The breaker state machine advances every interval, so the
            // replay must step it too (silently — no metrics or trace).
            let _ = channel.acquire(system.run_interval(self.interval()));
            // Measurement faults only corrupt samples, which the
            // recorded series already holds; clear them like the live
            // loop does.
            drop_next = false;
            outlier = None;
            let next = if iteration + 1 < progress.iterations_done {
                progress.series[iteration + 1].config
            } else {
                progress.next_config
            };
            if next != config {
                system.set_config(next);
                config = next;
            }
        }
        if channel != progress.channel {
            return Err(CkptError::Mismatch {
                detail: "measurement-channel state diverged on replay".to_string(),
            });
        }

        // Live from here. Each timeline event is applied at the start of
        // the measurement interval containing it (events are authored
        // relative to the end of warm-up); the interval is then
        // simulated, measurement faults (outlier corruption, dropped
        // intervals) are applied to the observed sample, and the
        // possibly-corrupted sample is what the tuner sees.
        for iteration in progress.iterations_done..iterations {
            let start_us = iteration as u64 * interval_us;
            while let Some(ev) = timeline.events().get(next_event) {
                if ev.t.as_micros() > start_us {
                    break;
                }
                trace::set_sim_time_us(warmup_us + ev.t.as_micros());
                trace::emit(|| {
                    Event::new("scenario_event")
                        .field("event", ev.kind.label())
                        .field("detail", ev.kind.to_string())
                });
                apply_event(
                    &mut system,
                    &ev.kind,
                    &mut outlier,
                    &mut drop_next,
                    &mut channel,
                );
                next_event += 1;
            }
            // Wall-clock spans attribute time to phases of the
            // iteration (metrics/profile only — never the trace).
            let acq = {
                let _measure = Span::start("measure");
                channel.acquire(system.run_interval(self.interval()))
            };
            let sample = if drop_next {
                // A dropped interval loses the outlier corruption too —
                // there is nothing left to corrupt.
                drop_next = false;
                outlier = None;
                PerfSample::empty()
            } else {
                match acq.sample {
                    // Failed acquisition: the sample (and any pending
                    // outlier corruption of it) is lost.
                    None => {
                        outlier = None;
                        PerfSample::empty()
                    }
                    Some(raw) => {
                        if let Some(factor) = outlier.take() {
                            PerfSample {
                                mean_response_ms: raw.mean_response_ms * factor,
                                p95_response_ms: raw.p95_response_ms * factor,
                                ..raw
                            }
                        } else {
                            raw
                        }
                    }
                }
            };
            // Decisions are stamped with the *end* of the interval they
            // observed, so the trace orders by simulated time.
            let sim_us = warmup_us + (iteration as u64 + 1) * interval_us;
            trace::set_sim_time_us(sim_us);
            note_acquisition(&acq, iteration, channel.is_open());
            progress.series.push(IterationRecord {
                iteration,
                phase: 0,
                response_ms: sample.mean_response_ms,
                p95_ms: sample.p95_response_ms,
                throughput_rps: sample.throughput_rps,
                config,
            });
            if obs::enabled() {
                obs::health::global().set_progress(iteration as u64 + 1, iterations as u64);
            }
            tuner.set_degraded(channel.is_open());
            if !channel.is_open() {
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
            }
            progress.iterations_done = iteration + 1;
            progress.next_config = config;
            progress.channel = channel.clone();
            if on_boundary(&progress, &*tuner)? == BoundaryAction::Stop
                && progress.iterations_done < iterations
            {
                return Ok(ScenarioRunOutcome::Interrupted(progress));
            }
        }
        Ok(ScenarioRunOutcome::Complete(progress.series))
    }
}

/// Applies one timeline event to the simulated system — the shared
/// mutation core of the live loop and the resume replay.
fn apply_event(
    system: &mut ThreeTierSystem,
    kind: &EventKind,
    outlier: &mut Option<f64>,
    drop_next: &mut bool,
    channel: &mut MeasurementChannel,
) {
    match kind {
        EventKind::Intensity(scale) => system.set_intensity(*scale),
        EventKind::MixStep(mix) => system.set_workload(system.clients(), *mix),
        EventKind::MixBlend { from, to, frac } => system.set_mix_blend(*from, *to, *frac),
        EventKind::Level(level) => system.set_resource_level(*level),
        EventKind::Stall { tier, dur } => {
            let tier = match tier {
                scenario::Tier::Web => websim::Tier::Web,
                scenario::Tier::AppDb => websim::Tier::AppDb,
            };
            system.inject_stall(tier, *dur)
        }
        EventKind::Noise(factor) => system.set_latency_factor(*factor),
        EventKind::Outlier(factor) => *outlier = Some(*factor),
        EventKind::Drop => *drop_next = true,
        EventKind::Blackout(on) => channel.set_blackout(*on),
        EventKind::Timeout => channel.arm_timeout(),
        EventKind::ThinkTail(sigma) => system.set_think_tail(*sigma),
        EventKind::ServiceTail(sigma) => system.set_service_tail(*sigma),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineup::{
        run_tuners, run_tuners_checkpointed, run_tuners_checkpointed_with, CheckpointOptions,
        LineupCommand, LineupOutcome,
    };
    use crate::PolicyLibrary;
    use ckpt::Snapshot;
    use scenario::gen::{self, Difficulty};
    use websim::SystemSpec;

    fn scenario() -> Scenario {
        Scenario::parse(
            "name mini\nduration 360s\ninterval 60s\nwarmup 60s\nclients 60\nseed 3\n\
             at 60s intensity 1.5\nfault at 150s outlier 4\nfault at 200s drop\n",
        )
        .unwrap()
    }

    fn experiment(scn: &Scenario) -> Experiment {
        Experiment::for_scenario(SystemSpec::default(), scn)
    }

    /// Runs `scn` with a trial-and-error tuner until `stop_after`
    /// iterations are done, rebuilds the tuner from its snapshot bytes
    /// as a new process would, and resumes the run to completion.
    fn stop_and_resume(exp: &Experiment, scn: &Scenario, stop_after: usize) -> ScenarioRunOutcome {
        let mut snapshot_bytes = Vec::new();
        let outcome = exp
            .run_scenario_resumable(scn, &mut TrialAndError::new(3), None, |p, tuner| {
                if p.iterations_done < stop_after {
                    return Ok(BoundaryAction::Continue);
                }
                let mut snap = SnapshotWriter::new();
                tuner.save_state(&mut snap);
                snapshot_bytes = snap.to_bytes();
                Ok(BoundaryAction::Stop)
            })
            .unwrap();
        let ScenarioRunOutcome::Interrupted(progress) = outcome else {
            panic!("run should stop after {stop_after} iterations");
        };
        assert_eq!(progress.iterations_done, stop_after);
        let snap = Snapshot::from_bytes(&snapshot_bytes).unwrap();
        let mut tuner = TrialAndError::restore(&snap).unwrap();
        exp.run_scenario_resumable(scn, &mut tuner, Some(progress), |_, _| {
            Ok(BoundaryAction::Continue)
        })
        .unwrap()
    }

    #[test]
    fn stop_resume_is_bit_identical_for_every_boundary() {
        // The hand-written scenario stops at every boundary. One
        // generated draw per difficulty, each carrying heavy-tail and
        // fault directives through the replay, stops at three seeded
        // boundaries.
        let mini = scenario();
        let mut cases = vec![(mini.clone(), (1..mini.iterations()).collect::<Vec<_>>())];
        let mut rng = simkernel::Pcg64::seed_from_u64(11);
        for (seed, difficulty) in [
            (1, Difficulty::Calm),
            (1, Difficulty::Brisk),
            (2, Difficulty::Stormy),
        ] {
            let scn = gen::generate(seed, difficulty).scaled(1, 5);
            let text = scn.to_string();
            assert!(
                text.contains("\ntail ") && text.contains("\nfault "),
                "{text}"
            );
            let last = scn.iterations() as u64 - 1;
            let stops = (0..3)
                .map(|_| rng.range_inclusive(1, last) as usize)
                .collect();
            cases.push((scn, stops));
        }
        for (scn, stops) in cases {
            let exp = experiment(&scn);
            let full = exp.run_scenario(&scn, &mut TrialAndError::new(3));
            for stop_after in stops {
                assert_eq!(
                    stop_and_resume(&exp, &scn, stop_after),
                    ScenarioRunOutcome::Complete(full.clone()),
                    "{}: resume after iteration {stop_after} diverged",
                    scn.name
                );
            }
        }
    }

    #[test]
    fn rac_agent_survives_stop_and_snapshot_resume() {
        let scn = scenario();
        let exp = experiment(&scn);
        let settings = crate::RacSettings {
            online_levels: 3,
            ..crate::RacSettings::default()
        };
        let full = exp.run_scenario(&scn, &mut RacAgent::new(settings.clone()));

        let stop_after = 3;
        let mut snapshot_bytes = Vec::new();
        let outcome = exp
            .run_scenario_resumable(&scn, &mut RacAgent::new(settings), None, |p, tuner| {
                if p.iterations_done == stop_after {
                    let mut snap = SnapshotWriter::new();
                    tuner.save_state(&mut snap);
                    snapshot_bytes = snap.to_bytes();
                    Ok(BoundaryAction::Stop)
                } else {
                    Ok(BoundaryAction::Continue)
                }
            })
            .unwrap();
        let ScenarioRunOutcome::Interrupted(progress) = outcome else {
            panic!("run should have stopped");
        };
        // Rebuild the agent purely from the snapshot bytes, as a new
        // process would.
        let snap = ckpt::Snapshot::from_bytes(&snapshot_bytes).unwrap();
        let mut agent = RacAgent::restore(&snap).unwrap();
        let resumed = exp
            .run_scenario_resumable(&scn, &mut agent, Some(progress), |_, _| {
                Ok(BoundaryAction::Continue)
            })
            .unwrap();
        assert_eq!(resumed, ScenarioRunOutcome::Complete(full));
    }

    #[test]
    fn stop_resume_through_an_open_breaker_window_is_bit_identical() {
        // A blackout long enough to trip the breaker and keep it open
        // across several boundaries, plus a one-shot timeout later.
        let scn = Scenario::parse(
            "name outage\nduration 600s\ninterval 60s\nwarmup 60s\nclients 60\nseed 3\n\
             fault at 120s blackout for 180s\nfault at 420s timeout\n",
        )
        .unwrap();
        let exp = experiment(&scn);
        let settings = crate::RacSettings {
            online_levels: 3,
            ..crate::RacSettings::default()
        };
        let full = exp.run_scenario(&scn, &mut RacAgent::new(settings.clone()));
        for stop_after in 1..scn.iterations() {
            let mut snapshot_bytes = Vec::new();
            let outcome = exp
                .run_scenario_resumable(
                    &scn,
                    &mut RacAgent::new(settings.clone()),
                    None,
                    |p, tuner| {
                        if p.iterations_done == stop_after {
                            let mut snap = SnapshotWriter::new();
                            tuner.save_state(&mut snap);
                            snapshot_bytes = snap.to_bytes();
                            Ok(BoundaryAction::Stop)
                        } else {
                            Ok(BoundaryAction::Continue)
                        }
                    },
                )
                .unwrap();
            let ScenarioRunOutcome::Interrupted(progress) = outcome else {
                panic!("run should stop after {stop_after} iterations");
            };
            // The breaker state is part of the progress record and
            // round-trips with it.
            let mut w = Writer::new();
            progress.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes, "t");
            let back = ScenarioProgress::decode(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(back, progress);

            let snap = ckpt::Snapshot::from_bytes(&snapshot_bytes).unwrap();
            let mut agent = RacAgent::restore(&snap).unwrap();
            let resumed = exp
                .run_scenario_resumable(&scn, &mut agent, Some(back), |_, _| {
                    Ok(BoundaryAction::Continue)
                })
                .unwrap();
            assert_eq!(
                resumed,
                ScenarioRunOutcome::Complete(full.clone()),
                "resume after iteration {stop_after} diverged"
            );
        }
    }

    #[test]
    fn resume_past_the_timeline_is_a_mismatch() {
        let scn = scenario();
        let exp = experiment(&scn);
        let bogus = ScenarioProgress {
            iterations_done: 99,
            series: Vec::new(),
            next_config: ServerConfig::default(),
            channel: MeasurementChannel::default(),
        };
        let err = exp
            .run_scenario_resumable(&scn, &mut StaticDefault::new(), Some(bogus), |_, _| {
                Ok(BoundaryAction::Continue)
            })
            .unwrap_err();
        assert!(matches!(err, CkptError::Mismatch { .. }));
    }

    #[test]
    fn progress_round_trips() {
        let scn = scenario();
        let exp = experiment(&scn);
        let outcome = exp
            .run_scenario_resumable(&scn, &mut StaticDefault::new(), None, |p, _| {
                Ok(if p.iterations_done >= 2 {
                    BoundaryAction::Stop
                } else {
                    BoundaryAction::Continue
                })
            })
            .unwrap();
        let ScenarioRunOutcome::Interrupted(progress) = outcome else {
            panic!("expected interruption");
        };
        let mut w = Writer::new();
        progress.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "t");
        let back = ScenarioProgress::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, progress);
    }

    // The checkpointed line-up (`crate::lineup`) drives this module's
    // resumable loop once per tuner; its stop/resume contract is pinned
    // here beside the single-tuner one.

    fn tiny_scenario() -> Scenario {
        Scenario::parse(
            "name tiny\nduration 360s\ninterval 60s\nwarmup 60s\nclients 60\nseed 5\n\
             at 60s intensity 1.4\nfault at 200s drop\n",
        )
        .unwrap()
    }

    fn tiny_library() -> PolicyLibrary {
        // A fast single-context library at the standard lattice
        // resolution (the checkpoint validates Q-table dimensions, so
        // the lattice must match ONLINE_LEVELS).
        crate::build_policy_library(
            &crate::paper_system_spec().with_clients(60),
            &[crate::paper_contexts()[0]],
            &crate::standard_lattice(),
            crate::SlaReward::new(crate::SLA_MS),
            crate::TrainingOptions {
                warmup: simkernel::SimDuration::from_secs(60),
                measure: simkernel::SimDuration::from_secs(60),
                ..crate::TrainingOptions::default()
            },
        )
    }

    #[test]
    fn checkpointed_lineup_matches_plain_lineup_and_resumes_identically() {
        let scn = tiny_scenario();
        let library = tiny_library();
        let dir = std::env::temp_dir().join(format!("rac-ckpt-test-{}", std::process::id()));
        let plain = run_tuners(&scn, &library);

        let opts = CheckpointOptions {
            path: dir.join("full.ckpt"),
            every: 4,
            stop_after: None,
        };
        let full = match run_tuners_checkpointed(&scn, &library, &opts, None).unwrap() {
            LineupOutcome::Complete(series) => series,
            LineupOutcome::Interrupted { .. } => panic!("no stop requested"),
        };
        assert_eq!(full, plain, "checkpointing must not perturb the series");

        // Interrupt at a mid-lineup boundary (tuner 1 mid-run) and at a
        // non-schedule boundary (pending flush), then resume each.
        for stop_after in [8usize, 7] {
            let path = dir.join(format!("stop-{stop_after}.ckpt"));
            let opts = CheckpointOptions {
                path: path.clone(),
                every: 4,
                stop_after: Some(stop_after),
            };
            let outcome = run_tuners_checkpointed(&scn, &library, &opts, None).unwrap();
            let LineupOutcome::Interrupted { global_iterations } = outcome else {
                panic!("run should stop after {stop_after} lineup iterations");
            };
            assert_eq!(global_iterations, stop_after);

            let snap = Snapshot::load(&path).unwrap();
            let opts = CheckpointOptions {
                path,
                every: 4,
                stop_after: None,
            };
            let resumed = match run_tuners_checkpointed(&scn, &library, &opts, Some(&snap)).unwrap()
            {
                LineupOutcome::Complete(series) => series,
                LineupOutcome::Interrupted { .. } => panic!("resume should finish"),
            };
            assert_eq!(resumed, full, "resume after {stop_after} diverged");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn control_commands_checkpoint_stop_abort() {
        let scn = tiny_scenario();
        let library = tiny_library();
        let dir = std::env::temp_dir().join(format!("rac-ckpt-ctl-{}", std::process::id()));
        let plain = run_tuners(&scn, &library);

        // Checkpoint-on-demand at boundary 3, graceful stop at 7. The
        // schedule (every=1000) never fires, so any file on disk came
        // from a control command.
        let path = dir.join("ctl.ckpt");
        let opts = CheckpointOptions {
            path: path.clone(),
            every: 1000,
            stop_after: None,
        };
        let mut on_demand_seen = false;
        let outcome = run_tuners_checkpointed_with(&scn, &library, &opts, None, |s| {
            if s.global_iteration == 4 {
                on_demand_seen = path.exists();
            }
            match s.global_iteration {
                3 => LineupCommand::Checkpoint,
                7 => LineupCommand::Stop,
                _ => LineupCommand::Continue,
            }
        })
        .unwrap();
        let LineupOutcome::Interrupted { global_iterations } = outcome else {
            panic!("control stop must interrupt the lineup");
        };
        assert_eq!(global_iterations, 7);
        assert!(on_demand_seen, "on-demand checkpoint must hit disk");

        // Resuming the stopped run converges to the plain series.
        let snap = Snapshot::load(&path).unwrap();
        let resumed = match run_tuners_checkpointed(&scn, &library, &opts, Some(&snap)).unwrap() {
            LineupOutcome::Complete(series) => series,
            LineupOutcome::Interrupted { .. } => panic!("resume should finish"),
        };
        assert_eq!(resumed, plain, "control-steered run diverged");

        // Abort stops without touching disk — not even the drop rescue.
        let path2 = dir.join("abort.ckpt");
        let opts = CheckpointOptions {
            path: path2.clone(),
            every: 1000,
            stop_after: None,
        };
        let outcome = run_tuners_checkpointed_with(&scn, &library, &opts, None, |s| {
            if s.global_iteration == 2 {
                LineupCommand::Abort
            } else {
                LineupCommand::Continue
            }
        })
        .unwrap();
        assert!(matches!(
            outcome,
            LineupOutcome::Interrupted {
                global_iterations: 2
            }
        ));
        assert!(!path2.exists(), "abort must never write");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_wrong_scenario() {
        let scn = tiny_scenario();
        let library = tiny_library();
        let dir = std::env::temp_dir().join(format!("rac-ckpt-mism-{}", std::process::id()));
        let path = dir.join("run.ckpt");
        let opts = CheckpointOptions {
            path: path.clone(),
            every: 2,
            stop_after: Some(2),
        };
        run_tuners_checkpointed(&scn, &library, &opts, None).unwrap();
        let snap = Snapshot::load(&path).unwrap();

        let other = Scenario::parse(
            "name other\nduration 360s\ninterval 60s\nwarmup 60s\nclients 60\nseed 5\n",
        )
        .unwrap();
        let err = run_tuners_checkpointed(&other, &library, &opts, Some(&snap)).unwrap_err();
        assert!(matches!(err, CkptError::Mismatch { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
