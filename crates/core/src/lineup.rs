//! The standard three-tuner line-up — RAC seeded from the offline
//! policy library, trial-and-error, and the static default — run one
//! tuner after another through a scenario, bare ([`run_tuners`]) or
//! with crash-safe checkpoints ([`run_tuners_checkpointed_with`]).
//!
//! Everything here is deliberately sequential: a scenario run must be a
//! pure function of (spec, scenario, seed), bit-identical at any
//! `RAC_THREADS` setting, so the tuners run one after another instead
//! of fanning out over the global runner.
//!
//! One checkpoint file spans the whole checkpointed line-up. The
//! snapshot holds the line-up cursor (which tuner is active), the
//! series of every finished tuner, the active tuner's
//! [`ScenarioProgress`] and learned state, and the serialized decision
//! trace prefix. Resuming restores all of that, replays the active
//! tuner's completed intervals deterministically
//! ([`Experiment::run_scenario_resumable`]), and continues — producing
//! CSV and trace output byte-identical to an uninterrupted run at any
//! `RAC_THREADS`.
//!
//! Trace-equivalence invariants (all load-bearing):
//!
//! * The `checkpoint` trace event is emitted *before* the snapshot is
//!   encoded, so the embedded trace prefix includes it — an interrupted
//!   and resumed run then replays the event from the prefix instead of
//!   re-emitting it.
//! * The event carries only deterministic fields (global iteration,
//!   tuner iteration, tuner index). Bytes written and wall-clock
//!   durations vary run to run, so they go to metrics only.
//! * Whether a boundary flushes is a pure function of the *global*
//!   (whole-lineup) iteration count, so an interrupted run and its
//!   resumption agree on the schedule without communicating.
//! * Restoring is metrics/console-only — no `checkpoint_restored` trace
//!   event, because the uninterrupted reference run never restores.

use std::path::PathBuf;
use std::time::Instant;

use ckpt::{CkptError, Snapshot, SnapshotWriter};
use obs::trace;
use scenario::Scenario;

use crate::agent::RacAgent;
use crate::baseline::{StaticDefault, TrialAndError};
use crate::checkpoint::{
    decode_series, encode_series, BoundaryAction, PersistTuner, ScenarioProgress,
    ScenarioRunOutcome,
};
use crate::context::PolicyLibrary;
use crate::experiment::{Experiment, IterationRecord};
use crate::output::TextTable;
use crate::persist::library_to_snapshot;
use crate::testbed::{paper_system_spec, standard_settings, ONLINE_LEVELS};

/// Display names of the standard tuner lineup, in run order.
pub const LINEUP: [&str; 3] = ["RAC", "trial-and-error", "static default"];

const SECTION_META: &str = "lineup.meta";
const SECTION_DONE: &str = "lineup.done";
const SECTION_PROGRESS: &str = "lineup.progress";
const SECTION_TRACE: &str = "lineup.trace";

/// How a checkpointed lineup run persists itself.
#[derive(Debug, Clone)]
pub struct CheckpointOptions {
    /// Snapshot file (atomically replaced at every flush).
    pub path: PathBuf,
    /// Flush to disk every N lineup iterations.
    pub every: usize,
    /// Stop cleanly once N lineup iterations have completed (testing /
    /// CI hook for "the process died here").
    pub stop_after: Option<usize>,
}

/// How a checkpointed lineup run ended.
#[derive(Debug)]
pub enum LineupOutcome {
    /// All three tuners ran; same shape as [`run_tuners`].
    Complete(Vec<(&'static str, Vec<IterationRecord>)>),
    /// `stop_after` hit or the control callback asked to stop; the
    /// snapshot on disk resumes the run (unless the stop was an
    /// [`LineupCommand::Abort`], which leaves the last *flushed*
    /// snapshot untouched instead).
    Interrupted {
        /// Lineup iterations completed across all tuners.
        global_iterations: usize,
    },
}

/// What the lineup looks like at one iteration boundary, as seen by the
/// control callback of [`run_tuners_checkpointed_with`].
#[derive(Debug, Clone, Copy)]
pub struct LineupStatus {
    /// Completed lineup iterations across all tuners so far.
    pub global_iteration: usize,
    /// Index into [`LINEUP`] of the active tuner.
    pub tuner_index: usize,
    /// Completed iterations of the active tuner's own session.
    pub tuner_iteration: usize,
    /// Whether the measurement-channel breaker is currently open.
    pub breaker_open: bool,
}

/// A control decision returned from the boundary callback of
/// [`run_tuners_checkpointed_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineupCommand {
    /// Keep running; flushes follow the periodic schedule.
    Continue,
    /// Flush the just-encoded snapshot now (checkpoint-on-demand), then
    /// keep running. Like an off-schedule stop flush, this writes
    /// *without* a `checkpoint` trace event, so on-demand flushes never
    /// perturb trace bytes.
    Checkpoint,
    /// Flush the just-encoded snapshot, then stop cleanly — the daemon's
    /// checkpoint-then-graceful-shutdown path.
    Stop,
    /// Stop immediately *without* writing anything, leaving the last
    /// flushed snapshot as the resume point. Used by a supervisor
    /// abandoning a superseded worker: a stale worker must never
    /// overwrite state a newer attempt is building on.
    Abort,
}

/// Runs the standard tuner line-up through one scenario, returning
/// each tuner's series under its display name.
pub fn run_tuners(
    scn: &Scenario,
    library: &PolicyLibrary,
) -> Vec<(&'static str, Vec<IterationRecord>)> {
    run_tuners_with(scn, library, |_| {})
}

/// [`run_tuners`] with an `after_each(name)` callback invoked as each
/// tuner's session completes. Live `--serve` runs use it to flush the
/// growing trace to disk between sessions (the serialized trace is
/// prefix-stable, so mid-run flushes are prefixes of the final file);
/// the callback cannot see or influence the runs themselves.
pub fn run_tuners_with<F: FnMut(&'static str)>(
    scn: &Scenario,
    library: &PolicyLibrary,
    mut after_each: F,
) -> Vec<(&'static str, Vec<IterationRecord>)> {
    let exp = Experiment::for_scenario(paper_system_spec(), scn);
    LINEUP
        .iter()
        .enumerate()
        .map(|(index, &name)| {
            let series = exp.run_scenario(scn, fresh_tuner(index, library).as_mut());
            after_each(name);
            (name, series)
        })
        .collect()
}

/// Runs the standard tuner lineup through one scenario with periodic
/// snapshots, optionally resuming a previous run's snapshot.
///
/// Byte-identical to [`run_tuners`] in series and trace output —
/// checkpointing only *adds* the deterministic `checkpoint` trace
/// events.
///
/// # Errors
///
/// Returns [`CkptError::Mismatch`] when `resume` was written for a
/// different system spec or scenario, any decoding error from a corrupt
/// snapshot, and I/O errors from writing the snapshot file.
pub fn run_tuners_checkpointed(
    scn: &Scenario,
    library: &PolicyLibrary,
    options: &CheckpointOptions,
    resume: Option<&Snapshot>,
) -> Result<LineupOutcome, CkptError> {
    run_tuners_checkpointed_with(scn, library, options, resume, |_| LineupCommand::Continue)
}

/// [`run_tuners_checkpointed`] with a control callback consulted at
/// every iteration boundary. The callback sees the lineup position
/// ([`LineupStatus`]) and steers the run with a [`LineupCommand`]:
/// pause-free continuation, checkpoint-on-demand, a clean
/// checkpoint-then-stop, or an abandon-without-write abort. This is the
/// daemon's (`racd`) drive shaft — signals and admin commands turn into
/// commands here, always at an iteration boundary, never mid-interval.
///
/// Determinism: `Continue` is byte-identical to the plain entry point;
/// `Checkpoint` and `Stop` write without trace events (the periodic
/// schedule alone emits them), so a run steered by any command sequence
/// still converges to the uninterrupted run's CSV/trace bytes once
/// resumed to completion.
///
/// # Errors
///
/// As [`run_tuners_checkpointed`].
pub fn run_tuners_checkpointed_with(
    scn: &Scenario,
    library: &PolicyLibrary,
    options: &CheckpointOptions,
    resume: Option<&Snapshot>,
    mut control: impl FnMut(&LineupStatus) -> LineupCommand,
) -> Result<LineupOutcome, CkptError> {
    let exp = Experiment::for_scenario(paper_system_spec(), scn);
    let spec_fp = exp.spec().fingerprint();
    let scn_fp = scn.fingerprint();

    let mut done: Vec<(&'static str, Vec<IterationRecord>)> = Vec::new();
    let mut tuner_index = 0usize;
    let mut active: Option<(Box<dyn PersistTuner>, ScenarioProgress)> = None;
    if let Some(snap) = resume {
        let t0 = Instant::now();
        let resumed = decode_lineup(snap, spec_fp, scn_fp)?;
        tuner_index = resumed.tuner_index;
        done = resumed.done;
        active = Some((resumed.tuner, resumed.progress));
        let m = obs::Registry::global();
        m.counter("rac_ckpt_restores_total").inc();
        m.histogram("rac_ckpt_restore_us")
            .record_us(t0.elapsed().as_micros() as u64);
    }

    let mut sink = CkptSink {
        options,
        library,
        spec_fp,
        scn_fp,
        pending: None,
        control_stop: false,
    };
    while tuner_index < LINEUP.len() {
        let (mut tuner, progress) = match active.take() {
            Some((t, p)) => (t, Some(p)),
            None => (fresh_tuner(tuner_index, library), None),
        };
        let base: usize = done.iter().map(|(_, s)| s.len()).sum();
        let outcome = exp.run_scenario_resumable(scn, tuner.as_mut(), progress, |p, t| {
            let status = LineupStatus {
                global_iteration: base + p.iterations_done,
                tuner_index,
                tuner_iteration: p.iterations_done,
                breaker_open: p.channel.is_open(),
            };
            let cmd = control(&status);
            sink.boundary(tuner_index, &done, status.global_iteration, p, t, cmd)
        })?;
        match outcome {
            ScenarioRunOutcome::Complete(series) => {
                done.push((LINEUP[tuner_index], series));
                tuner_index += 1;
                // A stop landing exactly on a tuner's final iteration is
                // swallowed by the scenario runner (the run is complete);
                // honor it at the lineup level instead. The snapshot
                // already on disk resumes by replaying the finished
                // tuner, then starts the next one fresh. Control-driven
                // stops (and aborts) are honored the same way.
                let global: usize = done.iter().map(|(_, s)| s.len()).sum();
                if (sink.stop_requested(global) || sink.control_stop) && tuner_index < LINEUP.len()
                {
                    return Ok(LineupOutcome::Interrupted {
                        global_iterations: global,
                    });
                }
            }
            ScenarioRunOutcome::Interrupted(p) => {
                return Ok(LineupOutcome::Interrupted {
                    global_iterations: base + p.iterations_done,
                });
            }
        }
    }
    // Leave the finished run's final state on disk (warm-start food for
    // the next run) even when the last boundary missed the schedule.
    sink.flush_pending()?;
    Ok(LineupOutcome::Complete(done))
}

fn fresh_tuner(index: usize, library: &PolicyLibrary) -> Box<dyn PersistTuner> {
    match index {
        0 => Box::new(RacAgent::with_policy_library(
            standard_settings(),
            library.clone(),
        )),
        1 => Box::new(TrialAndError::new(ONLINE_LEVELS)),
        _ => Box::new(StaticDefault::new()),
    }
}

/// The periodic-snapshot sink driven by the scenario runner's boundary
/// callback. Encodes the full lineup snapshot at *every* boundary and
/// flushes it on the schedule; whatever is pending when the sink drops
/// (error paths, panics) is flushed best-effort so no completed work is
/// lost.
struct CkptSink<'a> {
    options: &'a CheckpointOptions,
    library: &'a PolicyLibrary,
    spec_fp: u64,
    scn_fp: u64,
    pending: Option<Vec<u8>>,
    /// Whether the control callback asked to stop (or abort) — consulted
    /// at the lineup level because the scenario runner swallows a stop
    /// landing on a tuner's final iteration.
    control_stop: bool,
}

impl CkptSink<'_> {
    fn stop_requested(&self, global: usize) -> bool {
        self.options.stop_after.is_some_and(|n| global >= n)
    }

    fn boundary(
        &mut self,
        tuner_index: usize,
        done: &[(&'static str, Vec<IterationRecord>)],
        global: usize,
        progress: &ScenarioProgress,
        tuner: &dyn PersistTuner,
        cmd: LineupCommand,
    ) -> Result<BoundaryAction, CkptError> {
        if cmd == LineupCommand::Abort {
            // Abandon without touching disk: clear anything pending so
            // not even the drop rescue writes, and stop here. The last
            // *flushed* snapshot stays the authoritative resume point.
            self.pending = None;
            self.control_stop = true;
            return Ok(BoundaryAction::Stop);
        }
        // Wall-clock attribution of encode+write time (metrics/profile
        // only; the trace event below is simulated-time as ever).
        let _span = obs::Span::start("checkpoint");
        let flush = self.options.every > 0 && global.is_multiple_of(self.options.every);
        if flush {
            // Emitted before encoding so the snapshot's trace prefix
            // includes this event: a resumed run replays it from the
            // prefix and never re-emits it.
            trace::emit(|| {
                obs::Event::new("checkpoint")
                    .field("iter", global as u64)
                    .field("tuner_iter", progress.iterations_done as u64)
                    .field("tuner", tuner_index as u64)
            });
        }
        let bytes = encode_lineup(
            self.spec_fp,
            self.scn_fp,
            tuner_index,
            done,
            progress,
            tuner,
            self.library,
        );
        if flush {
            self.write(&bytes)?;
            self.pending = None;
        } else {
            self.pending = Some(bytes);
        }
        if cmd == LineupCommand::Checkpoint {
            // Checkpoint-on-demand: persist now, off the schedule and
            // therefore without a trace event, then keep running.
            self.flush_pending()?;
        }
        if cmd == LineupCommand::Stop {
            // Checkpoint-then-stop (graceful shutdown): same flush
            // semantics as an off-schedule `stop_after` stop.
            self.flush_pending()?;
            self.control_stop = true;
            return Ok(BoundaryAction::Stop);
        }
        if self.stop_requested(global) {
            // Make the stop resumable even off-schedule: persist the
            // just-encoded state, without a trace event (the resumed
            // run's schedule is what keeps traces identical).
            self.flush_pending()?;
            return Ok(BoundaryAction::Stop);
        }
        Ok(BoundaryAction::Continue)
    }

    fn write(&self, bytes: &[u8]) -> Result<(), CkptError> {
        let t0 = Instant::now();
        ckpt::write_bytes_atomic(bytes, &self.options.path)?;
        let m = obs::Registry::global();
        m.counter("rac_ckpt_writes_total").inc();
        m.counter("rac_ckpt_bytes_total").add(bytes.len() as u64);
        m.histogram("rac_ckpt_write_us")
            .record_us(t0.elapsed().as_micros() as u64);
        Ok(())
    }

    fn flush_pending(&mut self) -> Result<(), CkptError> {
        match self.pending.take() {
            Some(bytes) => self.write(&bytes),
            None => Ok(()),
        }
    }
}

impl Drop for CkptSink<'_> {
    fn drop(&mut self) {
        // Snapshot-on-drop: error paths and panics still leave the last
        // boundary's state behind. Errors are swallowed — this is a
        // best-effort rescue, never the primary persistence path.
        let _ = self.flush_pending();
    }
}

#[allow(clippy::too_many_arguments)]
fn encode_lineup(
    spec_fp: u64,
    scn_fp: u64,
    tuner_index: usize,
    done: &[(&'static str, Vec<IterationRecord>)],
    progress: &ScenarioProgress,
    tuner: &dyn PersistTuner,
    library: &PolicyLibrary,
) -> Vec<u8> {
    let mut snap = SnapshotWriter::new();
    snap.section(SECTION_META, |w| {
        w.put_u64(spec_fp);
        w.put_u64(scn_fp);
        w.put_usize(tuner_index);
    });
    snap.section(SECTION_DONE, |w| {
        w.put_usize(done.len());
        for (_, series) in done {
            encode_series(w, series);
        }
    });
    snap.section(SECTION_PROGRESS, |w| progress.encode(w));
    tuner.save_state(&mut snap);
    if tuner_index != 0 {
        // The RAC agent (tuner 0) saves its own library section; once a
        // later tuner is active, persist the lineup's library here so
        // any snapshot of the run — including the final one — can seed
        // a warm start.
        library_to_snapshot(&mut snap, library);
    }
    let prefix = trace::snapshot_serialized();
    snap.section(SECTION_TRACE, |w| {
        w.put_bool(prefix.is_some());
        w.put_str(prefix.as_deref().unwrap_or(""));
    });
    snap.to_bytes()
}

struct ResumedLineup {
    tuner_index: usize,
    done: Vec<(&'static str, Vec<IterationRecord>)>,
    tuner: Box<dyn PersistTuner>,
    progress: ScenarioProgress,
}

fn decode_lineup(snap: &Snapshot, spec_fp: u64, scn_fp: u64) -> Result<ResumedLineup, CkptError> {
    let mut r = snap.section(SECTION_META)?;
    let snap_spec = r.get_u64()?;
    let snap_scn = r.get_u64()?;
    let tuner_index = r.get_usize()?;
    r.finish()?;
    if snap_spec != spec_fp {
        return Err(CkptError::Mismatch {
            detail: format!(
                "checkpoint was written for a different system spec \
                 (fingerprint {snap_spec:#018x}, this run has {spec_fp:#018x})"
            ),
        });
    }
    if snap_scn != scn_fp {
        return Err(CkptError::Mismatch {
            detail: format!(
                "checkpoint was written for a different scenario or scaling \
                 (fingerprint {snap_scn:#018x}, this run has {scn_fp:#018x})"
            ),
        });
    }
    if tuner_index >= LINEUP.len() {
        return Err(CkptError::Corrupt {
            detail: format!("lineup cursor {tuner_index} out of range"),
        });
    }

    let mut r = snap.section(SECTION_DONE)?;
    let count = r.get_usize()?;
    if count != tuner_index {
        return Err(CkptError::Corrupt {
            detail: format!("lineup cursor at tuner {tuner_index} but {count} finished series"),
        });
    }
    let mut done = Vec::with_capacity(count);
    for (i, name) in LINEUP.iter().enumerate().take(count) {
        let series = decode_series(&mut r).map_err(|e| CkptError::Corrupt {
            detail: format!("finished series {i}: {e}"),
        })?;
        done.push((*name, series));
    }
    r.finish()?;

    let mut r = snap.section(SECTION_PROGRESS)?;
    let progress = ScenarioProgress::decode(&mut r)?;
    r.finish()?;

    let tuner: Box<dyn PersistTuner> = match tuner_index {
        0 => Box::new(RacAgent::restore(snap)?),
        1 => Box::new(TrialAndError::restore(snap)?),
        _ => Box::new(StaticDefault::new()),
    };

    let mut r = snap.section(SECTION_TRACE)?;
    let has_trace = r.get_bool()?;
    let prefix = r.get_str()?;
    r.finish()?;
    if has_trace && trace::scoped() {
        trace::restore_serialized(&prefix).map_err(|e| CkptError::Corrupt {
            detail: format!("embedded trace prefix: {e}"),
        })?;
        // The active tuner's session header is part of the restored
        // prefix; its remaining live events must land in the same run.
        trace::set_run(tuner_index as u64 + 1);
    }

    Ok(ResumedLineup {
        tuner_index,
        done,
        tuner,
        progress,
    })
}

/// The per-iteration scenario table: interval start time and offered
/// client population alongside each tuner's mean response time.
pub fn scenario_table(scn: &Scenario, series: &[(&str, Vec<IterationRecord>)]) -> TextTable {
    let base = scn.clients.unwrap_or_else(|| paper_system_spec().clients);
    let clients = scn.offered_clients(base);
    let mut headers = vec!["iteration", "t_s", "clients"];
    headers.extend(series.iter().map(|(n, _)| *n));
    let mut t = TextTable::new(&headers);
    for i in 0..scn.iterations() {
        let t_s = i as u64 * scn.interval.as_micros() / 1_000_000;
        let mut cells = vec![
            i.to_string(),
            t_s.to_string(),
            clients.get(i).map(|c| c.to_string()).unwrap_or_default(),
        ];
        for (_, s) in series {
            cells.push(
                s.get(i)
                    .map(|r| format!("{:.1}", r.response_ms))
                    .unwrap_or_default(),
            );
        }
        t.row(&cells);
    }
    t
}
