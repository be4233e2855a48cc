//! Tournament harness behind `figures tournament`: RAC versus
//! trial-and-error versus the static default across hundreds of
//! generated scenarios.
//!
//! Each matchup draws one scenario from [`scenario::gen`] (difficulty
//! cycling calm → brisk → stormy unless `--profile` pins one), runs all
//! three arms through it sequentially, and scores the arms on the mean
//! response time over the scenario. Matchups are sharded across the
//! global [`rac::Runner`] — `run_tasks` returns results in submission
//! order, and each matchup is internally sequential, so the tournament
//! is a pure function of `(seed, N)`: the CSVs are byte-identical at
//! any `RAC_THREADS` setting.
//!
//! The RAC arm starts cold (no offline policy library), exactly like
//! the chaos harness: the tournament measures *online adaptation* on
//! never-seen-before workloads, where a library trained on the six
//! Table-2 contexts would be an unearned head start for one arm and a
//! disk-cache dependency for CI.

use rac::{
    paper_system_spec, standard_settings, Experiment, IterationRecord, RacAgent, Runner,
    StaticDefault, TrialAndError, Tuner, ONLINE_LEVELS, SLA_MS,
};
use scenario::{gen, Difficulty, Scenario};

use crate::output::TextTable;

/// Arm display names, in run (and CSV column) order.
pub const ARMS: [&str; 3] = ["RAC", "trial-and-error", "static-default"];

/// Index of the static-default arm — the baseline the scoreboard's
/// delta columns are measured against.
pub const BASELINE_ARM: usize = 2;

/// Golden-ratio stride decorrelating per-matchup scenario seeds.
const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Tournament configuration (the parsed `figures tournament` CLI).
#[derive(Debug, Clone, Copy)]
pub struct TournamentOptions {
    /// Number of generated scenarios (matchups).
    pub scenarios: usize,
    /// Base seed; matchup `i` uses `seed + i * SEED_STRIDE` (wrapping).
    pub seed: u64,
    /// Compress every scenario's timeline 3× (`Scenario::scaled(1, 3)`).
    pub quick: bool,
    /// Pin one difficulty instead of cycling through all three.
    pub profile: Option<Difficulty>,
}

impl Default for TournamentOptions {
    fn default() -> Self {
        TournamentOptions {
            scenarios: 200,
            seed: 42,
            quick: false,
            profile: None,
        }
    }
}

/// One arm's summary over a single scenario.
#[derive(Debug, Clone, Copy)]
pub struct ArmScore {
    /// Mean response over the finite iterations (ms); NaN if none.
    pub mean_ms: f64,
    /// 95th percentile of the finite per-iteration responses (ms).
    pub p95_ms: f64,
    /// Fraction of iterations violating the SLA (dropped intervals —
    /// infinite response — count as violations).
    pub sla_rate: f64,
}

/// One scenario's results across all three arms.
#[derive(Debug, Clone)]
pub struct Matchup {
    /// Generated scenario name (`gen-<difficulty>-<seed>`).
    pub scenario: String,
    /// The scenario's derived seed.
    pub seed: u64,
    /// Difficulty the scenario was drawn at.
    pub difficulty: Difficulty,
    /// Scores in [`ARMS`] order.
    pub arms: [ArmScore; 3],
}

impl Matchup {
    /// The minimal mean among the arms (NaN-safe: NaN never wins).
    fn best_mean(&self) -> f64 {
        self.arms
            .iter()
            .map(|a| a.mean_ms)
            .filter(|m| m.is_finite())
            .fold(f64::INFINITY, f64::min)
    }

    /// `(wins, ties)` membership for arm `i`: a win is a strictly
    /// unique minimal mean, a tie is sharing the exact minimal mean.
    pub fn outcome(&self, i: usize) -> MatchOutcome {
        let best = self.best_mean();
        let mine = self.arms[i].mean_ms;
        if !mine.is_finite() || mine > best {
            return MatchOutcome::Loss;
        }
        let at_best = self
            .arms
            .iter()
            .filter(|a| a.mean_ms.is_finite() && a.mean_ms <= best)
            .count();
        if at_best == 1 {
            MatchOutcome::Win
        } else {
            MatchOutcome::Tie
        }
    }
}

/// How one arm fared in one matchup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchOutcome {
    /// Strictly lowest mean response.
    Win,
    /// Shared the lowest mean response bit-for-bit.
    Tie,
    /// Beaten by at least one other arm.
    Loss,
}

/// The per-matchup scenario for slot `i` of a tournament, plus its
/// derived seed and difficulty. Exposed so tests and the perf suite can
/// reconstruct exactly what the harness runs.
pub fn scenario_for(opts: &TournamentOptions, i: usize) -> (Scenario, u64, Difficulty) {
    let seed = opts.seed.wrapping_add((i as u64).wrapping_mul(SEED_STRIDE));
    let difficulty = opts
        .profile
        .unwrap_or_else(|| Difficulty::all()[i % Difficulty::all().len()]);
    let scn = gen::generate(seed, difficulty);
    let scn = if opts.quick { scn.scaled(1, 3) } else { scn };
    (scn, seed, difficulty)
}

fn score(series: &[IterationRecord]) -> ArmScore {
    let mut finite: Vec<f64> = series
        .iter()
        .map(|r| r.response_ms)
        .filter(|x| x.is_finite())
        .collect();
    finite.sort_by(f64::total_cmp);
    let mean_ms = if finite.is_empty() {
        f64::NAN
    } else {
        finite.iter().sum::<f64>() / finite.len() as f64
    };
    let p95_ms = if finite.is_empty() {
        f64::NAN
    } else {
        // Nearest-rank ceil(0.95 * (len-1)) in integer arithmetic, so
        // the index is identical on every platform.
        finite[((finite.len() - 1) * 95).div_ceil(100)]
    };
    let violations = series
        .iter()
        .filter(|r| !r.response_ms.is_finite() || r.response_ms > SLA_MS)
        .count();
    ArmScore {
        mean_ms,
        p95_ms,
        sla_rate: violations as f64 / series.len().max(1) as f64,
    }
}

/// Runs matchup `i` of the tournament: one generated scenario through
/// all three arms, sequentially (purity within the matchup; the fan-out
/// is across matchups).
pub fn run_matchup(opts: &TournamentOptions, i: usize) -> Matchup {
    let (scn, seed, difficulty) = scenario_for(opts, i);
    let exp = Experiment::for_scenario(paper_system_spec(), &scn);
    let mut rac_agent = RacAgent::new(standard_settings());
    let mut tae = TrialAndError::new(ONLINE_LEVELS);
    let mut dflt = StaticDefault::new();
    let tuners: [&mut dyn Tuner; 3] = [&mut rac_agent, &mut tae, &mut dflt];
    let mut arms = [ArmScore {
        mean_ms: f64::NAN,
        p95_ms: f64::NAN,
        sla_rate: 0.0,
    }; 3];
    for (slot, tuner) in tuners.into_iter().enumerate() {
        arms[slot] = score(&exp.run_scenario(&scn, tuner));
    }
    Matchup {
        scenario: scn.name,
        seed,
        difficulty,
        arms,
    }
}

/// Runs the whole tournament, sharded over the global runner. Results
/// come back in matchup order regardless of `RAC_THREADS`.
pub fn run(opts: &TournamentOptions) -> Vec<Matchup> {
    Runner::global().run_tasks(opts.scenarios, |i| run_matchup(opts, i))
}

/// One arm's aggregate line on the scoreboard.
#[derive(Debug, Clone)]
pub struct ScoreboardRow {
    /// Arm display name.
    pub arm: &'static str,
    /// Matchups won outright / tied for best / lost.
    pub wins: usize,
    /// Exact shared-best matchups.
    pub ties: usize,
    /// Matchups some other arm won or tied ahead of this one.
    pub losses: usize,
    /// Mean of the per-scenario mean responses (finite scenarios only).
    pub mean_ms: f64,
    /// Mean of the per-scenario p95 responses.
    pub p95_ms: f64,
    /// Delta of `mean_ms` against the static-default arm.
    pub mean_delta_ms: f64,
    /// Delta of `p95_ms` against the static-default arm.
    pub p95_delta_ms: f64,
    /// Mean per-scenario SLA-violation rate.
    pub sla_rate: f64,
}

fn finite_mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        f64::NAN
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Aggregates the matchups into one scoreboard row per arm.
pub fn scoreboard(matchups: &[Matchup]) -> Vec<ScoreboardRow> {
    let agg = |i: usize| {
        (
            finite_mean(matchups.iter().map(|m| m.arms[i].mean_ms)),
            finite_mean(matchups.iter().map(|m| m.arms[i].p95_ms)),
            finite_mean(matchups.iter().map(|m| m.arms[i].sla_rate)),
        )
    };
    let (base_mean, base_p95, _) = agg(BASELINE_ARM);
    ARMS.iter()
        .enumerate()
        .map(|(i, arm)| {
            let mut wins = 0;
            let mut ties = 0;
            let mut losses = 0;
            for m in matchups {
                match m.outcome(i) {
                    MatchOutcome::Win => wins += 1,
                    MatchOutcome::Tie => ties += 1,
                    MatchOutcome::Loss => losses += 1,
                }
            }
            let (mean_ms, p95_ms, sla_rate) = agg(i);
            ScoreboardRow {
                arm,
                wins,
                ties,
                losses,
                mean_ms,
                p95_ms,
                mean_delta_ms: mean_ms - base_mean,
                p95_delta_ms: p95_ms - base_p95,
                sla_rate,
            }
        })
        .collect()
}

/// The per-scenario matchup table (`results/tournament-matchups.csv`).
/// Fixed `{:.3}` formatting keeps the bytes identical across runs.
pub fn matchups_table(matchups: &[Matchup]) -> TextTable {
    let mut headers = vec!["scenario".to_string(), "seed".into(), "difficulty".into()];
    for arm in ARMS {
        headers.push(format!("{arm}_mean_ms"));
        headers.push(format!("{arm}_p95_ms"));
        headers.push(format!("{arm}_sla_rate"));
    }
    headers.push("winner".into());
    let refs: Vec<&str> = headers.iter().map(|h| h.as_str()).collect();
    let mut t = TextTable::new(&refs);
    for m in matchups {
        let mut cells = vec![
            m.scenario.clone(),
            m.seed.to_string(),
            m.difficulty.label().to_string(),
        ];
        for a in &m.arms {
            cells.push(format!("{:.3}", a.mean_ms));
            cells.push(format!("{:.3}", a.p95_ms));
            cells.push(format!("{:.3}", a.sla_rate));
        }
        let winner = (0..ARMS.len())
            .find(|&i| m.outcome(i) == MatchOutcome::Win)
            .map(|i| ARMS[i])
            .unwrap_or("tie");
        cells.push(winner.to_string());
        t.row(&cells);
    }
    t
}

/// The scoreboard table (`results/tournament-scoreboard.csv`).
pub fn scoreboard_table(rows: &[ScoreboardRow]) -> TextTable {
    let mut t = TextTable::new(&[
        "arm",
        "wins",
        "ties",
        "losses",
        "mean_ms",
        "p95_ms",
        "mean_delta_ms",
        "p95_delta_ms",
        "sla_rate",
    ]);
    for r in rows {
        t.row(&[
            r.arm.to_string(),
            r.wins.to_string(),
            r.ties.to_string(),
            r.losses.to_string(),
            format!("{:.3}", r.mean_ms),
            format!("{:.3}", r.p95_ms),
            format!("{:.3}", r.mean_delta_ms),
            format!("{:.3}", r.p95_delta_ms),
            format!("{:.3}", r.sla_rate),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matchup(means: [f64; 3]) -> Matchup {
        let arm = |mean_ms: f64| ArmScore {
            mean_ms,
            p95_ms: mean_ms * 2.0,
            sla_rate: 0.1,
        };
        Matchup {
            scenario: "gen-test-1".into(),
            seed: 1,
            difficulty: Difficulty::Calm,
            arms: [arm(means[0]), arm(means[1]), arm(means[2])],
        }
    }

    #[test]
    fn outcomes_distinguish_win_tie_loss() {
        let m = matchup([100.0, 200.0, 300.0]);
        assert_eq!(m.outcome(0), MatchOutcome::Win);
        assert_eq!(m.outcome(1), MatchOutcome::Loss);
        let t = matchup([100.0, 100.0, 300.0]);
        assert_eq!(t.outcome(0), MatchOutcome::Tie);
        assert_eq!(t.outcome(1), MatchOutcome::Tie);
        assert_eq!(t.outcome(2), MatchOutcome::Loss);
        // An all-dropped arm can only lose.
        let n = matchup([f64::NAN, 150.0, 300.0]);
        assert_eq!(n.outcome(0), MatchOutcome::Loss);
        assert_eq!(n.outcome(1), MatchOutcome::Win);
    }

    #[test]
    fn scoreboard_counts_and_deltas() {
        let ms = vec![
            matchup([100.0, 200.0, 300.0]),
            matchup([250.0, 200.0, 300.0]),
        ];
        let rows = scoreboard(&ms);
        assert_eq!(rows.len(), 3);
        assert_eq!((rows[0].wins, rows[0].losses), (1, 1));
        assert_eq!((rows[1].wins, rows[1].losses), (1, 1));
        assert_eq!((rows[2].wins, rows[2].losses), (0, 2));
        // Baseline deltas are zero for the static-default row itself.
        assert_eq!(rows[BASELINE_ARM].mean_delta_ms, 0.0);
        assert!((rows[0].mean_delta_ms - (175.0 - 300.0)).abs() < 1e-9);
    }

    #[test]
    fn score_handles_drops_and_percentiles() {
        let rec = |rt: f64| IterationRecord {
            iteration: 0,
            phase: 0,
            response_ms: rt,
            p95_ms: rt,
            throughput_rps: 10.0,
            config: websim::ServerConfig::default(),
        };
        let series: Vec<IterationRecord> = (1..=19)
            .map(|i| rec(i as f64 * 100.0))
            .chain(std::iter::once(rec(f64::INFINITY)))
            .collect();
        let s = score(&series);
        // 19 finite samples 100..1900; mean 1000, p95 at ceil(.95*18)=18.
        assert!((s.mean_ms - 1000.0).abs() < 1e-9);
        assert_eq!(s.p95_ms, 1900.0);
        // > 1000 ms: 1100..1900 (9 samples) plus the dropped interval.
        assert!((s.sla_rate - 10.0 / 20.0).abs() < 1e-9);
    }

    #[test]
    fn scenario_for_is_deterministic_and_cycles_difficulty() {
        let opts = TournamentOptions {
            scenarios: 6,
            ..TournamentOptions::default()
        };
        let (a, seed_a, da) = scenario_for(&opts, 0);
        let (b, _, _) = scenario_for(&opts, 0);
        assert_eq!(a, b);
        assert_eq!(seed_a, opts.seed);
        assert_eq!(da, Difficulty::Calm);
        let (_, _, d1) = scenario_for(&opts, 1);
        let (_, _, d4) = scenario_for(&opts, 4);
        assert_eq!(d1, Difficulty::Brisk);
        assert_eq!(d4, Difficulty::Brisk);
        let pinned = TournamentOptions {
            profile: Some(Difficulty::Stormy),
            ..opts
        };
        let (_, _, dp) = scenario_for(&pinned, 1);
        assert_eq!(dp, Difficulty::Stormy);
    }

    #[test]
    fn csv_formats_are_stable() {
        let rows = scoreboard(&[matchup([100.0, 200.0, 300.0])]);
        let csv = scoreboard_table(&rows).render_csv();
        assert!(csv.starts_with(
            "arm,wins,ties,losses,mean_ms,p95_ms,mean_delta_ms,p95_delta_ms,sla_rate\n"
        ));
        assert!(csv.contains("RAC,1,0,0,100.000,200.000,-200.000,-400.000,0.100"));
        let mcsv = matchups_table(&[matchup([100.0, 200.0, 300.0])]).render_csv();
        assert!(mcsv.contains("gen-test-1,1,calm,100.000"));
        assert!(mcsv.trim_end().ends_with("RAC"));
    }
}
