//! Diagnostic: inspect cached initial policies — where does each
//! predicted landscape put its optimum, and does the greedy walk from
//! the default configuration pass through dangerous states?
//!
//! Output goes through the obs console exporter; `--quiet` (or
//! `RAC_OBS=off`) suppresses it, which makes the bin usable as a pure
//! cache-validity check via its exit status.

use std::fmt::Write as _;

use obs::Console;
use rac::{cache, Action, ConfigLattice, ConfigMdp, SlaReward, ONLINE_LEVELS, SLA_MS};
use rl::Environment;
use websim::ServerConfig;

fn main() {
    let quiet = std::env::args().any(|a| a == "--quiet");
    let console = Console::from_env(quiet);
    let _span = obs::Span::start("inspect_policy");
    let lattice = ConfigLattice::new(ONLINE_LEVELS);
    for i in 1..=6 {
        let path =
            std::path::PathBuf::from(format!("results/cache/policy-ctx{i}-L{ONLINE_LEVELS}.bin"));
        let Some(policy) = cache::load_policy(&path, &lattice) else {
            console.note(format!("ctx{i}: no cache"));
            continue;
        };
        let (argmin, min) = policy
            .perf_ms
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty");
        let (argmax, max) = policy
            .perf_ms
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty");
        console.note(format!(
            "ctx{i}: fit r2={:.3} rmse={:.0} | predicted min {min:.0}ms at {}",
            policy.fit.r_squared,
            policy.fit.rmse,
            lattice.config_at(argmin)
        ));
        console.note(format!(
            "       predicted max {max:.0}ms at {}",
            lattice.config_at(argmax)
        ));

        // Greedy walk from the default configuration.
        let mdp = ConfigMdp::new(&lattice, SlaReward::new(SLA_MS));
        let mut s = lattice.state_of(&ServerConfig::default());
        let mut walk = String::from("       walk:");
        for _ in 0..24 {
            let a = policy.qtable.best_action(s);
            let s2 = mdp.transition(s, a);
            if s2 == s && a == Action::Keep.index() {
                break;
            }
            s = s2;
            let _ = write!(walk, " ->{}", lattice.config_at(s).max_clients());
        }
        let _ = write!(walk, "  end: {}", lattice.config_at(s));
        console.note(walk);
        console.note(format!(
            "       predicted perf at end: {:.0}ms",
            policy.predicted_perf(s)
        ));
    }
}
