//! The canonical simulated testbed every reproduction run shares: the
//! paper's system spec, the standard agent settings and lattice, and
//! the disk-cached offline policy libraries the line-ups are seeded
//! from.

use std::path::Path;

use simkernel::SimDuration;
use websim::SystemSpec;

use crate::agent::RacSettings;
use crate::cache;
use crate::context::{paper_contexts, PolicyLibrary, SystemContext};
use crate::param::ConfigLattice;
use crate::reward::SlaReward;
use crate::training::{build_policy_library, train_policy_for_context, TrainingOptions};

/// Lattice resolution used by all reproduction experiments.
pub const ONLINE_LEVELS: usize = 4;

/// SLA reference used by the reward function (ms).
pub const SLA_MS: f64 = 1_000.0;

/// The canonical simulated testbed: the paper's host (two quad-core
/// Xeons, 8 GB) with a client population heavy enough that configuration
/// genuinely matters.
pub fn paper_system_spec() -> SystemSpec {
    SystemSpec::default().with_clients(600).with_seed(42)
}

/// Standard agent hyper-parameters for the reproduction (paper values).
pub fn standard_settings() -> RacSettings {
    RacSettings {
        online_levels: ONLINE_LEVELS,
        sla_ms: SLA_MS,
        ..RacSettings::default()
    }
}

/// The standard online lattice.
pub fn standard_lattice() -> ConfigLattice {
    ConfigLattice::new(ONLINE_LEVELS)
}

/// Offline-training options used for the policy library.
pub fn standard_training_options() -> TrainingOptions {
    TrainingOptions {
        warmup: SimDuration::from_secs(600),
        measure: SimDuration::from_secs(240),
        ..TrainingOptions::default()
    }
}

/// Builds (or loads from `cache_dir`) the policy library for the six
/// Table-2 contexts. Offline training is the expensive step — the paper
/// reports "more than ten hours" of data collection — so the result is
/// cached on disk keyed by context.
pub fn standard_policy_library(cache_dir: &Path) -> PolicyLibrary {
    let lattice = standard_lattice();
    let spec = paper_system_spec();
    let reward = SlaReward::new(SLA_MS);
    let options = standard_training_options();
    let mut library = PolicyLibrary::new();
    for (i, context) in paper_contexts().iter().enumerate() {
        let key = format!("policy-ctx{}-L{}.bin", i + 1, ONLINE_LEVELS);
        let path = cache_dir.join(&key);
        let policy = match cache::load_policy(&path, &lattice) {
            Some(policy) => policy,
            None => {
                eprintln!(
                    "  [offline] training initial policy for context-{} ({context})",
                    i + 1
                );
                let policy = train_policy_for_context(&spec, *context, &lattice, reward, options);
                if let Err(e) = cache::store_policy(&path, &policy) {
                    eprintln!("  [offline] warning: could not cache policy: {e}");
                }
                policy
            }
        };
        library.insert(*context, policy);
    }
    library
}

/// Convenience: train the library fresh with cheap settings, for smoke
/// tests of the harness itself.
pub fn quick_policy_library(contexts: &[SystemContext]) -> PolicyLibrary {
    build_policy_library(
        &paper_system_spec().with_clients(80),
        contexts,
        &ConfigLattice::new(3),
        SlaReward::new(SLA_MS),
        quick_training_options(),
    )
}

/// A single-context library at the *standard* lattice with cheap
/// training, disk-cached like [`standard_policy_library`]. This is the
/// `racd --library quick` flavor: fast enough for the crash drill and
/// the CI daemon job (one short training pass, then cache hits), while
/// matching the lineup's `ONLINE_LEVELS` lattice so checkpoint
/// dimension checks pass. Deterministic: cached and freshly-trained
/// libraries are identical, so a relaunched daemon seeds the same
/// agent.
pub fn daemon_quick_library(cache_dir: &Path) -> PolicyLibrary {
    let lattice = standard_lattice();
    let context = paper_contexts()[0];
    let path = cache_dir.join(format!("policy-daemon-quick-L{ONLINE_LEVELS}.bin"));
    let mut library = PolicyLibrary::new();
    let policy = match cache::load_policy(&path, &lattice) {
        Some(policy) => policy,
        None => {
            let lib = build_policy_library(
                &paper_system_spec().with_clients(60),
                &[context],
                &lattice,
                SlaReward::new(SLA_MS),
                quick_training_options(),
            );
            let policy = lib.for_context(context).expect("trained context").clone();
            if let Err(e) = cache::store_policy(&path, &policy) {
                eprintln!("  [offline] warning: could not cache policy: {e}");
            }
            policy
        }
    };
    library.insert(context, policy);
    library
}

/// One-minute warm-up and measurement: the cheap training of the quick
/// libraries.
fn quick_training_options() -> TrainingOptions {
    TrainingOptions {
        warmup: SimDuration::from_secs(60),
        measure: SimDuration::from_secs(60),
        ..TrainingOptions::default()
    }
}
