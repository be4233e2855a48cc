//! Shared infrastructure for the paper-reproduction harness.
//!
//! The `figures` binary (one subcommand per table/figure of the paper)
//! builds on the modules here. The canonical testbed, the policy cache
//! and the standard line-up live in `rac`, which the `racd` daemon runs
//! too; the re-exports below keep their old paths working for the
//! integration tests and the end-to-end benchmark.

pub mod chaos;
pub mod crashdrill;
pub mod fleet;
pub mod output;
pub mod perfsuite;
pub mod profile;
pub mod scenario;
pub mod tournament;

pub use rac::cache;
pub use rac::{
    paper_system_spec, standard_lattice, standard_policy_library, standard_settings,
    standard_training_options, ONLINE_LEVELS, SLA_MS,
};

/// Re-exports of the checkpointed line-up runner in [`rac::lineup`].
pub mod checkpoint {
    pub use rac::lineup::{
        run_tuners_checkpointed, run_tuners_checkpointed_with, CheckpointOptions, LineupCommand,
        LineupOutcome,
    };
}
