//! On-disk cache for offline-trained initial policies.
//!
//! Offline training is the slow step of the pipeline, so the harness
//! caches each context's [`InitialPolicy`] in a small self-describing
//! binary file: the `RACPOL01` magic, the lattice shape, the fit
//! statistics, then the performance map and Q-table as `f32`s, all in
//! the little-endian [`ckpt::wire`] encoding.

use std::fs;
use std::io::{self, Write};
use std::path::Path;

use ckpt::wire::{Reader, Writer};
use ckpt::CkptError;
use numerics::FitQuality;
use rl::QTable;

use crate::action::Action;
use crate::init::InitialPolicy;
use crate::param::ConfigLattice;

const MAGIC: &[u8; 8] = b"RACPOL01";

/// Stores a policy at `path`, creating parent directories as needed.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn store_policy(path: &Path, policy: &InitialPolicy) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let values = policy.perf_ms.len() + policy.qtable.raw().len();
    let mut w = Writer::with_capacity(64 + 4 * values);
    w.put_u64(u64::from_le_bytes(*MAGIC));
    w.put_usize(policy.perf_ms.len());
    w.put_usize(policy.qtable.actions());
    w.put_f64(policy.fit.r_squared);
    w.put_f64(policy.fit.rmse);
    w.put_usize(policy.fit.samples);
    w.put_usize(policy.samples);
    w.put_usize(policy.passes);
    for &p in &policy.perf_ms {
        w.put_f32(p);
    }
    for &q in policy.qtable.raw() {
        w.put_f32(q);
    }
    let tmp = path.with_extension("tmp");
    fs::File::create(&tmp)?.write_all(&w.into_bytes())?;
    fs::rename(&tmp, path)
}

/// Loads a policy from `path` if it exists and matches the lattice;
/// returns `None` on a miss or any corruption (the caller retrains).
pub fn load_policy(path: &Path, lattice: &ConfigLattice) -> Option<InitialPolicy> {
    decode_policy_file(&fs::read(path).ok()?, lattice).ok()
}

fn decode_policy_file(bytes: &[u8], lattice: &ConfigLattice) -> Result<InitialPolicy, CkptError> {
    let mut r = Reader::new(bytes, "policy cache");
    let magic = r.get_u64()?;
    let states = r.get_usize()?;
    let actions = r.get_usize()?;
    if magic != u64::from_le_bytes(*MAGIC)
        || states != lattice.num_states()
        || actions != Action::COUNT
    {
        return Err(CkptError::Mismatch {
            detail: "not a policy for this lattice".to_string(),
        });
    }
    let fit = FitQuality {
        r_squared: r.get_f64()?,
        rmse: r.get_f64()?,
        samples: r.get_usize()?,
    };
    let samples = r.get_usize()?;
    let passes = r.get_usize()?;
    let mut perf_ms = Vec::with_capacity(states);
    for _ in 0..states {
        perf_ms.push(r.get_f32()?);
    }
    let mut values = Vec::with_capacity(states * actions);
    for _ in 0..states * actions {
        values.push(r.get_f32()?);
    }
    r.finish()?;
    Ok(InitialPolicy {
        qtable: QTable::from_raw(states, actions, values),
        perf_ms,
        fit,
        samples,
        passes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{train_initial_policy, OfflineSettings, SlaReward};

    fn tiny_policy(lattice: &ConfigLattice) -> InitialPolicy {
        train_initial_policy(
            lattice,
            SlaReward::new(1_000.0),
            OfflineSettings::default(),
            |c: &websim::ServerConfig| 100.0 + c.max_clients() as f64 * 0.3,
        )
        .unwrap()
    }

    #[test]
    fn round_trip() {
        let dir = std::env::temp_dir().join(format!("rac-cache-test-{}", std::process::id()));
        let path = dir.join("p.bin");
        let lattice = ConfigLattice::new(3);
        let policy = tiny_policy(&lattice);
        store_policy(&path, &policy).unwrap();
        let loaded = load_policy(&path, &lattice).expect("cache hit");
        assert_eq!(loaded.samples, policy.samples);
        assert_eq!(loaded.passes, policy.passes);
        assert_eq!(loaded.perf_ms, policy.perf_ms);
        for s in [0usize, 17, lattice.num_states() - 1] {
            for a in 0..Action::COUNT {
                assert!((loaded.qtable.get(s, a) - policy.qtable.get(s, a)).abs() < 1e-6);
            }
        }
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn lattice_mismatch_misses() {
        let dir = std::env::temp_dir().join(format!("rac-cache-test2-{}", std::process::id()));
        let path = dir.join("p.bin");
        let small = ConfigLattice::new(3);
        store_policy(&path, &tiny_policy(&small)).unwrap();
        let big = ConfigLattice::new(4);
        assert!(load_policy(&path, &big).is_none());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn missing_and_corrupt_files_miss() {
        let lattice = ConfigLattice::new(3);
        assert!(load_policy(Path::new("/nonexistent/rac.bin"), &lattice).is_none());
        let dir = std::env::temp_dir().join(format!("rac-cache-test3-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("junk.bin");
        fs::write(&path, b"not a policy").unwrap();
        assert!(load_policy(&path, &lattice).is_none());
        let _ = fs::remove_dir_all(dir);
    }
}
