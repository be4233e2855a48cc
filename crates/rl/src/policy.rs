//! Action selection.

use simkernel::Pcg64;

use crate::qtable::QTable;

/// ε-greedy selection: with probability ε pick a uniformly random
/// action (exploration), otherwise the greedy one (exploitation).
///
/// The paper uses ε = 0.1 for offline/batch training and ε = 0.05 for
/// online decisions (Section 5.5 shows 0.05 performs best online).
///
/// # Example
///
/// ```
/// use rl::policy::EpsilonGreedy;
/// use rl::QTable;
/// use simkernel::Pcg64;
///
/// let mut q = QTable::new(1, 3);
/// q.set(0, 2, 1.0);
/// let mut rng = Pcg64::seed_from_u64(1);
/// let greedy = EpsilonGreedy::new(0.0);
/// assert_eq!(greedy.choose(&q, 0, &mut rng), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpsilonGreedy {
    epsilon: f64,
}

impl EpsilonGreedy {
    /// Creates a policy with exploration rate `epsilon`.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is outside `[0, 1]`.
    pub fn new(epsilon: f64) -> Self {
        assert!((0.0..=1.0).contains(&epsilon), "epsilon must be in [0, 1]");
        EpsilonGreedy { epsilon }
    }

    /// Exploration rate.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Chooses an action for state `s`.
    pub fn choose(&self, q: &QTable, s: usize, rng: &mut Pcg64) -> usize {
        if self.epsilon > 0.0 && rng.chance(self.epsilon) {
            rng.below(q.actions() as u64) as usize
        } else {
            q.best_action(s)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> QTable {
        let mut q = QTable::new(2, 4);
        q.set(0, 1, 2.0);
        q.set(1, 3, 5.0);
        q
    }

    #[test]
    fn zero_epsilon_is_pure_greedy() {
        let q = table();
        let mut rng = Pcg64::seed_from_u64(3);
        let p = EpsilonGreedy::new(0.0);
        for _ in 0..100 {
            assert_eq!(p.choose(&q, 0, &mut rng), 1);
            assert_eq!(p.choose(&q, 1, &mut rng), 3);
        }
    }

    #[test]
    fn full_epsilon_is_uniform() {
        let q = table();
        let mut rng = Pcg64::seed_from_u64(4);
        let p = EpsilonGreedy::new(1.0);
        let mut counts = [0u32; 4];
        for _ in 0..40_000 {
            counts[p.choose(&q, 0, &mut rng)] += 1;
        }
        for c in counts {
            assert!((8_000..12_000).contains(&c), "count {c}");
        }
    }

    #[test]
    fn intermediate_epsilon_mostly_greedy() {
        let q = table();
        let mut rng = Pcg64::seed_from_u64(5);
        let p = EpsilonGreedy::new(0.1);
        let greedy = (0..10_000)
            .filter(|_| p.choose(&q, 0, &mut rng) == 1)
            .count();
        // 90% greedy + 2.5% random hits on action 1 ≈ 92.5%.
        assert!((9_000..9_600).contains(&greedy), "greedy picks {greedy}");
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn bad_epsilon_panics() {
        EpsilonGreedy::new(1.5);
    }
}
