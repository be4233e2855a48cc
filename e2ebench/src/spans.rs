//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around its calls into
//! each layer, kept in memory, and summarised once the run ends. A
//! span's *self time* is its duration minus the durations of its direct
//! children; summed per layer, self times tile the root span exactly,
//! so whatever the root keeps for itself is time no layer accounts for
//! (the ledger residual).
//! Spans timed apart from the stack (a forwarding wrapper's own
//! timestamps) are added afterwards with [`Spans::nest`].

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Rec {
    layer: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// Records spans against one clock, with a stack of open spans.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    recs: Vec<Rec>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder whose root span (`layer`) starts now.
    pub fn new(root: &'static str) -> Self {
        let mut s = Spans {
            origin: Instant::now(),
            recs: Vec::new(),
            open: Vec::new(),
        };
        s.enter(root);
        s
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a child span of the innermost open span.
    pub fn enter(&mut self, layer: &'static str) {
        let start = self.now();
        self.enter_at(layer, start);
    }

    /// Opens a child span whose start was taken earlier (seconds since
    /// the recorder's origin, see [`Spans::at`]).
    pub fn enter_at(&mut self, layer: &'static str, start: f64) {
        let parent = self.open.last().copied();
        self.recs.push(Rec {
            layer,
            start,
            end: f64::NAN,
            parent,
        });
        self.open.push(self.recs.len() - 1);
    }

    /// Closes the innermost open span now.
    pub fn exit(&mut self) {
        let end = self.now();
        self.exit_at(end);
    }

    /// Closes the innermost open span at an earlier-taken time.
    pub fn exit_at(&mut self, end: f64) {
        let i = self.open.pop().expect("exit without a matching enter");
        self.recs[i].end = end;
    }

    /// Seconds since the recorder's origin for an instant.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Records a closed span of `layer` over `[start, end]` under the
    /// innermost recorded span that contains it.
    pub fn nest(&mut self, layer: &'static str, start: f64, end: f64) {
        let parent = self
            .recs
            .iter()
            .enumerate()
            .filter(|(_, r)| r.start <= start && r.end >= end)
            .max_by(|a, b| a.1.start.total_cmp(&b.1.start))
            .map(|(i, _)| i);
        self.recs.push(Rec {
            layer,
            start,
            end,
            parent,
        });
    }

    /// Closes the root and returns the ledger.
    pub fn finish(mut self) -> Ledger {
        while !self.open.is_empty() {
            self.exit();
        }
        let dur = |r: &Rec| r.end - r.start;
        let mut self_s: Vec<f64> = self.recs.iter().map(dur).collect();
        for r in &self.recs {
            if let Some(p) = r.parent {
                self_s[p] -= dur(r);
            }
        }
        let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (i, r) in self.recs.iter().enumerate() {
            *layers.entry(r.layer).or_default() += self_s[i];
        }
        let root = &self.recs[0];
        let wall = dur(root);
        let residual = layers.remove(root.layer).unwrap_or(0.0);
        Ledger {
            wall,
            layers,
            residual,
        }
    }
}

/// Per-layer self time of one traced run.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// Wall time of the root span, seconds.
    pub wall: f64,
    /// Self time per layer, seconds (root excluded).
    pub layers: BTreeMap<&'static str, f64>,
    /// Root self time: wall time no layer accounts for, seconds.
    pub residual: f64,
}

impl Ledger {
    /// Self time of `layer`, seconds (0 when it never ran).
    pub fn self_s(&self, layer: &str) -> f64 {
        self.layers.get(layer).copied().unwrap_or(0.0)
    }

    /// `|wall − Σ layer self times| / wall`, percent.
    pub fn residual_pct(&self) -> f64 {
        let covered: f64 = self.layers.values().sum();
        crate::stats::Ratio::new((self.wall - covered).abs(), self.wall).pct()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_tile_the_root() {
        let mut s = Spans::new("root");
        s.enter_at("a", 1.0);
        s.enter_at("b", 2.0);
        s.exit_at(3.0);
        s.exit_at(5.0);
        s.enter_at("b", 5.0);
        s.exit_at(7.0);
        s.recs[0].start = 0.0;
        s.exit_at(8.0);
        s.nest("c", 5.5, 6.0);
        let l = s.finish();
        assert_eq!(l.wall, 8.0);
        assert_eq!(l.self_s("a"), 3.0);
        assert_eq!(l.self_s("b"), 2.5);
        assert_eq!(l.self_s("c"), 0.5);
        assert_eq!(l.residual, 2.0);
        assert!((l.residual_pct() - 25.0).abs() < 1e-12);
    }
}
