//! ASCII series plots, plus the plain-text table and CSV renderer
//! (which lives in `rac`, next to the scenario table it renders).

use std::fmt::Write as _;

pub use rac::output::TextTable;

/// Renders one or more aligned series as a rough ASCII chart, so figure
/// shapes are visible directly in the terminal.
///
/// # Example
///
/// ```
/// use rac_bench::output::ascii_chart;
///
/// let chart = ascii_chart(
///     &[("flat", vec![1.0; 20]), ("ramp", (0..20).map(f64::from).collect())],
///     12,
/// );
/// assert!(chart.contains("ramp"));
/// ```
pub fn ascii_chart(series: &[(&str, Vec<f64>)], height: usize) -> String {
    let mut out = String::new();
    let finite: Vec<f64> = series
        .iter()
        .flat_map(|(_, v)| v.iter().copied())
        .filter(|x| x.is_finite())
        .collect();
    if finite.is_empty() {
        return "(no data)\n".to_string();
    }
    let max = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let span = (max - min).max(1e-9);
    let width = series.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
    let marks = ['*', 'o', '+', 'x', '#', '@'];

    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, values)) in series.iter().enumerate() {
        let mark = marks[si % marks.len()];
        for (x, v) in values.iter().enumerate() {
            if !v.is_finite() {
                continue;
            }
            let t = (v - min) / span;
            let y = ((1.0 - t) * (height - 1) as f64).round() as usize;
            grid[y.min(height - 1)][x] = mark;
        }
    }
    let _ = writeln!(out, "{max:>10.1} ┤");
    for row in grid {
        let _ = writeln!(out, "{:>10} │{}", "", row.iter().collect::<String>());
    }
    let _ = writeln!(out, "{min:>10.1} ┴{}", "─".repeat(width));
    for (si, (name, _)) in series.iter().enumerate() {
        let _ = writeln!(out, "{:>12} {} = {}", "", marks[si % marks.len()], name);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chart_handles_empty_and_infinite() {
        assert_eq!(ascii_chart(&[], 5), "(no data)\n");
        let c = ascii_chart(&[("s", vec![1.0, f64::INFINITY, 3.0])], 5);
        assert!(c.contains('*'));
    }

    #[test]
    fn chart_plots_extremes() {
        let c = ascii_chart(&[("s", vec![0.0, 10.0])], 5);
        assert!(c.contains("10.0"));
        assert!(c.contains("0.0"));
    }
}
