//! Paper-style plain-text table rendering.
//!
//! Table III highlights the best result per data set in **boldface** and the
//! second best with an underline; in terminal output we mark them `*best*`
//! and `_second_`.

use crate::MethodSummary;

/// Renders one Table III row: per-method `mean±std` cells with best /
/// second-best markers.
pub fn table3_row(dataset: &str, cells: &[(f64, f64)]) -> String {
    let (best, second) = best_two(&cells.iter().map(|c| c.0).collect::<Vec<_>>());
    let rendered: Vec<String> = cells
        .iter()
        .enumerate()
        .map(|(i, &(mean, std))| {
            let body = format!("{mean:.3}±{std:.2}");
            if Some(i) == best {
                format!("*{body}*")
            } else if Some(i) == second {
                format!("_{body}_")
            } else {
                format!(" {body} ")
            }
        })
        .collect();
    format!("{dataset:<5} {}", rendered.join(" "))
}

/// Indices of the best and second-best values (higher is better);
/// `None` entries when fewer than one/two values exist.
pub fn best_two(values: &[f64]) -> (Option<usize>, Option<usize>) {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[b].partial_cmp(&values[a]).expect("scores are finite"));
    (order.first().copied(), order.get(1).copied())
}

/// Renders a simple aligned header line.
pub fn header(first: &str, names: &[&str]) -> String {
    let cells: Vec<String> = names.iter().map(|n| format!("{n:^12}")).collect();
    format!("{first:<5} {}", cells.join(" "))
}

/// The paper's "judged as failed" prose for one (method, data set) cell:
/// `None` when every run delivered `k*` clusters.
pub fn failure_note(method: &str, dataset: &str, summary: &MethodSummary) -> Option<String> {
    (summary.failures > 0).then(|| {
        format!(
            "note: {method} failed to form k* clusters on {dataset} in {}/{} runs",
            summary.failures, summary.runs
        )
    })
}

/// Renders a horizontal bar for terminal "figures" (Fig. 4 / Fig. 5 style):
/// `width`-character bar proportional to `value` within `[lo, hi]`.
pub fn bar(value: f64, lo: f64, hi: f64, width: usize) -> String {
    let span = (hi - lo).max(f64::EPSILON);
    let filled = (((value - lo) / span).clamp(0.0, 1.0) * width as f64).round() as usize;
    let mut s = String::with_capacity(width);
    for i in 0..width {
        s.push(if i < filled { '#' } else { '.' });
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scores;

    #[test]
    fn best_two_orders_descending() {
        let (best, second) = best_two(&[0.1, 0.9, 0.5]);
        assert_eq!(best, Some(1));
        assert_eq!(second, Some(2));
    }

    #[test]
    fn best_two_handles_short_inputs() {
        assert_eq!(best_two(&[]), (None, None));
        assert_eq!(best_two(&[1.0]), (Some(0), None));
    }

    #[test]
    fn row_marks_best_and_second() {
        let row = table3_row("Tic.", &[(0.5, 0.0), (0.7, 0.01), (0.6, 0.0)]);
        assert!(row.contains("*0.700±0.01*"), "{row}");
        assert!(row.contains("_0.600±0.00_"), "{row}");
    }

    #[test]
    fn failure_note_names_failed_runs_only() {
        let summary = |failures| MethodSummary {
            mean: Scores::default(),
            std: Scores::default(),
            failures,
            runs: 10,
        };
        assert_eq!(
            failure_note("ROCK", "Mus.", &summary(3)).as_deref(),
            Some("note: ROCK failed to form k* clusters on Mus. in 3/10 runs")
        );
        assert_eq!(failure_note("MCDC+F.", "Vot.", &summary(0)), None);
    }

    #[test]
    fn bar_scales_to_width() {
        assert_eq!(bar(1.0, 0.0, 1.0, 4), "####");
        assert_eq!(bar(0.0, 0.0, 1.0, 4), "....");
        assert_eq!(bar(0.5, 0.0, 1.0, 4), "##..");
    }
}
