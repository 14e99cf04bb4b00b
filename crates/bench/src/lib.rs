//! The experiment harness: workload definitions and experiment runners
//! for every table and figure in `EXPERIMENTS.md`, and for the thread,
//! tracing and lint-cost series `DESIGN.md` cites.
//!
//! Each `run_*` function returns structured rows so that the `tables`
//! binary can print them and the tests can pin their non-time columns
//! and assert the *shape* of each result (who wins, by roughly what
//! factor) without parsing text.

#![warn(missing_docs)]

pub mod experiments;
pub mod workloads;

pub use workloads::{adder_scaling_pairs, suite, Pair};

/// Renders rows of `(label, columns…)` as an aligned text table.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i >= widths.len() {
                widths.push(cell.len());
            } else {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            let w = widths.get(i).copied().unwrap_or(cell.len());
            if i == 0 {
                line.push_str(&format!("{cell:<w$}"));
            } else {
                line.push_str(&format!("{cell:>w$}"));
            }
        }
        line.push('\n');
        line
    };
    let header_cells: Vec<String> = header.iter().map(ToString::to_string).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns_columns() {
        let t = render_table(
            &["name", "x"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "100".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].ends_with("100"));
    }
}
