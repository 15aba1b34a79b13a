//! Experiment harness: one module per paper table/figure.
//!
//! Each module computes a structured result and renders the same rows or
//! series the paper reports. Binaries under `src/bin/` wrap these with a
//! `--scale` flag; the measured deck → gradients benchmark is `benchmark/`.
//!
//! Absolute numbers differ from the paper (its testbed is a 128-core EPYC
//! with proprietary 10⁵–10⁶-element netlists; see `DESIGN.md` §5) — the
//! reproduced quantities are the *ratios and orderings* each table/figure
//! exists to demonstrate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod fig1;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod table1;
pub mod table2;
pub mod table3;

/// Parses a `--scale <f64>` / `--scale=<f64>` argument (default `default`).
pub fn parse_scale(args: &[String], default: f64) -> f64 {
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if let Some(v) = arg.strip_prefix("--scale=") {
            return v.parse().unwrap_or(default);
        }
        if arg == "--scale" {
            if let Some(v) = iter.next() {
                return v.parse().unwrap_or(default);
            }
        }
    }
    default
}

/// Renders a table: header row + aligned data rows.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |cells: &[String], widths: &[usize], out: &mut String| {
        for (cell, w) in cells.iter().zip(widths) {
            out.push_str(&format!("{cell:>w$}  ", w = w));
        }
        out.push('\n');
    };
    line(
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &widths,
        &mut out,
    );
    let total: usize = widths.iter().sum::<usize>() + widths.len() * 2;
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        line(row, &widths, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        let args = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_scale(&args(&["--scale", "0.5"]), 1.0), 0.5);
        assert_eq!(parse_scale(&args(&["--scale=2.5"]), 1.0), 2.5);
        assert_eq!(parse_scale(&args(&[]), 0.7), 0.7);
        assert_eq!(parse_scale(&args(&["--scale", "zzz"]), 0.3), 0.3);
    }

    #[test]
    fn table_rendering_aligns() {
        let table = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "2.34".into()],
            ],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].contains("2.34"));
    }
}
