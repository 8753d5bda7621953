//! Table printing and CSV output for the figure binaries.
//!
//! Every binary prints the series the corresponding paper figure plots (one
//! row per (dataset, method, ε) point) and writes the same rows as CSV under
//! `target/experiments/` so EXPERIMENTS.md can reference stable artifacts.

use crate::harness::MethodRun;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Formats one run the way the figures label points: a time in milliseconds,
/// or the exclusion reason.
fn cell(run: &MethodRun) -> String {
    if let Some(reason) = &run.excluded {
        let short = if reason.contains("memory") {
            "OOM"
        } else if reason.contains("not an edge") {
            "n/a"
        } else {
            "excluded"
        };
        return short.to_string();
    }
    if run.queries_completed == 0 {
        return ">budget".to_string();
    }
    let mut s = format!("{:.3}", run.avg_time_ms);
    if run.timed_out {
        s.push('*');
    }
    s
}

/// Prints a figure-style table: one row per (dataset, method), one column per
/// ε, cell = average query time in ms (`*` marks a partially completed sweep,
/// `OOM`/`>budget` mark exclusions).
pub fn print_table(title: &str, runs: &[MethodRun]) {
    if runs.is_empty() {
        println!("\n== {title} ==");
        println!("(no data)");
        return;
    }
    print_grid(title, runs, cell);
}

/// Prints the same table but with average absolute error in the cells
/// (Fig. 6 / Fig. 7 style).
pub fn print_error_table(title: &str, runs: &[MethodRun]) {
    print_grid(title, runs, |run| match run.avg_abs_error {
        Some(err) if run.excluded.is_none() => format!("{err:.5}"),
        _ => cell(run),
    });
}

/// The shared layout of both tables: ε columns in descending order, one row
/// per (dataset, method) in run order, `-` where a point is missing.
fn print_grid(title: &str, runs: &[MethodRun], format_cell: impl Fn(&MethodRun) -> String) {
    println!("\n== {title} ==");
    let mut epsilons: Vec<f64> = runs.iter().map(|r| r.epsilon).collect();
    epsilons.sort_by(|a, b| b.partial_cmp(a).unwrap());
    epsilons.dedup();
    let mut keys: Vec<(String, String)> = runs
        .iter()
        .map(|r| (r.dataset.clone(), r.method.clone()))
        .collect();
    keys.dedup();

    print!("{:<22} {:<10}", "dataset", "method");
    for eps in &epsilons {
        print!(" {:>12}", format!("eps={eps}"));
    }
    println!();
    for (dataset, method) in keys {
        print!("{dataset:<22} {method:<10}");
        for eps in &epsilons {
            let found = runs.iter().find(|r| {
                r.dataset == dataset && r.method == method && (r.epsilon - eps).abs() < 1e-12
            });
            print!(
                " {:>12}",
                found.map_or_else(|| "-".to_string(), &format_cell)
            );
        }
        println!();
    }
}

/// Directory all experiment CSVs are written to.
pub fn experiments_dir() -> PathBuf {
    Path::new("target").join("experiments")
}

/// Writes runs as a CSV file under `target/experiments/<name>.csv` and returns
/// the path. The format is stable:
/// `dataset,workload,method,epsilon,queries_total,queries_completed,avg_time_ms,avg_abs_error,max_abs_error,timed_out,excluded`.
pub fn write_csv(name: &str, runs: &[MethodRun]) -> std::io::Result<PathBuf> {
    let dir = experiments_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(
        file,
        "dataset,workload,method,epsilon,queries_total,queries_completed,avg_time_ms,avg_abs_error,max_abs_error,timed_out,excluded"
    )?;
    for run in runs {
        writeln!(
            file,
            "{},{},{},{},{},{},{:.6},{},{},{},{}",
            run.dataset,
            run.workload,
            run.method,
            run.epsilon,
            run.queries_total,
            run.queries_completed,
            run.avg_time_ms,
            run.avg_abs_error
                .map_or(String::new(), |e| format!("{e:.8}")),
            run.max_abs_error
                .map_or(String::new(), |e| format!("{e:.8}")),
            run.timed_out,
            run.excluded
                .as_deref()
                .unwrap_or("")
                .replace(',', ";")
                .replace('\n', " "),
        )?;
    }
    file.flush()?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_run(method: &str, eps: f64, err: Option<f64>, excluded: Option<&str>) -> MethodRun {
        MethodRun {
            method: method.to_string(),
            dataset: "test-ds".to_string(),
            workload: "random".to_string(),
            epsilon: eps,
            queries_total: 10,
            queries_completed: if excluded.is_some() { 0 } else { 10 },
            avg_time_ms: 1.25,
            avg_abs_error: err,
            max_abs_error: err,
            timed_out: false,
            excluded: excluded.map(|s| s.to_string()),
        }
    }

    #[test]
    fn cell_formats_exclusions() {
        assert_eq!(
            cell(&sample_run(
                "RP",
                0.1,
                None,
                Some("memory budget exceeded: x")
            )),
            "OOM"
        );
        assert_eq!(cell(&sample_run("GEER", 0.1, Some(0.01), None)), "1.250");
        let mut never_finished = sample_run("TP", 0.1, None, None);
        never_finished.queries_completed = 0;
        assert_eq!(cell(&never_finished), ">budget");
    }

    #[test]
    fn csv_roundtrip_has_expected_rows() {
        let runs = vec![
            sample_run("GEER", 0.5, Some(0.02), None),
            sample_run("RP", 0.5, None, Some("memory, exceeded")),
        ];
        let path = write_csv("unit_test_report", &runs).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 rows");
        assert!(lines[0].starts_with("dataset,workload,method"));
        assert!(lines[1].contains("GEER"));
        assert!(
            lines[2].contains("memory; exceeded"),
            "commas are sanitised"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn tables_print_without_panicking() {
        let runs = vec![
            sample_run("GEER", 0.5, Some(0.02), None),
            sample_run("GEER", 0.1, Some(0.01), None),
            sample_run("EXACT", 0.5, Some(0.0), Some("memory")),
        ];
        print_table("unit test", &runs);
        print_error_table("unit test errors", &runs);
        print_table("empty", &[]);
    }
}
