//! Machine-readable benchmark artifacts.
//!
//! The perf trajectory across PRs needs numbers that tooling can diff, not
//! just human tables. This module renders the engine-comparison results
//! (experiment T9 and the `flow_scaling` bench) as a small, stable JSON
//! document — `BENCH_extract.json` — written next to the working directory
//! of the run. No external JSON dependency exists in the workspace (the
//! build is offline), so the writer is hand-rolled for exactly this schema.

use std::io::Write;
use std::path::Path;

/// Schema identifier stamped into every document so future PRs can evolve
/// the format without breaking diff tooling silently. v2 adds the learned
/// CD surrogate counters (`surrogate_hits` / `surrogate_fallbacks`) of
/// each run to every row (0 for the pre-surrogate engines).
pub const ENGINE_BENCH_SCHEMA: &str = "postopc-bench-extract-v2";

/// One engine-comparison measurement: a (design, engine) cell of the T9
/// engine table.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineBenchRow {
    /// Workload name (e.g. `shuffled farm 20x24`).
    pub design: String,
    /// Engine configuration (e.g. `context cache`).
    pub engine: String,
    /// Simulation windows imaged (one per distinct litho context).
    pub windows: usize,
    /// Gates served from the context cache.
    pub hits: usize,
    /// Cache hit rate in `[0, 1]`.
    pub hit_rate: f64,
    /// Unique contexts served by the learned CD surrogate without
    /// simulation (0 for engines that do not enable it).
    pub surrogate_hits: usize,
    /// Unique contexts the surrogate declined (warm-up, leverage-gate
    /// rejection, audit or implausible prediction) that simulated instead.
    pub surrogate_fallbacks: usize,
    /// Wall-clock seconds of the extraction run.
    pub wall_s: f64,
    /// Speedup versus the baseline engine on the same design.
    pub speedup: f64,
}

/// Schema identifier of the STA engine-comparison document
/// (`BENCH_sta.json`): naive per-sample `analyze` vs the batched engine
/// on the same Monte Carlo workload. v2 adds the shift-cache
/// hit/miss counters of each run; v3 adds the `accuracy` section — the
/// sampling-scheme convergence errors ([`StaAccuracyRow`]) behind the
/// tail-targeted importance-sampling floors of the perf regression gate.
pub const STA_BENCH_SCHEMA: &str = "postopc-bench-sta-v3";

/// One STA engine measurement: a (design, engine, samples) cell of the
/// Monte Carlo scaling table.
#[derive(Debug, Clone, PartialEq)]
pub struct StaBenchRow {
    /// Workload name (e.g. `T6 composite 70%`).
    pub design: String,
    /// Engine configuration (`naive analyze` or `batched`).
    pub engine: String,
    /// Monte Carlo sample count.
    pub samples: usize,
    /// Wall-clock seconds of the run.
    pub wall_s: f64,
    /// Speedup versus the naive engine at the same sample count.
    pub speedup: f64,
    /// Whether `worst_slacks_ps` matched the naive engine bit for bit.
    pub identical: bool,
    /// Shift-table lookups of the run (all served by the prewarmed shared
    /// table; 0 for the naive engine, which has no shift table).
    pub shift_hits: u64,
    /// Shift-table misses of the run (the batched engine prewarms every
    /// drawn bin, so it records 0).
    pub shift_misses: u64,
}

/// One sampling-accuracy measurement of the `accuracy` section (schema
/// v3): the worst-slack estimation errors of a `(sampling, samples)`
/// point against a high-sample plain reference, averaged over fixed
/// seeds (`postopc_sta::statistical::convergence_study`). The study is
/// deterministic and thread-invariant, so the recorded values
/// regenerate bit-identically on any machine — the regression gate
/// compares them with headroom only to survive intentional estimator
/// changes.
#[derive(Debug, Clone, PartialEq)]
pub struct StaAccuracyRow {
    /// Workload name (e.g. `T6 composite 70%`).
    pub design: String,
    /// Sampling scheme label (`plain`, `antithetic`, `tail-is`).
    pub sampling: String,
    /// Monte Carlo samples per run.
    pub samples: usize,
    /// Mean absolute 1%-quantile worst-slack error vs the reference, ps.
    pub q01_abs_err_ps: f64,
    /// Mean absolute 0.1%-quantile worst-slack error vs the reference,
    /// ps — the deep-tail statistic tail-IS targets.
    pub q001_abs_err_ps: f64,
    /// Mean absolute mean-worst-slack error vs the reference, ps.
    pub mean_abs_err_ps: f64,
}

/// Schema identifier of the warm-service document (`BENCH_serve.json`):
/// cold full-pipeline bring-up vs repeat queries against a warm
/// [`postopc::TimingSession`].
pub const SERVE_BENCH_SCHEMA: &str = "postopc-bench-serve-v1";

/// One warm-service measurement: a (design, engine) cell of the serve
/// table. `engine` is `"warm session"` for the gated rows; the speedup
/// is cold wall time over warm wall time for the same query batch.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeBenchRow {
    /// Workload name (e.g. `T6 composite 70%`).
    pub design: String,
    /// Serving configuration (`cold pipeline` or `warm session`).
    pub engine: String,
    /// Queries answered per measured batch.
    pub queries: usize,
    /// Wall-clock seconds to answer the batch.
    pub wall_s: f64,
    /// Speedup versus the cold full pipeline on the same batch.
    pub speedup: f64,
    /// Whether the warm answers matched the cold answers bit for bit.
    pub identical: bool,
}

/// Escapes a string for a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a finite JSON number (non-finite values — impossible for sane
/// measurements — degrade to 0 rather than emitting invalid JSON).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Renders the engine-comparison document.
pub fn render_engine_rows(threads: usize, rows: &[EngineBenchRow]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{ENGINE_BENCH_SCHEMA}\",\n"));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"design\": \"{}\", \"engine\": \"{}\", \"windows\": {}, \"hits\": {}, \
             \"hit_rate\": {}, \"surrogate_hits\": {}, \"surrogate_fallbacks\": {}, \
             \"wall_s\": {}, \"speedup\": {}}}{}\n",
            escape(&row.design),
            escape(&row.engine),
            row.windows,
            row.hits,
            number(row.hit_rate),
            row.surrogate_hits,
            row.surrogate_fallbacks,
            number(row.wall_s),
            number(row.speedup),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes the engine-comparison document to `path`.
///
/// # Errors
///
/// Propagates filesystem errors (callers report and continue — a missing
/// artifact must not fail the benchmark itself).
pub fn write_engine_rows(
    path: &Path,
    threads: usize,
    rows: &[EngineBenchRow],
) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(render_engine_rows(threads, rows).as_bytes())
}

/// Renders the STA engine-comparison document: the timing `rows` plus
/// the schema-v3 `accuracy` section (pass `&[]` to omit the study).
pub fn render_sta_rows(
    threads: usize,
    rows: &[StaBenchRow],
    accuracy: &[StaAccuracyRow],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{STA_BENCH_SCHEMA}\",\n"));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"design\": \"{}\", \"engine\": \"{}\", \"samples\": {}, \"wall_s\": {}, \
             \"speedup\": {}, \"identical\": {}, \"shift_hits\": {}, \"shift_misses\": {}}}{}\n",
            escape(&row.design),
            escape(&row.engine),
            row.samples,
            number(row.wall_s),
            number(row.speedup),
            row.identical,
            row.shift_hits,
            row.shift_misses,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"accuracy\": [\n");
    for (i, row) in accuracy.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"design\": \"{}\", \"sampling\": \"{}\", \"samples\": {}, \
             \"q01_abs_err_ps\": {}, \"q001_abs_err_ps\": {}, \"mean_abs_err_ps\": {}}}{}\n",
            escape(&row.design),
            escape(&row.sampling),
            row.samples,
            number(row.q01_abs_err_ps),
            number(row.q001_abs_err_ps),
            number(row.mean_abs_err_ps),
            if i + 1 < accuracy.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes the STA engine-comparison document to `path`.
///
/// # Errors
///
/// Propagates filesystem errors (callers report and continue — a missing
/// artifact must not fail the benchmark itself).
pub fn write_sta_rows(
    path: &Path,
    threads: usize,
    rows: &[StaBenchRow],
    accuracy: &[StaAccuracyRow],
) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(render_sta_rows(threads, rows, accuracy).as_bytes())
}

/// Renders the warm-service document.
pub fn render_serve_rows(threads: usize, rows: &[ServeBenchRow]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{SERVE_BENCH_SCHEMA}\",\n"));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"design\": \"{}\", \"engine\": \"{}\", \"queries\": {}, \"wall_s\": {}, \
             \"speedup\": {}, \"identical\": {}}}{}\n",
            escape(&row.design),
            escape(&row.engine),
            row.queries,
            number(row.wall_s),
            number(row.speedup),
            row.identical,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes the warm-service document to `path`.
///
/// # Errors
///
/// Propagates filesystem errors (callers report and continue — a missing
/// artifact must not fail the benchmark itself).
pub fn write_serve_rows(
    path: &Path,
    threads: usize,
    rows: &[ServeBenchRow],
) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(render_serve_rows(threads, rows).as_bytes())
}

/// One recorded measurement read back from a committed `BENCH_*.json`
/// artifact — the fields the regression gate compares against.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedSpeedup {
    /// Workload name (`design` field of the row).
    pub design: String,
    /// Engine configuration (`engine` field of the row).
    pub engine: String,
    /// Monte Carlo sample count, for STA rows (`None` for extraction rows).
    pub samples: Option<usize>,
    /// Speedup versus the baseline engine recorded for the row.
    pub speedup: f64,
}

/// Extracts a string field's value from a single rendered row line,
/// undoing the escapes [`escape`] applies.
fn str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let mut out = String::new();
    let mut escaped = false;
    for c in line[start..].chars() {
        if escaped {
            out.push(match c {
                'n' => '\n',
                't' => '\t',
                'r' => '\r',
                other => other,
            });
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else if c == '"' {
            return Some(out);
        } else {
            out.push(c);
        }
    }
    None
}

/// Extracts a numeric field's value from a single rendered row line.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Reads the per-row speedups back out of a document this module rendered
/// (either schema). This is the inverse of the hand-rolled writers above,
/// bound to their one-row-per-line layout — deliberately not a general
/// JSON parser, for the same offline-build reason the writers exist.
/// Lines that are not rows (schema header, brackets) are skipped; a row
/// missing any required field is skipped too, so the caller can treat
/// "row not found" uniformly.
pub fn parse_speedups(doc: &str) -> Vec<RecordedSpeedup> {
    doc.lines()
        .filter_map(|line| {
            Some(RecordedSpeedup {
                design: str_field(line, "design")?,
                engine: str_field(line, "engine")?,
                samples: num_field(line, "samples").map(|s| s as usize),
                speedup: num_field(line, "speedup")?,
            })
        })
        .collect()
}

/// Reads the sampling-accuracy rows back out of a schema-v3 STA
/// document. Same line-oriented contract as [`parse_speedups`]: rows of
/// the `accuracy` section carry a `sampling` string field that timing
/// rows lack, so the two sections never shadow each other, and a line
/// missing any required field is skipped.
pub fn parse_accuracy(doc: &str) -> Vec<StaAccuracyRow> {
    doc.lines()
        .filter_map(|line| {
            Some(StaAccuracyRow {
                design: str_field(line, "design")?,
                sampling: str_field(line, "sampling")?,
                samples: num_field(line, "samples")? as usize,
                q01_abs_err_ps: num_field(line, "q01_abs_err_ps")?,
                q001_abs_err_ps: num_field(line, "q001_abs_err_ps")?,
                mean_abs_err_ps: num_field(line, "mean_abs_err_ps")?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> EngineBenchRow {
        EngineBenchRow {
            design: "uniform inv farm 240".to_string(),
            engine: "context cache".to_string(),
            windows: 16,
            hits: 224,
            hit_rate: 0.9333333333333333,
            surrogate_hits: 42,
            surrogate_fallbacks: 7,
            wall_s: 0.99,
            speedup: 15.5,
        }
    }

    #[test]
    fn renders_stable_schema() {
        let doc = render_engine_rows(1, &[row()]);
        assert!(doc.contains("\"schema\": \"postopc-bench-extract-v2\""));
        assert!(doc.contains("\"threads\": 1"));
        assert!(doc.contains("\"design\": \"uniform inv farm 240\""));
        assert!(doc.contains("\"windows\": 16"));
        assert!(doc.contains("\"surrogate_hits\": 42"));
        assert!(doc.contains("\"surrogate_fallbacks\": 7"));
        assert!(doc.contains("\"wall_s\": 0.99"));
        // Exactly one row: no trailing comma.
        assert!(!doc.contains("}},\n  ]"));
    }

    #[test]
    fn escapes_strings_and_guards_numbers() {
        let mut r = row();
        r.design = "evil \"name\"\\with\nnewline".to_string();
        r.speedup = f64::INFINITY;
        let doc = render_engine_rows(2, &[r]);
        assert!(doc.contains("evil \\\"name\\\"\\\\with\\nnewline"));
        assert!(doc.contains("\"speedup\": 0"));
    }

    #[test]
    fn multiple_rows_are_comma_separated() {
        let doc = render_engine_rows(4, &[row(), row(), row()]);
        assert_eq!(doc.matches("\"design\"").count(), 3);
        assert_eq!(doc.matches("},\n").count(), 2);
    }

    fn sta_row() -> StaBenchRow {
        StaBenchRow {
            design: "T6 composite 70%".to_string(),
            engine: "batched".to_string(),
            samples: 2000,
            wall_s: 1.25,
            speedup: 8.0,
            identical: true,
            shift_hits: 123_456,
            shift_misses: 789,
        }
    }

    fn accuracy_row() -> StaAccuracyRow {
        StaAccuracyRow {
            design: "T6 composite 70%".to_string(),
            sampling: "tail-is".to_string(),
            samples: 500,
            q01_abs_err_ps: 1.298,
            q001_abs_err_ps: 1.656,
            mean_abs_err_ps: 1.9826,
        }
    }

    #[test]
    fn renders_sta_schema() {
        let doc = render_sta_rows(1, &[sta_row()], &[accuracy_row()]);
        assert!(doc.contains("\"schema\": \"postopc-bench-sta-v3\""));
        assert!(doc.contains("\"samples\": 2000"));
        assert!(doc.contains("\"identical\": true"));
        assert!(doc.contains("\"speedup\": 8"));
        assert!(doc.contains("\"shift_hits\": 123456"));
        assert!(doc.contains("\"shift_misses\": 789"));
        assert!(doc.contains("\"accuracy\": ["));
        assert!(doc.contains("\"sampling\": \"tail-is\""));
        assert!(doc.contains("\"q01_abs_err_ps\": 1.298"));
        assert!(doc.contains("\"q001_abs_err_ps\": 1.656"));
        assert!(!doc.contains("}},\n  ]"));
    }

    #[test]
    fn writes_sta_rows_to_disk() {
        let dir = std::env::temp_dir().join("postopc_json_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("BENCH_sta.json");
        write_sta_rows(&path, 1, &[sta_row()], &[accuracy_row()]).expect("write");
        let read = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(read, render_sta_rows(1, &[sta_row()], &[accuracy_row()]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn parse_round_trips_both_schemas() {
        let extract_doc = render_engine_rows(1, &[row(), row()]);
        let parsed = parse_speedups(&extract_doc);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].design, "uniform inv farm 240");
        assert_eq!(parsed[0].engine, "context cache");
        assert_eq!(parsed[0].samples, None);
        assert_eq!(parsed[0].speedup, 15.5);
        let sta_doc = render_sta_rows(1, &[sta_row()], &[accuracy_row()]);
        let parsed = parse_speedups(&sta_doc);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].samples, Some(2000));
        assert_eq!(parsed[0].speedup, 8.0);
    }

    #[test]
    fn parse_accuracy_round_trips_and_ignores_timing_rows() {
        let doc = render_sta_rows(1, &[sta_row()], &[accuracy_row(), accuracy_row()]);
        let parsed = parse_accuracy(&doc);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0], accuracy_row());
        // Timing rows carry no `sampling` field; an accuracy-free (or
        // pre-v3) document parses to an empty study.
        assert!(parse_accuracy(&render_sta_rows(1, &[sta_row()], &[])).is_empty());
        assert!(parse_accuracy("not json at all").is_empty());
    }

    #[test]
    fn parse_undoes_string_escapes_and_skips_partial_rows() {
        let mut r = row();
        r.design = "evil \"name\"\\with\nnewline".to_string();
        let doc = render_engine_rows(1, &[r.clone()]);
        let parsed = parse_speedups(&doc);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].design, r.design);
        // A line with a design but no speedup is not a row.
        assert!(parse_speedups("{\"design\": \"x\", \"engine\": \"y\"}").is_empty());
        assert!(parse_speedups("not json at all").is_empty());
    }

    fn serve_row() -> ServeBenchRow {
        ServeBenchRow {
            design: "T6 composite 70%".to_string(),
            engine: "warm session".to_string(),
            queries: 3,
            wall_s: 0.004,
            speedup: 120.0,
            identical: true,
        }
    }

    #[test]
    fn renders_serve_schema_and_parses_back() {
        let doc = render_serve_rows(1, &[serve_row()]);
        assert!(doc.contains("\"schema\": \"postopc-bench-serve-v1\""));
        assert!(doc.contains("\"queries\": 3"));
        assert!(doc.contains("\"identical\": true"));
        assert!(!doc.contains("}},\n  ]"));
        let parsed = parse_speedups(&doc);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].design, "T6 composite 70%");
        assert_eq!(parsed[0].engine, "warm session");
        assert_eq!(parsed[0].samples, None);
        assert_eq!(parsed[0].speedup, 120.0);
    }

    #[test]
    fn writes_serve_rows_to_disk() {
        let dir = std::env::temp_dir().join("postopc_json_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("BENCH_serve.json");
        write_serve_rows(&path, 1, &[serve_row()]).expect("write");
        let read = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(read, render_serve_rows(1, &[serve_row()]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn writes_to_disk() {
        let dir = std::env::temp_dir().join("postopc_json_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("BENCH_extract.json");
        write_engine_rows(&path, 1, &[row()]).expect("write");
        let read = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(read, render_engine_rows(1, &[row()]));
        let _ = std::fs::remove_file(&path);
    }
}
