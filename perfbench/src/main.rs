//! End-to-end and per-layer benchmark of the postopc flow and its warm
//! timing service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fullchip-farm|serve-t6-script> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs in its own process from a single client in a
//! closed loop. The untraced run (`--trace 0`) prints the end-to-end
//! metrics; the traced run (`--trace 1`) records a span around every call
//! into the program and prints the per-layer metrics. Metric lines go to
//! standard output as `metric <name> <value> <unit> n=<samples>`, and
//! the last line is one JSON object with the gated metrics. See
//! `perfbench/NOTES.md` for the workloads and the metric table.

mod flow;
mod host;
mod serve;
mod stats;
mod trace;

use std::error::Error;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Longest the measured loop may run, whatever `--seconds` asks for, so
/// that a run always ends well inside three minutes.
const MAX_MEASURE_S: f64 = 120.0;

/// The run's command-line options.
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: usize,
}

/// The end-to-end metrics of `--trace 0`, with units: every workload
/// reports every one of them, and none is ever 0.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("flow_s", "s"),
    ("queries_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of `--trace 1`, with units. Times are listed
/// only for layers every workload calls; a layer only some workloads
/// call is given here by counts and ratios, which read 0 where the
/// workload does not call it, and its times are printed as extra lines.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.probe_ms", "ms"),
    ("layout.design_ms", "ms"),
    ("sta.model_ms", "ms"),
    ("sta.compile_ms", "ms"),
    ("sta.evaluate_ms", "ms"),
    ("tags.ms", "ms"),
    ("extract.share", "frac"),
    ("extract.windows", "count"),
    ("extract.cpu_per_wall", "ratio"),
    ("extract.opc_sims", "count"),
    ("extract.opc_sims_per_window", "ratio"),
    ("extract.cache_hit_rate", "frac"),
    ("extract.surrogate_hits", "count"),
    ("extract.surrogate_fallbacks", "count"),
    ("extract.surrogate_accept_rate", "frac"),
    ("wires.share", "frac"),
    ("wires.segments", "count"),
    ("wires.cpu_per_wall", "ratio"),
    ("wires.printed_frac", "frac"),
    ("sta.shift_cache_hit_rate", "frac"),
    ("session.eco_windows", "count"),
    ("session.eco_store_hits", "count"),
    ("artifact.bytes", "bytes"),
    ("trace.overhead_frac", "frac"),
    ("trace.coverage", "frac"),
];

/// `metrics` in the order and with the units of `list`; a metric the
/// workload did not report reads 0 from 0 samples.
fn complete(list: &[(&'static str, &'static str)], metrics: &[Metric]) -> Vec<Metric> {
    for m in metrics {
        debug_assert!(
            list.iter()
                .any(|(name, unit)| *name == m.name && *unit == m.unit),
            "metric {} {} is not in the list",
            m.name,
            m.unit
        );
    }
    list.iter()
        .map(|&(name, unit)| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| metric(name, 0.0, unit, 0))
        })
        .collect()
}

/// Writes the traced run's spans and metrics to
/// `.perfbench_out/<workload>-seed<n>.trace.json`.
pub fn write_trace(
    options: &Options,
    tr: &trace::Tracer,
    report: &Report,
) -> Result<(), postopc::FlowError> {
    let io = |e: std::io::Error| postopc::FlowError::InvalidConfig(format!("trace file: {e}"));
    let path = out_dir().map_err(io)?.join(format!(
        "{}-seed{}.trace.json",
        options.workload, options.seed
    ));
    let mut out = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"threads\": {}, \"metrics\": {{",
        options.workload, options.seed, options.threads
    );
    for (i, m) in report.per_layer.iter().chain(&report.extra).enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
            m.name,
            json_number(m.value),
            m.unit,
            m.samples
        );
    }
    let _ = writeln!(out, "}}, \"spans\": {}}}", tr.to_json());
    std::fs::write(&path, out).map_err(io)
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value is derived from.
    pub samples: usize,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload never called).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The mean wall time of the spans `totals` sums, in milliseconds.
pub fn mean_ms(name: &'static str, totals: &trace::Totals) -> Metric {
    metric(name, totals.mean_ms(), "ms", totals.calls)
}

/// What a workload reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: set-ups, requests (warm-up included) and
    /// the queries inside them.
    pub attempted: usize,
    /// Operations that returned an error or failed an output check.
    pub failed: usize,
    /// End-to-end metrics every workload reports (gated, `--trace 0`).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics every workload reports (`--trace 1`).
    pub per_layer: Vec<Metric>,
    /// Metrics only this workload has; printed, not gated.
    pub extra: Vec<Metric>,
}

impl Report {
    /// Counts a failed output check or operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }
}

/// The measured loop's clock: requests start until `seconds` have
/// passed, never fewer than `min_requests` of them. A request is not
/// started when it would likely end more than half a request past the
/// deadline, so long requests do not overrun the run by a whole request.
pub struct Budget {
    start: Instant,
    seconds: f64,
    min_requests: usize,
}

impl Budget {
    pub fn new(seconds: f64, min_requests: usize) -> Budget {
        Budget {
            start: Instant::now(),
            seconds: seconds.min(MAX_MEASURE_S),
            min_requests,
        }
    }

    /// Whether to start another request after `done` requests that took
    /// `typical_s` each (their median).
    pub fn more(&self, done: usize, typical_s: f64) -> bool {
        let elapsed = self.start.elapsed().as_secs_f64();
        if done < self.min_requests {
            return elapsed < MAX_MEASURE_S;
        }
        elapsed + typical_s / 2.0 < self.seconds
    }
}

/// Where runs leave their trace and artifact files (inside the checkout).
pub fn out_dir() -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(".perfbench_out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// A finite number as JSON, `null` otherwise.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

fn parse_args() -> Result<Options, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (expected 0 or 1)")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
        threads: host::WORKER_THREADS,
    })
}

fn run(options: &Options) -> Result<Report, Box<dyn Error>> {
    match options.workload.as_str() {
        "fullchip-farm" => Ok(flow::run(options)?),
        "serve-t6-script" => Ok(serve::run(options)?),
        other => Err(format!(
            "unknown workload {other} (expected fullchip-farm or serve-t6-script)"
        )
        .into()),
    }
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Worker counts come from the configurations alone.
    std::env::remove_var("POSTOPC_THREADS");
    let probe_start = host::probe_ms();
    let mut report = match run(&options) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", options.workload);
            return ExitCode::FAILURE;
        }
    };
    let probe_end = host::probe_ms();
    report.per_layer.insert(
        0,
        metric("host.probe_ms", (probe_start + probe_end) / 2.0, "ms", 2),
    );
    report
        .end_to_end
        .push(metric("peak_rss_mb", host::peak_rss_mb(), "MB", 1));
    report.end_to_end = complete(END_TO_END, &report.end_to_end);
    report.per_layer = complete(PER_LAYER, &report.per_layer);

    println!(
        "workload {} seed {} seconds {} trace {} threads {}",
        options.workload,
        options.seed,
        options.seconds,
        u8::from(options.trace),
        options.threads
    );
    println!("metric host.probe_start_ms {probe_start:.4} ms n=5");
    println!("metric host.probe_end_ms {probe_end:.4} ms n=5");
    let gated = if options.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    // An untraced run recorded no spans: of its per-layer metrics only
    // the host probe (listed first) was measured.
    let others = if options.trace {
        &report.end_to_end[..]
    } else {
        &report.per_layer[..1]
    };
    for m in gated.iter().chain(others).chain(&report.extra) {
        println!(
            "metric {} {} {} n={}",
            m.name,
            json_number(m.value),
            m.unit,
            m.samples
        );
    }
    println!(
        "metric failed_ops {} count n={}",
        report.failed, report.attempted
    );
    let mut failed = report.failed;
    for m in gated {
        if !m.value.is_finite() {
            eprintln!("perfbench: metric {} is not finite", m.name);
            failed += 1;
        }
    }

    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        failed == 0,
        report.attempted.max(1),
        failed
    );
    for (i, m) in gated.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
