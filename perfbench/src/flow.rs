//! The cold-flow workload: full-chip extraction of a dense speed-path
//! farm with model OPC, the context cache, the CD surrogate and wire
//! extraction.
//!
//! A request is one cold flow. The benchmark makes the same calls as
//! `postopc::run_flow`, one at a time, so that the traced run can put a
//! span around each; the warm-up request checks that these staged calls
//! give exactly what `run_flow` gives.

use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{mean_ms, metric, ratio, Budget, Metric, Options, Report};
use postopc::{
    extract_gates, extract_wires, run_flow, ExtractionStats, FlowConfig, FlowError, OpcMode,
    Selection, SurrogateConfig, TagSet, TimingComparison, WireExtractionConfig,
    WireExtractionStats,
};
use postopc_device::ProcessParams;
use postopc_layout::{generate, Design, NetId, PlacementOptions, TechRules};
use postopc_litho::ProcessConditions;
use postopc_rng::{split_seed, unit_range_f64};
use postopc_sta::{CdAnnotation, TimingModel};
use std::time::Instant;

type Result<T> = std::result::Result<T, FlowError>;

/// Set-ups made at the start of a run and again after every measured
/// request; `setup_s` is the median of all of them. One set-up takes
/// milliseconds, so a run makes dozens, spread over the whole run.
const SETUP_CHUNK: usize = 24;

/// Measured flows per run at the least, whatever `--seconds` says.
const MIN_FLOWS: usize = 3;

/// Seed of the generated netlists and placements. The designs are
/// fixed and the run's seed varies the lot's process conditions instead:
/// between placement seeds the model-OPC flow's time varied by up to
/// 1.55x (which cells land on the top paths sets the window sizes), and
/// the spread across seeds would read that as noise.
pub const DESIGN_SEED: u64 = 11;

/// Paths tagged by the warm-up request, which makes the same calls with
/// rule OPC on a small selection, so that it costs a fraction of a
/// measured flow.
const WARMUP_PATHS: usize = 1;

/// `speed_path_farm(20, 24)` (480 gates) at utilization 1.0: abutted
/// chains, so contexts repeat (the context cache hits) and the novel
/// ones are many and alike (the surrogate predicts most of them).
fn farm_design() -> Result<Design> {
    Ok(Design::compile_with(
        generate::speed_path_farm(20, 24, DESIGN_SEED)?,
        TechRules::n90(),
        &PlacementOptions {
            utilization: 1.0,
            seed: DESIGN_SEED,
        },
    )?)
}

/// The lot's process conditions: best focus and an exposure dose drawn
/// from the run's seed within 1 ± 2%. Masks are still corrected at
/// nominal; only wafer imaging moves, so the extracted CDs differ
/// between seeds while the work per flow does not. (Defocus would widen
/// the imaging kernels and with them the work: seeded defocus within
/// ±30 nm moved a model-OPC flow's time by up to 30%.)
pub fn lot_conditions(seed: u64) -> ProcessConditions {
    ProcessConditions {
        focus_nm: 0.0,
        dose: unit_range_f64(split_seed(seed, 0), 0.98, 1.02),
    }
}

/// A clock 10% above the design's drawn critical delay.
pub fn clock_ps(design: &Design) -> Result<f64> {
    let probe = TimingModel::new(design, ProcessParams::n90(), 1_000_000.0)?;
    Ok(probe.analyze(None)?.critical_delay_ps() * 1.10)
}

/// Every gate, model OPC (the standard configuration), surrogate on,
/// wires on.
fn config(clock: f64, options: &Options) -> FlowConfig {
    let conditions = lot_conditions(options.seed);
    let mut cfg = FlowConfig::standard(clock);
    cfg.selection = Selection::All;
    cfg.extraction = cfg.extraction.with_conditions(conditions);
    cfg.extraction.threads = Some(options.threads);
    cfg.extraction.surrogate = SurrogateConfig::standard();
    let mut wires = WireExtractionConfig::standard();
    wires.sim = wires.sim.with_conditions(conditions);
    cfg.wires = Some(wires);
    cfg
}

/// FNV-1a over the annotation in gate and net order, every CD by its
/// exact bits: equal digests mean bit-identical annotations.
pub fn annotation_digest(annotation: &CdAnnotation) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut gates: Vec<_> = annotation.gates().collect();
    gates.sort_by_key(|(id, _)| **id);
    for (id, gate) in gates {
        eat(u64::from(id.0));
        for t in &gate.transistors {
            eat(t.width_nm.to_bits());
            eat(t.l_delay_nm.to_bits());
            eat(t.l_leakage_nm.to_bits());
            eat(t.finger as u64);
        }
    }
    let mut nets: Vec<_> = annotation.nets().collect();
    nets.sort_by_key(|(id, _)| **id);
    for (id, net) in nets {
        eat(u64::from(id.0));
        eat(net.printed_width_nm.to_bits());
    }
    hash
}

/// Everything one cold flow produces.
struct FlowOut<'d> {
    model: TimingModel<'d>,
    tags: TagSet,
    stats: ExtractionStats,
    wire_stats: Option<WireExtractionStats>,
    annotation: CdAnnotation,
    comparison: TimingComparison,
}

/// `run_flow`, one traced call at a time.
fn staged_flow<'d>(design: &'d Design, cfg: &FlowConfig, tr: &mut Tracer) -> Result<FlowOut<'d>> {
    let model = tr.call(
        "sta.model",
        || TimingModel::new(design, cfg.process.clone(), cfg.clock_ps),
        |_| vec![],
    )?;
    let compiled = tr.call("sta.compile", || model.compile(), |_| vec![])?;
    let mut scratch = compiled.scratch();
    let drawn = tr.call(
        "sta.evaluate",
        || compiled.evaluate(&mut scratch, None),
        |_| vec![],
    )?;
    let tags = tr.call(
        "tags",
        || {
            Ok::<_, FlowError>(match cfg.selection {
                Selection::All => TagSet::all(design),
                Selection::Critical { paths } => TagSet::from_critical_paths(design, &drawn, paths),
            })
        },
        |tags| vec![("gates", tags.len() as f64)],
    )?;
    let outcome = tr.call(
        "extract",
        || extract_gates(design, &cfg.extraction, &tags),
        |out| {
            let s = &out.stats;
            vec![
                ("gates", s.gates_extracted as f64),
                ("windows", s.windows as f64),
                ("opc_sims", s.opc_simulations as f64),
                ("cache_hits", s.cache_hits as f64),
                ("cache_misses", s.cache_misses as f64),
                ("surrogate_hits", s.surrogate_hits as f64),
                ("surrogate_fallbacks", s.surrogate_fallbacks as f64),
            ]
        },
    )?;
    let mut annotation = outcome.annotation;
    let wire_stats = match &cfg.wires {
        Some(wire_config) => {
            let mut nets: Vec<NetId> = Vec::new();
            for gate in tags.sorted() {
                let g = design.netlist().gate(gate);
                nets.push(g.output);
                nets.extend(g.inputs.iter().copied());
            }
            nets.sort_unstable();
            nets.dedup();
            Some(tr.call(
                "wires",
                || extract_wires(design, wire_config, &nets, &mut annotation),
                |s| {
                    vec![
                        ("nets", s.nets_annotated as f64),
                        ("segments", s.segments_measured as f64),
                        ("segments_failed", s.segments_failed as f64),
                    ]
                },
            )?)
        }
        None => None,
    };
    let comparison = tr.call(
        "compare",
        || {
            TimingComparison::compare_with(
                &compiled,
                &mut scratch,
                design,
                &annotation,
                cfg.report_paths,
            )
        },
        |_| vec![],
    )?;
    drop(compiled);
    Ok(FlowOut {
        model,
        tags,
        stats: outcome.stats,
        wire_stats,
        annotation,
        comparison,
    })
}

/// The warm-up request: the staged flow and `run_flow` on a small
/// selection of the same design, with rule OPC, must agree exactly.
fn warm_up(design: &Design, cfg: &FlowConfig, report: &mut Report) -> Result<()> {
    let mut small = cfg.clone();
    small.selection = Selection::Critical {
        paths: WARMUP_PATHS,
    };
    small.extraction.opc_mode = OpcMode::Rule;
    let staged = staged_flow(design, &small, &mut Tracer::new(false))?;
    let reference = run_flow(design, &small)?;
    report.check(
        staged.tags == reference.tags
            && staged.stats == reference.extraction
            && staged.wire_stats == reference.wire_stats
            && staged.annotation == reference.annotation
            && staged.comparison == reference.comparison,
        "staged flow differs from run_flow",
    );
    Ok(())
}

/// One chunk of set-ups: generate, place and route the design and pick
/// its clock, [`SETUP_CHUNK`] times. Returns the last design and clock.
fn set_up(tr: &mut Tracer, times: &mut Samples, report: &mut Report) -> Result<(Design, f64)> {
    let mut built = None;
    for _ in 0..SETUP_CHUNK {
        tr.begin("setup");
        let start = Instant::now();
        let design = tr.call("layout.design", farm_design, |d| {
            vec![("gates", d.netlist().gates().len() as f64)]
        })?;
        let clock = clock_ps(&design)?;
        times.push(start.elapsed().as_secs_f64());
        tr.end();
        report.attempted += 1;
        built = Some((design, clock));
    }
    let Some(built) = built else {
        unreachable!("SETUP_CHUNK is positive");
    };
    Ok(built)
}

pub fn run(options: &Options) -> Result<Report> {
    let mut report = Report::default();
    let mut tr = Tracer::new(options.trace);

    let mut setup = Samples::default();
    let (design, clock) = set_up(&mut tr, &mut setup, &mut report)?;
    let cfg = config(clock, options);

    tr.set_enabled(false);
    warm_up(&design, &cfg, &mut report)?;
    report.attempted += 2;

    let budget = Budget::new(options.seconds, MIN_FLOWS);
    let mut untraced = Samples::default();
    let mut traced = Samples::default();
    let mut all = Samples::default();
    let mut first_digest = None;
    let mut done = 0;
    while budget.more(done, all.median()) {
        // The traced run alternates untraced and traced requests, so
        // both halves see the same host conditions.
        let traced_request = options.trace && done % 2 == 1;
        tr.set_enabled(traced_request);
        tr.begin("flow");
        let start = Instant::now();
        let out = staged_flow(&design, &cfg, &mut tr);
        let wall = start.elapsed().as_secs_f64();
        tr.end();
        // More set-ups, outside the timed request, so that `setup_s`
        // samples the host over the same stretch of the run as `flow_s`.
        tr.set_enabled(options.trace);
        set_up(&mut tr, &mut setup, &mut report)?;
        tr.set_enabled(false);
        done += 1;
        report.attempted += 1;
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                report.check(false, &format!("flow: {e}"));
                continue;
            }
        };
        all.push(wall);
        if traced_request {
            traced.push(wall);
        } else {
            untraced.push(wall);
        }
        // Output checks, outside the timed region: the compiled result
        // equals the naive oracle, and every repetition extracts the
        // same annotation bit for bit.
        let oracle = out.model.analyze(Some(&out.annotation));
        report.check(
            oracle.as_ref().ok() == Some(&out.comparison.annotated),
            "annotated report differs from the naive oracle",
        );
        let digest = annotation_digest(&out.annotation);
        report.check(
            *first_digest.get_or_insert(digest) == digest,
            "annotation digest changed between repetitions",
        );
    }

    let flow_s = untraced.median();
    report.end_to_end = vec![
        metric("setup_s", setup.median(), "s", setup.len()),
        metric("flow_s", flow_s, "s", untraced.len()),
        metric(
            "queries_per_s",
            untraced.len() as f64 / untraced.sum(),
            "1/s",
            untraced.len(),
        ),
    ];
    if options.trace {
        (report.per_layer, report.extra) = layers(&tr, &traced, flow_s);
        crate::write_trace(options, &tr, &report)?;
    }
    Ok(report)
}

/// The per-layer metrics of the traced flows (per-request means of
/// their spans), and the layer times only the flow workload has.
fn layers(tr: &Tracer, traced: &Samples, untraced_flow_s: f64) -> (Vec<Metric>, Vec<Metric>) {
    let setup = tr.totals(|root| root == "setup");
    let flows = tr.totals(|root| root == "flow");
    let n = traced.len();
    let (extract, wires) = (flows.get("extract"), flows.get("wires"));
    let per_request = |v: f64| ratio(v, n as f64);
    let share = |wall_s: f64| ratio(wall_s, traced.sum());
    let windows = extract.counter("windows");
    let (hits, misses) = (
        extract.counter("cache_hits"),
        extract.counter("cache_misses"),
    );
    let sims = extract.counter("opc_sims");
    let surrogate = extract.counter("surrogate_hits");
    let fallbacks = extract.counter("surrogate_fallbacks");
    let segments = wires.counter("segments");
    let printed = segments - wires.counter("segments_failed");
    let per_layer = vec![
        mean_ms("layout.design_ms", &setup.get("layout.design")),
        mean_ms("sta.model_ms", &flows.get("sta.model")),
        mean_ms("sta.compile_ms", &flows.get("sta.compile")),
        mean_ms("sta.evaluate_ms", &flows.get("sta.evaluate")),
        mean_ms("tags.ms", &flows.get("tags")),
        metric("extract.share", share(extract.wall_s), "frac", n),
        metric("extract.windows", per_request(windows), "count", n),
        metric(
            "extract.cpu_per_wall",
            ratio(extract.cpu_s, extract.wall_s),
            "ratio",
            n,
        ),
        metric("extract.opc_sims", per_request(sims), "count", n),
        metric(
            "extract.opc_sims_per_window",
            ratio(sims, windows),
            "ratio",
            n,
        ),
        metric(
            "extract.cache_hit_rate",
            ratio(hits, hits + misses),
            "frac",
            n,
        ),
        metric("extract.surrogate_hits", per_request(surrogate), "count", n),
        metric(
            "extract.surrogate_fallbacks",
            per_request(fallbacks),
            "count",
            n,
        ),
        metric(
            "extract.surrogate_accept_rate",
            ratio(surrogate, surrogate + fallbacks),
            "frac",
            n,
        ),
        metric("wires.share", share(wires.wall_s), "frac", n),
        metric("wires.segments", per_request(segments), "count", n),
        metric(
            "wires.cpu_per_wall",
            ratio(wires.cpu_s, wires.wall_s),
            "ratio",
            n,
        ),
        metric("wires.printed_frac", ratio(printed, segments), "frac", n),
        metric(
            "trace.overhead_frac",
            ratio(traced.median(), untraced_flow_s) - 1.0,
            "frac",
            n,
        ),
        metric("trace.coverage", tr.coverage("flow"), "frac", n),
    ];
    let extra = vec![
        metric("extract.s", per_request(extract.wall_s), "s", n),
        metric(
            "extract.ms_per_window",
            ratio(extract.wall_s * 1e3, windows),
            "ms",
            n,
        ),
        metric("wires.s", per_request(wires.wall_s), "s", n),
        metric(
            "wires.ms_per_segment",
            ratio(wires.wall_s * 1e3, segments),
            "ms",
            n,
        ),
        mean_ms("compare.ms", &flows.get("compare")),
    ];
    (per_layer, extra)
}
