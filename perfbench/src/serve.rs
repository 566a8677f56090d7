//! The warm-serve workload: one cold session on the T6 testcase is
//! opened and published during set-up, then a closed-loop script of
//! fixed-work rounds runs against the published artifact.
//!
//! Each round: warm open (`load_validated` + `restore`), a 3-corner
//! sweep, a Monte Carlo query, a guardband query, a one-gate what-if and
//! an ECO at top-45 paths. Every round starts from the same artifact, so
//! every ECO re-images the same windows and no round grows.

use crate::flow::{annotation_digest, clock_ps, lot_conditions, DESIGN_SEED};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{mean_ms, metric, ratio, Budget, Metric, Options, Report};
use postopc::guardband::GuardbandConfig;
use postopc::{
    ArtifactIo, EcoOutcome, FlowConfig, FlowError, OpcMode, QueryOutcome, Selection, SessionQuery,
    TagSet, TimingSession, WarmArtifact,
};
use postopc_layout::{generate, Design, PlacementOptions, TechRules};
use postopc_sta::{
    CdAnnotation, Corner, GateAnnotation, MonteCarloConfig, TimingModel, TimingReport,
};
use std::collections::btree_map::{BTreeMap, Entry};
use std::path::{Path, PathBuf};
use std::time::Instant;

type Result<T> = std::result::Result<T, FlowError>;

/// Set-ups per run: the measured loop's own, and one more after every
/// [`SETUP_EVERY`] measured rounds; `setup_s` is their median. Each opens
/// a cold session (seconds of extraction), so a run holds only five.
const SETUP_REPS: usize = 5;

/// Measured rounds between two of the extra set-ups, which thereby
/// sample the host over the same stretch of the run as the rounds do.
const SETUP_EVERY: usize = 25;

/// Measured rounds per run at the least: ten beyond each p90, and room
/// for every extra set-up.
const MIN_ROUNDS: usize = 100;
const _: () = assert!(SETUP_EVERY * (SETUP_REPS - 1) <= MIN_ROUNDS);

/// Critical paths the session extracts.
const PATHS: usize = 40;

/// Critical paths the ECO extends the extraction to.
const ECO_PATHS: usize = 45;

/// Monte Carlo samples per query; the seed cycles through this many
/// values so that the checks can reuse the cold session's answers.
const MC_SAMPLES: usize = 512;
const MC_SEEDS: u64 = 8;

/// Operations per round: warm open, corners, MC, guardband, what-if, ECO.
const OPS_PER_ROUND: usize = 6;

/// Per-round latency samples of each operation, in milliseconds.
#[derive(Default)]
struct Latencies {
    warm_start: Samples,
    corners: Samples,
    mc: Samples,
    guardband: Samples,
    whatif: Samples,
    eco: Samples,
    round: Samples,
}

/// The answers of one round.
struct RoundOut {
    corners: QueryOutcome,
    mc: QueryOutcome,
    guardband: QueryOutcome,
    whatif: QueryOutcome,
    eco: EcoOutcome,
    eco_digest: u64,
    ms: [f64; 6],
}

/// The fixed inputs of every round.
struct Script {
    path: PathBuf,
    hash: u64,
    corners: Vec<Corner>,
    guardband: GuardbandConfig,
    whatif: CdAnnotation,
    eco_tags: TagSet,
    seed: u64,
    threads: usize,
}

impl Script {
    fn mc(&self, round: usize) -> MonteCarloConfig {
        MonteCarloConfig {
            samples: MC_SAMPLES,
            sigma_nm: 1.5,
            seed: self.seed.wrapping_mul(1_000) + round as u64 % MC_SEEDS,
            threads: Some(self.threads),
            ..MonteCarloConfig::default()
        }
    }
}

/// The paper testcase (572 gates) at 70% row utilization (filler gaps
/// give the gates diverse lithographic contexts).
fn t6_design() -> Result<Design> {
    Ok(Design::compile_with(
        generate::paper_testcase(DESIGN_SEED)?,
        TechRules::n90(),
        &PlacementOptions {
            utilization: 0.7,
            seed: DESIGN_SEED,
        },
    )?)
}

fn config(clock: f64, options: &Options) -> FlowConfig {
    let mut cfg = FlowConfig::standard(clock);
    cfg.selection = Selection::Critical { paths: PATHS };
    cfg.extraction = cfg.extraction.with_conditions(lot_conditions(options.seed));
    cfg.extraction.opc_mode = OpcMode::Rule;
    cfg.extraction.threads = Some(options.threads);
    cfg
}

/// The what-if edit: one tagged gate (picked by the seed) printed
/// 1.5 nm longer than extracted.
fn whatif_edit(session: &TimingSession<'_>, seed: u64) -> CdAnnotation {
    let gates = session.tags().sorted();
    let mut edit = session.annotation().clone();
    if let Some(&gate) = gates.get(seed as usize % gates.len().max(1)) {
        if let Some(current) = session.annotation().gate(gate) {
            let mut next: GateAnnotation = current.clone();
            for t in &mut next.transistors {
                t.l_delay_nm += 1.5;
                t.l_leakage_nm += 1.5;
            }
            edit.set_gate(gate, next);
        }
    }
    edit
}

/// What one set-up leaves for the measured loop.
struct Setup<'m> {
    cfg: FlowConfig,
    model: &'m TimingModel<'m>,
    cold: TimingSession<'m>,
    script: Script,
}

/// One set-up: build the design, open a cold session and publish its
/// artifact; then hand everything to `then` (the measured loop, or
/// nothing for the repetitions that only time the set-up). Returns the
/// set-up time and what `then` returned.
fn set_up<R>(
    options: &Options,
    tr: &mut Tracer,
    path: &Path,
    then: impl FnOnce(&mut Tracer, Setup<'_>) -> Result<R>,
) -> Result<(f64, R)> {
    tr.begin("setup");
    let start = Instant::now();
    let design: Design = tr.call("layout.design", t6_design, |d| {
        vec![("gates", d.netlist().gates().len() as f64)]
    })?;
    let cfg = config(clock_ps(&design)?, options);
    let model = tr.call(
        "sta.model",
        || TimingModel::new(&design, cfg.process.clone(), cfg.clock_ps),
        |_| vec![],
    )?;
    let cold = tr.call(
        "session.open",
        || TimingSession::new(&model, &cfg),
        |s| {
            let e = s.extraction_stats();
            vec![
                ("gates", e.gates_extracted as f64),
                ("windows", e.windows as f64),
                ("opc_sims", e.opc_simulations as f64),
                ("cache_hits", e.cache_hits as f64),
                ("cache_misses", e.cache_misses as f64),
            ]
        },
    )?;
    // The ECO's wider selection comes from the drawn timing.
    let compiled = tr.call("sta.compile", || model.compile(), |_| vec![])?;
    let drawn = tr.call(
        "sta.evaluate",
        || compiled.evaluate(&mut compiled.scratch(), None),
        |_| vec![],
    )?;
    drop(compiled);
    let eco_tags = tr.call(
        "tags",
        || Ok::<_, FlowError>(TagSet::from_critical_paths(&design, &drawn, ECO_PATHS)),
        |t| vec![("gates", t.len() as f64)],
    )?;
    let artifact = tr.call(
        "session.artifact",
        || Ok::<_, FlowError>(cold.artifact()),
        |_| vec![],
    )?;
    tr.call(
        "artifact.save",
        || artifact.save_with(path, &mut ArtifactIo::faultless()),
        |_| vec![],
    )?;
    let setup_s = start.elapsed().as_secs_f64();
    tr.end();

    let script = Script {
        path: path.to_path_buf(),
        hash: artifact.content_hash,
        corners: Corner::classic_set(6.0),
        guardband: GuardbandConfig {
            monte_carlo: MonteCarloConfig {
                samples: 300,
                sigma_nm: 1.5,
                seed: 7,
                threads: Some(options.threads),
                ..MonteCarloConfig::default()
            },
            ..GuardbandConfig::default()
        },
        whatif: whatif_edit(&cold, options.seed),
        eco_tags,
        seed: options.seed,
        threads: options.threads,
    };
    let out = then(
        tr,
        Setup {
            cfg,
            model: &model,
            cold,
            script,
        },
    )?;
    Ok((setup_s, out))
}

/// One round of the script against a freshly restored session.
fn round(setup: &Setup<'_>, index: usize, tr: &mut Tracer) -> Result<RoundOut> {
    let script = &setup.script;
    let mut ms = [0.0; 6];
    let mut lap = Instant::now();
    let mut tick = |slot: usize| {
        ms[slot] = lap.elapsed().as_secs_f64() * 1e3;
        lap = Instant::now();
    };
    let artifact = tr.call(
        "artifact.load",
        || WarmArtifact::load_validated(&script.path, script.hash),
        |_| vec![],
    )?;
    let mut session = tr.call(
        "session.restore",
        || TimingSession::restore(setup.model, &setup.cfg, artifact),
        |_| vec![],
    )?;
    tick(0);
    let corners = tr.call(
        "sta.corners",
        || session.run(&SessionQuery::Corners(script.corners.clone())),
        |_| vec![("corners", script.corners.len() as f64)],
    )?;
    tick(1);
    let mc = tr.call(
        "sta.mc",
        || session.run(&SessionQuery::MonteCarlo(script.mc(index))),
        |out| match out {
            QueryOutcome::MonteCarlo(r) => {
                let c = r.cache_stats();
                vec![
                    ("samples", r.worst_slacks_ps().len() as f64),
                    ("shift_hits", (c.hits + c.shared_hits) as f64),
                    ("shift_misses", c.misses as f64),
                ]
            }
            _ => vec![],
        },
    )?;
    tick(2);
    let guardband = tr.call(
        "session.guardband",
        || session.run(&SessionQuery::Guardband(script.guardband.clone())),
        |_| vec![],
    )?;
    tick(3);
    let whatif = tr.call(
        "sta.whatif",
        || session.run(&SessionQuery::WhatIf(script.whatif.clone())),
        |_| vec![],
    )?;
    tick(4);
    let eco = tr.call(
        "session.eco",
        || session.apply_eco(&script.eco_tags),
        |e| {
            vec![
                ("windows", e.stats.windows as f64),
                ("store_hits", e.stats.store_hits as f64),
            ]
        },
    )?;
    tick(5);
    Ok(RoundOut {
        corners,
        mc,
        guardband,
        whatif,
        eco,
        eco_digest: annotation_digest(session.annotation()),
        ms,
    })
}

/// The cold set-up session's answers to the script's queries, and a
/// fresh evaluation of the post-ECO annotation.
struct ColdAnswers {
    corners: QueryOutcome,
    guardband: QueryOutcome,
    whatif: QueryOutcome,
    /// Monte Carlo answers by seed, filled as the seeds come up.
    mc: BTreeMap<u64, QueryOutcome>,
    /// Digest of the post-ECO annotation (the same in every round).
    eco_digest: u64,
    eco_report: TimingReport,
}

impl ColdAnswers {
    fn new(setup: &mut Setup<'_>) -> Result<ColdAnswers> {
        let script = &setup.script;
        let cold = &mut setup.cold;
        let corners = cold.run(&SessionQuery::Corners(script.corners.clone()))?;
        let guardband = cold.run(&SessionQuery::Guardband(script.guardband.clone()))?;
        let whatif = cold.run(&SessionQuery::WhatIf(script.whatif.clone()))?;
        // The ECO on a session restored from the published artifact,
        // then its annotation evaluated from scratch.
        let artifact = WarmArtifact::load_validated(&script.path, script.hash)?;
        let mut eco = TimingSession::restore(setup.model, &setup.cfg, artifact)?;
        eco.apply_eco(&script.eco_tags)?;
        let compiled = setup.model.compile()?;
        let eco_report = compiled.evaluate(&mut compiled.scratch(), Some(eco.annotation()))?;
        Ok(ColdAnswers {
            corners,
            guardband,
            whatif,
            mc: BTreeMap::new(),
            eco_digest: annotation_digest(eco.annotation()),
            eco_report,
        })
    }

    /// Output checks, outside the timed region: warm answers equal the
    /// cold session's answers to the same queries, and the ECO report
    /// equals a fresh evaluation of the post-ECO annotation.
    fn check(
        &mut self,
        setup: &mut Setup<'_>,
        index: usize,
        out: &RoundOut,
        report: &mut Report,
    ) -> Result<()> {
        report.check(
            out.corners == self.corners,
            "warm corner sweep differs from cold",
        );
        report.check(
            out.guardband == self.guardband,
            "warm guardband differs from cold",
        );
        report.check(out.whatif == self.whatif, "warm what-if differs from cold");
        let mc = setup.script.mc(index);
        let answer = match self.mc.entry(mc.seed) {
            Entry::Occupied(known) => known.into_mut(),
            Entry::Vacant(slot) => slot.insert(setup.cold.run(&SessionQuery::MonteCarlo(mc))?),
        };
        report.check(out.mc == *answer, "warm Monte Carlo differs from cold");
        report.check(
            out.eco_digest == self.eco_digest && out.eco.report == self.eco_report,
            "ECO report differs from a fresh evaluation of the post-ECO annotation",
        );
        Ok(())
    }
}

pub fn run(options: &Options) -> Result<Report> {
    let mut report = Report::default();
    let mut tr = Tracer::new(options.trace);
    let path = crate::out_dir()
        .map_err(|e| FlowError::InvalidConfig(format!("output directory: {e}")))?
        .join(format!("serve-{}.warm", std::process::id()));

    // The extra set-ups publish to a path of their own, so the rounds'
    // artifact is never rewritten under them.
    let extra_path = path.with_extension("extra.warm");
    let mut setups = Samples::default();
    let (setup_s, (latencies, traced)) = set_up(options, &mut tr, &path, |tr, mut s| {
        measure(options, tr, &mut s, &extra_path, &mut setups, &mut report)
    })?;
    setups.push(setup_s);
    report.attempted += setups.len();
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&extra_path).ok();

    let l = &latencies;
    let ops = l.round.len() * OPS_PER_ROUND;
    report.end_to_end = vec![
        metric("setup_s", setups.median(), "s", setups.len()),
        // The serve workload's flow is the ECO: an incremental
        // tag-extract-retime flow on the warm session.
        metric("flow_s", l.eco.median() / 1e3, "s", l.eco.len()),
        metric(
            "queries_per_s",
            ops as f64 / (l.round.sum() / 1e3),
            "1/s",
            ops,
        ),
    ];
    let p50 = |name, s: &Samples| metric(name, s.median(), "ms", s.len());
    let p90 = |name, s: &Samples| s.tail(0.9).map(|v| metric(name, v, "ms", s.len()));
    let mut extra = vec![
        p50("warm_start_ms_p50", &l.warm_start),
        p50("corners_ms_p50", &l.corners),
        p50("mc_ms_p50", &l.mc),
        p50("guardband_ms_p50", &l.guardband),
        p50("whatif_ms_p50", &l.whatif),
        p50("eco_ms_p50", &l.eco),
        p50("round_ms_p50", &l.round),
    ];
    extra.extend(p90("mc_ms_p90", &l.mc));
    extra.extend(p90("eco_ms_p90", &l.eco));
    report.extra = extra;
    if options.trace {
        let (per_layer, extra) = layers(&tr, &traced, &l.round, bytes);
        report.per_layer = per_layer;
        report.extra.extend(extra);
        crate::write_trace(options, &tr, &report)?;
    }
    Ok(report)
}

/// The measured loop: a warm-up round, then rounds until the budget is
/// spent, with an extra set-up (timed into `setups`, published to
/// `extra_path`) after every [`SETUP_EVERY`] of them until the run has
/// made [`SETUP_REPS`]. Returns the untraced rounds' latencies and the
/// traced rounds' wall times (ms).
fn measure(
    options: &Options,
    tr: &mut Tracer,
    setup: &mut Setup<'_>,
    extra_path: &Path,
    setups: &mut Samples,
    report: &mut Report,
) -> Result<(Latencies, Samples)> {
    let mut cold = ColdAnswers::new(setup)?;
    let mut latencies = Latencies::default();
    let mut traced = Samples::default();
    let budget = Budget::new(options.seconds, MIN_ROUNDS);
    let mut index = 0;
    let mut done = 0;
    loop {
        let warm_up = index == 0;
        if !warm_up && !budget.more(done, 0.0) {
            break;
        }
        let traced_round = options.trace && !warm_up && done % 2 == 1;
        tr.set_enabled(traced_round);
        tr.begin("round");
        let start = Instant::now();
        let out = round(setup, index, tr);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        tr.end();
        tr.set_enabled(false);
        report.attempted += OPS_PER_ROUND;
        match out {
            Ok(out) => {
                cold.check(setup, index, &out, report)?;
                if traced_round {
                    traced.push(wall_ms);
                } else if !warm_up {
                    let l = &mut latencies;
                    for (samples, ms) in [
                        &mut l.warm_start,
                        &mut l.corners,
                        &mut l.mc,
                        &mut l.guardband,
                        &mut l.whatif,
                        &mut l.eco,
                    ]
                    .into_iter()
                    .zip(out.ms)
                    {
                        samples.push(ms);
                    }
                    l.round.push(wall_ms);
                }
            }
            Err(e) => report.check(false, &format!("round {index}: {e}")),
        }
        index += 1;
        if !warm_up {
            done += 1;
            // The loop's own set-up is counted when the loop returns.
            if done % SETUP_EVERY == 0 && setups.len() + 1 < SETUP_REPS {
                tr.set_enabled(options.trace);
                let (setup_s, ()) = set_up(options, tr, extra_path, |_, _| Ok(()))?;
                setups.push(setup_s);
                tr.set_enabled(false);
            }
        }
    }
    Ok((latencies, traced))
}

/// The per-layer metrics of the set-ups and the traced rounds, and the
/// layer times only the serve workload has.
fn layers(
    tr: &Tracer,
    traced: &Samples,
    untraced: &Samples,
    bytes: u64,
) -> (Vec<Metric>, Vec<Metric>) {
    let setup = tr.totals(|root| root == "setup");
    let rounds = tr.totals(|root| root == "round");
    let open = setup.get("session.open");
    let setup_wall_s = setup.get("setup").wall_s;
    let (mc, eco) = (rounds.get("sta.mc"), rounds.get("session.eco"));
    let (hits, misses) = (open.counter("cache_hits"), open.counter("cache_misses"));
    let shift_hits = mc.counter("shift_hits");
    let per_eco = |v: f64| ratio(v, eco.calls as f64);
    let per_layer = vec![
        mean_ms("layout.design_ms", &setup.get("layout.design")),
        mean_ms("sta.model_ms", &setup.get("sta.model")),
        mean_ms("sta.compile_ms", &setup.get("sta.compile")),
        mean_ms("sta.evaluate_ms", &setup.get("sta.evaluate")),
        mean_ms("tags.ms", &setup.get("tags")),
        metric(
            "extract.share",
            ratio(open.wall_s, setup_wall_s),
            "frac",
            open.calls,
        ),
        metric(
            "extract.windows",
            ratio(open.counter("windows"), open.calls as f64),
            "count",
            open.calls,
        ),
        metric(
            "extract.cpu_per_wall",
            ratio(open.cpu_s, open.wall_s),
            "ratio",
            open.calls,
        ),
        metric(
            "extract.cache_hit_rate",
            ratio(hits, hits + misses),
            "frac",
            open.calls,
        ),
        metric(
            "sta.shift_cache_hit_rate",
            ratio(shift_hits, shift_hits + mc.counter("shift_misses")),
            "frac",
            mc.calls,
        ),
        metric(
            "session.eco_windows",
            per_eco(eco.counter("windows")),
            "count",
            eco.calls,
        ),
        metric(
            "session.eco_store_hits",
            per_eco(eco.counter("store_hits")),
            "count",
            eco.calls,
        ),
        metric("artifact.bytes", bytes as f64, "bytes", 1),
        metric(
            "trace.overhead_frac",
            ratio(traced.median(), untraced.median()) - 1.0,
            "frac",
            traced.len(),
        ),
        metric("trace.coverage", tr.coverage("round"), "frac", traced.len()),
    ];
    let extra = vec![
        metric("session.open_s", open.mean_ms() / 1e3, "s", open.calls),
        metric("extract.s", open.mean_ms() / 1e3, "s", open.calls),
        metric(
            "extract.ms_per_window",
            ratio(open.wall_s * 1e3, open.counter("windows")),
            "ms",
            open.calls,
        ),
        mean_ms("artifact.save_ms", &setup.get("artifact.save")),
        mean_ms("artifact.load_ms", &rounds.get("artifact.load")),
        mean_ms("session.restore_ms", &rounds.get("session.restore")),
        mean_ms("sta.corners_ms", &rounds.get("sta.corners")),
        metric(
            "sta.mc_us_per_sample",
            ratio(mc.wall_s * 1e6, mc.counter("samples")),
            "us",
            mc.calls,
        ),
        mean_ms("session.guardband_ms", &rounds.get("session.guardband")),
        mean_ms("sta.whatif_ms", &rounds.get("sta.whatif")),
        mean_ms("session.eco_ms", &eco),
    ];
    (per_layer, extra)
}
