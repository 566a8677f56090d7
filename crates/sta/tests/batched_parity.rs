//! Batched-engine parity tests: the SoA lane evaluator behind
//! `statistical::run` must be **bit-identical** to the naive
//! `run_reference` oracle for every sampling scheme, every lane remainder
//! (partial tail batches), annotated and drawn systematics, and any
//! thread count.

use postopc_device::ProcessParams;
use postopc_layout::{generate, Design, GateId, TechRules};
use postopc_sta::{
    corner_annotation, statistical, CdAnnotation, GateAnnotation, MonteCarloConfig, Sampling,
    TimingModel, LANES,
};

fn rca_design() -> Design {
    Design::compile(
        generate::ripple_carry_adder(4).expect("netlist"),
        TechRules::n90(),
    )
    .expect("design")
}

/// A registered design so sequential endpoints (register D required
/// times, clock-launched arrivals) are covered too.
fn registered_design() -> Design {
    Design::compile(
        generate::registered_farm(4, 6, 3).expect("netlist"),
        TechRules::n90(),
    )
    .expect("design")
}

const ALL_SAMPLINGS: [Sampling; 3] = [
    Sampling::Plain,
    Sampling::Antithetic,
    Sampling::TailIs { tilt: 1.0 },
];

#[test]
fn every_lane_remainder_is_bit_identical() {
    // Sample counts covering each tail-batch size 1..LANES (plus the full
    // batch), on drawn and annotated systematics. The engine pads tail
    // lanes by repeating the last live sample; none of that padding may
    // leak into results.
    let design = rca_design();
    let model = TimingModel::new(&design, ProcessParams::n90(), 900.0).expect("model");
    let systematic = corner_annotation(&model, -1.5);
    for systematic in [None, Some(&systematic)] {
        for remainder in 0..LANES {
            let cfg = MonteCarloConfig {
                samples: LANES + remainder.max(1),
                sigma_nm: 1.5,
                seed: 17,
                ..MonteCarloConfig::default()
            };
            let batched = statistical::run(&model, systematic, &cfg).expect("batched mc");
            let naive = statistical::run_reference(&model, systematic, &cfg).expect("naive mc");
            assert_eq!(batched, naive, "remainder {remainder}");
            for (a, b) in batched
                .worst_slacks_ps()
                .iter()
                .zip(naive.worst_slacks_ps())
            {
                assert_eq!(a.to_bits(), b.to_bits(), "remainder {remainder}");
            }
        }
    }
}

#[test]
fn batched_matches_naive_reference_for_every_sampling() {
    // Per sampling scheme, with and without the control variate, on a
    // registered design (sequential endpoints) with a systematic
    // annotation.
    let design = registered_design();
    let model = TimingModel::new(&design, ProcessParams::n90(), 900.0).expect("model");
    let systematic = corner_annotation(&model, -1.5);
    for sampling in ALL_SAMPLINGS {
        for control_variate in [false, true] {
            let cfg = MonteCarloConfig {
                samples: 2 * LANES + 3,
                sigma_nm: 1.5,
                seed: 23,
                sampling,
                control_variate,
                ..MonteCarloConfig::default()
            };
            let batched = statistical::run(&model, Some(&systematic), &cfg).expect("batched mc");
            let naive =
                statistical::run_reference(&model, Some(&systematic), &cfg).expect("naive mc");
            assert_eq!(batched, naive, "{sampling:?} cv {control_variate}");
            for (a, b) in batched
                .worst_slacks_ps()
                .iter()
                .zip(naive.worst_slacks_ps())
            {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{sampling:?} cv {control_variate}"
                );
            }
        }
    }
}

#[test]
fn variance_reduced_samplers_are_thread_count_invariant() {
    // Antithetic pair streams and tilt plans are derived from the config
    // alone (seed splitting per sample), so the worker partition must
    // never show up in the results — across an uneven thread matrix.
    let design = registered_design();
    let model = TimingModel::new(&design, ProcessParams::n90(), 900.0).expect("model");
    for sampling in [Sampling::Antithetic, Sampling::TailIs { tilt: 1.2 }] {
        let base = MonteCarloConfig {
            samples: 3 * LANES + 5,
            sigma_nm: 2.0,
            seed: 31,
            threads: Some(1),
            sampling,
            control_variate: true,
        };
        let one = statistical::run(&model, None, &base).expect("mc");
        for threads in [2, 3, 4, 7] {
            let cfg = MonteCarloConfig {
                threads: Some(threads),
                ..base.clone()
            };
            let many = statistical::run(&model, None, &cfg).expect("mc");
            assert_eq!(one, many, "{sampling:?} threads {threads}");
            for (a, b) in one.worst_slacks_ps().iter().zip(many.worst_slacks_ps()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{sampling:?} threads {threads}");
            }
        }
    }
}

#[test]
fn antithetic_reduces_mean_estimator_variance() {
    // The estimator property behind the scheme: over seed replicates, the
    // sample-mean of worst slack should fluctuate less under antithetic
    // pairing than under plain sampling at the same sample count.
    let design = rca_design();
    let model = TimingModel::new(&design, ProcessParams::n90(), 900.0).expect("model");
    let spread = |sampling: Sampling| {
        let means: Vec<f64> = (0..12u64)
            .map(|seed| {
                let cfg = MonteCarloConfig {
                    samples: 64,
                    sigma_nm: 2.0,
                    seed: 1000 + seed,
                    sampling,
                    ..MonteCarloConfig::default()
                };
                statistical::run(&model, None, &cfg)
                    .expect("mc")
                    .mean_worst_slack_ps()
            })
            .collect();
        let m = means.iter().sum::<f64>() / means.len() as f64;
        means.iter().map(|x| (x - m).powi(2)).sum::<f64>() / means.len() as f64
    };
    assert!(
        spread(Sampling::Antithetic) < spread(Sampling::Plain),
        "antithetic pairing should shrink the mean estimator's variance"
    );
}

#[test]
fn prewarmed_batch_matches_naive_analyze() {
    // Direct-API proof that the prewarmed table replays the oracle's bits:
    // one batch evaluated against a table built on 1 or 2 workers must
    // agree, lane by lane, with `analyze` on the equivalent shifted
    // annotation — shift characterization is a pure function of
    // (cell, bin), wherever it ran.
    let design = registered_design();
    let model = TimingModel::new(&design, ProcessParams::n90(), 900.0).expect("model");
    let compiled = model.compile().expect("compile");
    let bases: Vec<_> = design
        .netlist()
        .gates()
        .iter()
        .map(|g| model.library().drawn_transistors(g.kind, g.drive).to_vec())
        .collect();
    let cells = compiled.sample_cells(&bases);
    let n_gates = bases.len();
    // A deterministic, repeating shift pattern over a handful of bins.
    let step = 1.5 / 16.0;
    let bin_of = |lane: usize, gi: usize| ((lane * 7 + gi * 3) % 9) as i32 - 4;
    let keys: Vec<(u32, i32)> = (0..LANES)
        .flat_map(|lane| {
            let cell_of_gate = cells.cell_of_gate();
            (0..n_gates).map(move |gi| (cell_of_gate[gi], bin_of(lane, gi)))
        })
        .collect();

    let mut naive = Vec::new();
    for lane in 0..LANES {
        let mut ann = CdAnnotation::new();
        for (gi, base) in bases.iter().enumerate() {
            let shift = f64::from(bin_of(lane, gi)) * step;
            let mut records = base.clone();
            for r in &mut records {
                r.l_delay_nm = (r.l_delay_nm + shift).max(1.0);
                r.l_leakage_nm = (r.l_leakage_nm + shift).max(1.0);
            }
            ann.set_gate(
                GateId(gi as u32),
                GateAnnotation {
                    transistors: records,
                },
            );
        }
        naive.push(model.analyze(Some(&ann)).expect("naive analyze"));
    }

    for threads in [1, 2] {
        let shared = compiled
            .prewarm_shift_cache(&cells, &keys, threads, |bin| f64::from(bin) * step)
            .expect("prewarm");
        assert!(shared.entries() > 0);
        let mut scratch = compiled.scratch();
        let lanes = compiled
            .evaluate_shifted_batch(&mut scratch, &cells, &shared, bin_of)
            .expect("batch");
        for (lane, report) in naive.iter().enumerate() {
            let got = lanes[lane];
            assert_eq!(
                got.worst_slack_ps.to_bits(),
                report.worst_slack_ps().to_bits(),
                "lane {lane}, {threads} worker(s)"
            );
            assert_eq!(
                got.critical_delay_ps.to_bits(),
                report.critical_delay_ps().to_bits(),
                "lane {lane}, {threads} worker(s)"
            );
            assert_eq!(
                got.leakage_ua.to_bits(),
                report.leakage_ua().to_bits(),
                "lane {lane}, {threads} worker(s)"
            );
        }
    }
}
