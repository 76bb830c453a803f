//! `learn`: what the paper's offline learning costs.
//!
//! Set-up generates the quick-scale 16-family corpus, labels its train and
//! test splits by running the 12 detectors, and builds the
//! `SelectorDataset`. The job trains `TrainConfig::kdselector(ConvNet)`
//! (PISL + MKI + PA) to completion, deploys it into a `SelectorEngine`
//! and evaluates it on the test split. Detectors and training do almost
//! all the work; the serving queue and the stream tier do none.

use crate::harness::{
    label_metric, median, mix, now, peak_rss_mb, percentile, secs, trimmed_mean, Args, Digest, Report,
    Samples, Tracer,
};
use kdselector_core::arch::Architecture;
use kdselector_core::dataset::SelectorDataset;
use kdselector_core::eval::evaluate;
use kdselector_core::labels::{compute_perf_matrix, PerfMatrix};
use kdselector_core::serve::SelectorEngine;
use kdselector_core::train::{TrainConfig, TrainSession};
use tsad_models::default_model_set;
use tsdata::{Benchmark, BenchmarkConfig, TimeSeries, WindowConfig};
use tstext::FrozenTextEncoder;

/// Seed of the detector set that labels the corpus.
const DETECTOR_SEED: u64 = 11;

struct Sizes {
    bench: BenchmarkConfig,
    window: WindowConfig,
    epochs: usize,
    width: usize,
    text_dim: usize,
    /// Evaluations per job: one takes tens of milliseconds, so the job
    /// repeats it and `sel_per_s` pools every evaluation of the run.
    eval_repeats: usize,
    /// Jobs per set-up: labelling takes seconds, so each set-up serves
    /// several jobs and job metrics get more samples per run.
    jobs_per_setup: usize,
}

fn sizes(args: &Args) -> Sizes {
    let seed = mix(args.seed, 1, 0);
    if args.tiny {
        return Sizes {
            bench: BenchmarkConfig {
                train_series_per_family: 1,
                test_series_per_family: 1,
                series_length: 300,
                seed,
            },
            window: WindowConfig {
                length: 32,
                stride: 32,
                znormalize: true,
            },
            epochs: 2,
            width: 4,
            text_dim: 32,
            eval_repeats: 2,
            jobs_per_setup: 1,
        };
    }
    Sizes {
        // The quick scale of the paper-table benches.
        bench: BenchmarkConfig {
            train_series_per_family: 3,
            // The quick scale has 2 test series per family; 6 cut the
            // spread of auc_pr across seeds.
            test_series_per_family: 6,
            series_length: 800,
            seed,
        },
        window: WindowConfig {
            length: 64,
            stride: 64,
            znormalize: true,
        },
        // 8 epochs trained in 0.5-0.7 s, too short to time steadily.
        epochs: 32,
        width: 8,
        text_dim: 256,
        eval_repeats: 32,
        jobs_per_setup: 2,
    }
}

struct Setup {
    bench: Benchmark,
    train_perf: PerfMatrix,
    test_perf: PerfMatrix,
    dataset: SelectorDataset,
}

fn setup(sz: &Sizes, tracer: &mut Tracer) -> Setup {
    let bench = Benchmark::generate(sz.bench);
    let (train_perf, test_perf) = if tracer.on() {
        (
            traced_labels(&bench.train, tracer),
            traced_labels(&bench.test, tracer),
        )
    } else {
        (
            compute_perf_matrix(&bench.train, DETECTOR_SEED),
            compute_perf_matrix(&bench.test, DETECTOR_SEED),
        )
    };
    let encoder = FrozenTextEncoder::new(sz.text_dim, 0xBEB7);
    let dataset = tracer.span("dataset.build_s", || {
        SelectorDataset::build(&bench.train, &train_perf, sz.window, &encoder)
    });
    Setup {
        bench,
        train_perf,
        test_perf,
        dataset,
    }
}

/// `compute_perf_matrix` with each detector's `score` call timed: the same
/// per-series fan-out over the pool, the same AUC-PR scoring. The result
/// is checked against the untimed matrix before it is used.
fn traced_labels(series: &[TimeSeries], tracer: &mut Tracer) -> PerfMatrix {
    let per_series = tspar::par_map(series.len(), |i| {
        let ts = &series[i];
        let labels = ts.point_labels();
        default_model_set(DETECTOR_SEED)
            .iter()
            .map(|detector| {
                let t = now();
                let scores = detector.score(&ts.values);
                let busy = secs(t);
                let auc = if scores.len() == labels.len() {
                    tsmetrics::auc_pr(&scores, &labels)
                } else {
                    0.0
                };
                (detector.id(), auc, busy)
            })
            .collect::<Vec<_>>()
    });
    for row in &per_series {
        for (id, _, busy) in row {
            tracer.add(&label_metric(*id), *busy);
        }
    }
    PerfMatrix {
        series_ids: series.iter().map(|s| s.id.clone()).collect(),
        rows: per_series
            .iter()
            .map(|row| row.iter().map(|(_, auc, _)| *auc).collect())
            .collect(),
    }
}

struct JobOut {
    job_s: f64,
    train_s: f64,
    deploy_s: f64,
    examined: usize,
    kept_frac: f64,
    epoch_s: Vec<f64>,
    /// Seconds of each evaluation.
    eval_s: Vec<f64>,
    /// Test-split selections per evaluation.
    selections: usize,
    auc_pr: f64,
    digest: u64,
}

fn job(sz: &Sizes, seed: u64, s: &Setup, tracer: &mut Tracer) -> Result<JobOut, String> {
    let cfg = TrainConfig {
        epochs: sz.epochs,
        width: sz.width,
        seed,
        ..TrainConfig::kdselector(Architecture::ConvNet)
    };
    let t_job = now();
    let mut session = tracer.span("train.session_new_s", || {
        TrainSession::new(&s.dataset, &cfg)
    });
    let mut epoch_s = Vec::with_capacity(sz.epochs);
    let mut examined = 0;
    while !session.is_complete() {
        let t = now();
        let report = tracer.span("train.epoch_s", || session.run_epoch(&s.dataset));
        epoch_s.push(secs(t));
        examined += report.examined;
    }
    let train_s = secs(t_job);
    let (mut model, stats) = session.finish();

    let mut digest = Digest::new();
    for p in model.params() {
        digest.f32s(p.value.data());
    }
    for b in model.buffers_mut() {
        digest.f32s(b);
    }
    for loss in &stats.epoch_loss {
        digest.u64(loss.to_bits());
    }

    let engine = SelectorEngine::new();
    engine
        .deploy("kdselector", model, sz.window)
        .map_err(|e| format!("deploy: {e}"))?;
    let deploy_s = secs(t_job);
    let selector = engine
        .get("kdselector")
        .ok_or("deployed selector missing")?;

    let mut report = None;
    let mut eval_s = Vec::with_capacity(sz.eval_repeats);
    for _ in 0..sz.eval_repeats {
        let t = now();
        report = Some(tracer.span("eval.s", || {
            evaluate(&*selector, &s.bench.test, &s.test_perf)
        }));
        eval_s.push(secs(t));
    }
    let report = report.ok_or("no evaluation ran")?;
    let auc_pr = report.average_auc_pr();
    digest.u64(auc_pr.to_bits());
    for m in &report.selections {
        digest.u64(m.index() as u64);
    }
    Ok(JobOut {
        job_s: secs(t_job),
        train_s,
        deploy_s,
        examined,
        kept_frac: stats.examined_fraction(),
        epoch_s,
        eval_s,
        selections: report.selections.len(),
        auc_pr,
        digest: digest.finish(),
    })
}

pub fn run(args: &Args) -> Result<Report, String> {
    let sz = sizes(args);
    let train_seed = mix(args.seed, 1, 1);
    let started = now();
    let mut report = Report::default();
    let mut e2e = Samples::default();
    let mut layers = Samples::default();
    let mut reference: Option<(u64, f64)> = None;
    let mut untraced_rows: Option<(PerfMatrix, PerfMatrix)> = None;
    // Every evaluation of the untraced jobs, pooled for sel_per_s.
    let mut eval_s: Vec<f64> = Vec::new();
    let mut selections_per_eval = 0;
    let mut rep = 0;
    // Three set-ups at least, so setup_s is a median of three.
    while args.keep_going(started, rep, 3) {
        // Traced runs alternate untraced and traced reps.
        let mut tracer = Tracer::new(args.trace && rep % 2 == 1);
        let t = now();
        let s = setup(&sz, &mut tracer);
        let setup_s = secs(t);
        if tracer.on() {
            // Gate: the timed labelling path computes the same labels.
            if let Some((train, test)) = &untraced_rows {
                if *train != s.train_perf || *test != s.test_perf {
                    return Err("traced labels differ from compute_perf_matrix".into());
                }
            }
            layers.extend(tracer.take());
        } else {
            if args.trace && untraced_rows.is_none() {
                untraced_rows = Some((s.train_perf.clone(), s.test_perf.clone()));
            }
            e2e.push("setup_s", setup_s);
        }

        for _ in 0..sz.jobs_per_setup {
            let out = job(&sz, train_seed, &s, &mut tracer)?;
            report.attempted += 1;
            // Gate: a rerun at the same seed trains bitwise-identical
            // weights and scores the identical AUC-PR.
            match reference {
                None => {
                    eprintln!(
                        "learn gate: digest={:016x} auc_pr={} windows={} test_series={}",
                        out.digest,
                        out.auc_pr,
                        s.dataset.len(),
                        s.bench.test.len()
                    );
                    reference = Some((out.digest ^ u64::from(args.break_gate), out.auc_pr));
                }
                Some((digest, auc)) => {
                    if out.digest != digest || out.auc_pr.to_bits() != auc.to_bits() {
                        return Err(format!(
                            "digest {:016x} auc_pr {} differs from {digest:016x} {auc}",
                            out.digest, out.auc_pr
                        ));
                    }
                }
            }
            if !(out.auc_pr > 0.0 && out.auc_pr <= 1.0) {
                return Err(format!("auc_pr {} outside (0, 1]", out.auc_pr));
            }

            if tracer.on() {
                let mut totals = tracer.take();
                if let Some(v) = totals.get_mut("train.epoch_s") {
                    *v /= sz.epochs as f64;
                }
                if let Some(v) = totals.get_mut("eval.s") {
                    *v /= sz.eval_repeats as f64;
                }
                layers.extend(totals);
                layers.push("train.examined", out.examined as f64);
                layers.push("prune.kept_frac", out.kept_frac);
                layers.push("traced_job_s", out.job_s);
            } else {
                e2e.push("job_s", out.job_s);
                e2e.push("win_per_s", out.examined as f64 / out.train_s);
                eval_s.extend(&out.eval_s);
                selections_per_eval = out.selections;
                e2e.push("deploy_s", out.deploy_s);
                let epoch_ms: Vec<f64> = out.epoch_s.iter().map(|s| s * 1e3).collect();
                e2e.push("p50_ms", percentile(&epoch_ms, 50.0));
                e2e.push("p99_ms", percentile(&epoch_ms, 99.0));
            }
        }
        rep += 1;
    }

    if args.trace {
        let overhead = median(layers.get("traced_job_s")) - median(e2e.get("job_s"));
        layers.report_medians(&mut report);
        report.metrics.remove("traced_job_s");
        report.set("trace.overhead_s", overhead);
    } else {
        e2e.report_medians(&mut report);
        report.set("sel_per_s", selections_per_eval as f64 / trimmed_mean(&eval_s));
        report.set("auc_pr", reference.map_or(0.0, |(_, auc)| auc));
        report.set("peak_rss_mb", peak_rss_mb());
        eprintln!(
            "learn: {rep} set-ups, {} jobs; p50/p99 per job over {} epochs",
            report.attempted, sz.epochs
        );
    }
    Ok(report)
}
