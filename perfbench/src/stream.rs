//! `stream`: the drift-triggered retrain loop.
//!
//! Set-up is a bootstrap: replay the history of every stream into a fresh
//! `RetrainDaemon` until it deploys v1. The job replays appends to named
//! streams with scheduled level shifts; after each append it steps the
//! daemon one epoch and serves the live stream through the engine. Every
//! retrain labels with the synthetic [`ShapeOracle`], so no detector
//! runs. The cache takes a write on every append (the `serve` workload
//! mostly reads it), and training runs as many short sessions with a
//! checkpoint each epoch (`learn` runs one long session).

use crate::harness::{
    median, mix, now, peak_rss_mb, percentile, secs, trimmed_mean, Args, Digest, Report, Samples,
    Stamp, Tracer,
};
use crate::oracle::ShapeOracle;
use kdselector_core::arch::Architecture;
use kdselector_core::manage::SelectorStore;
use kdselector_core::prune::PruningStrategy;
use kdselector_core::serve::SelectorEngine;
use kdselector_core::stream::{DaemonConfig, DaemonEvent, DriftConfig, LabelOracle, RetrainDaemon};
use kdselector_core::train::TrainConfig;
use std::path::Path;
use std::sync::Arc;
use tsdata::benchmark::generate_series;
use tsdata::{all_families, WindowConfig};

const SELECTOR: &str = "live";

struct Sizes {
    window: WindowConfig,
    streams: usize,
    chunk: usize,
    /// Bootstrap samples per stream.
    history: usize,
    /// One level shift per round, on stream `round % streams`.
    rounds: usize,
    /// Appends per stream per round.
    appends: usize,
    drift_window: usize,
    width: usize,
    epochs: usize,
}

fn sizes(args: &Args) -> Sizes {
    if args.tiny {
        return Sizes {
            window: WindowConfig {
                length: 32,
                stride: 16,
                znormalize: true,
            },
            streams: 4,
            chunk: 64,
            history: 256,
            rounds: 2,
            appends: 2,
            drift_window: 64,
            width: 4,
            epochs: 1,
        };
    }
    Sizes {
        window: WindowConfig {
            length: 64,
            stride: 32,
            znormalize: true,
        },
        streams: 4,
        chunk: 256,
        history: 4096,
        // Ten retrains a job: three gave a median deploy time that moved
        // 0.31-0.38 s between runs.
        rounds: 10,
        // Room after each deploy for the drift monitor to re-anchor on
        // every stream before the next shift.
        appends: 4,
        drift_window: 256,
        width: 6,
        epochs: 4,
    }
}

/// Grid windows in a prefix of `n` samples.
fn grid_windows(n: usize, w: &WindowConfig) -> usize {
    if n < w.length {
        0
    } else {
        (n - w.length) / w.stride + 1
    }
}

/// Every stream's samples, level shifts applied: history first, then the
/// job's rounds; round `r` shifts stream `r % streams` from its first
/// append of that round on.
fn streams(sz: &Sizes, seed: u64) -> Vec<Vec<f64>> {
    let families = all_families();
    let per_round = sz.appends * sz.chunk;
    let len = sz.history + sz.rounds * per_round;
    (0..sz.streams)
        .map(|k| {
            let family = &families[(5 * k + 1) % families.len()];
            let mut x = generate_series(family, len, mix(seed, 5, k as u64), "stream").values;
            let n = x.len() as f64;
            let mean = x.iter().sum::<f64>() / n;
            let sd = (x.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n).sqrt();
            let mut sign = 1.0;
            for r in (k..sz.rounds).step_by(sz.streams) {
                for v in &mut x[sz.history + r * per_round..] {
                    *v += sign * 8.0 * sd.max(0.1);
                }
                sign = -sign;
            }
            x
        })
        .collect()
}

fn daemon_config(sz: &Sizes, seed: u64) -> DaemonConfig {
    let history = sz.streams * sz.history;
    DaemonConfig {
        selector: SELECTOR.to_string(),
        window: sz.window,
        train: TrainConfig {
            arch: Architecture::ConvNet,
            width: sz.width,
            epochs: sz.epochs,
            batch_size: 64,
            seed,
            pruning: PruningStrategy::None,
            ..TrainConfig::default()
        },
        drift: DriftConfig {
            window: sz.drift_window,
            threshold: 6.0,
        },
        // The history fills the quota exactly, so v1 trains on all of it;
        // later retrains come from drift (a round appends far less).
        quota: history,
        min_samples: history,
        text_dim: 32,
    }
}

struct JobOut {
    job_s: f64,
    windows: usize,
    /// Seconds of each append's live selection.
    serve_s: Vec<f64>,
    latencies_ms: Vec<f64>,
    deploy_s: Vec<f64>,
    drift_signals: usize,
    retrains: usize,
    quality: f64,
    digest: u64,
}

pub fn run(args: &Args, dir: &Path) -> Result<Report, String> {
    let sz = sizes(args);
    let seed = mix(args.seed, 3, 0);
    let data = streams(&sz, seed);
    let names: Vec<String> = (0..sz.streams).map(|k| format!("s{k}")).collect();
    let io = |e: std::io::Error| e.to_string();

    let started = now();
    let mut report = Report::default();
    let mut e2e = Samples::default();
    let mut layers = Samples::default();
    let mut appends = 0;
    let mut deploys = Vec::new();
    // Every untraced append's live selection, pooled for sel_per_s.
    let mut serve_s: Vec<f64> = Vec::new();
    let mut reference: Option<(u64, f64)> = None;
    let mut rep = 0;
    while args.keep_going(started, rep, 2) {
        let mut tracer = Tracer::new(args.trace && rep % 2 == 1);
        let store_dir = dir.join(format!("rep{rep}"));

        // Set-up: bootstrap a fresh daemon until v1 is live.
        let t = now();
        let store = SelectorStore::open(&store_dir).map_err(io)?;
        let engine = Arc::new(SelectorEngine::with_window_cache(4 * sz.streams));
        let mut daemon = RetrainDaemon::new(
            Arc::clone(&engine),
            store,
            Box::new(ShapeOracle),
            daemon_config(&sz, seed),
        );
        for c in 0..sz.history / sz.chunk {
            for (name, x) in names.iter().zip(&data) {
                daemon
                    .ingest(name, &x[c * sz.chunk..(c + 1) * sz.chunk])
                    .map_err(io)?;
                daemon.step().map_err(io)?;
            }
        }
        daemon.run_pending().map_err(io)?;
        let setup_s = secs(t);
        if daemon.version() != 1 || engine.get(SELECTOR).is_none() {
            return Err(format!(
                "bootstrap ended at version {} without v1 live",
                daemon.version()
            ));
        }

        let probe_store = SelectorStore::open(&store_dir).map_err(io)?;
        let cache = Arc::clone(engine.window_cache().expect("engine has a cache"));
        let before = cache.stats();
        let out = job(
            &sz,
            &names,
            &data,
            &mut daemon,
            &engine,
            &probe_store,
            &mut tracer,
        )?;
        let after = cache.stats();
        drop(daemon);
        let _ = std::fs::remove_dir_all(&store_dir);
        report.attempted += out.latencies_ms.len() as u64;

        // Gate: replaying the same log deploys the same versions and
        // serves the same final selections.
        match reference {
            None => {
                eprintln!(
                    "stream gate: digest={:016x} auc_pr={} retrains={} drift_signals={}",
                    out.digest, out.quality, out.retrains, out.drift_signals
                );
                reference = Some((out.digest ^ u64::from(args.break_gate), out.quality));
            }
            Some((digest, quality)) => {
                if out.digest != digest || out.quality.to_bits() != quality.to_bits() {
                    return Err(format!(
                        "rep {rep}: replay digest {:016x} differs from {digest:016x}",
                        out.digest
                    ));
                }
            }
        }
        if out.deploy_s.is_empty() {
            return Err("the job's level shifts deployed no retrain".into());
        }

        if tracer.on() {
            let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
            let mut totals = tracer.take();
            for name in ["store.save_s", "store.load_s"] {
                if let Some(v) = totals.get_mut(name) {
                    *v /= out.deploy_s.len() as f64;
                }
            }
            layers.extend(totals);
            layers.push(
                "stream.cache.hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
            );
            layers.push("drift.signals", out.drift_signals as f64);
            layers.push("retrains", out.retrains as f64);
            layers.push("traced_job_s", out.job_s);
        } else {
            e2e.push("setup_s", setup_s);
            e2e.push("job_s", out.job_s);
            e2e.push("win_per_s", out.windows as f64 / out.job_s);
            serve_s.extend(&out.serve_s);
            e2e.push("p50_ms", percentile(&out.latencies_ms, 50.0));
            e2e.push("p99_ms", percentile(&out.latencies_ms, 99.0));
            appends += out.latencies_ms.len();
            deploys.extend(out.deploy_s);
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
        report.set("deploy_s", median(&deploys));
        report.set("sel_per_s", 1.0 / trimmed_mean(&serve_s));
        report.set("auc_pr", reference.map_or(0.0, |(_, q)| q));
        report.set("peak_rss_mb", peak_rss_mb());
        eprintln!(
            "stream: {rep} reps, {appends} appends; p50/p99 per rep over {}; deploy_s over {} retrains",
            sz.rounds * sz.appends * sz.streams,
            deploys.len()
        );
    }
    Ok(report)
}

/// The replay: each append is ingested, the daemon steps one epoch, and
/// the live stream is served through the engine.
fn job(
    sz: &Sizes,
    names: &[String],
    data: &[Vec<f64>],
    daemon: &mut RetrainDaemon,
    engine: &SelectorEngine,
    probe_store: &SelectorStore,
    tracer: &mut Tracer,
) -> Result<JobOut, String> {
    let io = |e: std::io::Error| e.to_string();
    let mut out = JobOut {
        job_s: 0.0,
        windows: 0,
        serve_s: Vec::with_capacity(sz.rounds * sz.appends * names.len()),
        latencies_ms: Vec::new(),
        deploy_s: Vec::new(),
        drift_signals: 0,
        retrains: 0,
        quality: 0.0,
        digest: 0,
    };
    let mut digest = Digest::new();
    let mut drift_at: Option<Stamp> = None;
    let mut quality = 0.0;
    let t_job = now();
    for a in 0..sz.rounds * sz.appends {
        let start = sz.history + a * sz.chunk;
        for (name, x) in names.iter().zip(data) {
            let chunk = &x[start..start + sz.chunk];
            let t = now();
            let mut events = tracer
                .span("daemon.ingest_s", || daemon.ingest(name, chunk))
                .map_err(io)?;
            events.extend(tracer.span("daemon.step_s", || daemon.step()).map_err(io)?);
            let t_serve = now();
            let live = daemon.ingestor().snapshot(name).ok_or("stream vanished")?;
            let selection = engine
                .select_batch(SELECTOR, std::slice::from_ref(&live))
                .map_err(|e| format!("serve {name}: {e:?}"))?;
            if selection.len() != 1 {
                return Err(format!("serve {name}: {} selections for one series", selection.len()));
            }
            out.serve_s.push(secs(t_serve));
            out.latencies_ms.push(secs(t) * 1e3);

            out.windows +=
                grid_windows(start + sz.chunk, &sz.window) - grid_windows(start, &sz.window);
            quality += ShapeOracle.perf_row(&live)[selection[0].model.index()];
            for event in &events {
                match event {
                    DaemonEvent::Drift(_) => out.drift_signals += 1,
                    DaemonEvent::RetrainStarted { .. } => {
                        out.retrains += 1;
                        drift_at = Some(t);
                    }
                    DaemonEvent::Deployed { version, .. } => {
                        if let Some(t_drift) = drift_at.take() {
                            out.deploy_s.push(secs(t_drift));
                        }
                        digest.u64(u64::from(*version));
                        digest.u64(a as u64);
                        if tracer.on() {
                            let name = format!("{SELECTOR}-v{version}");
                            let model = tracer
                                .span("store.load_s", || probe_store.load(&name))
                                .map_err(io)?;
                            tracer
                                .span("store.save_s", || probe_store.save("probe", &model, ""))
                                .map_err(io)?;
                        }
                    }
                    DaemonEvent::EpochCompleted { .. } => {}
                }
            }
        }
    }
    out.job_s = secs(t_job);
    for name in names {
        let live = daemon.ingestor().snapshot(name).ok_or("stream vanished")?;
        for sel in engine
            .select_batch(SELECTOR, &[live])
            .map_err(|e| format!("serve {name}: {e:?}"))?
        {
            digest.u64(sel.model.index() as u64);
            for v in sel.votes {
                digest.u64(v as u64);
            }
        }
    }
    out.quality = quality / out.latencies_ms.len() as f64;
    digest.u64(out.quality.to_bits());
    out.digest = digest.finish();
    Ok(out)
}
