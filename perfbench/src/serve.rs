//! `serve`: online selection through the queued front-end.
//!
//! Set-up is a replica cold start: load a ConvNet selector from a
//! `SelectorStore` into a fresh engine with a `WindowCache`, start a
//! `ServeQueue`, and prime the cache by serving the hot set once. The job
//! is a closed loop from one client thread with a fixed in-flight window,
//! so the coalescer groups requests. Requests carry 1-8 series, about
//! half from the hot set (cache hits) and half never seen before (misses).
//! Every 32 requests a helper thread redeploys the selector from the
//! store under traffic. Windowing, scoring, the cache and the queue do the
//! work; detectors and training do none.

use crate::harness::{
    median, mix, now, peak_rss_mb, percentile, reset_peak_rss, rss_mb, secs, trimmed_mean, Args,
    Report, Samples, Stamp, Tracer,
};
use crate::oracle::ShapeOracle;
use kdselector_core::arch::Architecture;
use kdselector_core::dataset::SelectorDataset;
use kdselector_core::labels::PerfMatrix;
use kdselector_core::manage::SelectorStore;
use kdselector_core::serve::{
    QueueConfig, SelectRequest, Selection, SelectorEngine, ServeQueue, Ticket,
};
use kdselector_core::stream::LabelOracle;
use kdselector_core::train::{TrainConfig, TrainSession, TrainedSelector};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;
use tsdata::benchmark::generate_series;
use tsdata::{all_families, extract_windows, TimeSeries, WindowConfig};
use tstext::FrozenTextEncoder;

const SELECTOR: &str = "convnet";

struct Sizes {
    window: WindowConfig,
    series_len: usize,
    /// Hot-set series per dataset family (16 families).
    hot_per_family: usize,
    /// Hot-set series the served selector was trained on.
    trained_on: usize,
    /// Requests per job.
    requests: usize,
    /// Requests the client keeps in flight.
    in_flight: usize,
    cache_entries: usize,
    /// Requests between two redeploys of the served selector, which a
    /// helper thread loads from the store and hot-swaps in under traffic.
    redeploy_every: usize,
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
            series_len: 256,
            hot_per_family: 1,
            trained_on: 16,
            requests: 48,
            in_flight: 4,
            cache_entries: 64,
            redeploy_every: 16,
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
        series_len: 1024,
        // Priming a replica on this hot set is the cold start's real work.
        hot_per_family: 32,
        trained_on: 128,
        // p99 of one job then has ten samples beyond it.
        requests: 1000,
        // One in flight never groups; eight pushed p99 to 17-22 ms.
        in_flight: 4,
        // Room for the hot set plus every miss inserted between two
        // reads of a hot series, so hot entries are never evicted.
        cache_entries: 2048,
        // About 30 redeploys a job, spread over it: one load takes under a
        // millisecond, so `deploy_s` pools every redeploy of the run.
        redeploy_every: 32,
        width: 8,
        epochs: 6,
    }
}

struct Script {
    hot: Vec<TimeSeries>,
    /// Each request's series, materialised once.
    batches: Vec<Vec<TimeSeries>>,
    /// Direct uncached `select_batch` answers, the reference every queued
    /// answer must equal bitwise.
    expected: Vec<Vec<Selection>>,
    expected_hot: Vec<Selection>,
    auc_pr: f64,
}

fn series(sz: &Sizes, seed: u64, pool: u64, i: usize) -> TimeSeries {
    let families = all_families();
    let family = &families[i % families.len()];
    generate_series(
        family,
        sz.series_len,
        mix(seed, pool, i as u64),
        &format!("{}-{pool}-{i:05}", family.name),
    )
}

/// Seeded Fisher-Yates shuffle.
fn shuffle<T>(v: &mut [T], seed: u64) {
    for i in (1..v.len()).rev() {
        v.swap(i, mix(seed, i as u64, 0) as usize % (i + 1));
    }
}

/// Trains the served selector on the hot set (oracle labels) and saves it.
fn train_selector(
    sz: &Sizes,
    seed: u64,
    hot: &[TimeSeries],
    store: &SelectorStore,
) -> std::io::Result<()> {
    let perf = PerfMatrix {
        series_ids: hot.iter().map(|s| s.id.clone()).collect(),
        rows: hot.iter().map(|s| ShapeOracle.perf_row(s)).collect(),
    };
    let dataset = SelectorDataset::build(hot, &perf, sz.window, &FrozenTextEncoder::new(32, seed));
    let cfg = TrainConfig {
        arch: Architecture::ConvNet,
        width: sz.width,
        epochs: sz.epochs,
        seed,
        ..TrainConfig::default()
    };
    let mut session = TrainSession::new(&dataset, &cfg);
    session.run_to_completion(&dataset);
    store.save(SELECTOR, &session.finish().0, "perfbench serve replica")
}

fn script(
    sz: &Sizes,
    seed: u64,
    direct: &SelectorEngine,
    hot: Vec<TimeSeries>,
) -> Result<Script, String> {
    // Every seed gets the same mix: each size 1-8 equally often and
    // exactly half the series hot, in a seeded order.
    let mut sizes: Vec<usize> = (0..sz.requests).map(|r| 1 + r % 8).collect();
    shuffle(&mut sizes, mix(seed, 3, 0));
    let slots: usize = sizes.iter().sum();
    let mut is_hot: Vec<bool> = (0..slots).map(|k| k % 2 == 0).collect();
    shuffle(&mut is_hot, mix(seed, 4, 0));
    let mut slot = 0;
    let mut fresh = 0;
    let mut batches = Vec::with_capacity(sz.requests);
    for size in sizes {
        let mut batch = Vec::with_capacity(size);
        for _ in 0..size {
            batch.push(if is_hot[slot] {
                hot[mix(seed, 6, slot as u64) as usize % hot.len()].clone()
            } else {
                fresh += 1;
                series(sz, seed, 1, fresh)
            });
            slot += 1;
        }
        batches.push(batch);
    }
    let select = |batch: &[TimeSeries]| {
        direct
            .select_batch(SELECTOR, batch)
            .map_err(|e| format!("direct select_batch: {e:?}"))
    };
    let expected = batches
        .iter()
        .map(|b| select(b))
        .collect::<Result<Vec<_>, _>>()?;
    let expected_hot = select(&hot)?;
    let (mut score, mut n) = (0.0, 0usize);
    for (batch, sels) in batches.iter().zip(&expected) {
        for (ts, sel) in batch.iter().zip(sels) {
            score += ShapeOracle.perf_row(ts)[sel.model.index()];
            n += 1;
        }
    }
    Ok(Script {
        hot,
        batches,
        expected,
        expected_hot,
        auc_pr: score / n as f64,
    })
}

struct JobOut {
    job_s: f64,
    latencies_ms: Vec<f64>,
    selections: usize,
    windows: usize,
    attempted: u64,
    failed: u64,
}

/// The closed loop: keep `in_flight` requests submitted, wait for the
/// oldest, check it against the direct answer, submit the next. Each
/// request is built from its script batch just before it is submitted,
/// so only the requests in flight hold a copy of their series.
/// `submitted(r)` runs after request `r` is submitted and must not block.
fn closed_loop(
    queue: &ServeQueue,
    script: &Script,
    in_flight: usize,
    tracer: &mut Tracer,
    submitted: &mut dyn FnMut(usize),
) -> Result<JobOut, String> {
    let expected = &script.expected;
    let mut out = JobOut {
        job_s: 0.0,
        latencies_ms: Vec::with_capacity(script.batches.len()),
        selections: 0,
        windows: 0,
        attempted: 0,
        failed: 0,
    };
    let mut pending: VecDeque<(usize, Stamp, Ticket)> = VecDeque::with_capacity(in_flight);
    let mut complete = |(r, t, ticket): (usize, Stamp, Ticket), out: &mut JobOut| {
        match ticket.wait() {
            Ok(sels) => {
                let latency = secs(t);
                tracer.add("queue.request_s", latency);
                out.latencies_ms.push(latency * 1e3);
                if sels != expected[r] {
                    return Err(format!(
                        "request {r}: queued selections differ from direct select_batch"
                    ));
                }
                out.selections += sels.len();
                out.windows += sels.iter().map(|s| s.windows).sum::<usize>();
            }
            Err(_) => out.failed += 1,
        }
        Ok(())
    };
    let t_job = now();
    for (r, batch) in script.batches.iter().enumerate() {
        if pending.len() == in_flight {
            let oldest = pending.pop_front().expect("window is full");
            complete(oldest, &mut out)?;
        }
        out.attempted += 1;
        let request = SelectRequest::new(SELECTOR, batch.clone());
        let t = now();
        match queue.submit(request) {
            Ok(ticket) => pending.push_back((r, t, ticket)),
            Err(_) => out.failed += 1,
        }
        submitted(r);
    }
    while let Some(p) = pending.pop_front() {
        complete(p, &mut out)?;
    }
    out.job_s = secs(t_job);
    Ok(out)
}

fn queue_config() -> QueueConfig {
    QueueConfig {
        max_depth: 1024,
        max_batch: 64,
    }
}

/// Layer probes on the request mix, each timed alone: windowing, NN
/// scoring of pre-extracted windows, the direct engine, and the queue in
/// front of the same uncached engine.
fn probe_layers(
    sz: &Sizes,
    script: &Script,
    model: &TrainedSelector,
    direct: &Arc<SelectorEngine>,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let mut windows = Vec::with_capacity(script.batches.len());
    let t = now();
    for batch in &script.batches {
        let w: Vec<Vec<f32>> = batch
            .iter()
            .enumerate()
            .flat_map(|(i, ts)| extract_windows(ts, i, &sz.window))
            .map(|w| w.values)
            .collect();
        windows.push(w);
    }
    tracer.add("tsdata.window_s", secs(t));
    let t = now();
    for w in &windows {
        std::hint::black_box(model.predict_logits(w));
    }
    tracer.add("nn.score_s", secs(t));
    let t = now();
    for batch in &script.batches {
        std::hint::black_box(
            direct
                .select_batch(SELECTOR, batch)
                .map_err(|e| format!("{e:?}"))?,
        );
    }
    let direct_s = secs(t);
    tracer.add("engine.select_s", direct_s);
    let queue = ServeQueue::new(Arc::clone(direct), queue_config());
    let mut scratch = Tracer::new(false);
    let queued = closed_loop(&queue, script, sz.in_flight, &mut scratch, &mut |_| {});
    queue.shutdown();
    tracer.add("queue.overhead_s", queued?.job_s - direct_s);
    Ok(())
}

pub fn run(args: &Args, dir: &Path) -> Result<Report, String> {
    let sz = sizes(args);
    let seed = mix(args.seed, 2, 0);
    let io = |e: std::io::Error| e.to_string();

    // Prologue (not timed): the replica's artifact and the request script.
    let store = SelectorStore::open(dir).map_err(io)?;
    let n_hot = 16 * sz.hot_per_family;
    let hot: Vec<TimeSeries> = (0..n_hot).map(|i| series(&sz, seed, 0, i)).collect();
    train_selector(&sz, seed, &hot[..sz.trained_on], &store).map_err(io)?;
    let direct = Arc::new(SelectorEngine::new());
    direct.load(&store, SELECTOR, sz.window).map_err(io)?;
    let mut script = script(&sz, seed, &direct, hot)?;
    if args.break_gate {
        script.expected[0][0].votes[0] += 1;
    }
    let probe_model = store.load(SELECTOR).map_err(io)?;
    eprintln!(
        "serve: {} hot series, {} requests, {} series per job, auc_pr={}",
        script.hot.len(),
        script.batches.len(),
        script.batches.iter().map(Vec::len).sum::<usize>(),
        script.auc_pr
    );

    // The script stays resident all run; serving memory is what the
    // process holds beyond it.
    reset_peak_rss()?;
    let rss_before_serving = rss_mb();

    let started = now();
    let mut report = Report::default();
    let mut e2e = Samples::default();
    let mut layers = Samples::default();
    let mut requests_timed = 0;
    // Every redeploy of the untraced jobs, pooled for deploy_s.
    let mut loads: Vec<f64> = Vec::new();
    let mut rep = 0;
    while args.keep_going(started, rep, 3) {
        let mut tracer = Tracer::new(args.trace && rep % 2 == 1);

        // Set-up: a replica cold start.
        let t = now();
        let engine = Arc::new(SelectorEngine::with_window_cache(sz.cache_entries));
        engine.load(&store, SELECTOR, sz.window).map_err(io)?;
        let queue = ServeQueue::new(Arc::clone(&engine), queue_config());
        let primed = engine
            .select_batch(SELECTOR, &script.hot)
            .map_err(|e| format!("prime: {e:?}"))?;
        let setup_s = secs(t);
        if primed != script.expected_hot {
            return Err("primed hot-set selections differ from direct select_batch".into());
        }
        let cache = Arc::clone(engine.window_cache().expect("engine has a cache"));
        let before = cache.stats();

        // The job, with the selector redeployed under traffic: the client
        // signals a helper thread, which loads the same artifact from the
        // store and hot-swaps it in while requests keep flowing.
        let (out, redeploys) = std::thread::scope(|scope| {
            let (signal, redeploy) = std::sync::mpsc::channel::<()>();
            let loader = scope.spawn(|| {
                let mut took = Vec::new();
                for () in redeploy {
                    let t = now();
                    engine.load(&store, SELECTOR, sz.window)?;
                    took.push(secs(t));
                }
                Ok::<_, std::io::Error>(took)
            });
            let half = sz.redeploy_every / 2;
            let out = closed_loop(&queue, &script, sz.in_flight, &mut tracer, &mut |r| {
                if r % sz.redeploy_every == half {
                    let _ = signal.send(());
                }
            });
            drop(signal);
            (out, loader.join().expect("redeploy thread panicked"))
        });
        let stats = queue.stats();
        queue.shutdown();
        let out = out?;
        let redeploys = redeploys.map_err(io)?;
        report.attempted += out.attempted;
        report.failed += out.failed;

        if tracer.on() {
            let after = cache.stats();
            let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
            probe_layers(&sz, &script, &probe_model, &direct, &mut tracer)?;
            // The job's per-request spans are what tracing costs here;
            // the layer numbers come from the probes.
            let mut totals = tracer.take();
            totals.remove("queue.request_s");
            layers.extend(totals);
            layers.push(
                "cache.hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
            );
            layers.push(
                "queue.coalesced_frac",
                stats.coalesced as f64 / stats.served.max(1) as f64,
            );
            layers.push("queue.rejected", stats.rejected as f64);
            layers.push("traced_job_s", out.job_s);
        } else {
            e2e.push("setup_s", setup_s);
            e2e.push("job_s", out.job_s);
            loads.extend(redeploys);
            e2e.push("sel_per_s", out.selections as f64 / out.job_s);
            e2e.push("win_per_s", out.windows as f64 / out.job_s);
            e2e.push("p50_ms", percentile(&out.latencies_ms, 50.0));
            e2e.push("p99_ms", percentile(&out.latencies_ms, 99.0));
            requests_timed += out.latencies_ms.len();
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
        report.set("deploy_s", trimmed_mean(&loads));
        report.set("auc_pr", script.auc_pr);
        report.set("peak_rss_mb", peak_rss_mb() - rss_before_serving);
        eprintln!(
            "serve: {rep} reps, {requests_timed} requests; p50/p99 per rep over {} requests",
            sz.requests
        );
    }
    Ok(report)
}
