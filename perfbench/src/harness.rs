//! What every workload shares: arguments, the metric catalogue and result
//! line, the in-memory span tracer, order statistics, digests and the
//! host fingerprint.

use std::collections::BTreeMap;
use tsad_models::ModelId;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `tiny` shrinks every input so the harness itself can be checked in
    /// seconds; `full` is the measured size.
    pub tiny: bool,
    /// Corrupts the workload's reference answer, so the correctness gate
    /// must fail the run (the harness smoke check uses this).
    pub break_gate: bool,
}

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10.0,
            trace: false,
            tiny: false,
            break_gate: false,
        };
        let value = |flag: &str, it: &mut dyn Iterator<Item = String>| {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--workload" => args.workload = value(&flag, &mut it)?,
                "--seed" => {
                    args.seed = value(&flag, &mut it)?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    args.seconds = value(&flag, &mut it)?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => {
                    args.trace = match value(&flag, &mut it)?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                    }
                }
                "--scale" => {
                    args.tiny = match value(&flag, &mut it)?.as_str() {
                        "full" => false,
                        "tiny" => true,
                        other => {
                            return Err(format!("--scale must be full or tiny, not {other:?}"))
                        }
                    }
                }
                "--break-gate" => args.break_gate = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if args.workload.is_empty() {
            return Err("--workload is required".into());
        }
        if !(args.seconds > 0.0 && args.seconds.is_finite()) {
            return Err("--seconds must be positive".into());
        }
        Ok(args)
    }

    /// Repetitions of a workload's set-up + job: at least `min`, then
    /// another only while it is expected to end within `--seconds`. In a
    /// traced run the reps alternate untraced/traced, so each side needs
    /// `min` of its own.
    pub fn keep_going(&self, started: Stamp, done: usize, min: usize) -> bool {
        let min = if self.trace { 2 * min } else { min };
        let elapsed = secs(started);
        done < min || elapsed + elapsed / done as f64 <= self.seconds
    }
}

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("job_s", "s"),
    ("win_per_s", "1/s"),
    ("sel_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("deploy_s", "s"),
    ("auc_pr", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics other than the 12 `labels.<model>_s` detector times,
/// reported with `--trace 1`.
const PER_LAYER: [(&str, &str); 21] = [
    ("dataset.build_s", "s"),
    ("train.session_new_s", "s"),
    ("train.epoch_s", "s"),
    ("train.examined", "count"),
    ("prune.kept_frac", "ratio"),
    ("eval.s", "s"),
    ("tsdata.window_s", "s"),
    ("nn.score_s", "s"),
    ("engine.select_s", "s"),
    ("queue.overhead_s", "s"),
    ("cache.hit_ratio", "ratio"),
    ("queue.coalesced_frac", "ratio"),
    ("queue.rejected", "count"),
    ("daemon.ingest_s", "s"),
    ("daemon.step_s", "s"),
    ("store.save_s", "s"),
    ("store.load_s", "s"),
    ("stream.cache.hit_ratio", "ratio"),
    ("drift.signals", "count"),
    ("retrains", "count"),
    ("trace.overhead_s", "s"),
];

/// The per-layer metric catalogue, in reporting order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = ModelId::ALL
        .iter()
        .map(|m| (label_metric(*m), "s"))
        .collect();
    all.extend(PER_LAYER.iter().map(|(n, u)| (n.to_string(), *u)));
    all
}

/// Per-layer metric name of one detector's labelling time.
pub fn label_metric(m: ModelId) -> String {
    format!("labels.{}_s", m.name())
}

/// One run's result.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// The result line. A per-layer metric a workload does not exercise
    /// reads 0 (no time spent in that layer); an end-to-end metric must be
    /// reported by every workload.
    pub fn to_json(&self, trace: bool) -> String {
        let catalogue: Vec<(String, &str)> = if trace {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), *u))
                .collect()
        };
        let fields: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let value = match self.metrics.get(name) {
                    Some(v) => *v,
                    None if trace => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                assert!(value.is_finite(), "metric {name} is not finite: {value}");
                format!("{name:?}: {{\"value\": {value}, \"unit\": {unit:?}}}")
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(", ")
        )
    }
}

/// In-memory span totals for the traced run: the benchmark times its own
/// calls into each module's public functions, so nothing inside the
/// program changes. Disabled, a span is a plain call.
pub struct Tracer {
    on: bool,
    totals: BTreeMap<String, f64>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            totals: BTreeMap::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t = now();
        let r = f();
        self.add(name, secs(t));
        r
    }

    /// Adds a span timed elsewhere (e.g. on a pool worker).
    pub fn add(&mut self, name: &str, secs: f64) {
        if !self.on {
            return;
        }
        *self.totals.entry(name.to_string()).or_insert(0.0) += secs;
    }

    /// Total seconds per span name since the last call.
    pub fn take(&mut self) -> BTreeMap<String, f64> {
        std::mem::take(&mut self.totals)
    }
}

/// Per-metric samples, one per traced repetition, reported as medians.
#[derive(Default)]
pub struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &str, v: f64) {
        self.0.entry(name.to_string()).or_default().push(v);
    }

    pub fn extend(&mut self, totals: BTreeMap<String, f64>) {
        for (name, v) in totals {
            self.push(&name, v);
        }
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// Every metric's median into the report. Each repetition's value
    /// goes to stderr too, so a run's spread can be read after it.
    pub fn report_medians(&self, report: &mut Report) {
        for (name, v) in &self.0 {
            report.set(name, median(v));
            let reps: Vec<String> = v.iter().map(|x| format!("{x:.6e}")).collect();
            eprintln!("reps {name} {}", reps.join(" "));
        }
    }
}

/// Median (mean of the middle two for even counts); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Mean of the middle 80% of `v` (a tenth dropped at each end); 0 when
/// empty. For timings of sub-second operations pooled over a whole run:
/// the host switches between a fast and a slow speed for seconds at a
/// time, which flips a median between the two, while this moves with the
/// share of the run spent in each.
pub fn trimmed_mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let k = s.len() / 10;
    let mid = &s[k..s.len() - k];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Nearest-rank percentile `p` in (0, 100].
pub fn percentile(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// A wall-clock reading. The benchmark reads the clock only through
/// `now` and `secs`, and only to report timings: no input, output or
/// correctness gate depends on it.
#[derive(Clone, Copy)]
// kdlint: allow(wallclock): benchmark timing only, never data
pub struct Stamp(std::time::Instant);

pub fn now() -> Stamp {
    Stamp(std::time::Instant::now()) // kdlint: allow(wallclock): benchmark timing only, never data
}

/// Seconds since `t`.
pub fn secs(t: Stamp) -> f64 {
    t.0.elapsed().as_secs_f64()
}

/// 64-bit FNV-1a, fed field by field.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f32s(&mut self, v: &[f32]) {
        for x in v {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Seed of one generated input, mixed from the run seed and indices
/// (splitmix64 finaliser).
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut x = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xD1B5_4A32_D192_ED03));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Peak resident set of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Resident set of this process now (VmRSS), in MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Resets the kernel's peak-RSS mark to the current resident set, so a
/// later `peak_rss_mb` covers only what runs after this call.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset peak RSS: {e}"))
}

fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Prints the host fingerprint line: cores, the compute width actually
/// used, CPU model, compiler and source revision (the last two are passed
/// in by `run.py`), and whether kdprof span timing is compiled in.
pub fn print_host(nproc: usize) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    println!(
        "host {{\"nproc\": {nproc}, \"threads\": {}, \"cpu\": {cpu:?}, \"rustc\": {:?}, \
         \"git_sha\": {:?}, \"kdprof_timing\": {}}}",
        tspar::threads(),
        env("PERFBENCH_RUSTC"),
        env("PERFBENCH_GIT_SHA"),
        kdprof::timing_enabled()
    );
}
