//! End-to-end benchmark of the KDSelector workspace.
//!
//! One process runs one workload (`learn`, `serve` or `stream`) for about
//! `--seconds` seconds, checks every output it times, and prints one JSON
//! result line last on stdout. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs the same job alternately with and without the
//! benchmark's own layer spans and reports the per-layer metrics. See
//! `perfbench/README.md` for what each workload and metric measures.

mod harness;
mod learn;
mod oracle;
mod serve;
mod stream;

use harness::{Args, Report};

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload learn|serve|stream --seed N --seconds S \
                 --trace 0|1 [--scale full|tiny] [--break-gate]"
            );
            std::process::exit(2);
        }
    };
    // Compute width pinned to the host's cores, the same in every run.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    tspar::set_parallelism(tspar::Parallelism::Fixed(nproc));
    // End-to-end numbers must come from a build without kdprof's span
    // timing: cargo feature unification could compile it in silently.
    if !args.trace && kdprof::timing_enabled() {
        eprintln!("perfbench: kdprof span timing is compiled in; end-to-end runs need it off");
        std::process::exit(1);
    }
    harness::print_host(nproc);

    let work_dir = std::path::PathBuf::from("perfbench-work").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    ));
    let result = match args.workload.as_str() {
        "learn" => learn::run(&args),
        "serve" => serve::run(&args, &work_dir),
        "stream" => stream::run(&args, &work_dir),
        other => Err(format!("unknown workload {other:?}")),
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir("perfbench-work");
    match result {
        Ok(report) => {
            let report: Report = report;
            println!("{}", report.to_json(args.trace));
        }
        Err(e) => {
            eprintln!("perfbench: {} FAILED: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
