//! `perfbench --workload <cold_record|warm_sweep|service_mix> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Runs one workload from the repository root, checks its results, prints
//! every metric with its unit (end-to-end metrics untraced, per-layer
//! metrics with `--trace 1`) and ends standard output with a one-line JSON
//! summary. Exits non-zero when any correctness check fails.
//!
//! `perfbench serve --socket <path> --store <dir>` is the daemon process
//! the `service_mix` workload starts: a `grasp-serve` server, as
//! `cargo xtask serve` runs it, admitting `service::MAX_CAMPAIGNS`
//! campaigns at a time.

use grasp_core::json::Json;
use perfbench::report::Report;
use perfbench::spans::self_times;
use perfbench::{library, meta, service};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Where runs leave their result files and scratch data, relative to the
/// directory the benchmark runs from.
const OUT_DIR: &str = ".bench_out";

const USAGE: &str = "usage: perfbench --workload <cold_record|warm_sweep|service_mix> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.windows(2)
        .find(|pair| pair[0] == name)
        .map(|pair| pair[1].as_str())
}

fn parse(args: &[String]) -> Result<Args, String> {
    let get = |name: &str| flag(args, name).ok_or_else(|| format!("missing {name}"));
    let workload = get("--workload")?.to_owned();
    if !["cold_record", "warm_sweep", "service_mix"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn serve(args: &[String]) -> ExitCode {
    let (Some(socket), Some(store)) = (flag(args, "--socket"), flag(args, "--store")) else {
        eprintln!("usage: perfbench serve --socket <path> --store <dir>");
        return ExitCode::from(2);
    };
    let mut config = grasp_serve::ServeConfig::new(socket);
    config.store = Some(PathBuf::from(store));
    config.max_campaigns = service::MAX_CAMPAIGNS;
    let outcome = grasp_serve::Server::bind(config)
        .map_err(|e| e.to_string())
        .and_then(|server| server.run().map_err(|e| e.to_string()));
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Worker threads for campaigns, ingest and the library references: the
/// machine's parallelism, capped at the two workers the service workload's
/// daemon runs (two campaigns of one thread each).
fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(service::MAX_CAMPAIGNS)
}

fn run(args: &Args, work: &Path) -> Result<Report, String> {
    let workers = workers();
    match args.workload.as_str() {
        "cold_record" | "warm_sweep" => {
            let workload = if args.workload == "cold_record" {
                library::Workload::ColdRecord
            } else {
                library::Workload::WarmSweep
            };
            let settings = library::Settings::standard(
                workload,
                args.seed,
                args.seconds,
                args.trace,
                workers,
                work,
            );
            library::run(workload, &settings)
        }
        _ => {
            let settings =
                service::Settings::standard(args.seed, args.seconds, args.trace, workers, work);
            service::run(&settings)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        return serve(&argv[1..]);
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Pin every environment input that could change results or thread
    // counts; the campaigns and ingest calls get explicit values instead.
    for var in service::PINNED_ENV {
        std::env::remove_var(var);
    }
    let meta = meta::metadata(args.seed, workers());
    let work = Path::new(OUT_DIR).join(format!("work-{}-{}", args.workload, std::process::id()));
    let outcome = std::fs::create_dir_all(&work)
        .map_err(|e| format!("create {}: {e}", work.display()))
        .and_then(|()| run(&args, &work));
    std::fs::remove_dir_all(&work).ok();
    let mut report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    println!(
        "# perfbench {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("# meta {meta}");
    print!("{}", report.table());
    if !report.spans.is_empty() {
        let totals = self_times(&report.spans);
        for (name, seconds) in &totals {
            println!("# self_time {name:<36} {seconds:.6} s");
        }
        report.detail(
            "self_time_s",
            Json::Object(
                totals
                    .into_iter()
                    .map(|(name, s)| (name, Json::Number(s)))
                    .collect(),
            ),
        );
    }
    if let Some(fp) = report.details.get("fingerprint") {
        println!("# fingerprint {}", fp.as_str().unwrap_or("?"));
    }
    for failure in &report.failures {
        println!("# FAILED {failure}");
    }
    let file = Path::new(OUT_DIR).join(format!(
        "{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    ));
    if let Err(e) = std::fs::write(&file, format!("{}\n", report.full(meta))) {
        eprintln!("perfbench: cannot write {}: {e}", file.display());
    }
    println!("{}", report.summary());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
