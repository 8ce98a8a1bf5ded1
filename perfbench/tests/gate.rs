//! The correctness gate on a held-out seed (one not used while the
//! benchmark was tuned), at a reduced size: every workload's untraced and
//! traced paths must pass every check, and a seed must fix the simulated
//! results exactly.

use grasp_core::policy::PolicyKind;
use perfbench::report::Report;
use perfbench::{inputs, library, service, COLD_POLICIES};
use std::path::PathBuf;

const HELD_OUT_SEED: u64 = 0x05ee_d0ff;

fn work(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("gate-{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create work dir");
    dir
}

fn exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_perfbench"))
}

fn library_settings(seed: u64, trace: bool, tag: &str) -> library::Settings {
    library::Settings {
        seed,
        seconds: 0.0,
        trace,
        workers: 2,
        log2: 9,
        setups: 2,
        min_reps: 2,
        work: work(tag),
        exe: exe(),
    }
}

fn assert_passes(report: &Report, what: &str) {
    assert!(report.failures.is_empty(), "{what}: {:?}", report.failures);
    assert!(
        report.correct(),
        "{what}: a metric is not finite\n{}",
        report.table()
    );
    assert_eq!(report.failed, 0, "{what}");
    assert!(report.attempted > 0, "{what}");
}

fn fingerprint(report: &Report) -> String {
    report.details["fingerprint"]
        .as_str()
        .expect("fingerprint recorded")
        .to_owned()
}

#[test]
fn library_workloads_pass_the_gate_on_a_held_out_seed() {
    for (workload, tag) in [
        (library::Workload::ColdRecord, "cold"),
        (library::Workload::WarmSweep, "warm"),
    ] {
        for trace in [false, true] {
            let settings = library_settings(HELD_OUT_SEED, trace, &format!("{tag}-{trace}"));
            let report = library::run(workload, &settings).expect("runs");
            assert_passes(&report, &format!("{tag} trace={trace}"));
            let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
            let expected = if trace { "trace.overhead_s" } else { "setup_s" };
            assert!(names.contains(&expected), "{tag}: {names:?}");
        }
    }
}

#[test]
fn a_seed_fixes_the_simulated_results() {
    let run = |seed, tag| {
        let settings = library_settings(seed, false, tag);
        fingerprint(&library::run(library::Workload::ColdRecord, &settings).expect("runs"))
    };
    let first = run(HELD_OUT_SEED, "fp-a");
    assert_eq!(
        first,
        run(HELD_OUT_SEED, "fp-b"),
        "same seed, same fingerprint"
    );
    assert_ne!(
        first,
        run(HELD_OUT_SEED + 1, "fp-c"),
        "another seed, other graphs"
    );
}

#[test]
fn the_service_workload_passes_the_gate_on_a_held_out_seed() {
    for trace in [false, true] {
        let settings = service::Settings {
            seed: HELD_OUT_SEED,
            seconds: 0.0,
            trace,
            workers: 2,
            blocks: 1,
            min_rounds: 2,
            work: work(&format!("service-{trace}")),
            exe: exe(),
        };
        let report = service::run(&settings).expect("runs");
        assert_passes(&report, &format!("service trace={trace}"));
    }
}

#[test]
fn a_campaign_missing_a_cell_fails_the_grid_check() {
    let dir = work("grid");
    let graphs = inputs::library_graphs(HELD_OUT_SEED, 9);
    let ingested = inputs::ingest_graphs(&graphs, &dir, 2).expect("ingests");
    let full = library::campaign(&ingested, &COLD_POLICIES, 2).run();
    let part = library::campaign(&ingested, &[PolicyKind::Rrip], 2).run();
    assert!(library::same_grid(&full, &full).is_ok());
    assert!(
        library::same_cells(&part, &full).is_ok(),
        "a subset is checked cell by cell"
    );
    assert!(library::same_grid(&part, &full).is_err(), "missing cells");
    assert!(library::same_grid(&full, &part).is_err(), "extra cells");
}
