//! The library workloads: `cold_record` and `warm_sweep`, each a
//! `Campaign::run_with_observer` call over two seeded, ingested graphs.

use crate::inputs::{self, Ingested};
use crate::probes::{self, ProbeReport};
use crate::report::{numbers, Kind, Report};
use crate::service;
use crate::spans::Tracer;
use crate::stats::median;
use crate::{
    event_census, fingerprint, grasp_speedup, meta, CellOutcome, COLD_POLICIES, FULL_GRID,
    LIBRARY_SCALE,
};
use grasp_analytics::apps::AppKind;
use grasp_core::campaign::{Campaign, CampaignResult, ExecutionMode};
use grasp_core::datasets::DatasetId;
use grasp_core::policy::PolicyKind;
use grasp_core::trace_store::TraceStore;
use grasp_core::Codec;
use grasp_graph::GraphView;
use grasp_reorder::TechniqueKind;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Which library workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// RRIP and GRASP over a fresh, empty trace store every repetition:
    /// record, encode and publish dominate.
    ColdRecord,
    /// All 13 policies against a store populated during set-up: load,
    /// decode and the LLC replay kernel dominate; nothing records.
    WarmSweep,
}

/// How a library run is sized. [`Settings::standard`] is what the
/// benchmark command uses; tests shrink the graphs and the timed phase.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Campaign worker threads (and ingest threads).
    pub workers: usize,
    /// log2 of each graph's vertex count.
    pub log2: u32,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Minimum timed repetitions (per side in a traced run).
    pub min_reps: usize,
    /// Scratch directory for graphs and stores (removed by the caller).
    pub work: PathBuf,
    /// The benchmark executable, started as the daemon by the traced run's
    /// service probe.
    pub exe: PathBuf,
}

impl Settings {
    /// The benchmark's standard sizing: two 2^13-vertex graphs, at least
    /// three repetitions, and nine set-ups for `cold_record` (ingest only)
    /// or seven for `warm_sweep` (ingest plus a cold campaign), so that the
    /// median set-up is steady across runs.
    pub fn standard(
        workload: Workload,
        seed: u64,
        seconds: f64,
        trace: bool,
        workers: usize,
        work: &Path,
    ) -> Self {
        Self {
            seed,
            seconds,
            trace,
            workers,
            log2: 13,
            setups: match workload {
                Workload::ColdRecord => 9,
                Workload::WarmSweep => 7,
            },
            min_reps: 3,
            work: work.to_path_buf(),
            exe: std::env::current_exe().unwrap_or_default(),
        }
    }
}

/// One prepared set of inputs.
struct Setup {
    seconds: f64,
    ingest_s: f64,
    ingested: Ingested,
    /// `warm_sweep` only: the populated store and the cold campaign that
    /// populated it (the RRIP/GRASP reference).
    warm: Option<(Arc<TraceStore>, CampaignResult)>,
}

/// The campaign both workloads time, over the ingested graphs.
pub fn campaign(ingested: &Ingested, policies: &[PolicyKind], workers: usize) -> Campaign {
    let ids: Vec<DatasetId> = ingested.hashes.iter().map(|&h| h.into()).collect();
    Campaign::new(LIBRARY_SCALE)
        .catalog(ingested.catalog.clone())
        .dataset_ids(&ids)
        .techniques(&[TechniqueKind::Dbg])
        .apps(&AppKind::ALL)
        .policies(policies)
        .execution(ExecutionMode::Pipelined)
        .threads(workers)
        .trace_codec(Codec::DeltaVarint)
}

fn prepare(
    workload: Workload,
    s: &Settings,
    index: usize,
    tracer: &Tracer,
) -> Result<Setup, String> {
    let dir = s.work.join(format!("setup{index}"));
    crate::fresh_dir(&dir)?;
    let start = Instant::now();
    let graphs = inputs::library_graphs(s.seed, s.log2);
    let (ingested, ingest_s) = tracer.time("graph.ingest", None, |_| {
        inputs::ingest_graphs(&graphs, &dir, s.workers)
    });
    let ingested = ingested?;
    let warm = match workload {
        Workload::ColdRecord => None,
        Workload::WarmSweep => {
            let store = Arc::new(
                TraceStore::open(dir.join("store")).map_err(|e| format!("open store: {e}"))?,
            );
            let cold = campaign(&ingested, &COLD_POLICIES, s.workers)
                .with_trace_store(Arc::clone(&store))
                .run();
            Some((store, cold))
        }
    };
    Ok(Setup {
        seconds: start.elapsed().as_secs_f64(),
        ingest_s,
        ingested,
        warm,
    })
}

/// One timed `Campaign::run_with_observer` call.
struct Rep {
    /// Seconds of the call.
    wall_s: f64,
    /// Seconds from the call to the first observer callback.
    first_cell_s: f64,
    /// The campaign's results.
    result: CampaignResult,
}

/// Times one campaign run; with an enabled tracer the run is a span and
/// each observer callback a child event.
fn timed_rep(campaign: &Campaign, tracer: &Tracer) -> Rep {
    let first: OnceLock<Instant> = OnceLock::new();
    let span = tracer.open("core.campaign.run_with_observer", None);
    let start = Instant::now();
    let result = campaign.run_with_observer(&|_, _| {
        let now = Instant::now();
        first.get_or_init(|| now);
        tracer.record("core.campaign.cell", span, now, now);
    });
    let wall_s = start.elapsed().as_secs_f64();
    tracer.close(span);
    let first_cell_s = first
        .get()
        .map_or(f64::NAN, |t| t.duration_since(start).as_secs_f64());
    Rep {
        wall_s,
        first_cell_s,
        result,
    }
}

/// Compares two campaign results that must hold the same cells: like
/// [`same_cells`], and neither may have a cell the other lacks.
pub fn same_grid(a: &CampaignResult, b: &CampaignResult) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!(
            "{} cells against {} in the reference",
            a.len(),
            b.len()
        ));
    }
    same_cells(a, b)
}

/// Compares two campaign results cell by cell on every simulated statistic,
/// the application output bits and the cycle estimate bits. Cells of
/// `subset` are looked up in `full` by coordinate, so a grid can be checked
/// against a larger one.
pub fn same_cells(subset: &CampaignResult, full: &CampaignResult) -> Result<(), String> {
    for run in subset.iter() {
        let c = run.cell;
        let other = full
            .get(c.dataset, c.technique, c.app, c.policy)
            .ok_or_else(|| format!("{c:?}: missing from the reference"))?;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        if run.result.stats != other.stats
            || run.result.cycles.to_bits() != other.cycles.to_bits()
            || bits(&run.result.app.values) != bits(&other.app.values)
            || run.result.app.iterations != other.app.iterations
        {
            return Err(format!(
                "{}/{}/{}: results differ",
                c.dataset, c.app, c.policy
            ));
        }
    }
    Ok(())
}

fn outcomes(result: &CampaignResult) -> Vec<CellOutcome> {
    result.iter().map(CellOutcome::of_run).collect()
}

/// Runs a library workload and reports its metrics.
pub fn run(workload: Workload, s: &Settings) -> Result<Report, String> {
    let mut report = Report::default();
    let traced = Tracer::new(s.trace);
    let untraced = Tracer::new(false);
    let setups = if s.trace { 1 } else { s.setups.max(1) };
    let mut prepared = Vec::new();
    for index in 0..setups {
        prepared.push(prepare(workload, s, index, &traced)?);
    }
    let setup_seconds: Vec<f64> = prepared.iter().map(|p| p.seconds).collect();
    let setup = prepared.pop().expect("at least one set-up");
    for other in &prepared {
        report.check(other.ingested.hashes == setup.ingested.hashes, || {
            "set-ups of one seed ingested different graphs".into()
        });
        if let (Some((_, a)), Some((_, b))) = (&other.warm, &setup.warm) {
            report.check(
                fingerprint(&outcomes(a)) == fingerprint(&outcomes(b)),
                || "set-ups of one seed populated different cold results".into(),
            );
        }
    }
    drop(prepared);
    let streams = setup.ingested.hashes.len() * AppKind::ALL.len();
    let (policies, store_dir): (&[PolicyKind], PathBuf) = match workload {
        Workload::ColdRecord => (&COLD_POLICIES, s.work.join("rep-store")),
        Workload::WarmSweep => (&FULL_GRID, PathBuf::new()),
    };
    // Cells the timed campaign must return, counted from its grid rather
    // than from what comes back.
    let expected = campaign(&setup.ingested, policies, s.workers).cells().len();
    if let Some((_, cold)) = &setup.warm {
        let grid = campaign(&setup.ingested, &COLD_POLICIES, s.workers).cells();
        report.check(cold.len() == grid.len(), || {
            format!(
                "the populating cold campaign returned {} of {} cells",
                cold.len(),
                grid.len()
            )
        });
    }

    // The Direct plan is the reference oracle of the cold grid; it runs
    // once, outside the timed repetitions.
    let oracle = match workload {
        Workload::ColdRecord => Some(
            campaign(&setup.ingested, &COLD_POLICIES, s.workers)
                .direct()
                .run(),
        ),
        Workload::WarmSweep => None,
    };

    // (traced, wall_s, first_cell_s) per repetition; only the latest
    // result stays alive, so repetitions do not inflate each other's peak
    // memory.
    let mut reps: Vec<(bool, f64, f64)> = Vec::new();
    let mut last: Option<CampaignResult> = None;
    let mut peaks = Vec::new();
    let mut store_bytes = Vec::new();
    let mut first_fingerprint = None;
    let phase = Instant::now();
    loop {
        let traced_so_far = reps.iter().filter(|r| r.0).count();
        let Some(use_trace) = crate::next_repetition(
            s.trace,
            traced_so_far,
            reps.len(),
            s.min_reps,
            phase,
            s.seconds,
        ) else {
            break;
        };
        let store = match &setup.warm {
            Some((store, _)) => Arc::clone(store),
            None => {
                crate::fresh_dir(&store_dir)?;
                Arc::new(TraceStore::open(&store_dir).map_err(|e| format!("open store: {e}"))?)
            }
        };
        let c = campaign(&setup.ingested, policies, s.workers).with_trace_store(Arc::clone(&store));
        drop(last.take());
        meta::reset_peak_rss();
        let rep = timed_rep(&c, if use_trace { &traced } else { &untraced });
        peaks.push(meta::peak_rss_mib("self").unwrap_or(f64::NAN));
        store_bytes.push(meta::store_bytes(store.dir()));

        let (recorded, _, loads) = event_census(rep.result.scheduler_events());
        report.attempted += expected as u64;
        report.failed += expected.saturating_sub(rep.result.len()) as u64;
        report.check(rep.result.len() == expected, || {
            format!("campaign returned {} of {expected} cells", rep.result.len())
        });
        match workload {
            Workload::ColdRecord => report
                .check(recorded as usize == streams && loads == 0, || {
                    format!("cold rep recorded {recorded} and loaded {loads} of {streams} streams")
                }),
            Workload::WarmSweep => report.check(recorded == 0 && loads as usize == streams, || {
                format!("warm rep recorded {recorded} and loaded {loads} of {streams} streams")
            }),
        }
        let print = fingerprint(&outcomes(&rep.result));
        match first_fingerprint {
            None => {
                let reference = match (&oracle, &setup.warm) {
                    (Some(direct), _) => same_grid(&rep.result, direct),
                    (None, Some((_, cold))) => same_cells(cold, &rep.result),
                    (None, None) => unreachable!("every workload has a reference"),
                };
                if let Err(e) = reference {
                    report.failures.push(format!("reference check: {e}"));
                }
                first_fingerprint = Some(print);
            }
            Some(first) => report.check(first == print, || {
                "simulated results differ between repetitions".into()
            }),
        }
        reps.push((use_trace, rep.wall_s, rep.first_cell_s));
        last = Some(rep.result);
    }

    let side = |traced: bool, pick: fn(&(bool, f64, f64)) -> f64| -> Vec<f64> {
        reps.iter().filter(|r| r.0 == traced).map(pick).collect()
    };
    let walls = side(false, |r| r.1);
    let firsts = side(false, |r| r.2);
    let wall_s = median(&walls);
    let last = last.expect("at least one repetition");
    let cells = outcomes(&last);
    let accesses: u64 = cells.iter().map(|c| c.llc_accesses).sum();
    report.detail("setup_samples_s", numbers(&setup_seconds));
    report.detail("wall_samples_s", numbers(&walls));
    report.detail("first_cell_samples_s", numbers(&firsts));
    report.detail("peak_rss_samples_mib", numbers(&peaks));
    let fp = first_fingerprint.unwrap_or(0);
    report.detail(
        "fingerprint",
        grasp_core::Json::string(format!("{fp:016x}")),
    );
    report.check(store_bytes.windows(2).all(|w| w[0] == w[1]), || {
        format!("store size differs between repetitions: {store_bytes:?}")
    });
    let high: Vec<String> = slugs(&setup.ingested, true);
    let low: Vec<String> = slugs(&setup.ingested, false);
    let in_set = |set: &[String], key: &str| set.iter().any(|slug| key.starts_with(slug.as_str()));
    let speedup = grasp_speedup(&cells, |k| in_set(&high, k));
    let speedup_noskew = grasp_speedup(&cells, |k| in_set(&low, k));

    if !s.trace {
        let n = walls.len();
        report.push(
            "setup_s",
            median(&setup_seconds),
            "s",
            Kind::Host,
            format!("median of {} set-ups", setup_seconds.len()),
        );
        report.push(
            "wall_s",
            wall_s,
            "s",
            Kind::Host,
            format!("median of {n} campaigns"),
        );
        report.push(
            "sim_maccess_per_s",
            accesses as f64 / 1e6 / wall_s,
            "M/s",
            Kind::Host,
            format!("{accesses} simulated LLC accesses per campaign / wall_s"),
        );
        report.push_latency("ttfc", &[firsts]);
        report.push_latency("done", &[walls]);
        report.push(
            "peak_rss_mib",
            median(&peaks),
            "MiB",
            Kind::Host,
            format!("median VmHWM of {} campaigns", peaks.len()),
        );
        report.push(
            "store_mib",
            store_bytes[0] as f64 / 1048576.0,
            "MiB",
            Kind::Count,
            "trace-store bytes after a campaign",
        );
        report.push(
            "sim_grasp_speedup_x",
            speedup.unwrap_or(f64::NAN),
            "x",
            Kind::Sim,
            "geomean RRIP/GRASP cycles, high-skew graph",
        );
        report.push(
            "sim_grasp_speedup_noskew_x",
            speedup_noskew.unwrap_or(f64::NAN),
            "x",
            Kind::Sim,
            "geomean RRIP/GRASP cycles, no-skew graph",
        );
        return Ok(report);
    }

    // Traced run: the layer probes, then the per-layer metrics.
    let traced_walls = side(true, |r| r.1);
    let traced_firsts = side(true, |r| r.2);
    let mut graphs: Vec<(DatasetId, Arc<dyn GraphView>)> = Vec::new();
    for &hash in &setup.ingested.hashes {
        let graph = setup
            .ingested
            .catalog
            .load(hash)
            .map_err(|e| format!("open {hash}: {e}"))?;
        graphs.push((hash.into(), graph));
    }
    let probe_dir = s.work.join("probe-store");
    crate::fresh_dir(&probe_dir)?;
    let probe = probes::probe(&graphs, LIBRARY_SCALE, &probe_dir, &traced, None)?;
    probe.check_against(&mut report, &cells);

    let edges = setup.ingested.edges as f64;
    report.push(
        "graph.ingest_ns_per_edge",
        setup.ingest_s * 1e9 / edges,
        "ns",
        Kind::Host,
        "ingest_edge_list, both graphs",
    );
    // The library graphs come from the benchmark's own generator, which no
    // campaign calls; plan-time generation is timed where requests make it,
    // on the service pool, as on `service_mix`.
    let probe_requests = inputs::service_requests(s.seed, 1);
    let generate: BTreeMap<&str, f64> = service::generate_pool(&traced)
        .into_iter()
        .map(|(kind, _, seconds)| (kind.label(), seconds))
        .collect();
    service::push_generate(&mut report, &probe_requests, &generate);
    probe.push_metrics(&mut report);
    let (recorded, _, loads) = event_census(last.scheduler_events());
    let model = campaign_model(&probe, &setup.ingested, workload);
    report.push(
        "core.campaign.first_cell_s",
        median(&traced_firsts),
        "s",
        Kind::Host,
        "median, traced campaigns",
    );
    report.push(
        "core.campaign.busy_frac",
        model / (s.workers as f64 * wall_s),
        "1",
        Kind::Host,
        format!(
            "{model:.3} probe layer-seconds / ({} workers x wall_s)",
            s.workers
        ),
    );
    report.push(
        "core.campaign.recorded",
        recorded as f64,
        "count",
        Kind::Count,
        "RecordFinished events",
    );
    report.push(
        "core.campaign.loads",
        loads as f64,
        "count",
        Kind::Count,
        "LoadFinished events",
    );
    let serve = service::probe_request(&s.exe, &s.work, &probe_requests[0], &traced)?;
    serve.push_layer_metrics(&mut report);
    report.failures.extend(serve.failures);
    report.push(
        "trace.overhead_s",
        median(&traced_walls) - wall_s,
        "s",
        Kind::Host,
        format!(
            "median traced ({}) - untraced ({}) wall_s",
            traced_walls.len(),
            walls.len()
        ),
    );
    report.spans = traced.spans();
    Ok(report)
}

fn slugs(ingested: &Ingested, high_skew: bool) -> Vec<String> {
    ingested
        .hashes
        .iter()
        .zip(&ingested.high_skew)
        .filter(|(_, &h)| h == high_skew)
        .map(|(hash, _)| format!("{}/", DatasetId::from(*hash).slug()))
        .collect()
}

/// Layer-seconds of one campaign's work priced from the probes: the plan's
/// reorders, every stream's record + publish (cold) or load (warm), and
/// every cell's replay.
fn campaign_model(probe: &ProbeReport, ingested: &Ingested, workload: Workload) -> f64 {
    let reorder: f64 = probe.reorder.iter().map(|r| r.2).sum();
    let policies: &[PolicyKind] = match workload {
        Workload::ColdRecord => &COLD_POLICIES,
        Workload::WarmSweep => &FULL_GRID,
    };
    let mut total = reorder;
    for &hash in &ingested.hashes {
        for app in AppKind::ALL {
            let Some(stream) = probe.stream(hash.into(), app) else {
                continue;
            };
            total += match workload {
                Workload::ColdRecord => stream.record_s + stream.publish_s,
                Workload::WarmSweep => stream.load_s,
            };
            for policy in policies {
                let slot = FULL_GRID
                    .iter()
                    .position(|p| p == policy)
                    .expect("grid policy");
                total += stream.replay_s[slot];
            }
        }
    }
    total
}
