//! The `service_mix` workload: a `grasp-serve` daemon in its own process,
//! driven over its Unix socket by a closed loop of two clients.
//!
//! A round starts a daemon on a fresh store, sends the seed's request
//! sequence (each client sends its next request only after the previous
//! one's `done` frame) and shuts the daemon down. Rounds repeat until the
//! timed phase is over, so every round does the same work: early requests
//! record and publish while concurrent ones attach or load.

use crate::inputs::{self, SERVICE_POOL};
use crate::probes;
use crate::report::{numbers, Kind, Report};
use crate::spans::{SpanId, Tracer};
use crate::stats::median;
use crate::{fingerprint, grasp_speedup, meta, CellOutcome, SERVICE_SCALE};
use grasp_analytics::apps::AppKind;
use grasp_core::campaign::Campaign;
use grasp_core::datasets::{DatasetId, DatasetKind};
use grasp_core::json::Json;
use grasp_core::policy::PolicyKind;
use grasp_core::spec::CampaignSpec;
use grasp_graph::{Csr, EdgeList, GraphView};
use grasp_serve::protocol;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Concurrent campaigns the daemon admits; with `threads: 1` per spec this
/// keeps the daemon within two workers.
pub const MAX_CAMPAIGNS: usize = 2;

/// Closed-loop clients (connections in flight).
pub const CLIENTS: usize = 2;

/// Environment variables that could change a run's results or its thread
/// counts; the benchmark clears them for itself and every child.
pub const PINNED_ENV: [&str; 5] = [
    "GRASP_SCALE",
    "GRASP_TRACE_CODEC",
    "GRASP_TRACE_STORE",
    "GRASP_INGEST_THREADS",
    "GRASP_SCHED_WORKERS",
];

/// A daemon child process. Dropping it kills and reaps the process, so no
/// error path leaves a daemon behind.
pub struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

impl Daemon {
    /// Starts `exe serve` on `socket` with a store at `store`, and waits
    /// until it answers a ping. Returns the daemon and the seconds from
    /// spawn to the first `pong`.
    pub fn start(exe: &Path, socket: &Path, store: &Path) -> Result<(Daemon, f64), String> {
        let start = Instant::now();
        let mut command = Command::new(exe);
        command
            .arg("serve")
            .arg("--socket")
            .arg(socket)
            .arg("--store")
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        for var in PINNED_ENV {
            command.env_remove(var);
        }
        let child = command
            .spawn()
            .map_err(|e| format!("spawn daemon {}: {e}", exe.display()))?;
        let daemon = Daemon {
            child: Some(child),
            socket: socket.to_path_buf(),
        };
        let ping = protocol::simple_request("ping");
        loop {
            if let Ok(frames) = grasp_serve::client::request(socket, &ping) {
                if frames
                    .first()
                    .and_then(|f| f.get("type"))
                    .and_then(Json::as_str)
                    == Some("pong")
                {
                    return Ok((daemon, start.elapsed().as_secs_f64()));
                }
            }
            if start.elapsed() > Duration::from_secs(30) {
                return Err("daemon did not answer a ping within 30 s".into());
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    /// The daemon's `stats` frame.
    pub fn stats(&self) -> Result<Json, String> {
        let frames = grasp_serve::client::request(&self.socket, &protocol::simple_request("stats"))
            .map_err(|e| format!("stats: {e}"))?;
        frames
            .into_iter()
            .next()
            .ok_or_else(|| "stats: no frame".into())
    }

    /// The daemon's peak resident set so far, MiB.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        let pid = self.child.as_ref()?.id();
        meta::peak_rss_mib(&pid.to_string())
    }

    /// Asks the daemon to shut down and waits for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        grasp_serve::client::request(&self.socket, &protocol::simple_request("shutdown"))
            .map_err(|e| format!("shutdown: {e}"))?;
        let mut child = self.child.take().expect("running until shutdown");
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                _ => {
                    child.kill().ok();
                    child.wait().ok();
                    return Err("daemon did not exit after shutdown".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            child.kill().ok();
            child.wait().ok();
        }
    }
}

/// What one request saw, timed from sending it.
#[derive(Debug, Clone, Default)]
pub struct RequestOutcome {
    /// Seconds to the `accepted` frame.
    pub accepted_s: Option<f64>,
    /// Seconds to the first `cell` frame.
    pub first_cell_s: Option<f64>,
    /// Seconds to the last `cell` frame.
    pub last_cell_s: Option<f64>,
    /// Seconds to the `done` frame.
    pub done_s: Option<f64>,
    /// Every cell frame, decoded.
    pub cells: Vec<CellOutcome>,
    /// Bytes of the cell frame lines (including newlines).
    pub cell_bytes: u64,
    /// The `done` frame's census: (recorded, deduped, loads).
    pub census: (u64, u64, u64),
    /// The error frame or transport failure, if any.
    pub error: Option<String>,
}

fn cell_outcome(frame: &Json) -> Option<CellOutcome> {
    let text = |key: &str| frame.get(key).and_then(Json::as_str).map(str::to_owned);
    let int = |key: &str| frame.get(key).and_then(Json::as_u64);
    Some(CellOutcome {
        key: format!(
            "{}/{}/{}/{}",
            text("dataset")?,
            text("technique")?,
            text("app")?,
            text("policy")?
        ),
        llc_accesses: int("llc_accesses")?,
        llc_misses: int("llc_misses")?,
        cycles_bits: text("cycles_bits")?,
        values_fnv: text("values_fnv")?,
        iterations: int("iterations")?,
        edges_processed: int("edges_processed")?,
    })
}

/// Sends one run request and times its frames. With an enabled tracer the
/// request is a span and each frame a child event.
pub fn send(socket: &Path, spec: &CampaignSpec, tracer: &Tracer) -> RequestOutcome {
    let mut out = RequestOutcome::default();
    let span: Option<SpanId> = tracer.open("serve.request", None);
    let start = Instant::now();
    let sent = grasp_serve::client::request_streaming(
        socket,
        &protocol::run_request(spec),
        &mut |frame| {
            let now = Instant::now();
            let at = now.duration_since(start).as_secs_f64();
            let kind = frame.get("type").and_then(Json::as_str).unwrap_or("?");
            tracer.record(&format!("serve.frame.{kind}"), span, now, now);
            match kind {
                "accepted" => out.accepted_s = Some(at),
                "cell" => {
                    out.first_cell_s.get_or_insert(at);
                    out.last_cell_s = Some(at);
                    out.cell_bytes += frame.to_string().len() as u64 + 1;
                    match cell_outcome(frame) {
                        Some(cell) => out.cells.push(cell),
                        None => out.error = Some(format!("malformed cell frame {frame}")),
                    }
                }
                "done" => {
                    out.done_s = Some(at);
                    let count = |k: &str| frame.get(k).and_then(Json::as_u64).unwrap_or(0);
                    out.census = (count("recorded"), count("deduped"), count("loads"));
                }
                _ => out.error = Some(frame.to_string()),
            }
        },
    );
    tracer.close(span);
    if let Err(e) = sent {
        out.error = Some(format!("transport: {e}"));
    }
    if out.error.is_none() && out.done_s.is_none() {
        out.error = Some("connection closed before the done frame".into());
    }
    out
}

/// One round: a fresh daemon and store, the whole request sequence.
pub struct Round {
    /// Spawn-to-first-pong seconds of the round's daemon.
    pub setup_s: f64,
    /// Seconds from the first request sent to the last `done` frame.
    pub wall_s: f64,
    /// Per-request outcomes, in sequence order.
    pub requests: Vec<RequestOutcome>,
    /// The daemon's `stats` frame after the sequence.
    pub stats: Json,
    /// The daemon's peak resident set, MiB.
    pub peak_rss_mib: f64,
    /// Trace-store bytes after the sequence.
    pub store_bytes: u64,
}

/// Runs the sequence once against a fresh daemon.
pub fn round(
    exe: &Path,
    work: &Path,
    requests: &[CampaignSpec],
    tracer: &Tracer,
) -> Result<Round, String> {
    let store = work.join("serve-store");
    crate::fresh_dir(&store)?;
    let socket = work.join("serve.sock");
    let (daemon, setup_s) = Daemon::start(exe, &socket, &store)?;
    let next = AtomicUsize::new(0);
    let outcomes: Mutex<Vec<Option<RequestOutcome>>> = Mutex::new(vec![None; requests.len()]);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::SeqCst);
                let Some(spec) = requests.get(index) else {
                    break;
                };
                let outcome = send(&socket, spec, tracer);
                outcomes.lock().expect("outcome log not poisoned")[index] = Some(outcome);
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let stats = daemon.stats()?;
    let peak_rss_mib = daemon.peak_rss_mib().unwrap_or(f64::NAN);
    daemon.shutdown()?;
    let store_bytes = meta::store_bytes(&store);
    let requests = outcomes
        .into_inner()
        .expect("outcome log not poisoned")
        .into_iter()
        .map(|o| o.expect("every request index was taken"))
        .collect();
    Ok(Round {
        setup_s,
        wall_s,
        requests,
        stats,
        peak_rss_mib,
        store_bytes,
    })
}

/// How the service workload is sized.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Worker threads of the library reference run.
    pub workers: usize,
    /// Request blocks per round (see [`inputs::service_requests`]).
    pub blocks: usize,
    /// Minimum rounds (per side in a traced run).
    pub min_rounds: usize,
    /// Scratch directory.
    pub work: PathBuf,
    /// The benchmark executable (started as the daemon).
    pub exe: PathBuf,
}

impl Settings {
    /// The standard sizing: four blocks (100 requests) per round, so each
    /// round's tail is its p90, and at least three rounds.
    pub fn standard(seed: u64, seconds: f64, trace: bool, workers: usize, work: &Path) -> Self {
        Self {
            seed,
            seconds,
            trace,
            workers,
            blocks: 4,
            min_rounds: 3,
            work: work.to_path_buf(),
            exe: std::env::current_exe().unwrap_or_default(),
        }
    }
}

/// The library's answer for every cell the sequence asks for: one campaign
/// per dataset over the union of its requested apps and policies.
pub fn library_reference(
    requests: &[CampaignSpec],
    workers: usize,
) -> BTreeMap<String, CellOutcome> {
    let mut grids: Vec<(DatasetId, Vec<AppKind>, Vec<PolicyKind>)> = Vec::new();
    for spec in requests {
        for &dataset in &spec.datasets {
            let index = grids
                .iter()
                .position(|grid| grid.0 == dataset)
                .unwrap_or_else(|| {
                    grids.push((dataset, Vec::new(), Vec::new()));
                    grids.len() - 1
                });
            let (_, apps, policies) = &mut grids[index];
            apps.extend(
                spec.apps
                    .iter()
                    .filter(|a| !apps.contains(a))
                    .collect::<Vec<_>>(),
            );
            policies.extend(
                spec.policies
                    .iter()
                    .filter(|p| !policies.contains(p))
                    .collect::<Vec<_>>(),
            );
        }
    }
    let mut reference = BTreeMap::new();
    for (dataset, apps, policies) in grids {
        let result = Campaign::new(SERVICE_SCALE)
            .dataset_ids(&[dataset])
            .apps(&apps)
            .policies(&policies)
            .threads(workers)
            .run();
        for run in result.iter() {
            let cell = CellOutcome::of_run(run);
            reference.insert(cell.key.clone(), cell);
        }
    }
    reference
}

/// Unique (dataset, technique, app) streams of a sequence.
pub fn unique_streams(requests: &[CampaignSpec]) -> usize {
    requests
        .iter()
        .flat_map(|spec| spec.streams())
        .map(|(d, t, a)| format!("{}/{}/{}", d.slug(), t.label(), a.label()))
        .collect::<BTreeSet<_>>()
        .len()
}

/// Checks one round: every request answered, exactly-once recording, every
/// cell equal to the library's. Returns the round's cell outcomes.
fn check_round(
    report: &mut Report,
    round: &Round,
    requests: &[CampaignSpec],
    reference: &BTreeMap<String, CellOutcome>,
) -> Vec<CellOutcome> {
    let mut cells = Vec::new();
    let mut recorded = 0;
    for (spec, outcome) in requests.iter().zip(&round.requests) {
        report.attempted += 1;
        if let Some(error) = &outcome.error {
            report.failed += 1;
            report.failures.push(format!("request failed: {error}"));
            continue;
        }
        let distinct: BTreeSet<&str> = outcome.cells.iter().map(|c| c.key.as_str()).collect();
        if outcome.cells.len() != spec.cells().len() || distinct.len() != outcome.cells.len() {
            report.failed += 1;
            report.failures.push(format!(
                "request answered {} cells ({} distinct) of {}",
                outcome.cells.len(),
                distinct.len(),
                spec.cells().len()
            ));
        }
        recorded += outcome.census.0;
        for cell in &outcome.cells {
            match reference.get(&cell.key) {
                Some(expected) => report.check(expected == cell, || {
                    format!("{}: service cell differs from the library", cell.key)
                }),
                None => report
                    .failures
                    .push(format!("{}: not in the library reference", cell.key)),
            }
        }
        cells.extend(outcome.cells.iter().cloned());
    }
    let unique = unique_streams(requests) as u64;
    report.check(recorded == unique, || {
        format!("done frames recorded {recorded} streams; the sequence has {unique} unique streams")
    });
    let flights = round.stats.get("flights");
    let flight = |k: &str| {
        flights
            .and_then(|f| f.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    report.check(flight("recorded") == unique, || {
        format!(
            "stats frame counts {} recorded flights, expected {unique}",
            flight("recorded")
        )
    });
    cells
}

/// Runs the service workload and reports its metrics.
pub fn run(s: &Settings) -> Result<Report, String> {
    let mut report = Report::default();
    let requests = inputs::service_requests(s.seed, s.blocks);
    let reference = library_reference(&requests, s.workers);

    let traced = Tracer::new(s.trace);
    let untraced = Tracer::new(false);
    let mut rounds: Vec<(bool, Round)> = Vec::new();
    let mut first_fingerprint = None;
    let phase = Instant::now();
    loop {
        let traced_so_far = rounds.iter().filter(|(t, _)| *t).count();
        let Some(use_trace) = crate::next_repetition(
            s.trace,
            traced_so_far,
            rounds.len(),
            s.min_rounds,
            phase,
            s.seconds,
        ) else {
            break;
        };
        let r = round(
            &s.exe,
            &s.work,
            &requests,
            if use_trace { &traced } else { &untraced },
        )?;
        let cells = check_round(&mut report, &r, &requests, &reference);
        let print = fingerprint(&cells);
        match first_fingerprint {
            None => first_fingerprint = Some(print),
            Some(first) => report.check(first == print, || {
                "simulated results differ between rounds".into()
            }),
        }
        rounds.push((use_trace, r));
    }
    let fp = first_fingerprint.unwrap_or(0);
    report.detail("fingerprint", Json::string(format!("{fp:016x}")));
    report.detail("requests", request_log(&requests, &rounds));
    let plain: Vec<&Round> = rounds.iter().filter(|(t, _)| !*t).map(|(_, r)| r).collect();
    let walls: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
    let wall_s = median(&walls);
    let store_bytes: Vec<u64> = rounds.iter().map(|(_, r)| r.store_bytes).collect();
    report.check(store_bytes.windows(2).all(|w| w[0] == w[1]), || {
        format!("store size differs between rounds: {store_bytes:?}")
    });
    let round_cells: Vec<CellOutcome> = plain[0]
        .requests
        .iter()
        .flat_map(|r| r.cells.iter().cloned())
        .collect();
    let accesses: u64 = round_cells.iter().map(|c| c.llc_accesses).sum();
    let per_round = |f: fn(&RequestOutcome) -> Option<f64>| -> Vec<Vec<f64>> {
        plain
            .iter()
            .map(|r| r.requests.iter().filter_map(f).collect())
            .collect()
    };

    if !s.trace {
        let setups: Vec<f64> = plain.iter().map(|r| r.setup_s).collect();
        let peaks: Vec<f64> = plain.iter().map(|r| r.peak_rss_mib).collect();
        report.detail("wall_samples_s", numbers(&walls));
        report.detail("peak_rss_samples_mib", numbers(&peaks));
        report.detail("setup_samples_s", numbers(&setups));
        let is = |kinds: &[DatasetKind], key: &str| {
            kinds
                .iter()
                .any(|k| key.starts_with(&format!("{}/", k.label())))
        };
        let high: Vec<DatasetKind> = SERVICE_POOL
            .into_iter()
            .filter(|k| k.is_high_skew())
            .collect();
        report.push(
            "setup_s",
            median(&setups),
            "s",
            Kind::Host,
            format!("median spawn-to-pong of {} daemons", setups.len()),
        );
        report.push(
            "wall_s",
            wall_s,
            "s",
            Kind::Host,
            format!(
                "median of {} rounds of {} requests",
                walls.len(),
                requests.len()
            ),
        );
        report.push(
            "sim_maccess_per_s",
            accesses as f64 / 1e6 / wall_s,
            "M/s",
            Kind::Host,
            format!("{accesses} simulated LLC accesses per round / wall_s"),
        );
        report.push_latency("ttfc", &per_round(|r| r.first_cell_s));
        report.push_latency("done", &per_round(|r| r.done_s));
        report.push(
            "peak_rss_mib",
            median(&peaks),
            "MiB",
            Kind::Host,
            format!("median daemon VmHWM of {} rounds", peaks.len()),
        );
        report.push(
            "store_mib",
            store_bytes[0] as f64 / 1048576.0,
            "MiB",
            Kind::Count,
            "trace-store bytes after a round",
        );
        report.push(
            "sim_grasp_speedup_x",
            grasp_speedup(&round_cells, |k| is(&high, k)).unwrap_or(f64::NAN),
            "x",
            Kind::Sim,
            "geomean RRIP/GRASP cycles, high-skew datasets",
        );
        report.push(
            "sim_grasp_speedup_noskew_x",
            grasp_speedup(&round_cells, |k| is(&[DatasetKind::Uniform], k)).unwrap_or(f64::NAN),
            "x",
            Kind::Sim,
            "geomean RRIP/GRASP cycles, no-skew dataset",
        );
        return Ok(report);
    }

    // Traced run: probe the layers on the pool's datasets.
    let mut graphs: Vec<(DatasetId, Arc<dyn GraphView>)> = Vec::new();
    let mut generate = BTreeMap::new();
    let mut ingest_s = 0.0;
    let mut ingest_edges = 0;
    for (kind, graph, seconds) in generate_pool(&traced) {
        generate.insert(kind.label(), seconds);
        let edges = edge_list(&graph);
        let dir = s.work.join(format!("{}.gcsr", kind.label()));
        let (ingested, seconds) = traced.time("graph.ingest", None, |_| {
            grasp_graph::ingest::ingest_edge_list(&edges, &dir, s.workers)
        });
        ingested.map_err(|e| format!("ingest {kind}: {e}"))?;
        ingest_s += seconds;
        ingest_edges += graph.edge_count();
        graphs.push((kind.into(), Arc::new(graph)));
    }
    let probe_dir = s.work.join("probe-store");
    crate::fresh_dir(&probe_dir)?;
    let probe = probes::probe(&graphs, SERVICE_SCALE, &probe_dir, &traced, None)?;
    let reference_cells: Vec<CellOutcome> = reference.values().cloned().collect();
    probe.check_against(&mut report, &reference_cells);

    report.push(
        "graph.ingest_ns_per_edge",
        ingest_s * 1e9 / ingest_edges as f64,
        "ns",
        Kind::Host,
        "ingest_edge_list, pool datasets",
    );
    push_generate(&mut report, &requests, &generate);
    probe.push_metrics(&mut report);

    let traced_rounds: Vec<&Round> = rounds.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
    let all_requests = || {
        plain
            .iter()
            .chain(&traced_rounds)
            .flat_map(|r| r.requests.iter())
    };
    let to_first_cell: Vec<f64> = all_requests()
        .filter_map(|r| Some(r.first_cell_s? - r.accepted_s?))
        .collect();
    let census = plain[0]
        .requests
        .iter()
        .fold((0, 0), |acc, r| (acc.0 + r.census.0, acc.1 + r.census.2));
    let model = sequence_model(&probe, &generate, &requests);
    report.push(
        "core.campaign.first_cell_s",
        median(&to_first_cell),
        "s",
        Kind::Host,
        "median accepted -> first cell frame",
    );
    report.push(
        "core.campaign.busy_frac",
        model / (MAX_CAMPAIGNS as f64 * wall_s),
        "1",
        Kind::Host,
        format!("{model:.3} probe layer-seconds / ({MAX_CAMPAIGNS} workers x wall_s)"),
    );
    report.push(
        "core.campaign.recorded",
        census.0 as f64,
        "count",
        Kind::Count,
        "done.recorded summed over a round",
    );
    report.push(
        "core.campaign.loads",
        census.1 as f64,
        "count",
        Kind::Count,
        "done.loads summed over a round",
    );
    let layer = ServeLayer::from_requests(all_requests(), &plain[0].stats);
    layer.push_layer_metrics(&mut report);
    let traced_walls: Vec<f64> = traced_rounds.iter().map(|r| r.wall_s).collect();
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

/// Every request with its done latency in each round, for the result file.
fn request_log(requests: &[CampaignSpec], rounds: &[(bool, Round)]) -> Json {
    Json::Array(
        requests
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                Json::object([
                    ("spec", spec.to_value()),
                    (
                        "done_s",
                        Json::Array(
                            rounds
                                .iter()
                                .map(|(_, r)| r.requests[i].done_s.map_or(Json::Null, Json::Number))
                                .collect(),
                        ),
                    ),
                    (
                        "recorded",
                        Json::Array(
                            rounds
                                .iter()
                                .map(|(_, r)| Json::integer(r.requests[i].census.0))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

/// `DatasetKind::generate` at the service scale, the call every request
/// makes at plan time, for each pool dataset: the graph and its seconds.
pub fn generate_pool(tracer: &Tracer) -> Vec<(DatasetKind, Csr, f64)> {
    SERVICE_POOL
        .into_iter()
        .map(|kind| {
            let (graph, seconds) =
                tracer.time("graph.generate", None, |_| kind.generate(SERVICE_SCALE));
            (kind, graph, seconds)
        })
        .collect()
}

/// Reports `graph.generate_s`: the mean plan-time generation per request of
/// `requests`, priced from each dataset's `generate` seconds.
pub fn push_generate(
    report: &mut Report,
    requests: &[CampaignSpec],
    generate: &BTreeMap<&str, f64>,
) {
    let per_request: Vec<f64> = requests
        .iter()
        .flat_map(|spec| spec.datasets.iter())
        .filter_map(|d| generate.get(d.slug().as_str()).copied())
        .collect();
    report.push(
        "graph.generate_s",
        per_request.iter().sum::<f64>() / per_request.len() as f64,
        "s",
        Kind::Host,
        "DatasetKind::generate, mean per request",
    );
}

/// A generated graph's edges as an edge list, for the ingest probe.
fn edge_list(graph: &dyn GraphView) -> EdgeList {
    let mut edges =
        EdgeList::with_capacity(graph.vertex_count() as u64, graph.edge_count() as usize);
    for v in graph.vertices() {
        for (&dst, &weight) in graph.out_neighbors(v).iter().zip(graph.out_weights(v)) {
            edges
                .push_weighted(v, dst, weight)
                .expect("CSR endpoints are in range");
        }
    }
    edges
}

/// Layer-seconds of one round priced from the probes: each request's plan
/// (generate + reorder), each stream's record + publish the first time the
/// sequence names it and a load after that, and every cell's replay.
fn sequence_model(
    probe: &probes::ProbeReport,
    generate: &BTreeMap<&str, f64>,
    requests: &[CampaignSpec],
) -> f64 {
    let mut seen = BTreeSet::new();
    let mut total = 0.0;
    for spec in requests {
        for &dataset in &spec.datasets {
            total += generate
                .get(dataset.slug().as_str())
                .copied()
                .unwrap_or(0.0);
            let mut directions = BTreeSet::new();
            for &app in &spec.apps {
                if directions.insert(format!("{:?}", app.hotness_direction())) {
                    total += probe.reorder_s(dataset, app);
                }
                let Some(stream) = probe.stream(dataset, app) else {
                    continue;
                };
                total += if seen.insert((dataset.slug(), app.label())) {
                    stream.record_s + stream.publish_s
                } else {
                    stream.load_s
                };
                for policy in &spec.policies {
                    let slot = crate::FULL_GRID
                        .iter()
                        .position(|p| p == policy)
                        .expect("grid policy");
                    total += stream.replay_s[slot];
                }
            }
        }
    }
    total
}

/// The serve layer's own numbers, from the client's view of the frames and
/// the daemon's `stats` frame.
pub struct ServeLayer {
    accept: Vec<f64>,
    done_after_last_cell: Vec<f64>,
    cell_bytes: u64,
    cells: u64,
    flights: (u64, u64, u64),
    /// Failed requests, in words.
    pub failures: Vec<String>,
}

impl ServeLayer {
    fn from_requests<'a>(requests: impl Iterator<Item = &'a RequestOutcome>, stats: &Json) -> Self {
        let mut layer = ServeLayer {
            accept: Vec::new(),
            done_after_last_cell: Vec::new(),
            cell_bytes: 0,
            cells: 0,
            flights: (0, 0, 0),
            failures: Vec::new(),
        };
        for r in requests {
            if let Some(error) = &r.error {
                layer.failures.push(format!("request failed: {error}"));
            }
            layer.accept.extend(r.accepted_s);
            if let (Some(last), Some(done)) = (r.last_cell_s, r.done_s) {
                layer.done_after_last_cell.push(done - last);
            }
            layer.cell_bytes += r.cell_bytes;
            layer.cells += r.cells.len() as u64;
        }
        let flights = stats.get("flights");
        let flight = |k: &str| {
            flights
                .and_then(|f| f.get(k))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        layer.flights = (flight("recorded"), flight("attached"), flight("store_hits"));
        layer
    }

    /// Pushes the `core.flight.*` and `serve.*` metrics.
    pub fn push_layer_metrics(&self, report: &mut Report) {
        report.push(
            "core.flight.recorded",
            self.flights.0 as f64,
            "count",
            Kind::Count,
            "stats frame",
        );
        report.push(
            "core.flight.attached",
            self.flights.1 as f64,
            "count",
            Kind::Count,
            "stats frame",
        );
        report.push(
            "core.flight.store_hits",
            self.flights.2 as f64,
            "count",
            Kind::Count,
            "stats frame",
        );
        report.push(
            "serve.accept_s",
            median(&self.accept),
            "s",
            Kind::Host,
            format!("median request -> accepted of {}", self.accept.len()),
        );
        report.push(
            "serve.bytes_per_cell",
            self.cell_bytes as f64 / self.cells as f64,
            "B",
            Kind::Count,
            "cell frame line bytes",
        );
        report.push(
            "serve.done_after_last_cell_s",
            median(&self.done_after_last_cell),
            "s",
            Kind::Host,
            "median last cell frame -> done frame",
        );
    }
}

/// The library workloads' view of the serve layer: one request of the
/// seed's sequence through a fresh daemon, traced.
pub fn probe_request(
    exe: &Path,
    work: &Path,
    spec: &CampaignSpec,
    tracer: &Tracer,
) -> Result<ServeLayer, String> {
    let requests = std::slice::from_ref(spec);
    let r = round(exe, work, requests, tracer)?;
    Ok(ServeLayer::from_requests(r.requests.iter(), &r.stats))
}
