//! Layer probes: the traced run's timed calls into each layer's public
//! function, made one at a time on the workload's own graphs so every
//! per-layer number is normalised by the work it did.
//!
//! For each graph the probe reorders once per hotness direction
//! (`TechniqueKind::instantiate().compute` + `grasp_reorder::relabel`),
//! then for each application records the stream (`Experiment::record`),
//! publishes it (`TraceStore::publish`), loads it back
//! (`TraceStore::try_load`) and replays it under all 13 policies
//! (`RecordedRun::replay`) — the calls a campaign's plan and tasks make.

use crate::report::{Kind, Report};
use crate::spans::{SpanId, Tracer};
use crate::{app_slug, policy_slug, CellOutcome, FULL_GRID};
use grasp_analytics::apps::AppKind;
use grasp_core::campaign::{CampaignCell, CampaignRun};
use grasp_core::datasets::{DatasetId, Scale};
use grasp_core::experiment::Experiment;
use grasp_core::trace_store::{TraceStore, TraceStoreKey};
use grasp_core::Codec;
use grasp_graph::types::Direction;
use grasp_graph::{Csr, GraphView};
use grasp_reorder::TechniqueKind;
use std::path::Path;
use std::sync::Arc;

/// Measured cost of one (dataset, app) stream.
#[derive(Debug, Clone)]
pub struct StreamCost {
    /// Dataset of the stream.
    pub dataset: DatasetId,
    /// Application of the stream.
    pub app: AppKind,
    /// `Experiment::record` seconds.
    pub record_s: f64,
    /// `TraceStore::publish` seconds.
    pub publish_s: f64,
    /// `TraceStore::try_load` seconds.
    pub load_s: f64,
    /// `RecordedRun::replay` seconds, in [`FULL_GRID`] order.
    pub replay_s: [f64; 13],
}

/// Everything the probes measured.
#[derive(Debug, Clone, Default)]
pub struct ProbeReport {
    /// Reorder seconds per (dataset, direction) pass.
    pub reorder: Vec<(DatasetId, Direction, f64)>,
    /// Edges reordered, summed over passes.
    pub reorder_edges: u64,
    /// One entry per (dataset, app) stream.
    pub streams: Vec<StreamCost>,
    /// Record seconds and edges processed, per application (`AppKind::ALL`
    /// order).
    pub record: [(f64, u64); 5],
    /// Recorded trace records, summed over streams (exact).
    pub trace_records: u64,
    /// Instruction estimates of the recordings, summed (exact).
    pub instructions: u64,
    /// Bytes published, summed (exact).
    pub store_bytes: u64,
    /// Publish seconds, summed.
    pub publish_s: f64,
    /// Load seconds, summed.
    pub load_s: f64,
    /// Replay seconds per policy, summed over streams.
    pub replay_s: [f64; 13],
    /// LLC (accesses, misses) per policy, summed over streams (simulated).
    pub llc: [(u64, u64); 13],
    /// Every replayed cell's outcome, for cross-checking the campaigns.
    pub outcomes: Vec<CellOutcome>,
}

impl ProbeReport {
    /// Seconds of one stream's costs, looked up by coordinate.
    pub fn stream(&self, dataset: DatasetId, app: AppKind) -> Option<&StreamCost> {
        self.streams
            .iter()
            .find(|s| s.dataset == dataset && s.app == app)
    }

    /// Reorder seconds of one dataset for `app`'s hotness direction.
    pub fn reorder_s(&self, dataset: DatasetId, app: AppKind) -> f64 {
        let direction = app.hotness_direction();
        self.reorder
            .iter()
            .find(|(d, dir, _)| *d == dataset && *dir == direction)
            .map_or(0.0, |r| r.2)
    }

    /// Cross-checks the probe's serial replays against the campaign's cells.
    pub fn check_against(&self, report: &mut Report, cells: &[CellOutcome]) {
        for cell in cells {
            if let Some(probed) = self.outcomes.iter().find(|p| p.key == cell.key) {
                report.check(probed == cell, || {
                    format!("{}: probe replay differs from campaign", cell.key)
                });
            }
        }
    }

    /// The per-layer metrics every workload's probe yields.
    pub fn push_metrics(&self, report: &mut Report) {
        let reorder_s: f64 = self.reorder.iter().map(|r| r.2).sum();
        report.push(
            "reorder.dbg_ns_per_edge",
            reorder_s * 1e9 / self.reorder_edges as f64,
            "ns",
            Kind::Host,
            "compute + relabel, per pass",
        );
        for (app, (seconds, edges)) in AppKind::ALL.into_iter().zip(self.record) {
            report.push(
                format!("analytics.record_ns_per_edge.{}", app_slug(app)),
                seconds * 1e9 / edges as f64,
                "ns",
                Kind::Host,
                "Experiment::record per edge processed",
            );
        }
        let records = self.trace_records as f64;
        report.push(
            "analytics.trace_records",
            records,
            "count",
            Kind::Count,
            "post-L2 records, all probe streams",
        );
        report.push(
            "cachesim.records_per_kinstr",
            records * 1000.0 / self.instructions as f64,
            "1/kinstr",
            Kind::Count,
            "records per 1000 estimated instructions",
        );
        let mb = self.store_bytes as f64 / 1e6;
        report.push(
            "core.trace_store.publish_mb_s",
            mb / self.publish_s,
            "MB/s",
            Kind::Host,
            "TraceStore::publish",
        );
        report.push(
            "core.trace_store.bytes_per_record",
            self.store_bytes as f64 / records,
            "B",
            Kind::Count,
            "encoded entry bytes per record",
        );
        report.push(
            "core.trace_store.load_mb_s",
            mb / self.load_s,
            "MB/s",
            Kind::Host,
            "TraceStore::try_load",
        );
        for (slot, policy) in FULL_GRID.into_iter().enumerate() {
            report.push(
                format!("cachesim.replay_ns_per_record.{}", policy_slug(policy)),
                self.replay_s[slot] * 1e9 / records,
                "ns",
                Kind::Host,
                "RecordedRun::replay",
            );
        }
        for (slot, policy) in FULL_GRID.into_iter().enumerate() {
            let (accesses, misses) = self.llc[slot];
            report.push(
                format!("cachesim.llc_miss_ratio.{}", policy_slug(policy)),
                misses as f64 / accesses as f64,
                "1",
                Kind::Sim,
                "LLC demand misses / accesses",
            );
        }
    }
}

/// Probes every layer on `graphs` (already generated or opened) at `scale`
/// with its default hierarchy, publishing into a fresh store at `store_dir`.
pub fn probe(
    graphs: &[(DatasetId, Arc<dyn GraphView>)],
    scale: Scale,
    store_dir: &Path,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<ProbeReport, String> {
    let hierarchy = scale.hierarchy();
    let store = TraceStore::open(store_dir).map_err(|e| format!("probe store: {e}"))?;
    let mut report = ProbeReport::default();
    for (dataset, source) in graphs {
        let mut reordered: Vec<(Direction, Arc<Csr>)> = Vec::new();
        for app in AppKind::ALL {
            let direction = app.hotness_direction();
            if !reordered.iter().any(|(d, _)| *d == direction) {
                let (graph, seconds) = tracer.time("reorder.dbg", parent, |_| {
                    let perm = TechniqueKind::Dbg
                        .instantiate()
                        .compute(&**source, direction);
                    grasp_reorder::relabel(&**source, &perm)
                });
                report.reorder.push((*dataset, direction, seconds));
                report.reorder_edges += source.edge_count();
                reordered.push((direction, Arc::new(graph)));
            }
        }
        for (app_index, app) in AppKind::ALL.into_iter().enumerate() {
            let graph = &reordered
                .iter()
                .find(|(d, _)| *d == app.hotness_direction())
                .expect("reordered above")
                .1;
            let experiment =
                Experiment::shared(Arc::<Csr>::clone(graph), app).with_hierarchy(hierarchy);
            let (recorded, record_s) =
                tracer.time("analytics.record", parent, |_| experiment.record());
            let records = recorded.trace().len() as u64;
            report.record[app_index].0 += record_s;
            report.record[app_index].1 += recorded.app().edges_processed;
            report.trace_records += records;
            report.instructions += recorded.instructions();

            let key = TraceStoreKey::new(
                *dataset,
                scale,
                TechniqueKind::Dbg,
                app,
                &hierarchy,
                experiment.app_config(),
            )
            .with_codec(Codec::DeltaVarint);
            let (bytes, publish_s) = tracer.time("core.trace_store.publish", parent, |_| {
                store.publish(
                    &key,
                    recorded.trace(),
                    recorded.app(),
                    recorded.instructions(),
                )
            });
            let bytes = bytes.map_err(|e| format!("publish {key}: {e}"))?;
            let (loaded, load_s) =
                tracer.time("core.trace_store.load", parent, |_| store.try_load(&key));
            let loaded = loaded
                .map_err(|e| format!("load {key}: {e}"))?
                .ok_or_else(|| format!("load {key}: published entry missing"))?;
            if loaded.trace.len() as u64 != records {
                return Err(format!("load {key}: record count differs from publish"));
            }
            report.store_bytes += bytes;
            report.publish_s += publish_s;
            report.load_s += load_s;

            let mut replay_s = [0.0; 13];
            for (slot, policy) in FULL_GRID.into_iter().enumerate() {
                let (result, seconds) =
                    tracer.time("cachesim.replay", parent, |_| recorded.replay(policy));
                replay_s[slot] = seconds;
                report.replay_s[slot] += seconds;
                report.llc[slot].0 += result.llc_accesses();
                report.llc[slot].1 += result.llc_misses();
                let cell = CampaignCell {
                    dataset: *dataset,
                    technique: TechniqueKind::Dbg,
                    app,
                    policy,
                };
                report
                    .outcomes
                    .push(CellOutcome::of_run(&CampaignRun { cell, result }));
            }
            report.streams.push(StreamCost {
                dataset: *dataset,
                app,
                record_s,
                publish_s,
                load_s,
                replay_s,
            });
        }
    }
    Ok(report)
}
