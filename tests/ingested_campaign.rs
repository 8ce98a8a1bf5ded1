//! Acceptance test for real-graph ingestion: a campaign over an ingested
//! on-disk graph must behave exactly like one over the same graph held in
//! memory — the mmap backing is a pure representation change — and the
//! graph's content hash must be visible in the trace store's entry file
//! names, so a re-ingested (different) graph can never be served a stale
//! trace.

use grasp_suite::analytics::apps::AppKind;
use grasp_suite::core::campaign::{Campaign, CampaignResult};
use grasp_suite::core::datasets::{DatasetCatalog, DatasetId, GraphHash, Scale};
use grasp_suite::core::experiment::Experiment;
use grasp_suite::core::policy::PolicyKind;
use grasp_suite::core::trace_store::TraceStore;
use grasp_suite::graph::ingest;
use grasp_suite::graph::EdgeList;
use grasp_suite::reorder::TechniqueKind;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SCALE: Scale = Scale::Tiny;

const POLICIES: [PolicyKind; 3] = [PolicyKind::Lru, PolicyKind::Rrip, PolicyKind::Grasp];

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("grasp-ingested-itest-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A deterministic skewed edge list, written to disk the way a user would
/// hand the harness a real graph snapshot.
fn ingest_sample_graph(dir: &Path) -> GraphHash {
    let n: u32 = 512;
    let mut el = EdgeList::new(n as u64);
    // A hub-heavy synthetic: every vertex points at a few low-ID hubs plus a
    // ring edge, giving the skew GRASP's classification needs.
    for v in 0..n {
        el.push(v, (v + 1) % n).unwrap();
        el.push(v, v % 7).unwrap();
        el.push(v, v % 3).unwrap();
    }
    let report = ingest::ingest_edge_list(&el, dir, 4).expect("ingest succeeds");
    GraphHash(report.content_hash)
}

fn campaign(graph_dir: &Path, hash: GraphHash) -> Campaign {
    let mut catalog = DatasetCatalog::new();
    assert_eq!(catalog.register(graph_dir).expect("registers"), hash);
    Campaign::new(SCALE)
        .catalog(catalog)
        .ingested_dataset(hash)
        .apps(&[AppKind::PageRank, AppKind::Sssp])
        .policies(&POLICIES)
        .threads(2)
}

fn assert_bit_identical(a: &CampaignResult, b: &CampaignResult, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: grid size");
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.cell, y.cell, "{what}");
        assert_eq!(
            x.result.stats, y.result.stats,
            "{what}: {}/{}/{} diverged",
            x.cell.dataset, x.cell.app, x.cell.policy
        );
        assert_eq!(
            x.result.app.values, y.result.app.values,
            "{what}: app output diverged"
        );
        assert!(
            (x.result.cycles - y.result.cycles).abs() < 1e-12,
            "{what}: timing model diverged"
        );
    }
}

#[test]
fn mmap_and_in_memory_backings_are_bit_identical() {
    let graph_dir = temp_dir("backing-graph");
    let hash = ingest_sample_graph(&graph_dir);

    // The campaign traverses the mmapped columns in place; the oracle
    // decodes the same files into an in-memory Csr (verifying every column
    // checksum) and simulates each cell directly.
    let via_mmap = campaign(&graph_dir, hash).run();
    assert_eq!(via_mmap.len(), 2 * POLICIES.len());
    let in_memory = ingest::load_csr(&graph_dir).expect("decodes in memory");
    for run in via_mmap.iter() {
        assert_eq!(run.cell.dataset, DatasetId::Ingested(hash));
        let direct = Experiment::new(in_memory.clone(), run.cell.app)
            .with_hierarchy(SCALE.hierarchy())
            .with_reordering(TechniqueKind::Dbg)
            .run(run.cell.policy);
        assert_eq!(
            run.result.stats, direct.stats,
            "{}/{} diverged",
            run.cell.app, run.cell.policy
        );
        assert_eq!(
            run.result.app.values, direct.app.values,
            "app output diverged"
        );
        assert!(
            (run.result.cycles - direct.cycles).abs() < 1e-12,
            "timing model diverged"
        );
    }

    std::fs::remove_dir_all(&graph_dir).ok();
}

#[test]
fn content_hash_lands_in_trace_store_entry_names_and_store_hits_are_identical() {
    let graph_dir = temp_dir("store-graph");
    let store_dir = temp_dir("store");
    let hash = ingest_sample_graph(&graph_dir);
    let store = Arc::new(TraceStore::open(&store_dir).expect("store opens"));

    // Cold run records and publishes every stream.
    let cold = campaign(&graph_dir, hash)
        .with_trace_store(Arc::clone(&store))
        .run();

    // The graph's content hash is the dataset coordinate of every entry
    // file name (`g<hash:016x>-<scale>-<technique>-<app>-<cfg>.v<N>.trace`).
    let slug = hash.slug();
    assert_eq!(slug, format!("g{:016x}", hash.0));
    let entries: Vec<String> = std::fs::read_dir(&store_dir)
        .expect("store dir exists")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".trace"))
        .collect();
    assert!(!entries.is_empty(), "cold run published no entries");
    for name in &entries {
        assert!(
            name.starts_with(&format!("{slug}-")),
            "entry '{name}' does not carry the graph's content hash '{slug}'"
        );
    }

    // The warm run, served from the store, must be bit-identical to the
    // cold record.
    let warm = campaign(&graph_dir, hash)
        .with_trace_store(Arc::clone(&store))
        .run();
    assert_bit_identical(&cold, &warm, "warm store run");
    assert!(store.stats().hits > 0, "warm run should hit the store");

    std::fs::remove_dir_all(&graph_dir).ok();
    std::fs::remove_dir_all(&store_dir).ok();
}
