//! Seeded inputs: the two ingested graphs of the library workloads and the
//! request sequence of the service workload. The same seed always gives the
//! same inputs; the system under test only ever sees the generated data.

use crate::{FULL_GRID, SERVICE_SCALE};
use grasp_analytics::apps::AppKind;
use grasp_core::campaign::ExecutionMode;
use grasp_core::datasets::{DatasetCatalog, DatasetKind, GraphHash};
use grasp_core::policy::PolicyKind;
use grasp_core::spec::CampaignSpec;
use grasp_graph::generators::{GraphGenerator, Rmat, Uniform};
use grasp_graph::ingest;
use grasp_graph::prng::Xoshiro256;
use grasp_graph::EdgeList;
use std::path::Path;

/// Edge factor of both generated graphs (the R-MAT default of Graph500).
pub const EDGE_FACTOR: u64 = 16;

/// Salts keeping the per-purpose random streams of one seed independent.
const RMAT_SALT: u64 = 0x6772_6170_686d_6174;
const UNIFORM_SALT: u64 = 0x6772_6170_6875_6e69;
const REQUEST_SALT: u64 = 0x7365_7276_6963_6573;

/// One generated graph of a library workload.
#[derive(Debug, Clone)]
pub struct GraphInput {
    /// `rmat` (high skew) or `uniform` (no skew).
    pub name: &'static str,
    /// Whether the graph is the high-skew one.
    pub high_skew: bool,
    /// The deduplicated, self-loop-free edge list handed to ingestion.
    pub edges: EdgeList,
}

/// Generates the library workloads' graphs from `seed`: a high-skew R-MAT
/// graph and a no-skew uniform graph, both `2^log2` vertices.
pub fn library_graphs(seed: u64, log2: u32) -> Vec<GraphInput> {
    let rmat = Rmat::new(log2, EDGE_FACTOR);
    let uniform = Uniform::new(1 << log2, EDGE_FACTOR);
    vec![
        GraphInput {
            name: "rmat",
            high_skew: true,
            edges: clean_edges(&rmat, seed ^ RMAT_SALT),
        },
        GraphInput {
            name: "uniform",
            high_skew: false,
            edges: clean_edges(&uniform, seed ^ UNIFORM_SALT),
        },
    ]
}

/// The generator's edge list with the same clean-up its `generate` applies.
fn clean_edges(generator: &dyn GraphGenerator, seed: u64) -> EdgeList {
    let mut edges = generator.edge_list(seed);
    edges.remove_self_loops();
    edges.sort_and_dedup();
    edges
}

/// The graphs of a library workload after ingestion.
#[derive(Debug, Clone)]
pub struct Ingested {
    /// Resolves the hashes below to the on-disk graphs.
    pub catalog: DatasetCatalog,
    /// Content hash per graph, in [`library_graphs`] order.
    pub hashes: Vec<GraphHash>,
    /// Whether each graph is high-skew, in the same order.
    pub high_skew: Vec<bool>,
    /// Edges ingested, summed over the graphs.
    pub edges: u64,
}

/// Ingests every graph into its own directory under `dir` with `threads`
/// ingest workers and registers it in a fresh catalog.
pub fn ingest_graphs(
    graphs: &[GraphInput],
    dir: &Path,
    threads: usize,
) -> Result<Ingested, String> {
    let mut catalog = DatasetCatalog::new();
    let mut hashes = Vec::new();
    let mut edges = 0;
    for graph in graphs {
        let graph_dir = dir.join(format!("{}.gcsr", graph.name));
        let report = ingest::ingest_edge_list(&graph.edges, &graph_dir, threads)
            .map_err(|e| format!("ingest {}: {e}", graph.name))?;
        let hash = catalog
            .register(&graph_dir)
            .map_err(|e| format!("register {}: {e}", graph.name))?;
        if hash.0 != report.content_hash {
            return Err(format!("{}: catalog hash differs from ingest", graph.name));
        }
        hashes.push(hash);
        edges += report.edge_count;
    }
    Ok(Ingested {
        catalog,
        hashes,
        high_skew: graphs.iter().map(|g| g.high_skew).collect(),
        edges,
    })
}

/// The synthetic datasets service requests draw from: three high-skew
/// stand-ins and the two adversarial ones (low-skew `fr`, no-skew `uni`).
pub const SERVICE_POOL: [DatasetKind; 5] = [
    DatasetKind::Twitter,
    DatasetKind::Kron,
    DatasetKind::LiveJournal,
    DatasetKind::Friendster,
    DatasetKind::Uniform,
];

/// Requests per block of [`service_requests`]: one per (dataset,
/// application) stream of the pool.
pub const REQUESTS_PER_BLOCK: usize = SERVICE_POOL.len() * AppKind::ALL.len();

/// Draws the service workload's request sequence from `seed`: `blocks`
/// blocks of [`REQUESTS_PER_BLOCK`] requests.
///
/// Each block holds one request per (dataset, application) stream of the
/// pool, so every stream after the first block is served by the store or by
/// another request's in-flight recording. Each request asks for RRIP and
/// GRASP plus none, one or two other policies (2–4-policy subsets), dealt
/// in turn from the eleven other policies of the 13-policy grid. The seed
/// shuffles the order of the requests within each block. Fixing what a
/// block asks for and letting the seed pick the order keeps the work of a
/// sequence the same for every seed: seeds vary the interleaving — which
/// requests run side by side, which one leads a recording and which attach
/// or load — rather than the amount of work, so run-to-run spread measures
/// the system, not the draw. Each spec runs on one worker thread.
pub fn service_requests(seed: u64, blocks: usize) -> Vec<CampaignSpec> {
    let mut rng = Xoshiro256::seed_from_u64(seed ^ REQUEST_SALT);
    let others: Vec<PolicyKind> = FULL_GRID
        .into_iter()
        .filter(|p| !matches!(p, PolicyKind::Rrip | PolicyKind::Grasp))
        .collect();
    let mut dealt = others.iter().cycle();
    let mut requests = Vec::new();
    for block in 0..blocks {
        let mut specs = Vec::with_capacity(REQUESTS_PER_BLOCK);
        for (d, dataset) in SERVICE_POOL.into_iter().enumerate() {
            for (a, app) in AppKind::ALL.into_iter().enumerate() {
                let extra = (d + a + block) % 3;
                let mut spec = CampaignSpec::new(SERVICE_SCALE);
                spec.datasets = vec![dataset.into()];
                spec.apps = vec![app];
                spec.policies = [PolicyKind::Rrip, PolicyKind::Grasp]
                    .into_iter()
                    .chain(dealt.by_ref().take(extra).copied())
                    .collect();
                spec.mode = ExecutionMode::Pipelined;
                spec.threads = 1;
                specs.push(spec);
            }
        }
        rng.shuffle(&mut specs);
        requests.extend(specs);
    }
    requests
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hashes(seed: u64, tag: &str) -> Vec<GraphHash> {
        let dir = std::env::temp_dir().join(format!(
            "perfbench-inputs-{tag}-{seed}-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let ingested = ingest_graphs(&library_graphs(seed, 8), &dir, 2).expect("ingest");
        std::fs::remove_dir_all(&dir).ok();
        ingested.hashes
    }

    #[test]
    fn a_seed_fixes_the_ingested_graphs() {
        let first = hashes(7, "a");
        assert_eq!(first.len(), 2);
        assert_eq!(first, hashes(7, "b"), "same seed, same content hashes");
        let other = hashes(8, "c");
        assert_ne!(first[0], other[0], "another seed, another R-MAT graph");
        assert_ne!(first[1], other[1], "another seed, another uniform graph");
    }

    #[test]
    fn a_seed_fixes_the_request_sequence() {
        let a = service_requests(7, 2);
        assert_eq!(a.len(), 2 * REQUESTS_PER_BLOCK);
        assert_eq!(a, service_requests(7, 2));
        assert_ne!(a, service_requests(8, 2));
    }

    #[test]
    fn every_block_asks_for_every_stream_once_with_two_to_four_policies() {
        let requests = service_requests(3, 2);
        for block in requests.chunks(REQUESTS_PER_BLOCK) {
            let mut streams: Vec<String> = block
                .iter()
                .flat_map(|spec| spec.streams())
                .map(|(d, _, a)| format!("{}/{}", d.slug(), a.label()))
                .collect();
            streams.sort();
            let total = streams.len();
            streams.dedup();
            assert_eq!(total, SERVICE_POOL.len() * AppKind::ALL.len());
            assert_eq!(streams.len(), total, "no stream twice in a block");
        }
        for spec in &requests {
            assert!(
                (2..=4).contains(&spec.policies.len()),
                "{:?}",
                spec.policies
            );
            assert_eq!(&spec.policies[..2], &[PolicyKind::Rrip, PolicyKind::Grasp]);
            assert_eq!(spec.threads, 1);
        }
    }
}
