//! The repository benchmark: three workloads that drive the campaign
//! library and the `grasp-serve` daemon through their public calls, check
//! that every result is correct, and report end-to-end metrics (untraced
//! runs) or per-layer metrics (traced runs). See `README.md` beside this
//! crate for every metric's unit, direction and kind.

pub mod inputs;
pub mod library;
pub mod meta;
pub mod probes;
pub mod report;
pub mod service;
pub mod spans;
pub mod stats;

use grasp_analytics::apps::AppKind;
use grasp_core::campaign::{CampaignRun, SchedulerEvent};
use grasp_core::datasets::Scale;
use grasp_core::policy::PolicyKind;

/// The full policy roster of the evaluation, as the parity suites pin it.
pub const FULL_GRID: [PolicyKind; 13] = [
    PolicyKind::Lru,
    PolicyKind::Random,
    PolicyKind::Srrip,
    PolicyKind::Brrip,
    PolicyKind::Rrip,
    PolicyKind::ShipMem,
    PolicyKind::Hawkeye,
    PolicyKind::Leeway,
    PolicyKind::Pin(50),
    PolicyKind::Pin(100),
    PolicyKind::GraspHintsOnly,
    PolicyKind::GraspInsertionOnly,
    PolicyKind::Grasp,
];

/// The cold grid: the paper's baseline and GRASP.
pub const COLD_POLICIES: [PolicyKind; 2] = [PolicyKind::Rrip, PolicyKind::Grasp];

/// Size class of the library workloads' campaigns: its 32 KiB LLC keeps the
/// 2^13-vertex graphs' property arrays larger than the LLC, the regime the
/// paper studies.
pub const LIBRARY_SCALE: Scale = Scale::Tiny;

/// Scale the service workload's synthetic datasets are generated at.
pub const SERVICE_SCALE: Scale = Scale::Tiny;

/// Schedules a timed phase: whether the next repetition is traced, or
/// `None` once `seconds` have passed since `started` and enough repetitions
/// ran — `min` of them, or in a traced run at least `min.clamp(1, 2)` on
/// each side (traced and untraced alternate, untraced first, so the
/// overhead is measured under the same conditions).
pub(crate) fn next_repetition(
    trace: bool,
    traced: usize,
    total: usize,
    min: usize,
    started: std::time::Instant,
    seconds: f64,
) -> Option<bool> {
    let enough = if trace {
        traced.min(total - traced) >= min.clamp(1, 2)
    } else {
        total >= min
    };
    if enough && started.elapsed().as_secs_f64() >= seconds {
        return None;
    }
    Some(trace && total % 2 == 1)
}

/// Empties (or creates) a scratch directory.
pub(crate) fn fresh_dir(dir: &std::path::Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a (64-bit) continuing from `hash`.
pub(crate) fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A metric-name slug for a policy (`PIN-50` → `pin-50`,
/// `RRIP+Hints` → `rrip_hints`).
pub fn policy_slug(policy: PolicyKind) -> String {
    let wire = grasp_core::spec::policy_wire(policy).to_ascii_lowercase();
    let slug: String = wire
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect();
    slug.split('_')
        .filter(|part| !part.is_empty())
        .collect::<Vec<_>>()
        .join("_")
}

/// A metric-name slug for an application (`PR` → `pr`).
pub fn app_slug(app: AppKind) -> String {
    app.label().to_ascii_lowercase()
}

/// The simulated outcome of one grid cell, in the fields the service's
/// `cell` frame carries, so library and service results compare directly.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CellOutcome {
    /// `dataset/technique/app/policy`.
    pub key: String,
    /// LLC demand accesses (simulated).
    pub llc_accesses: u64,
    /// LLC demand misses (simulated).
    pub llc_misses: u64,
    /// Bit pattern of the estimated cycles (simulated).
    pub cycles_bits: String,
    /// FNV-1a over the application's output values.
    pub values_fnv: String,
    /// Application iterations.
    pub iterations: u64,
    /// Edges the application traversed.
    pub edges_processed: u64,
}

impl CellOutcome {
    /// The outcome of a library run, spelled the way the service frames it.
    pub fn of_run(run: &CampaignRun) -> Self {
        Self {
            key: format!(
                "{}/{}/{}/{}",
                run.cell.dataset.slug(),
                run.cell.technique.label(),
                run.cell.app.label(),
                grasp_core::spec::policy_wire(run.cell.policy)
            ),
            llc_accesses: run.result.llc_accesses(),
            llc_misses: run.result.llc_misses(),
            cycles_bits: grasp_serve::protocol::f64_bits(run.result.cycles),
            values_fnv: grasp_serve::protocol::values_fingerprint(&run.result.app.values),
            iterations: run.result.app.iterations as u64,
            edges_processed: run.result.app.edges_processed,
        }
    }

    /// Cycles as a float (the bit pattern decoded).
    pub fn cycles(&self) -> f64 {
        f64::from_bits(u64::from_str_radix(&self.cycles_bits, 16).unwrap_or(0))
    }
}

/// FNV-1a over a set of outcomes in key order: equal sets give equal
/// fingerprints however the cells were produced or ordered.
pub fn fingerprint(outcomes: &[CellOutcome]) -> u64 {
    let mut sorted: Vec<&CellOutcome> = outcomes.iter().collect();
    sorted.sort();
    sorted.dedup();
    sorted.iter().fold(FNV_OFFSET, |hash, cell| {
        fnv1a(hash, format!("{cell:?}").as_bytes())
    })
}

/// Geometric mean over cells of RRIP's cycles divided by GRASP's (above 1
/// means GRASP is faster), over the (stream, policy) outcomes selected by
/// `keep`; `None` when no stream has both policies.
pub fn grasp_speedup(outcomes: &[CellOutcome], keep: impl Fn(&str) -> bool) -> Option<f64> {
    let mut rrip = std::collections::BTreeMap::new();
    let mut grasp = std::collections::BTreeMap::new();
    for cell in outcomes.iter().filter(|c| keep(&c.key)) {
        let (stream, policy) = cell.key.rsplit_once('/').expect("keys have four parts");
        match policy {
            "RRIP" => rrip.insert(stream.to_owned(), cell.cycles()),
            "GRASP" => grasp.insert(stream.to_owned(), cell.cycles()),
            _ => None,
        };
    }
    let ratios: Vec<f64> = rrip
        .iter()
        .filter_map(|(stream, r)| grasp.get(stream).map(|g| r / g))
        .collect();
    (!ratios.is_empty())
        .then(|| (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp())
}

/// Scheduler-event census of one campaign: (recorded, deduped, loads).
pub fn event_census(events: &[SchedulerEvent]) -> (u64, u64, u64) {
    let mut census = (0, 0, 0);
    for event in events {
        match event {
            SchedulerEvent::RecordFinished { .. } => census.0 += 1,
            SchedulerEvent::RecordDeduped { .. } => census.1 += 1,
            SchedulerEvent::LoadFinished { .. } => census.2 += 1,
            _ => {}
        }
    }
    census
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_slugs_are_metric_name_safe_and_distinct() {
        let slugs: Vec<String> = FULL_GRID.iter().map(|&p| policy_slug(p)).collect();
        for slug in &slugs {
            assert!(
                slug.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.')),
                "{slug}"
            );
        }
        let mut unique = slugs.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), slugs.len());
        assert_eq!(
            policy_slug(PolicyKind::GraspInsertionOnly),
            "grasp_insertion-only"
        );
        assert_eq!(policy_slug(PolicyKind::Pin(50)), "pin-50");
    }
}
