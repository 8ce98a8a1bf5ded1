//! The staged view of the cache hierarchy: an upper-level filter stage
//! (L1 + L2 + stride prefetcher + GRASP's region classification) feeding a
//! last-level-cache stage through the [`LlcSink`] interface.
//!
//! The split exists because everything above the LLC is **independent of the
//! LLC replacement policy**: L1 and L2 are LRU-managed, the prefetcher
//! observes the demand stream at L1, and nothing the LLC decides flows back
//! upward. The post-L2 request stream — demand fills, prefetch fills and
//! dirty-victim writebacks, each demand/prefetch request carrying its 2-bit
//! reuse hint — is therefore a pure function of the application. The
//! record-once / replay-many experiment pipeline exploits exactly this:
//!
//! ```text
//!             ┌────────────────────────── UpperLevels ─────────────────────────┐
//!  app access │ L1-D (LRU) → L2 (LRU) → RegionClassifier (ABRs → reuse hint)   │
//!             └──────────────┬─────────────────────────────────────────────────┘
//!                            │ demand / prefetch / writeback   (LlcSink)
//!              ┌─────────────┴─────────────┐
//!              │  LlcStage (policy X)      │   ← simulate now (direct path)
//!              │  LlcTrace (recorder)      │   ← or record once, replay per policy
//!              └───────────────────────────┘
//! ```
//!
//! [`crate::Hierarchy`] composes the two stages back into the classic
//! three-level simulator; [`crate::trace::LlcTrace`] implements [`LlcSink`] as
//! a pure recorder, and [`LlcTrace::replay`](crate::trace::LlcTrace::replay)
//! drives a fresh [`LlcStage`] from the recorded stream — through the *same*
//! code path, which is what makes replayed statistics bit-identical to direct
//! simulation.

use crate::addr::Address;
use crate::cache::{
    record_filter_fused, AccessOutcome, BatchOp, BatchScratch, RecordEscape, SetAssocCache,
    BATCH_TILE,
};
use crate::config::{CacheConfig, HierarchyConfig};
use crate::hint::{RegionClassifier, ReuseHint};
use crate::policy::lru::Lru;
use crate::policy::PolicyDispatch;
use crate::prefetch::StridePrefetcher;
use crate::request::{AccessInfo, AccessKind, AccessSite, RegionLabel};
use crate::stats::CacheStats;
use crate::trace::{decode_record, encode_meta, META_PREFETCH_BIT, META_WRITEBACK_BIT};

/// Consumer of the post-L2 request stream produced by [`UpperLevels`].
///
/// Implemented by [`LlcStage`] (simulate the LLC now) and by
/// [`crate::trace::LlcTrace`] (record the stream for later replay).
pub trait LlcSink {
    /// A demand request that missed L1 and L2. Returns `true` when the
    /// request hits on chip (i.e. in the LLC); recorders return `false`.
    fn demand(&mut self, info: &AccessInfo) -> bool;

    /// A prefetch request that missed L1 and L2.
    fn prefetch(&mut self, info: &AccessInfo);

    /// The writeback of a dirty victim evicted from L2 (or evicted from L1
    /// and absent in L2).
    fn writeback(&mut self, addr: Address);

    /// Consumes a whole flush-free run of post-L2 records at once: `addrs`
    /// and `meta` are the index-aligned encoded columns of the trace format
    /// (demand, prefetch and writeback records only — never flush markers),
    /// in stream order. The default implementation decodes each record and
    /// dispatches it through the per-event methods, so every sink accepts
    /// batches; bulk-native sinks (the trace recorder, the LLC stage)
    /// override it to consume the columns without materializing per-event
    /// structs.
    fn push_batch(&mut self, addrs: &[Address], meta: &[u32]) {
        for (&addr, &meta) in addrs.iter().zip(meta) {
            match decode_record(addr, meta) {
                (info, BatchOp::Demand) => {
                    self.demand(&info);
                }
                (info, BatchOp::Prefetch) => self.prefetch(&info),
                (info, BatchOp::Writeback) => self.writeback(info.addr),
            }
        }
    }
}

/// Reusable encoded sink columns of [`UpperLevels::access_batch`], kept
/// across batches so bulk emission never reallocates in steady state.
#[derive(Debug, Default)]
struct RecordBatchScratch {
    sink_addrs: Vec<Address>,
    sink_meta: Vec<u32>,
}

/// The policy-independent upper levels of the hierarchy: L1-D and L2 (both
/// LRU), the L1 stride prefetcher, and the region classifier that attaches
/// GRASP's reuse hint to every request on its way to the LLC.
pub struct UpperLevels {
    config: HierarchyConfig,
    l1: SetAssocCache,
    l2: SetAssocCache,
    classifier: RegionClassifier,
    prefetcher: Option<StridePrefetcher>,
    abr_bounds: Vec<(Address, Address)>,
    record_batch: RecordBatchScratch,
}

impl std::fmt::Debug for UpperLevels {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UpperLevels")
            .field("config", &self.config)
            .field("classifier_enabled", &self.classifier.is_enabled())
            .finish()
    }
}

impl UpperLevels {
    /// Creates the filter stage with the given configuration and classifier.
    pub fn new(config: HierarchyConfig, classifier: RegionClassifier) -> Self {
        let l1 = SetAssocCache::new(
            "L1-D",
            config.l1,
            Lru::new(config.l1.sets(), config.l1.ways),
        );
        let l2 = SetAssocCache::new("L2", config.l2, Lru::new(config.l2.sets(), config.l2.ways));
        Self {
            config,
            l1,
            l2,
            classifier,
            prefetcher: config.prefetch.then(StridePrefetcher::default),
            abr_bounds: Vec::new(),
            record_batch: RecordBatchScratch::default(),
        }
    }

    /// The hierarchy configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// The region classifier in use.
    pub fn classifier(&self) -> &RegionClassifier {
        &self.classifier
    }

    /// Programs the Address Bound Registers with the bounds of the
    /// application's Property Arrays and rebuilds the region classifier
    /// (the software side of GRASP's interface, Sec. III-A).
    pub fn program_abrs(&mut self, bounds: &[(Address, Address)]) {
        let mut abrs = crate::hint::AddressBoundRegisters::new();
        for &(start, end) in bounds {
            abrs.program(start, end);
        }
        self.classifier = RegionClassifier::new(abrs, self.config.llc.size_bytes);
        self.abr_bounds = bounds.to_vec();
    }

    /// The most recently programmed ABR bounds (empty when unprogrammed).
    pub fn abr_bounds(&self) -> &[(Address, Address)] {
        &self.abr_bounds
    }

    /// Accumulated L1-D statistics.
    pub fn l1_stats(&self) -> &CacheStats {
        self.l1.stats()
    }

    /// Accumulated L2 statistics.
    pub fn l2_stats(&self) -> &CacheStats {
        self.l2.stats()
    }

    /// Snapshot of everything a recorded trace carries alongside the post-L2
    /// stream: the upper-level statistics and the programmed ABR bounds.
    pub fn record_context(&self) -> crate::trace::RecordContext {
        crate::trace::RecordContext {
            l1: self.l1.stats().clone(),
            l2: self.l2.stats().clone(),
            abr_bounds: self.abr_bounds.clone(),
        }
    }

    /// Performs one demand access, forwarding whatever escapes L2 — the
    /// demand request itself, at most one prefetch request, and any dirty
    /// victim writebacks — into `sink`. Returns `true` if the demand access
    /// hit somewhere on chip.
    pub fn access(
        &mut self,
        addr: Address,
        kind: AccessKind,
        site: AccessSite,
        region: RegionLabel,
        sink: &mut impl LlcSink,
    ) -> bool {
        let base = AccessInfo {
            addr,
            kind,
            site,
            hint: ReuseHint::Default,
            region,
        };

        let on_chip = self.demand(&base, sink);

        // The prefetcher observes the demand stream at L1 and issues at most
        // one prefetch per access.
        if let Some(prefetcher) = self.prefetcher.as_mut() {
            if let Some(predicted) = prefetcher.observe(site, addr) {
                let pf = AccessInfo {
                    addr: predicted,
                    kind: AccessKind::Read,
                    site,
                    hint: ReuseHint::Default,
                    region,
                };
                self.prefetch(&pf, sink);
            }
        }
        on_chip
    }

    /// Batched counterpart of [`UpperLevels::access`]: filters a whole run
    /// of demand accesses through L1 and L2 with the fused record kernel and
    /// appends whatever escapes L2 into `sink` column-wise through
    /// [`LlcSink::push_batch`]. Bit-identical to calling
    /// [`UpperLevels::access`] once per element, in order — same cache
    /// decisions and statistics, same sink record sequence. The incoming
    /// `hint` of each request is ignored, exactly as the scalar entry point
    /// rebuilds it from scratch.
    ///
    /// The run is processed in fixed-size (`BATCH_TILE`) tiles. Each tile makes
    /// one fused pass over both levels with the policy dispatches and the
    /// prefetcher presence check hoisted out of the loop and statistics
    /// deferred to per-tile sums; escaping records are classified and
    /// encoded straight into the reusable sink columns and appended with one
    /// bulk push per tile. (Record streams are overwhelmingly L1 hits, so a
    /// staged columnar variant — interleave, L1 pass, dense re-pack, L2 pass
    /// — measures slower than per-event: the kernel fuses the levels
    /// instead.)
    pub fn access_batch(&mut self, batch: &[AccessInfo], sink: &mut impl LlcSink) {
        let Self {
            l1,
            l2,
            classifier,
            prefetcher,
            record_batch: scratch,
            ..
        } = self;
        let RecordBatchScratch {
            sink_addrs,
            sink_meta,
        } = scratch;
        for start in (0..batch.len()).step_by(BATCH_TILE) {
            let tile = &batch[start..batch.len().min(start + BATCH_TILE)];
            sink_addrs.clear();
            sink_meta.clear();
            {
                let mut emit = |escape: RecordEscape| match escape {
                    RecordEscape::Request { info, prefetch } => {
                        let hinted = info.with_hint(classifier.classify(info.addr));
                        let kind_bit = if prefetch { META_PREFETCH_BIT } else { 0 };
                        sink_addrs.push(hinted.addr);
                        sink_meta.push(encode_meta(&hinted, kind_bit));
                    }
                    RecordEscape::Writeback(addr) => {
                        sink_addrs.push(addr);
                        sink_meta.push(META_WRITEBACK_BIT);
                    }
                };
                record_filter_fused(l1, l2, prefetcher.as_mut(), tile, &mut emit);
            }
            if !sink_addrs.is_empty() {
                sink.push_batch(sink_addrs, sink_meta);
            }
        }
    }

    fn demand(&mut self, info: &AccessInfo, sink: &mut impl LlcSink) -> bool {
        let l1 = self.l1.access(info);
        if l1.is_hit() {
            return true;
        }
        let l2 = self.l2.access(info);
        let mut on_chip = l2.is_hit();
        if !on_chip {
            // The LLC request carries the 2-bit reuse hint computed by
            // GRASP's classification logic (Fig. 4).
            let llc_info = info.with_hint(self.classifier.classify(info.addr));
            on_chip = sink.demand(&llc_info);
        }
        self.drain_writebacks(&l1, &l2, sink);
        on_chip
    }

    fn prefetch(&mut self, info: &AccessInfo, sink: &mut impl LlcSink) {
        let l1 = self.l1.prefetch(info);
        let mut l2 = AccessOutcome {
            hit: true,
            evicted: None,
            evicted_dirty: false,
            bypassed: false,
        };
        if !l1.is_hit() {
            l2 = self.l2.prefetch(info);
            if !l2.is_hit() {
                let llc_info = info.with_hint(self.classifier.classify(info.addr));
                sink.prefetch(&llc_info);
            }
        }
        self.drain_writebacks(&l1, &l2, sink);
    }

    /// Routes the dirty victims of one access down the hierarchy: an L1
    /// victim is written back into L2 (and forwarded to the LLC when L2 does
    /// not hold the block), an L2 victim goes straight to the LLC.
    fn drain_writebacks(
        &mut self,
        l1: &AccessOutcome,
        l2: &AccessOutcome,
        sink: &mut impl LlcSink,
    ) {
        if l1.evicted_dirty {
            if let Some(block) = l1.evicted {
                let addr = block * self.config.l1.block_bytes;
                if !self.l2.writeback(addr) {
                    sink.writeback(addr);
                }
            }
        }
        if l2.evicted_dirty {
            if let Some(block) = l2.evicted {
                sink.writeback(block * self.config.l2.block_bytes);
            }
        }
    }

    /// Invalidates both levels, resets their LRU state and clears the
    /// prefetcher's stride training.
    pub fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
        if let Some(prefetcher) = self.prefetcher.as_mut() {
            prefetcher.reset();
        }
    }
}

/// The LLC stage: a single set-associative cache under the replacement policy
/// being evaluated, plus the count of demand requests that fell through to
/// main memory.
///
/// Both the direct simulation path ([`crate::Hierarchy`]) and trace replay
/// ([`crate::trace::LlcTrace::replay`]) drive this same type, which is what
/// guarantees bit-identical statistics between the two.
pub struct LlcStage {
    cache: SetAssocCache,
    memory_accesses: u64,
    /// Reusable lookup columns of the bulk-sink path (simulate-while-record).
    scratch: BatchScratch,
}

impl std::fmt::Debug for LlcStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LlcStage")
            .field("policy", &self.cache.policy_name())
            .field("memory_accesses", &self.memory_accesses)
            .finish()
    }
}

impl LlcStage {
    /// Creates the LLC stage with the given geometry and replacement policy.
    pub fn new(config: CacheConfig, policy: impl Into<PolicyDispatch>) -> Self {
        Self {
            cache: SetAssocCache::new("LLC", config, policy),
            memory_accesses: 0,
            scratch: BatchScratch::new(),
        }
    }

    /// Name of the replacement policy managing the LLC.
    pub fn policy_name(&self) -> &'static str {
        self.cache.policy_name()
    }

    /// Accumulated LLC statistics.
    pub fn stats(&self) -> &CacheStats {
        self.cache.stats()
    }

    /// Demand requests that had to go to main memory (== demand LLC misses).
    pub fn memory_accesses(&self) -> u64 {
        self.memory_accesses
    }

    /// Simulates one demand request; returns `true` on an LLC hit.
    #[inline]
    pub fn demand(&mut self, info: &AccessInfo) -> bool {
        let hit = self.cache.access(info).is_hit();
        if !hit {
            self.memory_accesses += 1;
        }
        hit
    }

    /// Simulates one prefetch request.
    #[inline]
    pub fn prefetch(&mut self, info: &AccessInfo) {
        self.cache.prefetch(info);
    }

    /// Replays one flush-free tile of a recorded post-L2 stream — demand,
    /// prefetch and writeback records freely interleaved — through the
    /// cache's fused mixed batched kernel
    /// ([`SetAssocCache::replay_batch_fused`]): the tile arrives as its raw
    /// byte-address column plus an in-register record decoder, so nothing is
    /// buffered between decode and lookup. Every demand miss reaches memory,
    /// so the memory-access counter advances by the tile's demand-miss
    /// count. Bit-identical to dispatching each record through
    /// [`LlcStage::demand`] / [`LlcStage::prefetch`] /
    /// [`LlcStage::writeback`] in order.
    #[inline]
    pub fn replay_batch_fused<F>(
        &mut self,
        addrs: &[Address],
        scratch: &mut crate::cache::BatchScratch,
        decode: F,
    ) where
        F: Fn(usize) -> (AccessInfo, crate::cache::BatchOp),
    {
        self.memory_accesses += self.cache.replay_batch_fused(addrs, scratch, decode);
    }

    /// Receives the writeback of a dirty victim from the upper levels.
    #[inline]
    pub fn writeback(&mut self, addr: Address) {
        self.cache.writeback(addr);
    }

    /// Invalidates the cache and resets the replacement policy (statistics
    /// and the memory-access count keep accumulating, mirroring
    /// [`crate::Hierarchy::flush`]).
    pub fn flush(&mut self) {
        self.cache.flush();
    }

    /// Consumes the stage and returns the LLC statistics.
    pub fn into_stats(self) -> CacheStats {
        self.cache.stats().clone()
    }
}

impl LlcSink for LlcStage {
    fn demand(&mut self, info: &AccessInfo) -> bool {
        LlcStage::demand(self, info)
    }

    fn prefetch(&mut self, info: &AccessInfo) {
        LlcStage::prefetch(self, info);
    }

    fn writeback(&mut self, addr: Address) {
        LlcStage::writeback(self, addr);
    }

    /// Bulk records drive the same fused mixed kernel trace replay uses:
    /// lookup columns straight off the raw address column, each record
    /// decoded in registers as the policy-monomorphized loop consumes it.
    fn push_batch(&mut self, addrs: &[Address], meta: &[u32]) {
        let mut scratch = std::mem::take(&mut self.scratch);
        self.memory_accesses += self
            .cache
            .replay_batch_fused(addrs, &mut scratch, |i| decode_record(addrs[i], meta[i]));
        self.scratch = scratch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::rrip::Drrip;

    /// A sink that counts what reaches it.
    #[derive(Default)]
    struct Counter {
        demands: usize,
        prefetches: usize,
        writebacks: usize,
    }

    impl LlcSink for Counter {
        fn demand(&mut self, _info: &AccessInfo) -> bool {
            self.demands += 1;
            false
        }

        fn prefetch(&mut self, _info: &AccessInfo) {
            self.prefetches += 1;
        }

        fn writeback(&mut self, _addr: Address) {
            self.writebacks += 1;
        }
    }

    fn upper() -> UpperLevels {
        UpperLevels::new(
            HierarchyConfig::scaled_default(),
            RegionClassifier::disabled(),
        )
    }

    #[test]
    fn repeated_accesses_are_filtered() {
        let mut u = upper();
        let mut sink = Counter::default();
        for _ in 0..10 {
            u.access(0x40, AccessKind::Read, 1, RegionLabel::Property, &mut sink);
        }
        assert_eq!(sink.demands, 1, "only the first access escapes L1");
        assert_eq!(u.l1_stats().accesses, 10);
        assert_eq!(u.l2_stats().accesses, 1);
    }

    #[test]
    fn streaming_accesses_produce_prefetch_requests() {
        let mut u = upper();
        let mut sink = Counter::default();
        for i in 0..4096u64 {
            u.access(
                i * 64,
                AccessKind::Read,
                2,
                RegionLabel::EdgeArray,
                &mut sink,
            );
        }
        assert!(sink.prefetches > 0, "stride stream must trigger prefetches");
    }

    #[test]
    fn dirty_victims_are_written_back_post_l2() {
        let mut u = upper();
        let mut sink = Counter::default();
        // Write far more distinct blocks than L1 + L2 hold: dirty victims
        // must eventually spill past L2 into the sink.
        for i in 0..4096u64 {
            u.access(
                i * 64 * 17,
                AccessKind::Write,
                3,
                RegionLabel::Property,
                &mut sink,
            );
        }
        assert!(sink.writebacks > 0, "dirty evictions must reach the LLC");
        assert!(
            sink.writebacks <= 2 * (sink.demands + sink.prefetches),
            "at most two post-L2 writebacks per filled request (one per level)"
        );
    }

    #[test]
    fn clean_traffic_produces_no_writebacks() {
        let mut u = upper();
        let mut sink = Counter::default();
        for i in 0..4096u64 {
            u.access(
                i * 64 * 17,
                AccessKind::Read,
                3,
                RegionLabel::Property,
                &mut sink,
            );
        }
        assert_eq!(sink.writebacks, 0, "reads never dirty a block");
    }

    /// A stressy access mix: strided reads (train the prefetcher), scattered
    /// writes (dirty victims spill past L2), several sites and regions.
    fn record_mix(len: usize) -> Vec<AccessInfo> {
        (0..len as u64)
            .map(|i| {
                let (addr, kind) = match i % 3 {
                    0 => (i * 64, AccessKind::Read),
                    1 => ((i * 64 * 17) % (1 << 22), AccessKind::Write),
                    _ => ((i * i * 64) % (1 << 20), AccessKind::Read),
                };
                AccessInfo {
                    addr,
                    kind,
                    site: (i % 7) as AccessSite,
                    hint: ReuseHint::Default,
                    region: RegionLabel::ALL[(i % 5) as usize],
                }
            })
            .collect()
    }

    #[test]
    fn batched_access_records_the_scalar_trace_bit_for_bit() {
        use crate::trace::LlcTrace;
        let mix = record_mix(6000);
        let mut scalar_upper = upper();
        let mut scalar_trace = LlcTrace::new();
        for info in &mix {
            scalar_upper.access(
                info.addr,
                info.kind,
                info.site,
                info.region,
                &mut scalar_trace,
            );
        }
        let mut batched_upper = upper();
        let mut batched_trace = LlcTrace::new();
        // Uneven sub-batches exercise tile boundaries and scratch reuse.
        for window in mix.chunks(997) {
            batched_upper.access_batch(window, &mut batched_trace);
        }
        assert_eq!(scalar_trace, batched_trace, "recorded streams must match");
        assert_eq!(scalar_trace.demand_len(), batched_trace.demand_len());
        assert_eq!(scalar_upper.l1_stats(), batched_upper.l1_stats());
        assert_eq!(scalar_upper.l2_stats(), batched_upper.l2_stats());
        assert!(!batched_trace.is_empty(), "the mix must escape L2");
    }

    #[test]
    fn batched_access_drives_a_simulated_llc_identically() {
        let mix = record_mix(5000);
        let config = CacheConfig::new(64 * 512, 16, 64);
        let mut scalar_upper = upper();
        let mut scalar_stage = LlcStage::new(config, Drrip::new(config.sets(), config.ways, 1));
        for info in &mix {
            scalar_upper.access(
                info.addr,
                info.kind,
                info.site,
                info.region,
                &mut scalar_stage,
            );
        }
        let mut batched_upper = upper();
        let mut batched_stage = LlcStage::new(config, Drrip::new(config.sets(), config.ways, 1));
        for window in mix.chunks(1203) {
            batched_upper.access_batch(window, &mut batched_stage);
        }
        assert_eq!(scalar_stage.stats(), batched_stage.stats());
        assert_eq!(
            scalar_stage.memory_accesses(),
            batched_stage.memory_accesses()
        );
        assert_eq!(scalar_upper.l1_stats(), batched_upper.l1_stats());
        assert_eq!(scalar_upper.l2_stats(), batched_upper.l2_stats());
    }

    #[test]
    fn llc_stage_counts_memory_accesses() {
        let config = CacheConfig::new(64 * 256, 16, 64);
        let mut stage = LlcStage::new(config, Drrip::new(config.sets(), config.ways, 1));
        stage.demand(&AccessInfo::read(0x40));
        stage.demand(&AccessInfo::read(0x40));
        assert_eq!(stage.stats().accesses, 2);
        assert_eq!(stage.stats().misses, 1);
        assert_eq!(stage.memory_accesses(), 1);
    }

    #[test]
    fn llc_stage_flush_keeps_counters() {
        let config = CacheConfig::new(64 * 256, 16, 64);
        let mut stage = LlcStage::new(config, Drrip::new(config.sets(), config.ways, 1));
        stage.demand(&AccessInfo::read(0x40));
        stage.flush();
        stage.demand(&AccessInfo::read(0x40));
        assert_eq!(stage.memory_accesses(), 2, "flush invalidates the block");
        assert_eq!(stage.stats().accesses, 2);
    }
}
