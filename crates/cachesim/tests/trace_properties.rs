//! Property tests for the canonical post-L2 trace: the chunked SoA storage
//! must round-trip arbitrary event sequences exactly (`push`/`get`/`iter`/
//! `to_vec` always agree), replay must be deterministic, and the batched
//! chunk kernel must reproduce the per-event reference bit-for-bit for
//! arbitrary event sequences — flushes and writebacks included — wherever
//! chunk boundaries fall.

use grasp_cachesim::config::CacheConfig;
use grasp_cachesim::hint::ReuseHint;
use grasp_cachesim::policy::grasp::Grasp;
use grasp_cachesim::policy::lru::Lru;
use grasp_cachesim::policy::rrip::Drrip;
use grasp_cachesim::request::{AccessInfo, RegionLabel};
use grasp_cachesim::trace::{ChunkReplayer, LlcTrace, RecordContext, TraceChunk, TraceEvent};
use proptest::prelude::*;

/// An arbitrary event: selector (demand read / demand write / prefetch /
/// writeback), block index, site, hint selector, region selector.
fn arb_events() -> impl Strategy<Value = Vec<TraceEvent>> {
    arb_events_with_flushes(4)
}

/// Like [`arb_events`], but selector values ≥ 4 become flush markers when
/// `kinds` is 5 (the replay parity properties exercise them; the storage
/// round-trip keeps the historical distribution).
fn arb_events_with_flushes(kinds: u8) -> impl Strategy<Value = Vec<TraceEvent>> {
    proptest::collection::vec((0u8..kinds, 0u64..4096, 0u16..32, 0u8..4, 0u8..5), 1..800).prop_map(
        |entries| {
            entries
                .into_iter()
                .map(|(kind, blk, site, hint, region)| {
                    let addr = blk * 64;
                    let info = AccessInfo::read(addr)
                        .with_site(site)
                        .with_hint(ReuseHint::decode(hint))
                        .with_region(RegionLabel::ALL[region as usize]);
                    match kind {
                        0 => TraceEvent::Demand(info),
                        1 => TraceEvent::Demand(AccessInfo {
                            kind: grasp_cachesim::AccessKind::Write,
                            ..info
                        }),
                        2 => TraceEvent::Prefetch(info),
                        3 => TraceEvent::Writeback(addr),
                        _ => TraceEvent::Flush,
                    }
                })
                .collect()
        },
    )
}

fn build(events: &[TraceEvent]) -> LlcTrace {
    let mut trace = LlcTrace::new();
    for event in events {
        match event {
            TraceEvent::Demand(info) => trace.push(info),
            TraceEvent::Prefetch(info) => trace.push_prefetch(info),
            TraceEvent::Writeback(addr) => trace.push_writeback(*addr),
            TraceEvent::Flush => trace.push_flush(),
        }
    }
    trace
}

/// Splits `events` into consecutive `k`-event windows and records each as
/// its own [`LlcTrace`], so the windows' chunks put run boundaries exactly
/// at every `k`-th record — however short `k` is relative to the storage
/// chunk size.
fn windowed(events: &[TraceEvent], k: usize) -> Vec<LlcTrace> {
    events.chunks(k).map(build).collect()
}

/// Every chunk of every window, in stream order.
fn window_chunks(windows: &[LlcTrace]) -> impl Iterator<Item = &TraceChunk> {
    windows.iter().flat_map(LlcTrace::chunks)
}

proptest! {
    #[test]
    fn push_get_iter_and_to_vec_agree(events in arb_events()) {
        let trace = build(&events);
        prop_assert_eq!(trace.len(), events.len());
        let demand_count = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Demand(_)))
            .count();
        prop_assert_eq!(trace.demand_len(), demand_count);
        // get() agrees with the source events...
        for (i, expected) in events.iter().enumerate() {
            prop_assert_eq!(&trace.get(i), expected, "index {}", i);
        }
        // ...and with iter() / to_vec().
        let iterated: Vec<TraceEvent> = trace.iter().collect();
        prop_assert_eq!(&iterated, &events);
        prop_assert_eq!(&trace.to_vec(), &events);
        // The demand view is the demand subsequence, in order.
        let demands: Vec<AccessInfo> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Demand(info) => Some(*info),
                _ => None,
            })
            .collect();
        prop_assert_eq!(trace.demand_vec(), demands);
    }

    #[test]
    fn replay_is_deterministic_across_repeated_runs(events in arb_events()) {
        let trace = build(&events);
        let config = CacheConfig::new(64 * 128, 8, 64);
        let lru_a = trace.replay(config, Lru::new(config.sets(), config.ways));
        let lru_b = trace.replay(config, Lru::new(config.sets(), config.ways));
        prop_assert_eq!(&lru_a, &lru_b);
        let grasp_a = trace.replay(config, Grasp::new(config.sets(), config.ways, 7));
        let grasp_b = trace.replay(config, Grasp::new(config.sets(), config.ways, 7));
        prop_assert_eq!(&grasp_a, &grasp_b);
        // Internal consistency of the replayed hierarchy view.
        prop_assert_eq!(lru_a.llc.accesses as usize, trace.demand_len());
        prop_assert_eq!(lru_a.memory_accesses, lru_a.llc.misses);
    }

    #[test]
    fn batched_feed_is_bit_identical_to_per_event_feed(events in arb_events_with_flushes(5)) {
        // The batched chunk-native kernel against the per-event reference
        // path, over arbitrary event mixes: demand reads and writes, dirty
        // writebacks, prefetches and flushes, across several policies
        // (bypassing GRASP included). Tiny windows put run boundaries at
        // chunk edges: a run cut mid-stream by a chunk boundary must replay
        // exactly like the same records fed one by one.
        let config = CacheConfig::new(64 * 128, 8, 64);
        let context = RecordContext::default();
        for k in [1usize, 7, events.len().max(1)] {
            let windows = windowed(&events, k);
            let mut batched_lru = ChunkReplayer::new(config, Lru::new(config.sets(), config.ways));
            let mut scalar_lru = ChunkReplayer::new(config, Lru::new(config.sets(), config.ways));
            let mut batched_grasp =
                ChunkReplayer::new(config, Grasp::new(config.sets(), config.ways, 7));
            let mut scalar_grasp =
                ChunkReplayer::new(config, Grasp::new(config.sets(), config.ways, 7));
            for chunk in window_chunks(&windows) {
                batched_lru.feed(chunk);
                scalar_lru.feed_scalar(chunk);
                batched_grasp.feed(chunk);
                scalar_grasp.feed_scalar(chunk);
            }
            let batched = batched_lru.finish(&context);
            let scalar = scalar_lru.finish(&context);
            prop_assert_eq!(&batched, &scalar, "LRU, {} rec/chunk", k);
            let batched = batched_grasp.finish(&context);
            let scalar = scalar_grasp.finish(&context);
            prop_assert_eq!(&batched, &scalar, "GRASP, {} rec/chunk", k);
        }
    }

    #[test]
    fn batched_and_scalar_buffered_replays_agree(events in arb_events_with_flushes(5)) {
        let trace = build(&events);
        let config = CacheConfig::new(64 * 128, 8, 64);
        let batched = trace.replay(config, Drrip::new(config.sets(), config.ways, 1));
        let scalar = trace.replay_scalar(config, Drrip::new(config.sets(), config.ways, 1));
        prop_assert_eq!(&batched, &scalar);
    }

}

/// Degenerate scalar-only chunks: a chunk that is 100% writebacks and
/// flushes contains no batchable run at all, so the batched kernel must
/// reduce entirely to the scalar fallback.
#[test]
fn all_writeback_and_flush_chunks_replay_identically() {
    let mut events = Vec::new();
    // Warm some dirty blocks so the writebacks below have residents to hit.
    for blk in 0..64u64 {
        events.push(TraceEvent::Demand(AccessInfo::write(blk * 64)));
    }
    // One chunk's worth of pure writebacks with a flush sprinkled in.
    for blk in 0..512u64 {
        if blk % 97 == 0 {
            events.push(TraceEvent::Flush);
        }
        events.push(TraceEvent::Writeback((blk % 128) * 64));
    }
    let config = CacheConfig::new(64 * 128, 8, 64);
    // 64-event windows make the writeback/flush tail span whole chunks with
    // no demand or prefetch record in them.
    let windows = windowed(&events, 64);
    let mut batched = ChunkReplayer::new(config, Lru::new(config.sets(), config.ways));
    let mut scalar = ChunkReplayer::new(config, Lru::new(config.sets(), config.ways));
    for chunk in window_chunks(&windows) {
        batched.feed(chunk);
        scalar.feed_scalar(chunk);
    }
    let context = RecordContext::default();
    let a = batched.finish(&context);
    let b = scalar.finish(&context);
    assert_eq!(a, b);
    assert!(a.llc.writeback_accesses >= 512, "writebacks all replayed");
}
