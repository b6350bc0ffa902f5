//! Property tests for the histogram and snapshot layers: sharded
//! recording must be indistinguishable from single-stream recording, and
//! the snapshot wire format must be lossless.

use proptest::prelude::*;

use gmlake_telemetry::{
    Event, EventKind, Histogram, HistogramSummary, MemorySample, MemorySnapshot, PoolSnapshot,
};

fn latency_strategy() -> impl Strategy<Value = u64> {
    // Span several octaves, from sub-bucket-exact to huge.
    prop_oneof![
        4 => 0u64..64,
        4 => 64u64..100_000,
        2 => 100_000u64..10_000_000_000,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging per-shard histograms equals one histogram fed the
    /// concatenated sample stream — bucket-exact, not just summary-close.
    #[test]
    fn merge_of_shards_equals_concatenated(
        shards in prop::collection::vec(
            prop::collection::vec(latency_strategy(), 0..200),
            1..6,
        )
    ) {
        let merged = Histogram::new();
        let reference = Histogram::new();
        for shard in &shards {
            let h = Histogram::new();
            for &v in shard {
                h.record(v);
                reference.record(v);
            }
            merged.merge(&h);
        }
        prop_assert_eq!(merged.nonzero_buckets(), reference.nonzero_buckets());
        prop_assert_eq!(merged.count(), reference.count());
        prop_assert_eq!(merged.summary(), reference.summary());
    }

    /// Percentiles are monotone in q and bounded by the observed extrema.
    #[test]
    fn percentiles_are_monotone_and_bounded(
        samples in prop::collection::vec(latency_strategy(), 1..500)
    ) {
        let h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        let lo = *samples.iter().min().unwrap();
        let hi = *samples.iter().max().unwrap();
        let mut prev = 0u64;
        for i in 0..=100 {
            let p = h.percentile(i as f64 / 100.0);
            prop_assert!(p >= prev, "percentile dipped at q={}", i);
            prop_assert!(p >= lo && p <= hi, "p{} = {} outside [{}, {}]", i, p, lo, hi);
            prev = p;
        }
    }

    /// Arbitrary snapshots survive the JSON round trip exactly.
    #[test]
    fn snapshot_json_round_trips(
        reserved in prop::collection::vec(0u64..1 << 40, 0..20),
        n_events in 0usize..30,
        kind_seed in any::<u64>(),
    ) {
        let samples: Vec<MemorySample> = reserved
            .iter()
            .enumerate()
            .map(|(i, &r)| MemorySample {
                ts_ns: i as u64 * 10,
                reserved_bytes: r,
                active_bytes: r / 2,
                fragmentation: if r == 0 { 0.0 } else { 0.5 },
            })
            .collect();
        let events: Vec<Event> = (0..n_events)
            .map(|i| {
                let kinds = EventKind::ALL;
                Event {
                    ts_ns: i as u64,
                    kind: kinds[(kind_seed as usize + i) % kinds.len()],
                    bytes: (i as u64) << 20,
                    a: i as u64,
                    b: kind_seed % 97,
                }
            })
            .collect();
        let snap = MemorySnapshot {
            pools: vec![PoolSnapshot {
                pool: "gpu0 \"quoted\"\npool".to_string(), // exercise escaping
                final_reserved: samples.last().map_or(0, |s| s.reserved_bytes),
                final_active: samples.last().map_or(0, |s| s.active_bytes),
                dropped_events: kind_seed % 13,
                // Counters stay below 2^53: the JSON shim stores numbers
                // as f64, and the round trip must be exact.
                fault: (kind_seed % 2 == 0).then(|| gmlake_telemetry::FaultSnapshot {
                    faults: kind_seed % 1_000_003,
                    retries: (kind_seed % 1_000_003) * 2,
                    journal_failed_ops: kind_seed % 1_000_003,
                    orphan_vas: kind_seed % 7,
                    orphan_va_bytes: (kind_seed % 7) << 21,
                    orphan_chunks: kind_seed % 11,
                }),
                samples,
                events,
                histograms: vec![(
                    "alloc_ns".to_string(),
                    HistogramSummary {
                        count: n_events as u64,
                        min_ns: 1,
                        max_ns: 1 << 30,
                        mean_ns: 123.25,
                        p50_ns: 10,
                        p90_ns: 100,
                        p99_ns: 1000,
                        p999_ns: 10_000,
                    },
                )],
            }],
        };
        let json = snap.to_json();
        prop_assert_eq!(MemorySnapshot::from_json(&json).unwrap(), snap.clone());
        // And it passes schema validation (timelines above are sorted and
        // the final gauges reconcile by construction).
        MemorySnapshot::validate_json(&json).unwrap();
        // The chrome-trace export of the same snapshot is valid JSON.
        gmlake_telemetry::json::parse(&snap.to_chrome_trace()).unwrap();
    }
}
