//! Memory-timeline snapshots: the exportable artifact.
//!
//! A [`MemorySnapshot`] bundles, per pool, the sampled
//! reserved/active/fragmentation series, the drained event trace,
//! and latency-histogram summaries. Two export formats:
//!
//! * [`MemorySnapshot::to_json`] — the canonical `gmlake-snapshot/v3`
//!   document, parsed back by [`MemorySnapshot::from_json`] and checked
//!   by [`MemorySnapshot::validate_json`] (the schema test CI runs
//!   against `--profile` output);
//! * [`MemorySnapshot::to_chrome_trace`] — a chrome://tracing /
//!   [Perfetto](https://ui.perfetto.dev) document: one counter track per
//!   pool for the memory series plus instant events for the trace.
//!
//! All timestamps are simulated nanoseconds from the driver clock.

use crate::event::{Event, EventKind};
use crate::histogram::HistogramSummary;
use crate::json::{self, Value};

/// Schema identifier written into and required of every snapshot.
pub const SCHEMA: &str = "gmlake-snapshot/v3";

/// One point on a pool's memory timeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemorySample {
    /// When the sample was taken (simulated ns).
    pub ts_ns: u64,
    /// Bytes reserved from the device (cached + in use).
    pub reserved_bytes: u64,
    /// Bytes handed out to live allocations.
    pub active_bytes: u64,
    /// `1 - active/reserved` (0 when nothing is reserved), in `[0, 1]`.
    pub fragmentation: f64,
}

/// Fault-recovery and orphan accounting for one pool: the runtime's
/// fault/retry counters merged with the allocator's fault-journal
/// residue, so chaos and serving runs surface both in one artifact.
///
/// Optional in the `gmlake-snapshot/v3` document (`"fault"`): absent for
/// pools profiled outside a fault-aware runtime, and older snapshots
/// without the section still parse.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultSnapshot {
    /// Driver faults observed by the runtime handle.
    pub faults: u64,
    /// Retries the runtime's bounded retry issued.
    pub retries: u64,
    /// Driver sequences that failed mid-way and were unwound.
    pub journal_failed_ops: u64,
    /// VA reservations the unwind could not return.
    pub orphan_vas: u64,
    /// Bytes of those orphaned reservations.
    pub orphan_va_bytes: u64,
    /// Physical chunk handles the unwind could not release.
    pub orphan_chunks: u64,
}

/// Everything recorded for one pool.
#[derive(Clone, Debug, PartialEq)]
pub struct PoolSnapshot {
    /// Pool label (e.g. `"gpu0"`).
    pub pool: String,
    /// Reserved bytes at dump time; the last timeline sample must agree.
    pub final_reserved: u64,
    /// Active bytes at dump time.
    pub final_active: u64,
    /// Trace records lost to ring-buffer overflow.
    pub dropped_events: u64,
    /// Fault-recovery and orphan accounting, when profiled through a
    /// fault-aware runtime (`None` otherwise).
    pub fault: Option<FaultSnapshot>,
    /// The memory timeline, in non-decreasing `ts_ns` order.
    pub samples: Vec<MemorySample>,
    /// The drained event trace, in non-decreasing `ts_ns` order.
    pub events: Vec<Event>,
    /// Latency histogram summaries, `(name, summary)`, stable order.
    pub histograms: Vec<(String, HistogramSummary)>,
}

/// A whole-run snapshot across every profiled pool.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MemorySnapshot {
    /// Per-pool snapshots, in registration order.
    pub pools: Vec<PoolSnapshot>,
}

impl MemorySnapshot {
    /// Serialize to the canonical `gmlake-snapshot/v3` JSON document.
    ///
    /// Numbers use Rust's shortest-round-trip float formatting, so
    /// [`from_json`](MemorySnapshot::from_json) reproduces this value
    /// exactly.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        out.push_str("  \"pools\": [");
        for (pi, pool) in self.pools.iter().enumerate() {
            if pi > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            out.push_str(&format!(
                "      \"pool\": \"{}\",\n",
                json::escape(&pool.pool)
            ));
            out.push_str(&format!(
                "      \"final_reserved_bytes\": {},\n",
                pool.final_reserved
            ));
            out.push_str(&format!(
                "      \"final_active_bytes\": {},\n",
                pool.final_active
            ));
            out.push_str(&format!(
                "      \"dropped_events\": {},\n",
                pool.dropped_events
            ));
            if let Some(fault) = &pool.fault {
                out.push_str(&format!(
                    "      \"fault\": {{\"faults\": {}, \"retries\": {}, \"journal_failed_ops\": {}, \"orphan_vas\": {}, \"orphan_va_bytes\": {}, \"orphan_chunks\": {}}},\n",
                    fault.faults,
                    fault.retries,
                    fault.journal_failed_ops,
                    fault.orphan_vas,
                    fault.orphan_va_bytes,
                    fault.orphan_chunks
                ));
            }
            out.push_str("      \"samples\": [");
            for (i, s) in pool.samples.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\n        {{\"ts_ns\": {}, \"reserved_bytes\": {}, \"active_bytes\": {}, \"fragmentation\": {}}}",
                    s.ts_ns, s.reserved_bytes, s.active_bytes, s.fragmentation
                ));
            }
            out.push_str(if pool.samples.is_empty() {
                "],\n"
            } else {
                "\n      ],\n"
            });
            out.push_str("      \"events\": [");
            for (i, e) in pool.events.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\n        {{\"ts_ns\": {}, \"kind\": \"{}\", \"bytes\": {}, \"a\": {}, \"b\": {}}}",
                    e.ts_ns,
                    e.kind.as_str(),
                    e.bytes,
                    e.a,
                    e.b
                ));
            }
            out.push_str(if pool.events.is_empty() {
                "],\n"
            } else {
                "\n      ],\n"
            });
            out.push_str("      \"histograms\": {");
            for (i, (name, h)) in pool.histograms.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\n        \"{}\": {{\"count\": {}, \"min_ns\": {}, \"max_ns\": {}, \"mean_ns\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}}}",
                    json::escape(name),
                    h.count,
                    h.min_ns,
                    h.max_ns,
                    h.mean_ns,
                    h.p50_ns,
                    h.p90_ns,
                    h.p99_ns,
                    h.p999_ns
                ));
            }
            out.push_str(if pool.histograms.is_empty() {
                "}\n"
            } else {
                "\n      }\n"
            });
            out.push_str("    }");
        }
        out.push_str(if self.pools.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        out.push_str("}\n");
        out
    }

    /// Parse a `gmlake-snapshot/v3` document. Strict: unknown event
    /// kinds, missing fields, or a wrong `schema` are errors.
    pub fn from_json(text: &str) -> Result<MemorySnapshot, String> {
        let doc = json::parse(text)?;
        let schema = doc
            .get("schema")
            .and_then(Value::as_str)
            .ok_or("missing \"schema\"")?;
        if schema != SCHEMA {
            return Err(format!("schema {schema:?}, expected {SCHEMA:?}"));
        }
        let pools = doc
            .get("pools")
            .and_then(Value::as_arr)
            .ok_or("missing \"pools\" array")?;
        let pools = pools
            .iter()
            .enumerate()
            .map(|(i, p)| parse_pool(p).map_err(|e| format!("pools[{i}]: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(MemorySnapshot { pools })
    }

    /// Schema-validate a snapshot document. On top of
    /// [`from_json`](MemorySnapshot::from_json)'s strict parse, checks
    /// that each pool's sample and event timelines are sorted by
    /// timestamp, that fragmentation stays in `[0, 1]`, and that the
    /// last timeline sample reconciles with the pool's final
    /// reserved/active gauges.
    pub fn validate_json(text: &str) -> Result<(), String> {
        let snap = MemorySnapshot::from_json(text)?;
        for pool in &snap.pools {
            let name = &pool.pool;
            for w in pool.samples.windows(2) {
                if w[1].ts_ns < w[0].ts_ns {
                    return Err(format!("{name}: samples not sorted by ts_ns"));
                }
            }
            for w in pool.events.windows(2) {
                if w[1].ts_ns < w[0].ts_ns {
                    return Err(format!("{name}: events not sorted by ts_ns"));
                }
            }
            for s in &pool.samples {
                if !(0.0..=1.0).contains(&s.fragmentation) {
                    return Err(format!(
                        "{name}: fragmentation {} outside [0, 1]",
                        s.fragmentation
                    ));
                }
            }
            if let Some(last) = pool.samples.last() {
                if last.reserved_bytes != pool.final_reserved
                    || last.active_bytes != pool.final_active
                {
                    return Err(format!(
                        "{name}: last sample ({} reserved / {} active) does not reconcile \
                         with final gauges ({} / {})",
                        last.reserved_bytes,
                        last.active_bytes,
                        pool.final_reserved,
                        pool.final_active
                    ));
                }
            }
        }
        Ok(())
    }

    /// Export as a chrome://tracing JSON document (open in
    /// `chrome://tracing` or Perfetto). Per pool: a process-name
    /// metadata record, one `"C"` counter event per memory sample
    /// (reserved/active series on one track), and one `"i"`
    /// instant event per trace record. Timestamps are microseconds, as
    /// the format requires.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [");
        let mut first = true;
        let mut push = |out: &mut String, line: String| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push_str("\n  ");
            out.push_str(&line);
        };
        for (pid, pool) in self.pools.iter().enumerate() {
            push(
                &mut out,
                format!(
                    "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \"args\": {{\"name\": \"{}\"}}}}",
                    json::escape(&pool.pool)
                ),
            );
            for s in &pool.samples {
                push(
                    &mut out,
                    format!(
                        "{{\"name\": \"memory\", \"ph\": \"C\", \"ts\": {}, \"pid\": {pid}, \"args\": {{\"reserved\": {}, \"active\": {}}}}}",
                        s.ts_ns as f64 / 1000.0,
                        s.reserved_bytes,
                        s.active_bytes
                    ),
                );
            }
            for e in &pool.events {
                push(
                    &mut out,
                    format!(
                        "{{\"name\": \"{}\", \"ph\": \"i\", \"ts\": {}, \"pid\": {pid}, \"tid\": 0, \"s\": \"p\", \"args\": {{\"bytes\": {}, \"a\": {}, \"b\": {}}}}}",
                        e.kind.as_str(),
                        e.ts_ns as f64 / 1000.0,
                        e.bytes,
                        e.a,
                        e.b
                    ),
                );
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or(format!("missing or non-integer \"{key}\""))
}

fn field_f64(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or(format!("missing or non-numeric \"{key}\""))
}

fn parse_pool(p: &Value) -> Result<PoolSnapshot, String> {
    let pool = p
        .get("pool")
        .and_then(Value::as_str)
        .ok_or("missing \"pool\" name")?
        .to_string();
    let samples = p
        .get("samples")
        .and_then(Value::as_arr)
        .ok_or("missing \"samples\" array")?
        .iter()
        .map(|s| {
            Ok(MemorySample {
                ts_ns: field_u64(s, "ts_ns")?,
                reserved_bytes: field_u64(s, "reserved_bytes")?,
                active_bytes: field_u64(s, "active_bytes")?,
                fragmentation: field_f64(s, "fragmentation")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let events = p
        .get("events")
        .and_then(Value::as_arr)
        .ok_or("missing \"events\" array")?
        .iter()
        .map(|e| {
            let kind = e
                .get("kind")
                .and_then(Value::as_str)
                .ok_or("missing event \"kind\"")?;
            Ok(Event {
                ts_ns: field_u64(e, "ts_ns")?,
                kind: EventKind::parse(kind).ok_or(format!("unknown event kind {kind:?}"))?,
                bytes: field_u64(e, "bytes")?,
                a: field_u64(e, "a")?,
                b: field_u64(e, "b")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let histograms = match p.get("histograms") {
        Some(Value::Obj(members)) => members
            .iter()
            .map(|(name, h)| {
                Ok((
                    name.clone(),
                    HistogramSummary {
                        count: field_u64(h, "count")?,
                        min_ns: field_u64(h, "min_ns")?,
                        max_ns: field_u64(h, "max_ns")?,
                        mean_ns: field_f64(h, "mean_ns")?,
                        p50_ns: field_u64(h, "p50_ns")?,
                        p90_ns: field_u64(h, "p90_ns")?,
                        p99_ns: field_u64(h, "p99_ns")?,
                        p999_ns: field_u64(h, "p999_ns")?,
                    },
                ))
            })
            .collect::<Result<Vec<_>, String>>()?,
        _ => return Err("missing \"histograms\" object".into()),
    };
    let fault = match p.get("fault") {
        None => None,
        Some(f) => Some(FaultSnapshot {
            faults: field_u64(f, "faults")?,
            retries: field_u64(f, "retries")?,
            journal_failed_ops: field_u64(f, "journal_failed_ops")?,
            orphan_vas: field_u64(f, "orphan_vas")?,
            orphan_va_bytes: field_u64(f, "orphan_va_bytes")?,
            orphan_chunks: field_u64(f, "orphan_chunks")?,
        }),
    };
    Ok(PoolSnapshot {
        pool,
        final_reserved: field_u64(p, "final_reserved_bytes")?,
        final_active: field_u64(p, "final_active_bytes")?,
        dropped_events: field_u64(p, "dropped_events")?,
        fault,
        samples,
        events,
        histograms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> MemorySnapshot {
        MemorySnapshot {
            pools: vec![PoolSnapshot {
                pool: "gpu0 (gmlake)".into(),
                final_reserved: 1 << 30,
                final_active: 123_456,
                dropped_events: 2,
                fault: Some(FaultSnapshot {
                    faults: 3,
                    retries: 5,
                    journal_failed_ops: 3,
                    orphan_vas: 0,
                    orphan_va_bytes: 0,
                    orphan_chunks: 0,
                }),
                samples: vec![
                    MemorySample {
                        ts_ns: 100,
                        reserved_bytes: 1 << 20,
                        active_bytes: 1 << 19,
                        fragmentation: 0.5,
                    },
                    MemorySample {
                        ts_ns: 200,
                        reserved_bytes: 1 << 30,
                        active_bytes: 123_456,
                        fragmentation: 0.25,
                    },
                ],
                events: vec![
                    Event {
                        ts_ns: 150,
                        kind: EventKind::StitchDecision,
                        bytes: 4096,
                        a: 3,
                        b: 7,
                    },
                    Event {
                        ts_ns: 180,
                        kind: EventKind::Stitch,
                        bytes: 8192,
                        a: 2,
                        b: 0,
                    },
                ],
                histograms: vec![(
                    "alloc_ns".into(),
                    HistogramSummary {
                        count: 10,
                        min_ns: 5,
                        max_ns: 900,
                        mean_ns: 101.5,
                        p50_ns: 80,
                        p90_ns: 500,
                        p99_ns: 900,
                        p999_ns: 900,
                    },
                )],
            }],
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let snap = sample_snapshot();
        let json = snap.to_json();
        assert_eq!(MemorySnapshot::from_json(&json).unwrap(), snap);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let empty = MemorySnapshot::default();
        assert_eq!(MemorySnapshot::from_json(&empty.to_json()).unwrap(), empty);
    }

    #[test]
    fn fault_section_is_optional_and_round_trips() {
        // With the section: exact round trip (covered by sample_snapshot).
        let with = sample_snapshot();
        let parsed = MemorySnapshot::from_json(&with.to_json()).unwrap();
        assert_eq!(parsed.pools[0].fault, with.pools[0].fault);

        // Without it: the document omits "fault" entirely and still
        // parses/validates (pre-fault snapshots stay readable).
        let mut without = sample_snapshot();
        without.pools[0].fault = None;
        let json = without.to_json();
        assert!(!json.contains("\"fault\""));
        assert_eq!(MemorySnapshot::from_json(&json).unwrap(), without);
        MemorySnapshot::validate_json(&json).unwrap();

        // A present but malformed section is a strict-parse error.
        let broken = with
            .to_json()
            .replace("\"retries\": 5", "\"retries\": true");
        assert!(MemorySnapshot::from_json(&broken)
            .unwrap_err()
            .contains("retries"));
    }

    #[test]
    fn validate_accepts_well_formed_and_rejects_violations() {
        let mut snap = sample_snapshot();
        // Well-formed but unreconciled: last sample != final gauges.
        let err = MemorySnapshot::validate_json(&snap.to_json());
        assert!(err.is_ok(), "{err:?}");

        snap.pools[0].samples[1].reserved_bytes = 1;
        assert!(MemorySnapshot::validate_json(&snap.to_json())
            .unwrap_err()
            .contains("reconcile"));

        let mut snap = sample_snapshot();
        snap.pools[0].samples.swap(0, 1);
        assert!(MemorySnapshot::validate_json(&snap.to_json())
            .unwrap_err()
            .contains("sorted"));

        let mut snap = sample_snapshot();
        snap.pools[0].samples[0].fragmentation = 1.5;
        // First sample order is still fine; fragmentation check fires.
        assert!(MemorySnapshot::validate_json(&snap.to_json())
            .unwrap_err()
            .contains("fragmentation"));
    }

    #[test]
    fn from_json_rejects_wrong_schema_and_unknown_kinds() {
        let json = sample_snapshot().to_json();
        let wrong = json.replace(SCHEMA, "gmlake-snapshot/v0");
        assert!(MemorySnapshot::from_json(&wrong)
            .unwrap_err()
            .contains("schema"));
        let bad_kind = json.replace("\"stitch\"", "\"warp_drive\"");
        assert!(MemorySnapshot::from_json(&bad_kind)
            .unwrap_err()
            .contains("unknown event kind"));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_events() {
        let trace = sample_snapshot().to_chrome_trace();
        let doc = crate::json::parse(&trace).expect("chrome trace parses");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 1 metadata + 2 counter samples + 2 instants.
        assert_eq!(events.len(), 5);
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(phases, vec!["M", "C", "C", "i", "i"]);
        let counter = &events[1];
        assert_eq!(
            counter
                .get("args")
                .unwrap()
                .get("reserved")
                .unwrap()
                .as_u64(),
            Some(1 << 20)
        );
        // ts is in microseconds.
        assert_eq!(counter.get("ts").unwrap().as_f64(), Some(0.1));
    }
}
