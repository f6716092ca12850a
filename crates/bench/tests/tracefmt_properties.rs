//! Property tests for the observability exporters: the JSONL event log
//! and the Chrome trace document must survive the strict in-house JSON
//! parser for arbitrary round shapes, not just the ones the fabric
//! happens to emit today.

use mpc_sim::{EventKind, ExecutionTrace, MachineRound, TraceEvent};
use mwvc_bench::json::Json;
use mwvc_bench::tracefmt::{chrome_trace, events_jsonl, parse_events_jsonl};
use proptest::prelude::*;

const KINDS: [EventKind; 5] = [
    EventKind::RegionMsgs,
    EventKind::RegionWords,
    EventKind::SpillWords,
    EventKind::SentWords,
    EventKind::StallWords,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random event streams — any mix of rounds, machines, kinds, and
    /// values up to the full `u32`/`i64`-safe range — render to JSONL
    /// and parse back bit-identical through the strict parser.
    #[test]
    fn events_jsonl_round_trips(
        raw in proptest::collection::vec(
            (0u32..10_000, 0u32..512, 0usize..KINDS.len(), 0u64..(1 << 62)),
            0..200
        ),
    ) {
        let events: Vec<TraceEvent> = raw
            .into_iter()
            .map(|(round, machine, kind, value)| TraceEvent {
                round,
                machine,
                kind: KINDS[kind],
                value,
            })
            .collect();
        let text = events_jsonl(&events);
        let back = parse_events_jsonl(&text).expect("rendered JSONL parses");
        prop_assert_eq!(back, events);
    }

    /// Random critical-path shapes — including ragged labels and empty
    /// rounds — produce a Chrome trace document the strict parser reads
    /// back as the same tree.
    #[test]
    fn chrome_trace_round_trips_through_the_parser(
        machines in 1usize..8,
        rounds in proptest::collection::vec(
            proptest::collection::vec((0u64..500, 0u64..500), 1..8),
            0..6
        ),
    ) {
        let mut trace = ExecutionTrace::default();
        for row in rounds {
            trace.critical_path.machine_rounds.push(
                row.into_iter()
                    .take(machines)
                    .map(|(cost, stall_words)| MachineRound {
                        cost,
                        stall_words,
                    })
                    .collect(),
            );
        }
        let doc = chrome_trace(&trace);
        let parsed = Json::parse(&doc.render()).expect("rendered trace parses");
        prop_assert_eq!(parsed, doc);
    }
}
