//! Property test for the observability exporter: the Chrome trace
//! document must survive the strict in-house JSON parser for arbitrary
//! round shapes, not just the ones the fabric happens to emit today.

use mpc_sim::{ExecutionTrace, MachineRound};
use mwvc_bench::json::Json;
use mwvc_bench::tracefmt::chrome_trace;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random per-machine rows — including ragged labels and empty
    /// rounds — produce a Chrome trace document the strict parser reads
    /// back as the same tree.
    #[test]
    fn chrome_trace_round_trips_through_the_parser(
        machines in 1usize..8,
        rounds in proptest::collection::vec(
            proptest::collection::vec(
                (
                    0u64..500,
                    0u64..500,
                    0u64..(1 << 40),
                    0u64..(1 << 40),
                    0u64..(1 << 40),
                    0u64..(1 << 40),
                ),
                1..8,
            ),
            0..6
        ),
    ) {
        let mut trace = ExecutionTrace::default();
        for row in rounds {
            trace.critical_path.machine_rounds.push(
                row.into_iter()
                    .take(machines)
                    .map(
                        |(cost, stall_words, sent_words, received_words, received_msgs, spill_words)| {
                            MachineRound {
                                cost,
                                stall_words,
                                sent_words,
                                received_words,
                                received_msgs,
                                spill_words,
                            }
                        },
                    )
                    .collect(),
            );
        }
        let doc = chrome_trace(&trace);
        let parsed = Json::parse(&doc.render()).expect("rendered trace parses");
        prop_assert_eq!(parsed, doc);
    }
}
