//! The trace exporter of the observability layer.
//!
//! [`chrome_trace`] renders a trace's per-machine round rows as a Chrome
//! Trace Event Format document (loadable in Perfetto /
//! `chrome://tracing`), built on the deterministic [`Json`] writer: one
//! "X" complete event per machine per round. The timeline is the barrier
//! schedule the simulator runs: every machine starts a round when the
//! previous round's slowest machine finishes, so a short slice followed
//! by a gap is that machine's stall. Timestamps are **model cost units**
//! (words), not host time, so the document is identical for every run of
//! a workload, at every host pool width.

use crate::json::Json;
use mpc_sim::{ExecutionTrace, MachineRound};

/// Builds a Chrome Trace Event Format document from a trace's
/// critical-path rows. One process (`pid` 0), one track (`tid`) per
/// machine, one complete ("X") event per machine per round: `ts` is the
/// round's barrier start (the sum of the largest cost of every earlier
/// round), `dur` the machine's model cost, and the event args carry the
/// round index and the rest of the machine's [`MachineRound`] row: its
/// barrier stall, words sent and received, messages received and words
/// spilled. Rounds are named after
/// [`RoundStats::label`](mpc_sim::RoundStats) when the trace recorded
/// one.
pub fn chrome_trace(trace: &ExecutionTrace) -> Json {
    let machines = trace
        .critical_path
        .machine_rounds
        .iter()
        .map(|row| row.len())
        .max()
        .unwrap_or(0);
    // Every round has cost >= 1 in the model, but clamp so a default row
    // still renders as a visible slice.
    let dur = |mr: &MachineRound| mr.cost.max(1);
    let mut events = Vec::new();
    for machine in 0..machines {
        // Track-name metadata so Perfetto labels rows "machine N".
        events.push(Json::Obj(vec![
            ("ph".into(), Json::Str("M".into())),
            ("pid".into(), Json::Int(0)),
            ("tid".into(), Json::Int(machine as i64)),
            ("name".into(), Json::Str("thread_name".into())),
            (
                "args".into(),
                Json::Obj(vec![(
                    "name".into(),
                    Json::Str(format!("machine {machine}")),
                )]),
            ),
        ]));
    }
    let mut ts = 0;
    for (round, row) in trace.critical_path.machine_rounds.iter().enumerate() {
        let label = trace
            .rounds
            .get(round)
            .map(|r| r.label.as_str())
            .unwrap_or("round");
        for (machine, mr) in row.iter().enumerate() {
            events.push(Json::Obj(vec![
                ("ph".into(), Json::Str("X".into())),
                ("pid".into(), Json::Int(0)),
                ("tid".into(), Json::Int(machine as i64)),
                ("ts".into(), Json::Int(ts as i64)),
                ("dur".into(), Json::Int(dur(mr) as i64)),
                ("name".into(), Json::Str(format!("r{round} {label}"))),
                (
                    "args".into(),
                    Json::Obj(vec![
                        ("round".into(), Json::Int(round as i64)),
                        ("stall_words".into(), Json::Int(mr.stall_words as i64)),
                        ("sent_words".into(), Json::Int(mr.sent_words as i64)),
                        ("received_words".into(), Json::Int(mr.received_words as i64)),
                        ("received_msgs".into(), Json::Int(mr.received_msgs as i64)),
                        ("spill_words".into(), Json::Int(mr.spill_words as i64)),
                    ]),
                ),
            ]));
        }
        // The barrier: the next round starts when this round's slowest
        // machine is done.
        ts += row.iter().map(dur).max().unwrap_or(0);
    }
    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(events)),
        ("displayTimeUnit".into(), Json::Str("ms".into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_sim::RoundStats;

    /// A row whose traffic and spill fields are all distinct functions
    /// of its cost and stall, so a swapped key shows.
    fn mr(cost: u64, stall: u64) -> MachineRound {
        MachineRound {
            cost,
            stall_words: stall,
            sent_words: cost - 1,
            received_words: 2 * cost,
            received_msgs: cost,
            spill_words: stall + 7,
        }
    }

    fn stats(label: &str) -> RoundStats {
        RoundStats {
            label: label.into(),
            max_sent: 0,
            max_received: 0,
            max_resident: 0,
            total_traffic: 0,
            spill_words: 0,
        }
    }

    fn sample_trace() -> ExecutionTrace {
        let mut t = ExecutionTrace::default();
        t.rounds.push(stats("degree"));
        t.rounds.push(stats("shrink"));
        t.critical_path.machine_rounds = vec![vec![mr(5, 0), mr(3, 2)], vec![mr(2, 1), mr(3, 0)]];
        t.critical_path.barrier_makespan = 5 + 3;
        t
    }

    #[test]
    fn chrome_trace_names_rounds_and_offsets_machines() {
        let doc = chrome_trace(&sample_trace());
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 2 metadata + 4 slices.
        assert_eq!(events.len(), 6);
        let slices: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .collect();
        assert_eq!(slices.len(), 4);
        assert_eq!(slices[0].get("name").unwrap().as_str(), Some("r0 degree"));
        assert_eq!(slices[2].get("name").unwrap().as_str(), Some("r1 shrink"));
        // Both machines start round 0 at 0 and round 1 at the barrier
        // behind machine 0's cost of 5.
        assert_eq!(slices[1].get("tid").unwrap().as_i64(), Some(1));
        let int = |slice: &Json, key: &str| slice.get(key).unwrap().as_i64().unwrap();
        let ts: Vec<i64> = slices.iter().map(|s| int(s, "ts")).collect();
        assert_eq!(ts, vec![0, 0, 5, 5]);
        // The last round ends where the barrier makespan says it does.
        let last_end = int(slices[2], "dur").max(int(slices[3], "dur")) + ts[3];
        assert_eq!(
            last_end,
            sample_trace().critical_path.barrier_makespan as i64
        );
        // Every slice's args carry the round and the machine's whole row.
        let args = |slice: &Json| match slice.get("args") {
            Some(Json::Obj(fields)) => fields.clone(),
            other => panic!("slice args must be an object, got {other:?}"),
        };
        for slice in &slices {
            let keys: Vec<String> = args(slice).into_iter().map(|(k, _)| k).collect();
            assert_eq!(
                keys,
                [
                    "round",
                    "stall_words",
                    "sent_words",
                    "received_words",
                    "received_msgs",
                    "spill_words"
                ]
            );
        }
        // Round 1, machine 1 is `mr(3, 0)`.
        let values: Vec<i64> = args(slices[3])
            .iter()
            .map(|(_, v)| v.as_i64().unwrap())
            .collect();
        assert_eq!(values, [1, 0, 2, 6, 3, 7]);
        // The document parses back through the strict parser.
        let rendered = doc.render();
        assert_eq!(Json::parse(&rendered).unwrap(), doc);
    }
}
