//! Trace exporters for the observability layer.
//!
//! Two formats, both built on the deterministic [`Json`] writer:
//!
//! * [`chrome_trace`] — a Chrome Trace Event Format document (loadable
//!   in Perfetto / `chrome://tracing`) rendering the critical-path
//!   per-machine rows as one "X" complete event per machine per round.
//!   The timeline is the barrier schedule the simulator runs: every
//!   machine starts a round when the previous round's slowest machine
//!   finishes, so a short slice followed by a gap is that machine's stall.
//!   Timestamps are **model cost units** (words), not host time, so the
//!   document is identical for every run of a workload, at every host
//!   pool width.
//! * [`events_jsonl`] / [`parse_events_jsonl`] — the model-domain event
//!   stream ([`TraceEvent`]) as one compact JSON record per line, and
//!   its strict inverse. The property suite pins the round-trip.

use crate::json::Json;
use mpc_sim::{EventKind, ExecutionTrace, MachineRound, TraceEvent};

/// Stable wire name of an event kind (`parse_kind` inverts it).
fn kind_name(kind: EventKind) -> &'static str {
    match kind {
        EventKind::RegionMsgs => "region_msgs",
        EventKind::RegionWords => "region_words",
        EventKind::SpillWords => "spill_words",
        EventKind::SentWords => "sent_words",
        EventKind::StallWords => "stall_words",
        EventKind::FaultInjected => "fault_injected",
        EventKind::CheckpointWords => "checkpoint_words",
        EventKind::ReplayRounds => "replay_rounds",
        EventKind::RetryCount => "retry_count",
    }
}

fn parse_kind(name: &str) -> Option<EventKind> {
    Some(match name {
        "region_msgs" => EventKind::RegionMsgs,
        "region_words" => EventKind::RegionWords,
        "spill_words" => EventKind::SpillWords,
        "sent_words" => EventKind::SentWords,
        "stall_words" => EventKind::StallWords,
        "fault_injected" => EventKind::FaultInjected,
        "checkpoint_words" => EventKind::CheckpointWords,
        "replay_rounds" => EventKind::ReplayRounds,
        "retry_count" => EventKind::RetryCount,
        _ => return None,
    })
}

/// Builds a Chrome Trace Event Format document from a trace's
/// critical-path rows. One process (`pid` 0), one track (`tid`) per
/// machine, one complete ("X") event per machine per round: `ts` is the
/// round's barrier start (the sum of the largest cost of every earlier
/// round), `dur` the machine's model cost, and the event args carry the
/// round index and the machine's barrier stall. Rounds are named after
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

/// Renders the model-domain event stream as JSONL: one compact record
/// per event, `{"round":..,"machine":..,"kind":"..","value":..}`, with a
/// trailing newline after every line. Deterministic: equal streams
/// produce equal bytes.
pub fn events_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        let record = Json::Obj(vec![
            ("round".into(), Json::Int(e.round as i64)),
            ("machine".into(), Json::Int(e.machine as i64)),
            ("kind".into(), Json::Str(kind_name(e.kind).into())),
            ("value".into(), Json::Int(e.value as i64)),
        ]);
        out.push_str(&record.render_compact());
        out.push('\n');
    }
    out
}

/// Strict inverse of [`events_jsonl`]: every non-empty line must parse
/// as an object carrying exactly the four event fields with in-range
/// values. The property suite pins `parse(render(events)) == events`.
pub fn parse_events_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let err = |what: &str| format!("line {}: {what}", lineno + 1);
        let j = Json::parse(line).map_err(|e| err(&e))?;
        let fields = match &j {
            Json::Obj(fields) => fields,
            _ => return Err(err("expected an object")),
        };
        if fields.len() != 4 {
            return Err(err("expected exactly 4 fields"));
        }
        let int_field = |key: &str| -> Result<i64, String> {
            j.get(key)
                .and_then(Json::as_i64)
                .ok_or_else(|| err(&format!("missing integer field {key:?}")))
        };
        let round = int_field("round")?;
        let machine = int_field("machine")?;
        let kind = j
            .get("kind")
            .and_then(Json::as_str)
            .and_then(parse_kind)
            .ok_or_else(|| err("missing or unknown \"kind\""))?;
        let value = int_field("value")?;
        if !(0..=u32::MAX as i64).contains(&round) || !(0..=u32::MAX as i64).contains(&machine) {
            return Err(err("round/machine out of u32 range"));
        }
        if value < 0 {
            return Err(err("negative value"));
        }
        out.push(TraceEvent {
            round: round as u32,
            machine: machine as u32,
            kind,
            value: value as u64,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_sim::RoundStats;

    fn mr(cost: u64, stall: u64) -> MachineRound {
        MachineRound {
            cost,
            stall_words: stall,
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
        // The document parses back through the strict parser.
        let rendered = doc.render();
        assert_eq!(Json::parse(&rendered).unwrap(), doc);
    }

    #[test]
    fn events_jsonl_round_trips() {
        let events = vec![
            TraceEvent {
                round: 0,
                machine: 0,
                kind: EventKind::RegionWords,
                value: 42,
            },
            TraceEvent {
                round: 3,
                machine: 7,
                kind: EventKind::StallWords,
                value: 0,
            },
        ];
        let text = events_jsonl(&events);
        assert_eq!(
            text.lines().next().unwrap(),
            r#"{"round":0,"machine":0,"kind":"region_words","value":42}"#
        );
        assert_eq!(parse_events_jsonl(&text).unwrap(), events);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_events_jsonl("[]").is_err());
        assert!(parse_events_jsonl(r#"{"round":0,"machine":0,"kind":"nope","value":1}"#).is_err());
        assert!(
            parse_events_jsonl(r#"{"round":-1,"machine":0,"kind":"sent_words","value":1}"#)
                .is_err()
        );
        assert!(parse_events_jsonl(
            r#"{"round":0,"machine":0,"kind":"sent_words","value":1,"extra":2}"#
        )
        .is_err());
    }
}
