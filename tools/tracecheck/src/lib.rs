//! Structural validator for the Chrome Trace Event Format files that
//! `experiments trace` emits (see `crates/bench/src/tracefmt.rs`).
//!
//! The CI perf-gate runs this over a freshly captured trace: it proves
//! the file is loadable (strict JSON via the bench crate's parser), that
//! every entry is a well-formed complete (`"ph": "X"`) event with the
//! fields Perfetto needs, and that no two slices on one machine track
//! overlap in time. A machine runs one round at a time, so on the
//! barrier timeline its slices follow each other; slices on different
//! tracks may overlap freely (all machines of a round run at once).

use mwvc_bench::json::Json;

/// One parsed complete event, reduced to what the checks need.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompleteEvent {
    /// Machine track (thread id in the Chrome trace model).
    pub tid: i64,
    /// Start timestamp (model cost units).
    pub ts: f64,
    /// Duration (model cost units).
    pub dur: f64,
}

/// Summary of a validated trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Number of complete events.
    pub events: usize,
    /// Number of distinct machine tracks.
    pub machines: usize,
}

/// Validates the trace text, returning a summary or the first defect.
pub fn check_trace(text: &str) -> Result<TraceSummary, String> {
    let root = Json::parse(text)?;
    let events = root
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing `traceEvents` array")?;
    if events.is_empty() {
        return Err("`traceEvents` is empty".into());
    }

    let mut complete: Vec<CompleteEvent> = Vec::with_capacity(events.len());
    for (i, ev) in events.iter().enumerate() {
        match ev.get("ph").and_then(Json::as_str) {
            Some("X") => {}
            Some("M") => continue, // metadata rows (process/thread names) are fine
            other => return Err(format!("event {i}: bad `ph` {other:?}")),
        }
        let num = |key: &str| {
            ev.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("event {i}: missing numeric `{key}`"))
        };
        let (ts, dur, tid) = (num("ts")?, num("dur")?, num("tid")?);
        num("pid")?;
        if ev.get("name").and_then(Json::as_str).is_none() {
            return Err(format!("event {i}: missing string `name`"));
        }
        if ts < 0.0 || dur < 0.0 {
            return Err(format!("event {i}: negative ts/dur ({ts}, {dur})"));
        }
        complete.push(CompleteEvent {
            tid: tid as i64,
            ts,
            dur,
        });
    }
    if complete.is_empty() {
        return Err("no complete (`ph: X`) events".into());
    }

    // One machine runs one round at a time: after sorting each track by
    // start time, every slice must end before the next one starts.
    complete.sort_by(|a, b| a.tid.cmp(&b.tid).then(a.ts.total_cmp(&b.ts)));
    let mut machines = 1;
    for pair in complete.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if a.tid != b.tid {
            machines += 1;
        } else if b.ts < a.ts + a.dur {
            return Err(format!(
                "machine {}: slice at ts {} starts before the slice at ts {} ends ({})",
                a.tid,
                b.ts,
                a.ts,
                a.ts + a.dur
            ));
        }
    }

    Ok(TraceSummary {
        events: complete.len(),
        machines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(tid: i64, ts: f64, dur: f64) -> String {
        format!(
            "{{\"pid\": 0, \"tid\": {tid}, \"ph\": \"X\", \"ts\": {ts:?}, \"dur\": {dur:?}, \"name\": \"r\"}}"
        )
    }

    fn trace(events: &[String]) -> String {
        format!("{{\"traceEvents\": [{}]}}", events.join(", "))
    }

    #[test]
    fn accepts_overlapping_two_machine_trace() {
        let t = trace(&[event(0, 0.0, 10.0), event(1, 5.0, 10.0)]);
        let s = check_trace(&t).expect("valid trace");
        assert_eq!(s.events, 2);
        assert_eq!(s.machines, 2);
    }

    #[test]
    fn touching_slices_on_one_track_are_accepted() {
        // Listed out of order: the check sorts each track by start time.
        let t = trace(&[event(0, 4.0, 4.0), event(1, 0.0, 8.0), event(0, 0.0, 4.0)]);
        let s = check_trace(&t).expect("touching intervals do not overlap");
        assert_eq!(s.events, 3);
        assert_eq!(s.machines, 2);
    }

    #[test]
    fn same_track_overlap_is_rejected() {
        let t = trace(&[
            event(0, 0.0, 10.0),
            event(1, 0.0, 10.0),
            event(0, 5.0, 10.0),
        ]);
        let err = check_trace(&t).unwrap_err();
        assert!(err.contains("machine 0"), "{err}");
        // Two slices starting together on one track overlap too, as every
        // slice of a trace drawn at ts 0 would.
        let t = trace(&[event(3, 0.0, 1.0), event(3, 0.0, 1.0)]);
        assert!(check_trace(&t).unwrap_err().contains("machine 3"));
    }

    #[test]
    fn metadata_rows_are_skipped() {
        let meta = "{\"ph\": \"M\", \"pid\": 0, \"name\": \"thread_name\"}".to_string();
        let t = trace(&[meta, event(0, 0.0, 1.0)]);
        assert_eq!(check_trace(&t).expect("valid trace").events, 1);
    }

    #[test]
    fn rejects_malformed_traces() {
        assert!(check_trace("[]").is_err(), "top level must be an object");
        assert!(check_trace("{\"traceEvents\": []}").is_err(), "empty trace");
        let bad_ph = trace(&[
            "{\"pid\": 0, \"tid\": 0, \"ph\": \"B\", \"ts\": 0.0, \"dur\": 1.0, \"name\": \"r\"}"
                .into(),
        ]);
        assert!(check_trace(&bad_ph).is_err(), "only X/M phases allowed");
        let no_dur = trace(&[
            "{\"pid\": 0, \"tid\": 0, \"ph\": \"X\", \"ts\": 0.0, \"name\": \"r\"}".into(),
        ]);
        assert!(check_trace(&no_dur).is_err(), "dur required");
    }
}
