//! Structural validator for the Chrome Trace Event Format files that
//! `experiments trace` emits (see `crates/bench/src/tracefmt.rs`).
//!
//! The CI perf-gate runs this over a freshly captured trace: it proves
//! the file is loadable (strict JSON via the bench crate's parser), that
//! every entry is a well-formed complete (`"ph": "X"`) event with the
//! fields Perfetto needs, and — under `--expect-overlap` — that the
//! critical path's cross-machine overlap is actually visible in the
//! timeline (two events on different machine tracks whose `[ts, ts+dur)`
//! intervals intersect). The slices sit at the model-domain start times
//! of the critical-path what-if, so the overlap is a property of the
//! workload, not of how the host ran it.

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
    /// Whether any two events on *different* tracks overlap in time.
    pub cross_machine_overlap: bool,
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

    let mut tids: Vec<i64> = complete.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();

    let mut overlap = false;
    'outer: for (i, a) in complete.iter().enumerate() {
        for b in &complete[i + 1..] {
            if a.tid != b.tid && a.ts < b.ts + b.dur && b.ts < a.ts + a.dur {
                overlap = true;
                break 'outer;
            }
        }
    }

    Ok(TraceSummary {
        events: complete.len(),
        machines: tids.len(),
        cross_machine_overlap: overlap,
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
        assert!(s.cross_machine_overlap);
    }

    #[test]
    fn detects_no_overlap_on_disjoint_tracks() {
        let t = trace(&[event(0, 0.0, 4.0), event(1, 4.0, 4.0)]);
        let s = check_trace(&t).expect("valid trace");
        assert!(
            !s.cross_machine_overlap,
            "touching intervals do not overlap"
        );
    }

    #[test]
    fn same_track_overlap_does_not_count() {
        let t = trace(&[event(0, 0.0, 10.0), event(0, 5.0, 10.0)]);
        let s = check_trace(&t).expect("valid trace");
        assert!(!s.cross_machine_overlap);
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
