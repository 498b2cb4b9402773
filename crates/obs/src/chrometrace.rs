//! Chrome trace-event export for observability profiles.
//!
//! Serialises one or more [`Profile`]s as the Trace Event Format
//! consumed by `chrome://tracing` and Perfetto: a JSON object with a
//! `traceEvents` array of complete (`"ph":"X"`) events carrying
//! microsecond timestamps and durations.  Attributed counter deltas ride
//! along in each event's `args`, so clicking a nest slice in the viewer
//! shows its bytes-per-channel and flops.
//!
//! Multiple labeled profiles (e.g. a *before* and an *after* run) are
//! laid out sequentially on one timeline, one track (`tid`) per profile.

use crate::json::Json;
use crate::{channel_names, Counters, Profile};

fn counter_args(d: &Counters) -> Json {
    let channels = d.channels_used();
    let mut pairs: Vec<(String, Json)> =
        vec![("accesses".into(), Json::UInt(d.accesses)), ("flops".into(), Json::UInt(d.flops))];
    for (k, name) in channel_names(channels).into_iter().enumerate() {
        pairs.push((format!("bytes {name}"), Json::UInt(d.channel_bytes[k])));
    }
    if d.mem_read_bytes + d.mem_write_bytes > 0 {
        pairs.push(("mem_read_bytes".into(), Json::UInt(d.mem_read_bytes)));
        pairs.push(("mem_write_bytes".into(), Json::UInt(d.mem_write_bytes)));
    }
    if d.tlb_misses > 0 {
        pairs.push(("tlb_misses".into(), Json::UInt(d.tlb_misses)));
    }
    Json::obj(pairs)
}

/// Builds the trace document for labeled profiles.  Labels become track
/// names; each profile's spans keep their relative timing and are shifted
/// so profiles follow one another on the shared timeline.
pub fn chrome_trace(profiles: &[(&str, &Profile)]) -> Json {
    let mut events = Vec::new();
    let mut offset_us = 0u64;
    for (tid, (label, profile)) in profiles.iter().enumerate() {
        let tid = tid as u64 + 1;
        // Perfetto shows thread_name metadata as the track title.
        events.push(Json::obj(vec![
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("pid", Json::UInt(1)),
            ("tid", Json::UInt(tid)),
            ("args", Json::obj(vec![("name", Json::str(*label))])),
        ]));
        for s in &profile.spans {
            let mut args = match counter_args(&s.delta) {
                Json::Obj(pairs) => pairs,
                _ => unreachable!(),
            };
            if let Some(cpu) = s.cpu_ns {
                args.push(("on_cpu_us".into(), Json::num(cpu as f64 / 1000.0)));
            }
            events.push(Json::obj(vec![
                ("name".to_string(), Json::str(s.name.clone())),
                ("cat".to_string(), Json::str("mbb")),
                ("ph".to_string(), Json::str("X")),
                ("ts".to_string(), Json::UInt(offset_us + s.start_ns / 1000)),
                // Perfetto drops zero-width slices; clamp to 1 µs.
                ("dur".to_string(), Json::UInt((s.wall_ns / 1000).max(1))),
                ("pid".to_string(), Json::UInt(1)),
                ("tid".to_string(), Json::UInt(tid)),
                ("args".to_string(), Json::Obj(args)),
            ]));
        }
        offset_us += profile.wall_ns / 1000 + 1;
    }
    Json::obj(vec![("traceEvents", Json::arr(events)), ("displayTimeUnit", Json::str("ms"))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{add_flops, collect, span, tick_channel_bytes, Mode};

    fn sample_profile() -> Profile {
        let _serial = crate::tests::serial();
        let c = collect(Mode::Full);
        {
            let _o = span!("interp");
            {
                let _n = span!("nest:{}", "update");
                tick_channel_bytes(0, 64);
                tick_channel_bytes(1, 32);
                add_flops(8);
            }
        }
        c.finish()
    }

    #[test]
    fn trace_round_trips_through_json_parse() {
        let p = sample_profile();
        let doc = chrome_trace(&[("report", &p)]);
        let text = doc.render();
        let back = Json::parse(&text).expect("serialised trace must parse");
        let Some(Json::Arr(events)) = back.get("traceEvents") else {
            panic!("traceEvents array missing");
        };
        // One metadata event + two spans.
        assert_eq!(events.len(), 3);
        let slices: Vec<&Json> =
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")).collect();
        assert_eq!(slices.len(), 2);
        for e in &slices {
            // The structural contract Perfetto requires of complete events.
            for key in ["name", "ts", "dur", "pid", "tid"] {
                assert!(e.get(key).is_some(), "slice missing {key}");
            }
        }
        let nest = slices
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("nest:update"))
            .expect("nest slice present");
        let args = nest.get("args").unwrap();
        assert_eq!(args.get("flops").and_then(Json::as_f64), Some(8.0));
        assert_eq!(args.get("bytes Reg↔L1").and_then(Json::as_f64), Some(64.0));
    }

    #[test]
    fn multiple_profiles_get_sequential_tracks() {
        let p1 = sample_profile();
        let p2 = sample_profile();
        let doc = chrome_trace(&[("before", &p1), ("after", &p2)]);
        let text = doc.render_compact();
        let back = Json::parse(&text).unwrap();
        let Some(Json::Arr(events)) = back.get("traceEvents") else { panic!() };
        let tids: std::collections::BTreeSet<u64> = events
            .iter()
            .filter_map(|e| e.get("tid").and_then(Json::as_f64))
            .map(|t| t as u64)
            .collect();
        assert_eq!(tids.len(), 2, "one track per profile");
        // Track metadata names both phases.
        assert!(text.contains("before") && text.contains("after"));
        // Later tracks start after earlier ones end (sequential layout).
        let span_ts = |tid: u64| -> Vec<u64> {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
                .filter(|e| e.get("tid").and_then(Json::as_f64) == Some(tid as f64))
                .map(|e| e.get("ts").and_then(Json::as_f64).unwrap() as u64)
                .collect()
        };
        let first_max = span_ts(1).into_iter().max().unwrap();
        let second_min = span_ts(2).into_iter().min().unwrap();
        assert!(second_min >= first_max, "tracks must not interleave in time");
    }

    #[test]
    fn empty_profile_is_still_a_valid_document() {
        let p = Profile::default();
        let doc = chrome_trace(&[("empty", &p)]);
        let back = Json::parse(&doc.render()).unwrap();
        assert!(matches!(back.get("traceEvents"), Some(Json::Arr(_))));
    }
}
