//! Span-correctness suite: the observability layer's core contracts.
//!
//! * nested spans partition their parent's odometer deltas *exactly* —
//!   the sum of the children plus the parent's self time accounts for
//!   every counted byte, miss, and flop;
//! * attribution is byte-identical no matter how many `--jobs` workers
//!   the experiment engine runs on (the odometer is thread-local, so
//!   concurrency can never bleed counts between jobs);
//! * a serialized Chrome trace round-trips through `Json::parse`.

use mbb_bench::runner::{run_jobs, Ctx, Job, JobOutput};
use mbb_core::balance::measure_program_balance;
use mbb_memsim::machine::MachineModel;
use mbb_obs::chrometrace::chrome_trace;
use mbb_obs::json::Json;
use mbb_obs::{collect, Counters, Mode, Profile};

const SRC: &str = "\
array a[4096]
array b[4096]
scalar s = 0  // printed
for i = 0, 4095
  a[i] = (a[i] + 1)
end for
for j = 0, 4095
  s = (s + (a[j] * b[j]))
end for
";

/// One profiled balance measurement: parse, simulate under a `Full`
/// collector, and distil the *deterministic* per-span counters (names,
/// accesses, flops, per-level bytes/misses/writebacks — never times).
fn profiled_counters() -> Vec<(String, Counters)> {
    let prog = mbb_ir::parse(SRC).expect("fixture parses");
    let machine = MachineModel::origin2000();
    let c = collect(Mode::Full);
    measure_program_balance(&prog, &machine).expect("fixture runs");
    let profile = c.finish();
    profile.spans.iter().map(|s| (s.name.clone(), s.delta)).collect()
}

fn counters_json(spans: &[(String, Counters)]) -> Json {
    Json::arr(
        spans
            .iter()
            .map(|(name, d)| {
                let ints = |xs: &[u64]| {
                    Json::arr(xs.iter().map(|&x| Json::UInt(x)).collect::<Vec<Json>>())
                };
                Json::obj(vec![
                    ("name", Json::str(name.clone())),
                    ("accesses", Json::UInt(d.accesses)),
                    ("flops", Json::UInt(d.flops)),
                    ("bytes", ints(&d.channel_bytes)),
                    ("misses", ints(&d.misses)),
                    ("writebacks", ints(&d.writebacks)),
                ])
            })
            .collect::<Vec<Json>>(),
    )
}

fn profiled_job(_ctx: &Ctx) -> JobOutput {
    let doc = counters_json(&profiled_counters());
    JobOutput { rendered: format!("{}\n", doc.render_compact()), data: doc }
}

#[test]
fn nested_spans_partition_the_parent_exactly() {
    let prog = mbb_ir::parse(SRC).unwrap();
    let machine = MachineModel::origin2000();
    let c = collect(Mode::Full);
    measure_program_balance(&prog, &machine).unwrap();
    let profile = c.finish();

    // Span deltas are inclusive, so each parent must contain the sum of
    // its children with the remainder being the parent's own (self)
    // work — children can never exceed the parent on any counter.
    for (k, parent) in profile.spans.iter().enumerate() {
        let mut children = Counters::default();
        for child in profile.children(k) {
            children.add(&profile.spans[child].delta);
        }
        assert!(children.accesses <= parent.delta.accesses, "`{}` overcounts", parent.name);
        assert!(children.flops <= parent.delta.flops, "`{}` overcounts", parent.name);
        for lvl in 0..children.channel_bytes.len() {
            assert!(
                children.channel_bytes[lvl] <= parent.delta.channel_bytes[lvl],
                "`{}` overcounts L{lvl} bytes",
                parent.name
            );
        }
    }

    // The nest spans partition "interp" exactly: every flop and every
    // interpreter-issued access happens inside exactly one nest span (each
    // access reaches the simulator as the nest issues it), so
    // children+self == parent with self == 0 on those counters.
    let interp = profile
        .spans
        .iter()
        .position(|s| s.name == "interp")
        .expect("the measurement opens an interp span");
    let mut nests = Counters::default();
    let mut n_nests = 0;
    for child in profile.children(interp) {
        assert!(profile.spans[child].name.starts_with("nest:"), "unexpected child");
        nests.add(&profile.spans[child].delta);
        n_nests += 1;
    }
    assert_eq!(n_nests, 2, "both loop nests get a span");
    let whole = profile.spans[interp].delta;
    assert_eq!(nests.accesses, whole.accesses, "accesses leak outside the nest spans");
    assert_eq!(nests.flops, whole.flops, "flops leak outside the nest spans");
    assert_eq!(nests.channel_bytes, whole.channel_bytes, "bytes leak outside the nest spans");
    assert_eq!(nests.misses, whole.misses, "misses leak");
    assert!(whole.channel_bytes[0] > 0, "the measurement moved real bytes");

    // And the roots account for the whole collection: the drain ("flush")
    // traffic is a sibling of "interp", not hidden inside it.
    let mut roots = Counters::default();
    for k in profile.roots() {
        roots.add(&profile.spans[k].delta);
    }
    assert!(roots.channel_bytes[0] >= whole.channel_bytes[0]);
    assert_eq!(roots.flops, whole.flops, "only the interpreter does flops");
}

#[test]
fn attribution_is_byte_identical_across_jobs_worker_counts() {
    // Four copies of the same profiled measurement, scheduled on one
    // worker and then on three: every per-span counter must agree byte
    // for byte.  (Times are excluded by construction — the job only
    // serialises deterministic counters.)
    let jobs = [
        Job { name: "p0", title: "profiled 0", run: profiled_job },
        Job { name: "p1", title: "profiled 1", run: profiled_job },
        Job { name: "p2", title: "profiled 2", run: profiled_job },
        Job { name: "p3", title: "profiled 3", run: profiled_job },
    ];
    let ctx = Ctx { sizes: mbb_bench::experiments::Sizes::quick(), quick: true };
    let serial = run_jobs(&jobs, &ctx, 1);
    let parallel = run_jobs(&jobs, &ctx, 3);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(
            s.data.render_compact(),
            p.data.render_compact(),
            "job `{}` attribution changed with the worker count",
            s.name
        );
        assert!(s.rendered.contains("nest:"), "{}", s.rendered);
    }
}

#[test]
fn chrome_trace_of_a_real_run_round_trips_through_json_parse() {
    let prog = mbb_ir::parse(SRC).unwrap();
    let machine = MachineModel::origin2000();
    let c = collect(Mode::Full);
    measure_program_balance(&prog, &machine).unwrap();
    let profile: Profile = c.finish();

    let text = chrome_trace(&[("measure", &profile)]).render();
    let back = Json::parse(&text).expect("trace must be valid JSON");
    let Some(Json::Arr(events)) = back.get("traceEvents") else {
        panic!("traceEvents missing");
    };
    // One slice per span plus the track-name metadata event.
    assert_eq!(events.len(), profile.spans.len() + 1);
    for e in events {
        match e.get("ph").and_then(Json::as_str) {
            Some("X") => {
                for key in ["name", "ts", "dur", "pid", "tid", "args"] {
                    assert!(e.get(key).is_some(), "slice missing `{key}`: {e:?}");
                }
            }
            Some("M") => assert_eq!(e.get("name").and_then(Json::as_str), Some("thread_name")),
            other => panic!("unexpected phase {other:?}"),
        }
    }
}
