//! Span-correctness: the obs odometer mirrors the hierarchy's own
//! `TrafficReport` exactly — same bytes per channel, same miss and
//! writeback counts, same memory read/write split, same TLB misses.

use mbb_ir::trace::{Access, AccessSink};
use mbb_memsim::cache::{CacheConfig, WritePolicy};
use mbb_memsim::hierarchy::Hierarchy;
use mbb_obs::{collect, Mode};

/// Serialises these tests: a live Full collector anywhere in the process
/// turns on odometer ticks that the unobserved-run test must not see.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn two_level() -> Hierarchy {
    Hierarchy::new(vec![
        CacheConfig::write_back("L1", 256, 32, 2),
        CacheConfig::write_back("L2", 1024, 64, 2),
    ])
}

fn mixed_trace() -> Vec<Access> {
    let mut trace = Vec::new();
    for k in 0..4096u64 {
        let addr = (k.wrapping_mul(0x9E37_79B9).wrapping_add(7)) % 8192;
        trace.push(if k % 3 == 0 { Access::write(addr, 8) } else { Access::read(addr, 8) });
    }
    trace.push(Access::read(28, 8)); // straddler: splits across two lines
    trace
}

fn feed(h: &mut Hierarchy, trace: &[Access]) {
    for &a in trace {
        h.access(a);
    }
}

#[track_caller]
fn assert_mirrors(delta: &mbb_obs::Counters, report: &mbb_memsim::hierarchy::TrafficReport) {
    for (k, &bytes) in report.channel_bytes.iter().enumerate() {
        assert_eq!(delta.channel_bytes[k], bytes, "channel {k} bytes");
    }
    for k in report.channel_bytes.len()..mbb_obs::MAX_CHANNELS {
        assert_eq!(delta.channel_bytes[k], 0, "channel {k} should be untouched");
    }
    for (k, s) in report.level_stats.iter().enumerate() {
        assert_eq!(delta.misses[k], s.misses(), "level {k} misses");
        assert_eq!(delta.writebacks[k], s.writebacks, "level {k} writebacks");
    }
    assert_eq!(delta.mem_read_bytes, report.mem_read_bytes);
    assert_eq!(delta.mem_write_bytes, report.mem_write_bytes);
    assert_eq!(delta.tlb_misses, report.tlb_misses);
}

#[test]
fn span_delta_equals_traffic_report() {
    let _serial = serial();
    let trace = mixed_trace();
    let c = collect(Mode::Full);
    let mut h = two_level();
    {
        let _s = mbb_obs::span!("sim");
        feed(&mut h, &trace);
        h.flush();
    }
    let p = c.finish();
    let report = h.report();
    let sim = p.find("sim").unwrap();
    assert_mirrors(&p.spans[sim].delta, &report);
    assert_eq!(p.spans[sim].delta.accesses, trace.len() as u64);
}

#[test]
fn sibling_spans_partition_the_report() {
    let _serial = serial();
    let trace = mixed_trace();
    let mid = trace.len() / 2;
    let c = collect(Mode::Full);
    let mut h = two_level();
    {
        let _outer = mbb_obs::span!("run");
        {
            let _a = mbb_obs::span!("first-half");
            feed(&mut h, &trace[..mid]);
        }
        {
            let _b = mbb_obs::span!("second-half");
            feed(&mut h, &trace[mid..]);
        }
        {
            let _f = mbb_obs::span!("flush");
            h.flush();
        }
    }
    let p = c.finish();
    let outer = p.find("run").unwrap();
    // Children + (empty) gap == parent, and parent == the report.
    let mut kids = mbb_obs::Counters::default();
    for k in p.children(outer) {
        kids.add(&p.spans[k].delta);
    }
    assert_eq!(kids, p.spans[outer].delta, "children partition the parent exactly");
    assert_mirrors(&p.spans[outer].delta, &h.report());
}

#[test]
fn write_through_and_prefetch_and_tlb_are_attributed() {
    let _serial = serial();
    let c = collect(Mode::Full);
    let mut wt = CacheConfig::write_back("L1", 256, 32, 2).with_prefetch(1);
    wt.policy = WritePolicy::WriteThrough;
    let mut h =
        Hierarchy::new(vec![wt, CacheConfig::write_back("L2", 1024, 64, 2)]).with_tlb(4, 256);
    {
        let _s = mbb_obs::span!("sim");
        for k in 0..1024u64 {
            let addr = (k.wrapping_mul(0x85EB_CA6B).wrapping_add(3)) % 16384;
            if k % 2 == 0 {
                h.access(Access::write(addr, 8));
            } else {
                h.access(Access::read(addr, 8));
            }
        }
        h.flush();
    }
    let p = c.finish();
    let report = h.report();
    assert!(report.tlb_misses > 0, "trace should stress the TLB");
    assert!(report.level_stats[0].prefetches > 0, "trace should trigger prefetches");
    assert_mirrors(&p.spans[p.find("sim").unwrap()].delta, &report);
}

#[test]
fn attribution_is_identical_across_worker_threads() {
    let _serial = serial();
    // The same trace simulated on N threads must attribute byte-identical
    // deltas on each: the odometer is thread-local and the simulation is
    // deterministic, so worker count (--jobs) cannot change attribution.
    let trace = std::sync::Arc::new(mixed_trace());
    let deltas: Vec<mbb_obs::Counters> = (0..4)
        .map(|_| {
            let trace = trace.clone();
            std::thread::spawn(move || {
                let c = collect(Mode::Full);
                let mut h = two_level();
                {
                    let _s = mbb_obs::span!("sim");
                    feed(&mut h, &trace);
                    h.flush();
                }
                let p = c.finish();
                p.spans[p.find("sim").unwrap()].delta
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().unwrap())
        .collect();
    for d in &deltas[1..] {
        assert_eq!(*d, deltas[0], "attribution must not depend on the thread");
    }
}

#[test]
fn without_a_collector_only_the_access_count_moves() {
    let _serial = serial();
    let before = mbb_obs::snapshot();
    let mut h = two_level();
    let trace = mixed_trace();
    feed(&mut h, &trace);
    h.flush();
    let delta = mbb_obs::snapshot().delta_since(&before);
    assert_eq!(delta.accesses, trace.len() as u64, "the access count is always on");
    assert_eq!(
        mbb_obs::Counters { accesses: 0, ..delta },
        mbb_obs::Counters::default(),
        "no Full collector → no other odometer movement"
    );
}
