//! The parallel experiment engine.
//!
//! Every paper table/figure is a [`Job`]: a name, a title, and a pure
//! function from shared sizing context to a rendered table plus a
//! structured [`Json`] result.  [`run_jobs`] schedules the jobs across a
//! scoped worker pool and collects results **in registry order**, so the
//! rendered report is byte-identical no matter how many workers ran it —
//! parallelism changes wall-clock, never output.  Timings therefore live
//! only in the stderr report and in the JSON timing fields, which
//! [`strip_timing`] removes for determinism comparisons.
//!
//! Observability: each worker wraps a [`Meter`] around a job, reading the
//! thread-local access odometer before and after it, which gives an exact
//! per-job count of simulated memory accesses and an events/second
//! throughput — the simulator's equivalent of instructions-per-second.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mbb_memsim::machine::MachineModel;
use mbb_obs::json::Json;
use mbb_obs::{mev_per_sec, Meter};

use crate::experiments::{self, Figure1, Sizes};
use crate::table::{f, Table};

/// Shared read-only context every job receives.
#[derive(Clone, Copy, Debug)]
pub struct Ctx {
    /// Workload sizes (quick or full).
    pub sizes: Sizes,
    /// Whether the reduced test-suite sizes are in use.
    pub quick: bool,
}

/// What a job produces: the human table and the machine-readable result.
pub struct JobOutput {
    /// The rendered table (and any trailing notes), ending in a newline.
    pub rendered: String,
    /// The structured result for `--json`.
    pub data: Json,
}

/// One experiment in the registry.
///
/// `run` is a plain `fn` pointer — capture-free by construction, so a
/// `&[Job]` is `Sync` and can be handed to the worker pool without any
/// further ceremony.
#[derive(Clone, Copy)]
pub struct Job {
    /// Selector name on the `repro` command line (`"fig1"`).
    pub name: &'static str,
    /// Section heading printed above the table.
    pub title: &'static str,
    /// The experiment itself.
    pub run: fn(&Ctx) -> JobOutput,
}

/// A completed job, with its measurements.
#[derive(Debug)]
pub struct JobResult {
    /// Selector name.
    pub name: &'static str,
    /// Section heading.
    pub title: &'static str,
    /// Rendered table.
    pub rendered: String,
    /// Structured result.
    pub data: Json,
    /// Wall-clock time of the job on its worker.
    pub wall: Duration,
    /// Simulated access events the job performed.
    pub events: u64,
}

/// Runs `jobs` on `threads` workers and returns results in job order.
///
/// Workers claim jobs from a shared atomic cursor (longest jobs start
/// first only by position — the registry is ordered for presentation, and
/// order-independence is the point).  A panic inside a job is caught on
/// the worker, carried back, and re-raised here with the job's name
/// attached; results of jobs that completed before the panic are dropped
/// with it, exactly as in the serial case.
pub fn run_jobs(jobs: &[Job], ctx: &Ctx, threads: usize) -> Vec<JobResult> {
    type Outcome = Result<JobResult, Box<dyn Any + Send>>;
    let threads = threads.clamp(1, jobs.len().max(1));
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<Outcome>> = (0..jobs.len()).map(|_| None).collect();

    std::thread::scope(|scope| {
        let worker = || {
            let mut done: Vec<(usize, Outcome)> = Vec::new();
            loop {
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(k) else { break };
                let meter = Meter::start();
                let out = catch_unwind(AssertUnwindSafe(|| (job.run)(ctx)));
                let m = meter.finish();
                done.push((
                    k,
                    out.map(|o| JobResult {
                        name: job.name,
                        title: job.title,
                        rendered: o.rendered,
                        data: o.data,
                        wall: m.wall,
                        events: m.events,
                    }),
                ));
            }
            done
        };
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        for h in handles {
            for (k, r) in h.join().expect("worker died outside a job") {
                slots[k] = Some(r);
            }
        }
    });

    slots
        .into_iter()
        .zip(jobs)
        .map(|(slot, job)| {
            match slot.unwrap_or_else(|| panic!("job `{}` was never run", job.name)) {
                Ok(r) => r,
                Err(payload) => {
                    panic!("job `{}` panicked: {}", job.name, payload_message(payload.as_ref()))
                }
            }
        })
        .collect()
}

fn payload_message(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Renders the full report: every job's heading and table, in registry
/// order, independent of how many workers produced them.
pub fn render_report(results: &[JobResult]) -> String {
    let mut out = String::new();
    for r in results {
        out.push_str(&format!("-- {} --\n{}\n", r.title, r.rendered.trim_end()));
        out.push('\n');
    }
    out
}

/// Renders the per-job timing table (for stderr — never part of the
/// deterministic report).
pub fn render_timing(results: &[JobResult], total_wall: Duration, threads: usize) -> String {
    let mut t = Table::new(&["job", "wall (s)", "sim events", "Mev/s"]);
    for r in results {
        t.row(vec![
            r.name.to_string(),
            f(r.wall.as_secs_f64(), 3),
            r.events.to_string(),
            f(mev_per_sec(r.events, r.wall), 1),
        ]);
    }
    let busy: Duration = results.iter().map(|r| r.wall).sum();
    let events: u64 = results.iter().map(|r| r.events).sum();
    t.row(vec![
        format!("total ({threads} worker{})", if threads == 1 { "" } else { "s" }),
        f(total_wall.as_secs_f64(), 3),
        events.to_string(),
        f(mev_per_sec(events, busy), 1),
    ]);
    t.render()
}

/// Assembles the `--json` document (schema `mbb-bench-repro/1`, documented
/// in EXPERIMENTS.md).
pub fn results_to_json(
    results: &[JobResult],
    mode: &str,
    threads: usize,
    total_wall: Duration,
) -> Json {
    Json::obj([
        ("schema", Json::str("mbb-bench-repro/1")),
        ("mode", Json::str(mode)),
        ("jobs", Json::UInt(threads as u64)),
        ("total_wall_s", Json::num(total_wall.as_secs_f64())),
        (
            "experiments",
            Json::arr(results.iter().map(|r| {
                Json::obj([
                    ("name", Json::str(r.name)),
                    ("title", Json::str(r.title)),
                    ("wall_s", Json::num(r.wall.as_secs_f64())),
                    ("events", Json::UInt(r.events)),
                    ("events_per_sec", Json::num(mev_per_sec(r.events, r.wall) * 1e6)),
                    ("data", r.data.clone()),
                ])
            })),
        ),
    ])
}

/// Nulls every timing-dependent field in a `mbb-bench-repro/1` document so
/// two runs can be compared for semantic equality (the determinism tests
/// and any CI diffing use this).
pub fn strip_timing(doc: &mut Json) {
    for key in ["total_wall_s", "jobs"] {
        if let Some(v) = doc.get_mut(key) {
            *v = Json::Null;
        }
    }
    if let Some(Json::Arr(experiments)) = doc.get_mut("experiments") {
        for e in experiments {
            for key in ["wall_s", "events_per_sec"] {
                if let Some(v) = e.get_mut(key) {
                    *v = Json::Null;
                }
            }
            // `events` is deterministic for self-contained jobs but not for
            // the jobs sharing the Figure-1 computation: whichever worker
            // gets there first pays for it.
            if let Some(v) = e.get_mut("events") {
                *v = Json::Null;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------------

/// Computes (or reuses) the Figure-1 measurement for `sizes`.
///
/// Three jobs (fig1, fig2, scaling) derive from the same measurement.  The
/// serial runner computed it once; to keep that economy under parallelism
/// the result is memoised per `Sizes` behind a mutex, and the computation
/// runs *under the lock* — a second worker arriving early blocks until the
/// first finishes rather than duplicating a multi-second simulation.
pub fn figure1_shared(sizes: Sizes) -> Arc<Figure1> {
    static CACHE: Mutex<Vec<(Sizes, Arc<Figure1>)>> = Mutex::new(Vec::new());
    let mut cache = CACHE.lock().unwrap();
    if let Some((_, fig)) = cache.iter().find(|(s, _)| *s == sizes) {
        return fig.clone();
    }
    let fig = Arc::new(experiments::figure1(sizes));
    cache.push((sizes, fig.clone()));
    fig
}

/// The full paper registry, in the paper's presentation order.
pub fn paper_jobs() -> Vec<Job> {
    vec![
        Job {
            name: "sec21",
            title: "§2.1: the write-back loop vs the read loop",
            run: |ctx| {
                let rows = experiments::sec21(ctx.sizes);
                JobOutput {
                    rendered: experiments::render_sec21(&rows),
                    data: Json::arr(rows.iter().map(|r| {
                        Json::obj([
                            ("machine", Json::str(&r.machine)),
                            ("update_s", Json::num(r.t_update_s)),
                            ("read_s", Json::num(r.t_read_s)),
                        ])
                    })),
                }
            },
        },
        Job {
            name: "fig1",
            title: "Figure 1: program and machine balance (bytes per flop)",
            run: |ctx| {
                let fig = figure1_shared(ctx.sizes);
                let rendered = format!(
                    "{}\nnote: IR register balance runs higher than the paper's hand counts\n\
                     (no loop-invariant register promotion); see EXPERIMENTS.md.\n",
                    experiments::render_figure1(&fig)
                );
                JobOutput {
                    rendered,
                    data: Json::obj([
                        ("machine_name", Json::str(&fig.machine_name)),
                        (
                            "programs",
                            Json::arr(fig.programs.iter().map(|b| {
                                Json::obj([
                                    ("name", Json::str(&b.name)),
                                    (
                                        "bytes_per_flop",
                                        Json::arr(b.bytes_per_flop.iter().map(|&x| Json::num(x))),
                                    ),
                                    ("flops", Json::UInt(b.flops)),
                                ])
                            })),
                        ),
                        ("machine_balance", Json::arr(fig.machine.iter().map(|&x| Json::num(x)))),
                    ]),
                }
            },
        },
        Job {
            name: "fig2",
            title: "Figure 2: demand / supply ratios on the Origin2000",
            run: |ctx| {
                let fig = experiments::figure2(&figure1_shared(ctx.sizes));
                JobOutput {
                    rendered: experiments::render_figure2(&fig),
                    data: Json::arr(fig.rows.iter().map(|(name, ratios, util)| {
                        Json::obj([
                            ("program", Json::str(name)),
                            ("ratios", Json::arr(ratios.iter().map(|&x| Json::num(x)))),
                            ("cpu_utilization_bound", Json::num(*util)),
                        ])
                    })),
                }
            },
        },
        Job {
            name: "fig3",
            title: "Figure 3: effective bandwidth of the stride-1 kernels",
            run: |ctx| {
                let rows = experiments::figure3(ctx.sizes);
                JobOutput {
                    rendered: experiments::render_figure3(&rows),
                    data: Json::arr(rows.iter().map(|r| {
                        Json::obj([
                            ("kernel", Json::str(&r.name)),
                            ("origin_mbs", Json::num(r.origin_mbs)),
                            ("exemplar_mbs", Json::num(r.exemplar_mbs)),
                        ])
                    })),
                }
            },
        },
        Job {
            name: "sp",
            title: "§2.3: NAS/SP per-subroutine bandwidth utilisation",
            run: |ctx| {
                let rows = experiments::sp_utilization(ctx.sizes);
                JobOutput {
                    rendered: experiments::render_sp_utilization(&rows),
                    data: Json::arr(rows.iter().map(|(name, util)| {
                        Json::obj([
                            ("subroutine", Json::str(name)),
                            ("utilization", Json::num(*util)),
                        ])
                    })),
                }
            },
        },
        Job {
            name: "scaling",
            title: "§2.3: memory bandwidth needed to feed an R10K-class CPU",
            run: |ctx| {
                let rows = experiments::scaling_study(&figure1_shared(ctx.sizes));
                JobOutput {
                    rendered: experiments::render_scaling(&rows),
                    data: Json::arr(rows.iter().map(|(name, mbs)| {
                        Json::obj([("program", Json::str(name)), ("required_mbs", Json::num(*mbs))])
                    })),
                }
            },
        },
        Job {
            name: "fig4",
            title: "Figure 4: bandwidth-minimal vs edge-weighted fusion",
            run: |_ctx| {
                let x = experiments::figure4();
                JobOutput {
                    rendered: experiments::render_figure4(&x),
                    data: Json::obj([
                        ("unfused", Json::UInt(x.unfused)),
                        ("bandwidth_minimal", Json::UInt(x.bandwidth_minimal)),
                        (
                            "bandwidth_minimal_edge_weight",
                            Json::UInt(x.bandwidth_minimal_edge_weight),
                        ),
                        ("edge_weighted_weight", Json::UInt(x.edge_weighted_weight)),
                        ("edge_weighted_arrays", Json::UInt(x.edge_weighted_arrays)),
                        ("two_partition", Json::UInt(x.two_partition)),
                        ("greedy", Json::UInt(x.greedy)),
                        ("bisection", Json::UInt(x.bisection)),
                    ]),
                }
            },
        },
        Job {
            name: "fig6",
            title: "Figure 6: array shrinking and peeling",
            run: |ctx| {
                let n = if ctx.quick { 16 } else { 64 };
                let m = MachineModel::origin2000().scaled(512);
                let x = experiments::figure6(n, &m);
                JobOutput {
                    rendered: experiments::render_figure6(&x),
                    data: Json::obj([
                        ("n", Json::UInt(x.n as u64)),
                        ("storage_before_b", Json::UInt(x.storage_before as u64)),
                        ("storage_after_b", Json::UInt(x.storage_after as u64)),
                        ("mem_bytes_before", Json::UInt(x.mem_bytes_before)),
                        ("mem_bytes_after", Json::UInt(x.mem_bytes_after)),
                        ("nests_after", Json::UInt(x.nests_after as u64)),
                    ]),
                }
            },
        },
        Job {
            name: "opt",
            title: "optimiser study (ours): the §3 strategy across the suite",
            run: |ctx| {
                let rows = experiments::optimizer_study(ctx.sizes);
                JobOutput {
                    rendered: experiments::render_optimizer_study(&rows),
                    data: Json::arr(rows.iter().map(|r| {
                        Json::obj([
                            ("workload", Json::str(&r.name)),
                            ("mem_bytes_before", Json::UInt(r.mem_bytes.0)),
                            ("mem_bytes_after", Json::UInt(r.mem_bytes.1)),
                            ("storage_before_b", Json::UInt(r.storage.0 as u64)),
                            ("storage_after_b", Json::UInt(r.storage.1 as u64)),
                            ("time_before_s", Json::num(r.time_s.0)),
                            ("time_after_s", Json::num(r.time_s.1)),
                            ("nests_before", Json::UInt(r.nests.0 as u64)),
                            ("nests_after", Json::UInt(r.nests.1 as u64)),
                        ])
                    })),
                }
            },
        },
        Job {
            name: "fig8",
            title: "Figure 8: effect of loop fusion and store elimination",
            run: |ctx| {
                let rows = experiments::figure8(ctx.sizes);
                JobOutput {
                    rendered: experiments::render_figure8(&rows),
                    data: Json::arr(rows.iter().map(|r| {
                        Json::obj([
                            ("machine", Json::str(&r.machine)),
                            ("original_s", Json::num(r.t_original_s)),
                            ("fused_s", Json::num(r.t_fused_s)),
                            ("eliminated_s", Json::num(r.t_eliminated_s)),
                        ])
                    })),
                }
            },
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_jobs() -> Vec<Job> {
        vec![
            Job {
                name: "alpha",
                title: "Alpha",
                run: |_| JobOutput { rendered: "a\n".into(), data: Json::UInt(1) },
            },
            Job {
                name: "beta",
                title: "Beta",
                run: |_| JobOutput { rendered: "b\n".into(), data: Json::UInt(2) },
            },
            Job {
                name: "gamma",
                title: "Gamma",
                run: |_| JobOutput { rendered: "c\n".into(), data: Json::UInt(3) },
            },
        ]
    }

    fn ctx() -> Ctx {
        Ctx { sizes: Sizes::quick(), quick: true }
    }

    #[test]
    fn results_come_back_in_registry_order_regardless_of_workers() {
        for threads in [1, 2, 8] {
            let results = run_jobs(&toy_jobs(), &ctx(), threads);
            let names: Vec<_> = results.iter().map(|r| r.name).collect();
            assert_eq!(names, ["alpha", "beta", "gamma"], "threads = {threads}");
        }
    }

    #[test]
    fn report_is_identical_across_worker_counts() {
        let serial = render_report(&run_jobs(&toy_jobs(), &ctx(), 1));
        let parallel = render_report(&run_jobs(&toy_jobs(), &ctx(), 3));
        assert_eq!(serial, parallel);
        assert!(serial.contains("-- Alpha --\na\n"));
    }

    #[test]
    fn panics_carry_the_job_name() {
        let jobs = vec![
            toy_jobs()[0],
            Job { name: "broken", title: "Broken", run: |_| panic!("deliberate failure") },
        ];
        let err = catch_unwind(AssertUnwindSafe(|| run_jobs(&jobs, &ctx(), 2)))
            .expect_err("the job panic must propagate");
        let msg = payload_message(err.as_ref());
        assert!(msg.contains("broken"), "{msg}");
        assert!(msg.contains("deliberate failure"), "{msg}");
    }

    #[test]
    fn strip_timing_nulls_only_timing_fields() {
        let results = run_jobs(&toy_jobs(), &ctx(), 2);
        let mut doc = results_to_json(&results, "quick", 2, Duration::from_millis(5));
        assert!(matches!(doc.get("total_wall_s"), Some(Json::Num(_))));
        strip_timing(&mut doc);
        assert_eq!(doc.get("total_wall_s"), Some(&Json::Null));
        let Some(Json::Arr(exps)) = doc.get("experiments") else { panic!("experiments") };
        for e in exps {
            assert_eq!(e.get("wall_s"), Some(&Json::Null));
            assert_eq!(e.get("events"), Some(&Json::Null));
            assert!(e.get("data").is_some(), "data survives stripping");
        }
        assert_eq!(exps[0].get("data"), Some(&Json::UInt(1)));
    }
}
