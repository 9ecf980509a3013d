//! The traced run's per-layer measurements. Every span wraps one call
//! into a layer's public function, made by the benchmark itself.

use std::hint::black_box;
use std::path::Path;

use locmps_core::locality::{input_locality_scores, select_max_locality};
use locmps_core::timeline::Timeline;
use locmps_core::{Allocation, CommModel, Locbs, LocbsOptions, SchedulerOutput};
use locmps_platform::ProcSet;
use locmps_runtime::{OnlineConfig, OnlineLocbs, RuntimeEngine};
use locmps_serve::journal::{Journal, Record, RunRecord, SubmitRecord};
use locmps_taskgraph::{EdgeKind, TaskGraph};

use crate::inputs::{Case, JobList, SERVE_BANDWIDTH, SERVE_PROCS};
use crate::stats::{mean, percentile, Metrics};
use crate::trace::Tracer;

/// Full LoCBS passes timed per case and allocation.
const PASS_REPEATS: usize = 3;
/// Critical-path computations timed per case.
const LEVELS_REPEATS: usize = 5;

/// Mean microseconds of the spans named `name` (0 when there are none).
fn us(tracer: &Tracer, name: &str) -> f64 {
    let d = tracer.durations_ns(name);
    if d.is_empty() {
        0.0
    } else {
        mean(&d) / 1e3
    }
}

/// Mean microseconds and count of spans named `name`.
fn us_count(tracer: &Tracer, name: &str) -> (f64, f64) {
    (us(tracer, name), tracer.durations_ns(name).len() as f64)
}

/// Offline layers over LoC-MPS results: search counters, LoCBS passes,
/// the schedule-DAG critical path, transfer pricing, and a replay of the
/// schedule's bookings through the timeline and locality selection.
/// `walls` are the traced schedule calls' wall seconds.
pub fn offline_layers(
    tracer: &mut Tracer,
    cases: &[Case],
    outputs: &[SchedulerOutput],
    walls: &[f64],
) -> Metrics {
    let mut counters = [0u64; 4];
    let mut pass_time_s = 0.0;
    for (i, (case, out)) in cases.iter().zip(outputs).enumerate() {
        let id = i as u64;
        let c = out.counters;
        for (k, v) in [
            c.locbs_passes,
            c.pass_memo_hits,
            c.probes_aborted,
            c.commits,
        ]
        .into_iter()
        .enumerate()
        {
            counters[k] += v;
        }
        let g = &case.graph;
        let model = CommModel::new(&case.cluster);
        let locbs = Locbs::new(model, LocbsOptions::default());
        let ones = Allocation::ones(g.n_tasks());
        for _ in 0..PASS_REPEATS {
            tracer
                .span("core.locbs.run", id, |_| {
                    black_box(locbs.run(g, &out.allocation))
                })
                .expect("a LoC-MPS allocation schedules");
            tracer
                .span("core.locbs.run_ones", id, |_| {
                    black_box(locbs.run(g, &ones))
                })
                .expect("the all-ones allocation schedules");
        }
        // This case's passes, priced at its final allocation's pass time.
        let passes = tracer.durations_ns("core.locbs.run");
        let pass_ns = mean(&passes[passes.len() - PASS_REPEATS..]);
        pass_time_s += c.locbs_passes as f64 * pass_ns / 1e9;

        if let Some(dag) = &out.schedule_dag {
            let edge_w: Vec<f64> = dag
                .edge_ids()
                .map(|e| model.edge_estimate(dag, &out.allocation, e))
                .collect();
            for _ in 0..LEVELS_REPEATS {
                tracer.span("taskgraph.critical_path", id, |_| {
                    black_box(dag.critical_path(
                        |t| dag.task(t).profile.time(out.allocation.np(t)),
                        |e| edge_w[e.index()],
                    ))
                });
            }
        }

        let entry = |t| out.schedule.get(t).expect("every task is scheduled");
        for (_, e) in g.edges().filter(|(_, e)| e.kind == EdgeKind::Data) {
            let (src, dst) = (&entry(e.src).procs, &entry(e.dst).procs);
            tracer.span("core.commcost.transfer_time", id, |_| {
                black_box(model.transfer_time(src, dst, e.volume))
            });
        }
        replay_bookings(tracer, id, g, out, case.cluster.n_procs);
    }

    let mut m = Metrics::default();
    m.set("locmps.passes", counters[0] as f64, "count");
    m.set("locmps.memo_hits", counters[1] as f64, "count");
    m.set("locmps.probes_aborted", counters[2] as f64, "count");
    m.set("locmps.commits", counters[3] as f64, "count");
    m.set(
        "locmps.pass_share",
        pass_time_s / walls.iter().sum::<f64>(),
        "ratio",
    );
    m.set("locbs.pass_ms", us(tracer, "core.locbs.run") / 1e3, "ms");
    m.set(
        "locbs.pass_ones_ms",
        us(tracer, "core.locbs.run_ones") / 1e3,
        "ms",
    );
    let (free_us, queries) = us_count(tracer, "core.timeline.free_set_into");
    m.set("timeline.free_set_us", free_us, "us");
    m.set(
        "timeline.occupy_us",
        us(tracer, "core.timeline.occupy"),
        "us",
    );
    m.set("timeline.queries", queries, "count");
    m.set(
        "locality.select_us",
        us(tracer, "core.locality.select_max_locality"),
        "us",
    );
    let (transfer_us, transfers) = us_count(tracer, "core.commcost.transfer_time");
    m.set("commcost.transfer_us", transfer_us, "us");
    m.set("commcost.transfers", transfers, "count");
    m.set(
        "taskgraph.levels_us",
        us(tracer, "taskgraph.critical_path"),
        "us",
    );
    m
}

/// Re-books a finished schedule, in start order, on a fresh timeline the
/// way the LoCBS placement loop queries it: every candidate start from the
/// task's data-ready time up to its finish gets a free-set query and, when
/// enough processors are free, a locality selection; then the task's
/// processors are occupied. A double booking panics in `occupy`.
fn replay_bookings(tracer: &mut Tracer, id: u64, g: &TaskGraph, out: &SchedulerOutput, p: usize) {
    let mut entries: Vec<_> = out.schedule.entries().iter().collect();
    entries.sort_by(|a, b| {
        a.start
            .total_cmp(&b.start)
            .then(a.finish.total_cmp(&b.finish))
    });
    let mut timeline = Timeline::new(p);
    let mut free = ProcSet::new();
    for e in entries {
        let np = e.procs.len();
        let et = g.task(e.task).profile.time(np);
        let placed = |t| &out.schedule.get(t).expect("every task is scheduled").procs;
        let data_ready = g
            .predecessors(e.task)
            .map(|t| out.schedule.get(t).expect("every task is scheduled").finish)
            .fold(0.0f64, f64::max);
        let scores = input_locality_scores(g, e.task, p, |t| placed(t).clone());
        let mut cursor = timeline.candidates_after(data_ready);
        while let Some(s) = cursor.next_below(e.finish) {
            tracer.span("core.timeline.free_set_into", id, |_| {
                timeline.free_set_into(s, s + et, &mut free)
            });
            if free.len() >= np {
                tracer.span("core.locality.select_max_locality", id, |_| {
                    black_box(select_max_locality(&free, np, &scores))
                });
            }
        }
        tracer.span("core.timeline.occupy", id, |_| {
            timeline.occupy(&e.procs, e.start, e.finish)
        });
    }
}

/// Registry and runtime layers: `cpa` and `psonline` schedule calls on
/// `graphs`, and online executions (`online` policy) of `run_graphs`.
/// `locmps_walls` are the traced LoC-MPS schedule calls' wall seconds.
pub fn registry_layers(
    tracer: &mut Tracer,
    graphs: &[&Case],
    run_graphs: &[&Case],
    locmps_walls: &[f64],
) -> Metrics {
    let mut m = Metrics::default();
    m.set(
        "registry.schedule_ms.locmps",
        mean(locmps_walls) * 1e3,
        "ms",
    );
    for (algo, span) in [
        ("cpa", "serve.registry.schedule.cpa"),
        ("psonline", "serve.registry.schedule.psonline"),
    ] {
        let sched = locmps_serve::scheduler_by_name(algo).expect("registered scheduler");
        for (i, c) in graphs.iter().enumerate() {
            tracer
                .span(span, i as u64, |_| {
                    black_box(sched.schedule(&c.graph, &c.cluster))
                })
                .unwrap_or_else(|e| panic!("{algo} on {}: {e}", c.label));
        }
        m.set(
            &format!("registry.schedule_ms.{algo}"),
            us(tracer, span) / 1e3,
            "ms",
        );
    }
    for (i, c) in run_graphs.iter().enumerate() {
        let trace = tracer.span("runtime.engine.run", i as u64, |_| {
            RuntimeEngine::new(&c.graph, &c.cluster, OnlineConfig::default())
                .run(&mut OnlineLocbs::default())
        });
        assert!(
            trace.is_complete(),
            "{}: online execution incomplete",
            c.label
        );
    }
    m.set(
        "runtime.run_ms",
        us(tracer, "runtime.engine.run") / 1e3,
        "ms",
    );
    m
}

/// Request-path layers re-issued over a job list: HTTP parsing, graph
/// decoding, fingerprinting and journal appends (fsync'd, to a scratch
/// journal at `journal_path`).
pub fn request_layers(tracer: &mut Tracer, jobs: &JobList, journal_path: &Path) -> Metrics {
    let _ = std::fs::remove_file(journal_path);
    let (mut journal, _) = Journal::open(journal_path).expect("open scratch journal");
    for (i, req) in jobs.requests.iter().enumerate() {
        let id = i as u64;
        let job = &jobs.jobs[req.job];
        let raw = format!(
            "POST /v1/jobs HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{}",
            req.body.len(),
            req.body
        );
        let parsed = tracer
            .span("serve.http.read_request", id, |_| {
                locmps_serve::http::read_request(raw.as_bytes())
            })
            .expect("well-formed request");
        assert_eq!(parsed.body, req.body.as_bytes(), "request body round-trips");
        let graph = tracer
            .span("taskgraph.io.from_json", id, |_| {
                TaskGraph::from_json(&job.graph_json)
            })
            .expect("graph JSON decodes");
        let fp = tracer.span("serve.fingerprint.job", id, |_| {
            crate::inputs::job_fingerprint(&graph, job.algo, job.run_seed)
        });
        assert_eq!(
            fp, job.fingerprint,
            "fingerprint is a pure function of the job"
        );
        let record = Record::Submit(SubmitRecord {
            id,
            fingerprint: fp,
            tenant: format!("tenant-{}", req.tenant),
            graph_json: graph.to_json(),
            procs: SERVE_PROCS as u64,
            bandwidth: SERVE_BANDWIDTH,
            algo: job.algo.to_string(),
            degraded: false,
            deadline_ms: None,
            run: job.run_seed.map(|seed| RunRecord {
                seed,
                exec_cv: 0.0,
                policy: "online".into(),
                recovery: "failstop".into(),
                faults: String::new(),
                adapt: false,
            }),
        });
        tracer
            .span("serve.journal.append", id, |_| journal.append(&record))
            .expect("journal append");
    }
    drop(journal);
    let bytes = std::fs::metadata(journal_path).map_or(0, |m| m.len());
    let _ = std::fs::remove_file(journal_path);

    let appends = tracer.durations_ns("serve.journal.append");
    let mut m = Metrics::default();
    m.set("http.parse_us", us(tracer, "serve.http.read_request"), "us");
    m.set(
        "io.from_json_us",
        us(tracer, "taskgraph.io.from_json"),
        "us",
    );
    m.set(
        "fingerprint.job_us",
        us(tracer, "serve.fingerprint.job"),
        "us",
    );
    m.set(
        "journal.append_us_p50",
        percentile(&appends, 0.50).0 / 1e3,
        "us",
    );
    m.set(
        "journal.append_us_p99",
        percentile(&appends, 0.99).0 / 1e3,
        "us",
    );
    m.set(
        "journal.bytes_per_job",
        bytes as f64 / jobs.requests.len() as f64,
        "bytes",
    );
    m
}
