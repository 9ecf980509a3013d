//! The `serve-mixed` workload: an in-process daemon with a fresh journal,
//! driven over HTTP by closed-loop `wait: true` clients.

use std::io::{Read, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use locmps_analysis::{analyze_schedule, Severity};
use locmps_core::{makespan_lower_bound, CommModel, LocMps, Schedule};
use locmps_platform::Cluster;
use locmps_serve::{
    JobSpec, JobState, Mode, RunParams, ServeConfig, Server, ServerHandle, Service,
};
use serde::{Deserialize, Value};

use crate::calib::HostClock;
use crate::inputs::{serve_job_list, Case, JobList, ServeJob, SERVE_BANDWIDTH, SERVE_PROCS};
use crate::offline::{run_unit, schedule_errors};
use crate::stats::{geomean, median, peak_rss_mb, percentile, Metrics};
use crate::trace::Tracer;
use crate::{layers, Outcome, Traced, SETUP_MIN_SECONDS, SETUP_REPEATS};

/// Closed-loop client threads: one per core of a 2-core machine.
pub const CLIENTS: usize = 2;

/// The daemon's configuration. The p95 degradation trigger is raised far
/// above any schedule latency of this job list: two closed-loop clients
/// never queue work, so degradation could only be tripped by host noise,
/// and a degraded reply counts as a failure here.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        degrade_p95_ms: 60_000.0,
        ..ServeConfig::default()
    }
}

/// One HTTP exchange on a fresh connection; returns (status, body).
pub fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.split(' ').next())
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("bad status line in {raw:?}")))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_string();
    Ok((status, body))
}

fn json(body: &str) -> Result<Vec<(String, Value)>, String> {
    let v: Value = serde_json::from_str(body).map_err(|e| format!("{e}: {body}"))?;
    match v {
        Value::Object(fields) => Ok(fields),
        _ => Err(format!("not a JSON object: {body}")),
    }
}

fn get<'a>(obj: &'a [(String, Value)], name: &str) -> Option<&'a Value> {
    serde::field(obj, name).ok()
}

fn uint(obj: &[(String, Value)], name: &str) -> Result<u64, String> {
    match get(obj, name) {
        Some(Value::UInt(n)) => Ok(*n),
        other => Err(format!("{name}: expected an integer, got {other:?}")),
    }
}

/// What one request saw.
#[derive(Debug, Clone)]
pub struct Reply {
    /// When the request was sent.
    pub sent: Instant,
    /// When the full reply had arrived.
    pub received: Instant,
    /// `None` when the reply is `done`, fresh or cached, with the expected
    /// fingerprint; otherwise why it does not count as a success.
    pub error: Option<String>,
    /// The daemon's job id.
    pub job_id: u64,
    /// Whether this request triggered a computation (neither a cache hit
    /// nor coalesced onto a running twin).
    pub computed: bool,
}

impl Reply {
    /// Milliseconds from send to the full reply.
    pub fn latency_ms(&self) -> f64 {
        (self.received - self.sent).as_secs_f64() * 1e3
    }
}

fn check_reply(status: u16, body: &str, fingerprint: u64) -> Result<(u64, bool), String> {
    if status != 200 {
        return Err(format!("HTTP {status}: {body}"));
    }
    let obj = json(body)?;
    let flag = |name| matches!(get(&obj, name), Some(Value::Bool(true)));
    if get(&obj, "state") != Some(&Value::Str("done".into())) {
        return Err(format!("not done: {body}"));
    }
    if flag("degraded") {
        return Err(format!("degraded: {body}"));
    }
    let want = format!("{fingerprint:016x}");
    if get(&obj, "fingerprint") != Some(&Value::Str(want)) {
        return Err(format!("unexpected fingerprint: {body}"));
    }
    Ok((uint(&obj, "job_id")?, !flag("cached") && !flag("coalesced")))
}

/// Sends every request of `jobs` from [`CLIENTS`] closed-loop threads
/// sharing one cursor, so requests leave in list order. Returns the
/// replies in list order and the wall seconds from first send to last
/// reply.
pub fn drive(addr: SocketAddr, jobs: &JobList) -> (Vec<Reply>, f64) {
    let cursor = AtomicUsize::new(0);
    let started = Instant::now();
    let mut replies: Vec<(usize, Reply)> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = jobs.requests.get(i) else {
                            break;
                        };
                        let sent = Instant::now();
                        let result = exchange(addr, "POST", "/v1/jobs", &req.body);
                        let received = Instant::now();
                        let checked =
                            result
                                .map_err(|e| e.to_string())
                                .and_then(|(status, body)| {
                                    check_reply(status, &body, jobs.jobs[req.job].fingerprint)
                                });
                        let reply = match checked {
                            Ok((job_id, computed)) => Reply {
                                sent,
                                received,
                                error: None,
                                job_id,
                                computed,
                            },
                            Err(e) => Reply {
                                sent,
                                received,
                                error: Some(e),
                                job_id: 0,
                                computed: false,
                            },
                        };
                        out.push((i, reply));
                    }
                    out
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("client thread"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    replies.sort_by_key(|(i, _)| *i);
    (replies.into_iter().map(|(_, r)| r).collect(), wall)
}

/// A bound daemon with a fresh journal.
pub struct Daemon {
    handle: ServerHandle,
    journal: PathBuf,
}

impl Daemon {
    /// Binds a daemon on an ephemeral port with a fresh journal at `journal`.
    pub fn start(journal: &Path) -> Daemon {
        let _ = std::fs::remove_file(journal);
        let server = Server::bind_with_journal("127.0.0.1:0", serve_config(), Some(journal))
            .expect("bind daemon");
        Daemon {
            handle: server.spawn(),
            journal: journal.to_path_buf(),
        }
    }

    /// The daemon's address.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Drains, stops and deletes the journal.
    pub fn stop(self) {
        self.handle.shutdown();
        let _ = std::fs::remove_file(&self.journal);
    }
}

/// Results of checking one pass against the daemon's own records.
struct Verified {
    errors: Vec<String>,
    /// `makespan / lower bound` per distinct job, in job order.
    ratios: Vec<f64>,
    /// Makespan bits per distinct job, in job order.
    makespans: Vec<u64>,
}

/// After a pass: `/v1/stats` must show one computation per distinct job
/// and no failure; every distinct job's schedule must be analyzer-clean
/// (LM1xx) and every run job's trace complete.
fn verify(addr: SocketAddr, jobs: &JobList, replies: &[Reply], analyze: bool) -> Verified {
    let mut errors = Vec::new();
    let mut check = |ok: bool, msg: String| {
        if !ok {
            errors.push(msg);
        }
    };
    match exchange(addr, "GET", "/v1/stats", "")
        .map_err(|e| e.to_string())
        .and_then(|(_, b)| json(&b))
    {
        Ok(stats) => {
            let n = |k| uint(&stats, k).unwrap_or(u64::MAX);
            check(
                n("schedules_computed") == jobs.jobs.len() as u64,
                format!(
                    "schedules_computed {} != distinct misses {}",
                    n("schedules_computed"),
                    jobs.jobs.len()
                ),
            );
            check(
                n("completed") == jobs.requests.len() as u64,
                format!("completed {}", n("completed")),
            );
            for k in ["failed", "shed", "degraded_jobs"] {
                check(n(k) == 0, format!("/v1/stats {k} = {}", n(k)));
            }
        }
        Err(e) => check(false, format!("/v1/stats: {e}")),
    }
    let computed = replies.iter().filter(|r| r.computed).count();
    check(
        computed == jobs.jobs.len(),
        format!(
            "{computed} computing replies for {} distinct jobs",
            jobs.jobs.len()
        ),
    );

    let mut first_id = vec![None; jobs.jobs.len()];
    for (req, r) in jobs.requests.iter().zip(replies) {
        if r.error.is_none() && first_id[req.job].is_none() {
            first_id[req.job] = Some(r.job_id);
        }
    }
    let cluster = Cluster::new(SERVE_PROCS, SERVE_BANDWIDTH);
    let mut ratios = Vec::new();
    let mut makespans = Vec::new();
    for (job, id) in jobs.jobs.iter().zip(first_id) {
        let Some(id) = id else {
            check(
                false,
                format!("job {:016x} never succeeded", job.fingerprint),
            );
            continue;
        };
        let result = exchange(addr, "GET", &format!("/v1/jobs/{id}/schedule"), "")
            .map_err(|e| e.to_string())
            .and_then(|(_, b)| json(&b))
            .and_then(|obj| {
                let makespan = match get(&obj, "makespan") {
                    Some(Value::Float(x)) => *x,
                    other => return Err(format!("makespan: {other:?}")),
                };
                let schedule = serde::field(&obj, "schedule")
                    .and_then(Schedule::from_value)
                    .map_err(|e| e.to_string())?;
                Ok((makespan, schedule))
            });
        let (makespan, schedule) = match result {
            Ok(r) => r,
            Err(e) => {
                check(false, format!("job {id}: {e}"));
                continue;
            }
        };
        check(
            makespan.to_bits() == schedule.makespan().to_bits(),
            format!("job {id}: makespan mismatch"),
        );
        if analyze {
            // Locality-oblivious schedulers plan with aggregate estimates;
            // like the bench runner, check them under the blind model.
            let model = if locmps_serve::registry::locality_aware(job.algo) {
                CommModel::new(&cluster)
            } else {
                CommModel::blind(&cluster)
            };
            let report = analyze_schedule(&schedule, &job.graph, &model);
            for d in report.diagnostics() {
                check(
                    !(d.code.starts_with("LM1") && d.severity == Severity::Error),
                    format!("job {id} ({}): {} {}", job.algo, d.code, d.message),
                );
            }
            if job.run_seed.is_some() {
                let trace = exchange(addr, "GET", &format!("/v1/jobs/{id}/trace"), "")
                    .map(|(_, b)| b)
                    .unwrap_or_default();
                check(
                    trace.contains("\"aborted\":false"),
                    format!("job {id}: run aborted or missing trace"),
                );
            }
        }
        ratios.push(makespan / makespan_lower_bound(&job.graph, SERVE_PROCS));
        makespans.push(makespan.to_bits());
    }
    Verified {
        errors,
        ratios,
        makespans,
    }
}

/// One pass over a fresh daemon: replies, wall seconds and verification.
pub struct Pass {
    /// Replies in list order.
    pub replies: Vec<Reply>,
    /// Wall seconds from first send to last reply.
    pub wall: f64,
    /// Correctness failures found after the pass.
    pub errors: Vec<String>,
    /// `makespan / lower bound` per distinct job, in job order.
    pub ratios: Vec<f64>,
    /// Makespan bits per distinct job, in job order.
    pub makespans: Vec<u64>,
}

/// Runs one pass of `jobs` against `daemon`, then verifies it and stops
/// the daemon. `analyze` runs the schedule analyzer on every result.
pub fn pass(daemon: Daemon, jobs: &JobList, analyze: bool) -> Pass {
    let (replies, wall) = drive(daemon.addr(), jobs);
    let v = verify(daemon.addr(), jobs, &replies, analyze);
    daemon.stop();
    Pass {
        replies,
        wall,
        errors: v.errors,
        ratios: v.ratios,
        makespans: v.makespans,
    }
}

/// The untraced run: one pass per draw, each over a fresh daemon and
/// journal, until `seconds` pass.
pub fn run(seed: u64, seconds: f64, work: &Path) -> Outcome {
    let journal = work.join("serve.journal");
    let setup = |draw| {
        let t0 = Instant::now();
        let jobs = serve_job_list(seed, draw);
        let daemon = Daemon::start(&journal);
        (t0.elapsed().as_secs_f64(), daemon, jobs)
    };
    // Every pass's own set-up is a sample; set-ups started and stopped
    // at once before the first pass make up the count.
    let mut clock = HostClock::default();
    clock.sample();
    let mut setups = Vec::new();
    let started = Instant::now();
    while setups.len() + 4 < SETUP_REPEATS || started.elapsed().as_secs_f64() < SETUP_MIN_SECONDS {
        let (s, daemon, _) = setup(setups.len() as u64);
        daemon.stop();
        setups.push(s);
    }
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut lists: Vec<JobList> = Vec::new();
    // Later passes reuse allocator arenas left by earlier daemons, so the
    // high-water mark is read once the first pass is done.
    let mut peak_rss = 0.0;
    while passes
        .last()
        .is_none_or(|p| started.elapsed().as_secs_f64() + p.wall <= seconds)
    {
        clock.sample();
        let (s, daemon, jobs) = setup(passes.len() as u64);
        setups.push(s);
        passes.push(pass(daemon, &jobs, true));
        lists.push(jobs);
        if passes.len() == 1 {
            peak_rss = peak_rss_mb();
        }
    }

    let mut errors = Vec::new();
    for (k, p) in passes.iter().enumerate() {
        errors.extend(p.errors.iter().map(|e| format!("pass {k}: {e}")));
    }
    let replies: Vec<&Reply> = passes.iter().flat_map(|p| &p.replies).collect();
    let attempted = replies.len() as u64;
    let failed = replies.iter().filter(|r| r.error.is_some()).count() as u64;
    errors.extend(replies.iter().filter_map(|r| r.error.clone()).take(5));

    // Every figure is the best pass's: on a shared VM, neighbours slow whole
    // passes, and interference only ever adds time (see `METRICS.md`).
    let mut p50s = Vec::new();
    let mut p99s = Vec::new();
    let mut rates = Vec::new();
    let mut miss_walls = Vec::new();
    for p in &passes {
        let lat: Vec<f64> = p.replies.iter().map(Reply::latency_ms).collect();
        p50s.push(percentile(&lat, 0.50).0);
        p99s.push(percentile(&lat, 0.99).0);
        rates.push(p.replies.iter().filter(|r| r.error.is_none()).count() as f64 / p.wall);
        miss_walls.push(
            p.replies
                .iter()
                .filter(|r| r.computed)
                .map(|r| r.latency_ms() / 1e3)
                .sum::<f64>(),
        );
    }
    clock.sample();
    let f = clock.factor();
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let beyond = percentile(
        &passes[0]
            .replies
            .iter()
            .map(Reply::latency_ms)
            .collect::<Vec<_>>(),
        0.99,
    )
    .1;

    let mut m = Metrics::default();
    m.set("setup_s", median(&setups) / f, "s");
    m.set("peak_rss_mb", peak_rss, "MB");
    m.set("sched_wall_s", min(&miss_walls) / f, "s");
    let ratios: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.ratios.iter().copied())
        .collect();
    m.set("makespan_ratio", geomean(&ratios), "ratio");
    m.set(
        "success_share",
        (attempted - failed) as f64 / attempted as f64,
        "ratio",
    );
    let best_rate = rates.iter().copied().fold(0.0, f64::max);
    m.set("latency_p50_ms", min(&p50s) / f, "ms");
    m.set("latency_p99_ms", min(&p99s) / f, "ms");
    m.set("jobs_per_s", best_rate * f, "1/s");
    let notes = vec![
        format!(
            "host_factor={f:.4} raw: setup_s={:.6} sched_wall_s={:.4} latency_p50_ms={:.4} \
             latency_p99_ms={:.3} jobs_per_s={best_rate:.3}",
            median(&setups),
            min(&miss_walls),
            min(&p50s),
            min(&p99s)
        ),
        format!(
            "passes={} requests/pass={} distinct={} repeat_share={:.4} setups={}",
            passes.len(),
            lists[0].requests.len(),
            lists[0].jobs.len(),
            lists[0].repeat_share(),
            setups.len()
        ),
        format!(
            "latency samples/pass={} beyond_p99={beyond} (per request, from send); pass p50s_ms={:?} p99s_ms={:?} rates={:?}",
            lists[0].requests.len(),
            p50s.iter().map(|x| (x * 1e3).round() / 1e3).collect::<Vec<_>>(),
            p99s.iter().map(|x| x.round()).collect::<Vec<_>>(),
            rates.iter().map(|x| x.round()).collect::<Vec<_>>(),
        ),
    ];
    Outcome {
        metrics: m,
        attempted,
        failed,
        errors,
        notes,
    }
}

/// The workload part of the traced run: draw 0 as two HTTP passes, one
/// untraced and one whose requests become spans, then the offline layers
/// over the distinct LoC-MPS jobs (scheduled in-process) and the registry
/// and runtime layers over the other jobs.
pub fn traced(seed: u64, work: &Path, tracer: &mut Tracer, out: &mut Outcome) -> Traced {
    let jobs = serve_job_list(seed, 0);
    let journal = work.join("serve.journal");
    let plain = pass(Daemon::start(&journal), &jobs, true);
    let traced = pass(Daemon::start(&journal), &jobs, false);
    for (i, r) in traced.replies.iter().enumerate() {
        tracer.record("serve.http.post_job", i as u64, r.sent, r.received);
    }
    for p in [&plain, &traced] {
        out.errors.extend(p.errors.iter().cloned());
        out.attempted += p.replies.len() as u64;
        out.failed += p.replies.iter().filter(|r| r.error.is_some()).count() as u64;
    }

    let cluster = Cluster::new(SERVE_PROCS, SERVE_BANDWIDTH);
    let cases = |keep: &dyn Fn(&ServeJob) -> bool| -> Vec<Case> {
        jobs.jobs
            .iter()
            .filter(|j| keep(j))
            .map(|j| Case {
                label: format!("{}/{:016x}", j.algo, j.fingerprint),
                graph: j.graph.clone(),
                cluster: cluster.clone(),
            })
            .collect()
    };
    let locmps = cases(&|j| j.algo == "locmps");
    let unit = run_unit(&LocMps::default(), &locmps, Some(tracer));
    // The in-process schedules must bit-match what the daemon served.
    let served = jobs
        .jobs
        .iter()
        .zip(&plain.makespans)
        .filter(|(j, _)| j.algo == "locmps");
    for ((case, o), (_, &m)) in locmps.iter().zip(&unit.outputs).zip(served) {
        if o.makespan().to_bits() != m {
            out.errors.push(format!(
                "{}: in-process makespan differs from served",
                case.label
            ));
        }
        out.errors.extend(schedule_errors(case, o));
    }
    out.metrics.extend(layers::offline_layers(
        tracer,
        &locmps,
        &unit.outputs,
        &unit.walls,
    ));
    let cheap = cases(&|j| j.algo != "locmps" && j.run_seed.is_none());
    let runs = cases(&|j| j.run_seed.is_some());
    out.metrics.extend(layers::registry_layers(
        tracer,
        &cheap.iter().collect::<Vec<_>>(),
        &runs.iter().collect::<Vec<_>>(),
        &unit.walls,
    ));
    Traced {
        http_ms: plain.replies.iter().map(Reply::latency_ms).collect(),
        jobs,
        untraced_s: plain.wall,
        traced_s: traced.wall,
    }
}

/// The in-process service layer: the same requests through
/// `Service::submit` + `wait` from [`CLIENTS`] closed-loop threads, with a
/// fresh journal and no HTTP. Returns the per-layer metrics; `http_ms`
/// are client latencies of an HTTP pass over the same list.
pub fn svc_layer(
    tracer: &mut Tracer,
    jobs: &JobList,
    http_ms: &[f64],
    work: &Path,
) -> (Metrics, Vec<String>) {
    let journal = work.join("svc.journal");
    let _ = std::fs::remove_file(&journal);
    let cfg = serve_config();
    let svc = Arc::new(Service::start_with_journal(cfg, &journal).expect("open svc journal"));
    let specs: Vec<JobSpec> = jobs
        .requests
        .iter()
        .map(|req| {
            let job = &jobs.jobs[req.job];
            JobSpec {
                tenant: format!("tenant-{}", req.tenant),
                graph: job.graph.clone(),
                procs: SERVE_PROCS,
                bandwidth: SERVE_BANDWIDTH,
                algo: job.algo.to_string(),
                mode: match job.run_seed {
                    None => Mode::Schedule,
                    Some(seed) => Mode::Run(RunParams {
                        seed,
                        policy: "online".into(),
                        ..RunParams::default()
                    }),
                },
                deadline_ms: None,
            }
        })
        .collect();
    let cursor = AtomicUsize::new(0);
    let mut timed: Vec<(usize, Instant, Instant, Option<String>)> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = specs.get(i) else { break };
                        let spec = spec.clone();
                        let t0 = Instant::now();
                        let status = svc
                            .submit(&cfg, spec)
                            .map_err(|e| e.to_string())
                            .and_then(|ack| svc.wait(ack.job_id).ok_or("job vanished".to_string()));
                        let t1 = Instant::now();
                        let err = match status {
                            Ok(s) if s.state == JobState::Done && !s.degraded => None,
                            Ok(s) => Some(format!("job {} ended {:?}", s.id, s.state)),
                            Err(e) => Some(e),
                        };
                        out.push((i, t0, t1, err));
                    }
                    out
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("svc client"))
            .collect()
    });
    timed.sort_by_key(|t| t.0);
    let mut errors = Vec::new();
    let mut latencies = Vec::with_capacity(timed.len());
    for (i, t0, t1, err) in timed {
        tracer.record("serve.svc.submit_wait", i as u64, t0, t1);
        latencies.push((t1 - t0).as_secs_f64() * 1e3);
        errors.extend(err);
    }
    let stats = svc.stats();
    if stats.schedules_computed != jobs.jobs.len() as u64 {
        errors.push(format!(
            "svc schedules_computed {} != distinct misses {}",
            stats.schedules_computed,
            jobs.jobs.len()
        ));
    }
    match Arc::try_unwrap(svc) {
        Ok(svc) => svc.shutdown(),
        Err(_) => unreachable!("client threads have ended"),
    }
    let _ = std::fs::remove_file(&journal);

    let mut m = Metrics::default();
    let p50 = percentile(&latencies, 0.50).0;
    m.set("svc.submit_wait_ms_p50", p50, "ms");
    m.set(
        "svc.submit_wait_ms_p99",
        percentile(&latencies, 0.99).0,
        "ms",
    );
    m.set("http.overhead_ms", median(http_ms) - p50, "ms");
    m.set(
        "svc.cache_hit_share",
        stats.cache_hits as f64 / stats.submitted as f64,
        "ratio",
    );
    m.set("svc.coalesced", stats.coalesced as f64, "count");
    m.set(
        "svc.schedules_computed",
        stats.schedules_computed as f64,
        "count",
    );
    m.set("svc.degraded_jobs", stats.degraded_jobs as f64, "count");
    m.set("svc.shed", stats.shed as f64, "count");
    (m, errors)
}
