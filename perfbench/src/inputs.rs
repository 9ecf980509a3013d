//! Seeded benchmark inputs.
//!
//! Every workload builds its inputs from `--seed` and a *draw* number
//! alone: a run takes one draw per unit of work (draw 0, 1, 2, …), so a
//! run averages over several inputs and the same seed always gives the
//! same sequence. The graphs are the paper's §IV instances and fixed
//! synthetic instances of the sizes the workloads need; each draw
//! *relabels* them with random topological orders. A relabelled graph is
//! isomorphic to its base, so the search's pass count rarely moves, yet
//! its fingerprint, its task ids, every tie broken by task id and the
//! memory order of its adjacency lists are new. The serve job list's
//! order, tenants and hot set come from the seed and draw as well.

use locmps_platform::Cluster;
use locmps_taskgraph::{TaskGraph, TaskId};
use locmps_workloads::strassen::{strassen_graph, StrassenConfig};
use locmps_workloads::synthetic::{synthetic_graph, synthetic_suite, SyntheticConfig};
use locmps_workloads::tce::{ccsd_t1_graph, TceConfig};

/// The seed used when none is given.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for checking a claimed gain on fresh inputs.
pub const HELD_OUT_SEED: u64 = 9001;

/// SplitMix64: a small, well-mixed deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) and draw under one seed.
    pub fn new(seed: u64, stream: u64, draw: u64) -> Self {
        let mut r = Rng(seed);
        let mixed = r.next_u64() ^ (stream << 32 | draw).wrapping_mul(0xA076_1D64_78BD_642F);
        let mut r = Rng(mixed);
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `g` with its tasks renumbered in a random topological order and its
/// edges re-inserted in a random order. Profiles, volumes and the edge
/// set are unchanged, so the result is isomorphic to `g`.
pub fn relabel(g: &TaskGraph, rng: &mut Rng) -> TaskGraph {
    let n = g.n_tasks();
    let mut indeg: Vec<usize> = g.task_ids().map(|t| g.in_degree(t)).collect();
    let mut ready: Vec<TaskId> = g.task_ids().filter(|t| indeg[t.index()] == 0).collect();
    let mut new_id = vec![0u32; n];
    let mut order = Vec::with_capacity(n);
    while !ready.is_empty() {
        let t = ready.swap_remove(rng.below(ready.len()));
        new_id[t.index()] = order.len() as u32;
        order.push(t);
        for s in g.successors(t) {
            indeg[s.index()] -= 1;
            if indeg[s.index()] == 0 {
                ready.push(s);
            }
        }
    }
    assert_eq!(order.len(), n, "benchmark graphs are acyclic");
    let mut out = TaskGraph::with_capacity(n);
    for &t in &order {
        let task = g.task(t);
        out.add_task(task.name.clone(), task.profile.clone());
    }
    let mut edges: Vec<(u32, u32, f64)> = g
        .edges()
        .map(|(_, e)| (new_id[e.src.index()], new_id[e.dst.index()], e.volume))
        .collect();
    rng.shuffle(&mut edges);
    for (src, dst, volume) in edges {
        out.add_edge(TaskId(src), TaskId(dst), volume)
            .expect("relabelling keeps edges unique and forward");
    }
    out
}

/// One offline scheduling case: a graph on a cluster.
#[derive(Debug, Clone)]
pub struct Case {
    /// Where the graph comes from, e.g. `ccr1.0/m12/P32`.
    pub label: String,
    /// The (relabelled) task graph.
    pub graph: TaskGraph,
    /// The target cluster.
    pub cluster: Cluster,
}

/// Processor counts of the paper slice: one small and one large point of
/// the paper's sweep (4–128).
pub const PAPER_PROCS: [usize; 2] = [8, 32];

/// The synthetic suites of the paper slice: CCR, the suite's base seed as
/// the paper figures generate it (Figs. 4a and 5), and the members taken
/// (indices into `synthetic_suite`: 16, ~25 and 33 tasks). Member 11 of
/// the CCR-1 suite is replaced by member 13: at P = 32 its pass count
/// depends on the labelling (3455 or 5591 passes), which would make the
/// run time of a draw bimodal. Every member here keeps its pass count
/// under relabelling at both processor counts.
pub const PAPER_SUITES: [(f64, u64, [usize; 3]); 3] = [
    (0.0, 1000, [5, 11, 17]),
    (0.1, 2000, [5, 11, 17]),
    (1.0, 2000, [5, 13, 17]),
];

/// The `paper-suite` workload: the synthetic suites of Figs. 4a and 5 at
/// CCR 0, 0.1 and 1, plus CCSD-T1 (Fig. 8a) and Strassen 4096² (Fig. 9b),
/// each at both [`PAPER_PROCS`], relabelled by `seed` and `draw`.
pub fn paper_slice(seed: u64, draw: u64) -> Vec<Case> {
    let mut rng = Rng::new(seed, 1, draw);
    let mut cases = Vec::new();
    for (ccr, base, members) in PAPER_SUITES {
        let suite = synthetic_suite(ccr, 64.0, 1.0, base);
        for m in members {
            for &p in &PAPER_PROCS {
                cases.push(Case {
                    label: format!("ccr{ccr:.1}/m{m}/P{p}"),
                    graph: relabel(&suite[m], &mut rng),
                    cluster: Cluster::fast_ethernet(p),
                });
            }
        }
    }
    let ccsd = ccsd_t1_graph(&TceConfig::default());
    let strassen = strassen_graph(&StrassenConfig {
        n: 4096,
        ..StrassenConfig::default()
    });
    for (name, g) in [("ccsd-t1", &ccsd), ("strassen4096", &strassen)] {
        for &p in &PAPER_PROCS {
            cases.push(Case {
                label: format!("{name}/P{p}"),
                graph: relabel(g, &mut rng),
                cluster: Cluster::myrinet(p),
            });
        }
    }
    cases
}

/// Tasks and processors of the `search-scale` graph.
pub const SEARCH_SHAPE: (usize, usize) = (500, 64);
/// Base seed of the `search-scale` graph before relabelling.
pub const SEARCH_BASE_SEED: u64 = 42;

/// The `search-scale` workload: one synthetic (500, 64) CCR-0.5 graph.
pub fn search_case(seed: u64, draw: u64) -> Case {
    let (n_tasks, p) = SEARCH_SHAPE;
    let base = synthetic_graph(&SyntheticConfig {
        n_tasks,
        ccr: 0.5,
        seed: SEARCH_BASE_SEED,
        ..SyntheticConfig::default()
    });
    Case {
        label: format!("synthetic{n_tasks}/P{p}"),
        graph: relabel(&base, &mut Rng::new(seed, 2, draw)),
        cluster: Cluster::fast_ethernet(p),
    }
}

/// Cluster size of every `serve-mixed` job.
pub const SERVE_PROCS: usize = 16;
/// Link bandwidth (MB/s) of every `serve-mixed` job.
pub const SERVE_BANDWIDTH: f64 = 125.0;
/// Tenants the job list is spread over.
pub const SERVE_TENANTS: usize = 4;
/// Requests in one pass over the job list.
pub const SERVE_REQUESTS: usize = 1200;
/// Distinct hot fingerprints that most requests repeat, per algorithm.
pub const SERVE_HOT: [(&str, usize); 3] = [("locmps", 4), ("cpa", 4), ("psonline", 4)];
/// Fresh (seen once) schedule jobs, per algorithm.
pub const SERVE_FRESH: [(&str, usize); 3] = [("locmps", 24), ("cpa", 16), ("psonline", 16)];
/// Fresh `mode: "run"` jobs (scheduled with `cpa`, executed online).
pub const SERVE_FRESH_RUNS: usize = 8;
/// Base graphs the serve jobs relabel: (tasks, generator seed), CCR 1.
/// Picked from generator seeds 500–531 so that every base keeps its
/// LoC-MPS pass count under relabelling and LoC-MPS needs a similar time
/// on each (130–200 ms on a 2-vCPU 2.1 GHz VM): the LoC-MPS misses form one dense
/// cluster of latencies, and p99 does not straddle a gap between them.
pub const SERVE_BASE_GRAPHS: [(usize, u64); 8] = [
    (16, 516),
    (17, 509),
    (18, 518),
    (19, 527),
    (20, 520),
    (21, 513),
    (22, 514),
    (23, 531),
];

/// One distinct job of the serve job list.
#[derive(Debug, Clone)]
pub struct ServeJob {
    /// The task graph.
    pub graph: TaskGraph,
    /// The graph in the wire format (`TaskGraphSpec` JSON).
    pub graph_json: String,
    /// Scheduler name.
    pub algo: &'static str,
    /// Engine seed of a `mode: "run"` job (executed with the `online`
    /// policy); `None` for a schedule-only job.
    pub run_seed: Option<u64>,
    /// The daemon's cache key for this job.
    pub fingerprint: u64,
}

impl ServeJob {
    fn new(graph: TaskGraph, algo: &'static str, run_seed: Option<u64>) -> Self {
        let graph_json = serde_json::to_string(&locmps_taskgraph::TaskGraphSpec::from(&graph))
            .expect("graph specs serialize");
        let fingerprint = job_fingerprint(&graph, algo, run_seed);
        Self {
            graph,
            graph_json,
            algo,
            run_seed,
            fingerprint,
        }
    }

    /// The `POST /v1/jobs` body for this job on behalf of `tenant`.
    pub fn body(&self, tenant: usize) -> String {
        let run = self.run_seed.map_or(String::new(), |seed| {
            format!(",\"run\":{{\"seed\":{seed},\"policy\":\"online\"}}")
        });
        format!(
            "{{\"tenant\":\"tenant-{tenant}\",\"procs\":{SERVE_PROCS},\"bandwidth\":{SERVE_BANDWIDTH:?},\
             \"algo\":\"{}\",\"wait\":true{run},\"graph\":{}}}",
            self.algo, self.graph_json
        )
    }
}

/// The daemon's cache key of a serve job, as `Service::submit` computes it.
pub fn job_fingerprint(g: &TaskGraph, algo: &str, run_seed: Option<u64>) -> u64 {
    let run = run_seed.map(|seed| (seed, 0.0, "online", "failstop", ""));
    locmps_serve::job_fingerprint(
        locmps_serve::graph_fingerprint(g),
        SERVE_PROCS,
        SERVE_BANDWIDTH,
        algo,
        run,
    )
}

/// One request of the job list.
#[derive(Debug, Clone)]
pub struct Request {
    /// Index into [`JobList::jobs`].
    pub job: usize,
    /// Submitting tenant.
    pub tenant: usize,
    /// The request body.
    pub body: String,
}

/// The `serve-mixed` job list: distinct jobs and the request sequence.
#[derive(Debug, Clone)]
pub struct JobList {
    /// Distinct jobs; every one is a cache miss on its first request.
    pub jobs: Vec<ServeJob>,
    /// Requests in send order.
    pub requests: Vec<Request>,
}

impl JobList {
    /// Share of requests whose fingerprint an earlier request already had.
    pub fn repeat_share(&self) -> f64 {
        1.0 - self.jobs.len() as f64 / self.requests.len() as f64
    }

    /// A job list over `graphs`: each distinct graph once as an `algo`
    /// job, then each again (a cache hit), tenants round-robin.
    pub fn from_graphs<'a>(
        graphs: impl IntoIterator<Item = &'a TaskGraph>,
        algo: &'static str,
    ) -> Self {
        let mut jobs: Vec<ServeJob> = Vec::new();
        for g in graphs {
            let job = ServeJob::new(g.clone(), algo, None);
            if jobs.iter().all(|j| j.fingerprint != job.fingerprint) {
                jobs.push(job);
            }
        }
        let requests = (0..2 * jobs.len())
            .map(|i| {
                let job = i % jobs.len();
                let tenant = i % SERVE_TENANTS;
                Request {
                    job,
                    tenant,
                    body: jobs[job].body(tenant),
                }
            })
            .collect();
        JobList { jobs, requests }
    }
}

/// The base graphs serve jobs relabel.
pub fn serve_base_graphs() -> Vec<TaskGraph> {
    SERVE_BASE_GRAPHS
        .iter()
        .map(|&(n_tasks, seed)| {
            synthetic_graph(&SyntheticConfig {
                n_tasks,
                ccr: 1.0,
                seed,
                ..SyntheticConfig::default()
            })
        })
        .collect()
}

/// The `serve-mixed` workload's job list for `seed` and `draw`.
pub fn serve_job_list(seed: u64, draw: u64) -> JobList {
    let base = serve_base_graphs();
    let mut rng = Rng::new(seed, 3, draw);
    let mut jobs: Vec<ServeJob> = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    let mut next_base = 0usize;
    let mut add = |rng: &mut Rng, algo: &'static str, run: bool, jobs: &mut Vec<ServeJob>| {
        // Base graphs are used round-robin so every seed draws the same
        // mix of sizes; a relabelling that repeats an earlier fingerprint
        // is redrawn, so every job is a distinct cache key.
        let g = &base[next_base % base.len()];
        next_base += 1;
        loop {
            let run_seed = run.then(|| rng.next_u64() % 1000);
            let job = ServeJob::new(relabel(g, rng), algo, run_seed);
            if seen.insert(job.fingerprint) {
                jobs.push(job);
                return;
            }
        }
    };
    for (algo, n) in SERVE_HOT {
        for _ in 0..n {
            add(&mut rng, algo, false, &mut jobs);
        }
    }
    let n_hot = jobs.len();
    for (algo, n) in SERVE_FRESH {
        for _ in 0..n {
            add(&mut rng, algo, false, &mut jobs);
        }
    }
    for _ in 0..SERVE_FRESH_RUNS {
        add(&mut rng, "cpa", true, &mut jobs);
    }
    // Every distinct job once, then hot repeats up to the request count.
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.extend((0..SERVE_REQUESTS - jobs.len()).map(|i| i % n_hot));
    rng.shuffle(&mut order);
    let requests = order
        .into_iter()
        .map(|job| {
            let tenant = rng.below(SERVE_TENANTS);
            Request {
                job,
                tenant,
                body: jobs[job].body(tenant),
            }
        })
        .collect();
    JobList { jobs, requests }
}
