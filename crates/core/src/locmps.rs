//! **LoC-MPS** — the iterative allocation-and-scheduling loop (Algorithm 1).
//!
//! Starting from the pure task-parallel allocation, each iteration:
//!
//! 1. computes the critical path of the *schedule-DAG* `G'` (the graph plus
//!    pseudo-edges from the last LoCBS run) under the current allocation;
//! 2. if computation dominates the CP, widens the **best candidate task**:
//!    among the CP tasks still widenable (`np < min(P, Pbest)`), rank by
//!    execution-time gain `et(np) − et(np+1)`, inspect the top fraction,
//!    and take the one with the lowest *concurrency ratio* (§III.C);
//! 3. otherwise widens the narrower endpoint of the **heaviest CP edge**
//!    (both endpoints when tied), raising its aggregate transfer bandwidth
//!    (§III.D);
//! 4. re-schedules with LoCBS and tracks the best makespan seen.
//!
//! A **bounded look-ahead** (default depth 20, §III.E) lets the search walk
//! through temporarily worse schedules; if a look-ahead fails to improve,
//! its entry point is **marked** and skipped by future searches; a success
//! commits the allocation and unmarks everything.
//!
//! At scale the dominant cost is the LoCBS passes run inside look-ahead
//! branches. Three *provably lossless* accelerations cut that work while
//! keeping every schedule bit-identical ([`LocMpsConfig::prune`] and
//! [`LocMpsConfig::bounded_probes`], both on by default):
//!
//! * look-ahead branches whose widening-cone lower bound
//!   ([`crate::bounds::WideningBounds`]) already reaches the incumbent
//!   makespan are skipped — valid because refinement moves only ever
//!   *widen* allocations, so every state a branch can visit lies in the
//!   cone the bound covers;
//! * a branch walk stops early once the cone bound of its current
//!   allocation reaches the branch's own best makespan;
//! * corner-restart probes are bound-checked and then run under a bounded
//!   horizon ([`Locbs::run_into_bounded`]): placements are final, so the
//!   first one past the incumbent aborts the pass.
//!
//! Deterministic [`SearchCounters`] in the output report the work done and
//! the work skipped; they are pure functions of the input, never of thread
//! timing, so CI pins their exact values.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use locmps_platform::Cluster;
use locmps_taskgraph::{ConcurrencyInfo, CriticalPath, EdgeId, EdgeKind, TaskGraph, TaskId};

use crate::allocation::Allocation;
use crate::bounds::{allocation_lower_bound, WideningBounds};
use crate::commcost::CommModel;
use crate::locbs::{Locbs, LocbsOptions, LocbsResult, LocbsScratch};
use crate::schedule::time_eps;
use crate::scheduler::{SchedError, Scheduler, SchedulerOutput, SearchCounters};

/// Tunables of Algorithm 1. [`Default`] reproduces the paper's settings.
#[derive(Debug, Clone, Copy)]
pub struct LocMpsConfig {
    /// Look-ahead bound (paper: "a bound of 20 iterations was found to
    /// yield good results").
    pub lookahead_depth: usize,
    /// Fraction of top-gain CP tasks inspected for the concurrency-ratio
    /// tie-break (paper: 10 %).
    pub top_fraction: f64,
    /// Lower bound on how many top-gain tasks are inspected (default 1 —
    /// the paper's literal `⌈10 %⌉` rule, which on the short critical
    /// paths of 10–50-task graphs inspects a single task, i.e. pure
    /// max-gain almost everywhere). Raising it widens the
    /// concurrency-ratio tie-break's influence (the Figure 2 rationale);
    /// ablations show values > 1 hurt on random DAGs because `cr` is a
    /// static, structure-only metric.
    pub inspect_at_least: usize,
    /// Schedule with full backfilling (`true`, the paper's default) or the
    /// cheaper last-free-time variant (Figure 6's ablation).
    pub backfill: bool,
    /// `false` turns off the communication model entirely — that is the
    /// **iCASLB** baseline [4], which this paper extends.
    pub comm_aware: bool,
    /// Hard cap on outer commit/mark rounds (safety net; the algorithm
    /// terminates on its own, this guards against pathological inputs).
    pub max_rounds: usize,
    /// Probe the uniform "data-parallel corner" allocations (`np = P, P/2,
    /// P/4`, clamped per task by `Pbest`) and re-run the search from any
    /// that beats the committed solution. An extension of the paper's
    /// Figure 3 argument: the bounded look-ahead is meant to reach the
    /// data-parallel optimum, but on larger graphs at high CCR the valley
    /// can exceed any fixed depth.
    pub corner_starts: bool,
    /// Number of look-ahead entry points explored concurrently per round
    /// (default 1 = the paper's sequential Algorithm 1). Values > 1
    /// implement the paper's future-work item §VI(1), "developing
    /// strategies to parallelize the scheduling algorithm": the top-ranked
    /// candidates each get their own look-ahead on a rayon worker, the
    /// best outcome is committed, and a fruitless round marks every tried
    /// entry at once.
    pub parallel_entries: usize,
    /// Skip search work an admissible lower bound proves fruitless: entry
    /// branches whose widening-cone bound cannot beat the incumbent,
    /// branch walks whose cone bound reaches the branch's own best, corner
    /// probes bounded below the incumbent, and whole searches whose
    /// incumbent already sits on its cone bound. Lossless — the schedule,
    /// allocation and schedule-DAG are bit-identical either way — so this
    /// defaults to on; `false` exists as the reference for the equivalence
    /// property tests and for measuring the pruning win itself.
    pub prune: bool,
    /// Run corner-restart probes under a bounded horizon
    /// ([`Locbs::run_into_bounded`]) so they abort at the first placement
    /// past the incumbent instead of finishing a schedule that already
    /// lost. Equally lossless; `false` is the measurement reference.
    pub bounded_probes: bool,
}

impl Default for LocMpsConfig {
    fn default() -> Self {
        Self {
            lookahead_depth: 20,
            top_fraction: 0.10,
            inspect_at_least: 1,
            backfill: true,
            comm_aware: true,
            max_rounds: 10_000,
            corner_starts: true,
            parallel_entries: 1,
            prune: true,
            bounded_probes: true,
        }
    }
}

impl LocMpsConfig {
    /// The iCASLB baseline configuration: LoC-MPS with the communication
    /// model disabled.
    pub fn icaslb() -> Self {
        Self {
            comm_aware: false,
            ..Self::default()
        }
    }

    /// Greedy configuration (no look-ahead, no corner restarts): only
    /// strictly improving moves are kept — used to demonstrate the
    /// Figure 3 local-minimum trap.
    pub fn greedy() -> Self {
        Self {
            lookahead_depth: 1,
            corner_starts: false,
            ..Self::default()
        }
    }

    /// No-backfill ablation (Figure 6).
    pub fn no_backfill() -> Self {
        Self {
            backfill: false,
            ..Self::default()
        }
    }

    /// The exhaustive reference: no bound-driven pruning, no bounded
    /// probes. Produces bit-identical schedules to [`Default`] while doing
    /// every LoCBS pass in full — the baseline the equivalence property
    /// tests and the `BENCH_locmps` report compare against.
    pub fn exhaustive() -> Self {
        Self {
            prune: false,
            bounded_probes: false,
            ..Self::default()
        }
    }
}

/// What a look-ahead search started from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Entry {
    Task(TaskId),
    Edge(EdgeId),
}

/// Shared tally behind the [`SearchCounters`] snapshot. Branches running on
/// pool workers bump these concurrently; every increment is a deterministic
/// function of the scheduling input (never of thread timing), so relaxed
/// ordering cannot perturb the totals.
#[derive(Debug, Default)]
struct AtomicCounters {
    locbs_passes: AtomicU64,
    probes_aborted: AtomicU64,
    branches_pruned: AtomicU64,
    lookahead_cutoffs: AtomicU64,
    pass_memo_hits: AtomicU64,
    pool_tasks: AtomicU64,
    commits: AtomicU64,
}

impl AtomicCounters {
    fn bump(field: &AtomicU64, n: u64) {
        field.fetch_add(n, Ordering::Relaxed);
    }

    fn snapshot(&self) -> SearchCounters {
        SearchCounters {
            locbs_passes: self.locbs_passes.load(Ordering::Relaxed),
            probes_aborted: self.probes_aborted.load(Ordering::Relaxed),
            branches_pruned: self.branches_pruned.load(Ordering::Relaxed),
            lookahead_cutoffs: self.lookahead_cutoffs.load(Ordering::Relaxed),
            pass_memo_hits: self.pass_memo_hits.load(Ordering::Relaxed),
            pool_tasks: self.pool_tasks.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
        }
    }
}

/// One memoized LoCBS pass: everything a look-ahead step consumes.
struct MemoEntry {
    schedule: crate::schedule::Schedule,
    /// The pseudo-edges the pass added, in insertion order, so a hit can
    /// replay the exact schedule-DAG the pass would have left behind.
    pseudo: Vec<(TaskId, TaskId)>,
    makespan: f64,
}

/// Allocation-keyed memo of completed look-ahead passes.
///
/// [`Locbs::run_into`] strips all pseudo-edges on entry, so a pass is a
/// pure function of the data graph and the allocation — two branches that
/// reach the same allocation get the same schedule, the same makespan and
/// the same pseudo-edges. Failed look-ahead rounds re-walk the search
/// space from one incumbent with different entry points, and those walks
/// merge onto shared allocation trajectories after a step or two, so most
/// of their passes are replays.
///
/// Because hits are exact, entries never expire: commits move the
/// incumbent but the winning branch's tail states — and the restarts from
/// other corners — revisit earlier allocations constantly, so the memo is
/// kept for the whole search. Its footprint is bounded by the number of
/// distinct allocations placed, i.e. by the executed-pass counter the memo
/// itself keeps small. It is only consulted in sequential searches
/// (`parallel_entries == 1`, the default): under a shared memo, *which*
/// thread computes and which one hits would depend on scheduling, and the
/// [`SearchCounters`] promise — pure functions of the input — would break.
#[derive(Default)]
struct PassMemo {
    map: HashMap<Vec<usize>, MemoEntry>,
}

/// The immutable per-run context threaded through the search: the problem,
/// the placer, the precomputed metadata, the optional pruning bounds and
/// the work tally.
struct SearchCtx<'a> {
    g: &'a TaskGraph,
    locbs: &'a Locbs<'a>,
    conc: &'a ConcurrencyInfo,
    pbest: &'a [usize],
    model: &'a CommModel<'a>,
    p_total: usize,
    /// `Some` exactly when [`LocMpsConfig::prune`] is on.
    wb: Option<&'a WideningBounds>,
    /// `Some` exactly when the pass memo applies (pruning on and the
    /// search sequential); the mutex is uncontended in that case.
    memo: Option<&'a Mutex<PassMemo>>,
    counters: &'a AtomicCounters,
}

/// A refinement step's critical path: see [`LocMps::step_critical_path`].
struct StepCp {
    cp: CriticalPath,
    /// Sum of node weights along the path (`Tcomp`).
    tcomp: f64,
    /// Sum of edge weights along the path (`Tcomm`).
    tcomm: f64,
    /// Every schedule-DAG edge's weight, indexed by `EdgeId::index`.
    edge_w: Vec<f64>,
}

thread_local! {
    /// Per-worker look-ahead working set: one schedule-DAG buffer and one
    /// LoCBS scratch, reused by every branch a pool worker (or the caller
    /// thread) runs instead of allocating a fresh graph clone and scratch
    /// per branch. `clone_from` / `reset_for` re-arm them for the branch's
    /// graph, so buffers carried across graphs — or across schedulers on
    /// the same thread — are safe.
    static BRANCH_BUFFERS: RefCell<(TaskGraph, LocbsScratch)> =
        RefCell::new((TaskGraph::new(), LocbsScratch::new()));
}

/// The LoC-MPS scheduler.
#[derive(Debug, Clone, Default)]
pub struct LocMps {
    config: LocMpsConfig,
}

impl LocMps {
    /// Creates the scheduler with the given configuration.
    pub fn new(config: LocMpsConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &LocMpsConfig {
        &self.config
    }

    fn node_weight(g: &TaskGraph, alloc: &Allocation, t: TaskId) -> f64 {
        g.task(t).profile.time(alloc.np(t))
    }

    /// Best candidate task on the critical path (§III.C): filter widenable,
    /// rank by gain, inspect the top fraction, pick minimum concurrency
    /// ratio.
    #[allow(clippy::too_many_arguments)]
    fn best_candidate_task(
        &self,
        g: &TaskGraph,
        cp: &CriticalPath,
        alloc: &Allocation,
        conc: &ConcurrencyInfo,
        pbest: &[usize],
        p_total: usize,
        marked: Option<&HashSet<Entry>>,
    ) -> Option<TaskId> {
        let mut cands: Vec<(TaskId, f64)> = cp
            .tasks
            .iter()
            .copied()
            .filter(|&t| alloc.np(t) < p_total.min(pbest[t.index()]))
            .filter(|&t| marked.is_none_or(|m| !m.contains(&Entry::Task(t))))
            .map(|t| (t, g.task(t).profile.gain(alloc.np(t))))
            .collect();
        if cands.is_empty() {
            return None;
        }
        cands.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let k = ((self.config.top_fraction * cands.len() as f64).ceil() as usize)
            .max(self.config.inspect_at_least.max(1).min(cands.len()))
            .min(cands.len());
        cands[..k]
            .iter()
            .copied()
            .min_by(|a, b| {
                conc.ratio(a.0)
                    .total_cmp(&conc.ratio(b.0))
                    .then(b.1.total_cmp(&a.1))
                    .then(a.0.cmp(&b.0))
            })
            .map(|(t, _)| t)
    }

    /// Heaviest widenable data edge on the critical path (§III.D), weighed
    /// by `edge_w` (indexed by `EdgeId::index`).
    fn best_candidate_edge(
        &self,
        dag: &TaskGraph,
        cp: &CriticalPath,
        alloc: &Allocation,
        edge_w: &[f64],
        p_total: usize,
        marked: Option<&HashSet<Entry>>,
    ) -> Option<EdgeId> {
        cp.edges
            .iter()
            .copied()
            .filter(|&e| {
                let edge = dag.edge(e);
                edge.kind == EdgeKind::Data
                    && edge.volume > 0.0
                    && (alloc.np(edge.src) < p_total || alloc.np(edge.dst) < p_total)
            })
            .filter(|&e| marked.is_none_or(|m| !m.contains(&Entry::Edge(e))))
            .max_by(|&a, &b| {
                edge_w[a.index()]
                    .total_cmp(&edge_w[b.index()])
                    .then(b.cmp(&a)) // lower id wins ties
            })
    }

    /// Widens the endpoints of edge `e` per Algorithm 1 steps 21–27: the
    /// narrower endpoint grows; both grow when tied.
    fn widen_edge(dag: &TaskGraph, alloc: &mut Allocation, e: EdgeId, p_total: usize) {
        let edge = dag.edge(e);
        use std::cmp::Ordering;
        match alloc.np(edge.src).cmp(&alloc.np(edge.dst)) {
            Ordering::Greater => alloc.widen(edge.dst, p_total),
            Ordering::Less => alloc.widen(edge.src, p_total),
            Ordering::Equal => {
                alloc.widen(edge.dst, p_total);
                alloc.widen(edge.src, p_total);
            }
        }
    }

    /// The critical path of the schedule-DAG `dag` for one refinement
    /// step, with its `Tcomp`/`Tcomm` split and the edge weights it was
    /// found under.
    ///
    /// Node weights are `et(t, np(t))`. Edge weights are "the
    /// communication cost to redistribute data between the processor
    /// groups associated with each task/endpoint" (§III.B): the previous
    /// LoCBS pass decided those groups, so the cost is the exact
    /// single-port block-cyclic transfer time between them — an edge whose
    /// endpoints share a layout weighs nothing, exactly as it executes.
    /// (The paper's `d/(min(np)·bw)` closed form is the group-agnostic
    /// stand-in; it remains the planning estimate inside LoCBS's
    /// priorities where groups are not yet placed.)
    ///
    /// Both weightings are computed once, into dense vectors that the CP
    /// walk, the cost sums and the candidate-edge ranking all read.
    fn step_critical_path(
        ctx: &SearchCtx<'_>,
        dag: &TaskGraph,
        schedule: &crate::schedule::Schedule,
        alloc: &Allocation,
    ) -> StepCp {
        let model = ctx.model;
        let node_w: Vec<f64> = ctx
            .g
            .task_ids()
            .map(|t| Self::node_weight(ctx.g, alloc, t))
            .collect();
        let edge_w: Vec<f64> = dag
            .edge_ids()
            .map(|e| {
                let edge = dag.edge(e);
                match (schedule.get(edge.src), schedule.get(edge.dst)) {
                    (Some(s), Some(d)) => model.transfer_time(&s.procs, &d.procs, edge.volume),
                    _ => model.edge_estimate(dag, alloc, e),
                }
            })
            .collect();
        let cp = dag.critical_path(|t| node_w[t.index()], |e| edge_w[e.index()]);
        StepCp {
            tcomp: cp.computation_cost(|t| node_w[t.index()]),
            tcomm: cp.communication_cost(|e| edge_w[e.index()]),
            cp,
            edge_w,
        }
    }

    /// One refinement step on `alloc` guided by the CP of `dag` (see
    /// [`LocMps::step_critical_path`] for the weights). Returns the entry
    /// describing what was widened, or `None` when nothing on the critical
    /// path can be refined.
    fn refine(
        &self,
        ctx: &SearchCtx<'_>,
        dag: &TaskGraph,
        schedule: &crate::schedule::Schedule,
        alloc: &mut Allocation,
        marked: Option<&HashSet<Entry>>,
    ) -> Option<Entry> {
        let (g, conc, pbest, p_total) = (ctx.g, ctx.conc, ctx.pbest, ctx.p_total);
        let StepCp {
            cp,
            tcomp,
            tcomm,
            edge_w,
        } = Self::step_critical_path(ctx, dag, schedule, alloc);

        if tcomp > tcomm {
            if let Some(t) = self.best_candidate_task(g, &cp, alloc, conc, pbest, p_total, marked) {
                alloc.widen(t, p_total);
                return Some(Entry::Task(t));
            }
        }
        if let Some(e) = self.best_candidate_edge(dag, &cp, alloc, &edge_w, p_total, marked) {
            Self::widen_edge(dag, alloc, e, p_total);
            return Some(Entry::Edge(e));
        }
        // Communication dominated but no widenable edge: fall back to a
        // task candidate so compute-bound refinement can still proceed.
        if tcomp <= tcomm {
            if let Some(t) = self.best_candidate_task(g, &cp, alloc, conc, pbest, p_total, marked) {
                alloc.widen(t, p_total);
                return Some(Entry::Task(t));
            }
        }
        None
    }
}

impl Scheduler for LocMps {
    fn name(&self) -> &'static str {
        match (self.config.comm_aware, self.config.backfill) {
            (true, true) => "LoC-MPS",
            (true, false) => "LoC-MPS/no-backfill",
            (false, _) => "iCASLB",
        }
    }

    fn schedule(&self, g: &TaskGraph, cluster: &Cluster) -> Result<SchedulerOutput, SchedError> {
        self.schedule_with_scratch(g, cluster, &mut TaskGraph::new(), &mut LocbsScratch::new())
    }
}

impl LocMps {
    /// Runs a top-level LoCBS probe into caller-owned buffers.
    fn probe(
        ctx: &SearchCtx<'_>,
        alloc: &Allocation,
        dag_buf: &mut TaskGraph,
        scratch: &mut LocbsScratch,
    ) -> Result<LocbsResult, SchedError> {
        dag_buf.clone_from(ctx.g);
        let (schedule, makespan) = ctx.locbs.run_into(dag_buf, alloc, scratch)?;
        AtomicCounters::bump(&ctx.counters.locbs_passes, 1);
        Ok(LocbsResult {
            schedule,
            schedule_dag: dag_buf.clone(),
            makespan,
        })
    }

    /// [`Scheduler::schedule`] with caller-owned working memory.
    ///
    /// `dag_buf` and `scratch` are scratch space for the top-level LoCBS
    /// probes; holding them across calls lets a long-lived caller (the
    /// runtime's replanning recovery policy) schedule a *sequence* of
    /// graphs — shrinking residual DAGs over shrinking clusters — without
    /// re-allocating the LoCBS working set each time. The scratch is
    /// re-armed for `g` on entry, so any previous contents are safe to
    /// carry over. Results are identical to [`Scheduler::schedule`].
    ///
    /// # Errors
    /// Exactly those of [`Scheduler::schedule`].
    pub fn schedule_with_scratch(
        &self,
        g: &TaskGraph,
        cluster: &Cluster,
        dag_buf: &mut TaskGraph,
        scratch: &mut LocbsScratch,
    ) -> Result<SchedulerOutput, SchedError> {
        g.validate().map_err(SchedError::Graph)?;
        scratch.reset_for(g);
        let p_total = cluster.n_procs;
        let model = if self.config.comm_aware {
            CommModel::new(cluster)
        } else {
            CommModel::blind(cluster)
        };
        let locbs = Locbs::new(
            model,
            LocbsOptions {
                backfill: self.config.backfill,
            },
        );
        let conc = ConcurrencyInfo::compute(g);
        let pbest: Vec<usize> = g
            .task_ids()
            .map(|t| g.task(t).profile.pbest(p_total))
            .collect();
        let wb = self.config.prune.then(|| WideningBounds::new(g, p_total));
        let memo = (self.config.prune && self.config.parallel_entries.max(1) == 1)
            .then(Mutex::<PassMemo>::default);
        let counters = AtomicCounters::default();
        let ctx = SearchCtx {
            g,
            locbs: &locbs,
            conc: &conc,
            pbest: &pbest,
            model: &model,
            p_total,
            wb: wb.as_ref(),
            memo: memo.as_ref(),
            counters: &counters,
        };

        // Steps 1–4: pure task-parallel start.
        let mut best_alloc = Allocation::ones(g.n_tasks());
        let mut best: LocbsResult = Self::probe(&ctx, &best_alloc, dag_buf, scratch)?;
        self.search(&ctx, &mut best_alloc, &mut best)?;

        // Wide-corner restarts (extension, see `LocMpsConfig::corner_starts`):
        // Figure 3 shows the data-parallel corner can be the optimum and the
        // bounded look-ahead exists to reach it; on larger graphs at high
        // CCR the valley between the committed solution and that corner can
        // exceed the look-ahead depth, so the uniform allocations are probed
        // directly and the search re-run from any that wins.
        if self.config.corner_starts {
            for denom in [1usize, 2, 4] {
                let width = (p_total / denom).max(1);
                // Two flavours per width: the plain uniform allocation
                // (identical group layouts ⇒ zero redistribution, the DATA
                // corner proper) and the Pbest-clamped one (never give a
                // task more processors than help it, at the cost of some
                // layout misalignment).
                let plain = Allocation::uniform(g.n_tasks(), width);
                let mut clamped = plain.clone();
                for t in g.task_ids() {
                    clamped.set(t, width.min(pbest[t.index()]));
                }
                for alloc in [plain, clamped] {
                    // A corner only matters if its probe beats the incumbent
                    // by more than the commit epsilon. The allocation-level
                    // bound settles many corners without placing a single
                    // task; the rest run under a bounded horizon so the
                    // first placement past the incumbent aborts the pass.
                    // Both tests leave an epsilon of slack, so floating-
                    // point noise in the bound cannot veto a real winner.
                    if self.config.prune
                        && allocation_lower_bound(g, &alloc, p_total) >= best.makespan
                    {
                        AtomicCounters::bump(&counters.branches_pruned, 1);
                        continue;
                    }
                    let res = if self.config.bounded_probes {
                        let horizon = best.makespan - time_eps(best.makespan);
                        dag_buf.clone_from(g);
                        match locbs.run_into_bounded(dag_buf, &alloc, scratch, horizon)? {
                            Some((schedule, makespan)) => {
                                AtomicCounters::bump(&counters.locbs_passes, 1);
                                LocbsResult {
                                    schedule,
                                    schedule_dag: dag_buf.clone(),
                                    makespan,
                                }
                            }
                            None => {
                                AtomicCounters::bump(&counters.probes_aborted, 1);
                                continue;
                            }
                        }
                    } else {
                        Self::probe(&ctx, &alloc, dag_buf, scratch)?
                    };
                    if res.makespan < best.makespan - time_eps(best.makespan) {
                        let mut corner_alloc = alloc;
                        let mut corner_best = res;
                        self.search(&ctx, &mut corner_alloc, &mut corner_best)?;
                        if corner_best.makespan < best.makespan - time_eps(best.makespan) {
                            best_alloc = corner_alloc;
                            best = corner_best;
                        }
                    }
                }
            }
        }

        Ok(SchedulerOutput {
            schedule: best.schedule,
            allocation: best_alloc,
            schedule_dag: Some(best.schedule_dag),
            counters: counters.snapshot(),
        })
    }
}

impl LocMps {
    /// Applies one widening step described by `entry`.
    fn apply_entry(dag: &TaskGraph, alloc: &mut Allocation, entry: Entry, p_total: usize) {
        match entry {
            Entry::Task(t) => alloc.widen(t, p_total),
            Entry::Edge(e) => Self::widen_edge(dag, alloc, e, p_total),
        }
    }

    /// Ranked, unmarked look-ahead entry points at the current best state:
    /// the paper's single best candidate first, then the runners-up. With
    /// `k = 1` this is exactly Algorithm 1's entry choice; larger `k`
    /// feeds the parallel multi-entry look-ahead (the paper's future-work
    /// item §VI(1)).
    fn entry_candidates(
        &self,
        ctx: &SearchCtx<'_>,
        dag: &TaskGraph,
        schedule: &crate::schedule::Schedule,
        alloc: &Allocation,
        marked: &HashSet<Entry>,
        k: usize,
    ) -> Vec<Entry> {
        let (g, conc, pbest, p_total) = (ctx.g, ctx.conc, ctx.pbest, ctx.p_total);
        let StepCp {
            cp,
            tcomp,
            tcomm,
            edge_w,
        } = Self::step_critical_path(ctx, dag, schedule, alloc);

        // Task entries: gain order with the paper's min-concurrency-ratio
        // pick promoted to the front.
        let mut task_entries: Vec<Entry> = Vec::new();
        if let Some(primary) =
            self.best_candidate_task(g, &cp, alloc, conc, pbest, p_total, Some(marked))
        {
            task_entries.push(Entry::Task(primary));
            let mut rest: Vec<(TaskId, f64)> = cp
                .tasks
                .iter()
                .copied()
                .filter(|&t| t != primary)
                .filter(|&t| alloc.np(t) < p_total.min(pbest[t.index()]))
                .filter(|&t| !marked.contains(&Entry::Task(t)))
                .map(|t| (t, g.task(t).profile.gain(alloc.np(t))))
                .collect();
            rest.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            task_entries.extend(rest.into_iter().map(|(t, _)| Entry::Task(t)));
        }

        // Edge entries: descending actual weight.
        let mut edges: Vec<(EdgeId, f64)> = cp
            .edges
            .iter()
            .copied()
            .filter(|&e| {
                let edge = dag.edge(e);
                edge.kind == EdgeKind::Data
                    && edge.volume > 0.0
                    && (alloc.np(edge.src) < p_total || alloc.np(edge.dst) < p_total)
            })
            .filter(|&e| !marked.contains(&Entry::Edge(e)))
            .map(|e| (e, edge_w[e.index()]))
            .collect();
        edges.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let edge_entries: Vec<Entry> = edges.into_iter().map(|(e, _)| Entry::Edge(e)).collect();

        // Whichever cost dominates the critical path goes first (step 14).
        let (first, second) = if tcomp > tcomm {
            (task_entries, edge_entries)
        } else {
            (edge_entries, task_entries)
        };
        first.into_iter().chain(second).take(k.max(1)).collect()
    }

    /// One bounded look-ahead trajectory (steps 10–35) forced to begin at
    /// `entry`. Returns the best (allocation, schedule) seen along the way.
    ///
    /// The branch borrows its worker's thread-local schedule-DAG buffer and
    /// LoCBS scratch ([`BRANCH_BUFFERS`]): every iteration re-schedules in
    /// place via [`Locbs::run_into`] (stripping the previous iteration's
    /// pseudo-edges instead of cloning the graph) with the edge-estimate
    /// memo carried across iterations — only edges incident to the
    /// just-widened task recompute. Branches never share a buffer, so the
    /// parallel multi-entry rounds stay safe.
    ///
    /// With pruning on, the walk stops as soon as the widening window of
    /// the current allocation provably cannot beat `branch_best`: each
    /// remaining refinement move widens some task by at most one processor,
    /// so [`WideningBounds::cone_bound_within`] at the remaining depth
    /// covers every state the rest of the walk could reach. Repeated
    /// allocations (branch walks merge quickly once they leave their entry
    /// point) are answered from the pass memo, and the final pass of a walk
    /// runs under a bounded horizon because nothing downstream consumes an
    /// over-horizon result.
    fn lookahead_branch(
        &self,
        ctx: &SearchCtx<'_>,
        start_alloc: &Allocation,
        start_dag: &TaskGraph,
        entry: Entry,
    ) -> Result<(Allocation, LocbsResult), SchedError> {
        let (g, p_total) = (ctx.g, ctx.p_total);
        let mut alloc = start_alloc.clone();
        Self::apply_entry(start_dag, &mut alloc, entry, p_total);
        BRANCH_BUFFERS.with(|buffers| {
            let (dag, scratch) = &mut *buffers.borrow_mut();
            dag.clone_from(g);
            scratch.reset_for(g);
            let (mut schedule, mut makespan) =
                match Self::branch_pass(ctx, &alloc, dag, scratch, None)? {
                    Some(pass) => pass,
                    None => unreachable!("an unbounded pass never aborts"),
                };
            let mut branch_alloc = alloc.clone();
            let mut branch_best = LocbsResult {
                schedule: schedule.clone(),
                schedule_dag: dag.clone(),
                makespan,
            };

            let depth = self.config.lookahead_depth.max(1);
            for step in 1..depth {
                if self.refine(ctx, dag, &schedule, &mut alloc, None).is_none() {
                    break;
                }
                if let Some(wb) = ctx.wb {
                    // `depth - 1 - step` refinement moves remain after this
                    // one, so the window cone covers this state and every
                    // state the rest of the walk can reach. At or above the
                    // branch best, none of them passes the epsilon-strict
                    // improvement test; the returned pair is already final.
                    if wb.cone_bound_within(g, &alloc, depth - 1 - step) >= branch_best.makespan {
                        AtomicCounters::bump(&ctx.counters.lookahead_cutoffs, 1);
                        break;
                    }
                }
                // The final pass feeds no further refinement: its only
                // consumer is the branch-best update, so it may run under
                // a bounded horizon and abort once that update is settled.
                let horizon = (self.config.bounded_probes && step + 1 == depth)
                    .then(|| branch_best.makespan - time_eps(branch_best.makespan));
                match Self::branch_pass(ctx, &alloc, dag, scratch, horizon)? {
                    Some(pass) => (schedule, makespan) = pass,
                    None => break,
                }
                if makespan < branch_best.makespan - time_eps(branch_best.makespan) {
                    branch_alloc = alloc.clone();
                    branch_best = LocbsResult {
                        schedule: schedule.clone(),
                        schedule_dag: dag.clone(),
                        makespan,
                    };
                }
            }
            Ok((branch_alloc, branch_best))
        })
    }

    /// One look-ahead LoCBS pass over the branch's buffers: replayed from
    /// the pass memo when this allocation was already placed this era,
    /// otherwise computed — under `horizon` when the caller can prove an
    /// over-horizon pass is useless. Returns `None` exactly on a horizon
    /// abort.
    fn branch_pass(
        ctx: &SearchCtx<'_>,
        alloc: &Allocation,
        dag: &mut TaskGraph,
        scratch: &mut LocbsScratch,
        horizon: Option<f64>,
    ) -> Result<Option<(crate::schedule::Schedule, f64)>, SchedError> {
        if let Some(memo) = ctx.memo {
            let guard = memo.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(hit) = guard.map.get(alloc.as_slice()) {
                dag.clear_pseudo_edges();
                for &(src, dst) in &hit.pseudo {
                    dag.add_pseudo_edge(src, dst).map_err(SchedError::Graph)?;
                }
                AtomicCounters::bump(&ctx.counters.pass_memo_hits, 1);
                return Ok(Some((hit.schedule.clone(), hit.makespan)));
            }
        }
        let result = match horizon {
            Some(h) => ctx.locbs.run_into_bounded(dag, alloc, scratch, h)?,
            None => Some(ctx.locbs.run_into(dag, alloc, scratch)?),
        };
        let Some((schedule, makespan)) = result else {
            AtomicCounters::bump(&ctx.counters.probes_aborted, 1);
            return Ok(None);
        };
        AtomicCounters::bump(&ctx.counters.locbs_passes, 1);
        if let Some(memo) = ctx.memo {
            let pseudo = dag
                .edges()
                .filter(|(_, e)| e.kind == EdgeKind::Pseudo)
                .map(|(_, e)| (e.src, e.dst))
                .collect();
            memo.lock().unwrap_or_else(|e| e.into_inner()).map.insert(
                alloc.as_slice().to_vec(),
                MemoEntry {
                    schedule: schedule.clone(),
                    pseudo,
                    makespan,
                },
            );
        }
        Ok(Some((schedule, makespan)))
    }

    /// The outer commit/mark loop of Algorithm 1, refining `best_alloc` /
    /// `best` in place from wherever they currently point. With
    /// `parallel_entries > 1` each round explores that many entry points
    /// concurrently (on the persistent worker pool) and commits the best
    /// outcome; a round in which no branch improves marks every tried
    /// entry.
    ///
    /// # Pruning, exactly
    ///
    /// Every prune below is backed by an admissible bound and leaves the
    /// commit/mark trajectory — and therefore the final schedule —
    /// bit-identical to the unpruned search:
    ///
    /// * **convergence exit**: every branch of every future round starts
    ///   from `best_alloc` and performs at most `lookahead_depth` widening
    ///   moves, so once `cone_bound_within(best_alloc, depth)` reaches
    ///   `best.makespan` no round can ever commit again; failed rounds only
    ///   touch `marked`, which is local, so returning now is observably
    ///   identical.
    /// * **trailing-suffix skip**: a branch whose entry bound reaches
    ///   `old_sl` can never pass the commit test, but it *can* still win
    ///   the epsilon-tolerant winner fold and thereby shield a later,
    ///   marginally-improving branch from committing. Skipping is
    ///   therefore only safe for the pruned entries *after* the last
    ///   unpruned one — exactly the suffix that has nobody left to shield.
    ///   (With `parallel_entries = 1`, the default, every pruned entry is
    ///   trailing.) Failed rounds still mark **all** candidate entries,
    ///   skipped or not, just as the unpruned search would.
    fn search(
        &self,
        ctx: &SearchCtx<'_>,
        best_alloc: &mut Allocation,
        best: &mut LocbsResult,
    ) -> Result<(), SchedError> {
        use rayon::prelude::*;

        let mut marked: HashSet<Entry> = HashSet::new();
        let width = self.config.parallel_entries.max(1);
        // A branch performs at most `depth` widening moves in total: the
        // entry application plus `depth - 1` refinement steps.
        let depth = self.config.lookahead_depth.max(1);

        for _round in 0..self.config.max_rounds {
            if let Some(wb) = ctx.wb {
                if wb.cone_bound_within(ctx.g, best_alloc, depth) >= best.makespan {
                    return Ok(()); // incumbent provably optimal in its cone
                }
            }
            let entries = self.entry_candidates(
                ctx,
                &best.schedule_dag,
                &best.schedule,
                best_alloc,
                &marked,
                width,
            );
            if entries.is_empty() {
                return Ok(()); // nothing on the CP can be refined at all
            }
            let old_sl = best.makespan;

            // Find the trailing run of provably-hopeless entries.
            let cut = match ctx.wb {
                Some(wb) => {
                    let hopeless = |&entry: &Entry| {
                        let mut alloc = best_alloc.clone();
                        Self::apply_entry(&best.schedule_dag, &mut alloc, entry, ctx.p_total);
                        wb.cone_bound_within(ctx.g, &alloc, depth - 1) >= old_sl
                    };
                    let keep = entries
                        .iter()
                        .rposition(|e| !hopeless(e))
                        .map_or(0, |i| i + 1);
                    AtomicCounters::bump(
                        &ctx.counters.branches_pruned,
                        (entries.len() - keep) as u64,
                    );
                    keep
                }
                None => entries.len(),
            };

            let run_branch =
                |&entry: &Entry| self.lookahead_branch(ctx, best_alloc, &best.schedule_dag, entry);
            let branches: Vec<Result<(Allocation, LocbsResult), SchedError>> = if cut > 1 {
                AtomicCounters::bump(&ctx.counters.pool_tasks, cut as u64);
                entries[..cut].par_iter().map(run_branch).collect()
            } else {
                entries[..cut].iter().map(run_branch).collect()
            };

            // The earliest-ranked branch wins ties, keeping the search
            // deterministic regardless of thread scheduling.
            let mut winner: Option<(Allocation, LocbsResult)> = None;
            for b in branches {
                let b = b?;
                let better = match &winner {
                    None => true,
                    Some((_, w)) => b.1.makespan < w.makespan - time_eps(w.makespan),
                };
                if better {
                    winner = Some(b);
                }
            }

            match winner {
                Some((w_alloc, w_res)) if w_res.makespan < old_sl - time_eps(old_sl) => {
                    // Step 39: improvement found; commit and reset the marks.
                    *best_alloc = w_alloc;
                    *best = w_res;
                    marked.clear();
                    AtomicCounters::bump(&ctx.counters.commits, 1);
                }
                // Step 37: failed look-ahead(s) — or a fully-pruned round,
                // which is a failed round the bounds settled without
                // running it. Remember every tried entry either way.
                _ => marked.extend(entries),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmps_speedup::{ExecutionProfile, ProfiledSpeedup, SpeedupModel};

    fn profiled(times: &[f64]) -> ExecutionProfile {
        ExecutionProfile::new(
            times[0],
            SpeedupModel::Table(ProfiledSpeedup::from_times(times).unwrap()),
        )
        .unwrap()
    }

    #[test]
    fn single_task_gets_its_pbest() {
        let mut g = TaskGraph::new();
        g.add_task("t", ExecutionProfile::linear(32.0));
        let cluster = Cluster::new(4, 12.5);
        let out = LocMps::default().schedule(&g, &cluster).unwrap();
        assert_eq!(out.allocation.np(TaskId(0)), 4);
        assert!((out.makespan() - 8.0).abs() < 1e-9);
        out.schedule
            .validate(&g, &CommModel::new(&cluster))
            .unwrap();
    }

    #[test]
    fn respects_pbest_bound() {
        // U-shaped execution time: widening past pbest would *hurt*; the
        // candidate filter (np < min(P, Pbest)) must stop there.
        let m = SpeedupModel::Linear.with_overhead(0.05).unwrap();
        let mut g = TaskGraph::new();
        g.add_task("t", ExecutionProfile::new(20.0, m).unwrap());
        let cluster = Cluster::new(16, 12.5);
        let out = LocMps::default().schedule(&g, &cluster).unwrap();
        let pbest = g.task(TaskId(0)).profile.pbest(16);
        assert!(out.allocation.np(TaskId(0)) <= pbest);
        assert!((out.makespan() - g.task(TaskId(0)).profile.time(pbest)).abs() < 1e-6);
    }

    /// Figure 2: T1, T3, T4 feed T2; on 3 processors the greedy gain choice
    /// (T1) is inferior to the concurrency-ratio choice (T2 on all 3),
    /// whose schedule reaches the paper's makespan of 15.
    #[test]
    fn fig2_concurrency_ratio_choice() {
        let mut g = TaskGraph::new();
        let t1 = g.add_task("T1", profiled(&[10.0, 7.0, 5.0]));
        let t2 = g.add_task("T2", profiled(&[8.0, 6.0, 5.0]));
        let t3 = g.add_task("T3", profiled(&[9.0, 7.0, 5.0]));
        let t4 = g.add_task("T4", profiled(&[7.0, 5.0, 4.0]));
        g.add_edge(t1, t2, 0.0).unwrap();
        g.add_edge(t3, t2, 0.0).unwrap();
        g.add_edge(t4, t2, 0.0).unwrap();
        let cluster = Cluster::new(3, 12.5);
        let out = LocMps::default().schedule(&g, &cluster).unwrap();
        assert!(
            out.makespan() <= 15.0 + 1e-9,
            "paper reaches 15, got {}",
            out.makespan()
        );
        assert_eq!(
            out.allocation.np(t2),
            3,
            "T2 should be widened to all processors"
        );
        out.schedule
            .validate(&g, &CommModel::new(&cluster))
            .unwrap();
    }

    /// Figure 3: two independent tasks with linear speedup on 4 processors.
    /// The greedy (no look-ahead) search is trapped at makespan 40; the
    /// bounded look-ahead escapes to the pure data-parallel optimum of 30.
    #[test]
    fn fig3_lookahead_escapes_local_minimum() {
        let build = || {
            let mut g = TaskGraph::new();
            g.add_task("T1", ExecutionProfile::linear(40.0));
            g.add_task("T2", ExecutionProfile::linear(80.0));
            g
        };
        let cluster = Cluster::new(4, 12.5);
        let greedy = LocMps::new(LocMpsConfig::greedy())
            .schedule(&build(), &cluster)
            .unwrap();
        assert!(
            (greedy.makespan() - 40.0).abs() < 1e-6,
            "greedy should be trapped at 40, got {}",
            greedy.makespan()
        );
        let full = LocMps::default().schedule(&build(), &cluster).unwrap();
        assert!(
            (full.makespan() - 30.0).abs() < 1e-6,
            "look-ahead should reach the data-parallel optimum 30, got {}",
            full.makespan()
        );
        assert_eq!(full.allocation.as_slice(), &[4, 4]);
    }

    #[test]
    fn widens_heavy_edges_when_communication_dominates() {
        // Two tasks with negligible computation but a huge transfer; the
        // only way to shrink the CP is widening the edge endpoints.
        let mut g = TaskGraph::new();
        let a = g.add_task("a", ExecutionProfile::linear(1.0));
        let b = g.add_task("b", ExecutionProfile::linear(1.0));
        g.add_edge(a, b, 1000.0).unwrap();
        let cluster = Cluster::new(4, 12.5);
        let out = LocMps::default().schedule(&g, &cluster).unwrap();
        // Widening helps both the aggregate estimate and the placement;
        // the allocation must not stay at the pure task-parallel (1, 1).
        assert!(
            out.allocation.np(a) > 1 || out.allocation.np(b) > 1,
            "edge widening never triggered: {:?}",
            out.allocation.as_slice()
        );
        out.schedule
            .validate(&g, &CommModel::new(&cluster))
            .unwrap();
    }

    #[test]
    fn icaslb_plans_without_communication() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", ExecutionProfile::linear(10.0));
        let b = g.add_task("b", ExecutionProfile::linear(10.0));
        g.add_edge(a, b, 10_000.0).unwrap();
        let cluster = Cluster::new(2, 12.5);
        let icaslb = LocMps::new(LocMpsConfig::icaslb());
        assert_eq!(icaslb.name(), "iCASLB");
        let out = icaslb.schedule(&g, &cluster).unwrap();
        // Its own (blind) claim ignores the transfer entirely.
        out.schedule
            .validate(&g, &CommModel::blind(&cluster))
            .unwrap();
    }

    #[test]
    fn parallel_lookahead_is_deterministic_and_solves_fig3() {
        let mut g = TaskGraph::new();
        g.add_task("T1", ExecutionProfile::linear(40.0));
        g.add_task("T2", ExecutionProfile::linear(80.0));
        let cluster = Cluster::new(4, 12.5);
        let cfg = LocMpsConfig {
            parallel_entries: 4,
            corner_starts: false,
            ..Default::default()
        };
        let a = LocMps::new(cfg).schedule(&g, &cluster).unwrap();
        let b = LocMps::new(cfg).schedule(&g, &cluster).unwrap();
        assert_eq!(a.schedule, b.schedule, "rayon must not perturb the result");
        assert!((a.makespan() - 30.0).abs() < 1e-6, "got {}", a.makespan());
    }

    #[test]
    fn parallel_lookahead_matches_quality_on_a_mixed_graph() {
        // More entries per round can only help each round's commit; verify
        // the multi-entry variant is valid and no worse on a graph with
        // both heavy computation and heavy communication.
        let mut g = TaskGraph::new();
        let a = g.add_task("a", profiled(&[30.0, 16.0, 9.0, 6.0]));
        let b = g.add_task("b", profiled(&[24.0, 13.0, 8.0, 6.5]));
        let c = g.add_task("c", profiled(&[28.0, 15.0, 9.0, 7.0]));
        let d = g.add_task("d", profiled(&[20.0, 11.0, 7.0, 5.5]));
        g.add_edge(a, b, 300.0).unwrap();
        g.add_edge(a, c, 10.0).unwrap();
        g.add_edge(b, d, 250.0).unwrap();
        g.add_edge(c, d, 10.0).unwrap();
        let cluster = Cluster::new(6, 12.5);
        let seq = LocMps::default().schedule(&g, &cluster).unwrap();
        let par = LocMps::new(LocMpsConfig {
            parallel_entries: 3,
            ..Default::default()
        })
        .schedule(&g, &cluster)
        .unwrap();
        par.schedule
            .validate(&g, &CommModel::new(&cluster))
            .unwrap();
        assert!(
            par.makespan() <= seq.makespan() * 1.10 + 1e-9,
            "parallel {} vs sequential {}",
            par.makespan(),
            seq.makespan()
        );
    }

    #[test]
    fn never_worse_than_pure_task_parallel_start() {
        // LoC-MPS starts at TASK and only commits improvements.
        let mut g = TaskGraph::new();
        let a = g.add_task("a", profiled(&[30.0, 16.0, 11.0]));
        let b = g.add_task("b", profiled(&[20.0, 12.0, 9.0]));
        let c = g.add_task("c", profiled(&[25.0, 14.0, 10.0]));
        g.add_edge(a, b, 5.0).unwrap();
        g.add_edge(a, c, 5.0).unwrap();
        let cluster = Cluster::new(4, 12.5);
        let model = CommModel::new(&cluster);
        let task_parallel = Locbs::new(model, LocbsOptions::default())
            .run(&g, &Allocation::ones(3))
            .unwrap();
        let out = LocMps::default().schedule(&g, &cluster).unwrap();
        assert!(out.makespan() <= task_parallel.makespan + 1e-9);
        out.schedule.validate(&g, &model).unwrap();
    }
}
