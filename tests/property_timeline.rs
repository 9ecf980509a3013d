//! Property tests pinning the booking-list timeline to two references:
//!
//! * the seed algorithm (per-query gather-and-sort of candidate ends and
//!   freshly allocated free sets), at time scales where the length-bounded
//!   booking tolerance equals the seed's purely relative one (durations
//!   ≥ 1, times ≪ 1e6);
//! * the per-processor timeline it replaced (one busy vector per
//!   processor, a separate sorted end list and a cursor over it), kept
//!   verbatim below, across multi-word processor counts, touching and
//!   ulp-adjacent endpoints, ulp-length bookings and 1e9 time scales.
//!
//! The implementations must agree *exactly* on every query after every
//! random occupy sequence, and on whether each occupy panics.

use locmps::core::schedule::time_eps;
use locmps::core::timeline::Timeline;
use locmps::platform::{ProcId, ProcSet};
use proptest::prelude::*;

/// The seed implementation, verbatim: one vector of busy intervals per
/// processor, candidates re-gathered and sorted per query.
struct RefTimeline {
    busy: Vec<Vec<(f64, f64)>>,
}

impl RefTimeline {
    fn new(n_procs: usize) -> Self {
        Self {
            busy: vec![Vec::new(); n_procs],
        }
    }

    fn is_free(&self, p: ProcId, start: f64, finish: f64) -> bool {
        let eps = time_eps(finish);
        let intervals = &self.busy[p as usize];
        let idx = intervals.partition_point(|iv| iv.1 <= start + eps);
        match intervals.get(idx) {
            Some(&(s, _)) => s + eps >= finish,
            None => true,
        }
    }

    fn occupy(&mut self, procs: &ProcSet, start: f64, finish: f64) {
        for p in procs.iter() {
            let intervals = &mut self.busy[p as usize];
            let idx = intervals.partition_point(|iv| iv.0 < start);
            intervals.insert(idx, (start, finish));
        }
    }

    fn free_set(&self, start: f64, finish: f64) -> Vec<ProcId> {
        (0..self.busy.len() as ProcId)
            .filter(|&p| self.is_free(p, start, finish))
            .collect()
    }

    fn last_free_time(&self, p: ProcId) -> f64 {
        self.busy[p as usize].last().map_or(0.0, |iv| iv.1)
    }

    fn candidate_times(&self, after: f64) -> Vec<f64> {
        let mut times = vec![after];
        for intervals in &self.busy {
            for &(_, end) in intervals {
                if end > after {
                    times.push(end);
                }
            }
        }
        times.sort_by(f64::total_cmp);
        times.dedup_by(|a, b| (*a - *b).abs() <= time_eps(*a));
        times
    }
}

/// The per-processor timeline the booking list replaced, verbatim: busy
/// intervals per processor, every booking end in one sorted list, and a
/// streaming cursor over it.
#[derive(Clone)]
struct PerProcTimeline {
    busy: Vec<Vec<(f64, f64)>>,
    ends: Vec<f64>,
}

fn bounded_eps(scale: f64, a_len: f64, b_len: f64) -> f64 {
    time_eps(scale).min(0.5 * a_len.min(b_len))
}

impl PerProcTimeline {
    fn new(n_procs: usize) -> Self {
        Self {
            busy: vec![Vec::new(); n_procs],
            ends: Vec::new(),
        }
    }

    fn occupy(&mut self, procs: &ProcSet, start: f64, finish: f64) {
        assert!(finish >= start, "inverted interval");
        if finish <= start {
            return;
        }
        let len = finish - start;
        for p in procs.iter() {
            let intervals = &mut self.busy[p as usize];
            let idx = intervals.partition_point(|iv| iv.0 < start);
            if idx > 0 {
                let (ps, pf) = intervals[idx - 1];
                let eps = bounded_eps(finish, len, pf - ps);
                assert!(pf <= start + eps, "double booking on p{p}");
            }
            if idx < intervals.len() {
                let (ns, nf) = intervals[idx];
                let eps = bounded_eps(finish, len, nf - ns);
                assert!(ns + eps >= finish, "double booking on p{p}");
            }
            intervals.insert(idx, (start, finish));
        }
        let at = self.ends.partition_point(|&e| e < finish);
        self.ends.insert(at, finish);
    }

    fn is_free(&self, p: ProcId, start: f64, finish: f64) -> bool {
        let eps = time_eps(finish).min(0.5 * (finish - start));
        let intervals = &self.busy[p as usize];
        let idx = intervals.partition_point(|iv| iv.1 <= start + eps);
        match intervals.get(idx) {
            Some(&(s, _)) => s + eps >= finish,
            None => true,
        }
    }

    fn free_set_into(&self, start: f64, finish: f64, out: &mut ProcSet) {
        out.clear();
        for p in 0..self.busy.len() as ProcId {
            if self.is_free(p, start, finish) {
                out.insert(p);
            }
        }
    }

    fn last_free_time(&self, p: ProcId) -> f64 {
        self.busy[p as usize].last().map_or(0.0, |iv| iv.1)
    }

    fn candidates_after(&self, after: f64) -> PerProcCandidates<'_> {
        let from = self.ends.partition_point(|&e| e <= after);
        PerProcCandidates {
            ends: &self.ends,
            i: from,
            after,
            last: None,
        }
    }
}

struct PerProcCandidates<'a> {
    ends: &'a [f64],
    i: usize,
    after: f64,
    last: Option<f64>,
}

impl PerProcCandidates<'_> {
    fn next_below(&mut self, horizon: f64) -> Option<f64> {
        let Some(last) = self.last else {
            if self.after >= horizon {
                return None;
            }
            self.last = Some(self.after);
            return Some(self.after);
        };
        while let Some(&e) = self.ends.get(self.i) {
            if (e - last).abs() <= time_eps(e) {
                self.i += 1;
                continue;
            }
            if e >= horizon {
                return None;
            }
            self.i += 1;
            self.last = Some(e);
            return Some(e);
        }
        None
    }
}

/// The next float above a non-negative `x`.
fn up(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

/// The next float below a positive `x` (`x` itself at zero).
fn down(x: f64) -> f64 {
    if x > 0.0 {
        f64::from_bits(x.to_bits() - 1)
    } else {
        x
    }
}

/// A processor subset of `0..n_procs` drawn from `sel`: a single id, a
/// contiguous run (often straddling a word boundary), a sparse scatter, or
/// everything.
fn wide_subset(sel: u64, n_procs: usize) -> ProcSet {
    let n = n_procs as u64;
    let a = (sel >> 8) % n;
    match sel % 4 {
        0 => ProcSet::single(a as ProcId),
        1 => {
            let len = 1 + (sel >> 24) % n;
            (a..(a + len).min(n)).map(|p| p as ProcId).collect()
        }
        2 => {
            let mut s = ProcSet::single(a as ProcId);
            let mut x = sel;
            for _ in 0..1 + (sel >> 16) % 12 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                s.insert(((x >> 33) % n) as ProcId);
            }
            s
        }
        _ => ProcSet::all(n_procs),
    }
}

/// An interval shaped by `shape`: random, touching a known endpoint on
/// either side, one ulp off a known endpoint, or only a few ulps long.
/// Times sit at `base` (0 or 1e9) plus a few hundred units.
fn interval(shape: u64, a: f64, b: f64, known: &[f64], base: f64) -> (f64, f64) {
    let dur = 1.0 + 49.0 * b;
    let anchor = known[((shape >> 8) as usize) % known.len()];
    match shape % 6 {
        0 => {
            let start = base + 500.0 * a;
            (start, start + dur)
        }
        1 => (anchor, anchor + dur),
        2 => (anchor - dur, anchor),
        3 => {
            let start = if shape & 0x10 == 0 {
                up(anchor)
            } else {
                down(anchor)
            };
            (start, start + dur)
        }
        4 => {
            let finish = if shape & 0x10 == 0 {
                up(anchor)
            } else {
                down(anchor)
            };
            (finish - dur, finish)
        }
        _ => {
            let start = if shape & 0x10 == 0 {
                anchor
            } else {
                base + 500.0 * a
            };
            let mut finish = start;
            for _ in 0..1 + (shape >> 16) % 4 {
                finish = up(finish);
            }
            (start, finish)
        }
    }
}

/// Runs `f`, reporting whether it returned normally.
fn completes(f: impl FnOnce()) -> bool {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_ok()
}

fn proc_subset(mask: u64, n_procs: usize) -> ProcSet {
    let mut s = ProcSet::new();
    for p in 0..n_procs {
        if mask & (1 << p) != 0 {
            s.insert(p as ProcId);
        }
    }
    if s.is_empty() {
        s.insert((mask % n_procs as u64) as ProcId);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn event_list_timeline_matches_seed_reference(
        n_procs in 2usize..10,
        ops in proptest::collection::vec(
            (any::<u64>(), 0.0..500.0f64, 1.0..50.0f64),
            1..40,
        ),
    ) {
        let mut tl = Timeline::new(n_procs);
        let mut reference = RefTimeline::new(n_procs);
        let mut scratch = ProcSet::new();

        for (mask, start, dur) in ops {
            let procs = proc_subset(mask, n_procs);
            let finish = start + dur;

            // The implementations must agree on freeness before booking...
            for p in procs.iter() {
                prop_assert_eq!(
                    tl.is_free(p, start, finish),
                    reference.is_free(p, start, finish),
                    "is_free(p{}, {}, {})", p, start, finish
                );
            }
            // ...and only conflict-free bookings are applied (occupy panics
            // on overlap by design).
            if procs.iter().all(|p| tl.is_free(p, start, finish)) {
                tl.occupy(&procs, start, finish);
                reference.occupy(&procs, start, finish);
            }

            // Candidate enumeration: full, from a booking end, and cut off
            // at a horizon, against the gather-and-sort reference.
            for after in [0.0, start, finish, 250.0] {
                let expect = reference.candidate_times(after);
                prop_assert_eq!(&tl.candidate_times(after), &expect);
                for horizon in [after, 100.0, f64::INFINITY] {
                    let cut: Vec<f64> =
                        expect.iter().copied().filter(|&c| c < horizon).collect();
                    prop_assert_eq!(&tl.candidate_times_below(after, horizon), &cut);
                }
            }

            // Free sets through the reused scratch buffer.
            for (ws, wf) in [(start, finish), (0.0, 600.0), (finish, finish + 10.0)] {
                tl.free_set_into(ws, wf, &mut scratch);
                prop_assert_eq!(&scratch.to_vec(), &reference.free_set(ws, wf));
                prop_assert_eq!(&tl.free_set(ws, wf), &scratch);
            }
            for p in 0..n_procs as ProcId {
                prop_assert_eq!(tl.last_free_time(p), reference.last_free_time(p));
            }
        }
    }

    #[test]
    fn booking_list_matches_the_per_processor_timeline(
        n_procs in 2usize..200,
        huge in any::<bool>(),
        ops in proptest::collection::vec(
            (any::<u64>(), any::<u64>(), 0.0..1.0f64, 0.0..1.0f64),
            1..60,
        ),
    ) {
        let base = if huge { 1.0e9 } else { 0.0 };
        let mut tl = Timeline::new(n_procs);
        let mut oracle = PerProcTimeline::new(n_procs);
        let mut known = vec![base, base + 250.0];
        let (mut got, mut want) = (ProcSet::new(), ProcSet::new());

        for (sel, shape, a, b) in ops {
            let procs = wide_subset(sel, n_procs);
            let (start, finish) = interval(shape, a, b, &known, base);
            if start < 0.0 {
                continue; // anchored before time zero
            }

            // Feasibility of the exact window, one mask at a time.
            let each = procs.iter().all(|p| oracle.is_free(p, start, finish));
            prop_assert_eq!(tl.all_free(&procs, start, finish), each);

            // Booking: both accept or both panic, whatever the oracle's
            // opinion of freeness.
            let (mut next_tl, mut next_oracle) = (tl.clone(), oracle.clone());
            let ok_tl = completes(|| next_tl.occupy(&procs, start, finish));
            let ok_oracle = completes(|| next_oracle.occupy(&procs, start, finish));
            prop_assert_eq!(ok_tl, ok_oracle, "occupy {} on [{}, {})", procs, start, finish);
            if ok_tl {
                tl = next_tl;
                oracle = next_oracle;
                known.push(start);
                known.push(finish);
            }

            // Free sets over windows touching and straddling the booking.
            let windows = [
                (start, finish),
                (up(start), finish),
                (start, down(finish)),
                (finish, finish + 10.0),
                (down(start) - 5.0, down(start)),
                (base, base + 600.0),
                (finish, up(finish)),
            ];
            for (ws, wf) in windows {
                if wf < ws {
                    continue;
                }
                tl.free_set_into(ws, wf, &mut got);
                oracle.free_set_into(ws, wf, &mut want);
                prop_assert_eq!(&got, &want, "free set on [{}, {})", ws, wf);
                let each = procs.iter().all(|p| oracle.is_free(p, ws, wf));
                prop_assert_eq!(tl.all_free(&procs, ws, wf), each);
            }

            // The candidate cursor, under fixed and tightening horizons.
            for after in [0.0, base, start, down(finish), finish] {
                for horizon in [f64::INFINITY, finish, up(after)] {
                    let (mut c, mut r) = (tl.candidates_after(after), oracle.candidates_after(after));
                    let mut h = horizon;
                    loop {
                        let (x, y) = (c.next_below(h), r.next_below(h));
                        prop_assert_eq!(x, y, "candidate after {} below {}", after, h);
                        match x {
                            Some(t) if h.is_infinite() && t > base + 300.0 => h = t + 100.0,
                            Some(_) => {}
                            None => break,
                        }
                    }
                }
            }

            for p in 0..n_procs as ProcId {
                prop_assert_eq!(tl.last_free_time(p).to_bits(), oracle.last_free_time(p).to_bits());
            }
            for p in procs.iter() {
                prop_assert_eq!(&tl.bookings(p), &oracle.busy[p as usize]);
            }
        }
    }

    /// Bookings a few ulps long on a grid of a few ulps: the tolerance is
    /// then half an ulp, so touching, overlapping and identical intervals
    /// all occur, and ties between bookings with equal starts on one
    /// processor decide the outcome.
    #[test]
    fn ulp_grid_bookings_match_the_per_processor_timeline(
        huge in any::<bool>(),
        ops in proptest::collection::vec((0u64..3, 0u64..6, 1u64..4), 1..40),
    ) {
        let x: f64 = if huge { 1.0e9 + 0.5 } else { 3.0 };
        let at = |k: u64| f64::from_bits(x.to_bits() + k);
        let mut tl = Timeline::new(2);
        let mut oracle = PerProcTimeline::new(2);
        let (mut got, mut want) = (ProcSet::new(), ProcSet::new());
        for (sel, k, len) in ops {
            let procs = match sel {
                0 => ProcSet::single(0),
                1 => ProcSet::single(1),
                _ => ProcSet::all(2),
            };
            let (start, finish) = (at(k), at(k + len));
            let (mut next_tl, mut next_oracle) = (tl.clone(), oracle.clone());
            let ok_tl = completes(|| next_tl.occupy(&procs, start, finish));
            let ok_oracle = completes(|| next_oracle.occupy(&procs, start, finish));
            prop_assert_eq!(ok_tl, ok_oracle, "occupy {} on ulps [{}, {})", procs, k, k + len);
            if ok_tl {
                tl = next_tl;
                oracle = next_oracle;
            }
            for a in 0..8 {
                for b in a..9 {
                    tl.free_set_into(at(a), at(b), &mut got);
                    oracle.free_set_into(at(a), at(b), &mut want);
                    prop_assert_eq!(&got, &want, "free set on ulps [{}, {})", a, b);
                }
            }
            for p in 0..2 {
                prop_assert_eq!(tl.last_free_time(p).to_bits(), oracle.last_free_time(p).to_bits());
                prop_assert_eq!(&tl.bookings(p), &oracle.busy[p as usize]);
            }
        }
    }
}
