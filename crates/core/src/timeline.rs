//! The 2-D (processors × time) resource chart behind backfill scheduling
//! (§III.F).
//!
//! Parallel job scheduling "can be viewed as a 2D chart with time along one
//! axis and the processors along the other"; backfilling finds *holes* in
//! that chart. [`Timeline`] records every booking and enumerates the
//! candidate start times at which the set of free processors changes —
//! every minimal-finish-time placement starts either at the task's ready
//! time or at some booking end, so scanning those candidates finds the
//! optimal hole.
//!
//! # One booking list
//!
//! The chart is a single list of bookings `(finish, start, mask)` sorted by
//! finish time — the availability profile of classic backfilling. A
//! booking's processor mask is a bitmap of `⌈P/64⌉` words stored in one
//! flat arena with that stride, so booking costs no allocation of its own.
//! The same list serves every query:
//!
//! * **free set** ([`Timeline::free_set_into`]): the bookings that can
//!   overlap `[s, f)` are a suffix of the list (those finishing after `s`);
//!   OR-ing the masks of the ones that also start before `f` gives the busy
//!   processors a word at a time, and the complement within `P` is the free
//!   set. [`Timeline::all_free`] asks the same question for one mask.
//! * **candidate starts** ([`Timeline::candidates_after`]): booking ends
//!   in ascending order are just the list's finish times, so the streaming
//!   [`CandidateTimes`] cursor walks a slice of it from a binary-searched
//!   position and stops at the caller's best finish time.
//! * **no-backfill availability** ([`Timeline::last_free_time`]): a
//!   `P`-length array of each processor's latest booking end.
//!
//! On one processor the bookings are disjoint up to the tolerance below,
//! which is at most half of either interval, so ordered by start they are
//! also ordered by end. A processor is therefore free on `[s, f)` exactly
//! when no booking of it both ends after `s` and starts before `f` — the
//! per-processor binary-search test, asked of all processors at once.
//!
//! # Tolerance
//!
//! Touching interval endpoints must not conflict even after float rounding,
//! so comparisons use the relative `time_eps`. A *purely* relative
//! tolerance, however, grows past entire task durations at large makespans
//! (at `t ≈ 1e9`, `time_eps` is ~1e3 — longer than a 10-second task), which
//! once allowed genuine overlaps to book silently. Every tolerance here is
//! therefore additionally bounded by half the shortest interval involved:
//! rounding error is many orders of magnitude below either bound, and an
//! overlap that exceeds half a task is never forgiven.

use locmps_platform::{ProcId, ProcSet};

use crate::schedule::time_eps;

const WORD: usize = 64;

/// Index marking "no booking" in [`Timeline::occupy`]'s neighbour search.
const NONE: usize = usize::MAX;

/// The comparison slack for intervals `a` and `b` meeting near time
/// `scale`: relative to the time scale but never more than half the
/// shorter interval.
#[inline]
fn bounded_eps(scale: f64, a_len: f64, b_len: f64) -> f64 {
    time_eps(scale).min(0.5 * a_len.min(b_len))
}

/// One booked interval; its processors are the matching mask in the arena.
#[derive(Debug, Clone, Copy)]
struct Booking {
    finish: f64,
    start: f64,
}

/// The processors × time chart: bookings sorted by finish, with hole
/// queries.
#[derive(Debug, Clone)]
pub struct Timeline {
    n_procs: usize,
    /// Words per processor mask: `⌈P/64⌉` (at least 1).
    stride: usize,
    /// Every booking, sorted by finish time.
    bookings: Vec<Booking>,
    /// Booking `k`'s processors: `masks[k * stride..(k + 1) * stride]`.
    masks: Vec<u64>,
    /// Per processor, its latest booking end (`None` when never booked).
    last_free: Vec<Option<f64>>,
    /// [`Timeline::occupy`]'s scratch: per processor, the index of its
    /// nearest booking starting before the new one and at or after it.
    near: Vec<(usize, usize)>,
}

impl Timeline {
    /// An all-idle chart for `n_procs` processors.
    pub fn new(n_procs: usize) -> Self {
        Self {
            n_procs,
            stride: n_procs.div_ceil(WORD).max(1),
            bookings: Vec::new(),
            masks: Vec::new(),
            last_free: vec![None; n_procs],
            near: vec![(NONE, NONE); n_procs],
        }
    }

    /// Number of processors tracked.
    pub fn n_procs(&self) -> usize {
        self.n_procs
    }

    /// Marks `[start, finish)` busy on every processor in `procs`.
    ///
    /// # Panics
    /// Panics if the interval is inverted, names a processor outside the
    /// chart, or overlaps an existing booking (double-booking is a
    /// scheduler bug and must never be silent).
    pub fn occupy(&mut self, procs: &ProcSet, start: f64, finish: f64) {
        assert!(finish >= start, "inverted interval");
        if finish <= start {
            return; // zero-length bookings occupy nothing
        }
        let len = finish - start;
        let words = procs.words();
        for p in procs.iter() {
            assert!((p as usize) < self.n_procs, "processor p{p} out of range");
            self.near[p as usize] = (NONE, NONE);
        }
        // Each processor's bookings, in start order (equal starts: earlier
        // end first), form a chain; the new interval must fit between its
        // chain neighbours: the last booking starting before it and the
        // first starting at or after it.
        let key = |b: &Booking| (b.start, b.finish);
        let chunks = self.masks.chunks_exact(self.stride);
        for (k, (b, mask)) in self.bookings.iter().zip(chunks).enumerate() {
            for (w, (&m, &own)) in mask.iter().zip(words).enumerate() {
                let mut hit = m & own;
                while hit != 0 {
                    let p = w * WORD + hit.trailing_zeros() as usize;
                    hit &= hit - 1;
                    let (prev, next) = &mut self.near[p];
                    let slot = if b.start < start { prev } else { next };
                    let closer = match self.bookings.get(*slot) {
                        None => true,
                        Some(o) if b.start < start => key(b) > key(o),
                        Some(o) => key(b) < key(o),
                    };
                    if closer {
                        *slot = k;
                    }
                }
            }
        }
        for p in procs.iter() {
            let (prev, next) = self.near[p as usize];
            if let Some(b) = self.bookings.get(prev) {
                let eps = bounded_eps(finish, len, b.finish - b.start);
                assert!(b.finish <= start + eps, "double booking on p{p}");
            }
            if let Some(b) = self.bookings.get(next) {
                let eps = bounded_eps(finish, len, b.finish - b.start);
                assert!(b.start + eps >= finish, "double booking on p{p}");
            }
            let last = &mut self.last_free[p as usize];
            *last = Some(last.map_or(finish, |t| t.max(finish)));
        }

        let at = self.bookings.partition_point(|b| b.finish <= finish);
        self.bookings.insert(at, Booking { finish, start });
        let stride = self.stride;
        let mask = (0..stride).map(|w| words.get(w).copied().unwrap_or(0));
        self.masks.splice(at * stride..at * stride, mask);
        crate::invariant!(
            self.bookings.windows(2).all(|w| w[0].finish <= w[1].finish),
            "the booking list must stay sorted by finish after every insert"
        );
    }

    /// The masks of the bookings that overlap `[start, finish)` by more
    /// than the tolerance: those ending after `start + eps` (a suffix of
    /// the list) that also start before `finish - eps`.
    fn overlapping(&self, start: f64, finish: f64) -> impl Iterator<Item = &[u64]> {
        let eps = time_eps(finish).min(0.5 * (finish - start));
        let from = self.bookings.partition_point(|b| b.finish <= start + eps);
        self.bookings[from..]
            .iter()
            .zip(self.masks[from * self.stride..].chunks_exact(self.stride))
            .filter(move |(b, _)| b.start + eps < finish)
            .map(|(_, mask)| mask)
    }

    /// Whether processor `p` is idle throughout `[start, finish)`.
    /// Touching interval endpoints do not conflict.
    pub fn is_free(&self, p: ProcId, start: f64, finish: f64) -> bool {
        let (w, bit) = (p as usize / WORD, p as usize % WORD);
        self.overlapping(start, finish)
            .all(|mask| mask[w] & (1 << bit) == 0)
    }

    /// Whether every processor in `procs` is idle throughout
    /// `[start, finish)`.
    pub fn all_free(&self, procs: &ProcSet, start: f64, finish: f64) -> bool {
        let words = procs.words();
        self.overlapping(start, finish)
            .all(|mask| mask.iter().zip(words).all(|(m, w)| m & w == 0))
    }

    /// The set of processors idle throughout `[start, finish)`.
    pub fn free_set(&self, start: f64, finish: f64) -> ProcSet {
        let mut out = ProcSet::new();
        self.free_set_into(start, finish, &mut out);
        out
    }

    /// Fills `out` with the processors idle throughout `[start, finish)`,
    /// reusing its allocation.
    pub fn free_set_into(&self, start: f64, finish: f64, out: &mut ProcSet) {
        let busy = out.reset_words(self.stride);
        for mask in self.overlapping(start, finish) {
            for (b, m) in busy.iter_mut().zip(mask) {
                *b |= m;
            }
        }
        for (w, b) in busy.iter_mut().enumerate() {
            let in_range = self.n_procs.saturating_sub(w * WORD);
            let valid = if in_range >= WORD {
                u64::MAX
            } else {
                (1u64 << in_range) - 1
            };
            *b = !*b & valid;
        }
    }

    /// The time at which processor `p` becomes permanently idle (its last
    /// booking's end; 0 when never booked). This is the only availability
    /// information the *no-backfill* scheduler variant keeps (Fig. 6).
    pub fn last_free_time(&self, p: ProcId) -> f64 {
        self.last_free[p as usize].unwrap_or(0.0)
    }

    /// Candidate start times for a placement not before `after`: `after`
    /// itself plus every booking end strictly later than `after`, sorted
    /// and deduplicated.
    pub fn candidate_times(&self, after: f64) -> Vec<f64> {
        self.candidate_times_below(after, f64::INFINITY)
    }

    /// [`Timeline::candidate_times`] cut off at `horizon`: only candidates
    /// strictly below it are returned. Callers that track a best finish
    /// time pass it here so candidates that cannot improve are never even
    /// collected.
    pub fn candidate_times_below(&self, after: f64, horizon: f64) -> Vec<f64> {
        let mut out = Vec::new();
        let mut cursor = self.candidates_after(after);
        while let Some(t) = cursor.next_below(horizon) {
            out.push(t);
        }
        out
    }

    /// A streaming cursor over the candidate start times not before
    /// `after` — the zero-allocation form of
    /// [`Timeline::candidate_times_below`] used by the placement loop.
    pub fn candidates_after(&self, after: f64) -> CandidateTimes<'_> {
        let from = self.bookings.partition_point(|b| b.finish <= after);
        CandidateTimes {
            bookings: &self.bookings[from..],
            after,
            last: None,
        }
    }

    /// All bookings on processor `p`, in time order (test/debug aid).
    pub fn bookings(&self, p: ProcId) -> Vec<(f64, f64)> {
        let (w, bit) = (p as usize / WORD, p as usize % WORD);
        let mut out: Vec<(f64, f64)> = self
            .bookings
            .iter()
            .zip(self.masks.chunks_exact(self.stride))
            .filter(|(_, mask)| mask[w] & (1 << bit) != 0)
            .map(|(b, _)| (b.start, b.finish))
            .collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        out
    }
}

/// Streaming candidate-start iterator: yields `after`, then each booking
/// end above it, skipping ends within `time_eps` of the previously yielded
/// candidate. Created by [`Timeline::candidates_after`].
#[derive(Debug)]
pub struct CandidateTimes<'a> {
    /// The bookings ending after `after`, not yet passed.
    bookings: &'a [Booking],
    after: f64,
    last: Option<f64>,
}

impl CandidateTimes<'_> {
    /// The next candidate strictly below `horizon`, or `None` when the
    /// remaining candidates are all at/past it. Candidates ascend, so with
    /// a non-increasing `horizon` (a best finish time that only improves)
    /// `None` is final.
    pub fn next_below(&mut self, horizon: f64) -> Option<f64> {
        let Some(last) = self.last else {
            // First call: the ready time itself is always the first candidate.
            if self.after >= horizon {
                return None;
            }
            self.last = Some(self.after);
            return Some(self.after);
        };
        while let Some((b, rest)) = self.bookings.split_first() {
            let e = b.finish;
            if (e - last).abs() <= time_eps(e) {
                self.bookings = rest; // within tolerance of the previous candidate
                continue;
            }
            if e >= horizon {
                return None;
            }
            self.bookings = rest;
            self.last = Some(e);
            return Some(e);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> ProcSet {
        ids.iter().copied().collect()
    }

    #[test]
    fn occupy_and_query() {
        let mut tl = Timeline::new(3);
        tl.occupy(&set(&[0, 1]), 0.0, 10.0);
        assert!(!tl.is_free(0, 5.0, 6.0));
        assert!(tl.is_free(2, 0.0, 100.0));
        assert!(tl.is_free(0, 10.0, 20.0), "touching endpoints are free");
        assert_eq!(tl.free_set(0.0, 10.0).to_vec(), vec![2]);
        assert_eq!(tl.free_set(10.0, 20.0).to_vec(), vec![0, 1, 2]);
    }

    #[test]
    fn holes_between_bookings_are_found() {
        let mut tl = Timeline::new(1);
        tl.occupy(&set(&[0]), 0.0, 5.0);
        tl.occupy(&set(&[0]), 20.0, 30.0);
        assert!(tl.is_free(0, 5.0, 20.0));
        assert!(tl.is_free(0, 6.0, 19.0));
        assert!(!tl.is_free(0, 4.0, 6.0));
        assert!(!tl.is_free(0, 19.0, 21.0));
        assert_eq!(tl.last_free_time(0), 30.0);
    }

    #[test]
    fn out_of_order_occupation_stays_sorted() {
        let mut tl = Timeline::new(1);
        tl.occupy(&set(&[0]), 20.0, 30.0);
        tl.occupy(&set(&[0]), 0.0, 5.0); // backfill into the earlier hole
        tl.occupy(&set(&[0]), 5.0, 20.0);
        assert_eq!(tl.bookings(0), &[(0.0, 5.0), (5.0, 20.0), (20.0, 30.0)]);
        assert!(!tl.is_free(0, 0.0, 30.0));
    }

    #[test]
    #[should_panic(expected = "double booking")]
    fn double_booking_panics() {
        let mut tl = Timeline::new(1);
        tl.occupy(&set(&[0]), 0.0, 10.0);
        tl.occupy(&set(&[0]), 5.0, 15.0);
    }

    /// Regression: at makespans near 1e9 the old purely relative tolerance
    /// (`1e-6 · finish` ≈ 1e3) forgave overlaps far longer than the tasks
    /// themselves, silently double-booking. The length-bounded tolerance
    /// must reject them loudly.
    #[test]
    #[should_panic(expected = "double booking")]
    fn long_makespan_overlap_is_not_forgiven() {
        let mut tl = Timeline::new(1);
        tl.occupy(&set(&[0]), 1.0e9, 1.0e9 + 10.0);
        // Overlaps the previous booking by 7 time units — far below the
        // 1e-6-relative slack (~1e3) but most of the task's duration.
        tl.occupy(&set(&[0]), 1.0e9 + 3.0, 1.0e9 + 13.0);
    }

    #[test]
    fn long_makespan_freeness_is_length_aware() {
        let mut tl = Timeline::new(1);
        tl.occupy(&set(&[0]), 1.0e9, 1.0e9 + 10.0);
        // Under the old relative-only eps this interval looked free.
        assert!(!tl.is_free(0, 1.0e9 + 3.0, 1.0e9 + 13.0));
        // Touching placement stays free, as at small scales.
        assert!(tl.is_free(0, 1.0e9 + 10.0, 1.0e9 + 20.0));
        tl.occupy(&set(&[0]), 1.0e9 + 10.0, 1.0e9 + 20.0);
        assert_eq!(
            tl.bookings(0),
            &[(1.0e9, 1.0e9 + 10.0), (1.0e9 + 10.0, 1.0e9 + 20.0)]
        );
    }

    #[test]
    fn candidate_times_are_ready_time_plus_ends() {
        let mut tl = Timeline::new(2);
        tl.occupy(&set(&[0]), 0.0, 5.0);
        tl.occupy(&set(&[1]), 0.0, 8.0);
        tl.occupy(&set(&[0]), 5.0, 12.0);
        assert_eq!(tl.candidate_times(2.0), vec![2.0, 5.0, 8.0, 12.0]);
        assert_eq!(tl.candidate_times(8.0), vec![8.0, 12.0]);
        assert_eq!(tl.candidate_times(50.0), vec![50.0]);
    }

    #[test]
    fn candidate_horizon_cuts_off_the_tail() {
        let mut tl = Timeline::new(2);
        tl.occupy(&set(&[0]), 0.0, 5.0);
        tl.occupy(&set(&[1]), 0.0, 8.0);
        tl.occupy(&set(&[0]), 5.0, 12.0);
        assert_eq!(tl.candidate_times_below(2.0, 8.0), vec![2.0, 5.0]);
        assert_eq!(tl.candidate_times_below(2.0, 8.5), vec![2.0, 5.0, 8.0]);
        assert_eq!(tl.candidate_times_below(9.0, 9.0), Vec::<f64>::new());
        // The cursor honors a horizon that tightens mid-scan.
        let mut c = tl.candidates_after(0.0);
        assert_eq!(c.next_below(f64::INFINITY), Some(0.0));
        assert_eq!(c.next_below(f64::INFINITY), Some(5.0));
        assert_eq!(c.next_below(9.0), Some(8.0));
        assert_eq!(c.next_below(9.0), None, "12.0 is past the horizon");
    }

    #[test]
    fn event_list_matches_bookings_under_interleaved_inserts() {
        let mut tl = Timeline::new(3);
        tl.occupy(&set(&[2]), 6.0, 9.0);
        tl.occupy(&set(&[0, 1]), 0.0, 4.0);
        tl.occupy(&set(&[0]), 4.0, 6.0);
        tl.occupy(&set(&[1]), 30.0, 31.0);
        assert_eq!(tl.candidate_times(0.0), vec![0.0, 4.0, 6.0, 9.0, 31.0]);
        assert_eq!(tl.candidate_times(5.0), vec![5.0, 6.0, 9.0, 31.0]);
    }

    #[test]
    fn zero_length_interval_is_fine() {
        let mut tl = Timeline::new(1);
        tl.occupy(&set(&[0]), 3.0, 3.0);
        assert!(tl.is_free(0, 0.0, 10.0));
    }
}
