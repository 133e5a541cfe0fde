//! Global next-event table.
//!
//! Every component of the simulated machine (core pipelines, DRAM channels)
//! posts the cycle of its next self-scheduled event into one shared table
//! keyed by stable component id. The event-skip path in `System::step` then
//! answers "when is the next event after `now`?" with a single query.
//!
//! ## Structure
//!
//! The table is one dense `next[comp]` array. `post` and `cancel` are a
//! single store; [`EventWheel::next_event_after`] is a linear minimum over
//! the array. There is one component per core and per channel (20 on a
//! 16-core machine with its four channels), so the table fits in a few
//! cache lines and the minimum is a branch-light pass over them. At that
//! size this is cheaper than a bucketed timer wheel, whose per-cycle base
//! advance and stale-entry compaction cost more than scanning 20 words.
//!
//! ## Determinism
//!
//! Answers depend only on the `next[]` contents: the earliest posted cycle
//! strictly after `now`, ties going to the smallest component id. Posting
//! order never changes an answer, so the table is safe on the simulated
//! path.

use crate::Cycle;

/// See the module docs.
#[derive(Debug, Clone)]
pub struct EventWheel {
    /// Next-event cycle per component (`Cycle::MAX` = none).
    next: Vec<Cycle>,
}

impl EventWheel {
    /// A table for `components` ids, starting with no events posted.
    pub fn new(components: usize) -> EventWheel {
        EventWheel {
            next: vec![Cycle::MAX; components],
        }
    }

    /// Number of component ids the table tracks.
    pub fn components(&self) -> usize {
        self.next.len()
    }

    /// The next-event cycle posted for `comp` (`Cycle::MAX` = none).
    pub fn posted(&self, comp: usize) -> Cycle {
        self.next[comp]
    }

    /// Post component `comp`'s next event at `cycle` (`Cycle::MAX` cancels),
    /// replacing any previous posting.
    pub fn post(&mut self, comp: usize, cycle: Cycle) {
        self.next[comp] = cycle;
    }

    /// Cancel any pending event for `comp`.
    pub fn cancel(&mut self, comp: usize) {
        self.next[comp] = Cycle::MAX;
    }

    /// The earliest posted event strictly after `now` as `(cycle,
    /// component)`, without unposting it (the component re-posts when it
    /// reschedules). Ties prefer the smallest component id, making the
    /// answer independent of posting order.
    pub fn next_event_after(&self, now: Cycle) -> Option<(Cycle, usize)> {
        let mut best = (Cycle::MAX, 0);
        for (comp, &cyc) in self.next.iter().enumerate() {
            // Strict `<` keeps the first (smallest) id on ties and never
            // admits an unposted `Cycle::MAX` slot.
            if cyc > now && cyc < best.0 {
                best = (cyc, comp);
            }
        }
        (best.0 != Cycle::MAX).then_some(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_wheel_has_no_events() {
        let w = EventWheel::new(8);
        assert_eq!(w.next_event_after(0), None);
        assert_eq!(w.next_event_after(1_000_000), None);
    }

    #[test]
    fn post_and_query_in_ring() {
        let mut w = EventWheel::new(4);
        w.post(2, 10);
        w.post(1, 7);
        w.post(3, 10);
        assert_eq!(w.next_event_after(0), Some((7, 1)));
        assert_eq!(w.next_event_after(7), Some((10, 2)));
        assert_eq!(w.next_event_after(10), None);
    }

    #[test]
    fn repost_moves_event_without_duplicates() {
        let mut w = EventWheel::new(2);
        w.post(0, 5);
        w.post(0, 9);
        assert_eq!(w.next_event_after(0), Some((9, 0)));
        w.post(0, 3); // earlier than before
        assert_eq!(w.next_event_after(0), Some((3, 0)));
    }

    #[test]
    fn cancel_removes_event() {
        let mut w = EventWheel::new(2);
        w.post(0, 5);
        w.post(1, 6);
        w.cancel(0);
        assert_eq!(w.next_event_after(0), Some((6, 1)));
        w.cancel(1);
        assert_eq!(w.next_event_after(0), None);
        w.post(1, 8);
        w.post(1, Cycle::MAX); // posting `Cycle::MAX` is a cancel too
        assert_eq!(w.next_event_after(0), None);
    }

    #[test]
    fn event_at_or_before_now_is_not_returned() {
        let mut w = EventWheel::new(2);
        w.post(0, 5);
        assert_eq!(w.next_event_after(5), None);
        assert_eq!(w.next_event_after(6), None);
        w.post(1, 100);
        assert_eq!(w.next_event_after(6), Some((100, 1)));
        // The passed event is still posted: an earlier query sees it.
        assert_eq!(w.next_event_after(4), Some((5, 0)));
    }

    #[test]
    fn ties_prefer_smallest_component_id() {
        let mut w = EventWheel::new(5);
        w.post(4, 20);
        w.post(2, 20);
        w.post(3, 20);
        assert_eq!(w.next_event_after(0), Some((20, 2)));
    }
}
