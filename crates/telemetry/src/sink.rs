//! Event sinks: where cycle-stamped events go.
//!
//! The simulator emits through the [`Sink`] trait; the implementation picks
//! the cost model. [`NullSink`] discards (the default — zero overhead), and
//! [`RingSink`] keeps the most recent N events in memory for post-run
//! export.

use crate::event::{Event, TimedEvent};
use moca_common::Cycle;
use std::collections::VecDeque;

/// Receives cycle-stamped events. Implementations must be purely
/// observational: emitting may never influence the simulation.
pub trait Sink {
    /// Record one event at cycle `at`.
    fn emit(&mut self, at: Cycle, event: Event);

    /// Take every buffered event out of the sink. Sinks that keep nothing
    /// return an empty vector.
    fn drain(&mut self) -> Vec<TimedEvent> {
        Vec::new()
    }
}

/// Discards every event.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl Sink for NullSink {
    fn emit(&mut self, _at: Cycle, _event: Event) {}
}

/// Bounded in-memory ring buffer: keeps the most recent `capacity` events
/// and counts how many older ones were overwritten.
#[derive(Debug)]
pub struct RingSink {
    capacity: usize,
    buf: VecDeque<TimedEvent>,
    dropped: u64,
}

impl RingSink {
    /// Ring holding at most `capacity` events (`capacity` must be > 0).
    pub fn new(capacity: usize) -> RingSink {
        assert!(capacity > 0, "ring sink needs capacity");
        RingSink {
            capacity,
            buf: VecDeque::with_capacity(capacity.min(4096)),
            dropped: 0,
        }
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterate the buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TimedEvent> {
        self.buf.iter()
    }
}

impl Sink for RingSink {
    fn emit(&mut self, at: Cycle, event: Event) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(TimedEvent { at, event });
    }

    fn drain(&mut self) -> Vec<TimedEvent> {
        self.buf.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(core: u32) -> Event {
        Event::MshrFullStall { core }
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let mut ring = RingSink::new(3);
        for i in 0..5 {
            ring.emit(i as Cycle, ev(i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let ats: Vec<Cycle> = ring.events().map(|t| t.at).collect();
        assert_eq!(ats, vec![2, 3, 4]);
        let drained = ring.drain();
        assert_eq!(drained.len(), 3);
        assert!(ring.is_empty());
    }
}
