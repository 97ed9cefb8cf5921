//! A deterministic time-ordered event queue.
//!
//! The event-driven datacenter front end ([`crate::service`]) needs a
//! priority queue over `f64` timestamps with two properties the standard
//! [`std::collections::BinaryHeap`] does not give directly:
//!
//! * **Total order over floats** — timestamps are compared with
//!   [`f64::total_cmp`], so the queue never panics on exotic values and the
//!   order is a genuine total order.
//! * **Stable ties** — events scheduled for the same instant pop in
//!   insertion order (a monotone sequence number breaks ties), so replaying
//!   the same schedule always produces the same event order and the
//!   simulation stays bit-reproducible.
//!
//! The queue is generic over the event payload and makes no assumptions
//! about it; the service layer uses it for VM arrivals and departures.

/// A min-heap of `(time, event)` pairs with stable FIFO tie-breaking.
#[derive(Debug, Clone)]
pub(crate) struct EventQueue<E> {
    heap: std::collections::BinaryHeap<Entry<E>>,
    /// Monotone insertion counter; the tie-breaker that makes same-instant
    /// events pop in the order they were pushed.
    seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    at: f64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at.total_cmp(&other.at).is_eq() && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first, and
        // among equal instants the lowest sequence number (pushed first).
        other
            .at
            .total_cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub(crate) fn new() -> Self {
        Self {
            heap: std::collections::BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at instant `at` (seconds).  Instants may arrive in
    /// any order; equal instants preserve push order on pop.
    pub(crate) fn push(&mut self, at: f64, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Removes and returns the earliest event.
    pub(crate) fn pop(&mut self) -> Option<(f64, E)> {
        self.heap.pop().map(|e| (e.at, e.event))
    }

    /// Removes and returns the earliest event only if it is due at or
    /// before `deadline` — the event loop's "drain everything up to the
    /// epoch boundary" primitive.
    pub(crate) fn pop_due(&mut self, deadline: f64) -> Option<(f64, E)> {
        if self.next_at()? <= deadline {
            self.pop()
        } else {
            None
        }
    }

    /// Instant of the earliest pending event, if any.
    pub(crate) fn next_at(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.at)
    }

    /// True when no events are pending.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.push(5.0, "c");
        q.push(1.0, "a");
        q.push(3.0, "b");
        assert_eq!(q.heap.len(), 3);
        assert_eq!(q.next_at(), Some(1.0));
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((3.0, "b")));
        assert_eq!(q.pop(), Some((5.0, "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn same_instant_preserves_push_order() {
        let mut q = EventQueue::new();
        for i in 0..32 {
            q.push(2.5, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn pop_due_respects_the_deadline() {
        let mut q = EventQueue::new();
        q.push(1.0, 'x');
        q.push(2.0, 'y');
        q.push(10.0, 'z');
        assert_eq!(q.pop_due(2.0), Some((1.0, 'x')));
        assert_eq!(q.pop_due(2.0), Some((2.0, 'y')));
        assert_eq!(q.pop_due(2.0), None, "z is after the deadline");
        assert_eq!(q.heap.len(), 1);
        assert_eq!(q.pop_due(f64::INFINITY), Some((10.0, 'z')));
        assert_eq!(q.pop_due(f64::INFINITY), None, "empty queue");
    }

    #[test]
    fn exotic_floats_do_not_panic_the_order() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, "nan");
        q.push(0.0, "zero");
        q.push(f64::NEG_INFINITY, "neg-inf");
        assert_eq!(q.pop(), Some((f64::NEG_INFINITY, "neg-inf")));
        assert_eq!(q.pop().map(|(_, e)| e), Some("zero"));
        // total_cmp orders NaN after every finite value.
        assert_eq!(q.pop().map(|(_, e)| e), Some("nan"));
    }

    #[test]
    fn default_is_empty() {
        let q: EventQueue<u8> = EventQueue::default();
        assert!(q.is_empty());
        assert_eq!(q.next_at(), None);
    }
}
