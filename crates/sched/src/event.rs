//! The deterministic event queue at the heart of the runtime.
//!
//! A discrete-event simulation is only as reproducible as its event
//! ordering. Two events at the *same* simulated time are ordered by a
//! monotonically increasing sequence number assigned at push time, so the
//! ordering is a pure function of the (deterministic) push order — never
//! of heap internals, float rounding in comparisons, or thread timing.
//! `f64::total_cmp` gives the time comparison a total order, so the queue
//! never has to answer "are these floats equal?".

use std::cmp::Ordering;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What happens at an event's timestamp.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A job from the trace arrives in the queue.
    Arrival {
        /// Index into the runtime's job table.
        job: usize,
    },
    /// A running job's fluid work reaches zero — valid only if the job's
    /// epoch still matches (every re-solve bumps the epoch and schedules a
    /// fresh completion, orphaning this one).
    Completion {
        /// Index into the runtime's job table.
        job: usize,
        /// The job epoch this prediction was made under.
        epoch: u64,
    },
    /// A scenario perturbation (drift step, sensor fault, cap shock,
    /// module failure/replacement) fires.
    Scenario {
        /// Index into the installed scenario runtime's event list.
        idx: usize,
    },
}

/// An event with its position in simulated time and in push order.
#[derive(Debug, Clone)]
struct QueuedEvent {
    time: f64,
    seq: u64,
    event: Event,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for QueuedEvent {}

impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time.total_cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}

/// A min-heap of events ordered by `(time, push sequence)`.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<QueuedEvent>>,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedule `event` at simulated time `time` (seconds). Events pushed
    /// later sort after events pushed earlier at the same timestamp.
    pub fn push(&mut self, time: f64, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(QueuedEvent { time, seq, event }));
    }

    /// Pop the earliest event, if any.
    pub fn pop(&mut self) -> Option<(f64, Event)> {
        self.heap.pop().map(|Reverse(q)| (q.time, q.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, Event::Arrival { job: 3 });
        q.push(1.0, Event::Arrival { job: 1 });
        q.push(2.0, Event::Arrival { job: 2 });
        let order: Vec<f64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(order, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn ties_break_by_push_order() {
        let mut q = EventQueue::new();
        for job in 0..10 {
            q.push(5.0, Event::Arrival { job });
        }
        let order: Vec<usize> = std::iter::from_fn(|| {
            q.pop().map(|(_, e)| match e {
                Event::Arrival { job } => job,
                _ => usize::MAX,
            })
        })
        .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_pushes_stay_deterministic() {
        // same inputs → same pop order, regardless of interleaving with pops
        let mut q = EventQueue::new();
        q.push(2.0, Event::Arrival { job: 0 });
        q.push(1.0, Event::Scenario { idx: 0 });
        assert!(matches!(q.pop(), Some((_, Event::Scenario { .. }))));
        q.push(1.5, Event::Completion { job: 0, epoch: 0 });
        assert!(matches!(q.pop(), Some((t, Event::Completion { .. })) if t == 1.5));
        assert!(q.pop().is_some());
        assert!(q.pop().is_none());
    }

    #[test]
    fn total_cmp_handles_denormal_times() {
        let mut q = EventQueue::new();
        q.push(0.0, Event::Arrival { job: 0 });
        q.push(-0.0, Event::Arrival { job: 1 });
        // -0.0 < 0.0 under total_cmp: job 1 pops first
        assert!(matches!(q.pop(), Some((_, Event::Arrival { job: 1 }))));
        assert!(matches!(q.pop(), Some((_, Event::Arrival { job: 0 }))));
    }
}
