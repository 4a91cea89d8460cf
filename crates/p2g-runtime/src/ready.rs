//! The age-priority ready queue between the dependency analyzers and the
//! workers of a [`crate::pool::WorkerPool`].
//!
//! Entries are ordered by (age, kernel, arrival): lower ages first, as in
//! the paper's prototype — this guarantees that kernels satisfying their
//! own dependencies through aging cycles (mul2/plus5) never starve
//! fetch-less kernels or each other. Pool entries carry (node, unit) pairs
//! and rank by the unit's age, so on a pool shared by several tenants a
//! saturated session's high-age backlog stays behind every other session's
//! low-age work — the fairness property the two-tenant tests pin down.

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;

use parking_lot::{Condvar, Mutex};

/// The default (and middle) QoS priority class; entries that do not
/// override [`Ranked::rank_class`] rank here.
pub(crate) const QOS_CLASS_NORMAL: u8 = 1;

/// Payloads the queue knows how to rank. The full rank is
/// `(class, vtime, age, kernel, seq)`, lowest first: `class` is a strict
/// priority level, `vtime` a start-time-fair-queueing virtual time within
/// the class (weighted fair shares across tenants), then the original
/// (age, kernel, arrival) discipline. The class/vtime defaults keep every
/// pre-QoS payload at `(QOS_CLASS_NORMAL, 0)` — i.e. pure age ranking,
/// exactly the old behavior.
pub trait Ranked {
    /// The age this entry runs at (ascending).
    fn rank_age(&self) -> u64;
    /// The kernel id (ascending).
    fn rank_kernel(&self) -> u32;
    /// Strict priority class: entries of a lower class always pop before
    /// any entry of a higher class.
    fn rank_class(&self) -> u8 {
        QOS_CLASS_NORMAL
    }
    /// Fair-queueing virtual start time within the class; 0 (the default)
    /// ranks at the front of the class.
    fn rank_vtime(&self) -> u64 {
        0
    }
}

/// Min-heap entry: compares only the (class, vtime, age, kernel, seq)
/// rank, never the payload.
struct Entry<T> {
    class: u8,
    vtime: u64,
    age: u64,
    kernel: u32,
    seq: u64,
    payload: T,
}

impl<T> Entry<T> {
    fn rank(&self) -> (u8, u64, u64, u32, u64) {
        (self.class, self.vtime, self.age, self.kernel, self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.rank() == other.rank()
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Reversed: BinaryHeap is a max-heap, we want the lowest rank first.
        other.rank().cmp(&self.rank())
    }
}

struct Inner<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
    closed: bool,
}

/// Age-priority blocking queue.
pub struct ReadyQueue<T: Ranked> {
    inner: Mutex<Inner<T>>,
    cond: Condvar,
}

impl<T: Ranked> Default for ReadyQueue<T> {
    fn default() -> ReadyQueue<T> {
        ReadyQueue::new()
    }
}

impl<T: Ranked> ReadyQueue<T> {
    /// Empty queue.
    pub fn new() -> ReadyQueue<T> {
        ReadyQueue {
            inner: Mutex::new(Inner {
                heap: BinaryHeap::new(),
                seq: 0,
                closed: false,
            }),
            cond: Condvar::new(),
        }
    }

    /// Push an entry; wakes one waiting worker.
    pub fn push(&self, payload: T) {
        let mut g = self.inner.lock();
        let entry = Entry {
            class: payload.rank_class(),
            vtime: payload.rank_vtime(),
            age: payload.rank_age(),
            kernel: payload.rank_kernel(),
            seq: g.seq,
            payload,
        };
        g.seq += 1;
        g.heap.push(entry);
        drop(g);
        self.cond.notify_one();
    }

    /// Pop the lowest-age entry, blocking until one is available or the
    /// queue is closed. `None` means shutdown (remaining entries still
    /// drain first).
    pub fn pop(&self) -> Option<T> {
        let mut g = self.inner.lock();
        loop {
            if let Some(entry) = g.heap.pop() {
                return Some(entry.payload);
            }
            if g.closed {
                return None;
            }
            self.cond.wait(&mut g);
        }
    }

    /// Non-blocking pop (used by single-threaded drivers and tests).
    pub fn try_pop(&self) -> Option<T> {
        self.inner.lock().heap.pop().map(|e| e.payload)
    }

    /// Close the queue; blocked and future pops return `None` once drained.
    pub fn close(&self) {
        self.inner.lock().closed = true;
        self.cond.notify_all();
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.inner.lock().heap.len()
    }

    /// True when no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A payload ranked like a pool task without QoS: by (age, kernel).
    struct Unit {
        kernel: u32,
        age: u64,
        tag: u32,
    }
    impl Ranked for Unit {
        fn rank_age(&self) -> u64 {
            self.age
        }
        fn rank_kernel(&self) -> u32 {
            self.kernel
        }
    }

    fn unit(kernel: u32, age: u64) -> Unit {
        Unit { kernel, age, tag: 0 }
    }

    #[test]
    fn pops_lowest_age_first() {
        let q = ReadyQueue::new();
        q.push(unit(0, 3));
        q.push(unit(1, 1));
        q.push(unit(2, 2));
        assert_eq!(q.try_pop().unwrap().age, 1);
        assert_eq!(q.try_pop().unwrap().age, 2);
        assert_eq!(q.try_pop().unwrap().age, 3);
        assert!(q.try_pop().is_none());
    }

    #[test]
    fn fifo_within_same_age_and_kernel() {
        let q = ReadyQueue::new();
        q.push(Unit { tag: 1, ..unit(0, 0) });
        q.push(Unit { tag: 2, ..unit(0, 0) });
        assert_eq!(q.try_pop().unwrap().tag, 1);
        assert_eq!(q.try_pop().unwrap().tag, 2);
    }

    #[test]
    fn close_unblocks_poppers() {
        let q = Arc::new(ReadyQueue::<Unit>::new());
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        assert!(h.join().unwrap().is_none());
    }

    #[test]
    fn pop_after_close_drains_remaining() {
        let q = ReadyQueue::new();
        q.push(unit(0, 0));
        q.close();
        assert!(q.pop().is_some());
        assert!(q.pop().is_none());
    }

    #[test]
    fn len_tracking() {
        let q = ReadyQueue::new();
        assert!(q.is_empty());
        q.push(unit(0, 0));
        assert_eq!(q.len(), 1);
    }

    /// Cross-payload ranking: generic entries interleave by age — the
    /// property the multi-tenant pool relies on.
    struct Tagged(u64, &'static str);
    impl Ranked for Tagged {
        fn rank_age(&self) -> u64 {
            self.0
        }
        fn rank_kernel(&self) -> u32 {
            0
        }
    }

    #[test]
    fn generic_payloads_rank_by_age() {
        let q: ReadyQueue<Tagged> = ReadyQueue::new();
        q.push(Tagged(9, "laggard"));
        q.push(Tagged(2, "fresh"));
        q.push(Tagged(5, "middle"));
        assert_eq!(q.try_pop().unwrap().1, "fresh");
        assert_eq!(q.try_pop().unwrap().1, "middle");
        assert_eq!(q.try_pop().unwrap().1, "laggard");
    }

    /// QoS-aware payload: class and vtime come before age.
    struct Classed {
        class: u8,
        vtime: u64,
        age: u64,
        tag: &'static str,
    }
    impl Ranked for Classed {
        fn rank_age(&self) -> u64 {
            self.age
        }
        fn rank_kernel(&self) -> u32 {
            0
        }
        fn rank_class(&self) -> u8 {
            self.class
        }
        fn rank_vtime(&self) -> u64 {
            self.vtime
        }
    }

    #[test]
    fn lower_class_always_pops_first() {
        let q: ReadyQueue<Classed> = ReadyQueue::new();
        q.push(Classed { class: 2, vtime: 0, age: 0, tag: "bulk" });
        q.push(Classed { class: 0, vtime: 99, age: 50, tag: "rt" });
        q.push(Classed { class: 1, vtime: 1, age: 1, tag: "normal" });
        assert_eq!(q.try_pop().unwrap().tag, "rt");
        assert_eq!(q.try_pop().unwrap().tag, "normal");
        assert_eq!(q.try_pop().unwrap().tag, "bulk");
    }

    #[test]
    fn vtime_orders_within_class_before_age() {
        let q: ReadyQueue<Classed> = ReadyQueue::new();
        q.push(Classed { class: 1, vtime: 20, age: 0, tag: "heavy" });
        q.push(Classed { class: 1, vtime: 10, age: 9, tag: "light" });
        assert_eq!(q.try_pop().unwrap().tag, "light");
        assert_eq!(q.try_pop().unwrap().tag, "heavy");
    }

    /// How long a stress test waits for a worker's result: far beyond the
    /// work itself, so only a lost wake-up (a popper parked forever) runs
    /// into it.
    const HANG: std::time::Duration = std::time::Duration::from_secs(60);

    /// 100k hand-offs between two threads over a pair of queues: each
    /// `pop` parks unless the other side was quicker, and every park needs
    /// the wake of the matching `push`.
    #[test]
    fn wakeup_ready_queue_ping_pong() {
        const ROUNDS: u32 = 50_000;
        let ping = Arc::new(ReadyQueue::<Unit>::new());
        let pong = Arc::new(ReadyQueue::<Unit>::new());
        let (done, results) = std::sync::mpsc::channel();
        for first in [true, false] {
            let (ping, pong, done) = (ping.clone(), pong.clone(), done.clone());
            std::thread::spawn(move || {
                for n in 0..ROUNDS {
                    if first {
                        ping.push(Unit { tag: n, ..unit(0, n.into()) });
                        assert_eq!(pong.pop().unwrap().tag, n + 1);
                    } else {
                        let u = ping.pop().unwrap();
                        pong.push(Unit { tag: u.tag + 1, ..u });
                    }
                }
                done.send(()).unwrap();
            });
        }
        for _ in 0..2 {
            results.recv_timeout(HANG).expect("lost wake-up");
        }
    }

    /// Four pushers feed one popper that parks whenever the queue runs
    /// dry; `close` then ends its last, parked `pop`.
    #[test]
    fn wakeup_ready_queue_fan_in_then_close() {
        const PER: u32 = 25_000;
        let q = Arc::new(ReadyQueue::<Unit>::new());
        let (done, result) = std::sync::mpsc::channel();
        let popper = q.clone();
        std::thread::spawn(move || {
            let mut n = 0u32;
            while popper.pop().is_some() {
                n += 1;
            }
            done.send(n).unwrap();
        });
        let pushers: Vec<_> = (0..4)
            .map(|k| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for age in 0..PER {
                        q.push(unit(k, age.into()));
                    }
                })
            })
            .collect();
        for p in pushers {
            p.join().unwrap();
        }
        q.close();
        assert_eq!(result.recv_timeout(HANG).expect("lost wake-up"), 4 * PER);
    }

    /// A `pop` parked on an empty queue returns `None` when it closes.
    #[test]
    fn wakeup_ready_queue_close_ends_parked_pop() {
        for _ in 0..200 {
            let q = Arc::new(ReadyQueue::<Unit>::new());
            let (done, result) = std::sync::mpsc::channel();
            let popper = q.clone();
            std::thread::spawn(move || done.send(popper.pop().is_none()).unwrap());
            std::thread::yield_now();
            q.close();
            assert_eq!(result.recv_timeout(HANG), Ok(true), "lost wake-up");
        }
    }
}
