//! Admission control, weighted fair queueing across tenants, and the
//! execution-slot gate built on the same lanes.
//!
//! Classic virtual-time WFQ, one lane per tenant: each tenant carries a
//! virtual finish time that advances by `1 / weight` per dispatched
//! request, and dispatch always pops the non-empty lane with the
//! smallest virtual time. A tenant whose lane went idle re-enters at the
//! scheduler's current virtual clock (no credit hoarding), so a flooding
//! tenant with weight `w_f` can never push a trickle tenant with weight
//! `w_t` further behind than the configured `w_f : w_t` service ratio —
//! the starvation bound the fairness test pins.
//!
//! Admission control is a per-lane depth cap: an enqueue into a full lane
//! is refused *before* it costs a queue slot, and the caller answers the
//! request degraded-with-provenance instead (see `server.rs`). Refusals
//! are never silent drops.
//!
//! The server uses the lanes as a gate of execution slots
//! (`FairQueue::admit`): a thread that finds a free slot and no parked
//! waiter takes it at once, charging its lane's virtual time exactly as
//! a dispatch would, and runs the request on its own stack. Otherwise it
//! parks in its lane, under the same cap and drain refusals as
//! [`FairQueue::enqueue`]. Dropping a `Slot` — also while unwinding from
//! a panic — dispatches the parked waiter with the smallest virtual time
//! and hands it the slot directly, so parked requests are served in the
//! weighted-fair order [`FairQueue::dequeue`] uses.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, Thread};
use std::time::Instant;

/// One tenant's scheduling configuration.
#[derive(Clone, Debug)]
pub struct TenantConfig {
    pub name: String,
    /// Relative service share; dispatching one request advances the
    /// lane's virtual time by `1 / weight`.
    pub weight: u32,
    /// Admission cap: the lane holds at most this many queued requests.
    pub queue_cap: usize,
}

impl TenantConfig {
    pub fn new(name: impl Into<String>, weight: u32, queue_cap: usize) -> Self {
        Self {
            name: name.into(),
            weight: weight.max(1),
            queue_cap: queue_cap.max(1),
        }
    }
}

/// Why an enqueue was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Refusal {
    /// The tenant's lane is at its admission cap.
    LaneFull,
    /// The server is draining for shutdown; no new work is admitted.
    Draining,
}

struct Lane<T> {
    weight: f64,
    cap: usize,
    /// Virtual finish time of the lane's last dispatched request.
    vtime: f64,
    queue: VecDeque<T>,
}

struct Inner<T> {
    lanes: Vec<Lane<T>>,
    /// The scheduler's virtual clock: the vtime of the most recently
    /// dispatched request. Idle lanes catch up to it on re-entry.
    vclock: f64,
    depth: usize,
    /// Execution slots held right now. A waiter parks only while every
    /// slot is held, so in a gate `depth > 0` implies `held == slots`.
    held: usize,
    draining: bool,
    shutdown: bool,
}

impl<T> Inner<T> {
    /// Queues `item` in `lane` and returns the total depth after it.
    fn push(&mut self, lane: usize, item: T) -> Result<usize, (T, Refusal)> {
        if self.draining {
            return Err((item, Refusal::Draining));
        }
        let vclock = self.vclock;
        let l = &mut self.lanes[lane];
        if l.queue.len() >= l.cap {
            return Err((item, Refusal::LaneFull));
        }
        if l.queue.is_empty() {
            // Re-entry after idling: no banked credit from the past.
            l.vtime = l.vtime.max(vclock);
        }
        l.queue.push_back(item);
        self.depth += 1;
        Ok(self.depth)
    }

    /// Dispatches the head of the non-empty lane with the smallest
    /// virtual time, charging that lane `1 / weight`.
    fn pop(&mut self) -> Option<(usize, T)> {
        if self.depth == 0 {
            return None;
        }
        let lane = self
            .lanes
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.queue.is_empty())
            .min_by(|(_, a), (_, b)| a.vtime.total_cmp(&b.vtime))
            .map(|(i, _)| i)?;
        let item = self.lanes[lane].queue.pop_front().expect("non-empty lane");
        self.depth -= 1;
        self.charge(lane);
        Some((lane, item))
    }

    fn charge(&mut self, lane: usize) {
        let l = &mut self.lanes[lane];
        l.vtime += 1.0 / l.weight;
        self.vclock = l.vtime;
    }
}

/// The shared tenant-fair work queue. `T` is the job payload; the
/// server's `FairQueue<Waiter>` holds threads parked for an execution
/// slot instead.
pub struct FairQueue<T> {
    names: Vec<String>,
    /// Execution slots `admit` hands out.
    slots: usize,
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    /// Signalled when the last held slot is released.
    idle: Condvar,
}

impl<T> FairQueue<T> {
    /// A queue with one execution slot.
    pub fn new(tenants: &[TenantConfig]) -> Self {
        Self::with_slots(tenants, 1)
    }

    /// A queue whose gate runs at most `slots` requests at once (at
    /// least one).
    pub fn with_slots(tenants: &[TenantConfig], slots: usize) -> Self {
        assert!(!tenants.is_empty(), "fair queue needs at least one tenant");
        Self {
            names: tenants.iter().map(|t| t.name.clone()).collect(),
            slots: slots.max(1),
            inner: Mutex::new(Inner {
                lanes: tenants
                    .iter()
                    .map(|t| Lane {
                        weight: f64::from(t.weight.max(1)),
                        cap: t.queue_cap.max(1),
                        vtime: 0.0,
                        queue: VecDeque::new(),
                    })
                    .collect(),
                vclock: 0.0,
                depth: 0,
                held: 0,
                draining: false,
                shutdown: false,
            }),
            ready: Condvar::new(),
            idle: Condvar::new(),
        }
    }

    /// Resolves a tenant name to its lane index, if configured.
    pub fn lane_of(&self, tenant: &str) -> Option<usize> {
        self.names.iter().position(|n| n == tenant)
    }

    pub fn tenant_name(&self, lane: usize) -> &str {
        &self.names[lane]
    }

    pub fn tenant_names(&self) -> &[String] {
        &self.names
    }

    /// Admits `item` into `lane`. `Ok(depth)` is the total queue depth
    /// *after* the insert (so `depth > 1` means the request waited behind
    /// other work); `Err` is an admission refusal — it costs nothing and
    /// hands the item back so the caller can answer it degraded.
    pub fn enqueue(&self, lane: usize, item: T) -> Result<usize, (T, Refusal)> {
        let depth = self.inner.lock().expect("queue lock").push(lane, item)?;
        self.ready.notify_one();
        Ok(depth)
    }

    /// Blocks until a job is available, returning `(lane, item)`; `None`
    /// once the queue is shut down and empty. Dispatch order is WFQ:
    /// smallest virtual time first.
    pub fn dequeue(&self) -> Option<(usize, T)> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if let Some(job) = inner.pop() {
                return Some(job);
            }
            if inner.shutdown {
                return None;
            }
            inner = self.ready.wait(inner).expect("queue lock");
        }
    }

    /// Current total queued depth.
    pub fn depth(&self) -> usize {
        self.inner.lock().expect("queue lock").depth
    }

    /// Stops admitting new work; queued work still drains.
    pub fn begin_drain(&self) {
        self.inner.lock().expect("queue lock").draining = true;
    }

    /// Stops admitting new work and wakes all consumers; `dequeue`
    /// returns `None` once empty.
    pub fn shutdown(&self) {
        {
            let mut inner = self.inner.lock().expect("queue lock");
            inner.draining = true;
            inner.shutdown = true;
        }
        self.ready.notify_all();
    }
}

/// A thread parked in its lane until a finishing request hands it a slot.
pub(crate) struct Waiter {
    thread: Thread,
    handed: Arc<AtomicBool>,
}

impl FairQueue<Waiter> {
    /// Takes an execution slot for a request of `lane`, parking the
    /// calling thread while every slot is held or another waiter is
    /// parked. Refusals are as for [`enqueue`](Self::enqueue): they cost
    /// nothing and never park.
    pub(crate) fn admit(&self, lane: usize) -> Result<Slot<'_>, Refusal> {
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.draining {
            return Err(Refusal::Draining);
        }
        if inner.held < self.slots && inner.depth == 0 {
            inner.held += 1;
            // Exactly what an enqueue into the then-only busy lane
            // followed by its dispatch would do.
            let vclock = inner.vclock;
            let l = &mut inner.lanes[lane];
            l.vtime = l.vtime.max(vclock);
            inner.charge(lane);
            return Ok(Slot {
                gate: self,
                waited: false,
            });
        }
        let handed = Arc::new(AtomicBool::new(false));
        let waiter = Waiter {
            thread: thread::current(),
            handed: handed.clone(),
        };
        inner.push(lane, waiter).map_err(|(_, refusal)| refusal)?;
        drop(inner);
        // `park` may return spuriously or on a stale unpark; only the
        // flag says the slot is ours.
        while !handed.load(Ordering::Acquire) {
            thread::park();
        }
        Ok(Slot {
            gate: self,
            waited: true,
        })
    }

    /// Blocks until no slot is held and no waiter is parked, or until
    /// `deadline`; returns whether that state was reached. Call it after
    /// [`begin_drain`](Self::begin_drain), or new admissions can keep the
    /// gate busy.
    pub(crate) fn wait_idle(&self, deadline: Instant) -> bool {
        let mut inner = self.inner.lock().expect("queue lock");
        while inner.held > 0 || inner.depth > 0 {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            inner = self.idle.wait_timeout(inner, left).expect("queue lock").0;
        }
        true
    }
}

/// An execution slot held by the calling thread. Dropping it hands the
/// slot to the next waiter in weighted-fair order, or frees it.
pub(crate) struct Slot<'a> {
    gate: &'a FairQueue<Waiter>,
    /// Whether the holder parked for this slot instead of finding it free.
    pub(crate) waited: bool,
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        // No code panics while holding the lock, so a poisoned guard's
        // data is intact; recovering it keeps this drop from panicking.
        let mut inner = self
            .gate
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some((_, waiter)) = inner.pop() {
            // The slot passes straight to the waiter: `held` is unchanged.
            drop(inner);
            waiter.handed.store(true, Ordering::Release);
            waiter.thread.unpark();
        } else {
            inner.held -= 1;
            let idle = inner.held == 0;
            drop(inner);
            if idle {
                self.gate.idle.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn tenants(weights: &[(u32, usize)]) -> Vec<TenantConfig> {
        weights
            .iter()
            .enumerate()
            .map(|(i, &(w, cap))| TenantConfig::new(format!("t{i}"), w, cap))
            .collect()
    }

    fn q(weights: &[(u32, usize)]) -> FairQueue<u32> {
        FairQueue::new(&tenants(weights))
    }

    fn gate(weights: &[(u32, usize)], slots: usize) -> Arc<FairQueue<Waiter>> {
        Arc::new(FairQueue::with_slots(&tenants(weights), slots))
    }

    /// Spins until `n` threads are parked in the gate's lanes.
    fn await_parked(gate: &FairQueue<Waiter>, n: usize) {
        while gate.depth() < n {
            thread::yield_now();
        }
    }

    #[test]
    fn dispatch_respects_weights() {
        // Weight 3 vs weight 1, both lanes saturated: out of every 4
        // dispatches, 3 belong to the heavy tenant.
        let q = q(&[(3, 100), (1, 100)]);
        for i in 0..40u32 {
            q.enqueue(0, i).unwrap();
            q.enqueue(1, i).unwrap();
        }
        let first40: Vec<usize> = (0..40).map(|_| q.dequeue().unwrap().0).collect();
        let heavy = first40.iter().filter(|&&l| l == 0).count();
        assert_eq!(heavy, 30, "weight-3 tenant gets 3/4 of saturated service");
    }

    #[test]
    fn admission_cap_refuses_before_queueing() {
        let q = q(&[(1, 2)]);
        q.enqueue(0, 1).unwrap();
        q.enqueue(0, 2).unwrap();
        assert_eq!(q.enqueue(0, 3), Err((3, Refusal::LaneFull)));
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn idle_lane_reenters_at_vclock_without_banked_credit() {
        let q = q(&[(1, 100), (1, 100)]);
        // Tenant 0 runs alone for a while, advancing the clock.
        for i in 0..10u32 {
            q.enqueue(0, i).unwrap();
        }
        for _ in 0..10 {
            assert_eq!(q.dequeue().unwrap().0, 0);
        }
        // Tenant 1 arrives late. Without vclock catch-up it would own the
        // next 10 dispatches outright; with it, service alternates.
        for i in 0..10u32 {
            q.enqueue(0, i).unwrap();
            q.enqueue(1, i).unwrap();
        }
        let lanes: Vec<usize> = (0..4).map(|_| q.dequeue().unwrap().0).collect();
        assert!(
            lanes.contains(&0) && lanes.contains(&1),
            "late tenant must not monopolize: {lanes:?}"
        );
    }

    #[test]
    fn drain_refuses_new_work_but_serves_queued() {
        let q = q(&[(1, 10)]);
        q.enqueue(0, 7).unwrap();
        q.begin_drain();
        assert_eq!(q.enqueue(0, 8), Err((8, Refusal::Draining)));
        assert_eq!(q.dequeue().unwrap().1, 7);
        q.shutdown();
        assert!(q.dequeue().is_none());
    }

    #[test]
    fn shutdown_unblocks_waiting_workers() {
        let q = Arc::new(q(&[(1, 10)]));
        let q2 = q.clone();
        let waiter = thread::spawn(move || q2.dequeue());
        thread::sleep(Duration::from_millis(20));
        q.shutdown();
        assert!(waiter.join().unwrap().is_none());
    }

    #[test]
    fn free_slot_with_no_waiter_admits_without_parking() {
        let g = gate(&[(1, 4)], 2);
        let a = g.admit(0).unwrap();
        let b = g.admit(0).unwrap();
        assert!(!a.waited && !b.waited);
        assert_eq!(g.depth(), 0, "nothing parked");
        drop((a, b));
        assert!(g.wait_idle(Instant::now()), "both slots freed");
    }

    #[test]
    fn a_held_slot_parks_the_next_admit_until_released() {
        let g = gate(&[(1, 4)], 1);
        let held = g.admit(0).unwrap();
        let g2 = g.clone();
        let parked = thread::spawn(move || g2.admit(0).unwrap().waited);
        await_parked(&g, 1);
        drop(held);
        assert!(parked.join().unwrap(), "the second admit parked");
        assert_eq!(g.depth(), 0);
        assert!(g.wait_idle(Instant::now()));
    }

    #[test]
    fn parked_waiters_are_served_in_weight_order() {
        // One slot, lanes weighted 3:1, eight waiters parked in each lane.
        let g = gate(&[(3, 16), (1, 16)], 1);
        let held = g.admit(0).unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut threads = Vec::new();
        for lane in [0usize, 1] {
            for _ in 0..8 {
                let (g, order) = (g.clone(), order.clone());
                threads.push(thread::spawn(move || {
                    let _slot = g.admit(lane).unwrap();
                    order.lock().unwrap().push(lane);
                }));
            }
        }
        await_parked(&g, 16);
        drop(held);
        for t in threads {
            t.join().unwrap();
        }
        let order = order.lock().unwrap();
        let heavy = order[..8].iter().filter(|&&l| l == 0).count();
        assert_eq!(heavy, 6, "3:1 service while both lanes wait: {order:?}");
    }

    #[test]
    fn refusals_while_the_slot_is_held() {
        let g = gate(&[(1, 1)], 1);
        let held = g.admit(0).unwrap();
        let g2 = g.clone();
        let parked = thread::spawn(move || g2.admit(0).map(|s| s.waited));
        await_parked(&g, 1);
        assert!(matches!(g.admit(0), Err(Refusal::LaneFull)));
        g.begin_drain();
        assert!(matches!(g.admit(0), Err(Refusal::Draining)));
        // Draining refuses new work but still serves the parked waiter.
        drop(held);
        assert_eq!(parked.join().unwrap(), Ok(true));
    }

    #[test]
    fn a_panic_while_holding_a_slot_frees_it() {
        let g = gate(&[(1, 4)], 1);
        let g2 = g.clone();
        let panicked = std::panic::catch_unwind(move || {
            let _slot = g2.admit(0).unwrap();
            panic!("request failed while holding its slot");
        });
        assert!(panicked.is_err());
        assert!(g.wait_idle(Instant::now()), "the unwind released the slot");
        assert!(!g.admit(0).unwrap().waited);
    }

    #[test]
    fn wait_idle_waits_for_the_held_slot() {
        let g = gate(&[(1, 4)], 1);
        let held = g.admit(0).unwrap();
        g.begin_drain();
        assert!(
            !g.wait_idle(Instant::now() + Duration::from_millis(20)),
            "a held slot keeps the gate busy"
        );
        let g2 = g.clone();
        let waiting = thread::spawn(move || g2.wait_idle(Instant::now() + Duration::from_secs(10)));
        drop(held);
        assert!(waiting.join().unwrap(), "release ends the wait");
    }
}
