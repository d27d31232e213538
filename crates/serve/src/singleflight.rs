//! Single-flight deduplication of identical in-flight computations.
//!
//! The first caller to [`SingleFlight::join`] a key becomes the **leader**
//! and is handed a [`Leader`] token; everyone joining the same key before
//! the leader publishes becomes a **follower** holding a [`Follower`]
//! handle.  The leader computes once and [`Leader::publish`]es; every
//! follower's [`Follower::wait`] then returns a clone of the value.
//!
//! If the leader's computation panics (or its token is otherwise dropped
//! without publishing), followers receive `None` and are expected to fall
//! back to computing the value themselves — a failed leader must never
//! strand its followers.
//!
//! The intended protocol for batch users (the service resolver) is: join
//! every key first, compute and publish all led keys, and only then wait on
//! followed keys.  Publishing before waiting makes cross-request
//! leader/follower cycles impossible, so the map is deadlock-free.
//!
//! The internal locks **recover from poisoning**: a panic inside a
//! critical section here (or in a caller holding a guard across a panic in
//! the leader's drop path) marks the mutex poisoned, but the protected
//! state — a `HashMap` of `Arc`s and a two-variant enum — is never left
//! mid-mutation by any operation in this module, so the value inside a
//! poisoned lock is still consistent.  Propagating the poison would turn
//! one worker's panic into a panic in *every* thread that touches the map
//! (the exact cascade the catch-unwind worker isolation exists to prevent);
//! recovering keeps the failure contained to the request that caused it.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Lock with poison recovery (see the module docs for why that is sound
/// here).
fn lock_recovering<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

enum FlightState<V> {
    Pending,
    Done(Option<V>),
}

struct Flight<V> {
    state: Mutex<FlightState<V>>,
    done: Condvar,
}

/// A map of in-flight computations.
///
/// The key must carry the *full* identity of the computation — the service
/// keys on the canonical cache-key string, not its 64-bit digest, so a
/// digest collision can never hand one point's result to another (the same
/// invariant the on-disk cache enforces by verifying the stored key).
pub struct SingleFlight<K, V> {
    inflight: Mutex<HashMap<K, Arc<Flight<V>>>>,
}

/// The outcome of joining a key.
pub enum Join<'sf, K: Eq + Hash, V> {
    /// This caller computes the value and must publish it.
    Leader(Leader<'sf, K, V>),
    /// Another caller is already computing; wait for its result.
    Follower(Follower<V>),
}

/// The leader's obligation to publish (fulfilled automatically with a
/// failure marker on drop).
pub struct Leader<'sf, K: Eq + Hash, V> {
    owner: &'sf SingleFlight<K, V>,
    key: K,
    flight: Arc<Flight<V>>,
    published: bool,
}

/// A follower's claim on the leader's eventual result.
pub struct Follower<V> {
    flight: Arc<Flight<V>>,
}

impl<K: Eq + Hash + Clone, V> SingleFlight<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        SingleFlight {
            inflight: Mutex::new(HashMap::new()),
        }
    }

    /// Join the flight for `key`: the first joiner leads, later joiners
    /// follow.
    pub fn join(&self, key: K) -> Join<'_, K, V> {
        let mut inflight = lock_recovering(&self.inflight);
        if let Some(flight) = inflight.get(&key) {
            return Join::Follower(Follower {
                flight: Arc::clone(flight),
            });
        }
        let flight = Arc::new(Flight {
            state: Mutex::new(FlightState::Pending),
            done: Condvar::new(),
        });
        inflight.insert(key.clone(), Arc::clone(&flight));
        Join::Leader(Leader {
            owner: self,
            key,
            flight,
            published: false,
        })
    }

    /// Number of keys currently in flight.
    pub fn len(&self) -> usize {
        lock_recovering(&self.inflight).len()
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Callers currently following `key`'s flight (the map and the leader
    /// hold the other two references).  Tests use it to order threads.
    #[cfg(test)]
    pub(crate) fn followers(&self, key: &K) -> usize {
        lock_recovering(&self.inflight)
            .get(key)
            .map_or(0, |flight| Arc::strong_count(flight) - 2)
    }
}

impl<K: Eq + Hash + Clone, V> Default for SingleFlight<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash, V> Leader<'_, K, V> {
    /// Publish the computed value: wake every follower and retire the key.
    pub fn publish(mut self, value: V) {
        self.finish(Some(value));
    }

    fn finish(&mut self, value: Option<V>) {
        // Retire the key first so late joiners (who will re-check the cache
        // and find the stored result) start a fresh flight instead of
        // waiting on a finished one.
        lock_recovering(&self.owner.inflight).remove(&self.key);
        *lock_recovering(&self.flight.state) = FlightState::Done(value);
        self.flight.done.notify_all();
        self.published = true;
    }
}

impl<K: Eq + Hash, V> Drop for Leader<'_, K, V> {
    fn drop(&mut self) {
        if !self.published {
            // The leader failed (panicked or bailed): signal followers to
            // compute for themselves rather than stranding them.
            self.finish(None);
        }
    }
}

impl<V: Clone> Follower<V> {
    /// Block until the leader publishes; `None` means the leader failed and
    /// the caller must compute the value itself.
    pub fn wait(self) -> Option<V> {
        let mut state = lock_recovering(&self.flight.state);
        loop {
            match &*state {
                FlightState::Done(value) => return value.clone(),
                FlightState::Pending => {
                    state = self
                        .flight
                        .done
                        .wait(state)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn first_joiner_leads_and_followers_receive_the_value() {
        let flights: SingleFlight<u64, u64> = SingleFlight::new();
        let leader = match flights.join(7) {
            Join::Leader(leader) => leader,
            Join::Follower(_) => panic!("first joiner must lead"),
        };
        assert_eq!(flights.len(), 1);

        let computed = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let mut waiters = Vec::new();
            for _ in 0..4 {
                let follower = match flights.join(7) {
                    Join::Follower(follower) => follower,
                    Join::Leader(_) => panic!("later joiners must follow"),
                };
                let computed = &computed;
                waiters.push(scope.spawn(move || {
                    assert_eq!(follower.wait(), Some(42));
                    computed.fetch_add(1, Ordering::Relaxed);
                }));
            }
            leader.publish(42);
            for waiter in waiters {
                waiter.join().unwrap();
            }
        });
        assert_eq!(computed.load(Ordering::Relaxed), 4);
        assert!(flights.is_empty(), "published keys retire");
    }

    #[test]
    fn a_dropped_leader_releases_followers_with_none() {
        let flights: SingleFlight<u64, u64> = SingleFlight::new();
        let leader = match flights.join(1) {
            Join::Leader(leader) => leader,
            Join::Follower(_) => unreachable!(),
        };
        let follower = match flights.join(1) {
            Join::Follower(follower) => follower,
            Join::Leader(_) => unreachable!(),
        };
        drop(leader); // the leader "panicked"
        assert_eq!(follower.wait(), None, "followers must not be stranded");
        assert!(flights.is_empty());
        // The key is free again: the follower can retry as the new leader.
        assert!(matches!(flights.join(1), Join::Leader(_)));
    }

    /// Regression test for poisoned-lock handling: a leader that panics
    /// while holding its token poisons nothing visible to followers, and a
    /// follower joining *after* the panic neither panics on the poisoned
    /// mutex nor deadlocks — it is released with `None`, retries, becomes
    /// the new leader and completes the flight.
    #[test]
    fn a_panicking_leader_fails_over_to_a_follower() {
        static FLIGHTS: std::sync::OnceLock<SingleFlight<u64, u64>> = std::sync::OnceLock::new();
        let flights = FLIGHTS.get_or_init(SingleFlight::new);

        let leader = match flights.join(9) {
            Join::Leader(leader) => leader,
            Join::Follower(_) => unreachable!(),
        };
        let follower = match flights.join(9) {
            Join::Follower(follower) => follower,
            Join::Leader(_) => unreachable!(),
        };

        // The leader panics mid-computation on its own thread; its token's
        // Drop runs during unwinding and touches both internal locks.
        let crash = std::thread::spawn(move || {
            let _leader = leader;
            panic!("simulated leader crash");
        });
        assert!(crash.join().is_err(), "the leader thread must panic");

        // The follower is released, not stranded...
        assert_eq!(follower.wait(), None, "failed leaders release followers");
        // ...and the map is fully usable afterwards: joining again leads,
        // publishing completes, and a new follower receives the value.
        let retry = match flights.join(9) {
            Join::Leader(leader) => leader,
            Join::Follower(_) => panic!("the key must be free after the failure"),
        };
        let second = match flights.join(9) {
            Join::Follower(follower) => follower,
            Join::Leader(_) => unreachable!(),
        };
        retry.publish(99);
        assert_eq!(second.wait(), Some(99), "failover completes the flight");
        assert!(flights.is_empty());
    }

    #[test]
    fn distinct_keys_fly_independently() {
        let flights: SingleFlight<u64, &'static str> = SingleFlight::new();
        let a = match flights.join(1) {
            Join::Leader(leader) => leader,
            Join::Follower(_) => unreachable!(),
        };
        let b = match flights.join(2) {
            Join::Leader(leader) => leader,
            Join::Follower(_) => unreachable!(),
        };
        assert_eq!(flights.len(), 2);
        a.publish("a");
        assert_eq!(flights.len(), 1);
        b.publish("b");
        assert!(flights.is_empty());
    }
}
