//! The fault-tolerant tiered resolver chain.
//!
//! Every point the service resolves walks a chain of tiers, cheapest
//! first, and **degrades to the next tier on any failure** — the last tier
//! is local simulation, which is always available, so results are produced
//! even with the whole fleet gone:
//!
//! 1. **in-memory LRU** — bounded, per-process, digest-indexed and
//!    full-key verified;
//! 2. **on-disk [`PointCache`]** — shared with `earlyreg-exp`;
//! 3. **remote peers** — other serve nodes speaking the existing
//!    `POST /points` wire format, each hop bounded by a per-point deadline
//!    (sent as `X-Deadline-Ms`, enforced client-side), retried with capped
//!    exponential backoff + seeded jitter, and guarded by a per-peer
//!    [`CircuitBreaker`];
//! 4. **local compute** — the simulator itself.
//!
//! Correctness invariant: **results are bit-identical to a cold local run
//! no matter which tier answered.**  The memory tier is digest-indexed
//! and full-key verified (a digest collision misses); the disk tier is
//! content-addressed by the full canonical cache key.  The peer tier is
//! gated by [`peer_eligible`] (the peer derives the machine config from
//! the default Table 2 scenario, so scenario-overridden points skip the
//! peer hop) and double-checked by the `X-Point-Digest` response header:
//! a peer built from different code (different `CACHE_VERSION`, workload
//! generators, or config encoding) computes a different digest and is
//! treated as a failed hop, never as an answer.
//!
//! [`PointCache`]: earlyreg_experiments::PointCache

use crate::backoff::Backoff;
use crate::breaker::{BreakerConfig, BreakerSnapshot, CircuitBreaker};
use crate::client::{self, ClientError};
use earlyreg_experiments::engine::{PlanContext, PlannedPoint};
use earlyreg_experiments::runner::RunPoint;
use earlyreg_experiments::{CacheKey, Scenario};
use earlyreg_sim::SimStats;
use earlyreg_workloads::Scale;
use serde::value::Value;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Every key `--resolver-config` accepts, for self-diagnosing errors
/// (mirrors the `SCENARIO_KEYS` pattern in `crates/experiments`).
pub const RESOLVER_KEYS: [&str; 9] = [
    "lru_capacity",
    "deadline_ms",
    "retries",
    "backoff_base_ms",
    "backoff_cap_ms",
    "jitter_seed",
    "breaker_threshold",
    "breaker_cooldown_ms",
    "breaker_half_open",
];

/// Tunables of the resolver chain (`--resolver-config key=value[,...]`).
#[derive(Debug, Clone)]
pub struct ResolverConfig {
    /// Peer addresses (`host:port`), tried in digest-sharded order
    /// (`--peer`, repeatable; empty disables the remote tier).
    pub peers: Vec<String>,
    /// Entries held by the in-memory LRU tier (`0` disables it).
    pub lru_capacity: usize,
    /// Overall per-hop deadline (connect + write + read) in milliseconds;
    /// also sent to the peer as `X-Deadline-Ms`.
    pub deadline_ms: u64,
    /// Retries per peer beyond the first attempt.
    pub retries: u32,
    /// Backoff base delay in milliseconds.
    pub backoff_base_ms: u64,
    /// Backoff delay cap in milliseconds.
    pub backoff_cap_ms: u64,
    /// Seed of the deterministic backoff jitter (mixed with each point's
    /// digest so concurrent points do not retry in lockstep).
    pub jitter_seed: u64,
    /// Consecutive failures that trip a peer's breaker open.
    pub breaker_threshold: u32,
    /// Milliseconds an open breaker rejects before half-open probing.
    pub breaker_cooldown_ms: u64,
    /// Consecutive half-open successes required to close the breaker.
    pub breaker_half_open: u32,
}

impl Default for ResolverConfig {
    fn default() -> Self {
        ResolverConfig {
            peers: Vec::new(),
            lru_capacity: 2048,
            deadline_ms: 2000,
            retries: 1,
            backoff_base_ms: 10,
            backoff_cap_ms: 250,
            jitter_seed: 0x5eed,
            breaker_threshold: 3,
            breaker_cooldown_ms: 1000,
            breaker_half_open: 1,
        }
    }
}

impl ResolverConfig {
    /// Apply one `key=value` assignment (the `--resolver-config` format;
    /// unknown keys fail with the accepted list enumerated).
    pub fn apply(&mut self, assignment: &str) -> Result<(), String> {
        let (key, value) = assignment
            .split_once('=')
            .ok_or_else(|| format!("'{assignment}' is not a key=value assignment"))?;
        let (key, value) = (key.trim(), value.trim());
        let parse_u64 = |value: &str| -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("'{value}' is not a non-negative integer (key '{key}')"))
        };
        match key {
            "lru_capacity" => self.lru_capacity = parse_u64(value)? as usize,
            "deadline_ms" => self.deadline_ms = parse_u64(value)?.max(1),
            "retries" => self.retries = parse_u64(value)? as u32,
            "backoff_base_ms" => self.backoff_base_ms = parse_u64(value)?,
            "backoff_cap_ms" => self.backoff_cap_ms = parse_u64(value)?,
            "jitter_seed" => self.jitter_seed = parse_u64(value)?,
            "breaker_threshold" => self.breaker_threshold = (parse_u64(value)? as u32).max(1),
            "breaker_cooldown_ms" => self.breaker_cooldown_ms = parse_u64(value)?,
            "breaker_half_open" => self.breaker_half_open = (parse_u64(value)? as u32).max(1),
            _ => {
                return Err(format!(
                    "unknown resolver key '{key}' (accepted: {})",
                    RESOLVER_KEYS.join(" ")
                ))
            }
        }
        Ok(())
    }

    fn breaker(&self) -> BreakerConfig {
        BreakerConfig {
            threshold: self.breaker_threshold,
            cooldown: Duration::from_millis(self.breaker_cooldown_ms),
            half_open_successes: self.breaker_half_open,
        }
    }
}

/// A bounded in-memory store of point → stats, evicting the least recently
/// used entry on overflow.  Recency is a monotonic tick; eviction scans for
/// the minimum, which is fine at the capacities this tier runs at
/// (thousands) given each hit saves a disk read + JSON parse.
///
/// Entries are indexed by the point's content digest and verified against
/// the full [`CacheKey`] on every hit, so a digest collision is a miss,
/// never another point's statistics.  The key is held compactly: the
/// ~1 KB canonical machine JSON is interned once per distinct machine
/// (dropped with its last entry, so memory stays bounded by the capacity)
/// and the stats are boxed, keeping the map's buckets small.
struct Lru {
    capacity: usize,
    tick: u64,
    entries: HashMap<u64, LruEntry>,
    machines: HashSet<Arc<str>>,
}

struct LruEntry {
    key: MemoryKey,
    stats: Box<SimStats>,
    touched: u64,
}

/// A [`CacheKey`] with its machine string shared through the interner.
struct MemoryKey {
    version: u32,
    point: RunPoint,
    workload_fingerprint: u64,
    max_instructions: u64,
    machine: Arc<str>,
}

impl MemoryKey {
    fn matches(&self, key: &CacheKey) -> bool {
        self.version == key.version
            && self.point == key.point
            && self.workload_fingerprint == key.workload_fingerprint
            && self.max_instructions == key.max_instructions
            && *self.machine == *key.machine
    }
}

impl Lru {
    fn new(capacity: usize) -> Self {
        Lru {
            capacity,
            tick: 0,
            entries: HashMap::new(),
            machines: HashSet::new(),
        }
    }

    fn get(&mut self, digest: u64, key: &CacheKey) -> Option<SimStats> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.entries.get_mut(&digest)?;
        if !entry.key.matches(key) {
            return None;
        }
        entry.touched = tick;
        Some((*entry.stats).clone())
    }

    fn put(&mut self, digest: u64, key: &CacheKey, stats: &SimStats) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&digest) {
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, entry)| entry.touched)
                .map(|(digest, _)| *digest)
            {
                let evicted = self.entries.remove(&oldest).expect("just found");
                self.release(evicted.key.machine);
            }
        }
        let machine = self.intern(&key.machine);
        let entry = LruEntry {
            key: MemoryKey {
                version: key.version,
                point: key.point,
                workload_fingerprint: key.workload_fingerprint,
                max_instructions: key.max_instructions,
                machine,
            },
            stats: Box::new(stats.clone()),
            touched: self.tick,
        };
        // A colliding digest replaces the older point: one slot per digest.
        if let Some(replaced) = self.entries.insert(digest, entry) {
            self.release(replaced.key.machine);
        }
    }

    fn intern(&mut self, machine: &str) -> Arc<str> {
        if let Some(interned) = self.machines.get(machine) {
            return Arc::clone(interned);
        }
        let interned: Arc<str> = Arc::from(machine);
        self.machines.insert(Arc::clone(&interned));
        interned
    }

    /// Drop a departing entry's machine string from the interner once no
    /// other entry shares it (the interner holds the only other reference).
    fn release(&mut self, machine: Arc<str>) {
        if Arc::strong_count(&machine) == 2 {
            self.machines.remove(&*machine);
        }
    }
}

/// One remote peer: its address, breaker, and lifetime counters.
struct Peer {
    addr: String,
    breaker: CircuitBreaker,
    hits: AtomicU64,
    failures: AtomicU64,
}

/// A point-in-time view of one peer, for `/healthz` and tests.
#[derive(Debug, Clone)]
pub struct PeerSnapshot {
    /// The peer's address as configured.
    pub addr: String,
    /// Breaker state + trip count.
    pub breaker: BreakerSnapshot,
    /// Points this peer answered.
    pub hits: u64,
    /// Failed attempts against this peer.
    pub failures: u64,
}

/// Per-point counters of one remote resolution attempt; the service folds
/// them into [`earlyreg_experiments::engine::ResolveStats`].
#[derive(Debug, Default)]
pub struct RemoteOutcome {
    /// The peer-provided statistics (`None`: every peer hop failed or was
    /// skipped — fall through to local compute).
    pub stats: Option<SimStats>,
    /// Failed attempts across all peers for this point.
    pub failures: usize,
    /// Breaker closed→open transitions caused by this point.
    pub trips: usize,
    /// Peers skipped outright because their breaker was open.
    pub breaker_skips: usize,
}

/// The chain's shared state: the memory tier and the peer tier.  (The disk
/// tier stays on the service, which already owns the [`PointCache`]; the
/// local tier is the simulator.)
///
/// [`PointCache`]: earlyreg_experiments::PointCache
pub struct ResolverChain {
    config: ResolverConfig,
    lru: Mutex<Lru>,
    peers: Vec<Peer>,
}

impl ResolverChain {
    /// Build the chain from its config.
    pub fn new(config: ResolverConfig) -> Self {
        let peers = config
            .peers
            .iter()
            .map(|addr| Peer {
                addr: addr.clone(),
                breaker: CircuitBreaker::new(config.breaker()),
                hits: AtomicU64::new(0),
                failures: AtomicU64::new(0),
            })
            .collect();
        let lru = Mutex::new(Lru::new(config.lru_capacity));
        ResolverChain { config, lru, peers }
    }

    /// The chain's configuration.
    pub fn config(&self) -> &ResolverConfig {
        &self.config
    }

    /// Whether a remote tier is configured at all.
    pub fn has_peers(&self) -> bool {
        !self.peers.is_empty()
    }

    /// Memory-tier lookup: by digest, verified against the full cache key.
    pub fn memory_get(&self, planned: &PlannedPoint) -> Option<SimStats> {
        if self.config.lru_capacity == 0 {
            return None;
        }
        self.lru
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(planned.digest, &planned.key)
    }

    /// Admit a resolved point into the memory tier.
    pub fn memory_put(&self, planned: &PlannedPoint, stats: &SimStats) {
        self.lru
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .put(planned.digest, &planned.key, stats);
    }

    /// Entries currently held by the memory tier.
    pub fn memory_len(&self) -> usize {
        self.lru
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entries
            .len()
    }

    /// A snapshot of every peer (addresses, breaker states, counters).
    pub fn peer_snapshots(&self) -> Vec<PeerSnapshot> {
        self.peers
            .iter()
            .map(|peer| PeerSnapshot {
                addr: peer.addr.clone(),
                breaker: peer.breaker.snapshot(),
                hits: peer.hits.load(Ordering::Relaxed),
                failures: peer.failures.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Total breaker trips across all peers.
    pub fn breaker_trips(&self) -> u64 {
        self.peers
            .iter()
            .map(|peer| peer.breaker.snapshot().trips)
            .sum()
    }

    /// Try to resolve one point remotely.  Peers are walked starting at
    /// `digest % len` — the fleet's content-digest sharding — so each point
    /// has a stable home peer and load spreads uniformly.  Every failure
    /// degrades: next attempt, next peer, and finally `stats: None` (the
    /// caller computes locally).  This never panics and never blocks beyond
    /// `(retries + 1) × deadline + backoff` per peer.
    pub fn resolve_remote(&self, planned: &PlannedPoint, body: &str) -> RemoteOutcome {
        let mut outcome = RemoteOutcome::default();
        if self.peers.is_empty() {
            return outcome;
        }
        let start = (planned.digest as usize) % self.peers.len();
        let deadline = Duration::from_millis(self.config.deadline_ms);
        let mut backoff = Backoff::new(
            self.config.backoff_base_ms,
            self.config.backoff_cap_ms,
            self.config.jitter_seed ^ planned.digest,
        );

        for offset in 0..self.peers.len() {
            let peer = &self.peers[(start + offset) % self.peers.len()];
            if !peer.breaker.allow() {
                outcome.breaker_skips += 1;
                continue;
            }
            let mut attempt: u32 = 0;
            loop {
                match try_peer(&peer.addr, body, deadline, planned) {
                    Ok(stats) => {
                        peer.breaker.record_success();
                        peer.hits.fetch_add(1, Ordering::Relaxed);
                        outcome.stats = Some(stats);
                        return outcome;
                    }
                    Err(_error) => {
                        peer.failures.fetch_add(1, Ordering::Relaxed);
                        outcome.failures += 1;
                        if peer.breaker.record_failure() {
                            outcome.trips += 1;
                        }
                        if attempt >= self.config.retries {
                            break;
                        }
                        std::thread::sleep(backoff.delay(attempt));
                        attempt += 1;
                        // The breaker may have tripped on this very streak;
                        // stop hammering a peer the chain just declared dead.
                        if !peer.breaker.allow() {
                            outcome.breaker_skips += 1;
                            break;
                        }
                    }
                }
            }
        }
        outcome
    }
}

/// One peer attempt: POST the point, validate the reply, parse the stats.
fn try_peer(
    addr: &str,
    body: &str,
    deadline: Duration,
    planned: &PlannedPoint,
) -> Result<SimStats, String> {
    let reply = client::post_json(addr, "/points", body, deadline)
        .map_err(|error: ClientError| error.to_string())?;
    parse_peer_reply(&reply.body, reply.header("x-point-digest"), planned)
}

/// Validate and extract the statistics of a single-point peer reply.
///
/// The reply must carry exactly one result whose point coordinates match
/// what was asked, and — when the peer sends its `X-Point-Digest` — whose
/// full content digest matches ours.  A digest mismatch means the peer
/// computes a *different* cache identity for the same coordinates (version
/// skew somewhere in the stack); treating it as a failure preserves the
/// bit-identity guarantee at the cost of one local simulation.
fn parse_peer_reply(
    body: &str,
    digest_header: Option<&str>,
    planned: &PlannedPoint,
) -> Result<SimStats, String> {
    if let Some(digest) = digest_header {
        let digest = u64::from_str_radix(digest.trim(), 16)
            .map_err(|_| format!("unparsable X-Point-Digest '{digest}'"))?;
        if digest != planned.digest {
            return Err(format!(
                "peer digest {digest:016x} != local {:016x} (version skew?)",
                planned.digest
            ));
        }
    }
    let value = serde::json::parse(body).map_err(|error| format!("invalid JSON: {error}"))?;
    let results = value
        .get("results")
        .and_then(Value::as_seq)
        .ok_or("reply has no 'results' array")?;
    if results.len() != 1 {
        return Err(format!("expected 1 result, got {}", results.len()));
    }
    let point = results[0].get("point").ok_or("result has no 'point'")?;
    let field_str = |name: &str| point.get(name).and_then(Value::as_str).unwrap_or("");
    let field_u64 = |name: &str| point.get(name).and_then(Value::as_u64);
    if field_str("workload") != planned.point.workload
        || field_str("policy") != planned.point.policy.label()
        || field_u64("phys_int") != Some(planned.point.phys_int as u64)
        || field_u64("phys_fp") != Some(planned.point.phys_fp as u64)
    {
        return Err("peer answered a different point".to_string());
    }
    let stats = results[0].get("stats").ok_or("result has no 'stats'")?;
    serde::Deserialize::from_value(stats).map_err(|error| format!("unparsable stats: {error}"))
}

/// Whether the peer tier may serve this point.
///
/// The `POST /points` wire format carries (workload, policy, sizes, scale,
/// budget) but **not** the machine config — the peer derives it from the
/// default Table 2 scenario.  A point planned under scenario overrides
/// would therefore come back computed on a *different machine*; such
/// points skip the remote tier entirely and resolve locally.
pub fn peer_eligible(planned: &PlannedPoint) -> bool {
    let baseline = Scenario::table2().machine(
        planned.point.policy,
        planned.point.phys_int,
        planned.point.phys_fp,
    );
    planned.config == baseline
}

/// The scale name of the `/points` wire format.
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Smoke => "smoke",
        Scale::Bench => "bench",
        Scale::Full => "full",
    }
}

/// The single-point `POST /points` body for one planned point.
pub fn peer_request_body(ctx: &PlanContext, planned: &PlannedPoint) -> String {
    format!(
        r#"{{"scale":"{}","max_instructions":{},"points":[{{"workload":"{}","policy":"{}","phys_int":{},"phys_fp":{}}}]}}"#,
        scale_name(ctx.options.scale),
        ctx.options.max_instructions,
        planned.point.workload,
        planned.point.policy.label(),
        planned.point.phys_int,
        planned.point.phys_fp,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use earlyreg_core::ReleasePolicy;
    use earlyreg_experiments::ExperimentOptions;
    use earlyreg_workloads::WorkloadClass;

    fn smoke_ctx() -> PlanContext {
        PlanContext::new(
            ExperimentOptions {
                scale: Scale::Smoke,
                threads: 1,
                max_instructions: 2000,
            },
            Scenario::table2(),
        )
    }

    fn planned(ctx: &PlanContext) -> PlannedPoint {
        let workload = ctx.workload("swim").unwrap().clone();
        ctx.point(&workload, ReleasePolicy::Extended, 48, 48)
    }

    #[test]
    fn resolver_config_parses_assignments_and_rejects_unknown_keys() {
        let mut config = ResolverConfig::default();
        config.apply("lru_capacity=16").unwrap();
        config.apply("deadline_ms = 750").unwrap();
        config.apply("breaker_threshold=5").unwrap();
        assert_eq!(config.lru_capacity, 16);
        assert_eq!(config.deadline_ms, 750);
        assert_eq!(config.breaker_threshold, 5);
        let error = config.apply("warp_factor=9").unwrap_err();
        for key in RESOLVER_KEYS {
            assert!(error.contains(key), "error must enumerate '{key}': {error}");
        }
        assert!(config.apply("no-equals-sign").is_err());
        assert!(config.apply("retries=many").is_err());
    }

    /// A cache key for `phys_int` registers on `machine`.
    fn key(phys_int: usize, machine: &str) -> CacheKey {
        let point = RunPoint {
            workload: "swim",
            class: WorkloadClass::Fp,
            policy: ReleasePolicy::Extended,
            phys_int,
            phys_fp: 48,
        };
        CacheKey::new(point, machine.to_string(), 0xf00d, 2000)
    }

    fn cycles(cycles: u64) -> SimStats {
        SimStats {
            cycles,
            ..Default::default()
        }
    }

    #[test]
    fn lru_is_bounded_and_evicts_least_recently_used() {
        let mut lru = Lru::new(2);
        let (a, b, c) = (key(1, "m"), key(2, "m"), key(3, "m"));
        lru.put(1, &a, &cycles(1));
        lru.put(2, &b, &cycles(2));
        assert!(lru.get(1, &a).is_some()); // refresh a: b is now oldest
        lru.put(3, &c, &cycles(3));
        assert_eq!(lru.entries.len(), 2, "capacity is a hard bound");
        assert!(lru.get(2, &b).is_none(), "b was least recently used");
        assert_eq!(lru.get(1, &a).unwrap().cycles, 1);
        assert_eq!(lru.get(3, &c).unwrap().cycles, 3);
    }

    #[test]
    fn lru_capacity_is_a_hard_bound() {
        let mut lru = Lru::new(8);
        for n in 0..100 {
            lru.put(n, &key(n as usize, "m"), &cycles(n));
            assert!(lru.entries.len() <= 8);
        }
        assert_eq!(lru.entries.len(), 8);
        // The survivors are the eight most recently stored points.
        for n in 92..100 {
            assert_eq!(lru.get(n, &key(n as usize, "m")).unwrap().cycles, n);
        }
    }

    #[test]
    fn digest_collision_is_a_miss() {
        let mut lru = Lru::new(4);
        let (a, b) = (key(1, "m"), key(2, "m"));
        lru.put(7, &a, &cycles(1));
        assert_eq!(lru.get(7, &b), None, "same digest, different key");
        let other_machine = key(1, "n");
        assert_eq!(lru.get(7, &other_machine), None, "machine is in the key");
        assert_eq!(lru.get(7, &a).unwrap().cycles, 1);

        // Storing the colliding point replaces the slot; the first misses.
        lru.put(7, &b, &cycles(2));
        assert_eq!(lru.entries.len(), 1);
        assert_eq!(lru.get(7, &a), None);
        assert_eq!(lru.get(7, &b).unwrap().cycles, 2);
    }

    #[test]
    fn points_on_one_machine_share_one_interned_string() {
        let mut lru = Lru::new(1000);
        let machine = "x".repeat(959);
        for phys_int in 0..100 {
            lru.put(phys_int as u64, &key(phys_int, &machine), &cycles(0));
        }
        assert_eq!(lru.entries.len(), 100);
        assert_eq!(lru.machines.len(), 1);
        let interned = lru.machines.iter().next().unwrap();
        assert_eq!(Arc::strong_count(interned), 101, "100 entries + interner");
    }

    #[test]
    fn evicting_a_machines_last_entry_drops_its_string() {
        let mut lru = Lru::new(2);
        lru.put(1, &key(1, "m"), &cycles(1));
        lru.put(2, &key(2, "n"), &cycles(2));
        lru.put(3, &key(3, "n"), &cycles(3)); // evicts the only "m" entry
        assert_eq!(lru.machines.len(), 1);
        assert!(lru.machines.contains("n"));
        lru.put(4, &key(4, "o"), &cycles(4)); // evicts one of two "n" entries
        assert_eq!(lru.machines.len(), 2, "'n' still has an entry");
        lru.put(5, &key(5, "o"), &cycles(5)); // evicts the last "n" entry
        assert_eq!(lru.machines.len(), 1);
        assert!(lru.machines.contains("o"));

        // Replacing a colliding slot releases the replaced machine too.
        lru.put(5, &key(5, "p"), &cycles(6));
        assert_eq!(lru.machines.len(), 2, "'o' is still held by digest 4");
        lru.put(4, &key(4, "p"), &cycles(7));
        assert_eq!(lru.machines.len(), 1);
        assert!(lru.machines.contains("p"));
    }

    #[test]
    fn zero_capacity_lru_is_disabled() {
        let chain = ResolverChain::new(ResolverConfig {
            lru_capacity: 0,
            ..ResolverConfig::default()
        });
        let ctx = smoke_ctx();
        let point = planned(&ctx);
        chain.memory_put(&point, &SimStats::default());
        assert_eq!(chain.memory_get(&point), None);
        assert_eq!(chain.memory_len(), 0);
    }

    #[test]
    fn chain_without_peers_returns_no_remote_stats() {
        let ctx = smoke_ctx();
        let planned = planned(&ctx);
        let chain = ResolverChain::new(ResolverConfig::default());
        assert!(!chain.has_peers());
        let outcome = chain.resolve_remote(&planned, "{}");
        assert!(outcome.stats.is_none());
        assert_eq!(outcome.failures, 0);
    }

    #[test]
    fn table2_points_are_peer_eligible_but_overridden_points_are_not() {
        let ctx = smoke_ctx();
        assert!(peer_eligible(&planned(&ctx)));

        let overridden = PlanContext::new(
            ctx.options,
            Scenario {
                ros_size: Some(64),
                ..Scenario::table2()
            },
        );
        let workload = overridden.workload("swim").unwrap().clone();
        let tight = overridden.point(&workload, ReleasePolicy::Extended, 48, 48);
        assert!(
            !peer_eligible(&tight),
            "scenario-overridden machines must not take the peer tier"
        );
    }

    #[test]
    fn peer_request_body_is_the_points_wire_format() {
        let ctx = smoke_ctx();
        let planned = planned(&ctx);
        let body = peer_request_body(&ctx, &planned);
        assert_eq!(
            body,
            r#"{"scale":"smoke","max_instructions":2000,"points":[{"workload":"swim","policy":"extended","phys_int":48,"phys_fp":48}]}"#
        );
    }

    #[test]
    fn peer_reply_validation_rejects_mismatches() {
        let ctx = smoke_ctx();
        let planned = planned(&ctx);
        let stats_json = serde::Serialize::to_value(&SimStats::default()).canonical();
        let good = format!(
            r#"{{"results":[{{"point":{{"workload":"swim","policy":"extended","phys_int":48,"phys_fp":48}},"stats":{stats_json}}}]}}"#
        );
        assert!(parse_peer_reply(&good, None, &planned).is_ok());
        let matching_digest = format!("{:016x}", planned.digest);
        assert!(parse_peer_reply(&good, Some(&matching_digest), &planned).is_ok());

        // Digest mismatch: version skew must degrade, not corrupt.
        let error = parse_peer_reply(&good, Some("00000000deadbeef"), &planned).unwrap_err();
        assert!(error.contains("version skew"), "{error}");

        // Wrong point coordinates.
        let wrong = good.replace("\"phys_int\":48", "\"phys_int\":64");
        assert!(parse_peer_reply(&wrong, None, &planned).is_err());

        // Garbage and truncation.
        assert!(parse_peer_reply("{\"results\":@@", None, &planned).is_err());
        assert!(parse_peer_reply("{}", None, &planned).is_err());
    }

    #[test]
    fn dead_peers_fail_over_and_trip_the_breaker() {
        let ctx = smoke_ctx();
        let planned = planned(&ctx);
        // Bind-then-drop: connecting to this port is refused.
        let dead = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        let chain = ResolverChain::new(ResolverConfig {
            peers: vec![dead],
            retries: 2,
            deadline_ms: 300,
            backoff_base_ms: 1,
            backoff_cap_ms: 2,
            breaker_threshold: 3,
            breaker_cooldown_ms: 60_000,
            ..ResolverConfig::default()
        });
        let body = peer_request_body(&ctx, &planned);
        let outcome = chain.resolve_remote(&planned, &body);
        assert!(outcome.stats.is_none(), "a dead peer cannot answer");
        assert_eq!(outcome.failures, 3, "1 try + 2 retries");
        assert_eq!(outcome.trips, 1, "the third consecutive failure trips");
        let snapshot = &chain.peer_snapshots()[0];
        assert_eq!(snapshot.breaker.state, "open");
        assert_eq!(snapshot.failures, 3);

        // With the breaker open, the next point skips the peer outright.
        let outcome = chain.resolve_remote(&planned, &body);
        assert!(outcome.stats.is_none());
        assert_eq!(outcome.failures, 0, "no attempt was made");
        assert_eq!(outcome.breaker_skips, 1);
    }
}
