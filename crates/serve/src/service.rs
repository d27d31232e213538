//! The application layer: routing, request/response schemas, and the
//! single-flight point resolver over the experiment engine.
//!
//! A [`Service`] is shared (behind an `Arc`) by every worker thread.  It
//! owns the on-disk [`PointCache`], the [`SingleFlight`] map, one
//! [`WorkloadSet`] per requested scale (built lazily, shared across
//! requests), and the counters `/healthz` reports.  It implements the
//! engine's [`PointResolver`], so `POST /run` goes through exactly the same
//! plan → dedup → resolve → render pipeline as the `earlyreg-exp` CLI —
//! with cross-request single-flight dedup layered on top.

use crate::http::{Request, Response};
use crate::resolver::{self, ResolverChain, ResolverConfig};
use crate::signal;
use crate::singleflight::{Join, SingleFlight};
use earlyreg_core::ReleasePolicy;
use earlyreg_experiments::engine::{
    self, PlanContext, PlannedPoint, PointResolver, ResolveStats, ResultSet, WorkloadSet,
};
use earlyreg_experiments::runner::{run_parallel, RunResult};
use earlyreg_experiments::{ExperimentOptions, PointCache, Scenario};
use earlyreg_sim::SimStats;
use earlyreg_workloads::Scale;
use serde::value::Value;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Tunables of the application layer.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Directory of the shared on-disk point cache (`None` disables it; the
    /// single-flight map still dedups concurrent identical points).
    pub cache_dir: Option<PathBuf>,
    /// Worker threads used to simulate the points of one request (`0` =
    /// auto: `cpus / workers`, resolved by [`crate::start`] so it tracks
    /// the *final* worker count).
    pub sim_threads: usize,
    /// Whether `POST /shutdown` is honoured (tests and CI; off by default).
    pub allow_shutdown: bool,
    /// Cap on `POST /points` batch size.
    pub max_request_points: usize,
    /// Cap on the per-point committed-instruction budget a request may ask
    /// for (and the default when it asks for none).
    pub max_instructions_limit: u64,
    /// Resolver-chain tunables: the in-memory LRU tier, the peer list and
    /// the deadline/retry/breaker knobs (`--peer`, `--resolver-config`).
    pub resolver: ResolverConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache_dir: Some(PathBuf::from("target/exp-cache")),
            sim_threads: 0,
            allow_shutdown: false,
            max_request_points: 2048,
            max_instructions_limit: 5_000_000,
            resolver: ResolverConfig::default(),
        }
    }
}

/// The shared application state behind every worker.
pub struct Service {
    config: ServiceConfig,
    cache: Option<PointCache>,
    // Keyed by the *canonical* cache-key string (not its digest), so a
    // digest collision can never serve one point's statistics as another's
    // — the same invariant the on-disk cache enforces on load.
    flights: SingleFlight<String, SimStats>,
    suites: Mutex<HashMap<Scale, Arc<WorkloadSet>>>,
    chain: ResolverChain,
    shutdown: Arc<AtomicBool>,
    simulations: AtomicU64,
    coalesced: AtomicU64,
    lru_hits: AtomicU64,
    peer_hits: AtomicU64,
    peer_failures: AtomicU64,
    requests: AtomicU64,
}

impl Service {
    /// Build the service; `shutdown` is the flag the accept loop watches
    /// (set by `POST /shutdown` when allowed).
    pub fn new(config: ServiceConfig, shutdown: Arc<AtomicBool>) -> Self {
        let cache = config.cache_dir.clone().map(PointCache::new);
        let chain = ResolverChain::new(config.resolver.clone());
        Service {
            config,
            cache,
            flights: SingleFlight::new(),
            suites: Mutex::new(HashMap::new()),
            chain,
            shutdown,
            simulations: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            lru_hits: AtomicU64::new(0),
            peer_hits: AtomicU64::new(0),
            peer_failures: AtomicU64::new(0),
            requests: AtomicU64::new(0),
        }
    }

    /// Total simulations performed since start (the single-flight tests
    /// assert on this).
    pub fn simulations(&self) -> u64 {
        self.simulations.load(Ordering::Relaxed)
    }

    /// Total points answered by waiting on another request's computation.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Total points answered by the in-memory LRU tier.
    pub fn lru_hits(&self) -> u64 {
        self.lru_hits.load(Ordering::Relaxed)
    }

    /// Total points answered by a remote peer.
    pub fn peer_hits(&self) -> u64 {
        self.peer_hits.load(Ordering::Relaxed)
    }

    /// Total failed remote attempts (each degraded to the next tier).
    pub fn peer_failures(&self) -> u64 {
        self.peer_failures.load(Ordering::Relaxed)
    }

    /// The resolver chain (tests read breaker snapshots off it).
    pub fn chain(&self) -> &ResolverChain {
        &self.chain
    }

    /// Whether the service has begun draining (shutdown flag or signal).
    pub fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || signal::received()
    }

    /// Route one request.
    pub fn handle(&self, request: &Request) -> Response {
        self.requests.fetch_add(1, Ordering::Relaxed);
        // Route on the path only — probes like `GET /healthz?probe=1` must
        // hit the endpoint, not the 404 arm.
        let path = request
            .path
            .split_once('?')
            .map_or(request.path.as_str(), |(path, _query)| path);
        match (request.method.as_str(), path) {
            ("GET", "/healthz") => self.healthz(),
            ("GET", "/readyz") => self.readyz(),
            ("GET", "/experiments") => self.experiments(),
            ("POST", "/points") => self.points(request),
            ("POST", "/run") => self.run(request),
            ("POST", "/shutdown") => self.shutdown_requested(),
            (_, "/healthz" | "/readyz" | "/experiments" | "/points" | "/run" | "/shutdown") => {
                Response::error(405, "method not allowed for this endpoint")
            }
            _ => Response::error(
                404,
                "unknown endpoint (try /healthz, /readyz, /experiments, /points, /run)",
            ),
        }
    }

    fn healthz(&self) -> Response {
        let cache = match &self.cache {
            Some(cache) => Value::Str(cache.dir().display().to_string()),
            None => Value::Null,
        };
        let body = Value::Map(vec![
            ("status".to_string(), Value::Str("ok".to_string())),
            (
                "simulations".to_string(),
                Value::U64(self.simulations.load(Ordering::Relaxed)),
            ),
            (
                "coalesced".to_string(),
                Value::U64(self.coalesced.load(Ordering::Relaxed)),
            ),
            (
                "requests".to_string(),
                Value::U64(self.requests.load(Ordering::Relaxed)),
            ),
            (
                "inflight_points".to_string(),
                Value::U64(self.flights.len() as u64),
            ),
            ("cache".to_string(), cache),
            ("lru_hits".to_string(), Value::U64(self.lru_hits())),
            (
                "lru_entries".to_string(),
                Value::U64(self.chain.memory_len() as u64),
            ),
            ("peer_hits".to_string(), Value::U64(self.peer_hits())),
            (
                "peer_failures".to_string(),
                Value::U64(self.peer_failures()),
            ),
            (
                "breaker_trips".to_string(),
                Value::U64(self.chain.breaker_trips()),
            ),
            (
                "peers".to_string(),
                Value::Seq(
                    self.chain
                        .peer_snapshots()
                        .into_iter()
                        .map(|peer| {
                            Value::Map(vec![
                                ("addr".to_string(), Value::Str(peer.addr)),
                                (
                                    "breaker".to_string(),
                                    Value::Str(peer.breaker.state.to_string()),
                                ),
                                ("trips".to_string(), Value::U64(peer.breaker.trips)),
                                ("hits".to_string(), Value::U64(peer.hits)),
                                ("failures".to_string(), Value::U64(peer.failures)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        Response::json(200, body.canonical())
    }

    /// `GET /readyz`: readiness as distinct from liveness.  `/healthz`
    /// answers `200` for as long as the process can serve at all; `/readyz`
    /// flips to `503` the moment draining begins (SIGINT/SIGTERM or an
    /// accepted `POST /shutdown`), so load balancers stop routing new work
    /// to a node that is about to leave while its in-flight requests finish.
    fn readyz(&self) -> Response {
        if self.draining() {
            let body = Value::Map(vec![(
                "status".to_string(),
                Value::Str("draining".to_string()),
            )]);
            Response::json(503, body.canonical())
        } else {
            let body = Value::Map(vec![(
                "status".to_string(),
                Value::Str("ready".to_string()),
            )]);
            Response::json(200, body.canonical())
        }
    }

    fn experiments(&self) -> Response {
        let experiments: Vec<Value> = engine::registry()
            .iter()
            .map(|experiment| {
                Value::Map(vec![
                    ("id".to_string(), Value::Str(experiment.id().to_string())),
                    (
                        "title".to_string(),
                        Value::Str(experiment.title().to_string()),
                    ),
                ])
            })
            .collect();
        // The accepted release policies come from the core registry, so a
        // newly registered scheme is discoverable (and usable in `/points`
        // bodies and `/run` scenarios) with no serve change.
        let policies: Vec<Value> = earlyreg_core::registry::descriptors()
            .iter()
            .map(|descriptor| {
                Value::Map(vec![
                    ("id".to_string(), Value::Str(descriptor.id.to_string())),
                    (
                        "title".to_string(),
                        Value::Str(descriptor.title.to_string()),
                    ),
                    ("paper".to_string(), Value::Bool(descriptor.paper)),
                ])
            })
            .collect();
        // Likewise the workloads: the string-keyed workload registry is the
        // single source, so a newly registered kernel (synthetic or
        // assembled) is discoverable and immediately usable in `/points`
        // bodies and `/run` scenarios with no serve change.
        let workloads: Vec<Value> = earlyreg_workloads::registry::descriptors()
            .iter()
            .map(|descriptor| {
                Value::Map(vec![
                    ("id".to_string(), Value::Str(descriptor.id.to_string())),
                    (
                        "class".to_string(),
                        Value::Str(match descriptor.class {
                            earlyreg_workloads::WorkloadClass::Int => "int".to_string(),
                            earlyreg_workloads::WorkloadClass::Fp => "fp".to_string(),
                        }),
                    ),
                    (
                        "description".to_string(),
                        Value::Str(descriptor.description.to_string()),
                    ),
                    ("paper".to_string(), Value::Bool(descriptor.paper)),
                ])
            })
            .collect();
        let body = Value::Map(vec![
            ("experiments".to_string(), Value::Seq(experiments)),
            ("policies".to_string(), Value::Seq(policies)),
            ("workloads".to_string(), Value::Seq(workloads)),
        ]);
        Response::json(200, body.canonical())
    }

    fn shutdown_requested(&self) -> Response {
        if !self.config.allow_shutdown {
            return Response::error(
                403,
                "shutdown endpoint is disabled (start with --allow-shutdown)",
            );
        }
        self.shutdown.store(true, Ordering::SeqCst);
        Response::json(
            200,
            Value::Map(vec![(
                "status".to_string(),
                Value::Str("shutting down".to_string()),
            )])
            .canonical(),
        )
    }

    /// `POST /points`: simulate (or serve from cache / an in-flight
    /// computation) a batch of raw points.
    ///
    /// The body contains only the results, so a warm response is
    /// byte-identical to the cold response for the same request; the
    /// `X-Cache-Hits` / `X-Coalesced` / `X-Simulated` headers carry the
    /// per-request counters instead.
    fn points(&self, request: &Request) -> Response {
        let body = match parse_json_body(request) {
            Ok(body) => body,
            Err(response) => return response,
        };
        // Cheap shape checks first: building a workload set for a new scale
        // is expensive, and a malformed request must not trigger it.
        let entries = match body.get("points").and_then(Value::as_seq) {
            Some(entries) if !entries.is_empty() => entries,
            Some(_) => return Response::error(400, "'points' must not be empty"),
            None => return Response::error(400, "missing 'points' array"),
        };
        if entries.len() > self.config.max_request_points {
            return Response::error(
                400,
                &format!("too many points (max {})", self.config.max_request_points),
            );
        }
        let ctx = match self.context_for(&body, Scenario::table2()) {
            Ok(ctx) => ctx,
            Err(response) => return response,
        };

        let mut plan = Vec::with_capacity(entries.len());
        for (index, entry) in entries.iter().enumerate() {
            match self.plan_point(&ctx, entry) {
                Ok(planned) => plan.push(planned),
                Err(message) => {
                    return Response::error(400, &format!("points[{index}]: {message}"))
                }
            }
        }

        let unique = engine::dedup_plan(plan.clone());
        let (results, stats) = self.resolve(&ctx, &unique);

        // Answer in request order (duplicates allowed in the request).
        let mut rendered = Vec::with_capacity(plan.len());
        for planned in &plan {
            let result = results
                .get(planned)
                .expect("resolver answered every planned point");
            rendered.push(Value::Map(vec![
                (
                    "point".to_string(),
                    serde::Serialize::to_value(&result.point),
                ),
                (
                    "stats".to_string(),
                    serde::Serialize::to_value(&result.stats),
                ),
            ]));
        }
        let body = Value::Map(vec![("results".to_string(), Value::Seq(rendered))]);
        let mut response = Response::json(200, body.canonical())
            .with_header("X-Cache-Hits", stats.cache_hits.to_string())
            .with_header("X-Coalesced", stats.coalesced.to_string())
            .with_header("X-Simulated", stats.simulated.to_string())
            .with_header("X-Lru-Hits", stats.lru_hits.to_string())
            .with_header("X-Peer-Hits", stats.peer_hits.to_string())
            .with_header("X-Peer-Failures", stats.peer_failures.to_string())
            .with_header("X-Breaker-Trips", stats.breaker_trips.to_string());
        if unique.len() == 1 {
            // Single-point responses carry the point's full content digest;
            // a chained caller compares it against its own plan so version
            // skew between nodes degrades to local compute instead of
            // silently mixing incompatible statistics.
            response = response.with_header("X-Point-Digest", format!("{:016x}", unique[0].digest));
        }
        response
    }

    /// `POST /run`: run experiments by id through the engine and return
    /// their report envelopes plus the planner summary.
    fn run(&self, request: &Request) -> Response {
        let body = match parse_json_body(request) {
            Ok(body) => body,
            Err(response) => return response,
        };
        let scenario = match body.get("scenario") {
            None => Scenario::table2(),
            Some(value) => {
                let Some(text) = value.as_str() else {
                    return Response::error(
                        400,
                        "'scenario' must be a string of 'key = value' lines",
                    );
                };
                match Scenario::parse("request", text) {
                    Ok(scenario) => scenario,
                    Err(message) => {
                        return Response::error(400, &format!("invalid scenario: {message}"))
                    }
                }
            }
        };
        let ctx = match self.context_for(&body, scenario) {
            Ok(ctx) => ctx,
            Err(response) => return response,
        };

        let ids: Vec<String> = match body.get("experiments") {
            None => vec!["all".to_string()],
            Some(value) => {
                let Some(items) = value.as_seq() else {
                    return Response::error(400, "'experiments' must be an array of ids");
                };
                let mut ids = Vec::with_capacity(items.len());
                for item in items {
                    match item.as_str() {
                        Some(id) => ids.push(id.to_string()),
                        None => return Response::error(400, "'experiments' must contain strings"),
                    }
                }
                ids
            }
        };

        let outcome = match engine::run_reports(&ids, &ctx, self) {
            Ok(outcome) => outcome,
            Err(message) => return Response::error(400, &message),
        };

        let summary = &outcome.summary;
        let summary_value = Value::Map(vec![
            (
                "experiments".to_string(),
                Value::Seq(
                    summary
                        .experiments
                        .iter()
                        .map(|id| Value::Str(id.to_string()))
                        .collect(),
                ),
            ),
            ("planned".to_string(), Value::U64(summary.planned as u64)),
            ("unique".to_string(), Value::U64(summary.unique as u64)),
            (
                "cache_hits".to_string(),
                Value::U64(summary.cache_hits as u64),
            ),
            (
                "coalesced".to_string(),
                Value::U64(summary.coalesced as u64),
            ),
            (
                "simulated".to_string(),
                Value::U64(summary.simulated as u64),
            ),
            (
                "lru_hits".to_string(),
                Value::U64(summary.resolve.lru_hits as u64),
            ),
            (
                "peer_hits".to_string(),
                Value::U64(summary.resolve.peer_hits as u64),
            ),
            (
                "peer_failures".to_string(),
                Value::U64(summary.resolve.peer_failures as u64),
            ),
            (
                "breaker_trips".to_string(),
                Value::U64(summary.resolve.breaker_trips as u64),
            ),
        ]);
        let reports: Vec<Value> = outcome.reports.iter().map(|r| r.envelope()).collect();
        let body = Value::Map(vec![
            ("summary".to_string(), summary_value),
            ("reports".to_string(), Value::Seq(reports)),
        ]);
        Response::json(200, body.canonical())
    }

    /// Build the plan context for one request: scale and budget from the
    /// body, workload suite from the per-scale cache.
    fn context_for(&self, body: &Value, scenario: Scenario) -> Result<PlanContext, Response> {
        let scale = match body.get("scale") {
            None => Scale::Smoke,
            Some(value) => {
                let Some(name) = value.as_str() else {
                    return Err(Response::error(400, "'scale' must be a string"));
                };
                ExperimentOptions::parse_scale(name)
                    .map_err(|message| Response::error(400, &message))?
            }
        };
        let max_instructions = match body.get("max_instructions") {
            None => self.config.max_instructions_limit,
            Some(value) => {
                let Some(budget) = value.as_u64() else {
                    return Err(Response::error(
                        400,
                        "'max_instructions' must be a positive integer",
                    ));
                };
                if budget == 0 || budget > self.config.max_instructions_limit {
                    return Err(Response::error(
                        400,
                        &format!(
                            "'max_instructions' must be between 1 and {}",
                            self.config.max_instructions_limit
                        ),
                    ));
                }
                budget
            }
        };
        let options = ExperimentOptions {
            scale,
            threads: self.config.sim_threads,
            max_instructions,
        };
        let set = self.workload_set(scale);
        Ok(PlanContext::with_workloads(options, scenario, set))
    }

    /// The shared workload suite for one scale, built on first use.
    fn workload_set(&self, scale: Scale) -> Arc<WorkloadSet> {
        if let Some(set) = self.suites.lock().expect("suite map poisoned").get(&scale) {
            return Arc::clone(set);
        }
        // Build outside the lock — full-scale generation takes a moment and
        // must not block requests for other scales.  A concurrent builder of
        // the same scale produces an identical set; first insert wins.
        let fresh = Arc::new(WorkloadSet::new(scale));
        let mut suites = self.suites.lock().expect("suite map poisoned");
        Arc::clone(suites.entry(scale).or_insert(fresh))
    }

    /// Parse and validate one `/points` entry into a planned point.
    fn plan_point(&self, ctx: &PlanContext, entry: &Value) -> Result<PlannedPoint, String> {
        let workload_name = entry
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("missing 'workload' name")?;
        // The workload registry resolves aliases/case and produces the
        // canonical unknown-workload error with every registered id listed.
        let descriptor = earlyreg_workloads::registry::parse(workload_name)?;
        let workload = ctx
            .workload(descriptor.id)
            .cloned()
            .expect("every registered workload is in the per-scale set");
        let policy_name = entry
            .get("policy")
            .and_then(Value::as_str)
            .ok_or("missing 'policy'")?;
        let policy = ReleasePolicy::parse(policy_name)?;
        let phys_int = parse_size(entry, "phys_int")?;
        let phys_fp = parse_size(entry, "phys_fp")?;
        let planned = ctx.point(&workload, policy, phys_int, phys_fp);
        planned
            .config
            .validate()
            .map_err(|message| format!("invalid machine configuration: {message}"))?;
        Ok(planned)
    }
}

/// The tiered single-flight resolver.  Every point walks the chain —
/// in-memory LRU → disk cache → (single-flight join) → remote peers →
/// local simulation — and **any tier failure degrades to the next tier**;
/// the last tier always succeeds, so a request completes with bit-identical
/// results no matter how many peers are refusing, stalling or lying.
///
/// Leads are always published before follows are awaited, so two requests
/// that lead and follow each other's points cannot deadlock.
impl PointResolver for Service {
    fn resolve(&self, ctx: &PlanContext, unique: &[PlannedPoint]) -> (ResultSet, ResolveStats) {
        let mut results = ResultSet::default();
        let mut stats = ResolveStats::default();
        // A point whose flight leader failed goes round the ladder again:
        // one of its released followers leads the next round, the rest
        // follow again.  Rounds repeat only while successive leaders fail.
        let mut pending: Vec<&PlannedPoint> = unique.iter().collect();
        while !pending.is_empty() {
            pending = self.resolve_round(ctx, &pending, &mut results, &mut stats);
        }

        self.coalesced
            .fetch_add(stats.coalesced as u64, Ordering::Relaxed);
        self.lru_hits
            .fetch_add(stats.lru_hits as u64, Ordering::Relaxed);
        self.peer_hits
            .fetch_add(stats.peer_hits as u64, Ordering::Relaxed);
        self.peer_failures
            .fetch_add(stats.peer_failures as u64, Ordering::Relaxed);
        (results, stats)
    }
}

impl Service {
    /// One pass of every point down the tier ladder.  Returns the points
    /// that followed a leader which failed without publishing; they have
    /// touched neither `results` nor `stats`.
    fn resolve_round<'p>(
        &self,
        ctx: &PlanContext,
        points: &[&'p PlannedPoint],
        results: &mut ResultSet,
        stats: &mut ResolveStats,
    ) -> Vec<&'p PlannedPoint> {
        let mut leaders = Vec::new();
        let mut followers = Vec::new();

        for &planned in points {
            let canonical = planned.key.canonical();
            if let Some(hit) = self.chain.memory_get(&canonical) {
                stats.lru_hits += 1;
                record(results, planned, hit);
                continue;
            }
            if let Some(cached) = self.cache.as_ref().and_then(|c| c.load(&planned.key)) {
                stats.cache_hits += 1;
                self.chain.memory_put(&canonical, &cached);
                record(results, planned, cached);
                continue;
            }
            match self.flights.join(canonical) {
                Join::Leader(leader) => leaders.push((planned, leader)),
                Join::Follower(follower) => followers.push((planned, follower)),
            }
        }

        // A leader re-checks the memory and disk tiers after winning the
        // join: between this request's initial miss and the join, a previous
        // leader may have resolved, stored and retired its flight — without
        // the re-check that race would re-resolve an already-stored point.
        let mut to_resolve = Vec::with_capacity(leaders.len());
        for (planned, leader) in leaders {
            let canonical = planned.key.canonical();
            if let Some(hit) = self.chain.memory_get(&canonical) {
                stats.lru_hits += 1;
                leader.publish(hit.clone());
                record(results, planned, hit);
                continue;
            }
            match self.cache.as_ref().and_then(|c| c.load(&planned.key)) {
                Some(cached) => {
                    stats.cache_hits += 1;
                    self.chain.memory_put(&canonical, &cached);
                    leader.publish(cached.clone());
                    record(results, planned, cached);
                }
                None => to_resolve.push((planned, leader)),
            }
        }

        // Remote tier: led points whose machine the peer can reproduce are
        // offered to the peer chain, in parallel (peer hops are IO-bound —
        // the sim-thread pool doubles as the connection pool).  A point the
        // chain cannot answer (no peers, ineligible, every hop failed)
        // falls through to local simulation below.
        let mut remote_answers: Vec<Option<SimStats>> =
            (0..to_resolve.len()).map(|_| None).collect();
        if self.chain.has_peers() {
            let requests: Vec<(usize, &PlannedPoint, String)> = to_resolve
                .iter()
                .enumerate()
                .filter(|(_, (planned, _))| resolver::peer_eligible(planned))
                .map(|(slot, (planned, _))| {
                    (slot, *planned, resolver::peer_request_body(ctx, planned))
                })
                .collect();
            if !requests.is_empty() {
                let outcomes =
                    run_parallel(self.config.sim_threads, &requests, |(_, planned, body)| {
                        self.chain.resolve_remote(planned, body)
                    });
                for ((slot, _, _), outcome) in requests.iter().zip(outcomes) {
                    stats.peer_failures += outcome.failures;
                    stats.breaker_trips += outcome.trips;
                    stats.breaker_skips += outcome.breaker_skips;
                    if let Some(remote) = outcome.stats {
                        stats.peer_hits += 1;
                        remote_answers[*slot] = Some(remote);
                    }
                }
            }
        }
        let mut to_simulate = Vec::with_capacity(to_resolve.len());
        for ((planned, leader), answer) in to_resolve.into_iter().zip(remote_answers) {
            match answer {
                Some(remote) => {
                    // Peer answers enter the local tiers exactly like
                    // simulated ones: store before publish.
                    if let Some(cache) = &self.cache {
                        let _ = cache.store(&planned.key, &remote);
                    }
                    self.chain.memory_put(&planned.key.canonical(), &remote);
                    leader.publish(remote.clone());
                    record(results, planned, remote);
                }
                None => to_simulate.push((planned, leader)),
            }
        }

        // Local tier: simulate every remaining led point (the per-request
        // parallelism knob), then store to the cache *before* publishing so
        // late joiners that just missed the flight hit the disk instead of
        // re-simulating.
        let led_points: Vec<&PlannedPoint> =
            to_simulate.iter().map(|(planned, _)| *planned).collect();
        let simulated = run_parallel(self.config.sim_threads, &led_points, |planned| {
            engine::simulate_planned(ctx, planned)
        });
        for ((planned, leader), result) in to_simulate.into_iter().zip(simulated) {
            self.simulations.fetch_add(1, Ordering::Relaxed);
            if let Some(cache) = &self.cache {
                if let Err(error) = cache.store(&planned.key, &result.stats) {
                    eprintln!("warning: cannot cache point {:?}: {error}", planned.point);
                }
            }
            self.chain
                .memory_put(&planned.key.canonical(), &result.stats);
            leader.publish(result.stats.clone());
            stats.simulated += 1;
            results.insert(planned.digest, result);
        }

        let mut failed = Vec::new();
        for (planned, follower) in followers {
            match follower.wait() {
                Some(flown) => {
                    stats.coalesced += 1;
                    record(results, planned, flown);
                }
                None => failed.push(planned),
            }
        }
        failed
    }
}

/// Record one resolved point — the shared tail of every hit/coalesce/
/// simulate path in the resolver.
fn record(results: &mut ResultSet, planned: &PlannedPoint, stats: SimStats) {
    results.insert(
        planned.digest,
        RunResult {
            point: planned.point,
            stats,
        },
    );
}

/// Parse the request body as JSON (an empty body is an empty object, so
/// GET-style POSTs with all defaults work).
fn parse_json_body(request: &Request) -> Result<Value, Response> {
    let text = request
        .body_text()
        .map_err(|_| Response::error(400, "request body is not valid UTF-8"))?;
    if text.trim().is_empty() {
        return Ok(Value::Map(Vec::new()));
    }
    serde::json::parse(text)
        .map_err(|error| Response::error(400, &format!("invalid JSON body: {error}")))
}

/// Parse a register-file size field.
fn parse_size(entry: &Value, field: &str) -> Result<usize, String> {
    let raw = entry
        .get(field)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing or non-integer '{field}'"))?;
    usize::try_from(raw).map_err(|_| format!("'{field}' out of range"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn follower_of_a_failed_leader_resolves_its_point_once() {
        let service = Service::new(
            ServiceConfig {
                cache_dir: None,
                sim_threads: 1,
                ..ServiceConfig::default()
            },
            Arc::new(AtomicBool::new(false)),
        );
        let ctx = PlanContext::new(
            ExperimentOptions {
                scale: Scale::Smoke,
                threads: 1,
                max_instructions: 2000,
            },
            Scenario::table2(),
        );
        let workload = ctx.workload("swim").unwrap().clone();
        let planned = ctx.point(&workload, ReleasePolicy::Extended, 48, 48);
        let canonical = planned.key.canonical();

        let Join::Leader(leader) = service.flights.join(canonical.clone()) else {
            panic!("the first joiner leads");
        };
        let (results, stats) = std::thread::scope(|scope| {
            let request = scope.spawn(|| service.resolve(&ctx, std::slice::from_ref(&planned)));
            while service.flights.followers(&canonical) == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            drop(leader); // fails without publishing
            request.join().unwrap()
        });

        let expected = engine::simulate_planned(&ctx, &planned).stats;
        assert_eq!(results.get(&planned).unwrap().stats, expected);
        assert_eq!(service.simulations(), 1);
        assert_eq!(stats.simulated, 1);
        assert_eq!(
            (stats.coalesced, stats.lru_hits, stats.cache_hits),
            (0, 0, 0)
        );
        assert_eq!((service.coalesced(), service.lru_hits()), (0, 0));
        assert!(service.flights.is_empty());
    }
}
