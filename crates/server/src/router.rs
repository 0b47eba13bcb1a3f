//! The fleet front door: a [`Handler`] that consistent-hashes
//! `(tenant, model id)` keys across N backend judge processes and
//! forwards WDTP requests through pooled per-backend [`DisputeClient`]s.
//!
//! The router is served by the same event loop as the judge
//! (`JudgeServer::bind(addr, Arc::new(router), config)`), so framing,
//! authentication, replay floors, pipelining, connection caps, idle
//! reaping and the fault policy are the judge's own. It terminates the
//! protocol rather than shuffling raw bytes — it has to, because
//! splitting one docket across backends produces frames the end client
//! never signed. Pass-through is *semantic*: requests are re-signed
//! towards each backend with the tenant's own secret from the server's
//! key ring, correlation ids are echoed back unchanged, and a backend's
//! `NeedPayload` demand for claim bodies the router never held is
//! relayed upstream so the end client's content-addressed retry logic
//! works exactly as against a single judge.
//!
//! A routed request blocks on backend sockets, so it runs on its client
//! connection's own routing thread rather than on the process-global
//! work-stealing pool: an in-process fleet shares that pool with its
//! backends, which must never starve behind blocked router jobs, and a
//! request stalled on one backend holds up only its own connection.
//!
//! Placement is the [`HashRing`] of `wdte_core::fleet`: deterministic,
//! process-independent, and minimally disruptive on backend loss. A
//! docket is split into per-backend shards with
//! [`fleet::split_indices`], the shards travel concurrently (all sends
//! before any receive), and verdicts are stitched back into input order
//! with [`fleet::scatter`]. On a fleet whose backends warm-started from
//! a shared manifest, every backend holds every model, so a dead
//! backend degrades to bounded retry-on-sibling with bit-identical
//! verdicts; models only the dead backend knew degrade to *typed*
//! faults for exactly their disputes — never a hung connection.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError, Weak};
use std::time::Duration;
use wdte_core::error::{WatermarkError, WatermarkResult};
use wdte_core::fleet::{self, HashRing};
use wdte_core::proto::{self, DisputeRef, DocketVerdict, PayloadDigest, Request, Response, WireFault};
use wdte_core::{persist, OwnershipClaim, TenantId, TenantStatsEntry};

use crate::client::{ClientAuth, ClientConfig, DisputeClient, DocketOutcome};
use crate::server::{fault_response, Handler, Job, ServerConfig};

/// Routing knobs of a [`JudgeRouter`]. Connection-level settings (frame
/// cap, timeouts, key ring) come from the [`ServerConfig`] it is served
/// with and apply to both faces.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Addresses of the backend judge processes, in ring order. The ring
    /// is built over the *positions* of this list, so every router (and
    /// every router restart) given the same list computes identical
    /// placement. At least one backend is required.
    pub backends: Vec<String>,
    /// Virtual ring points per backend; more points spread keys more
    /// evenly at slightly higher lookup cost.
    pub ring_replicas: usize,
    /// How many sibling backends to try (beyond the home) before a
    /// request or docket shard is failed with a typed fault. `0`
    /// disables failover entirely.
    pub retry_siblings: usize,
    /// Interval of the background health monitor, which TCP-probes every
    /// backend and flips its healthy flag. The probe is connect-only —
    /// keyed backends refuse anonymous frames, so a protocol-level ping
    /// would demote healthy keyed fleets.
    pub health_interval: Duration,
    /// Read deadline on backend responses. `None` (the default) waits as
    /// long as the backend needs — a large docket shard legitimately
    /// takes a while, and a *dead* backend fails the read immediately
    /// rather than timing out.
    pub backend_read_timeout: Option<Duration>,
    /// Per-attempt TCP connect deadline for backend connections and
    /// health probes.
    pub connect_timeout: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            backends: Vec::new(),
            ring_replicas: 64,
            retry_siblings: 1,
            health_interval: Duration::from_secs(1),
            backend_read_timeout: None,
            connect_timeout: Duration::from_secs(1),
        }
    }
}

/// One backend judge as the router tracks it.
#[derive(Debug)]
struct Backend {
    addr: String,
    /// Flipped by the background health monitor (TCP probe) and by
    /// passive demotion when a request-path transport failure proves the
    /// backend is gone. An unhealthy backend is skipped by placement
    /// until a probe succeeds again.
    healthy: AtomicBool,
}

/// What the router shares with its health monitor.
#[derive(Debug)]
struct Fleet {
    backends: Box<[Backend]>,
    /// Idle backend clients, keyed by `(backend, tenant)` because each
    /// backend connection authenticates as one tenant and carries its own
    /// sequence counter. A request checks one out per backend it touches
    /// and returns it after the receive, so concurrent requests never
    /// share a connection.
    idle: Mutex<HashMap<(usize, TenantId), Vec<DisputeClient>>>,
}

/// The fleet router: serve it with
/// [`JudgeServer::bind`](crate::JudgeServer::bind). Its health monitor
/// starts with [`new`](Self::new) and ends once the router is dropped.
#[derive(Debug)]
pub struct JudgeRouter {
    ring: HashRing,
    fleet: Arc<Fleet>,
    retry_siblings: usize,
    backend_read_timeout: Option<Duration>,
    connect_timeout: Duration,
}

impl JudgeRouter {
    /// Builds the router and starts its health monitor. Refuses an empty
    /// backend list — a router with nowhere to route is a
    /// misconfiguration, not a degraded fleet.
    pub fn new(config: RouterConfig) -> WatermarkResult<Self> {
        let ring = HashRing::new(config.backends.len(), config.ring_replicas)?;
        let fleet = Arc::new(Fleet {
            backends: config
                .backends
                .into_iter()
                .map(|addr| Backend {
                    addr,
                    healthy: AtomicBool::new(true),
                })
                .collect(),
            idle: Mutex::new(HashMap::new()),
        });
        {
            let fleet = Arc::downgrade(&fleet);
            let (interval, timeout) = (config.health_interval, config.connect_timeout);
            std::thread::spawn(move || health_monitor(&fleet, interval, timeout));
        }
        Ok(Self {
            ring,
            fleet,
            retry_siblings: config.retry_siblings,
            backend_read_timeout: config.backend_read_timeout,
            connect_timeout: config.connect_timeout,
        })
    }

    fn backends(&self) -> &[Backend] {
        &self.fleet.backends
    }

    fn healthy(&self, backend: usize) -> bool {
        self.backends()[backend].healthy.load(Ordering::Relaxed)
    }

    /// Passive demotion: a request-path transport failure is stronger
    /// evidence than a stale probe, so the flag drops immediately; the
    /// monitor re-promotes once probes succeed again.
    fn demote(&self, backend: usize) {
        self.backends()[backend].healthy.store(false, Ordering::Relaxed);
    }

    /// The typed fault a dispute receives when the backend holding its
    /// model cannot be reached (directly or via siblings).
    fn unreachable(&self, home: usize, model_id: &str) -> WatermarkError {
        WatermarkError::Remote {
            message: format!(
                "model `{model_id}` is homed on backend {home} ({}), which is unreachable",
                self.backends()[home].addr
            ),
        }
    }

    /// Checks out a client for `backend` as `tenant`: an idle one whose
    /// backend has not closed it meanwhile (a judge reaps idle
    /// connections), else a fresh connection — demoting the backend if
    /// the connect fails.
    fn checkout(
        &self,
        config: &ServerConfig,
        backend: usize,
        tenant: &TenantId,
    ) -> WatermarkResult<DisputeClient> {
        let key = (backend, tenant.clone());
        loop {
            let idle = self
                .fleet
                .idle
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get_mut(&key)
                .and_then(Vec::pop);
            match idle {
                Some(client) if client.is_open() => return Ok(client),
                Some(_closed) => continue,
                None => break,
            }
        }
        let auth = match &config.key_ring {
            Some(ring) if !tenant.is_anonymous() => {
                let secret = ring.key(tenant).ok_or_else(|| WatermarkError::ProtocolViolation {
                    detail: format!("tenant `{tenant}` is missing from the router's key ring"),
                })?;
                Some(ClientAuth::new(tenant.clone(), secret.to_vec()))
            }
            _ => None,
        };
        let client_config = ClientConfig {
            connect_attempts: 1,
            connect_timeout: Some(self.connect_timeout),
            read_timeout: self.backend_read_timeout,
            write_timeout: config.write_timeout,
            max_frame_bytes: config.max_frame_bytes,
            auth,
            ..ClientConfig::default()
        };
        DisputeClient::connect_with(self.backends()[backend].addr.as_str(), client_config)
            .inspect_err(|_| self.demote(backend))
    }

    /// Returns a client to the idle pool after its exchange completed. A
    /// broken client, or one still owing responses, is dropped instead.
    fn checkin(&self, backend: usize, tenant: &TenantId, client: DisputeClient) {
        if !client.is_broken() && client.pending_dockets() == 0 {
            self.fleet
                .idle
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .entry((backend, tenant.clone()))
                .or_default()
                .push(client);
        }
    }
}

/// Routed requests block on backend sockets, so they run on a routing
/// thread per client connection; the server config supplies the key ring
/// that re-signs them and the frame cap and write deadline of the
/// backend hop.
impl Handler for JudgeRouter {
    fn handle(&self, config: &ServerConfig, tenant: &TenantId, request: Request) -> Response {
        route_request(self, config, tenant, request)
    }

    /// The queue of the connection's routing thread, once it has one.
    type Lane = Option<mpsc::Sender<Job>>;

    /// A connection's requests run in order on its own routing thread,
    /// started at its first request and ended once the connection closes
    /// and its queue is drained. A request stalled on one backend holds
    /// up only later requests of the same connection, and the fleet sees
    /// as many concurrent requests as the router has busy connections.
    fn spawn(&self, lane: &mut Self::Lane, mut job: Job) {
        if let Some(queue) = lane {
            match queue.send(job) {
                Ok(()) => return,
                Err(mpsc::SendError(unsent)) => job = unsent,
            }
        }
        let (queue, jobs) = mpsc::channel::<Job>();
        let _ = std::thread::Builder::new()
            .name("wdte-route".to_string())
            .spawn(move || jobs.into_iter().for_each(|job| job()));
        match queue.send(job) {
            Ok(()) => *lane = Some(queue),
            // The OS refused a thread: answer on this one rather than
            // leave the request unanswered.
            Err(mpsc::SendError(job)) => job(),
        }
    }
}

/// TCP-probes every backend each `interval` for as long as the router
/// holds the fleet, and drops pooled clients whose backend has closed
/// them: a judge reaps idle connections, and a quiet key's pooled
/// sockets would otherwise stay half-closed on the router.
fn health_monitor(fleet: &Weak<Fleet>, interval: Duration, timeout: Duration) {
    while let Some(fleet) = fleet.upgrade() {
        for backend in fleet.backends.iter() {
            backend.healthy.store(probe(&backend.addr, timeout), Ordering::Relaxed);
        }
        fleet.idle.lock().unwrap_or_else(PoisonError::into_inner).retain(|_, clients| {
            clients.retain(DisputeClient::is_open);
            !clients.is_empty()
        });
        drop(fleet);
        std::thread::sleep(interval);
    }
}

/// Connect-only liveness probe. Deliberately below the protocol: a keyed
/// backend refuses anonymous frames, so any frame-level probe would need
/// tenant credentials the monitor has no business holding.
fn probe(addr: &str, timeout: Duration) -> bool {
    match addr.to_socket_addrs() {
        Ok(addrs) => addrs.into_iter().any(|addr| TcpStream::connect_timeout(&addr, timeout).is_ok()),
        Err(_) => false,
    }
}

/// Maps one decoded request onto the fleet.
fn route_request(
    router: &JudgeRouter,
    config: &ServerConfig,
    tenant: &TenantId,
    request: Request,
) -> Response {
    match request {
        Request::Ping => aggregate_ping(router, config, tenant),
        // Single-model requests go to the key's home backend, with
        // bounded failover onto ring siblings.
        Request::RegisterModel { ref model_id, .. }
        | Request::RegisterModelRef { ref model_id, .. }
        | Request::Resolve { ref model_id, .. } => {
            route_single(router, config, tenant, model_id, &request)
        }
        Request::ResolveDocket { disputes } => {
            // Unify onto the ref form the backends already speak: digest
            // every body once, share it across whichever shards reference
            // it, and let the per-backend clients decide what to inline.
            let mut bodies: HashMap<PayloadDigest, Arc<OwnershipClaim>> =
                HashMap::with_capacity(disputes.len());
            let mut refs = Vec::with_capacity(disputes.len());
            for dispute in disputes {
                let digest = PayloadDigest::of_claim(&dispute.claim);
                bodies.entry(digest).or_insert_with(|| Arc::new(dispute.claim));
                refs.push(DisputeRef::new(dispute.model_id, digest));
            }
            route_docket(router, config, tenant, &bodies, refs)
        }
        Request::ResolveDocketRef { bodies, disputes } => {
            let mut map: HashMap<PayloadDigest, Arc<OwnershipClaim>> =
                HashMap::with_capacity(bodies.len());
            for body in bodies {
                let digest = PayloadDigest::of_claim(&body);
                map.entry(digest).or_insert_with(|| Arc::new(body));
            }
            route_docket(router, config, tenant, &map, disputes)
        }
        Request::Payload { ref claims } => {
            // Replicate stored bodies to every reachable backend so
            // later digest-only references resolve wherever their
            // dispute lands; a refusal answers only if no backend stored
            // them.
            let digests: Vec<PayloadDigest> = claims.iter().map(PayloadDigest::of_claim).collect();
            let mut stored = false;
            let mut refused = None;
            for backend in 0..router.backends().len() {
                match backend_call(router, config, tenant, backend, &request) {
                    Some(Response::Error { fault }) => {
                        refused.get_or_insert(Response::Error { fault });
                    }
                    Some(_) => stored = true,
                    None => {}
                }
            }
            if stored {
                return Response::PayloadStored { digests };
            }
            refused.unwrap_or_else(|| fault_response(&no_backends_error(router)))
        }
        Request::ListModels => {
            let mut union = BTreeSet::new();
            let refused = gather(
                router,
                config,
                tenant,
                &request,
                "Models",
                |response| match response {
                    Response::Models { model_ids } => {
                        union.extend(model_ids);
                        Ok(())
                    }
                    other => Err(other),
                },
            );
            refused.unwrap_or_else(|| Response::Models {
                model_ids: union.into_iter().collect(),
            })
        }
        // Broadcast: replicated warm starts put the model on every
        // backend, and degradation-era registrations may have landed it
        // on a sibling.
        Request::Deregister { ref model_id } => {
            let mut existed = false;
            let refused =
                gather(
                    router,
                    config,
                    tenant,
                    &request,
                    "Deregistered",
                    |response| match response {
                        Response::Deregistered { existed: here, .. } => {
                            existed |= here;
                            Ok(())
                        }
                        other => Err(other),
                    },
                );
            refused.unwrap_or_else(|| Response::Deregistered {
                model_id: model_id.clone(),
                existed,
            })
        }
        Request::Stats => {
            let mut merged: BTreeMap<String, TenantStatsEntry> = BTreeMap::new();
            let refused = gather(
                router,
                config,
                tenant,
                &request,
                "Stats",
                |response| match response {
                    Response::Stats { tenants } => {
                        for entry in tenants {
                            merge_stats(merged.entry(entry.tenant.clone()).or_default(), entry);
                        }
                        Ok(())
                    }
                    other => Err(other),
                },
            );
            refused.unwrap_or_else(|| Response::Stats {
                tenants: merged.into_values().collect(),
            })
        }
    }
}

/// Asks every healthy backend `request` and folds each answer into
/// `merge`, which hands back an answer that is not the `wanted` kind.
/// Returns the response that ends the request early: the first typed
/// refusal, a wrong kind of answer, or the fault of a fleet in which no
/// backend answered; `None` when everything merged.
fn gather(
    router: &JudgeRouter,
    config: &ServerConfig,
    tenant: &TenantId,
    request: &Request,
    wanted: &str,
    mut merge: impl FnMut(Response) -> Result<(), Response>,
) -> Option<Response> {
    let mut answered = 0usize;
    for backend in 0..router.backends().len() {
        match backend_call(router, config, tenant, backend, request) {
            None => continue,
            Some(Response::Error { fault }) => return Some(Response::Error { fault }),
            Some(response) => {
                if let Err(other) = merge(response) {
                    return Some(fault_response(&unexpected(&other, wanted)));
                }
            }
        }
        answered += 1;
    }
    (answered == 0).then(|| fault_response(&no_backends_error(router)))
}

/// The fault for "not a single backend could be reached".
fn no_backends_error(router: &JudgeRouter) -> WatermarkError {
    WatermarkError::Remote {
        message: format!(
            "no reachable backend among the {} configured",
            router.backends().len()
        ),
    }
}

/// Converts an unexpected backend response kind into a typed error.
fn unexpected(response: &Response, wanted: &str) -> WatermarkError {
    WatermarkError::ProtocolViolation {
        detail: format!("expected a {wanted} response, backend answered {response:?}"),
    }
}

/// One best-effort call to one backend: `None` means the backend was
/// skipped (unhealthy) or failed at the transport level (and has been
/// demoted). Used by the broadcast/aggregate arms, which tolerate
/// partial fleets.
fn backend_call(
    router: &JudgeRouter,
    config: &ServerConfig,
    tenant: &TenantId,
    backend: usize,
    request: &Request,
) -> Option<Response> {
    if !router.healthy(backend) {
        return None;
    }
    let mut client = router.checkout(config, backend, tenant).ok()?;
    let response = client.raw_request(request);
    if client.is_broken() {
        router.demote(backend);
    }
    router.checkin(backend, tenant, client);
    response.ok()
}

/// Sums every backend's pong into a fleet-wide view. The router answers
/// its own protocol/format versions (it *is* the peer the client
/// negotiates with); model and claim counts aggregate whatever part of
/// the fleet is reachable — a ping is a liveness probe, so a degraded
/// fleet still pongs.
fn aggregate_ping(router: &JudgeRouter, config: &ServerConfig, tenant: &TenantId) -> Response {
    let mut models_registered = 0u64;
    let mut claims_cached = 0u64;
    for backend in 0..router.backends().len() {
        if let Some(Response::Pong {
            models_registered: models,
            claims_cached: claims,
            ..
        }) = backend_call(router, config, tenant, backend, &Request::Ping)
        {
            models_registered += models;
            claims_cached += claims;
        }
    }
    Response::Pong {
        protocol_version: proto::PROTOCOL_VERSION,
        format_version: persist::FORMAT_VERSION,
        models_registered,
        claims_cached,
    }
}

/// Routes one single-model request: home first, then ring siblings in
/// deterministic order, skipping unhealthy backends, bounded by
/// `1 + retry_siblings` actual attempts. A sibling answering
/// `UnknownModel` for a key whose home is down is rewritten to the
/// unreachable fault — the model may well exist, just behind a dead
/// process, and "unknown" would mislead the claimant.
fn route_single(
    router: &JudgeRouter,
    config: &ServerConfig,
    tenant: &TenantId,
    model_id: &str,
    request: &Request,
) -> Response {
    let candidates = router.ring.candidates(tenant, model_id);
    let home = candidates[0];
    let max_attempts = 1 + router.retry_siblings;
    let mut attempts = 0usize;
    for &backend in &candidates {
        if attempts >= max_attempts {
            break;
        }
        if !router.healthy(backend) {
            continue;
        }
        attempts += 1;
        let Ok(mut client) = router.checkout(config, backend, tenant) else {
            continue;
        };
        let result = client.raw_request(request);
        let broken = client.is_broken();
        router.checkin(backend, tenant, client);
        match result {
            Ok(Response::Error { fault }) => {
                if backend != home && matches!(fault, WireFault::UnknownModel { .. }) {
                    return fault_response(&router.unreachable(home, model_id));
                }
                return Response::Error { fault };
            }
            Ok(response) => return response,
            Err(_err) if broken => router.demote(backend),
            // The connection is fine — the request itself could not be
            // encoded; a sibling would refuse it identically.
            Err(err) => return fault_response(&err),
        }
    }
    fault_response(&router.unreachable(home, model_id))
}

/// Splits one docket across the fleet and stitches the verdicts back in
/// input order.
///
/// Within one round every shard is *sent* before any shard is
/// *received*, so backends resolve concurrently. A shard lost to a
/// transport failure demotes its backend and re-enters the next round,
/// where its disputes re-route onto their next healthy candidates —
/// `retry_siblings` bounds the extra rounds. A backend demanding claim
/// bodies the router cannot supply turns the whole docket into one
/// upstream `NeedPayload` (the client retries with bodies inlined); a
/// typed refusal (quota, oversized shard) fails the whole docket, the
/// same verdict a single judge would have given.
fn route_docket(
    router: &JudgeRouter,
    config: &ServerConfig,
    tenant: &TenantId,
    bodies: &HashMap<PayloadDigest, Arc<OwnershipClaim>>,
    disputes: Vec<DisputeRef>,
) -> Response {
    let total = disputes.len();
    let mut slots: Vec<Option<WatermarkResult<wdte_core::VerificationReport>>> = Vec::new();
    slots.resize_with(total, || None);
    let homes: Vec<usize> = disputes
        .iter()
        .map(|dispute| router.ring.home(tenant, &dispute.model_id))
        .collect();
    let mut demanded: Vec<PayloadDigest> = Vec::new();
    let mut demanded_seen: HashSet<PayloadDigest> = HashSet::new();
    let mut pending: Vec<usize> = (0..total).collect();
    // Backends that failed *this docket*: stronger than the shared
    // healthy flag (which the monitor may flip back mid-docket) — a
    // backend that already ate one shard of this docket never gets
    // another.
    let mut failed: HashSet<usize> = HashSet::new();
    for _round in 0..=router.retry_siblings {
        if pending.is_empty() {
            break;
        }
        // Assign every still-pending dispute to its first live
        // candidate; usize::MAX marks "no candidate left".
        let choices: Vec<usize> = pending
            .iter()
            .map(|&idx| {
                router
                    .ring
                    .candidates(tenant, &disputes[idx].model_id)
                    .into_iter()
                    .find(|&backend| !failed.contains(&backend) && router.healthy(backend))
                    .unwrap_or(usize::MAX)
            })
            .collect();
        let mut plan: Vec<(usize, Vec<usize>)> = Vec::new();
        for (backend, positions) in fleet::split_indices(pending.len(), |pos| choices[pos]) {
            let indices: Vec<usize> = positions.iter().map(|&pos| pending[pos]).collect();
            if backend == usize::MAX {
                // Out of candidates now; no later round can help.
                for idx in indices {
                    slots[idx] = Some(Err(router.unreachable(homes[idx], &disputes[idx].model_id)));
                }
            } else {
                plan.push((backend, indices));
            }
        }
        // Send phase: every shard goes on the wire before any verdict is
        // awaited, so the backends overlap.
        let mut sent = Vec::with_capacity(plan.len());
        let mut next_pending: Vec<usize> = Vec::new();
        for (backend, indices) in plan {
            let shard: Vec<DisputeRef> = indices.iter().map(|&idx| disputes[idx].clone()).collect();
            let Ok(mut client) = router.checkout(config, backend, tenant) else {
                failed.insert(backend);
                next_pending.extend(indices);
                continue;
            };
            match client.send_docket_ref(bodies, &shard) {
                Ok(ticket) => sent.push((backend, indices, client, ticket)),
                Err(_err) if client.is_broken() => {
                    router.demote(backend);
                    failed.insert(backend);
                    next_pending.extend(indices);
                }
                Err(err) => return fault_response(&err),
            }
        }
        // Receive phase, in send order. An early return drops the clients
        // still owing a response instead of pooling them.
        for (backend, indices, mut client, ticket) in sent {
            let outcome = client.recv_docket_outcome(ticket);
            let broken = client.is_broken();
            router.checkin(backend, tenant, client);
            match outcome {
                Ok(DocketOutcome::Verdicts(verdicts)) => {
                    if let Err(err) = fleet::scatter(&mut slots, &indices, verdicts) {
                        return fault_response(&err);
                    }
                    for &idx in &indices {
                        if backend != homes[idx]
                            && matches!(slots[idx], Some(Err(WatermarkError::UnknownModel { .. })))
                        {
                            slots[idx] =
                                Some(Err(router.unreachable(homes[idx], &disputes[idx].model_id)));
                        }
                    }
                }
                Ok(DocketOutcome::NeedPayload(digests)) => {
                    if digests.is_empty() {
                        return fault_response(&WatermarkError::ProtocolViolation {
                            detail: "backend demanded an empty payload list".to_string(),
                        });
                    }
                    // The whole docket bounces as one NeedPayload; these
                    // disputes leave the retry loop (the client's clean
                    // resend covers them).
                    for digest in digests {
                        if demanded_seen.insert(digest) {
                            demanded.push(digest);
                        }
                    }
                }
                Err(_err) if broken => {
                    router.demote(backend);
                    failed.insert(backend);
                    next_pending.extend(indices);
                }
                // A typed whole-shard refusal (tenant quota, oversized
                // docket): the single-judge answer to this docket would
                // have been the same error.
                Err(err) => return fault_response(&err),
            }
        }
        pending = next_pending;
    }
    // Rounds exhausted with shards still unplaced.
    for idx in pending {
        slots[idx] = Some(Err(router.unreachable(homes[idx], &disputes[idx].model_id)));
    }
    if !demanded.is_empty() {
        return Response::NeedPayload { digests: demanded };
    }
    let verdicts: Vec<DocketVerdict> = slots
        .into_iter()
        .map(|slot| {
            DocketVerdict::from_result(slot.unwrap_or_else(|| {
                Err(WatermarkError::ProtocolViolation {
                    detail: "a dispute fell through docket routing without a verdict".to_string(),
                })
            }))
        })
        .collect();
    Response::Docket { verdicts }
}

/// Adds `from`'s counters into `into` (field-by-field sum), keeping the
/// tenant name.
fn merge_stats(into: &mut TenantStatsEntry, from: TenantStatsEntry) {
    into.tenant = from.tenant;
    into.models += from.models;
    into.dockets += from.dockets;
    into.claims += from.claims;
    into.cache_hits += from.cache_hits;
    into.cache_misses += from.cache_misses;
    into.evictions += from.evictions;
    into.auth_failures += from.auth_failures;
    into.claim_bytes += from.claim_bytes;
    into.in_flight += from.in_flight;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pooled(router: &JudgeRouter) -> usize {
        let idle = router.fleet.idle.lock().unwrap();
        idle.values().map(Vec::len).sum()
    }

    /// A judge reaps idle connections; the health monitor then drops the
    /// pooled clients it closed, so a quiet key keeps no half-closed
    /// sockets open on the router.
    #[test]
    fn the_health_monitor_prunes_pooled_clients_their_backend_closed() {
        let backend = TcpListener::bind("127.0.0.1:0").unwrap();
        let router = JudgeRouter::new(RouterConfig {
            backends: vec![backend.local_addr().unwrap().to_string()],
            health_interval: Duration::from_millis(20),
            ..RouterConfig::default()
        })
        .unwrap();
        let tenant = TenantId::anonymous();
        let client = router.checkout(&ServerConfig::default(), 0, &tenant).unwrap();
        router.checkin(0, &tenant, client);
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(pooled(&router), 1, "an open client stays pooled");

        // The backend closes every connection it has accepted, the
        // pooled client's among them (health probes are the others).
        backend.set_nonblocking(true).unwrap();
        while let Ok((stream, _)) = backend.accept() {
            drop(stream);
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while pooled(&router) > 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "the closed client stayed pooled"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}
