//! Integration suite for the judge-fleet router: bit-identity of routed
//! dockets against in-process resolution (anonymous and authenticated),
//! consistent-hash placement across real backend servers, degradation of
//! a dead backend into typed faults, sibling retry over a replicated
//! warm start, `NeedPayload` relay through the fan-out, and the
//! fleet-wide aggregation requests — plus the deadlock guard for a
//! router and its backends sharing one process and one worker pool, and
//! the isolation of requests from a stalled backend.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::Duration;
use wdte_core::error::WatermarkError;
use wdte_core::proto::{self, PayloadDigest, Request};
use wdte_core::{
    persist, Dispute, DisputeService, HashRing, KeyRing, ManifestEntry, ModelManifest, OwnershipClaim,
    SharedDispute, Signature, TenantId, WatermarkConfig, WatermarkOutcome, Watermarker,
};
use wdte_data::{Dataset, SyntheticSpec};
use wdte_server::{
    ClientAuth, ClientConfig, DisputeClient, JudgeRouter, JudgeServer, RouterConfig, RunningServer,
    ServerConfig,
};

fn embedded(seed: u64) -> (Dataset, WatermarkOutcome) {
    let dataset = SyntheticSpec::breast_cancer_like()
        .scaled(0.6)
        .generate(&mut SmallRng::seed_from_u64(seed));
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xABCD);
    let (train, test) = dataset.split_stratified(0.75, &mut rng);
    let signature = Signature::random(12, 0.5, &mut rng);
    let watermarker = Watermarker::new(WatermarkConfig {
        num_trees: 12,
        ..WatermarkConfig::fast()
    });
    let outcome = watermarker.embed(&train, &signature, &mut rng).unwrap();
    (test, outcome)
}

fn claim_for(outcome: &WatermarkOutcome, test: &Dataset) -> OwnershipClaim {
    OwnershipClaim::new(
        outcome.signature.clone(),
        outcome.trigger_set.clone(),
        test.clone(),
    )
}

/// A genuine/forged docket cycling `models` model ids with one ghost id
/// in the middle — the shape every routing test resolves.
fn mixed_docket(
    test: &Dataset,
    outcome: &WatermarkOutcome,
    models: usize,
    claims: usize,
) -> Vec<Dispute> {
    let genuine = claim_for(outcome, test);
    let mut rng = SmallRng::seed_from_u64(0x0DD);
    let forged = OwnershipClaim::new(
        Signature::random(12, 0.5, &mut rng),
        test.select(&test.sample_indices(outcome.trigger_set.len(), &mut rng)).unwrap(),
        test.clone(),
    );
    (0..claims)
        .map(|i| {
            let claim = if i % 2 == 0 {
                genuine.clone()
            } else {
                forged.clone()
            };
            let id = if i == claims / 2 {
                "fleet-ghost".to_string()
            } else {
                format!("fleet-m{}", i % models)
            };
            Dispute::new(id, claim)
        })
        .collect()
}

fn start_backend(service: Arc<DisputeService>, ring: Option<Arc<KeyRing>>) -> RunningServer {
    JudgeServer::bind(
        "127.0.0.1:0",
        service,
        ServerConfig {
            key_ring: ring,
            ..ServerConfig::default()
        },
    )
    .expect("loopback bind succeeds")
    .spawn()
}

fn start_router(backends: &[&RunningServer], ring: Option<Arc<KeyRing>>) -> RunningServer {
    let router = JudgeRouter::new(RouterConfig {
        backends: backends.iter().map(|b| b.addr().to_string()).collect(),
        ..RouterConfig::default()
    })
    .expect("a non-empty backend list builds");
    JudgeServer::bind(
        "127.0.0.1:0",
        Arc::new(router),
        ServerConfig {
            key_ring: ring,
            ..ServerConfig::default()
        },
    )
    .expect("loopback bind succeeds")
    .spawn()
}

fn fresh_fleet(n: usize) -> (Vec<RunningServer>, RunningServer) {
    let backends: Vec<RunningServer> = (0..n)
        .map(|_| start_backend(Arc::new(DisputeService::builder().build().unwrap()), None))
        .collect();
    let router = start_router(&backends.iter().collect::<Vec<_>>(), None);
    (backends, router)
}

/// Ring home of each `fleet-m{i}` id under the router's default ring.
fn homes(models: usize, backends: usize, tenant: &TenantId) -> Vec<usize> {
    let ring = HashRing::new(backends, RouterConfig::default().ring_replicas).unwrap();
    (0..models).map(|i| ring.home(tenant, &format!("fleet-m{i}"))).collect()
}

/// Acceptance gate of the fleet layer: a 48-claim docket resolved
/// through the router across two live backends — including a dispute
/// naming a model no backend knows — is bit-identical to in-process
/// `resolve_many`, sequentially and when pipelined out of order.
#[test]
fn routed_docket_is_bit_identical_to_in_process_resolution() {
    let (test, outcome) = embedded(71);
    let docket = mixed_docket(&test, &outcome, 4, 48);
    let reference_service = DisputeService::builder().build().unwrap();
    for i in 0..4 {
        reference_service.register(format!("fleet-m{i}"), &outcome.model);
    }
    let reference = reference_service.resolve_many(&docket);

    let (_backends, router) = fresh_fleet(2);
    let mut client = DisputeClient::connect(router.addr().to_string()).unwrap();
    for i in 0..4 {
        assert_eq!(
            client.register_model(format!("fleet-m{i}"), &outcome.model).unwrap(),
            outcome.model.num_trees()
        );
    }
    let served = client.resolve_docket(&docket).unwrap();
    assert_eq!(served.len(), reference.len());
    for (i, (remote, local)) in served.iter().zip(&reference).enumerate() {
        assert_eq!(remote, local, "verdict {i} diverged through the fleet");
    }
    let upheld = served.iter().filter(|v| v.as_ref().is_ok_and(|r| r.verified)).count();
    assert!(
        upheld > 0 && upheld < docket.len(),
        "docket must mix verdicts, got {upheld} upheld"
    );

    // Pipelined dockets redeemed in reverse must stitch identically.
    let tickets = [
        client.send_docket(&docket).unwrap(),
        client.send_docket(&docket).unwrap(),
        client.send_docket(&docket).unwrap(),
    ];
    for ticket in tickets.into_iter().rev() {
        assert_eq!(client.recv_docket(ticket).unwrap(), served);
    }
    router.shutdown().unwrap();
}

/// Wire registration places each model on exactly its ring home, and
/// the routed `ListModels` is the union of the per-backend inventories.
#[test]
fn models_land_on_their_consistent_hash_homes() {
    let (test, outcome) = embedded(72);
    let _ = test;
    let (backends, router) = fresh_fleet(3);
    let mut client = DisputeClient::connect(router.addr().to_string()).unwrap();
    let models = 8;
    for i in 0..models {
        client.register_model(format!("fleet-m{i}"), &outcome.model).unwrap();
    }
    let union = client.list_models().unwrap();
    assert_eq!(union.len(), models);

    let homes = homes(models, backends.len(), &TenantId::anonymous());
    let distinct: std::collections::HashSet<usize> = homes.iter().copied().collect();
    assert!(
        distinct.len() >= 2,
        "8 keys over 3 backends should spread, got homes {homes:?}"
    );
    for (backend, server) in backends.iter().enumerate() {
        let mut direct = DisputeClient::connect(server.addr().to_string()).unwrap();
        let here = direct.list_models().unwrap();
        for (i, home) in homes.iter().enumerate() {
            assert_eq!(
                here.contains(&format!("fleet-m{i}")),
                *home == backend,
                "fleet-m{i} misplaced on backend {backend} (homes {homes:?})"
            );
        }
    }
    router.shutdown().unwrap();
}

/// The authenticated fleet: a keyed router in front of keyed backends
/// re-signs per backend, verdicts stay bit-identical, and a client with
/// the wrong secret is refused at the router.
#[test]
fn authenticated_routed_docket_is_bit_identical() {
    let ring = Arc::new(KeyRing::parse("acme:correct horse battery staple\n").unwrap());
    let tenant = TenantId::new("acme").unwrap();
    let auth = ClientAuth::new(tenant.clone(), ring.key(&tenant).unwrap().to_vec());

    let (test, outcome) = embedded(73);
    let docket = mixed_docket(&test, &outcome, 4, 32);
    let reference_service = DisputeService::builder().build().unwrap();
    for i in 0..4 {
        reference_service
            .register_digested_as(&tenant, format!("fleet-m{i}"), &outcome.model)
            .unwrap();
    }
    let reference: Vec<_> = docket
        .iter()
        .map(|d| reference_service.resolve_as(&tenant, &d.model_id, &d.claim))
        .collect();

    let backends: Vec<RunningServer> = (0..2)
        .map(|_| {
            start_backend(
                Arc::new(DisputeService::builder().build().unwrap()),
                Some(Arc::clone(&ring)),
            )
        })
        .collect();
    let router = start_router(&backends.iter().collect::<Vec<_>>(), Some(Arc::clone(&ring)));

    let mut client = DisputeClient::connect_authenticated(router.addr().to_string(), auth).unwrap();
    for i in 0..4 {
        client.register_model(format!("fleet-m{i}"), &outcome.model).unwrap();
    }
    let served = client.resolve_docket(&docket).unwrap();
    assert_eq!(served, reference);

    // A forged secret must be refused before any request is served.
    let intruder = ClientAuth::new(tenant.clone(), b"wrong secret".to_vec());
    let refused = DisputeClient::connect_authenticated(router.addr().to_string(), intruder)
        .and_then(|mut c| c.ping());
    assert!(refused.is_err(), "router accepted a forged tenant secret");
    router.shutdown().unwrap();
}

/// Graceful degradation: with one backend dead, disputes homed on the
/// survivors stay bit-identical while disputes homed on the corpse fail
/// with a *typed* fault naming the unreachable backend — the docket
/// still completes, nothing hangs.
#[test]
fn dead_backend_degrades_to_typed_faults_for_its_shard_only() {
    let (test, outcome) = embedded(74);
    let models = 6;
    let docket = mixed_docket(&test, &outcome, models, 36);
    let reference_service = DisputeService::builder().build().unwrap();
    for i in 0..models {
        reference_service.register(format!("fleet-m{i}"), &outcome.model);
    }
    let reference = reference_service.resolve_many(&docket);

    let (mut backends, router) = fresh_fleet(2);
    let mut client = DisputeClient::connect(router.addr().to_string()).unwrap();
    for i in 0..models {
        client.register_model(format!("fleet-m{i}"), &outcome.model).unwrap();
    }
    let homes = homes(models, 2, &TenantId::anonymous());
    let dead = 0usize;
    assert!(
        homes.contains(&dead) && homes.iter().any(|h| *h != dead),
        "homes {homes:?}"
    );
    backends.remove(dead).shutdown().unwrap();

    let served = client.resolve_docket(&docket).unwrap();
    // The ghost id exists nowhere, but the router only asserts
    // nonexistence while the ghost's authoritative home is alive; with
    // that home dead it reports unreachability instead.
    let ghost_home = HashRing::new(2, RouterConfig::default().ring_replicas)
        .unwrap()
        .home(&TenantId::anonymous(), "fleet-ghost");
    let mut dead_homed = 0;
    for (i, (remote, local)) in served.iter().zip(&reference).enumerate() {
        let id = &docket[i].model_id;
        let on_dead = if id == "fleet-ghost" {
            ghost_home == dead
        } else {
            homes[id.strip_prefix("fleet-m").unwrap().parse::<usize>().unwrap()] == dead
        };
        if on_dead {
            dead_homed += 1;
            match remote {
                Err(WatermarkError::Remote { message }) => {
                    assert!(
                        message.contains("unreachable"),
                        "dead-homed verdict {i} carries the wrong fault: {message}"
                    );
                }
                other => panic!("dead-homed verdict {i} should be a typed Remote fault, got {other:?}"),
            }
        } else {
            assert_eq!(
                remote, local,
                "live-homed verdict {i} diverged after backend loss"
            );
        }
    }
    assert!(dead_homed > 0, "no dispute exercised the dead backend");
    router.shutdown().unwrap();
}

/// Replicated warm start: when every backend boots the same manifest,
/// losing one backend loses nothing — the router retries the shard on a
/// ring sibling and the full docket stays bit-identical.
#[test]
fn replicated_warm_start_lets_siblings_absorb_a_dead_backend() {
    let (test, outcome) = embedded(75);
    let models = 4;
    let dir = std::env::temp_dir().join(format!("wdte-fleet-warm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    persist::save(dir.join("m.model.wdte"), &outcome.model, persist::Format::Binary).unwrap();
    let manifest = ModelManifest {
        models: (0..models)
            .map(|i| ManifestEntry {
                model_id: format!("fleet-m{i}"),
                file: "m.model.wdte".into(),
            })
            .collect(),
    };
    manifest.save_dir(&dir).unwrap();

    let docket = mixed_docket(&test, &outcome, models, 24);
    let reference_service = DisputeService::builder().warm_start_dir(&dir).build().unwrap();
    let reference = reference_service.resolve_many(&docket);

    let mut backends: Vec<RunningServer> = (0..2)
        .map(|_| {
            let service = DisputeService::builder().warm_start_dir(&dir).build().unwrap();
            start_backend(Arc::new(service), None)
        })
        .collect();
    let router = start_router(&backends.iter().collect::<Vec<_>>(), None);
    let mut client = DisputeClient::connect(router.addr().to_string()).unwrap();
    backends.remove(0).shutdown().unwrap();

    // Every shard homed on the dead backend must fail over to its
    // replicated sibling with full bit-identity. The one exception is
    // the ghost id when its home is the corpse: the surviving sibling
    // answers UnknownModel, which the router refuses to present as
    // nonexistence while the authoritative home is down.
    let ghost_home = HashRing::new(2, RouterConfig::default().ring_replicas)
        .unwrap()
        .home(&TenantId::anonymous(), "fleet-ghost");
    let served = client.resolve_docket(&docket).unwrap();
    for (i, (remote, local)) in served.iter().zip(&reference).enumerate() {
        if docket[i].model_id == "fleet-ghost" && ghost_home == 0 {
            assert!(
                matches!(remote, Err(WatermarkError::Remote { message }) if message.contains("unreachable")),
                "dead-homed ghost verdict {i} should be an unreachable fault, got {remote:?}"
            );
        } else {
            assert_eq!(remote, local, "sibling retry changed verdict {i}");
        }
    }
    router.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A backend whose claim cache cannot retain bodies answers later
/// by-digest dockets with `NeedPayload`; the router must relay the
/// demand to the claimant, whose transparent resend then succeeds.
#[test]
fn need_payload_is_relayed_through_the_router() {
    let (test, outcome) = embedded(76);
    let docket = mixed_docket(&test, &outcome, 2, 12);
    let backends: Vec<RunningServer> = (0..2)
        .map(|_| {
            // 1-byte claim budget: every body is evicted on arrival.
            let service = DisputeService::builder().claim_cache_bytes(1).build().unwrap();
            start_backend(Arc::new(service), None)
        })
        .collect();
    let router = start_router(&backends.iter().collect::<Vec<_>>(), None);
    let mut client = DisputeClient::connect(router.addr().to_string()).unwrap();
    for i in 0..2 {
        client.register_model(format!("fleet-m{i}"), &outcome.model).unwrap();
    }
    let first = client.resolve_docket(&docket).unwrap();
    // The second round trips over by-digest refs, hits the evicted
    // cache, and must converge through the relayed NeedPayload.
    let second = client.resolve_docket(&docket).unwrap();
    assert_eq!(first, second, "NeedPayload relay changed verdicts");
    router.shutdown().unwrap();
}

/// Fleet-wide requests: `Ping` sums registries, `Stats` merges tenant
/// rows, `Deregister` removes a model wherever it lives.
#[test]
fn fleet_wide_requests_aggregate_across_backends() {
    let (test, outcome) = embedded(77);
    let _ = test;
    let (_backends, router) = fresh_fleet(2);
    let mut client = DisputeClient::connect(router.addr().to_string()).unwrap();
    for i in 0..5 {
        client.register_model(format!("fleet-m{i}"), &outcome.model).unwrap();
    }
    let pong = client.ping().unwrap();
    assert_eq!(
        pong.models_registered, 5,
        "fleet ping must sum backend registries"
    );

    let docket = mixed_docket(&test, &outcome, 5, 10);
    client.resolve_docket(&docket).unwrap();
    let stats = client.stats().unwrap();
    let models: u64 = stats.iter().map(|row| row.models).sum();
    let dockets: u64 = stats.iter().map(|row| row.dockets).sum();
    assert_eq!(models, 5, "fleet stats must merge per-backend model counts");
    assert!(dockets >= 1, "fleet stats lost the docket count");

    for i in 0..5 {
        assert!(
            client.deregister(format!("fleet-m{i}")).unwrap(),
            "fleet-m{i} existed"
        );
        assert!(
            !client.deregister(format!("fleet-m{i}")).unwrap(),
            "fleet-m{i} double-freed"
        );
    }
    assert!(client.list_models().unwrap().is_empty());
    router.shutdown().unwrap();
}

/// A router without backends is a configuration error, refused at
/// construction.
#[test]
fn router_refuses_an_empty_backend_list() {
    assert!(JudgeRouter::new(RouterConfig::default()).is_err());
}

/// Deadlock guard: a router and two backends in one process share one
/// worker pool, and one client pipelines twice as many dockets as that
/// pool is wide. Routed requests block on backend sockets; were they
/// queued on the shared pool, they would occupy every worker the
/// backends need. Every verdict must still arrive, bit-identical to
/// in-process resolution, within the timeout.
#[test]
fn pipelined_dockets_through_an_in_process_fleet_complete() {
    let (test, outcome) = embedded(78);
    let docket = mixed_docket(&test, &outcome, 4, 16);
    let reference_service = DisputeService::builder().build().unwrap();
    for i in 0..4 {
        reference_service.register(format!("fleet-m{i}"), &outcome.model);
    }
    let shared: Vec<SharedDispute> = docket
        .iter()
        .map(|d| {
            let digest = PayloadDigest::of_claim(&d.claim);
            SharedDispute::new(d.model_id.clone(), digest, Arc::new(d.claim.clone()))
        })
        .collect();
    let reference = reference_service
        .resolve_docket_shared_as(&TenantId::anonymous(), &shared)
        .unwrap();

    let dockets = 2 * rayon::current_num_threads().max(2);
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        let (_backends, router) = fresh_fleet(2);
        let mut client = DisputeClient::connect(router.addr().to_string()).unwrap();
        for i in 0..4 {
            client.register_model(format!("fleet-m{i}"), &outcome.model).unwrap();
        }
        let tickets: Vec<_> = (0..dockets).map(|_| client.send_docket(&docket).unwrap()).collect();
        let served: Vec<_> = tickets.into_iter().map(|t| client.recv_docket(t).unwrap()).collect();
        router.shutdown().unwrap();
        done.send(served).unwrap();
    });
    let served = match finished.recv_timeout(Duration::from_secs(120)) {
        Ok(served) => served,
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("the pipelined in-process fleet deadlocked"),
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("the fleet client thread panicked"),
    };
    assert_eq!(served.len(), dockets);
    for (i, verdicts) in served.iter().enumerate() {
        assert_eq!(
            verdicts, &reference,
            "pipelined docket {i} diverged through the fleet"
        );
    }
}

/// Backend connections are pooled across requests, and a judge reaps
/// idle connections: a pooled connection its backend has closed must be
/// replaced rather than used, so the first request after an idle spell
/// still resolves bit-identically instead of demoting a live backend.
#[test]
fn a_pooled_connection_reaped_by_its_backend_is_replaced() {
    let (test, outcome) = embedded(79);
    let docket = mixed_docket(&test, &outcome, 2, 8);
    let reference_service = DisputeService::builder().build().unwrap();
    for i in 0..2 {
        reference_service.register(format!("fleet-m{i}"), &outcome.model);
    }
    let reference = reference_service.resolve_many(&docket);

    let backend = JudgeServer::bind(
        "127.0.0.1:0",
        Arc::new(DisputeService::builder().build().unwrap()),
        ServerConfig {
            read_timeout: Some(Duration::from_millis(100)),
            ..ServerConfig::default()
        },
    )
    .expect("loopback bind succeeds")
    .spawn();
    let router = start_router(&[&backend], None);
    let mut client = DisputeClient::connect(router.addr().to_string()).unwrap();
    for i in 0..2 {
        client.register_model(format!("fleet-m{i}"), &outcome.model).unwrap();
    }
    // Long enough for the backend to reap the router's idle connection.
    std::thread::sleep(Duration::from_millis(500));
    assert_eq!(client.resolve_docket(&docket).unwrap(), reference);
    router.shutdown().unwrap();
}

/// A backend that accepts connections and reads requests but never
/// answers holds up only the requests homed on it. With twice as many
/// requests blocked on it as this process has pool workers, each from
/// its own connection, a request homed on the healthy backend and sent
/// from yet another connection is still answered.
#[test]
fn a_stalled_backend_holds_up_only_the_requests_homed_on_it() {
    let (test, outcome) = embedded(80);
    let claim = claim_for(&outcome, &test);
    let anonymous = TenantId::anonymous();
    let ring = HashRing::new(2, RouterConfig::default().ring_replicas).unwrap();
    let homed_on = |backend: usize| {
        let ring = ring.clone();
        let anonymous = anonymous.clone();
        (0..)
            .map(|i| format!("fleet-m{i}"))
            .filter(move |id| ring.home(&anonymous, id) == backend)
    };
    let live_id = homed_on(1).next().unwrap();
    let reference_service = DisputeService::builder().build().unwrap();
    reference_service.register(live_id.clone(), &outcome.model);
    let reference = reference_service.resolve(&live_id, &claim).unwrap();

    // Backend 0 stalls: it hands every connection that sent a frame to
    // the test. Health probes connect and close without sending one.
    let stalled = TcpListener::bind("127.0.0.1:0").unwrap();
    let stalled_addr = stalled.local_addr().unwrap();
    let (held_tx, held) = mpsc::channel::<TcpStream>();
    std::thread::spawn(move || {
        for stream in stalled.incoming() {
            let mut stream = stream.unwrap();
            if let Ok(Some(_)) = proto::read_frame(&mut stream, proto::DEFAULT_MAX_FRAME_BYTES) {
                if held_tx.send(stream).is_err() {
                    return;
                }
            }
        }
    });
    let healthy = start_backend(Arc::new(DisputeService::builder().build().unwrap()), None);
    let router = JudgeRouter::new(RouterConfig {
        backends: vec![stalled_addr.to_string(), healthy.addr().to_string()],
        ..RouterConfig::default()
    })
    .unwrap();
    let router = JudgeServer::bind("127.0.0.1:0", Arc::new(router), ServerConfig::default())
        .unwrap()
        .spawn();

    let pinned = 2 * rayon::current_num_threads().max(2);
    let mut blocked = Vec::new();
    for (corr, model_id) in homed_on(0).take(pinned).enumerate() {
        let mut stream = TcpStream::connect(router.addr()).unwrap();
        let request = Request::Resolve {
            model_id,
            claim: claim.clone(),
        };
        stream.write_all(&proto::encode_frame(corr as u64, &request).unwrap()).unwrap();
        blocked.push(stream);
    }
    let wait = Duration::from_secs(10);
    let held_streams: Vec<TcpStream> = (0..pinned)
        .map(|i| {
            held.recv_timeout(wait)
                .unwrap_or_else(|_| panic!("only {i} of {pinned} requests reached the stalled backend"))
        })
        .collect();

    let mut client = DisputeClient::connect_with(
        router.addr().to_string(),
        ClientConfig {
            read_timeout: Some(Duration::from_secs(30)),
            ..ClientConfig::default()
        },
    )
    .unwrap();
    client.register_model(live_id.clone(), &outcome.model).unwrap();
    assert_eq!(client.resolve(live_id, &claim).unwrap(), reference);

    router.shutdown().unwrap();
    drop((blocked, held_streams, held));
    // Unblock the stalled backend's accept loop so its thread ends.
    let mut last = TcpStream::connect(stalled_addr).unwrap();
    proto::write_message(&mut last, 1, &Request::Ping).unwrap();
}
