//! The traced replay: a sample of the run's dockets pushed through the
//! public function of every layer the wire path crosses, in process, each
//! call inside a span. Every step runs on one thread except
//! `service.resolve`, which runs on the process's pool as it does in the
//! judge.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use wdte_core::fleet::{self, HashRing};
use wdte_core::proto::{
    self, DisputeRef, DocketVerdict, PayloadDigest, Request, Response, FRAME_HEADER_BYTES,
};
use wdte_core::tenant::frame_tag;
use wdte_core::{
    ClaimCache, DisputeService, Kernel, OwnershipClaim, SharedDispute, TenantQuotas,
    DEFAULT_BATCH_SHARD_ROWS, DEFAULT_CLAIM_CACHE_BYTES,
};
use wdte_trees::CompiledForest;

use crate::fixture::Fixture;
use crate::trace::{median, Tracer};
use crate::workload::{stamp, SetClaim, Source, Workload, FRESH_CACHE_MB};

/// Backends of the ring `fleet.split` hashes over (the `routed` fleet).
const RING_BACKENDS: usize = 2;
/// Virtual points per backend, the router's default.
const RING_REPLICAS: usize = 64;

pub struct Replay {
    pub tracer: Tracer,
    /// Per-layer metric name to value.
    pub metrics: BTreeMap<&'static str, f64>,
    /// `auto`'s kernel pick per model, as `tenant/model=kernel`.
    pub kernels: Vec<String>,
}

/// Step spans that become per-docket metrics, and their metric names.
const STEPS: [(&str, &str); 13] = [
    ("client.digest", "client.digest_ms"),
    ("client.clone", "client.clone_ms"),
    ("proto.encode", "proto.encode_ms"),
    ("tenant.hmac", "tenant.hmac_ms"),
    ("proto.decode", "proto.decode_ms"),
    ("service.cache", "service.cache_ms"),
    ("service.resolve", "service.resolve_ms"),
    ("verify.disguise", "verify.disguise_ms"),
    ("infer.walk", "infer.walk_ms"),
    ("proto.verdict_encode", "proto.verdict_encode_ms"),
    ("proto.verdict_decode", "proto.verdict_decode_ms"),
    ("fleet.split", "fleet.split_ms"),
    ("service.compile", "service.compile_ms"),
];

/// Replays `per_tenant` dockets of every tenant.
pub fn replay(
    workload: Workload,
    fixture: &Fixture,
    sets: &[Arc<Vec<SetClaim>>],
    seed: u64,
    per_tenant: usize,
    origin: Instant,
) -> Result<Replay, String> {
    let mut tracer = Tracer::new(origin);
    let mut kernels = Vec::new();
    let mut rows = Vec::new();
    let mut request_bytes = Vec::new();
    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .map_err(|err| format!("one-thread pool: {err:?}"))?;
    let ring = HashRing::new(RING_BACKENDS, RING_REPLICAS).map_err(|err| err.to_string())?;
    let quotas = TenantQuotas::default();
    for (t, tenant) in fixture.tenants.iter().enumerate() {
        let service = DisputeService::builder().build().map_err(|err| err.to_string())?;
        for (m, model) in tenant.models.iter().enumerate() {
            let id = ((t as u64) << 40) | (1 << 39) | m as u64;
            black_box(tracer.time("service.compile", None, id, || {
                CompiledForest::compile(&model.forest)
            }));
            service
                .register_digested_as(&tenant.id, model.id.clone(), &model.forest)
                .map_err(|err| err.to_string())?;
        }
        // The judge's claim cache in the state the workload keeps it in:
        // holding the whole pool, or full and evicting.
        let cache = if workload.pooled() {
            let cache = ClaimCache::new(DEFAULT_CLAIM_CACHE_BYTES);
            for entry in sets[t].iter() {
                cache
                    .insert_for(&tenant.id, &quotas, entry.claim.clone())
                    .map_err(|err| err.to_string())?;
            }
            cache
        } else {
            let cache = ClaimCache::new(FRESH_CACHE_MB << 20);
            let mut inserted = 0usize;
            while inserted < cache.len() + 2 * crate::workload::DOCKET_CLAIMS {
                let template = &sets[t][inserted % sets[t].len()].claim;
                cache
                    .insert_for(&tenant.id, &quotas, stamp(template, (1 << 40) + inserted as u64))
                    .map_err(|err| err.to_string())?;
                inserted += 1;
            }
            cache
        };
        let mut source = Source::new(workload, tenant, t, Arc::clone(&sets[t]), seed);
        for k in 0..per_tenant {
            let docket = source.next_docket();
            // Bit 38 keeps replay ids apart from the traced loop's.
            let id = ((t as u64) << 40) | (1 << 38) | k as u64;
            let root_span = tracer.open("replay.docket", None, id);
            let root = Some(root_span);
            let disputes = &docket.disputes;
            let digests: Vec<PayloadDigest> = tracer.time("client.digest", root, id, || {
                disputes.iter().map(|dispute| PayloadDigest::of_claim(&dispute.claim)).collect()
            });
            black_box(tracer.time("client.clone", root, id, || {
                disputes
                    .iter()
                    .map(|dispute| Arc::new(dispute.claim.clone()))
                    .collect::<Vec<_>>()
            }));
            // The frame `send_docket` writes in steady state: pooled bodies
            // already uploaded travel as digests, fresh ones inline.
            let request = Request::ResolveDocketRef {
                bodies: if workload.pooled() {
                    Vec::new()
                } else {
                    disputes.iter().map(|dispute| dispute.claim.clone()).collect()
                },
                disputes: disputes
                    .iter()
                    .zip(&digests)
                    .map(|(dispute, digest)| DisputeRef::new(dispute.model_id.clone(), *digest))
                    .collect(),
            };
            let frame = tracer
                .time("proto.encode", root, id, || proto::encode_frame(id, &request))
                .map_err(|err| err.to_string())?;
            drop(request);
            let payload = &frame[FRAME_HEADER_BYTES..];
            black_box(tracer.time("tenant.hmac", root, id, || {
                frame_tag(&tenant.secret, id, 1, &tenant.id.field(), payload)
            }));
            let decoded: Request = tracer
                .time("proto.decode", root, id, || proto::decode_payload(payload))
                .map_err(|err| err.to_string())?;
            let Request::ResolveDocketRef {
                bodies,
                disputes: refs,
            } = decoded
            else {
                return Err("the docket frame decoded as another request".to_string());
            };
            let shared: Vec<SharedDispute> = tracer.time("service.cache", root, id, || {
                let mut local: HashMap<PayloadDigest, Arc<OwnershipClaim>> =
                    HashMap::with_capacity(bodies.len());
                for body in bodies {
                    if let Ok((digest, claim)) = cache.insert_for(&tenant.id, &quotas, body) {
                        local.insert(digest, claim);
                    }
                }
                refs.iter()
                    .filter_map(|dispute| {
                        let claim = local
                            .get(&dispute.digest)
                            .cloned()
                            .or_else(|| cache.get(&dispute.digest))?;
                        Some(SharedDispute::new(
                            dispute.model_id.clone(),
                            dispute.digest,
                            claim,
                        ))
                    })
                    .collect()
            });
            if shared.len() != refs.len() {
                return Err("the replay cache lost a claim of the docket".to_string());
            }
            let verdicts = tracer
                .time("service.resolve", root, id, || {
                    service.resolve_docket_shared_as(&tenant.id, &shared)
                })
                .map_err(|err| err.to_string())?;
            for (verdict, &pick) in verdicts.iter().zip(docket.picks.iter()) {
                if verdict.as_ref().ok() != Some(&sets[t][pick].expected) {
                    return Err(format!(
                        "replayed verdict differs from its reference: {verdict:?}"
                    ));
                }
            }
            one_thread.install(|| -> Result<(), String> {
                for dispute in disputes.iter() {
                    let claim = &dispute.claim;
                    let compiled = service
                        .model_as(&tenant.id, &dispute.model_id)
                        .map_err(|err| err.to_string())?;
                    let (batch, _origin) = tracer.time("verify.disguise", root, id, || {
                        claim.verification_batch(&mut SmallRng::seed_from_u64(claim.disguise_seed()))
                    });
                    black_box(tracer.time("infer.walk", root, id, || {
                        compiled.par_predict_all_batch_with(
                            batch.features(),
                            DEFAULT_BATCH_SHARD_ROWS,
                            Kernel::Auto,
                        )
                    }));
                }
                Ok(())
            })?;
            let response = tracer
                .time("proto.verdict_encode", root, id, || {
                    proto::encode_frame(
                        id,
                        &Response::Docket {
                            verdicts: verdicts.iter().cloned().map(DocketVerdict::from_result).collect(),
                        },
                    )
                })
                .map_err(|err| err.to_string())?;
            let _: Response = tracer
                .time("proto.verdict_decode", root, id, || {
                    proto::decode_payload(&response[FRAME_HEADER_BYTES..])
                })
                .map_err(|err| err.to_string())?;
            // The router's split and stitch of this docket over the fleet.
            let shards = tracer.time("fleet.split", root, id, || {
                let homes: Vec<usize> = disputes
                    .iter()
                    .map(|dispute| ring.home(&tenant.id, &dispute.model_id))
                    .collect();
                fleet::split_indices(homes.len(), |index| homes[index])
            });
            let values: Vec<Vec<_>> = shards
                .iter()
                .map(|(_, indices)| indices.iter().map(|&index| verdicts[index].clone()).collect())
                .collect();
            tracer
                .time("fleet.split", root, id, || {
                    let mut slots = vec![None; verdicts.len()];
                    for ((_, indices), values) in shards.iter().zip(values) {
                        fleet::scatter(&mut slots, indices, values)?;
                    }
                    Ok::<_, wdte_core::WatermarkError>(slots)
                })
                .map_err(|err| err.to_string())?;
            tracer.close(root_span);
            rows.push(
                disputes
                    .iter()
                    .map(|dispute| {
                        (dispute.claim.trigger_set.len() + dispute.claim.test_set.len()) as f64
                    })
                    .sum::<f64>(),
            );
            request_bytes.push(frame.len() as f64);
        }
        for model in &tenant.models {
            let compiled = service.model_as(&tenant.id, &model.id).map_err(|err| err.to_string())?;
            let pick = compiled
                .resolved_kernel(Kernel::Auto)
                .map_or("unresolved".to_string(), |kernel| kernel.to_string());
            kernels.push(format!("{}/{}={pick}", tenant.id, model.id));
        }
    }
    let mut metrics = BTreeMap::new();
    for (span, metric) in STEPS {
        metrics.insert(metric, median(&tracer.per_docket_ms(span)));
    }
    metrics.insert("infer.rows_per_docket", median(&rows));
    metrics.insert("proto.request_kb", median(&request_bytes) / 1024.0);
    Ok(Replay {
        tracer,
        metrics,
        kernels,
    })
}
