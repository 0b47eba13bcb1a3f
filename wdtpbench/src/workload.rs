//! Workloads and the dockets they send.
//!
//! The workload seed picks claim contents (forged signatures, decoy row
//! order and jitter) and docket order only. Every seed gives the same
//! amount of work: the same number of rows walked, the same request bytes
//! per docket and the same genuine/forged mix per model.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use wdte_core::{verify_ownership, Dispute, OwnershipClaim, Signature, VerificationReport};
use wdte_data::{Dataset, DenseMatrix};
use wdte_trees::CompiledForest;

use crate::fixture::Tenant;

/// Claims in one docket.
pub const DOCKET_CLAIMS: usize = 64;
/// Claims in a tenant's claim set: the pool of `resident`/`routed`, the
/// templates of `fresh`.
pub const SET_CLAIMS: usize = 256;
/// Dockets a pipelining connection keeps in flight.
pub const PIPELINED: usize = 4;
/// Distinct pooled dockets a `resident`/`routed` connection cycles through.
pub const RING_DOCKETS: usize = 16;
/// The judge's claim-cache budget on `fresh`.
pub const FRESH_CACHE_MB: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Resident,
    Fresh,
    Routed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Resident, Workload::Fresh, Workload::Routed];

    pub fn parse(name: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|workload| workload.name() == name)
            .ok_or_else(|| format!("unknown workload `{name}` (resident, fresh, routed)"))
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Resident => "resident",
            Workload::Fresh => "fresh",
            Workload::Routed => "routed",
        }
    }

    /// Whether dockets cite an uploaded pool (as opposed to fresh bodies).
    pub fn pooled(self) -> bool {
        self != Workload::Fresh
    }

    /// Dockets each connection keeps in flight. `fresh` keeps one: the
    /// judge's event loop reads a connection for as long as its socket
    /// holds bytes, so with several 2.2 MB dockets pipelined per
    /// connection one tenant starves the other for seconds at a time and
    /// the latency tail differs from run to run far beyond any bound. The
    /// traced run still measures `fresh` pipelined (`client.conn_share_min`,
    /// `client.docket_p99_ms`).
    pub fn in_flight(self) -> usize {
        match self {
            Workload::Fresh => 1,
            Workload::Resident | Workload::Routed => PIPELINED,
        }
    }

    /// Judge instances a run's window is split across. Judge processes
    /// differ in speed for as long as they live: on the pooled workloads,
    /// where the kernel walk dominates, the fastest of twelve processes in
    /// one run served about 1.5 times the claims per second of the
    /// slowest, while in 8-second windows the first and second half of
    /// one process agreed within a tenth, so they pool twelve. `fresh` is
    /// bound by its event loop and spreads far less from process to
    /// process; each of its instances first fills a 64 MiB claim cache, so
    /// it pools six.
    pub fn instances(self) -> usize {
        match self {
            Workload::Fresh => 6,
            Workload::Resident | Workload::Routed => 12,
        }
    }
}

/// One claim of a tenant's claim set and its in-process verdict.
pub struct SetClaim {
    pub model: usize,
    pub claim: OwnershipClaim,
    pub expected: VerificationReport,
}

/// Claim `j` disputes model `j % models`; even rounds are the owner's
/// genuine claims, odd rounds forgeries.
fn slot(j: usize, models: usize) -> (usize, bool) {
    (j % models, (j / models).is_multiple_of(2))
}

/// Mixes the workload seed with a tenant and a claim index into one RNG
/// seed (splitmix64 finaliser).
fn mix(seed: u64, tenant: usize, index: usize) -> u64 {
    let mut z = seed ^ ((tenant as u64) << 56) ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Decoys are the model's held-out rows in a seeded order, each value
/// jittered: the same row count and shape for every seed.
fn decoys(bank: &Dataset, rng: &mut SmallRng) -> Dataset {
    let mut order: Vec<usize> = (0..bank.len()).collect();
    order.shuffle(rng);
    let picked = bank.select(&order).expect("a permutation of the bank is valid");
    let values: Vec<f64> = picked
        .features()
        .as_slice()
        .iter()
        .map(|value| value + rng.gen_range(-0.05..0.05))
        .collect();
    let features = DenseMatrix::from_vec(picked.len(), picked.num_features(), values)
        .expect("the jittered matrix keeps its shape");
    Dataset::with_classes(
        bank.name.clone(),
        features,
        picked.labels().to_vec(),
        bank.num_classes(),
    )
    .expect("labels are unchanged")
}

/// The tenant's claim set for `seed`, each claim verified in process
/// against its model's compiled forest.
pub fn claim_set(tenant: &Tenant, tenant_index: usize, seed: u64) -> Vec<SetClaim> {
    let compiled: Vec<CompiledForest> = tenant
        .models
        .iter()
        .map(|model| CompiledForest::compile(&model.forest))
        .collect();
    (0..SET_CLAIMS)
        .map(|j| {
            let (model, genuine) = slot(j, tenant.models.len());
            let owner = &tenant.models[model].genuine;
            let mut rng = SmallRng::seed_from_u64(mix(seed, tenant_index, j));
            let signature = if genuine {
                owner.signature.clone()
            } else {
                loop {
                    let forged = Signature::random(owner.signature.len(), 0.5, &mut rng);
                    if forged != owner.signature {
                        break forged;
                    }
                }
            };
            let claim = OwnershipClaim::new(
                signature,
                owner.trigger_set.clone(),
                decoys(&owner.test_set, &mut rng),
            );
            let expected = verify_ownership(&compiled[model], &claim);
            SetClaim {
                model,
                claim,
                expected,
            }
        })
        .collect()
}

/// Picks one docket from a claim set: for every model, the same number
/// of genuine and forged claims (distinct within the docket), in a
/// seeded order.
fn pick(models: usize, rng: &mut SmallRng) -> Vec<usize> {
    let per_kind = DOCKET_CLAIMS / (2 * models);
    let rounds = SET_CLAIMS / models;
    let mut picks = Vec::with_capacity(DOCKET_CLAIMS);
    for model in 0..models {
        for genuine in [true, false] {
            let mut candidates: Vec<usize> = (0..rounds)
                .filter(|round| (round % 2 == 0) == genuine)
                .map(|round| round * models + model)
                .collect();
            candidates.shuffle(rng);
            picks.extend_from_slice(&candidates[..per_kind]);
        }
    }
    picks.shuffle(rng);
    picks
}

/// A `fresh` claim: the template with one decoy value's low mantissa bits
/// flipped by a per-tenant serial, so its digest is new while its size and
/// its verdict (decoys never decide one) are the template's.
pub fn stamp(template: &OwnershipClaim, serial: u64) -> OwnershipClaim {
    let bank = &template.test_set;
    let mut values = bank.features().as_slice().to_vec();
    values[0] = f64::from_bits(values[0].to_bits() ^ ((serial << 1) | 1));
    let features = DenseMatrix::from_vec(bank.len(), bank.num_features(), values)
        .expect("the stamped matrix keeps its shape");
    let test_set = Dataset::with_classes(
        bank.name.clone(),
        features,
        bank.labels().to_vec(),
        bank.num_classes(),
    )
    .expect("labels are unchanged");
    OwnershipClaim::new(template.signature.clone(), template.trigger_set.clone(), test_set)
}

/// One docket: the disputes to send and, per dispute, the claim-set index
/// whose in-process verdict it must match.
#[derive(Clone)]
pub struct Docket {
    pub disputes: Arc<Vec<Dispute>>,
    pub picks: Arc<Vec<usize>>,
}

/// The endless docket stream of one connection.
pub struct Source {
    workload: Workload,
    set: Arc<Vec<SetClaim>>,
    model_ids: Vec<String>,
    rng: SmallRng,
    ring: Vec<Docket>,
    sent: usize,
    serial: u64,
}

impl Source {
    pub fn new(
        workload: Workload,
        tenant: &Tenant,
        tenant_index: usize,
        set: Arc<Vec<SetClaim>>,
        seed: u64,
    ) -> Self {
        let model_ids: Vec<String> = tenant.models.iter().map(|model| model.id.clone()).collect();
        let mut source = Source {
            workload,
            set,
            model_ids,
            rng: SmallRng::seed_from_u64(mix(seed ^ 0x0d0c_4e75, tenant_index, SET_CLAIMS)),
            ring: Vec::new(),
            sent: 0,
            serial: 0,
        };
        if workload.pooled() {
            source.ring = (0..RING_DOCKETS)
                .map(|_| {
                    let picks = pick(source.model_ids.len(), &mut source.rng);
                    source.assemble(picks, |claim| claim.clone())
                })
                .collect();
        }
        source
    }

    fn assemble(
        &self,
        picks: Vec<usize>,
        mut body: impl FnMut(&OwnershipClaim) -> OwnershipClaim,
    ) -> Docket {
        let disputes = picks
            .iter()
            .map(|&j| {
                let entry = &self.set[j];
                Dispute::new(self.model_ids[entry.model].clone(), body(&entry.claim))
            })
            .collect();
        Docket {
            disputes: Arc::new(disputes),
            picks: Arc::new(picks),
        }
    }

    /// The claim set the source draws from.
    pub fn set(&self) -> &Arc<Vec<SetClaim>> {
        &self.set
    }

    /// The dockets that upload a pool: the whole claim set in order, one
    /// docket-sized slice at a time (each slice covers every model).
    pub fn upload_dockets(&self) -> Vec<Docket> {
        (0..SET_CLAIMS)
            .collect::<Vec<_>>()
            .chunks(DOCKET_CLAIMS)
            .map(|chunk| self.assemble(chunk.to_vec(), |claim| claim.clone()))
            .collect()
    }

    /// The next docket: the next pooled docket of the ring, or a new
    /// `fresh` docket of never-seen claims.
    pub fn next_docket(&mut self) -> Docket {
        self.sent += 1;
        if self.workload.pooled() {
            return self.ring[(self.sent - 1) % self.ring.len()].clone();
        }
        let picks = pick(self.model_ids.len(), &mut self.rng);
        let mut serial = self.serial;
        let docket = self.assemble(picks, |claim| {
            serial += 1;
            stamp(claim, serial)
        });
        self.serial = serial;
        docket
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{Fixture, Shape};
    use std::sync::OnceLock;
    use wdte_core::proto::{self, DisputeRef, PayloadDigest, Request};

    const TINY: Shape = Shape {
        tenants: 1,
        models_per_tenant: 2,
        trees: 4,
    };

    fn fixture() -> &'static Fixture {
        static FIXTURE: OnceLock<Fixture> = OnceLock::new();
        FIXTURE.get_or_init(|| Fixture::build(TINY))
    }

    fn dockets(workload: Workload, seed: u64, count: usize) -> Vec<Docket> {
        let tenant = &fixture().tenants[0];
        let set = Arc::new(claim_set(tenant, 0, seed));
        let mut source = Source::new(workload, tenant, 0, set, seed);
        (0..count).map(|_| source.next_docket()).collect()
    }

    fn digests(docket: &Docket) -> Vec<PayloadDigest> {
        docket
            .disputes
            .iter()
            .map(|dispute| PayloadDigest::of_claim(&dispute.claim))
            .collect()
    }

    /// Rows walked, request bytes (as `send_docket` frames the docket the
    /// first time, every body inline) and genuine claims per model.
    fn work(docket: &Docket, set: &[SetClaim]) -> (usize, usize, Vec<usize>) {
        let rows = docket
            .disputes
            .iter()
            .map(|dispute| dispute.claim.trigger_set.len() + dispute.claim.test_set.len())
            .sum();
        let request = Request::ResolveDocketRef {
            bodies: docket.disputes.iter().map(|dispute| dispute.claim.clone()).collect(),
            disputes: docket
                .disputes
                .iter()
                .map(|dispute| {
                    DisputeRef::new(dispute.model_id.clone(), PayloadDigest::of_claim(&dispute.claim))
                })
                .collect(),
        };
        let bytes = proto::encode_frame(1, &request).unwrap().len();
        let mut genuine = vec![0; TINY.models_per_tenant];
        for &j in docket.picks.iter() {
            genuine[set[j].model] += usize::from(slot(j, TINY.models_per_tenant).1);
        }
        (rows, bytes, genuine)
    }

    #[test]
    fn the_same_seed_gives_identical_docket_digests() {
        for workload in Workload::ALL {
            let first: Vec<_> = dockets(workload, 7, 20).iter().map(digests).collect();
            let second: Vec<_> = dockets(workload, 7, 20).iter().map(digests).collect();
            assert_eq!(first, second, "{}", workload.name());
        }
    }

    #[test]
    fn two_seeds_give_different_contents_and_identical_work() {
        let tenant = &fixture().tenants[0];
        for workload in Workload::ALL {
            let (a, b) = (dockets(workload, 7, 20), dockets(workload, 8, 20));
            assert_ne!(digests(&a[0]), digests(&b[0]), "{}", workload.name());
            let (set_a, set_b) = (claim_set(tenant, 0, 7), claim_set(tenant, 0, 8));
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(work(x, &set_a), work(y, &set_b), "{}", workload.name());
                let (_, _, genuine) = work(x, &set_a);
                assert_eq!(genuine, vec![DOCKET_CLAIMS / 4; TINY.models_per_tenant]);
            }
        }
    }

    #[test]
    fn dockets_cite_distinct_claims_and_fresh_claims_are_never_repeated() {
        for workload in Workload::ALL {
            let mut seen = std::collections::HashSet::new();
            for docket in dockets(workload, 3, 20) {
                let distinct: std::collections::HashSet<_> = digests(&docket).into_iter().collect();
                assert_eq!(distinct.len(), DOCKET_CLAIMS);
                if workload == Workload::Fresh {
                    assert!(distinct.iter().all(|digest| seen.insert(*digest)));
                }
            }
        }
    }

    #[test]
    fn verdicts_mix_and_stamped_claims_keep_their_template_verdict() {
        let tenant = &fixture().tenants[0];
        let set = claim_set(tenant, 0, 11);
        assert!((0..SET_CLAIMS).all(|j| set[j].expected.verified == slot(j, TINY.models_per_tenant).1));
        let compiled = CompiledForest::compile(&tenant.models[set[1].model].forest);
        assert_eq!(
            verify_ownership(&compiled, &stamp(&set[1].claim, 99)),
            set[1].expected
        );
    }

    #[test]
    fn upload_dockets_cover_the_pool_and_every_model() {
        let tenant = &fixture().tenants[0];
        let source = Source::new(
            Workload::Resident,
            tenant,
            0,
            Arc::new(claim_set(tenant, 0, 5)),
            5,
        );
        let uploads = source.upload_dockets();
        assert_eq!(uploads.len() * DOCKET_CLAIMS, SET_CLAIMS);
        for docket in &uploads {
            let models: std::collections::HashSet<_> =
                docket.disputes.iter().map(|dispute| dispute.model_id.clone()).collect();
            assert_eq!(models.len(), TINY.models_per_tenant);
        }
    }
}
