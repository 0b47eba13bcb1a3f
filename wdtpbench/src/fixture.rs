//! The judge's fixture: tenants owning watermarked forests in the paper's
//! breast-cancer setting (70 trees, 2% trigger set, 114 held-out rows),
//! built from a fixed construction seed and cached on disk between runs.
//!
//! The fixture never depends on the workload seed: that seed only picks
//! claim contents and docket order (see `workload`).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::path::Path;
use wdte_core::persist::{self, Format};
use wdte_core::{verify_ownership, OwnershipClaim, Signature, TenantId, WatermarkConfig, Watermarker};
use wdte_data::SyntheticSpec;
use wdte_trees::{RandomForest, TreeParams};

/// Seed every model of the fixture is derived from.
const CONSTRUCTION_SEED: u64 = 0x5744_5450_0000_0001;

/// How many tenants, models and trees the fixture holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub tenants: usize,
    pub models_per_tenant: usize,
    pub trees: usize,
}

impl Shape {
    /// The benchmark's fixture: two tenants with eight 70-tree forests each.
    pub const BENCH: Shape = Shape {
        tenants: 2,
        models_per_tenant: 8,
        trees: 70,
    };
}

/// One watermarked forest and the owner's genuine claim against it. The
/// claim's `test_set` (the 114 held-out rows) is the decoy bank that
/// workload claims are drawn from.
pub struct Model {
    pub id: String,
    pub forest: RandomForest,
    pub genuine: OwnershipClaim,
}

pub struct Tenant {
    pub id: TenantId,
    pub secret: Vec<u8>,
    pub models: Vec<Model>,
}

pub struct Fixture {
    pub tenants: Vec<Tenant>,
}

fn tenant_name(index: usize) -> String {
    format!("owner-{}", (b'a' + index as u8) as char)
}

fn watermark_config(trees: usize) -> WatermarkConfig {
    WatermarkConfig {
        num_trees: trees,
        tree_params: TreeParams {
            max_depth: Some(10),
            max_leaves: Some(128),
            ..TreeParams::default()
        },
        ..WatermarkConfig::fast()
    }
}

/// Embeds model `index` of tenant `tenant`. An embedding that does not
/// verify its own genuine claim is retried with the next derived seed, so
/// every genuine claim of the fixture is upheld.
fn embed(shape: Shape, tenant: usize, index: usize) -> Model {
    let name = tenant_name(tenant);
    let signature = Signature::from_identity(&format!("{name}/model-{index}"), shape.trees);
    for attempt in 0u64.. {
        let seed = CONSTRUCTION_SEED ^ ((tenant as u64) << 48) ^ ((index as u64) << 32) ^ attempt;
        let mut rng = SmallRng::seed_from_u64(seed);
        let dataset = SyntheticSpec::breast_cancer_like().generate(&mut rng);
        let (train, test) = dataset.split_stratified(0.8, &mut rng);
        let Ok(outcome) =
            Watermarker::new(watermark_config(shape.trees)).embed(&train, &signature, &mut rng)
        else {
            continue;
        };
        let genuine = OwnershipClaim::new(outcome.signature, outcome.trigger_set, test);
        if verify_ownership(&outcome.model, &genuine).verified {
            return Model {
                id: format!("model-{index}"),
                forest: outcome.model,
                genuine,
            };
        }
    }
    unreachable!("the attempt counter is unbounded")
}

impl Fixture {
    /// Builds the whole fixture in memory.
    #[cfg(test)]
    pub fn build(shape: Shape) -> Fixture {
        Self::assemble(shape, |tenant, index| embed(shape, tenant, index))
    }

    /// Loads the fixture from `dir`, embedding and saving any model that is
    /// missing or unreadable there.
    pub fn load_or_build(shape: Shape, dir: &Path) -> Result<Fixture, String> {
        std::fs::create_dir_all(dir).map_err(|err| format!("creating {}: {err}", dir.display()))?;
        let fixture = Self::assemble(shape, |tenant, index| {
            let stem = dir.join(format!("t{tenant}-m{index}"));
            let forest_path = stem.with_extension("forest.wdte");
            let claim_path = stem.with_extension("claim.wdte");
            if let (Ok(forest), Ok(genuine)) = (persist::load(&forest_path), persist::load(&claim_path))
            {
                return Model {
                    id: format!("model-{index}"),
                    forest,
                    genuine,
                };
            }
            let model = embed(shape, tenant, index);
            // Write-then-rename, so an interrupted run never leaves a torn
            // artefact behind.
            for (path, bytes) in [
                (&forest_path, persist::to_bytes(&model.forest, Format::Binary)),
                (&claim_path, persist::to_bytes(&model.genuine, Format::Binary)),
            ] {
                let tmp = path.with_extension("tmp");
                let _ = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
            }
            model
        });
        Ok(fixture)
    }

    fn assemble(shape: Shape, make: impl Fn(usize, usize) -> Model + Sync) -> Fixture {
        let jobs: Vec<(usize, usize)> = (0..shape.tenants)
            .flat_map(|tenant| (0..shape.models_per_tenant).map(move |index| (tenant, index)))
            .collect();
        let mut models: Vec<Model> =
            jobs.par_iter().map(|&(tenant, index)| make(tenant, index)).collect();
        let mut tenants = Vec::with_capacity(shape.tenants);
        for tenant in 0..shape.tenants {
            let rest = models.split_off(shape.models_per_tenant);
            let name = tenant_name(tenant);
            tenants.push(Tenant {
                id: TenantId::new(name.clone()).expect("fixture tenant names are valid"),
                secret: format!("wdtpbench secret of {name}").into_bytes(),
                models: std::mem::replace(&mut models, rest),
            });
        }
        Fixture { tenants }
    }

    /// The judge's key file: one `tenant:secret` line per tenant.
    pub fn key_file(&self) -> String {
        self.tenants
            .iter()
            .map(|tenant| {
                format!(
                    "{}:{}\n",
                    tenant.id,
                    String::from_utf8(tenant.secret.clone()).expect("fixture secrets are UTF-8")
                )
            })
            .collect()
    }
}
