//! `scaling_smoke` — multi-core scaling check for the nested dispute
//! pipeline, built for the CI `bench-multicore` lane.
//!
//! Embeds a deterministic watermarked model, assembles a docket of genuine
//! and forged claims, and resolves it through
//! `DisputeService::resolve_many` — the two-level (dispute × batch-shard)
//! fan-out — at each requested worker-pool size. **Each width runs in its
//! own child process whose global pool is sized to exactly that width**
//! (a process can size its pool only once, and an `install`-style scoped
//! limit on a wider pool would bound split counts, not the threads doing
//! the work — the child-per-width design makes every row a true pool
//! size, the same thing `serve_judge --workers` configures). For every
//! width the child reports best-of-`--samples` wall time plus a
//! fingerprint of the full verdict vector; the parent asserts all
//! fingerprints are **bit-identical**, computes speedups against the
//! always-included 1-worker (strictly serial) run, and writes a JSON
//! artifact.
//!
//! ```text
//! scaling_smoke [--workers 1,2,4] [--claims N] [--samples N]
//!               [--shard-rows N] [--kernel NAME] [--out PATH]
//!               [--enforce-speedup X.Y]
//! scaling_smoke --wire [--auth] [--fleet N] [--connections C] [--dockets D]
//!               [--claims N] [--out PATH] [--enforce-claims-per-sec X]
//! ```
//!
//! `--kernel NAME` picks the batch-inference kernel the service runs
//! (`scalar`, `blocked`, `quantized` or the default `auto`). Every child
//! reports the *resolved* kernel — for `auto`, whatever the microprobe
//! picked — and its block width, and both land in the JSON artifact, so
//! the CI lane records which kernel actually produced each timing row.
//!
//! `--wire` switches the binary into an **open-loop load generator** for
//! the WDTP v2 wire path: it spawns an in-process [`JudgeServer`] on an
//! ephemeral loopback port, then `--connections` generator threads each
//! stream `--dockets` pipelined dockets of `--claims` claims through a
//! [`DisputeClient`] *without waiting for verdicts between sends* — the
//! offered load is independent of completions, which is what exposes
//! queueing behaviour a closed request/response loop hides. Each docket's
//! latency is measured from `send_docket` to its `recv_docket` verdicts;
//! the run reports served claims/s plus p50/p99/max docket latency and
//! hard-fails (exit `2`) unless **every** served verdict vector is
//! bit-identical to the in-process `resolve_many` reference.
//!
//! `--auth` (wire mode only) keys the loopback judge with one synthetic
//! tenant and authenticates every generator connection, so the identical
//! workload measures the per-frame HMAC cost: same dockets, same
//! bit-identity gate, every frame tagged and sequence-checked. Comparing
//! an `--auth` run against an anonymous one isolates the authentication
//! overhead of the wire path.
//!
//! `--fleet N` (wire mode only) fronts `N` in-process backend judges with
//! a consistent-hash [`JudgeRouter`] and drives the identical open-loop
//! load through it. The docket cycles four replicated model ids, so every
//! docket is split into per-backend shards and stitched back — the
//! reported claims/s prices the router's split/stitch and re-signing
//! overhead against the single-judge `--wire` rows, under the same
//! bit-identity gate.
//!
//! Exit codes: `2` = bit-identity violation (always fatal, both modes),
//! `3` = a measured floor was missed — the widest run fell below
//! `--enforce-speedup` in scaling mode (CI passes a generous `0.85` so
//! noisy runners don't flake), or throughput fell below
//! `--enforce-claims-per-sec` in wire mode. Without enforcement flags,
//! timings are informational — useful on single-core hosts where the
//! expected speedup is exactly 1.0.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wdte_core::{
    Dispute, DisputeService, Kernel, KeyRing, OwnershipClaim, Signature, TenantId, VerificationReport,
    WatermarkConfig, WatermarkOutcome, WatermarkResult, Watermarker,
};
use wdte_data::SyntheticSpec;
use wdte_server::{ClientAuth, DisputeClient, JudgeRouter, JudgeServer, RouterConfig, ServerConfig};

struct Args {
    workers: Vec<usize>,
    claims: usize,
    samples: usize,
    shard_rows: usize,
    kernel: Kernel,
    out: String,
    out_was_set: bool,
    enforce_speedup: Option<f64>,
    /// Hidden child mode: measure exactly one pool width and print a
    /// machine-readable result line.
    bench_one: Option<usize>,
    /// Open-loop wire-path load-generator mode.
    wire: bool,
    /// Wire mode only: key the loopback judge and authenticate every
    /// generator connection, measuring the per-frame HMAC cost.
    auth: bool,
    connections: usize,
    dockets: usize,
    enforce_claims_per_sec: Option<f64>,
    /// Wire mode only: put a consistent-hash router in front of this many
    /// in-process backend judges and drive the identical open-loop load
    /// through the fleet (`0` = no router, one judge).
    fleet: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workers: vec![1, 2, 4],
        claims: 48,
        samples: 5,
        shard_rows: 256,
        kernel: Kernel::default(),
        out: "target/bench-results/scaling_smoke.json".to_string(),
        out_was_set: false,
        enforce_speedup: None,
        bench_one: None,
        wire: false,
        auth: false,
        connections: 4,
        dockets: 16,
        enforce_claims_per_sec: None,
        fleet: 0,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workers" => {
                args.workers = value("--workers")?
                    .split(',')
                    .map(|w| w.trim().parse::<usize>().map_err(|e| format!("--workers: {e}")))
                    .collect::<Result<Vec<_>, _>>()?;
                if args.workers.is_empty() || args.workers.contains(&0) {
                    return Err("--workers needs a comma-separated list of positive counts".into());
                }
            }
            "--claims" => {
                args.claims = value("--claims")?.parse().map_err(|e| format!("--claims: {e}"))?;
                if args.claims < 2 {
                    return Err("--claims must be at least 2".into());
                }
            }
            "--samples" => {
                args.samples = value("--samples")?.parse().map_err(|e| format!("--samples: {e}"))?;
                if args.samples == 0 {
                    return Err("--samples must be at least 1".into());
                }
            }
            "--shard-rows" => {
                args.shard_rows =
                    value("--shard-rows")?.parse().map_err(|e| format!("--shard-rows: {e}"))?;
                if args.shard_rows == 0 {
                    return Err("--shard-rows must be at least 1".into());
                }
            }
            "--kernel" => {
                args.kernel = value("--kernel")?.parse().map_err(|e| format!("--kernel: {e}"))?
            }
            "--out" => {
                args.out = value("--out")?;
                args.out_was_set = true;
            }
            "--wire" => args.wire = true,
            "--auth" => args.auth = true,
            "--connections" => {
                args.connections =
                    value("--connections")?.parse().map_err(|e| format!("--connections: {e}"))?;
                if args.connections == 0 {
                    return Err("--connections must be at least 1".into());
                }
            }
            "--dockets" => {
                args.dockets = value("--dockets")?.parse().map_err(|e| format!("--dockets: {e}"))?;
                if args.dockets == 0 {
                    return Err("--dockets must be at least 1".into());
                }
            }
            "--fleet" => {
                args.fleet = value("--fleet")?.parse().map_err(|e| format!("--fleet: {e}"))?;
                if args.fleet < 2 {
                    return Err("--fleet needs at least 2 backends".into());
                }
            }
            "--enforce-claims-per-sec" => {
                args.enforce_claims_per_sec = Some(
                    value("--enforce-claims-per-sec")?
                        .parse()
                        .map_err(|e| format!("--enforce-claims-per-sec: {e}"))?,
                )
            }
            "--enforce-speedup" => {
                args.enforce_speedup = Some(
                    value("--enforce-speedup")?
                        .parse()
                        .map_err(|e| format!("--enforce-speedup: {e}"))?,
                )
            }
            "--bench-one" => {
                args.bench_one =
                    Some(value("--bench-one")?.parse().map_err(|e| format!("--bench-one: {e}"))?)
            }
            "--help" | "-h" => {
                println!(
                    "usage: scaling_smoke [--workers 1,2,4] [--claims N] [--samples N] \
                     [--shard-rows N] [--kernel scalar|blocked|quantized|auto] [--out PATH] \
                     [--enforce-speedup X.Y]\n\
                     \x20      scaling_smoke --wire [--auth] [--fleet N] [--connections C] \
                     [--dockets D] [--claims N] [--out PATH] [--enforce-claims-per-sec X]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// One measured width: true pool size, best wall time, throughput and the
/// verdict-vector fingerprint its child process reported.
struct Measurement {
    workers: usize,
    best: Duration,
    claims_per_sec: f64,
    fingerprint: u64,
    /// What the requested kernel resolved to in that child (for `auto`,
    /// the microprobe's pick), e.g. `blocked16`, plus its block width.
    resolved_kernel: String,
    block_width: usize,
}

fn build_docket(
    claims: usize,
    shard_rows: usize,
    kernel: Kernel,
    heavy_decoys: bool,
) -> (DisputeService, Vec<Dispute>, WatermarkOutcome) {
    // Deterministic fixture, same spirit as `judge_smoke`: every run of
    // this binary measures the identical workload.
    let mut rng = SmallRng::seed_from_u64(0x5CA1E);
    let dataset = SyntheticSpec::breast_cancer_like().scaled(0.8).generate(&mut rng);
    let (train, test) = dataset.split_stratified(0.8, &mut rng);
    let signature = Signature::from_identity("alice@modelcorp.example", 16);
    let config = WatermarkConfig {
        num_trees: 16,
        ..WatermarkConfig::fast()
    };
    let outcome = Watermarker::new(config)
        .embed(&train, &signature, &mut rng)
        .expect("the fixture embedding always succeeds");
    // The claim's test rows are protocol decoys — only trigger rows decide
    // the verdict — so a large decoy draw makes each claim's verification
    // batch deployment-sized (thousands of disguised queries) without
    // inflating the embedding cost of the fixture. The scaling mode wants
    // that heavy inner batch (it measures the nested fan-out); the wire
    // mode wants claims shaped like the committed
    // `served_loopback_64_claim_docket` baseline, so its claims/s compare
    // against that number.
    let decoys = if heavy_decoys {
        SyntheticSpec::breast_cancer_like().scaled(8.0).generate(&mut rng)
    } else {
        test.clone()
    };
    let genuine = OwnershipClaim::new(
        outcome.signature.clone(),
        outcome.trigger_set.clone(),
        decoys.clone(),
    );
    let forged = OwnershipClaim::new(
        Signature::from_identity("mallory@pirate.example", 16),
        test.select(&(0..outcome.trigger_set.len()).collect::<Vec<_>>())
            .expect("forged trigger selection from the test split"),
        decoys,
    );
    let docket: Vec<Dispute> = (0..claims)
        .map(|i| {
            Dispute::new(
                "scaling-deployment",
                if i % 2 == 0 {
                    genuine.clone()
                } else {
                    forged.clone()
                },
            )
        })
        .collect();
    // Small shards force a real inner fan-out: each dispute splits into
    // several batch-shard jobs, which is the nesting this binary exists
    // to measure.
    let service = DisputeService::builder()
        .batch_shard_rows(shard_rows)
        .kernel(kernel)
        .build()
        .expect("an empty builder always builds");
    service.register("scaling-deployment", &outcome.model);
    (service, docket, outcome)
}

/// FNV-1a over the debug rendering of the verdict vector: a cheap,
/// process-independent fingerprint (float debug formatting is the
/// shortest round-trip form, so equal bits render equally) the parent
/// compares across widths to enforce bit-identity.
fn fingerprint(verdicts: &[WatermarkResult<VerificationReport>]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in format!("{verdicts:?}").bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The `p`-th percentile of an already-sorted latency vector (nearest-rank).
fn percentile(sorted: &[Duration], p: f64) -> Duration {
    debug_assert!(!sorted.is_empty());
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Open-loop wire-path load generator: an in-process judge on loopback,
/// hammered by pipelining clients whose send schedule is independent of
/// verdict arrival. Hard-fails on any verdict that differs from the
/// in-process reference.
fn wire_mode(args: &Args) -> ExitCode {
    let (service, mut docket, outcome) = build_docket(args.claims, args.shard_rows, args.kernel, false);
    // With --fleet the docket cycles several replicated model ids, so the
    // router genuinely splits every docket into per-backend shards.
    let model_ids: Vec<String> = if args.fleet > 0 {
        (0..4).map(|i| format!("scaling-deployment-{i}")).collect()
    } else {
        vec!["scaling-deployment".to_string()]
    };
    if args.fleet > 0 {
        for (i, dispute) in docket.iter_mut().enumerate() {
            dispute.model_id = model_ids[i % model_ids.len()].clone();
        }
        for id in &model_ids {
            service.register(id.clone(), &outcome.model);
        }
    }
    // One in-process reference resolution; every served docket must match
    // its fingerprint bit for bit.
    let reference_fp = fingerprint(&service.resolve_many(&docket));
    let service = Arc::new(service);
    // With --auth the judge is keyed with one synthetic tenant and every
    // generator authenticates as it: same workload, every frame tagged.
    let tenant = TenantId::new("bench").expect("the bench tenant id is valid");
    let secret = b"scaling-smoke shared secret".to_vec();
    let key_ring = args.auth.then(|| {
        let mut ring = KeyRing::default();
        ring.insert(tenant.clone(), secret.clone());
        Arc::new(ring)
    });
    // The judge processes under load: the one shared fixture service, or
    // `--fleet` fresh services each replicating every model id (so any
    // backend can serve any shard).
    let serving: Vec<Arc<DisputeService>> = if args.fleet > 0 {
        (0..args.fleet)
            .map(|_| {
                let backend = DisputeService::builder()
                    .batch_shard_rows(args.shard_rows)
                    .kernel(args.kernel)
                    .build()
                    .expect("an empty builder always builds");
                for id in &model_ids {
                    backend.register(id.clone(), &outcome.model);
                    if args.auth {
                        // Models are tenant-namespaced: the bench tenant
                        // needs its own entry (shared compiled forest, no
                        // second compile).
                        backend
                            .register_digested_as(&tenant, id.clone(), &outcome.model)
                            .expect("the bench tenant registration is within quota");
                    }
                }
                Arc::new(backend)
            })
            .collect()
    } else {
        if args.auth {
            service
                .register_digested_as(&tenant, "scaling-deployment".to_string(), &outcome.model)
                .expect("the bench tenant registration is within quota");
        }
        vec![Arc::clone(&service)]
    };
    let mut servers = Vec::with_capacity(serving.len());
    for backend in serving {
        let config = ServerConfig {
            key_ring: key_ring.clone(),
            ..ServerConfig::default()
        };
        match JudgeServer::bind("127.0.0.1:0", backend, config) {
            Ok(server) => servers.push(server.spawn()),
            Err(err) => {
                eprintln!("scaling_smoke: could not bind a loopback judge: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    let router = if args.fleet > 0 {
        let config = RouterConfig {
            backends: servers.iter().map(|s| s.addr().to_string()).collect(),
            ..RouterConfig::default()
        };
        let front = ServerConfig {
            key_ring: key_ring.clone(),
            ..ServerConfig::default()
        };
        match JudgeRouter::new(config)
            .and_then(|router| JudgeServer::bind("127.0.0.1:0", Arc::new(router), front))
        {
            Ok(router) => Some(router.spawn()),
            Err(err) => {
                eprintln!("scaling_smoke: could not bind the loopback router: {err}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let addr = router.as_ref().map_or_else(|| servers[0].addr(), |r| r.addr());
    let (connections, dockets) = (args.connections, args.dockets);
    let topology = match args.fleet {
        0 => "loopback judge".to_string(),
        n => format!("router over {n} loopback judges"),
    };
    println!(
        "scaling_smoke --wire: {connections} connections x {dockets} pipelined dockets x {} \
         claims against the {} {topology} at {addr}",
        args.claims,
        if args.auth { "authenticated" } else { "open" }
    );

    let started = Instant::now();
    let generators: Vec<_> = (0..connections)
        .map(|_| {
            let docket = docket.clone();
            let auth = args.auth.then(|| ClientAuth::new(tenant.clone(), secret.clone()));
            std::thread::spawn(move || -> Result<Vec<Duration>, String> {
                let mut client = match auth {
                    Some(auth) => DisputeClient::connect_authenticated(addr, auth),
                    None => DisputeClient::connect(addr),
                }
                .map_err(|e| format!("connect: {e}"))?;
                // Open loop: every docket is sent up front; nothing waits
                // for a verdict before offering more load.
                let mut sent = Vec::with_capacity(dockets);
                let mut tickets = Vec::with_capacity(dockets);
                for _ in 0..dockets {
                    sent.push(Instant::now());
                    tickets.push(client.send_docket(&docket).map_err(|e| format!("send: {e}"))?);
                }
                let mut latencies = Vec::with_capacity(dockets);
                for (ticket, sent_at) in tickets.into_iter().zip(sent) {
                    let verdicts = client.recv_docket(ticket).map_err(|e| format!("recv: {e}"))?;
                    latencies.push(sent_at.elapsed());
                    if fingerprint(&verdicts) != reference_fp {
                        return Err(format!(
                            "BIT-IDENTITY VIOLATION: served fingerprint {:016x} differs from \
                             the in-process reference {reference_fp:016x}",
                            fingerprint(&verdicts)
                        ));
                    }
                }
                Ok(latencies)
            })
        })
        .collect();

    let mut latencies: Vec<Duration> = Vec::with_capacity(connections * dockets);
    let mut bit_identity_violated = false;
    for generator in generators {
        match generator.join().expect("a generator thread never panics") {
            Ok(per_docket) => latencies.extend(per_docket),
            Err(message) => {
                eprintln!("scaling_smoke: {message}");
                bit_identity_violated |= message.contains("BIT-IDENTITY");
                if let Some(router) = &router {
                    router.handle().shutdown();
                }
                for server in &servers {
                    server.handle().shutdown();
                }
                return if bit_identity_violated {
                    ExitCode::from(2)
                } else {
                    ExitCode::FAILURE
                };
            }
        }
    }
    let wall = started.elapsed();
    if let Some(router) = router {
        router.shutdown().expect("the loopback router shuts down cleanly");
    }
    for server in servers {
        server.shutdown().expect("the loopback judge shuts down cleanly");
    }

    let total_claims = connections * dockets * args.claims;
    let claims_per_sec = total_claims as f64 / wall.as_secs_f64();
    latencies.sort_unstable();
    let (p50, p99, max) = (
        percentile(&latencies, 50.0),
        percentile(&latencies, 99.0),
        *latencies.last().unwrap(),
    );
    println!(
        "scaling_smoke --wire: {total_claims} claims served in {wall:?} = {claims_per_sec:.0} \
         claims/s; docket latency p50 {p50:?} / p99 {p99:?} / max {max:?}; all verdicts \
         bit-identical to in-process resolution"
    );

    let out = if args.out_was_set {
        args.out.clone()
    } else if args.fleet > 0 {
        "target/bench-results/wire_fleet_load.json".to_string()
    } else {
        "target/bench-results/wire_load.json".to_string()
    };
    let artifact = format!(
        "{{\n  \"mode\": \"{}\",\n  \"auth\": {},\n  \"backends\": {},\n  \
         \"connections\": {connections},\n  \
         \"dockets_per_connection\": {dockets},\n  \"claims_per_docket\": {},\n  \
         \"total_claims\": {total_claims},\n  \"wall_ms\": {:.3},\n  \
         \"claims_per_sec\": {claims_per_sec:.0},\n  \"docket_latency_ms\": {{ \
         \"p50\": {:.3}, \"p99\": {:.3}, \"max\": {:.3} }},\n  \"bit_identical\": true\n}}\n",
        if args.fleet > 0 {
            "open_loop_wire_fleet"
        } else {
            "open_loop_wire"
        },
        args.auth,
        args.fleet.max(1),
        args.claims,
        wall.as_secs_f64() * 1e3,
        p50.as_secs_f64() * 1e3,
        p99.as_secs_f64() * 1e3,
        max.as_secs_f64() * 1e3,
    );
    let path = std::path::Path::new(&out);
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(err) = std::fs::write(path, &artifact) {
        eprintln!("scaling_smoke: could not write {}: {err}", path.display());
        return ExitCode::FAILURE;
    }
    println!("scaling_smoke: wrote {}", path.display());

    if let Some(floor) = args.enforce_claims_per_sec {
        if claims_per_sec < floor {
            eprintln!(
                "scaling_smoke: FAIL: {claims_per_sec:.0} served claims/s is below the \
                 {floor:.0} floor"
            );
            return ExitCode::from(3);
        }
    }
    println!("scaling_smoke: PASS (wire verdicts bit-identical to the in-process reference)");
    ExitCode::SUCCESS
}

/// Child mode: size the global pool to exactly `width`, run the fixture,
/// and print one machine-readable result line for the parent.
fn bench_one(width: usize, args: &Args) -> ExitCode {
    if let Err(err) = rayon::ThreadPoolBuilder::new().num_threads(width).build_global() {
        eprintln!("scaling_smoke: could not size the global pool to {width}: {err}");
        return ExitCode::FAILURE;
    }
    let (service, docket, _outcome) = build_docket(args.claims, args.shard_rows, args.kernel, true);
    // Warm-up run doubles as the fingerprint source — and, for `auto`,
    // triggers the one-time kernel microprobe so the resolved kernel is
    // known before any timed sample.
    let verdicts = service.resolve_many(&docket);
    let upheld = verdicts.iter().filter(|v| v.as_ref().is_ok_and(|r| r.verified)).count();
    if upheld == 0 || upheld >= args.claims {
        eprintln!(
            "scaling_smoke: implausible verdict split ({upheld}/{})",
            args.claims
        );
        return ExitCode::FAILURE;
    }
    let mut best = Duration::MAX;
    for _ in 0..args.samples {
        let start = Instant::now();
        let timed = service.resolve_many(&docket);
        let elapsed = start.elapsed();
        std::hint::black_box(&timed);
        best = best.min(elapsed);
    }
    let resolved = service
        .model("scaling-deployment")
        .and_then(|model| model.resolved_kernel(args.kernel));
    let (resolved_name, block_width) = match resolved {
        Some(r) => (r.to_string(), r.block_width()),
        None => ("unresolved".to_string(), 0),
    };
    println!(
        "bench-one width={width} best_ns={} fingerprint={:016x} kernel={resolved_name} \
         block_width={block_width}",
        best.as_nanos(),
        fingerprint(&verdicts)
    );
    ExitCode::SUCCESS
}

/// Spawns this binary back on itself in `--bench-one` mode and parses the
/// child's result line.
fn measure_width(width: usize, args: &Args) -> Result<Measurement, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = std::process::Command::new(&exe)
        .arg("--bench-one")
        .arg(width.to_string())
        .arg("--claims")
        .arg(args.claims.to_string())
        .arg("--samples")
        .arg(args.samples.to_string())
        .arg("--shard-rows")
        .arg(args.shard_rows.to_string())
        .arg("--kernel")
        .arg(args.kernel.to_string())
        .output()
        .map_err(|e| format!("spawning the width-{width} child: {e}"))?;
    let stderr = String::from_utf8_lossy(&output.stderr);
    if !stderr.is_empty() {
        eprint!("{stderr}");
    }
    if !output.status.success() {
        return Err(format!("width-{width} child failed with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("bench-one "))
        .ok_or_else(|| format!("width-{width} child printed no result line:\n{stdout}"))?;
    let mut best_ns: Option<u128> = None;
    let mut fp: Option<u64> = None;
    let mut resolved_kernel = String::from("unresolved");
    let mut block_width = 0usize;
    for token in line.split_whitespace() {
        if let Some(v) = token.strip_prefix("best_ns=") {
            best_ns = v.parse().ok();
        } else if let Some(v) = token.strip_prefix("fingerprint=") {
            fp = u64::from_str_radix(v, 16).ok();
        } else if let Some(v) = token.strip_prefix("kernel=") {
            resolved_kernel = v.to_string();
        } else if let Some(v) = token.strip_prefix("block_width=") {
            block_width = v.parse().unwrap_or(0);
        }
    }
    let (Some(best_ns), Some(fp)) = (best_ns, fp) else {
        return Err(format!("width-{width} child result line is malformed: {line}"));
    };
    let best = Duration::from_nanos(best_ns as u64);
    Ok(Measurement {
        workers: width,
        best,
        claims_per_sec: args.claims as f64 / best.as_secs_f64(),
        fingerprint: fp,
        resolved_kernel,
        block_width,
    })
}

fn json_artifact(args: &Args, host_cores: usize, rows: &[Measurement]) -> String {
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    json.push_str(&format!("  \"claims\": {},\n", args.claims));
    json.push_str(&format!("  \"shard_rows\": {},\n", args.shard_rows));
    json.push_str(&format!("  \"samples_per_width\": {},\n", args.samples));
    json.push_str(&format!("  \"kernel\": \"{}\",\n", args.kernel));
    json.push_str("  \"pipeline\": \"resolve_many: disputes x batch shards (nested pool jobs)\",\n");
    json.push_str(
        "  \"measurement\": \"one child process per width; global pool sized to exactly that width\",\n",
    );
    json.push_str("  \"widths\": [\n");
    // Rows are sorted and always include width 1 (the strictly serial
    // baseline), so rows[0] is the true serial reference.
    let baseline = rows[0].best.as_secs_f64();
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"workers\": {}, \"best_ns\": {}, \"claims_per_sec\": {:.0}, \
             \"speedup_vs_1\": {:.3}, \"resolved_kernel\": \"{}\", \"block_width\": {} }}{}\n",
            row.workers,
            row.best.as_nanos(),
            row.claims_per_sec,
            baseline / row.best.as_secs_f64(),
            row.resolved_kernel,
            row.block_width,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    json
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("scaling_smoke: {message}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(width) = args.bench_one {
        return bench_one(width, &args);
    }
    if args.wire {
        return wire_mode(&args);
    }

    // Width 1 is always measured: it is both the bit-identity reference
    // and the denominator of every speedup (including the enforced one).
    let mut widths = args.workers.clone();
    widths.push(1);
    widths.sort_unstable();
    widths.dedup();

    let host_cores = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    println!(
        "scaling_smoke: {} claims x {} widths on a {host_cores}-core host \
         (one child process per width)",
        args.claims,
        widths.len()
    );

    let mut rows: Vec<Measurement> = Vec::with_capacity(widths.len());
    for &width in &widths {
        match measure_width(width, &args) {
            Ok(row) => {
                println!(
                    "  {} workers: best {:?} over {} samples = {:.0} claims/s ({} kernel)",
                    row.workers, row.best, args.samples, row.claims_per_sec, row.resolved_kernel
                );
                rows.push(row);
            }
            Err(message) => {
                eprintln!("scaling_smoke: {message}");
                return ExitCode::FAILURE;
            }
        }
    }
    for row in &rows[1..] {
        if row.fingerprint != rows[0].fingerprint {
            eprintln!(
                "scaling_smoke: BIT-IDENTITY VIOLATION at {} workers: verdict fingerprint \
                 {:016x} differs from the serial reference {:016x}",
                row.workers, row.fingerprint, rows[0].fingerprint
            );
            return ExitCode::from(2);
        }
    }

    let widest = rows.last().expect("at least width 1 was measured");
    let speedup = rows[0].best.as_secs_f64() / widest.best.as_secs_f64();
    println!(
        "scaling_smoke: speedup at {} workers vs 1 = {speedup:.2}x",
        widest.workers
    );

    let artifact = json_artifact(&args, host_cores, &rows);
    let path = std::path::Path::new(&args.out);
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(path, &artifact) {
        Ok(()) => println!("scaling_smoke: wrote {}", path.display()),
        Err(err) => {
            eprintln!("scaling_smoke: could not write {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
    }

    if let Some(min) = args.enforce_speedup {
        if speedup < min {
            eprintln!(
                "scaling_smoke: FAIL: speedup {speedup:.2}x at {} workers is below the \
                 {min:.2}x floor — the nested pipeline is running slower with more workers",
                widest.workers
            );
            return ExitCode::from(3);
        }
    }
    println!("scaling_smoke: PASS (all widths bit-identical to the serial reference)");
    ExitCode::SUCCESS
}
