//! `wdtpbench` — the judge benchmark. Runs one workload against the
//! shipped `serve_judge` (authenticated WDTP v4, two tenants) and prints
//! one JSON result line: the end-to-end metrics, or with `--trace 1` the
//! per-layer metrics. `run.py` builds the judge and this binary and is the
//! entry point:
//!
//! ```text
//! python3 wdtpbench/run.py --workload resident|fresh|routed --seed N --seconds S --trace 0|1
//! ```
//!
//! The judge's `auto` kernel microprobe picks kernels anew in every
//! process, so one judge process is one sample: a run splits its
//! `--seconds` across [`Workload::instances`] judge instances, each set
//! up, warmed until stationary and then measured, and pools what they
//! measured. The traced run then keeps the last instance for a loop with
//! spans, unloaded dockets (directly and through a one-backend router),
//! and an in-process replay of a sample of the dockets through every
//! layer. Any verdict that differs from the in-process reference fails
//! the run (exit code 1).

mod fixture;
mod judge;
mod load;
mod replay;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use wdte_core::TenantStatsEntry;
use wdte_server::{ClientAuth, DisputeClient};

use fixture::{Fixture, Shape};
use judge::Judge;
use load::{Conn, Window};
use trace::{median, percentile};
use workload::{claim_set, SetClaim, Source, Workload, DOCKET_CLAIMS, PIPELINED, RING_DOCKETS};

/// Set-ups timed only for `setup_s`, before the measured instances.
const EXTRA_SETUPS: usize = 1;
/// Length of one warm-up round, and the most rounds before measuring.
const WARMUP_ROUND_S: f64 = 0.4;
const MAX_WARMUP_ROUNDS: usize = 30;
/// Unloaded dockets timed per probe.
const UNLOADED_DOCKETS: usize = 24;
/// Dockets per tenant the traced replay pushes through every layer.
const REPLAY_DOCKETS: usize = 6;
/// Length of the traced loop (and of `fresh`'s pipelined loop) as a share
/// of `--seconds`.
const TRACED_SHARE: f64 = 0.25;

/// End-to-end metrics (`--trace 0`) and their units.
const END_TO_END: [(&str, &str); 7] = [
    ("claims_per_s", "1/s"),
    ("docket_p50_ms", "ms"),
    ("docket_p90_ms", "ms"),
    ("ok_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("wire_kb_per_claim", "KB"),
];

/// Per-layer metrics (`--trace 1`) and their units.
const PER_LAYER: [(&str, &str); 30] = [
    ("infer.walk_ms", "ms"),
    ("infer.rows_per_docket", "count"),
    ("verify.disguise_ms", "ms"),
    ("service.resolve_ms", "ms"),
    ("service.cache_ms", "ms"),
    ("service.cache_hit_frac", "ratio"),
    ("service.evictions_per_claim", "ratio"),
    ("service.compile_ms", "ms"),
    ("tenant.hmac_ms", "ms"),
    ("proto.encode_ms", "ms"),
    ("proto.decode_ms", "ms"),
    ("proto.verdict_encode_ms", "ms"),
    ("proto.verdict_decode_ms", "ms"),
    ("proto.request_kb", "KB"),
    ("client.digest_ms", "ms"),
    ("client.clone_ms", "ms"),
    ("client.send_ms", "ms"),
    ("client.docket_p99_ms", "ms"),
    ("client.docket_p99_samples", "count"),
    ("client.conn_share_min", "ratio"),
    ("server.unloaded_docket_ms", "ms"),
    ("server.residual_ms", "ms"),
    ("trace.attributed_frac", "ratio"),
    ("server.loop_busy_frac", "ratio"),
    ("router.hop_ms", "ms"),
    ("fleet.split_ms", "ms"),
    ("judge.cpu_util", "cores"),
    ("gen.cpu_util", "cores"),
    ("run.half_drift", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    judge_bin: PathBuf,
    build_dir: PathBuf,
    commit: String,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let mut values: BTreeMap<String, String> = BTreeMap::new();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let name = flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        values.insert(name.to_string(), value);
    }
    let mut take = |name: &str| values.remove(name).ok_or_else(|| format!("--{name} is required"));
    let args = Args {
        workload: Workload::parse(&take("workload")?)?,
        seed: take("seed")?.parse().map_err(|err| format!("--seed: {err}"))?,
        seconds: take("seconds")?.parse().map_err(|err| format!("--seconds: {err}"))?,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
        judge_bin: take("judge-bin")?.into(),
        build_dir: take("build-dir")?.into(),
        commit: take("commit").unwrap_or_else(|_| "unknown".into()),
        rustc: take("rustc").unwrap_or_else(|_| "unknown".into()),
    };
    if let Some(name) = values.keys().next() {
        return Err(format!("unknown flag --{name}"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn json_string(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// What one judge instance's measured window saw.
struct Segment {
    window: Window,
    wall: f64,
    judge_cpu: f64,
    gen_cpu: f64,
    sent_bytes: u64,
    claims_sent: u64,
    peak_rss_mb: f64,
    /// `Stats` deltas over the window, summed over tenants.
    claims: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// Growth of the judge's cached-claim gauge over the window.
    cached_growth: f64,
}

/// Everything a run measures and checks.
struct Run {
    args: Args,
    fixture: Fixture,
    sets: Vec<Arc<Vec<SetClaim>>>,
    run_dir: PathBuf,
    key_file: PathBuf,
    origin: Instant,
    metrics: BTreeMap<&'static str, f64>,
    meta: BTreeMap<&'static str, String>,
    failures: Vec<String>,
}

impl Run {
    /// The metrics this run prints, with their units.
    fn expected(&self) -> &'static [(&'static str, &'static str)] {
        if self.args.trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    fn record(&mut self, name: &'static str, value: f64) {
        assert!(
            self.expected().iter().any(|(known, _)| *known == name),
            "metric {name} is not listed for this mode"
        );
        self.metrics.insert(name, value);
    }

    fn connect(&self, addr: &str, tenant: usize) -> Result<DisputeClient, String> {
        let owner = &self.fixture.tenants[tenant];
        DisputeClient::connect_authenticated(
            addr,
            ClientAuth::new(owner.id.clone(), owner.secret.clone()),
        )
        .map_err(|err| format!("connecting to {addr}: {err}"))
    }

    fn register_all(&self, client: &mut DisputeClient, tenant: usize) -> Result<(), String> {
        for model in &self.fixture.tenants[tenant].models {
            client
                .register_model(model.id.clone(), &model.forest)
                .map_err(|err| format!("registering {}: {err}", model.id))?;
        }
        Ok(())
    }

    fn source(&self, tenant: usize) -> Source {
        Source::new(
            self.args.workload,
            &self.fixture.tenants[tenant],
            tenant,
            Arc::clone(&self.sets[tenant]),
            self.args.seed,
        )
    }

    /// Spawns the judge and registers every tenant's models over the
    /// wire, ending on an authenticated ping; returns the seconds taken.
    fn set_up(&self) -> Result<(Judge, Vec<Conn>, f64), String> {
        let start = Instant::now();
        let judge = Judge::spawn(
            &self.args.judge_bin,
            &judge::flags(self.args.workload),
            &self.key_file,
            &self.run_dir,
        )?;
        let mut clients = Vec::new();
        for tenant in 0..self.fixture.tenants.len() {
            let mut client = self.connect(judge.addr(), tenant)?;
            self.register_all(&mut client, tenant)?;
            client.ping().map_err(|err| format!("ping: {err}"))?;
            clients.push(client);
        }
        let seconds = start.elapsed().as_secs_f64();
        let conns = clients
            .into_iter()
            .enumerate()
            .map(|(tenant, client)| Conn::new(tenant, client, self.source(tenant)))
            .collect();
        Ok((judge, conns, seconds))
    }

    /// Every tenant's own `Stats` row.
    fn stats(conns: &mut [Conn]) -> Result<Vec<TenantStatsEntry>, String> {
        conns
            .iter_mut()
            .map(|conn| {
                let rows = conn.client.stats().map_err(|err| format!("stats: {err}"))?;
                rows.into_iter()
                    .next()
                    .ok_or_else(|| "the judge returned no stats row".to_string())
            })
            .collect()
    }

    fn claims_cached(conns: &mut [Conn]) -> Result<u64, String> {
        Ok(conns[0].client.ping().map_err(|err| format!("ping: {err}"))?.claims_cached)
    }

    /// Runs until the judge is stationary: every model has served a
    /// docket (so `auto` has picked its kernels), pooled claims are
    /// uploaded and no longer missed, and on `fresh` the claim cache is
    /// full and evicting. Returns the warm-up rounds it took.
    fn warm_up(&mut self, conns: &mut [Conn]) -> Result<usize, String> {
        let pooled = self.args.workload.pooled();
        if pooled {
            for conn in conns.iter_mut() {
                for docket in conn.source.upload_dockets() {
                    conn.resolve(&docket)?;
                }
            }
        }
        let misses = |conns: &mut [Conn]| -> Result<u64, String> {
            Ok(Self::stats(conns)?.iter().map(|row| row.cache_misses).sum())
        };
        let (mut missed, mut cached) = (misses(conns)?, Self::claims_cached(conns)?);
        for round in 1..=MAX_WARMUP_ROUNDS {
            Window::run(
                conns,
                WARMUP_ROUND_S,
                self.args.workload.in_flight(),
                false,
                self.origin,
            )?;
            let (now_missed, now_cached) = (misses(conns)?, Self::claims_cached(conns)?);
            let sent: u64 = conns.iter().map(|conn| conn.claims_sent).sum();
            let stationary = round >= 2
                && if pooled {
                    now_missed == missed
                } else {
                    now_cached == cached && sent > now_cached
                };
            (missed, cached) = (now_missed, now_cached);
            if stationary {
                return Ok(round);
            }
        }
        Err(format!(
            "the judge was not stationary after {MAX_WARMUP_ROUNDS} warm-up rounds"
        ))
    }

    /// Measures one warmed-up instance for its share of `--seconds`, then
    /// reconciles the judge's accounting with the client's.
    fn measure(&mut self, judge: &Judge, conns: &mut [Conn]) -> Result<Segment, String> {
        let stats_before = Self::stats(conns)?;
        let cached_before = Self::claims_cached(conns)?;
        let sent_before: u64 = conns.iter().map(|conn| conn.claims_sent).sum();
        let (judge_cpu, gen_cpu, sent_bytes) = (
            judge.cpu_seconds(),
            judge::cpu_seconds("/proc/self/stat"),
            judge::sent_bytes(),
        );
        let wall = Instant::now();
        let seconds = self.args.seconds / self.args.workload.instances() as f64;
        let window = Window::run(conns, seconds, self.args.workload.in_flight(), false, self.origin)?;
        let wall = wall.elapsed().as_secs_f64();
        let judge_cpu = judge.cpu_seconds() - judge_cpu;
        let gen_cpu = judge::cpu_seconds("/proc/self/stat") - gen_cpu;
        let sent_bytes = judge::sent_bytes().saturating_sub(sent_bytes);
        let claims_sent = conns.iter().map(|conn| conn.claims_sent).sum::<u64>() - sent_before;
        let stats_after = Self::stats(conns)?;
        let cached_after = Self::claims_cached(conns)?;
        // The judge counted exactly the claims answered and refused no frame.
        for (conn, row) in conns.iter().zip(&stats_after) {
            if row.claims != conn.claims_done || row.auth_failures != 0 {
                self.failures.push(format!(
                    "tenant {}: judge counted {} claims and {} auth failures, client had {} answered",
                    row.tenant, row.claims, row.auth_failures, conn.claims_done
                ));
            }
        }
        let delta = |field: fn(&TenantStatsEntry) -> u64| -> u64 {
            let after: u64 = stats_after.iter().map(field).sum();
            after.saturating_sub(stats_before.iter().map(field).sum())
        };
        Ok(Segment {
            wall,
            judge_cpu,
            gen_cpu,
            sent_bytes,
            claims_sent,
            peak_rss_mb: judge.peak_rss_mb(),
            claims: delta(|row| row.claims),
            hits: delta(|row| row.cache_hits),
            misses: delta(|row| row.cache_misses),
            evictions: delta(|row| row.evictions),
            cached_growth: cached_after as f64 - cached_before as f64,
            window,
        })
    }

    /// Readies a new connection: on pooled workloads its first dockets
    /// upload the pool's bodies.
    fn warm(&self, conn: &mut Conn) -> Result<(), String> {
        if self.args.workload.pooled() {
            for _ in 0..RING_DOCKETS {
                let docket = conn.source.next_docket();
                conn.resolve(&docket)?;
            }
        }
        Ok(())
    }

    /// Median unloaded latency on each connection, one docket in flight at
    /// a time, their samples interleaved so that drift moves all alike.
    fn unloaded_ms(conns: &mut [&mut Conn]) -> Result<Vec<f64>, String> {
        let mut samples = vec![Vec::with_capacity(UNLOADED_DOCKETS); conns.len()];
        for _ in 0..UNLOADED_DOCKETS {
            for (conn, samples) in conns.iter_mut().zip(&mut samples) {
                let docket = conn.source.next_docket();
                samples.push(conn.resolve(&docket)?);
            }
        }
        Ok(samples.iter().map(|samples| median(samples)).collect())
    }

    /// Records every wrong verdict a set of connections saw.
    fn check_conns(&mut self, conns: &[Conn]) {
        for conn in conns.iter().filter(|conn| conn.wrong > 0) {
            self.failures.push(format!(
                "{} wrong verdicts, first: {}",
                conn.wrong,
                conn.first_wrong.clone().unwrap_or_default()
            ));
        }
    }

    /// Runs the workload; returns the claims attempted and failed inside
    /// the measured windows.
    fn execute(&mut self) -> Result<(u64, u64), String> {
        self.meta.insert("loadavg_start", loadavg());
        let instances = self.args.workload.instances();
        let mut setups = Vec::with_capacity(EXTRA_SETUPS + instances);
        for _ in 0..EXTRA_SETUPS {
            let (judge, conns, seconds) = self.set_up()?;
            setups.push(seconds);
            drop((conns, judge));
        }
        let mut segments = Vec::with_capacity(instances);
        let mut warmups = Vec::with_capacity(instances);
        let mut kept = None;
        for instance in 0..instances {
            let (judge, mut conns, seconds) = self.set_up()?;
            setups.push(seconds);
            self.meta.insert(
                "judge_flags",
                judge.flags.iter().map(|flags| flags.join(" ")).collect::<Vec<_>>().join(" | "),
            );
            warmups.push(self.warm_up(&mut conns)?.to_string());
            segments.push(self.measure(&judge, &mut conns)?);
            if instance + 1 == instances && self.args.trace {
                kept = Some((judge, conns));
            } else {
                self.check_conns(&conns);
            }
        }
        self.meta.insert("warmup_rounds", warmups.join(" "));

        let seconds: f64 = segments.iter().map(|segment| segment.window.seconds).sum();
        let attempted: usize = segments.iter().map(|segment| segment.window.claims()).sum();
        let correct: usize = segments.iter().map(|segment| segment.window.correct()).sum();
        let claims_per_s = correct as f64 / seconds;
        // A latency percentile is taken per instance and averaged over
        // instances: instances differ in speed, and a percentile of the
        // pooled samples that falls between a fast and a slow instance's
        // latencies jumps with their mix, where the mean moves with it
        // smoothly, as `claims_per_s` does.
        let latency_ms = |p: f64| -> f64 {
            let sum: f64 = segments
                .iter()
                .map(|segment| percentile(&segment.window.latencies_ms(), p))
                .sum();
            sum / segments.len() as f64
        };
        match kept {
            Some((judge, conns)) => self.per_layer(segments, judge, conns)?,
            None => {
                let rss: Vec<f64> = segments.iter().map(|segment| segment.peak_rss_mb).collect();
                let bytes: u64 = segments.iter().map(|segment| segment.sent_bytes).sum();
                let sent: u64 = segments.iter().map(|segment| segment.claims_sent).sum();
                self.record("claims_per_s", claims_per_s);
                self.record("docket_p50_ms", latency_ms(50.0));
                self.record("docket_p90_ms", latency_ms(90.0));
                self.record("ok_frac", correct as f64 / attempted.max(1) as f64);
                self.record("setup_s", median(&setups));
                self.record("peak_rss_mb", median(&rss));
                self.record("wire_kb_per_claim", bytes as f64 / 1024.0 / sent.max(1) as f64);
            }
        }
        Ok((attempted as u64, (attempted - correct) as u64))
    }

    /// The traced run's per-layer metrics: from the measured windows, then
    /// from the last instance (a traced loop, the pipelined tail, unloaded
    /// probes), then from the in-process replay.
    fn per_layer(
        &mut self,
        segments: Vec<Segment>,
        judge: Judge,
        mut conns: Vec<Conn>,
    ) -> Result<(), String> {
        let seconds: f64 = segments.iter().map(|segment| segment.window.seconds).sum();
        let sum = |field: fn(&Segment) -> f64| -> f64 { segments.iter().map(field).sum() };
        let claims = sum(|segment| segment.claims as f64).max(1.0);
        // `Stats.evictions` counts model evictions; claim-cache evictions
        // are bodies inserted minus the growth of the cached-claim gauge.
        let inserted = if self.args.workload.pooled() {
            sum(|segment| segment.misses as f64)
        } else {
            claims
        };
        let evicted =
            inserted - sum(|segment| segment.cached_growth) + sum(|segment| segment.evictions as f64);
        self.record(
            "service.cache_hit_frac",
            sum(|segment| segment.hits as f64) / claims,
        );
        self.record("service.evictions_per_claim", evicted / claims);
        let wall = sum(|segment| segment.wall);
        self.record("judge.cpu_util", sum(|segment| segment.judge_cpu) / wall);
        self.record("gen.cpu_util", sum(|segment| segment.gen_cpu) / wall);
        let (first, second) = segments.iter().fold((0, 0), |(first, second), segment| {
            let (a, b) = segment.window.halves();
            (first + a, second + b)
        });
        self.record("run.half_drift", second as f64 / first.max(1) as f64 - 1.0);
        let dockets_per_s =
            segments.iter().map(|segment| segment.window.dockets()).sum::<usize>() as f64 / seconds;

        // The same loop with spans around the client calls, on the same
        // judge instance as the last untraced window, so that the kernels
        // `auto` picked are the same on both sides of the comparison.
        let untraced = segments.last().expect("a run measures instances").window.claims_per_s();
        let depth = self.args.workload.in_flight();
        let traced = Window::run(
            &mut conns,
            self.args.seconds * TRACED_SHARE,
            depth,
            true,
            self.origin,
        )?;
        self.record(
            "trace.overhead_frac",
            1.0 - traced.claims_per_s() / untraced.max(1e-9),
        );
        let mut tracer = traced.tracer.expect("a traced window has a tracer");
        self.record(
            "client.send_ms",
            median(&tracer.per_docket_ms("client.send_docket")),
        );

        // Tail and fairness with dockets pipelined: the measured windows,
        // or on `fresh` a pipelined loop of its own.
        let pipelined: Vec<Window> = if depth == PIPELINED {
            segments.into_iter().map(|segment| segment.window).collect()
        } else {
            vec![Window::run(
                &mut conns,
                self.args.seconds * TRACED_SHARE,
                PIPELINED,
                false,
                self.origin,
            )?]
        };
        let tail: Vec<f64> = pipelined.iter().flat_map(Window::latencies_ms).collect();
        self.record("client.docket_p99_ms", percentile(&tail, 99.0));
        self.record("client.docket_p99_samples", tail.len() as f64);
        let mut per_conn = vec![0usize; conns.len()];
        for window in &pipelined {
            for (total, claims) in per_conn.iter_mut().zip(window.per_conn_claims(conns.len())) {
                *total += claims;
            }
        }
        let mean = per_conn.iter().sum::<usize>() as f64 / per_conn.len() as f64;
        self.record(
            "client.conn_share_min",
            per_conn.iter().copied().min().unwrap_or(0) as f64 / mean.max(1.0),
        );

        // Unloaded latency on the workload's endpoint, then the routing
        // hop: a one-backend router in front of a judge holding every
        // model of tenant 0, against that judge directly.
        let direct_addr = judge.procs[0].addr.clone();
        let mut direct = Conn::new(0, self.connect(&direct_addr, 0)?, self.source(0));
        if self.args.workload == Workload::Routed {
            self.register_all(&mut direct.client, 0)?;
        }
        let probe_flags = vec![vec![
            "--router".to_string(),
            "--backends".to_string(),
            direct_addr,
        ]];
        let probe = Judge::spawn(&self.args.judge_bin, &probe_flags, &self.key_file, &self.run_dir)?;
        let mut routed = Conn::new(0, self.connect(probe.addr(), 0)?, self.source(0));
        self.warm(&mut direct)?;
        self.warm(&mut routed)?;
        let unloaded = Self::unloaded_ms(&mut [&mut conns[0], &mut direct, &mut routed])?;
        let endpoint_ms = unloaded[0];
        self.record("server.unloaded_docket_ms", endpoint_ms);
        self.record("router.hop_ms", unloaded[2] - unloaded[1]);
        self.check_conns(&conns);
        self.check_conns(&[direct, routed]);
        drop((probe, conns, judge));

        // The in-process replay, with every judge process gone.
        let replay = replay::replay(
            self.args.workload,
            &self.fixture,
            &self.sets,
            self.args.seed,
            REPLAY_DOCKETS,
            self.origin,
        )?;
        let step = |name: &str| replay.metrics[name];
        for (&name, &value) in &replay.metrics {
            self.record(name, value);
        }
        // The steps one unloaded docket blocks on along its path; the
        // router's own steps are added on `routed`.
        let mut blocking = step("client.digest_ms")
            + step("client.clone_ms")
            + step("proto.encode_ms")
            + 2.0 * step("tenant.hmac_ms")
            + step("proto.decode_ms")
            + step("service.cache_ms")
            + step("service.resolve_ms")
            + step("proto.verdict_encode_ms")
            + step("proto.verdict_decode_ms");
        if self.args.workload == Workload::Routed {
            blocking += 2.0 * step("tenant.hmac_ms")
                + step("proto.decode_ms")
                + step("proto.encode_ms")
                + step("fleet.split_ms")
                + step("proto.verdict_decode_ms")
                + step("proto.verdict_encode_ms");
        }
        self.record("server.residual_ms", endpoint_ms - blocking);
        self.record("trace.attributed_frac", blocking / endpoint_ms);
        self.record(
            "server.loop_busy_frac",
            (step("tenant.hmac_ms") + step("proto.decode_ms")) / 1e3 * dockets_per_s,
        );
        self.meta.insert("kernels", replay.kernels.join(" "));
        tracer.absorb(replay.tracer);
        let path = self.args.build_dir.join(format!(
            "trace-{}-seed{}.json",
            self.args.workload.name(),
            self.args.seed
        ));
        tracer
            .write(&path)
            .map_err(|err| format!("writing {}: {err}", path.display()))?;
        self.meta.insert("trace_file", path.display().to_string());
        Ok(())
    }

    fn meta_line(&self) -> String {
        let fields: Vec<String> = self
            .meta
            .iter()
            .map(|(key, value)| format!("{}: {}", json_string(key), json_string(value)))
            .collect();
        format!("{{\"meta\": {{{}}}}}", fields.join(", "))
    }

    fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .expected()
            .iter()
            .map(|(name, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(name),
                    self.metrics[name],
                    json_string(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg").unwrap_or_default().trim().to_string()
}

fn cpu_info() -> (String, bool) {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = info
        .lines()
        .find_map(|line| {
            line.strip_prefix("model name")
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']))
        })
        .unwrap_or("unknown")
        .to_string();
    let sha_ni = info
        .lines()
        .any(|line| line.starts_with("flags") && line.split_whitespace().any(|flag| flag == "sha_ni"));
    (model, sha_ni)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("wdtpbench: {message}");
            return ExitCode::from(2);
        }
    };
    let origin = Instant::now();
    let fixture = match Fixture::load_or_build(Shape::BENCH, &args.build_dir.join("fixture-v1")) {
        Ok(fixture) => fixture,
        Err(message) => {
            eprintln!("wdtpbench: {message}");
            return ExitCode::from(2);
        }
    };
    let sets: Vec<Arc<Vec<SetClaim>>> = fixture
        .tenants
        .iter()
        .enumerate()
        .map(|(index, tenant)| Arc::new(claim_set(tenant, index, args.seed)))
        .collect();
    let run_dir = args.build_dir.join(format!("run-{}", std::process::id()));
    let key_file = run_dir.join("keys.txt");
    if let Err(err) =
        std::fs::create_dir_all(&run_dir).and_then(|()| std::fs::write(&key_file, fixture.key_file()))
    {
        eprintln!("wdtpbench: preparing {}: {err}", run_dir.display());
        return ExitCode::from(2);
    }
    let (cpu_model, sha_ni) = cpu_info();
    let mut meta = BTreeMap::new();
    meta.insert("workload", args.workload.name().to_string());
    meta.insert("seed", args.seed.to_string());
    meta.insert("commit", args.commit.clone());
    meta.insert("rustc", args.rustc.clone());
    meta.insert(
        "nproc",
        std::thread::available_parallelism().map_or(1, usize::from).to_string(),
    );
    meta.insert("cpu_model", cpu_model);
    meta.insert("sha_ni", sha_ni.to_string());
    meta.insert(
        "traffic",
        format!(
            "{} tenants x 1 connection, closed loop, {} dockets in flight each, {DOCKET_CLAIMS} claims per \
             docket, {} judge instances",
            fixture.tenants.len(),
            args.workload.in_flight(),
            args.workload.instances()
        ),
    );
    let mut run = Run {
        args,
        fixture,
        sets,
        run_dir: run_dir.clone(),
        key_file,
        origin,
        metrics: BTreeMap::new(),
        meta,
        failures: Vec::new(),
    };
    let outcome = run.execute();
    let _ = std::fs::remove_dir_all(&run_dir);
    run.meta.insert("loadavg_end", loadavg());
    let (attempted, failed) = match outcome {
        Ok(counts) => counts,
        Err(message) => {
            eprintln!("wdtpbench: {message}");
            return ExitCode::FAILURE;
        }
    };
    if let Some((name, _)) = run.expected().iter().find(|(name, _)| !run.metrics.contains_key(name)) {
        eprintln!("wdtpbench: the run did not measure {name}");
        return ExitCode::FAILURE;
    }
    for failure in &run.failures {
        eprintln!("wdtpbench: FAILED: {failure}");
    }
    let correct = run.failures.is_empty() && failed == 0;
    println!("{}", run.meta_line());
    println!(
        "{}",
        run.result_line(correct, attempted, failed + run.failures.len() as u64)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn read(name: &str) -> Value {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|err| panic!("{}: {err}", path.display()));
        serde_json::parse_value_str(&text).unwrap()
    }

    fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
        value
            .as_map()
            .unwrap()
            .iter()
            .find(|(name, _)| name == key)
            .map(|(_, value)| value)
            .unwrap()
    }

    /// `(name, unit)` of every metric BENCHMARK.json lists under `key`.
    fn listed(benchmark: &Value, key: &str) -> Vec<(String, String)> {
        field(benchmark, key)
            .as_seq()
            .unwrap()
            .iter()
            .map(|metric| {
                let text = |key| field(metric, key).as_str().unwrap().to_string();
                (text("name"), text("unit"))
            })
            .collect()
    }

    fn owned(metrics: &[(&str, &str)]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|(name, unit)| (name.to_string(), unit.to_string()))
            .collect()
    }

    fn keys(value: &Value) -> Vec<String> {
        value.as_map().unwrap().iter().map(|(key, _)| key.clone()).collect()
    }

    #[test]
    fn the_printed_metrics_are_the_ones_benchmark_json_and_the_design_record_list() {
        let benchmark = read("../BENCHMARK.json");
        assert_eq!(listed(&benchmark, "end_to_end"), owned(&END_TO_END));
        assert_eq!(listed(&benchmark, "per_layer"), owned(&PER_LAYER));
        let gated: Vec<String> = field(&benchmark, "workloads")
            .as_seq()
            .unwrap()
            .iter()
            .map(|workload| field(workload, "name").as_str().unwrap().to_string())
            .collect();
        // `resident` runs and is traced but is not gated; design.json
        // records why.
        assert_eq!(gated, ["fresh", "routed"]);
        let names: Vec<String> =
            Workload::ALL.iter().map(|workload| workload.name().to_string()).collect();

        let design = read("design.json");
        assert_eq!(keys(field(&design, "workloads")), names);
        // A gated workload's reason lives only in BENCHMARK.json's `why`.
        for name in &names {
            let expected: &[&str] = if gated.contains(name) {
                &["traffic"]
            } else {
                &["traffic", "why"]
            };
            assert_eq!(keys(field(field(&design, "workloads"), name)), expected);
        }
        let e2e: Vec<String> = END_TO_END.iter().map(|(name, _)| name.to_string()).collect();
        assert_eq!(keys(field(&design, "end_to_end")), e2e);
        let layers: Vec<String> = PER_LAYER.iter().map(|(name, _)| name.to_string()).collect();
        assert_eq!(keys(field(&design, "per_layer")), layers);
    }
}
