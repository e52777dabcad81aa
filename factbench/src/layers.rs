//! The traced run: every layer timed from the benchmark's own code,
//! around a call into the layer's public function, with spans kept in
//! memory and written to `.factbench_out/` at the end.
//!
//! Each workload is replayed on fresh copies of its state: once through
//! the real path untraced (the end-to-end time), then four times
//! decomposed into the layer calls that path makes, each under a span of
//! the request's root span, with the tracer off, on, on and off (so a
//! steady drift across the rounds cancels). `coverage` is the summed
//! layer self time over the end-to-end time; `trace_overhead` is the
//! mean traced decomposed replay time over the mean untraced one, minus
//! one; `decomposition_gap` is the mean untraced decomposed replay time
//! over the end-to-end time, minus one.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use act_campaign::{
    check_all, default_invariants, run_campaign_in, run_fpc_campaign, CampaignContext,
    MonotonicityGuard, RunRecord, INVARIANT_LIVENESS,
};
use act_fpc::{derive_seed, run_stats, simulate_run, FpcSpec};
use act_runtime::{run_adversarial, run_adversarial_with_faults, FaultPlan, RunOutcome};
use act_service::{
    cluster::Cluster, ClusterConfig, FpcCache, Scheduler, ServeConfig, Served, SolveQuery,
    StoreKey, StoredVerdict, TowerKey, TowerStore, VerdictStore,
};
use act_tasks::{find_carried_map_with_stats, SearchConfig};
use act_topology::{ColorSet, Complex};
use fact::{
    set_consensus_verdict_with_config, AlgorithmOneSystem, DomainCache, ModelSpec, Solvability,
    TaskSpec, TowerPersistence,
};
use factbench::spans::{self_time_by_name, Tracer};
use factbench::stats::median;
use factbench::stream::{permutation, splitmix64, wire_stream};
use rand::SeedableRng;

use crate::campaign::{self, ADV_MODEL, FPC_MODEL};
use crate::population::{submit_wait, Population, FPC_RUNS};
use crate::solve_cold::{pool, Query};
use crate::wire::{self, Prepared};
use crate::{link_dir, ms_since, Ctx, Outcome};

/// Map-search node budget (the scheduler's default).
const MAX_NODES: usize = 5_000_000;

/// The campaign defaults: scheduler step bound and fault rate (%).
const MAX_STEPS: usize = 500_000;
const FAULT_RATE: u8 = 25;

/// Requests of the wire stream replayed in the traced run.
const WIRE_REQUESTS: usize = 600;

/// Runs per campaign op in the traced replay (one worker).
const TRACE_ADV_RUNS: u64 = 20_000;
const TRACE_FPC_RUNS: u64 = 10_000;

/// One logged tower-store call: layer name, start, end, and the level's
/// key for stores.
type TowerCall = (&'static str, Instant, Instant, Option<TowerKey>);

/// A tower store that logs how long each load and store took, so the
/// spans nest under the `tower.build` that triggered them. Off, it only
/// passes the calls through, like the tracer it serves.
struct Recording {
    inner: TowerStore,
    on: bool,
    log: Mutex<Vec<TowerCall>>,
}

impl Recording {
    fn push(&self, call: TowerCall) {
        if self.on {
            self.log.lock().expect("tower log lock").push(call);
        }
    }
}

impl TowerPersistence for Recording {
    fn load_level(&self, affine_hash: u128, inputs_hash: u128, level: usize) -> Option<Complex> {
        let t = Instant::now();
        let c = self.inner.load_level(affine_hash, inputs_hash, level);
        self.push(("tower.load", t, Instant::now(), None));
        c
    }

    fn store_level(&self, affine_hash: u128, inputs_hash: u128, level: usize, domain: &Complex) {
        let t = Instant::now();
        self.inner
            .store_level(affine_hash, inputs_hash, level, domain);
        let key = TowerKey {
            affine_hash,
            inputs_hash,
            level: level as u32,
        };
        self.push(("tower.persist", t, Instant::now(), Some(key)));
    }
}

/// The median of `reps` timings of `f`, in milliseconds.
fn time_ms(reps: usize, mut f: impl FnMut(usize)) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|i| {
            let t = Instant::now();
            f(i);
            ms_since(t)
        })
        .collect();
    median(&v)
}

/// A workload's end-to-end and decomposed replay times (ms): the real
/// path untraced, and the decomposed replay under an off and under a
/// recording tracer.
struct Replays {
    real_ms: f64,
    off_ms: f64,
    on_ms: f64,
}

/// Runs a decomposed replay four times, each on fresh state named by its
/// round: untraced, traced, traced, untraced, so a steady drift across
/// the rounds cancels out of the comparison. Returns the mean untraced
/// and traced times (ms), the first traced round's tracer, and every
/// round's own result in round order.
fn off_on_on_off<T>(
    mut replay: impl FnMut(&mut Tracer, usize) -> Result<(f64, T), String>,
) -> Result<(f64, f64, Tracer, Vec<T>), String> {
    let (mut off_ms, mut on_ms) = (0.0, 0.0);
    let mut kept = None;
    let mut results = Vec::new();
    for (round, traced) in [false, true, true, false].into_iter().enumerate() {
        let mut tracer = if traced {
            Tracer::default()
        } else {
            Tracer::off()
        };
        let (ms, result) = replay(&mut tracer, round)?;
        if traced {
            on_ms += ms / 2.0;
            kept.get_or_insert(tracer);
        } else {
            off_ms += ms / 2.0;
        }
        results.push(result);
    }
    Ok((off_ms, on_ms, kept.expect("a traced round"), results))
}

/// A workload's coverage, tracing overhead and decomposition gap from
/// its spans and replay times.
fn coverage(out: &mut Outcome, part: &str, tracer: &Tracer, times: &Replays, gap: &str) {
    let by_name = self_time_by_name(&tracer.spans);
    let layer_ms: f64 = by_name
        .iter()
        .filter(|(n, _)| *n != "request")
        .map(|(_, t)| *t as f64 / 1e6)
        .sum();
    let e2e_ms = times.real_ms;
    let cov = layer_ms / e2e_ms;
    let shares: Vec<String> = by_name
        .iter()
        .map(|(n, t)| format!("{n}={:.3}", *t as f64 / 1e6 / e2e_ms))
        .collect();
    println!(
        "{part} trace: self-time shares of end to end: {}",
        shares.join(" ")
    );
    println!(
        "{part} trace: real {e2e_ms:.1} ms, decomposed replay {:.1} ms untraced, {:.1} ms traced",
        times.off_ms, times.on_ms
    );
    if cov < 0.9 {
        println!(
            "{part} trace: coverage {cov:.3} < 0.9 — named gap {:.3} of end to end: {gap}",
            1.0 - cov
        );
    }
    out.metric(&format!("{part}.coverage"), cov, "ratio");
    out.metric(
        &format!("{part}.trace_overhead"),
        times.on_ms / times.off_ms - 1.0,
        "ratio",
    );
    out.metric(
        &format!("{part}.decomposition_gap"),
        times.off_ms / e2e_ms - 1.0,
        "ratio",
    );
    let dir = Path::new(".factbench_out");
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(
            dir.join(format!("trace-{part}.jsonl")),
            tracer.to_json_lines(),
        );
    }
}

fn query_of(q: &Query) -> SolveQuery {
    SolveQuery {
        model: q.model.clone(),
        task: q.task.clone(),
        iters: q.iters,
        deadline_ms: None,
    }
}

/// A decomposed solve-cold replay's time (ms), each query's time and
/// verdict, and the tower store's log.
type SolveReplay = (f64, Vec<f64>, Vec<Option<StoredVerdict>>, Vec<TowerCall>);

/// The `solve-cold` queries decomposed over a fresh copy of the
/// population: store get → affine compile → tower build (with tower
/// loads and persists inside) → search → store put, deepening like the
/// scheduler.
fn solve_replay(
    dir: &Path,
    pool: &[Query],
    order: &[usize],
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<SolveReplay, String> {
    let store = VerdictStore::open(dir).map_err(|e| e.to_string())?;
    let recording = Arc::new(Recording {
        inner: TowerStore::open(dir).map_err(|e| e.to_string())?,
        on: tracer.is_on(),
        log: Mutex::new(Vec::new()),
    });
    let config = SearchConfig::new(MAX_NODES);
    let mut times = Vec::new();
    let mut verdicts = Vec::new();
    let replay = Instant::now();
    for (n, &i) in order.iter().enumerate() {
        let q = &pool[i];
        let req = n as u64;
        let key = StoreKey::new(&q.model, &q.task, q.iters);
        let task = q.task.task();
        let inputs = task.rainbow_inputs();
        let started = Instant::now();
        tracer.enter("request", req);
        let hit = tracer.span("store.get", req, || store.get(&key));
        out.check(hit.is_none(), || {
            format!("traced solve-cold {}: store hit", q.text)
        });
        let affine = tracer.span("affine.compile", req, || {
            act_affine::fair_affine_task(&q.model.agreement_function())
        });
        let mut cache = DomainCache::new()
            .with_persistence(Arc::clone(&recording) as Arc<dyn TowerPersistence>);
        let mut verdict = None;
        for level in 1..=q.iters {
            let t = Instant::now();
            tracer.enter("tower.build", req);
            cache.domain(&affine, &inputs, level);
            if tracer.is_on() {
                for (name, s, e, _) in recording
                    .log
                    .lock()
                    .expect("tower log lock")
                    .iter()
                    .filter(|l| l.1 >= t)
                {
                    tracer.record(name, req, *s, *e);
                }
            }
            tracer.exit();
            let v = tracer.span("search", req, || {
                set_consensus_verdict_with_config(&mut cache, &task, &affine, level, &config)
            });
            let deeper = matches!(v, Solvability::NoMapUpTo { .. });
            verdict = Some(v);
            if !deeper {
                break;
            }
        }
        let stored = verdict.as_ref().and_then(StoredVerdict::from_solvability);
        if let Some(s) = &stored {
            tracer.span("store.put", req, || store.put(&key, s));
        }
        tracer.exit();
        times.push(ms_since(started));
        verdicts.push(stored);
    }
    let replay_ms = ms_since(replay);
    let log = std::mem::take(&mut *recording.log.lock().expect("tower log lock"));
    Ok((replay_ms, times, verdicts, log))
}

/// `solve-cold`, replayed: scheduler round trips, then the same queries
/// decomposed in four untraced and traced rounds, each over a fresh copy.
fn solve_cold(ctx: &Ctx, pop: &Population, out: &mut Outcome) -> Result<(), String> {
    let pool = pool()?;
    let order = permutation(ctx.seed, pool.len());
    let dir = |tag: &str| -> Result<std::path::PathBuf, String> {
        let d = ctx.scratch(&format!("trace-solve-{tag}"));
        link_dir(&pop.dir, &d).map_err(|e| e.to_string())?;
        Ok(d)
    };
    let real_dir = dir("real")?;
    let round_dirs: Vec<_> = (0..4)
        .map(|r| dir(&format!("r{r}")))
        .collect::<Result<_, _>>()?;
    crate::settle_disk();

    let sched = Scheduler::new(
        Arc::new(VerdictStore::open(&real_dir).map_err(|e| e.to_string())?),
        ServeConfig::default(),
    );
    sched.start_workers();
    let mut real = Vec::new();
    let mut real_verdicts = Vec::new();
    for &i in &order {
        let t = Instant::now();
        let served = submit_wait(&sched, query_of(&pool[i]));
        real.push(ms_since(t));
        real_verdicts.push(match served {
            Served::Authoritative { verdict, .. } => Some(verdict),
            _ => None,
        });
    }
    sched.drain();
    out.attempted += 5 * order.len() as u64;

    let (off_ms, on_ms, tracer, rounds) = off_on_on_off(|tracer, round| {
        let (ms, times, verdicts, log) =
            solve_replay(&round_dirs[round], &pool, &order, tracer, out)?;
        Ok((ms, (times, verdicts, log)))
    })?;
    // Witnesses may be numbered differently (tower built or loaded);
    // the verdict and its depth must agree.
    let name = |v: &Option<StoredVerdict>| v.as_ref().map(|v| (v.verdict.clone(), v.iterations));
    for (n, &i) in order.iter().enumerate() {
        let agree = real_verdicts[n].is_some()
            && rounds
                .iter()
                .all(|(_, verdicts, _)| name(&verdicts[n]) == name(&real_verdicts[n]));
        out.check(agree, || {
            format!(
                "traced solve-cold {}: decomposed verdict differs from the scheduler's",
                pool[i].text
            )
        });
    }
    // Rounds 0 and 3 are untraced; round 1 traced, with the tower log.
    let overhead: Vec<f64> = (0..order.len())
        .map(|n| real[n] - (rounds[0].0[n] + rounds[3].0[n]) / 2.0)
        .collect();
    let log = &rounds[1].2;
    let persists: Vec<f64> = log
        .iter()
        .filter(|l| l.0 == "tower.persist")
        .map(|l| l.2.duration_since(l.1).as_secs_f64() * 1e3)
        .collect();
    let keys: Vec<TowerKey> = log.iter().filter_map(|l| l.3).take(8).collect();
    let towers = TowerStore::open(&round_dirs[1]).map_err(|e| e.to_string())?;
    let loads = time_ms(keys.len(), |i| {
        assert!(
            towers.load(&keys[i]).is_some(),
            "persisted tower level loads"
        );
    });
    out.metric("tower.persist_ms", median(&persists), "ms");
    out.metric("tower.load_ms", loads, "ms");
    out.metric("scheduler.overhead_ms", median(&overhead), "ms");
    let times = Replays {
        real_ms: real.iter().sum(),
        off_ms,
        on_ms,
    };
    coverage(
        out,
        "solve-cold",
        &tracer,
        &times,
        "scheduler hand-off (queue, worker wake-up, tower slot) outside the layer calls",
    );
    Ok(())
}

/// A round trip the server answers at parse time (an unknown op): the
/// transport floor — connect, accept, framing, reply — with no store,
/// engine or stats work behind it.
fn floor_rtt(client: &act_service::ClusterClient) {
    let reply = client.request("{\"op\":\"nop\",\"id\":1}", None);
    assert!(
        matches!(reply, Err(act_service::ClientError::Usage(_))),
        "an unknown op is refused at parse time"
    );
}

/// The wire requests decomposed on a fresh pair: a transport-floor
/// round trip plus the in-process call the server makes. Returns the
/// replay's time in ms.
fn wire_replay(
    ctx: &Ctx,
    pop: &Population,
    ops: &[Prepared],
    tag: &str,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<f64, String> {
    let dec = wire_pair(ctx, pop, tag)?;
    let client = wire::client(&dec.addrs[0], ctx.seed);
    let sched = dec.handles[0].scheduler();
    let fpc =
        FpcCache::open(&ctx.scratch(&format!("trace-wire-{tag}-0"))).map_err(|e| e.to_string())?;
    let replay = Instant::now();
    for (n, op) in ops.iter().enumerate() {
        let req = n as u64;
        tracer.enter("request", req);
        tracer.span("transport", req, || floor_rtt(&client));
        let ok = match *op {
            Prepared::Read { pair, iters } | Prepared::Write { pair, iters } => {
                let p = &pop.pairs[pair];
                let q = SolveQuery {
                    model: p.model.clone(),
                    task: p.task.clone(),
                    iters,
                    deadline_ms: None,
                };
                let served = tracer.span("scheduler.submit", req, || submit_wait(sched, q));
                matches!(served, Served::Authoritative { ref verdict, .. }
                    if (&verdict.verdict, verdict.iterations, verdict.witness.len())
                        == (&p.expected.verdict, p.expected.iterations, p.expected.witness.len()))
            }
            Prepared::FpcHit { entry } => {
                let e = &pop.fpc[entry];
                let (s, _) = tracer.span("fpc.cache", req, || {
                    fpc.summary(&pop.fpc_specs[e.spec], FPC_RUNS, e.seed)
                });
                s == e.stats
            }
            Prepared::FpcMiss { spec, seed } => {
                tracer.span("fpc.cache", req, || {
                    fpc.summary(&pop.fpc_specs[spec], FPC_RUNS, seed)
                });
                true
            }
            Prepared::Stats => {
                tracer.span("scheduler.stats", req, || sched.stats_snapshot());
                true
            }
        };
        tracer.exit();
        out.check(ok, || {
            format!("traced wire {op:?}: decomposed answer differs")
        });
    }
    let replay_ms = ms_since(replay);
    dec.stop();
    Ok(replay_ms)
}

/// A pair brought up over fresh copies of the population.
fn wire_pair(ctx: &Ctx, pop: &Population, tag: &str) -> Result<wire::Cluster, String> {
    let dirs: Vec<_> = (0..2)
        .map(|i| ctx.scratch(&format!("trace-wire-{tag}-{i}")))
        .collect();
    for d in &dirs {
        link_dir(&pop.dir, d).map_err(|e| e.to_string())?;
    }
    wire::bring_up(&dirs)
}

/// `wire-mixed`, replayed closed-loop: wire round trips on one pair,
/// then the same requests decomposed in four untraced and traced rounds,
/// each on a fresh pair.
fn wire_mixed(ctx: &Ctx, pop: &Population, out: &mut Outcome) -> Result<(), String> {
    let stream = wire_stream(
        ctx.seed ^ 0x30,
        WIRE_REQUESTS,
        pop.reads(),
        pop.pairs.len(),
        pop.fpc.len(),
        pop.fpc_specs.len(),
    );
    let (mut writes, mut misses) = (0, 0);
    let ops = wire::prepare(pop, &stream, &mut writes, &mut misses);

    let real_pair = wire_pair(ctx, pop, "real")?;
    let client = wire::client(&real_pair.addrs[0], ctx.seed);
    let mut real = Vec::new();
    for op in &ops {
        let t = Instant::now();
        let r = wire::execute(pop, &client, *op);
        real.push(ms_since(t));
        out.check(r.is_ok(), || format!("traced wire {op:?}: {r:?}"));
    }
    real_pair.stop();
    out.attempted += 5 * ops.len() as u64;

    let (off_ms, on_ms, tracer, _) = off_on_on_off(|tracer, round| {
        Ok((
            wire_replay(ctx, pop, &ops, &format!("r{round}"), tracer, out)?,
            (),
        ))
    })?;
    let times = Replays {
        real_ms: real.iter().sum(),
        off_ms,
        on_ms,
    };
    coverage(
        out,
        "wire-mixed",
        &tracer,
        &times,
        "request parsing, reply encoding and per-connection thread start beyond a stats round trip",
    );
    Ok(())
}

/// A sampled run's plan, derived from `(seed, index)` exactly as the
/// campaign runner derives it (correct set, crash budgets, scheduler
/// seed, fault plan at the default 25% rate), so the traced replay runs
/// the campaign's own runs.
struct RunPlan {
    correct: ColorSet,
    budgets: Vec<usize>,
    rng_seed: u64,
    fault: Option<FaultPlan>,
}

fn run_plan(ctx: &CampaignContext, seed: u64, index: u64) -> RunPlan {
    let n = ctx.participants.len();
    let mut stream = seed.wrapping_add((index + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let correct_draw = splitmix64(&mut stream);
    let budgets = (0..n)
        .map(|_| (splitmix64(&mut stream) % 4) as usize)
        .collect();
    let rng_seed = splitmix64(&mut stream);
    let fault_draw = splitmix64(&mut stream);
    let fault_seed = splitmix64(&mut stream);
    RunPlan {
        correct: ctx.live_sets[(correct_draw % ctx.live_sets.len() as u64) as usize],
        budgets,
        rng_seed,
        fault: (fault_draw % 100 < u64::from(FAULT_RATE))
            .then(|| FaultPlan::seeded(fault_seed, n, 64)),
    }
}

/// One Algorithm 1 run under the adversarial scheduler, as a campaign
/// executes it.
fn adversarial_run<'a>(
    ctx: &'a CampaignContext,
    plan: &RunPlan,
) -> (RunOutcome, MonotonicityGuard<AlgorithmOneSystem<'a>>) {
    let mut guard = MonotonicityGuard::new(AlgorithmOneSystem::new(&ctx.alpha, ctx.participants));
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(plan.rng_seed);
    let budget = |p: act_topology::ProcessId| plan.budgets[p.index()];
    let outcome = match &plan.fault {
        Some(f) => {
            run_adversarial_with_faults(
                &mut guard,
                ctx.participants,
                plan.correct,
                &mut rng,
                budget,
                MAX_STEPS,
                f,
            )
            .0
        }
        None => run_adversarial(
            &mut guard,
            ctx.participants,
            plan.correct,
            &mut rng,
            budget,
            MAX_STEPS,
        ),
    };
    (outcome, guard)
}

/// The campaign's runs decomposed into bare run and invariant-check
/// calls. Returns the replay's time in ms and the adversarial runs' live
/// and violating counts.
fn campaign_replay(
    adv_ctx: &CampaignContext,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<(f64, u64, u64), String> {
    let spec = FpcSpec::parse(FPC_MODEL)?;
    let invariants = default_invariants();
    let (mut live, mut violations) = (0, 0);
    let replay = Instant::now();
    tracer.enter("request", 0);
    for i in 0..TRACE_ADV_RUNS {
        let plan = run_plan(adv_ctx, seed, i);
        let (outcome, guard) = tracer.span("runtime.run", 0, || adversarial_run(adv_ctx, &plan));
        let outputs = guard.inner().outputs();
        let record = RunRecord {
            outcome: &outcome,
            participants: adv_ctx.participants,
            truncated_by_depth: false,
            monotonicity_ok: guard.ok(),
            outputs: &outputs,
            fault_plan: plan.fault.as_ref(),
            max_steps: MAX_STEPS,
        };
        let violated = tracer.span("campaign.invariants", 0, || {
            check_all(&invariants, adv_ctx, &record)
        });
        // Coverage records the decided simplex of every live run.
        if outcome.all_correct_terminated {
            live += 1;
            tracer.span("campaign.coverage", 0, || {
                fact::outputs_to_simplex(adv_ctx.affine.complex(), &outputs).map(|simplex| {
                    act_obs::fnv1a64(0xcbf2_9ce4_8422_2325, format!("{simplex:?}").as_bytes())
                })
            });
        }
        violations += u64::from(!violated.is_empty());
    }
    tracer.exit();
    tracer.enter("request", 1);
    for i in 0..TRACE_FPC_RUNS {
        let run_seed = derive_seed(seed, i);
        let outcome = tracer.span("fpc.sim", 1, || simulate_run(&spec, run_seed, false));
        // The FPC invariants: agreement, monotone finality, and replay
        // (a second simulation must reproduce the fingerprint).
        tracer.span("campaign.invariants", 1, || {
            outcome.agreement_ok
                && outcome.post_finalization_flips == 0
                && simulate_run(&spec, run_seed, false).fingerprint == outcome.fingerprint
        });
    }
    tracer.exit();
    Ok((ms_since(replay), live, violations))
}

/// `campaign`, replayed at one worker: whole campaigns, then the same
/// runs decomposed in four untraced and traced rounds.
fn campaign_trace(ctx: &Ctx, out: &mut Outcome, adv_ctx: &CampaignContext) -> Result<(), String> {
    let seed = campaign::SEEDS[(ctx.seed % campaign::SEEDS.len() as u64) as usize];
    let dir = ctx.scratch("trace-campaign");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let report = run_campaign_in(
        adv_ctx,
        &campaign::config(ADV_MODEL, TRACE_ADV_RUNS, seed, 1, &dir),
    )?;
    let real_adv = ms_since(t);
    let t = Instant::now();
    run_fpc_campaign(&campaign::config(FPC_MODEL, TRACE_FPC_RUNS, seed, 1, &dir))?;
    let real_fpc = ms_since(t);
    out.attempted += 5 * (TRACE_ADV_RUNS + TRACE_FPC_RUNS);

    let (off_ms, on_ms, tracer, rounds) = off_on_on_off(|tracer, _| {
        let (ms, live, violations) = campaign_replay(adv_ctx, seed, tracer)?;
        Ok((ms, (live, violations)))
    })?;
    let campaign = (report.coverage.live, report.coverage.violations);
    for (live, violations) in rounds {
        out.check((live, violations) == campaign, || {
            format!(
                "traced campaign replay: live/violations {live}/{violations}, campaign {}/{}",
                campaign.0, campaign.1
            )
        });
    }
    let times = Replays {
        real_ms: real_adv + real_fpc,
        off_ms,
        on_ms,
    };
    coverage(
        out,
        "campaign",
        &tracer,
        &times,
        "checkpoint appends, batch settling and per-run plan derivation around the runs",
    );
    Ok(())
}

/// Layer probes around single public calls.
fn probes(
    ctx: &Ctx,
    pop: &Population,
    out: &mut Outcome,
    adv_ctx: &CampaignContext,
) -> Result<(), String> {
    // Affine compile, tower build and search on the campaign's own
    // solver-check query (t-res:4:1, k = 2, ℓ = 1: the search route).
    let compile_models: Vec<ModelSpec> = pool()?.into_iter().map(|q| q.model).collect();
    out.metric(
        "affine.compile_ms",
        time_ms(compile_models.len(), |i| {
            act_affine::fair_affine_task(&compile_models[i].agreement_function());
        }),
        "ms",
    );
    let model = ModelSpec::parse(ADV_MODEL, false)?;
    let task = TaskSpec::set_consensus(4, 2)?.task();
    let affine = act_affine::fair_affine_task(&model.agreement_function());
    let inputs = task.rainbow_inputs();
    let mut facets = 0;
    out.metric(
        "tower.build_ms",
        time_ms(3, |_| {
            facets = DomainCache::new().domain(&affine, &inputs, 1).facet_count()
        }),
        "ms",
    );
    out.metric("tower.facets", facets as f64, "count");
    let mut cache = DomainCache::new();
    let domain = cache.domain(&affine, &inputs, 1).clone();
    let config = SearchConfig::new(MAX_NODES);
    out.metric(
        "search.ms",
        time_ms(3, |_| {
            set_consensus_verdict_with_config(&mut cache, &task, &affine, 1, &config);
        }),
        "ms",
    );
    let (result, stats) = find_carried_map_with_stats(&task, &domain, MAX_NODES);
    out.check(result.verdict_name() == "found", || {
        "probe search: t-res:4:1 k=2 found no map".into()
    });
    out.metric("search.nodes", stats.nodes as f64, "count");
    out.metric("search.residue_hit_rate", stats.residue_hit_rate(), "ratio");

    // The verdict store over the population.
    out.metric(
        "store.open_ms",
        time_ms(3, |_| {
            VerdictStore::open(&pop.dir).expect("open population");
        }),
        "ms",
    );
    let dir = ctx.scratch("probe-store");
    link_dir(&pop.dir, &dir).map_err(|e| e.to_string())?;
    let store = Arc::new(VerdictStore::open(&dir).map_err(|e| e.to_string())?);
    let keys: Vec<StoreKey> = (0..500)
        .map(|i| {
            let (p, iters) = pop.read_key(i * 7 % pop.reads());
            StoreKey::new(&p.model, &p.task, iters)
        })
        .collect();
    let get_us = |store: &VerdictStore| {
        1e3 * time_ms(keys.len(), |i| {
            assert!(store.get(&keys[i]).is_some(), "population key present");
        })
    };
    out.metric("store.get_disk_us", get_us(&store), "us");
    out.metric("store.get_mem_us", get_us(&store), "us");
    let p = &pop.pairs[0];
    out.metric(
        "store.put_ms",
        time_ms(200, |i| {
            store.put(&StoreKey::new(&p.model, &p.task, 10_000 + i), &p.expected);
        }),
        "ms",
    );
    let sched = Scheduler::new(Arc::clone(&store), ServeConfig::default());
    let hit_us = 1e3
        * time_ms(keys.len(), |i| {
            let (pair, iters) = pop.read_key(i * 7 % pop.reads());
            let q = SolveQuery {
                model: pair.model.clone(),
                task: pair.task.clone(),
                iters,
                deadline_ms: None,
            };
            assert!(
                matches!(sched.submit(q), act_service::Submitted::Ready(_)),
                "warm key is a hit"
            );
        });
    out.metric("scheduler.submit_hit_us", hit_us, "us");

    // Transport and replication on a live pair.
    let dirs: Vec<_> = (0..2)
        .map(|i| ctx.scratch(&format!("probe-peer-{i}")))
        .collect();
    for d in &dirs {
        link_dir(&pop.dir, d).map_err(|e| e.to_string())?;
    }
    let pair = wire::bring_up(&dirs)?;
    let client = wire::client(&pair.addrs[0], ctx.seed);
    // `stats` recomputes the store's Merkle root, so its round trip is
    // not the transport floor; the floor is a request refused at parse.
    out.metric(
        "transport.stats_rtt_ms",
        time_ms(200, |_| assert!(client.stats().is_ok(), "stats")),
        "ms",
    );
    out.metric(
        "transport.floor_rtt_ms",
        time_ms(200, |_| floor_rtt(&client)),
        "ms",
    );
    let warm: Vec<(usize, usize)> = (0..200)
        .map(|i| (i % pop.pairs.len(), 1 + i / pop.pairs.len()))
        .collect();
    let solve = |i: usize| {
        let p = &pop.pairs[warm[i].0];
        assert!(
            client.solve(&p.text, p.k, warm[i].1, false, None).is_ok(),
            "warm read"
        );
    };
    (0..warm.len()).for_each(solve);
    let rtt = time_ms(warm.len(), solve);
    let peer0 = pair.handles[0].scheduler();
    let submit = time_ms(warm.len(), |i| {
        let p = &pop.pairs[warm[i].0];
        let q = SolveQuery {
            model: p.model.clone(),
            task: p.task.clone(),
            iters: warm[i].1,
            deadline_ms: None,
        };
        submit_wait(peer0, q);
    });
    out.metric("transport.share", (rtt - submit) / rtt, "ratio");
    let mut config = ClusterConfig::new(pair.addrs.clone(), 0);
    config.replication = 2;
    let cluster = Cluster::new(config);
    let rep_store =
        VerdictStore::open(&ctx.scratch("probe-replicate")).map_err(|e| e.to_string())?;
    let rep_keys: Vec<StoreKey> = (0..50)
        .map(|i| StoreKey::new(&p.model, &p.task, 20_000 + i))
        .collect();
    for k in &rep_keys {
        rep_store.put(k, &p.expected);
    }
    let peer1 = pair.handles[1].scheduler().store();
    out.metric(
        "cluster.replicate_ms",
        time_ms(rep_keys.len(), |i| {
            cluster.replicate(&rep_store, rep_keys[i].content_hash())
        }),
        "ms",
    );
    out.check(rep_keys.iter().all(|k| peer1.get(k).is_some()), || {
        "replicated entries missing on peer 1".into()
    });
    pair.stop();

    // FPC cache and batch.
    let fpc = FpcCache::open(&pop.dir).map_err(|e| e.to_string())?;
    let e = &pop.fpc[0];
    let spec = &pop.fpc_specs[e.spec];
    fpc.get(spec, FPC_RUNS, e.seed);
    out.metric(
        "fpc.cache_get_us",
        1e3 * time_ms(500, |_| {
            assert!(fpc.get(spec, FPC_RUNS, e.seed).is_some(), "cached summary")
        }),
        "us",
    );
    out.metric(
        "fpc.batch_ms",
        time_ms(10, |i| {
            run_stats(spec, FPC_RUNS, 5_000_000 + i as u64);
        }),
        "ms",
    );

    // Runtime and simulator, one run at a time.
    out.metric(
        "runtime.run_us",
        1e3 * time_ms(2000, |i| {
            adversarial_run(adv_ctx, &run_plan(adv_ctx, 0xFAC7, i as u64));
        }),
        "us",
    );
    let fpc_spec = FpcSpec::parse(FPC_MODEL)?;
    out.metric(
        "fpc.sim_us",
        1e3 * time_ms(2000, |i| {
            simulate_run(&fpc_spec, derive_seed(7, i as u64), false);
        }),
        "us",
    );

    // Campaign shares and worker scaling.
    let cdir = ctx.scratch("probe-campaign");
    std::fs::create_dir_all(&cdir).map_err(|e| e.to_string())?;
    let adv_run = |workers: usize, checkpoint: bool, minimal: bool| -> Result<f64, String> {
        let mut c = campaign::config(ADV_MODEL, 50_000, 0xFAC7, workers, &cdir);
        if let Some(path) = &c.checkpoint {
            let _ = std::fs::remove_file(path);
        }
        if !checkpoint {
            c.checkpoint = None;
        }
        if minimal {
            c.invariants = Some(vec![INVARIANT_LIVENESS.to_string()]);
        }
        let t = Instant::now();
        run_campaign_in(adv_ctx, &c)?;
        Ok(ms_since(t))
    };
    let n = ctx.nproc;
    let all = adv_run(n, true, false)?;
    let minimal = adv_run(n, true, true)?;
    let bare = adv_run(n, false, false)?;
    out.metric("campaign.invariants_share", (all - minimal) / all, "ratio");
    out.metric("campaign.checkpoint_share", (all - bare) / all, "ratio");
    let one = adv_run(1, true, false)?;
    out.metric(
        "campaign.worker_efficiency.adv",
        one / (n as f64 * all),
        "ratio",
    );
    let fpc_run = |workers: usize| -> Result<f64, String> {
        let c = campaign::config(FPC_MODEL, 10_000, 0xFAC7, workers, &cdir);
        if let Some(path) = &c.checkpoint {
            let _ = std::fs::remove_file(path);
        }
        let t = Instant::now();
        run_fpc_campaign(&c)?;
        Ok(ms_since(t))
    };
    let fpc_one = fpc_run(1)?;
    let fpc_n = fpc_run(n)?;
    out.metric(
        "campaign.worker_efficiency.fpc",
        fpc_one / (n as f64 * fpc_n),
        "ratio",
    );
    let mut ok = true;
    out.metric(
        "campaign.context_ms",
        time_ms(3, |_| ok &= CampaignContext::new(ADV_MODEL, true).is_ok()),
        "ms",
    );
    out.check(ok, || "campaign context failed".into());
    Ok(())
}

pub fn traced(ctx: &Ctx, pop: &Population) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let adv_ctx = CampaignContext::new(ADV_MODEL, true)?;
    probes(ctx, pop, &mut out, &adv_ctx)?;
    solve_cold(ctx, pop, &mut out)?;
    wire_mixed(ctx, pop, &mut out)?;
    campaign_trace(ctx, &mut out, &adv_ctx)?;
    Ok(out)
}
