//! `wire-mixed`: an open loop over TCP against two in-process peers
//! replicating every entry (RF = 2). All requests go to peer 0 at a
//! `low` and then a `high` fixed rate; each is timed from when it was
//! due. Transport, the store and replication do the work; the engine
//! only runs for fresh writes on warm towers and for small FPC batches.

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use act_fpc::{run_stats, FpcStats};
use act_service::protocol::Response;
use act_service::{
    spawn_server, ClusterClient, ClusterConfig, RetryPolicy, ServeConfig, ServeOptions,
    ServerHandle, StoredVerdict,
};
use factbench::openloop::{jittered_due_ns, summarize, window_rates, Record, Summary};
use factbench::stats::{median, quantile, tail_pick};
use factbench::stream::{wire_stream, WireOp};

use crate::population::{Population, FPC_RUNS, POP_ITERS};
use crate::{link_dir, settle_disk, Budget, Ctx, Outcome};

/// Offered rates, requests per second. On a 2-core host the parent
/// sustains about 420/s of this mix under the latency limit (at 450/s
/// the generator's p99 lateness passed 50 ms; at 600/s the queue ran
/// away); `low` is about a quarter of that and `high` two thirds.
pub const RATE_LOW: f64 = 100.0;
pub const RATE_HIGH: f64 = 280.0;

/// A reply later than this after its due time misses the limit.
pub const LATENCY_LIMIT_MS: f64 = 50.0;

/// Pair bring-ups per run; `setup_s` is their median.
const BRING_UPS: usize = 9;

/// Requests of the untimed warm-up the pair serves (at the high rate)
/// before the measured phases: the process's first traffic pays heap
/// growth and first tower loads, which made a pair measured first in a
/// process read up to twice as slow in the tail as one measured later.
const WARMUP: usize = 300;

/// Requests per window of an open-loop phase (a phase runs at least
/// one). A phase is one continuous open loop; its p50 is over every
/// request, its tail the median over windows of each window's tail
/// percentile (p95 at these sizes: p99 would rest on fewer than ten
/// samples).
const LOW_WINDOW: usize = 500;
const HIGH_WINDOW: usize = 999;

/// The closed-loop phase reports the median of its per-window
/// throughputs over windows of this many completions.
const CLOSED_WINDOW: usize = 200;

/// Requests prepared per second of the closed loop: far more than
/// `nproc` callers can send, so the loop runs out of time, not work.
const CLOSED_MAX_RATE: f64 = 20_000.0;

/// The two peers.
pub struct Cluster {
    pub handles: Vec<ServerHandle>,
    pub addrs: Vec<String>,
}

impl Cluster {
    pub fn stop(self) {
        for h in self.handles {
            h.stop();
        }
    }
}

/// A client that sends everything to peer 0 and never retries, so a
/// busy or refused reply is a failed request, not a hidden delay.
pub fn client(addr: &str, seed: u64) -> ClusterClient {
    let policy = RetryPolicy {
        max_attempts: 1,
        ..RetryPolicy::default()
    };
    ClusterClient::with_policy(vec![addr.to_string()], seed, policy)
}

/// Brings the pair up over `dirs` and runs one anti-entropy round on
/// each peer, waiting for both: the timed set-up.
pub fn bring_up(dirs: &[PathBuf]) -> Result<Cluster, String> {
    let listeners: Vec<TcpListener> = dirs
        .iter()
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("bind: {e}"))?;
    let addrs: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.to_string()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("addr: {e}"))?;
    let mut handles = Vec::new();
    for (i, (listener, dir)) in listeners.into_iter().zip(dirs).enumerate() {
        let options = ServeOptions {
            store_dir: Some(dir.clone()),
            config: ServeConfig::default(),
            cluster: Some(ClusterConfig::new(addrs.clone(), i)),
            ..ServeOptions::default()
        };
        handles.push(spawn_server(&options, listener).map_err(|e| format!("spawn peer {i}: {e}"))?);
    }
    let cluster = Cluster { handles, addrs };
    for addr in &cluster.addrs {
        let reply = client(addr, 0).request("{\"op\":\"sync\",\"id\":1}", None);
        match reply {
            Ok(r) if r.ok && r.pulled == Some(0) => {}
            other => return Err(format!("startup sync on {addr}: {other:?}")),
        }
    }
    Ok(cluster)
}

/// One request with its concrete parameters.
#[derive(Clone, Copy, Debug)]
pub enum Prepared {
    Read { pair: usize, iters: usize },
    Write { pair: usize, iters: usize },
    FpcHit { entry: usize },
    FpcMiss { spec: usize, seed: u64 },
    Stats,
}

/// Turns a seeded stream into concrete requests; fresh writes and FPC
/// misses draw from the shared counters so no key repeats in a run.
pub fn prepare(
    pop: &Population,
    ops: &[WireOp],
    writes: &mut usize,
    misses: &mut u64,
) -> Vec<Prepared> {
    ops.iter()
        .map(|op| match *op {
            WireOp::Read(i) => {
                let pair = i % pop.pairs.len();
                Prepared::Read {
                    pair,
                    iters: 1 + i / pop.pairs.len(),
                }
            }
            WireOp::Write(pair) => {
                *writes += 1;
                Prepared::Write {
                    pair,
                    iters: POP_ITERS + *writes,
                }
            }
            WireOp::FpcHit(entry) => Prepared::FpcHit { entry },
            WireOp::FpcMiss(spec) => {
                *misses += 1;
                Prepared::FpcMiss {
                    spec,
                    seed: 1_000_000 + *misses,
                }
            }
            WireOp::Stats => Prepared::Stats,
        })
        .collect()
}

fn verdict_matches(r: &Response, v: &StoredVerdict, source: &str) -> bool {
    r.verdict.as_deref() == Some(v.verdict.as_str())
        && r.iterations == Some(v.iterations)
        && r.witness_len == Some(v.witness.len() as u64)
        && r.authoritative == Some(true)
        && r.source.as_deref() == Some(source)
}

/// Why a request did not count as good.
#[derive(Debug)]
pub enum Miss {
    /// Failed, busy or refused: no answer to check.
    Refused(String),
    /// Answered, but not with what the program computes in-process.
    Wrong(String),
}

/// Sends one request and checks the reply. An FPC miss returns its
/// summary for the after-phase check against `run_stats`.
pub fn execute(
    pop: &Population,
    client: &ClusterClient,
    op: Prepared,
) -> Result<Option<FpcStats>, Miss> {
    let fpc_line = |spec: usize, seed: u64| {
        format!(
            "{{\"op\":\"fpc\",\"id\":1,\"spec\":\"{}\",\"runs\":{FPC_RUNS},\"seed\":{seed}}}",
            pop.fpc_specs[spec].canonical_string()
        )
    };
    let reply = match op {
        Prepared::Read { pair, iters } | Prepared::Write { pair, iters } => {
            let p = &pop.pairs[pair];
            client.solve(&p.text, p.k, iters, false, None)
        }
        Prepared::FpcHit { entry } => {
            let e = &pop.fpc[entry];
            client.request(&fpc_line(e.spec, e.seed), None)
        }
        Prepared::FpcMiss { spec, seed } => client.request(&fpc_line(spec, seed), None),
        Prepared::Stats => client.stats(),
    };
    let r = reply.map_err(|e| Miss::Refused(e.to_string()))?;
    if !r.ok {
        return Err(Miss::Refused(format!("{:?}: {:?}", r.code, r.error)));
    }
    let right = match op {
        Prepared::Read { pair, .. } => verdict_matches(&r, &pop.pairs[pair].expected, "store"),
        Prepared::Write { pair, .. } => verdict_matches(&r, &pop.pairs[pair].expected, "engine"),
        Prepared::FpcHit { entry } => {
            r.source.as_deref() == Some("store") && r.fpc.as_ref() == Some(&pop.fpc[entry].stats)
        }
        Prepared::FpcMiss { .. } => r.source.as_deref() == Some("engine") && r.fpc.is_some(),
        Prepared::Stats => r.stats.is_some(),
    };
    if right {
        Ok(r.fpc.filter(|_| matches!(op, Prepared::FpcMiss { .. })))
    } else {
        Err(Miss::Wrong(format!("{r:?}")))
    }
}

/// A request's result: an FPC miss's summary, or why it was not good.
type Reply = Result<Option<FpcStats>, Miss>;

/// Per-request records, FPC-miss summaries by index, and every request
/// that was not good.
type Offered = (Vec<Record>, Vec<(usize, FpcStats)>, Vec<(usize, Miss)>);

/// Sorts the callers' results by request index into records, FPC-miss
/// summaries and misses.
fn collect(mut all: Vec<(usize, Record, Reply)>) -> Offered {
    all.sort_by_key(|(i, _, _)| *i);
    let mut records = Vec::new();
    let mut fpc = Vec::new();
    let mut missed = Vec::new();
    for (i, r, result) in all {
        records.push(r);
        match result {
            Ok(Some(stats)) => fpc.push((i, stats)),
            Ok(None) => {}
            Err(m) => missed.push((i, m)),
        }
    }
    (records, fpc, missed)
}

/// Offers `ops` at their due times from `threads` generator threads.
fn offer(
    pop: &Population,
    client: &ClusterClient,
    ops: &[Prepared],
    due: &[u64],
    threads: usize,
) -> Offered {
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, Record, Reply)>> = Mutex::new(Vec::new());
    let t0 = Instant::now() + Duration::from_millis(5);
    let ns = |t: Instant| t.saturating_duration_since(t0).as_nanos() as u64;
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= ops.len() {
                        break;
                    }
                    let due = due[i];
                    let due_at = t0 + Duration::from_nanos(due);
                    let now = Instant::now();
                    if due_at > now {
                        std::thread::sleep(due_at - now);
                    }
                    let start = Instant::now();
                    let result = execute(pop, client, ops[i]);
                    let end = Instant::now();
                    let record = Record {
                        due_ns: due,
                        start_ns: ns(start),
                        end_ns: ns(end),
                        ok: result.is_ok(),
                    };
                    mine.push((i, record, result));
                }
                results
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .extend(mine);
            });
        }
    });
    collect(results.into_inner().unwrap_or_else(|e| e.into_inner()))
}

/// Sends `ops` back to back from `threads` callers until `secs` have
/// passed. Callers take requests in order, so the records cover a prefix
/// of `ops`; each is due when it is sent.
fn closed_loop(
    pop: &Population,
    client: &ClusterClient,
    ops: &[Prepared],
    threads: usize,
    secs: f64,
) -> Offered {
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, Record, Reply)>> = Mutex::new(Vec::new());
    let t0 = Instant::now();
    let stop = t0 + Duration::from_secs_f64(secs);
    let ns = |t: Instant| t.duration_since(t0).as_nanos() as u64;
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut mine = Vec::new();
                while Instant::now() < stop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= ops.len() {
                        break;
                    }
                    let start = ns(Instant::now());
                    let result = execute(pop, client, ops[i]);
                    let record = Record {
                        due_ns: start,
                        start_ns: start,
                        end_ns: ns(Instant::now()),
                        ok: result.is_ok(),
                    };
                    mine.push((i, record, result));
                }
                results
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .extend(mine);
            });
        }
    });
    collect(results.into_inner().unwrap_or_else(|e| e.into_inner()))
}

/// The serving counters the mix should move, diffed around a phase.
fn counters() -> [u64; 6] {
    [
        act_service::SERVE_HIT.get(),
        act_service::SERVE_MISS.get(),
        act_service::SERVE_ENGINE_RUNS.get(),
        act_service::SERVE_PEER_REPLICATIONS.get(),
        act_service::SERVE_FPC_HITS.get(),
        act_service::SERVE_FPC_MISSES.get(),
    ]
}

/// How a phase offers its requests.
#[derive(Clone, Copy)]
enum Load {
    /// At `rate` per second, due times fixed in advance, `window`
    /// requests per tail window.
    Open { rate: f64, secs: f64, window: usize },
    /// `nproc` callers back to back for `secs`: the pair's capacity for
    /// the mix, which moves with every server-side cost. Printed, not
    /// gated: a few seconds of host contention cut it by up to half.
    Closed { secs: f64 },
}

struct Phase {
    name: &'static str,
    load: Load,
    /// From the phase start to the last reply.
    elapsed_s: f64,
    summary: Summary,
    tail_label: &'static str,
    tail_ms: f64,
    windows: usize,
    /// Correct replies per second, median over windows (closed loop).
    throughput: f64,
}

pub fn run(ctx: &Ctx, pop: &Population, budget: &Budget) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dirs: Vec<PathBuf> = (0..2).map(|i| ctx.scratch(&format!("peer-{i}"))).collect();
    for d in &dirs {
        link_dir(&pop.dir, d).map_err(|e| format!("peer copy: {e}"))?;
    }
    settle_disk();
    let mut setups = Vec::new();
    let mut cluster = None;
    for i in 0..BRING_UPS {
        let t = Instant::now();
        let c = bring_up(&dirs)?;
        setups.push(t.elapsed().as_secs_f64());
        if i + 1 < BRING_UPS {
            c.stop();
        } else {
            cluster = Some(c);
        }
    }
    let cluster = cluster.expect("at least one bring-up");
    let client = client(&cluster.addrs[0], ctx.seed);
    let mut writes = 0;
    let mut misses = 0;
    let mut phases = Vec::new();
    let before = counters();
    let mut expected = [0u64; 6];
    let open = |rate, secs, window| Load::Open { rate, secs, window };
    for (name, load, salt) in [
        ("warm-up", open(RATE_HIGH, 0.0, WARMUP), 0x05u64),
        ("low", open(RATE_LOW, budget.wire_low, LOW_WINDOW), 0x10),
        ("high", open(RATE_HIGH, budget.wire_high, HIGH_WINDOW), 0x20),
        (
            "closed",
            Load::Closed {
                secs: budget.wire_closed,
            },
            0x40,
        ),
    ] {
        let (len, windows) = match load {
            Load::Open { rate, secs, window } => {
                let windows = ((rate * secs) as usize / window).max(1);
                (windows * window, windows)
            }
            Load::Closed { secs } => ((secs * CLOSED_MAX_RATE) as usize, 0),
        };
        let stream = wire_stream(
            ctx.seed ^ salt,
            len,
            pop.reads(),
            pop.pairs.len(),
            pop.fpc.len(),
            pop.fpc_specs.len(),
        );
        let mut ops = prepare(pop, &stream, &mut writes, &mut misses);
        let (mut records, fpc_misses, missed) = match load {
            Load::Open { rate, .. } => {
                let due = jittered_due_ns(ctx.seed ^ salt, ops.len(), rate);
                offer(pop, &client, &ops, &due, ctx.nproc)
            }
            Load::Closed { secs } => {
                let offered = closed_loop(pop, &client, &ops, ctx.nproc, secs);
                ops.truncate(offered.0.len());
                offered
            }
        };
        // FPC misses: the summary must be the in-process batch.
        for (i, stats) in fpc_misses {
            if let Prepared::FpcMiss { spec, seed } = ops[i] {
                let same = run_stats(&pop.fpc_specs[spec], FPC_RUNS, seed) == stats;
                out.check(same, || {
                    format!("wire-mixed fpc miss {i}: summary differs from run_stats")
                });
                records[i].ok &= same;
            }
        }
        for (i, miss) in &missed {
            match miss {
                Miss::Wrong(reply) => out.check(false, || {
                    format!("wire-mixed {name}: wrong reply to {:?}: {reply}", ops[*i])
                }),
                Miss::Refused(why) => eprintln!("wire-mixed {name}: {:?} failed: {why}", ops[*i]),
            }
        }
        for op in &ops {
            let slot = match op {
                Prepared::Read { .. } => 0,
                Prepared::Write { .. } => 1,
                Prepared::FpcHit { .. } => 4,
                Prepared::FpcMiss { .. } => 5,
                Prepared::Stats => continue,
            };
            expected[slot] += 1;
            if slot == 1 {
                expected[2] += 1;
                expected[3] += 1;
            }
        }
        let summary = summarize(&records, LATENCY_LIMIT_MS);
        let elapsed_s = records.iter().map(|r| r.end_ns).max().unwrap_or(0) as f64 / 1e9;
        out.attempted += summary.attempted as u64;
        out.failed += summary.failed as u64;
        if name == "warm-up" {
            continue;
        }
        let phase = match load {
            Load::Open { window, .. } => {
                let (label, q) = tail_pick(window).ok_or("wire window too short for a tail")?;
                let window_tails: Vec<f64> = summary
                    .latency_ms
                    .chunks(window)
                    .map(|w| quantile(w, q))
                    .collect();
                Phase {
                    name,
                    load,
                    elapsed_s,
                    summary,
                    tail_label: label,
                    tail_ms: median(&window_tails),
                    windows,
                    throughput: 0.0,
                }
            }
            Load::Closed { .. } => {
                let rates = window_rates(&records, CLOSED_WINDOW);
                Phase {
                    name,
                    load,
                    elapsed_s,
                    summary,
                    tail_label: "-",
                    tail_ms: 0.0,
                    windows: rates.len(),
                    throughput: median(&rates),
                }
            }
        };
        phases.push(phase);
    }
    let after = counters();
    let diff: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    out.check(diff == expected, || {
        format!("wire-mixed SERVE_* deltas [hit, miss, engine_runs, replications, fpc_hits, fpc_misses] = {diff:?}, expected {expected:?}")
    });
    cluster.stop();
    out.ungated("wire-mixed.setup_s", median(&setups), "s");
    for p in &phases {
        let s = &p.summary;
        let p50 = quantile(&s.latency_ms, 0.5);
        let Load::Open { rate, .. } = p.load else {
            println!(
                "wire-mixed {}: {} callers attempted={} failed={} samples={} p50_ms={p50:.3} \
                 throughput=median of {} windows of {CLOSED_WINDOW} replies",
                p.name,
                ctx.nproc,
                s.attempted,
                s.failed,
                s.latency_ms.len(),
                p.windows
            );
            out.ungated(
                &format!("wire-mixed.{}.throughput_per_s", p.name),
                p.throughput,
                "1/s",
            );
            continue;
        };
        let late_p99 = quantile(&s.late_ms, 0.99);
        println!(
            "wire-mixed {}: rate={rate}/s attempted={} failed={} samples={} tail=median of {} window {}s \
             late_p99_ms={late_p99:.3} good={} valid={}{}",
            p.name,
            s.attempted,
            s.failed,
            s.latency_ms.len(),
            p.windows,
            p.tail_label,
            s.good,
            s.valid,
            if s.valid { "" } else { " (INVALID: the generator fell behind the latency limit)" }
        );
        out.ungated(&format!("wire-mixed.{}.p50_ms", p.name), p50, "ms");
        out.ungated(&format!("wire-mixed.{}.tail_ms", p.name), p.tail_ms, "ms");
        if p.name == "high" {
            out.metric(
                "wire-mixed.high.goodput_per_s",
                s.good as f64 / p.elapsed_s,
                "1/s",
            );
        }
    }
    println!(
        "wire-mixed: SERVE_* deltas {diff:?}, setup median of {} bring-ups",
        setups.len()
    );
    Ok(out)
}
