//! `solve-cold`: one caller in a closed loop submits distinct cold
//! queries to an in-process scheduler opened over a scratch copy of the
//! population store. Every query misses the verdict store and builds
//! its own tower, so subdivision, constraint tables and search do the
//! work; transport does none.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use act_service::{
    Scheduler, ServeConfig, Served, SolveQuery, StoredVerdict, TowerStore, VerdictStore,
};
use fact::{DomainCache, ModelSpec, TaskSpec};
use factbench::stats::{median, quantile, tail_pick, with_failures};
use factbench::stream::permutation;

use crate::population::{setcon, submit_wait, witness_verifies, Population};
use crate::{link_dir, ms_since, settle_disk, Ctx, Outcome};

/// Full passes over the pool every run makes, whatever `--seconds`.
pub const MIN_PASSES: usize = 3;

/// Scheduler opens timed per pass (`setup_s` is their median).
const OPENS_PER_PASS: usize = 3;

/// One pool query.
pub struct Query {
    pub model: ModelSpec,
    pub task: TaskSpec,
    pub text: String,
    pub k: usize,
    pub iters: usize,
}

/// `n = 4` models asked at `ℓ = 1` and `n = 3` models asked at `ℓ = 2`
/// where the query really deepens (the cheap `n = 3` keys that stop at
/// `ℓ = 1` are the population's), for every `k` whose cold CLI solve
/// takes 50–280 ms on a 2-core host. Excluded, with that cost:
/// `wait-free:4` k = 2 and `k-of:4:3`, `alpha-kconc:4:3` at k = 2, 3
/// (each over 20 s; `k-of:4:3` k = 3 exhausts the 5M-node budget after
/// ~56 s); at k = 3 `t-res:4:1` (465 ms), `t-res:4:2` (705 ms),
/// `k-of:4:2` (623 ms), `alpha-kconc:4:2` (596 ms) and the four customs
/// (375–545 ms); `t-res:4:2` k = 2 (328 ms).
const POOL: [(&str, &[usize], usize); 18] = [
    ("wait-free:4", &[1, 3], 1),
    // The same adversary spelled differently: it shares the tower.
    ("k-of:4:4", &[1, 3], 1),
    ("t-res:4:0", &[1, 2, 3], 1),
    ("t-res:4:1", &[1, 2], 1),
    ("t-res:4:2", &[1], 1),
    ("k-of:4:1", &[1, 2, 3], 1),
    ("k-of:4:2", &[1, 2], 1),
    ("k-of:4:3", &[1], 1),
    ("alpha-kconc:4:1", &[1, 2, 3], 1),
    ("alpha-kconc:4:2", &[1, 2], 1),
    ("alpha-kconc:4:3", &[1], 1),
    // Two custom adversaries, each with a color-permuted copy that
    // shares its canonical tower.
    ("custom:4:{p1,p2};{p3,p4}", &[1, 2], 1),
    ("custom:4:{p1,p3};{p2,p4}", &[1, 2], 1),
    ("custom:4:{p1};{p2,p3,p4}", &[1, 2], 1),
    ("custom:4:{p4};{p1,p2,p3}", &[1, 2], 1),
    ("wait-free:3", &[1, 2], 2),
    ("k-of:3:2", &[1], 2),
    ("alpha-kconc:3:2", &[1], 2),
];

/// `fig5b` at k = 1 deepens to `ℓ = 2` too.
const FIG5B: (&str, usize, usize) = ("fig5b", 1, 2);

pub fn pool() -> Result<Vec<Query>, String> {
    let mut out = Vec::new();
    let entries = POOL
        .iter()
        .flat_map(|&(text, ks, iters)| ks.iter().map(move |&k| (text, k, iters)))
        .chain([FIG5B]);
    for (text, k, iters) in entries {
        let model = ModelSpec::parse(text, true)?;
        let task = TaskSpec::set_consensus(model.num_processes(), k)?;
        out.push(Query {
            text: model.canonical_string(),
            model,
            task,
            k,
            iters,
        });
    }
    Ok(out)
}

/// The oracle check of one verdict: `k ≥ setcon(A)` must be solvable;
/// `no-map` only where `k < setcon(A)`. (Below `setcon` the rainbow
/// instance the engine decides may still be solvable — a restriction of
/// the full task — and then its witness must verify.)
pub fn oracle_holds(q: &Query, v: &StoredVerdict) -> bool {
    let power = setcon(&q.model);
    match v.verdict.as_str() {
        "solvable" => true,
        "no-map" => q.k < power,
        _ => false,
    }
}

pub fn run(ctx: &Ctx, pop: &Population, seconds: f64) -> Result<Outcome, String> {
    let pool = pool()?;
    let mut out = Outcome::default();
    let mut samples: Vec<Option<f64>> = Vec::new();
    let mut setups = Vec::new();
    let mut busy_ms = 0.0;
    let mut first: HashMap<usize, (String, u64)> = HashMap::new();
    let mut verified: HashSet<(usize, Vec<(u64, u64)>)> = HashSet::new();
    let started = Instant::now();
    let mut last_pass_s = 0.0;
    let mut pass = 0;
    while pass < MIN_PASSES || started.elapsed().as_secs_f64() + last_pass_s <= seconds {
        let pass_started = Instant::now();
        let dir = ctx.scratch(&format!("solve-cold-{pass}"));
        link_dir(&pop.dir, &dir).map_err(|e| format!("scratch copy: {e}"))?;
        settle_disk();
        let copy_s = pass_started.elapsed().as_secs_f64();
        // Set-up is sampled OPENS_PER_PASS times over the same copy; the
        // last scheduler serves the pass.
        let mut opened: Option<Arc<Scheduler>> = None;
        for _ in 0..OPENS_PER_PASS {
            if let Some(previous) = opened.take() {
                previous.drain();
            }
            let t = Instant::now();
            let store = VerdictStore::open(&dir).map_err(|e| format!("open scratch store: {e}"))?;
            let sched = Scheduler::new(Arc::new(store), ServeConfig::default());
            sched.start_workers();
            setups.push(t.elapsed().as_secs_f64());
            opened = Some(sched);
        }
        let sched = opened.expect("at least one open");
        let towers: Arc<dyn fact::TowerPersistence> =
            Arc::new(TowerStore::open(&dir).map_err(|e| format!("tower store: {e}"))?);
        let mut verify_cache = DomainCache::new().with_persistence(towers);
        for i in permutation(ctx.seed.wrapping_add(pass as u64), pool.len()) {
            let q = &pool[i];
            let t = Instant::now();
            let served = submit_wait(
                &sched,
                SolveQuery {
                    model: q.model.clone(),
                    task: q.task.clone(),
                    iters: q.iters,
                    deadline_ms: None,
                },
            );
            let lat = ms_since(t);
            busy_ms += lat;
            out.attempted += 1;
            let ok = match &served {
                Served::Authoritative { verdict, source } => {
                    let label = || format!("solve-cold {} k={} iters={}", q.text, q.k, q.iters);
                    let mut ok = *source == "engine";
                    out.check(ok, || {
                        format!("{}: answered from {source}, not cold", label())
                    });
                    let fits = oracle_holds(q, verdict);
                    out.check(fits, || {
                        format!(
                            "{}: {} contradicts setcon {}",
                            label(),
                            verdict.verdict,
                            setcon(&q.model)
                        )
                    });
                    ok &= fits;
                    // A witness may differ between passes (a tower loaded in
                    // its canonical frame numbers vertices differently from
                    // one built in place), so each new witness is verified
                    // on the domain it was found on; the verdict itself must
                    // not change.
                    if !verified.contains(&(i, verdict.witness.clone())) {
                        let verifies =
                            witness_verifies(&q.model, &q.task, verdict, &mut verify_cache);
                        out.check(verifies, || {
                            format!("{}: witness is not a carried map", label())
                        });
                        ok &= verifies;
                        verified.insert((i, verdict.witness.clone()));
                    }
                    let name = (verdict.verdict.clone(), verdict.iterations);
                    let same = *first.entry(i).or_insert_with(|| name.clone()) == name;
                    out.check(same, || {
                        format!("{}: verdict changed between passes", label())
                    });
                    ok &= same;
                    ok
                }
                other => {
                    out.check(false, || {
                        format!("solve-cold {} k={}: {other:?}", q.text, q.k)
                    });
                    false
                }
            };
            if !ok {
                out.failed += 1;
            }
            samples.push(ok.then_some(lat));
        }
        sched.drain();
        let _ = std::fs::remove_dir_all(&dir);
        last_pass_s = pass_started.elapsed().as_secs_f64();
        let this: Vec<f64> = samples[samples.len() - pool.len()..]
            .iter()
            .flatten()
            .copied()
            .collect();
        println!(
            "solve-cold pass {pass}: {last_pass_s:.2} s (copy {copy_s:.2} s), last open {:.3} s, p50 {:.1} ms",
            setups[setups.len() - 1],
            median(&this),
        );
        pass += 1;
    }
    let lat = with_failures(&samples);
    let (label, q) =
        tail_pick(pool.len() * MIN_PASSES).ok_or("solve-cold pool too small for a tail")?;
    let ok = samples.iter().filter(|s| s.is_some()).count();
    let below_setcon = first
        .iter()
        .filter(|(i, v)| v.0 == "solvable" && pool[**i].k < setcon(&pool[**i].model))
        .count();
    println!(
        "solve-cold: {} queries in {pass} passes of {} (samples={}, tail={label}), setup median of {} opens, \
         {below_setcon} pool queries solvable below setcon on the rainbow instance",
        samples.len(),
        pool.len(),
        lat.len(),
        setups.len()
    );
    out.ungated("solve-cold.setup_s", median(&setups), "s");
    out.metric(
        "solve-cold.throughput_per_s",
        ok as f64 / (busy_ms / 1e3),
        "1/s",
    );
    out.metric("solve-cold.p50_ms", quantile(&lat, 0.5), "ms");
    out.metric("solve-cold.tail_ms", quantile(&lat, q), "ms");
    Ok(out)
}
