//! The store population `wire-mixed` serves and `solve-cold` writes
//! into: ~4 × the verdict store's 1,024-entry memory tier of warm
//! verdicts, their persisted `R_A` towers, and cached FPC summaries.
//! Building it is untimed preparation.

use std::path::PathBuf;
use std::sync::Arc;

use act_fpc::{run_stats, FpcSpec, FpcStats};
use act_service::{
    FpcCache, Scheduler, ServeConfig, Served, SolveQuery, StoreKey, StoredVerdict, Submitted,
    VerdictStore,
};
use act_topology::ColorSet;
use fact::{DomainCache, ModelSpec, Solvability, TaskSpec};

use crate::Ctx;

/// `(model, k)` pairs at `n = 3` that are solvable at `ℓ = 1` (custom
/// live sets are closed under supersets), so every
/// `iters` bound names a distinct key with the same verdict (deepening
/// stops at `ℓ = 1`). None of them shares a tower with the `solve-cold`
/// pool.
const PAIRS: [(&str, usize); 21] = [
    ("t-res:3:0", 1),
    ("t-res:3:0", 2),
    ("t-res:3:1", 1),
    ("t-res:3:1", 2),
    ("k-of:3:1", 1),
    ("k-of:3:1", 2),
    ("k-of:3:2", 2),
    ("alpha-kconc:3:1", 1),
    ("alpha-kconc:3:1", 2),
    ("alpha-kconc:3:2", 2),
    ("fig5b", 2),
    ("custom:3:{p1,p2};{p2,p3}", 1),
    ("custom:3:{p1,p2};{p2,p3}", 2),
    ("custom:3:{p1};{p2,p3}", 1),
    ("custom:3:{p1};{p2,p3}", 2),
    ("custom:3:{p3};{p1,p2}", 1),
    ("custom:3:{p3};{p1,p2}", 2),
    ("custom:3:{p1,p2}", 1),
    ("custom:3:{p1,p2}", 2),
    ("custom:3:{p1};{p3}", 1),
    ("custom:3:{p1};{p3}", 2),
];

/// `iters` bounds `1..=POP_ITERS` per pair are in the store: 21 × 195 =
/// 4,095 warm keys. Fresh writes use bounds above it.
pub const POP_ITERS: usize = 195;

/// FPC workloads with cached summaries (and fresh-seed misses).
const FPC_SPECS: [&str; 3] = [
    "fpc:32:8:berserk:10:700",
    "fpc:16:3:cautious",
    "fpc:24:4:fixed-split",
];

/// Runs per `fpc` request (the miss batch size).
pub const FPC_RUNS: u64 = 100;

/// Cached seeds per FPC workload.
const FPC_SEEDS: u64 = 16;

/// A writable population pair and its verdict.
pub struct Pair {
    pub model: ModelSpec,
    pub task: TaskSpec,
    /// The model's canonical (closed, explicit) spelling.
    pub text: String,
    pub k: usize,
    pub expected: StoredVerdict,
}

/// A cached FPC summary.
pub struct FpcEntry {
    pub spec: usize,
    pub seed: u64,
    pub stats: FpcStats,
}

pub struct Population {
    pub dir: PathBuf,
    pub pairs: Vec<Pair>,
    pub fpc_specs: Vec<FpcSpec>,
    pub fpc: Vec<FpcEntry>,
}

impl Population {
    /// Number of warm read keys.
    pub fn reads(&self) -> usize {
        self.pairs.len() * POP_ITERS
    }

    /// Warm read key `i`: its pair and `iters` bound.
    pub fn read_key(&self, i: usize) -> (&Pair, usize) {
        (&self.pairs[i % self.pairs.len()], 1 + i / self.pairs.len())
    }
}

/// Submits and waits: the closed-loop round trip through the scheduler.
pub fn submit_wait(sched: &Scheduler, query: SolveQuery) -> Served {
    let failed = |error: &str| Served::Failed {
        error: error.to_string(),
        code: 1,
    };
    match sched.submit(query) {
        Submitted::Ready(s) => s,
        Submitted::Pending(rx) => rx
            .recv()
            .unwrap_or_else(|_| failed("scheduler dropped the job")),
        Submitted::Busy { depth } => failed(&format!("busy at queue depth {depth}")),
        Submitted::Draining => failed("draining"),
    }
}

/// `setcon(A)` of the model: from the adversary where the spec has one,
/// else `α(Π)` of its agreement function.
pub fn setcon(model: &ModelSpec) -> usize {
    match model.adversary() {
        Ok(a) => a.setcon(),
        Err(_) => model
            .agreement_function()
            .alpha(ColorSet::full(model.num_processes())),
    }
}

/// Whether a stored `solvable` witness is a carried map on the domain
/// the engine searched (`R_A^ℓ` of the rainbow inputs); `no-map` passes.
pub fn witness_verifies(
    model: &ModelSpec,
    task: &TaskSpec,
    v: &StoredVerdict,
    cache: &mut DomainCache,
) -> bool {
    match v.to_solvability() {
        Some(Solvability::Solvable { iterations, map }) => {
            let t = task.task();
            let affine = act_affine::fair_affine_task(&model.agreement_function());
            let domain = cache.domain(&affine, &t.rainbow_inputs(), iterations);
            act_tasks::verify_carried_map(&t, domain, &map)
        }
        Some(Solvability::NoMapUpTo { .. }) => true,
        _ => false,
    }
}

pub fn build(ctx: &Ctx) -> Result<Population, String> {
    let started = std::time::Instant::now();
    let dir = ctx.scratch("population");
    let store = Arc::new(VerdictStore::open(&dir).map_err(|e| format!("population store: {e}"))?);
    let sched = Scheduler::new(Arc::clone(&store), ServeConfig::default());
    sched.start_workers();
    let mut pairs = Vec::new();
    let mut verify_cache = DomainCache::new();
    for (text, k) in PAIRS {
        let model = ModelSpec::parse(text, true)?;
        let task = TaskSpec::set_consensus(model.num_processes(), k)?;
        // One real engine run per pair: it writes the verdict and the
        // pair's tower, which fresh writes later load.
        let served = submit_wait(
            &sched,
            SolveQuery {
                model: model.clone(),
                task: task.clone(),
                iters: 1,
                deadline_ms: None,
            },
        );
        let expected = match served {
            Served::Authoritative { verdict, .. }
                if verdict.verdict == "solvable" && verdict.iterations == 1 =>
            {
                verdict
            }
            other => return Err(format!("population pair {text} k={k}: {other:?}")),
        };
        if !witness_verifies(&model, &task, &expected, &mut verify_cache) {
            return Err(format!(
                "population pair {text} k={k}: witness does not verify"
            ));
        }
        pairs.push(Pair {
            text: model.canonical_string(),
            model,
            task,
            k,
            expected,
        });
    }
    sched.drain();
    for iters in 2..=POP_ITERS {
        for p in &pairs {
            store.put(&StoreKey::new(&p.model, &p.task, iters), &p.expected);
        }
    }
    let cache = FpcCache::open(&dir).map_err(|e| format!("fpc cache: {e}"))?;
    let fpc_specs: Vec<FpcSpec> = FPC_SPECS
        .iter()
        .map(|s| FpcSpec::parse(s))
        .collect::<Result<_, _>>()?;
    let mut fpc = Vec::new();
    for (spec_idx, spec) in fpc_specs.iter().enumerate() {
        for seed in 0..FPC_SEEDS {
            let stats = run_stats(spec, FPC_RUNS, seed);
            cache.put(spec, FPC_RUNS, seed, &stats);
            fpc.push(FpcEntry {
                spec: spec_idx,
                seed,
                stats,
            });
        }
    }
    println!(
        "population: {} warm verdicts over {} pairs, {} fpc summaries, built in {:.2} s (untimed)",
        store.merkle_len(),
        pairs.len(),
        fpc.len(),
        started.elapsed().as_secs_f64()
    );
    Ok(Population {
        dir,
        pairs,
        fpc_specs,
        fpc,
    })
}
