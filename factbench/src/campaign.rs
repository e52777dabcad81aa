//! `campaign`: an adversarial campaign on `t-res:4:1` (sampled, `nproc`
//! workers, default fault rate, solver check, checkpoint file) followed
//! by an FPC campaign on `fpc:32:8:berserk:10:700`. The runtime, the
//! invariants and the FPC simulator do the work; wire, store and engine
//! are bypassed (the engine runs once, in the context's solver check).

use std::path::Path;
use std::time::Instant;

use act_campaign::{
    run_campaign_in, run_fpc_campaign, CampaignConfig, CampaignContext, Coverage, Scope,
};
use act_fpc::FpcSpec;
use factbench::stats::median;

use crate::{Ctx, Outcome};

pub const ADV_MODEL: &str = "t-res:4:1";
pub const FPC_MODEL: &str = "fpc:32:8:berserk:10:700";
pub const ADV_SAMPLES: u64 = 20_000;
pub const FPC_SAMPLES: u64 = 6_000;

/// Full passes (context + both campaigns) every run makes; the figures
/// are medians over passes.
pub const MIN_PASSES: usize = 7;

/// Campaign seeds; `--seed` picks one (`seed % 8`), so every run's
/// outcome is checked against a pinned value. `0xFAC7` is the default
/// campaign seed.
pub const SEEDS: [u64; 8] = [0xFAC7, 1, 2, 3, 4, 5, 6, 7];

/// Per seed: adversarial coverage fingerprint and violation count, FPC
/// coverage fingerprint and violation count. An FPC violation is an
/// outcome of the sampled population, not a failed operation. After an
/// intended behaviour change, re-pin a seed from the observed values its
/// `CHECK FAILED` message prints.
pub const PINNED: [(u64, u64, u64, u64); 8] = [
    (0x6293083e181fcf5d, 0, 0x3da750b04b710c71, 0), // seed 0xfac7
    (0xdbf1ecf0be02d1c6, 0, 0x9feb2a31230ca17c, 0), // seed 0x1
    (0x673112cf07a764d7, 0, 0xa7d0db13d4b12b3a, 0), // seed 0x2
    (0x4448d3b097f33347, 0, 0x1fa5ddf0cb444510, 0), // seed 0x3
    (0x65ce0795a16d0b6d, 0, 0x358faffbf277c832, 0), // seed 0x4
    (0xcb25ea0f0e0fc6a6, 0, 0x5c4aa9bc73456c05, 0), // seed 0x5
    (0x1a720a03268eb9fc, 0, 0x63ddacd2b8926d64, 0), // seed 0x6
    (0x70e0d5715aae5565, 0, 0xb4a305f8fd2b1cf6, 0), // seed 0x7
];

/// A fingerprint of everything a campaign's coverage records.
pub fn coverage_fingerprint(c: &Coverage) -> u64 {
    let text = format!(
        "runs={}|steps={}|live={}|violations={}|injected={}|deduped={}|faulted={}|faults={}|facets={:?}|by_invariant={:?}",
        c.runs,
        c.steps,
        c.live,
        c.violations,
        c.injected_violations,
        c.deduped,
        c.faulted_runs,
        c.faults_applied,
        c.facets,
        c.invariant_violations
    );
    act_obs::fnv1a64(0xcbf2_9ce4_8422_2325, text.as_bytes())
}

/// The campaign configuration: defaults except scope, seed, workers and
/// the scratch checkpoint/artifact paths.
pub fn config(model: &str, samples: u64, seed: u64, workers: usize, dir: &Path) -> CampaignConfig {
    let mut c = CampaignConfig::new(model);
    c.scope = Scope::Sampled { samples };
    c.seed = seed;
    c.workers = workers;
    let stem = model.replace(':', "_");
    c.checkpoint = Some(dir.join(format!("{stem}.checkpoint.jsonl")));
    c.artifacts = Some(dir.join("artifacts"));
    c
}

/// One pass: both campaigns, each from a fresh checkpoint.
pub struct Pass {
    pub setup_s: f64,
    pub adv_s: f64,
    pub fpc_s: f64,
    pub adv: (u64, u64),
    pub fpc: (u64, u64),
}

pub fn pass(ctx: &Ctx, seed: u64, workers: usize) -> Result<Pass, String> {
    let dir = ctx.scratch("campaign");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("campaign dir: {e}"))?;
    let t = Instant::now();
    let adv_ctx = CampaignContext::new(ADV_MODEL, true)?;
    FpcSpec::parse(FPC_MODEL)?;
    let setup_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let adv = run_campaign_in(
        &adv_ctx,
        &config(ADV_MODEL, ADV_SAMPLES, seed, workers, &dir),
    )?;
    let adv_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let fpc = run_fpc_campaign(&config(FPC_MODEL, FPC_SAMPLES, seed, workers, &dir))?;
    let fpc_s = t.elapsed().as_secs_f64();
    if adv.cursor != ADV_SAMPLES || fpc.cursor != FPC_SAMPLES {
        return Err(format!(
            "campaign stopped early: {} / {} runs",
            adv.cursor, fpc.cursor
        ));
    }
    Ok(Pass {
        setup_s,
        adv_s,
        fpc_s,
        adv: (coverage_fingerprint(&adv.coverage), adv.coverage.violations),
        fpc: (coverage_fingerprint(&fpc.coverage), fpc.coverage.violations),
    })
}

pub fn run(ctx: &Ctx, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let slot = (ctx.seed % SEEDS.len() as u64) as usize;
    let seed = SEEDS[slot];
    let (adv_fp, adv_viol, fpc_fp, fpc_viol) = PINNED[slot];
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < MIN_PASSES
        || started.elapsed().as_secs_f64()
            + passes.last().map_or(0.0, |p| p.setup_s + p.adv_s + p.fpc_s)
            <= seconds
    {
        let p = pass(ctx, seed, ctx.nproc)?;
        out.attempted += 2;
        let pinned = p.adv == (adv_fp, adv_viol) && p.fpc == (fpc_fp, fpc_viol);
        out.check(pinned, || {
            format!(
                "campaign seed {seed:#x}: adv (fingerprint {:#018x}, {} violations), fpc ({:#018x}, {}) \
                 differ from pinned ({adv_fp:#018x}, {adv_viol}), ({fpc_fp:#018x}, {fpc_viol})",
                p.adv.0, p.adv.1, p.fpc.0, p.fpc.1
            )
        });
        if !pinned {
            out.failed += 2;
        }
        passes.push(p);
    }
    let setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    let adv: Vec<f64> = passes
        .iter()
        .map(|p| ADV_SAMPLES as f64 / p.adv_s)
        .collect();
    let fpc: Vec<f64> = passes
        .iter()
        .map(|p| FPC_SAMPLES as f64 / p.fpc_s)
        .collect();
    println!(
        "campaign: seed {seed:#x}, {} passes of {ADV_SAMPLES} adversarial ({ADV_MODEL}) + {FPC_SAMPLES} fpc \
         ({FPC_MODEL}) runs on {} workers; fpc violations per pass {} (pinned); medians over passes",
        passes.len(),
        ctx.nproc,
        fpc_viol
    );
    let show = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "campaign: per-pass adv runs/s [{}], fpc runs/s [{}]",
        show(&adv),
        show(&fpc)
    );
    out.ungated("campaign.setup_s", median(&setups), "s");
    out.metric("campaign.adv.runs_per_s", median(&adv), "1/s");
    out.metric("campaign.fpc.runs_per_s", median(&fpc), "1/s");
    Ok(out)
}
