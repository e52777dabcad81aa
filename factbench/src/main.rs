//! `factbench` — one command that measures the FACT reproduction end to
//! end: cold solves through the scheduler (`solve-cold`), mixed traffic
//! on a replicated two-peer cluster over TCP (`wire-mixed`), and
//! adversarial plus FPC campaigns (`campaign`). Every invocation runs all
//! three and prints all of their end-to-end metrics; `--workload` picks
//! the order they run in. `--trace 1` instead times each layer from the
//! outside and prints the per-layer metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path factbench/Cargo.toml -- \
//!     --workload engine-first --seed 1 --seconds 45 --trace 0
//! ```
//!
//! Run it from the repository root: scratch stores go to
//! `.factbench_work/` and span dumps to `.factbench_out/`.

mod campaign;
mod layers;
mod population;
mod solve_cold;
mod stamp;
mod wire;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One reported figure.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload (or the traced run) hands back.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Figures printed by name and unit but left out of the result line:
    /// each part's set-up median (their sum is `setup_s`) and the wire
    /// latencies, which swing 1.3-3x with host CPU contention on a
    /// shared 2-core VM (see factbench/README.md).
    pub ungated: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures; any entry fails the command.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn ungated(&mut self, name: &str, value: f64, unit: &'static str) {
        self.ungated.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("factbench: CHECK FAILED: {msg}");
            self.errors.push(msg);
        }
    }

    pub fn absorb(&mut self, other: Outcome) {
        self.metrics.extend(other.metrics);
        self.ungated.extend(other.ungated);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }
}

/// Shared run settings.
pub struct Ctx {
    pub seed: u64,
    /// Root of this invocation's scratch space.
    pub work: PathBuf,
    /// Available parallelism: generator threads, campaign workers.
    pub nproc: usize,
}

impl Ctx {
    pub fn scratch(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }
}

/// Seconds of measurement each workload gets out of `--seconds`.
pub struct Budget {
    pub solve_cold: f64,
    pub wire_low: f64,
    pub wire_high: f64,
    pub wire_closed: f64,
    pub campaign: f64,
}

impl Budget {
    fn split(seconds: f64) -> Budget {
        Budget {
            solve_cold: seconds * 0.50,
            wire_low: seconds * 0.11,
            wire_high: seconds * 0.09,
            wire_closed: seconds * 0.08,
            campaign: seconds * 0.17,
        }
    }
}

/// Recreates `from` under a fresh `to` with every file hard-linked. The
/// stores only ever replace an entry by renaming a new file over it, so
/// a write through the copy never reaches the original.
pub fn link_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            link_dir(&entry.path(), &target)?;
        } else {
            std::fs::hard_link(entry.path(), &target)?;
        }
    }
    Ok(())
}

/// Flushes dirty pages to disk (untimed), so writeback of files written
/// during preparation does not land inside a later measurement. A host
/// without `sync` just skips it.
pub fn settle_disk() {
    let _ = std::process::Command::new("sync").status();
}

/// Milliseconds since `t`.
pub fn ms_since(t: std::time::Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The three parts of the trio, in the order a workload runs them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Part {
    SolveCold,
    Wire,
    Campaign,
}

fn order(workload: &str) -> Option<[Part; 3]> {
    match workload {
        // wire-mixed runs last in both: measured first in a process, its
        // tails read up to twice as slow and twice as noisy.
        "engine-first" => Some([Part::SolveCold, Part::Campaign, Part::Wire]),
        "campaign-first" => Some([Part::Campaign, Part::SolveCold, Part::Wire]),
        _ => None,
    }
}

fn run(args: &Args, ctx: &Ctx) -> Result<Outcome, String> {
    let parts = order(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload {:?} (engine-first | campaign-first)",
            args.workload
        )
    })?;
    let pop = population::build(ctx)?;
    if args.trace {
        return layers::traced(ctx, &pop);
    }
    let mut out = Outcome::default();
    let budget = Budget::split(args.seconds);
    let mut setups = Vec::new();
    for part in parts {
        settle_disk();
        let t = std::time::Instant::now();
        let part_out = match part {
            Part::SolveCold => solve_cold::run(ctx, &pop, budget.solve_cold)?,
            Part::Wire => wire::run(ctx, &pop, &budget)?,
            Part::Campaign => campaign::run(ctx, budget.campaign)?,
        };
        println!("{part:?} took {:.1} s", t.elapsed().as_secs_f64());
        setups.extend(
            part_out
                .ungated
                .iter()
                .filter(|m| m.name.ends_with(".setup_s"))
                .map(|m| (m.name.clone(), m.value)),
        );
        out.absorb(part_out);
    }
    let setup_total: f64 = setups.iter().map(|(_, v)| v).sum();
    let shares: Vec<String> = setups
        .iter()
        .map(|(name, v)| format!("{name}={:.3}", v / setup_total))
        .collect();
    println!("setup_s shares: {}", shares.join(" "));
    out.metric("setup_s", setup_total, "s");
    Ok(out)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // A figure resting on a failed request: the largest finite value
        // keeps the line valid JSON while missing every bound.
        format!("{}", f64::MAX)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("factbench: {e}");
            eprintln!("usage: factbench --workload <engine-first|campaign-first> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work = PathBuf::from(".factbench_work").join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("factbench: cannot create {}: {e}", work.display());
        return ExitCode::from(1);
    }
    let ctx = Ctx {
        seed: args.seed,
        work,
        nproc,
    };
    println!(
        "{}",
        stamp::provenance(&ctx, &args.workload, args.seconds, args.trace)
    );
    let result = run(&args, &ctx);
    let _ = std::fs::remove_dir_all(&ctx.work);
    // Only succeeds once no other invocation is using it.
    let _ = std::fs::remove_dir(".factbench_work");
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("factbench: {e}");
            return ExitCode::from(1);
        }
    };
    for m in &out.metrics {
        println!(
            "metric {:<34} {:>16} {}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    for m in &out.ungated {
        println!(
            "metric {:<34} {:>16} {} (printed, not in the result line)",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    let correct = out.errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
