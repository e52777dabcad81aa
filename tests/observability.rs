//! End-to-end observability: a liveness-failing adversarial run is
//! captured as a trace artifact that replays bit-for-bit, and a run's
//! telemetry stream aggregates into a valid `RunReport`.

use act_runtime::{run_adversarial, IsSystem, TraceArtifact};
use act_tasks::{find_carried_map_with_config, SearchConfig, SetConsensus, Task};
use act_topology::ColorSet;
use fact::adversary::{Adversary, AgreementFunction};
use fact::{validate_report_json, RunReport, Solvability};
use rand::SeedableRng;

fn fresh() -> IsSystem<u8> {
    IsSystem::new(vec![Some(1), Some(2), Some(3)])
}

/// The telemetry sink is process-global; tests that install one must not
/// overlap or they would capture each other's events.
static SINK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn liveness_failure_artifact_replays_bit_for_bit() {
    // A private artifact directory for this test run.
    let dir = std::env::temp_dir().join(format!("act-obs-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("ACT_OBS_ARTIFACTS", &dir);

    // Two steps cannot finish a 3-process IS round: liveness fails and
    // the scheduler captures the run.
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
    let mut sys = fresh();
    let participants = ColorSet::full(3);
    let outcome = run_adversarial(&mut sys, participants, participants, &mut rng, |_| 0, 2);
    assert!(!outcome.all_correct_terminated, "2 steps must not suffice");

    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("artifact directory created")
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    assert_eq!(entries.len(), 1, "exactly one artifact for one failure");

    let artifact = TraceArtifact::load(&entries[0]).expect("artifact loads");
    assert_eq!(artifact.schema_version, 1);
    assert_eq!(artifact.reason, "liveness-failure");
    assert_eq!(artifact.max_steps, 2);
    assert_eq!(artifact.trace.len(), outcome.steps);
    assert_eq!(artifact.trace.correct, Some(participants));

    // Bit-for-bit: the replayed system reaches the same state and the
    // recorded failure reproduces.
    let mut replayed = fresh();
    let terminated = artifact.trace.replay(&mut replayed).expect("valid trace");
    assert_eq!(terminated, outcome.terminated);
    assert_eq!(replayed.views(), sys.views(), "replay is bit-for-bit");
    assert_eq!(artifact.trace.correct_terminated(terminated), Some(false));

    std::env::remove_var("ACT_OBS_ARTIFACTS");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pipeline_telemetry_aggregates_into_a_valid_report() {
    let _guard = SINK_LOCK.lock().unwrap();
    let sink = act_obs::MemorySink::shared();
    act_obs::install(sink.clone());

    // Run the real pipeline so real events flow: consensus is solvable
    // 0-resiliently.
    let alpha = AgreementFunction::of_adversary(&Adversary::t_resilient(2, 0));
    let t = fact::tasks::consensus(2, &[0, 1]);
    let verdict = fact::solve_in_fair_model(&t, &alpha, 1, 1_000_000);
    assert!(matches!(verdict, Solvability::Solvable { .. }));

    act_obs::uninstall();
    let lines = sink.drain();
    assert!(!lines.is_empty(), "the pipeline emits events when enabled");

    let report = RunReport::from_events(
        "solve",
        "t-res:2:0",
        true,
        Some(verdict.verdict_name().to_string()),
        &lines,
    );
    assert!(report.counters.contains_key("solver.iteration"));
    assert!(report.counters.contains_key("mapsearch.done"));
    // The R_A compile names its own layer, with its shape.
    let compile = lines
        .iter()
        .find(|l| l.contains("\"ev\":\"affine.compile\""))
        .expect("a cold solve emits an affine.compile span");
    for field in [
        "\"elapsed_us\":",
        "\"n\":2",
        "\"side\":\"Union\"",
        "\"chr2_facets\":9",
        "\"kept_facets\":",
        "\"skeleton_hit\":",
    ] {
        assert!(compile.contains(field), "{field} missing in {compile}");
    }
    assert!(
        report.timings_us.contains_key("solver.iteration"),
        "iteration spans carry elapsed_us"
    );

    let json = serde_json::to_string_pretty(&report).expect("serializes");
    let back = validate_report_json(&json).expect("round-trips through validation");
    assert_eq!(back.verdict.as_deref(), Some("solvable"));
    assert_eq!(back.events.len(), report.events.len());
}

#[test]
fn map_search_emits_per_worker_events_with_the_documented_shape() {
    let _guard = SINK_LOCK.lock().unwrap();
    let sink = act_obs::MemorySink::shared();
    act_obs::install(sink.clone());

    // A branching solvable instance searched with an explicit 2-way
    // fan-out, so the parallel engine emits one mapsearch.worker event
    // per worker alongside the aggregated mapsearch.done.
    let t = SetConsensus::new(2, 2, &[0, 1, 2]);
    let domain = t.inputs().iterated_subdivision(1);
    let config = SearchConfig::serial(100_000).with_threads(2);
    let (result, stats) = find_carried_map_with_config(&t, &domain, &config);
    assert!(result.is_found());

    act_obs::uninstall();
    let lines = sink.drain();

    /// Extracts a numeric field (`"name":123`) from a JSON-lines event.
    fn numeric_field(line: &str, name: &str) -> Option<u64> {
        let tag = format!("\"{name}\":");
        let rest = &line[line.find(&tag)? + tag.len()..];
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        digits.parse().ok()
    }

    let workers: Vec<&String> = lines
        .iter()
        .filter(|l| l.contains("\"ev\":\"mapsearch.worker\""))
        .collect();
    assert_eq!(
        workers.len(),
        stats.workers,
        "one worker event per search worker"
    );
    let mut ids = Vec::new();
    for w in &workers {
        for field in [
            "worker",
            "nodes",
            "prunes",
            "wipeouts",
            "residue_hits",
            "residue_misses",
        ] {
            assert!(
                numeric_field(w, field).is_some(),
                "worker event carries numeric {field:?}: {w}"
            );
        }
        assert!(
            [
                "found",
                "no-map",
                "exhausted",
                "aborted",
                "unsolvable",
                "timed-out"
            ]
            .iter()
            .any(|r| w.contains(&format!("\"reason\":\"{r}\""))),
            "worker event carries a known reason: {w}"
        );
        ids.push(numeric_field(w, "worker").unwrap());
    }
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), workers.len(), "worker ids are distinct");
    assert!(
        workers.iter().any(|w| w.contains("\"reason\":\"found\"")),
        "some worker reported the witness"
    );

    // The aggregated done event carries the new worker/residue fields.
    let done: Vec<&String> = lines
        .iter()
        .filter(|l| l.contains("\"ev\":\"mapsearch.done\""))
        .collect();
    assert_eq!(done.len(), 1, "one aggregated event per search");
    for field in [
        "workers",
        "residue_hits",
        "residue_misses",
        "nodes",
        "budget_remaining",
    ] {
        assert!(
            numeric_field(done[0], field).is_some(),
            "done event carries numeric {field:?}: {}",
            done[0]
        );
    }
    assert_eq!(
        numeric_field(done[0], "workers"),
        Some(stats.workers as u64)
    );
    assert!(done[0].contains("\"residue_hit_rate\":"));
}
