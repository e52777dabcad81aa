//! P1–P5 — performance envelope for downstream users: scaling of the
//! subdivision machinery, `R_A` construction, `setcon`, the map search,
//! and the serial-vs-parallel speedup of the subdivision engine, as a
//! function of system size.

use act_adversary::{Adversary, AgreementFunction, SetconSolver};
use act_affine::{fair_affine_task, fair_census_quotiented};
use act_bench::{banner, metric};
use act_tasks::{find_carried_map, SetConsensus};
use act_topology::{subdivision_threads, ColorSet, Complex};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fact::affine_domain;
use std::time::Instant;

/// The mean of row `id`, which must have been reported in this run.
fn row_mean_ns(id: &str) -> u64 {
    criterion::result_mean_ns(id).unwrap_or_else(|| panic!("benchmark row {id:?} did not run"))
}

fn print_experiment_data() {
    banner("P1-P5", "scaling envelope");
    for n in 2..=5usize {
        let chr = Complex::standard(n).chromatic_subdivision();
        println!("n = {n}: |facets(Chr s)| = {}", chr.facet_count());
    }
    for n in 2..=4usize {
        let chr2 = Complex::standard(n).iterated_subdivision(2);
        println!("n = {n}: |facets(Chr² s)| = {}", chr2.facet_count());
    }
    for n in 2..=4usize {
        let alpha = AgreementFunction::k_concurrency(n, 1.max(n - 1));
        let r = fair_affine_task(&alpha);
        println!(
            "n = {n}: |facets(R_(n-1)-OF)| = {}",
            r.complex().facet_count()
        );
    }
    // P5: serial-vs-parallel speedup of the subdivision engine on the
    // heaviest deterministic build in the figures, Chr² s at n = 4
    // (5 625 facets). The two builds are byte-identical; only the wall
    // clock differs.
    let workers = subdivision_threads();
    let chr = Complex::standard(4).chromatic_subdivision();
    let t0 = Instant::now();
    let serial = chr.chromatic_subdivision_threaded(1);
    let serial_time = t0.elapsed();
    let t1 = Instant::now();
    let parallel = chr.chromatic_subdivision_threaded(workers);
    let parallel_time = t1.elapsed();
    assert_eq!(serial, parallel, "deterministic merge must be exact");
    metric("p5_chr2_facets_n4", parallel.facet_count() as u64);
    metric("p5_workers", workers as u64);
    println!(
        "n = 4: Chr² s serial {:.1?} vs {} workers {:.1?} — speedup {:.2}x",
        serial_time,
        workers,
        parallel_time,
        serial_time.as_secs_f64() / parallel_time.as_secs_f64().max(f64::EPSILON)
    );
}

fn bench(c: &mut Criterion) {
    print_experiment_data();

    // P1: subdivision scaling.
    let mut g = c.benchmark_group("p1_chr_scaling");
    for n in 2..=5usize {
        g.bench_with_input(BenchmarkId::new("chr", n), &n, |b, &n| {
            let s = Complex::standard(n);
            b.iter(|| s.chromatic_subdivision().facet_count())
        });
    }
    g.finish();

    // P2: R_A construction scaling — direct builds for n ≤ 4, and the
    // symmetry-quotiented census alongside them. Quotiented and direct
    // must agree on the facet count (verdict parity is checked before
    // any timing), and the quotient is what makes n = 5 reachable at
    // all: 16 representative orbit expansions instead of the 292 681
    // facets of Chr² s.
    for n in 3..=4usize {
        let alpha = AgreementFunction::k_concurrency(n, n - 1);
        let census = fair_census_quotiented(&alpha).expect("k-concurrency is color-symmetric");
        assert_eq!(
            census.facet_count,
            fair_affine_task(&alpha).complex().facet_count(),
            "quotiented census must agree with the direct build at n = {n}"
        );
    }
    let mut g = c.benchmark_group("p2_r_a_scaling");
    for n in 2..=4usize {
        g.bench_with_input(BenchmarkId::new("r_a_kof", n), &n, |b, &n| {
            let alpha = AgreementFunction::k_concurrency(n, 1.max(n - 1));
            b.iter(|| fair_affine_task(&alpha).complex().facet_count())
        });
    }
    for n in 3..=4usize {
        g.bench_with_input(BenchmarkId::new("r_a_kof_quotient", n), &n, |b, &n| {
            let alpha = AgreementFunction::k_concurrency(n, n - 1);
            b.iter(|| {
                fair_census_quotiented(&alpha)
                    .expect("k-concurrency is color-symmetric")
                    .facet_count
            })
        });
    }
    // Previously unreachable: the direct build materializes Chr² s
    // (292 681 facets at n = 5) before Definition 9 prunes it; the
    // quotiented census never builds it and lands in tens of
    // milliseconds.
    g.bench_with_input(BenchmarkId::new("r_a_kof", 5usize), &5usize, |b, &n| {
        let alpha = AgreementFunction::k_concurrency(n, n - 1);
        b.iter(|| {
            fair_census_quotiented(&alpha)
                .expect("k-concurrency is color-symmetric")
                .facet_count
        })
    });
    g.finish();
    let n5 = fair_census_quotiented(&AgreementFunction::k_concurrency(5, 4))
        .expect("k-concurrency is color-symmetric");
    metric("r_a_kof5_facets", n5.facet_count as u64);
    metric("r_a_kof5_orbits", n5.orbit_count as u64);
    metric("r_a_kof5_chr2_facets", n5.chr2_facet_count as u64);
    // Quotiented-vs-direct speedup on the same instance, read back from
    // the rows of this very run (CI perf-smoke enforces the n = 4 one).
    let direct3 = row_mean_ns("p2_r_a_scaling/r_a_kof/3");
    let quotient3 = row_mean_ns("p2_r_a_scaling/r_a_kof_quotient/3");
    let direct4 = row_mean_ns("p2_r_a_scaling/r_a_kof/4");
    let quotient4 = row_mean_ns("p2_r_a_scaling/r_a_kof_quotient/4");
    metric("quotient_speedup_n3_x100", direct3 * 100 / quotient3.max(1));
    metric("quotient_speedup_x100", direct4 * 100 / quotient4.max(1));
    println!(
        "R_A quotient: n = 3 direct {direct3} ns vs quotient {quotient3} ns, \
         n = 4 direct {direct4} ns vs quotient {quotient4} ns"
    );

    // P3: setcon scaling over adversary size.
    let mut g = c.benchmark_group("p3_setcon_scaling");
    for n in 4..=8usize {
        g.bench_with_input(BenchmarkId::new("t_resilient", n), &n, |b, &n| {
            let a = Adversary::t_resilient(n, n / 2);
            b.iter(|| {
                let mut solver = SetconSolver::new(&a);
                solver.setcon(ColorSet::full(n))
            })
        });
    }
    g.finish();

    // P5: serial vs parallel subdivision on Chr² s, n = 4 — fixed 1-,
    // 2- and 4-worker rows (plus the ambient default when it differs)
    // so the parallel-scaling claim is backed by recorded numbers on
    // every run, not just on many-core hosts.
    let mut g = c.benchmark_group("p5_parallel_subdivision");
    let chr4 = Complex::standard(4).chromatic_subdivision();
    let mut worker_rows = vec![1usize, 2, 4];
    if !worker_rows.contains(&subdivision_threads()) {
        worker_rows.push(subdivision_threads());
    }
    for &threads in &worker_rows {
        g.bench_with_input(
            BenchmarkId::new("chr2_n4", threads),
            &threads,
            |b, &threads| b.iter(|| chr4.chromatic_subdivision_threaded(threads).facet_count()),
        );
    }
    g.finish();
    let p5_serial = row_mean_ns("p5_parallel_subdivision/chr2_n4/1");
    let p5_best = worker_rows
        .iter()
        .filter(|&&w| w > 1)
        .map(|&w| row_mean_ns(&format!("p5_parallel_subdivision/chr2_n4/{w}")))
        .min()
        .unwrap_or(p5_serial);
    metric("p5_parallel_speedup_x100", p5_serial * 100 / p5_best.max(1));
    // The direct n = 4 R_A compile against one serial Chr² s build on the
    // same host: the compile reuses a shared Chr² s and its Definition 9
    // table, so it stays well under a rebuild (CI gates this at ≤ 2×).
    metric("r_a_direct_vs_chr2_x100", direct4 * 100 / p5_serial.max(1));

    // P4: map search on the solvable side.
    c.bench_function("p4_map_search_2set_1res", |b| {
        let alpha = AgreementFunction::of_adversary(&Adversary::t_resilient(3, 1));
        let r_a = fair_affine_task(&alpha);
        let t = SetConsensus::new(3, 2, &[0, 1, 2]);
        let domain = affine_domain(&r_a, &t.rainbow_inputs(), 1);
        b.iter(|| find_carried_map(&t, &domain, 3_000_000).is_found())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
