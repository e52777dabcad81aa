//! The pure parts of the benchmark: percentile and tail selection,
//! open-loop due-time accounting, span self time, and the seeded input
//! streams. Everything here is deterministic and unit-tested; the
//! workloads in `main.rs` drive the real system through it.

/// Order statistics over latency samples.
pub mod stats {
    /// The tail percentiles a run may report, highest first.
    pub const TAIL_CANDIDATES: [(&str, f64); 3] = [("p99", 0.99), ("p95", 0.95), ("p90", 0.90)];

    /// Samples that must lie strictly beyond a reported tail percentile.
    pub const MIN_BEYOND: usize = 10;

    /// The 1-based nearest rank of quantile `q` among `n` samples.
    pub fn rank(q: f64, n: usize) -> usize {
        ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
    }

    /// Nearest-rank quantile `q` of `values` (sorted internally).
    /// Failed requests enter as `f64::INFINITY`, so they sit beyond
    /// every limit. Panics on an empty slice.
    pub fn quantile(values: &[f64], q: f64) -> f64 {
        assert!(!values.is_empty(), "quantile of no samples");
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        sorted[rank(q, sorted.len()) - 1]
    }

    /// The median (the mean of the two middle values for even counts).
    pub fn median(values: &[f64]) -> f64 {
        assert!(!values.is_empty(), "median of no samples");
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let n = sorted.len();
        if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        }
    }

    /// Samples strictly beyond the nearest-rank quantile `q` of `n`.
    pub fn beyond(q: f64, n: usize) -> usize {
        n - rank(q, n)
    }

    /// The highest of p90/p95/p99 that leaves at least [`MIN_BEYOND`]
    /// samples beyond it when a run holds `min_samples` samples. The
    /// caller passes the smallest count any run of the workload can
    /// hold, so every run reports the same percentile. `None` when even
    /// p90 rests on fewer than ten samples.
    pub fn tail_pick(min_samples: usize) -> Option<(&'static str, f64)> {
        TAIL_CANDIDATES
            .into_iter()
            .find(|&(_, q)| min_samples > 0 && beyond(q, min_samples) >= MIN_BEYOND)
    }

    /// Latency samples in milliseconds, with failed, refused and wrong
    /// replies entered as infinitely late.
    pub fn with_failures(ok_ms: &[Option<f64>]) -> Vec<f64> {
        ok_ms.iter().map(|s| s.unwrap_or(f64::INFINITY)).collect()
    }
}

/// Open-loop accounting: every request is timed from when it was due,
/// not from when the generator got round to sending it.
pub mod openloop {
    /// One request as the generator saw it (nanoseconds from the phase
    /// start).
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct Record {
        /// When the schedule said to send it.
        pub due_ns: u64,
        /// When a generator thread actually sent it.
        pub start_ns: u64,
        /// When the reply was in (and checked).
        pub end_ns: u64,
        /// Whether the reply was correct (not failed, busy or wrong).
        pub ok: bool,
    }

    /// The due time of request `i` at `rate` requests per second.
    pub fn due_ns(i: usize, rate: f64) -> u64 {
        (i as f64 * 1e9 / rate).round() as u64
    }

    /// Due times at `rate`, each placed uniformly at random (seeded)
    /// within its own `1/rate` slot: the rate is exact, but arrivals do
    /// not lock in phase with any periodic timer in the server.
    pub fn jittered_due_ns(seed: u64, len: usize, rate: f64) -> Vec<u64> {
        let mut state = seed ^ 0x0a11_17e5;
        (0..len)
            .map(|i| {
                let u = (super::stream::splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
                ((i as f64 + u) * 1e9 / rate).round() as u64
            })
            .collect()
    }

    /// A phase's figures, computed from its records.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Summary {
        /// Requests scheduled.
        pub attempted: usize,
        /// Requests that failed, were refused, or got a wrong reply.
        pub failed: usize,
        /// Latency from due time, ms; failures are infinite.
        pub latency_ms: Vec<f64>,
        /// How late each request was sent, ms.
        pub late_ms: Vec<f64>,
        /// Correct replies within `limit_ms` of their due time.
        pub good: usize,
        /// Whether the generator itself kept up: its p99 lateness stays
        /// under the latency limit.
        pub valid: bool,
    }

    /// Summarises `records` against the latency `limit_ms`.
    pub fn summarize(records: &[Record], limit_ms: f64) -> Summary {
        let ms = |ns: u64| ns as f64 / 1e6;
        let latency_ms: Vec<f64> = records
            .iter()
            .map(|r| {
                if r.ok {
                    ms(r.end_ns.saturating_sub(r.due_ns))
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        let late_ms: Vec<f64> = records
            .iter()
            .map(|r| ms(r.start_ns.saturating_sub(r.due_ns)))
            .collect();
        let good = latency_ms.iter().filter(|&&l| l <= limit_ms).count();
        let valid = late_ms.is_empty() || super::stats::quantile(&late_ms, 0.99) <= limit_ms;
        Summary {
            attempted: records.len(),
            failed: records.iter().filter(|r| !r.ok).count(),
            latency_ms,
            late_ms,
            good,
            valid,
        }
    }

    /// Correct replies per second in each window of `per_window`
    /// consecutive completions: a window runs from the previous
    /// window's last completion (or the phase start) to its own last
    /// one. A phase with fewer completions is one window; a partial
    /// last window is dropped.
    pub fn window_rates(records: &[Record], per_window: usize) -> Vec<f64> {
        let mut done: Vec<(u64, bool)> = records.iter().map(|r| (r.end_ns, r.ok)).collect();
        done.sort_unstable();
        let per_window = per_window.clamp(1, done.len().max(1));
        let mut from = 0;
        done.chunks_exact(per_window)
            .map(|w| {
                let to = w[w.len() - 1].0;
                let ok = w.iter().filter(|(_, ok)| *ok).count();
                let rate = ok as f64 * 1e9 / to.saturating_sub(from).max(1) as f64;
                from = to;
                rate
            })
            .collect()
    }
}

/// Spans kept in memory for the traced run.
pub mod spans {
    /// One timed interval. Spans of one request share `request`.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Span {
        /// Layer (or `request` for a root).
        pub name: &'static str,
        /// The request this span belongs to.
        pub request: u64,
        /// Index of the parent span, `None` for a root.
        pub parent: Option<usize>,
        /// Start, ns since the tracer was made.
        pub start_ns: u64,
        /// End, ns since the tracer was made.
        pub end_ns: u64,
    }

    /// An in-memory span recorder with a parent stack (one caller).
    pub struct Tracer {
        origin: std::time::Instant,
        /// Every span recorded, in start order.
        pub spans: Vec<Span>,
        open: Vec<usize>,
        /// Off: every call returns at once and nothing is recorded, so
        /// a replay under an off tracer is the same code minus tracing.
        on: bool,
    }

    impl Default for Tracer {
        fn default() -> Tracer {
            Tracer {
                origin: std::time::Instant::now(),
                spans: Vec::new(),
                open: Vec::new(),
                on: true,
            }
        }
    }

    impl Tracer {
        /// A tracer that records nothing.
        pub fn off() -> Tracer {
            Tracer {
                on: false,
                ..Tracer::default()
            }
        }

        /// Whether spans are being recorded.
        pub fn is_on(&self) -> bool {
            self.on
        }

        fn now(&self) -> u64 {
            self.origin.elapsed().as_nanos() as u64
        }

        /// Opens a span under the innermost open one.
        pub fn enter(&mut self, name: &'static str, request: u64) {
            if !self.on {
                return;
            }
            let start_ns = self.now();
            self.spans.push(Span {
                name,
                request,
                parent: self.open.last().copied(),
                start_ns,
                end_ns: start_ns,
            });
            self.open.push(self.spans.len() - 1);
        }

        /// Closes the innermost open span.
        pub fn exit(&mut self) {
            if !self.on {
                return;
            }
            let idx = self.open.pop().expect("exit without enter");
            self.spans[idx].end_ns = self.now();
        }

        /// Runs `f` inside a span.
        pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
            self.enter(name, request);
            let out = f();
            self.exit();
            out
        }

        /// Records an already-timed span under the innermost open one
        /// (for intervals measured inside a callee).
        pub fn record(
            &mut self,
            name: &'static str,
            request: u64,
            start: std::time::Instant,
            end: std::time::Instant,
        ) {
            if !self.on {
                return;
            }
            let at = |t: std::time::Instant| t.duration_since(self.origin).as_nanos() as u64;
            let span = Span {
                name,
                request,
                parent: self.open.last().copied(),
                start_ns: at(start),
                end_ns: at(end),
            };
            self.spans.push(span);
        }

        /// The spans as JSON lines.
        pub fn to_json_lines(&self) -> String {
            let mut out = String::new();
            for (i, s) in self.spans.iter().enumerate() {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                out.push_str(&format!(
                    "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}\n",
                    s.name, s.request, s.start_ns, s.end_ns
                ));
            }
            out
        }
    }

    /// Length of the union of `intervals` clipped to `[lo, hi]`.
    pub fn union_len(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
        let mut clipped: Vec<(u64, u64)> = intervals
            .iter()
            .map(|&(s, e)| (s.max(lo), e.min(hi)))
            .filter(|(s, e)| s < e)
            .collect();
        clipped.sort_unstable();
        let mut total = 0;
        let mut cur: Option<(u64, u64)> = None;
        for (s, e) in clipped {
            match cur {
                Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
                Some((cs, ce)) => {
                    total += ce - cs;
                    cur = Some((s, e));
                }
                None => cur = Some((s, e)),
            }
        }
        total + cur.map_or(0, |(s, e)| e - s)
    }

    /// Every span's self time: its length minus the union of its
    /// children's intervals.
    pub fn self_times(spans: &[Span]) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        spans
            .iter()
            .zip(&children)
            .map(|(s, c)| (s.end_ns - s.start_ns) - union_len(s.start_ns, s.end_ns, c))
            .collect()
    }

    /// Summed self time per span name, in first-seen order.
    pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for (s, t) in spans.iter().zip(self_times(spans)) {
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, acc)) => *acc += t,
                None => out.push((s.name, t)),
            }
        }
        out
    }
}

/// Seeded input streams: the same seed gives the same inputs.
pub mod stream {
    /// SplitMix64 step.
    pub fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A seeded Fisher–Yates permutation of `0..n`.
    pub fn permutation(seed: u64, n: usize) -> Vec<usize> {
        let mut state = seed ^ 0x005e_ed0f_c01d;
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }

    /// One request of the mixed wire stream.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum WireOp {
        /// Warm `solve` of population key `index`.
        Read(usize),
        /// Fresh-key `solve` (a new `iters` bound) on population pair
        /// `pair`.
        Write(usize),
        /// Cached `fpc` summary `index`.
        FpcHit(usize),
        /// `fpc` batch on workload `spec` with a fresh seed.
        FpcMiss(usize),
        /// `stats`.
        Stats,
    }

    /// The mix in per-mille: reads, writes, fpc hits, fpc misses; the
    /// rest is `stats`.
    pub const MIX_PERMILLE: [u64; 4] = [800, 80, 50, 20];

    /// `len` requests of the mixed stream over `reads` population keys,
    /// `pairs` writable pairs, `fpc_cached` cached summaries and
    /// `fpc_specs` workloads. Each kind's count is fixed by the mix, and
    /// writes and FPC misses visit their pairs and workloads round-robin
    /// (in a seeded order), so the slow requests always weigh the same
    /// in a phase's tail; the seed orders the kinds and picks the reads
    /// and cached summaries.
    pub fn wire_stream(
        seed: u64,
        len: usize,
        reads: usize,
        pairs: usize,
        fpc_cached: usize,
        fpc_specs: usize,
    ) -> Vec<WireOp> {
        let mut state = seed ^ 0x3173_5eed;
        let count = |permille: u64| (len as u64 * permille / 1000) as usize;
        let [read, write, hit, miss] = MIX_PERMILLE.map(count);
        let mut kinds: Vec<u8> = [(0u8, read), (1, write), (2, hit), (3, miss)]
            .into_iter()
            .flat_map(|(kind, n)| std::iter::repeat_n(kind, n))
            .collect();
        kinds.resize(len, 4);
        let order = permutation(splitmix64(&mut state), len);
        let pair_order = permutation(splitmix64(&mut state), pairs);
        let (mut writes, mut misses) = (0, 0);
        order
            .into_iter()
            .map(|i| {
                let pick = splitmix64(&mut state);
                match kinds[i] {
                    0 => WireOp::Read((pick % reads as u64) as usize),
                    1 => {
                        writes += 1;
                        WireOp::Write(pair_order[(writes - 1) % pairs])
                    }
                    2 => WireOp::FpcHit((pick % fpc_cached as u64) as usize),
                    3 => {
                        misses += 1;
                        WireOp::FpcMiss((misses - 1) % fpc_specs)
                    }
                    _ => WireOp::Stats,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::openloop::{due_ns, summarize, window_rates, Record};
    use super::spans::{self_time_by_name, self_times, union_len, Span, Tracer};
    use super::stats::{beyond, median, quantile, tail_pick, with_failures};
    use super::stream::{permutation, wire_stream, WireOp};

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(beyond(0.9, 100), 10);
    }

    #[test]
    fn tail_pick_keeps_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
        assert_eq!(tail_pick(100), Some(("p90", 0.90)));
        assert_eq!(tail_pick(199), Some(("p90", 0.90)));
        // 200 samples: p95 leaves 10.
        assert_eq!(tail_pick(200), Some(("p95", 0.95)));
        assert_eq!(tail_pick(999), Some(("p95", 0.95)));
        // 1000 samples: p99 leaves 10.
        assert_eq!(tail_pick(1000), Some(("p99", 0.99)));
        assert_eq!(tail_pick(99), None);
        assert_eq!(tail_pick(0), None);
    }

    #[test]
    fn a_failed_request_misses_every_limit() {
        let samples = with_failures(&[Some(1.0), None, Some(2.0)]);
        assert_eq!(quantile(&samples, 1.0), f64::INFINITY);
        let records = [
            Record {
                due_ns: 0,
                start_ns: 0,
                end_ns: 1_000_000,
                ok: true,
            },
            // Fast, but wrong: it still misses the limit.
            Record {
                due_ns: 0,
                start_ns: 0,
                end_ns: 10,
                ok: false,
            },
        ];
        let s = summarize(&records, 50.0);
        assert_eq!(s.failed, 1);
        assert_eq!(s.good, 1);
        assert_eq!(s.latency_ms[1], f64::INFINITY);
    }

    #[test]
    fn a_stalled_generator_shows_in_latency_and_lateness() {
        // 1000 requests at 100/s; the generator stalls for 200 ms at
        // request 10 and then catches up, sending the backlog at once.
        let rate = 100.0;
        let stall_until = due_ns(10, rate) + 200_000_000;
        let records: Vec<Record> = (0..1000)
            .map(|i| {
                let due = due_ns(i, rate);
                let start = due.max(if i >= 10 {
                    stall_until.min(due + 200_000_000)
                } else {
                    0
                });
                Record {
                    due_ns: due,
                    start_ns: start,
                    end_ns: start + 1_000_000,
                    ok: true,
                }
            })
            .collect();
        let s = summarize(&records, 50.0);
        // Request 10 waited the full stall: 200 ms late, 201 ms latency.
        assert!((s.late_ms[10] - 200.0).abs() < 1e-6);
        assert!((s.latency_ms[10] - 201.0).abs() < 1e-6);
        // Requests due after the stall ended are on time again.
        assert_eq!(s.late_ms[40], 0.0);
        // 20 requests fell behind the 50 ms limit out of 1000: p99
        // lateness is over it, so the run is flagged invalid.
        assert!(!s.valid);
        assert_eq!(s.good, 1000 - 16);
        // An on-time generator is valid.
        let on_time: Vec<Record> = (0..100)
            .map(|i| Record {
                due_ns: due_ns(i, rate),
                start_ns: due_ns(i, rate),
                end_ns: due_ns(i, rate) + 5,
                ok: true,
            })
            .collect();
        assert!(summarize(&on_time, 50.0).valid);
    }

    #[test]
    fn window_rates_count_correct_replies_per_window_of_completions() {
        let at = |end_ms: u64, ok: bool| Record {
            due_ns: 0,
            start_ns: 0,
            end_ns: end_ms * 1_000_000,
            ok,
        };
        let records = [
            at(300, true),
            at(100, true),
            at(250, false),
            at(500, true),
            // A partial last window: dropped.
            at(520, true),
        ];
        // Windows end at 250 ms (1 of 2 correct) and 500 ms (2 of 2).
        assert_eq!(window_rates(&records, 2), vec![4.0, 8.0]);
        // Fewer completions than a window: one window over all of them.
        assert_eq!(window_rates(&records[..2], 10), vec![2.0 / 0.3]);
    }

    #[test]
    fn jittered_arrivals_keep_the_rate_and_the_order() {
        let due = super::openloop::jittered_due_ns(5, 1000, 100.0);
        for (i, d) in due.iter().enumerate() {
            assert!((due_ns(i, 100.0)..=due_ns(i + 1, 100.0)).contains(d));
        }
        assert_eq!(due, super::openloop::jittered_due_ns(5, 1000, 100.0));
        assert_ne!(due, super::openloop::jittered_due_ns(6, 1000, 100.0));
    }

    #[test]
    fn self_time_is_span_minus_union_of_children() {
        assert_eq!(union_len(0, 100, &[(10, 30), (20, 40), (90, 150)]), 40);
        let span = |name, parent, start_ns, end_ns| Span {
            name,
            request: 7,
            parent,
            start_ns,
            end_ns,
        };
        let spans = vec![
            span("request", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 20, 40), // overlaps a: counted once
            span("c", Some(2), 25, 35), // grandchild: only b loses it
        ];
        assert_eq!(self_times(&spans), vec![70, 20, 10, 10]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name[0], ("request", 70));
    }

    #[test]
    fn tracer_nests_spans_under_their_parent() {
        let mut t = Tracer::default();
        t.span("request", 3, || ());
        t.enter("request", 4);
        t.span("store.get", 4, || ());
        t.exit();
        assert_eq!(t.spans[2].parent, Some(1));
        assert_eq!(t.spans[0].parent, None);
        assert!(t.to_json_lines().lines().count() == 3);
    }

    #[test]
    fn an_off_tracer_runs_the_code_and_records_nothing() {
        let mut t = Tracer::off();
        t.enter("request", 1);
        assert_eq!(t.span("store.get", 1, || 5), 5);
        let now = std::time::Instant::now();
        t.record("tower.load", 1, now, now);
        t.exit();
        assert!(!t.is_on());
        assert!(t.spans.is_empty());
    }

    #[test]
    fn streams_are_reproducible_per_seed_and_differ_across_seeds() {
        assert_eq!(permutation(1, 50), permutation(1, 50));
        assert_ne!(permutation(1, 50), permutation(2, 50));
        let mut sorted = permutation(9, 50);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        let a = wire_stream(1, 2000, 4000, 20, 48, 3);
        assert_eq!(a, wire_stream(1, 2000, 4000, 20, 48, 3));
        assert_ne!(a, wire_stream(2, 2000, 4000, 20, 48, 3));
        let count = |f: fn(&WireOp) -> bool| a.iter().filter(|op| f(op)).count();
        assert_eq!(count(|op| matches!(op, WireOp::Read(_))), 1600);
        assert_eq!(count(|op| matches!(op, WireOp::Write(_))), 160);
        assert_eq!(count(|op| matches!(op, WireOp::FpcHit(_))), 100);
        assert_eq!(count(|op| matches!(op, WireOp::FpcMiss(_))), 40);
        assert_eq!(count(|op| matches!(op, WireOp::Stats)), 100);
        // 160 writes over 20 pairs: each pair exactly 8 times.
        let mut per_pair = [0; 20];
        a.iter().for_each(|op| {
            if let WireOp::Write(p) = op {
                per_pair[*p] += 1
            }
        });
        assert_eq!(per_pair, [8; 20]);
    }
}
