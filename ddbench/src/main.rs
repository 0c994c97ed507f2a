//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path ddbench/Cargo.toml -- \
//!     --workload paper_mix --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one workload's cells through the public `testbed` API, single
//! threaded, repeating them until `--seconds` of host time have passed.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` adds a traced
//! run of the same cells and prints the per-layer metrics. Every line but
//! the last is a human-readable `name value unit` row; the last line is
//! one JSON object. See `ddbench/README.md` for the metric definitions.

mod probes;
mod workloads;

use std::time::Instant;

use blkstack::StackStats;
use daredevil::RouteStats;
use dd_metrics::{LatencyHistogram, Span, SpanTable};
use simkit::{Phase, RunArena, SimDuration, SimTime, Sla, TraceSpec};
use testbed::{FleetOutput, Machine, RunOutput, Scenario, TenantKind};

use probes::{count_allocs, min, timed, CountingAlloc};
use workloads::{Cell, Window, Workload, APP_OPS};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Fewest untraced repeats a run makes, however long they take.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: ddbench --workload paper_mix|fleet_1k|fleet_10k|app_mix --seed N --seconds N --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = ["0", "1"].iter().position(|v| *v == value).map(|i| i == 1),
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
        },
        _ => usage(),
    }
}

fn us(d: SimDuration) -> f64 {
    d.as_micros_f64()
}

/// Percentile `p` of `h` in µs, interpolated linearly inside the
/// histogram bucket that holds it. The histogram itself answers with the
/// bucket midpoint (buckets are 2⁻⁷ of the value wide), which reads the
/// same for every seed whose distribution moves by less than a bucket.
fn pct_us(h: &LatencyHistogram, p: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    // Value of the sample at 1-based rank `r`.
    let at = |r: u64| h.percentile(100.0 * (r as f64 - 0.5) / n as f64).as_nanos();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as u64;
    let v = at(rank);
    // First and last rank in `v`'s bucket.
    let (mut lo, mut hi) = (1, rank);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if at(mid) < v {
            lo = mid + 1
        } else {
            hi = mid
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (rank, n);
    while lo < hi {
        let mid = (lo + hi + 1) / 2;
        if at(mid) > v {
            hi = mid - 1
        } else {
            lo = mid
        }
    }
    let width = if v < 128 {
        1
    } else {
        1u64 << (63 - v.leading_zeros() - 6)
    } as f64;
    let frac = ((rank - first) as f64 + 0.5) / (lo - first + 1) as f64;
    let ns = v as f64 - width / 2.0 + frac * width;
    let (min, max) = (h.min().as_nanos() as f64, h.max().as_nanos() as f64);
    ns.clamp(min, max) / 1e3
}

/// SplitMix64 finaliser (digest mixing).
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What the correctness checks need to know about one cell's hosts,
/// fixed before the measured runs.
struct CellFacts {
    /// Per host, per tenant: `Some(iodepth)` for closed-loop FIO tenants.
    closed_depth: Vec<Vec<Option<u32>>>,
    /// Per host, per tenant: I/Os issued by the end of warm-up, from a run
    /// of the same scenario whose window is 1 ns.
    warm_issued: Vec<Vec<u64>>,
}

impl CellFacts {
    fn probe(cell: &Cell, arena: &mut RunArena) -> Self {
        let mut facts = CellFacts {
            closed_depth: Vec::new(),
            warm_issued: Vec::new(),
        };
        for mut scenario in cell.expand() {
            facts.closed_depth.push(closed_depths(&scenario));
            scenario.knobs.measure = SimDuration::from_nanos(1);
            let out = Machine::new_in(scenario, arena).run_in(arena);
            facts
                .warm_issued
                .push(out.tenants().map(|t| t.ios_issued()).collect());
        }
        facts
    }

    /// Request conservation on host `h`: completed ≤ issued for every
    /// tenant, and for closed-loop tenants issued − completed stays within
    /// `iodepth` plus the warm-up issues.
    fn conserves(&self, h: usize, out: &RunOutput) -> bool {
        out.tenants().enumerate().all(|(i, t)| {
            let (issued, done) = (t.ios_issued(), t.ios_completed());
            done <= issued
                && self.closed_depth[h][i].map_or(true, |depth| {
                    issued - done <= depth as u64 + self.warm_issued[h][i]
                })
        })
    }
}

fn closed_depths(scenario: &Scenario) -> Vec<Option<u32>> {
    scenario
        .tenants
        .iter()
        .map(|t| match &t.kind {
            TenantKind::Fio(job) if job.arrival.is_none() => Some(job.iodepth),
            _ => None,
        })
        .collect()
}

/// Segment rows (`layer`, name, from, to) read from the span table.
const SEGMENTS: [(&str, &str, Phase, Phase); 5] = [
    ("blkstack", "submit_us", Phase::Submit, Phase::NsqEnqueue),
    (
        "nvme",
        "fetch_wait_us",
        Phase::NsqEnqueue,
        Phase::DeviceFetch,
    ),
    ("nvme", "flash_us", Phase::DeviceFetch, Phase::FlashDone),
    ("nvme", "irq_us", Phase::FlashDone, Phase::IrqFire),
    ("blkstack", "complete_us", Phase::IrqFire, Phase::Complete),
];

/// The traced run's phase mask: the anchors of [`SEGMENTS`].
fn trace_mask() -> u16 {
    SEGMENTS
        .iter()
        .fold(0, |m, &(_, _, from, to)| m | from.bit() | to.bit())
}

/// Everything the benchmark keeps of one cell run. Each host's
/// `RunOutput` is folded in and dropped as soon as it is produced, so the
/// process holds one host's output at a time.
#[derive(Default)]
struct CellResult {
    stack: &'static str,
    /// Host seconds in `Machine::run_in`, per host.
    host_run_s: Vec<f64>,
    ios: u64,
    events: u64,
    /// Allocations in `Machine::new_in` / `Machine::run_in` (counted runs).
    allocs_build: u64,
    allocs_run: u64,
    cap_growth: u64,
    digest: u64,
    conserved: bool,
    l: LatencyHistogram,
    all: LatencyHistogram,
    ops: LatencyHistogram,
    l_viol: u64,
    l_done: u64,
    t_mbps: f64,
    stats: StackStats,
    route: RouteStats,
    busy: f64,
    pool_cores: usize,
    flash_q_us: f64,
    hosts: usize,
    issued_in_window: u64,
    /// Offered open-loop rate of the cell (`None` for closed loops).
    offered_iops: Option<f64>,
    window_s: f64,
    trace_dropped: u64,
    span_build_s: f64,
    /// (class, segment) histograms of the spans completed in-window.
    segments: Vec<LatencyHistogram>,
}

impl CellResult {
    /// Folds one host's output into the result.
    fn absorb(&mut self, h: usize, pool: u16, mut out: RunOutput, facts: &CellFacts) {
        self.conserved &= facts.conserves(h, &out);
        self.ios += out.tenants().map(|t| t.ios_completed()).sum::<u64>();
        self.events += out.events_processed;
        let (w, e) = (out.cap_warmup, out.cap_end);
        self.cap_growth += (e.io_slots + e.events).saturating_sub(w.io_slots + w.events) as u64;

        let secs = out.summary.window_secs();
        self.window_s = secs;
        for t in out.tenants() {
            self.all.merge(t.latency());
            match t.class() {
                "L" => {
                    self.l.merge(t.latency());
                    self.l_viol += t.slo_violations();
                    self.l_done += t.ios_completed();
                }
                "T" => self.t_mbps += t.bytes_completed() as f64 / 1e6 / secs,
                _ => {}
            }
        }
        let warm: u64 = facts.warm_issued[h].iter().sum();
        self.issued_in_window += out.tenants().map(|t| t.ios_issued()).sum::<u64>() - warm;
        for kind in APP_OPS {
            if let Some(x) = out.op_latencies.get(&kind) {
                self.ops.merge(x);
            }
        }

        let (s, x) = (&mut self.stats, &out.stack_stats);
        s.submitted_rqs += x.submitted_rqs;
        s.local_completions += x.local_completions;
        s.remote_completions += x.remote_completions;
        s.lock_wait_total = s.lock_wait_total + x.lock_wait_total;
        s.lock_contended += x.lock_contended;
        s.requeues += x.requeues;
        s.doorbells += x.doorbells;
        s.steering_actions += x.steering_actions;
        let (r, y) = (&mut self.route, &out.route_stats);
        r.default_routes += y.default_routes;
        r.outlier_routes += y.outlier_routes;
        r.per_request_queries += y.per_request_queries;
        r.tag_changes += y.tag_changes;
        self.busy += out
            .summary
            .core_busy_frac
            .iter()
            .take(pool as usize)
            .sum::<f64>();
        self.pool_cores += pool as usize;
        self.flash_q_us += us(out.flash_queue_delay);
        self.hosts += 1;

        self.trace_dropped += out.trace_dropped;
        let events = std::mem::take(&mut out.trace);
        if !events.is_empty() && self.stack == "daredevil" {
            let (spans, secs) = timed(|| SpanTable::build(&events));
            self.span_build_s += secs;
            let window = (out.summary.window_start, out.summary.window_end);
            self.absorb_spans(&spans, window);
        }

        // The fleet digest of this host, plus what it does not cover: the
        // app-op histograms and the stack and routing counters.
        let fleet = FleetOutput { hosts: vec![out] };
        let mut d = mix64(self.digest ^ h as u64) ^ fleet.digest();
        let out = &fleet.hosts[0];
        let mut absorb = |v: u64| d = mix64(d ^ v).wrapping_add(0x9E37_79B9_7F4A_7C15);
        for kind in APP_OPS {
            if let Some(x) = out.op_latencies.get(&kind) {
                absorb(x.count());
                absorb(x.mean().as_nanos());
                absorb(x.p999().as_nanos());
            }
        }
        let (x, y) = (&out.stack_stats, &out.route_stats);
        for v in [
            x.submitted_rqs,
            x.completed_rqs,
            x.remote_completions,
            x.lock_wait_total.as_nanos(),
            x.lock_contended,
            x.requeues,
            x.doorbells,
            x.steering_actions,
            y.default_routes,
            y.outlier_routes,
            y.per_request_queries,
            y.tag_changes,
        ] {
            absorb(v);
        }
        self.digest = d;
    }

    fn absorb_spans(&mut self, spans: &SpanTable, window: (SimTime, SimTime)) {
        if self.segments.is_empty() {
            self.segments = (0..2 * SEGMENTS.len())
                .map(|_| LatencyHistogram::new())
                .collect();
        }
        for (c, sla) in [Sla::L, Sla::T].into_iter().enumerate() {
            let in_window = |s: &Span| {
                s.sla == sla
                    && s.completed_at()
                        .is_some_and(|t| t >= window.0 && t < window.1)
            };
            for (i, &(_, _, from, to)) in SEGMENTS.iter().enumerate() {
                let h = spans.segment_hist(from, to, in_window);
                self.segments[c * SEGMENTS.len() + i].merge(&h);
            }
        }
    }
}

/// Builds and runs every host of `cell` against `arena`, folding each
/// output into a [`CellResult`].
fn run_cell(cell: &Cell, facts: &CellFacts, arena: &mut RunArena, count: bool) -> CellResult {
    let mut res = CellResult {
        stack: cell.stack(),
        offered_iops: cell.offered_iops(),
        conserved: true,
        ..CellResult::default()
    };
    for (h, scenario) in cell.expand().into_iter().enumerate() {
        let pool = scenario.core_pool;
        let (machine, allocs) = counted(count, || Machine::new_in(scenario, arena));
        res.allocs_build += allocs;
        let ((out, secs), allocs) = counted(count, || timed(|| machine.run_in(arena)));
        res.allocs_run += allocs;
        res.host_run_s.push(secs);
        res.absorb(h, pool, out, facts);
    }
    res
}

fn counted<R>(count: bool, f: impl FnOnce() -> R) -> (R, u64) {
    if count {
        count_allocs(f)
    } else {
        (f(), 0)
    }
}

/// One set-up sample over all cells: `expand`, `Machine::new_in`, and
/// bootstrap, timed as `Machine::run_in` of the same scenario with no
/// warm-up and a 1 µs window.
#[derive(Clone, Copy, Default)]
struct Setup {
    expand_s: f64,
    build_s: f64,
    boot_s: f64,
}

impl Setup {
    fn sample(cells: &[Cell], arena: &mut RunArena) -> Self {
        let mut s = Setup::default();
        for cell in cells {
            let (hosts, secs) = timed(|| cell.expand());
            s.expand_s += secs;
            for mut scenario in hosts {
                scenario.knobs.warmup = SimDuration::ZERO;
                scenario.knobs.measure = SimDuration::from_micros(1);
                let (machine, secs) = timed(|| Machine::new_in(scenario, arena));
                s.build_s += secs;
                let (out, secs) = timed(|| machine.run_in(arena));
                s.boot_s += secs;
                drop(out);
            }
        }
        s
    }

    fn total(&self) -> f64 {
        self.expand_s + self.build_s + self.boot_s
    }
}

/// One repeat: every cell run once.
struct Rep {
    cells: Vec<CellResult>,
}

impl Rep {
    fn ios(&self) -> u64 {
        self.cells.iter().map(|c| c.ios).sum()
    }

    fn events(&self) -> u64 {
        self.cells.iter().map(|c| c.events).sum()
    }

    fn digest(&self) -> u64 {
        self.cells.iter().fold(0, |d, c| mix64(d ^ c.digest))
    }

    /// The cell of stack `name`; every workload runs each stack at most
    /// once.
    fn cell(&self, name: &str) -> Option<&CellResult> {
        self.cells.iter().find(|c| c.stack == name)
    }

    /// The Daredevil cell every workload has.
    fn daredevil(&self) -> &CellResult {
        self.cell("daredevil")
            .expect("every workload runs daredevil")
    }
}

/// Tallies of the correctness checks: each check is one attempted
/// operation.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("ddbench: check failed: {what}");
        }
    }
}

/// One set of cells, its facts, its arena, and the digest every repeat
/// must reproduce.
struct Bench {
    cells: Vec<Cell>,
    facts: Vec<CellFacts>,
    arena: RunArena,
    /// Digest of the first repeat; every later repeat, traced or not,
    /// must reproduce it.
    reference: Option<u64>,
}

impl Bench {
    fn new(cells: Vec<Cell>) -> Self {
        let mut arena = RunArena::new();
        let facts = cells
            .iter()
            .map(|c| CellFacts::probe(c, &mut arena))
            .collect();
        Bench {
            cells,
            facts,
            arena,
            reference: None,
        }
    }

    fn setup(&mut self) -> Setup {
        Setup::sample(&self.cells, &mut self.arena)
    }

    /// Runs every cell once (traced when `trace` is set) and checks it.
    fn rep(&mut self, checks: &mut Checks, trace: Option<TraceSpec>, count: bool) -> Rep {
        let mut cells = Vec::with_capacity(self.cells.len());
        for (cell, facts) in self.cells.iter().zip(&self.facts) {
            let res = run_cell(&cell.with_trace(trace), facts, &mut self.arena, count);
            checks.check(res.conserved, "request conservation");
            cells.push(res);
        }
        let rep = Rep { cells };
        let reference = *self.reference.get_or_insert(rep.digest());
        let what = if trace.is_some() {
            "traced outputs differ from untraced"
        } else {
            "outputs differ between repeats"
        };
        checks.check(rep.digest() == reference, what);
        rep
    }
}

/// Metric rows: name, value, unit.
type Metrics = Vec<(String, f64, &'static str)>;

fn push(m: &mut Metrics, name: impl Into<String>, value: f64, unit: &'static str) {
    m.push((name.into(), value, unit));
}

/// The modelled end-to-end metrics, read from the Daredevil cell.
/// Returns the rows plus the L and op sample counts.
fn modelled(rep: &Rep, workload: Workload) -> (Metrics, u64, u64) {
    let dare = rep.daredevil();
    // An application op on app_mix; one I/O of any class elsewhere.
    let ops = if workload == Workload::AppMix {
        &dare.ops
    } else {
        &dare.all
    };
    let mut m = Metrics::new();
    push(&mut m, "l_p50_us", pct_us(&dare.l, 50.0), "us");
    push(&mut m, "l_p999_us", pct_us(&dare.l, 99.9), "us");
    let viol = 100.0 * dare.l_viol as f64 / dare.l_done.max(1) as f64;
    push(&mut m, "l_slo_viol_pct", viol, "%");
    push(&mut m, "t_mbps", dare.t_mbps, "MB/s");
    push(&mut m, "op_p999_us", pct_us(ops, 99.9), "us");
    (m, dare.l.count(), ops.count())
}

/// Each machine's fastest `Machine::run_in` over a run's repeats.
///
/// Neighbours on a shared host slow this process by up to 2× for seconds
/// at a time, so a median over repeats still swings between processes.
/// The fastest repeat of each machine (as `timeit` reports) is the
/// undisturbed cost: it cannot read faster than the code runs.
#[derive(Default)]
struct Fastest {
    secs: Vec<f64>,
}

impl Fastest {
    fn absorb(&mut self, rep: &Rep) {
        let secs = rep.cells.iter().flat_map(|c| c.host_run_s.iter().copied());
        if self.secs.is_empty() {
            self.secs = secs.collect();
        } else {
            for (best, s) in self.secs.iter_mut().zip(secs) {
                *best = best.min(s);
            }
        }
    }

    fn total(&self) -> f64 {
        self.secs.iter().sum()
    }
}

/// Checks that the modelled metrics rest on enough samples.
fn check_samples(checks: &mut Checks, l_samples: u64, op_samples: u64) {
    checks.check(l_samples >= 10_000, "at least 10 L samples beyond p99.9");
    checks.check(op_samples >= 10_000, "at least 10 op samples beyond p99.9");
}

/// The untraced end-to-end run: one run of the model-window cells for the
/// modelled metrics, then a set-up sample and a run of every host-window
/// cell per repeat, until the deadline.
fn end_to_end(args: &Args, checks: &mut Checks, m: &mut Metrics, start: Instant) {
    let mut model = Bench::new(args.workload.cells(args.seed, Window::Model));
    let long = model.rep(checks, None, false);
    let mut host = Bench::new(args.workload.cells(args.seed, Window::Host));
    let (mut fastest, mut setups, mut first) = (Fastest::default(), vec![], None);
    while setups.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        setups.push(host.setup().total());
        let rep = host.rep(checks, None, false);
        fastest.absorb(&rep);
        first.get_or_insert(rep);
    }
    let first = first.expect("at least one repeat");
    push(
        m,
        "sim_ios_per_s",
        first.ios() as f64 / fastest.total(),
        "io/s",
    );
    push(m, "setup_s", min(&setups), "s");
    let rss = probes::peak_rss_mib();
    checks.check(rss.is_some(), "peak RSS readable");
    push(m, "peak_rss_mib", rss.unwrap_or(0.0), "MiB");
    let (model, l_samples, op_samples) = modelled(&long, args.workload);
    check_samples(checks, l_samples, op_samples);
    m.extend(model);
    eprintln!(
        "ddbench: {} repeats; {l_samples} L samples, {op_samples} op samples",
        setups.len()
    );
}

/// The traced run. One run of the model-window cells (the stack, routing,
/// CPU and generator counters behind the modelled metrics); isolated
/// layer timers; then, on the host-window cells, one warm-up and two
/// allocation-counted repeats, and alternating untraced and traced
/// repeats until the deadline (the segments come from the first traced
/// repeat).
fn traced(args: &Args, checks: &mut Checks, m: &mut Metrics, start: Instant) {
    let spec = TraceSpec {
        cap: args.workload.trace_cap(),
        mask: trace_mask(),
    };
    let long = Bench::new(args.workload.cells(args.seed, Window::Model)).rep(checks, None, false);

    // Isolated timers, each calling one public function on the workload's
    // own inputs.
    let mut host = Bench::new(args.workload.cells(args.seed, Window::Host));
    let host0 = host.cells[0].expand().swap_remove(0);
    let register: Vec<(&str, f64)> = probes::all_stacks()
        .iter()
        .map(|s| (s.name(), probes::register_ns_per_tenant(s, &host0)))
        .collect();
    let ycsb_ns = probes::ycsb_ns_per_op(args.seed);
    let mail_ns = probes::mail_ns_per_op(args.seed);

    // Warm the arena, then two counted repeats whose counts must agree.
    let first = host.rep(checks, None, false);
    let allocs = |r: &Rep| {
        r.cells
            .iter()
            .fold((0, 0), |(b, x), c| (b + c.allocs_build, x + c.allocs_run))
    };
    let (a, b) = (host.rep(checks, None, true), host.rep(checks, None, true));
    checks.check(allocs(&a) == allocs(&b), "allocation counts repeat");
    let (allocs_build, allocs_run) = allocs(&a);

    let (mut setups, mut plain, mut traced) = (vec![], Fastest::default(), Fastest::default());
    let (mut span_build, mut dropped, mut first_traced) = (vec![], 0, None);
    while span_build.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        setups.push(host.setup());
        plain.absorb(&host.rep(checks, None, false));
        let tr = host.rep(checks, Some(spec), false);
        traced.absorb(&tr);
        dropped += tr.cells.iter().map(|c| c.trace_dropped).sum::<u64>();
        span_build.push(tr.daredevil().span_build_s);
        first_traced.get_or_insert(tr);
    }
    checks.check(dropped == 0, "trace ring dropped events");

    // Host times at their fastest repeat, as in the end-to-end run.
    let setup = |f: fn(&Setup) -> f64| min(&setups.iter().map(f).collect::<Vec<_>>());
    let boot_s = setup(|s| s.boot_s);
    let ios = first.ios() as f64;
    let loop_s = plain.total() - boot_s;
    push(m, "testbed.expand_s", setup(|s| s.expand_s), "s");
    push(m, "testbed.build_s", setup(|s| s.build_s), "s");
    push(m, "testbed.bootstrap_s", boot_s, "s");
    push(m, "testbed.loop_s", loop_s, "s");
    push(
        m,
        "testbed.host_ns_per_event",
        1e9 * loop_s / first.events() as f64,
        "ns",
    );
    push(
        m,
        "testbed.events_per_io",
        first.events() as f64 / ios,
        "count",
    );
    push(m, "testbed.allocs_build", allocs_build as f64, "count");
    push(m, "testbed.allocs_per_io", allocs_run as f64 / ios, "count");
    let cap_growth: u64 = long.cells.iter().map(|c| c.cap_growth).sum();
    push(m, "testbed.cap_growth", cap_growth as f64, "count");
    let (_, l_samples, op_samples) = modelled(&long, args.workload);
    check_samples(checks, l_samples, op_samples);
    push(m, "metrics.l_samples", l_samples as f64, "count");
    push(m, "metrics.op_samples", op_samples as f64, "count");

    for (name, ns) in register {
        push(m, format!("{name}.register_ns_per_tenant"), ns, "ns");
        stack_layers(m, &long, name);
    }
    daredevil_layers(m, &long);
    let first_traced = first_traced.expect("at least one traced repeat");
    let dare = first_traced.daredevil();
    for (c, cls) in ["L", "T"].into_iter().enumerate() {
        for (i, &(layer, name, _, _)) in SEGMENTS.iter().enumerate() {
            let h = &dare.segments[c * SEGMENTS.len() + i];
            push(m, format!("{layer}.{cls}.{name}.mean"), us(h.mean()), "us");
            push(
                m,
                format!("{layer}.{cls}.{name}.p99"),
                pct_us(h, 99.0),
                "us",
            );
        }
    }
    push(m, "workload.ycsb_ns_per_op", ycsb_ns, "ns");
    push(m, "workload.mail_ns_per_op", mail_ns, "ns");
    push(m, "metrics.span_build_s", min(&span_build), "s");
    let overhead = 100.0 * ((traced.total() - boot_s) / loop_s - 1.0);
    push(m, "trace.overhead_pct", overhead, "%");
    push(m, "trace.dropped", dropped as f64, "count");
}

/// Per-stack layer metrics from the stack's own counters (all zero when
/// the workload does not run `name`).
fn stack_layers(m: &mut Metrics, rep: &Rep, name: &'static str) {
    let cell = rep.cell(name);
    let s = cell.map(|c| c.stats).unwrap_or_default();
    let rqs = s.submitted_rqs.max(1) as f64;
    let completions = (s.local_completions + s.remote_completions).max(1) as f64;
    push(
        m,
        format!("{name}.doorbells_per_rq"),
        s.doorbells as f64 / rqs,
        "count",
    );
    push(
        m,
        format!("{name}.lock_wait_us"),
        us(s.lock_wait_total),
        "us",
    );
    push(
        m,
        format!("{name}.lock_contended"),
        s.lock_contended as f64,
        "count",
    );
    let remote = 100.0 * s.remote_completions as f64 / completions;
    push(m, format!("{name}.remote_completion_pct"), remote, "%");
    push(m, format!("{name}.requeues"), s.requeues as f64, "count");
    if name == "blk-switch" {
        push(
            m,
            "blk-switch.steering_actions",
            s.steering_actions as f64,
            "count",
        );
    }
    if name != "daredevil" {
        // Controls: a Daredevil-only change must not move these.
        let (l_p999, t_mbps) = cell.map_or((0.0, 0.0), |c| (pct_us(&c.l, 99.9), c.t_mbps));
        push(m, format!("{name}.l_p999_us"), l_p999, "us");
        push(m, format!("{name}.t_mbps"), t_mbps, "MB/s");
    }
}

/// Routing, CPU, device-queue and generator layer metrics of the
/// Daredevil cell.
fn daredevil_layers(m: &mut Metrics, rep: &Rep) {
    let c = rep.daredevil();
    let r = &c.route;
    push(m, "core.default_routes", r.default_routes as f64, "count");
    push(m, "core.outlier_routes", r.outlier_routes as f64, "count");
    push(
        m,
        "core.per_request_queries",
        r.per_request_queries as f64,
        "count",
    );
    push(m, "core.tag_changes", r.tag_changes as f64, "count");
    push(m, "cpu.util_pct", 100.0 * c.busy / c.pool_cores as f64, "%");
    push(
        m,
        "nvme.flash_queue_us",
        c.flash_q_us / c.hosts as f64,
        "us",
    );
    // A closed loop offers exactly what it issues.
    let issued = c.issued_in_window as f64;
    let offered = c.offered_iops.map_or(issued, |rate| rate * c.window_s);
    push(m, "workload.delivered_ratio", issued / offered, "ratio");
}

fn main() {
    let args = parse_args();
    let start = Instant::now();
    let mut checks = Checks::default();
    let mut metrics = Metrics::new();
    if args.trace {
        traced(&args, &mut checks, &mut metrics, start);
    } else {
        end_to_end(&args, &mut checks, &mut metrics, start);
    }

    for (_, value, _) in &mut metrics {
        *value += 0.0; // prints an empty sum's -0 as 0
    }
    for (name, value, unit) in &metrics {
        println!("{name:<40} {value:>18.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not finite");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
}
