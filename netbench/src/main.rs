//! netbench: the netobj benchmark over loopback TCP and the reactor.
//!
//! ```text
//! netbench --workload <null_tcp|bulk_64k|ref_churn> --seed <n> --seconds <s> --trace <0|1>
//!          [--compare <earlier-output-file>]
//! ```
//!
//! One process builds an agent, an owner O, a third party S and a client
//! space, all on 127.0.0.1 TCP with default `Options`, and drives a closed
//! loop from two caller threads that share the client space. `--trace 0`
//! prints the end-to-end metrics of one timed window; `--trace 1` runs an
//! untraced window and then a traced one, half the time each, and prints
//! the per-layer breakdown. The last line of standard output is one JSON
//! object. The exit code is non-zero when any op or end-of-run check
//! failed.

mod layers;
mod ops;
mod procfs;
mod report;
mod spans;
mod world;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use netobj::{Gauges, StatsSnapshot};

use ops::{CallerResult, Callers, Report, Stop, Workload, CALLERS};
use procfs::HostStamp;
use report::Metric;
use spans::{SpanSums, Tracer};
use world::World;

/// The quantile of the sub-windows an end-to-end time metric takes (see
/// [`end_to_end`]).
const BETTER_QUARTILE: f64 = 0.25;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// How often a traced window drains the span rings (4096 spans each).
const TICK: Duration = Duration::from_millis(50);
/// Longest wait for the object tables to return to their baselines.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

/// End-to-end metrics printed on every run but left out of the result
/// line. `failed_frac` is 0 on every correct run, and the result line
/// carries it as `failed` / `attempted`. `ops_per_s` and `op_p99_us` move
/// with the shared host's load by more than any bound the benchmark could
/// set (see README.md).
const UNGATED: [&str; 3] = ["failed_frac", "ops_per_s", "op_p99_us"];

const USAGE: &str = "usage: netbench --workload <null_tcp|bulk_64k|ref_churn> --seed <n> \
                     --seconds <s> --trace <0|1> [--compare <earlier-output-file>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    compare: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut compare = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} {value:?}: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a number"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or(bad("want s > 0"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                })
            }
            "--compare" => compare = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        compare,
    })
}

/// Object-table sizes that every run must come back to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Tables {
    o_exports: usize,
    s_surrogates: usize,
    client_surrogates: usize,
}

impl Tables {
    fn read(w: &World) -> Tables {
        Tables {
            o_exports: w.o.exported_count(),
            s_surrogates: w.s.imported_count(),
            client_surrogates: w.client.imported_count(),
        }
    }

    /// Waits until the tables are back at `self`; the error names the
    /// table that leaked.
    fn wait_for(&self, w: &World) -> Result<Duration, String> {
        let t0 = Instant::now();
        loop {
            let now = Tables::read(w);
            if now == *self {
                return Ok(t0.elapsed());
            }
            if t0.elapsed() > DRAIN_LIMIT {
                return Err(format!(
                    "object tables did not return to baseline within {DRAIN_LIMIT:?}: \
                     O exports {} (baseline {}), S surrogates {} (baseline {}), \
                     client surrogates {} (baseline {})",
                    now.o_exports,
                    self.o_exports,
                    now.s_surrogates,
                    self.s_surrogates,
                    now.client_surrogates,
                    self.client_surrogates
                ));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

/// One sub-window of a timed window.
#[derive(Debug, Default, Clone)]
struct Sub {
    ops: usize,
    secs: f64,
    cpu_us: f64,
    p50_us: f64,
    p99_us: f64,
    /// Samples beyond `p99_us`.
    beyond_p99: usize,
}

/// Gathers the callers' per-sub-window latencies and reduces a sub-window
/// to its percentiles as soon as every caller has moved past it, so the
/// samples held stay bounded by a couple of sub-windows.
struct SubWindows {
    subs: Vec<Sub>,
    pending: BTreeMap<usize, Vec<u64>>,
    /// Per caller, the latest sub-window it reported (`usize::MAX` once
    /// its loop ended).
    latest: [usize; CALLERS],
}

impl SubWindows {
    fn new(n: usize) -> SubWindows {
        SubWindows {
            subs: vec![Sub::default(); n],
            pending: BTreeMap::new(),
            latest: [0; CALLERS],
        }
    }

    fn add(&mut self, caller: usize, index: usize, lat_ns: Vec<u64>) {
        self.pending.entry(index).or_default().extend(lat_ns);
        self.latest[caller] = index;
        self.settle();
    }

    fn done(&mut self, caller: usize) {
        self.latest[caller] = usize::MAX;
        self.settle();
    }

    fn settle(&mut self) {
        let complete = *self.latest.iter().min().expect("callers");
        while let Some(entry) = self.pending.first_entry() {
            if *entry.key() >= complete {
                break;
            }
            let (index, mut lat) = entry.remove_entry();
            let n = lat.len();
            if n == 0 {
                continue;
            }
            lat.sort_unstable();
            let p99 = ((n as f64 * 0.99).ceil() as usize).clamp(1, n) - 1;
            let sub = &mut self.subs[index];
            sub.ops = n;
            sub.p50_us = lat[n / 2] as f64 / 1e3;
            sub.p99_us = lat[p99] as f64 / 1e3;
            sub.beyond_p99 = n - p99 - 1;
        }
    }
}

/// Everything measured over one timed window.
struct Window {
    r: CallerResult,
    subs: Vec<Sub>,
    /// From the first op to the tables being back at baseline.
    elapsed: Duration,
    drain: Duration,
    cpu_us: f64,
    /// Per space (client, O, S, agent): stats before and after.
    stats: Vec<(StatsSnapshot, StatsSnapshot)>,
    /// Per server (O, S, agent): gauges before and after.
    gauges: Vec<(Gauges, Gauges)>,
    busy: BTreeMap<&'static str, f64>,
    other_threads: BTreeMap<String, f64>,
    /// O's exports above baseline, sampled at every drain.
    backlog: Vec<u64>,
    spans: Option<SpanSums>,
    /// End-of-run check failures.
    problems: Vec<String>,
}

impl Window {
    fn ops(&self) -> f64 {
        self.r.ops as f64
    }

    fn per_op(&self, x: f64) -> f64 {
        x / self.ops()
    }

    /// A counter's change over the window, summed over every space.
    fn stat(&self, f: impl Fn(&StatsSnapshot) -> u64) -> f64 {
        self.stats.iter().map(|(a, b)| (f(b) - f(a)) as f64).sum()
    }

    /// A counter's change over the window on O.
    fn o_stat(&self, f: impl Fn(&StatsSnapshot) -> u64) -> f64 {
        let (a, b) = &self.stats[1];
        (f(b) - f(a)) as f64
    }

    fn gauge_delta(&self, f: impl Fn(&Gauges) -> u64) -> f64 {
        self.gauges.iter().map(|(a, b)| (f(b) - f(a)) as f64).sum()
    }

    fn gauge_max(&self, f: impl Fn(&Gauges) -> u64) -> f64 {
        self.gauges.iter().map(|(_, b)| f(b)).max().unwrap_or(0) as f64
    }

    fn ops_per_s(&self) -> f64 {
        self.ops() / self.elapsed.as_secs_f64()
    }

    fn mean_op_us(&self) -> f64 {
        self.r.lat_sum_ns as f64 / self.ops() / 1e3
    }

    /// The `q` quantile over the sub-windows of `f`.
    fn sub_quantile(&self, q: f64, f: impl Fn(&Sub) -> f64) -> f64 {
        quantile(self.subs.iter().map(f).collect(), q)
    }

    /// Lowest and highest over the sub-windows of `f`.
    fn sub_range(&self, f: impl Fn(&Sub) -> f64) -> (f64, f64) {
        self.subs
            .iter()
            .map(f)
            .fold((f64::MAX, f64::MIN), |(lo, hi), x| (lo.min(x), hi.max(x)))
    }
}

fn run_window(
    world: &World,
    callers: &Callers,
    tables: &Tables,
    seconds: u64,
    traced: bool,
) -> Window {
    let stats0: Vec<StatsSnapshot> = world.spaces().iter().map(|s| s.stats()).collect();
    let gauges0: Vec<Gauges> = world.servers().iter().map(|s| s.metrics().gauges).collect();
    let threads0 = procfs::thread_cpu();
    let mut tracer = traced.then(|| {
        Tracer::new(&[
            world.client.span_ring(),
            world.o.span_ring(),
            world.s.span_ring(),
        ])
    });
    let mut backlog = Vec::new();
    // The window is cut into sub-windows; the end-to-end figures are
    // medians over them, which a burst of host noise in one sub-window
    // cannot move.
    let sub_window = callers.workload().sub_window();
    let n = ((seconds as u128 * 1_000_000_000 / sub_window.as_nanos()) as usize).max(1);
    let mut subs = SubWindows::new(n);
    let mut r = CallerResult::default();

    // Process CPU time at the start of each sub-window.
    let mut cpu_marks = vec![procfs::process_cpu_us()];
    let t0 = Instant::now();
    callers.start(Stop::Window {
        start: t0,
        end: t0 + Duration::from_secs(seconds),
        sub: sub_window,
        subs: n,
    });
    let mut next_drain = t0 + TICK;
    let mut running = CALLERS;
    while running > 0 {
        let next_mark = t0 + sub_window * cpu_marks.len() as u32;
        let mut wake = if cpu_marks.len() < n {
            next_mark
        } else {
            t0 + Duration::from_secs(seconds) + TICK
        };
        if tracer.is_some() {
            wake = wake.min(next_drain);
        }
        match callers.recv(wake.saturating_duration_since(Instant::now())) {
            Some(Report::Sub {
                caller,
                index,
                lat_ns,
            }) => subs.add(caller, index, lat_ns),
            Some(Report::Done { caller, result }) => {
                subs.done(caller);
                r.merge(result);
                running -= 1;
            }
            None => {}
        }
        let now = Instant::now();
        if cpu_marks.len() < n && now >= next_mark {
            cpu_marks.push(procfs::process_cpu_us());
        }
        if let Some(t) = tracer.as_mut().filter(|_| now >= next_drain) {
            t.drain();
            backlog.push(world.o.exported_count().saturating_sub(tables.o_exports) as u64);
            next_drain += TICK;
        }
    }
    let mut problems = Vec::new();
    // The wait for the tables counts in the window, and so in the last
    // sub-window.
    let drain = tables.wait_for(world).unwrap_or_else(|e| {
        problems.push(e);
        DRAIN_LIMIT
    });
    let elapsed = t0.elapsed();
    let cpu_end = procfs::process_cpu_us();
    let cpu_us = cpu_end - cpu_marks[0];
    // Marks the main thread missed (it was never late by a whole
    // sub-window in practice) read as the end.
    cpu_marks.resize(n, cpu_end);
    cpu_marks.push(cpu_end);
    let mut subs = subs.subs;
    for (k, sub) in subs.iter_mut().enumerate() {
        sub.cpu_us = cpu_marks[k + 1] - cpu_marks[k];
        sub.secs = sub_window.as_secs_f64();
    }
    subs[n - 1].secs = elapsed.as_secs_f64() - sub_window.as_secs_f64() * (n - 1) as f64;

    let (busy, other_threads) = procfs::busy_by_group(&threads0, &procfs::thread_cpu());
    if let Some(t) = tracer.as_mut() {
        t.drain();
    }
    let stats: Vec<(StatsSnapshot, StatsSnapshot)> = stats0
        .into_iter()
        .zip(world.spaces().iter().map(|s| s.stats()))
        .collect();
    let gauges = gauges0
        .into_iter()
        .zip(world.servers().iter().map(|s| s.metrics().gauges))
        .collect();
    let mut w = Window {
        r,
        subs,
        elapsed,
        drain,
        cpu_us,
        stats,
        gauges,
        busy,
        other_threads,
        backlog,
        spans: tracer.map(|t| t.sums),
        problems,
    };
    let collected = w.o_stat(|s| s.exports_collected);
    let expected = match callers.workload() {
        Workload::RefChurn => w.ops(),
        _ => 0.0,
    };
    if collected != expected {
        w.problems.push(format!(
            "O collected {collected} exports over the window, expected {expected}"
        ));
    }
    w
}

/// The end-to-end metrics: quartiles over the sub-windows, with the
/// whole-window figure or the sub-window range alongside. Each takes the
/// quartile on its better side, the lower one for times and the upper one
/// for `ops_per_s`. The shared host's load comes and goes over seconds to
/// minutes and mostly adds time; the better quarter of a run's seconds
/// moves with it less than the median does when a burst of load covers
/// part of a run.
fn end_to_end(w: &Window, setup_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
    let subs = w.subs.len();
    let fewest = w.subs.iter().map(|s| s.ops).min().unwrap_or(0);
    let fewest_beyond = w.subs.iter().map(|s| s.beyond_p99).min().unwrap_or(0);
    let range = |f: fn(&Sub) -> f64| {
        let (lo, hi) = w.sub_range(f);
        format!("{lo:.1}..{hi:.1}")
    };
    let mut enough = format!(
        "lower quartile of sub-windows {}; each >= {fewest_beyond} beyond p99",
        range(|s| s.p99_us)
    );
    if fewest_beyond < 100 {
        enough.push_str("; FEWER THAN 100 BEYOND p99 IN A SUB-WINDOW");
    }
    let low = |f: fn(&Sub) -> f64| w.sub_quantile(BETTER_QUARTILE, f);
    let throughput = format!(
        "upper quartile of {subs} sub-windows; whole window {:.1}: {} ops in {:.3} s incl. drain",
        w.ops_per_s(),
        w.r.ops,
        w.elapsed.as_secs_f64()
    );
    let latency = format!(
        "lower quartile of sub-windows {}; each n >= {fewest}, {} in all",
        range(|s| s.p50_us),
        w.r.ops
    );
    let cpu = format!(
        "lower quartile of sub-windows; whole window {:.2}",
        w.per_op(w.cpu_us)
    );
    vec![
        Metric::new("setup_s", "s", setup_s).note(format!("median of {SETUP_REPS} set-ups")),
        Metric::new(
            "ops_per_s",
            "1/s",
            w.sub_quantile(1.0 - BETTER_QUARTILE, |s| s.ops as f64 / s.secs),
        )
        .note(throughput),
        Metric::new("op_p50_us", "us", low(|s| s.p50_us)).note(latency),
        Metric::new("op_p99_us", "us", low(|s| s.p99_us)).note(enough),
        Metric::new("failed_frac", "frac", w.per_op(w.r.failed as f64))
            .note(format!("{} of {}", w.r.failed, w.r.ops)),
        Metric::new("cpu_us_per_op", "us", low(|s| s.cpu_us / s.ops as f64)).note(cpu),
        Metric::new("peak_rss_mb", "MiB", peak_rss_mb).note("VmHWM after the timed windows"),
    ]
}

fn median(v: Vec<f64>) -> f64 {
    quantile(v, 0.5)
}

/// The `q` quantile of `v`, taken at the nearest rank.
fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((v.len() as f64 - 1.0) * q).round() as usize;
    v.get(rank).copied().unwrap_or(0.0)
}

fn per_layer(
    workload: Workload,
    w: &Window,
    untraced: &Window,
    layers: &layers::LayerCosts,
    setups: &[world::SetupTimes],
) -> Vec<Metric> {
    let sp = w.spans.clone().unwrap_or_default();
    let calls = workload.calls_per_op();
    let client_mean = sp.client_us / sp.client_n as f64;
    let stub_us = w.r.stub_ns as f64 / 1e3 / w.r.stub_calls as f64 - client_mean;
    let hop_us = sp.hop_us / sp.paired as f64;
    let server_us = sp.server_other_us / sp.server_n as f64;
    let queue_wait_us = sp.queue_wait_us / sp.server_n as f64;
    let service_us = sp.service_us / sp.server_n as f64;
    let residual =
        w.mean_op_us() - calls * (stub_us + hop_us + server_us + queue_wait_us + service_us);
    let flushes = w.gauge_delta(|g| g.reactor_flush_syscalls);
    let clean_batches = w.stat(|s| s.clean_batches);
    let mut qw = sp.queue_waits.clone();
    qw.sort_unstable();
    let qw_p99 = qw
        .get(((qw.len() as f64 * 0.99).ceil() as usize).saturating_sub(1))
        .copied()
        .unwrap_or(0);
    let no_cleans = if clean_batches == 0.0 {
        "no clean batches"
    } else {
        ""
    };
    let mut m = vec![
        Metric::new("wire.encode_ns", "ns", layers.encode_ns),
        Metric::new("wire.decode_ns", "ns", layers.decode_ns),
        Metric::new("wire.frame_ns", "ns", layers.frame_ns),
        Metric::new(
            "wire.bytes_per_op",
            "B",
            sp.client_bytes / sp.client_n as f64 * calls,
        ),
        Metric::new("transport.frame_rtt_us", "us", layers.frame_rtt_us),
        Metric::new("transport.hop_us", "us", hop_us).note(format!("{} pairs", sp.paired)),
        Metric::new(
            "transport.frames_per_flush",
            "count",
            w.gauge_delta(|g| g.reactor_frames_flushed) / flushes,
        ),
        Metric::new("transport.flushes_per_op", "count", w.per_op(flushes)),
        Metric::new(
            "transport.readiness_high_water",
            "count",
            w.gauge_max(|g| g.reactor_readiness_high_water),
        )
        .note("since the servers started"),
        Metric::new("rpc.raw_call_us", "us", layers.raw_call_us),
        Metric::new("rpc.server_us", "us", server_us),
        Metric::new("rpc.queue_wait_us", "us", queue_wait_us),
        Metric::new("rpc.queue_wait_p99_us", "us", qw_p99 as f64)
            .note(format!("{} server spans", qw.len())),
        Metric::new(
            "rpc.queue_high_water",
            "count",
            w.gauge_max(|g| g.server_queue_high_water),
        )
        .note("since the servers started"),
        Metric::new(
            "rpc.retries_per_op",
            "count",
            w.per_op(w.stat(|s| s.retries_attempted)),
        ),
        Metric::new(
            "rpc.shed_per_op",
            "count",
            w.per_op(w.stat(|s| s.calls_shed_global + s.calls_shed_quota)),
        ),
        Metric::new("rpc.reconnects", "count", w.stat(|s| s.reconnects)),
        Metric::new("rpc.calls_over_100ms", "count", w.r.slow_total() as f64)
            .note(w.r.slow_summary()),
        Metric::new("core.stub_us", "us", stub_us),
        Metric::new("core.service_us", "us", service_us),
        Metric::new(
            "core.served_per_op",
            "count",
            w.per_op(w.stat(|s| s.calls_served)),
        ),
        Metric::new(
            "core.dirty_per_op",
            "count",
            w.per_op(w.stat(|s| s.dirty_sent)),
        ),
        Metric::new(
            "core.clean_per_op",
            "count",
            w.per_op(w.stat(|s| s.clean_sent)),
        ),
        Metric::new(
            "core.cleans_per_batch",
            "count",
            w.stat(|s| s.clean_sent) / clean_batches,
        )
        .note(no_cleans),
        Metric::new(
            "core.blocked_us_per_op",
            "us",
            w.per_op(w.stat(|s| s.blocked_ns)) / 1e3,
        ),
        Metric::new(
            "core.collected_per_op",
            "count",
            w.per_op(w.o_stat(|s| s.exports_collected)),
        ),
        Metric::new(
            "core.gc_backlog_p50",
            "count",
            median(w.backlog.iter().map(|&b| b as f64).collect()),
        )
        .note(format!("{} samples", w.backlog.len())),
        Metric::new("core.drain_ms", "ms", w.drain.as_secs_f64() * 1e3),
        Metric::new(
            "agent.get_us",
            "us",
            median(
                setups
                    .iter()
                    .map(|s| s.agent_get.as_secs_f64() * 1e6)
                    .collect(),
            ),
        ),
        Metric::new(
            "core.import_root_us",
            "us",
            median(
                setups
                    .iter()
                    .map(|s| s.import_root.as_secs_f64() * 1e6)
                    .collect(),
            ),
        ),
    ];
    for (group, us) in &w.busy {
        m.push(Metric::new(
            &format!("threads.{group}"),
            "us",
            w.per_op(*us),
        ));
    }
    m.extend([
        Metric::new(
            "trace.overhead_frac",
            "frac",
            1.0 - w.ops_per_s() / untraced.ops_per_s(),
        ),
        Metric::new("residual_us", "us", residual),
        Metric::new(
            "trace.spans_dropped",
            "count",
            sp.recorded.saturating_sub(sp.captured) as f64,
        )
        .note(format!("{} of {} spans captured", sp.captured, sp.recorded)),
    ]);
    m
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("netbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = HostStamp::read();
    let workload = args.workload;
    println!(
        "# netbench workload={} seed={} seconds={} trace={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# host {}", host.to_json());
    println!(
        "# load: closed loop, {CALLERS} caller threads sharing one client space \
         (one pooled connection to O, one to S); 127.0.0.1 TCP through the host's \
         loopback interface, not a real link"
    );

    let (world, first_setup) = World::build();
    let tables = Tables::read(&world);
    let callers = Callers::spawn(workload, args.seed, &world.svc_o, &world.svc_s);
    let mut attempted = 0;
    let mut failed = 0;
    let mut errors = Vec::new();
    let mut problems = Vec::new();

    let warm = callers.run(Stop::Ops(workload.warmup_ops()));
    attempted += warm.ops;
    failed += warm.failed;
    errors.extend(warm.errors);
    if let Err(e) = tables.wait_for(&world) {
        problems.push(format!("after warm-up: {e}"));
    }

    // A traced run splits its time between an untraced and a traced
    // window, so that every run measures for `--seconds` in all.
    let window = match args.trace {
        true => (args.seconds / 2).max(1),
        false => args.seconds,
    };
    let untraced = run_window(&world, &callers, &tables, window, false);
    let traced = args
        .trace
        .then(|| run_window(&world, &callers, &tables, window, true));
    let peak_rss = procfs::peak_rss_mb();
    let layers = args.trace.then(|| layers::measure(workload, args.seed));
    callers.join();
    World::shutdown(world);

    // The other set-ups come after the measurement: a set of spaces that
    // is shut down keeps about 13 MiB allocated, which must not count in
    // `peak_rss_mb`.
    let mut setups = vec![first_setup];
    for _ in 1..SETUP_REPS {
        let (w, t) = World::build();
        setups.push(t);
        World::shutdown(w);
    }
    let setup_s = median(setups.iter().map(|s| s.total.as_secs_f64()).collect());

    let metrics = match (&traced, &layers) {
        (Some(traced), Some(layers)) => {
            report::print_table(
                "end-to-end, untraced window",
                &end_to_end(&untraced, setup_s, peak_rss),
            );
            report::print_table(
                "end-to-end, traced window",
                &end_to_end(traced, setup_s, peak_rss),
            );
            let m = per_layer(workload, traced, &untraced, layers, &setups);
            report::print_table("per layer, traced window", &m);
            print_reconciliation(workload, &untraced, traced, &m);
            m
        }
        _ => {
            let e2e = end_to_end(&untraced, setup_s, peak_rss);
            report::print_table("end-to-end", &e2e);
            e2e.into_iter()
                .filter(|m| !UNGATED.contains(&m.name.as_str()))
                .collect()
        }
    };

    let windows =
        std::iter::once(("untraced", &untraced)).chain(traced.iter().map(|t| ("traced", t)));
    for (name, w) in windows {
        attempted += w.r.ops;
        failed += w.r.failed;
        errors.extend(w.r.errors.iter().cloned());
        problems.extend(w.problems.iter().map(|p| format!("{name} window: {p}")));
        println!(
            "# {name} window: {} stub calls over 100 ms [{}]; busy us/op by thread group: {}; \
             other threads: {}",
            w.r.slow_total(),
            w.r.slow_summary(),
            fmt_groups(w.busy.iter().map(|(k, v)| (k.to_string(), w.per_op(*v)))),
            fmt_groups(
                w.other_threads
                    .iter()
                    .map(|(k, v)| (k.clone(), w.per_op(*v)))
            ),
        );
    }

    for e in errors.iter().take(8) {
        println!("# op failed: {e}");
    }
    for p in &problems {
        println!("# check failed: {p}");
    }
    if let Some(path) = &args.compare {
        match std::fs::read_to_string(path) {
            Ok(text) => report::print_comparison(&text, &host, &metrics),
            Err(e) => println!("# cannot read {path}: {e}"),
        }
    }
    let correct = failed == 0 && problems.is_empty();
    println!(
        "{}",
        report::json_line(correct, attempted, failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn fmt_groups(groups: impl Iterator<Item = (String, f64)>) -> String {
    let parts: Vec<String> = groups.map(|(k, v)| format!("{k}={v:.2}")).collect();
    if parts.is_empty() {
        "none".into()
    } else {
        parts.join(" ")
    }
}

/// The traced breakdown next to the untraced totals: mean op time as the
/// sum of its parts, plus what is left over.
fn print_reconciliation(workload: Workload, untraced: &Window, traced: &Window, m: &[Metric]) {
    let get = |name: &str| m.iter().find(|x| x.name == name).map_or(0.0, |x| x.value);
    let calls = workload.calls_per_op();
    println!("## reconciliation (means, per op; {calls} top-level stub calls per op)");
    println!(
        "  untraced: mean op {:.2} us, {:.0} ops/s, cpu {:.2} us/op",
        untraced.mean_op_us(),
        untraced.ops_per_s(),
        untraced.per_op(untraced.cpu_us)
    );
    println!(
        "  traced:   mean op {:.2} us, {:.0} ops/s, cpu {:.2} us/op",
        traced.mean_op_us(),
        traced.ops_per_s(),
        traced.per_op(traced.cpu_us)
    );
    for part in [
        "core.stub_us",
        "transport.hop_us",
        "rpc.server_us",
        "rpc.queue_wait_us",
        "core.service_us",
    ] {
        println!("    {part:<24} {:>10.2} us", calls * get(part));
    }
    println!("    {:<24} {:>10.2} us", "residual_us", get("residual_us"));
    println!("  trace.overhead_frac {:.4}", get("trace.overhead_frac"));
    let busy: f64 = traced.busy.values().sum::<f64>() + traced.other_threads.values().sum::<f64>();
    println!(
        "  cpu: process {:.2} us/op, threads summed {:.2} us/op",
        traced.per_op(traced.cpu_us),
        traced.per_op(busy)
    );
}
