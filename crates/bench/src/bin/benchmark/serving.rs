//! The three serving workloads — `explore`, `scan`, `explore_update` —
//! against one warm server: set-up, the timed window on two connections,
//! the checks, and the metrics.

use crate::check::{Goldens, Oracle, SummaryBodies, Tally};
use crate::data::{self, Dataset, Mix, OfferWriter, GRAPH_NT};
use crate::layers::{self, QueryClass, WarmService};
use crate::report::{Metrics, Report};
use crate::server::{self, ServerProc};
use crate::stats::{self, median, Sample};
use crate::trace::Tracer;
use crate::wire::{self, Class, Conn, Outcome, Request, Response};
use crate::Env;
use rdfsum_core::SummaryKind;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// A run is this many rounds, each a fresh set-up (new files, new server
/// process, new connections) and one timed window on it: where the
/// scheduler places the server's threads differs from launch to launch
/// and moves every latency, so one run samples several launches.
const ROUNDS: usize = 5;
/// Every round's window is cut into this many equal slices; a metric is
/// the median over all the run's slices.
const SLICES_PER_ROUND: usize = 4;
/// `explore`: both connections keep this many requests outstanding,
/// emulating 64 concurrent keep-alive clients on two sockets.
const EXPLORE_WINDOW: usize = 32;
/// `explore_update`: the reader's and the writer's paced rates.
const READ_RATE: f64 = 2000.0;
const UPDATE_RATE: f64 = 10.0;
/// A paced send counts as late beyond this. When more than
/// [`MAX_LATE_FRAC`] of a round's sends are late in the median round, the
/// run says so in a warning. It does not fail: the generator's threads are
/// time-shared with the server's, so during a rebuild that occupies both
/// cores a sleeper wakes up to a scheduler slice late, on this host for
/// 2-10 % of the sends, and a check that depends on the host's scheduler
/// would make the workload fail where nothing is wrong with the program.
/// Latency runs from the due time either way, so a late send is charged,
/// not hidden.
const LATE: Duration = Duration::from_millis(1);
const MAX_LATE_FRAC: f64 = 0.01;
/// `explore_update`'s throughput counts the responses that arrive within
/// this long of their due time: at a paced rate plain throughput is the
/// offered load whatever the server does, while the on-time share falls
/// as soon as the write lock is held for longer or more often.
const ON_TIME_MS: f64 = 5.0;

#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Shape {
    Explore,
    Scan,
    ExploreUpdate,
}

impl Shape {
    fn name(self) -> &'static str {
        match self {
            Shape::Explore => "explore",
            Shape::Scan => "scan",
            Shape::ExploreUpdate => "explore_update",
        }
    }

    /// Summary kinds warm before the window opens.
    fn warm_kinds(self) -> &'static [&'static str] {
        match self {
            Shape::Explore => &["w"],
            Shape::Scan | Shape::ExploreUpdate => &["w", "tw"],
        }
    }
}

/// One set-up's product: a warm server and everything needed to check it.
struct Served {
    server: ServerProc,
    ds: Dataset,
    oracle: Oracle,
    bodies: SummaryBodies,
    fingerprint: String,
}

fn set_up(env: &Env, shape: Shape, tally: &mut Tally) -> Result<Served, String> {
    let mut ds = Dataset::generate(env.products(), env.seed);
    let goldens = Goldens::new(ds.name(), env.seed);
    ds.write_nt(&env.work)?;
    let server = ServerProc::spawn(&env.binary, &env.work, None)?;
    let mut conn = Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    let loaded = conn.call(&format!("LOAD {GRAPH_NT}"));
    let loaded = tally.ok("LOAD", &loaded).ok_or("LOAD failed")?.clone();
    let fingerprint = loaded.field("fp").unwrap_or_default().to_string();
    if loaded.num("triples") != Some(ds.graph.len() as u64) {
        tally.fail(format!(
            "LOAD reports {:?} triples, generated {}",
            loaded.field("triples"),
            ds.graph.len()
        ));
    }
    goldens.number(tally, &["triples"], ds.graph.len() as u64);
    goldens.text(tally, &["fingerprint"], &fingerprint);
    let mut bodies = SummaryBodies::default();
    for kind in shape.warm_kinds() {
        let r = conn.call(&data::summarize(kind, GRAPH_NT).line);
        if let Some(r) = tally.ok("SUMMARIZE", &r) {
            bodies.check(tally, &goldens, kind, r);
        }
    }
    // Warm-up: fills the prune-verdict cache and touches every template.
    let mut mix = Mix::new(&ds, env.seed, 99);
    let warmups = if shape == Shape::Scan { 12 } else { 2000 };
    for _ in 0..warmups {
        let request = if shape == Shape::Scan {
            mix.scan()
        } else {
            mix.explore()
        };
        let r = conn.call(&request.line);
        tally.ok("warm-up", &r);
    }
    let oracle = Oracle::new(std::mem::take(&mut ds.graph));
    Ok(Served {
        server,
        ds,
        oracle,
        bodies,
        fingerprint,
    })
}

/// One completed request of the timed window.
struct Rec {
    class: Class,
    at_s: f64,
    latency_ms: f64,
    late: bool,
    wire_bytes: usize,
}

/// What one connection thread brings back.
#[derive(Default)]
struct ConnLog {
    tally: Tally,
    recs: Vec<Rec>,
    /// First response per distinct query text, for the oracle.
    firsts: Vec<(Request, Response)>,
    seen: HashSet<(Class, u64)>,
}

impl ConnLog {
    fn record(&mut self, o: Outcome, opened: Instant, bodies: &SummaryBodies) {
        let class = o.request.class;
        let Some(r) = self.tally.ok(&o.request.line, &o.response) else {
            return;
        };
        match class {
            Class::Summarize => {
                let kind = o.request.line.split(' ').nth(1).unwrap_or_default();
                if bodies.reference(kind) != Some(r.body.as_slice()) {
                    self.tally.fail(format!(
                        "SUMMARIZE {kind}: body differs from the warm-up body"
                    ));
                }
            }
            Class::Insert | Class::Delete if r.num("applied") != Some(8) => {
                self.tally.fail(format!(
                    "UPDATE of offer {}: expected applied=8, got {}",
                    o.request.key, r.status
                ));
            }
            c if c.is_query() && self.seen.insert((c, o.request.key)) => {
                self.firsts.push((o.request.clone(), r.clone()));
            }
            _ => {}
        }
        self.recs.push(Rec {
            class,
            at_s: o.done.saturating_duration_since(opened).as_secs_f64(),
            latency_ms: o.latency().as_secs_f64() * 1e3,
            late: o.lateness() > LATE,
            wire_bytes: r.status.len() + 1 + r.body.len(),
        });
    }
}

/// One round's timed window as a connection thread sees it.
struct Window<'a> {
    shape: Shape,
    opened: Instant,
    deadline: Instant,
    bodies: &'a SummaryBodies,
}

impl Window<'_> {
    /// Drives one connection with the workload's read mix under its send
    /// rule: window 32, window 1, or the paced reader.
    fn drive_mix(&self, conn: &mut Conn, mut mix: Mix) -> ConnLog {
        let mut log = ConnLog::default();
        let done = |o| log.record(o, self.opened, self.bodies);
        match self.shape {
            Shape::Explore => {
                wire::run_window(conn, EXPLORE_WINDOW, self.deadline, || mix.explore(), done);
            }
            Shape::Scan => wire::run_window(conn, 1, self.deadline, || mix.scan(), done),
            Shape::ExploreUpdate => wire::run_rate(
                conn,
                READ_RATE,
                self.opened,
                self.deadline,
                |_| mix.explore(),
                done,
            ),
        }
        log
    }

    /// Drives `explore_update`'s paced writer connection.
    fn drive_writer(&self, conn: &mut Conn, writer: &mut OfferWriter) -> ConnLog {
        let mut log = ConnLog::default();
        wire::run_rate(
            conn,
            UPDATE_RATE,
            self.opened,
            self.deadline,
            |i| writer.batch(i),
            |o| log.record(o, self.opened, self.bodies),
        );
        log
    }
}

/// Counters off a `STATS` status line.
fn stats_counters(conn: &mut Conn, tally: &mut Tally) -> Option<Response> {
    let r = conn.call("STATS");
    tally.ok("STATS", &r).cloned()
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Ping-pong round trips of `line` for `span`; the median in µs.
fn ping_pong_us(
    conn: &mut Conn,
    line: impl Fn(usize) -> String,
    span: Duration,
    tally: &mut Tally,
) -> f64 {
    let t0 = Instant::now();
    let mut us = Vec::new();
    for i in 0.. {
        if t0.elapsed() >= span {
            break;
        }
        let sent = Instant::now();
        let r = conn.call(&line(i));
        if tally.ok("ping-pong", &r).is_some() {
            us.push(sent.elapsed().as_secs_f64() * 1e6);
        }
    }
    median(&us)
}

/// What the rounds of one run add up to.
#[derive(Default)]
struct Totals {
    recs: Vec<Rec>,
    setup_s: Vec<f64>,
    spawn_ms: Vec<f64>,
    rss_mb: Vec<f64>,
    /// Per round, the share of sends more than [`LATE`] behind their due time.
    late_frac: Vec<f64>,
    cpu_server_s: f64,
    cpu_client_s: f64,
    /// `STATS` deltas over the timed windows, in [`COUNTERS`] order.
    counters: [f64; 9],
    /// Query texts already held against the oracle.
    verified: HashSet<(Class, u64)>,
}

const COUNTERS: [&str; 9] = [
    "hits",
    "misses",
    "builds",
    "queries",
    "pruned",
    "prune_hits",
    "patches",
    "patch_fallbacks",
    "persist_writes",
];

/// One round: a fresh set-up, one timed window of `window` on it, the
/// post-window checks, SIGKILL. Returns the round's dataset and oracle
/// (every round's are identical; the replay uses the last).
fn round(
    env: &Env,
    shape: Shape,
    index: usize,
    window: Duration,
    tally: &mut Tally,
    totals: &mut Totals,
) -> Result<(Dataset, Oracle), String> {
    let t0 = Instant::now();
    let Served {
        server,
        ds,
        oracle,
        mut bodies,
        fingerprint,
    } = set_up(env, shape, tally)?;
    totals.setup_s.push(t0.elapsed().as_secs_f64());
    totals.spawn_ms.push(server.spawn_time.as_secs_f64() * 1e3);
    let goldens = Goldens::new(ds.name(), env.seed);

    let mut control = Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    let before = stats_counters(&mut control, tally).ok_or("STATS failed")?;
    let (cpu_server, cpu_client) = (server.cpu_seconds(), server::own_cpu_seconds());
    let mut conns = [
        Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?,
        Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?,
    ];
    let mut writer = OfferWriter::new(&ds, env.seed);
    let streams = [2 * index as u64, 2 * index as u64 + 1];
    let opened = Instant::now();
    let deadline = opened + window;
    let window_of = Window {
        shape,
        opened,
        deadline,
        bodies: &bodies,
    };
    let mut logs: Vec<ConnLog> = std::thread::scope(|scope| {
        let [c0, c1] = &mut conns;
        let (ds, writer, window_of) = (&ds, &mut writer, &window_of);
        let handles = [
            scope.spawn(move || window_of.drive_mix(c0, Mix::new(ds, env.seed, streams[0]))),
            scope.spawn(move || match shape {
                Shape::ExploreUpdate => window_of.drive_writer(c1, writer),
                _ => window_of.drive_mix(c1, Mix::new(ds, env.seed, streams[1])),
            }),
        ];
        handles
            .map(|h| h.join().expect("connection thread panicked"))
            .into()
    });
    totals.cpu_server_s += server
        .cpu_seconds()
        .zip(cpu_server)
        .map_or(0.0, |(a, b)| a - b);
    totals.cpu_client_s += server::own_cpu_seconds()
        .zip(cpu_client)
        .map_or(0.0, |(a, b)| a - b);
    let after = stats_counters(&mut control, tally).ok_or("STATS failed")?;
    for (sum, field) in totals.counters.iter_mut().zip(COUNTERS) {
        *sum += after
            .num(field)
            .unwrap_or(0)
            .saturating_sub(before.num(field).unwrap_or(0)) as f64;
    }

    // Untimed: the writer's drain, then the post-run identities (c).
    if shape == Shape::ExploreUpdate {
        for request in writer.drain() {
            let r = control.call(&request.line);
            tally.ok("drain", &r);
        }
        let stats = stats_counters(&mut control, tally).ok_or("STATS failed")?;
        let resident = String::from_utf8_lossy(&stats.body).into_owned();
        if !resident.starts_with(&format!("{fingerprint} ")) {
            tally.fail(format!("after the drain the graph is `{}`, before the run its fingerprint was {fingerprint}", resident.trim()));
        }
        let (builds, fallbacks, misses) = (
            stats.num("builds"),
            stats.num("patch_fallbacks"),
            stats.num("misses"),
        );
        if builds != fallbacks.zip(misses).map(|(f, m)| f + m) {
            tally.fail(format!(
                "STATS breaks builds == patch_fallbacks + misses: {}",
                stats.status
            ));
        }
    }
    // Check (a) off the timed path: the bodies served now are the bodies
    // served before the window.
    for kind in shape.warm_kinds() {
        let r = control.call(&data::summarize(kind, GRAPH_NT).line);
        if let Some(r) = tally.ok("SUMMARIZE", &r) {
            bodies.check(tally, &goldens, kind, r);
        }
    }
    match server.peak_rss_mb() {
        Some(rss) => totals.rss_mb.push(rss),
        None => tally.fail("could not read the server's VmHWM"),
    }
    drop(control);
    drop(conns);
    server.kill();

    // Check (b): first occurrences against the un-pruned oracle.
    let offset_s = index as f64 * window.as_secs_f64();
    let sends = logs.iter().flat_map(|log| &log.recs);
    totals.late_frac.push(ratio(
        sends.clone().filter(|r| r.late).count() as f64,
        sends.count() as f64,
    ));
    for log in &mut logs {
        for (request, response) in log.firsts.drain(..) {
            if !totals.verified.insert((request.class, request.key)) {
                continue;
            }
            let text = request.line.splitn(3, ' ').nth(2).unwrap_or_default();
            let verdict = oracle.verify(text, &response, |row| {
                row.iter().any(|t| writer.is_inserted_offer(t))
            });
            if let Err(e) = verdict {
                log.tally.fail(format!("QUERY {text}: {e}"));
            }
        }
        // Completions after the deadline belong to no slice.
        totals.recs.extend(
            log.recs
                .drain(..)
                .filter(|r| r.at_s < window.as_secs_f64())
                .map(|r| Rec {
                    at_s: r.at_s + offset_s,
                    ..r
                }),
        );
        tally.absorb(std::mem::take(&mut log.tally));
    }
    Ok((ds, oracle))
}

pub(crate) fn run(env: &Env, shape: Shape) -> Result<Report, String> {
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let mut warnings = Vec::new();

    // With tracing on, half the time goes to the served windows (which
    // the counter and client metrics need) and half to the in-process
    // replay.
    let served_s = if env.traced {
        (env.seconds / 2.0).max(1.0)
    } else {
        env.seconds
    };
    let window = Duration::from_secs_f64(served_s / ROUNDS as f64);
    let mut totals = Totals::default();
    let mut last = None;
    for index in 0..ROUNDS {
        last = Some(round(env, shape, index, window, &mut tally, &mut totals)?);
    }
    let (ds, oracle) = last.expect("ROUNDS > 0");
    let Totals {
        recs,
        setup_s,
        spawn_ms,
        rss_mb,
        late_frac,
        cpu_server_s,
        cpu_client_s,
        counters,
        ..
    } = totals;
    m.samples("setup_s", &setup_s);
    m.samples("peak_rss_mb", &rss_mb);
    let slices = ROUNDS * SLICES_PER_ROUND;

    // ---- end-to-end metrics ----
    let of = |pick: &dyn Fn(&Rec) -> bool| -> Vec<Sample> {
        recs.iter()
            .filter(|r| pick(r))
            .map(|r| Sample {
                at_s: r.at_s,
                value: r.latency_ms,
            })
            .collect()
    };
    let counted = of(&|r| shape != Shape::ExploreUpdate || r.latency_ms <= ON_TIME_MS);
    let rates = stats::slice_rates(&counted, served_s, slices);
    m.samples("throughput_rps", &rates);
    let is_update = |r: &Rec| matches!(r.class, Class::Insert | Class::Delete);
    let p50 = |s: &[Sample]| stats::per_slice(s, served_s, slices, median);
    let latencies = |s: &[Sample]| s.iter().map(|x| x.value).collect::<Vec<f64>>();
    let reads = of(&|r| !is_update(r));
    let (primary, secondary) = match shape {
        // Median round trip at window 32 / of the warm SUMMARIZE w.
        Shape::Explore => (p50(&reads), p50(&of(&|r| r.class == Class::Summarize))),
        // Median round trip of everything at window 1 / of the heaviest
        // class, the two-pattern joins cut at the row limit. (The 880 KB
        // SUMMARIZE tw waits on the event thread behind the other
        // connection's scan zero or more times; its median flips between
        // those modes from run to run, so it stays a diagnostic.)
        Shape::Scan => (p50(&reads), p50(&of(&|r| r.class == Class::ScanJoin))),
        // Reader p99 and UPDATE median, both from the due time. The p99 is
        // taken per half round (4 800 reads, 48 beyond it, 24 rebuilds) and
        // the median over the ten halves reported: per 1.2 s slice it is
        // the maximum of a handful of rebuilds, pooled over the run one
        // hiccup owns it, and over ten seeds the median of ten halves read
        // a quarter steadier than the median of five whole rounds.
        Shape::ExploreUpdate => (
            stats::per_slice(&reads, served_s, 2 * ROUNDS, |v| stats::quantile(v, 0.99)),
            p50(&of(&is_update)),
        ),
    };
    m.samples("primary_ms", &primary);
    m.samples("secondary_ms", &secondary);

    // ---- client diagnostics and counters (reported with --trace) ----
    let read_ms = latencies(&reads);
    m.exact("read_p50_ms", median(&read_ms));
    m.exact("client.read_p50_us", median(&read_ms) * 1e3);
    m.exact("read_p99_ms", stats::quantile(&read_ms, 0.99));
    m.exact("client.read_p999_ms", stats::quantile(&read_ms, 0.999));
    let update_ms = latencies(&of(&is_update));
    m.exact("update_p50_ms", median(&update_ms));
    m.exact("client.update_p90_ms", stats::quantile(&update_ms, 0.9));
    m.exact(
        "client.summarize_p50_ms",
        median(&latencies(&of(&|r| r.class == Class::Summarize))),
    );
    m.exact(
        "client.scan_p99_ms",
        stats::quantile(
            &latencies(&of(&|r| matches!(r.class, Class::Scan | Class::ScanJoin))),
            0.99,
        ),
    );
    m.samples("client.late_frac", &late_frac);
    if median(&late_frac) > MAX_LATE_FRAC {
        warnings.push(format!(
            "{:.2} % of the median round's paced sends were more than 1 ms late (over {} %): to that extent the latencies from due time include the generator's own wake-up delay",
            median(&late_frac) * 100.0,
            MAX_LATE_FRAC * 100.0
        ));
    }
    m.exact("client.slice_iqr_frac", stats::Dist::of(&rates).iqr_frac());
    m.exact("client.cpu_util", cpu_client_s / served_s);
    m.exact("server.cpu_util", cpu_server_s / served_s);
    m.exact(
        "server.cpu_us_per_req",
        ratio(cpu_server_s * 1e6, recs.len() as f64),
    );
    m.exact(
        "server.wire.mb_per_s",
        recs.iter().map(|r| r.wire_bytes).sum::<usize>() as f64 / 1e6 / served_s,
    );
    m.samples("server.spawn_ms", &spawn_ms);
    m.exact("workloads.generate_s", ds.generate_s);
    m.exact("workloads.triples", oracle.store().len() as f64);
    let [hits, misses, builds, queries, pruned, prune_hits, patches, patch_fallbacks, persist_writes] =
        counters;
    m.exact("core.service.hit_ratio", ratio(hits, hits + misses));
    m.exact("core.service.prune_ratio", ratio(pruned, queries));
    m.exact("core.service.prune_hit_ratio", ratio(prune_hits, queries));
    m.exact(
        "core.service.patch_ratio",
        ratio(patches, patches + patch_fallbacks),
    );
    m.exact("core.service.builds", builds);
    m.exact("core.service.persist_writes", persist_writes);

    if env.traced {
        wire_floor(env, &ds, &mut m, &mut tally)?;
        let budget = Duration::from_secs_f64((env.seconds - served_s).max(1.0));
        let mut tr = Tracer::new();
        let t0 = Instant::now();
        replay(&mut tr, env, shape, &ds, &oracle, budget)?;
        let traced_s = t0.elapsed().as_secs_f64();
        layers::timing_metrics(&tr, &mut m, &mut warnings);
        let point = m.get("core.service.query.point.us").median;
        let served_point = m.get("server.wire.query_overhead_us").median;
        m.exact(
            "server.wire.query_overhead_us",
            (served_point - point).max(0.0),
        );
        // What recording cost: span bookkeeping over the replay's wall time.
        let bookkeeping = tr.spans().len() as f64 * crate::trace::span_cost_s();
        m.exact("trace.overhead_frac", ratio(bookkeeping, traced_s));
        tr.write_json(&env.trace_file(shape.name()))
            .map_err(|e| format!("writing trace: {e}"))?;
    }
    m.exact("client.attempted", tally.attempted as f64);
    m.exact(
        "error_rate",
        ratio(tally.failed as f64, tally.attempted as f64),
    );

    Ok(Report {
        workload: shape.name(),
        seed: env.seed,
        seconds: env.seconds,
        traced: env.traced,
        settings: vec![
            ("server", format!("rdfsummary serve --addr 127.0.0.1:0 {}", server::SERVE_FLAGS.join(" "))),
            ("dataset", format!("BSBM {} products, {} triples", ds.products, oracle.store().len())),
            ("generator", "1 process, 2 connections".into()),
            (
                "send rule",
                match shape {
                    Shape::Explore => format!("window {EXPLORE_WINDOW} on both connections (closed loop)"),
                    Shape::Scan => "window 1 on both connections (closed loop)".into(),
                    Shape::ExploreUpdate => format!(
                        "reader {READ_RATE} req/s, writer {UPDATE_RATE} batches/s (open loop, timed from due time); throughput counts responses within {ON_TIME_MS} ms of due"
                    ),
                },
            ),
            (
                "window",
                format!(
                    "{ROUNDS} rounds (fresh set-up and server each) of {} s, {slices} slices in all; metrics are medians over slices",
                    window.as_secs_f64()
                ),
            ),
            ("set-ups", format!("{ROUNDS} (setup_s is their median)")),
            (
                "throughput_rps",
                match shape {
                    Shape::ExploreUpdate => format!("responses/s within {ON_TIME_MS} ms of their due time"),
                    _ => "OK responses/s".into(),
                },
            ),
            (
                "primary_ms",
                match shape {
                    Shape::Explore => format!("median round trip at window {EXPLORE_WINDOW}"),
                    Shape::Scan => "median round trip at window 1 (read_p50_ms)".into(),
                    Shape::ExploreUpdate => "reader p99 from due time, per half round (read_p99_ms)".into(),
                },
            ),
            (
                "secondary_ms",
                match shape {
                    Shape::Explore => "median round trip of the warm SUMMARIZE w".into(),
                    Shape::Scan => "median round trip of the two-pattern joins cut at the limit".into(),
                    Shape::ExploreUpdate => "median UPDATE latency from due time (update_p50_ms)".into(),
                },
            ),
        ],
        metrics: m,
        tally,
        warnings,
    })
}

/// The socket + event-loop floor, on a server of its own so it shares no
/// window with the measured load: PING and point-query ping-pong.
fn wire_floor(env: &Env, ds: &Dataset, m: &mut Metrics, tally: &mut Tally) -> Result<(), String> {
    let Served { server, .. } = set_up(env, Shape::Explore, tally)?;
    let mut conn = Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    let span = Duration::from_millis(if env.smoke { 200 } else { 500 });
    m.exact(
        "server.wire.ping_us",
        ping_pong_us(&mut conn, |_| "PING".into(), span, tally),
    );
    let products = ds.products;
    let point = ping_pong_us(
        &mut conn,
        |i| format!("QUERY {GRAPH_NT} {}", data::text::point(i % products)),
        span,
        tally,
    );
    // The caller subtracts the in-process point-query time from this.
    m.exact("server.wire.query_overhead_us", point);
    drop(conn);
    server.kill();
    Ok(())
}

/// The in-process replay of one serving workload's request classes.
fn replay(
    tr: &mut Tracer,
    env: &Env,
    shape: Shape,
    ds: &Dataset,
    oracle: &Oracle,
    budget: Duration,
) -> Result<(), String> {
    let graph = oracle.store().graph();
    let per_class = if env.smoke { 2_000 } else { 20_000 };
    let mut mix = Mix::new(ds, env.seed, 0);
    let draw = |mix: &mut Mix, scan: bool, want: &dyn Fn(Class) -> bool| -> Vec<String> {
        let mut lines = Vec::with_capacity(per_class);
        while lines.len() < per_class {
            let r = if scan { mix.scan() } else { mix.explore() };
            if want(r.class) {
                lines.push(r.line);
            }
        }
        lines
    };
    let kinds: Vec<SummaryKind> = match shape {
        Shape::Explore => vec![SummaryKind::Weak],
        _ => vec![SummaryKind::Weak, SummaryKind::TypedWeak],
    };
    match shape {
        Shape::Explore | Shape::ExploreUpdate => {
            let share = budget / if shape == Shape::Explore { 3 } else { 6 };
            let warm = WarmService::new(graph, GRAPH_NT, &kinds)?;
            let point = draw(&mut mix, false, &|c| {
                matches!(c, Class::Point | Class::Feature)
            });
            layers::replay_queries(tr, &warm, QueryClass::Point, &point, share)?;
            let join = draw(&mut mix, false, &|c| c == Class::Join);
            layers::replay_queries(tr, &warm, QueryClass::Join, &join, share)?;
            let pruned = draw(&mut mix, false, &|c| {
                matches!(c, Class::EmptyJoin | Class::Unknown)
            });
            layers::replay_queries(tr, &warm, QueryClass::Pruned, &pruned, share)?;
            layers::replay_hits(tr, &warm, SummaryKind::Weak, per_class)?;
            drop(warm);
            if shape == Shape::ExploreUpdate {
                let mut writer = OfferWriter::new(ds, env.seed);
                let batches: Vec<(bool, String)> = (0..200)
                    .map(|i| {
                        let r = writer.batch(i);
                        (
                            r.class == Class::Insert,
                            r.line.splitn(4, ' ').nth(3).unwrap_or_default().to_string(),
                        )
                    })
                    .collect();
                layers::replay_updates(tr, graph, GRAPH_NT, &kinds, &batches, budget / 2)?;
            }
        }
        Shape::Scan => {
            let warm = WarmService::new(graph, GRAPH_NT, &kinds)?;
            let scans = draw(&mut mix, true, &|c| c.is_query());
            layers::replay_queries(tr, &warm, QueryClass::Scan, &scans, budget)?;
            layers::replay_hits(tr, &warm, SummaryKind::TypedWeak, per_class)?;
        }
    }
    Ok(())
}
