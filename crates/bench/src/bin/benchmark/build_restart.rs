//! The `build_restart` workload: server *lifetimes*, one client.
//!
//! Cold lifetimes start on an empty `--persist-dir`, `LOAD` the `.nt`
//! and build all five summaries; restart lifetimes come up on the same
//! directory, `LOAD` the `.snap` and must get the same five bodies as
//! persist hits without building anything. Every lifetime ends in
//! SIGKILL. This is the paper's Fig. 13 path and the warm restart as a
//! client sees them; the query and event-loop layers do none of the work.
//!
//! `fb` is left out: its build alone would eat the run's budget.

use crate::check::{Goldens, SummaryBodies, Tally};
use crate::data::{self, Dataset, GRAPH_NT, GRAPH_SNAP};
use crate::layers::{self, KIND_TOKENS};
use crate::report::{Metrics, Report};
use crate::server::{self, ServerProc};
use crate::trace::Tracer;
use crate::wire::{Conn, Response};
use crate::Env;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
const PERSIST_DIR: &str = "persist";
/// A cold + restart pair takes about 2 s on the reference host; the run
/// does one pair per this many seconds asked for (10 pairs, 20 lifetimes,
/// at the default 24 s). A count, not a clock, ends the run, so the
/// counters summed over lifetimes and every median's n repeat exactly.
const SECONDS_PER_PAIR: f64 = 2.5;

/// Generates the graph, writes the `.nt`, and has the program's own
/// `snapshot` command turn it into the `.snap` restarts load.
fn set_up(env: &Env) -> Result<Dataset, String> {
    let ds = Dataset::generate(env.build_products(), env.seed);
    ds.write_nt(&env.work)?;
    let status = Command::new(&env.binary)
        .args(["snapshot", GRAPH_NT, "--out", GRAPH_SNAP])
        .current_dir(&env.work)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running rdfsummary snapshot: {e}"))?;
    if status.success() {
        Ok(ds)
    } else {
        Err(format!("rdfsummary snapshot failed ({status})"))
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// One request, timed; `None` (and a counted failure) unless `OK`.
fn timed(conn: &mut Conn, tally: &mut Tally, line: &str) -> Option<(Response, f64)> {
    let t0 = Instant::now();
    let r = conn.call(line);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    tally.ok(line, &r).cloned().map(|r| (r, ms))
}

/// What one lifetime measured.
struct Lifetime {
    load_ms: f64,
    /// Per kind, in [`KIND_TOKENS`] order.
    summarize_ms: Vec<f64>,
    spawn_ms: f64,
    rss_mb: f64,
}

/// `LOAD`, five `SUMMARIZE`s and `STATS`.
const REQUESTS_PER_LIFETIME: usize = 7;

impl Lifetime {
    fn ready_ms(&self) -> f64 {
        self.load_ms + self.summarize_ms.iter().sum::<f64>()
    }
}

struct Run<'a> {
    env: &'a Env,
    goldens: Goldens,
    bodies: SummaryBodies,
    tally: Tally,
    triples: usize,
    fingerprint: Option<String>,
    persist_bytes: Vec<f64>,
    /// `STATS` counters summed over all lifetimes, in [`COUNTERS`] order.
    counters: [u64; 5],
}

const COUNTERS: [&str; 5] = ["builds", "persist_hits", "persist_writes", "hits", "misses"];

impl Run<'_> {
    /// One server lifetime: spawn, `LOAD`, the five `SUMMARIZE`s, `STATS`,
    /// SIGKILL. `cold` decides the file loaded and what the counters must
    /// say afterwards.
    fn lifetime(&mut self, cold: bool) -> Result<Lifetime, String> {
        let persist = self.env.work.join(PERSIST_DIR);
        if cold {
            let _ = std::fs::remove_dir_all(&persist);
        }
        let server = ServerProc::spawn(&self.env.binary, &self.env.work, Some(PERSIST_DIR))?;
        let mut conn = Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
        let graph = if cold { GRAPH_NT } else { GRAPH_SNAP };
        let tally = &mut self.tally;
        let (loaded, load_ms) =
            timed(&mut conn, tally, &format!("LOAD {graph}")).ok_or("LOAD failed")?;
        if loaded.num("triples") != Some(self.triples as u64) {
            tally.fail(format!(
                "LOAD {graph}: {:?} triples, generated {}",
                loaded.field("triples"),
                self.triples
            ));
        }
        let fp = loaded.field("fp").unwrap_or_default().to_string();
        match &self.fingerprint {
            None => {
                self.goldens
                    .number(tally, &["triples"], self.triples as u64);
                self.goldens.text(tally, &["fingerprint"], &fp);
                self.fingerprint = Some(fp);
            }
            Some(first) if *first != fp => tally.fail(format!(
                "LOAD {graph}: fingerprint {fp}, first lifetime had {first}"
            )),
            Some(_) => {}
        }
        let mut summarize_ms = Vec::new();
        for kind in KIND_TOKENS {
            let Some((r, ms)) = timed(&mut conn, tally, &data::summarize(kind, graph).line) else {
                continue;
            };
            summarize_ms.push(ms);
            // Check (a): cold or persisted, this lifetime or another —
            // one body per kind.
            self.bodies.check(tally, &self.goldens, kind, &r);
            if r.num("cached") != Some(u64::from(!cold)) {
                tally.fail(format!(
                    "SUMMARIZE {kind} in a {} lifetime: {}",
                    if cold { "cold" } else { "restart" },
                    r.status
                ));
            }
        }
        // Check (d): a restart builds nothing.
        if let Some((stats, _)) = timed(&mut conn, tally, "STATS") {
            let counters = COUNTERS.map(|f| stats.num(f).unwrap_or(0));
            for (sum, c) in self.counters.iter_mut().zip(counters) {
                *sum += c;
            }
            let want = if cold { [5, 0, 5] } else { [0, 5, 0] };
            if counters[..3] != want {
                tally.fail(format!(
                    "{} lifetime: want builds/persist_hits/persist_writes = {want:?}, got {}",
                    if cold { "cold" } else { "restart" },
                    stats.status
                ));
            }
        }
        if cold {
            self.persist_bytes.push(dir_bytes(&persist) as f64);
        }
        let rss_mb = server.peak_rss_mb().unwrap_or_else(|| {
            tally.fail("could not read the server's VmHWM");
            0.0
        });
        let spawn_ms = server.spawn_time.as_secs_f64() * 1e3;
        drop(conn);
        server.kill();
        Ok(Lifetime {
            load_ms,
            summarize_ms,
            spawn_ms,
            rss_mb,
        })
    }
}

pub(crate) fn run(env: &Env) -> Result<Report, String> {
    let mut m = Metrics::default();
    let mut warnings = Vec::new();
    let mut setup_s = Vec::new();
    let mut ds = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        ds = Some(set_up(env)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let ds = ds.expect("SETUPS > 0");
    m.samples("setup_s", &setup_s);

    let mut run = Run {
        env,
        goldens: Goldens::new(ds.name(), env.seed),
        bodies: SummaryBodies::default(),
        tally: Tally::default(),
        triples: ds.graph.len(),
        fingerprint: None,
        persist_bytes: Vec::new(),
        counters: [0; 5],
    };
    // With tracing on, half the time goes to lifetimes and half to the
    // in-process pipelines.
    let served_s = if env.traced {
        env.seconds / 2.0
    } else {
        env.seconds
    };
    let pairs = ((served_s / SECONDS_PER_PAIR).round() as usize).max(2);
    let (mut colds, mut restarts, mut pair_rps) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..pairs {
        let t0 = Instant::now();
        let cold = run.lifetime(true)?;
        let restart = run.lifetime(false)?;
        pair_rps.push(2.0 * REQUESTS_PER_LIFETIME as f64 / t0.elapsed().as_secs_f64());
        colds.push(cold);
        restarts.push(restart);
    }
    let Run {
        goldens,
        mut tally,
        persist_bytes,
        counters: [builds, persist_hits, persist_writes, hits, misses],
        ..
    } = run;

    // Exact, so pinned: bytes in the persist dir after a cold lifetime.
    let bytes = persist_bytes.first().copied().unwrap_or(0.0);
    if persist_bytes.iter().any(|&b| b != bytes) {
        tally.fail(format!(
            "persist dir size differs between cold lifetimes: {persist_bytes:?}"
        ));
    }
    goldens.number(&mut tally, &["persist_bytes"], bytes as u64);

    let each =
        |ls: &[Lifetime], f: &dyn Fn(&Lifetime) -> f64| ls.iter().map(f).collect::<Vec<f64>>();
    m.samples("throughput_rps", &pair_rps);
    m.samples("primary_ms", &each(&colds, &Lifetime::ready_ms));
    m.samples("secondary_ms", &each(&restarts, &Lifetime::ready_ms));
    let rss = colds
        .iter()
        .chain(&restarts)
        .map(|l| l.rss_mb)
        .fold(0.0, f64::max);
    m.exact("peak_rss_mb", rss);

    let paper_four = |l: &Lifetime| l.summarize_ms.iter().take(4).sum::<f64>();
    m.samples("load_s", &each(&colds, &|l| l.load_ms / 1e3));
    m.samples("load_snap_s", &each(&restarts, &|l| l.load_ms / 1e3));
    m.samples("cold_summarize_ms", &each(&colds, &paper_four));
    m.samples(
        "cold_summarize_t_ms",
        &each(&colds, &|l| l.summarize_ms.get(4).copied().unwrap_or(0.0)),
    );
    m.samples(
        "restart_summarize_ms",
        &each(&restarts, &|l| l.summarize_ms.iter().sum()),
    );
    let spawns: Vec<f64> = colds.iter().chain(&restarts).map(|l| l.spawn_ms).collect();
    m.samples("server.spawn_ms", &spawns);
    m.exact("persist_bytes_per_triple", bytes / ds.graph.len() as f64);
    m.exact("core.service.builds", builds as f64);
    m.exact("core.service.persist_writes", persist_writes as f64);
    m.exact("core.service.persist_hits", persist_hits as f64);
    m.exact(
        "core.service.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    m.exact("workloads.generate_s", ds.generate_s);
    m.exact("workloads.triples", ds.graph.len() as f64);

    if env.traced {
        let budget = Duration::from_secs_f64((env.seconds - served_s).max(1.0));
        let mut tr = Tracer::new();
        let t0 = Instant::now();
        let facts = layers::replay_build(
            &mut tr,
            &env.work.join(GRAPH_NT),
            &env.work.join(GRAPH_SNAP),
            &env.work,
            budget,
            4,
        )?;
        let traced_s = t0.elapsed().as_secs_f64();
        layers::timing_metrics(&tr, &mut m, &mut warnings);
        m.exact("rdf-model.dict.terms", facts.dict_terms as f64);
        m.exact(
            "rdf-store.snapshot.bytes_per_triple",
            facts.snapshot_bytes_per_triple,
        );
        let parse_s = m.get("rdf-io.parse.ms").median / 1e3;
        if parse_s > 0.0 {
            m.exact(
                "rdf-io.parse.mb_per_s",
                facts.nt_bytes as f64 / 1e6 / parse_s,
            );
        }
        m.exact(
            "trace.overhead_frac",
            tr.spans().len() as f64 * crate::trace::span_cost_s() / traced_s,
        );
        tr.write_json(&env.trace_file("build_restart"))
            .map_err(|e| format!("writing trace: {e}"))?;
    }
    m.exact("client.attempted", tally.attempted as f64);
    m.exact(
        "error_rate",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );

    Ok(Report {
        workload: "build_restart",
        seed: env.seed,
        seconds: env.seconds,
        traced: env.traced,
        settings: vec![
            (
                "server",
                format!(
                    "rdfsummary serve --addr 127.0.0.1:0 {} --persist-dir {PERSIST_DIR}",
                    server::SERVE_FLAGS.join(" ")
                ),
            ),
            (
                "dataset",
                format!("BSBM {} products, {} triples", ds.products, ds.graph.len()),
            ),
            ("generator", "1 process, 1 connection, window 1".into()),
            (
                "lifetimes",
                format!(
                    "{} cold + {} restart, alternating; a slice is one pair",
                    colds.len(),
                    restarts.len()
                ),
            ),
            ("set-ups", format!("{SETUPS} (setup_s is their median)")),
            (
                "throughput_rps",
                "requests / wall time of one pair, spawn and kill included".into(),
            ),
            (
                "primary_ms",
                "cold time-to-ready: LOAD .nt + five cold SUMMARIZEs (load_s + cold_summarize_ms + cold_summarize_t_ms)".into(),
            ),
            (
                "secondary_ms",
                "restart time-to-ready: LOAD .snap + five persist-hit SUMMARIZEs (load_snap_s + restart_summarize_ms)".into(),
            ),
        ],
        metrics: m,
        tally,
        warnings,
    })
}
