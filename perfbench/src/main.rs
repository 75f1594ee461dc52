//! Loopback serving benchmark for `rlwe-server`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Starts an in-process `rlwe_server::serve` on `127.0.0.1:0` with its
//! default configuration (plus a key seed derived from `--seed`) and
//! drives it from two closed-loop client threads over real loopback
//! sockets, checking every reply. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` runs the workload untraced and then traced,
//! replays every layer in-process, prints a decomposition table and the
//! per-layer metrics. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`.
//! See `perfbench/README.md` for the workloads and what each metric is
//! expected to move.

mod load;
mod replay;
mod report;
mod scrape;
mod stats;

use load::{Bench, Phase, Shape, Tally, Workload, WORKLOADS};
use report::{Metrics, SpanStats};
use scrape::Scrape;
use stats::{mean, median, quantile};
use std::collections::BTreeMap;
use std::io::Write;

/// Server starts per run; `setup_s` is their median.
const SETUP_REPS: u64 = 60;
/// Churn sessions per client that measure connect and handshake after
/// a stream workload's window.
const PROBE_SESSIONS: u64 = 256;
/// Warm round trips per op in the traced run's socket probe.
const PROBE_ROUND_TRIPS: usize = 200;

/// The end-to-end metrics, in BENCHMARK.json order (`--trace 0`).
const END_TO_END: [&str; 6] = [
    "setup_s",
    "connect_p50_us",
    "handshake_p50_us",
    "exchange_p50_us",
    "exchanges_per_s",
    "payload_mb_per_s",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |k: &str| flags.get(k).ok_or(format!("missing {k}"));
    let name = get("--workload")?;
    let workload = *WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or(format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed takes an integer")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            let mut out = std::io::stdout().lock();
            let _ = writeln!(out, "{line}");
            let _ = out.flush();
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Every end-to-end quantity one timed window `t` yields, by name.
/// Connect and handshake come from `sessions`: the window itself for
/// churn, the session probe after the window for a stream workload.
fn window_metrics(
    bench: &Bench,
    t: &Tally,
    sessions: &Tally,
    elapsed: f64,
) -> BTreeMap<&'static str, (f64, &'static str)> {
    let w = bench.w;
    let mut connect = sessions.connect_us.clone();
    let mut handshake = sessions.handshake_us.clone();
    let mut exchange = t.exchange_us.clone();
    let mut setup = bench.setup_s.clone();
    // Throughput is the median over equal slices of the window, so a
    // burst of load from outside the benchmark moves it less.
    let rate = median(&mut t.slice_rates.clone());
    BTreeMap::from([
        ("setup_s", (median(&mut setup), "s")),
        ("connect_p50_us", (median(&mut connect), "us")),
        ("connect_p99_us", (quantile(&mut connect, 0.99), "us")),
        ("handshake_p50_us", (median(&mut handshake), "us")),
        ("handshake_p99_us", (quantile(&mut handshake, 0.99), "us")),
        ("sessions_per_s", (t.sessions as f64 / elapsed, "1/s")),
        ("exchange_p50_us", (median(&mut exchange), "us")),
        ("exchange_p99_us", (quantile(&mut exchange, 0.99), "us")),
        ("exchanges_per_s", (rate, "1/s")),
        ("payload_mb_per_s", (rate * w.payload as f64 / 1e6, "MB/s")),
        (
            "error_ratio",
            (t.failed as f64 / t.attempted.max(1) as f64, "ratio"),
        ),
    ])
}

/// Ends the timed part of a run: closes the stream sessions (freeing
/// their workers) and, on a stream workload, opens probe sessions that
/// measure connect and handshake on the same server.
fn after_window(bench: &mut Bench) -> Option<Tally> {
    bench.close_clients();
    (bench.w.shape == Shape::Stream).then(|| bench.session_probe(PROBE_SESSIONS))
}

/// Scrapes `/metrics` and reconciles it with the clients' totals.
/// Call it after [`Bench::close_clients`]: the server serves each
/// connection on one worker until it closes, so while both workers hold
/// stream sessions a scrape waits for an idle eviction.
fn scrape(bench: &mut Bench, problems: &mut Vec<String>) -> Result<Scrape, String> {
    bench.scrapes += 1;
    let s = Scrape::fetch(bench.addr())?;
    let set = format!("{:?}", bench.w.set);
    problems.extend(scrape::reconcile(&s, &bench.total, bench.scrapes, &set));
    Ok(s)
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let mut bench = Bench::setup(w, args.seed, SETUP_REPS, args.trace)?;
    let mut problems = Vec::new();
    if !args.trace {
        let (mut t, elapsed) = bench.run(args.seconds);
        let probe = after_window(&mut bench);
        scrape(&mut bench, &mut problems)?;
        bench.close();
        let all = window_metrics(&bench, &t, probe.as_ref().unwrap_or(&t), elapsed);
        let metrics: Metrics = END_TO_END
            .iter()
            .map(|name| {
                let (value, unit) = all[name];
                (name.to_string(), value, unit)
            })
            .collect();
        if let Some((name, _, _)) = metrics
            .iter()
            .find(|(_, v, _)| !(v.is_finite() && *v > 0.0))
        {
            problems.push(format!("{name} has no samples"));
        }
        t.merge(probe.unwrap_or_default());
        return Ok(finish(&problems, &t, metrics));
    }
    traced(&mut bench, args, problems)
}

/// Prints the problems and returns the result line.
fn finish(problems: &[String], t: &Tally, metrics: Metrics) -> String {
    if let Some(e) = &t.first_error {
        eprintln!("perfbench: first failure: {e}");
    }
    for p in problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let correct = problems.is_empty() && t.failed == 0 && t.attempted > 0;
    report::result_json(correct, t.attempted, t.failed, &metrics)
}

/// The traced run: half the window untraced, half traced, the probes
/// and one scrape, then the in-process layer replay and the
/// decomposition table.
fn traced(bench: &mut Bench, args: &Args, mut problems: Vec<String>) -> Result<String, String> {
    let w = bench.w;
    bench.set_tracing(false);
    let (untraced, ut_elapsed) = bench.run(args.seconds / 2.0);
    bench.set_tracing(true);
    let (traced, _) = bench.run(args.seconds / 2.0);
    bench.set_tracing(false);
    let sessions = after_window(bench);
    let (mut ping_us, mut pk_us, round_trips) = bench.round_trip_probe(PROBE_ROUND_TRIPS);
    let s = scrape(bench, &mut problems)?;
    bench.close();
    let spans = bench.take_spans();
    let sp = SpanStats::new(&spans);

    // Layer replay: the served set on the workload's own hellos, the
    // other set on hellos generated the same way.
    let recorded = match w.shape {
        Shape::Churn => &traced.hellos,
        Shape::Stream => &bench.setup.hellos,
    };
    let mut per_set = Vec::new();
    for set in [rlwe_core::ParamSet::P1, rlwe_core::ParamSet::P2] {
        let hellos: &[replay::Hello] = if set == w.set { recorded } else { &[] };
        let r = replay::replay_set(set, args.seed, hellos)?;
        if r.verdict_mismatches > 0 {
            problems.push(format!(
                "{set:?}: {} replayed accepts disagree with the server",
                r.verdict_mismatches
            ));
        }
        per_set.push((set, r.layers));
    }
    let payloads = replay::PAYLOAD_SIZES.map(|size| {
        let mut p = vec![0u8; size];
        let seed = stats::derive_seed(args.seed, "payload", 0, 0);
        rand::RngCore::fill_bytes(&mut rlwe_core::drbg::HashDrbg::new(seed), &mut p);
        p
    });
    let sym = replay::replay_symmetric(args.seed, &payloads)?;
    let served = &per_set
        .iter()
        .find(|(set, _)| *set == w.set)
        .expect("the served set was replayed")
        .1;

    // Tracing overhead: traced over untraced mean, minus one. Stream
    // workloads handshake only during set-up, which is traced whenever
    // the run is, so only their exchange has an untraced counterpart.
    let churn = w.shape == Shape::Churn;
    let overhead = [
        (Phase::Exchange, &untraced.exchange_us, true),
        (Phase::Handshake, &untraced.handshake_us, churn),
        (Phase::Connect, &untraced.connect_us, churn),
    ]
    .map(|(phase, untraced_us, measured)| {
        let base = mean(untraced_us);
        (measured && base > 0.0).then(|| sp.mean(phase) / base - 1.0)
    });
    // Server-side dispatch means, cumulative since the process started.
    let dispatch_us = |op: &str| {
        let (sum, count) = s.dispatch_sum_count(op);
        if count > 0.0 {
            sum / count / 1e3
        } else {
            0.0
        }
    };
    let warm_pk = median(&mut pk_us);
    let rows = report::decomposition(&report::Observed {
        spans: &sp,
        overhead,
        sym: &sym,
        served,
        dispatch_us: &dispatch_us,
        warm_public_key_us: warm_pk,
        size: if w.payload == 64 { "64b" } else { "16k" },
    });
    let title = format!(
        "decomposition: {} (seed {}, {:?}); client rows are means over the traced half, \
         replay rows medians per call; the unattributed share of a round-trip row is socket, \
         wire and queue time",
        w.name, args.seed, w.set
    );
    println!("{}", report::table(&title, &rows));
    let trace_file = write_spans(&spans, w.name, args.seed);
    println!("spans: {} recorded{}", spans.len(), trace_file);

    // Per-layer metrics.
    let mut m: Metrics = Vec::new();
    let mut put = |name: String, value: f64, unit: &'static str| m.push((name, value, unit));
    let window = window_metrics(
        bench,
        &untraced,
        sessions.as_ref().unwrap_or(&untraced),
        ut_elapsed,
    );
    for name in [
        "connect_p99_us",
        "handshake_p99_us",
        "exchange_p99_us",
        "sessions_per_s",
        "error_ratio",
    ] {
        let (value, unit) = window[name];
        put(name.to_string(), value, unit);
    }
    let mut wait: Vec<f64> = sp
        .samples(Phase::PublicKey)
        .iter()
        .map(|us| (us - warm_pk).max(0.0))
        .collect();
    put("server.accept.wait_p50_us".into(), median(&mut wait), "us");
    put(
        "server.accept.wait_p99_us".into(),
        quantile(&mut wait, 0.99),
        "us",
    );
    put(
        "server.accept.accepted".into(),
        s.sum("rlwe_server_connections_accepted_total", &[]),
        "count",
    );
    put(
        "server.accept.shed".into(),
        s.sum("rlwe_server_shed_total", &[]),
        "count",
    );
    put(
        "server.accept.rejected".into(),
        s.sum("rlwe_server_connections_rejected_total", &[]),
        "count",
    );
    let client_rtt_p50 = [
        ("ping", median(&mut ping_us)),
        ("public_key", warm_pk),
        ("session_hello", median(&mut sp.samples(Phase::Hello))),
        ("session_frame", median(&mut sp.samples(Phase::Frame))),
    ];
    for (op, rtt) in client_rtt_p50 {
        let p50_ns = s.dispatch_p50_ns(op);
        put(format!("server.dispatch.{op}.p50_ns"), p50_ns, "ns");
        put(
            format!("server.dispatch.{op}.count"),
            s.sum("rlwe_server_requests_total", &[("op", op)]),
            "count",
        );
        put(format!("server.{op}.socket_us"), rtt - p50_ns / 1e3, "us");
    }
    let total = &bench.total;
    put(
        "engine.session.retry_ratio".into(),
        total.retries as f64 / total.hello_attempts().max(1) as f64,
        "ratio",
    );
    put(
        "engine.session.retries".into(),
        total.retries as f64,
        "count",
    );
    let set_label = format!("{:?}", w.set);
    put(
        "core.kem.encap_live_p50_us".into(),
        s.kem_p50_ns("encap", &set_label) / 1e3,
        "us",
    );
    put(
        "core.kem.decap_live_p50_us".into(),
        s.kem_p50_ns("decap", &set_label) / 1e3,
        "us",
    );
    for (key, value) in &sym {
        put(key.to_string(), *value, unit_of(key));
    }
    for (set, layers) in &per_set {
        let suffix = format!("{set:?}").to_lowercase();
        for (key, value) in layers {
            put(format!("{key}.{suffix}"), *value, unit_of(key));
        }
    }
    for (name, ratio) in ["exchange", "handshake", "connect"].iter().zip(overhead) {
        put(
            format!("trace.overhead.{name}"),
            ratio.unwrap_or(0.0),
            "ratio",
        );
    }

    let mut all = untraced;
    all.merge(traced);
    all.merge(sessions.unwrap_or_default());
    all.merge(round_trips);
    Ok(finish(&problems, &all, m))
}

/// Unit of a replayed layer, from its name.
fn unit_of(key: &str) -> &'static str {
    if key.ends_with("_ns_per_byte") {
        "ns/B"
    } else {
        "us"
    }
}

/// Writes the spans next to the benchmark executable (inside the build
/// directory) as tab-separated lines; returns a note for the report.
fn write_spans(spans: &[load::Span], workload: &str, seed: u64) -> String {
    let Ok(exe) = std::env::current_exe() else {
        return String::new();
    };
    let path = exe.with_file_name(format!("spans-{workload}-{seed}.tsv"));
    let mut body = String::from("trace\tphase\tparent\tstart_ns\tend_ns\n");
    for s in spans {
        body.push_str(&format!(
            "{:x}\t{}\t{}\t{}\t{}\n",
            s.trace,
            s.phase.name(),
            s.parent.map_or("-", Phase::name),
            s.start_ns,
            s.end_ns
        ));
    }
    match std::fs::write(&path, body) {
        Ok(()) => format!(", written to {}", path.display()),
        Err(e) => format!(", not written: {e}"),
    }
}
