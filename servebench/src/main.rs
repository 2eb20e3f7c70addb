//! `servebench`: the end-to-end benchmark of `pt-serve`.
//!
//! One process self-hosts a `pt_server::Server` on an ephemeral loopback
//! port, seeds its tenants and registers its views over HTTP, and drives
//! one traffic mix over real TCP from at most two client threads. Every
//! reply is checked against an in-process oracle. With `--trace 1` the run
//! then replays the same set-up and operation sequence in-process with a
//! span around each call into a layer, and reports per-layer metrics
//! instead of end-to-end ones.
//!
//! ```text
//! cargo run --release --offline --manifest-path servebench/Cargo.toml -- \
//!     --workload stream_deep --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Each metric prints as `name value unit`; the last line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. The exit code is
//! 1 when any reply or replayed output was wrong, 2 on bad arguments.

mod load;
mod replay;
mod stats;
mod workload;

use load::Sample;
use stats::{ms, pct_of};
use workload::{Op, Oracle, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 9;
/// Operations of the served sequence the traced replay re-runs.
const REPLAY_OPS: usize = 160;
/// Prefix of the replay timed both with and without tracing.
const OVERHEAD_OPS: usize = 64;
/// Expanding reads sampled for `par.speedup_x`.
const SPEEDUP_SAMPLES: usize = 16;
/// Samples a `*_p99_ms` figure needs before it is reported.
const P99_MIN_SAMPLES: usize = 1000;

const USAGE: &str = "usage: servebench --workload <stream_deep|live_mixed|cold_fanout|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

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
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 || seconds > 600.0 {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Metrics in print order: `(name, value, unit)`.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // `all` runs every workload in turn, one result block each
    let names: Vec<&str> = match args.workload.as_str() {
        "all" => workload::NAMES.to_vec(),
        one => vec![one],
    };
    let mut correct = true;
    for name in names {
        match run(name, &args) {
            Ok(ok) => correct &= ok,
            Err(e) => {
                eprintln!("servebench: {name}: {e}");
                correct = false;
            }
        }
    }
    if !correct {
        std::process::exit(1);
    }
}

/// Latency of a sample from its due time; a failed request misses every
/// latency target, so it sorts last.
fn latency_ms(s: &Sample, until: std::time::Instant) -> f64 {
    if s.ok {
        ms(until - s.due)
    } else {
        f64::INFINITY
    }
}

fn is_read(op: &Op) -> bool {
    matches!(op, Op::Read { .. })
}

/// End-to-end metrics of the TCP run.
struct Served {
    read_ms: Vec<f64>,
    write_ms: Vec<f64>,
    ttfb_ms: Vec<f64>,
    throughput_rps: f64,
    body_mb_per_s: f64,
    failed: usize,
}

fn summarize(samples: &[Sample]) -> Served {
    let (Some(first), Some(last)) = (
        samples.iter().map(|s| s.due).min(),
        samples.iter().map(|s| s.end).max(),
    ) else {
        return Served {
            read_ms: Vec::new(),
            write_ms: Vec::new(),
            ttfb_ms: Vec::new(),
            throughput_rps: 0.0,
            body_mb_per_s: 0.0,
            failed: 0,
        };
    };
    let elapsed = (last - first).as_secs_f64();
    let ok: Vec<&Sample> = samples.iter().filter(|s| s.ok).collect();
    let bytes: u64 = ok.iter().map(|s| s.bytes).sum();
    Served {
        read_ms: samples
            .iter()
            .filter(|s| is_read(&s.op))
            .map(|s| latency_ms(s, s.end))
            .collect(),
        write_ms: samples
            .iter()
            .filter(|s| !is_read(&s.op))
            .map(|s| latency_ms(s, s.end))
            .collect(),
        ttfb_ms: samples
            .iter()
            .filter(|s| is_read(&s.op))
            .map(|s| latency_ms(s, s.first_byte))
            .collect(),
        throughput_rps: ok.len() as f64 / elapsed,
        body_mb_per_s: bytes as f64 / elapsed / 1e6,
        failed: samples.len() - ok.len(),
    }
}

/// Run one workload and print its result block; `Ok(false)` when any
/// reply or replayed output was wrong.
fn run(workload: &str, args: &Args) -> Result<bool, String> {
    let w = Workload::build(workload, args.seed)?;
    let oracle = Oracle::build(&w)?;
    println!(
        "# host cores={} uname=\"{}\" workload={} seed={} seconds={} trace={}",
        stats::cores(),
        stats::uname_line(),
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    // `rss_peak_mb` covers the server and the load only, not the oracle
    println!("# rss_peak_mb before set-up {} MB", stats::peak_rss_mb()?);
    stats::reset_peak_rss()?;
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_ROUNDS {
        // the previous round's server drains before the next binds
        drop(server.take());
        let (s, took) = load::start(&w, &oracle)?;
        setups.push(took.as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one set-up round");
    let samples = load::drive(server.local_addr(), &w, &oracle, args.seconds);
    server.shutdown();
    let served = summarize(&samples);
    let mut correct = served.failed == 0 && !samples.is_empty();

    let reads = served.read_ms.len();
    let writes = served.write_ms.len();
    let read_p50 = pct_of(served.read_ms.clone(), 50.0);
    let write_p50 = pct_of(served.write_ms.clone(), 50.0);
    println!("# samples reads={reads} writes={writes}");
    println!(
        "error_ratio {} ratio",
        served.failed as f64 / samples.len().max(1) as f64
    );
    for (name, values) in [
        ("read_p99_ms", &served.read_ms),
        ("write_p99_ms", &served.write_ms),
    ] {
        if values.len() >= P99_MIN_SAMPLES {
            println!(
                "{name} {} ms n={}",
                pct_of(values.clone(), 99.0),
                values.len()
            );
        } else {
            println!(
                "# {name} not reported: {} samples < {P99_MIN_SAMPLES}",
                values.len()
            );
        }
    }
    let late_p99 = pct_of(
        samples.iter().map(|s| s.late_ns as f64 / 1e6).collect(),
        99.0,
    );
    let client_p50 = pct_of(
        samples.iter().map(|s| s.client_ns as f64 / 1e6).collect(),
        50.0,
    );

    let metrics: Metrics = if args.trace {
        let (layer, replay_ok) = layers(&w, &oracle, &samples, read_p50, write_p50, args.seed)?;
        correct &= replay_ok;
        let mut m = layer;
        m.push(("loadgen.late_p99_ms", late_p99, "ms"));
        m.push(("loadgen.client_ms", client_p50, "ms"));
        m
    } else {
        vec![
            ("setup_s", pct_of(setups, 50.0), "s"),
            ("read_p50_ms", read_p50, "ms"),
            ("write_p50_ms", write_p50, "ms"),
            ("ttfb_p50_ms", pct_of(served.ttfb_ms.clone(), 50.0), "ms"),
            ("throughput_rps", served.throughput_rps, "req/s"),
            ("body_mb_per_s", served.body_mb_per_s, "MB/s"),
            ("rss_peak_mb", stats::peak_rss_mb()?, "MB"),
        ]
    };
    for (name, value, unit) in &metrics {
        let n = match *name {
            "read_p50_ms" | "ttfb_p50_ms" => format!(" n={reads}"),
            "write_p50_ms" => format!(" n={writes}"),
            _ => String::new(),
        };
        println!("{name} {value} {unit}{n}");
    }
    correct &= metrics.iter().all(|(_, v, _)| v.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        samples.len(),
        served.failed,
        body.join(", ")
    );
    Ok(correct)
}

/// The traced replay and the per-layer metrics derived from it. Returns
/// the metrics and whether every replayed output matched the oracle.
fn layers(
    w: &Workload,
    oracle: &Oracle,
    samples: &[Sample],
    read_p50: f64,
    write_p50: f64,
    seed: u64,
) -> Result<(Metrics, bool), String> {
    let warmups = (0..w.views.len()).map(|view| Op::Read { view, mask: 0 });
    let ops: Vec<Op> = warmups
        .chain(samples.iter().take(REPLAY_OPS).map(|s| s.op))
        .collect();
    let mark = OVERHEAD_OPS.min(ops.len());
    // the first replay in a process pays its first-touch costs; discard it
    replay::replay(w, oracle, &ops[..mark], false, mark)?;
    let untraced = replay::replay(w, oracle, &ops[..mark], false, mark)?;
    let traced = replay::replay(w, oracle, &ops, true, mark)?;
    let speedups = replay::speedups(w, &ops, SPEEDUP_SAMPLES)?;
    let ok = traced.reads.iter().all(|r| r.ok) && traced.writes.iter().all(|x| x.ok);

    let spans = &traced.tracer.spans;
    let per_req = replay::by_request(spans);
    let dur = |req: usize, name: &str| {
        per_req
            .get(&req)
            .and_then(|m| m.get(name))
            .copied()
            .unwrap_or(0.0)
    };
    let reads = &traced.reads;
    let served_reads = &reads[w.views.len().min(reads.len())..];
    let p50 = |v: Vec<f64>| pct_of(v, 50.0);
    let total = |name: &str| {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ms())
            .sum::<f64>()
    };
    let expansions: usize = reads.iter().map(|r| r.expansions).sum();
    let timeouts: usize = reads.iter().map(|r| r.timeouts).sum();
    let n_writes = traced.writes.len().max(1) as f64;

    let self_ms = replay::self_ms(spans);
    let in_process: f64 = self_ms.iter().map(|(_, own)| own).sum();
    for (name, own) in &self_ms {
        println!("# self_ms {name} {own:.3} share={:.4}", own / in_process);
    }
    println!(
        "# cold reads without an evicting write since the view's last read: {}",
        unexpected_cold(w, &ops, reads)
    );
    if let Some(closure) = closure_ms(w)? {
        println!("eval.closure_ms {closure} ms");
    }
    let dir = std::path::Path::new(".bench_trace");
    std::fs::create_dir_all(dir).map_err(|e| format!("trace dir: {e}"))?;
    let path = dir.join(format!("{}-seed{seed}.jsonl", w.name));
    let mut file = std::io::BufWriter::new(
        std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?,
    );
    traced
        .tracer
        .write_jsonl(&mut file)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# {} spans written to {}", spans.len(), path.display());

    let metrics = vec![
        (
            "stream.render_ms",
            p50(reads.iter().map(|r| dur(r.req, "stream.render")).collect()),
            "ms",
        ),
        (
            "stream.walk_ms",
            p50(reads.iter().map(|r| dur(r.req, "stream.walk")).collect()),
            "ms",
        ),
        (
            "sink.chunk_ms",
            p50(reads
                .iter()
                .map(|r| dur(r.req, "sink.chunk") - dur(r.req, "stream.render"))
                .collect()),
            "ms",
        ),
        (
            "stream.events",
            p50(reads.iter().map(|r| r.events as f64).collect()),
            "count",
        ),
        (
            "stream.bytes",
            p50(reads.iter().map(|r| r.bytes as f64).collect()),
            "bytes",
        ),
        (
            "semantics.run_warm_ms",
            p50(reads
                .iter()
                .map(|r| {
                    dur(
                        r.req,
                        if r.cold {
                            "semantics.run_warm"
                        } else {
                            "semantics.run"
                        },
                    )
                })
                .collect()),
            "ms",
        ),
        (
            "semantics.run_cold_ms",
            p50(reads
                .iter()
                .filter(|r| r.cold)
                .map(|r| dur(r.req, "semantics.run"))
                .collect()),
            "ms",
        ),
        (
            "semantics.expansions",
            expansions as f64 / reads.len().max(1) as f64,
            "count",
        ),
        (
            "semantics.unfolded_nodes",
            p50(reads.iter().map(|r| r.nodes as f64).collect()),
            "count",
        ),
        ("semantics.timeout_expansions", timeouts as f64, "count"),
        (
            "semantics.duplicate_ratio",
            if expansions == 0 {
                0.0
            } else {
                timeouts as f64 / expansions as f64
            },
            "ratio",
        ),
        ("par.speedup_x", p50(speedups), "x"),
        (
            "engine.apply_ms",
            p50(traced
                .writes
                .iter()
                .map(|x| dur(x.req, "engine.apply"))
                .collect()),
            "ms",
        ),
        (
            "engine.apply_evicted",
            traced.writes.iter().map(|x| x.evicted).sum::<usize>() as f64 / n_writes,
            "count",
        ),
        (
            "engine.apply_resorted",
            traced.writes.iter().map(|x| x.resorted).sum::<usize>() as f64 / n_writes,
            "count",
        ),
        (
            "spec.parse_delta_us",
            1e3 * p50(traced
                .writes
                .iter()
                .map(|x| dur(x.req, "spec.parse_delta"))
                .collect()),
            "us",
        ),
        ("engine.new_ms", total("engine.new"), "ms"),
        ("engine.prepare_ms", total("engine.prepare"), "ms"),
        ("spec.parse_view_ms", total("spec.parse_view"), "ms"),
        (
            "http.read_overhead_ms",
            read_p50
                - p50(served_reads
                    .iter()
                    .map(|r| dur(r.req, "semantics.run") + dur(r.req, "sink.chunk"))
                    .collect()),
            "ms",
        ),
        (
            "http.write_overhead_ms",
            write_p50
                - p50(traced
                    .writes
                    .iter()
                    .map(|x| dur(x.req, "spec.parse_delta") + dur(x.req, "engine.apply"))
                    .collect()),
            "ms",
        ),
        (
            "trace.overhead_ratio",
            traced.wall_to_mark.as_secs_f64() / untraced.wall_to_mark.as_secs_f64(),
            "ratio",
        ),
    ];
    Ok((metrics, ok))
}

/// Reads that expanded although no write to a relation their view reads
/// came since the view's previous read. Warm-up reads start dirty.
fn unexpected_cold(w: &Workload, ops: &[Op], reads: &[replay::ReadFacts]) -> usize {
    let mut dirty = vec![true; w.views.len()];
    let mut facts = reads.iter();
    let mut count = 0;
    for op in ops {
        match *op {
            Op::Write { tenant, toggle, .. } => {
                for (v, view) in w.views.iter().enumerate() {
                    if view.tenant == tenant && view.relevant & (1 << toggle) != 0 {
                        dirty[v] = true;
                    }
                }
            }
            Op::Read { view, .. } => {
                if facts.next().is_some_and(|r| r.cold) && !dirty[view] {
                    count += 1;
                }
                dirty[view] = false;
            }
        }
    }
    count
}

/// `eval.closure_ms`: the closure body of a fixpoint view evaluated from
/// scratch with `eval_to_relation`, to set against `engine.apply_ms` on
/// edge writes (which migrate the cached fixpoint instead). `None` when
/// the workload serves no fixpoint view.
fn closure_ms(w: &Workload) -> Result<Option<f64>, String> {
    for v in &w.views {
        for (_, items) in v.reference.rules() {
            for item in items {
                let q = &item.query;
                if q.fragment() != pt_logic::Fragment::IFP {
                    continue;
                }
                let inst = &w.tenants[v.tenant].base;
                let mut times = Vec::new();
                for _ in 0..5 {
                    let t = std::time::Instant::now();
                    let rel =
                        pt_logic::eval::eval_to_relation(inst, None, q.body(), &q.head_vars())
                            .map_err(|e| format!("closure eval: {e:?}"))?;
                    std::hint::black_box(rel);
                    times.push(ms(t.elapsed()));
                }
                return Ok(Some(pct_of(times, 50.0)));
            }
        }
    }
    Ok(None)
}
