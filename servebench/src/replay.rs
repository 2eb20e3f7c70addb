//! The traced replay: the same set-up and operation sequence the TCP run
//! served, re-run in-process against the library's public calls, with a
//! span around each call into a layer. Spans stay in memory and are
//! written out when the run ends. End-to-end metrics are never taken here.

use std::collections::HashMap;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pt_core::{Engine, MemoPolicy, PreparedPlan, RunOptions, RunResult};
use pt_relational::Instance;
use pt_server::{ChunkedXmlSink, ServerConfig};
use pt_xmltree::{CountingSink, Guarded, XmlWriter};

use crate::stats::Digest;
use crate::workload::{Op, Oracle, Workload};

/// One timed call: `req` is the request it served, `parent` the span that
/// caused it (an index into the span list).
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: usize,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records spans when on; when off, runs the same code untimed.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn span<R>(
        &mut self,
        name: &'static str,
        req: usize,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            req,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now();
        out
    }

    /// Write the spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

/// The memo bound `pt-serve` prepares every plan with.
fn memo_policy() -> MemoPolicy {
    MemoPolicy::Bounded {
        max_entries: ServerConfig::default().memo_entries_per_plan,
    }
}

/// One tenant engine per tenant and one plan per view, built the way the
/// server builds them: an empty engine fed the seed as a delta, and each
/// wire-format spec prepared into an owning plan.
struct Replica {
    engines: Vec<Arc<Engine>>,
    plans: Vec<PreparedPlan>,
    masks: Vec<u64>,
}

impl Replica {
    fn build(w: &Workload, tr: &mut Tracer, req: &mut usize) -> Result<Replica, String> {
        let mut engines = Vec::new();
        for t in &w.tenants {
            let seed = t.seed_delta();
            *req += 1;
            let engine = tr.span("op.seed", *req, |tr| {
                let delta = tr.span("spec.parse_delta", *req, |_| pt_server::parse_delta(&seed));
                let delta = delta.map_err(|e| format!("seed of {}: {e}", t.name))?;
                tr.span("engine.new", *req, |_| {
                    let engine = Arc::new(Engine::new(Instance::new()));
                    engine
                        .apply(&delta)
                        .map_err(|e| format!("seed of {}: {e}", t.name))?;
                    Ok::<_, String>(engine)
                })
            })?;
            engines.push(engine);
        }
        let mut plans = Vec::new();
        for v in &w.views {
            *req += 1;
            let plan = tr.span("op.register", *req, |tr| {
                let spec = tr.span("spec.parse_view", *req, |_| {
                    pt_server::parse_view_spec(&v.spec)
                });
                let spec = spec.map_err(|e| format!("spec of {}: {e}", v.name))?;
                let tau = Arc::new(spec.transducer);
                tr.span("engine.prepare", *req, |_| {
                    engines[v.tenant].prepare_plan(tau, memo_policy())
                })
                .map_err(|e| format!("prepare of {}: {e}", v.name))
            })?;
            plans.push(plan);
        }
        Ok(Replica {
            masks: vec![0; engines.len()],
            engines,
            plans,
        })
    }

    fn write(
        &mut self,
        w: &Workload,
        tenant: usize,
        toggle: usize,
        insert: bool,
        tr: &mut Tracer,
        req: usize,
    ) -> Result<WriteFacts, String> {
        let body = w.tenants[tenant].write_body(toggle, insert);
        let engine = &self.engines[tenant];
        let report = tr.span("op.write", req, |tr| {
            let delta = tr.span("spec.parse_delta", req, |_| pt_server::parse_delta(&body));
            let delta = delta.map_err(|e| e.to_string())?;
            tr.span("engine.apply", req, |_| engine.apply(&delta))
                .map_err(|e| e.to_string())
        })?;
        self.masks[tenant] ^= 1 << toggle;
        Ok(WriteFacts {
            req,
            ok: report.tuples_inserted == usize::from(insert)
                && report.tuples_retracted == usize::from(!insert),
            evicted: report.memo_entries_evicted,
            resorted: report.relations_resorted,
        })
    }

    fn run(&self, view: usize, threads: usize) -> Result<RunResult, String> {
        let opts = RunOptions {
            threads,
            ..RunOptions::default()
        };
        self.plans[view]
            .session()
            .run_opts(opts)
            .map_err(|e| e.to_string())
    }
}

pub struct ReadFacts {
    pub req: usize,
    pub cold: bool,
    pub expansions: usize,
    pub timeouts: usize,
    pub events: usize,
    pub bytes: usize,
    pub nodes: usize,
    pub ok: bool,
}

pub struct WriteFacts {
    pub req: usize,
    pub ok: bool,
    pub evicted: usize,
    pub resorted: usize,
}

pub struct Replay {
    pub tracer: Tracer,
    pub reads: Vec<ReadFacts>,
    pub writes: Vec<WriteFacts>,
    /// Wall time from the start through op `mark` of the sequence.
    pub wall_to_mark: Duration,
}

/// Replay `ops` (warm-up reads first) on a fresh replica, recording spans
/// when `traced`. Each read runs the served path — `run_opts`, then the
/// stream into a [`ChunkedXmlSink`] over `io::sink()` — and, as the
/// split of that stream, an event walk ([`CountingSink`]) and a render
/// ([`XmlWriter`]). A read that expanded is followed by a second
/// `run_opts`, the warm replay the same state costs.
pub fn replay(
    w: &Workload,
    oracle: &Oracle,
    ops: &[Op],
    traced: bool,
    mark: usize,
) -> Result<Replay, String> {
    let mut tr = Tracer::new(traced);
    let started = Instant::now();
    let mut req = 0usize;
    let mut rep = Replica::build(w, &mut tr, &mut req)?;
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    let mut last_root: Vec<Option<(usize, usize)>> = vec![None; w.views.len()];
    let mut wall_to_mark = Duration::ZERO;
    for (i, &op) in ops.iter().enumerate() {
        req += 1;
        match op {
            Op::Write {
                tenant,
                toggle,
                insert,
            } => {
                writes.push(rep.write(w, tenant, toggle, insert, &mut tr, req)?);
            }
            Op::Read { view, .. } => {
                let threads = w.views[view].threads;
                let session = rep.plans[view].session();
                let (e0, t0) = (session.memo_expansions(), session.memo_timeout_expansions());
                let rep_ref = &rep;
                let (run, xml, events) = tr.span("op.read", req, |tr| {
                    let run = tr.span("semantics.run", req, |_| rep_ref.run(view, threads))?;
                    if session.memo_expansions() > e0 {
                        tr.span("semantics.run_warm", req, |_| rep_ref.run(view, threads))?;
                    }
                    let events = tr.span("stream.walk", req, |_| {
                        let mut sink = CountingSink::new();
                        run.stream_output(&mut sink);
                        sink.events()
                    });
                    let xml = tr.span("stream.render", req, |_| {
                        let mut sink = XmlWriter::new();
                        run.stream_output(&mut sink);
                        sink.into_string()
                    });
                    tr.span("sink.chunk", req, |_| {
                        let mut guarded = Guarded::new(
                            ChunkedXmlSink::new(std::io::sink()),
                            usize::MAX,
                            usize::MAX,
                        );
                        run.stream_output(&mut guarded);
                        guarded.into_inner().finish()
                    })
                    .map_err(|e| e.to_string())?;
                    Ok::<_, String>((run, xml, events))
                })?;
                let expansions = session.memo_expansions() - e0;
                let root = run.result_tree() as *const _ as usize;
                let nodes = match last_root[view] {
                    Some((r, n)) if r == root && expansions == 0 => n,
                    _ => run.size(),
                };
                last_root[view] = Some((root, nodes));
                let mask = rep.masks[w.views[view].tenant];
                reads.push(ReadFacts {
                    req,
                    cold: expansions > 0,
                    expansions,
                    timeouts: session.memo_timeout_expansions() - t0,
                    events,
                    bytes: xml.len(),
                    nodes,
                    ok: Digest::of(xml.as_bytes()) == oracle.expect(w, view, mask),
                });
            }
        }
        if i + 1 == mark {
            wall_to_mark = started.elapsed();
        }
    }
    if mark >= ops.len() {
        wall_to_mark = started.elapsed();
    }
    Ok(Replay {
        tracer: tr,
        reads,
        writes,
        wall_to_mark,
    })
}

/// `par.speedup_x` samples: two replicas step through the same sequence,
/// one at the thread count the workload serves with and one at the other
/// of {1, 2}, so each read runs on the same state on both. For each read
/// that expanded, the ratio of its threads=1 time to its threads=2 time;
/// stops after `max` samples.
pub fn speedups(w: &Workload, ops: &[Op], max: usize) -> Result<Vec<f64>, String> {
    let mut quiet = Tracer::new(false);
    let mut req = 0;
    let mut served = Replica::build(w, &mut quiet, &mut req)?;
    let mut other = Replica::build(w, &mut quiet, &mut req)?;
    let mut out = Vec::new();
    for &op in ops {
        match op {
            Op::Write {
                tenant,
                toggle,
                insert,
            } => {
                served.write(w, tenant, toggle, insert, &mut quiet, 0)?;
                other.write(w, tenant, toggle, insert, &mut quiet, 0)?;
            }
            Op::Read { view, .. } => {
                let threads = w.views[view].threads;
                let alt = if threads == 1 { 2 } else { 1 };
                let before = served.plans[view].session().memo_expansions();
                let time = |rep: &Replica, t: usize| {
                    let t0 = Instant::now();
                    rep.run(view, t).map(|_| t0.elapsed().as_secs_f64())
                };
                // alternate which replica goes first
                let (ts, ta) = if out.len() % 2 == 0 {
                    let ts = time(&served, threads)?;
                    (ts, time(&other, alt)?)
                } else {
                    let ta = time(&other, alt)?;
                    (time(&served, threads)?, ta)
                };
                if served.plans[view].session().memo_expansions() > before {
                    out.push(if threads == 1 { ts / ta } else { ta / ts });
                    if out.len() >= max {
                        break;
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Per request, the total duration in ms of each span name.
pub fn by_request(spans: &[Span]) -> HashMap<usize, HashMap<&'static str, f64>> {
    let mut out: HashMap<usize, HashMap<&'static str, f64>> = HashMap::new();
    for s in spans {
        *out.entry(s.req).or_default().entry(s.name).or_insert(0.0) += s.ms();
    }
    out
}

/// Self time per span name over the whole replay — a span's duration
/// minus the part its child spans cover — largest first.
pub fn self_ms(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut own: Vec<f64> = spans.iter().map(Span::ms).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.ms();
        }
    }
    let mut totals: Vec<(&'static str, f64)> = Vec::new();
    for (s, own) in spans.iter().zip(own) {
        match totals.iter_mut().find(|(n, _)| *n == s.name) {
            Some(t) => t.1 += own,
            None => totals.push((s.name, own)),
        }
    }
    totals.sort_by(|a, b| b.1.total_cmp(&a.1));
    totals
}
