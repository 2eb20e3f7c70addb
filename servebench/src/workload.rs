//! The three traffic mixes: their tenants, views, write pools and the
//! seeded operation streams that the load generator and the traced replay
//! both draw from, plus the output oracle.
//!
//! Every write toggles one row of a small per-tenant pool, so the set of
//! database states a workload can reach is every subset of its pool. The
//! oracle renders each view in-process on each of those states.

use std::collections::HashMap;

use pt_core::examples::registrar;
use pt_core::Transducer;
use pt_relational::{Instance, Schema, Value};
use pt_xmltree::XmlWriter;

use crate::stats::{Digest, Rng};

/// Open-loop arrival rate of `live_mixed`, in requests per second: about
/// half of the mix's capacity over fresh connections on a 2-core x86-64
/// host (159 req/s; the README says how it was measured), frozen here. At
/// this rate one run leaves at most ~60 s × rate sockets in TIME_WAIT, far
/// below the 28k-port ephemeral range.
pub const LIVE_MIXED_RATE: f64 = 80.0;

/// Names of the workloads, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["stream_deep", "live_mixed", "cold_fanout"];

/// τ2 of Example 3.1 in the wire format: prerequisite closures spliced
/// through the virtual tag `l`.
const TAU2_SPEC: &str = "\
schema course/3 prereq/2
start q0 db
virtual l
rule q0 db -> q course : (cno, title) <- exists dept (course(cno, title, dept) and dept = 'CS')
rule q course -> q cno : (c) <- exists t (Reg(c, t))
rule q course -> q title : (t) <- exists c (Reg(c, t))
rule q course -> q prereq : (c) <- exists t (Reg(c, t))
rule q prereq -> q l : (; c) <- exists c0 (Reg(c0) and prereq(c0, c))
rule q l -> q l : (; c) <- (Reg(c) or exists c0 (Reg(c0) and prereq(c0, c)))
rule q l -> q cno : (c) <- Reg(c) and forall c2 ((not (Reg(c2) or exists c0 (Reg(c0) and prereq(c0, c2)))) or Reg(c2))
rule q cno -> q text : (c) <- Reg(c)
rule q title -> q text : (t) <- Reg(t)
";

/// `pt_bench::roster_view()` in the wire format.
const ROSTER_SPEC: &str = "\
schema course/3 prereq/2 enrolled/2
start q0 db
rule q0 db -> q course : (cno, title) <- exists d (course(cno, title, d) and d = 'CS')
rule q course -> q cno : (c) <- exists t (Reg(c, t))
rule q course -> q roster : (; s) <- exists c t (Reg(c, t) and enrolled(s, c))
rule q roster -> q student : (s) <- Reg(s)
rule q student -> q text : (s) <- Reg(s)
rule q cno -> q text : (c) <- Reg(c)
";

const TC_QUERY: &str =
    "(v, w) <- fix T(x, y) { edge(x, y) or exists z (T(x, z) and edge(z, y)) }(v, w)";

fn tc_view() -> Transducer {
    Transducer::builder(Schema::with(&[("edge", 2)]), "q0", "tc")
        .rule("q0", "tc", &[("q", "pair", TC_QUERY)])
        .build()
        .expect("closure view is well-formed")
}

/// One row a write may flip: inserted when absent, retracted when present.
pub struct Toggle {
    pub relation: &'static str,
    pub tuple: Vec<Value>,
    pub present_at_seed: bool,
}

/// A tenant: the database it is seeded with and its write pool. A state
/// is a bit mask over the pool: bit `i` set means toggle `i` is flipped
/// away from the seed.
pub struct TenantDef {
    pub name: &'static str,
    pub base: Instance,
    pub toggles: Vec<Toggle>,
}

fn render_value(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Str(s) => {
            assert!(!s.contains('\''), "wire values cannot hold quotes: {s}");
            if s.is_empty() || s.contains(char::is_whitespace) || s.parse::<i64>().is_ok() {
                format!("'{s}'")
            } else {
                s.to_string()
            }
        }
    }
}

fn delta_line(op: &str, relation: &str, tuple: &[Value]) -> String {
    let mut line = format!("{op} {relation}");
    for v in tuple {
        line.push(' ');
        line.push_str(&render_value(v));
    }
    line.push('\n');
    line
}

impl TenantDef {
    /// The whole seed database as one insert-only wire-format delta.
    pub fn seed_delta(&self) -> String {
        let mut text = String::new();
        for (name, rel) in self.base.iter() {
            for t in rel.iter() {
                text.push_str(&delta_line("insert", name, t));
            }
        }
        text
    }

    pub fn instance_at(&self, mask: u64) -> Instance {
        let mut inst = self.base.clone();
        for (i, t) in self.toggles.iter().enumerate() {
            if mask & (1 << i) != 0 {
                let changed = if t.present_at_seed {
                    inst.remove(t.relation, &t.tuple)
                } else {
                    inst.insert(t.relation, t.tuple.clone())
                };
                assert!(changed, "toggle {i} of {} must change the seed", self.name);
            }
        }
        inst
    }

    pub fn write_body(&self, toggle: usize, insert: bool) -> String {
        let t = &self.toggles[toggle];
        delta_line(
            if insert { "insert" } else { "retract" },
            t.relation,
            &t.tuple,
        )
    }
}

/// A registered view: its wire-format spec, the in-process reference
/// transducer the oracle renders, and the `?threads=` its reads carry.
pub struct ViewDef {
    pub tenant: usize,
    pub name: &'static str,
    pub spec: String,
    pub reference: Transducer,
    pub threads: usize,
    /// Bits of the tenant's pool whose relation the view reads.
    pub relevant: u64,
}

/// One request of a workload. A read carries the tenant state the
/// generator expects it to observe.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    Read {
        view: usize,
        mask: u64,
    },
    Write {
        tenant: usize,
        toggle: usize,
        insert: bool,
    },
}

pub enum Traffic {
    /// Closed loop: one keep-alive connection that sends the next request
    /// when the previous reply has been read.
    Closed,
    /// Open loop: seeded arrivals at [`LIVE_MIXED_RATE`] per second (see
    /// [`Workload::schedule`]), each request on a fresh connection, at most
    /// two in flight.
    Open,
}

pub struct Workload {
    pub name: &'static str,
    pub tenants: Vec<TenantDef>,
    pub views: Vec<ViewDef>,
    pub traffic: Traffic,
    seed: u64,
}

/// `count` distinct picks from `draw`.
fn distinct<T: PartialEq>(count: usize, mut draw: impl FnMut() -> T) -> Vec<T> {
    let mut out = Vec::new();
    while out.len() < count {
        let x = draw();
        if !out.contains(&x) {
            out.push(x);
        }
    }
    out
}

fn course(i: usize) -> Value {
    Value::str(format!("CS{i:04}"))
}

/// `count` prerequisite rows between existing CS courses of
/// `scaled_registrar(n)` that are not chain links, so inserting one keeps
/// the active domain and touches only `prereq`. The rows start mid-chain
/// and skip two to four links, so every seed's rows cost about the same.
fn shortcut_prereqs(rng: &mut Rng, n: usize, count: usize) -> Vec<Toggle> {
    distinct(count, || {
        let a = n / 2 + rng.below(8);
        (a, a - 2 - rng.below(3))
    })
    .into_iter()
    .map(|(a, b)| Toggle {
        relation: "prereq",
        tuple: vec![course(a), course(b)],
        present_at_seed: false,
    })
    .collect()
}

impl Workload {
    pub fn build(name: &str, seed: u64) -> Result<Workload, String> {
        let mut rng = Rng::new(seed);
        let (tenants, views, traffic) = match name {
            "stream_deep" => {
                // writes toggle `featured` rows, a relation τ1 never
                // reads: they share the CPU with the streams but never
                // evict the τ1 memo
                let toggles = distinct(3, || rng.below(120))
                    .into_iter()
                    .map(|i| Toggle {
                        relation: "featured",
                        tuple: vec![course(i)],
                        present_at_seed: false,
                    })
                    .collect();
                let tenants = vec![TenantDef {
                    name: "registrar",
                    base: pt_bench::scaled_registrar(120),
                    toggles,
                }];
                let views = vec![(
                    0,
                    "tau1",
                    pt_server::spec::samples::tau1_spec().to_string(),
                    registrar::tau1(),
                    1,
                )];
                (tenants, views, Traffic::Closed)
            }
            "live_mixed" => {
                let mut toggles = shortcut_prereqs(&mut rng, 60, 3);
                toggles.extend(
                    distinct(3, || {
                        let s = rng.below(2000);
                        (s, (s % 60 + 1 + rng.below(59)) % 60)
                    })
                    .into_iter()
                    .map(|(s, c)| Toggle {
                        relation: "enrolled",
                        tuple: vec![Value::str(format!("S{s:05}")), course(c)],
                        present_at_seed: false,
                    }),
                );
                let tenants = vec![TenantDef {
                    name: "campus",
                    base: pt_bench::registrar_with_enrollment(60, 2000),
                    toggles,
                }];
                let views = vec![
                    (0, "tau2", TAU2_SPEC.to_string(), registrar::tau2(), 1),
                    (
                        0,
                        "roster",
                        ROSTER_SPEC.to_string(),
                        pt_bench::roster_view(),
                        1,
                    ),
                ];
                (tenants, views, Traffic::Open)
            }
            "cold_fanout" => {
                let prereqs = shortcut_prereqs(&mut rng, 80, 2);
                // chain links near the middle: cutting one drops about a
                // quarter of the 32,896 closure pairs whatever the seed
                let edges = distinct(2, || 120 + rng.below(16))
                    .into_iter()
                    .map(|k| Toggle {
                        relation: "edge",
                        tuple: vec![Value::int(k as i64), Value::int(k as i64 + 1)],
                        present_at_seed: true,
                    })
                    .collect();
                let tenants = vec![
                    TenantDef {
                        name: "registrar",
                        base: pt_bench::scaled_registrar(80),
                        toggles: prereqs,
                    },
                    TenantDef {
                        name: "graph",
                        base: pt_bench::chain_edges(256),
                        toggles: edges,
                    },
                ];
                let tc_spec =
                    format!("schema edge/2\nstart q0 tc\nrule q0 tc -> q pair : {TC_QUERY}\n");
                let views = vec![
                    (0, "tau2", TAU2_SPEC.to_string(), registrar::tau2(), 2),
                    (1, "tc", tc_spec, tc_view(), 2),
                ];
                (tenants, views, Traffic::Closed)
            }
            other => {
                return Err(format!(
                    "unknown workload {other} (expected one of {})",
                    NAMES.join(", ")
                ))
            }
        };
        let views = views
            .into_iter()
            .map(|(tenant, name, spec, reference, threads)| {
                let reads: Vec<String> = reference
                    .rules()
                    .flat_map(|(_, items)| items.iter())
                    .flat_map(|item| item.query.body().base_relations())
                    .collect();
                let relevant = tenants[tenant]
                    .toggles
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| reads.iter().any(|r| r == t.relation))
                    .fold(0u64, |m, (i, _)| m | (1 << i));
                ViewDef {
                    tenant,
                    name,
                    spec,
                    reference,
                    threads,
                    relevant,
                }
            })
            .collect();
        Ok(Workload {
            name: NAMES
                .iter()
                .copied()
                .find(|n| *n == name)
                .expect("known name"),
            tenants,
            views,
            traffic,
            seed,
        })
    }

    /// The GET path of a view.
    pub fn read_path(&self, view: usize) -> String {
        let v = &self.views[view];
        let mut path = format!("/tenants/{}/views/{}", self.tenants[v.tenant].name, v.name);
        if v.threads > 1 {
            path.push_str(&format!("?threads={}", v.threads));
        }
        path
    }

    /// The workload's infinite operation stream.
    pub fn stream(&self) -> OpStream {
        OpStream {
            workload: self.name,
            i: 0,
            writes: 0,
            reads: 0,
            masks: vec![0; self.tenants.len()],
            present: self
                .tenants
                .iter()
                .map(|t| t.toggles.iter().map(|x| x.present_at_seed).collect())
                .collect(),
        }
    }

    /// The open-loop schedule: `(due offset in seconds, op)`, exactly
    /// `LIVE_MIXED_RATE × seconds` arrivals at independent uniform times — a Poisson
    /// process conditioned on its count, so every seed offers the same load.
    pub fn schedule(&self, seconds: f64) -> Vec<(f64, Op)> {
        let Traffic::Open = self.traffic else {
            return Vec::new();
        };
        let mut arrivals = Rng::new(self.seed ^ 0xA076_1D64_78BD_642F);
        let count = (LIVE_MIXED_RATE * seconds).round() as usize;
        let mut times: Vec<f64> = (0..count).map(|_| arrivals.unit() * seconds).collect();
        times.sort_by(f64::total_cmp);
        let mut ops = self.stream();
        times.into_iter().map(|t| (t, ops.next_op())).collect()
    }
}

/// A seeded operation generator; it tracks each tenant's state so writes
/// always flip a row the right way and reads know what they should see.
pub struct OpStream {
    workload: &'static str,
    i: usize,
    writes: usize,
    reads: usize,
    masks: Vec<u64>,
    present: Vec<Vec<bool>>,
}

impl OpStream {
    fn write(&mut self, tenant: usize, toggle: usize) -> Op {
        self.masks[tenant] ^= 1 << toggle;
        let now_set = self.masks[tenant] & (1 << toggle) != 0;
        let insert = now_set != self.present[tenant][toggle];
        self.writes += 1;
        Op::Write {
            tenant,
            toggle,
            insert,
        }
    }

    fn read(&mut self, view: usize, tenant: usize) -> Op {
        self.reads += 1;
        Op::Read {
            view,
            mask: self.masks[tenant],
        }
    }

    pub fn next_op(&mut self) -> Op {
        let i = self.i;
        self.i += 1;
        match self.workload {
            // one request in eight toggles a `featured` row
            "stream_deep" => {
                if i % 8 == 7 {
                    self.write(0, self.writes % 3)
                } else {
                    self.read(0, 0)
                }
            }
            // one request in eight writes, alternating prereq / enrolled
            // and cycling each pool, so a row recurs only every sixth
            // write; reads alternate between the two views
            "live_mixed" => {
                if i % 8 == 7 {
                    let rel = self.writes % 2;
                    let row = (self.writes / 2) % 3;
                    self.write(0, 3 * rel + row)
                } else {
                    let view = self.reads % 2;
                    self.read(view, 0)
                }
            }
            // every read follows a write that invalidates it; two τ2
            // pairs per closure pair keeps the read median inside τ2.
            // Each tenant's writes alternate between its two rows, so
            // every seed cycles through the same four states
            _ => match i % 6 {
                0 | 2 => self.write(0, (i % 6) / 2),
                1 | 3 => self.read(0, 0),
                4 => self.write(1, (i / 6) % 2),
                _ => self.read(1, 1),
            },
        }
    }
}

/// Per view, the digest of its rendered output on every state of the
/// toggles it reads.
pub struct Oracle {
    digests: Vec<HashMap<u64, (u64, u64)>>,
}

impl Oracle {
    pub fn build(w: &Workload) -> Result<Oracle, String> {
        let mut digests = Vec::new();
        for v in &w.views {
            let tenant = &w.tenants[v.tenant];
            let mut states = HashMap::new();
            let mut sub = v.relevant;
            loop {
                let run = v
                    .reference
                    .run(&tenant.instance_at(sub))
                    .map_err(|e| format!("oracle run of {}: {e}", v.name))?;
                let mut xml = XmlWriter::new();
                if run.stream_output(&mut xml).truncated {
                    return Err(format!("oracle render of {} truncated", v.name));
                }
                states.insert(sub, Digest::of(xml.as_str().as_bytes()));
                if sub == 0 {
                    break;
                }
                sub = (sub - 1) & v.relevant;
            }
            digests.push(states);
        }
        Ok(Oracle { digests })
    }

    /// The digest view `view` must serve at tenant state `mask`.
    pub fn expect(&self, w: &Workload, view: usize, mask: u64) -> (u64, u64) {
        self.digests[view][&(mask & w.views[view].relevant)]
    }
}
