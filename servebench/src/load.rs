//! The load generator: a lean HTTP/1.1 client that digests streamed bodies
//! straight out of its read buffer, the server set-up over HTTP, and the
//! closed- and open-loop drivers. At most two client threads and two
//! connections at any time: the closed loop is one keep-alive connection,
//! the open loop two senders on fresh connections.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pt_server::{Server, ServerConfig};

use crate::stats::Digest;
use crate::workload::{Op, Oracle, Traffic, Workload};

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

struct Reply {
    status: u16,
    /// When the first body byte was readable.
    first_byte: Instant,
    digest: (u64, u64),
    /// The body of a `Content-Length` reply (the JSON status documents).
    json: Vec<u8>,
    /// Client time spent digesting the body.
    hash_ns: u64,
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::with_capacity(64 << 10, writer.try_clone()?);
        Ok(Conn {
            writer,
            reader,
            line: String::new(),
        })
    }

    fn read_line(&mut self) -> io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.line.trim_end())
    }

    /// Send one request and read its whole reply.
    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        close: bool,
    ) -> io::Result<Reply> {
        let connection = if close { "Connection: close\r\n" } else { "" };
        let mut req = format!(
            "{method} {path} HTTP/1.1\r\nHost: servebench\r\nContent-Length: {}\r\n{connection}\r\n",
            body.len()
        )
        .into_bytes();
        req.extend_from_slice(body);
        self.writer.write_all(&req)?;

        let status_line = self.read_line()?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| bad(format!("bad status line: {status_line}")))?;
        let mut chunked = false;
        let mut length = 0usize;
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let (name, value) = (name.trim(), value.trim());
                if name.eq_ignore_ascii_case("transfer-encoding") {
                    chunked = value.eq_ignore_ascii_case("chunked");
                } else if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .parse()
                        .map_err(|_| bad(format!("bad length {value}")))?;
                }
            }
        }
        let mut digest = Digest::default();
        let mut hash_ns = 0u64;
        let mut json = Vec::new();
        let mut first_byte = None;
        if chunked {
            loop {
                let size_line = self.read_line()?;
                let size = usize::from_str_radix(size_line, 16)
                    .map_err(|_| bad(format!("bad chunk size {size_line}")))?;
                if size == 0 {
                    self.read_line()?;
                    break;
                }
                first_byte.get_or_insert_with(Instant::now);
                let mut left = size;
                while left > 0 {
                    let buf = self.reader.fill_buf()?;
                    if buf.is_empty() {
                        return Err(io::ErrorKind::UnexpectedEof.into());
                    }
                    let n = buf.len().min(left);
                    let t = Instant::now();
                    digest.update(&buf[..n]);
                    hash_ns += t.elapsed().as_nanos() as u64;
                    self.reader.consume(n);
                    left -= n;
                }
                let mut crlf = [0u8; 2];
                self.reader.read_exact(&mut crlf)?;
            }
        } else {
            json.resize(length, 0);
            self.reader.read_exact(&mut json)?;
            first_byte = Some(Instant::now());
            digest.update(&json);
        }
        Ok(Reply {
            status,
            first_byte: first_byte.unwrap_or_else(Instant::now),
            digest: digest.finish(),
            json,
            hash_ns,
        })
    }
}

/// `"key":N` from a flat JSON object.
fn json_usize(json: &[u8], key: &str) -> Option<usize> {
    let text = std::str::from_utf8(json).ok()?;
    let rest = &text[text.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The request an op sends.
fn request(w: &Workload, op: Op) -> (&'static str, String, String) {
    match op {
        Op::Read { view, .. } => ("GET", w.read_path(view), String::new()),
        Op::Write {
            tenant,
            toggle,
            insert,
        } => (
            "POST",
            format!("/tenants/{}/delta", w.tenants[tenant].name),
            w.tenants[tenant].write_body(toggle, insert),
        ),
    }
}

/// The oracle check. A read body must be the view's output on the read's
/// state `mask` with some subset of the toggles in `maybe` flipped; a write
/// must echo exactly one inserted or retracted tuple.
fn verify(w: &Workload, oracle: &Oracle, op: Op, reply: &Reply, maybe: u64) -> bool {
    match op {
        Op::Read { view, mask } => {
            let maybe = maybe & w.views[view].relevant;
            let mut sub = maybe;
            reply.status == 200
                && loop {
                    if reply.digest == oracle.expect(w, view, mask ^ sub) {
                        break true;
                    }
                    if sub == 0 {
                        break false;
                    }
                    sub = (sub - 1) & maybe;
                }
        }
        Op::Write { insert, .. } => {
            let (ins, ret) = (usize::from(insert), usize::from(!insert));
            reply.status == 200
                && json_usize(&reply.json, "tuples_inserted") == Some(ins)
                && json_usize(&reply.json, "tuples_retracted") == Some(ret)
        }
    }
}

/// Bind a server, seed every tenant, register every view and answer one
/// warm-up read per view — all over HTTP. Returns the server and the time
/// that took.
pub fn start(w: &Workload, oracle: &Oracle) -> Result<(Server, Duration), String> {
    let seeds: Vec<String> = w.tenants.iter().map(|t| t.seed_delta()).collect();
    let t0 = Instant::now();
    let server =
        Server::bind("127.0.0.1:0", ServerConfig::default()).map_err(|e| format!("bind: {e}"))?;
    let mut conn = Conn::open(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let mut call = |method: &str, path: &str, body: &str| {
        conn.exchange(method, path, body.as_bytes(), false)
            .map_err(|e| format!("{method} {path}: {e}"))
    };
    for (t, seed) in w.tenants.iter().zip(&seeds) {
        let reply = call("POST", &format!("/tenants/{}/delta", t.name), seed)?;
        if reply.status != 200 || json_usize(&reply.json, "tuples_inserted") != Some(t.base.size())
        {
            return Err(format!("seeding {} failed ({})", t.name, reply.status));
        }
    }
    for v in &w.views {
        let path = format!("/tenants/{}/views/{}", w.tenants[v.tenant].name, v.name);
        let reply = call("POST", &path, &v.spec)?;
        if reply.status != 201 {
            let msg = String::from_utf8_lossy(&reply.json).into_owned();
            return Err(format!("registering {}: {} {msg}", v.name, reply.status));
        }
    }
    for view in 0..w.views.len() {
        let reply = call("GET", &w.read_path(view), "")?;
        let op = Op::Read { view, mask: 0 };
        if !verify(w, oracle, op, &reply, 0) {
            return Err(format!("warm-up read of {} is wrong", w.views[view].name));
        }
    }
    Ok((server, t0.elapsed()))
}

/// One request as the load generator saw it.
pub struct Sample {
    pub op: Op,
    /// When the request was due: its send time in a closed loop, its
    /// scheduled arrival in the open loop.
    pub due: Instant,
    pub first_byte: Instant,
    pub end: Instant,
    pub ok: bool,
    pub bytes: u64,
    /// Client time to digest and verify the reply.
    pub client_ns: u64,
    /// Closed loop: the generator's own gap between the previous reply and
    /// this send. Open loop: how late the send was against `due`.
    pub late_ns: u64,
}

/// Send one op, opening `conn` first when there is none; `fresh` closes
/// it after the reply. `None` when the exchange failed.
fn send(
    w: &Workload,
    conn: &mut Option<Conn>,
    addr: SocketAddr,
    op: Op,
    fresh: bool,
) -> Option<Reply> {
    let (method, path, body) = request(w, op);
    if conn.is_none() {
        *conn = Conn::open(addr).ok();
    }
    let reply = conn
        .as_mut()?
        .exchange(method, &path, body.as_bytes(), fresh)
        .ok();
    if fresh || reply.is_none() {
        *conn = None;
    }
    reply
}

/// Verify a reply (see [`verify`]); returns it with whether it was right
/// and the client's time to digest and verify it.
fn check(
    w: &Workload,
    oracle: &Oracle,
    op: Op,
    reply: Option<Reply>,
    maybe: u64,
) -> (Option<Reply>, bool, u64) {
    let Some(r) = reply else {
        return (None, false, 0);
    };
    let t = Instant::now();
    let ok = verify(w, oracle, op, &r, maybe);
    let client_ns = r.hash_ns + t.elapsed().as_nanos() as u64;
    (Some(r), ok, client_ns)
}

/// The open loop's record of its writes, so that each read is checked
/// against exactly the states it can observe: every write answered before
/// the read was sent, plus any subset of the writes in flight at some time
/// while it ran. Requests are keyed by their index in the schedule.
struct WriteLog {
    /// Per tenant, the toggles flipped by the writes answered so far.
    done: Vec<u64>,
    /// `(request, tenant, toggle bit)` of each write sent and not answered.
    in_flight: Vec<(usize, usize, u64)>,
    /// `(request, tenant, bits)` of each read sent and not answered: the
    /// toggles of every write in flight at some time since it was sent.
    reading: Vec<(usize, usize, u64)>,
}

impl WriteLog {
    fn new(w: &Workload) -> WriteLog {
        WriteLog {
            done: vec![0; w.tenants.len()],
            in_flight: Vec::new(),
            reading: Vec::new(),
        }
    }

    /// Request `i` is about to be sent. Returns the op a read is checked
    /// as: the read of the state every answered write has left.
    fn sent(&mut self, w: &Workload, i: usize, op: Op) -> Op {
        match op {
            Op::Write { tenant, toggle, .. } => {
                let bit = 1 << toggle;
                self.in_flight.push((i, tenant, bit));
                for r in self.reading.iter_mut().filter(|r| r.1 == tenant) {
                    r.2 |= bit;
                }
                op
            }
            Op::Read { view, .. } => {
                let tenant = w.views[view].tenant;
                let maybe = self
                    .in_flight
                    .iter()
                    .filter(|x| x.1 == tenant)
                    .fold(0, |m, x| m | x.2);
                self.reading.push((i, tenant, maybe));
                Op::Read {
                    view,
                    mask: self.done[tenant],
                }
            }
        }
    }

    /// Request `i`'s reply has arrived (or its exchange failed). For a
    /// read, returns the toggles it may also observe flipped.
    fn answered(&mut self, i: usize, op: Op) -> u64 {
        let list = match op {
            Op::Write { .. } => &mut self.in_flight,
            Op::Read { .. } => &mut self.reading,
        };
        let at = list
            .iter()
            .position(|x| x.0 == i)
            .expect("answered request was sent");
        let (_, tenant, bits) = list.swap_remove(at);
        match op {
            Op::Write { .. } => {
                self.done[tenant] ^= bits;
                0
            }
            Op::Read { .. } => bits,
        }
    }
}

fn sample(op: Op, due: Instant, got: (Option<Reply>, bool, u64), late_ns: u64) -> Sample {
    let end = Instant::now();
    let (reply, ok, client_ns) = got;
    Sample {
        op,
        due,
        first_byte: reply.as_ref().map_or(end, |r| r.first_byte),
        end,
        ok,
        bytes: reply.map_or(0, |r| r.digest.1),
        client_ns,
        late_ns,
    }
}

/// Drive the workload's traffic for `seconds`. Samples come back in the
/// order the requests were due — send order in a closed loop, schedule
/// order in the open loop — which is the order the replay re-applies.
pub fn drive(addr: SocketAddr, w: &Workload, oracle: &Oracle, seconds: f64) -> Vec<Sample> {
    let window = Duration::from_secs_f64(seconds);
    let mut samples: Vec<Sample> = match w.traffic {
        Traffic::Closed => {
            let start = Instant::now();
            let mut ops = w.stream();
            let mut conn = None;
            let mut out = Vec::new();
            let mut prev = start;
            while prev < start + window {
                let op = ops.next_op();
                let sent = Instant::now();
                let late = (sent - prev).as_nanos() as u64;
                let got = check(w, oracle, op, send(w, &mut conn, addr, op, false), 0);
                let s = sample(op, sent, got, late);
                prev = s.end;
                out.push(s);
            }
            out
        }
        Traffic::Open => {
            let schedule = w.schedule(seconds);
            let next = AtomicUsize::new(0);
            let log = Mutex::new(WriteLog::new(w));
            // lead time so the first arrivals are not late by set-up
            let start = Instant::now() + Duration::from_millis(20);
            // a backlog is served late, not skipped; past this point the
            // rest is dropped and counts as failed, so a run always ends
            let give_up = start + (3 * window).max(window + Duration::from_secs(20));
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| {
                            let mut out = Vec::new();
                            let mut conn = None;
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                let Some(&(at, op)) = schedule.get(i) else {
                                    break;
                                };
                                let due = start + Duration::from_secs_f64(at);
                                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                                    std::thread::sleep(wait);
                                }
                                let sent = Instant::now();
                                if sent > give_up {
                                    out.push(sample(op, due, (None, false, 0), 0));
                                    continue;
                                }
                                let late = (sent - due).as_nanos() as u64;
                                let seen = log.lock().unwrap().sent(w, i, op);
                                let reply = send(w, &mut conn, addr, op, true);
                                let maybe = log.lock().unwrap().answered(i, op);
                                let got = check(w, oracle, seen, reply, maybe);
                                out.push(sample(op, due, got, late));
                            }
                            out
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("load client panicked"))
                    .collect()
            })
        }
    };
    samples.sort_by_key(|s| s.due);
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_log_bounds_the_states_a_read_may_see() {
        let w = Workload::build("live_mixed", 1).unwrap();
        let mut log = WriteLog::new(&w);
        let read = Op::Read { view: 1, mask: 0 };
        let write = |toggle| Op::Write {
            tenant: 0,
            toggle,
            insert: true,
        };
        // a read overlapping a write may see it applied or not
        assert!(matches!(log.sent(&w, 0, write(3)), Op::Write { .. }));
        assert!(matches!(log.sent(&w, 1, read), Op::Read { mask: 0, .. }));
        // a write sent while the read is open counts too
        log.sent(&w, 2, write(4));
        assert_eq!(log.answered(0, write(3)), 0);
        assert_eq!(log.answered(2, write(4)), 0);
        assert_eq!(log.answered(1, read), 0b11000);
        // a read sent after both were answered must see both: the seed
        // state (a stale memo) is no longer accepted
        assert!(matches!(
            log.sent(&w, 3, read),
            Op::Read { mask: 0b11000, .. }
        ));
        assert_eq!(log.answered(3, read), 0);
    }
}
