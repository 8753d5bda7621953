//! The HTTP side of the benchmark: an open-loop client over keep-alive
//! connections, reply parsing, and — for the traced run only — a front end
//! built from er-http's public protocol functions with spans around each.

use crate::trace::{Tracer, ROOT};
use er_http::http1::{self, Limits, ParseStep};
use er_http::json::Json;
use er_http::HttpConfig;
use er_service::{Request, ServerHandle, SubmitOptions};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The `POST /query` request for pair `(s, t)` at ε. A traced request
/// carries its request id and the id of its client root span, so the
/// traced front end can attach its spans.
pub fn pair_bytes(s: usize, t: usize, eps: f64, trace: Option<(u64, u32)>) -> Vec<u8> {
    let body = format!(
        "{{\"query\":{{\"type\":\"pair\",\"s\":{s},\"t\":{t}}},\"accuracy\":{{\"type\":\"epsilon\",\"eps\":{eps},\"delta\":0.01}}}}"
    );
    let trace_headers = match trace {
        Some((request, span)) => format!("X-Bench-Req: {request}\r\nX-Bench-Span: {span}\r\n"),
        None => String::new(),
    };
    format!(
        "POST /query HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n{trace_headers}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A parsed `POST /query` reply.
#[derive(Clone, Debug, Default)]
pub struct Reply {
    pub status: u16,
    pub value: Option<f64>,
    pub cache_hits: u64,
    pub backend_calls: u64,
    pub backend: &'static str,
}

impl Reply {
    pub fn ok(&self) -> bool {
        self.status == 200 && self.value.is_some()
    }
}

/// Splits one complete response off the front of `buf`: its status and
/// body, and the bytes it used.
fn split_response(buf: &[u8]) -> Option<(u16, &[u8], usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status = head.split(' ').nth(1)?.parse().ok()?;
    let length = head
        .lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())?;
    let end = head_end + 4 + length;
    (buf.len() >= end).then(|| (status, &buf[head_end + 4..end], end))
}

pub fn parse_reply(status: u16, body: &[u8]) -> Reply {
    let doc = std::str::from_utf8(body)
        .ok()
        .and_then(|b| Json::parse(b).ok());
    let field = |key: &str| doc.as_ref().and_then(|d| d.get(key).cloned());
    let backend = match field("backend")
        .as_ref()
        .and_then(|b| b.as_str().map(str::to_owned))
        .as_deref()
    {
        Some("GEER") => "GEER",
        Some("EXACT-CG") => "EXACT-CG",
        Some("SHARD") => "SHARD",
        _ => "other",
    };
    Reply {
        status,
        value: field("values")
            .and_then(|v| v.as_array().and_then(|a| a.first().and_then(Json::as_f64))),
        cache_hits: field("cache_hits").and_then(|v| v.as_u64()).unwrap_or(0),
        backend_calls: field("backend_calls").and_then(|v| v.as_u64()).unwrap_or(0),
        backend,
    }
}

/// Sends `requests` one at a time over one keep-alive connection, each
/// after the previous reply is complete and after `before` ran, untimed;
/// returns each round trip in seconds with its reply (`None` once the
/// connection failed).
pub fn closed_loop(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    mut before: impl FnMut(),
) -> Vec<(f64, Option<Reply>)> {
    let mut out = Vec::with_capacity(requests.len());
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return requests.iter().map(|_| (0.0, None)).collect();
    };
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    for bytes in requests {
        before();
        let start = Instant::now();
        let mut reply = None;
        if stream.write_all(bytes).is_ok() {
            reply = loop {
                if let Some((status, body, used)) = split_response(&buf) {
                    let reply = parse_reply(status, body);
                    buf.drain(..used);
                    break Some(reply);
                }
                match stream.read(&mut chunk) {
                    Ok(0) | Err(_) => break None,
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                }
            };
        }
        let failed = reply.is_none();
        out.push((start.elapsed().as_secs_f64(), reply));
        if failed {
            break;
        }
    }
    out.resize(requests.len(), (0.0, None));
    out
}

/// One request of an open-loop run: when it fell due, when the client
/// began writing it, when its reply was complete (seconds from the run's start)
/// and the reply. A request whose connection failed has no reply.
#[derive(Clone, Debug)]
pub struct Exchange {
    pub due_s: f64,
    pub sent_s: f64,
    pub done_s: f64,
    pub reply: Option<Reply>,
}

impl Exchange {
    pub fn latency_s(&self) -> f64 {
        self.done_s - self.due_s
    }
}

/// Sends `requests` (due time in seconds after `start`, bytes) over
/// `conns` keep-alive connections, one client thread per connection;
/// request `i` goes on connection `i % conns`. A request that falls due
/// while replies are outstanding is pipelined behind them. `after_send`
/// runs on the client thread after each request is written. Returns one
/// exchange per request, in request order.
pub fn open_loop(
    addr: SocketAddr,
    requests: &[(f64, Vec<u8>)],
    conns: usize,
    start: Instant,
    after_send: &(dyn Fn() + Sync),
) -> Vec<Exchange> {
    let mut exchanges: Vec<Option<Exchange>> = vec![None; requests.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let mine: Vec<usize> = (c..requests.len()).step_by(conns).collect();
                scope.spawn(move || connection(addr, requests, &mine, start, after_send))
            })
            .collect();
        for handle in handles {
            for (i, exchange) in handle.join().expect("client thread panicked") {
                exchanges[i] = Some(exchange);
            }
        }
    });
    exchanges
        .into_iter()
        .map(|e| e.expect("every request is accounted for"))
        .collect()
}

const POLL_SLEEP: Duration = Duration::from_micros(100);

fn connection(
    addr: SocketAddr,
    requests: &[(f64, Vec<u8>)],
    mine: &[usize],
    start: Instant,
    after_send: &(dyn Fn() + Sync),
) -> Vec<(usize, Exchange)> {
    let mut done: Vec<(usize, Exchange)> = Vec::with_capacity(mine.len());
    let fail_rest = |done: &mut Vec<(usize, Exchange)>, from: usize, sent: &[(usize, f64)]| {
        let now = start.elapsed().as_secs_f64();
        for &(i, sent_s) in sent {
            done.push((
                i,
                Exchange {
                    due_s: requests[i].0,
                    sent_s,
                    done_s: now,
                    reply: None,
                },
            ));
        }
        for &i in &mine[from..] {
            done.push((
                i,
                Exchange {
                    due_s: requests[i].0,
                    sent_s: now,
                    done_s: now,
                    reply: None,
                },
            ));
        }
    };
    let mut stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(_) => {
            fail_rest(&mut done, 0, &[]);
            return done;
        }
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_nonblocking(true);
    let mut next = 0usize;
    let mut outstanding: std::collections::VecDeque<(usize, f64)> =
        std::collections::VecDeque::new();
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    loop {
        let now = start.elapsed().as_secs_f64();
        while next < mine.len() && requests[mine[next]].0 <= now {
            let i = mine[next];
            let sent_s = start.elapsed().as_secs_f64();
            // Reads poll; a write blocks until the whole request is queued.
            let _ = stream.set_nonblocking(false);
            let written = stream.write_all(&requests[i].1);
            let _ = stream.set_nonblocking(true);
            if written.is_err() {
                fail_rest(&mut done, next, outstanding.make_contiguous());
                return done;
            }
            outstanding.push_back((i, sent_s));
            next += 1;
            after_send();
        }
        if next == mine.len() && outstanding.is_empty() {
            return done;
        }
        let until_due = if next < mine.len() {
            requests[mine[next]].0 - now
        } else {
            30.0
        };
        if outstanding.is_empty() {
            std::thread::sleep(Duration::from_secs_f64(until_due.max(0.0)));
            continue;
        }
        // Socket read timeouts tick in scheduler jiffies (milliseconds), far
        // coarser than a reply, so while replies are outstanding the
        // connection is polled between short sleeps.
        match stream.read(&mut chunk) {
            Ok(0) => {
                fail_rest(&mut done, next, outstanding.make_contiguous());
                return done;
            }
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                let now = start.elapsed().as_secs_f64();
                while let Some((status, body, used)) = split_response(&buf) {
                    let (i, sent_s) = outstanding.pop_front().expect("a reply answers a request");
                    let reply = parse_reply(status, body);
                    done.push((
                        i,
                        Exchange {
                            due_s: requests[i].0,
                            sent_s,
                            done_s: now,
                            reply: Some(reply),
                        },
                    ));
                    buf.drain(..used);
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                std::thread::sleep(POLL_SLEEP.min(Duration::from_secs_f64(until_due.max(0.0))));
            }
            Err(_) => {
                fail_rest(&mut done, next, outstanding.make_contiguous());
                return done;
            }
        }
    }
}

/// The traced run's front end: accepts `conns` connections on loopback, in
/// turn, and serves `POST /query` the way `HttpServer`'s private connection
/// loop does — the same buffer sizes, read timeout and keep-alive rule, and
/// the same calls in the same order: `http1::parse_request`,
/// `api::parse_query_body`, `ServerHandle::submit_with`, `Ticket::wait`,
/// `api::render_response`, `http1::write_response` — with a span around
/// each. Spans of a request carrying `X-Bench-Req` attach to the client
/// root span named in `X-Bench-Span`; other requests record nothing.
/// Only per-span figures come from this front end: every client-side
/// latency figure is measured against `HttpServer` itself.
pub struct TracedFrontEnd {
    pub addr: SocketAddr,
    acceptor: JoinHandle<()>,
}

impl TracedFrontEnd {
    pub fn bind(
        handle: ServerHandle,
        tracer: Arc<Tracer>,
        conns: usize,
    ) -> std::io::Result<TracedFrontEnd> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let acceptor = std::thread::spawn(move || {
            let mut served = Vec::new();
            for _ in 0..conns {
                let Ok((stream, _)) = listener.accept() else {
                    break;
                };
                let (handle, tracer) = (handle.clone(), Arc::clone(&tracer));
                served.push(std::thread::spawn(move || serve(stream, &handle, &tracer)));
            }
            for t in served {
                t.join().expect("front-end connection thread panicked");
            }
        });
        Ok(TracedFrontEnd { addr, acceptor })
    }

    /// Waits for every connection to close.
    pub fn join(self) {
        self.acceptor.join().expect("front-end acceptor panicked");
    }
}

fn serve(mut stream: TcpStream, handle: &ServerHandle, tracer: &Tracer) {
    let _ = stream.set_read_timeout(Some(HttpConfig::default().read_timeout));
    let _ = stream.set_nodelay(true);
    let limits = Limits::default();
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let mut chunk = [0u8; 4096];
    loop {
        let parse_start = Instant::now();
        match http1::parse_request(&buf, &limits) {
            ParseStep::Complete { request, consumed } => {
                let parse_end = Instant::now();
                buf.drain(..consumed);
                let keep_alive = request.keep_alive();
                let ids = request
                    .header("x-bench-req")
                    .and_then(|r| r.parse::<u64>().ok())
                    .zip(
                        request
                            .header("x-bench-span")
                            .and_then(|s| s.parse::<u32>().ok()),
                    );
                let (id, parent) = ids.unwrap_or((0, ROOT));
                let traced = ids.is_some();
                let span = |name, f: &mut dyn FnMut()| {
                    if traced {
                        tracer.span(name, id, parent, |_| f())
                    } else {
                        f()
                    }
                };
                if traced {
                    tracer.record("http.parse_request", id, parent, parse_start, parse_end);
                }
                let mut parsed: Result<Request, String> = Err("body is not valid UTF-8".into());
                if let Ok(body) = std::str::from_utf8(&request.body) {
                    span("api.parse_query_body", &mut || {
                        parsed = er_http::api::parse_query_body(body)
                    });
                }
                let (status, reply_body) = match parsed {
                    Ok(req) => {
                        let ticket_start = Instant::now();
                        let ticket_id = if traced { tracer.reserve() } else { ROOT };
                        let result = if traced {
                            tracer
                                .span("server.submit", id, ticket_id, |_| {
                                    handle.submit_with(req, SubmitOptions::default())
                                })
                                .and_then(|ticket| {
                                    tracer.span("ticket.wait", id, ticket_id, |_| ticket.wait())
                                })
                        } else {
                            handle
                                .submit_with(req, SubmitOptions::default())
                                .and_then(|ticket| ticket.wait())
                        };
                        if traced {
                            tracer.record_as(
                                ticket_id,
                                "server.ticket",
                                id,
                                parent,
                                ticket_start,
                                Instant::now(),
                            );
                        }
                        match result {
                            Ok(response) => {
                                let mut rendered = String::new();
                                span("api.render_response", &mut || {
                                    rendered = er_http::api::render_response(&response)
                                });
                                (200, rendered)
                            }
                            Err(e) => {
                                let (status, kind) = er_http::api::error_status(&e);
                                (status, er_http::api::render_error(kind, &e.to_string()))
                            }
                        }
                    }
                    Err(message) => (400, er_http::api::render_error("bad_request", &message)),
                };
                let mut bytes = Vec::new();
                span("http.write_response", &mut || {
                    bytes =
                        http1::write_response(status, "application/json", &reply_body, keep_alive)
                });
                let mut written = Ok(());
                span("conn.write", &mut || written = stream.write_all(&bytes));
                if written.is_err() || !keep_alive {
                    break;
                }
                continue;
            }
            ParseStep::Invalid { status, message } => {
                let body = er_http::api::render_error("bad_request", &message);
                let _ = stream.write_all(&http1::write_response(
                    status,
                    "application/json",
                    &body,
                    false,
                ));
                break;
            }
            ParseStep::NeedMore => {}
        }
        match stream.read(&mut chunk) {
            Ok(n) if n > 0 => buf.extend_from_slice(&chunk[..n]),
            _ => break,
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_split_at_their_content_length() {
        let body = r#"{"values":[0.5],"backend":"GEER"}"#;
        let mut two = format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes();
        two.extend_from_slice(b"HTTP/1.1 503 Service Unavailable\r\ncontent-length: 2\r\n\r\n{}");
        let (status, body, used) = split_response(&two).expect("first reply is complete");
        assert_eq!(status, 200);
        let reply = parse_reply(status, body);
        assert_eq!(reply.value, Some(0.5));
        assert_eq!(reply.backend, "GEER");
        let (status, _, rest) = split_response(&two[used..]).expect("second reply is complete");
        assert_eq!((status, rest), (503, two.len() - used));
        assert!(split_response(&two[..used - 1]).is_none());
    }
}
