//! A minimal HTTP/1.1 GET surface on the coordinator's port.
//!
//! The accept loop sniffs each connection's first bytes: `GET ` means HTTP,
//! anything else is a protocol worker. Four routes, all read-only:
//!
//! | route | body | notes |
//! |---|---|---|
//! | `/results.json` | the merged results document | `503` until the campaign completes |
//! | `/BENCH.json` | the derived bench document | `503` until the campaign completes |
//! | `/status` | integer-only progress counters | always available |
//! | `/events` | live `piccolo-events/v1` stream | checksummed lines until the client hangs up |
//!
//! `/events` attaches a bounded [`RelaySink`] to the coordinator's own event
//! dispatcher for the life of the connection, so a curl sees exactly what an
//! `--events` file would record from that moment on — schema header line
//! first, then one checksummed line per event. A slow client drops its own
//! oldest lines; it never blocks the coordinator.
//!
//! This is deliberately not a general HTTP server: GET only, no keep-alive,
//! no request bodies, headers capped at 8 KiB.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::coordinator::{self, Shared as SharedState};
use piccolo_obs as obs;
use piccolo_obs::linecodec;
use piccolo_obs::sink::RelaySink;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Longest request head (request line + headers) we will read.
const MAX_HEAD: usize = 8 * 1024;
/// How many undrained lines an `/events` client may lag before losing oldest.
const EVENTS_RELAY_CAP: usize = 4096;
/// Drain cadence for `/events`.
const EVENTS_TICK: Duration = Duration::from_millis(150);

fn write_response(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()));
}

fn not_ready(stream: &mut TcpStream) {
    write_response(
        stream,
        "503 Service Unavailable",
        "application/json",
        "{\"error\":\"campaign not complete\"}\n",
    );
}

/// Reads the request head and returns the GET path, or `None` for anything
/// malformed, non-GET, or oversized.
fn read_request_path(stream: &mut TcpStream) -> Option<String> {
    let mut reader = BufReader::new(Read::take(&mut *stream, MAX_HEAD as u64));
    let mut request_line = String::new();
    reader.read_line(&mut request_line).ok()?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next()?;
    let path = parts.next()?;
    if method != "GET" {
        return None;
    }
    // Drain the headers so the client sees a clean response, not a reset.
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).ok()?;
        if n == 0 || line == "\r\n" || line == "\n" {
            break;
        }
    }
    Some(path.to_string())
}

/// Serves one HTTP connection. `stream`'s first bytes are known to be `GET `.
pub(crate) fn handle(mut stream: TcpStream, shared: &Arc<SharedState>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let Some(path) = read_request_path(&mut stream) else {
        write_response(&mut stream, "400 Bad Request", "text/plain", "GET only\n");
        return;
    };
    match path.as_str() {
        "/results.json" => match coordinator::finalized_docs(shared) {
            Some((results, _)) => {
                write_response(&mut stream, "200 OK", "application/json", &results);
            }
            None => not_ready(&mut stream),
        },
        "/BENCH.json" => match coordinator::finalized_docs(shared) {
            Some((_, bench)) => {
                write_response(&mut stream, "200 OK", "application/json", &bench);
            }
            None => not_ready(&mut stream),
        },
        "/status" => {
            let mut body = coordinator::status_doc(shared);
            body.push('\n');
            write_response(&mut stream, "200 OK", "application/json", &body);
        }
        "/events" => stream_events(stream, shared),
        _ => {
            write_response(&mut stream, "404 Not Found", "text/plain", "not found\n");
        }
    }
}

/// Streams live events until the client disconnects (or the coordinator shuts
/// down). No `Content-Length`: the stream ends when the connection closes.
fn stream_events(mut stream: TcpStream, shared: &Arc<SharedState>) {
    let head = "HTTP/1.1 200 OK\r\nContent-Type: application/jsonl\r\nConnection: close\r\n\r\n";
    let mut header_line =
        linecodec::encode_line(&format!(r#"{{"schema":"{}"}}"#, obs::EVENTS_SCHEMA));
    header_line.push('\n');
    if stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(header_line.as_bytes()))
        .is_err()
    {
        return;
    }
    let relay = Arc::new(RelaySink::new(EVENTS_RELAY_CAP));
    let sink_id = obs::add_sink(Arc::clone(&relay) as Arc<dyn obs::sink::Sink>);
    loop {
        std::thread::sleep(EVENTS_TICK);
        let mut batch = String::new();
        for payload in relay.drain() {
            batch.push_str(&linecodec::encode_line(&payload));
            batch.push('\n');
        }
        // An empty write still probes liveness poorly, so only write when
        // there is something to say; a dead client is detected on the next
        // non-empty batch.
        if !batch.is_empty() && stream.write_all(batch.as_bytes()).is_err() {
            break;
        }
        if coordinator::is_shutting_down(shared) {
            let _ = stream.flush();
            break;
        }
    }
    obs::remove_sink(sink_id);
}
