//! The coordinator/worker wire protocol: length-prefixed, checksummed frames
//! carrying compact JSON messages.
//!
//! A frame is a `u32` little-endian byte length followed by exactly that many
//! bytes: one [`piccolo_obs::linecodec`]-encoded line (`<16-hex FNV-1a-64
//! checksum> <compact JSON payload>`, no trailing newline). The checksum is the
//! same codec the run journal and the event stream use, so a corrupted frame is
//! detected the same way a torn journal line is — and a frame payload can be
//! appended to a journal or an event log verbatim.
//!
//! Message vocabulary (the `"type"` field):
//!
//! | direction | type | fields | meaning |
//! |---|---|---|---|
//! | worker → coord | `hello` | `version`, `worker` | introduce; version must match |
//! | coord → worker | `job` | `opts` | the campaign-shaping [`CommonOpts`] wire object |
//! | worker → coord | `ready` | `plan` | worker rebuilt the plan; 16-hex hash to compare |
//! | coord → worker | `reject` | `reason` | plan/version mismatch — worker exits |
//! | worker → coord | `next` | | request a lease |
//! | coord → worker | `lease` | `units` | ascending global unit indices to execute |
//! | coord → worker | `wait` | `ms` | nothing open right now; ask again after `ms` |
//! | coord → worker | `done` | | campaign complete — worker exits cleanly |
//! | worker → coord | `result` | `unit`, `result` | one completed unit's codec JSON |
//! | worker → coord | `heartbeat` | | liveness; extends the worker's lease deadlines |
//! | worker → coord | `event` | `payload` | one relayed `piccolo-events/v1` line |
//!
//! Every worker → coord message counts as a heartbeat. Results are idempotent:
//! they land by global unit index and the grid is deterministic, so a duplicate
//! (after a lease timeout and re-dispatch) is byte-identical and discarded by
//! slot.
//!
//! [`CommonOpts`]: piccolo_bench::cli::CommonOpts

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use piccolo::json::{parse, Json};
use piccolo_obs::linecodec;
use std::io::{ErrorKind, Read, Write};

/// Protocol version spoken by this build; `hello` frames carry it and the
/// coordinator rejects mismatches outright. Bump it whenever a frame changes
/// shape, including the `job` frame's options, so a stale worker fails at
/// `hello` instead of mid-campaign.
pub const PROTOCOL_VERSION: u64 = 2;

/// Upper bound on a single frame (16 MiB). A unit result is a few hundred
/// bytes; anything near this limit is a corrupt or hostile length prefix.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

fn bad_data(msg: String) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, msg)
}

/// Writes one message as a checksummed frame.
///
/// # Errors
///
/// Propagates the underlying write error.
pub fn send_msg(out: &mut impl Write, payload: &str) -> std::io::Result<()> {
    let line = linecodec::encode_line(payload);
    let len = u32::try_from(line.len())
        .ok()
        .filter(|&n| n <= MAX_FRAME)
        .ok_or_else(|| bad_data(format!("frame too large ({} bytes)", line.len())))?;
    // One buffered write per frame so a frame is never interleaved with another
    // thread's (callers serialize writes per stream anyway).
    let mut buf = Vec::with_capacity(4 + line.len());
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(line.as_bytes());
    out.write_all(&buf)
}

/// Reads one frame and returns its verified payload. `Ok(None)` is a clean
/// end-of-stream (the peer closed between frames).
///
/// # Errors
///
/// `InvalidData` for an oversized length prefix or a checksum failure;
/// `UnexpectedEof` for a stream torn mid-frame; otherwise the underlying read
/// error (including timeouts, surfaced as `WouldBlock`/`TimedOut`).
pub fn recv_msg(input: &mut impl Read) -> std::io::Result<Option<String>> {
    let mut len_bytes = [0u8; 4];
    match input.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME {
        return Err(bad_data(format!("frame length {len} exceeds {MAX_FRAME}")));
    }
    let mut frame = vec![0u8; len as usize];
    input.read_exact(&mut frame)?;
    let line =
        std::str::from_utf8(&frame).map_err(|_| bad_data("frame is not UTF-8".to_string()))?;
    match linecodec::decode_line(line) {
        Some(payload) => Ok(Some(payload.to_string())),
        None => Err(bad_data("frame checksum mismatch".to_string())),
    }
}

/// Parses a message payload and returns `(type, document)`.
///
/// # Errors
///
/// Describes the malformation.
pub fn parse_msg(payload: &str) -> Result<(String, Json), String> {
    let doc = parse(payload).map_err(|e| format!("unparseable message: {e}"))?;
    let kind = doc
        .get("type")
        .and_then(Json::as_str)
        .ok_or("message has no type")?
        .to_string();
    Ok((kind, doc))
}

/// `hello` — worker introduces itself.
#[must_use]
pub fn hello_msg(worker: &str) -> String {
    Json::obj([
        ("type", Json::str("hello")),
        ("version", Json::Num(PROTOCOL_VERSION as f64)),
        ("worker", Json::str(worker)),
    ])
    .to_string()
}

/// `job` — the campaign-shaping options, as the [`CommonOpts`] wire object.
///
/// [`CommonOpts`]: piccolo_bench::cli::CommonOpts
#[must_use]
pub fn job_msg(opts_wire: &Json) -> String {
    Json::obj([("type", Json::str("job")), ("opts", opts_wire.clone())]).to_string()
}

/// `ready` — the worker's independently computed plan hash.
#[must_use]
pub fn ready_msg(plan_hex: &str) -> String {
    Json::obj([("type", Json::str("ready")), ("plan", Json::str(plan_hex))]).to_string()
}

/// `reject` — coordinator refuses the worker.
#[must_use]
pub fn reject_msg(reason: &str) -> String {
    Json::obj([("type", Json::str("reject")), ("reason", Json::str(reason))]).to_string()
}

/// `next` — worker asks for a lease.
#[must_use]
pub fn next_msg() -> String {
    Json::obj([("type", Json::str("next"))]).to_string()
}

/// `lease` — ascending global unit indices for the worker to execute.
#[must_use]
pub fn lease_msg(units: &[usize]) -> String {
    Json::obj([
        ("type", Json::str("lease")),
        (
            "units",
            Json::Arr(units.iter().map(|&u| Json::Num(u as f64)).collect()),
        ),
    ])
    .to_string()
}

/// `wait` — nothing open; ask again after `ms`.
#[must_use]
pub fn wait_msg(ms: u64) -> String {
    Json::obj([("type", Json::str("wait")), ("ms", Json::Num(ms as f64))]).to_string()
}

/// `done` — campaign complete.
#[must_use]
pub fn done_msg() -> String {
    Json::obj([("type", Json::str("done"))]).to_string()
}

/// `result` — one completed unit. `result_json` is the unit's canonical codec
/// bytes, embedded verbatim (it is already compact JSON).
#[must_use]
pub fn result_msg(unit: usize, result_json: &str) -> String {
    format!("{{\"type\":\"result\",\"unit\":{unit},\"result\":{result_json}}}")
}

/// `heartbeat` — liveness only.
#[must_use]
pub fn heartbeat_msg() -> String {
    Json::obj([("type", Json::str("heartbeat"))]).to_string()
}

/// `event` — one relayed `piccolo-events/v1` payload line.
#[must_use]
pub fn event_msg(payload_line: &str) -> String {
    Json::obj([
        ("type", Json::str("event")),
        ("payload", Json::str(payload_line)),
    ])
    .to_string()
}

/// Extracts `lease.units` as ascending indices.
///
/// # Errors
///
/// Rejects missing/NaN/negative/fractional entries.
pub fn lease_units(doc: &Json) -> Result<Vec<usize>, String> {
    let arr = doc
        .get("units")
        .and_then(Json::as_array)
        .ok_or("lease has no units array")?;
    let mut units = Vec::with_capacity(arr.len());
    for v in arr {
        let n = v
            .as_f64()
            .filter(|n| n.fract() == 0.0 && *n >= 0.0)
            .ok_or("lease unit is not a non-negative integer")?;
        units.push(n as usize);
    }
    Ok(units)
}

/// Extracts `result.unit` and re-serializes `result.result` to a compact string.
///
/// # Errors
///
/// Rejects missing fields. (Semantic validation — range, kind, losslessness —
/// is [`piccolo::campaign::PlannedCampaign::validate_result`]'s job.)
pub fn result_fields(doc: &Json) -> Result<(usize, String), String> {
    let unit = doc
        .get("unit")
        .and_then(Json::as_f64)
        .filter(|n| n.fract() == 0.0 && *n >= 0.0)
        .ok_or("result has no unit index")? as usize;
    let result = doc.get("result").ok_or("result has no result object")?;
    Ok((unit, result.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_through_a_byte_pipe() {
        let mut pipe: Vec<u8> = Vec::new();
        send_msg(&mut pipe, &hello_msg("w1")).unwrap();
        send_msg(&mut pipe, &lease_msg(&[0, 2, 4])).unwrap();
        let mut cursor = &pipe[..];
        let first = recv_msg(&mut cursor).unwrap().unwrap();
        let (kind, doc) = parse_msg(&first).unwrap();
        assert_eq!(kind, "hello");
        assert_eq!(doc.get("worker").and_then(Json::as_str), Some("w1"));
        let second = recv_msg(&mut cursor).unwrap().unwrap();
        let (kind, doc) = parse_msg(&second).unwrap();
        assert_eq!(kind, "lease");
        assert_eq!(lease_units(&doc).unwrap(), vec![0, 2, 4]);
        // Clean end-of-stream between frames.
        assert!(recv_msg(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn corrupt_frames_are_rejected_not_decoded() {
        let mut pipe: Vec<u8> = Vec::new();
        send_msg(&mut pipe, &next_msg()).unwrap();
        // Flip one payload byte; the length prefix still matches.
        let last = pipe.len() - 1;
        pipe[last] ^= 0x01;
        let err = recv_msg(&mut &pipe[..]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);

        // A torn frame (advertised length longer than the stream) is
        // UnexpectedEof, distinguishable from a clean close.
        let torn = [8u8, 0, 0, 0, b'x'];
        let err = recv_msg(&mut &torn[..]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);

        // An absurd length prefix fails fast without allocating.
        let huge = (MAX_FRAME + 1).to_le_bytes();
        let err = recv_msg(&mut &huge[..]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
    }

    #[test]
    fn result_frames_embed_canonical_bytes_verbatim() {
        let canonical = r#"{"kind":"sim","iters":"3","value":1.5}"#;
        let msg = result_msg(7, canonical);
        let (kind, doc) = parse_msg(&msg).unwrap();
        assert_eq!(kind, "result");
        let (unit, result) = result_fields(&doc).unwrap();
        assert_eq!(unit, 7);
        // The embedded object re-serializes to the exact input bytes: compact
        // JSON in, compact JSON out — the property duplicate discard relies on.
        assert_eq!(result, canonical);
    }
}
