//! Seeded round-trip and mutation test for the workspace's one JSON parser
//! (`piccolo_obs::json`, re-exported as `piccolo::json`). That parser reads every
//! journal line, event record, `baselines.json` and `trajectory.json`, so it must
//! read back exactly what the writer produced and must survive any corruption of
//! it with an error, never a panic.

use piccolo::json::{parse, Json};
use piccolo_graph::rng::Rng64;

/// Characters strings are drawn from: every escape class, control characters and
/// one-, two-, three- and four-byte UTF-8.
const CHARS: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '€',
    '\u{fffd}', '𝄞',
];

/// Bytes an insertion draws from: JSON's structural and literal bytes, a raw
/// control character and a lone UTF-8 continuation byte.
const INSERTS: &[u8] = b"[]{}:,\"\\/-+.eE0123456789tfnul \x01\x80";

fn gen_string(rng: &mut Rng64) -> String {
    (0..rng.gen_index(8))
        .map(|_| CHARS[rng.gen_index(CHARS.len())])
        .collect()
}

fn gen_number(rng: &mut Rng64) -> f64 {
    match rng.gen_index(3) {
        0 => rng.gen_u64_below(2_000_001) as f64 - 1.0e6,
        1 => rng.gen_f64_range(-1.0e3, 1.0e3),
        // Any finite double, subnormals and 300-digit integers included.
        _ => loop {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                break x;
            }
        },
    }
}

fn gen_value(rng: &mut Rng64, depth: u32) -> Json {
    let kinds = if depth == 0 || rng.gen_bool(0.4) {
        4
    } else {
        6
    };
    match rng.gen_index(kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => Json::Num(gen_number(rng)),
        3 => Json::Str(gen_string(rng)),
        4 => Json::Arr(
            (0..rng.gen_index(4))
                .map(|_| gen_value(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.gen_index(4))
                .map(|_| (gen_string(rng), gen_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// Flips a bit, inserts a byte, deletes a byte or truncates.
fn mutate(rng: &mut Rng64, bytes: &mut Vec<u8>) {
    let at = rng.gen_index(bytes.len() + 1);
    match rng.gen_index(4) {
        0 if at < bytes.len() => bytes[at] ^= 1 << rng.gen_index(8),
        1 => bytes.insert(at, INSERTS[rng.gen_index(INSERTS.len())]),
        2 if at < bytes.len() => {
            bytes.remove(at);
        }
        _ => bytes.truncate(at),
    }
}

#[test]
fn seeded_trees_roundtrip_and_mutants_never_panic() {
    let mut rng = Rng64::seed_from_u64(0x6a73_6f6e);
    let (mut accepted, mut rejected) = (0, 0);
    for _ in 0..400 {
        let v = gen_value(&mut rng, 4);
        let text = v.to_string();
        assert_eq!(parse(&text).as_ref(), Ok(&v), "{text}");
        for _ in 0..16 {
            let mut bytes = text.clone().into_bytes();
            for _ in 0..=rng.gen_index(3) {
                mutate(&mut rng, &mut bytes);
            }
            let mutant = String::from_utf8_lossy(&bytes);
            match parse(&mutant) {
                Err(e) => {
                    assert!(e.offset <= mutant.len(), "{mutant:?}: {e}");
                    rejected += 1;
                }
                // What a mutant parses to must write out to a fixed point.
                Ok(w) => {
                    let again = w.to_string();
                    let reread = parse(&again).map(|x| x.to_string());
                    assert_eq!(reread.as_ref(), Ok(&again), "{mutant:?}");
                    accepted += 1;
                }
            }
        }
    }
    assert!(
        accepted > 0 && rejected > 0,
        "{accepted} accepted, {rejected} rejected"
    );
}
