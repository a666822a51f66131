//! The wire parser on hostile lines: `parse_request`, and the JSON reader
//! under it, answer any line with `Ok` or a typed `Err` and never panic.
//! Nothing is executed.

use ent_serve::{json, parse_request};
use proptest::prelude::*;

/// Valid request lines to mutate: every op, every knob and every escape
/// form.
const VALID: &[&str] = &[
    r#"{"op": "run", "id": "r1", "tenant": "alice", "src": "class Main { int main() { return 1; } }", "platform": "b", "battery": 0.5, "seed": 9, "silent": true, "faults": "dropout=0.5,stale=0.1", "fault_seed": 2, "staleness_bound": 1.5}"#,
    r#"{"op": "check", "id": "c\"1\\", "src": "modes { low <= high; }\nclass Main {}\t"}"#,
    r#"{"op": "stats", "id": "s", "extra": [1, -2.5e3, true, false, null, {"k": 0}]}"#,
    r#"{"op": "health", "id": "é😀é😀", "tenant": "t"}"#,
];

/// Bytes that steer a line into the parser's branches.
const JSON_BYTES: &[u8] = b"{}[]\":,\\ ue0123456789.-+Etrufalsn\xc3\xa9";

/// Both parsers on `bytes` (lossily made UTF-8, as only UTF-8 lines reach
/// them). A line the JSON reader refuses is refused with its message.
fn parse_both(bytes: &[u8]) -> TestCaseResult {
    let line = String::from_utf8_lossy(bytes);
    let doc = json::parse(&line);
    let request = parse_request(&line);
    if let Err(message) = &request {
        prop_assert!(!message.is_empty(), "an empty message for {line:?}");
    }
    if let Err(message) = doc {
        prop_assert_eq!(request.err(), Some(message));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn arbitrary_lines_get_typed_answers(
        bytes in proptest::collection::vec(
            prop_oneof![any::<u8>(), proptest::sample::select(JSON_BYTES.to_vec())],
            0..120,
        )
    ) {
        parse_both(&bytes)?;
    }

    /// Valid lines truncated, or with bytes flipped, inserted or deleted.
    #[test]
    fn mutated_request_lines_get_typed_answers(
        which in 0..VALID.len(),
        edits in proptest::collection::vec((0u8..4, any::<usize>(), any::<u8>()), 1..5),
    ) {
        let mut bytes = VALID[which].as_bytes().to_vec();
        for (kind, at, byte) in edits {
            let at = at % (bytes.len() + 1);
            match kind {
                0 => bytes.truncate(at),
                1 if at < bytes.len() => bytes[at] ^= byte.max(1),
                2 => bytes.insert(at, byte),
                _ if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => {}
            }
        }
        parse_both(&bytes)?;
    }
}

#[test]
fn the_valid_lines_parse() {
    for line in VALID {
        assert!(parse_request(line).is_ok(), "{line}");
    }
}
