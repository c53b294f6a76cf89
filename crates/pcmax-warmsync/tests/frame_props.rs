//! Property tests for the warm-state ship frames: entry tokens round-trip
//! any bytes, a single changed digit is always caught, digest tokens
//! round-trip, and no input line can panic either parser.

use pcmax_warmsync::frame::{format_digest_entry, parse_digest_entry, ShipEntry};
use proptest::prelude::*;

fn bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..=max)
}

/// Token characters, plus bytes that are not valid UTF-8.
const ALPHABET: &[u8] = b"0123456789abcdefABCDEFxz: -\xff\xc3";

/// Up to four single-byte edits at arbitrary positions, drawn from
/// [`ALPHABET`], and an optional truncation.
fn edits() -> impl Strategy<Value = (Vec<(usize, usize)>, usize)> {
    (
        prop::collection::vec((any::<usize>(), 0..ALPHABET.len()), 0..=4),
        any::<usize>(),
    )
}

/// Applies `edits` to a well-formed token, so the parsers get past their
/// framing and reach the seq, hex and checksum checks.
fn mutate(token: String, (edits, cut): (Vec<(usize, usize)>, usize)) -> Vec<u8> {
    let mut line = token.into_bytes();
    for (at, pick) in edits {
        let at = at % line.len();
        line[at] = ALPHABET[pick];
    }
    // Truncate in half of the cases.
    line.truncate(cut % (2 * line.len() + 1));
    line
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn entry_tokens_round_trip(seq in any::<u64>(), key in bytes(32), value in bytes(64)) {
        let entry = ShipEntry { seq, key, value };
        let token = entry.to_token();
        prop_assert!(!token.contains(char::is_whitespace), "{}", token);
        prop_assert_eq!(ShipEntry::from_token(&token), Ok(entry.clone()));
        let empty = ShipEntry { value: Vec::new(), ..entry };
        prop_assert_eq!(ShipEntry::from_token(&empty.to_token()), Ok(empty));
    }

    #[test]
    fn one_changed_hex_digit_is_rejected(seq in any::<u64>(),
                                         key in prop::collection::vec(any::<u8>(), 1..=16),
                                         value in bytes(16),
                                         pick in any::<usize>(),
                                         shift in 1u32..16) {
        let entry = ShipEntry { seq, key, value };
        let token = entry.to_token();
        // Byte offsets of every hex digit of the key and value fields.
        let key_start = token.find(':').expect("seq field") + 1;
        let value_end = token.rfind(':').expect("checksum field");
        let digits: Vec<usize> = (key_start..value_end)
            .filter(|&i| token.as_bytes()[i] != b':')
            .collect();
        let at = digits[pick % digits.len()];
        let old = (token.as_bytes()[at] as char).to_digit(16).expect("hex digit");
        let new = char::from_digit((old + shift) % 16, 16).expect("hex digit");
        let mut tampered = token.clone();
        tampered.replace_range(at..at + 1, new.encode_utf8(&mut [0; 4]));
        prop_assert!(ShipEntry::from_token(&tampered).is_err(), "{} accepted", tampered);
    }

    #[test]
    fn changed_checksum_is_rejected(seq in any::<u64>(),
                                    key in bytes(16),
                                    value in bytes(16),
                                    delta in 1u64..=u64::MAX) {
        let entry = ShipEntry { seq, key, value };
        let token = entry.to_token();
        let body = &token[..token.rfind(':').expect("checksum field")];
        let tampered = format!("{body}:{}", entry.checksum().wrapping_add(delta));
        prop_assert!(ShipEntry::from_token(&tampered).is_err(), "{} accepted", tampered);
    }

    #[test]
    fn digest_tokens_round_trip(hash in any::<u64>(), seq in any::<u64>()) {
        prop_assert_eq!(parse_digest_entry(&format_digest_entry(hash, seq)), Ok((hash, seq)));
    }

    #[test]
    fn no_line_panics_either_parser(raw in bytes(64),
                                    (seq, hash) in (any::<u64>(), any::<u64>()),
                                    key in bytes(8),
                                    value in bytes(8),
                                    entry_edits in edits(),
                                    digest_edits in edits()) {
        let entry = ShipEntry { seq, key, value }.to_token();
        let digest = format_digest_entry(hash, seq);
        let lines = [raw, mutate(entry, entry_edits), mutate(digest, digest_edits)];
        for line in &lines {
            let line = String::from_utf8_lossy(line);
            let _ = ShipEntry::from_token(&line);
            let _ = parse_digest_entry(&line);
            for token in line.split_whitespace() {
                let _ = ShipEntry::from_token(token);
                let _ = parse_digest_entry(token);
            }
        }
    }
}
