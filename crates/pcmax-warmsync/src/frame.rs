//! Wire representation of warm-log records and digests.
//!
//! The serve line protocol is single-line ASCII, so binary key/value
//! bytes travel hex-encoded. One shipped record is one token:
//!
//! ```text
//! <seq>:<hex key>:<hex value>:<fnv1a(key‖value)>
//! ```
//!
//! seq and checksum are decimal; key/value are lowercase hex (empty
//! value ⇒ empty hex field). Digest inventory entries are
//! `<key hash>:<seq>` tokens. Both token kinds are whitespace-free, so
//! a reply carries any number of them space-separated.

use crate::fnv1a;

/// A warm-log record in transit between workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShipEntry {
    /// Sequence number the record held in the *source* worker's log.
    /// The receiver assigns its own local seq on apply, so this one is
    /// informational only.
    pub seq: u64,
    /// Opaque key bytes (a serialized canonical DP key).
    pub key: Vec<u8>,
    /// Opaque value bytes (a serialized cached solution).
    pub value: Vec<u8>,
}

impl ShipEntry {
    /// FNV-1a over `key‖value` — the transit checksum.
    pub fn checksum(&self) -> u64 {
        let mut body = Vec::with_capacity(self.key.len() + self.value.len());
        body.extend_from_slice(&self.key);
        body.extend_from_slice(&self.value);
        fnv1a(&body)
    }

    /// FNV-1a of the key bytes — the hash rendezvous routing and
    /// digests use for this entry.
    pub fn key_hash(&self) -> u64 {
        fnv1a(&self.key)
    }

    /// Encodes as a single whitespace-free protocol token.
    pub fn to_token(&self) -> String {
        format!(
            "{}:{}:{}:{}",
            self.seq,
            to_hex(&self.key),
            to_hex(&self.value),
            self.checksum()
        )
    }

    /// Parses a token, re-verifying the checksum against the decoded
    /// bytes. Any framing or checksum failure is an error string.
    pub fn from_token(token: &str) -> Result<Self, String> {
        let mut parts = token.split(':');
        let (Some(seq), Some(key), Some(value), Some(checksum), None) = (
            parts.next(),
            parts.next(),
            parts.next(),
            parts.next(),
            parts.next(),
        ) else {
            return Err(format!("malformed warm entry token: {token:?}"));
        };
        let seq: u64 = seq
            .parse()
            .map_err(|_| format!("bad warm entry seq: {seq:?}"))?;
        let key = from_hex(key).ok_or_else(|| format!("bad warm entry key hex: {key:?}"))?;
        let value =
            from_hex(value).ok_or_else(|| format!("bad warm entry value hex: {value:?}"))?;
        let checksum: u64 = checksum
            .parse()
            .map_err(|_| format!("bad warm entry checksum: {checksum:?}"))?;
        let entry = Self { seq, key, value };
        if entry.checksum() != checksum {
            return Err(format!(
                "warm entry checksum mismatch: got {}, token says {checksum}",
                entry.checksum()
            ));
        }
        Ok(entry)
    }
}

/// A worker's warm-log inventory: every live `(key hash, seq)` pair
/// plus the log's max seq, as returned by the `warm-digest` verb.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WarmDigest {
    /// Highest sequence number the log has assigned.
    pub max_seq: u64,
    /// `(fnv1a(key), seq)` for every live record.
    pub entries: Vec<(u64, u64)>,
}

impl WarmDigest {
    /// Whether the inventory lists `hash`.
    pub fn contains(&self, hash: u64) -> bool {
        self.entries.iter().any(|&(h, _)| h == hash)
    }
}

/// Formats one digest inventory entry as a `hash:seq` token.
pub fn format_digest_entry(hash: u64, seq: u64) -> String {
    format!("{hash}:{seq}")
}

/// Parses a `hash:seq` digest inventory token.
pub fn parse_digest_entry(token: &str) -> Result<(u64, u64), String> {
    let mut parts = token.split(':');
    let (Some(hash), Some(seq), None) = (parts.next(), parts.next(), parts.next()) else {
        return Err(format!("malformed digest token: {token:?}"));
    };
    let hash = hash
        .parse()
        .map_err(|_| format!("bad digest hash: {hash:?}"))?;
    let seq = seq.parse().map_err(|_| format!("bad digest seq: {seq:?}"))?;
    Ok((hash, seq))
}

fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(char::from_digit((b >> 4) as u32, 16).expect("nibble"));
        out.push(char::from_digit((b & 0xf) as u32, 16).expect("nibble"));
    }
    out
}

fn from_hex(text: &str) -> Option<Vec<u8>> {
    if !text.len().is_multiple_of(2) {
        return None;
    }
    let digits = text.as_bytes();
    let mut out = Vec::with_capacity(digits.len() / 2);
    for pair in digits.chunks(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push(((hi << 4) | lo) as u8);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_tokens_round_trip() {
        let entry = ShipEntry {
            seq: 42,
            key: vec![0x00, 0xff, 0x10],
            value: b"solution bytes".to_vec(),
        };
        let token = entry.to_token();
        assert!(!token.contains(' '), "{token}");
        assert_eq!(ShipEntry::from_token(&token).unwrap(), entry);
    }

    #[test]
    fn empty_value_round_trips() {
        let entry = ShipEntry {
            seq: 1,
            key: b"k".to_vec(),
            value: Vec::new(),
        };
        assert_eq!(ShipEntry::from_token(&entry.to_token()).unwrap(), entry);
    }

    #[test]
    fn corrupted_tokens_are_rejected() {
        let entry = ShipEntry {
            seq: 7,
            key: b"key".to_vec(),
            value: b"val".to_vec(),
        };
        let token = entry.to_token();
        // Flip a value nibble: framing still parses, checksum must not.
        let tampered = token.replacen(&to_hex(b"val"), &to_hex(b"vbl"), 1);
        assert!(ShipEntry::from_token(&tampered)
            .unwrap_err()
            .contains("checksum mismatch"));
        assert!(ShipEntry::from_token("justonefield").is_err());
        assert!(ShipEntry::from_token("1:zz:aa:0").is_err());
        assert!(ShipEntry::from_token("1:abc:aa:0").is_err(), "odd hex");
        assert!(ShipEntry::from_token("1:aa:bb:0:extra").is_err());
    }

    #[test]
    fn digest_tokens_round_trip() {
        let token = format_digest_entry(12345678901234567890, 17);
        assert_eq!(
            parse_digest_entry(&token).unwrap(),
            (12345678901234567890, 17)
        );
        assert!(parse_digest_entry("no-colon").is_err());
        assert!(parse_digest_entry("1:2:3").is_err());
        assert!(parse_digest_entry("x:2").is_err());
    }

    #[test]
    fn checksum_matches_the_store_convention() {
        // FNV-1a of empty input is the offset basis — a sentinel that
        // both sides of the wire must agree on.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        let entry = ShipEntry {
            seq: 0,
            key: Vec::new(),
            value: Vec::new(),
        };
        assert_eq!(entry.checksum(), 0xcbf2_9ce4_8422_2325);
    }
}
