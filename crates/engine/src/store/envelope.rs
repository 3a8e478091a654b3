//! The SSTM artifact envelope.
//!
//! Every stored artifact — whatever backend holds it — is an envelope:
//! a fixed header carrying the format version, the payload codec byte
//! and an integrity stamp, followed by the payload bytes. The envelope
//! is what makes artifacts safe to exchange: readers reject truncated,
//! corrupt, wrong-magic, wrong-version or unknown-codec bytes with a
//! precise [`EngineError::Store`] reason instead of misinterpreting
//! them.
//!
//! See the [module-level documentation](super) for the byte-exact
//! layout.

use crate::error::EngineError;
use ssta_math::digest::sha256;

/// Magic bytes opening every artifact.
pub const MAGIC: [u8; 4] = *b"SSTM";
/// The envelope version this build reads and writes.
pub const FORMAT_VERSION: u16 = 2;

const HEADER_LEN: usize = 23;

/// How a model payload is serialized inside the envelope. The header
/// keeps a codec byte so the format stays self-describing, but there is
/// exactly one payload codec.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Codec {
    /// The deterministic binary model layout of [`ssta_core::codec`]
    /// (payload codec byte 1).
    #[default]
    Binary = 1,
}

impl Codec {
    /// The codec byte stored in the envelope header.
    pub fn byte(self) -> u8 {
        self as u8
    }
}

/// A decoded envelope: a borrow of its integrity-checked payload.
#[derive(Debug, Clone, Copy)]
pub struct Envelope<'a> {
    /// The integrity-checked payload bytes.
    pub payload: &'a [u8],
}

/// Wraps a payload in the envelope.
pub fn encode_envelope(codec: Codec, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.push(codec.byte());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&sha256(payload).prefix_u64().to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates an envelope and returns its payload.
///
/// # Errors
///
/// Returns [`EngineError::Store`] describing the first defect found:
/// truncation, bad magic, unsupported version, unknown codec byte,
/// payload length mismatch, or integrity stamp mismatch.
pub fn decode_envelope(bytes: &[u8]) -> Result<Envelope<'_>, EngineError> {
    let reject = |reason: String| EngineError::Store { reason };
    if bytes.len() < HEADER_LEN {
        return Err(reject(format!(
            "truncated header: {} bytes, need {HEADER_LEN}",
            bytes.len()
        )));
    }
    if bytes[..4] != MAGIC {
        return Err(reject(format!(
            "bad magic {:02x?}, expected {:02x?}",
            &bytes[..4],
            MAGIC
        )));
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != FORMAT_VERSION {
        return Err(reject(format!(
            "unsupported format version {version}, this build reads only version {FORMAT_VERSION}"
        )));
    }
    if bytes[6] != Codec::Binary.byte() {
        return Err(reject(format!(
            "unknown payload codec byte {:#04x}, this build reads only {:#04x} (binary)",
            bytes[6],
            Codec::Binary.byte()
        )));
    }
    let len = u64::from_le_bytes(bytes[7..15].try_into().expect("8 bytes"));
    let payload = &bytes[HEADER_LEN..];
    if payload.len() as u64 != len {
        return Err(reject(format!(
            "payload length mismatch: header says {len}, artifact has {}",
            payload.len()
        )));
    }
    let stamp = u64::from_be_bytes(bytes[15..HEADER_LEN].try_into().expect("8 bytes"));
    let actual = sha256(payload).prefix_u64();
    if stamp != actual {
        return Err(reject(format!(
            "integrity stamp mismatch: header {stamp:016x}, payload {actual:016x}"
        )));
    }
    Ok(Envelope { payload })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v2_envelope_round_trips_both_codecs() {
        let payload = b"payload bytes";
        let bytes = encode_envelope(Codec::Binary, payload);
        assert_eq!(bytes[6], 1, "binary is codec byte 1");
        assert_eq!(decode_envelope(&bytes).unwrap().payload, payload);
    }

    #[test]
    fn envelope_rejects_defects() {
        let bytes = encode_envelope(Codec::Binary, b"payload");

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            decode_envelope(&bad_magic),
            Err(EngineError::Store { reason }) if reason.contains("magic")
        ));

        let mut bad_version = bytes.clone();
        bad_version[4] = 99;
        assert!(matches!(
            decode_envelope(&bad_version),
            Err(EngineError::Store { reason }) if reason.contains("version 99")
        ));

        let mut bad_codec = bytes.clone();
        bad_codec[6] = 7;
        assert!(matches!(
            decode_envelope(&bad_codec),
            Err(EngineError::Store { reason }) if reason.contains("codec")
        ));

        let mut flipped = bytes.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert!(matches!(
            decode_envelope(&flipped),
            Err(EngineError::Store { reason }) if reason.contains("integrity")
        ));

        assert!(matches!(
            decode_envelope(&bytes[..10]),
            Err(EngineError::Store { reason }) if reason.contains("truncated")
        ));

        let mut short_payload = bytes;
        short_payload.pop();
        assert!(matches!(
            decode_envelope(&short_payload),
            Err(EngineError::Store { reason }) if reason.contains("length mismatch")
        ));
    }
}
