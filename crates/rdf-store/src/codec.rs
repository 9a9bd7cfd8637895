//! The byte-level primitives of the workspace's binary formats: one
//! FNV-1a, one LEB128 varint writer, one bounds-checked reader.
//!
//! Graph snapshots ([`crate::snapshot`]), content fingerprints
//! ([`crate::fingerprint`]) and the summary artifacts of `rdfsum-core`
//! (`persist`) all hash with the same FNV-1a and frame their fields with
//! the same varints, so the loops are written once, here. The reader never
//! indexes past its buffer: every shortfall is
//! [`SnapshotError::Truncated`], which a caller that only wants "damaged or
//! not" turns into `None` with `.ok()?`.

use crate::snapshot::SnapshotError;

/// FNV-1a offset basis (64-bit): the seed of a fresh hash.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the FNV-1a state `h`. Start from [`FNV_OFFSET`];
/// feeding a hash back in continues it over the next field.
#[inline]
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Appends the checksum trailer: the FNV-1a of everything written so far,
/// little-endian.
pub fn stamp(out: &mut Vec<u8>) {
    let checksum = fnv1a(FNV_OFFSET, out);
    out.extend_from_slice(&checksum.to_le_bytes());
}

/// Splits the [`stamp`]ed trailer off `raw` and verifies it: the body it
/// covers, or [`SnapshotError::BadChecksum`].
pub fn stamped_body(raw: &[u8]) -> Result<&[u8], SnapshotError> {
    let (body, trailer) = raw
        .split_last_chunk::<8>()
        .ok_or(SnapshotError::Truncated)?;
    if fnv1a(FNV_OFFSET, body) != u64::from_le_bytes(*trailer) {
        return Err(SnapshotError::BadChecksum);
    }
    Ok(body)
}

/// Appends `v` as a LEB128 unsigned varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends `v` zigzag-mapped, so small negative values stay short.
pub fn put_signed_varint(out: &mut Vec<u8>, v: i64) {
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Appends a string field: byte length as a varint, then the bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked cursor over an encoded body.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor over `buf`, starting `pos` bytes in.
    ///
    /// # Panics
    /// Panics if `pos` is past the end of `buf`.
    pub fn new(buf: &'a [u8], pos: usize) -> Self {
        assert!(pos <= buf.len(), "reader starts past its buffer");
        Reader { buf, pos }
    }

    /// Bytes between the cursor and the end of the buffer.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// The next [`put_varint`] value; more than ten bytes is damage.
    pub fn varint(&mut self) -> Result<u64, SnapshotError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(SnapshotError::Truncated)
    }

    /// The next [`put_signed_varint`] value.
    pub fn signed_varint(&mut self) -> Result<i64, SnapshotError> {
        let z = self.varint()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// A count that the rest of the buffer must still spell out, each
    /// counted thing taking at least `min_bytes`: a count the remaining
    /// bytes cannot hold is damage, reported before anything is reserved
    /// for it. What this returns is therefore safe to allocate by.
    pub fn count(&mut self, min_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.varint()?;
        if n > (self.remaining() / min_bytes) as u64 {
            return Err(SnapshotError::Truncated);
        }
        Ok(n as usize)
    }

    /// The next [`put_str`] field, validated where it lies.
    pub fn str(&mut self) -> Result<&'a str, SnapshotError> {
        let len = self.count(1)?;
        std::str::from_utf8(self.take(len)?).map_err(|_| SnapshotError::BadUtf8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_roundtrip_at_every_width() {
        let mut out = Vec::new();
        let values = [0, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for v in values {
            put_varint(&mut out, v);
            put_signed_varint(&mut out, v as i64);
            put_signed_varint(&mut out, (v as i64).wrapping_neg());
        }
        put_str(&mut out, "é日");
        let mut r = Reader::new(&out, 0);
        for v in values {
            assert_eq!(r.varint().unwrap(), v);
            assert_eq!(r.signed_varint().unwrap(), v as i64);
            assert_eq!(r.signed_varint().unwrap(), (v as i64).wrapping_neg());
        }
        assert_eq!(r.str().unwrap(), "é日");
        assert_eq!(r.remaining(), 0);
        assert!(matches!(r.u8(), Err(SnapshotError::Truncated)));
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_left() {
        let mut out = Vec::new();
        put_varint(&mut out, 3);
        out.extend_from_slice(&[0; 8]);
        assert_eq!(Reader::new(&out, 0).count(1).unwrap(), 3);
        assert_eq!(Reader::new(&out, 0).count(2).unwrap(), 3);
        assert!(Reader::new(&out, 0).count(3).is_err());
        let mut out = Vec::new();
        put_varint(&mut out, u64::MAX);
        out.extend_from_slice(&[0; 64]);
        assert!(Reader::new(&out, 0).count(1).is_err());
        // An over-long varint and a string cut short are both truncation.
        assert!(Reader::new(&[0xff; 11], 0).varint().is_err());
        assert!(matches!(
            Reader::new(&[5, b'a', b'b'], 0).str(),
            Err(SnapshotError::Truncated)
        ));
        assert!(matches!(
            Reader::new(&[2, 0xc3, 0x28], 0).str(),
            Err(SnapshotError::BadUtf8)
        ));
    }

    #[test]
    fn a_stamp_covers_every_byte_before_it() {
        let mut out = b"body".to_vec();
        stamp(&mut out);
        assert_eq!(stamped_body(&out).unwrap(), b"body");
        for i in 0..out.len() {
            let mut bad = out.clone();
            bad[i] ^= 1;
            assert!(matches!(
                stamped_body(&bad),
                Err(SnapshotError::BadChecksum)
            ));
        }
        assert!(matches!(
            stamped_body(&out[..7]),
            Err(SnapshotError::Truncated)
        ));
    }

    #[test]
    fn fnv1a_continues_across_fields() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
    }
}
