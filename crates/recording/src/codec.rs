//! GRZ: the recording compressor.
//!
//! The paper compresses v3d memory dumps with zlib (§6.2); zlib is not
//! available offline, so GRZ is a self-contained LZSS with a 4 KiB window.
//! Dump payloads are dominated by zero pages and repeated structure, which
//! LZSS handles well — zipped/unzipped ratios land in the same regime as
//! the paper's Table 6.
//!
//! Wire format: `"GRZ1"`, u32 uncompressed length, then token groups. Each
//! group starts with a flag byte (bit *i* set ⇒ token *i* is a match),
//! followed by 8 tokens: literals are one byte; matches are three bytes
//! encoding distance−1 (12 bits) and length−3 (12 bits), so a single match
//! covers up to 4 KiB — zero pages collapse to a handful of tokens.

const MAGIC: &[u8; 4] = b"GRZ1";
const WINDOW: usize = 4096;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 4098; // 3 + 4095

/// Error decompressing a GRZ stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrzError {
    /// Missing/incorrect magic or truncated header.
    BadHeader,
    /// Stream ended mid-token.
    Truncated,
    /// A match referenced data before the start of output.
    BadMatch,
    /// Output length disagreed with the header.
    LengthMismatch,
}

impl std::fmt::Display for GrzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GrzError::BadHeader => write!(f, "bad GRZ header"),
            GrzError::Truncated => write!(f, "GRZ stream truncated"),
            GrzError::BadMatch => write!(f, "GRZ match out of range"),
            GrzError::LengthMismatch => write!(f, "GRZ length mismatch"),
        }
    }
}

impl std::error::Error for GrzError {}

/// Compresses `data`.
pub fn grz_compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());

    // Hash chains over 3-byte prefixes for match finding.
    const HASH_SIZE: usize = 1 << 13;
    let mut head = vec![usize::MAX; HASH_SIZE];
    let mut prev = vec![usize::MAX; data.len().max(1)];
    let hash = |d: &[u8], i: usize| -> usize {
        let h = (u32::from(d[i]) << 16) ^ (u32::from(d[i + 1]) << 8) ^ u32::from(d[i + 2]);
        (h.wrapping_mul(2654435761) as usize >> 19) & (HASH_SIZE - 1)
    };

    let mut i = 0usize;
    let mut flag_pos = 0usize;
    let mut flag = 0u8;
    let mut ntok = 0u8;
    let mut group: Vec<u8> = Vec::with_capacity(17);

    let flush = |out: &mut Vec<u8>,
                 flag: &mut u8,
                 ntok: &mut u8,
                 group: &mut Vec<u8>,
                 flag_pos: &mut usize| {
        let _ = flag_pos;
        out.push(*flag);
        out.extend_from_slice(group);
        *flag = 0;
        *ntok = 0;
        group.clear();
    };

    while i < data.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= data.len() {
            let h = hash(data, i);
            let mut cand = head[h];
            let mut tries = 16;
            while cand != usize::MAX && tries > 0 {
                if i - cand <= WINDOW {
                    let mut l = 0usize;
                    let max = MAX_MATCH.min(data.len() - i);
                    while l < max && data[cand + l] == data[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_dist = i - cand;
                        if l == MAX_MATCH {
                            break;
                        }
                    }
                } else {
                    break;
                }
                cand = prev[cand];
                tries -= 1;
            }
        }

        if best_len >= MIN_MATCH {
            let d = best_dist - 1;
            let l = best_len - MIN_MATCH;
            group.push((d >> 4) as u8);
            group.push((((d & 0xF) as u8) << 4) | ((l >> 8) as u8 & 0xF));
            group.push((l & 0xFF) as u8);
            flag |= 1 << ntok;
            // Insert hash entries for every position inside the match.
            let end = i + best_len;
            while i < end {
                if i + MIN_MATCH <= data.len() {
                    let h = hash(data, i);
                    prev[i] = head[h];
                    head[h] = i;
                }
                i += 1;
            }
        } else {
            group.push(data[i]);
            if i + MIN_MATCH <= data.len() {
                let h = hash(data, i);
                prev[i] = head[h];
                head[h] = i;
            }
            i += 1;
        }
        ntok += 1;
        if ntok == 8 {
            flush(&mut out, &mut flag, &mut ntok, &mut group, &mut flag_pos);
        }
    }
    if ntok > 0 {
        flush(&mut out, &mut flag, &mut ntok, &mut group, &mut flag_pos);
    }
    out
}

/// Reads the uncompressed length from a GRZ stream's header, so a caller
/// can bound a stream before decompressing it.
///
/// # Errors
///
/// Returns [`GrzError::BadHeader`] when the magic or length is missing.
pub(crate) fn grz_len(stream: &[u8]) -> Result<usize, GrzError> {
    match stream.get(..8) {
        Some(h) if &h[..4] == MAGIC => {
            Ok(u32::from_le_bytes(h[4..].try_into().expect("len checked")) as usize)
        }
        _ => Err(GrzError::BadHeader),
    }
}

/// Decompresses a GRZ stream.
///
/// Literal groups and matches are copied in bulk; a match that would run
/// past the header's length is rejected before any of it is written.
///
/// # Errors
///
/// Returns [`GrzError`] for malformed streams.
pub fn grz_decompress(stream: &[u8]) -> Result<Vec<u8>, GrzError> {
    let out_len = grz_len(stream)?;
    let mut out = Vec::with_capacity(out_len);
    let mut pos = 8usize;
    while out.len() < out_len {
        let Some(&flag) = stream.get(pos) else {
            return Err(GrzError::Truncated);
        };
        pos += 1;
        if flag == 0 {
            // Eight literals (fewer when the output ends inside the group).
            let n = (out_len - out.len()).min(8);
            let lits = stream.get(pos..pos + n).ok_or(GrzError::Truncated)?;
            out.extend_from_slice(lits);
            pos += n;
            continue;
        }
        for t in 0..8 {
            if out.len() >= out_len {
                break;
            }
            if flag & (1 << t) != 0 {
                let Some(&[b0, b1, b2]) = stream.get(pos..pos + 3) else {
                    return Err(GrzError::Truncated);
                };
                pos += 3;
                let (b0, b1, b2) = (usize::from(b0), usize::from(b1), usize::from(b2));
                let dist = ((b0 << 4) | (b1 >> 4)) + 1;
                let len = (((b1 & 0xF) << 8) | b2) + MIN_MATCH;
                if dist > out.len() {
                    return Err(GrzError::BadMatch);
                }
                if out.len() + len > out_len {
                    return Err(GrzError::LengthMismatch);
                }
                // An overlapping match (dist < len) repeats its source with
                // period `dist`: each chunk copies everything written since
                // `start`, a multiple of `dist`, so the chunks double.
                let start = out.len() - dist;
                let end = out.len() + len;
                while out.len() < end {
                    let n = (out.len() - start).min(end - out.len());
                    out.extend_from_within(start..start + n);
                }
            } else {
                let Some(&b) = stream.get(pos) else {
                    return Err(GrzError::Truncated);
                };
                pos += 1;
                out.push(b);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time decoder `grz_decompress` replaced, kept as the
    /// reference for the differential properties below.
    fn reference_decompress(stream: &[u8]) -> Result<Vec<u8>, GrzError> {
        if stream.len() < 8 || &stream[0..4] != MAGIC {
            return Err(GrzError::BadHeader);
        }
        let out_len = u32::from_le_bytes(stream[4..8].try_into().expect("len checked")) as usize;
        let mut out = Vec::with_capacity(out_len);
        let mut pos = 8usize;
        while out.len() < out_len {
            let Some(&flag) = stream.get(pos) else {
                return Err(GrzError::Truncated);
            };
            pos += 1;
            for t in 0..8 {
                if out.len() >= out_len {
                    break;
                }
                if flag & (1 << t) != 0 {
                    if pos + 3 > stream.len() {
                        return Err(GrzError::Truncated);
                    }
                    let b0 = stream[pos] as usize;
                    let b1 = stream[pos + 1] as usize;
                    let b2 = stream[pos + 2] as usize;
                    pos += 3;
                    let dist = ((b0 << 4) | (b1 >> 4)) + 1;
                    let len = (((b1 & 0xF) << 8) | b2) + MIN_MATCH;
                    if dist > out.len() {
                        return Err(GrzError::BadMatch);
                    }
                    let start = out.len() - dist;
                    for k in 0..len {
                        let b = out[start + k];
                        out.push(b);
                    }
                } else {
                    let Some(&b) = stream.get(pos) else {
                        return Err(GrzError::Truncated);
                    };
                    pos += 1;
                    out.push(b);
                }
            }
        }
        if out.len() != out_len {
            return Err(GrzError::LengthMismatch);
        }
        Ok(out)
    }

    fn same_as_reference(stream: &[u8]) {
        assert_eq!(grz_decompress(stream), reference_decompress(stream));
    }

    /// Encodes `tokens` as a GRZ stream whose header claims
    /// `encoded + len_delta` bytes: `(false, b)` is the literal `b`,
    /// `(true, x)` a match with distance `(x >> 12) + 1` and length
    /// `(x & 0xFFF) + 3`, which may reach before the output's start.
    fn token_stream(tokens: &[(bool, u32)], len_delta: i64) -> Vec<u8> {
        let mut produced = 0i64;
        let mut body = Vec::new();
        for group in tokens.chunks(8) {
            let mut flag = 0u8;
            let mut bytes = Vec::new();
            for (t, &(is_match, x)) in group.iter().enumerate() {
                if is_match {
                    let (d, l) = ((x >> 12) & 0xFFF, x & 0xFFF);
                    flag |= 1 << t;
                    bytes.extend_from_slice(&[
                        (d >> 4) as u8,
                        ((d & 0xF) << 4 | l >> 8) as u8,
                        l as u8,
                    ]);
                    produced += i64::from(l) + MIN_MATCH as i64;
                } else {
                    bytes.push(x as u8);
                    produced += 1;
                }
            }
            body.push(flag);
            body.extend_from_slice(&bytes);
        }
        let claimed = (produced + len_delta).max(0) as u32;
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&claimed.to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    fn roundtrip(data: &[u8]) {
        let z = grz_compress(data);
        let back = grz_decompress(&z).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"abc");
    }

    #[test]
    fn zero_pages_compress_hugely() {
        let data = vec![0u8; 64 * 1024];
        let z = grz_compress(&data);
        assert!(
            z.len() < data.len() / 20,
            "zeros: {} -> {}",
            data.len(),
            z.len()
        );
        assert_eq!(grz_decompress(&z).unwrap(), data);
    }

    #[test]
    fn repeated_structure_compresses() {
        let mut data = Vec::new();
        for i in 0..2000u32 {
            data.extend_from_slice(&(i % 16).to_le_bytes());
        }
        let z = grz_compress(&data);
        assert!(z.len() < data.len() / 2);
        roundtrip(&data);
    }

    #[test]
    fn incompressible_data_survives() {
        // Pseudo-random bytes: may expand slightly, must round-trip.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn long_matches_cover_whole_pages() {
        // One 4096-byte zero run should need very few tokens.
        let z = grz_compress(&vec![0u8; 4096]);
        assert!(z.len() < 32, "4K zeros -> {} bytes", z.len());
        assert_eq!(grz_decompress(&z).unwrap(), vec![0u8; 4096]);
    }

    #[test]
    fn long_range_matches_beyond_window_are_not_used() {
        // Two identical 100-byte blocks separated by > WINDOW of noise.
        let mut data = vec![7u8; 100];
        let mut x = 1u32;
        for _ in 0..WINDOW + 50 {
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            data.push((x >> 16) as u8);
        }
        data.extend(vec![7u8; 100]);
        roundtrip(&data);
    }

    #[test]
    fn corrupt_streams_error_cleanly() {
        assert_eq!(grz_decompress(b"nope"), Err(GrzError::BadHeader));
        assert_eq!(grz_decompress(b"GRZ1\x01\x00"), Err(GrzError::BadHeader));
        let z = grz_compress(b"hello world hello world");
        assert_eq!(
            grz_decompress(&z[..z.len() - 2]).err(),
            Some(GrzError::Truncated)
        );
        // A match referencing before the origin.
        let bad = [
            b'G',
            b'R',
            b'Z',
            b'1',
            4,
            0,
            0,
            0,
            0b0000_0001,
            0xFF,
            0xF0,
            0x00,
        ];
        assert_eq!(grz_decompress(&bad), Err(GrzError::BadMatch));
    }

    proptest! {
        #[test]
        fn prop_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
            roundtrip(&data);
        }

        #[test]
        fn prop_decoder_matches_reference_on_compressed_streams(
            runs in proptest::collection::vec((any::<u8>(), 1usize..6000), 0..12),
            periods in proptest::collection::vec((1usize..24, 1usize..600), 0..12)
        ) {
            // Long runs (zero pages) and short periodic patterns produce
            // overlapping matches; literals sit between them.
            let mut data = Vec::new();
            for ((b, n), (p, m)) in runs.iter().zip(&periods) {
                data.extend(std::iter::repeat(*b).take(*n));
                let pattern: Vec<u8> = (0..*p).map(|i| b.wrapping_add((i as u8).wrapping_mul(37))).collect();
                data.extend(pattern.iter().cycle().take(*m));
            }
            let z = grz_compress(&data);
            assert_eq!(grz_decompress(&z).as_deref(), Ok(&data[..]));
            same_as_reference(&z);
        }

        #[test]
        fn prop_decoder_matches_reference_on_token_streams(
            tokens in proptest::collection::vec((any::<bool>(), 0u32..(1 << 24)), 0..96),
            short_dist in any::<bool>(),
            len_delta in 0u32..64
        ) {
            // Near-origin distances keep most matches valid; the header
            // length is off by up to ±32, so streams also run short
            // (truncated), end early or overrun the claimed length.
            let tokens: Vec<(bool, u32)> = tokens
                .into_iter()
                .map(|(m, x)| (m, if short_dist { x & 0x01F_FFF } else { x }))
                .collect();
            same_as_reference(&token_stream(&tokens, i64::from(len_delta) - 32));
        }

        #[test]
        fn prop_decoder_matches_reference_on_mutated_streams(
            data in proptest::collection::vec(0u8..4, 0..3000),
            edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..4),
            cut in any::<usize>(),
            raw in proptest::collection::vec(any::<u8>(), 0..64)
        ) {
            let z = grz_compress(&data);
            let mut m = z.clone();
            for (at, b) in &edits {
                let at = at % m.len();
                m[at] ^= b;
            }
            same_as_reference(&m);
            same_as_reference(&z[..cut % (z.len() + 1)]);
            // Arbitrary bytes behind a valid magic, and with none.
            let mut a = MAGIC.to_vec();
            a.extend_from_slice(&raw);
            same_as_reference(&a);
            same_as_reference(&raw);
        }

        #[test]
        fn prop_roundtrip_structured(
            runs in proptest::collection::vec((any::<u8>(), 1usize..64), 0..128)
        ) {
            let mut data = Vec::new();
            for (b, n) in runs {
                data.extend(std::iter::repeat(b).take(n));
            }
            roundtrip(&data);
        }
    }
}
