//! Typed message payloads exchanged between ranks.
//!
//! The algorithms in this workspace move exactly three kinds of data:
//! dense row blocks (`f64` buffers), index lists (`u32`), and row blocks
//! *with* their row indices attached (the sparsity-aware exchanges). A
//! small enum beats byte-serialization: zero copies, and the byte sizes
//! used for accounting are the true wire sizes of the equivalent MPI/NCCL
//! messages.

/// One message payload.
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    /// Nothing (synchronization or an empty v-exchange slot).
    Empty,
    /// A dense `f64` buffer (rows of `H`, gradient blocks, …).
    F64(Vec<f64>),
    /// An index list (`NnzCols` requests, row id headers).
    U32(Vec<u32>),
    /// Row indices plus their dense rows, the sparsity-aware unit of
    /// exchange: "here are rows `idx` of my `H` block".
    Rows {
        /// Global row ids.
        idx: Vec<u32>,
        /// Row-major `idx.len() × f` data.
        data: Vec<f64>,
    },
}

/// FNV-1a offset basis (64-bit); the starting state of every lane and
/// of the finalizer.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit). Odd, so multiplying by it is a bijection on
/// `u64`.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Independent multiply chains: enough to hide the multiply latency.
const LANES: usize = 4;

/// One FNV-style step, `(state ^ word) · FNV_PRIME`: a bijection of
/// `state` for a fixed `word`, and injective in `word` for a fixed
/// `state`.
#[inline(always)]
fn mix(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(FNV_PRIME)
}

/// Word-at-a-time integrity hash over element *values*.
///
/// Words are `u64`s: an `f64` contributes its `to_bits`, a pair of
/// `u32`s packs into one word (low half first, an odd tail
/// zero-extended). Word `i` of the stream feeds lane `i mod 4` with one
/// [`mix`] step; [`WordHasher::finish`] folds caller metadata (variant
/// tag, segment lengths) and then the four lanes, in that order, into
/// one `u64`. The result depends on values only, never on memory byte
/// order, so both ends of a socket agree on it.
///
/// Guarantee: every step is a bijection of its state and injective in
/// its input, so changing any single word — in particular flipping any
/// single bit — of a stream of fixed shape always changes the hash.
/// Lengths are not implied by the word stream (packing pads, segments
/// abut); callers that need them distinguished pass them to `finish`.
#[derive(Debug)]
pub struct WordHasher {
    lanes: [u64; LANES],
    /// Words absorbed so far; the next word goes to lane `words % 4`.
    words: usize,
}

impl Default for WordHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl WordHasher {
    /// An empty hasher (distinct starting state per lane).
    pub fn new() -> Self {
        WordHasher {
            lanes: [0, 1, 2, 3].map(|k| FNV_OFFSET ^ k),
            words: 0,
        }
    }

    /// Absorbs one word.
    #[inline]
    pub fn write_u64(&mut self, word: u64) {
        let lane = &mut self.lanes[self.words % LANES];
        *lane = mix(*lane, word);
        self.words += 1;
    }

    /// Absorbs `v.len()` words, one `f64::to_bits` each.
    // Inlined into callers that own the hasher: compiled out of line
    // against `self.lanes`, LLVM packs the four lanes into SSE2 vectors
    // with an emulated 64-bit multiply, about 3× slower than scalar.
    #[inline]
    pub fn write_f64s(&mut self, v: &[f64]) {
        // Bring the stream to a lane boundary, then run the four
        // chains side by side.
        let head = ((LANES - self.words % LANES) % LANES).min(v.len());
        let (head, body) = v.split_at(head);
        for x in head {
            self.write_u64(x.to_bits());
        }
        let (quads, tail) = body.as_chunks::<LANES>();
        let [mut a, mut b, mut c, mut d] = self.lanes;
        for &[w, x, y, z] in quads {
            a = mix(a, w.to_bits());
            b = mix(b, x.to_bits());
            c = mix(c, y.to_bits());
            d = mix(d, z.to_bits());
        }
        self.lanes = [a, b, c, d];
        self.words += LANES * quads.len();
        for x in tail {
            self.write_u64(x.to_bits());
        }
    }

    /// Absorbs `⌈v.len() / 2⌉` words: `u32` pairs packed low-first, an
    /// odd last element zero-extended.
    #[inline]
    pub fn write_u32s(&mut self, v: &[u32]) {
        let (pairs, tail) = v.as_chunks::<2>();
        for &[lo, hi] in pairs {
            self.write_u64(u64::from(lo) | u64::from(hi) << 32);
        }
        if let [x] = tail {
            self.write_u64(u64::from(*x));
        }
    }

    /// The hash: `meta` words, then the lanes in order, folded by
    /// [`mix`] from the FNV offset basis.
    pub fn finish(&self, meta: &[u64]) -> u64 {
        meta.iter()
            .chain(&self.lanes)
            .fold(FNV_OFFSET, |h, &w| mix(h, w))
    }
}

impl Payload {
    /// Wire size in bytes (8 per f64, 4 per u32).
    pub fn bytes(&self) -> u64 {
        match self {
            Payload::Empty => 0,
            Payload::F64(v) => 8 * v.len() as u64,
            Payload::U32(v) => 4 * v.len() as u64,
            Payload::Rows { idx, data } => 4 * idx.len() as u64 + 8 * data.len() as u64,
        }
    }

    /// End-to-end integrity checksum: a [`WordHasher`] over the element
    /// values, finished with the variant tag (the wire codec's variant
    /// byte) and each segment's element count. Any single-bit flip of
    /// the payload changes it; the counts keep a zero-extended `u32`
    /// tail and the `idx`/`data` split of `Rows` from colliding.
    /// Endian-independent and deterministic.
    pub fn checksum(&self) -> u64 {
        let mut h = WordHasher::new();
        match self {
            Payload::Empty => h.finish(&[0]),
            Payload::F64(v) => {
                h.write_f64s(v);
                h.finish(&[1, v.len() as u64])
            }
            Payload::U32(v) => {
                h.write_u32s(v);
                h.finish(&[2, v.len() as u64])
            }
            Payload::Rows { idx, data } => {
                h.write_u32s(idx);
                h.write_f64s(data);
                h.finish(&[3, idx.len() as u64, data.len() as u64])
            }
        }
    }

    /// Flips one bit somewhere in the payload (or returns `false` for
    /// [`Payload::Empty`], which carries no bits to damage). Used by the
    /// fault injector to model genuine in-flight corruption that the
    /// receiver must catch via [`Payload::checksum`].
    pub fn flip_bit(&mut self, which: u64) -> bool {
        match self {
            Payload::Empty => false,
            Payload::F64(v) => flip_f64(v, which),
            Payload::U32(v) => flip_u32(v, which),
            Payload::Rows { idx, data } => {
                if data.is_empty() {
                    flip_u32(idx, which)
                } else {
                    flip_f64(data, which)
                }
            }
        }
    }

    /// Unwraps an `F64` payload.
    ///
    /// # Panics
    /// Panics on a different variant (protocol error).
    pub fn into_f64(self) -> Vec<f64> {
        match self {
            Payload::F64(v) => v,
            other => panic!("expected F64 payload, got {:?}", kind(&other)),
        }
    }

    /// Unwraps a `U32` payload.
    ///
    /// # Panics
    /// Panics on a different variant (protocol error).
    pub fn into_u32(self) -> Vec<u32> {
        match self {
            Payload::U32(v) => v,
            other => panic!("expected U32 payload, got {:?}", kind(&other)),
        }
    }

    /// Unwraps a `Rows` payload.
    ///
    /// # Panics
    /// Panics on a different variant (protocol error).
    pub fn into_rows(self) -> (Vec<u32>, Vec<f64>) {
        match self {
            Payload::Rows { idx, data } => (idx, data),
            other => panic!("expected Rows payload, got {:?}", kind(&other)),
        }
    }
}

fn flip_f64(v: &mut [f64], which: u64) -> bool {
    if v.is_empty() {
        return false;
    }
    let slot = (which as usize) % v.len();
    let bit = (which / v.len() as u64) % 64;
    v[slot] = f64::from_bits(v[slot].to_bits() ^ (1u64 << bit));
    true
}

fn flip_u32(v: &mut [u32], which: u64) -> bool {
    if v.is_empty() {
        return false;
    }
    let slot = (which as usize) % v.len();
    let bit = ((which / v.len() as u64) % 32) as u32;
    v[slot] ^= 1u32 << bit;
    true
}

fn kind(p: &Payload) -> &'static str {
    match p {
        Payload::Empty => "Empty",
        Payload::F64(_) => "F64",
        Payload::U32(_) => "U32",
        Payload::Rows { .. } => "Rows",
    }
}

/// A tagged, framed message; the tag carries the phase/op kind so
/// protocol mismatches fail fast instead of silently mis-pairing
/// buffers, while `seq`/`gen`/`checksum` are the reliable-transport
/// header: per-channel sequence number, epoch-attempt generation, and
/// the sender-computed [`Payload::checksum`] the receiver verifies end
/// to end.
#[derive(Clone, Debug)]
pub struct Msg {
    /// Op discriminator (see [`crate::ctx`] constants).
    pub tag: u8,
    /// Per-(src → dst) channel sequence number, monotone across the
    /// whole run (never reset on failover).
    pub seq: u64,
    /// Failover generation the frame was sent in; receivers discard
    /// frames from completed (aborted) generations.
    pub gen: u32,
    /// [`Payload::checksum`] computed at send time. A mismatch at the
    /// receiver means in-flight corruption → discard + wait for the
    /// retransmit.
    pub checksum: u64,
    /// The data.
    pub payload: Payload,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_accounting() {
        assert_eq!(Payload::Empty.bytes(), 0);
        assert_eq!(Payload::F64(vec![0.0; 3]).bytes(), 24);
        assert_eq!(Payload::U32(vec![0; 3]).bytes(), 12);
        assert_eq!(
            Payload::Rows {
                idx: vec![1, 2],
                data: vec![0.0; 4]
            }
            .bytes(),
            8 + 32
        );
    }

    #[test]
    fn unwrap_roundtrip() {
        assert_eq!(Payload::F64(vec![1.0]).into_f64(), vec![1.0]);
        assert_eq!(Payload::U32(vec![7]).into_u32(), vec![7]);
        let (i, d) = Payload::Rows {
            idx: vec![3],
            data: vec![9.0],
        }
        .into_rows();
        assert_eq!((i, d), (vec![3], vec![9.0]));
    }

    #[test]
    #[should_panic(expected = "expected F64")]
    fn wrong_variant_panics() {
        Payload::U32(vec![1]).into_f64();
    }

    /// Every copy of `p` with exactly one bit of one element flipped.
    fn single_bit_flips(p: &Payload) -> Vec<Payload> {
        fn each_f64(v: &[f64], mut wrap: impl FnMut(Vec<f64>) -> Payload) -> Vec<Payload> {
            let mut out = Vec::new();
            for i in 0..v.len() {
                for bit in 0..64 {
                    let mut w = v.to_vec();
                    w[i] = f64::from_bits(w[i].to_bits() ^ (1u64 << bit));
                    out.push(wrap(w));
                }
            }
            out
        }
        fn each_u32(v: &[u32], mut wrap: impl FnMut(Vec<u32>) -> Payload) -> Vec<Payload> {
            let mut out = Vec::new();
            for i in 0..v.len() {
                for bit in 0..32 {
                    let mut w = v.to_vec();
                    w[i] ^= 1u32 << bit;
                    out.push(wrap(w));
                }
            }
            out
        }
        match p {
            Payload::Empty => Vec::new(),
            Payload::F64(v) => each_f64(v, Payload::F64),
            Payload::U32(v) => each_u32(v, Payload::U32),
            Payload::Rows { idx, data } => {
                let mut out = each_u32(idx, |idx| Payload::Rows {
                    idx,
                    data: data.clone(),
                });
                out.extend(each_f64(data, |data| Payload::Rows {
                    idx: idx.clone(),
                    data,
                }));
                out
            }
        }
    }

    fn assert_every_flip_detected(p: &Payload) {
        let good = p.checksum();
        for (k, bad) in single_bit_flips(p).iter().enumerate() {
            assert_ne!(bad.checksum(), good, "flip {k} of {p:?} went undetected");
        }
    }

    fn f64s(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64 * 1.5 - 2.0).collect()
    }

    fn u32s(n: usize) -> Vec<u32> {
        (0..n as u32).map(|i| i * 7 + 1).collect()
    }

    #[test]
    fn checksum_detects_any_single_bit_flip() {
        // Element counts 0..=9 cover every lane, every tail residue and
        // every odd/even `u32` packing; `Rows` additionally covers every
        // lane offset at which the data segment starts.
        for n in 0..=9 {
            assert_every_flip_detected(&Payload::F64(f64s(n)));
            assert_every_flip_detected(&Payload::U32(u32s(n)));
            for m in 1..=9 {
                if n > 0 {
                    assert_every_flip_detected(&Payload::Rows {
                        idx: u32s(n),
                        data: f64s(m),
                    });
                }
            }
        }
        // The fault injector's own flips are caught too.
        let base = Payload::Rows {
            idx: vec![4, 9],
            data: vec![1.5, -2.25, 0.0, 3.0],
        };
        for which in 0..256u64 {
            let mut bad = base.clone();
            assert!(bad.flip_bit(which));
            assert_ne!(bad.checksum(), base.checksum(), "flip {which}");
        }
    }

    #[test]
    fn checksum_separates_shapes_with_equal_word_streams() {
        let (a, b, c) = (0xdead_beef_u32, 17_u32, 2.5_f64);
        // A zero-extended odd tail is not an explicit zero element.
        assert_ne!(
            Payload::U32(vec![a]).checksum(),
            Payload::U32(vec![a, 0]).checksum()
        );
        // Same words, different variant.
        assert_ne!(
            Payload::Rows {
                idx: vec![a, b],
                data: vec![]
            }
            .checksum(),
            Payload::U32(vec![a, b]).checksum()
        );
        // Same words, split differently between `idx` and `data`.
        let packed = f64::from_bits(u64::from(a) | u64::from(b) << 32);
        assert_ne!(
            Payload::Rows {
                idx: vec![a, b],
                data: vec![c]
            }
            .checksum(),
            Payload::Rows {
                idx: vec![],
                data: vec![packed, c]
            }
            .checksum()
        );
    }

    #[test]
    fn checksum_known_answers() {
        // Pinned: the checksum travels in every frame header, so a change
        // here is a wire-format change and must be deliberate.
        let cases = [
            (Payload::Empty, 0x4661_9dfc_35cb_6e67),
            (
                Payload::F64(vec![1.0, -2.5, 0.125, 3.0e10, -0.0]),
                0xe7d4_a18b_f827_356d,
            ),
            (
                Payload::F64((1..=9).map(|i| 0.1 * i as f64).collect()),
                0x289b_d154_21d0_b03b,
            ),
            (Payload::U32(vec![0, 7, u32::MAX]), 0xa81f_cc25_2b7b_3b3b),
            (
                Payload::Rows {
                    idx: vec![3, 9, 12],
                    data: vec![0.5, 4.0e300, -1.0],
                },
                0xdf14_83b9_9dca_524d,
            ),
        ];
        for (p, want) in cases {
            assert_eq!(p.checksum(), want, "{p:?}: {:#018x}", p.checksum());
        }
    }

    #[test]
    fn word_hasher_is_stream_aligned() {
        // Split writes land on the same lanes as one write.
        let v = f64s(11);
        let mut whole = WordHasher::new();
        whole.write_f64s(&v);
        let mut parts = WordHasher::new();
        parts.write_f64s(&v[..3]);
        parts.write_u64(v[3].to_bits());
        parts.write_f64s(&v[4..]);
        assert_eq!(whole.finish(&[]), parts.finish(&[]));
        assert_ne!(whole.finish(&[]), whole.finish(&[11]));
    }

    #[test]
    fn checksum_distinguishes_variants_and_is_stable() {
        // Same raw bits, different variants → different checksums.
        assert_ne!(
            Payload::F64(vec![]).checksum(),
            Payload::U32(vec![]).checksum()
        );
        assert_ne!(Payload::Empty.checksum(), Payload::F64(vec![]).checksum());
        // Deterministic across calls.
        let p = Payload::F64(vec![1.0, 2.0]);
        assert_eq!(p.checksum(), p.checksum());
    }

    #[test]
    fn empty_payload_has_no_bits_to_flip() {
        let mut p = Payload::Empty;
        assert!(!p.flip_bit(0));
        let mut z = Payload::F64(vec![]);
        assert!(!z.flip_bit(3));
    }
}
