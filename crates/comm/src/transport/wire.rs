//! Length-prefixed wire framing for the process backend.
//!
//! Every frame on a socket is `[u32 len][u8 kind][u32 src][u64
//! link_seq][body]`, all little-endian; `len` covers everything after
//! the length field itself. `link_seq` numbers DATA frames per
//! connection direction (the replay/ack watermark unit); it is zero for
//! control frames. The DATA body is the byte serialization of
//! [`Msg`] — tag, transport seq, generation, payload checksum, payload —
//! exactly the header the thread backend passes by value, so the
//! receive state machine in [`crate::RankCtx`] is backend-agnostic.
//! The full grammar is documented in DESIGN.md §8.

use std::io::{self, Read, Write};

use crate::msg::{Msg, Payload};

/// Frame kinds (the `kind` byte).
pub(crate) mod kind {
    /// Connection wire-up / reconnect: body is the sender's delivered
    /// watermark for this link (how many DATA frames from the peer it
    /// has already handed to the upper layer).
    pub const HELLO: u8 = 1;
    /// One [`crate::msg::Msg`]; `link_seq` numbers these per direction.
    pub const DATA: u8 = 2;
    /// Cumulative receive acknowledgement: body is the receiver's
    /// delivered watermark; the sender prunes its replay queue.
    pub const ACK: u8 = 3;
    /// Liveness beacon (empty body).
    pub const HEARTBEAT: u8 = 4;
    /// Graceful shutdown: no more frames follow from the sender.
    pub const BYE: u8 = 5;
    /// Barrier entry announcement to rank 0: body is the round number.
    pub const BARRIER_ENTER: u8 = 6;
    /// Barrier release from rank 0: body is the round number.
    pub const BARRIER_RELEASE: u8 = 7;
    /// Rendezvous registration: body is the sender's mesh socket path.
    pub const REGISTER: u8 = 8;
    /// Rendezvous reply: body is every rank's mesh socket path.
    pub const ADDRBOOK: u8 = 9;
    /// Clock-offset probe from rank 0 during rendezvous (empty body).
    pub const CLOCK_PING: u8 = 10;
    /// Clock-offset reply: body is the replying rank's monotonic clock
    /// reading (seconds since its transport anchor) as `f64::to_bits`.
    pub const CLOCK_PONG: u8 = 11;
}

/// Hard cap on a single frame (1 GiB) so a corrupted length prefix
/// cannot trigger an absurd allocation.
const MAX_FRAME: u32 = 1 << 30;

/// Encoded bytes a frame occupies beyond its body: the u32 length
/// prefix plus the kind/src/link_seq header (metrics accounting).
pub(crate) const FRAME_OVERHEAD: u64 = 4 + 1 + 4 + 8;

/// One decoded frame.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Frame {
    pub kind: u8,
    pub src: u32,
    pub link_seq: u64,
    pub body: Vec<u8>,
}

impl Frame {
    pub(crate) fn control(kind: u8, src: usize) -> Self {
        Frame {
            kind,
            src: src as u32,
            link_seq: 0,
            body: Vec::new(),
        }
    }

    pub(crate) fn with_u64(kind: u8, src: usize, value: u64) -> Self {
        Frame {
            kind,
            src: src as u32,
            link_seq: 0,
            body: value.to_le_bytes().to_vec(),
        }
    }

    /// Decodes a `u64` body (ACK/HELLO watermarks, barrier rounds).
    pub(crate) fn body_u64(&self) -> io::Result<u64> {
        let bytes: [u8; 8] = self
            .body
            .as_slice()
            .try_into()
            .map_err(|_| bad_data("u64 frame body has wrong length"))?;
        Ok(u64::from_le_bytes(bytes))
    }
}

fn bad_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Serializes one frame onto `w` (single buffered write + flush).
pub(crate) fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    let mut buf = encode_frame(frame);
    let len = (buf.len() - 4) as u32;
    buf[..4].copy_from_slice(&len.to_le_bytes());
    w.write_all(&buf)?;
    w.flush()
}

/// Encodes a frame with a placeholder length prefix (filled by the
/// caller); exposed separately so senders can pre-encode DATA frames
/// once and replay the identical bytes after a reconnect.
pub(crate) fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + 13 + frame.body.len());
    buf.extend_from_slice(&0u32.to_le_bytes()); // length placeholder
    buf.push(frame.kind);
    buf.extend_from_slice(&frame.src.to_le_bytes());
    buf.extend_from_slice(&frame.link_seq.to_le_bytes());
    buf.extend_from_slice(&frame.body);
    let len = (buf.len() - 4) as u32;
    buf[..4].copy_from_slice(&len.to_le_bytes());
    buf
}

/// Largest body buffer [`read_frame`] reserves before any of the body
/// has arrived; a longer body grows the buffer as its bytes land, so a
/// lying length prefix costs at most this much memory.
const BODY_PREALLOC: usize = 1 << 20;

/// Reads one frame off `r`. `Ok(None)` is a clean EOF at a frame
/// boundary; errors inside a frame are real I/O failures. The header is
/// read into a fixed array and the body straight into the returned
/// buffer: no allocation beyond [`BODY_PREALLOC`] until bytes back it,
/// and no second copy of the body.
pub(crate) fn read_frame(r: &mut impl Read) -> io::Result<Option<Frame>> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_bytes);
    if !(13..=MAX_FRAME).contains(&len) {
        return Err(bad_data("frame length out of range"));
    }
    let mut head = [0u8; 13];
    r.read_exact(&mut head)?;
    let body_len = len as usize - head.len();
    let mut body = Vec::with_capacity(body_len.min(BODY_PREALLOC));
    r.take(body_len as u64).read_to_end(&mut body)?;
    if body.len() != body_len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "frame body truncated",
        ));
    }
    Ok(Some(Frame {
        kind: head[0],
        src: u32::from_le_bytes(head[1..5].try_into().unwrap()),
        link_seq: u64::from_le_bytes(head[5..13].try_into().unwrap()),
        body,
    }))
}

// ---- Msg body codec -----------------------------------------------------

/// Payload variant bytes (the tags [`Payload::checksum`] folds in).
const PV_EMPTY: u8 = 0;
const PV_F64: u8 = 1;
const PV_U32: u8 = 2;
const PV_ROWS: u8 = 3;

/// Serializes a [`Msg`] into a DATA frame body.
pub(crate) fn encode_msg(msg: &Msg) -> Vec<u8> {
    let mut b = Vec::with_capacity(22 + msg.payload.bytes() as usize + 16);
    b.push(msg.tag);
    b.extend_from_slice(&msg.seq.to_le_bytes());
    b.extend_from_slice(&msg.gen.to_le_bytes());
    b.extend_from_slice(&msg.checksum.to_le_bytes());
    match &msg.payload {
        Payload::Empty => b.push(PV_EMPTY),
        Payload::F64(v) => {
            b.push(PV_F64);
            b.extend_from_slice(&(v.len() as u64).to_le_bytes());
            for x in v {
                b.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        }
        Payload::U32(v) => {
            b.push(PV_U32);
            b.extend_from_slice(&(v.len() as u64).to_le_bytes());
            for x in v {
                b.extend_from_slice(&x.to_le_bytes());
            }
        }
        Payload::Rows { idx, data } => {
            b.push(PV_ROWS);
            b.extend_from_slice(&(idx.len() as u64).to_le_bytes());
            b.extend_from_slice(&(data.len() as u64).to_le_bytes());
            for x in idx {
                b.extend_from_slice(&x.to_le_bytes());
            }
            for x in data {
                b.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        }
    }
    b
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| bad_data("truncated DATA body"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Element count with a sanity bound derived from the bytes left.
    fn count(&mut self, elem_bytes: usize) -> io::Result<usize> {
        let n = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if n > remaining / elem_bytes as u64 + 1 {
            return Err(bad_data("element count exceeds frame size"));
        }
        Ok(n as usize)
    }
}

/// Deserializes a DATA frame body back into a [`Msg`].
pub(crate) fn decode_msg(body: &[u8]) -> io::Result<Msg> {
    let mut c = Cursor { buf: body, pos: 0 };
    let tag = c.u8()?;
    let seq = c.u64()?;
    let gen = c.u32()?;
    let checksum = c.u64()?;
    let payload = match c.u8()? {
        PV_EMPTY => Payload::Empty,
        PV_F64 => {
            let n = c.count(8)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(f64::from_bits(c.u64()?));
            }
            Payload::F64(v)
        }
        PV_U32 => {
            let n = c.count(4)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(c.u32()?);
            }
            Payload::U32(v)
        }
        PV_ROWS => {
            let ni = c.count(4)?;
            let nd = c.count(8)?;
            let mut idx = Vec::with_capacity(ni);
            for _ in 0..ni {
                idx.push(c.u32()?);
            }
            let mut data = Vec::with_capacity(nd);
            for _ in 0..nd {
                data.push(f64::from_bits(c.u64()?));
            }
            Payload::Rows { idx, data }
        }
        other => return Err(bad_data(&format!("unknown payload variant {other}"))),
    };
    if c.pos != body.len() {
        return Err(bad_data("trailing bytes after DATA body"));
    }
    Ok(Msg {
        tag,
        seq,
        gen,
        checksum,
        payload,
    })
}

/// Encodes a socket path for REGISTER bodies.
pub(crate) fn encode_path(path: &str) -> Vec<u8> {
    let mut b = Vec::with_capacity(2 + path.len());
    b.extend_from_slice(&(path.len() as u16).to_le_bytes());
    b.extend_from_slice(path.as_bytes());
    b
}

/// Encodes the full address book for ADDRBOOK bodies.
pub(crate) fn encode_addrbook(paths: &[String]) -> Vec<u8> {
    let mut b = Vec::new();
    b.extend_from_slice(&(paths.len() as u32).to_le_bytes());
    for p in paths {
        b.extend_from_slice(&encode_path(p));
    }
    b
}

fn decode_path(c: &mut Cursor<'_>) -> io::Result<String> {
    let n = u16::from_le_bytes(c.take(2)?.try_into().unwrap()) as usize;
    String::from_utf8(c.take(n)?.to_vec()).map_err(|_| bad_data("socket path is not UTF-8"))
}

/// Decodes a REGISTER body.
pub(crate) fn decode_register(body: &[u8]) -> io::Result<String> {
    let mut c = Cursor { buf: body, pos: 0 };
    decode_path(&mut c)
}

/// Decodes an ADDRBOOK body.
pub(crate) fn decode_addrbook(body: &[u8]) -> io::Result<Vec<String>> {
    let mut c = Cursor { buf: body, pos: 0 };
    let n = c.u32()? as usize;
    (0..n).map(|_| decode_path(&mut c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_frame(f: &Frame) -> Frame {
        let mut buf = Vec::new();
        write_frame(&mut buf, f).unwrap();
        let mut r = buf.as_slice();
        let out = read_frame(&mut r).unwrap().expect("one frame");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF after");
        out
    }

    #[test]
    fn frame_roundtrips_all_kinds() {
        for f in [
            Frame::control(kind::HEARTBEAT, 3),
            Frame::control(kind::BYE, 0),
            Frame::with_u64(kind::ACK, 1, 42),
            Frame::with_u64(kind::BARRIER_ENTER, 2, 7),
            Frame {
                kind: kind::DATA,
                src: 5,
                link_seq: 99,
                body: vec![1, 2, 3],
            },
        ] {
            assert_eq!(roundtrip_frame(&f), f);
        }
        assert_eq!(Frame::with_u64(kind::ACK, 1, 42).body_u64().unwrap(), 42);
    }

    #[test]
    fn msg_roundtrips_every_payload_variant() {
        for payload in [
            Payload::Empty,
            Payload::F64(vec![1.5, -2.25, f64::MIN_POSITIVE, -0.0]),
            Payload::U32(vec![0, 7, u32::MAX]),
            Payload::Rows {
                idx: vec![3, 9],
                data: vec![0.125, 4.0e300, -1.0],
            },
        ] {
            let msg = Msg {
                tag: 3,
                seq: 17,
                gen: 2,
                checksum: payload.checksum(),
                payload,
            };
            let back = decode_msg(&encode_msg(&msg)).unwrap();
            assert_eq!(back.tag, msg.tag);
            assert_eq!(back.seq, msg.seq);
            assert_eq!(back.gen, msg.gen);
            assert_eq!(back.checksum, msg.checksum);
            assert_eq!(back.payload, msg.payload);
            // Bit-exactness end to end: the checksum still verifies.
            assert_eq!(back.payload.checksum(), back.checksum);
        }
    }

    #[test]
    fn truncated_data_body_is_an_error_not_a_panic() {
        let msg = Msg {
            tag: 1,
            seq: 0,
            gen: 0,
            checksum: 0,
            payload: Payload::F64(vec![1.0, 2.0]),
        };
        let full = encode_msg(&msg);
        for cut in 0..full.len() {
            assert!(decode_msg(&full[..cut]).is_err(), "cut at {cut}");
        }
        // A length-prefix lying about a huge count must be rejected.
        let mut lying = encode_msg(&msg);
        let base = 22; // tag + seq + gen + checksum + variant
        lying[base..base + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_msg(&lying).is_err());
    }

    #[test]
    fn addrbook_roundtrips() {
        let paths = vec!["/tmp/x/rank0.sock".to_string(), "/tmp/x/rank1.sock".into()];
        let book = decode_addrbook(&encode_addrbook(&paths)).unwrap();
        assert_eq!(book, paths);
        let reg = decode_register(&encode_path("/tmp/x/rank7.sock")).unwrap();
        assert_eq!(reg, "/tmp/x/rank7.sock");
    }

    #[test]
    fn lying_max_length_prefix_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAX_FRAME.to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_frame_length_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        assert!(read_frame(&mut buf.as_slice()).is_err());
    }
}
