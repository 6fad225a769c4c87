//! Binary payload encoding for the protocol stack's message types.
//!
//! The simulator never serialises anything — messages move between
//! processes as cloned Rust values. The real backend needs bytes, so this
//! module defines a small [`Wire`] trait (little-endian, length-prefixed
//! collections, one tag byte per enum variant) and implements it for the
//! whole `IsisMsg`/`HierPayload` stack. The trait is local, so the orphan
//! rule lets us cover the upstream types directly.
//!
//! Decoding never panics: every claim in the input (lengths, tags,
//! sequence counts) is validated against the remaining bytes and yields
//! [`CodecError`] on mismatch — socket input is untrusted.
//!
//! Each protocol layout is declared once, as a `wire_struct!` or
//! `wire_enum!` line listing its tags and fields in wire order, and both
//! `encode` and `decode` are generated from that one list. The generated
//! `encode` destructures every value with no `..` and matches with no
//! wildcard; the generated `decode` builds every value with a full struct
//! literal and denies unreachable tag arms. So the compiler rejects a
//! variant or field missing from a declaration, a declared variant the
//! type no longer has, and a tag used twice. What it cannot see — a
//! renumbered tag or two fields swapped in a declaration — changes the
//! bytes, and the `wire_format_is_frozen` test in `tests/codec_prop.rs`
//! pins them. Only the primitives, the containers and [`VClock`] (encoded
//! as its entry list) are written out by hand.

use std::sync::Arc;

use now_sim::Pid;

use isis_core::{
    CastData, CastKind, DeliveryFloor, GroupId, GroupView, IsisMsg, MsgId, RelaySet,
    StabilityVector, VClock,
};
use isis_hier::{
    CtlMsg, HierPayload, HierState, HierView, LargeGroupId, LbcastId, LbcastStatus, LeafDesc,
    LeaderCmd, RoutingSlice, TreeMsg,
};

use crate::codec::CodecError;

/// Cursor over a received payload.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Wraps a payload slice.
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a collection length and sanity-checks it against the bytes
    /// actually available (every element costs at least one byte), so a
    /// corrupt length cannot trigger a huge allocation.
    fn len(&mut self) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }

    /// Fails unless the payload was consumed exactly.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

/// Symmetric binary encoding. Implementations must satisfy
/// `decode(encode(x)) == x` (the codec property tests check this for the
/// full message stack).
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one value from the reader.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError>;
}

/// Encodes a message into a fresh byte vector.
pub fn encode_msg<M: Wire>(msg: &M) -> Vec<u8> {
    let mut out = Vec::new();
    msg.encode(&mut out);
    out
}

/// Decodes a message, requiring the buffer to be consumed exactly.
pub fn decode_msg<M: Wire>(buf: &[u8]) -> Result<M, CodecError> {
    let mut r = WireReader::new(buf);
    let m = M::decode(&mut r)?;
    r.finish()?;
    Ok(m)
}

// ------------------------------------------------------------ primitives --

impl Wire for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        r.u8()
    }
}

impl Wire for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        r.u32()
    }
}

impl Wire for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        r.u64()
    }
}

impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        let v = r.u64()?;
        usize::try_from(v).map_err(|_| CodecError::BadTag("usize", v))
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(CodecError::BadTag("bool", u64::from(t))),
        }
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        let n = r.len()?;
        let bytes = r.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            t => Err(CodecError::BadTag("option", u64::from(t))),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        for v in self {
            v.encode(out);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        let n = r.len()?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

impl<T: Wire> Wire for Box<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        T::decode(r).map(Box::new)
    }
}

impl<T: Wire> Wire for Arc<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        T::decode(r).map(Arc::new)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl Wire for VClock {
    fn encode(&self, out: &mut Vec<u8>) {
        let entries: Vec<(Pid, u64)> = self.iter().collect();
        entries.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        let entries = Vec::<(Pid, u64)>::decode(r)?;
        let mut vc = VClock::default();
        for (p, v) in entries {
            vc.set(p, v);
        }
        Ok(vc)
    }
}

// --------------------------------------------------------------- layouts --

/// Declares a struct's layout: its fields, in wire order. The tuple form
/// `wire_struct!(Pid(p))` covers a one-field tuple struct.
macro_rules! wire_struct {
    ($ty:ident $(<$($g:ident),+>)? { $($field:ident),+ $(,)? }) => {
        impl$(<$($g: Wire),+>)? Wire for $ty$(<$($g),+>)? {
            fn encode(&self, out: &mut Vec<u8>) {
                let $ty { $($field),+ } = self;
                $($field.encode(out);)+
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
                Ok($ty { $($field: Wire::decode(r)?),+ })
            }
        }
    };
    ($ty:ident($field:ident)) => {
        impl Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                let $ty($field) = self;
                $field.encode(out);
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
                Ok($ty(Wire::decode(r)?))
            }
        }
    };
}

/// Declares an enum's layout: one tag byte per variant, then the
/// variant's fields in wire order. A variant is a unit (`Fifo`), a struct
/// (`JoinReq { gid }`) or a one-field tuple (`Cast(c)`); `$name` labels
/// the `BadTag` error for an unknown tag.
macro_rules! wire_enum {
    ($name:literal, $ty:ident $(<$($g:ident),+>)? {
        $($tag:literal => $var:ident $({ $($field:ident),* $(,)? })? $(($inner:ident))?),+ $(,)?
    }) => {
        impl$(<$($g: Wire),+>)? Wire for $ty$(<$($g),+>)? {
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $(Self::$var $({ $($field),* })? $(($inner))? => {
                        out.push($tag);
                        $($($field.encode(out);)*)?
                        $($inner.encode(out);)?
                    })+
                }
            }
            #[deny(unreachable_patterns)]
            fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
                Ok(match r.u8()? {
                    $($tag => Self::$var
                        $({ $($field: Wire::decode(r)?),* })?
                        $(({
                            // Naming `$inner` is what selects the tuple form.
                            let $inner = Wire::decode(r)?;
                            $inner
                        }))?,)+
                    t => return Err(CodecError::BadTag($name, u64::from(t))),
                })
            }
        }
    };
}

// ------------------------------------------------------------- identifiers --

wire_struct!(Pid(p));
wire_struct!(GroupId(g));
wire_struct!(LargeGroupId(g));
wire_struct!(LbcastId { origin, seq });
wire_struct!(MsgId { sender, view, stream, seq });
wire_struct!(GroupView { gid, view_id, members });

// -------------------------------------------------------------- isis-core --

wire_enum!("cast_kind", CastKind { 0 => Fifo, 1 => Causal, 2 => Total });
wire_struct!(StabilityVector { view, cvt, fvt, adel });
wire_struct!(CastData<P> { gid, view, kind, id, vt, stab, want_ack, payload });
wire_struct!(RelaySet<P> { causal, fifo, total_ordered, total_unordered });
wire_struct!(DeliveryFloor { cvt, fdel, adel, delivered });

wire_enum!("isis_msg", IsisMsg<P, S> {
    0 => JoinReq { gid },
    1 => JoinForward { gid, joiner },
    2 => JoinDenied { gid },
    3 => LeaveReq { gid },
    4 => SuspectReport { gid, suspect },
    5 => Flush { gid, attempt, proposal },
    6 => FlushAck { gid, attempt, member_view, stab, buffers },
    7 => InstallView { gid, attempt, view, relay, state, floor },
    8 => Cast(c),
    9 => AbcastOrder { gid, view, gseq, id },
    10 => CastAck { gid, id },
    11 => Heartbeat { gid, stab },
    12 => Direct(p),
});

// -------------------------------------------------------------- isis-hier --

wire_enum!("lbcast_status", LbcastStatus { 0 => Resilient, 1 => Complete });
wire_struct!(LeafDesc { gid, contacts, size });
wire_struct!(HierView { lgid, epoch, fanout, resiliency, leaves, leader_contacts });
wire_struct!(RoutingSlice {
    lgid,
    my_index,
    resiliency,
    my_gid,
    parent,
    children,
    leader_contacts,
});

wire_enum!("tree_msg", TreeMsg<Q> {
    0 => Submit { lgid, id, payload },
    1 => Forward { lgid, lseq, id, payload },
    2 => LeafDeliver { lgid, lseq, id, ack_to, payload },
    3 => MemberAck { lgid, lseq },
    4 => SubtreeAck { lgid, lseq, leaf },
    5 => OriginAck { lgid, id, status },
});

wire_enum!("ctl_msg", CtlMsg {
    0 => JoinLargeReq { lgid },
    1 => JoinAssign { lgid, leaf, contacts },
    2 => JoinCreateLeaf { lgid, leaf },
    3 => JoinLargeDenied { lgid },
    4 => ContactsUpdate { lgid, leaf, contacts, size },
    5 => LeafDeadReport { lgid, leaf },
    6 => HierPush { view },
    7 => SplitLeaf { lgid, leaf, new_leaf },
    8 => DoSplit { lgid, new_leaf, movers, leader_contacts },
    9 => DissolveLeaf { lgid, leaf, target, target_contacts },
    10 => DoDissolve { lgid, target, target_contacts, leader_contacts },
    11 => LeafBeacon { lgid, leaf, contacts },
    12 => SlicePush { slice },
});

wire_enum!("leader_cmd", LeaderCmd {
    0 => Assign { lgid, joiner },
    1 => MintLeaf { lgid, founder },
    2 => Contacts { lgid, leaf, contacts, size },
    3 => LeafDead { lgid, leaf },
    4 => Split { lgid, leaf },
    5 => Dissolve { lgid, leaf, target },
});

wire_enum!("hier_payload", HierPayload<Q> { 0 => Biz(q), 1 => Tree(t), 2 => Ctl(c), 3 => Cmd(c) });

wire_enum!("hier_state", HierState<S> {
    0 => None,
    1 => Leaf(s),
    2 => Leader { view, next_slot, min_leaf, max_leaf },
});
