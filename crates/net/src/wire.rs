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
//! The `decode` tag matches end in a `BadTag` catch-all, so a variant
//! added to a protocol enum without a decode arm *compiles* and only
//! fails against a live peer. detlint rule R8 closes that gap: it
//! cross-checks the variants named by every `encode`/`decode` pair here
//! against the enum definitions, and any drift fails the lint.

use std::sync::Arc;

use now_sim::Pid;

use isis_core::{
    CastData, CastKind, DeliveryFloor, GroupId, GroupView, IsisMsg, MsgId, RelaySet,
    StabilityVector, VClock,
};
use isis_hier::{
    CtlMsg, HierPayload, HierState, LargeGroupId, LbcastId, LbcastStatus, LeaderCmd, TreeMsg,
};
use isis_hier::{HierView, LeafDesc, RoutingSlice};

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

// ------------------------------------------------------------- identifiers --

impl Wire for Pid {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(Pid(r.u32()?))
    }
}

impl Wire for GroupId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(GroupId(r.u64()?))
    }
}

impl Wire for LargeGroupId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(LargeGroupId(r.u32()?))
    }
}

impl Wire for LbcastId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.origin.encode(out);
        self.seq.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(LbcastId {
            origin: Pid::decode(r)?,
            seq: r.u64()?,
        })
    }
}

impl Wire for MsgId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.sender.encode(out);
        self.view.encode(out);
        self.stream.encode(out);
        self.seq.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(MsgId {
            sender: Pid::decode(r)?,
            view: r.u64()?,
            stream: r.u8()?,
            seq: r.u64()?,
        })
    }
}

impl Wire for CastKind {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            CastKind::Fifo => 0,
            CastKind::Causal => 1,
            CastKind::Total => 2,
        });
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(CastKind::Fifo),
            1 => Ok(CastKind::Causal),
            2 => Ok(CastKind::Total),
            t => Err(CodecError::BadTag("cast_kind", u64::from(t))),
        }
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

impl Wire for GroupView {
    fn encode(&self, out: &mut Vec<u8>) {
        self.gid.encode(out);
        self.view_id.encode(out);
        self.members.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(GroupView {
            gid: GroupId::decode(r)?,
            view_id: r.u64()?,
            members: Vec::decode(r)?,
        })
    }
}

// -------------------------------------------------------------- isis-core --

impl Wire for StabilityVector {
    fn encode(&self, out: &mut Vec<u8>) {
        self.view.encode(out);
        self.cvt.encode(out);
        self.fvt.encode(out);
        self.adel.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(StabilityVector {
            view: r.u64()?,
            cvt: VClock::decode(r)?,
            fvt: VClock::decode(r)?,
            adel: r.u64()?,
        })
    }
}

impl<P: Wire> Wire for CastData<P> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.gid.encode(out);
        self.view.encode(out);
        self.kind.encode(out);
        self.id.encode(out);
        self.vt.encode(out);
        self.stab.encode(out);
        self.want_ack.encode(out);
        self.payload.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(CastData {
            gid: GroupId::decode(r)?,
            view: r.u64()?,
            kind: CastKind::decode(r)?,
            id: MsgId::decode(r)?,
            vt: VClock::decode(r)?,
            stab: StabilityVector::decode(r)?,
            want_ack: bool::decode(r)?,
            payload: P::decode(r)?,
        })
    }
}

impl<P: Wire> Wire for RelaySet<P> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.causal.encode(out);
        self.fifo.encode(out);
        self.total_ordered.encode(out);
        self.total_unordered.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(RelaySet {
            causal: Vec::decode(r)?,
            fifo: Vec::decode(r)?,
            total_ordered: Vec::decode(r)?,
            total_unordered: Vec::decode(r)?,
        })
    }
}

impl Wire for DeliveryFloor {
    fn encode(&self, out: &mut Vec<u8>) {
        self.cvt.encode(out);
        self.fdel.encode(out);
        self.adel.encode(out);
        self.delivered.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(DeliveryFloor {
            cvt: VClock::decode(r)?,
            fdel: VClock::decode(r)?,
            adel: r.u64()?,
            delivered: Vec::decode(r)?,
        })
    }
}

impl<P: Wire, S: Wire> Wire for IsisMsg<P, S> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            IsisMsg::JoinReq { gid } => {
                out.push(0);
                gid.encode(out);
            }
            IsisMsg::JoinForward { gid, joiner } => {
                out.push(1);
                gid.encode(out);
                joiner.encode(out);
            }
            IsisMsg::JoinDenied { gid } => {
                out.push(2);
                gid.encode(out);
            }
            IsisMsg::LeaveReq { gid } => {
                out.push(3);
                gid.encode(out);
            }
            IsisMsg::SuspectReport { gid, suspect } => {
                out.push(4);
                gid.encode(out);
                suspect.encode(out);
            }
            IsisMsg::Flush {
                gid,
                attempt,
                proposal,
            } => {
                out.push(5);
                gid.encode(out);
                attempt.encode(out);
                proposal.encode(out);
            }
            IsisMsg::FlushAck {
                gid,
                attempt,
                member_view,
                stab,
                buffers,
            } => {
                out.push(6);
                gid.encode(out);
                attempt.encode(out);
                member_view.encode(out);
                stab.encode(out);
                buffers.encode(out);
            }
            IsisMsg::InstallView {
                gid,
                attempt,
                view,
                relay,
                state,
                floor,
            } => {
                out.push(7);
                gid.encode(out);
                attempt.encode(out);
                view.encode(out);
                relay.encode(out);
                state.encode(out);
                floor.encode(out);
            }
            IsisMsg::Cast(c) => {
                out.push(8);
                c.encode(out);
            }
            IsisMsg::AbcastOrder {
                gid,
                view,
                gseq,
                id,
            } => {
                out.push(9);
                gid.encode(out);
                view.encode(out);
                gseq.encode(out);
                id.encode(out);
            }
            IsisMsg::CastAck { gid, id } => {
                out.push(10);
                gid.encode(out);
                id.encode(out);
            }
            IsisMsg::Heartbeat { gid, stab } => {
                out.push(11);
                gid.encode(out);
                stab.encode(out);
            }
            IsisMsg::Direct(p) => {
                out.push(12);
                p.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(match r.u8()? {
            0 => IsisMsg::JoinReq {
                gid: GroupId::decode(r)?,
            },
            1 => IsisMsg::JoinForward {
                gid: GroupId::decode(r)?,
                joiner: Pid::decode(r)?,
            },
            2 => IsisMsg::JoinDenied {
                gid: GroupId::decode(r)?,
            },
            3 => IsisMsg::LeaveReq {
                gid: GroupId::decode(r)?,
            },
            4 => IsisMsg::SuspectReport {
                gid: GroupId::decode(r)?,
                suspect: Pid::decode(r)?,
            },
            5 => IsisMsg::Flush {
                gid: GroupId::decode(r)?,
                attempt: r.u64()?,
                proposal: GroupView::decode(r)?,
            },
            6 => IsisMsg::FlushAck {
                gid: GroupId::decode(r)?,
                attempt: r.u64()?,
                member_view: r.u64()?,
                stab: StabilityVector::decode(r)?,
                buffers: RelaySet::decode(r)?,
            },
            7 => IsisMsg::InstallView {
                gid: GroupId::decode(r)?,
                attempt: r.u64()?,
                view: GroupView::decode(r)?,
                relay: RelaySet::decode(r)?,
                state: Option::decode(r)?,
                floor: Option::decode(r)?,
            },
            8 => IsisMsg::Cast(CastData::decode(r)?),
            9 => IsisMsg::AbcastOrder {
                gid: GroupId::decode(r)?,
                view: r.u64()?,
                gseq: r.u64()?,
                id: MsgId::decode(r)?,
            },
            10 => IsisMsg::CastAck {
                gid: GroupId::decode(r)?,
                id: MsgId::decode(r)?,
            },
            11 => IsisMsg::Heartbeat {
                gid: GroupId::decode(r)?,
                stab: StabilityVector::decode(r)?,
            },
            12 => IsisMsg::Direct(P::decode(r)?),
            t => return Err(CodecError::BadTag("isis_msg", u64::from(t))),
        })
    }
}

// -------------------------------------------------------------- isis-hier --

impl Wire for LbcastStatus {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            LbcastStatus::Resilient => 0,
            LbcastStatus::Complete => 1,
        });
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(LbcastStatus::Resilient),
            1 => Ok(LbcastStatus::Complete),
            t => Err(CodecError::BadTag("lbcast_status", u64::from(t))),
        }
    }
}

impl Wire for LeafDesc {
    fn encode(&self, out: &mut Vec<u8>) {
        self.gid.encode(out);
        self.contacts.encode(out);
        self.size.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(LeafDesc {
            gid: GroupId::decode(r)?,
            contacts: Vec::decode(r)?,
            size: usize::decode(r)?,
        })
    }
}

impl Wire for HierView {
    fn encode(&self, out: &mut Vec<u8>) {
        self.lgid.encode(out);
        self.epoch.encode(out);
        self.fanout.encode(out);
        self.resiliency.encode(out);
        self.leaves.encode(out);
        self.leader_contacts.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(HierView {
            lgid: LargeGroupId::decode(r)?,
            epoch: r.u64()?,
            fanout: usize::decode(r)?,
            resiliency: usize::decode(r)?,
            leaves: Vec::decode(r)?,
            leader_contacts: Vec::decode(r)?,
        })
    }
}

impl Wire for RoutingSlice {
    fn encode(&self, out: &mut Vec<u8>) {
        self.lgid.encode(out);
        self.epoch.encode(out);
        self.my_index.encode(out);
        self.num_leaves.encode(out);
        self.resiliency.encode(out);
        self.fanout.encode(out);
        self.my_gid.encode(out);
        self.parent.encode(out);
        self.children.encode(out);
        self.leader_contacts.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(RoutingSlice {
            lgid: LargeGroupId::decode(r)?,
            epoch: r.u64()?,
            my_index: usize::decode(r)?,
            num_leaves: usize::decode(r)?,
            resiliency: usize::decode(r)?,
            fanout: usize::decode(r)?,
            my_gid: GroupId::decode(r)?,
            parent: Option::decode(r)?,
            children: Vec::decode(r)?,
            leader_contacts: Vec::decode(r)?,
        })
    }
}

impl<Q: Wire> Wire for TreeMsg<Q> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            TreeMsg::Submit { lgid, id, payload } => {
                out.push(0);
                lgid.encode(out);
                id.encode(out);
                payload.encode(out);
            }
            TreeMsg::Forward {
                lgid,
                epoch,
                lseq,
                id,
                payload,
            } => {
                out.push(1);
                lgid.encode(out);
                epoch.encode(out);
                lseq.encode(out);
                id.encode(out);
                payload.encode(out);
            }
            TreeMsg::LeafDeliver {
                lgid,
                epoch,
                lseq,
                id,
                ack_to,
                payload,
            } => {
                out.push(2);
                lgid.encode(out);
                epoch.encode(out);
                lseq.encode(out);
                id.encode(out);
                ack_to.encode(out);
                payload.encode(out);
            }
            TreeMsg::MemberAck { lgid, lseq } => {
                out.push(3);
                lgid.encode(out);
                lseq.encode(out);
            }
            TreeMsg::SubtreeAck {
                lgid,
                epoch,
                lseq,
                leaf,
            } => {
                out.push(4);
                lgid.encode(out);
                epoch.encode(out);
                lseq.encode(out);
                leaf.encode(out);
            }
            TreeMsg::OriginAck { lgid, id, status } => {
                out.push(5);
                lgid.encode(out);
                id.encode(out);
                status.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(match r.u8()? {
            0 => TreeMsg::Submit {
                lgid: LargeGroupId::decode(r)?,
                id: LbcastId::decode(r)?,
                payload: Q::decode(r)?,
            },
            1 => TreeMsg::Forward {
                lgid: LargeGroupId::decode(r)?,
                epoch: r.u64()?,
                lseq: r.u64()?,
                id: LbcastId::decode(r)?,
                payload: Q::decode(r)?,
            },
            2 => TreeMsg::LeafDeliver {
                lgid: LargeGroupId::decode(r)?,
                epoch: r.u64()?,
                lseq: r.u64()?,
                id: LbcastId::decode(r)?,
                ack_to: Option::decode(r)?,
                payload: Q::decode(r)?,
            },
            3 => TreeMsg::MemberAck {
                lgid: LargeGroupId::decode(r)?,
                lseq: r.u64()?,
            },
            4 => TreeMsg::SubtreeAck {
                lgid: LargeGroupId::decode(r)?,
                epoch: r.u64()?,
                lseq: r.u64()?,
                leaf: GroupId::decode(r)?,
            },
            5 => TreeMsg::OriginAck {
                lgid: LargeGroupId::decode(r)?,
                id: LbcastId::decode(r)?,
                status: LbcastStatus::decode(r)?,
            },
            t => return Err(CodecError::BadTag("tree_msg", u64::from(t))),
        })
    }
}

impl Wire for CtlMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            CtlMsg::JoinLargeReq { lgid } => {
                out.push(0);
                lgid.encode(out);
            }
            CtlMsg::JoinAssign {
                lgid,
                leaf,
                contacts,
            } => {
                out.push(1);
                lgid.encode(out);
                leaf.encode(out);
                contacts.encode(out);
            }
            CtlMsg::JoinCreateLeaf { lgid, leaf } => {
                out.push(2);
                lgid.encode(out);
                leaf.encode(out);
            }
            CtlMsg::JoinLargeDenied { lgid } => {
                out.push(3);
                lgid.encode(out);
            }
            CtlMsg::ContactsUpdate {
                lgid,
                leaf,
                contacts,
                size,
            } => {
                out.push(4);
                lgid.encode(out);
                leaf.encode(out);
                contacts.encode(out);
                size.encode(out);
            }
            CtlMsg::LeafDeadReport { lgid, leaf } => {
                out.push(5);
                lgid.encode(out);
                leaf.encode(out);
            }
            CtlMsg::HierPush { view } => {
                out.push(6);
                view.encode(out);
            }
            CtlMsg::SplitLeaf {
                lgid,
                leaf,
                new_leaf,
            } => {
                out.push(7);
                lgid.encode(out);
                leaf.encode(out);
                new_leaf.encode(out);
            }
            CtlMsg::DoSplit {
                lgid,
                new_leaf,
                movers,
                leader_contacts,
            } => {
                out.push(8);
                lgid.encode(out);
                new_leaf.encode(out);
                movers.encode(out);
                leader_contacts.encode(out);
            }
            CtlMsg::DissolveLeaf {
                lgid,
                leaf,
                target,
                target_contacts,
            } => {
                out.push(9);
                lgid.encode(out);
                leaf.encode(out);
                target.encode(out);
                target_contacts.encode(out);
            }
            CtlMsg::DoDissolve {
                lgid,
                target,
                target_contacts,
                leader_contacts,
            } => {
                out.push(10);
                lgid.encode(out);
                target.encode(out);
                target_contacts.encode(out);
                leader_contacts.encode(out);
            }
            CtlMsg::LeafBeacon {
                lgid,
                leaf,
                epoch,
                contacts,
            } => {
                out.push(11);
                lgid.encode(out);
                leaf.encode(out);
                epoch.encode(out);
                contacts.encode(out);
            }
            CtlMsg::SlicePush { slice } => {
                out.push(12);
                slice.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(match r.u8()? {
            0 => CtlMsg::JoinLargeReq {
                lgid: LargeGroupId::decode(r)?,
            },
            1 => CtlMsg::JoinAssign {
                lgid: LargeGroupId::decode(r)?,
                leaf: GroupId::decode(r)?,
                contacts: Vec::decode(r)?,
            },
            2 => CtlMsg::JoinCreateLeaf {
                lgid: LargeGroupId::decode(r)?,
                leaf: GroupId::decode(r)?,
            },
            3 => CtlMsg::JoinLargeDenied {
                lgid: LargeGroupId::decode(r)?,
            },
            4 => CtlMsg::ContactsUpdate {
                lgid: LargeGroupId::decode(r)?,
                leaf: GroupId::decode(r)?,
                contacts: Vec::decode(r)?,
                size: usize::decode(r)?,
            },
            5 => CtlMsg::LeafDeadReport {
                lgid: LargeGroupId::decode(r)?,
                leaf: GroupId::decode(r)?,
            },
            6 => CtlMsg::HierPush {
                view: Arc::new(HierView::decode(r)?),
            },
            7 => CtlMsg::SplitLeaf {
                lgid: LargeGroupId::decode(r)?,
                leaf: GroupId::decode(r)?,
                new_leaf: GroupId::decode(r)?,
            },
            8 => CtlMsg::DoSplit {
                lgid: LargeGroupId::decode(r)?,
                new_leaf: GroupId::decode(r)?,
                movers: Vec::decode(r)?,
                leader_contacts: Vec::decode(r)?,
            },
            9 => CtlMsg::DissolveLeaf {
                lgid: LargeGroupId::decode(r)?,
                leaf: GroupId::decode(r)?,
                target: GroupId::decode(r)?,
                target_contacts: Vec::decode(r)?,
            },
            10 => CtlMsg::DoDissolve {
                lgid: LargeGroupId::decode(r)?,
                target: GroupId::decode(r)?,
                target_contacts: Vec::decode(r)?,
                leader_contacts: Vec::decode(r)?,
            },
            11 => CtlMsg::LeafBeacon {
                lgid: LargeGroupId::decode(r)?,
                leaf: GroupId::decode(r)?,
                epoch: r.u64()?,
                contacts: Vec::decode(r)?,
            },
            12 => CtlMsg::SlicePush {
                slice: Box::new(RoutingSlice::decode(r)?),
            },
            t => return Err(CodecError::BadTag("ctl_msg", u64::from(t))),
        })
    }
}

impl Wire for LeaderCmd {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            LeaderCmd::Assign { lgid, joiner } => {
                out.push(0);
                lgid.encode(out);
                joiner.encode(out);
            }
            LeaderCmd::MintLeaf { lgid, founder } => {
                out.push(1);
                lgid.encode(out);
                founder.encode(out);
            }
            LeaderCmd::Contacts {
                lgid,
                leaf,
                contacts,
                size,
            } => {
                out.push(2);
                lgid.encode(out);
                leaf.encode(out);
                contacts.encode(out);
                size.encode(out);
            }
            LeaderCmd::LeafDead { lgid, leaf } => {
                out.push(3);
                lgid.encode(out);
                leaf.encode(out);
            }
            LeaderCmd::Split { lgid, leaf } => {
                out.push(4);
                lgid.encode(out);
                leaf.encode(out);
            }
            LeaderCmd::Dissolve { lgid, leaf, target } => {
                out.push(5);
                lgid.encode(out);
                leaf.encode(out);
                target.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(match r.u8()? {
            0 => LeaderCmd::Assign {
                lgid: LargeGroupId::decode(r)?,
                joiner: Pid::decode(r)?,
            },
            1 => LeaderCmd::MintLeaf {
                lgid: LargeGroupId::decode(r)?,
                founder: Pid::decode(r)?,
            },
            2 => LeaderCmd::Contacts {
                lgid: LargeGroupId::decode(r)?,
                leaf: GroupId::decode(r)?,
                contacts: Vec::decode(r)?,
                size: usize::decode(r)?,
            },
            3 => LeaderCmd::LeafDead {
                lgid: LargeGroupId::decode(r)?,
                leaf: GroupId::decode(r)?,
            },
            4 => LeaderCmd::Split {
                lgid: LargeGroupId::decode(r)?,
                leaf: GroupId::decode(r)?,
            },
            5 => LeaderCmd::Dissolve {
                lgid: LargeGroupId::decode(r)?,
                leaf: GroupId::decode(r)?,
                target: GroupId::decode(r)?,
            },
            t => return Err(CodecError::BadTag("leader_cmd", u64::from(t))),
        })
    }
}

impl<Q: Wire> Wire for HierPayload<Q> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            HierPayload::Biz(q) => {
                out.push(0);
                q.encode(out);
            }
            HierPayload::Tree(t) => {
                out.push(1);
                t.encode(out);
            }
            HierPayload::Ctl(c) => {
                out.push(2);
                c.encode(out);
            }
            HierPayload::Cmd(c) => {
                out.push(3);
                c.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(match r.u8()? {
            0 => HierPayload::Biz(Q::decode(r)?),
            1 => HierPayload::Tree(TreeMsg::decode(r)?),
            2 => HierPayload::Ctl(CtlMsg::decode(r)?),
            3 => HierPayload::Cmd(LeaderCmd::decode(r)?),
            t => return Err(CodecError::BadTag("hier_payload", u64::from(t))),
        })
    }
}

impl<S: Wire> Wire for HierState<S> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            HierState::None => out.push(0),
            HierState::Leaf(s) => {
                out.push(1);
                s.encode(out);
            }
            HierState::Leader {
                view,
                next_slot,
                resiliency,
                min_leaf,
                max_leaf,
            } => {
                out.push(2);
                view.encode(out);
                next_slot.encode(out);
                resiliency.encode(out);
                min_leaf.encode(out);
                max_leaf.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(match r.u8()? {
            0 => HierState::None,
            1 => HierState::Leaf(S::decode(r)?),
            2 => HierState::Leader {
                view: HierView::decode(r)?,
                next_slot: r.u32()?,
                resiliency: usize::decode(r)?,
                min_leaf: usize::decode(r)?,
                max_leaf: usize::decode(r)?,
            },
            t => return Err(CodecError::BadTag("hier_state", u64::from(t))),
        })
    }
}
