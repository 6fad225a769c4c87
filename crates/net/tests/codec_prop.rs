//! Codec hardening: deterministic property tests for the frame layer and
//! the `Wire` payload encoding of the full cluster message type.
//!
//! The roundtrip property is stated over bytes — `encode(decode(bytes)) ==
//! bytes` for freshly encoded values — because the protocol enums do not
//! implement `PartialEq`; byte equality under a deterministic encoder is
//! the same statement. The rejection properties feed truncations, bit
//! flips, and raw garbage through both layers and require an error (or a
//! clean "need more bytes"), never a panic or an oversized allocation.

use std::sync::Arc;

use now_sim::detprop::collection::vec as pvec;
use now_sim::detprop::prelude::*;
use now_sim::{prop_oneof, proptest};
use now_sim::{DetRng, Pid};

use isis_core::{
    CastData, CastKind, DeliveryFloor, GroupId, GroupView, IsisMsg, MsgId, RelaySet,
    StabilityVector, VClock,
};
use isis_hier::{
    CtlMsg, HierPayload, HierState, HierView, LargeGroupId, LbcastId, LbcastStatus, LeafDesc,
    LeaderCmd, RoutingSlice, TreeMsg,
};

use now_net::codec::{decode_frame, encode_frame, CodecError, Frame, MAX_FRAME_BODY};
use now_net::wire::{decode_msg, encode_msg};

/// The message type the real cluster ships: the whole stack.
type ClusterMsg = IsisMsg<HierPayload<String>, HierState<Vec<String>>>;

// ---------------------------------------------------------- strategies --

fn pid() -> impl Strategy<Value = Pid> + Clone {
    any::<u32>().prop_map(Pid)
}

fn short_string() -> impl Strategy<Value = String> + Clone {
    pvec(any::<u8>(), 0..12)
        .prop_map(|b| b.into_iter().map(|c| char::from(b'a' + (c % 26))).collect())
}

fn vclock() -> impl Strategy<Value = VClock> + Clone {
    pvec((pid(), any::<u64>()), 0..4).prop_map(|entries| {
        let mut vc = VClock::default();
        for (p, v) in entries {
            vc.set(p, v);
        }
        vc
    })
}

fn msg_id() -> impl Strategy<Value = MsgId> + Clone {
    (pid(), any::<u64>(), any::<u8>(), any::<u64>()).prop_map(|(sender, view, stream, seq)| {
        MsgId {
            sender,
            view,
            stream,
            seq,
        }
    })
}

fn cast_kind() -> impl Strategy<Value = CastKind> + Clone {
    prop_oneof![
        Just(CastKind::Fifo),
        Just(CastKind::Causal),
        Just(CastKind::Total),
    ]
}

fn delivery_floor() -> impl Strategy<Value = DeliveryFloor> + Clone {
    (vclock(), vclock(), any::<u64>(), prop::collection::vec(msg_id(), 0..4)).prop_map(
        |(cvt, fdel, adel, delivered)| DeliveryFloor {
            cvt,
            fdel,
            adel,
            delivered,
        },
    )
}

fn stab() -> impl Strategy<Value = StabilityVector> + Clone {
    (any::<u64>(), vclock(), vclock(), any::<u64>()).prop_map(|(view, cvt, fvt, adel)| {
        StabilityVector {
            view,
            cvt,
            fvt,
            adel,
        }
    })
}

fn group_view() -> impl Strategy<Value = GroupView> + Clone {
    (any::<u64>(), any::<u64>(), pvec(pid(), 0..6)).prop_map(|(gid, view_id, members)| GroupView {
        gid: GroupId(gid),
        view_id,
        members,
    })
}

fn lbcast_id() -> impl Strategy<Value = LbcastId> + Clone {
    (pid(), any::<u64>()).prop_map(|(origin, seq)| LbcastId { origin, seq })
}

fn leaf_desc() -> impl Strategy<Value = LeafDesc> + Clone {
    (any::<u64>(), pvec(pid(), 0..4), any::<u16>()).prop_map(|(gid, contacts, size)| LeafDesc {
        gid: GroupId(gid),
        contacts,
        size: size as usize,
    })
}

fn hier_view() -> impl Strategy<Value = HierView> + Clone {
    (
        (any::<u32>(), any::<u64>()),
        (0usize..8, 0usize..5),
        pvec(leaf_desc(), 0..4),
        pvec(pid(), 0..3),
    )
        .prop_map(
            |((lgid, epoch), (fanout, resiliency), leaves, leader_contacts)| HierView {
                lgid: LargeGroupId(lgid),
                epoch,
                fanout,
                resiliency,
                leaves,
                leader_contacts,
            },
        )
}

fn routing_slice() -> impl Strategy<Value = RoutingSlice> + Clone {
    (
        (any::<u32>(), 0usize..64, 0usize..5, any::<u64>()),
        (prop_oneof![Just(None), leaf_desc().prop_map(Some)], pvec(leaf_desc(), 0..4)),
        pvec(pid(), 0..3),
    )
        .prop_map(
            |((lgid, my_index, resiliency, my_gid), (parent, children), leader_contacts)| {
                RoutingSlice {
                    lgid: LargeGroupId(lgid),
                    my_index,
                    resiliency,
                    my_gid: GroupId(my_gid),
                    parent,
                    children,
                    leader_contacts,
                }
            },
        )
}

fn tree_msg() -> impl Strategy<Value = TreeMsg<String>> + Clone {
    let lgid = || any::<u32>().prop_map(LargeGroupId);
    prop_oneof![
        (lgid(), lbcast_id(), short_string())
            .prop_map(|(lgid, id, payload)| TreeMsg::Submit { lgid, id, payload }),
        (lgid(), any::<u64>(), lbcast_id(), short_string()).prop_map(
            |(lgid, lseq, id, payload)| TreeMsg::Forward {
                lgid,
                lseq,
                id,
                payload
            }
        ),
        (
            (lgid(), any::<u64>()),
            lbcast_id(),
            prop_oneof![Just(None), pid().prop_map(Some)],
            short_string()
        )
            .prop_map(|((lgid, lseq), id, ack_to, payload)| TreeMsg::LeafDeliver {
                lgid,
                lseq,
                id,
                ack_to,
                payload
            }),
        (lgid(), any::<u64>()).prop_map(|(lgid, lseq)| TreeMsg::MemberAck { lgid, lseq }),
        (lgid(), any::<u64>(), any::<u64>()).prop_map(|(lgid, lseq, leaf)| {
            TreeMsg::SubtreeAck {
                lgid,
                lseq,
                leaf: GroupId(leaf),
            }
        }),
        (
            lgid(),
            lbcast_id(),
            prop_oneof![Just(LbcastStatus::Resilient), Just(LbcastStatus::Complete)]
        )
            .prop_map(|(lgid, id, status)| TreeMsg::OriginAck { lgid, id, status }),
    ]
}

fn ctl_msg() -> impl Strategy<Value = CtlMsg> + Clone {
    let lgid = || any::<u32>().prop_map(LargeGroupId);
    let gid = || any::<u64>().prop_map(GroupId);
    prop_oneof![
        lgid().prop_map(|lgid| CtlMsg::JoinLargeReq { lgid }),
        (lgid(), gid(), pvec(pid(), 0..4)).prop_map(|(lgid, leaf, contacts)| CtlMsg::JoinAssign {
            lgid,
            leaf,
            contacts
        }),
        (lgid(), gid()).prop_map(|(lgid, leaf)| CtlMsg::JoinCreateLeaf { lgid, leaf }),
        lgid().prop_map(|lgid| CtlMsg::JoinLargeDenied { lgid }),
        (lgid(), gid(), pvec(pid(), 0..4), 0usize..9).prop_map(
            |(lgid, leaf, contacts, size)| CtlMsg::ContactsUpdate {
                lgid,
                leaf,
                contacts,
                size
            }
        ),
        (lgid(), gid()).prop_map(|(lgid, leaf)| CtlMsg::LeafDeadReport { lgid, leaf }),
        hier_view().prop_map(|view| CtlMsg::HierPush { view: Arc::new(view) }),
        (lgid(), gid(), gid()).prop_map(|(lgid, leaf, new_leaf)| CtlMsg::SplitLeaf {
            lgid,
            leaf,
            new_leaf
        }),
        routing_slice().prop_map(|slice| CtlMsg::SlicePush { slice: Box::new(slice) }),
        (lgid(), gid(), pvec(pid(), 0..4), pvec(pid(), 0..3)).prop_map(
            |(lgid, new_leaf, movers, leader_contacts)| CtlMsg::DoSplit {
                lgid,
                new_leaf,
                movers,
                leader_contacts
            }
        ),
        (lgid(), gid(), gid(), pvec(pid(), 0..4)).prop_map(
            |(lgid, leaf, target, target_contacts)| CtlMsg::DissolveLeaf {
                lgid,
                leaf,
                target,
                target_contacts
            }
        ),
        (lgid(), gid(), pvec(pid(), 0..4), pvec(pid(), 0..3)).prop_map(
            |(lgid, target, target_contacts, leader_contacts)| CtlMsg::DoDissolve {
                lgid,
                target,
                target_contacts,
                leader_contacts
            }
        ),
        (lgid(), gid(), pvec(pid(), 0..4)).prop_map(|(lgid, leaf, contacts)| {
            CtlMsg::LeafBeacon {
                lgid,
                leaf,
                contacts,
            }
        }),
    ]
}

fn leader_cmd() -> impl Strategy<Value = LeaderCmd> + Clone {
    let lgid = || any::<u32>().prop_map(LargeGroupId);
    let gid = || any::<u64>().prop_map(GroupId);
    prop_oneof![
        (lgid(), pid()).prop_map(|(lgid, joiner)| LeaderCmd::Assign { lgid, joiner }),
        (lgid(), pid()).prop_map(|(lgid, founder)| LeaderCmd::MintLeaf { lgid, founder }),
        (lgid(), gid(), pvec(pid(), 0..4), 0usize..9).prop_map(
            |(lgid, leaf, contacts, size)| LeaderCmd::Contacts {
                lgid,
                leaf,
                contacts,
                size
            }
        ),
        (lgid(), gid()).prop_map(|(lgid, leaf)| LeaderCmd::LeafDead { lgid, leaf }),
        (lgid(), gid()).prop_map(|(lgid, leaf)| LeaderCmd::Split { lgid, leaf }),
        (lgid(), gid(), gid())
            .prop_map(|(lgid, leaf, target)| LeaderCmd::Dissolve { lgid, leaf, target }),
    ]
}

fn payload() -> impl Strategy<Value = HierPayload<String>> + Clone {
    prop_oneof![
        short_string().prop_map(HierPayload::Biz),
        tree_msg().prop_map(HierPayload::Tree),
        ctl_msg().prop_map(HierPayload::Ctl),
        leader_cmd().prop_map(HierPayload::Cmd),
    ]
}

fn hier_state() -> impl Strategy<Value = HierState<Vec<String>>> + Clone {
    prop_oneof![
        Just(HierState::None),
        pvec(short_string(), 0..4).prop_map(HierState::Leaf),
        (hier_view(), any::<u32>(), (0usize..5, 0usize..9)).prop_map(
            |(view, next_slot, (min_leaf, max_leaf))| HierState::Leader {
                view,
                next_slot,
                min_leaf,
                max_leaf
            }
        ),
    ]
}

fn cast_data() -> impl Strategy<Value = CastData<HierPayload<String>>> + Clone {
    (
        (any::<u64>(), any::<u64>(), cast_kind(), msg_id()),
        (vclock(), stab(), any::<bool>(), payload()),
    )
        .prop_map(
            |((gid, view, kind, id), (vt, stab, want_ack, payload))| CastData {
                gid: GroupId(gid),
                view,
                kind,
                id,
                vt,
                stab,
                want_ack,
                payload,
            },
        )
}

fn relay_set() -> impl Strategy<Value = RelaySet<HierPayload<String>>> + Clone {
    (
        pvec((msg_id(), vclock(), payload()), 0..3),
        pvec((msg_id(), payload()), 0..3),
        pvec((any::<u64>(), msg_id(), payload()), 0..3),
        pvec((msg_id(), payload()), 0..2),
    )
        .prop_map(|(causal, fifo, total_ordered, total_unordered)| RelaySet {
            causal,
            fifo,
            total_ordered,
            total_unordered,
        })
}

fn cluster_msg() -> impl Strategy<Value = ClusterMsg> + Clone {
    let gid = || any::<u64>().prop_map(GroupId);
    prop_oneof![
        gid().prop_map(|gid| IsisMsg::JoinReq { gid }),
        (gid(), pid()).prop_map(|(gid, joiner)| IsisMsg::JoinForward { gid, joiner }),
        gid().prop_map(|gid| IsisMsg::JoinDenied { gid }),
        gid().prop_map(|gid| IsisMsg::LeaveReq { gid }),
        (gid(), pid()).prop_map(|(gid, suspect)| IsisMsg::SuspectReport { gid, suspect }),
        (gid(), any::<u64>(), group_view()).prop_map(|(gid, attempt, proposal)| IsisMsg::Flush {
            gid,
            attempt,
            proposal
        }),
        ((gid(), any::<u64>(), any::<u64>()), stab(), relay_set()).prop_map(
            |((gid, attempt, member_view), stab, buffers)| IsisMsg::FlushAck {
                gid,
                attempt,
                member_view,
                stab,
                buffers
            }
        ),
        (
            (gid(), any::<u64>()),
            group_view(),
            relay_set(),
            (
                prop_oneof![Just(None), hier_state().prop_map(Some)],
                prop_oneof![Just(None), delivery_floor().prop_map(Some)]
            )
        )
            .prop_map(|((gid, attempt), view, relay, (state, floor))| IsisMsg::InstallView {
                gid,
                attempt,
                view,
                relay,
                state,
                floor
            }),
        cast_data().prop_map(IsisMsg::Cast),
        ((gid(), any::<u64>(), any::<u64>()), msg_id()).prop_map(
            |((gid, view, gseq), id)| IsisMsg::AbcastOrder {
                gid,
                view,
                gseq,
                id
            }
        ),
        (gid(), msg_id()).prop_map(|(gid, id)| IsisMsg::CastAck { gid, id }),
        (gid(), stab()).prop_map(|(gid, stab)| IsisMsg::Heartbeat { gid, stab }),
        payload().prop_map(IsisMsg::Direct),
    ]
}

// ----------------------------------------------------------- properties --

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Full-stack payload roundtrip: decode inverts encode, and the
    /// re-encoding is byte-identical (the encoder is canonical).
    #[test]
    fn wire_roundtrip_is_byte_identical(msg in cluster_msg()) {
        let bytes = encode_msg(&msg);
        let back: ClusterMsg = decode_msg(&bytes).expect("fresh encoding must decode");
        prop_assert_eq!(encode_msg(&back), bytes);
    }

    /// A data frame carries any payload bytes through intact.
    #[test]
    fn frame_roundtrip(seq in any::<u64>(), from in any::<u32>(), to in any::<u32>(),
                       payload in pvec(any::<u8>(), 0..64)) {
        let frame = Frame::Data { seq, from, to, payload };
        let mut out = Vec::new();
        encode_frame(&frame, &mut out);
        let (got, used) = decode_frame(&out).expect("clean").expect("complete");
        prop_assert_eq!(used, out.len());
        prop_assert_eq!(got, frame);
    }

    /// Every strict prefix of a frame is "need more bytes", never an error
    /// or a panic.
    #[test]
    fn truncated_frames_ask_for_more(msg in cluster_msg(), cut in any::<u16>()) {
        let frame = Frame::Data { seq: 1, from: 0, to: 1, payload: encode_msg(&msg) };
        let mut out = Vec::new();
        encode_frame(&frame, &mut out);
        let cut = (cut as usize) % out.len();
        prop_assert!(matches!(decode_frame(&out[..cut]), Ok(None)));
    }

    /// A truncated payload inside a well-framed message is rejected with
    /// an error, without panicking.
    #[test]
    fn truncated_payloads_error_cleanly(msg in cluster_msg(), cut in any::<u16>()) {
        let bytes = encode_msg(&msg);
        if bytes.is_empty() {
            return;
        }
        let cut = (cut as usize) % bytes.len();
        prop_assert!(decode_msg::<ClusterMsg>(&bytes[..cut]).is_err());
    }

    /// Raw garbage never panics either layer: the frame layer wants magic
    /// bytes, the payload layer wants a valid tag tree.
    #[test]
    fn garbage_never_panics(bytes in pvec(any::<u8>(), 0..96)) {
        let _ = decode_frame(&bytes);
        let _ = decode_msg::<ClusterMsg>(&bytes);
    }

    /// Flipping one byte of a frame yields more-bytes, an error, or a
    /// decodable frame — never a panic (payload corruption surfaces at the
    /// Wire layer instead).
    #[test]
    fn bit_flips_never_panic(msg in cluster_msg(), at in any::<u16>(),
                             flip in (0u8..255).prop_map(|b| b + 1)) {
        let frame = Frame::Data { seq: 9, from: 2, to: 3, payload: encode_msg(&msg) };
        let mut out = Vec::new();
        encode_frame(&frame, &mut out);
        let at = (at as usize) % out.len();
        out[at] ^= flip;
        if let Ok(Some((Frame::Data { payload, .. }, _))) = decode_frame(&out) {
            let _ = decode_msg::<ClusterMsg>(&payload);
        }
    }
}

/// Oversized length claims are rejected before any allocation happens.
#[test]
fn oversized_claims_rejected() {
    let mut bad = ((MAX_FRAME_BODY + 1) as u32).to_le_bytes().to_vec();
    bad.extend_from_slice(&[0u8; 16]);
    assert!(matches!(decode_frame(&bad), Err(CodecError::Oversized(_))));
    // And inside a payload: a Vec claiming more elements than there are
    // bytes left must fail fast instead of reserving the claim.
    let mut vec_claim = u32::MAX.to_le_bytes().to_vec();
    vec_claim.extend_from_slice(&[0u8; 4]);
    assert!(decode_msg::<Vec<String>>(&vec_claim).is_err());
}

/// The Wire trait is also directly usable for plain composites.
#[test]
fn wire_covers_plain_composites() {
    let v: Vec<(Pid, u64)> = vec![(Pid(1), 9), (Pid(2), 0)];
    let bytes = encode_msg(&v);
    let back: Vec<(Pid, u64)> = decode_msg(&bytes).expect("roundtrip");
    assert_eq!(back, v);
    let o: Option<String> = Some("hello".into());
    let back: Option<String> = decode_msg(&encode_msg(&o)).expect("roundtrip");
    assert_eq!(back, o);
}

/// Freezes the wire format. A renumbered tag or a reordered field still
/// roundtrips, so only a digest of fresh encodings catches it: a fixed
/// seed draws the same 2 048 cluster messages every run, and their
/// concatenated encodings must hash (FNV-1a, 64-bit) to the value the
/// codec produced when this test was written. Every variant of every
/// protocol enum occurs in the corpus, each at least 16 times. Editing
/// the strategies above changes the corpus too; a deliberate format or
/// corpus change must update both constants and say why.
#[test]
fn wire_format_is_frozen() {
    const SAMPLES: usize = 2048;
    const DIGEST: u64 = 0x048d_c080_381b_22ed;
    const BYTES: usize = 155_686;
    let strategy = cluster_msg();
    let mut rng = DetRng::seed_from_u64(0x5749_5245);
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut bytes = 0;
    for _ in 0..SAMPLES {
        let encoded = encode_msg(&strategy.sample(&mut rng));
        bytes += encoded.len();
        for b in encoded {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    assert_eq!((digest, bytes), (DIGEST, BYTES), "wire format changed: {digest:#018x}");
}
