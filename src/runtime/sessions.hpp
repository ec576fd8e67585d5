#pragma once

/// \file sessions.hpp
/// Every protocol bound to a runtime, by name.
///
/// The discrete-event runtime::Engine and the real-time net::NetEngine
/// drive the same EndpointCore machines; these aliases bind them to the
/// concrete cores.  All transport machinery (channels, the four
/// TimeoutModes, metrics, tracing) lives in runtime/engine.hpp and
/// net/net_engine.hpp; the protocol policies live in the cores
/// (ba/engine_core.hpp, baselines/engine_cores.hpp).
///
/// Core-specific notes:
///   - go-back-N: classic discipline is the SimpleTimer (cumulative acks,
///     one timer, whole-window retransmission).  Performance runs use the
///     unbounded mode (Options::domain = 0), which is correct under loss
///     and reorder; the bounded mode exists for the model checker's E1
///     reproduction and is NOT safe over reordering channels (see
///     verify/gbn_system.hpp).
///   - time-constrained (Stenning; Shankar & Lam): the residue-quarantine
///     stall surfaces through the core's send_blocked_until gate -- the
///     throughput penalty E7 measures as a function of the domain size N.
///   - alternating-bit: stop-and-wait over FIFO channels only, the
///     no-pipelining floor of E8.
///   - net engines run residue (wire-mapped) cores too: the payload stash
///     is keyed by wire value and translated back at delivery through
///     the cores' wire_seq() (runtime::kCoreWireMapped).  Every net
///     engine is duplex-capable: set reverse_count (and optionally
///     piggyback) on the NetConfig.

#include "ba/engine_core.hpp"
#include "baselines/engine_cores.hpp"
#include "net/net_engine.hpp"
#include "runtime/engine.hpp"

namespace bacp::runtime {

template <typename SenderCore, typename ReceiverCore>
using BaSession = Engine<ba::EngineCore<SenderCore, ReceiverCore>>;

/// SII/SIV protocol with unbounded sequence numbers.
using UnboundedSession = BaSession<ba::Sender, ba::Receiver>;
/// SV fully bounded protocol (residues mod 2w on the wire).
using BoundedSession = BaSession<ba::BoundedSender, ba::BoundedReceiver>;
/// SVI hole-reuse extension (unbounded wire sequence numbers).
using HoleReuseSession = BaSession<ba::HoleReuseSender, ba::Receiver>;

using AbpSession = Engine<baselines::AbpCore>;
using GbnSession = Engine<baselines::GbnCore>;
using SrSession = Engine<baselines::SrCore>;
using TcSession = Engine<baselines::TcCore>;

}  // namespace bacp::runtime

namespace bacp::net {

using BaNetEngine = NetEngine<ba::EngineCore<ba::Sender, ba::Receiver>>;
using BoundedBaNetEngine = NetEngine<ba::EngineCore<ba::BoundedSender, ba::BoundedReceiver>>;
using HoleReuseNetEngine = NetEngine<ba::EngineCore<ba::HoleReuseSender, ba::Receiver>>;
using AbpNetEngine = NetEngine<baselines::AbpCore>;
using GbnNetEngine = NetEngine<baselines::GbnCore>;
using SrNetEngine = NetEngine<baselines::SrCore>;
using TcNetEngine = NetEngine<baselines::TcCore>;

}  // namespace bacp::net
