/**
 * @file
 * Network message types shared by every interconnect model.
 *
 * The trace-driven evaluation (Section 4) moves L2-miss transactions:
 * a request phit to the home cluster's memory controller and a response
 * carrying the cache line back. Invalidate messages ride the broadcast
 * bus. Sizes follow the paper: 64 B cache lines, with a 16 B
 * address/command header on every message.
 */

#ifndef CORONA_NOC_MESSAGE_HH
#define CORONA_NOC_MESSAGE_HH

#include <cstddef>
#include <cstdint>

#include "sim/logging.hh"
#include "sim/types.hh"
#include "topology/geometry.hh"

namespace corona::noc {

/** Message kinds moved by the on-stack interconnect. */
enum class MsgKind : std::uint8_t
{
    ReadReq,    ///< L2 miss read request (header only).
    WriteReq,   ///< Writeback/write miss (header + line).
    ReadResp,   ///< Fill response (header + line).
    WriteAck,   ///< Write completion (header only).
    Invalidate, ///< Coherence invalidate (header only, broadcast bus).
};

/** Number of MsgKind values. */
inline constexpr std::size_t numMsgKinds = 5;
static_assert(static_cast<std::size_t>(MsgKind::Invalidate) + 1 ==
                  numMsgKinds,
              "numMsgKinds must count every MsgKind");

/** Cache line size, bytes (Table 1). */
inline constexpr std::uint32_t cacheLineBytes = 64;

/** Address/command header size, bytes. */
inline constexpr std::uint32_t headerBytes = 16;

/** Wire size in bytes of a message of the given kind. Inline: every
 * channel serialization and mesh hop timing asks for it. */
inline std::uint32_t
wireBytes(MsgKind kind)
{
    switch (kind) {
      case MsgKind::ReadReq:
      case MsgKind::WriteAck:
      case MsgKind::Invalidate:
        return headerBytes;
      case MsgKind::WriteReq:
      case MsgKind::ReadResp:
        return headerBytes + cacheLineBytes;
    }
    sim::panic("wireBytes: unknown message kind");
}

/**
 * A network message. Plain value type; models pass it around by value
 * and interconnects never inspect the tag (opaque to the network).
 */
struct Message
{
    topology::ClusterId src = 0;
    topology::ClusterId dst = 0;
    MsgKind kind = MsgKind::ReadReq;
    /** Tick at which the sender handed the message to the network. */
    sim::Tick injected = 0;
    /** Opaque sender cookie (request tracking). */
    std::uint64_t tag = 0;

    /** Size on the wire, bytes. */
    std::uint32_t bytes() const { return wireBytes(kind); }
};

} // namespace corona::noc

#endif // CORONA_NOC_MESSAGE_HH
