#include "noc/message.hh"

#include "sim/logging.hh"

namespace corona::noc {

std::uint32_t
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

std::string
to_string(MsgKind kind)
{
    switch (kind) {
      case MsgKind::ReadReq: return "ReadReq";
      case MsgKind::WriteReq: return "WriteReq";
      case MsgKind::ReadResp: return "ReadResp";
      case MsgKind::WriteAck: return "WriteAck";
      case MsgKind::Invalidate: return "Invalidate";
    }
    return "Unknown";
}

} // namespace corona::noc
