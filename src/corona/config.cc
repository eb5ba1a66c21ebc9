#include "corona/config.hh"

namespace corona::core {

std::string
to_string(NetworkKind kind)
{
    switch (kind) {
      case NetworkKind::XBar: return "XBar";
      case NetworkKind::HMesh: return "HMesh";
      case NetworkKind::LMesh: return "LMesh";
      case NetworkKind::Ideal: return "Ideal";
    }
    return "Unknown";
}

std::string
to_string(MemoryKind kind)
{
    switch (kind) {
      case MemoryKind::OCM: return "OCM";
      case MemoryKind::ECM: return "ECM";
    }
    return "Unknown";
}

std::string
SystemConfig::name() const
{
    if (!label.empty())
        return label;
    return to_string(network) + "/" + to_string(memory);
}

SystemConfig
makeConfig(NetworkKind network, MemoryKind memory)
{
    SystemConfig config;
    config.network = network;
    config.memory = memory;
    switch (network) {
      case NetworkKind::HMesh:
        config.mesh = mesh::hmeshParams();
        break;
      case NetworkKind::LMesh:
        config.mesh = mesh::lmeshParams();
        break;
      case NetworkKind::XBar:
      case NetworkKind::Ideal:
        break;
    }
    return config;
}

} // namespace corona::core
