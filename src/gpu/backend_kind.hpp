#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/error.hpp"

namespace saclo::gpu {

/// Raised on unknown backend names.
class BackendError : public Error {
 public:
  using Error::Error;
};

/// The execution backends of a VirtualGpu, which differ only in the
/// device clock: `Sim` charges the analytic cost model (the original
/// simulator), `Host` the measured wall time of the same work.
///
/// This header is dependency-light on purpose: the obs event log and the
/// serve options tag things with a BackendKind without pulling in the
/// whole executor stack.
enum class BackendKind : std::uint8_t { Sim = 0, Host = 1 };

inline const char* backend_kind_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::Sim:
      return "sim";
    case BackendKind::Host:
      return "host";
  }
  return "unknown";
}

/// Every backend kind, in BackendKind order: Sim, then Host.
inline std::vector<BackendKind> available_backends() {
  return {BackendKind::Sim, BackendKind::Host};
}

/// How a backend's device clock comes about, for report labels: the
/// simulator's is modeled, an executing backend's measured.
inline const char* device_clock_name(BackendKind kind) {
  return kind == BackendKind::Sim ? "modeled" : "measured";
}

/// Parses "sim" / "host"; throws BackendError on anything else.
inline BackendKind parse_backend_kind(const std::string& name) {
  if (name == "sim") return BackendKind::Sim;
  if (name == "host") return BackendKind::Host;
  throw BackendError("unknown execution backend '" + name + "' (expected sim or host)");
}

}  // namespace saclo::gpu
