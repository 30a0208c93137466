//===- interp/Backend.h - Execution backends and capabilities ---*- C++ -*-===//
///
/// \file
/// The evaluators a run can execute on, and the one capability table the
/// run driver (interp/Eval.cpp), the CLI and `monsem serve` consult for
/// backend names and for what each backend can do. Kept free of the
/// machine headers so the wire protocol can validate a backend name
/// without pulling in the runtime Value.
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_INTERP_BACKEND_H
#define MONSEM_INTERP_BACKEND_H

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>

namespace monsem {

/// Which evaluator executes the program.
enum class Backend : uint8_t {
  CEK,        ///< The production CEK machine (all three strategies).
  VM,         ///< Compile to bytecode, run on the stack VM (strict only).
  VMRegister, ///< Compile, lower to the register tier, run (strict only).
  VMAot,      ///< Register tier + native code for leaf blocks (strict
              ///< only); degrades to VMRegister without a C compiler.
  Direct,     ///< The definitional CPS interpreter (strict only).
};

/// What a backend can do beyond running a program under a cascade.
struct BackendCaps {
  const char *Name; ///< The CLI and wire spelling ("cek", "vm-reg", ...).
  const char *Tag;  ///< The `&` selector ("kCEK", "kVMReg", ...).
  bool Lazy;        ///< Runs call-by-name and call-by-need, not just strict.
  /// Resume, checkpoint sinks, journal and event tap (all need
  /// serializable machine state or the MonitorHooks chain).
  bool Durable;
};

/// Indexed by Backend.
inline constexpr BackendCaps kBackendCaps[] = {
    {"cek", "kCEK", /*Lazy=*/true, /*Durable=*/true},
    {"vm", "kVM", /*Lazy=*/false, /*Durable=*/true},
    {"vm-reg", "kVMReg", /*Lazy=*/false, /*Durable=*/true},
    {"vm-aot", "kVMAot", /*Lazy=*/false, /*Durable=*/true},
    {"direct", "kDirect", /*Lazy=*/false, /*Durable=*/false},
};
static_assert(std::size(kBackendCaps) ==
                  static_cast<size_t>(Backend::Direct) + 1,
              "one capability row per backend");

inline const BackendCaps &backendCaps(Backend B) {
  return kBackendCaps[static_cast<size_t>(B)];
}

/// The backend whose BackendCaps::Name is \p Name, if any.
inline std::optional<Backend> parseBackend(std::string_view Name) {
  for (size_t I = 0; I < std::size(kBackendCaps); ++I)
    if (Name == kBackendCaps[I].Name)
      return static_cast<Backend>(I);
  return std::nullopt;
}

/// Every backend's name in Backend order, joined by \p Sep.
inline std::string backendNames(std::string_view Sep = ", ") {
  std::string S;
  for (const BackendCaps &Caps : kBackendCaps)
    S += (S.empty() ? "" : std::string(Sep)) + Caps.Name;
  return S;
}

} // namespace monsem

#endif // MONSEM_INTERP_BACKEND_H
