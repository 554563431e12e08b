//===----------------------------------------------------------------------===//
///
/// \file
/// Static bytecode verifier. Runs a worklist dataflow over each method's
/// instruction stream and rejects structurally broken code before it can
/// reach the VM: jump targets out of range, fall-through off the end of
/// the method, operand-stack underflow or depth mismatches at merge
/// points, and malformed exception-handler ranges. linkProgram runs it
/// on every method it links, and the VM refuses a program with any
/// failure, so the linker is the one verify site on the execution path;
/// verifyProgram is the same check without linking, for tests.
///
/// As a by-product the verifier computes each method's maximum operand
/// stack depth and the stack depth at every handler's protected-range
/// start — the linker uses both to size VM frames and to cut the operand
/// stack back to the right depth when an exception unwinds into a
/// handler that sits mid-expression.
///
//===----------------------------------------------------------------------===//

#ifndef MPC_BACKEND_VERIFIER_H
#define MPC_BACKEND_VERIFIER_H

#include "backend/Bytecode.h"

namespace mpc {

/// Depth facts computed while verifying one method (only meaningful when
/// the method verified cleanly).
struct StackDepths {
  /// Maximum operand-stack depth over all reachable instructions.
  uint32_t MaxStack = 0;
  /// Per-handler operand depth at the protected range's start; the depth
  /// an unwind must cut the stack back to before pushing the exception.
  std::vector<uint32_t> HandlerDepth;
};

/// Verifies one method. Appends failures to \p Failures; returns true
/// when the method is clean. \p Depths is filled on success.
bool verifyMethod(const MethodCode &MC, std::vector<VerifyFailure> &Failures,
                  StackDepths *Depths = nullptr);

/// Verifies every method of every class. Returns all failures (empty =
/// program is structurally sound).
std::vector<VerifyFailure> verifyProgram(const Program &Prog);

} // namespace mpc

#endif // MPC_BACKEND_VERIFIER_H
