//===----------------------------------------------------------------------===//
///
/// \file
/// A direct-threaded bytecode VM over the linked program (Linker.h). The
/// execution-model counterpart of the tree interpreter: flat tagged
/// values, slot-indexed frames on one contiguous value stack, monomorphic
/// inline caches on virtual-call and field sites, and computed-goto
/// dispatch with the label address cached in each instruction. The tree
/// interpreter stays in place as the semantic oracle — for every valid
/// program the VM must produce byte-identical output, uncaught-exception
/// text, and error strings (the differential suite in
/// tests/backend/VMExecutionTest.cpp enforces this).
///
//===----------------------------------------------------------------------===//

#ifndef MPC_BACKEND_VM_H
#define MPC_BACKEND_VM_H

#include "backend/Interpreter.h" // ExecResult
#include "backend/Linker.h"

namespace mpc {

/// Executes a linked program. Holds the run's heap (objects, arrays,
/// strings live until the VM is destroyed — programs are bounded by the
/// step limit, so there is no collector) and the module instances.
class VM {
public:
  /// \p StepLimit mirrors the tree interpreter's runaway-loop guard; both
  /// engines report "step limit exceeded" through ExecResult::Error.
  /// Inline caches and (on first run) the threading pass write into
  /// \p Linked, so the program is taken by mutable reference; it must
  /// outlive the VM.
  VM(CompilerContext &Comp, LinkedProgram &Linked,
     uint64_t StepLimit = 50'000'000);
  ~VM();

  /// Runs `main(args)` on the entry-point symbol. Cooperative
  /// cancellation mirrors the interpreter: every 256th step polls the
  /// context's CancelToken, and DeadlineExceeded propagates out.
  /// Flushes backend.vm.* counters (steps, inline-cache hits/misses,
  /// frames, allocations) into the context's stats.
  ExecResult runMain(Symbol *EntryPoint,
                     const std::vector<std::string> &Args = {});

  /// Enables dynamic opcode-pair counting (a NumLOps x NumLOps matrix of
  /// (previous, current) dispatch counts). Sends every dispatch through
  /// the loop's slow path; used by bench_vm_pairs to measure which pairs
  /// are worth fusing into superinstructions. Count rows are read back
  /// with pairCounts() (index previous * NumLOps + current); the sum of
  /// column X, the pairs that end in X, is X's dispatch count.
  void enablePairCounts();
  const std::vector<uint64_t> &pairCounts() const;

private:
  class Impl;
  std::unique_ptr<Impl> P;
};

} // namespace mpc

#endif // MPC_BACKEND_VM_H
