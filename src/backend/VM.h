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

/// Executes a linked program. Holds the module instances and the heap
/// they and the runs share: objects, arrays and strings on 64 KiB pages
/// from the process's page source. Module instances persist from one
/// runMain to the next, and their fields can hold what a run made.
///
/// The heap is collected only between runs, at runMain entry (or by
/// collect()). Then the stack and the frames are dead, so the module
/// slots are the only roots and no stack map is needed. runMain
/// collects once the heap has grown by max(CollectFloorBytes, twice
/// what the last collection kept): a copying (Cheney) collection moves
/// what the modules reach onto fresh pages and gives the old ones back.
/// A run never collects; the step limit bounds what one run allocates.
/// So a VM serving many runs holds what its modules keep plus at most a
/// few pages of garbage, whatever the run count.
class VM {
public:
  /// The least growth, in bytes, that makes runMain collect: 4 pages.
  static constexpr size_t CollectFloorBytes = 4 * 64 * 1024;

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
  /// frames, allocations, and the collection made at entry, if any:
  /// backend.vm.gc.collections and backend.vm.gc.bytes_copied) into the
  /// context's stats.
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

  /// Collects the heap now, as runMain does at entry once it has grown
  /// enough: between runs, nothing but the module instances survives.
  /// The fuzzer forces one before each repeated run, so every run after
  /// the first starts on a collected heap. Counted with the next run's
  /// backend.vm.gc.* counters.
  void collect();

  /// Heap bytes held: the pages in use and the blocks of cells larger
  /// than a page.
  size_t heapBytes() const;

private:
  class Impl;
  std::unique_ptr<Impl> P;
};

} // namespace mpc

#endif // MPC_BACKEND_VM_H
