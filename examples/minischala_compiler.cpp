//===----------------------------------------------------------------------===//
// A complete compiler run: MiniScala source -> typed trees -> 28-phase
// lowering pipeline -> bytecode, then execution. Compiles a file given on
// the command line, or the paper's Listing 1 example by default.
//
//   $ ./examples/minischala_compiler [file.scala]
//===----------------------------------------------------------------------===//

#include "backend/Interpreter.h"
#include "driver/Driver.h"
#include "support/OStream.h"
#include "workload/Corpus.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace mpc;

int main(int argc, char **argv) {
  std::string Name = "listing1.scala";
  std::string Source;
  if (argc > 1) {
    Name = argv[1];
    std::ifstream In(argv[1]);
    if (!In) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    Source = SS.str();
  } else {
    Source = findCorpusProgram("listing1")->Source;
    outs() << "(no file given; compiling the paper's Listing 1 demo)\n\n";
  }

  CompilerContext Comp;
  Comp.options().CheckTrees = true; // -Ycheck: verify between groups
  std::vector<SourceInput> Sources;
  Sources.push_back({Name, Source});
  CompileOutput Out =
      compileProgram(Comp, std::move(Sources), PipelineKind::StandardFused);

  if (Comp.diags().hasErrors()) {
    Comp.diags().printAll(errs());
    return 1;
  }
  for (const CheckFailure &F : Out.CheckFailures)
    errs() << "checker: " << F.Message << '\n';

  outs() << "frontend   " << Out.Timings.FrontendSec << "s\n"
         << "transforms " << Out.Timings.TransformSec << "s ("
         << Out.Groups.size() << " tree traversals)\n"
         << "backend    " << Out.Timings.BackendSec << "s\n"
         << "bytecode   " << Out.Prog.totalInstructions()
         << " instructions in " << Out.Prog.Classes.size() << " classes\n";
  // The driver's report: one line per plan group (one traversal each).
  for (const GroupReport &G : Out.Groups)
    outs() << "  group " << G.Name << ": " << G.NodesVisited
           << " nodes visited, " << G.HooksExecuted << " hooks, "
           << G.SubtreesPruned << " subtrees pruned\n";

  if (Out.EntryPoints.empty()) {
    outs() << "(no main method; nothing to run)\n";
    return 0;
  }
  outs() << "\nrunning " << Out.EntryPoints.front()->fullName() << ":\n";
  Interpreter Interp(Comp, Out.Units);
  ExecResult R = Interp.runMain(Out.EntryPoints.front());
  outs() << R.Output;
  if (R.Uncaught) {
    errs() << R.Error << '\n';
    return 1;
  }
  return 0;
}
