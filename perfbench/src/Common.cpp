#include "Workloads.h"

#include "ast/Symbols.h"
#include "ast/TreePrinter.h"
#include "ast/Types.h"

#include <cstring>
#include <sys/resource.h>

using namespace mpc;
using namespace perfbench;

uint64_t perfbench::mixSeed(uint64_t Seed, uint64_t Stream) {
  uint64_t Z = Seed * 0x9e3779b97f4a7c15ull + Stream + 0x632be59bd9b4e019ull;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

double perfbench::peakRssMb() {
  struct rusage U;
  std::memset(&U, 0, sizeof(U));
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

namespace {

/// Serializes bytecode for fingerprinting; every string passes through
/// one fresh-name canonicalizer.
struct ProgramWriter {
  std::string B;
  FreshNameMap Fresh;

  void u64(uint64_t V) {
    B.append(reinterpret_cast<const char *>(&V), sizeof(V));
  }
  void str(const std::string &S) {
    std::string C = canonicalFreshNames(S, Fresh);
    u64(C.size());
    B += C;
  }
  void sym(const Symbol *S) { str(S ? S->fullName() : std::string("<none>")); }
  void type(const Type *T) { str(T ? T->show() : std::string("<none>")); }
};

} // namespace

Fingerprint perfbench::fingerprintProgram(const Program &Prog) {
  ProgramWriter W;
  for (const ClassFile &CF : Prog.Classes) {
    W.sym(CF.Cls);
    W.u64(CF.Fields.size());
    for (const Symbol *F : CF.Fields)
      W.sym(F);
    W.u64(CF.Methods.size());
    for (const MethodCode &M : CF.Methods) {
      W.sym(M.Method);
      W.u64(M.MaxLocals);
      W.u64(M.Params.size());
      for (const Symbol *P : M.Params)
        W.sym(P);
      W.u64(M.Code.size());
      for (const Instr &I : M.Code) {
        W.u64(static_cast<uint64_t>(I.Code));
        W.u64(static_cast<uint64_t>(I.Imm));
        uint64_t NumBits = 0;
        std::memcpy(&NumBits, &I.Num, sizeof(NumBits));
        W.u64(NumBits);
        W.str(I.Str);
        W.sym(I.Sym);
        W.type(I.TypeRef);
        W.sym(I.SuperCls);
        W.u64(static_cast<uint64_t>(static_cast<int64_t>(I.Target)));
        W.u64(I.ArgCount);
      }
      W.u64(M.Handlers.size());
      for (const Handler &H : M.Handlers) {
        W.u64(H.Start);
        W.u64(H.End);
        W.u64(H.Entry);
        W.type(H.CatchType);
        W.u64(H.IsFinally ? 1 : 0);
      }
    }
  }
  W.u64(Prog.EntryPoints.size());
  for (const Symbol *E : Prog.EntryPoints)
    W.sym(E);
  return fingerprintString(W.B);
}

Fingerprint
perfbench::fingerprintUnits(const std::vector<CompilationUnit> &Units) {
  PrintOptions PO;
  PO.ShowTypes = true;
  FreshNameMap Fresh;
  Fingerprint FP;
  for (const CompilationUnit &U : Units) {
    FP = fingerprintString(U.FileName, FP);
    FP = fingerprintString(
        canonicalFreshNames(treeToString(U.Root.get(), PO), Fresh), FP);
  }
  return FP;
}

void perfbench::reportTraceSummary(const std::vector<const Tracer *> &Tracers,
                                   const std::string &RootName,
                                   double OverheadPct, WorkloadResult &R) {
  std::vector<double> Residual;
  size_t Roots = 0, SpansInRequests = 0;
  for (const Tracer *T : Tracers) {
    const std::vector<Span> &Spans = T->spans();
    std::vector<int64_t> Self = selfTimesNs(Spans);
    // A request's spans are its root and everything below it; the root
    // of every span is found by walking parents (parents precede kids).
    std::vector<int32_t> RootOf(Spans.size(), -1);
    for (size_t I = 0; I < Spans.size(); ++I) {
      int32_t P = Spans[I].Parent;
      RootOf[I] = P < 0 ? static_cast<int32_t>(I) : RootOf[size_t(P)];
    }
    for (size_t I = 0; I < Spans.size(); ++I) {
      bool InRequest = T->name(Spans[size_t(RootOf[I])].NameId) == RootName;
      if (!InRequest)
        continue;
      ++SpansInRequests;
      if (Spans[I].Parent < 0) {
        ++Roots;
        Residual.push_back(double(Self[I]) / 1e6);
      }
    }
  }
  R.Layers["trace.residual_ms"] = median(Residual);
  R.Layers["trace.spans_per_request"] =
      Roots ? double(SpansInRequests) / double(Roots) : 0;
  R.Layers["trace.overhead_pct"] = OverheadPct;
}

bool perfbench::writeTrace(const RunConfig &Cfg, const std::string &Workload,
                           const std::vector<const Tracer *> &Tracers) {
  std::string Meta = "\"workload\":\"" + Workload +
                     "\",\"seed\":" + std::to_string(Cfg.Seed) +
                     ",\"machine\":" + Cfg.MachineJson;
  return writeChromeTrace(Cfg.TracePath, Tracers, Meta);
}
