//===----------------------------------------------------------------------===//
// mpc_fuzz — deterministic full-pipeline fuzz driver.
//
// Runs seeded generator families (valid and adversarial) through the whole
// compiler and checks the totality properties (no crashes, deterministic
// diagnostics, warm == cold after context recycling) plus the compiler's
// own invariants (TreeChecker after every group, the verifier on every
// linked method, VM == tree-walker). Every case replays from its
// (family, seed, scale) triple:
//
//   mpc_fuzz --seeds 10000                    # full campaign
//   mpc_fuzz --families truncated,mixed       # subset
//   mpc_fuzz --start 1234 --seeds 1 --dump    # reproduce one case
//
// Exit code 0 when every property held, 1 otherwise; 2 on a bad flag.
// Numeric values are checked (ToolFlags.h): --scale in (0, 10].
//===----------------------------------------------------------------------===//

#include "ToolFlags.h"

#include "workload/Fuzzer.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace mpc;
using namespace mpc::tools;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: mpc_fuzz [options]\n"
      "  --seeds N        number of seeds per family (default 100)\n"
      "  --start N        first seed (default 0)\n"
      "  --scale F        program size scale (default 0.25)\n"
      "  --families a,b   comma-separated subset (default: all)\n"
      "  --dump           print each case's generated sources\n"
      "  --list-families  print family names and exit\n");
}

Family parseFamily(const std::string &Name, bool &Ok) {
  for (Family F : allFamilies())
    if (Name == familyName(F)) {
      Ok = true;
      return F;
    }
  Ok = false;
  return Family::Mixed;
}

} // namespace

int main(int Argc, char **Argv) {
  uint64_t NumSeeds = 100;
  uint64_t StartSeed = 0;
  double Scale = 0.25;
  bool Dump = false;
  std::vector<Family> Families = allFamilies();

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto NextValue = [&]() -> const char * {
      if (I + 1 >= Argc) {
        usage();
        std::exit(2);
      }
      return Argv[++I];
    };
    if (Arg == "--seeds") {
      NumSeeds = parseUInt("--seeds", NextValue(), 0, UINT32_MAX);
    } else if (Arg == "--start") {
      StartSeed = parseUInt("--start", NextValue(), 0, UINT64_MAX);
    } else if (Arg == "--scale") {
      Scale = parseReal("--scale", NextValue(), 0, 10, true);
    } else if (Arg == "--families") {
      Families.clear();
      std::string List = NextValue();
      size_t Pos = 0;
      while (Pos <= List.size()) {
        size_t Comma = List.find(',', Pos);
        if (Comma == std::string::npos)
          Comma = List.size();
        std::string Name = List.substr(Pos, Comma - Pos);
        if (!Name.empty()) {
          bool Ok = false;
          Family F = parseFamily(Name, Ok);
          if (!Ok) {
            std::fprintf(stderr, "mpc_fuzz: unknown family '%s'\n",
                         Name.c_str());
            return 2;
          }
          Families.push_back(F);
        }
        Pos = Comma + 1;
      }
      if (Families.empty()) {
        usage();
        return 2;
      }
    } else if (Arg == "--dump") {
      Dump = true;
    } else if (Arg == "--list-families") {
      for (Family F : allFamilies())
        std::printf("%s%s\n", familyName(F),
                    familyIsValid(F) ? "" : " (invalid)");
      return 0;
    } else {
      usage();
      return Arg == "--help" || Arg == "-h" ? 0 : 2;
    }
  }

  if (Dump) {
    for (uint64_t S = 0; S < NumSeeds; ++S)
      for (Family F : Families) {
        std::printf("==== %s seed=%llu scale=%g ====\n", familyName(F),
                    static_cast<unsigned long long>(StartSeed + S), Scale);
        for (const SourceInput &Src :
             generateFamily(F, StartSeed + S, Scale))
          std::printf("---- %s ----\n%s", Src.FileName.c_str(),
                      Src.Text.c_str());
      }
  }

  FuzzStats Stats = runFuzzCampaign(Families, StartSeed, NumSeeds, Scale);

  std::printf("mpc_fuzz: %llu cases (%llu families x %llu seeds), "
              "%llu clean, %llu with diagnostics, %llu diagnostic lines, "
              "%llu VM runs\n",
              static_cast<unsigned long long>(Stats.CasesRun),
              static_cast<unsigned long long>(Families.size()),
              static_cast<unsigned long long>(NumSeeds),
              static_cast<unsigned long long>(Stats.CleanCompiles),
              static_cast<unsigned long long>(Stats.ErrorCompiles),
              static_cast<unsigned long long>(Stats.DiagsSeen),
              static_cast<unsigned long long>(Stats.VmRuns));
  if (Stats.ok()) {
    std::printf("mpc_fuzz: all properties held (no crashes, deterministic, "
                "warm == cold, trees check, bytecode verifies, "
                "vm == tree-walker, types render apart)\n");
    return 0;
  }
  std::printf("mpc_fuzz: %zu violations\n", Stats.Violations.size());
  for (const FuzzViolation &V : Stats.Violations)
    std::printf("  [%s] %s\n    reproduce: mpc_fuzz --families %s --start "
                "%llu --seeds 1 --scale %g --dump\n",
                V.Kind.c_str(), V.Detail.c_str(), familyName(V.Case.F),
                static_cast<unsigned long long>(V.Case.Seed), V.Case.Scale);
  return 1;
}
